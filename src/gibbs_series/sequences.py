"""Exponent sequences for countable sums of exponentials.

A sequence ``sigma_1 <= sigma_2 <= ...`` defines the series
``f(y) = sum_n exp(sigma_n * y)``.  Every family carries the analytic
metadata (positivity, growth, a uniform lower bound on increments) that
the series module needs to certify truncation tails.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property
from math import isqrt
from typing import Callable, Optional

import numpy as np

__all__ = [
    "Family",
    "SigmaSequence",
    "SequenceIndexError",
    "linear",
    "power",
    "logfam",
    "loglog",
    "quadratic",
    "box",
    "custom",
    "parse_sequence",
    "sigma",
    "sigma_values",
    "increment_gap",
    "enumerate_box",
    "box_levels",
    "VarsigmaFamily",
    "VarsigmaSequence",
    "parse_varsigma",
]


class SequenceIndexError(ValueError):
    """Raised when an index below the sequence start is requested."""


class Family(str, Enum):
    LINEAR = "linear"            # sigma_n = n
    POWER = "power"              # sigma_n = n**theta, theta > 0
    LOGFAM = "logfam"            # sigma_n = ln(n (ln n)**theta), n >= 3
    LOGLOG = "loglog"            # sigma_n = ln(ln n), n >= 3 (empty domain)
    QUADRATIC = "quadratic"      # sigma_n = n**2
    BOX = "box"                  # kappa*(k^2+l^2+m^2), flattened by sorted level
    CUSTOM = "custom"


@dataclass(frozen=True)
class SigmaSequence:
    """An exponent sequence together with its tail-growth metadata.

    ``start_index`` is the first valid index n.  The log families start at
    n = 3 so that every exponent is positive and nondecreasing; dropping a
    finite prefix does not change the domain edge or the boundary slope,
    but numeric boundary-slope values are specific to the start index.

    Custom sequences must declare their domain edge ``declared_alpha`` and
    a uniform increment lower bound ``declared_gap``; the library does not
    attempt to certify convergence for arbitrary generators.
    """

    family: Family
    theta: Optional[float] = None
    kappa: Optional[float] = None
    start_index: int = 1
    generator: Optional[Callable[[int], float]] = field(default=None, compare=False)
    declared_alpha: Optional[float] = None
    declared_gap: Optional[float] = None
    label: str = ""

    def __hash__(self) -> int:
        # the generated hash over the compared fields, computed once: memo
        # and cache keys hash their sequence on every lookup
        try:
            return self._hash
        except AttributeError:
            h = hash(
                (
                    self.family,
                    self.theta,
                    self.kappa,
                    self.start_index,
                    self.declared_alpha,
                    self.declared_gap,
                    self.label,
                )
            )
            object.__setattr__(self, "_hash", h)
            return h

    def __getstate__(self) -> dict:
        # str hashes are salted per process, so the cached hash stays behind
        state = dict(self.__dict__)
        state.pop("_hash", None)
        return state

    @cached_property  # read once per summed block
    def sigma_error(self) -> tuple[float, float, float]:
        """(e_rel, e_abs, e_pow) bounding the exponents' rounding: each
        sigma_n computed by ``sigma`` or ``sigma_values`` is within
        (e_rel sigma_n + e_abs) u of the exact one, u = 2^-53, hence within
        e_pow u relative, e_pow = e_rel + e_abs / sigma_start (wherever
        e_abs > 0 the exponents are positive and nondecreasing).

        Integer exponents are exact: n^2 stays below 2^53 up to n = 9.4e7,
        past any default term budget.  Power and box values take one
        rounded pow or product.  For the log family, with logs off by at
        most 2 ulps (numpy's measure within 0.51 of mpmath), ln n carries
        4 ln n u and ln ln n carries 4 (1 + ln ln n) u; bounding ln n and
        theta ln ln n by sigma_n (theta >= 0) or ln n by 2 sigma_n
        (-1 <= theta < 0) gives the pair below.  Custom exponents are the
        generator's floats, exact by definition (see ``signed``).
        """
        fam = self.family
        if fam is Family.LOGFAM:
            e_rel, e_abs = 19.0, 4.0 * max(abs(self.theta), 1.0)
        elif fam is Family.LOGLOG:
            e_rel, e_abs = 8.0, 8.0
        elif fam is Family.POWER:
            return 2.0, 0.0, 2.0
        elif fam is Family.BOX:
            return 1.0, 0.0, 1.0
        else:
            return 0.0, 0.0, 0.0
        return e_rel, e_abs, e_rel + e_abs / sigma(self, self.start_index)

    @cached_property
    def signed(self) -> bool:
        """Whether some exponent is negative.  Only a custom sequence's can
        be; every other family starts positive."""
        return self.family is Family.CUSTOM and float(self.generator(self.start_index)) < 0.0

    def spec_string(self) -> str:
        """Round-trippable form used by the CLI mini-grammar."""
        if self.family is Family.POWER:
            return f"power:{self.theta:g}"
        if self.family is Family.LOGFAM:
            return f"logfam:{self.theta:g}"
        if self.family is Family.BOX:
            return f"box:{self.kappa:g}"
        if self.family is Family.CUSTOM:
            return self.label or "custom"
        return self.family.value

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.spec_string()


# the parameterless families are single instances, so keys holding them
# compare by identity
_LINEAR = SigmaSequence(Family.LINEAR)
_LOGLOG = SigmaSequence(Family.LOGLOG, start_index=3)
_QUADRATIC = SigmaSequence(Family.QUADRATIC)


def linear() -> SigmaSequence:
    return _LINEAR


def power(theta: float) -> SigmaSequence:
    if not theta > 0:
        raise ValueError(f"power family needs theta > 0, got {theta}")
    return SigmaSequence(Family.POWER, theta=float(theta))


def logfam(theta: float) -> SigmaSequence:
    # theta < -1 would make sigma_n negative or decreasing near n = 3;
    # the supported range keeps every invariant valid from the start index.
    if theta < -1.0:
        raise ValueError(f"logfam family supports theta >= -1, got {theta}")
    return SigmaSequence(Family.LOGFAM, theta=float(theta), start_index=3)


def loglog() -> SigmaSequence:
    return _LOGLOG


def quadratic() -> SigmaSequence:
    return _QUADRATIC


def box(kappa: float = 1.0) -> SigmaSequence:
    if not kappa > 0:
        raise ValueError(f"box family needs kappa > 0, got {kappa}")
    return SigmaSequence(Family.BOX, kappa=float(kappa))


def custom(
    generator: Callable[[int], float],
    declared_alpha: float,
    declared_gap: float,
    start_index: int = 1,
    label: str = "custom",
) -> SigmaSequence:
    if declared_alpha < 0:
        raise ValueError("declared_alpha must be >= 0")
    if not declared_gap > 0:
        raise ValueError("declared_gap must be > 0 (tails cannot be certified otherwise)")
    return SigmaSequence(
        Family.CUSTOM,
        start_index=int(start_index),
        generator=generator,
        declared_alpha=float(declared_alpha),
        declared_gap=float(declared_gap),
        label=label,
    )


def parse_sequence(spec: str) -> SigmaSequence:
    """Parse the CLI mini-grammar.

    Accepted forms: ``linear``, ``power:<theta>``, ``logfam:<theta>``,
    ``loglog``, ``quadratic``, ``box:<kappa>``.
    """
    name, _, arg = spec.strip().partition(":")
    name = name.lower()
    try:
        if name == "linear":
            return linear()
        if name == "quadratic":
            return quadratic()
        if name == "loglog":
            return loglog()
        if name == "power":
            return power(float(arg))
        if name == "logfam":
            return logfam(float(arg))
        if name == "box":
            return box(float(arg) if arg else 1.0)
    except ValueError as exc:
        raise ValueError(f"bad sequence spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown sequence spec {spec!r}")


# ---------------------------------------------------------------------------
# Box spectrum enumeration
# ---------------------------------------------------------------------------

class _BoxTable:
    """Growing cache of the flattened box spectrum (kappa = 1 levels).

    Triples (k, l, m), k,l,m >= 1, sorted by s = k^2+l^2+m^2 ascending with
    lexicographic tie-break; ``levels[i]`` is the integer s of triple i.
    The cache only ever grows, under a lock, so a prefix a caller has
    ensured stays valid while other threads extend it.  It grows by whole
    slices of levels, each adding a quarter to the top level (at least
    64), so ``ensure_count(n)`` may leave more than n triples;
    ``ensure_level(s_max)`` stops at level s_max.
    """

    def __init__(self) -> None:
        self.triples: list[tuple[int, int, int]] = []
        self.levels: list[int] = []
        self._levels_arr = np.empty(0, dtype=np.int64)
        self._next_s = 3
        self._lock = threading.Lock()

    def ensure_count(self, n: int) -> None:
        with self._lock:
            while len(self.triples) < n:
                self._add_levels(math.inf)

    def ensure_level(self, s_max: int) -> None:
        with self._lock:
            while self._next_s <= s_max:
                self._add_levels(s_max)

    def levels_array(self) -> np.ndarray:
        return self._levels_arr

    def _add_levels(self, s_max: float) -> None:
        # a slice adds about 40% to the triple count, so its transient
        # arrays stay a fraction of the table; stopping at s_max saves a
        # cold box fit the ~40% of its enumeration time spent past its cut
        stop = min(self._next_s + max(64, self._next_s >> 2), s_max + 1)
        k, l, m, s = _triples_in_levels(self._next_s, stop)
        self.triples.extend(zip(k.tolist(), l.tolist(), m.tolist()))
        self.levels.extend(s.tolist())
        self._levels_arr = np.concatenate((self._levels_arr, s))
        self._next_s = stop


def _isqrt(a: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(a)) of a nonnegative int64 array."""
    r = np.sqrt(a.astype(np.float64)).astype(np.int64)
    r -= r * r > a
    r += (r + 1) * (r + 1) <= a
    return r


def _triples_in_levels(lo: int, hi: int) -> tuple[np.ndarray, ...]:
    """Arrays k, l, m, s of every triple with lo <= s = k^2+l^2+m^2 < hi.

    Ordered by level, then lexicographically.  Each (k, l) pair with room
    for m >= 1 contributes the run of m between two integer square roots,
    so the work and memory follow the output, not a cube of the range.
    """
    sq = np.arange(1, isqrt(hi - 3) + 1, dtype=np.int64) ** 2
    kl = sq[:, None] + sq[None, :]
    k, l = np.nonzero(kl <= hi - 2)
    r = kl[k, l]
    m_lo = _isqrt(np.maximum(lo - r, 1) - 1) + 1  # least m >= 1, r + m^2 >= lo
    count = np.maximum(_isqrt(hi - 1 - r) - m_lo + 1, 0)
    starts = np.cumsum(count) - count
    m = np.arange(int(count.sum()), dtype=np.int64) - np.repeat(starts - m_lo, count)
    k = np.repeat(k + 1, count)
    l = np.repeat(l + 1, count)
    s = k * k + l * l + m * m
    order = np.lexsort((m, l, k, s))
    return k[order], l[order], m[order], s[order]


_BOX = _BoxTable()


def enumerate_box(kappa: float, budget: int) -> list[tuple[tuple[int, int, int], float]]:
    """First ``budget`` box triples sorted by kappa*(k^2+l^2+m^2).

    Ties break lexicographically; the output is deterministic and, up to
    the last emitted level, gap-free.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    if not kappa > 0:
        raise ValueError("kappa must be > 0")
    _BOX.ensure_count(budget)
    return [
        (trip, kappa * s)
        for trip, s in zip(_BOX.triples[:budget], _BOX.levels[:budget])
    ]


def box_levels(s_max: int) -> tuple[list[tuple[int, int, int]], np.ndarray]:
    """All cached triples with level <= s_max, plus their integer levels."""
    _BOX.ensure_level(s_max)
    arr = _BOX.levels_array()
    cut = int(np.searchsorted(arr, s_max, side="right"))
    return _BOX.triples[:cut], arr[:cut]


# ---------------------------------------------------------------------------
# Exponent evaluation
# ---------------------------------------------------------------------------

def sigma(seq: SigmaSequence, n: int) -> float:
    """Exponent sigma_n; raises SequenceIndexError below the start index."""
    if n < seq.start_index:
        raise SequenceIndexError(
            f"index {n} below start index {seq.start_index} for {seq.spec_string()}"
        )
    if seq.family is Family.LINEAR:
        return float(n)
    if seq.family is Family.POWER:
        return float(n) ** seq.theta
    if seq.family is Family.QUADRATIC:
        return float(n) ** 2
    if seq.family is Family.LOGFAM:
        return math.log(n) + seq.theta * math.log(math.log(n))
    if seq.family is Family.LOGLOG:
        return math.log(math.log(n))
    if seq.family is Family.BOX:
        _BOX.ensure_count(n)
        return seq.kappa * _BOX.levels[n - 1]
    return float(seq.generator(n))


def sigma_values(seq: SigmaSequence, ns: np.ndarray) -> np.ndarray:
    """Vectorized sigma over an index array (all entries >= start_index).

    The result is a new array, built in place on its own float copy of
    ``ns``; the caller's ``ns`` is never modified.
    """
    ns = np.asarray(ns)
    if ns.size and int(ns.min()) < seq.start_index:
        raise SequenceIndexError(
            f"index {int(ns.min())} below start index {seq.start_index}"
        )
    x = ns.astype(np.float64)
    if seq.family is Family.LINEAR:
        return x
    if seq.family is Family.POWER:
        x **= seq.theta
        return x
    if seq.family is Family.QUADRATIC:
        x *= x
        return x
    if seq.family is Family.LOGFAM:
        lx = np.log(x, out=x)
        theta_llx = np.log(lx)
        theta_llx *= seq.theta
        lx += theta_llx
        return lx
    if seq.family is Family.LOGLOG:
        np.log(x, out=x)
        return np.log(x, out=x)
    if seq.family is Family.BOX:
        _BOX.ensure_count(int(ns.max()) if ns.size else 0)
        x = _BOX.levels_array()[ns - 1].astype(np.float64)
        x *= seq.kappa
        return x
    return np.array([float(seq.generator(int(n))) for n in ns])


def increment_gap(seq: SigmaSequence, N: int) -> float:
    """A delta with sigma_{n+1} - sigma_n >= delta for every n >= N.

    Returns 0 when no positive uniform bound exists (log families, whose
    increments shrink to zero; sub-linear powers; the flattened box
    spectrum, where repeated levels make consecutive increments vanish).
    A zero gap forces the integral/factorized tail path in the series
    module.
    """
    if N < seq.start_index:
        raise SequenceIndexError(
            f"index {N} below start index {seq.start_index}"
        )
    if seq.family is Family.LINEAR:
        return 1.0
    if seq.family is Family.QUADRATIC:
        return 2.0 * N + 1.0
    if seq.family is Family.POWER:
        if seq.theta >= 1.0:
            # increments are nondecreasing, so the first one is the minimum;
            # less the rounding of both powers, so it stays a lower bound
            hi = (N + 1.0) ** seq.theta
            return hi - float(N) ** seq.theta - 2.0 ** -51 * hi
        return 0.0
    if seq.family is Family.CUSTOM:
        return seq.declared_gap
    # LOGFAM, LOGLOG, BOX
    return 0.0


# ---------------------------------------------------------------------------
# Alternating-constraint coefficient sequences
# ---------------------------------------------------------------------------

class VarsigmaFamily(str, Enum):
    POWER_K = "power"        # varsigma_n = n**k, k > 1
    EXP_ALPHA = "exp"        # varsigma_n = exp(alpha*n), alpha > 0
    EXP_SQUARE = "expsq"     # varsigma_n = exp(n**2)


@dataclass(frozen=True)
class VarsigmaSequence:
    """Coefficients for the sign-alternating second moment constraint.

    All families grow super-linearly (varsigma_n / n -> infinity).
    """

    family: VarsigmaFamily
    param: Optional[float] = None

    def value(self, n: int) -> float:
        if self.family is VarsigmaFamily.POWER_K:
            return float(n) ** self.param
        if self.family is VarsigmaFamily.EXP_ALPHA:
            return math.exp(self.param * n)
        return math.exp(float(n) ** 2)

    def values(self, ns: np.ndarray) -> np.ndarray:
        x = np.asarray(ns, dtype=np.float64)
        if self.family is VarsigmaFamily.POWER_K:
            return x ** self.param
        if self.family is VarsigmaFamily.EXP_ALPHA:
            return np.exp(self.param * x)
        return np.exp(x * x)

    def log_value(self, n: int) -> float:
        """log(varsigma_n); avoids overflow for the exponential families."""
        if self.family is VarsigmaFamily.POWER_K:
            return self.param * math.log(n)
        if self.family is VarsigmaFamily.EXP_ALPHA:
            return self.param * n
        return float(n) ** 2

    def spec_string(self) -> str:
        if self.family is VarsigmaFamily.POWER_K:
            return f"power:{self.param:g}"
        if self.family is VarsigmaFamily.EXP_ALPHA:
            return f"exp:{self.param:g}"
        return "expsq"


def varsigma_power(k: float) -> VarsigmaSequence:
    if not k > 1:
        raise ValueError(f"power coefficients need k > 1, got {k}")
    return VarsigmaSequence(VarsigmaFamily.POWER_K, float(k))


def varsigma_exp(alpha: float) -> VarsigmaSequence:
    if not alpha > 0:
        raise ValueError(f"exp coefficients need alpha > 0, got {alpha}")
    return VarsigmaSequence(VarsigmaFamily.EXP_ALPHA, float(alpha))


def varsigma_expsq() -> VarsigmaSequence:
    return VarsigmaSequence(VarsigmaFamily.EXP_SQUARE)


def parse_varsigma(spec: str) -> VarsigmaSequence:
    """Parse ``power:<k>``, ``exp:<alpha>``, or ``expsq``."""
    name, _, arg = spec.strip().partition(":")
    name = name.lower()
    try:
        if name == "power":
            return varsigma_power(float(arg))
        if name == "exp":
            return varsigma_exp(float(arg))
        if name == "expsq":
            return varsigma_expsq()
    except ValueError as exc:
        raise ValueError(f"bad varsigma spec {spec!r}: {exc}") from exc
    raise ValueError(f"unknown varsigma spec {spec!r}")
