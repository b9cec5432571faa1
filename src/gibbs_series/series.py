"""Certified evaluation of f^(p)(y) = sum_n sigma_n^p exp(sigma_n y).

Every evaluation returns a bracket: ``value`` is a provable lower bound
(a partial sum, plus an exact lower integral correction for the log
families) and ``value + tail_bound`` is a provable upper bound.  The
certificates used are:

* geometric: when increments sigma_{n+1} - sigma_n >= delta > 0 and
  sigma_{N+1} > p/|y|, omitted terms are dominated by the decreasing
  geometric envelope (sigma_{N+1} + k*delta)^p exp((sigma_{N+1}+k*delta)y)
  whose ratio r = (1 + delta/sigma_{N+1})^p * exp(delta*y) is < 1;
* integral comparison: for monotone term envelopes, sums are sandwiched
  between integrals with closed-form antiderivatives (incomplete-gamma
  style bounds with integer exponents, and exact log-power integrals at
  the domain edge of the log families);
* factorization: the flattened box spectrum satisfies
  f_box(y) = g(y)^3 with g(y) = sum_k exp(kappa k^2 y), so box values come
  from certified brackets of g and its first two derivatives.

Floating-point accumulation error is folded into the bracket: reported
values are shifted down by the rounding slack and ``tail_bound`` widens
by twice of it, so the enclosure holds including roundoff.  Each tail
certificate is itself rounded outward: it is formed in the log domain,
widened by a bound on the rounding of its exponent (which grows like
|sigma y| u), and never returned below the smallest normal float.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .sequences import Family, SigmaSequence, increment_gap, quadratic, sigma, sigma_values

__all__ = [
    "BoundaryClass",
    "DomainInfo",
    "SeriesEval",
    "DomainError",
    "BudgetExceededError",
    "DEFAULT_MAX_TERMS",
    "max_terms_budget",
    "domain_info",
    "eval_series",
    "phi",
    "log_f",
    "tail_bound_after",
]

DEFAULT_MAX_TERMS = 10_000_000
_ENV_BUDGET = "GIBBS_SERIES_MAX_TERMS"


def max_terms_budget(max_terms: Optional[int] = None) -> int:
    """Effective term budget: argument, else env override, else default."""
    if max_terms is not None:
        return int(max_terms)
    env = os.environ.get(_ENV_BUDGET)
    return int(env) if env else DEFAULT_MAX_TERMS


class BoundaryClass(str, Enum):
    EMPTY_DOMAIN = "EmptyDomain"
    OPEN_BOUNDARY = "OpenBoundary"
    CLOSED_INFINITE_SLOPE = "ClosedInfiniteSlope"
    CLOSED_FINITE_SLOPE = "ClosedFiniteSlope"


@dataclass(frozen=True)
class DomainInfo:
    """Domain classification of f(y) = sum exp(sigma_n y).

    The domain is an interval (-inf, -alpha) or (-inf, -alpha]; ``gamma``
    is the left derivative of f at the edge, gamma = sum sigma_n
    exp(-sigma_n alpha), possibly infinite.  When finite, ``gamma`` and
    ``f_at_boundary`` are certified midpoints with half-widths
    ``gamma_err`` and ``f_boundary_err``.
    """

    alpha: float
    boundary_class: BoundaryClass
    gamma: float
    f_at_boundary: float
    gamma_err: float = 0.0
    f_boundary_err: float = 0.0

    @property
    def empty(self) -> bool:
        return self.boundary_class is BoundaryClass.EMPTY_DOMAIN

    def contains(self, y: float) -> bool:
        if self.empty:
            return False
        if y < -self.alpha:
            return True
        if y == -self.alpha:
            return self.boundary_class in (
                BoundaryClass.CLOSED_INFINITE_SLOPE,
                BoundaryClass.CLOSED_FINITE_SLOPE,
            )
        return False


@dataclass(frozen=True)
class SeriesEval:
    """Certified bracket for f^(p)(y): true value in [value, value+tail_bound]."""

    value: float
    order: int
    truncation_index: int
    tail_bound: float
    requested_tol: float

    @property
    def midpoint(self) -> float:
        return self.value + 0.5 * self.tail_bound

    @property
    def upper(self) -> float:
        return self.value + self.tail_bound


class DomainError(ValueError):
    """Evaluation outside the effective domain; carries the DomainInfo."""

    def __init__(self, message: str, info: DomainInfo, y: Optional[float] = None):
        super().__init__(message)
        self.info = info
        self.y = y


class BudgetExceededError(RuntimeError):
    """Tolerance unreachable within the term budget; carries the best bracket."""

    def __init__(self, message: str, best: SeriesEval):
        super().__init__(message)
        self.best = best


# ---------------------------------------------------------------------------
# Domain classification
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def domain_info(seq: SigmaSequence, tol: float = 1e-8) -> DomainInfo:
    """Classify the domain of f for a sequence.

    ``tol`` only affects the certified accuracy of the finite boundary
    values (log family with fast-decaying boundary terms).
    """
    fam = seq.family
    if fam in (Family.LINEAR, Family.POWER, Family.QUADRATIC, Family.BOX):
        return DomainInfo(0.0, BoundaryClass.OPEN_BOUNDARY, math.inf, math.inf)
    if fam is Family.LOGLOG:
        # terms (ln n)^y decay slower than 1/n for every y, so no y works
        return DomainInfo(math.nan, BoundaryClass.EMPTY_DOMAIN, math.nan, math.nan)
    if fam is Family.CUSTOM:
        # declared metadata only; closure at the edge is not certified
        return DomainInfo(
            seq.declared_alpha, BoundaryClass.OPEN_BOUNDARY, math.inf, math.inf
        )
    # LOGFAM: domain edge at -1; membership of the edge depends on theta.
    theta = seq.theta
    if theta <= 1.0:
        return DomainInfo(1.0, BoundaryClass.OPEN_BOUNDARY, math.inf, math.inf)
    fb = _sum_blocks(seq, -1.0, 0, tol, max_terms_budget(None), 4096, _edge_tail, edge=True)
    if theta <= 2.0:
        return DomainInfo(
            1.0,
            BoundaryClass.CLOSED_INFINITE_SLOPE,
            math.inf,
            fb.midpoint,
            0.0,
            0.5 * fb.tail_bound,
        )
    gm = _sum_blocks(seq, -1.0, 1, tol, max_terms_budget(None), 4096, _edge_tail, edge=True)
    return DomainInfo(
        1.0,
        BoundaryClass.CLOSED_FINITE_SLOPE,
        gm.midpoint,
        fb.midpoint,
        0.5 * gm.tail_bound,
        0.5 * fb.tail_bound,
    )


# ---------------------------------------------------------------------------
# Tail certificates
# ---------------------------------------------------------------------------

def _roundoff(total: float, n_terms: int) -> float:
    # pairwise numpy summation of positive terms costs u*log2(n) relative
    # (u = 2^-53); a few extra ulps cover the per-term exp/pow rounding
    return 1.12e-16 * abs(total) * (8.0 + math.log2(max(n_terms, 2)))


_U = 2.0 ** -53  # unit roundoff of float64
_TINY = sys.float_info.min  # smallest normal float64


def _up(value: float, rel: float) -> float:
    """Round a computed upper bound outward.

    ``rel`` bounds the relative error of ``value``; the factor also covers
    the rounding of the product itself.  A result below the smallest
    normal float is replaced by that float, which provably exceeds it, so
    a certificate never underflows to 0 or loses precision as a subnormal.
    """
    return max(value * (1.0 + 2.0 * (rel + 4.0 * _U)), _TINY)


def _exp_up(log_value: float, err: float) -> float:
    """Upper bound on exp(t) for every t within ``err`` of ``log_value``."""
    if log_value + err > 709.0:
        return math.inf
    return _up(math.exp(log_value), err)


def _log_exp_int_upper(m: int, b: float, W: float) -> tuple[float, float]:
    """ln of integral_W^inf w^m exp(-b w) dw for integer m >= 0, b > 0.

    Returns the computed logarithm and a bound on its absolute rounding
    error (the error of ``W`` itself is the caller's to add).
    """
    acc = 0.0
    coef = 1.0
    for j in range(m + 1):
        acc += coef * W ** (m - j) / b ** (j + 1)
        coef *= (m - j)
    log_acc = math.log(acc)
    return log_acc - b * W, _U * (2.0 * b * W + 2.0 * abs(log_acc) + 2.0 * m + 8.0)


def _geom_tail(seq: SigmaSequence, y: float, p: int, N: int) -> Optional[float]:
    """Geometric tail bound after index N, or None if not yet applicable."""
    s1 = sigma(seq, N + 1)
    if p > 0 and s1 * (-y) <= p:
        return None  # terms may still be growing
    delta = increment_gap(seq, N + 1)
    if delta > 0.0:
        # 1 - r with r = (1 + delta/s1)^p exp(delta y), free of cancellation
        growth = p * math.log1p(delta / s1) if p else 0.0
        dy = delta * y
        one_minus_r = -math.expm1(dy + growth)
        if one_minus_r > 1e-12:
            sy = s1 * y
            log_s1 = math.log(s1) if p else 0.0
            log_gap = math.log(one_minus_r)  # <= 0
            # s1 and s1*y carry |s1 y| u; an error in the exponent of r
            # moves 1 - r by that error over (1 - r)
            err = _U * (
                3.0 * (abs(sy) + p * (abs(log_s1) + 1.0) - log_gap)
                + 2.0 * (growth - dy) / one_minus_r
                + 12.0
            )
            return _exp_up(p * log_s1 + sy - log_gap, err)
        return None
    if seq.family is Family.POWER:
        return _power_tail(seq.theta, y, p, N)
    return None


def _power_tail(theta: float, y: float, p: int, N: int) -> Optional[float]:
    """Tail of sum_{n>N} n^(theta p) exp(y n^theta) for theta in (0,1)."""
    b = -y
    if float(N) ** theta * b <= p:
        return None
    # substitute s = x^theta:  (1/theta) * int_S^inf s^(a-1) exp(-b s) ds,
    # a = p + 1/theta >= 1;  bound s^(a-1) <= S^(a-1-m) s^m with m = ceil(a-1)
    S = float(N) ** theta
    if S < 1.0:
        return None
    a = p + 1.0 / theta
    m = math.ceil(a - 1.0)
    log_int, err = _log_exp_int_upper(m, b, S)
    log_pre = (a - 1.0 - m) * math.log(S) - math.log(theta)
    # S = N^theta carries a relative error of u, moving b S by b S u
    err += _U * (4.0 * (b * S + a + m) + 3.0 * abs(log_pre) + 2.0 * abs(log_int))
    return _exp_up(log_pre + log_int, err)


def _logfam_interior_tail(seq: SigmaSequence, y: float, p: int, N: int) -> Optional[float]:
    """Upper tail bound for the log family at y < -1, after index N."""
    theta = seq.theta
    if N < 16:
        return None
    W = math.log(N)
    b = -(y + 1.0)
    c = p + theta * y
    if c > 0 and W <= c / (-y):
        return None  # envelope not yet decreasing
    if p > 0:
        sN = sigma(seq, N)
        if sN * (-y) <= p:
            return None
        log_c1 = p * math.log1p(max(theta, 0.0) * math.log(W) / W)
    else:
        log_c1 = 0.0
    log_w = math.log(W)
    if c <= 0.0:
        log_int = c * log_w - b * W - math.log(b)
        m = 0
        err = _U * (2.0 * abs(log_int) + 2.0 * abs(math.log(b)) + 4.0)
    else:
        m = math.ceil(c)
        log_int, err = _log_exp_int_upper(m, b, W)
    # W = ln N, b = -(y+1) and c = p + theta y each carry a few ulps
    err += _U * (
        4.0 * (b + abs(y)) * W
        + 4.0 * (abs(c) + abs(theta * y) + m) * (abs(log_w) + 1.0)
        + 4.0 * (log_c1 + p)
        + 2.0 * abs(log_int)
        + 8.0
    )
    return _exp_up(log_c1 + log_int, err)


def _box_level_tail(kappa: float, y: float, p: int, S: int) -> Optional[float]:
    """Tail over flattened box terms with level s > S.

    Uses the lattice-count bound r3(s) <= s (at most one m per (k,l) pair,
    and fewer than s pairs with k^2+l^2 < s), so omitted mass is below
    kappa^p * sum_{s>S} s^(p+1) exp(kappa y s), bounded geometrically.
    """
    b = kappa * (-y)
    if (S + 1) * b <= p + 1:
        return None
    # 1 - r with r = ((S+2)/(S+1))^(p+1) exp(kappa y), free of cancellation
    growth = (p + 1) * math.log1p(1.0 / (S + 1.0))
    one_minus_r = -math.expm1(growth - b)
    if one_minus_r <= 1e-12:
        return None
    log_k = p * math.log(kappa)
    log_s = (p + 1) * math.log(S + 1.0)
    log_gap = math.log(one_minus_r)
    err = _U * (
        3.0 * (2.0 * b * (S + 1.0) + abs(log_k) + log_s + abs(log_gap) + p)
        + 2.0 * (growth + 2.0 * b) / one_minus_r
        + 12.0
    )
    return _exp_up(log_k + log_s - b * (S + 1.0) - log_gap, err)


def tail_bound_after(seq: SigmaSequence, y: float, p: int, N: int) -> Optional[float]:
    """Certified bound on sum_{n>N} sigma_n^p exp(sigma_n y), if available.

    For the box family ``N`` must cover complete levels; use the level
    form via materialization helpers instead.
    """
    if seq.family is Family.LOGFAM:
        if y == -1.0:
            # the integral from N bounds the sum only where the terms
            # sigma^p exp(-sigma) decrease, i.e. from an index with sigma >= p
            if seq.theta <= p + 1 or N < seq.start_index or sigma(seq, N) < p:
                return None
            return _logfam_boundary_integral(seq.theta, p, N)
        return _logfam_interior_tail(seq, y, p, N)
    return _geom_tail(seq, y, p, N)


# ---------------------------------------------------------------------------
# Evaluation engines
# ---------------------------------------------------------------------------

def _interior_tail(seq: SigmaSequence, y: float, p: int, N: int) -> tuple[float, float]:
    """Interior certificate: the omitted tail lies in [0, tail_bound_after]."""
    tb = tail_bound_after(seq, y, p, N)
    return 0.0, math.inf if tb is None else tb


def _logfam_boundary_integral(theta: float, p: int, c: float, lower: bool = False) -> float:
    """Exact integral_c^inf sigma(x)^p exp(-sigma(x)) dx at the domain edge.

    With w = ln x the integrand is (w + theta ln w)^p w^(-theta) dw, which
    expands into exact log-power integrals; requires theta > p + 1 and
    c > e.  The computed value is rounded up, or down with ``lower``.
    """
    W = math.log(c)

    def A(j: int, m: float) -> float:
        # integral_W^inf (ln w)^j w^(-m) dw, m > 1
        if j == 0:
            return W ** (1.0 - m) / (m - 1.0)
        return (math.log(W) ** j * W ** (1.0 - m)) / (m - 1.0) + j / (m - 1.0) * A(j - 1, m)

    acc = 0.0
    for j in range(p + 1):
        acc += math.comb(p, j) * theta ** j * A(j, theta - p + j)
    # every term is positive (W > 1); each power W^(1-m) carries
    # |(1-m) ln W| u from the exponent, and the recursion a few ulps a level
    rel = _U * (8.0 * (theta + 1.0) * (abs(math.log(W)) + 1.0) + 16.0 * (p + 2) ** 2)
    return acc * (1.0 - 2.0 * rel) if lower else _up(acc, rel)


def _edge_tail(seq: SigmaSequence, y: float, p: int, N: int) -> tuple[float, float]:
    """Edge certificate at y = -1 (terms sigma^p / (n (ln n)^theta)).

    For decreasing terms the omitted tail lies between the integrals from
    N+1 and from N, so adding the lower one to the partial sum leaves a
    bracket one term wide, not the slowly-decaying raw tail.
    """
    lower = _logfam_boundary_integral(seq.theta, p, N + 1.0, lower=True)
    if sigma(seq, N) < p + 0.5:  # term envelope not yet decreasing
        return lower, math.inf
    return lower, _logfam_boundary_integral(seq.theta, p, float(N)) - lower


_CHUNK = 1 << 15  # indices per pass of a block: its arrays stay in L2


def _block_sum(seq: SigmaSequence, y: float, p: int, first: int, stop: int) -> float:
    """Sum of sigma_n^p exp(sigma_n y) over first <= n < stop.

    The block is computed chunk by chunk, in place, into one block-sized
    array: the temporaries stay in cache, each term gets the same
    elementwise operations as ``s ** p * np.exp(s * y)``, and ``np.sum``
    still adds the whole contiguous block in the same pairwise order, so
    the sum is bit-identical to the one-pass expression.
    """
    block = np.empty(stop - first)
    for lo in range(first, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        s = sigma_values(seq, np.arange(lo, hi, dtype=np.int64))
        terms = block[lo - first : hi - first]
        np.multiply(s, y, out=terms)
        np.exp(terms, out=terms)
        if p:
            if p > 1:  # s ** 1 == s; skipping it saves a pass
                s **= p
            terms *= s
    return float(np.sum(block))


def _sum_blocks(
    seq: SigmaSequence,
    y: float,
    p: int,
    tol: float,
    budget: int,
    block: int,
    certificate: Callable[[SigmaSequence, float, int, int], tuple[float, float]],
    edge: bool = False,
) -> SeriesEval:
    """Partial sums in doubling blocks until the certified bracket meets tol.

    After each block ``certificate(seq, y, p, N)`` returns ``(lower,
    width)``: the terms after index N sum to between ``lower`` and
    ``lower + width`` (width inf while no certificate applies).  The
    computed partial is accurate to +-slack, so the bracket is
    [partial + lower - slack, partial + lower + width + slack].  A
    certified width already below the slack with 2 slack > tol fails at
    once: more terms only raise the accumulation floor.  ``edge`` selects
    the wording of the budget-exhaustion message at y = -1.
    """
    start = seq.start_index
    last = start + budget - 1
    total = 0.0
    n_done = start - 1
    while True:
        n1 = min(n_done + block, last)
        if n1 > n_done:
            total += _block_sum(seq, y, p, n_done + 1, n1 + 1)
            n_done = n1
        slack = _roundoff(total, n_done - start + 1)
        lower, width = certificate(seq, y, p, n_done)
        best = SeriesEval(total + lower - slack, p, n_done, width + 2.0 * slack, tol)
        if best.tail_bound <= tol:
            return best
        if 2.0 * slack > tol and width <= slack:
            raise BudgetExceededError(
                f"tolerance {tol:g} is below the float64 accumulation floor "
                f"{2.0 * slack:g} for {seq.spec_string()} at y={y!r}",
                best,
            )
        if n_done >= last:
            raise BudgetExceededError(
                f"boundary tolerance {tol:g} unreachable within {budget} terms "
                f"(best width {best.tail_bound:g})"
                if edge
                else f"tolerance {tol:g} unreachable within {budget} terms "
                f"(best tail bound {best.tail_bound:g}) for {seq.spec_string()} at y={y!r}",
                best,
            )
        block = min(block * 2, 1_000_000)


def _eval_box(seq: SigmaSequence, y: float, p: int, tol: float, budget: int) -> SeriesEval:
    """Box series via the cube factorization f = g^3, orders p <= 2."""
    if p > 2:
        raise ValueError(
            "box series evaluation supports derivative orders 0..2 "
            "(higher orders of the cubed factor are not implemented)"
        )
    kappa = seq.kappa
    z = kappa * y
    quad = quadratic()

    def brackets(abs_tols: list[float]) -> list[SeriesEval]:
        return [
            _sum_blocks(quad, z, j, abs_tols[j], budget, 256, _interior_tail)
            for j in range(p + 1)
        ]

    # rough pass to scale component tolerances, then tighten until the
    # product bracket meets tol
    comps = brackets([max(t, 1e-300) for t in [1.0, 1.0, 1.0][: p + 1]])
    for _ in range(6):
        g = [kappa ** j * comps[j].value for j in range(p + 1)]
        gu = [kappa ** j * comps[j].upper for j in range(p + 1)]
        if p == 0:
            lo, hi = g[0] ** 3, gu[0] ** 3
        elif p == 1:
            lo = 3.0 * g[0] ** 2 * g[1]
            hi = 3.0 * gu[0] ** 2 * gu[1]
        else:
            lo = 6.0 * g[0] * g[1] ** 2 + 3.0 * g[0] ** 2 * g[2]
            hi = 6.0 * gu[0] * gu[1] ** 2 + 3.0 * gu[0] ** 2 * gu[2]
        if hi - lo <= tol:
            idx = max(c.truncation_index for c in comps)
            return SeriesEval(lo, p, idx, hi - lo, tol)
        # component relative accuracy needed: spread tol across factors
        shrink = max((hi - lo) / tol, 4.0)
        comps = brackets(
            [max(comps[j].tail_bound / shrink / 4.0, 1e-300) for j in range(p + 1)]
        )
    raise BudgetExceededError(
        f"box bracket did not reach tol={tol:g}",
        SeriesEval(lo, p, max(c.truncation_index for c in comps), hi - lo, tol),
    )


def eval_series(
    seq: SigmaSequence,
    y: float,
    p: int = 0,
    tol: float = 1e-9,
    max_terms: Optional[int] = None,
) -> SeriesEval:
    """Certified bracket of f^(p)(y) with tail_bound <= tol on success.

    Raises DomainError outside the domain (boundary orders follow the
    classification: open edges are excluded, closed edges admit p = 0,
    and only finite-slope closed edges admit p = 1; higher orders at the
    edge are refused).  Raises BudgetExceededError, carrying the best
    bracket, when the tolerance needs more than the term budget.
    """
    if p < 0 or p != int(p):
        raise ValueError("derivative order p must be a nonnegative integer")
    if not tol > 0:
        raise ValueError("tol must be positive")
    p = int(p)
    budget = max_terms_budget(max_terms)
    di = domain_info(seq)
    if di.empty:
        raise DomainError("empty effective domain", di, y)
    alpha = di.alpha
    if y > -alpha:
        raise DomainError(
            f"y={y!r} is beyond the domain edge -{alpha:g}", di, y
        )
    at_edge = (y == -alpha) or (abs(y + alpha) <= 1e-15 * max(1.0, alpha))
    if at_edge:
        if di.boundary_class is BoundaryClass.OPEN_BOUNDARY:
            raise DomainError(
                f"domain is open at the edge -{alpha:g}", di, y
            )
        if di.boundary_class is BoundaryClass.CLOSED_INFINITE_SLOPE and p > 0:
            raise DomainError(
                "derivatives are unbounded at an infinite-slope edge", di, y
            )
        if p > 1:
            raise DomainError(
                "orders p >= 2 are refused at the domain edge", di, y
            )
        return _sum_blocks(seq, -1.0, p, tol, budget, 4096, _edge_tail, edge=True)
    if seq.family is Family.BOX:
        return _eval_box(seq, y, p, tol, budget)
    return _sum_blocks(seq, y, p, tol, budget, 256, _interior_tail)


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------

def _best_bracket(seq: SigmaSequence, y: float, p: int, tol: float, budget) -> SeriesEval:
    """eval_series, or on budget exhaustion the best bracket it reached."""
    try:
        return eval_series(seq, y, p, tol=tol, max_terms=budget)
    except BudgetExceededError as exc:
        return exc.best


def _lower_bound(seq: SigmaSequence, y: float, p: int, budget: Optional[int]) -> float:
    """Cheap certified lower bound on f^(p)(y) (any bracket's value)."""
    return _best_bracket(seq, y, p, 1.0, budget).value


def phi(seq: SigmaSequence, y: float, tol: float = 1e-12, max_terms: Optional[int] = None) -> float:
    """Log-derivative f'(y)/f(y) with relative error <= tol.

    Strictly increasing in y with infimum sigma_start; the mean exponent
    under the normalized weights exp(sigma_n y)/f(y).
    """
    f_lb = _lower_bound(seq, y, 0, max_terms)
    g_lb = _lower_bound(seq, y, 1, max_terms)
    if f_lb <= 0.0 or g_lb <= 0.0:
        raise DomainError(
            f"series underflows at y={y!r}; ratio undefined in float64",
            domain_info(seq),
            y,
        )
    e0 = eval_series(seq, y, 0, tol=0.25 * tol * f_lb, max_terms=max_terms)
    e1 = eval_series(seq, y, 1, tol=0.25 * tol * g_lb, max_terms=max_terms)
    return e1.midpoint / e0.midpoint


def log_f(seq: SigmaSequence, y: float, tol: float = 1e-12, max_terms: Optional[int] = None) -> float:
    """ln f(y) with absolute error <= tol."""
    f_lb = _lower_bound(seq, y, 0, max_terms)
    if f_lb <= 0.0:
        raise DomainError(
            f"series underflows at y={y!r}; log undefined in float64",
            domain_info(seq),
            y,
        )
    e0 = eval_series(seq, y, 0, tol=0.5 * tol * f_lb, max_terms=max_terms)
    return math.log(e0.midpoint)
