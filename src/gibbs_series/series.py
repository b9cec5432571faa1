"""Certified evaluation of f^(p)(y) = sum_n sigma_n^p exp(sigma_n y).

Every evaluation returns a bracket: ``value`` is a provable lower bound
(a partial sum, plus a certified lower integral correction for the log
family) and ``value + tail_bound`` is a provable upper bound.  The
certificates used are:

* geometric: when increments sigma_{n+1} - sigma_n >= delta > 0 and
  sigma_{N+1} > p/|y|, omitted terms are dominated by the decreasing
  geometric envelope (sigma_{N+1} + k*delta)^p exp((sigma_{N+1}+k*delta)y)
  whose ratio r = (1 + delta/sigma_{N+1})^p * exp(delta*y) is < 1;
* integral comparison: for monotone term envelopes, tails are bounded
  by integrals with closed-form antiderivatives (incomplete-gamma style
  bounds with integer exponents for powers, and the log family's
  derivatives p >= 2 inside the domain);
* integral sandwich for the log family, at the edge y = -1 and in the
  interior at p <= 1: for decreasing terms convex from N + 1/2 on
  (Hermite-Hadamard; sigma is concave from x = e^phi ~ 5.04 on for every
  theta >= -1), int_{N+1} g + g(N+1)/2 <= tail <= int_{N+1/2} g, a
  bracket about |g'(N)|/8 wide that is added to the partial sum; the
  edge integrals are exact log-power integrals, the interior p = 0 ones
  F = b^-a Gamma(a, b ln c) with a certified upper incomplete gamma
  function (the even and odd convergents of Legendre's continued
  fraction), and the interior p = 1 ones dF/dy, bracketed by the secants
  of F, which is convex in y;
* factorization: the flattened box spectrum satisfies
  f_box(y) = g(y)^3 with g(y) = sum_k exp(kappa k^2 y), so box values come
  from certified brackets of g and its first two derivatives.

Floating-point error is folded into the bracket: reported values are
shifted down by the rounding slack and ``tail_bound`` widens by twice of
it, so the enclosure holds including roundoff.  The slack covers the
summation and each term's rounded exponent, whose error grows like
|sigma y| u (see ``_roundoff``).  Each tail certificate is itself rounded
outward: it is formed in the log domain, widened by a bound on the
rounding of its exponent, and never returned below the smallest normal
float (or, for a lower end, rounded down).
"""

from __future__ import annotations

import itertools
import math
import os
import sys
import threading
from collections import OrderedDict
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .sequences import (
    BoundaryClass,
    SigmaSequence,
    increment_gap,
    quadratic,
    sigma,
    sigma_values,
)

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
def domain_info(
    seq: SigmaSequence, tol: float = 1e-8, max_terms: Optional[int] = None
) -> DomainInfo:
    """Classify the domain of f for a sequence.

    The edge and its class are the family's (``rules.domain``).  ``tol``
    only affects the certified accuracy of the finite boundary values
    (log family with fast-decaying boundary terms), which are summed
    within ``max_terms`` (default: the global term budget).
    """
    alpha, edge = seq.family.rules.domain(seq)
    if edge is BoundaryClass.EMPTY_DOMAIN:
        return DomainInfo(alpha, edge, math.nan, math.nan)
    if edge is BoundaryClass.OPEN_BOUNDARY:
        return DomainInfo(alpha, edge, math.inf, math.inf)
    budget = max_terms_budget(max_terms)
    fb = _edge_sum(seq, alpha, 0, tol, budget)
    if edge is BoundaryClass.CLOSED_INFINITE_SLOPE:
        return DomainInfo(alpha, edge, math.inf, fb.midpoint, 0.0, 0.5 * fb.tail_bound)
    gm = _edge_sum(seq, alpha, 1, tol, budget)
    return DomainInfo(
        alpha, edge, gm.midpoint, fb.midpoint, 0.5 * gm.tail_bound, 0.5 * fb.tail_bound
    )


# ---------------------------------------------------------------------------
# Tail certificates
# ---------------------------------------------------------------------------

_U = 2.0 ** -53  # unit roundoff of float64
_SUBNORMAL = 2.0 ** -1074  # the smallest subnormal float64
_TINY = sys.float_info.min  # smallest normal float64


def _roundoff(
    seq: SigmaSequence,
    y: float,
    p: int,
    total: float,
    n_terms: int,
    sigma_last: float,
    weight: float = 0.0,
) -> float:
    """Bound on the rounding error of a computed partial sum ``total`` of
    ``n_terms`` terms t_n = sigma_n^p exp(sigma_n y), y < 0, the last
    exponent being ``sigma_last``.

    Pairwise numpy summation costs u log2(n) sum |t_n| (u = 2^-53), and a
    few extra ulps cover each term's own exp and pow.  The exp argument
    fl(sigma_n) y is off by at most ((e_rel + 1) sigma_n + e_abs) |y| u
    (``SigmaSequence.sigma_error`` and the product's rounding), which
    moves the term by that much relative, and sigma_n^p adds p (e_pow + 3)
    u relative.  Where every exponent is positive, so is every term, and
    |y| sigma_n t_n needs no pass of its own: -sigma_n y = ln(1/t_n) +
    p ln sigma_n, and x ln(1/x) is concave, so its sum is at most
    T (ln(n/T) + p ln sigma_last) for the total T of the n terms.  0.01 of
    it more covers the rounding of T itself and second-order terms.

    A ``signed`` sequence's walk passes instead ``weight``, the sum of
    |t_n| (1 + |sigma_n y|), which bounds both sums the slack is made of.
    A term that underflows, to 0 or a subnormal, is off by at most the
    smallest subnormal besides.
    """
    n_log2 = n_terms.bit_length()  # >= log2(n)
    if weight:
        return weight * 1.12e-16 * (9.0 + n_log2 + 3.0 * p) + n_terms * _SUBNORMAL
    if total <= 0.0:  # no term, or every one zero
        return n_terms * _SUBNORMAL
    e_rel, e_abs, e_pow = seq.sigma_error
    ratio = n_terms * sigma_last ** p / total if p else n_terms / total
    if ratio < math.inf:
        spread = math.log(ratio)
    else:  # a total near the underflow threshold
        spread = math.log(n_terms) - math.log(total) + p * math.log(sigma_last)
    rel = p * (e_pow + 3.0) - e_abs * y
    if spread > 0.0:  # always, but for rounding when T is near n sigma_last^p
        rel += (e_rel + 1.01) * spread
    return total * (1.12e-16 * (8.0 + n_log2) + _U * rel) + n_terms * _SUBNORMAL


def _abs_weight(seq: SigmaSequence, y: float, p: int, first: int, stop: int) -> float:
    """Sum of |t_n| (1 + |sigma_n y|) over first <= n < stop (see
    ``_roundoff``), for sequences whose terms need not all be positive."""
    s = sigma_values(seq, np.arange(first, stop, dtype=np.int64))
    sy = np.abs(s * y)
    terms = np.abs(s ** p * np.exp(s * y))
    return float(np.dot(terms, 1.0 + sy)) * (1.0 + 4.0 * (stop - first) * _U)


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


def _exp_down(log_value: float, err: float) -> float:
    """Lower bound on exp(t) for every t within ``err`` of ``log_value``;
    0 where that is below the normal floats."""
    low = log_value - err
    if low < -700.0:
        return 0.0
    return math.exp(min(low, 709.0)) * (1.0 - 4.0 * _U)


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


_GAMMA_PAIRS = 4000  # continued-fraction steps, in pairs, per evaluation
_RESCALE = 2.0 ** 600


def _log_upper_gamma(a: float, z: float) -> tuple[float, float, float]:
    """Certified ln Gamma(a, z), the upper incomplete gamma function, z > 0.

    Returns (lo, hi, err) with lo - err <= ln Gamma(a, z) <= hi + err for
    the a and z given.  For a < 1, Gamma(a, z) = z^a e^-z F with Legendre's
    continued fraction

        F = 1/(z + (1-a)/(1 + 1/(z + (2-a)/(1 + 2/(z + ...)))))

    whose elements are all positive, so its even convergents rise to F and
    its odd ones fall to it (Gil, Segura & Temme, Numerical Methods for
    Special Functions, 2007, ch. 6).  The forward recurrences for their
    numerators and denominators add positive products only, so after n
    steps each is within (1 + 3u)^n of the exact continuant.  The pairs
    stop once the bracket is that narrow, or after ``_GAMMA_PAIRS`` with a
    wider but still valid one.  For a >= 1 the recurrence
    Gamma(s + 1, z) = s Gamma(s, z) + z^s e^-z climbs from s = a - floor(a)
    in [0, 1), again adding positive terms only.
    """
    m = math.floor(a) if a >= 1.0 else 0
    s = a - m  # exact
    lo = hi = 1.0
    n = 0
    if not (m and s == 0.0):  # Gamma(m, z) needs no fraction
        # convergents A/B after the first step (1, z): A = 1, B = z
        a_prev, a_cur, b_prev, b_cur = 0.0, 1.0, 1.0, z
        for k in range(1, _GAMMA_PAIRS + 1):
            e = k - s
            a_prev, a_cur = a_cur, a_cur + e * a_prev  # even step (k - s, 1)
            b_prev, b_cur = b_cur, b_cur + e * b_prev
            a_prev, a_cur = a_cur, z * a_cur + k * a_prev  # odd step (k, z)
            b_prev, b_cur = b_cur, z * b_cur + k * b_prev
            lo, hi = a_prev / b_prev, a_cur / b_cur
            if b_cur > _RESCALE:  # exact: a power of two
                a_prev /= _RESCALE
                a_cur /= _RESCALE
                b_prev /= _RESCALE
                b_cur /= _RESCALE
            if hi <= lo * (1.0 + 16.0 * k * _U):
                break
        n = 2 * k + 1
    h_lo, h_hi = math.log(lo), math.log(hi)
    # each convergent within (6n + 1) u relative, and its logarithm's rounding
    err = _U * (6.0 * n + 4.0 + max(abs(h_lo), abs(h_hi)))
    log_z = math.log(z)
    if m:
        # Gamma(s + k, z) = z^(s+k) e^-z H_k with H_0 = F and
        # H_(k+1) = ((s + k) H_k + 1) / z, climbed in logarithms
        h_lo, e_lo = _climb_gamma(s, m, log_z, h_lo)
        h_hi, e_hi = _climb_gamma(s, m, log_z, h_hi)
        err += max(e_lo, e_hi)
    base = a * log_z - z
    err += _U * (3.0 * z + 4.0 * abs(a * log_z) + 2.0 * max(abs(h_lo), abs(h_hi)) + 4.0)
    return base + h_lo, base + h_hi, err


def _climb_gamma(s: float, m: int, log_z: float, h: float) -> tuple[float, float]:
    """ln H_m from h = ln H_0 (see ``_log_upper_gamma``) and its added error.

    Each step is a softplus of ln(s + k) + ln H_k, whose slope is below 1,
    less ln z, so errors carry over unamplified and each step adds its own.
    """
    err = 0.0
    for k in range(m):
        if s + k == 0.0:
            h = -log_z  # H_1 = 1/z, whatever H_0 is
        else:
            t = math.log(s + k) + h
            sp = t + math.log1p(math.exp(-t)) if t > 0.0 else math.log1p(math.exp(t))
            h_new = sp - log_z
            err += _U * (2.0 * (abs(t) + abs(sp) + abs(h_new) + abs(log_z)) + 6.0)
            h = h_new
    return h, err


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


def _power_tail(seq: SigmaSequence, y: float, p: int, N: int) -> Optional[float]:
    """Tail of sum_{n>N} n^(theta p) exp(y n^theta): geometric where the
    increments grow (theta >= 1), else an integral bound."""
    theta = seq.theta
    if theta >= 1.0:
        return _geom_tail(seq, y, p, N)
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
    """Envelope bound on the log-family tail after index N, at y < -1 and
    p >= 2 (lower orders have ``_logfam_sandwich``)."""
    theta = seq.theta
    if N < 16:
        return None
    W = math.log(N)
    b = -(y + 1.0)
    c = p + theta * y
    if c > 0 and W <= c / (-y):
        return None  # envelope not yet decreasing
    sN = sigma(seq, N)
    if sN * (-y) <= p:
        return None
    log_c1 = p * math.log1p(max(theta, 0.0) * math.log(W) / W)
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


def _box_tail(seq: SigmaSequence, y: float, p: int, S: int) -> Optional[float]:
    return _box_level_tail(seq.kappa, y, p, S)


def _logfam_tail(seq: SigmaSequence, y: float, p: int, N: int) -> Optional[float]:
    if y == -1.0 or p <= 1:
        bounds = _logfam_sandwich(seq, y, p, N)
        return None if bounds is None else bounds[1]
    return _logfam_interior_tail(seq, y, p, N)


# each family's tail certificate, by the name its rules give (``rules.tail``)
_TAILS = {"geometric": _geom_tail, "power": _power_tail, "logfam": _logfam_tail, "box": _box_tail}


def tail_bound_after(seq: SigmaSequence, y: float, p: int, N: int) -> Optional[float]:
    """Certified bound on sum_{n>N} sigma_n^p exp(sigma_n y), if available.

    The box spectrum is cut between levels, so for the box family ``N``
    is a level s: the bound covers every triple with k^2+l^2+m^2 > s.
    """
    return _TAILS[seq.family.rules.tail](seq, y, p, N)


def _interior_tail(seq: SigmaSequence, y: float, p: int, N: int) -> tuple[float, float]:
    """Interior certificate: the omitted tail lies in [0, tail_bound_after]."""
    tb = tail_bound_after(seq, y, p, N)
    return 0.0, math.inf if tb is None else tb


def _sandwich_tail(seq: SigmaSequence, y: float, p: int, N: int) -> tuple[float, float]:
    """Log-family certificate at the edge and at p <= 1: the omitted tail
    lies in [lower, lower + width] (``_logfam_sandwich``)."""
    bounds = _logfam_sandwich(seq, y, p, N)
    if bounds is None:
        return 0.0, math.inf
    lower, upper = bounds
    return lower, upper - lower


# ---------------------------------------------------------------------------
# Integral sandwich for the log family
# ---------------------------------------------------------------------------

def _logfam_sandwich(seq: SigmaSequence, y: float, p: int, N: int) -> Optional[tuple[float, float]]:
    """(lower, upper) on the log-family tail after N, at the edge y = -1 or
    in the interior with p <= 1; None while the terms may still grow.

    The terms are g(n) with g(x) = sigma(x)^p exp(y sigma(x)).  Where g
    decreases from N on, the tail lies between its integrals from N + 1
    and from N.  Where g is also convex from N + 1/2 on, Hermite-Hadamard
    narrows that to

        int_{N+1}^inf g + g(N+1)/2  <=  sum_{n>N} g(n)  <=  int_{N+1/2}^inf g,

    about |g'(N)|/8 wide instead of g(N).  In s = sigma, h(s) = s^p e^{ys}
    has h'' = s^(p-2) e^{ys} ((p + ys)^2 - p), so h decreases once |y| s >=
    p and is also convex once |y| s >= p + sqrt(p).  With L = ln x,
    sigma'' = -(1 + theta (L + 1)/L^2)/x^2, which for every theta >= -1 is
    <= 0 once L^2 >= L + 1, i.e. x >= e^phi ~ 5.04 (phi the golden ratio),
    where sigma also increases; so g'' = h'' sigma'^2 + h' sigma'' >= 0 from
    N = 5 on.  The upper end is rounded up far enough that subtracting the
    lower end cannot fall short.
    """
    theta = seq.theta
    if N < seq.start_index or (y == -1.0 and theta <= p + 1):
        return None
    slope = -y * sigma(seq, N) * (1.0 - 1e-9)  # far above sigma's rounding
    if slope < p:
        return None
    convex = N >= 5 and slope >= p + math.sqrt(p)
    lower = _logfam_integral(seq, y, p, N + 1.0, lower=True)
    if convex:
        log_t, err = _log_term(seq, y, p, N + 1)
        lower += 0.5 * _exp_down(log_t, err)
    upper = _logfam_integral(seq, y, p, N + 0.5 if convex else float(N))
    # 6 ulps down: this sum's rounding, and the walk's adding the lower end
    # to its partial sum and subtracting its slack
    return lower * (1.0 - 6.0 * _U), _up(upper, 0.0)


def _logfam_integral(seq: SigmaSequence, y: float, p: int, c: float, lower: bool = False) -> float:
    """integral_c^inf sigma(x)^p exp(y sigma(x)) dx, rounded up (or down);
    in the interior p <= 1."""
    if y == -1.0:
        return _logfam_boundary_integral(seq.theta, p, c, lower)
    if p:
        return _logfam_slope_integral(seq.theta, y, c, lower)
    return _logfam_gamma_integral(seq.theta, y, c)[0 if lower else 1]


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


def _logfam_gamma_integral(theta: float, y: float, c: float) -> tuple[float, float]:
    """integral_c^inf x^y (ln x)^(theta y) dx for y < -1, c >= 3, rounded
    down and up.

    With t = b ln x it is b^-a Gamma(a, b ln c), a = theta y + 1 and
    b = -(y + 1).  Besides the error of ``_log_upper_gamma``, the bound
    carries the rounding of a, b and z = b ln c: d ln Gamma / dz is at
    most (z + 1 - a)/z for a < 1 and 1 for a >= 1, and d ln Gamma / da, a
    mean of ln t over t >= z, lies between ln z and ln(z + max(a, 1)).
    """
    b = -(y + 1.0)
    a = theta * y + 1.0
    z = b * math.log(c)
    lo, hi, err = _log_upper_gamma(a, z)
    log_b = math.log(b)
    d_a = _U * (2.0 * abs(theta * y) + abs(a))
    err += (
        d_a * (abs(log_b) + abs(math.log(z)) + math.log(z + max(a, 1.0)))
        + _U * (
            2.0 * abs(a) * (abs(log_b) + 1.0)  # a ln b, ln b off by (|ln b| + 1) u
            + 3.0 * (z + 1.0 + abs(a))  # z off by 3 z u
            + 2.0 * (abs(a * log_b) + max(abs(lo), abs(hi)))
        )
    )
    return _exp_down(lo - a * log_b, err), _exp_up(hi - a * log_b, err)


def _logfam_slope_integral(theta: float, y: float, c: float, lower: bool = False) -> float:
    """integral_c^inf sigma(x) x^y (ln x)^(theta y) dx for y < -1, c >= 3,
    rounded up (or down with ``lower``).

    It is dF/dy for F(y) = integral_c^inf exp(y sigma(x)) dx, which
    ``_logfam_gamma_integral`` certifies; d^2F/dy^2 = int sigma^2
    exp(y sigma) > 0, so F is convex and its secants bracket the slope:

        (F(y) - F(y - h))/h  <=  dF/dy  <=  (F(y + h) - F(y))/h.

    Each quotient takes F's ends crosswise and divides by the exact float
    difference of the two y (Sterbenz: h < |y|/4).  Its width is about
    h sigma(c)^2 F/2 from the curvature plus 2 eps F/h from F's relative
    bracket width eps, least at h = 2 sqrt(eps)/sigma(c); h is capped at
    |y + 1|/4 to keep y + h inside the domain.
    """
    lo, hi = _logfam_gamma_integral(theta, y, c)
    eps = hi / lo - 1.0 if lo > 0.0 else math.inf
    log_c = math.log(c)
    h = min(2.0 * math.sqrt(eps) / (log_c + theta * math.log(log_c)), -0.25 * (y + 1.0))
    if lower:
        y_far = y - h
        dy = y - y_far  # exact
        if not dy > 0.0:  # y within a few ulps of the edge
            return 0.0
        return max((lo - _logfam_gamma_integral(theta, y_far, c)[1]) / dy, 0.0) * (1.0 - 4.0 * _U)
    y_near = y + h
    dy = y_near - y  # exact
    if not (dy > 0.0 and y_near < -1.0):
        return math.inf
    return _up((_logfam_gamma_integral(theta, y_near, c)[1] - lo) / dy, 0.0)


def _log_term(seq: SigmaSequence, y: float, p: int, n: int) -> tuple[float, float]:
    """ln(sigma_n^p exp(sigma_n y)) and a bound on its error (sigma_n >= 1)."""
    s = sigma(seq, n)
    e_rel, e_abs, _ = seq.sigma_error
    log_s = math.log(s) if p else 0.0
    err = (abs(y) + p / s) * (e_rel * s + e_abs) * _U + _U * 2.0 * (
        abs(y * s) + p * abs(log_s) + 1.0
    )
    return p * log_s + y * s, err


# ---------------------------------------------------------------------------
# Evaluation engines
# ---------------------------------------------------------------------------

_CHUNK = 1 << 15  # indices per pass of a block: its arrays stay in L2
# exponents cached per sequence (see _sigma_prefix): the first blocks of an
# interior walk (256 + 512 + 1024 + 2048 terms) and of an edge walk end inside
_SIGMA_PREFIX = 4096
def _block_sum(
    seq: SigmaSequence, y: float, p: int, first: int, stop: int
) -> tuple[float, float]:
    """Sum of sigma_n^p exp(sigma_n y) over first <= n < stop, and
    sigma_(stop-1) (for ``_roundoff``).

    The block is computed chunk by chunk, in place, into one block-sized
    array: the temporaries stay in cache, each term gets the same
    elementwise operations as ``s ** p * np.exp(s * y)``, and the whole
    contiguous block is still added in numpy's pairwise order, so the sum
    is bit-identical to the one-pass expression.  A chunk that ends inside
    the first ``_SIGMA_PREFIX`` indices reads its exponents from this
    thread's cached prefix instead of computing them again.
    """
    block = np.empty(stop - first)
    start = seq.start_index
    for lo in range(first, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        if hi - start <= _SIGMA_PREFIX:
            s = _sigma_prefix(seq, hi)[lo - start : hi - start]
        else:
            s = sigma_values(seq, np.arange(lo, hi, dtype=np.int64))
        terms = block[lo - first : hi - first]
        np.multiply(s, y, out=terms)
        np.exp(terms, out=terms)
        if p:
            terms *= s ** p if p > 1 else s  # s ** 1 == s; skipping it saves a pass
    return float(np.add.reduce(block)), float(s[-1])


_MEMO_KEYS = 8  # sequences and walks kept per thread; the least recently used go


class _Memo(threading.local):
    """Each thread's block states by walk key, and its exponent prefixes by
    sequence, least recently used first."""

    def __init__(self) -> None:
        self.lru: OrderedDict[tuple, list] = OrderedDict()
        self.sigma: OrderedDict[tuple, np.ndarray] = OrderedDict()


_memo = _Memo()


def _recent(cache: OrderedDict, key: tuple, new: Callable[[], object]):
    """``cache[key]``, now the most recent entry; if absent a ``new()`` one,
    the least recently used going once ``_MEMO_KEYS`` are held."""
    value = cache.get(key)
    if value is None:
        value = cache[key] = new()
        if len(cache) > _MEMO_KEYS:
            cache.popitem(last=False)
    else:
        cache.move_to_end(key)
    return value


def _sigma_prefix(seq: SigmaSequence, stop: int) -> np.ndarray:
    """Read-only sigma_n for start_index <= n < stop (at least), cached.

    Walks at many y over one sequence need the same leading exponents, so
    each thread keeps them for its last ``_MEMO_KEYS`` sequences, keyed
    like the walks on the generator object too, and extends a prefix only
    by the indices it lacks.  ``stop - start_index`` is at most
    ``_SIGMA_PREFIX``: 32 KB a sequence.
    """
    key = (seq, seq.generator)
    prefix = _recent(_memo.sigma, key, _no_sigma)
    have = seq.start_index + prefix.size
    if have < stop:
        prefix = np.concatenate(
            (prefix, sigma_values(seq, np.arange(have, stop, dtype=np.int64)))
        )
        prefix.flags.writeable = False
        _memo.sigma[key] = prefix
    return prefix


def _no_sigma() -> np.ndarray:
    return np.empty(0)


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
    the wording of the budget-exhaustion message at y = -1.  For a
    ``signed`` sequence each block also adds its ``_abs_weight``, on
    which the slack is then charged.

    The states after each block do not depend on ``tol``, which only picks
    where the walk stops.  They are kept per thread for the last few
    (seq, y, p, budget, first block, certificate) keys, so a repeated or
    tighter request replays them and sums only the blocks past the last
    one stored, with the same bits as a walk from the start.
    """
    states = _recent(_memo.lru, (seq, seq.generator, y, p, budget, block, certificate), list)
    start = seq.start_index
    last = start + budget - 1
    total = weight = s_last = 0.0
    n_done = start - 1
    for i in itertools.count():
        if i < len(states):  # a block an earlier call already summed
            total, n_done, slack, lower, width, weight = states[i]
        else:
            n1 = min(n_done + block, last)
            if n1 > n_done:
                block_total, s_last = _block_sum(seq, y, p, n_done + 1, n1 + 1)
                total += block_total
                if seq.signed:
                    weight += _abs_weight(seq, y, p, n_done + 1, n1 + 1)
                n_done = n1
            lower, width = certificate(seq, y, p, n_done)
            slack = _roundoff(seq, y, p, total, n_done - start + 1, s_last, weight)
            states.append((total, n_done, slack, lower, width, weight))
        tail_bound = width + 2.0 * slack
        if tail_bound <= tol:
            return SeriesEval(total + lower - slack, p, n_done, tail_bound, tol)
        if 2.0 * slack > tol and width <= slack:
            raise BudgetExceededError(
                f"tolerance {tol:g} is below the float64 accumulation floor "
                f"{2.0 * slack:g} for {seq.spec_string()} at y={y!r}",
                SeriesEval(total + lower - slack, p, n_done, tail_bound, tol),
            )
        if n_done >= last:
            raise BudgetExceededError(
                f"boundary tolerance {tol:g} unreachable within {budget} terms "
                f"(best width {tail_bound:g})"
                if edge
                else f"tolerance {tol:g} unreachable within {budget} terms "
                f"(best tail bound {tail_bound:g}) for {seq.spec_string()} at y={y!r}",
                SeriesEval(total + lower - slack, p, n_done, tail_bound, tol),
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


def _edge_sum(seq: SigmaSequence, alpha: float, p: int, tol: float, budget: int) -> SeriesEval:
    """f^(p)(-alpha) at a closed edge: only the log family has one, and
    its integral sandwich certifies it."""
    return _sum_blocks(seq, -alpha, p, tol, budget, 4096, _sandwich_tail, edge=True)


def _blocks_walk(seq: SigmaSequence, y: float, p: int, tol: float, budget: int) -> SeriesEval:
    return _sum_blocks(seq, y, p, tol, budget, 256, _interior_tail)


def _sandwich_walk(seq: SigmaSequence, y: float, p: int, tol: float, budget: int) -> SeriesEval:
    """The log family's walk: the integral sandwich up to p = 1, the
    envelope bound above."""
    return _sum_blocks(seq, y, p, tol, budget, 256, _sandwich_tail if p <= 1 else _interior_tail)


# each family's interior walk, by the name its rules give (``rules.walk``)
_WALKS = {"blocks": _blocks_walk, "sandwich": _sandwich_walk, "box": _eval_box}


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
    bracket, when the tolerance needs more than the term budget, and
    ValueError for a NaN or -inf ``y`` before any term is summed.
    """
    if math.isnan(y) or y == -math.inf:
        raise ValueError(f"y must be a number above -inf, got {y!r}")
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
        return _edge_sum(seq, alpha, p, tol, budget)
    return _WALKS[seq.family.rules.walk](seq, y, p, tol, budget)


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
    max_terms = max_terms_budget(max_terms)  # one environment read for the four walks
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
    max_terms = max_terms_budget(max_terms)  # one environment read for both walks
    f_lb = _lower_bound(seq, y, 0, max_terms)
    if f_lb <= 0.0:
        raise DomainError(
            f"series underflows at y={y!r}; log undefined in float64",
            domain_info(seq),
            y,
        )
    e0 = eval_series(seq, y, 0, tol=0.5 * tol * f_lb, max_terms=max_terms)
    return math.log(e0.midpoint)
