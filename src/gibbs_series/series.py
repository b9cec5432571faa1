"""Certified evaluation of f^(p)(y) = sum_n sigma_n^p exp(sigma_n y).

Every evaluation returns a bracket: ``value`` is a provable lower bound
(a partial sum, plus a certified lower integral correction where the
tail is sandwiched) and ``value + tail_bound`` is a provable upper bound.  The
certificates used are:

* geometric: when increments sigma_{n+1} - sigma_n >= delta > 0 and
  sigma_{N+1} > p/|y|, omitted terms are dominated by the decreasing
  geometric envelope (sigma_{N+1} + k*delta)^p exp((sigma_{N+1}+k*delta)y)
  whose ratio r = (1 + delta/sigma_{N+1})^p * exp(delta*y) is < 1, and
  so are box levels kappa s, s > S, of at most s triples each (``_envelope``);
* integral sandwich, for the log family (at the edge y = -1 and in the
  interior at every order p) and powers n^theta, theta < 1: for decreasing
  terms g convex from N + 1/2 on (Hermite-Hadamard; sigma is concave
  there), F + g(N+1)/2 <= tail <= F + [g(N+1/2) + g(N+1)]/4 with the one
  integral F = int_{N+1} g, a bracket about |g'(N)|/8 wide that is added
  to the partial sum; F is exact log-power integrals at the edge, else
  b^-a Gamma(a, z) (over theta for powers) with a certified upper
  incomplete gamma function (the even and odd convergents of Legendre's
  continued fraction), but for the log family's interior p >= 1 ones,
  d^p F/dy^p bracketed to second order in the step by values of F, a
  Laplace transform in y, at 3p + 2 nodes;
* factorization: the flattened box spectrum satisfies
  f_box(y) = g(y)^3 with g(y) = sum_k exp(kappa k^2 y), so box values come
  from certified brackets of g and its first two derivatives at y, each
  walked to 1/4 of its own lower end and, where the product misses its
  target, once more to a width that provably meets it.

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
import sys
import threading
from collections import Counter, OrderedDict
from functools import lru_cache
from typing import Callable, NamedTuple, Optional

import numpy as np

from .sequences import (
    BoundaryClass,
    SigmaSequence,
    box_factor,
    increment_gap,
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


def max_terms_budget(max_terms: Optional[int] = None) -> int:
    """Effective term budget: the argument, else the default."""
    return DEFAULT_MAX_TERMS if max_terms is None else int(max_terms)


def _compared(*skip: str) -> tuple:
    """``__eq__``, ``__ne__`` and ``__hash__`` for a NamedTuple result: equal
    only to its own type, never to a bare tuple, on every field but ``skip``."""

    def key(record: tuple) -> tuple:
        return tuple(v for f, v in zip(record._fields, record) if f not in skip)

    def eq(a: tuple, b: object):
        return type(a) is type(b) and key(a) == key(b) if isinstance(b, tuple) else NotImplemented

    return eq, object.__ne__, lambda record: hash(key(record))


class DomainInfo(NamedTuple):
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


class SeriesEval(NamedTuple):
    """Certified bracket for f^(p)(y): true value in [value, value+tail_bound]."""

    value: float
    truncation_index: int
    tail_bound: float
    __eq__, __ne__, __hash__ = _compared()

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

@lru_cache(maxsize=64)
def domain_info(
    seq: SigmaSequence, tol: float = 1e-8, max_terms: Optional[int] = None
) -> DomainInfo:
    """Classify the domain of f for a sequence, with certified edge values.

    The edge and its class are the family's (``rules.domain``), which every
    evaluation, solve and fit reads itself.  ``tol`` only affects the
    certified accuracy of the finite boundary values gamma and f(-alpha),
    summed within ``max_terms`` (default: the global term budget).
    """
    alpha, edge = seq.family.rules.domain(seq)
    if edge is BoundaryClass.EMPTY_DOMAIN:
        return DomainInfo(alpha, edge, math.nan, math.nan)
    if edge is BoundaryClass.OPEN_BOUNDARY:
        return DomainInfo(alpha, edge, math.inf, math.inf)
    budget = max_terms_budget(max_terms)
    fb = _sum_blocks(seq, -alpha, 0, tol, budget)
    if edge is BoundaryClass.CLOSED_INFINITE_SLOPE:
        return DomainInfo(alpha, edge, math.inf, fb.midpoint, 0.0, 0.5 * fb.tail_bound)
    gm = _sum_blocks(seq, -alpha, 1, tol, budget)
    return DomainInfo(
        alpha, edge, gm.midpoint, fb.midpoint, 0.5 * gm.tail_bound, 0.5 * fb.tail_bound
    )


def _refused(seq: SigmaSequence, message: str, y: Optional[float]) -> DomainError:
    """DomainError with ``domain_info``'s record, or, where its edge sums
    exceed the budget, the rules' edge and class with NaN values."""
    try:
        info = domain_info(seq)
    except BudgetExceededError:
        info = DomainInfo(*seq.family.rules.domain(seq), math.nan, math.nan)
    return DomainError(message, info, y)


def _edge(seq: SigmaSequence, empty: str, y: Optional[float] = None) -> tuple[float, BoundaryClass]:
    """The edge alpha and its class (``rules.domain``); ``_refused`` with the
    message ``empty`` for an empty domain."""
    alpha, edge = seq.family.rules.domain(seq)
    if edge is BoundaryClass.EMPTY_DOMAIN:
        raise _refused(seq, empty, y)
    return alpha, edge


# ---------------------------------------------------------------------------
# Tail certificates
# ---------------------------------------------------------------------------

_U = 2.0 ** -53  # unit roundoff of float64
_SUBNORMAL = 2.0 ** -1074  # the smallest subnormal float64
_TINY = sys.float_info.min  # smallest normal float64
_HUGE = sys.float_info.max  # largest float64

# a tail certificate: (lower, upper) on the sum of the terms after an index,
# None while none applies yet, or (None, floor) with a floor on upper - lower
# where that floor exceeds the width the caller needs (see ``_sandwich``)
_Tail = Optional[tuple[Optional[float], float]]


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
    with np.errstate(over="ignore"):  # to an inf weight, where exp(sigma_n y) passes float64
        weights = np.abs(s * y) + 1.0  # a product and a row sum, not BLAS (n + 1 roundings)
        weights *= np.abs(s ** p * np.exp(s * y))
    return float(np.add.reduce(weights)) * (1.0 + 4.0 * (stop - first) * _U)


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
    Special Functions, 2007, ch. 6), from 1/(z + 1 - a) and 1/z on.  The
    forward recurrences for their numerators and denominators add positive
    products only, so after n steps each is within (1 + 3u)^n of the exact
    continuant.  The pairs stop once the bracket is that narrow, or with a
    wider but valid one after ``_GAMMA_PAIRS`` or before a pair that
    overflows.  For a >= 1 the recurrence
    Gamma(s + 1, z) = s Gamma(s, z) + z^s e^-z climbs from s = a - floor(a)
    in [0, 1), again adding positive terms only.
    """
    m = math.floor(a) if a >= 1.0 else 0
    s = a - m  # exact
    lo = hi = 1.0
    n = 0
    if not (m and s == 0.0):  # Gamma(m, z) needs no fraction
        lo, hi = 1.0 / (z + (1.0 - s)), 1.0 / z
        # convergents A/B after the first step (1, z): A = 1, B = z
        a_prev, a_cur, b_prev, b_cur = 0.0, 1.0, 1.0, z
        for k in range(1, _GAMMA_PAIRS + 1):
            e = k - s
            a_even, b_even = a_cur + e * a_prev, b_cur + e * b_prev  # even step (k - s, 1)
            a_odd, b_odd = z * a_even + k * a_cur, z * b_even + k * b_cur  # odd step (k, z)
            if not a_odd + b_odd <= _HUGE:  # an overflow: keep the last finite pair
                break
            a_prev, a_cur, b_prev, b_cur = a_even, a_odd, b_even, b_odd
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


def _envelope(log_c: float, s1: float, q: int, delta: float, y: float) -> _Tail:
    """(0, bound) on sum_{k>=0} e^log_c (s1 + k delta)^q exp((s1 + k delta) y),
    the bound being its first term over 1 - r, r = (1 + delta/s1)^q
    exp(delta y) the largest ratio of consecutive terms; None while the
    terms may still grow (s1 |y| <= q) or r > 1 - 1e-12.

    Rounding: the lead exponent's parts carry 3 u of each, s1 y that of a
    rounded s1 too; an error x in the exponent of r, 2 u of each part,
    moves ln(1 - r) by x/(1 - r).

    s1 is taken at most 2^1000 / max(2^-23, -y), also where it is inf,
    and then delta at most s1, so that s1, s1 y, delta y and the rounding
    account stay finite: lower values only raise the envelope, the terms
    falling from s1 on (s1 |y| > q).
    """
    cap = 2.0 ** 1000 / max(2.0 ** -23, -y)
    if s1 > cap:
        s1 = cap
        delta = min(delta, cap)
    if s1 * -y <= q:
        return None
    growth = q * math.log1p(delta / s1) if q else 0.0
    dy = delta * y
    one_minus_r = -math.expm1(dy + growth)
    if not one_minus_r > 1e-12:
        return None
    sy = s1 * y
    log_s1 = math.log(s1) if q else 0.0
    log_gap = math.log(one_minus_r)  # <= 0
    err = _U * (
        3.0 * (abs(log_c) + abs(sy) + q * (abs(log_s1) + 1.0) - log_gap)
        + 2.0 * (growth - dy) / one_minus_r
        + 12.0
    )
    return 0.0, _exp_up(log_c + q * log_s1 + sy - log_gap, err)


def _geom_tail(seq: SigmaSequence, y: float, p: int, N: int, need: float = math.inf) -> _Tail:
    """(0, bound) after index N: the envelope from sigma_{N+1}, or None.
    The envelope is cheap, so ``need`` (see ``_sandwich``) is not read."""
    return _envelope(0.0, sigma(seq, N + 1), p, increment_gap(seq, N + 1), y)


# most gamma steps a power integral climbs (a = p + 1/theta), above the
# 1 + 1000 max(p, 1) |theta| that the log family's a reaches at its y floor
_CLIMB_CAP = 1 << 16


def _power_tail(seq: SigmaSequence, y: float, p: int, N: int, need: float = math.inf) -> _Tail:
    """(lower, upper) on the tail of sum_{n>N} n^(theta p) exp(y n^theta):
    geometric where the increments grow (theta >= 1), else the integral
    sandwich (x^theta is concave), or None beyond ``_CLIMB_CAP``."""
    theta = seq.theta
    if theta < 1.0:
        if p + 1.0 / theta > _CLIMB_CAP:
            return None
        # below y = -2^900 the tail is below the smallest normal float
        return _sandwich(seq, y, p, N, _power_integral, 1, -2.0 ** 900, need)
    try:
        s1 = float(N + 1) ** theta
    except OverflowError:
        s1 = math.inf  # _envelope caps it
    # delta at most s1, a lower value that only raises the envelope,
    # keeps the rounding of r within that of the lead exponent
    return _envelope(0.0, s1, p, min(increment_gap(seq, N + 1), s1), y)


def _box_tail(seq: SigmaSequence, y: float, p: int, S: int, need: float = math.inf) -> _Tail:
    """(0, bound) on the box terms with level s > S, or None: r3(s) <= s
    (at most one m per (k, l), and fewer than s pairs with k^2 + l^2 < s)
    puts them below sum_{s>S} s (kappa s)^p exp(kappa s y), the envelope
    over kappa s with s1 = fl(kappa (S + 1)), q = p + 1, delta = kappa and
    log_c = -ln kappa; ``need`` is not read, as in ``_geom_tail``."""
    kappa = seq.kappa
    return _envelope(-math.log(kappa), kappa * (S + 1.0), p + 1, kappa, y)


# ---------------------------------------------------------------------------
# Integral sandwich, for the families whose increments shrink
# ---------------------------------------------------------------------------

def _sandwich(
    seq: SigmaSequence,
    y: float,
    p: int,
    N: int,
    integral: Callable,
    convex_from: int,
    floor: float,
    need: float = math.inf,
) -> _Tail:
    """(lower, upper) on the tail after N from the one integral
    F = int_{N+1}^inf g, g(x) = sigma(x)^p exp(y sigma(x)), bracketed by
    ``integral(theta, y, p, N + 1)``; None while the terms may still grow.
    Below ``floor`` the tail, which rises with y, takes the upper end at
    the floor, where the integrals' arguments stay finite.

    In s = sigma, h(s) = s^p e^{ys} has h'' = s^(p-2) e^{ys} ((p + ys)^2 -
    p), so h decreases once |y| s >= p and is also convex once |y| s >= p +
    sqrt(p).  Where g decreases from N on, the tail lies between F and
    F + g(N).  Where sigma also increases and is concave from N =
    ``convex_from`` on, g'' = h'' sigma'^2 + h' sigma'' >= 0, and
    Hermite-Hadamard, then the chord over [N + 1/2, N + 1], narrow that to

        F + g(N+1)/2 <= sum_{n>N} g(n) <= int_{N+1/2} g <= F + [g(N+1/2) + g(N+1)]/4,

    about |g'(N)|/8 wide instead of g(N).  The upper end is rounded up far
    enough that subtracting the lower end cannot fall short.

    The terms added to F's ends come first.  Their computed difference,
    [g(N+1/2) + g(N+1)]/4 - g(N+1)/2 or g(N), is at most the computed
    width upper - lower: the upper end is rounded up from F's upper end
    plus its term, the lower end down from F's lower end plus its term,
    and rounding to nearest is monotone.  Where that floor exceeds
    ``need`` the integral is not computed, and (None, floor) is returned.
    """
    if N < seq.start_index:
        return None
    below, y = y < floor, max(y, floor)
    slope = -y * sigma(seq, N) * (1.0 - 1e-9)  # far above sigma's rounding
    if slope < p:
        return None
    if N >= convex_from and slope >= p + math.sqrt(p):
        log_t, err = _log_term(seq, y, p, N + 1)
        add_lower = 0.5 * _exp_down(log_t, err)
        add_upper = 0.25 * (_exp_up(log_t, err) + _exp_up(*_log_term(seq, y, p, N + 0.5)))
    else:
        add_lower, add_upper = 0.0, _exp_up(*_log_term(seq, y, p, N))
    gap = add_upper - add_lower
    if gap > need:
        return None, gap
    lower, upper = integral(seq.theta, y, p, N + 1.0)
    lower += add_lower
    upper += add_upper
    # 6 ulps down: this sum's rounding, and the walk's adding the lower end
    # to its partial sum and subtracting its slack
    return (0.0 if below else lower * (1.0 - 6.0 * _U)), _up(upper, 0.0)


def _logfam_sandwich(seq: SigmaSequence, y: float, p: int, N: int, need: float = math.inf) -> _Tail:
    """The log family's tail (``_sandwich``), at the edge y = -1 and in the
    interior at every order p; None where the edge sum diverges (theta <=
    p + 1).  sigma'' = -(1 + theta (L + 1)/L^2)/x^2, L = ln x, is <= 0 for
    every theta >= -1 once L^2 >= L + 1, i.e. x >= e^phi ~ 5.04 (phi the
    golden ratio), where sigma also increases: convex from N = 5 on."""
    if y == -1.0 and seq.theta <= p + 1:
        return None
    # below the floor sigma >= 1 on [3, inf) puts the tail below the
    # smallest normal float, and the gamma steps |theta y| stay bounded
    return _sandwich(seq, y, p, N, _logfam_integral, 5, -1e3 * max(p, 1), need)


def _logfam_integral(theta: float, y: float, p: int, c: float) -> tuple[float, float]:
    """integral_c^inf sigma(x)^p exp(y sigma(x)) dx, rounded down and up."""
    if y == -1.0:
        return _logfam_boundary_integral(theta, p, c)
    return _logfam_derivative_integral(theta, y, p, c) if p else _logfam_gamma_integral(theta, y, c)


def _logfam_boundary_integral(theta: float, p: int, c: float) -> tuple[float, float]:
    """Exact integral_c^inf sigma(x)^p exp(-sigma(x)) dx at the domain edge,
    rounded down and up.

    With w = ln x the integrand is (w + theta ln w)^p w^(-theta) dw, which
    expands into exact log-power integrals; requires theta > p + 1 and
    c > e.
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
    return acc * (1.0 - 2.0 * rel), _up(acc, rel)


def _gamma_integral(a: float, da: float, b: float, z: float) -> tuple[float, float]:
    """b^-a Gamma(a, z), z > 0, rounded down and up, for an a within ``da``
    of the exact one and b and z within u and 3 u relative of theirs:
    d ln Gamma / dz is at most (z + 1 - a)/z for a < 1 and 1 for a >= 1,
    and d ln Gamma / da, a mean of ln t over t >= z, lies between ln z and
    ln(z + max(a, 1)).
    """
    lo, hi, err = _log_upper_gamma(a, z)
    log_b = math.log(b)
    err += (
        da * (abs(log_b) + abs(math.log(z)) + math.log(z + max(a, 1.0)))
        + _U * (
            2.0 * abs(a) * (abs(log_b) + 1.0)  # a ln b, ln b off by (|ln b| + 1) u
            + 3.0 * (z + 1.0 + abs(a))  # z off by 3 z u
            + 2.0 * (abs(a * log_b) + max(abs(lo), abs(hi)))
        )
    )
    return _exp_down(lo - a * log_b, err), _exp_up(hi - a * log_b, err)


def _logfam_gamma_integral(theta: float, y: float, c: float) -> tuple[float, float]:
    """integral_c^inf x^y (ln x)^(theta y) dx for y < -1, c >= 3, rounded
    down and up: with t = b ln x it is b^-a Gamma(a, b ln c), a = theta y +
    1 (within (2 |theta y| + |a|) u) and b = -(y + 1)."""
    b = -(y + 1.0)
    a = theta * y + 1.0
    return _gamma_integral(a, _U * (2.0 * abs(theta * y) + abs(a)), b, b * math.log(c))


def _power_integral(theta: float, y: float, p: int, c: float) -> tuple[float, float]:
    """integral_c^inf x^(theta p) exp(y x^theta) dx, 0 < theta < 1, rounded
    down and up: with s = x^theta, b^-a Gamma(a, b c^theta)/theta for b = -y,
    a = p + 1/theta (within (a + 1/theta) u) and c^theta within 2 u."""
    a = p + 1.0 / theta
    b = -y
    lo, hi = _gamma_integral(a, _U * (a + 1.0 / theta), b, b * c ** theta)
    return min(lo / theta, _HUGE) * (1.0 - 2.0 * _U), _up(hi / theta, 0.0)


@lru_cache(maxsize=None)
def _stencil(p: int, lower: bool) -> tuple[tuple[int, float], ...]:
    """Pairs (j, coefficient) of the combination of F(y + j h) that is at
    least 2 h^p F^(p)(y), or with ``lower`` at most it (see
    ``_logfam_derivative_integral``); zero coefficients are left out."""
    # (q, top, weight): weight times the backward difference nabla^q F(y + top h)
    if lower:  # 2 nabla^p F(y) + p nabla^(p+1) F(y - p h)
        parts = ((p, 0, 2), (p + 1, -p, p))
    else:  # 2 Delta^p F(y) - p nabla^(p+1) F(y), Delta^p F(y) = nabla^p F(y + p h)
        parts = ((p, p, 2), (p + 1, 0, -p))
    coefs = Counter()
    for q, top, weight in parts:
        for k in range(q + 1):
            coefs[top - k] += weight * (-1) ** k * math.comb(q, k)
    return tuple((j, float(c)) for j, c in coefs.items() if c)


def _logfam_derivative_integral(theta: float, y: float, p: int, c: float) -> tuple[float, float]:
    """integral_c^inf sigma(x)^p x^y (ln x)^(theta y) dx for p >= 1, y < -1,
    c >= 3, rounded down and up.

    It is F^(p)(y) for F(y) = integral_c^inf exp(y sigma(x)) dx, which
    ``_logfam_gamma_integral`` certifies.  F is a Laplace transform in y
    and sigma > 0 on [3, inf), so every F^(k) = int sigma^k exp(y sigma)
    is positive and increasing (Widder, The Laplace Transform, 1941,
    ch. IV); only F^(p+2) >= 0 is used.  With a step h and the forward and
    backward differences Delta and nabla, Delta^p F(y) / h^p is the mean of
    F^(p) on [y, y + p h] under a B-spline of mass 1 and mean p h/2.  F^(p)
    is convex, so that mean is at least F^(p)(y) + (p h/2) F^(p+1)(y), and
    F^(p+1)(y) is at least nabla^(p+1) F(y) / h^(p+1), a mean of F^(p+1)
    left of y.  Likewise F^(p)(y) >= F^(p)(y - t) + t F^(p+1)(y - p h) for
    t <= p h, averaged under the spline of nabla^p F(y).  So

        F^(p)(y) <= [2 Delta^p F(y) - p nabla^(p+1) F(y)] / (2 h^p),
        F^(p)(y) >= [2 nabla^p F(y) + p nabla^(p+1) F(y - p h)] / (2 h^p),

    whose coefficients ``_stencil`` lists, over the 3p + 2 nodes y + j h,
    -2p - 1 <= j <= p, at each of which F is bracketed once.  At p = 1
    they are [2F(y+h) - 3F(y) + 2F(y-h) - F(y-2h)] / (2h), (2/3) h^2 F'''
    above F', and [2F(y) - F(y-h) - 2F(y-2h) + F(y-3h)] / (2h), (5/6) h^2
    F''' below.

    Each combination takes F's ends crosswise (the upper end for positive
    coefficients of the upper bound and negative ones of the lower bound).
    The products carry at most u each and ``math.fsum`` rounds the sum
    once, so 8 u of the sum of |terms| covers both with margin; h is a
    power of two, so dividing by 2 h^p is exact.  The nodes y + j h must be
    exact floats: y + j h less y is exact (Sterbenz), and differs from j h
    only where a node crosses into the binade below, whose ulp is twice
    y's.  There that end is taken at the neighbour of y with an even last
    mantissa bit, from whose multiples of 2 ulp every node is exact: the
    one above y for the upper end and the one below for the lower end, as
    F^(p) increases in y.

    The width is about h^2 F^(p+2) from the curvature plus eps F / h^p
    times the coefficients from F's relative bracket width eps, least near
    h = 1.4 eps^(1/(p+2)) (F/F^(p+2))^(1/(p+2)).  F^(p+2)/F = E[sigma^(p+2)]
    under the weight, far above sigma(c)^(p+2) near the edge; its root is
    taken from the third moment of ln x (``_slope_step_scale``) at every p.
    h is at most |y + 1|/(4p) to keep y + p h inside the domain.  At p = 1
    the bracket is then 5-8 eps^(2/3) of F' wide (eps ~ 1e-13) where F's
    own width allows.
    """
    lo, hi = _logfam_gamma_integral(theta, y, c)
    eps, scale = math.inf, 1.0
    if lo > 0.0:
        eps, scale = hi / lo - 1.0, _slope_step_scale(theta, y, c, lo)
    step = min(1.4 * eps ** (1.0 / (p + 2)) / scale, -0.25 * (y + 1.0) / p)
    h = math.ldexp(1.0, math.frexp(step)[1] - 1)  # the power of two at or below step
    divisor = 2.0 * h ** p
    brackets = {0: (lo, hi)}  # F's bracket at each node y + j h
    ends = []
    for lower in (True, False):
        stencil = _stencil(p, lower)
        end = 0.0 if lower else math.inf  # where no step fits
        if any(y + j * h - y != j * h for j, _ in stencil):  # a node across a binade
            mantissa, exponent = math.frexp(y)
            even = (math.floor if lower else math.ceil)(math.ldexp(mantissa, 52))
            neighbour = math.ldexp(even, exponent - 52)
            if neighbour != y and neighbour < -1.0:
                end = _logfam_derivative_integral(theta, neighbour, p, c)[not lower]
        elif divisor > 0.0 and y + max(j for j, _ in stencil) * h < -1.0:
            terms = []
            for j, coef in stencil:
                if j not in brackets:
                    brackets[j] = _logfam_gamma_integral(theta, y + j * h, c)
                terms.append(coef * brackets[j][(coef > 0.0) != lower])
            total, err = math.fsum(terms), 8.0 * _U * math.fsum(map(abs, terms))
            if lower:
                end = max(total - err, 0.0) / divisor * (1.0 - 4.0 * _U)
            else:
                end = _up((total + err) / divisor, 0.0)
        ends.append(end)
    return ends[0], ends[1]


def _slope_step_scale(theta: float, y: float, c: float, F: float) -> float:
    """sigma at w = E[w^3]^(1/3), w = ln x under the weight exp(y sigma(x))
    on [c, inf), given F > 0, the integral of that weight: the scale of
    F'''/F = E[sigma^3] on which ``_logfam_derivative_integral`` sizes its
    step.

    In t = b w the weight is t^(a-1) e^-t on [z, inf), so E[t^3] is the
    product of R_j = Gamma(a+j+1, z)/Gamma(a+j, z) = a + j + r_j, j < 3,
    with r_j = z^(a+j) e^-z/Gamma(a+j, z): r_0 from F = b^-a Gamma(a, z),
    and r_(j+1) = z r_j/R_j.  Each R_j is a mean of t >= z, so it is held
    at z or above against cancellation.  Only the width depends on it.
    """
    b = -(y + 1.0)
    a = theta * y + 1.0
    z = b * math.log(c)
    r = math.exp(a * math.log(z) - z - math.log(F) - a * math.log(b))
    t3 = 1.0
    for j in range(3):
        ratio = max(a + j + r, z)
        t3 *= ratio
        r *= z / ratio
    w = t3 ** (1.0 / 3.0) / b
    return w + theta * math.log(w)


def _log_term(seq: SigmaSequence, y: float, p: int, n: int) -> tuple[float, float]:
    """ln(sigma_n^p exp(sigma_n y)) and a bound on its error (sigma_n >= 1)."""
    s = sigma(seq, n)
    e_rel, e_abs, _ = seq.sigma_error
    log_s = math.log(s) if p else 0.0
    err = (abs(y) + p / s) * (e_rel * s + e_abs) * _U + _U * 2.0 * (
        abs(y * s) + p * abs(log_s) + 1.0
    )
    return p * log_s + y * s, err


# each family's tail certificate, by the name its rules give (``rules.tail``)
_TAILS = {"geometric": _geom_tail, "power": _power_tail, "logfam": _logfam_sandwich, "box": _box_tail}


def tail_bound_after(seq: SigmaSequence, y: float, p: int, N: int) -> Optional[float]:
    """Certified bound on sum_{n>N} sigma_n^p exp(sigma_n y), if available.

    The box spectrum is cut between levels, so for the box family ``N``
    is a level s: the bound covers every triple with k^2+l^2+m^2 > s.
    """
    bounds = _TAILS[seq.family.rules.tail](seq, y, p, N)
    return None if bounds is None else bounds[1]


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
    signed = seq.signed
    widest = 0.0  # the largest |sigma_n|: the last one where all are positive
    top = 0.0  # where one is negative, log2 of a bound on the largest term
    for lo in range(first, stop, _CHUNK):
        hi = min(lo + _CHUNK, stop)
        if hi - start <= _SIGMA_PREFIX:
            s = _sigma_prefix(seq, hi)[lo - start : hi - start]
        else:
            s = sigma_values(seq, np.arange(lo, hi, dtype=np.int64))
        terms = block[lo - first : hi - first]
        s_top = float(s[-1])
        widest = max(widest, s_top, -float(s[0])) if signed else s_top
        if signed:  # widest^p exp(widest |y|), 1.45 > 1/ln 2
            top = p * math.frexp(widest)[1] - 1.45 * widest * y
        if widest * -y < _HUGE and top < 1023.0:
            np.multiply(s, y, out=terms)
            np.exp(terms, out=terms)
            if p:
                terms *= s ** p if p > 1 else s  # s ** 1 == s; skipping it saves a pass
        else:  # some sigma_n y overflows, to an -inf that exp takes to 0, or a signed
            # sequence's term may pass float64, to the inf _sum_blocks reports
            with np.errstate(over="ignore"):
                np.multiply(s, y, out=terms)
                np.exp(terms, out=terms)
                if p:
                    terms *= s ** p if p > 1 else s
    # log2 of the count times the largest term, widest^p where all are positive:
    # from 1023 on the sum may pass float64, to the inf _sum_blocks reports
    if (stop - first).bit_length() + (top if signed else p * math.frexp(widest)[1]) < 1023.0:
        total = float(np.add.reduce(block))
    else:
        with np.errstate(over="ignore"):
            total = float(np.add.reduce(block))
    return total, s_top


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
    rel: float = 0.0,
) -> SeriesEval:
    """Partial sums in doubling blocks until the certified bracket is at
    most max(tol, rel * its lower end) wide.

    After each block the family's certificate (``_TAILS``) bounds the
    terms after index N (width inf while it returns None).  The computed
    partial is accurate to +-slack, so the bracket is [partial + lower -
    slack, partial + upper + slack].  Its lower end is at or below the true
    sum, so a width ``rel`` of it is a relative accuracy ``rel``.  A
    relative walk whose lower end is not positive (the sum underflows)
    stops at the first certified block, for the caller to refuse.  A
    certified width already below the slack with 2 slack above the target
    fails at once: more terms only raise the accumulation floor.  So does
    a block whose partial sum passes float64, with the bracket [2^1023,
    inf], or value -inf and tail bound inf where a signed sum passes
    -2^1023.  At the domain edge y = -alpha the first block is 4096 terms,
    not 256, and the budget message names a boundary tolerance; a walk cut
    at the last float exponent (``Rules.last``) names it, not the budget.
    A ``signed`` sequence's blocks also add their ``_abs_weight``, on which
    the slack is charged.

    A certificate is only computed where its block could end the walk.
    Where the walk is absolute and the budget not yet spent, the
    certificate is told the width ``need`` = max(tol - 2 slack, slack)
    (1 + 1e-9).  A width above it exceeds the slack, and with 2 slack
    added exceeds tol by at least 3e-10 tol (max(tol - 2 slack, slack) is
    at least tol/3), far more than the rounding of either subtraction or
    sum, so the block can neither stop the walk nor end it at the
    accumulation floor.  A sandwich whose cheap floor on its width
    already exceeds ``need`` leaves out its integral and returns that
    floor only.

    The states after each block depend on neither ``tol`` nor ``rel``,
    which only pick where the walk stops: a state holds its partial sum
    and either its certificate or, with no lower end, that floor.  They
    are kept per thread for the last few (seq, generator, y, p, budget)
    keys, so a repeated or tighter request replays them and sums only the
    blocks past the last one stored, with the same bits as a walk from the
    start; a looser one computes a floor-only state's certificate where it
    now needs one, and stores it once it is computed.
    """
    states = _recent(_memo.lru, (seq, seq.generator, y, p, budget), list)
    rules = seq.family.rules
    certificate = _TAILS[rules.tail]
    edge = y == -rules.domain(seq)[0]
    block = 4096 if edge else 256
    start = seq.start_index
    last = min(start + budget - 1, rules.last(seq, p))  # no exponent past float64
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
                if abs(total) == math.inf:  # from 2^1023: a factor 2 spares the rounding
                    passed = f"partial sum passed float64 after index {n1} for {seq.spec_string()} at y={y!r}"
                    low = 2.0 ** 1023 if total > 0.0 else -math.inf
                    raise BudgetExceededError(passed, SeriesEval(low, n1, math.inf))
                if seq.signed:
                    weight += _abs_weight(seq, y, p, n_done + 1, n1 + 1)
                n_done = n1
            slack = _roundoff(seq, y, p, total, n_done - start + 1, s_last, weight)
            lower, width = None, 0.0  # no certificate yet, and a floor of 0
        if lower is None:
            need = math.inf if rel or n_done >= last else max(tol - 2.0 * slack, slack) * (1.0 + 1e-9)
            if not width > need:  # else a stored floor: this block cannot end the walk
                lower, upper = certificate(seq, y, p, n_done, need) or (0.0, math.inf)
                width = upper if lower is None else upper - lower
                state = (total, n_done, slack, lower, width, weight)
                if i < len(states):
                    states[i] = state
                else:
                    states.append(state)
        if lower is not None:
            best = SeriesEval(total + lower - slack, n_done, width + 2.0 * slack)
            target = max(tol, rel * best.value)
            if best.tail_bound <= target or (rel and best.value <= 0.0 and width < math.inf):
                return best
            if 2.0 * slack > target and width <= slack:
                raise BudgetExceededError(
                    f"tolerance {target:g} is below the float64 accumulation floor "
                    f"{2.0 * slack:g} for {seq.spec_string()} at y={y!r}",
                    best,
                )
            if n_done >= last:
                within = f"within {budget} terms"
                if last < start + budget - 1:
                    within = f"by index {last}, the last float exponent"
                raise BudgetExceededError(
                    f"boundary tolerance {target:g} unreachable {within} "
                    f"(best width {best.tail_bound:g})"
                    if edge
                    else f"tolerance {target:g} unreachable {within} "
                    f"(best tail bound {best.tail_bound:g}) for {seq.spec_string()} at y={y!r}",
                    best,
                )
        block = min(block * 2, 1_000_000)


# (g^3)^(p), p <= 2: rows (c, a, b, d) of its monomials c g^a g'^b g''^d
_CUBE = (((1.0, 3, 0, 0),), ((3.0, 2, 1, 0),), ((6.0, 1, 2, 0), (3.0, 2, 0, 1)))


def _cube(g: list[float], p: int) -> float:
    """(g^3)^(p) from the factor ends (g, g', g''); inf where a float ** passes float64."""
    total = 0.0
    try:
        for c, a, b, d in _CUBE[p]:
            total += c * g[0] ** a * g[1] ** b * g[2] ** d
    except OverflowError:
        return math.inf
    return total


def _eval_box(
    seq: SigmaSequence, y: float, p: int, tol: float, budget: int, rel: float = 0.0
) -> SeriesEval:
    """Box series via f = g^3, g walked at y over ``box_factor``'s kappa
    k^2, orders p <= 2; the product bracket stops as ``_sum_blocks``'s does.

    ``_CUBE``'s monomials have positive coefficients and degree 3, so
    factor brackets at most r <= 1/4 of their lower ends wide give a
    product [L, H] at most (1 + r)^3 - 1 <= 4 r of L wide.  A first pass at
    r = 1/4 that misses the target is followed by one at
    r = min(1/4, target/(4 H)), whose width 4 r L' <= target L'/H is within
    the target, L' being below the true value and so below H, while r is
    far above the 40 u by which both ends are rounded outward.  A factor
    walk that fails ends the evaluation: the box's BudgetExceededError
    carries the product of the factors' best brackets.
    """
    if p > 2:
        raise ValueError(
            "box series evaluation supports derivative orders 0..2 "
            "(higher orders of the cubed factor are not implemented)"
        )
    r = 0.25
    for _ in range(2):
        low, high = [1.0, 1.0, 1.0], [1.0, 1.0, 1.0]
        n_max, failed = 0, None
        for j in range(p + 1):
            try:
                factor = _sum_blocks(box_factor(seq.kappa), y, j, 0.0, budget, r)
            except BudgetExceededError as exc:
                factor, failed = exc.best, exc
            low[j], high[j] = max(factor.value, 0.0), factor.upper
            n_max = max(n_max, factor.truncation_index)
        lo, hi = _cube(low, p), _cube(high, p)
        # the factors' upper ends, powers, products and sum: at most 10 u
        # of an end, inside the 20 u taken, as _up(hi, 6 u) takes it
        lo = lo * (1.0 - 20.0 * _U) if lo >= _TINY else 0.0
        if lo == math.inf:  # as a factor walk past float64 keeps it
            lo = 2.0 ** 1023
        best = SeriesEval(lo, n_max, _up(_up(hi, 6.0 * _U) - lo, 0.0))
        target = max(tol, rel * lo)
        if best.tail_bound <= target or (rel and lo <= 0.0):
            return best
        if failed is not None:
            break
        r = min(0.25, target / (4.0 * hi))
    raise BudgetExceededError(
        f"box bracket did not reach tol={target:g} for {seq.spec_string()} at y={y!r}"
        + ("" if failed is None else f" (a factor: {failed})"),
        best,
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
    bracket, when the tolerance needs more than the term budget, and
    ValueError for a NaN or -inf ``y`` before any term is summed.
    """
    return _evaluate(seq, y, p, tol, max_terms)


def _evaluate(
    seq: SigmaSequence, y: float, p: int, tol: float, max_terms: Optional[int], rel: float = 0.0
) -> SeriesEval:
    """``eval_series`` that also stops once tail_bound <= rel * value (see
    ``_sum_blocks``); with ``rel`` set, ``tol`` may be 0."""
    if math.isnan(y) or y == -math.inf:
        raise ValueError(f"y must be a number above -inf, got {y!r}")
    if p < 0 or p != int(p):
        raise ValueError("derivative order p must be a nonnegative integer")
    if not (tol > 0 or rel > 0):
        raise ValueError("tol must be positive")
    p = int(p)
    budget = max_terms_budget(max_terms)
    # edge and class from the rules; a refusal's record is summed on the way out
    alpha, edge = _edge(seq, "empty effective domain", y)
    if y > -alpha:
        raise _refused(seq, f"y={y!r} is beyond the domain edge -{alpha:g}", y)
    if y == -alpha:
        if edge is BoundaryClass.OPEN_BOUNDARY:
            raise _refused(seq, f"domain is open at the edge -{alpha:g}", y)
        if edge is BoundaryClass.CLOSED_INFINITE_SLOPE and p > 0:
            raise _refused(seq, "derivatives are unbounded at an infinite-slope edge", y)
        if p > 1:
            raise _refused(seq, "orders p >= 2 are refused at the domain edge", y)
    elif seq.family.rules.tail == "box":
        return _eval_box(seq, y, p, tol, budget, rel)
    return _sum_blocks(seq, y, p, tol, budget, rel)


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------

def _best_bracket(
    seq: SigmaSequence, y: float, p: int, tol: float, budget, rel: float = 0.0
) -> tuple[SeriesEval, Optional[BudgetExceededError]]:
    """``_evaluate`` and None, or the best bracket and its budget error."""
    try:
        return _evaluate(seq, y, p, tol, budget, rel), None
    except BudgetExceededError as exc:
        return exc.best, exc


def _relative(seq: SigmaSequence, y: float, p: int, rel: float, budget: Optional[int], what: str) -> SeriesEval:
    """f^(p)(y) bracketed to ``rel`` of its certified lower end; DomainError
    where that end is not positive, the sum underflowing."""
    ev = _evaluate(seq, y, p, 0.0, budget, rel)
    if ev.value <= 0.0:
        raise _refused(seq, f"series underflows at y={y!r}; {what} undefined in float64", y)
    return ev


def phi(seq: SigmaSequence, y: float, tol: float = 1e-12, max_terms: Optional[int] = None) -> float:
    """Log-derivative f'(y)/f(y) with relative error <= tol.

    Strictly increasing in y with infimum sigma_start; the mean exponent
    under the normalized weights exp(sigma_n y)/f(y).  f and f' are each
    walked once, until their brackets are tol/4 of their own certified
    lower ends wide (``_sum_blocks``'s relative stop).
    """
    e0 = _relative(seq, y, 0, 0.25 * tol, max_terms, "ratio")
    e1 = _relative(seq, y, 1, 0.25 * tol, max_terms, "ratio")
    return e1.midpoint / e0.midpoint


def log_f(seq: SigmaSequence, y: float, tol: float = 1e-12, max_terms: Optional[int] = None) -> float:
    """ln f(y) with absolute error <= tol, from one walk that stops once
    f's bracket is tol/2 of its certified lower end wide."""
    e0 = _relative(seq, y, 0, 0.5 * tol, max_terms, "log")
    return math.log(e0.midpoint)
