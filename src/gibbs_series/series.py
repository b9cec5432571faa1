"""Certified evaluation of f^(p)(y) = sum_n sigma_n^p exp(sigma_n y).

Every evaluation returns a bracket: ``value`` is a provable lower bound
(a partial sum, plus a certified lower integral correction for the log
family) and ``value + tail_bound`` is a provable upper bound.  The
certificates used are:

* geometric: when increments sigma_{n+1} - sigma_n >= delta > 0 and
  sigma_{N+1} > p/|y|, omitted terms are dominated by the decreasing
  geometric envelope (sigma_{N+1} + k*delta)^p exp((sigma_{N+1}+k*delta)y)
  whose ratio r = (1 + delta/sigma_{N+1})^p * exp(delta*y) is < 1, and
  so are box levels kappa s, s > S, of at most s triples each (``_envelope``);
* integral comparison: for powers n^theta with theta < 1, the tail is
  bounded by an integral, an upper incomplete gamma function of integer
  order;
* integral sandwich for the log family, at the edge y = -1 and in the
  interior at every order p: for decreasing terms convex from N + 1/2 on
  (Hermite-Hadamard; sigma is concave from x = e^phi ~ 5.04 on for every
  theta >= -1), int_{N+1} g + g(N+1)/2 <= tail <= int_{N+1/2} g, a
  bracket about |g'(N)|/8 wide that is added to the partial sum; the
  edge integrals are exact log-power integrals, the interior p = 0 ones
  F = b^-a Gamma(a, b ln c) with a certified upper incomplete gamma
  function (the even and odd convergents of Legendre's continued
  fraction), and the interior p >= 1 ones d^p F/dy^p, bracketed to
  second order in the step by 2p + 2 values of F for each end, since F
  is a Laplace transform in y and its F^(p+2) is positive;
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
    fb = _sum_blocks(seq, -alpha, 0, tol, budget, edge=True)
    if edge is BoundaryClass.CLOSED_INFINITE_SLOPE:
        return DomainInfo(alpha, edge, math.inf, fb.midpoint, 0.0, 0.5 * fb.tail_bound)
    gm = _sum_blocks(seq, -alpha, 1, tol, budget, edge=True)
    return DomainInfo(
        alpha, edge, gm.midpoint, fb.midpoint, 0.5 * gm.tail_bound, 0.5 * fb.tail_bound
    )


# ---------------------------------------------------------------------------
# Tail certificates
# ---------------------------------------------------------------------------

_U = 2.0 ** -53  # unit roundoff of float64
_SUBNORMAL = 2.0 ** -1074  # the smallest subnormal float64
_TINY = sys.float_info.min  # smallest normal float64

# a tail certificate: (lower, upper) on the sum of the terms after an index,
# or None while none applies yet
_Tail = Optional[tuple[float, float]]


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


def _envelope(log_c: float, s1: float, q: int, delta: float, y: float) -> _Tail:
    """(0, bound) on sum_{k>=0} e^log_c (s1 + k delta)^q exp((s1 + k delta) y),
    the bound being its first term over 1 - r, r = (1 + delta/s1)^q
    exp(delta y) the largest ratio of consecutive terms; None while the
    terms may still grow (s1 |y| <= q) or r > 1 - 1e-12.

    Rounding: the lead exponent's parts carry 3 u of each, s1 y that of a
    rounded s1 too; an error x in the exponent of r, 2 u of each part,
    moves ln(1 - r) by x/(1 - r).
    """
    if q and s1 * -y <= q:
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


def _geom_tail(seq: SigmaSequence, y: float, p: int, N: int) -> _Tail:
    """(0, bound) after index N: the envelope from sigma_{N+1}, or None."""
    return _envelope(0.0, sigma(seq, N + 1), p, increment_gap(seq, N + 1), y)


def _power_tail(seq: SigmaSequence, y: float, p: int, N: int) -> _Tail:
    """(0, bound) on the tail of sum_{n>N} n^(theta p) exp(y n^theta):
    geometric where the increments grow (theta >= 1), else an integral bound."""
    theta = seq.theta
    if theta >= 1.0:
        # lower s1 and delta only raise the envelope: s1 is taken at most
        # 2^1000 / max(1, |y|), also where (N+1)^theta overflows, so that
        # s1 y stays finite, and delta at most s1, so that the rounding of
        # r stays within that of the lead exponent
        cap = 2.0 ** 1000 / max(1.0, -y)
        try:
            s1 = min(float(N + 1) ** theta, cap)
        except OverflowError:
            s1 = cap
        return _envelope(0.0, s1, p, min(increment_gap(seq, N + 1), s1), y)
    b = -y
    if float(N) ** theta * b <= p:
        return None
    # substitute s = x^theta:  (1/theta) * int_S^inf s^(a-1) exp(-b s) ds,
    # a = p + 1/theta >= 1;  bound s^(a-1) <= S^(a-1-m) s^m with m = ceil(a-1),
    # whose integral is Gamma(m + 1, b S) / b^(m+1)
    S = float(N) ** theta
    if S < 1.0:
        return None
    a = p + 1.0 / theta
    m = math.ceil(a - 1.0)
    log_b = math.log(b)
    _, log_gamma, err = _log_upper_gamma(m + 1.0, b * S)
    log_int = log_gamma - (m + 1) * log_b
    log_pre = (a - 1.0 - m) * math.log(S) - math.log(theta)
    # S = N^theta carries a relative error of u, moving b S by 2 b S u, and
    # d ln Gamma(m + 1, z) / dz lies in [-1, 0]; ln b carries (|ln b| + 1) u
    err += _U * (
        4.0 * (b * S + a + m)
        + 2.0 * (m + 1) * (abs(log_b) + 1.0)
        + 3.0 * abs(log_pre)
        + 2.0 * abs(log_int)
    )
    return 0.0, _exp_up(log_pre + log_int, err)


def _box_tail(seq: SigmaSequence, y: float, p: int, S: int) -> _Tail:
    """(0, bound) on the box terms with level s > S, or None: r3(s) <= s
    (at most one m per (k, l), and fewer than s pairs with k^2 + l^2 < s)
    puts them below sum_{s>S} s (kappa s)^p exp(kappa s y), the envelope
    over kappa s with s1 = fl(kappa (S + 1)), q = p + 1, delta = kappa and
    log_c = -ln kappa."""
    kappa = seq.kappa
    return _envelope(-math.log(kappa), kappa * (S + 1.0), p + 1, kappa, y)


# ---------------------------------------------------------------------------
# Integral sandwich for the log family
# ---------------------------------------------------------------------------

def _logfam_sandwich(seq: SigmaSequence, y: float, p: int, N: int) -> _Tail:
    """(lower, upper) on the log-family tail after N, at the edge y = -1 and
    in the interior at every order p; None while the terms may still grow.

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
    """integral_c^inf sigma(x)^p exp(y sigma(x)) dx, rounded up (or down)."""
    if y == -1.0:
        return _logfam_boundary_integral(seq.theta, p, c, lower)
    if p:
        return _logfam_derivative_integral(seq.theta, y, p, c, lower)
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


def _logfam_derivative_integral(
    theta: float, y: float, p: int, c: float, lower: bool = False
) -> float:
    """integral_c^inf sigma(x)^p x^y (ln x)^(theta y) dx for p >= 1, y < -1,
    c >= 3, rounded up (or down with ``lower``).

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

    whose coefficients ``_stencil`` lists.  At p = 1 they are
    [2F(y+h) - 3F(y) + 2F(y-h) - F(y-2h)] / (2h), (2/3) h^2 F''' above F',
    and [2F(y) - F(y-h) - 2F(y-2h) + F(y-3h)] / (2h), (5/6) h^2 F''' below.

    Each combination takes F's ends crosswise (the upper end for positive
    coefficients of the upper bound and negative ones of the lower bound).
    The products carry at most u each and ``math.fsum`` rounds the sum
    once, so 8 u of the sum of |terms| covers both with margin; h is a
    power of two, so dividing by 2 h^p is exact.  The nodes y + j h must be
    exact floats: y + j h less y is exact (Sterbenz), and differs from j h
    only where a node crosses into the binade below, whose ulp is twice
    y's.  There each end is taken at the neighbour of y with an even last
    mantissa bit, from whose multiples of 2 ulp every node is exact: the
    one above y for the upper end and the one below for the lower end, as
    F^(p) increases in y.

    The width is about h^2 F^(p+2) from the curvature plus eps F / h^p
    times the coefficients from F's relative bracket width eps, least near
    h = 1.4 eps^(1/(p+2)) (F/F^(p+2))^(1/(p+2)).  F^(p+2)/F = E[sigma^(p+2)]
    under the weight, far above sigma(c)^(p+2) near the edge; its root is
    taken from the third moment of ln x (``_slope_step_scale``) at every p.
    h is capped at |y + 1|/(4p) to keep y + p h inside the domain.  At p = 1
    the bracket is then 5-8 eps^(2/3) of F' wide (eps ~ 1e-13) where F's
    own width allows.
    """
    lo, hi = _logfam_gamma_integral(theta, y, c)
    eps, scale = math.inf, 1.0
    if lo > 0.0:
        eps, scale = hi / lo - 1.0, _slope_step_scale(theta, y, c, lo)
    step = min(1.4 * eps ** (1.0 / (p + 2)) / scale, -0.25 * (y + 1.0) / p)
    h = math.ldexp(1.0, math.frexp(step)[1] - 1)  # the power of two at or below step
    stencil = _stencil(p, lower)
    nodes = [y + j * h for j, _ in stencil]
    if any(t - y != j * h for t, (j, _) in zip(nodes, stencil)):  # a node across a binade
        mantissa, exponent = math.frexp(y)
        even = (math.floor if lower else math.ceil)(math.ldexp(mantissa, 52))
        neighbour = math.ldexp(even, exponent - 52)
        if neighbour != y and neighbour < -1.0:
            return _logfam_derivative_integral(theta, neighbour, p, c, lower)
        return 0.0 if lower else math.inf
    divisor = 2.0 * h ** p
    if not (divisor > 0.0 and max(nodes) < -1.0):  # y within a few ulps of the edge
        return 0.0 if lower else math.inf
    terms = []
    for t, (_, coef) in zip(nodes, stencil):
        ends = (lo, hi) if t == y else _logfam_gamma_integral(theta, t, c)
        terms.append(coef * ends[(coef > 0.0) != lower])
    total = math.fsum(terms)
    err = 8.0 * _U * math.fsum(map(abs, terms))
    if lower:
        return max(total - err, 0.0) / divisor * (1.0 - 4.0 * _U)
    return _up((total + err) / divisor, 0.0)


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
    rel: float = 0.0,
    edge: bool = False,
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
    fails at once: more terms only raise the accumulation floor.  At the
    domain edge (``edge``) the first block is 4096 terms, not 256, and the
    budget message names a boundary tolerance.  A ``signed`` sequence's
    blocks also add their ``_abs_weight``, on which the slack is charged.

    The states after each block depend on neither ``tol`` nor ``rel``,
    which only pick where the walk stops.  They are kept per thread for
    the last few (seq, generator, y, p, budget) keys, so a repeated or
    tighter request replays them and sums only the blocks past the last
    one stored, with the same bits as a walk from the start.
    """
    states = _recent(_memo.lru, (seq, seq.generator, y, p, budget), list)
    rules = seq.family.rules
    certificate = _TAILS[rules.tail]
    block = 4096 if edge else 256
    start = seq.start_index
    last = start + budget - 1
    if rules.last is not None:  # exponents past float64 from some index on
        last = min(last, rules.last(seq, p))
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
            lower, upper = certificate(seq, y, p, n_done) or (0.0, math.inf)
            width = upper - lower
            slack = _roundoff(seq, y, p, total, n_done - start + 1, s_last, weight)
            states.append((total, n_done, slack, lower, width, weight))
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
            raise BudgetExceededError(
                f"boundary tolerance {target:g} unreachable within {budget} terms "
                f"(best width {best.tail_bound:g})"
                if edge
                else f"tolerance {target:g} unreachable within {budget} terms "
                f"(best tail bound {best.tail_bound:g}) for {seq.spec_string()} at y={y!r}",
                best,
            )
        block = min(block * 2, 1_000_000)


# (g^3)^(p), p <= 2: rows (c, a, b, d) of its monomials c g^a g'^b g''^d
_CUBE = (((1.0, 3, 0, 0),), ((3.0, 2, 1, 0),), ((6.0, 1, 2, 0), (3.0, 2, 0, 1)))


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
        lo = hi = 0.0
        for c, a, b, d in _CUBE[p]:
            lo += c * low[0] ** a * low[1] ** b * low[2] ** d
            hi += c * high[0] ** a * high[1] ** b * high[2] ** d
        # the factors' upper ends, powers, products and sum: at most 10 u
        # of an end, inside the 20 u taken, as _up(hi, 6 u) takes it
        lo = lo * (1.0 - 20.0 * _U) if lo >= _TINY else 0.0
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
    # edge and class from the rules; domain_info (an edge sum) only for refusals
    alpha, edge = seq.family.rules.domain(seq)
    if edge is BoundaryClass.EMPTY_DOMAIN:
        raise DomainError("empty effective domain", domain_info(seq), y)
    if y > -alpha:
        raise DomainError(
            f"y={y!r} is beyond the domain edge -{alpha:g}", domain_info(seq), y
        )
    if y == -alpha:
        if edge is BoundaryClass.OPEN_BOUNDARY:
            raise DomainError(
                f"domain is open at the edge -{alpha:g}", domain_info(seq), y
            )
        if edge is BoundaryClass.CLOSED_INFINITE_SLOPE and p > 0:
            raise DomainError(
                "derivatives are unbounded at an infinite-slope edge", domain_info(seq), y
            )
        if p > 1:
            raise DomainError(
                "orders p >= 2 are refused at the domain edge", domain_info(seq), y
            )
        return _sum_blocks(seq, -alpha, p, tol, budget, rel, edge=True)
    if seq.family.rules.tail == "box":
        return _eval_box(seq, y, p, tol, budget, rel)
    return _sum_blocks(seq, y, p, tol, budget, rel)


# ---------------------------------------------------------------------------
# Derived quantities
# ---------------------------------------------------------------------------

def _best_bracket(
    seq: SigmaSequence, y: float, p: int, tol: float, budget, rel: float = 0.0
) -> SeriesEval:
    """``_evaluate``, or on budget exhaustion the best bracket it reached."""
    try:
        return _evaluate(seq, y, p, tol, budget, rel)
    except BudgetExceededError as exc:
        return exc.best


def _relative(seq: SigmaSequence, y: float, p: int, rel: float, budget: Optional[int], what: str) -> SeriesEval:
    """f^(p)(y) bracketed to ``rel`` of its certified lower end; DomainError
    where that end is not positive, the sum underflowing."""
    ev = _evaluate(seq, y, p, 0.0, budget, rel)
    if ev.value <= 0.0:
        raise DomainError(
            f"series underflows at y={y!r}; {what} undefined in float64",
            domain_info(seq),
            y,
        )
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
