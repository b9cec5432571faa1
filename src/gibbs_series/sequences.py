"""Exponent sequences for countable sums of exponentials.

A sequence ``sigma_1 <= sigma_2 <= ...`` defines the series
``f(y) = sum_n exp(sigma_n * y)``.  Each family is described once, by the
``rules`` its ``Family`` member carries: its parameter, exponents,
increments, rounding, domain, and tail certificate, the callable that
bounds the terms after an index for the series walk: a geometric
envelope where the increments keep a positive floor (``_envelope``), an
integral sandwich where they shrink (``_sandwich``).  Each certificate is
formed in the log domain, widened by a bound on the rounding of its
exponent, and never returned below the smallest normal float (or, for a
lower end, rounded down).  ``_float_tail`` is the float start's
uncertified model of the same terms.
"""

from __future__ import annotations

import math
import sys
from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache
from math import isqrt
from typing import Callable, NamedTuple, Optional

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
    "box_factor",
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


class BoundaryClass(str, Enum):
    EMPTY_DOMAIN = "EmptyDomain"
    OPEN_BOUNDARY = "OpenBoundary"
    CLOSED_INFINITE_SLOPE = "ClosedInfiniteSlope"
    CLOSED_FINITE_SLOPE = "ClosedFiniteSlope"


class _Described(str, Enum):
    """An enum whose members each carry their family's description."""

    def __new__(cls, value: str, rules):
        member = str.__new__(cls, value)
        member._value_ = value
        member.rules = rules
        return member


def _parse(spec: str, kind: str, grammar: dict, make: Callable):
    """``make(family, parameter)`` from ``<name>`` or ``<name>:<parameter>``,
    the name looked up in ``grammar``; a family whose rules have no
    ``param`` takes none, and an omitted one means the rules' ``default``.
    """
    name, _, arg = spec.strip().partition(":")
    family = grammar.get(name.lower())
    if family is None:
        raise ValueError(f"unknown {kind} spec {spec!r}")
    rules = family.rules
    try:
        if rules.param is None:
            if arg:
                raise ValueError(f"{family.value} takes no parameter, got {arg!r}")
            return make(family)
        return make(family, float(arg) if arg or rules.default is None else rules.default)
    except ValueError as exc:
        raise ValueError(f"bad {kind} spec {spec!r}: {exc}") from exc


def _checked(needs: str, value: float, low: float, closed: bool = False) -> float:
    """``value`` as a float, if it is finite and above ``low`` (or equal to
    it, where ``closed``); a ValueError saying what ``needs`` it otherwise."""
    value = float(value)
    if not (value >= low if closed else value > low) or value == math.inf:
        raise ValueError(f"{needs} {'>=' if closed else '>'} {low:g}, got {value}")
    return value


def _spec(family: _Described, value: Optional[float]) -> str:
    """``<name>`` or ``<name>:<value>``, the value in the shorter of ``:g``
    and ``repr`` that reads back as it."""
    if value is None:
        return family.value
    short = f"{value:g}"
    return f"{family.value}:{short if float(short) == value else repr(value)}"


# ---------------------------------------------------------------------------
# Tails: each family's certificate (``_Rules.tail``), and the float model
# ---------------------------------------------------------------------------

_U = 2.0 ** -53  # unit roundoff of float64
_TINY = sys.float_info.min  # smallest normal float64
_HUGE = sys.float_info.max  # largest float64

# a tail certificate: (lower, upper) on the sum of the terms after an index,
# None while none applies yet, or (None, floor) with a floor on upper - lower
# where that floor exceeds the width the caller needs (see ``_sandwich``)
_Tail = Optional[tuple[Optional[float], float]]


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


@lru_cache(maxsize=None)
def _exp_sinh() -> tuple[np.ndarray, np.ndarray]:
    """The exp-sinh rule on [0, inf) (Takahasi and Mori): nodes x =
    exp(pi/2 sinh t) at t = j/64, |t| <= 4, and their trapezoid weights
    dx/dt / 64; the even nodes make the rule of step 1/32.  The first node
    lies 2e-19 from 0, the last 4e18 beyond it.  Built on first use, and
    with math: numpy's sinh and cosh loops would page in 256 KB that
    nothing else uses."""
    ts = [j / 64.0 for j in range(-256, 257)]
    x = np.array([math.exp(0.5 * math.pi * math.sinh(t)) for t in ts])
    return x, np.array([math.pi / 128.0 * math.cosh(t) for t in ts]) * x


def _float_tail(seq: SigmaSequence, N: int, s: float, y: float) -> tuple[np.ndarray, np.ndarray]:
    """Uncertified sum_{n>N} d_n^k exp(y d_n), d_n = sigma_n - s, k = 0..3,
    and an estimate of its quadrature error, from the exponents in w = ln x
    that the family's rules give (``in_w``), at a y inside the domain.

    With g(x) = d(x)^k exp(y d(x)), the sum is int_{N+1/2}^inf g +
    g'(N+1/2)/24 up to a term in g''' (Euler-Maclaurin for the midpoint
    sum, DLMF 2.10).  In w, g dx = d^k exp(y d + w) dw.  The integral over
    w >= W = ln(N + 1/2) takes the exp-sinh rule at w = W + c x, c =
    1/max(r, 1/8), r = |y| (1 + |sigma_w - 1|) - 1 at W: where sigma_w >= 1
    the rate at which the integrand falls there, and for the log family at
    theta < 0 (sigma_w < 1) a length short of its far and broad peak.  The
    error estimate is the rule's difference from the one of twice the step,
    plus the last node's share, the scale of what the rule cuts off where
    the integrand falls slowly; it is large where the integrand peaks far
    past W.  Exponents past float64 at far nodes give terms of 0.
    """
    sigma_w, slope_w = seq.family.rules.in_w
    W = math.log(N + 0.5)
    sigma_W = sigma_w(seq, W)
    slope = slope_w(seq, W, sigma_W)
    c = 1.0 / max(abs(y) * (1.0 + abs(slope - 1.0)) - 1.0, 0.125)
    x, weights = _exp_sinh()
    w = x * c + W
    parts = np.empty((4, w.size))
    with np.errstate(over="ignore", invalid="ignore"):  # inf or NaN, refused by the caller
        d = sigma_w(seq, w) - s
        g = np.multiply(d, y, out=parts[0])
        g += w
        np.exp(g, out=g)
        g *= weights
        g *= c
        if d[-1] == math.inf:  # exponents past float64, whose terms are 0
            d[g == 0.0] = 0.0
        for k in range(1, 4):
            np.multiply(parts[k - 1], d, out=parts[k])
        fine = parts.sum(axis=1)
        err = np.abs(fine - 2.0 * parts[:, ::2].sum(axis=1))
    err += parts[:, -1]
    # g_k'(N + 1/2) = sigma_w / x (k d^(k-1) + y d^k) exp(y d)
    d = sigma_W - s
    k = np.arange(4.0)
    fine += slope / (N + 0.5) * math.exp(y * d) / 24.0 * (y + k / d) * d ** k
    return fine, err


# ---------------------------------------------------------------------------
# Exponent families
# ---------------------------------------------------------------------------

class _Rules(NamedTuple):
    """Everything the library knows of one exponent family.

    The callables take the sequence, which holds the parameter.  ``tail``
    is the certificate callable on the terms after an index (``_Tail``),
    which the series walk calls after each block.  A
    materialized weight prefix runs from ``ground`` to a cut that doubles
    from the first of ``cuts`` up to the last (see ``prefix``).
    """

    sigma: Callable[[SigmaSequence, int], float]  # one exponent, from math
    # the exponents of an index array ns, built in place on x, its own float copy
    values: Callable[[SigmaSequence, np.ndarray, np.ndarray], np.ndarray]
    param: Optional[str] = None  # the SigmaSequence field holding the parameter
    low: float = 0.0  # the parameter is finite and above low,
    closed: bool = False  # or equal to it where closed;
    default: Optional[float] = None  # a spec string without it means default
    start: int = 1
    # a lower bound on the increments from index N on
    gap: Callable[[SigmaSequence, int], float] = lambda seq, N: 0.0
    # the last index whose terms sigma_n^p exp(sigma_n y) at order p are
    # floats, which every family answers (sys.maxsize: all are): a walk
    # sums no further, leaving the rest to the tail
    last: Callable[[SigmaSequence, int], int] = lambda seq, p: sys.maxsize
    # (e_rel, e_abs) of SigmaSequence.sigma_error
    rounding: Callable[[SigmaSequence], tuple[float, float]] = lambda seq: (0.0, 0.0)
    # alpha of the domain (-inf, -alpha), and the class of its edge
    domain: Callable = lambda seq: (0.0, BoundaryClass.OPEN_BOUNDARY)
    tail: Callable[..., _Tail] = _geom_tail  # (seq, y, p, N, need)
    # the exponents as a formula in w = ln x, which the float start's tail
    # model (``_float_tail``) integrates: sigma(seq, w) on floats and float
    # arrays, and d sigma/dw from w and sigma; None for exponents without one
    in_w: Optional[tuple[Callable, Callable]] = None
    ground: Callable = lambda seq: seq.start_index
    cuts: Callable = lambda seq: (seq.start_index + 31, seq.start_index + _PREFIX_CAP - 1)
    # the read-only indices up to a cut and their exponents, a new float
    # array that the caller owns and may write
    prefix: Callable = lambda seq, cut: _index_prefix(seq, cut)
    grammar: bool = True  # whether parse_sequence knows the family


_PREFIX_CAP = 65536  # largest materialized weight prefix, in indices


def _frozen(a: np.ndarray) -> np.ndarray:
    """``a``, made read-only."""
    a.flags.writeable = False
    return a


def _index_prefix(seq: SigmaSequence, cut: int) -> tuple[np.ndarray, np.ndarray]:
    """The indices up to ``cut``, a read-only int array, and their exponents."""
    ns = _frozen(np.arange(seq.start_index, cut + 1, dtype=np.int64))
    return ns, sigma_values(seq, ns)


def _power_sigma(seq: SigmaSequence, n: int) -> float:
    try:
        return float(n) ** seq.theta
    except OverflowError:
        raise ValueError(
            f"exponent of index {n} overflows float64 for {seq.spec_string()}"
        ) from None


def _power_values(seq: SigmaSequence, ns: np.ndarray, x: np.ndarray) -> np.ndarray:
    if x.size:
        _power_sigma(seq, int(ns.max()))  # raises where numpy would overflow
    x **= seq.theta
    return x


def _power_gap(seq: SigmaSequence, N: int) -> float:
    if seq.theta < 1.0:
        return 0.0
    try:
        hi = float(N + 1) ** seq.theta
    except OverflowError:
        # sigma_(N+1) > 2^1024, and (N+1)^theta - N^theta >= (N+1)^(theta-1)
        # = sigma_(N+1)/(N+1) for theta >= 1
        return 2.0 ** 1023 / (N + 1)
    # increments are nondecreasing, so the first one is the minimum;
    # less the rounding of both powers, so it stays a lower bound
    return hi - _power_sigma(seq, N) - 2.0 ** -51 * hi


def _power_last(seq: SigmaSequence, p: int) -> int:
    # n^(theta max(p, 1)) < 2^1024 up to n = 2^(1023 / (theta max(p, 1))),
    # a factor 2 to spare for the rounding of that power
    return int(2.0 ** min(1023.0 / (seq.theta * max(p, 1)), 1023.0))


def _logfam_values(seq: SigmaSequence, ns: np.ndarray, x: np.ndarray) -> np.ndarray:
    lx = np.log(x, out=x)
    theta_llx = np.log(lx)
    theta_llx *= seq.theta
    lx += theta_llx
    return lx


def _logfam_domain(seq: SigmaSequence) -> tuple[float, BoundaryClass]:
    # the edge -1 is open up to theta = 1; beyond, the boundary slope is
    # infinite up to theta = 2 and finite past it
    if seq.theta <= 1.0:
        return 1.0, BoundaryClass.OPEN_BOUNDARY
    if seq.theta <= 2.0:
        return 1.0, BoundaryClass.CLOSED_INFINITE_SLOPE
    return 1.0, BoundaryClass.CLOSED_FINITE_SLOPE


def _box_sigma(seq: SigmaSequence, n: int) -> float:
    return seq.kappa * int(_box_table_holding(n)[1][n - 1])


def _box_values(seq: SigmaSequence, ns: np.ndarray, x: np.ndarray) -> np.ndarray:
    x = _box_table_holding(int(ns.max(initial=0)))[1][ns - 1].astype(np.float64)
    x *= seq.kappa
    return x


def _box_prefix(seq: SigmaSequence, s_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The triples with level up to ``s_max`` (``box_levels``) and their exponents."""
    triples, levels = box_levels(s_max)
    x = levels.astype(np.float64)
    x *= seq.kappa
    return triples, x


class Family(_Described):
    """The exponent families, each member carrying its ``_Rules``.

    Rounding (see ``SigmaSequence.sigma_error``): integer exponents are
    exact, n^2 staying below 2^53 up to n = 9.4e7, past any default term
    budget.  Power, box and kappa n^2 values take one rounded pow or
    product.  For the log family, with logs off by at most 2 ulps (numpy's
    measure within 0.51 of mpmath), ln n carries 4 ln n u and ln ln n
    carries 4 (1 + ln ln n) u; bounding ln n and theta ln ln n by sigma_n
    (theta >= 0) or ln n by 2 sigma_n (-1 <= theta < 0) gives its pair.
    Custom exponents are the generator's floats, exact by definition.
    """

    # sigma_n = n
    LINEAR = "linear", _Rules(
        sigma=lambda seq, n: float(n),
        values=lambda seq, ns, x: x,
        gap=lambda seq, N: 1.0,
        in_w=(lambda seq, w: np.exp(w), lambda seq, w, s: s),
    )
    # sigma_n = n**theta, theta > 0; increments grow from theta = 1 on,
    # below which tails take an integral bound
    POWER = "power", _Rules(
        sigma=_power_sigma,
        values=_power_values,
        param="theta",
        gap=_power_gap,
        last=_power_last,
        rounding=lambda seq: (2.0, 0.0),
        tail=_power_tail,
        in_w=(lambda seq, w: np.exp(seq.theta * w), lambda seq, w, s: seq.theta * s),
    )
    # sigma_n = ln(n (ln n)**theta), n >= 3, theta >= -1 (below, sigma
    # would be negative or decreasing near n = 3); increments shrink to 0
    LOGFAM = "logfam", _Rules(
        sigma=lambda seq, n: math.log(n) + seq.theta * math.log(math.log(n)),
        values=_logfam_values,
        param="theta",
        low=-1.0,
        closed=True,
        start=3,
        rounding=lambda seq: (19.0, 4.0 * max(abs(seq.theta), 1.0)),
        domain=_logfam_domain,
        tail=_logfam_sandwich,
        in_w=(lambda seq, w: w + seq.theta * np.log(w), lambda seq, w, s: 1.0 + seq.theta / w),
    )
    # sigma_n = ln(ln n), n >= 3: terms (ln n)^y decay slower than 1/n for
    # every y, so the domain is empty
    LOGLOG = "loglog", _Rules(
        sigma=lambda seq, n: math.log(math.log(n)),
        values=lambda seq, ns, x: np.log(np.log(x, out=x), out=x),
        start=3,
        rounding=lambda seq: (8.0, 8.0),
        domain=lambda seq: (math.nan, BoundaryClass.EMPTY_DOMAIN),
    )
    # sigma_n = n**2 and increments 2n + 1, for the box factor kappa times both
    QUADRATIC = "quadratic", _Rules(
        sigma=lambda seq, n: float(n) ** 2 * (seq.kappa or 1.0),
        values=lambda seq, ns, x: np.multiply(np.multiply(x, x, out=x), seq.kappa or 1.0, out=x),
        gap=lambda seq, N: math.nextafter(seq.kappa * (2 * N + 1), 0) if seq.kappa else 2.0 * N + 1,
        # (kappa n^2)^max(p, 1) < 2^1024 up to n = 2^(511.5 / max(p, 1)) / kappa^(1/2),
        # a factor 2 to spare for the rounding, as in _power_last
        last=lambda seq, p: int(2.0 ** min(511.5 / max(p, 1) - 0.5 * math.log2(seq.kappa or 1.0), 1023.0)),
        rounding=lambda seq: (0.0 if seq.kappa is None else 1.0, 0.0),
        in_w=(lambda seq, w: (seq.kappa or 1.0) * np.exp(2.0 * w), lambda seq, w, s: 2.0 * s),
    )
    # kappa*(k^2+l^2+m^2) over k, l, m >= 1, flattened by sorted level
    # (``_box_table``); repeated levels leave no increment gap.  Sums
    # factor as g(y)^3 (``series._eval_box``), and tails and materialized
    # prefixes are cut between levels: there a cut is a level, not an index
    BOX = "box", _Rules(
        sigma=_box_sigma,
        values=_box_values,
        param="kappa",
        default=1.0,
        rounding=lambda seq: (1.0, 0.0),
        tail=_box_tail,
        ground=lambda seq: (1, 1, 1),
        cuts=lambda seq: (8, 4096),
        prefix=_box_prefix,
    )
    # a generator's exponents, with a declared domain edge (open; closure
    # is not certified) and increment gap; built by ``custom`` only
    CUSTOM = "custom", _Rules(
        sigma=lambda seq, n: float(seq.generator(n)),
        values=lambda seq, ns, x: np.array([float(seq.generator(int(n))) for n in ns]),
        gap=lambda seq, N: seq.declared_gap,
        domain=lambda seq: (seq.declared_alpha, BoundaryClass.OPEN_BOUNDARY),
        grammar=False,
    )


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
        e_abs > 0 the exponents are positive and nondecreasing).  The
        family's rules give (e_rel, e_abs); see ``Family``.
        """
        e_rel, e_abs = self.family.rules.rounding(self)
        return e_rel, e_abs, (e_rel + e_abs / sigma(self, self.start_index) if e_abs else e_rel)

    @cached_property
    def signed(self) -> bool:
        """Whether some exponent is negative.  Only a custom sequence's can
        be; every other family starts positive."""
        return sigma(self, self.start_index) < 0.0

    def spec_string(self) -> str:
        """Round-trippable form used by the CLI mini-grammar.  A box factor
        with kappa != 1, outside the grammar, reads ``quadratic (kappa=<kappa>)``."""
        rules = self.family.rules
        if not rules.grammar:
            return self.label or "custom"
        if rules.param is None and self.kappa is not None:
            return f"{self.family.value} (kappa={self.kappa!r})"
        return _spec(self.family, getattr(self, rules.param) if rules.param else None)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.spec_string()


def _sequence(family: Family, value: Optional[float] = None) -> SigmaSequence:
    """A sequence of a family of the grammar, its parameter checked."""
    rules = family.rules
    if rules.param is None:
        return _SINGLE[family.value]
    needs = f"{family.value} family needs finite {rules.param}"
    value = _checked(needs, value, rules.low, rules.closed)
    return SigmaSequence(family, start_index=rules.start, **{rules.param: value})


_GRAMMAR = {family.value: family for family in Family if family.rules.grammar}
# the parameterless families are single instances, so keys holding them
# compare by identity
_SINGLE = {
    name: SigmaSequence(family, start_index=family.rules.start)
    for name, family in _GRAMMAR.items()
    if family.rules.param is None
}
_LINEAR, _LOGLOG, _QUADRATIC = _SINGLE["linear"], _SINGLE["loglog"], _SINGLE["quadratic"]


def linear() -> SigmaSequence:
    return _LINEAR


def power(theta: float) -> SigmaSequence:
    return _sequence(Family.POWER, theta)


def logfam(theta: float) -> SigmaSequence:
    return _sequence(Family.LOGFAM, theta)


def loglog() -> SigmaSequence:
    return _LOGLOG


def quadratic() -> SigmaSequence:
    return _QUADRATIC


def box(kappa: float = 1.0) -> SigmaSequence:
    return _sequence(Family.BOX, kappa)


@lru_cache(maxsize=64)
def box_factor(kappa: float) -> SigmaSequence:
    """g's exponents kappa k^2 for a box's f = g^3; ``quadratic()`` at kappa = 1."""
    return _QUADRATIC if kappa == 1.0 else SigmaSequence(Family.QUADRATIC, kappa=kappa)


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
    ``loglog``, ``quadratic``, ``box:<kappa>`` (``box`` alone: kappa = 1).
    """
    return _parse(spec, "sequence", _GRAMMAR, _sequence)


# ---------------------------------------------------------------------------
# Box spectrum enumeration
# ---------------------------------------------------------------------------

def _isqrt(a: np.ndarray) -> np.ndarray:
    """Elementwise floor(sqrt(a)) of a nonnegative int64 array."""
    r = np.sqrt(a.astype(np.float64)).astype(np.int64)
    r -= r * r > a
    r += (r + 1) * (r + 1) <= a
    return r


def _triples_in_levels(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The (n, 3) array of every triple (k, l, m) with lo <= s =
    k^2+l^2+m^2 < hi, and its levels s.

    Ordered by level, then lexicographically.  Each (k, l) pair with room
    for m >= 1 contributes the run of m between two integer square roots,
    so the work and memory follow the output, not a cube of the range.
    Pairs are numbered in (k, l) order and hold one m per level, so one
    sort of the unique key s * n_pairs + pair gives that order.
    """
    sq = np.arange(1, isqrt(hi - 3) + 1, dtype=np.int64) ** 2
    kl = sq[:, None] + sq[None, :]
    k, l = np.nonzero(kl <= hi - 2)
    r = kl[k, l]
    m_lo = _isqrt(np.maximum(lo - r, 1) - 1) + 1  # least m >= 1, r + m^2 >= lo
    count = np.maximum(_isqrt(hi - 1 - r) - m_lo + 1, 0)
    n_pairs = len(r)
    key = np.arange(int(count.sum()), dtype=np.int64)
    key -= np.repeat(np.cumsum(count) - count - m_lo, count)
    key *= key  # m^2
    pair = np.repeat(np.arange(n_pairs, dtype=np.int64), count)
    key += np.take(r, pair)  # s
    # key < hi^2 (s, n_pairs < hi): int64 holds it for any table in memory
    key *= n_pairs
    key += pair
    key.sort()
    s, pair = np.divmod(key, n_pairs, out=(key, pair))
    # np.take gathers rows faster than fancy indexing (level 2048's 46,115
    # in a fresh process: 0.7-0.8 ms, against 1.0-1.2 ms)
    triples = np.take(np.column_stack((k + 1, l + 1, -r)), pair, axis=0)
    del pair
    # m = sqrt(s - r) in place, one buffered pass: exact for m^2 < 2^53, a square
    m = triples[:, 2]
    m += s
    np.sqrt(m, out=m, casting="unsafe")
    return triples, s


def _level(s_max: int) -> int:
    """The least power of two >= s_max, at least 4 so that its table holds level 3."""
    return 1 << (max(s_max, 3) - 1).bit_length()


@lru_cache(maxsize=None)
def _box_table(s_max: int) -> tuple[np.ndarray, np.ndarray]:
    """The box spectrum to level ``s_max``, a power of two (``_level``):
    ``_triples_in_levels(3, s_max + 1)`` as read-only int64 arrays.

    Each table is a prefix of the next.  It depends on its level alone
    and is never written, so a caller keeps the arrays it got, and threads
    need no lock: two that miss together build the same bits.  Doubling
    the level multiplies the triples by about 2^1.5, so all the tables of
    a process hold at most about 1.55 times the largest.
    """
    triples, levels = _triples_in_levels(3, s_max + 1)
    return _frozen(triples), _frozen(levels)


def _box_table_holding(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The least table (``_box_table``) with at least ``n`` triples."""
    # a triple of level s owns the unit cube below it, which lies in the
    # octant ball of radius sqrt(s): no level below (6 n / pi)^(2/3) holds n
    s_max = _level(int((6.0 * n / math.pi) ** (2.0 / 3.0)))
    while len(_box_table(s_max)[1]) < n:
        s_max *= 2
    return _box_table(s_max)


def enumerate_box(kappa: float, budget: int) -> list[tuple[tuple[int, int, int], float]]:
    """First ``budget`` box triples sorted by kappa*(k^2+l^2+m^2), as a
    list of ((k, l, m), kappa*s) tuples.

    Ties break lexicographically; the output is deterministic and, up to
    the last emitted level, gap-free.
    """
    box(kappa)  # the family's check of kappa
    if budget < 1:
        raise ValueError("budget must be >= 1")
    triples, levels = _box_table_holding(budget)
    return [
        (tuple(trip), kappa * s)
        for trip, s in zip(triples[:budget].tolist(), levels[:budget].tolist())
    ]


def box_levels(s_max: int) -> tuple[np.ndarray, np.ndarray]:
    """All triples with level <= s_max, an (n, 3) int64 array, and their
    integer levels: read-only views of the table of the least power of
    two >= s_max (``_level``)."""
    triples, levels = _box_table(_level(s_max))
    cut = int(np.searchsorted(levels, s_max, side="right"))
    return triples[:cut], levels[:cut]


# ---------------------------------------------------------------------------
# Exponent evaluation
# ---------------------------------------------------------------------------

def sigma(seq: SigmaSequence, n: int) -> float:
    """Exponent sigma_n; raises SequenceIndexError below the start index."""
    if n < seq.start_index:
        raise SequenceIndexError(
            f"index {n} below start index {seq.start_index} for {seq.spec_string()}"
        )
    return seq.family.rules.sigma(seq, n)


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
    return seq.family.rules.values(seq, ns, ns.astype(np.float64))


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
    return seq.family.rules.gap(seq, N)


# ---------------------------------------------------------------------------
# Alternating-constraint coefficient sequences
# ---------------------------------------------------------------------------

class _Coefficients(NamedTuple):
    """One coefficient family, its functions taking the parameter first.

    ``rate`` is lim ln(varsigma_n)/n, and a ``geometric`` family has
    varsigma_n = exp(rate n) exactly.  ``step(k, N)``, where set, bounds
    varsigma_{n+1}/varsigma_n for every n > N.  ``param`` names the
    parameter, which must be finite and above ``low``.
    """

    value: Callable[[Optional[float], int], float]
    values: Callable[[Optional[float], np.ndarray], np.ndarray]
    log_value: Callable[[Optional[float], int], float]
    log_values: Callable[[Optional[float], np.ndarray], np.ndarray]
    rate: Callable[[Optional[float]], float]
    param: Optional[str] = None
    low: float = 0.0
    default = None  # no coefficient family has a default parameter
    geometric: bool = False
    step: Optional[Callable[[float, int], float]] = None


class VarsigmaFamily(_Described):
    # varsigma_n = n**k, k > 1
    POWER_K = "power", _Coefficients(
        value=lambda k, n: float(n) ** k,
        values=lambda k, x: x ** k,
        log_value=lambda k, n: k * math.log(n),
        log_values=lambda k, x: k * np.log(x),
        rate=lambda k: 0.0,
        param="k",
        low=1.0,
        step=lambda k, N: ((N + 2.0) / (N + 1.0)) ** k,
    )
    # varsigma_n = exp(alpha*n), alpha > 0
    EXP_ALPHA = "exp", _Coefficients(
        value=lambda alpha, n: math.exp(alpha * n),
        values=lambda alpha, x: np.exp(alpha * x),
        log_value=lambda alpha, n: alpha * n,
        log_values=lambda alpha, x: alpha * x,
        rate=lambda alpha: alpha,
        param="alpha",
        geometric=True,
    )
    # varsigma_n = exp(n**2)
    EXP_SQUARE = "expsq", _Coefficients(
        value=lambda _, n: math.exp(float(n) ** 2),
        values=lambda _, x: np.exp(x * x),
        log_value=lambda _, n: float(n) ** 2,
        log_values=lambda _, x: x * x,
        rate=lambda _: math.inf,
    )


class VarsigmaSequence(NamedTuple):
    """Coefficients for the sign-alternating second moment constraint.

    All families grow super-linearly (varsigma_n / n -> infinity).
    """

    family: VarsigmaFamily
    param: Optional[float] = None

    def value(self, n: int) -> float:
        return self.family.rules.value(self.param, n)

    def values(self, ns: np.ndarray) -> np.ndarray:
        return self.family.rules.values(self.param, np.asarray(ns, dtype=np.float64))

    def log_value(self, n: int) -> float:
        """log(varsigma_n); avoids overflow for the exponential families."""
        return self.family.rules.log_value(self.param, n)

    def log_values(self, ns: np.ndarray) -> np.ndarray:
        return self.family.rules.log_values(self.param, np.asarray(ns, dtype=np.float64))

    def spec_string(self) -> str:
        return _spec(self.family, self.param)


def _varsigma(family: VarsigmaFamily, value: Optional[float] = None) -> VarsigmaSequence:
    rules = family.rules
    if rules.param is None:
        return VarsigmaSequence(family)
    needs = f"{family.value} coefficients need finite {rules.param}"
    return VarsigmaSequence(family, _checked(needs, value, rules.low))


def varsigma_power(k: float) -> VarsigmaSequence:
    return _varsigma(VarsigmaFamily.POWER_K, k)


def varsigma_exp(alpha: float) -> VarsigmaSequence:
    return _varsigma(VarsigmaFamily.EXP_ALPHA, alpha)


def varsigma_expsq() -> VarsigmaSequence:
    return _varsigma(VarsigmaFamily.EXP_SQUARE)


def parse_varsigma(spec: str) -> VarsigmaSequence:
    """Parse ``power:<k>``, ``exp:<alpha>``, or ``expsq``."""
    return _parse(spec, "varsigma", {family.value: family for family in VarsigmaFamily}, _varsigma)
