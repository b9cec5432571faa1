"""Tail certificates are true upper bounds: direct long-sum comparisons,
and exact high-precision references where a certificate is exact or is a
two-sided sandwich."""

import functools
import math
import statistics
import sys
from collections import Counter

import numpy as np
import pytest

from gibbs_series import (
    Family,
    SequenceIndexError,
    box,
    custom,
    eval_series,
    increment_gap,
    linear,
    logfam,
    loglog,
    power,
    quadratic,
    sequences,
    series,
    sigma_values,
    tail_bound_after,
)
from gibbs_series.sequences import box_levels


def brute_tail(seq, y, p, N, extent=2_000_000):
    """Partial tail sum over (N, N+extent] in float64.

    It omits the far tail but carries rounding error either way, so it is
    a lower bound on the true tail only up to a few ulps: a fair
    reference where a certificate has room above the exact tail, not
    where the certificate is exact.
    """
    ns = np.arange(N + 1, N + extent + 1, dtype=np.int64)
    s = sigma_values(seq, ns)
    return float(np.sum(s ** p * np.exp(s * y)))


def linear_tail_exact(y, p, N):
    """Exact sum_{n>N} n^p exp(n y) for p = 0 or 1, to 40 digits.

    With q = exp(y): q^(N+1)/(1-q) for p = 0 and
    q^(N+1)((N+1) - N q)/(1-q)^2 for p = 1.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        q = mp.exp(mp.mpf(y))
        if p == 0:
            return q ** (N + 1) / (1 - q)
        return q ** (N + 1) * ((N + 1) - N * q) / (1 - q) ** 2


CASES = [
    (linear(), -0.05, 0, 40),
    (linear(), -0.4, 3, 60),
    (power(1.5), -0.2, 1, 50),
    (power(0.7), -0.6, 0, 64),
    (power(0.7), -1.1, 2, 128),
    (quadratic(), -0.01, 1, 64),
    (logfam(3.0), -1.5, 0, 1000),
    (logfam(3.0), -1.2, 1, 5000),
    (logfam(0.5), -2.0, 0, 1000),
    (logfam(3.0), -1.0, 0, 1000),
    (logfam(3.0), -1.0, 1, 1000),
    (logfam(3.0), -1.5, 2, 1000),
]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize(
    "theta,y,p",
    [
        (300.0, -1.0, 0),
        (300.0, -1.0, 1),
        (300.0, -2.0, 2),
        (500.0, -1e-100, 1),
        (1000.0, -1e-200, 0),
        (60.0, -1e-3, 3),
        # |y| < 1: the envelope's first exponent s1 is capped at 2^1023,
        # not 2^1000, so that s1 |y| can pass the terms' peak
        (1000.0, -1e-302, 0),
        (1000.0, -6.5e-299, 1),
    ],
)
def test_power_exponents_past_float64_against_mpmath(theta, y, p):
    """A walk stops at the last index whose terms are floats (n^(theta
    max(p, 1)) < 2^1024); past it the envelope, from exponents and
    increments past float64, bounds the rest.  Every term after the
    second is below exp(-10^5), so the first 100 are a 50-digit
    reference."""
    mp = pytest.importorskip("mpmath")
    seq = power(theta)
    ev = eval_series(seq, y, p)
    N = ev.truncation_index
    assert N < 100
    with mp.workdps(50):
        s = [mp.mpf(n) ** theta for n in range(1, 101)]
        exact = mp.fsum(x ** p * mp.exp(x * y) for x in s)
        assert ev.value <= exact <= mp.mpf(ev.value) + ev.tail_bound
    k = int(theta)
    assert 0.0 < increment_gap(seq, N + 1) <= (N + 2) ** k - (N + 1) ** k
    assert 0.0 < tail_bound_after(seq, y, p, N) <= ev.tail_bound


def test_power_whose_third_exponent_passes_float64_fails_honestly():
    """power:646.4 at y = -1e-320 sums to 3 - 2.6e-12: 3^646.4 lies just
    past float64, so no float s1 shows that its tail is small.  The walk
    gives up (a budget error) with a bracket that still holds the sum."""
    mp = pytest.importorskip("mpmath")
    theta, y = 646.4, -1e-320
    try:
        best = eval_series(power(theta), y, 0)
    except series.BudgetExceededError as exc:
        best = exc.best
    with mp.workdps(40):
        exact = mp.fsum(mp.exp(mp.mpf(n) ** theta * mp.mpf(y)) for n in range(1, 101))
        assert 2 < exact < 3
        assert best.value <= exact <= mp.mpf(best.value) + best.tail_bound


@pytest.mark.parametrize("seq,y,p,N", CASES)
def test_tail_bound_dominates_brute_tail(seq, y, p, N):
    bound = tail_bound_after(seq, y, p, N)
    assert bound is not None
    if seq.family is Family.LINEAR and p <= 1:
        # the geometric certificate is exact at p = 0, so only an exact
        # reference tells a bound from the rounding of a float sum
        reference = linear_tail_exact(y, p, N)
    else:
        reference = brute_tail(seq, y, p, N)
    assert bound >= reference


# log-spaced y down to -1e-4, where 1 - exp(y) cancels, and N up to 1000,
# so (N+1) y reaches below -745, where exp underflows
SWEEP_YS = [float(-v) for v in np.geomspace(1e-4, 5.0, 37)]
SWEEP_NS = (0, 1, 5, 40, 200, 1000)


@pytest.mark.parametrize("p", [0, 1])
def test_linear_tail_bound_never_below_exact(p):
    pytest.importorskip("mpmath")
    for y in SWEEP_YS:
        for N in SWEEP_NS:
            bound = tail_bound_after(linear(), y, p, N)
            if bound is None:
                continue
            exact = linear_tail_exact(y, p, N)
            assert bound >= exact, (y, N)
            if p == 0:
                # exact certificate: the outward rounding is a few ulps
                # wide, or the smallest normal float once the tail is
                # below it
                assert bound <= max(exact * (1 + 1e-9), sys.float_info.min), (y, N)


def test_box_level_tail_never_below_level_sum():
    # exact sums over the levels in (S, 400] are lower bounds on the
    # level tail; the grid reaches kappa (S+1) y < -745
    mp = pytest.importorskip("mpmath")
    _, levels = box_levels(400)
    counts = Counter(int(s) for s in levels)
    for kappa in (0.3, 1.0, 2.5):
        for y in (-1e-3, -0.05, -0.3, -2.0, -10.0, -40.0):
            for S in (3, 8, 20, 64, 200):
                for p in (0, 1, 2):
                    bound = tail_bound_after(box(kappa), y, p, S)
                    if bound is None:
                        continue
                    with mp.workdps(40):
                        k, z = mp.mpf(kappa), mp.mpf(kappa) * mp.mpf(y)
                        ref = mp.fsum(
                            c * (k * s) ** p * mp.exp(z * s)
                            for s, c in counts.items()
                            if s > S
                        )
                    assert bound >= ref, (kappa, y, S, p)


def test_tail_bound_none_before_decay(seq=quadratic()):
    # at y = -1e-6 the terms still grow at small indexes for p = 1
    assert tail_bound_after(quadratic(), -1e-6, 1, 5) is None


@pytest.mark.parametrize(
    "seq",
    [linear(), power(0.5), power(1.3), logfam(3.0), loglog(), quadratic(), box(1.0), custom(lambda n: n, 0.0, 1.0, 4)],
    ids=str,
)
def test_tail_below_the_start_is_refused_in_every_family(seq):
    # N = start - 1 asks for the whole sum; below that no index is left out
    start = seq.start_index
    for N in (start - 2, start - 6):
        with pytest.raises(SequenceIndexError):
            tail_bound_after(seq, -1.5, 1, N)
    tail_bound_after(seq, -1.5, 1, start - 1)


def test_boundary_tail_needs_decreasing_terms():
    # logfam:4 starts at n = 3; for p = 1 the integral from x = 2 spans
    # x where sigma < 1 and the terms grow, and it is below the tail
    # (0.908 against 1.016)
    assert tail_bound_after(logfam(4.0), -1.0, 1, 2) is None
    assert tail_bound_after(logfam(4.0), -1.0, 1, 3) is not None


def test_box_level_tail_dominates_brute():
    # flattened tail over levels s > S versus a long explicit enumeration
    from gibbs_series import enumerate_box

    kappa, y, S = 1.0, -0.3, 20
    for p in (0, 1):
        bound = tail_bound_after(box(kappa), y, p, S)
        brute = math.fsum(
            s ** p * math.exp(s * y) for _, s in enumerate_box(kappa, 300_000) if s > S
        )
        assert bound is not None and bound >= brute


def test_custom_gap_certificate():
    seq = custom(lambda n: 3.0 * n + 1.0, declared_alpha=0.0, declared_gap=3.0)
    bound = tail_bound_after(seq, -0.5, 1, 30)
    assert bound is not None
    assert bound >= brute_tail(seq, -0.5, 1, 30, extent=10_000)


def test_logfam_boundary_integral_brackets_true_tail():
    # exact integrals from N and N+1 sandwich the boundary tail; a brute
    # window sum plus an upper bound on its own far tail closes the check
    from gibbs_series.sequences import _logfam_boundary_integral

    seq, p, N, extent = logfam(3.0), 1, 500, 4_000_000
    lower = _logfam_boundary_integral(3.0, p, N + 1.0)[0]
    upper = _logfam_boundary_integral(3.0, p, float(N))[1]
    brute = brute_tail(seq, -1.0, p, N, extent=extent)
    far_upper = _logfam_boundary_integral(3.0, p, float(N + extent))[1]
    from gibbs_series import sigma

    assert brute <= upper
    assert lower <= brute + far_upper
    # sandwich width is at most a single term's size
    s_n = sigma(seq, N)
    assert upper - lower <= s_n ** p * math.exp(-s_n)


@functools.lru_cache(maxsize=None)
def _power_heads(theta, y):
    """n^theta and exp(y n^theta) for n <= 1000, at 40 digits."""
    mp = pytest.importorskip("mpmath")
    with mp.workdps(40):
        s = [mp.mpf(n) ** mp.mpf(theta) for n in range(1, 1001)]
        return s, [mp.exp(mp.mpf(y) * x) for x in s]


def power_tail_reference(theta, y, p, N):
    """sum_{n>N} n^(theta p) exp(y n^theta), N <= 1000, in 40-digit arithmetic.

    Terms up to n = 1000 are summed directly, and so are later ones while
    they fall by more than e^-0.05 a step, until they are 1e-33 of the sum.
    The rest is ``mp.sumem`` (Euler-Maclaurin, to 1e-22 of its first term)
    with the integral in closed form, b^-a Gamma(a, b c^theta)/theta.
    Starting it at 1501 instead moves no reference of the grid by more than
    4e-29 of it.
    """
    mp = pytest.importorskip("mpmath")
    s, e = _power_heads(theta, y)
    with mp.workdps(40):
        T, Y = mp.mpf(theta), mp.mpf(y)

        def g(x):
            t = x ** T
            return t ** p * mp.exp(Y * t)

        head = mp.fsum(s[n - 1] ** p * e[n - 1] for n in range(N + 1, 1001))
        n = 1001
        while True:
            x = mp.mpf(n)
            if -Y * T * x ** (T - 1) - p / x < 0.05:
                break
            term = g(x)
            head += term
            if term < 1e-33 * head:
                return head
            n += 1
        a, b = p + 1 / T, -Y
        integral = b ** -a * mp.gammainc(a, b * x ** T) / T
        return head + mp.sumem(
            g, [n, mp.inf], integral=integral, tol=mp.mpf(10) ** -22 * g(x), adiffs=mp.diffs(g, x)
        )


def test_sublinear_power_tails_contain_reference_on_grid():
    # theta < 1 tails share the log family's integral sandwich: every
    # certified bracket contains the 40-digit tail, its lower end is
    # positive wherever the tail is a normal float, and the median bracket
    # is well under 1 % of the tail wide
    mp = pytest.importorskip("mpmath")
    widths, certified = [], 0
    for theta in (0.3, 0.5, 0.7, 0.9, 0.99):
        for y in (-0.05, -0.3, -1.0, -3.0):
            for p in range(4):
                for N in (5, 40, 256, 1000):
                    bounds = sequences._power_tail(power(theta), y, p, N)
                    if bounds is None:  # the terms may still grow after N
                        assert -y * N ** theta <= p
                        continue
                    certified += 1
                    lower, upper = bounds
                    ref = power_tail_reference(theta, y, p, N)
                    with mp.workdps(40):
                        assert mp.mpf(lower) <= ref <= mp.mpf(upper), (theta, y, p, N)
                        if ref >= sys.float_info.min:
                            assert lower > 0.0, (theta, y, p, N)
                            widths.append(float((mp.mpf(upper) - mp.mpf(lower)) / ref))
    assert certified >= 250 and len(widths) >= 230
    assert statistics.median(widths) <= 0.01


def defers_without_width(tail, seq, y, p, N):
    """Whether ``tail`` defers (returns None) when asked for a width of 0;
    asserts that asked for its own full width it returns that certificate."""
    full = tail(seq, y, p, N)
    if full is None:
        return False
    lower, upper = full
    assert tail(seq, y, p, N, upper - lower) == full, (seq, y, p, N)
    return tail(seq, y, p, N, 0.0) is None


def test_sandwich_floor_never_exceeds_its_width():
    # a walk defers every sandwich whose cheap floor on its width is above
    # the width it needs, so that floor must be at most the width the full
    # certificate computes: asked for that width, it never defers, in both
    # branches (N = 3 and 4 are before the log family's convexity) and
    # through every integral; asked for no width, nearly always
    deferred = cases = 0
    for theta in (-1.0, 0.5, 1.5, 2.9, 4.5):
        for y in (-1.0, -1.0005, -1.003, -1.02, -1.1, -1.5, -2.0, -3.0, -5.0):
            for p in range(4):
                for N in (3, 4, 5, 6, 40, 257, 4_097, 65_537, 1_000_000):
                    cases += 1
                    deferred += defers_without_width(sequences._logfam_sandwich, logfam(theta), y, p, N)
    for theta in (0.3, 0.5, 0.7, 0.9, 0.99):
        for y in (-0.05, -0.3, -1.0, -3.0):
            for p in range(4):
                for N in (1, 5, 40, 256, 1_000, 1_000_000):
                    cases += 1
                    deferred += defers_without_width(sequences._power_tail, power(theta), y, p, N)
    assert deferred >= 0.8 * cases, (deferred, cases)
