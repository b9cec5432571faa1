"""Tail certificates are true upper bounds: direct long-sum comparisons,
and exact high-precision references where a certificate is exact."""

import math
import sys
from collections import Counter

import numpy as np
import pytest

from gibbs_series import (
    Family,
    box,
    custom,
    eval_series,
    increment_gap,
    linear,
    logfam,
    power,
    quadratic,
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
    ],
)
def test_power_exponents_past_float64_against_mpmath(theta, y, p):
    """A walk stops at the last index whose terms are floats (n^(theta
    max(p, 1)) < 2^1024); past it the envelope, from exponents and
    increments past float64, bounds the rest.  Every term after the first
    is below exp(-10^5), so the first 100 are a 50-digit reference."""
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
    from gibbs_series.series import _logfam_boundary_integral

    seq, p, N, extent = logfam(3.0), 1, 500, 4_000_000
    lower = _logfam_boundary_integral(3.0, p, N + 1.0)
    upper = _logfam_boundary_integral(3.0, p, float(N))
    brute = brute_tail(seq, -1.0, p, N, extent=extent)
    far_upper = _logfam_boundary_integral(3.0, p, float(N + extent))
    from gibbs_series import sigma

    assert brute <= upper
    assert lower <= brute + far_upper
    # sandwich width is at most a single term's size
    s_n = sigma(seq, N)
    assert upper - lower <= s_n ** p * math.exp(-s_n)
