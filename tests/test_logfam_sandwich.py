"""Integral sandwich for the log family, checked against mpmath.

The certified upper incomplete gamma function must enclose
``mpmath.gammainc``; every log-family bracket the sandwich produces, at the
edge y = -1 and in the interior at every order, must contain an independent
30-digit value and meet its tolerance where it is certified; conjugates
near the edge must solve f'(y) = u against that value; and interior
brackets far from the edge must contain the 50-digit sum despite the
rounding of each term's exponent.
"""

import functools
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from gibbs_series import BudgetExceededError, conjugate, eval_series, logfam, series

mp = pytest.importorskip("mpmath")


def interior_integral(theta, y, p, W):
    """integral_{e^W}^inf sigma(x)^p exp(y sigma(x)) dx, y < -1, in the
    caller's mpmath precision.

    With w = ln x the integrand is (w + theta ln w)^p w^(theta y) e^(-b w),
    b = -(y + 1): for p = 0 that is b^-a Gamma(a, b W), a = theta y + 1;
    for p >= 1 it is integrated by quadrature, split where e^(-b w) has
    fallen by e^0.1, e, e^10 and e^100.  The integrand is divided by its
    value at W first: mp.quad stops on an absolute error estimate, which on
    an integral of 1e-34 (theta = 2.825, y = -6, x >= 4099) left 1.3e-7 of
    it at 30 digits.
    """
    th, yy, W = mp.mpf(theta), mp.mpf(y), mp.mpf(W)
    a, b = th * yy + 1, -(yy + 1)
    if p == 0:
        return b ** (-a) * mp.gammainc(a, b * W)
    scaled = mp.quad(
        lambda w: (w + th * mp.log(w)) ** p * (w / W) ** (th * yy) * mp.exp(-b * (w - W)),
        [W] + [W + k / b for k in (0.1, 1, 10, 100)] + [mp.inf],
    )
    return W ** (th * yy) * mp.exp(-b * W) * scaled


def gamma_derivative(theta, y, p, W):
    """The order-p integral of ``interior_integral``, p >= 1, as
    d^p/dy^p of b^-a Gamma(a, b W) (a = theta y + 1, b = -(y + 1)) by
    mpmath's central differences, in the caller's precision.

    The step is 2^-70, not mpmath's default of the working precision's
    ulp: differences that fine put a = theta y + 1 within 2^-140 of an
    integer at y = -20, where mpmath's gammainc for a < -30 loses all its
    digits (theta = 3, 4.5) and slows down.
    """
    th, W = mp.mpf(theta), mp.mpf(W)

    def F(t):
        a, b = th * t + 1, -(t + 1)
        return b ** (-a) * mp.gammainc(a, b * W)

    return mp.diff(F, mp.mpf(y), p, h=mp.ldexp(1, -70))


@functools.lru_cache(maxsize=None)
def reference(theta, y, p, K=1000, J=4):
    """sum_{n>=3} sigma_n^p exp(sigma_n y) to ~30 digits.

    The first K - 3 terms are summed exactly; the rest by Euler-Maclaurin
    from K with J correction terms, whose remainder is far below 1e-20
    here.  The integral from K comes from ``interior_integral`` in the
    interior and from the log-power antiderivative at the edge.
    """
    with mp.workdps(30):
        th, yy = mp.mpf(theta), mp.mpf(y)

        def g(x):
            s = mp.log(x) + th * mp.log(mp.log(x))
            return s ** p * mp.exp(yy * s)

        head = mp.fsum(g(n) for n in range(3, K))
        W = mp.log(K)
        if y == -1.0 and p == 0:
            integral = W ** (1 - th) / (th - 1)
        elif y == -1.0:  # p = 1: integral of (w + theta ln w) w^-theta dw
            integral = W ** (2 - th) / (th - 2) + th * (
                mp.log(W) * W ** (1 - th) / (th - 1) + W ** (1 - th) / (th - 1) ** 2
            )
        else:
            integral = interior_integral(theta, y, p, W)
        corrections = mp.fsum(
            mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.diff(g, K, 2 * j - 1)
            for j in range(1, J + 1)
        )
        return head + integral + g(K) / 2 - corrections


def log_upper_gamma_reference(a, z):
    """ln Gamma(a, z) by quadrature, for arguments where mpmath's gammainc
    picks a cancelling method: Gamma(a, z) = z^(a-1) e^-z times the
    integral over s >= 0 of (1 + s/z)^(a-1) e^-s, split at its peak."""
    with mp.workdps(40):
        a, z = mp.mpf(a), mp.mpf(z)
        peak = max(mp.mpf(0), a - 1 - z)
        points = [0] + ([peak] if peak > 0 else []) + [peak + 10, peak + 100, mp.inf]
        integral = mp.quad(lambda s: mp.exp((a - 1) * mp.log1p(s / z) - s), points)
        return (a - 1) * mp.log(z) - z + mp.log(integral)


def contains(ev, ref):
    with mp.workdps(40):  # the upper end exactly, not rounded to 53 bits
        return mp.mpf(ev.value) <= ref <= mp.mpf(ev.value) + mp.mpf(ev.tail_bound)


def test_slope_reference_matches_long_sum():
    # at y = -6 the terms fall like n^-6 (ln n)^(-6 theta), so 5,000 of them
    # leave a tail below 1e-23; K puts ~4e-12 of the sum in the integral
    for theta, K in ((1.0, 200), (2.825, 20)):
        with mp.workdps(30):
            th = mp.mpf(theta)

            def sigma(n):
                return mp.log(n) + th * mp.log(mp.log(n))

            long_sum = mp.fsum(sigma(n) * mp.exp(-6 * sigma(n)) for n in range(3, 5000))
            assert abs(reference(theta, -6.0, 1, K=K) - long_sum) <= 1e-20 * long_sum, theta


def test_slope_reference_matches_incomplete_gamma():
    # the p = 1 integral in closed form: with I(s) = b^-s Gamma(s, b W) it is
    # I(a + 1) + theta I'(a), a = theta y + 1, here at 60 digits (mpmath's
    # gammainc needs far more for a < -30, as at theta = 4.5, y = -20)
    theta = 2.825
    for y in (-6.0, -20.0):
        for c in (258.5, 4099.0, 2.0 ** 20):
            with mp.workdps(60):
                th, yy, W = mp.mpf(theta), mp.mpf(y), mp.log(c)
                a, b = th * yy + 1, -(yy + 1)

                def I(s):
                    return b ** (-s) * mp.gammainc(s, b * W)

                exact = I(a + 1) + th * mp.diff(I, a)
            with mp.workdps(40):
                quad = interior_integral(theta, y, 1, mp.log(c))
                assert abs(quad - exact) <= mp.mpf(10) ** -38 * exact, (y, c)


def test_gamma_derivative_matches_quadrature():
    # the grid's derivative reference against quadrature, where the two
    # differed most over the whole grid (5.5e-29 of the value)
    for theta, y, p, c in ((4.5, -20.0, 2, 2.0 ** 20), (-1.0, -1.0005, 3, 2.0 ** 20), (0.5, -1.3, 1, 5.5)):
        with mp.workdps(40):
            quad = interior_integral(theta, y, p, mp.log(c))
            assert abs(gamma_derivative(theta, y, p, mp.log(c)) - quad) <= 1e-27 * quad


class TestUpperGamma:
    @pytest.mark.parametrize("a", [float(a) for a in np.linspace(-4.0, 3.0, 15)] + [-2.25, -0.88, 0.999999])
    def test_enclosure(self, a):
        for z in [float(z) for z in np.geomspace(0.05, 50.0, 12)] + [0.73, 3.8]:
            lo, hi, err = series._log_upper_gamma(a, z)
            with mp.workdps(30):
                ref = mp.log(mp.gammainc(mp.mpf(a), mp.mpf(z)))
            assert lo - err <= ref <= hi + err, (a, z)
            assert hi - lo + 2.0 * err <= 1e-11, (a, z)

    def test_large_arguments_stay_finite(self):
        # a far below 0 and z far above 700, as deep in the interior
        for a, z in ((-1499.0, 4000.0), (-0.5, 5000.0), (400.5, 3.0), (-179.0, 216.7)):
            lo, hi, err = series._log_upper_gamma(a, z)
            ref = log_upper_gamma_reference(a, z)
            assert lo - err <= ref <= hi + err, (a, z)

    @pytest.mark.parametrize("theta", [-1.0, 0.0, 0.5, 1.72, 4.5])
    def test_interior_integrals_enclose_reference(self, theta):
        # both rounded ends of integral_c^inf x^y (ln x)^(theta y) dx
        for y in (-1.05, -1.3, -2.5, -40.0):
            for c in (3.0, 258.5, 4099.0):
                lo, hi = series._logfam_gamma_integral(theta, y, c)
                with mp.workdps(40):
                    th, yy = mp.mpf(theta), mp.mpf(y)
                    a, b = th * yy + 1, -(yy + 1)
                    ref = mp.exp(-a * mp.log(b) + log_upper_gamma_reference(a, b * mp.log(c)))
                assert lo <= ref <= hi, (y, c)

    def test_needs_neither_scipy_nor_mpmath(self):
        code = (
            "import sys; sys.modules['mpmath'] = sys.modules['scipy'] = None; "
            "from gibbs_series import eval_series, logfam; "
            "print(eval_series(logfam(1.7229), -1.0886).tail_bound); "
            "print(eval_series(logfam(2.9), -1.26, 1).tail_bound)"
        )
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert all(float(line) <= 1e-9 for line in out.stdout.split())


INTERIOR = [
    (theta, y)
    for theta in (1.2, 1.5, 1.72, 2.0, 2.15, 2.4, 3.0, 4.5)
    for y in (-1.05, -1.1, -1.3, -1.6, -2.5)
]


@pytest.mark.parametrize("theta,y", INTERIOR, ids=str)
def test_interior_brackets_contain_reference(theta, y):
    tol = 1e-9
    ev = eval_series(logfam(theta), y, 0, tol=tol)
    assert ev.tail_bound <= tol
    assert ev.truncation_index <= 4096  # inside the cached exponent prefix
    assert contains(ev, reference(theta, y, 0))


@pytest.mark.parametrize(
    "theta,y",
    [(-1.0, -2.5), (-0.5, -2.5), (0.0, -1.3), (0.5, -1.6)]
    + [(theta, y) for theta in (-1.0, -0.5, -0.2) for y in (-1.05, -1.3, -1.6)],
    ids=str,
)
def test_interior_brackets_without_convexity(theta, y):
    # sigma is concave from x = e^phi ~ 5.04 on for every theta >= -1, so
    # theta < 0 (a > 1 for the incomplete gamma) is convex there too and
    # certifies within 65,282 terms; theta = 0 is the zeta function, a = 1
    tol = 1e-9
    ev = eval_series(logfam(theta), y, 0, tol=tol)
    assert ev.tail_bound <= tol
    assert ev.truncation_index <= 65_282
    assert contains(ev, reference(theta, y, 0))


SLOPE_THETAS = (-1.0, -0.5, 0.0, 0.5, 1.5, 2.0, 2.9, 3.0, 4.5)
SLOPE_YS = (-1.05, -1.1, -1.3, -1.6, -2.0, -2.5)


@pytest.mark.parametrize("theta", SLOPE_THETAS, ids=str)
def test_interior_slope_brackets_contain_reference(theta):
    # every p = 1 bracket, certified or the best one a budget failure
    # carries, contains the 30-digit value
    seq = logfam(theta)
    for y in SLOPE_YS:
        ref = reference(theta, y, 1)
        for tol in (1e-6, 1e-9, 2.5e-10):
            try:
                ev = eval_series(seq, y, 1, tol=tol)
            except BudgetExceededError as exc:
                ev = exc.best
            assert contains(ev, ref), (y, tol)


@pytest.mark.parametrize(
    "theta,y",
    [(theta, y) for theta in (0.5, 1.5, 2.0, 2.9, 3.0, 4.5) for y in (-1.6, -2.0, -2.5)]
    + [(theta, -1.3) for theta in (2.0, 2.9, 3.0, 4.5)],
    ids=str,
)
def test_interior_slopes_certify(theta, y):
    assert eval_series(logfam(theta), y, 1, tol=1e-9).tail_bound <= 1e-9


# (theta, y, p, most terms): interior orders p >= 2 certify at the default
# tolerance; a term budget of 10^7 was not enough for the first, third to
# sixth rows before their tails were sandwiched
HIGHER_ORDERS = [
    (3.0, -1.5, 2, 16_130),
    (3.0, -2.0, 2, 258),
    (1.5, -2.0, 2, 1_794),
    (0.5, -2.0, 2, 130_818),
    (-1.0, -2.5, 2, 524_034),
    (4.5, -1.3, 2, 7_938),
    (3.0, -2.0, 3, 3_842),
]


@pytest.mark.parametrize("theta,y,p,most", HIGHER_ORDERS, ids=str)
def test_interior_higher_orders_certify(theta, y, p, most):
    ev = eval_series(logfam(theta), y, p, tol=1e-9)
    assert ev.tail_bound <= 1e-9
    assert ev.truncation_index <= most
    assert contains(ev, reference(theta, y, p))


def test_interior_higher_order_budget_bracket_contains_reference():
    # theta = 3, y = -1.3, p = 2 still needs more than 10^7 terms for 1e-9;
    # the best bracket the failure carries still encloses the sum
    with pytest.raises(BudgetExceededError) as info:
        eval_series(logfam(3.0), -1.3, 2, tol=1e-9)
    assert info.value.best.tail_bound <= 2e-9
    assert contains(info.value.best, reference(3.0, -1.3, 2))


@pytest.mark.parametrize("theta,y", [(-1.0, -2.5), (0.5, -1.05), (2.9, -1.26), (4.5, -1.6)], ids=str)
def test_slope_integral_brackets_quadrature(theta, y):
    # second-order combinations of the certified p = 0 integral bracket its
    # y-derivative
    for c in (258.5, 4099.0, 2.0 ** 20):
        lo, hi = series._logfam_derivative_integral(theta, y, 1, c)
        with mp.workdps(40):
            ref = interior_integral(theta, y, 1, mp.log(c))
        assert 0.0 < lo <= ref <= hi, c
        # a few eps^(2/3) wide, eps ~ 1e-13 the p = 0 integral's relative width
        assert hi - lo <= 1e-6 * hi, c


@pytest.mark.parametrize("theta", [-1.0, 0.5, 2.825, 2.9, 3.0, 4.5], ids=str)
def test_slope_integral_contains_reference_on_grid(theta):
    # every order p <= 3, from next to the edge to deep inside, and at
    # y = nextafter(-2, 0), where the left nodes y - jh cross a binade and
    # each end is taken at an even-mantissa neighbour of y instead: still an
    # enclosure, and about as wide as the one at y = -2 itself.  Next to
    # the edge the step is capped at |y + 1|/(4p), and from p = 2 on the
    # lower end may fall to 0 there
    binade = math.nextafter(-2.0, 0.0)
    for p in (1, 2, 3):
        for y in (-1.0005, -1.05, -1.3, -6.0, -20.0, binade):
            for c in (5.5, 258.5, 1794.5, 4099.0, 2.0 ** 20):
                lo, hi = series._logfam_derivative_integral(theta, y, p, c)
                with mp.workdps(40):
                    ref = gamma_derivative(theta, y, p, mp.log(c))
                    assert 0.0 <= lo <= ref <= hi < math.inf, (p, y, c)
                assert p > 1 or lo > 0.0, (y, c)
                if y == binade:
                    lo2, hi2 = series._logfam_derivative_integral(theta, -2.0, p, c)
                    assert hi - lo <= 2.0 * (hi2 - lo2), (p, c)


def test_slope_integral_next_to_the_edge():
    # within an ulp of y = -1 no step fits: the ends give up, not fail
    y = math.nextafter(-1.0, -2.0)
    for p in (1, 2):
        assert series._logfam_derivative_integral(2.0, y, p, 300.5) == (0.0, math.inf)


def test_one_ulp_inside_the_edge_is_an_interior_point():
    # y = -1 - 2^-52 is not the edge: f(y) lies 5.4e-8 below f(-1) for
    # logfam:1.5, whose slope is infinite there, so the edge's bracket
    # misses it.  Around f(y): 2,000 terms summed exactly, and the
    # Hermite-Hadamard sandwich of the tail's decreasing convex terms g,
    # int_{2001} g + g(2001)/2 and int_{2000.5} g, 1.5e-9 apart
    y, K = -1.0000000000000002, 2000
    try:
        ev = eval_series(logfam(1.5), y)
    except BudgetExceededError as exc:
        ev = exc.best
    with mp.workdps(30):
        th, yy = mp.mpf(1.5), mp.mpf(y)

        def g(n):
            return mp.exp(yy * (mp.log(n) + th * mp.log(mp.log(n))))

        head = mp.fsum(g(n) for n in range(3, K + 1))
        upper = head + interior_integral(1.5, y, 0, mp.log(K + mp.mpf(0.5)))
        lower = head + interior_integral(1.5, y, 0, mp.log(K + 1)) + g(K + 1) / 2
        assert upper - lower <= 2e-9
        assert mp.mpf(ev.value) <= lower
        assert mp.mpf(ev.value) + mp.mpf(ev.tail_bound) >= upper


# the three interior conjugates of the edge_sums benchmark, and three more
@pytest.mark.parametrize(
    "theta,u",
    [(2.825, 0.5875), (2.9, 0.6625), (2.975, 0.6125), (0.5, 0.5), (3.0, 0.5), (1.5, 1.0)],
    ids=str,
)
def test_interior_conjugates_solve_the_slope_equation(theta, u):
    tol = 1e-9
    cv = conjugate(logfam(theta), u, tol=tol)
    y = cv.attaining_y
    with mp.workdps(30):
        assert abs(reference(theta, y, 1) - u) <= cv.residual <= tol * max(1.0, u)
        assert abs(cv.value - (y * u - reference(theta, y, 0))) <= tol


EDGE = [(theta, 0) for theta in (1.05, 1.2, 1.5, 1.7229, 2.0)] + [
    (theta, p) for theta in (2.01, 2.5, 3.0, 4.0, 5.0) for p in (0, 1)
]


@pytest.mark.parametrize("theta,p", EDGE, ids=str)
def test_edge_brackets_contain_reference(theta, p):
    tol = 1e-9
    ev = eval_series(logfam(theta), -1.0, p, tol=tol)
    assert ev.tail_bound <= tol
    assert contains(ev, reference(theta, -1.0, p))


def test_sandwich_is_a_fraction_of_a_term_wide():
    # Hermite-Hadamard leaves about |g'(N)|/8, where the plain integral
    # comparison left g(N)
    seq, N = logfam(1.5), 4098
    for y in (-1.0, -1.3):
        lower, upper = series._logfam_sandwich(seq, y, 0, N)
        width = upper - lower
        term = N ** y * math.log(N) ** (1.5 * y)
        assert 0.0 < lower and 0.0 < width < term / N, y


@pytest.mark.parametrize(
    "theta,y", [(3.0, -20.0), (3.0, -60.0), (3.0, -300.0), (2.5, -450.25)], ids=str
)
def test_exponent_rounding_is_inside_the_bracket(theta, y):
    # each term exp(fl(sigma_n) y) carries |sigma_n y| u of error from its
    # rounded exponent; the bracket has to absorb it
    ev = eval_series(logfam(theta), y, 0)
    with mp.workdps(50):
        th, yy = mp.mpf(theta), mp.mpf(y)
        ref = mp.fsum(
            mp.exp(yy * (mp.log(n) + th * mp.log(mp.log(n)))) for n in range(3, 400)
        )
    assert contains(ev, ref)
