"""Conjugates: closed forms, regimes, plateau affinity, duality probes."""

import importlib
import math
import warnings
from functools import partial

import numpy as np
import pytest

from gibbs_series import (
    BudgetExceededError,
    DomainError,
    FitStatus,
    NumericError,
    Regime,
    SeriesEval,
    box_conjugate,
    conjugate,
    custom,
    domain_info,
    eval_series,
    exp_conjugate,
    fit_gibbs,
    linear,
    log_f,
    log_f_conjugate,
    logfam,
    loglog,
    parse_sequence,
    phi,
    power,
    quadratic,
    sigma,
    solve_fprime,
    solve_phi,
)
from gibbs_series.conjugate import _START_AGREE, _find_root, _float_start, _start_block
from gibbs_series.scenarios import BoxModel
from gibbs_series.sequences import box_factor
from gibbs_series.series import _best_bracket


class TestExpConjugate:
    def test_zero(self):
        assert exp_conjugate(0.0) == 0.0

    def test_one(self):
        assert exp_conjugate(1.0) == -1.0

    def test_negative(self):
        assert exp_conjugate(-0.5) == math.inf

    def test_generic(self):
        u = 3.7
        assert exp_conjugate(u) == pytest.approx(u * (math.log(u) - 1.0), rel=1e-15)


class TestRegimes:
    def test_interior_root_next_to_theta_1(self):
        # logfam:1.0000001's edge sum f(-1) to 1e-8 needs more than the term
        # budget, but its root at y ~ -1.52 reads no edge value
        seq = logfam(1.0000001)
        cv = conjugate(seq, 1.0)
        assert cv.regime is Regime.INTERIOR and cv.residual <= 1e-9
        y, residual = solve_fprime(seq, 1.0, tol=1e-9)
        assert y == cv.attaining_y and residual <= 1e-9

    def test_interior_closed_form(self):
        cv = conjugate(linear(), 2.0, tol=1e-12)
        assert cv.regime is Regime.INTERIOR
        assert cv.value == pytest.approx(-1.0 - 2.0 * math.log(2.0), abs=1e-12)
        assert cv.attaining_y == pytest.approx(-math.log(2.0), abs=1e-12)

    def test_zero(self):
        cv = conjugate(linear(), 0.0)
        assert (cv.value, cv.regime) == (0.0, Regime.ZERO)
        assert cv.attaining_y is None

    def test_negative(self):
        cv = conjugate(quadratic(), -1.0)
        assert (cv.value, cv.regime) == (math.inf, Regime.NEGATIVE_U)

    def test_plateau(self):
        seq = logfam(3.0)
        di = domain_info(seq)
        u = di.gamma + 1.0
        cv = conjugate(seq, u)
        assert cv.regime is Regime.PLATEAU
        assert cv.attaining_y == -1.0
        assert cv.value == pytest.approx(-u - di.f_at_boundary, abs=1e-12)

    def test_boundary_gamma(self):
        seq = logfam(3.0)
        di = domain_info(seq)
        cv = conjugate(seq, di.gamma)
        assert cv.regime is Regime.BOUNDARY_GAMMA
        assert cv.attaining_y == -1.0

    def test_empty_domain(self):
        with pytest.raises(DomainError):
            conjugate(loglog(), 1.0)

    def test_interior_attainment_identity(self):
        # f'(attaining_y) = u within tolerance, for several families
        for seq, u in [(linear(), 0.7), (quadratic(), 3.0), (power(1.5), 1.2)]:
            cv = conjugate(seq, u, tol=1e-11)
            fp = eval_series(seq, cv.attaining_y, 1, tol=1e-13).midpoint
            assert fp == pytest.approx(u, abs=1e-10)

    def test_extreme_target_fails_honestly(self, walked):
        # the argmax for u = 1e30 sits closer to the open edge than any
        # certifiable evaluation point (~1e12 terms would be needed), so
        # the solver reports the budget or the residual instead of a
        # fake answer
        from gibbs_series import BudgetExceededError, NumericError

        with pytest.raises((BudgetExceededError, NumericError)):
            conjugate(linear(), 1e30, tol=1e-12, max_terms=100_000)


class TestPlateauShape:
    def test_affine_slope(self):
        seq = logfam(3.0)
        g = domain_info(seq).gamma
        us = [g + 0.5, g + 1.0, g + 2.0]
        vals = [conjugate(seq, u).value for u in us]
        for (u1, v1), (u2, v2) in zip(zip(us, vals), zip(us[1:], vals[1:])):
            assert (v2 - v1) == pytest.approx(-(u2 - u1), abs=1e-8)

    def test_interior_approaches_plateau_line(self):
        # near-edge evaluations of this family converge logarithmically
        # slowly, so the interior probe keeps a safe distance and loose
        # tolerances
        seq = logfam(3.0)
        di = domain_info(seq)
        line = lambda u: -u - di.f_at_boundary
        gaps = []
        for delta in (1.4, 1.0):
            u = di.gamma - delta
            cv = conjugate(seq, u, tol=1e-2)
            gaps.append(cv.value - line(u))
        assert all(-1e-2 <= gap <= 0.5 for gap in gaps)
        assert gaps[0] > gaps[1] - 1e-2  # shrinking toward the plateau


class TestConvexity:
    def test_conjugate_convex_on_grid(self):
        us = np.linspace(0.2, 6.0, 16)
        vals = [conjugate(linear(), float(u), tol=1e-11).value for u in us]
        for i in range(1, len(us) - 1):
            chord = 0.5 * (vals[i - 1] + vals[i + 1])
            assert vals[i] <= chord + 1e-10

    def test_fenchel_young_grid(self):
        for seq in (linear(), quadratic()):
            for y in (-2.0, -0.8):
                f = eval_series(seq, y, 0, tol=1e-13).midpoint
                for u in (0.0, 0.5, 2.0, 4.0):
                    fstar = conjugate(seq, u, tol=1e-12).value
                    assert f + fstar - y * u >= -1e-10


class TestLogFConjugate:
    def test_at_smallest_exponent(self):
        assert log_f_conjugate(quadratic(), 1.0) == 0.0

    def test_below_smallest_exponent(self):
        assert log_f_conjugate(quadratic(), 0.5) == math.inf

    def test_interior_matches_grid_sup(self):
        v = 2.0
        val = log_f_conjugate(quadratic(), v, tol=1e-11)
        ys = np.linspace(-6.0, -1e-3, 4001)
        sup = max(v * y - log_f(quadratic(), float(y), tol=1e-12) for y in ys)
        assert val + 1e-9 >= sup
        assert val - sup <= 1e-4  # grid misses the argmax by at most this

    def test_scaling_families(self):
        # defined for any family whose ratio spans (sigma_min, inf)
        val = log_f_conjugate(linear(), 2.0, tol=1e-11)
        ys = np.linspace(-5.0, -1e-3, 4001)
        sup = max(2.0 * y - log_f(linear(), float(y), tol=1e-12) for y in ys)
        assert val == pytest.approx(sup, abs=1e-4)

    def test_edge_band_is_the_fits(self):
        # within the certified error below the edge ratio gamma/f(-1) the
        # sup is the edge's, for the conjugate as for the fit; a small
        # budget makes a walk toward the edge fail fast instead
        seq = logfam(3.0)
        di = domain_info(seq)
        f_edge = di.f_at_boundary
        ratio_sup = di.gamma / f_edge
        ratio_err = di.gamma_err / f_edge + di.gamma * di.f_boundary_err / f_edge ** 2
        rho = ratio_sup - 0.5 * ratio_err
        value = log_f_conjugate(seq, rho, max_terms=100_000)
        assert value == -rho - math.log(f_edge)
        fit = fit_gibbs(seq, 1.0, rho, max_terms=100_000)
        assert fit.status is FitStatus.INTERIOR_UNIQUE and fit.dual_y == -1.0
        assert fit.entropy_value == pytest.approx(-1.0 + value, abs=1e-9)


class TestBoxConjugate:
    def test_case_table(self):
        assert box_conjugate(0.0, 1.0) == 0.0
        assert box_conjugate(1.0, 2.0) == math.inf
        assert box_conjugate(-0.5, 1.0) == math.inf
        assert box_conjugate(1.0, -1.0) == math.inf
        assert box_conjugate(0.0, 0.0) == 0.0

    def test_degenerate_ray(self):
        assert box_conjugate(1.0, 3.0) == pytest.approx(-1.0, abs=1e-12)
        assert box_conjugate(2.0, 6.0) == pytest.approx(
            2.0 * (math.log(2.0) - 1.0), abs=1e-12
        )

    def test_interior_negative_and_finite(self):
        val = box_conjugate(1.0, 4.0, tol=1e-12)
        assert math.isfinite(val) and val < -1.0

    def test_fenchel_young_for_box(self):
        model = BoxModel()
        for x, y in [(-0.5, -1.0), (0.3, -0.6), (1.0, -2.5)]:
            h = model.h(x, y)
            for u, v in [(1.0, 4.0), (0.5, 2.0), (2.0, 7.0)]:
                hstar = box_conjugate(u, v, tol=1e-11)
                assert h + hstar - (x * u + y * v) >= -1e-9

    def test_conjugate_convex_on_ray(self):
        vals = [box_conjugate(1.0, v, tol=1e-11) for v in (3.5, 4.0, 4.5)]
        assert vals[1] <= 0.5 * (vals[0] + vals[2]) + 1e-10

    def test_value_past_float64_on_the_cone_raises(self):
        # u (ln u - 1) overflows from u ~ 2.6e305: not the +inf of infeasibility
        assert math.isfinite(box_conjugate(1e305, 3e305))
        for u, v in ((1e306, 3e306), (1e306, 4e306), (1e307, 3.1e307)):
            with pytest.raises(NumericError, match="passed float64"):
                box_conjugate(u, v)
        assert box_conjugate(1e306, 2e306) == math.inf  # below the cone


# 50-digit references for (f, f', f''): closed forms and direct sums, and
# for power and logfam an Euler-Maclaurin split at _EM_CUT whose tail
# integral is an incomplete gamma function (power) or a quadrature (logfam)
_EM_CUT, _EM_ORDER = 1000, 4


def _series_ref(mp, spec, y):
    family, _, param = spec.partition(":")
    y = mp.mpf(y)
    if family == "linear":
        q = mp.exp(y)
        return q / (1 - q), q / (1 - q) ** 2, q * (1 + q) / (1 - q) ** 3
    if family in ("quadratic", "box"):
        kappa = mp.mpf(param or 1)
        z = kappa * y
        ks = range(1, int(mp.sqrt(200 / -z)) + 2)
        g0, g1, g2 = (mp.fsum((k * k) ** j * mp.exp(k * k * z) for k in ks) for j in range(3))
        if family == "quadratic":
            return g0, g1, g2
        # box sums factor as g(kappa y)^3 over k, l, m >= 1
        return g0 ** 3, 3 * kappa * g0 ** 2 * g1, kappa ** 2 * (6 * g0 * g1 ** 2 + 3 * g0 ** 2 * g2)
    theta, cut = mp.mpf(param), _EM_CUT
    if family == "power":
        first, s = 1, lambda x: x ** theta

        def tail(p):
            a = p + 1 / theta
            return (-y) ** -a * mp.gammainc(a, -y * mp.mpf(cut) ** theta) / theta
    else:
        first, s = 3, lambda x: mp.log(x) + theta * mp.log(mp.log(x))
        b, w0 = -(1 + y), mp.log(cut)

        def tail(p):
            return mp.quad(
                lambda w: (w + theta * mp.log(w)) ** p * w ** (theta * y) * mp.exp(-b * w),
                [w0, w0 + 1 / b, w0 + 10 / b, w0 + 100 / b, mp.inf],
            )
    head = [mp.mpf(0)] * 3
    for n in range(first, cut):
        sn = s(mp.mpf(n))
        term = mp.exp(sn * y)
        for p in range(3):
            head[p] += term
            term *= sn

    def em(p):
        g = lambda x: s(x) ** p * mp.exp(s(x) * y)
        corrections = mp.fsum(
            mp.bernoulli(2 * j) / mp.factorial(2 * j) * mp.diff(g, cut, 2 * j - 1)
            for j in range(1, _EM_ORDER + 1)
        )
        return head[p] + tail(p) + g(mp.mpf(cut)) / 2 - corrections

    return tuple(em(p) for p in range(3))


def _fprime_ref(mp, spec, y):
    """(f', f'') at y."""
    return _series_ref(mp, spec, y)[1:]


def _phi_ref(mp, spec, y):
    """(phi, phi') at y for phi = f'/f."""
    f0, f1, f2 = _series_ref(mp, spec, y)
    return f1 / f0, f2 / f0 - (f1 / f0) ** 2


# targets u in [0.2, 5] (for the ratio, s_min + u); logfam:3 keeps to the
# part of its interior the default budget certifies
_TARGETS = [
    (spec, u, 1e-12)
    for spec in ("linear", "power:0.7", "quadratic", "box:1.2")
    for u in (0.2, 0.9, 2.4, 5.0)
]
# the solves behind the CLI commands whose digits the float start moved, at
# the CLI's tolerance: conjugate linear --u 2 (and fit linear --u 2),
# --u 0.5; quadratic --u 1.3; power:1.5 --u 2; box:1 --u 2
_CLI_FPRIME = [
    (spec, u, 1e-9)
    for spec, u in (("linear", 2.0), ("linear", 0.5), ("quadratic", 1.3), ("power:1.5", 2.0), ("box:1", 2.0))
]
# boxconj --u 1 --v 4 and --u 2 --v 9 (quadratic at v/(3u)); fit box:1
# --u 1 --v 4, quadratic --u 1.3 --v 3.1, box:0.31 --u 1 --v 20.5, linear
# --u 2 --v 5 and --u 1 --v 2, power:1.5 --u 1 --v 3 (at v/u)
_CLI_PHI = [
    (spec, v - s_min, 1e-9)
    for spec, s_min, v in (
        ("quadratic", 1.0, 4.0 / 3.0),
        ("quadratic", 1.0, 1.5),
        ("box:1", 3.0, 4.0),
        ("quadratic", 1.0, 3.1 / 1.3),
        ("box:0.31", 3.0 * 0.31, 20.5),
        ("linear", 1.0, 2.5),
        ("linear", 1.0, 2.0),
        ("power:1.5", 1.0, 3.0),
    )
]
_FPRIME_CASES = _TARGETS + [("logfam:3", u, 1e-9) for u in (0.2, 0.45, 0.7)] + _CLI_FPRIME
_PHI_CASES = _TARGETS + [("logfam:3", u, 1e-9) for u in (0.2, 0.5)] + _CLI_PHI


# phi and ln f at interior points; logfam:3 at the tolerance its budget meets
_CONTRACT_CASES = [
    (spec, y, 1e-12)
    for spec in ("linear", "power:0.7", "quadratic", "box:1")
    for y in (-2.5, -0.7, -0.2)
] + [("logfam:3", y, 1e-10) for y in (-2.0, -1.4)]


@pytest.mark.parametrize("spec, y, tol", _CONTRACT_CASES)
def test_phi_relative_and_log_f_absolute_against_mpmath(spec, y, tol):
    mp = pytest.importorskip("mpmath")
    seq = parse_sequence(spec)
    ratio, log_value = phi(seq, y, tol=tol), log_f(seq, y, tol=tol)
    with mp.workdps(50):
        f0, f1, _ = _series_ref(mp, spec, y)
        assert abs(mp.mpf(ratio) * f0 / f1 - 1) <= tol
        assert abs(mp.mpf(log_value) - mp.log(f0)) <= tol


def _jacobi(mp, b):
    """(F, dF/db) for F(b) = sum_{k>=1} exp(-b k^2) = f(-b) of the unit
    quadratic, by Jacobi's transform (DLMF 20.7(viii)):
    F(b) = (sqrt(pi/b) (1 + 2 sum_{m>=1} exp(-pi^2 m^2/b)) - 1)/2."""
    dual = mp.nsum(lambda m: mp.exp(-mp.pi ** 2 * m ** 2 / b), [1, mp.inf])
    d_dual = mp.nsum(lambda m: mp.pi ** 2 * m ** 2 / b ** 2 * mp.exp(-mp.pi ** 2 * m ** 2 / b), [1, mp.inf])
    root = mp.sqrt(mp.pi / b)
    return (root * (1 + 2 * dual) - 1) / 2, root * (d_dual - (1 + 2 * dual) / (4 * b))


def _jacobi_conjugate(mp, target, ratio):
    """(sup_y [target y - f(y)], y) of the unit quadratic, or with ``ratio``
    (sup_y [target y - ln f(y)], y), at 40 digits: the root of -F'(b) =
    target, or of -F'(b)/F(b) = target, in ln b, with y = -b."""
    with mp.workdps(40):
        target = mp.mpf(target)

        def excess(t):
            value, slope = _jacobi(mp, mp.exp(t))
            return mp.log(-slope / value if ratio else -slope) - mp.log(target)

        # f' ~ sqrt(pi)/4 b^(-3/2) and f'/f ~ 1/(2 b) for small b
        guess = 1 / (2 * target) if ratio else (mp.sqrt(mp.pi) / (4 * target)) ** (mp.mpf(2) / 3)
        b = mp.exp(mp.findroot(excess, mp.log(guess)))
        value, _ = _jacobi(mp, b)
        return -b * target - (mp.log(value) if ratio else value), -b


# the conjugate's f walk and the log conjugate's ln f read once scaled with
# u and v/u: value errors of 0.23 at u = 1e15 and 1.14 at v/u = 1e12
@pytest.mark.parametrize("spec", ["power:2", "quadratic"])
@pytest.mark.parametrize("u", [1e9, 1e12, 1e15])
def test_conjugate_at_large_u_against_jacobi(spec, u):
    mp = pytest.importorskip("mpmath")
    tol = 1e-9
    cv = conjugate(parse_sequence(spec), u, tol=tol)
    ref, y_ref = _jacobi_conjugate(mp, u, ratio=False)
    assert cv.regime is Regime.INTERIOR
    assert abs(cv.value - ref) <= tol * max(1.0, abs(ref))
    assert abs(cv.attaining_y - y_ref) <= tol * abs(y_ref)
    # f's bracket at the attaining y, at the conjugate's tolerance for it
    y = cv.attaining_y
    ev = eval_series(parse_sequence(spec), y, 0, tol=0.25 * tol * max(1.0, min(u, -y * u)))
    with mp.workdps(40):
        f_ref, _ = _jacobi(mp, -mp.mpf(y))
        assert ev.value <= f_ref <= ev.upper


@pytest.mark.parametrize("rho", [1e6, 1e9, 1e12])
def test_log_f_conjugate_at_large_ratio_against_jacobi(rho):
    mp = pytest.importorskip("mpmath")
    tol = 1e-9
    ref, _ = _jacobi_conjugate(mp, rho, ratio=True)
    assert abs(log_f_conjugate(quadratic(), rho, tol=tol) - ref) <= tol * max(1.0, abs(ref))


@pytest.mark.parametrize("v", [3e9, 3e12])
def test_box_conjugate_at_large_ratio_against_jacobi(v):
    # u (ln u - 1) + 3 u (ln f)*(v/(3 u)) at u = 1
    mp = pytest.importorskip("mpmath")
    tol = 1e-9
    ref = 3 * _jacobi_conjugate(mp, v / 3, ratio=True)[0] - 1
    assert abs(box_conjugate(1.0, v, tol=tol) - ref) <= tol * max(1.0, abs(ref))


class TestRootFinder:
    @staticmethod
    def _check_root(mp, equation, y, target, residual, tol):
        """The reported residual bounds the 50-digit one, meets tol, and
        places y within twice residual / slope of the 50-digit root."""
        assert residual <= tol * max(1.0, target)
        with mp.workdps(50):
            value, slope = equation(y)
            assert abs(value - target) <= residual
            # two Newton steps from a root good to ~1e-12 reach ~1e-48
            root = y - (value - target) / slope
            value, slope = equation(root)
            root -= (value - target) / slope
            assert abs(y - root) <= 2 * residual / slope

    @pytest.mark.parametrize("spec, u, tol", _FPRIME_CASES)
    def test_fprime_root_against_mpmath(self, spec, u, tol):
        mp = pytest.importorskip("mpmath")
        y, residual = solve_fprime(parse_sequence(spec), u, tol=tol)
        self._check_root(mp, lambda t: _fprime_ref(mp, spec, t), y, u, residual, tol)

    @pytest.mark.parametrize("spec, u, tol", _PHI_CASES)
    def test_phi_root_against_mpmath(self, spec, u, tol):
        mp = pytest.importorskip("mpmath")
        seq = parse_sequence(spec)
        v = sigma(seq, seq.start_index) + u
        y, residual = solve_phi(seq, v, tol=tol)
        self._check_root(mp, lambda t: _phi_ref(mp, spec, t), y, v, residual, tol)

    def test_open_edge_root_is_reached(self):
        # -1/y rises to +inf at the open edge 0; its root at -1e-15 is
        # reached within the band
        y, payload = _find_root(lambda y: (-1.0 / y, y), 1e15, 1.0, 0.0)
        assert abs(-1.0 / y - 1e15) <= 1.0 and payload == y

    def test_root_at_distance_1e300_from_the_edge_is_reached(self):
        probes = []

        def fn(y):
            probes.append(y)
            return -1.0 / y, None

        y, _ = _find_root(fn, 1e300, 1e288, 0.0)
        assert abs(-1.0 / y - 1e300) <= 1e288
        # steps without a secant keep 1/2, 1/4, 1/16, ... of the edge
        # distance, so the eleventh probe lies past the root; the bracket's
        # midpoints in the log of the distance and secant steps do the rest
        first_above = next(i for i, y in enumerate(probes) if -1.0 / y >= 1e300)
        assert first_above <= 10 and len(probes) <= 32

    def test_closed_edge_without_a_crossing_raises(self):
        # exp stays below 5 up to the closed edge -1: no root
        with pytest.raises(NumericError, match="stays below"):
            _find_root(lambda y: (math.exp(y), None), 5.0, 1e-12, -1.0)

    def test_target_never_undershot_raises(self):
        with pytest.raises(NumericError, match="no root"):
            _find_root(lambda y: (3.0, None), 1.0, 1e-12, 0.0)

    def test_nonpositive_target_raises(self):
        with pytest.raises(NumericError, match="positive target"):
            _find_root(lambda y: (math.exp(y), None), 0.0, 1e-12, 0.0)
        with pytest.raises(NumericError, match="positive target"):
            solve_fprime(linear(), -1.0)

    def test_nan_probe_raises(self):
        # the first probe at -1 lies below target, the next one is NaN
        with pytest.raises(NumericError, match="NaN"):
            _find_root(lambda y: (math.exp(y) if y < -0.9 else math.nan, None), 0.5, 1e-12, 0.0)

    def test_unsplittable_bracket_returns_its_better_end_with_its_payload(self):
        # a jump at -0.5 over target: the bracket closes on two adjacent
        # floats, and the end nearer target returns its own probe's payload
        y, payload = _find_root(lambda y: (0.5 if y < -0.5 else 3.0, ("probe", y)), 1.0, 1e-12, 0.0)
        assert y == math.nextafter(-0.5, -math.inf) and payload == ("probe", y)
        y, payload = _find_root(lambda y: (0.5 if y < -0.5 else 1.2, ("probe", y)), 1.0, 1e-12, 0.0)
        assert y == -0.5 and payload == ("probe", y)

    @pytest.mark.parametrize("solve, target", [(solve_fprime, 100.0), (solve_phi, 10.0)])
    def test_budget_bound_stopping_probe_raises_its_error(self, solve, target, walked):
        with pytest.raises(BudgetExceededError, match="unreachable within 300 terms") as info:
            solve(linear(), target, max_terms=300)
        assert info.value.best.truncation_index == 300

    @pytest.mark.parametrize("max_terms", [20, 100, 300])
    def test_ratio_solve_raises_the_error_phi_raises_at_its_root(self, max_terms, walked):
        # at 20 and 100 terms f's walk runs out, at 300 only f''s: the solve
        # raises the error phi raises at the stopping probe, f's first
        with pytest.raises(BudgetExceededError) as info:
            solve_phi(linear(), 10.0, max_terms=max_terms)
        y = float(str(info.value).rsplit("y=", 1)[1])
        with pytest.raises(BudgetExceededError) as strict:
            phi(linear(), y, tol=1.25e-13, max_terms=max_terms)
        assert str(strict.value) == str(info.value) and strict.value.best == info.value.best

    @pytest.mark.filterwarnings("error")
    def test_probes_past_float64_step_back(self):
        # f' of power:50 passes float64 from y ~ -1e-308 on: a probe there
        # reads +inf, above u, and the solve steps back to a certified root
        y, residual = solve_fprime(power(50.0), 1e300, tol=1e-9)
        assert -1e-290 < y < 0.0 and residual <= 1e-9 * 1e300

    @pytest.mark.filterwarnings("error")
    def test_probe_past_float64_toward_minus_inf_raises_its_budget_error(self):
        # exp(800 - n) passes float64 at y = -1 and the leading terms of f'
        # are negative: the probe's bracket (-inf, tail inf) has a NaN
        # midpoint, so the solve raises the probe's own error
        with pytest.raises(BudgetExceededError, match="passed float64") as info:
            conjugate(custom(lambda n: n - 800.0, 0.0, 1.0), 1.0)
        assert info.value.best.value == -math.inf
        # an infinite midpoint, [2^1023, inf], still has a side
        cv = conjugate(power(50.0), 1e300)
        assert cv.regime is Regime.INTERIOR and math.isfinite(cv.value)

    def test_ratio_probe_without_a_finite_f_raises(self, monkeypatch):
        # f's walk passes float64 at every probe: there is no ratio to read
        module = importlib.import_module("gibbs_series.conjugate")
        best_bracket = module._best_bracket

        def f_passes_float64(seq, y, p, *args):
            if p:
                return best_bracket(seq, y, p, *args)
            best = SeriesEval(2.0 ** 1023, 1, math.inf)
            return best, BudgetExceededError("partial sum passed float64", best)

        monkeypatch.setattr(module, "_best_bracket", f_passes_float64)
        with pytest.raises(NumericError, match="passes float64"):
            solve_phi(linear(), 2.0)

    @pytest.mark.parametrize("spec", ["linear", "power:1.5", "quadratic", "box:1"])
    def test_residual_is_a_strict_walks_at_the_root(self, spec):
        # the stopping probe's bracket is the one a strict walk gives
        seq = parse_sequence(spec)
        tol = 1e-12
        for u in (0.3, 2.5):
            y, residual = solve_fprime(seq, u, tol=tol)
            ev = eval_series(seq, y, 1, tol=0.25 * tol * max(1.0, u))
            assert residual == abs(ev.midpoint - u) + 0.5 * ev.tail_bound
            v = sigma(seq, seq.start_index) + u
            y, residual = solve_phi(seq, v, tol=tol)
            rel = max(1e-15, 0.125 * tol * max(1.0, v) / v)
            assert residual == abs(phi(seq, y, tol=rel) - v) + 0.5 * rel * v


class TestFloatStart:
    @staticmethod
    def _probes(start=None, edge=0.0):
        probes = []

        def fn(y):
            probes.append(y)
            return math.exp(y - edge), None

        _find_root(fn, 0.25, 1e-12, edge, start=start)
        return probes

    def test_first_probe_is_the_start(self):
        assert self._probes(start=(-1.3, 1.0))[0] == -1.3

    def test_a_missed_start_takes_a_newton_step_on_its_slope(self):
        # the log excess y - ln 0.25 has slope 1, so Newton's step is the root
        assert self._probes(start=(-1.3, 1.0)) == [-1.3, pytest.approx(math.log(0.25), abs=1e-15)]
        # from a slope 4 times too steep the secant takes over
        probes = self._probes(start=(-1.0, 4.0))
        assert probes[1] == pytest.approx(-1.0 - (-1.0 - math.log(0.25)) / 4.0, abs=1e-15)
        assert len(probes) <= 5

    def test_without_a_start_the_first_probe_is_edge_minus_one(self):
        assert self._probes()[0] == -1.0
        assert self._probes(edge=-2.0)[0] == -3.0

    def test_nonpositive_target_raises_before_the_start(self, monkeypatch):
        module = importlib.import_module("gibbs_series.conjugate")
        calls = []
        monkeypatch.setattr(module, "_float_start", lambda *args, **kw: calls.append(args))
        for solve, target in ((solve_fprime, -1.0), (solve_fprime, 0.0), (solve_phi, 1.0), (solve_phi, 0.5)):
            with pytest.raises(NumericError, match="positive target"):
                solve(linear(), target)
        assert calls == []

    def test_signed_sequence_has_no_start(self):
        seq = custom(lambda n: n - 3.0, declared_alpha=0.0, declared_gap=1.0)
        assert seq.signed
        assert _float_start(seq, 1.0) is None and _float_start(seq, 1.0, ratio=True) is None

    def test_terms_past_the_block_take_the_tail_model(self, monkeypatch):
        # near power:0.3's edge 0 the terms past its first 256 exponents
        # count, and the tail model adds them, as the log family's does
        # near its edge: the solve stops at its first probe
        seq = power(0.3)
        assert _float_start(seq, 1.0)[0] == pytest.approx(-2.1676, abs=1e-4)
        assert _float_start(seq, 1.0, ratio=True)[0] < 0.0
        assert _float_start(logfam(1.5), 1.0)[0] < -1.0
        module = importlib.import_module("gibbs_series.conjugate")
        find_root, probes = module._find_root, []
        monkeypatch.setattr(
            module, "_find_root", lambda fn, *args: find_root(lambda y: probes.append(y) or fn(y), *args)
        )
        conjugate(seq, 1.0)
        assert len(probes) == 1

    def test_custom_sequence_has_no_start_where_its_block_end_counts(self):
        # exponents without a formula have no tail model: a start only
        # where the block's last term shows the rest negligible
        seq = custom(lambda n: n ** 0.3, declared_alpha=0.0, declared_gap=1e-3)
        assert _float_start(seq, 1.0) is None
        assert _float_start(seq, 1.0, ratio=True) is None
        # linear's exponents as a custom sequence: Halley's steps on the
        # block land within 4 ulps of linear's exact root ln(1/2), their
        # last slope read one step before it
        seq = custom(float, declared_alpha=0.0, declared_gap=1.0)
        (y, slope), (root, root_slope) = _float_start(seq, 2.0), _float_start(linear(), 2.0)
        assert root == -math.log(2.0) and abs(y - root) <= 4 * math.ulp(root)
        assert slope == pytest.approx(root_slope, rel=1e-6)

    @pytest.mark.parametrize("kappa", [0.25, 1.0, 2.0])
    def test_quadratic_moments_match_the_block(self, kappa):
        # quadratic's and the box factors' closed-form moments, from
        # Jacobi's form up to b = kappa |y| = 1 and summed beyond it, against
        # the 256-exponent block of the same exponents as a custom sequence,
        # whose terms past the block are negligible on this grid
        seq = quadratic() if kappa == 1.0 else box_factor(kappa)
        ref = custom(lambda n: n * n * kappa, declared_alpha=0.0, declared_gap=kappa)
        bs = (1e-3, 0.01, 0.1, 0.5, 0.9, 0.99, 1.0, 1.01, 1.1, 2.0, 5.0, 20.0)
        _same_start(_start_block(seq, None), _start_block(ref, ref.generator), [-b / kappa for b in bs])

    def test_linear_moments_match_the_block(self):
        # 1/d and Li_{-k}(e^y) against the block of linear's exponents
        ref = custom(float, declared_alpha=0.0, declared_gap=1.0)
        ys = (-0.2, -0.5, -1.0, -2.0, -5.0, -20.0, -100.0)
        _same_start(_start_block(linear(), None), _start_block(ref, ref.generator), ys)

    def test_start_is_a_python_float_near_the_root(self):
        y, slope = _float_start(linear(), 2.0)
        assert type(y) is float and y == pytest.approx(-math.log(2.0), abs=1e-15)
        assert type(slope) is float and slope > 0.0
        assert type(conjugate(linear(), 2.0).attaining_y) is float


def _same_start(closed, block, ys):
    """``closed``, a start without rows, agrees with the numpy ``block`` at
    every y to 1e-12: each moment relatively, and ``at``'s log sum and
    slope relatively, its curvature relative to the slope squared, the
    scale it is a difference on."""
    assert not hasattr(closed, "rows") and block.rows.shape == (4, 256)
    for y in ys:
        for a, b in zip(closed.moments(y), block.moments(y)):
            assert abs(a - b) <= 1e-12 * b, y
        for ratio in (False, True):
            (log_sum, slope, curve), (ref_log, ref_slope, ref_curve) = closed.at(y, ratio), block.at(y, ratio)
            assert abs(log_sum - ref_log) <= 1e-12 * max(1.0, abs(ref_log)), (y, ratio)
            assert abs(slope - ref_slope) <= 1e-12 * ref_slope, (y, ratio)
            assert abs(curve - ref_curve) <= 1e-12 * max(abs(ref_curve), ref_slope ** 2), (y, ratio)


def _best(seq, y, p):
    """f^(p)(y) to 1e-9, or the best bracket of the term budget."""
    try:
        return eval_series(seq, y, p, tol=1e-9)
    except BudgetExceededError as exc:
        return exc.best


class TestTailModel:
    # the float start adds a float model of the terms past its first 256
    # exponents to them (sequences._float_tail): near the log family's edge
    # its f' and f'/f lie in certified brackets, and it gives no value
    # where its two quadratures disagree
    @pytest.mark.parametrize("theta", [-1.0, 0.5, 1.5, 2.2, 2.9, 4.5])
    def test_model_lies_in_certified_brackets(self, theta):
        seq = logfam(theta)
        block = _start_block(seq, None)
        s_min = sigma(seq, seq.start_index)
        # theta <= 0.5 converges too slowly there for 1e-9 in 10^7 terms:
        # the model is checked against the budget's best bracket
        bracket = _best if theta <= 0.5 else partial(eval_series, tol=1e-9)
        for y in (-1.3, -1.1) if theta <= 0.5 else (-1.45, -1.3, -1.25):
            fp, f = bracket(seq, y, 1), bracket(seq, y, 0)
            model = math.exp(block.at(y, False)[0])
            assert fp.value - 1e-12 <= model <= fp.upper + 1e-12
            ratio = math.exp(block.at(y, True)[0]) + s_min
            assert fp.value / f.upper - 1e-12 <= ratio <= fp.upper / f.value + 1e-12

    @pytest.mark.parametrize(
        "spec",
        ["linear", "power:0.3", "power:0.5", "power:0.8", "power:1.3", "power:2", "power:3",
         "quadratic", "box_factor:0.5"],
    )
    def test_model_of_every_family_lies_in_certified_brackets(self, spec):
        # one model reads each family's exponents in w = ln x: wherever it
        # gives a value, from the block's first terms to roots ~1e-7 from
        # the edge, f' and f'/f lie within _START_AGREE of the brackets
        name, _, kappa = spec.partition(":")
        seq = box_factor(float(kappa)) if name == "box_factor" else parse_sequence(spec)
        block = _start_block(seq, None)
        s_min = sigma(seq, seq.start_index)
        lo, hi = 1.0 - _START_AGREE, 1.0 + _START_AGREE
        for y in (-3.0, -1.0, -0.3, -0.1, -0.03, -1e-2, -1e-3, -1e-4, -1e-5, -1e-6, -1e-7):
            fp = _best_bracket(seq, y, 1, 0.0, None, 1e-12)[0]
            f = _best_bracket(seq, y, 0, 0.0, None, 1e-12)[0]
            if (point := block.at(y, False)) is not None:
                assert fp.value * lo <= math.exp(point[0]) <= fp.upper * hi, y
            if (point := block.at(y, True)) is not None:
                ratio = math.exp(point[0]) + s_min
                assert fp.value / f.upper * lo <= ratio <= fp.upper / f.value * hi, y

    def test_no_model_where_the_block_end_shows_the_rest_negligible(self, monkeypatch):
        # interior power:theta < 1 solves at moderate u: the terms past the
        # block, as a geometric series on its last ratio, lie below
        # _START_SKIP of its sums, so the model does not run and each solve
        # still stops at its first probe; power:0.3 at u = 1 needs the model
        module = importlib.import_module("gibbs_series.conjugate")
        find_root, probes = module._find_root, []
        monkeypatch.setattr(
            module, "_find_root", lambda fn, *args: find_root(lambda y: probes.append(y) or fn(y), *args)
        )
        for theta, solve, model in (
            (0.672, lambda seq: conjugate(seq, 3.0628870134569177), False),
            (0.672, lambda seq: log_f_conjugate(seq, 2.4129733629288257), False),
            (0.841, lambda seq: fit_gibbs(seq, 0.8990979599865017, 4.04292387555691), False),
            (0.3, lambda seq: conjugate(seq, 1.0), True),
        ):
            seq = power(theta)
            block = _start_block(seq, None)
            tail, runs = block.tail, []
            monkeypatch.setattr(block, "tail", lambda y, tail=tail, runs=runs: runs.append(y) or tail(y))
            probes.clear()
            solve(seq)
            assert len(probes) == 1 and bool(runs) == model, theta

    def test_no_start_from_a_single_exponent(self):
        # power:2000's second exponent passes float64: a block of one
        # exponent makes no start, and no warning
        assert _start_block(power(2000.0), None) is None
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert conjugate(power(2000.0), 0.5).attaining_y == pytest.approx(-math.log(2.0))

    def test_no_value_where_the_quadratures_disagree(self):
        seq = logfam(1.5)
        block = _start_block(seq, None)
        y = -1.000003
        tail, err = block.tail(y)
        d = block.rows[1]
        m1 = float(np.sum(d * np.exp(d * y))) + tail[1]
        assert err[1] > _START_AGREE * m1
        assert block.at(y, False) is None and block.at(y, True) is None
        # f' = 1000 ~1e-5 inside the edge: Halley's steps reach that refusal
        assert _float_start(seq, 1000.0) is None
        # no value at the edge, where the tail of f' diverges
        assert block.at(-1.0, False) is None and block.at(-1.0, True) is None

    def test_one_block_layout_for_every_family(self):
        # the model adds to the row sums of the same 256-exponent table,
        # d^k for k = 0..3, that every family without closed-form moments reads
        for seq in (logfam(2.9), power(1.3)):
            rows = _start_block(seq, None).rows
            assert rows.shape == (4, 256)
            assert not rows.flags.writeable
