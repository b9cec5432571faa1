"""Conjugates: closed forms, regimes, plateau affinity, duality probes."""

import math

import numpy as np
import pytest

from gibbs_series import (
    DomainError,
    FitStatus,
    NumericError,
    Regime,
    box_conjugate,
    conjugate,
    domain_info,
    eval_series,
    exp_conjugate,
    fit_gibbs,
    linear,
    log_f,
    log_f_conjugate,
    logfam,
    loglog,
    power,
    quadratic,
)
from gibbs_series.conjugate import _brent
from gibbs_series.scenarios import BoxModel


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

    def test_extreme_target_fails_honestly(self):
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


def _recorded(f):
    """f plus the list of points it was called at."""
    calls = []

    def g(x):
        calls.append(x)
        return f(x)

    return g, calls


class TestBrent:
    SETTINGS = [(1e-15, 8.9e-16, 300), (1e-14, 8.9e-16, 100), (1e-6, 1e-10, 50)]

    @staticmethod
    def _brackets(n):
        rng = np.random.default_rng(20260810)
        shapes = [
            lambda r, k: lambda x: math.tanh(k * (x - r)),
            lambda r, k: lambda x: (x - r) ** 3 + 1e-3 * k * (x - r),
            lambda r, k: lambda x: math.expm1(k * (x - r)),
            lambda r, k: lambda x: math.atan(k * (x - r)) + (x - r) ** 5,
        ]
        for i in range(n):
            a = float(rng.uniform(-10.0, 1.0))
            b = a + float(10.0 ** rng.uniform(-6.0, 1.3))
            r = float(rng.uniform(a, b))
            k = float(10.0 ** rng.uniform(-1.0, 1.5))
            f = shapes[i % len(shapes)](r, k)
            sign = 1.0 if i % 3 else -1.0  # some decreasing brackets too
            yield (lambda x, f=f, sign=sign: sign * f(x)), a, b

    def test_same_root_and_calls_as_reference_brentq(self):
        optimize = pytest.importorskip("scipy.optimize")
        for f, a, b in self._brackets(400):
            for xtol, rtol, maxiter in self.SETTINGS:
                mine, my_calls = _recorded(f)
                ref, ref_calls = _recorded(f)
                root = _brent(mine, a, b, xtol, rtol, maxiter)
                expected = optimize.brentq(ref, a, b, xtol=xtol, rtol=rtol, maxiter=maxiter)
                assert root == expected
                assert my_calls == ref_calls

    def test_same_root_and_calls_on_exact_ends(self):
        optimize = pytest.importorskip("scipy.optimize")
        for a, b in [(0.5, 2.0), (-1.0, 0.5)]:
            mine, my_calls = _recorded(lambda x: x - 0.5)
            ref, ref_calls = _recorded(lambda x: x - 0.5)
            assert _brent(mine, a, b, 1e-15, 8.9e-16, 300) == 0.5
            assert optimize.brentq(ref, a, b, xtol=1e-15, rtol=8.9e-16) == 0.5
            assert my_calls == ref_calls

    def test_too_few_iterations_raise(self):
        with pytest.raises(NumericError, match="did not converge in 3 steps"):
            _brent(lambda x: math.tanh(20.0 * (x - 0.3)), 0.0, 1.0, 1e-15, 8.9e-16, 3)

    def test_same_sign_ends_raise(self):
        with pytest.raises(NumericError, match="do not bracket a root"):
            _brent(lambda x: x + 1.0, 0.0, 1.0, 1e-15, 8.9e-16, 300)
