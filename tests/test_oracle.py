"""Brute-force oracles: truncated duals, difference stencils, references."""

import math

import numpy as np
import pytest

from gibbs_series import (
    TruncationInfeasibleError,
    alternating_gradient_series,
    box,
    check_fenchel_young,
    check_gradient_sum,
    check_gradient_sum_2d,
    conjugate,
    fit_gibbs,
    linear,
    parse_varsigma,
    power,
    primal_truncated,
    quadratic,
)
from gibbs_series.oracle import geometric_f, geometric_fprime, geometric_fsecond


class TestClosedForms:
    def test_geometric_family(self):
        x = -0.9
        z = math.exp(x)
        assert geometric_f(x) == pytest.approx(z / (1 - z), rel=1e-15)
        assert geometric_fprime(x) == pytest.approx(z / (1 - z) ** 2, rel=1e-15)
        # second derivative against a brute series
        brute = sum(n * n * z ** n for n in range(1, 200))
        assert geometric_fsecond(x) == pytest.approx(brute, rel=1e-13)


class TestPrimalTruncated:
    def test_needs_two_levels(self):
        with pytest.raises(ValueError, match="need at least two levels"):
            primal_truncated(linear(), 1, moment=1.0)

    def test_matches_closed_form(self):
        sol = primal_truncated(linear(), 60, moment=2.0)
        assert sol.value == pytest.approx(-1.0 - 2.0 * math.log(2.0), abs=1e-9)
        assert sol.residual <= 1e-9
        assert sol.weights[0] == pytest.approx(0.5, abs=1e-10)

    def test_sandwich_monotone_in_levels(self):
        fstar = conjugate(linear(), 2.0, tol=1e-12).value
        values = [
            primal_truncated(linear(), n, moment=2.0).value for n in (10, 50, 1000)
        ]
        assert values[0] >= values[1] >= values[2] >= fstar - 1e-12
        assert values[2] - fstar <= 1e-5

    def test_short_support_is_feasible_above_conjugate(self):
        sol = primal_truncated(linear(), 3, moment=10.0)
        assert sol.dual_y > 0.0  # truncated dual may sit beyond the edge
        assert sol.value > conjugate(linear(), 10.0, tol=1e-10).value
        assert sol.residual <= 1e-9

    def test_two_moment_matches_gibbs_fit(self):
        sol = primal_truncated(box(1.0), 200, moment=4.0, mass=1.0)
        fit = fit_gibbs(box(1.0), 1.0, 4.0, tol=1e-10)
        assert abs(sol.value - fit.entropy_value) <= 1e-6
        sol1000 = primal_truncated(box(1.0), 1000, moment=4.0, mass=1.0)
        assert abs(sol1000.value - fit.entropy_value) <= 1e-5

    def test_two_moment_linear(self):
        sol = primal_truncated(linear(), 400, moment=2.0, mass=1.0)
        assert sol.value == pytest.approx(-1.0 - 2.0 * math.log(2.0), abs=1e-10)
        assert sol.dual_x == pytest.approx(0.0, abs=1e-10)

    def test_infeasible_ratio_names_range(self):
        with pytest.raises(TruncationInfeasibleError) as exc:
            primal_truncated(box(1.0), 50, moment=1.0, mass=1.0)
        assert "range" in str(exc.value)

    def test_zero_targets(self):
        sol = primal_truncated(linear(), 5, moment=0.0)
        assert sol.value == 0.0

    def test_bad_targets(self):
        with pytest.raises(TruncationInfeasibleError):
            primal_truncated(linear(), 5, moment=-1.0)
        with pytest.raises(TruncationInfeasibleError):
            primal_truncated(linear(), 5, moment=1.0, mass=-2.0)

    def test_dual_routes_agree_on_random_targets(self):
        # certified conjugate (bracketed root finding on the infinite
        # series) versus the independent finite Newton dual
        import numpy as np

        rng = np.random.default_rng(7)
        for seq in (linear(), quadratic(), power(1.5), power(0.7), box(1.0)):
            for _ in range(4):
                u = float(rng.uniform(0.2, 5.0))
                exact = conjugate(seq, u, tol=1e-11).value
                trunc = primal_truncated(seq, 2000, moment=u).value
                assert trunc == pytest.approx(exact, abs=1e-7)
                assert trunc >= exact - 1e-9  # truncation upper-bounds the inf


class TestGradientChecks:
    def test_unit_gap_at_minus_one(self):
        rep = check_gradient_sum(linear(), -1.0, h=1e-5)
        assert rep.passed and rep.abs_gap <= 1e-7

    def test_box_2d_at_reference_point(self):
        rep = check_gradient_sum_2d(0.0, -1.0, h=1e-5)
        assert rep.passed and rep.abs_gap <= 1e-6
        # analytic first component equals e^x f(y)^3 for the square series
        f_cube = sum(math.exp(-k * k) for k in range(1, 40)) ** 3
        assert rep.rhs[0] == pytest.approx(f_cube, rel=1e-10)

    def test_directional_symmetry(self):
        rep = check_gradient_sum(linear(), -1.0, h=1e-6, tol=1e-5, mode="directional")
        assert rep.passed
        d_plus, minus_d_minus = rep.lhs
        assert d_plus == pytest.approx(minus_d_minus, abs=1e-5)

    def test_second_order_convergence(self):
        gaps = [
            check_gradient_sum(linear(), -1.0, h=h).abs_gap for h in (1e-3, 5e-4)
        ]
        assert 3.0 <= gaps[0] / gaps[1] <= 5.5

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            check_gradient_sum(linear(), -1.0, mode="sideways")


class TestFenchelYoung:
    def test_equality_case(self):
        rep = check_fenchel_young(linear(), -math.log(2.0), 2.0)
        assert rep.passed
        assert abs(rep.lhs[0]) <= 1e-10
        assert abs(rep.meta["fprime_minus_u"]) <= 1e-10

    def test_zero_slope_case(self):
        rep = check_fenchel_young(linear(), -1.0, 0.0)
        assert rep.passed
        assert rep.lhs[0] == pytest.approx(geometric_f(-1.0), abs=1e-10)

    def test_generic_gap_positive(self):
        rep = check_fenchel_young(quadratic(), -2.0, 1.0)
        assert rep.passed and rep.lhs[0] > 0.0

    def test_report_serializes(self):
        rep = check_fenchel_young(power(1.5), -1.0, 0.7)
        text = rep.to_json()
        assert '"claim": "fenchel-young"' in text


class TestAlternatingSeries:
    def test_square_coefficients_reference(self):
        rep = alternating_gradient_series(
            -math.log(2.0), parse_varsigma("power:2"), 200
        )
        assert rep.second_partial == pytest.approx(-2.0 / 27.0, abs=1e-10)
        assert rep.second_reference == pytest.approx(-2.0 / 27.0, abs=1e-12)
        assert rep.first_gap <= 1e-12

    def test_exp_rate_convergent_branch(self):
        rep = alternating_gradient_series(-3.0, parse_varsigma("exp:2"), 500)
        assert rep.classification == "convergent"
        w = math.exp(-3.0 + 2.0)
        assert rep.second_partial == pytest.approx(-w / (1.0 + w), abs=1e-12)

    def test_exp_rate_divergent_branch(self):
        rep = alternating_gradient_series(-1.0, parse_varsigma("exp:2"), 500)
        assert rep.classification == "divergent"
        assert rep.second_reference is None

    def test_expsq_divergent(self):
        rep = alternating_gradient_series(-2.0, parse_varsigma("expsq"), 50)
        assert rep.classification == "divergent"

    def test_requires_negative_x(self):
        with pytest.raises(ValueError):
            alternating_gradient_series(0.5, parse_varsigma("power:2"), 10)
