"""Scenario wiring: classification table, box model reports, diagnostics."""

import importlib
import math

import numpy as np
import pytest

from gibbs_series import (
    FitStatus,
    box,
    box_conjugate,
    box_report,
    domain_info,
    enumerate_box,
    eval_series,
    example1_table,
    example2_table,
    fit_gibbs,
    logfam,
    quadratic,
)
from gibbs_series.conjugate import NumericError
from gibbs_series.scenarios import BoxModel


@pytest.fixture(scope="module")
def rows():
    return example1_table(n_probe=10**6)


class TestExample1Table:
    def test_five_classes(self, rows):
        got = [row["boundary_class"] for row in rows]
        assert got == [
            "OpenBoundary",
            "OpenBoundary",
            "ClosedInfiniteSlope",
            "ClosedFiniteSlope",
            "EmptyDomain",
        ]

    def test_domains(self, rows):
        assert rows[0]["domain"] == "(-inf, 0)"
        assert rows[1]["domain"] == "(-inf, -1)"
        assert rows[2]["domain"] == "(-inf, -1]"
        assert rows[3]["domain"] == "(-inf, -1]"
        assert rows[4]["domain"] == "empty"

    def test_finite_slope_value(self, rows):
        di = domain_info(logfam(3.0))
        assert rows[3]["boundary_slope"] == pytest.approx(di.gamma, abs=1e-12)

    def test_divergence_bounds_grow(self):
        small = example1_table(n_probe=10**4)
        large = example1_table(n_probe=10**6)
        for key, idx in (("edge_mass", 1), ("edge_slope", 2), ("any_y", 4)):
            lo = small[idx]["certificates"][key]["partial_lower_bound"]
            hi = large[idx]["certificates"][key]["partial_lower_bound"]
            assert hi > lo > 0.0

    def test_divergence_bound_is_valid(self):
        # the certified lower bound really sits below the partial sum
        row = example1_table(n_probe=10**4)[1]
        cert = row["certificates"]["edge_mass"]
        ns = np.arange(3, 10**4 + 1, dtype=np.float64)
        partial = float(np.sum(1.0 / (ns * np.log(ns) ** 0.5)))
        assert cert["partial_lower_bound"] <= partial

    def test_convergent_certificates(self, rows):
        cert = rows[3]["certificates"]["edge_slope"]
        assert cert["type"] == "certified_value"
        assert cert["tail_bound"] <= 1e-8


class TestExample2Table:
    def test_rows(self):
        rows = example2_table(n_terms=300)
        classes = {(r["varsigma"], r["x"]): r["classification"] for r in rows}
        assert classes[("power:2", -math.log(2.0))] == "convergent"
        assert classes[("exp:2", -1.0)] == "divergent"
        assert classes[("exp:2", -3.0)] == "convergent"
        assert classes[("expsq", -2.0)] == "divergent"


class TestBoxModel:
    def test_h_and_grad_match_differences(self):
        model = BoxModel()
        x, y, h = 0.3, -1.2, 1e-6
        gx = (model.h(x + h, y) - model.h(x - h, y)) / (2 * h)
        gy = (model.h(x, y + h) - model.h(x, y - h)) / (2 * h)
        gx_a, gy_a = model.grad_h(x, y)
        assert gx == pytest.approx(gx_a, rel=1e-8)
        assert gy == pytest.approx(gy_a, rel=1e-8)

    def test_h_strictly_convex_probe(self):
        model = BoxModel()
        h = 1e-4
        for x, y in [(-0.5, -0.8), (0.4, -1.5), (1.0, -0.5)]:
            hxx = (model.h(x + h, y) - 2 * model.h(x, y) + model.h(x - h, y)) / h**2
            hyy = (model.h(x, y + h) - 2 * model.h(x, y) + model.h(x, y - h)) / h**2
            hxy = (
                model.h(x + h, y + h)
                - model.h(x + h, y - h)
                - model.h(x - h, y + h)
                + model.h(x - h, y - h)
            ) / (4 * h**2)
            assert hxx > 0 and hyy > 0 and hxx * hyy - hxy**2 > 0

    def test_log_convexity_of_factor(self):
        # f'' f - (f')^2 > 0 on a grid for the square-exponent series
        for y in np.linspace(-3.0, -0.2, 8):
            f0 = eval_series(quadratic(), float(y), 0, tol=1e-12).midpoint
            f1 = eval_series(quadratic(), float(y), 1, tol=1e-12).midpoint
            f2 = eval_series(quadratic(), float(y), 2, tol=1e-12).midpoint
            assert f2 * f0 - f1 * f1 > 0.0


class TestBoxReport:
    def test_ground_state(self):
        rep = box_report(1.0, 3.0)
        assert rep.classification == "ground_state"
        assert rep.h_star == pytest.approx(-1.0, abs=1e-12)
        assert rep.fit.entropy_value == pytest.approx(-1.0, abs=1e-12)
        assert "multiplier" in rep.notes

    def test_zero_mass_positive_energy(self):
        rep = box_report(0.0, 2.0)
        assert rep.classification == "empty_feasible_set"
        assert rep.h_star == 0.0

    def test_interior_case(self):
        rep = box_report(1.0, 4.0, tol=1e-10)
        assert rep.classification == "interior"
        mass, energy = rep.achieved
        assert mass == pytest.approx(1.0, abs=1e-8)
        assert energy == pytest.approx(4.0, abs=1e-8)
        assert box_conjugate(1.0, 4.0) == pytest.approx(rep.h_star, abs=1e-7)

    def test_huge_mass_is_interior(self):
        # the fit's dual x passes 709.78, where exp(x) alone overflows
        rep = box_report(1e307, 3.1e307)
        assert rep.classification == "interior" and rep.dual[0] > 709.79
        assert rep.achieved[1] == pytest.approx(3.1e307, rel=1e-12)

    def test_huge_mass_conjugate_past_float64_is_noted(self):
        rep = box_report(1e307, 3.1e307)
        assert rep.h_star == math.inf and "passed float64" in rep.notes
        rep = box_report(1e306, 3e306)
        assert rep.classification == "ground_state" and rep.h_star == math.inf
        assert "passed float64" in rep.notes

    def test_overflow_note_is_the_fits(self):
        # the report repeats the note its fit ends its reason with
        for u, v in ((1e307, 3.1e307), (1e306, 3e306)):
            rep = box_report(u, v)
            note = rep.fit.reason.rpartition("; ")[2]
            assert note == "entropy passed float64: inf" and rep.notes.endswith(note)

    def test_other_conjugate_errors_reach_the_caller(self, monkeypatch):
        # only the value passing float64 is noted; a failed solve still raises
        def fail(*args, **kwargs):
            raise NumericError("residual over its limit")

        conjugate = importlib.import_module("gibbs_series.conjugate")
        monkeypatch.setattr(conjugate, "solve_phi", fail)
        with pytest.raises(NumericError, match="residual over its limit"):
            box_report(1.0, 4.0)

    def test_interior_report_solves_once(self, monkeypatch):
        conjugate = importlib.import_module("gibbs_series.conjugate")
        solve_phi, calls = conjugate.solve_phi, []

        def counted(*args, **kwargs):
            calls.append(args)
            return solve_phi(*args, **kwargs)

        monkeypatch.setattr(conjugate, "solve_phi", counted)
        assert box_report(1.0, 4.0).classification == "interior"
        assert len(calls) == 1

    @pytest.mark.parametrize("kappa", [0.0, -1.0, math.nan, math.inf])
    def test_kappa_outside_the_box_family_is_a_value_error(self, kappa):
        # the box fit, the box conjugate and the enumeration check kappa
        # as box(kappa) does, first, whatever (u, v) is
        family = "box family needs finite kappa > 0"
        for u, v in ((1.0, 4.0), (-1.0, 4.0), (0.0, 0.0)):
            with pytest.raises(ValueError, match=family):
                box_report(u, v, kappa=kappa)
            with pytest.raises(ValueError, match=family):
                box_conjugate(u, v, kappa=kappa)
        with pytest.raises(ValueError, match=family):
            enumerate_box(kappa, 3)

    def test_infeasible_cone(self):
        rep = box_report(1.0, 2.0)
        assert rep.classification == "infeasible"
        assert rep.h_star == math.inf

    def test_cone_edge_agrees_with_fit_and_conjugate(self):
        # 0.09 lies below the rounded cone edge 3 * 0.1 * 0.3 = 0.09000000000000001
        rep = box_report(0.3, 0.09, kappa=0.1)
        assert rep.classification == "infeasible" and rep.h_star == math.inf
        assert fit_gibbs(box(0.1), 0.3, 0.09).status is FitStatus.INFEASIBLE
        assert box_conjugate(0.3, 0.09, kappa=0.1) == math.inf
        v = 3 * 0.1 * 0.3
        assert box_report(0.3, v, kappa=0.1).classification == "ground_state"
        assert fit_gibbs(box(0.1), 0.3, v).status is FitStatus.BOUNDARY_SINGLETON

    def test_gradient_round_trip(self):
        model = BoxModel()
        for x, y in [(-0.4, -0.9), (0.2, -1.4), (0.8, -0.6)]:
            u, v = model.grad_h(x, y)
            assert v > 3.0 * u > 0.0  # image lies strictly inside the cone
            rep = box_report(u, v, tol=1e-10)
            assert rep.classification == "interior"
            assert rep.dual[0] == pytest.approx(x, abs=1e-6)
            assert rep.dual[1] == pytest.approx(y, abs=1e-6)

    def test_kappa_rescaling(self):
        rep = box_report(1.0, 6.0, kappa=2.0)
        assert rep.classification == "ground_state"
        assert rep.fit.entropy_value == pytest.approx(-1.0, abs=1e-12)
        rep = box_report(1.0, 7.0, kappa=2.0, tol=1e-10)
        assert rep.classification == "interior"
        mass, energy = rep.achieved
        assert (mass, energy) == (
            pytest.approx(1.0, abs=1e-8),
            pytest.approx(7.0, abs=1e-8),
        )
        assert box_conjugate(1.0, 7.0, kappa=2.0) == pytest.approx(rep.h_star, abs=1e-7)


_OUTSIDE = "outside the closed cone v >= 3*kappa*u >= 0"
_GROUND = "all mass on (1,1,1); not produced by any multiplier pair"
_OVERFLOW = "entropy passed float64: inf"  # the fit's note
# (u, v, kappa, class, notes): the report's class and notes at each point,
# as box_report gave them when it also solved box_conjugate
_BOX_GRID = (
    (-1.0, 2.0, 1.0, "infeasible", _OUTSIDE),
    (0.0, -1.0, 1.0, "infeasible", _OUTSIDE),
    (0.0, 0.0, 1.0, "zero", "all-zero law"),
    (
        0.0, 2.0, 1.0, "empty_feasible_set",
        "no weights reach positive energy at zero mass, yet the conjugate value is 0",
    ),
    (1.0, 2.0, 1.0, "infeasible", _OUTSIDE),
    (1.0, 3.0, 1.0, "ground_state", _GROUND),
    (1.0, 4.0, 1.0, "interior", ""),
    (0.3, 0.09, 0.1, "infeasible", _OUTSIDE),
    (0.3, 3 * 0.1 * 0.3, 0.1, "ground_state", _GROUND),
    (1.0, 7.0, 2.0, "interior", ""),
    (1e306, 3e306, 1.0, "ground_state", f"{_GROUND}; {_OVERFLOW}"),
    (1e307, 3.1e307, 1.0, "interior", _OVERFLOW),
)


@pytest.mark.parametrize("u, v, kappa, cls, notes", _BOX_GRID)
def test_box_report_grid(u, v, kappa, cls, notes):
    tol = 1e-9
    rep = box_report(u, v, kappa=kappa, tol=tol)
    assert (rep.classification, rep.notes) == (cls, notes)
    if cls in ("infeasible", "zero", "empty_feasible_set"):
        h_star = math.inf if cls == "infeasible" else 0.0
        achieved = {"infeasible": (None, None), "zero": (0.0, 0.0)}.get(cls, (0.0, None))
        assert (rep.h_star, rep.fit, rep.dual, rep.achieved) == (h_star, None, None, achieved)
        return
    fit = fit_gibbs(box(kappa), u, v, tol=tol)
    assert rep.fit == fit and rep.achieved == fit.achieved
    assert rep.dual == (None if cls == "ground_state" else (fit.dual_x, fit.dual_y))
    assert rep.h_star == fit.entropy_value
    if math.isfinite(rep.h_star):
        # the conjugate h* it attains, by the unit quadratic's ratio solve
        conj = box_conjugate(u, v, tol=tol, kappa=kappa)
        assert abs(rep.h_star - conj) <= 4.0 * tol * max(1.0, u, v)
    else:
        with pytest.raises(NumericError, match="passed float64"):
            box_conjugate(u, v, tol=tol, kappa=kappa)
