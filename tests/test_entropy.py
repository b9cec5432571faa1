"""Entropy minimization: Gibbs laws, plateau and alternating witnesses."""

import math
import tracemalloc

import numpy as np
import pytest

from gibbs_series import (
    FitStatus,
    InfeasibleError,
    Regime,
    WitnessBudgetError,
    alternating_attainment,
    alternating_witness,
    box,
    box_conjugate,
    conjugate,
    domain_info,
    fit_gibbs,
    gibbs_ratio,
    linear,
    log_f_conjugate,
    logfam,
    max_terms_budget,
    min_entropy_moment,
    parse_sequence,
    parse_varsigma,
    plateau_witness,
    power,
    primal_truncated,
    quadratic,
    sigma,
    sigma_values,
)
from gibbs_series import sequences
from gibbs_series.conjugate import _log_conjugate


def entropy_of(weights):
    w = np.asarray(weights)
    w = w[w > 0]
    return float(np.sum(w * (np.log(w) - 1.0)))


class TestGibbsRatio:
    def test_needs_positive_moment(self):
        with pytest.raises(ValueError, match="ratio defined for u > 0"):
            gibbs_ratio(0.0)

    def test_half_at_two(self):
        assert gibbs_ratio(2.0) == pytest.approx(0.5, abs=1e-15)

    def test_solves_moment_equation(self):
        for u in (0.3, 1.0, 7.5):
            z = gibbs_ratio(u)
            assert 0.0 < z < 1.0
            assert z / (1.0 - z) ** 2 == pytest.approx(u, rel=1e-12)


class TestSingleMoment:
    def test_unit_gap_closed_form(self):
        fit = min_entropy_moment(linear(), 2.0, tol=1e-12)
        assert fit.status is FitStatus.INTERIOR_UNIQUE
        assert fit.dual_y == pytest.approx(-math.log(2.0), abs=1e-12)
        assert fit.entropy_value == pytest.approx(-1.0 - 2.0 * math.log(2.0), abs=1e-11)
        for n in range(1, 20):
            assert fit.weights[n - 1] == pytest.approx(0.5 ** n, abs=1e-12)

    def test_interior_fit_next_to_theta_1(self):
        # logfam:1.0000001's edge sum f(-1) to 1e-8 needs more than the term
        # budget; the fit's root at y ~ -1.52 reads no edge value
        fit = min_entropy_moment(logfam(1.0000001), 1.0)
        assert fit.status is FitStatus.INTERIOR_UNIQUE

    def test_zero_moment(self):
        fit = min_entropy_moment(quadratic(), 0.0)
        assert fit.status is FitStatus.INTERIOR_UNIQUE
        assert fit.entropy_value == 0.0
        assert fit.weights is None

    def test_negative_infeasible(self):
        fit = min_entropy_moment(linear(), -1.0)
        assert fit.status is FitStatus.INFEASIBLE

    def test_plateau_not_attained(self):
        seq = logfam(3.0)
        di = domain_info(seq)
        u = di.gamma + 0.5
        fit = min_entropy_moment(seq, u)
        assert fit.status is FitStatus.PLATEAU_NON_ATTAINED
        assert fit.weights is None
        assert fit.entropy_value == pytest.approx(-u - di.f_at_boundary, abs=1e-12)

    def test_boundary_moment_attained(self):
        seq = logfam(3.0)
        di = domain_info(seq)
        fit = min_entropy_moment(seq, di.gamma, tol=1e-6)
        assert fit.status is FitStatus.INTERIOR_UNIQUE
        assert fit.dual_y == -1.0
        ws = np.asarray(fit.weights[:50])
        ss = sigma_values(seq, np.asarray(fit.indices[:50]))
        assert ws == pytest.approx(np.exp(-ss), rel=1e-13)

    def test_duality_consistency(self):
        for seq, u in [(linear(), 2.0), (quadratic(), 1.5), (box(1.0), 0.8), (power(1.5), 2.4)]:
            fit = min_entropy_moment(seq, u, tol=1e-10)
            cv = conjugate(seq, u, tol=1e-10)
            assert fit.entropy_value == pytest.approx(cv.value, abs=1e-9)

    def test_materialized_entropy_matches_value(self):
        fit = min_entropy_moment(linear(), 2.0, tol=1e-12)
        # prefix entropy plus a crumb for the tail reproduces the value
        assert entropy_of(fit.weights) == pytest.approx(fit.entropy_value, abs=1e-10)


class TestTwoMoments:
    def test_unit_gap_mass_energy(self):
        fit = fit_gibbs(linear(), 1.0, 2.0, tol=1e-12)
        assert fit.status is FitStatus.INTERIOR_UNIQUE
        assert fit.dual_x == pytest.approx(0.0, abs=1e-12)
        assert fit.dual_y == pytest.approx(-math.log(2.0), abs=1e-12)
        assert fit.entropy_value == pytest.approx(-1.0 - 2.0 * math.log(2.0), abs=1e-11)
        for n in range(1, 31):
            assert fit.weights[n - 1] == pytest.approx(0.5 ** n, abs=1e-10)

    def test_gibbs_form_exact_by_construction(self):
        fit = fit_gibbs(quadratic(), 1.3, 3.1, tol=1e-10)
        ss = sigma_values(quadratic(), np.asarray(fit.indices))
        assert np.allclose(
            np.log(np.asarray(fit.weights)), fit.dual_x + ss * fit.dual_y,
            rtol=0.0, atol=1e-12,
        )

    def test_moment_residuals(self):
        fit = fit_gibbs(quadratic(), 1.3, 3.1, tol=1e-10)
        assert fit.achieved[0] == pytest.approx(1.3, abs=1e-10)
        assert fit.achieved[1] == pytest.approx(3.1, abs=1e-9)

    def test_box_ground_state(self):
        fit = fit_gibbs(box(1.0), 1.0, 3.0)
        assert fit.status is FitStatus.BOUNDARY_SINGLETON
        assert fit.indices.tolist() == [[1, 1, 1]]
        assert fit.entropy_value == pytest.approx(-1.0, abs=1e-14)

    def test_fit_indices_are_read_only_table_rows(self):
        fit = fit_gibbs(box(1.0), 1.0, 4.0, tol=1e-10)
        table = sequences._box_table_holding(len(fit.weights))[0]
        assert fit.indices.shape == (len(fit.weights), 3)
        assert np.array_equal(fit.indices, table[: len(fit.weights)])
        before = table[: len(fit.weights)].tolist()
        with pytest.raises(ValueError):
            fit.indices[0, 0] = 7
        assert table[: len(fit.weights)].tolist() == before
        for seq in (linear(), power(1.5)):
            fit = min_entropy_moment(seq, 1.5)
            first = seq.start_index
            assert np.array_equal(fit.indices, np.arange(first, first + len(fit.weights)))
            with pytest.raises(ValueError):
                fit.indices[0] = 7
        assert fit_gibbs(linear(), 1.0, 1.0).indices.tolist() == [1]

    def test_cold_box_fit_peaks_at_most_2_mib(self):
        # the fill of the 46,115 triples to level 2048 peaks at 1.87 MiB;
        # the weights then take the place of the prefix's exponents, so
        # the 1.41 MiB table and one 0.35 MiB array stay below it
        sequences._box_table.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            fit = fit_gibbs(box(0.2627), 1.0, 20.7037)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert fit.status is FitStatus.INTERIOR_UNIQUE
        assert len(fit.weights) == 46_115
        assert peak <= 2 * 2**20

    @pytest.mark.parametrize("seq, v", [(box(0.2627), 20.7037), (linear(), 4.0)], ids=["box", "linear"])
    def test_repeated_fits_leave_the_tables_alone(self, seq, v):
        # the weights are formed in place in the prefix's own exponents,
        # never in the cached box table the exponents are read from
        first = fit_gibbs(seq, 1.0, v)
        table = [a.copy() for a in sequences._box_table_holding(46_115)]
        second = fit_gibbs(seq, 1.0, v)
        assert first == second
        assert np.array_equal(first.weights, second.weights)
        assert not np.shares_memory(first.weights, second.weights)
        after = sequences._box_table_holding(46_115)
        assert all(np.array_equal(a, b) for a, b in zip(table, after))

    def test_box_interior_duality(self):
        fit = fit_gibbs(box(1.0), 1.0, 4.0, tol=1e-10)
        assert fit.status is FitStatus.INTERIOR_UNIQUE
        assert fit.entropy_value == pytest.approx(
            box_conjugate(1.0, 4.0, tol=1e-12), abs=1e-9
        )

    def test_huge_mass_past_the_exp_overflow(self):
        # x = ln u - ln f(y) lies past 709.78, where exp(x) alone overflows
        fit = fit_gibbs(box(1.0), 1e307, 3.1e307)
        assert fit.status is FitStatus.INTERIOR_UNIQUE and fit.dual_x > 709.79
        assert fit.achieved[0] == 1e307
        assert fit.achieved[1] == pytest.approx(3.1e307, rel=1e-12)
        assert np.all(np.isfinite(fit.weights)) and math.isfinite(fit.tail_energy)
        assert float(np.sum(fit.weights)) == pytest.approx(1e307, rel=1e-12)
        assert 0.0 < fit.tail_mass < 1e-12 * 1e307

    def test_entropy_past_float64_is_flagged(self):
        # (x - 1) u + y v passes float64 at this mass, and so does u (ln u - 1)
        # on the ground ray; a finite entropy leaves the reason alone
        fit = fit_gibbs(box(1.0), 1e307, 3.1e307)
        assert fit.entropy_value == math.inf and fit.reason == "entropy passed float64: inf"
        fit = fit_gibbs(box(1.0), 1e306, 3e306)
        assert fit.status is FitStatus.BOUNDARY_SINGLETON and fit.entropy_value == math.inf
        assert fit.reason == (
            "ratio at the minimal exponent: all mass on the ground level; "
            "entropy passed float64: inf"
        )
        assert fit_gibbs(box(1.0), 1e305, 4e305).reason == ""
        assert fit_gibbs(box(1.0), 1e305, 3e305).reason.endswith("ground level")

    def test_ratio_below_minimum_infeasible(self):
        fit = fit_gibbs(box(1.0), 1.0, 2.0)
        assert fit.status is FitStatus.INFEASIBLE
        assert "ratio" in fit.reason

    def test_zero_mass_cases(self):
        fit = fit_gibbs(linear(), 0.0, 0.0)
        assert fit.status is FitStatus.INTERIOR_UNIQUE
        assert fit.entropy_value == 0.0
        fit = fit_gibbs(linear(), 0.0, 2.0)
        assert fit.status is FitStatus.INFEASIBLE
        assert "conjugate" in fit.reason  # the value-0-without-weights anomaly

    def test_negative_infeasible(self):
        assert fit_gibbs(linear(), -1.0, 1.0).status is FitStatus.INFEASIBLE
        assert fit_gibbs(linear(), 1.0, -1.0).status is FitStatus.INFEASIBLE

    def test_ratio_beyond_closed_edge_is_plateau(self):
        seq = logfam(3.0)
        di = domain_info(seq)
        ratio_sup = di.gamma / di.f_at_boundary
        u = 1.0
        v = u * (ratio_sup + 0.5)
        fit = fit_gibbs(seq, u, v)
        assert fit.status is FitStatus.PLATEAU_NON_ATTAINED
        expect = u * (math.log(u) - 1.0) - v - u * math.log(di.f_at_boundary)
        assert fit.entropy_value == pytest.approx(expect, abs=1e-10)

    def test_ratio_at_closed_edge_is_attained(self):
        # the supremum ratio itself is carried by the boundary law
        seq = logfam(3.0)
        di = domain_info(seq)
        ratio_sup = di.gamma / di.f_at_boundary
        fit = fit_gibbs(seq, 2.0, 2.0 * ratio_sup)
        assert fit.status is FitStatus.INTERIOR_UNIQUE
        assert fit.dual_y == -1.0
        assert fit.dual_x == pytest.approx(
            math.log(2.0) - math.log(di.f_at_boundary), abs=1e-12
        )
        ws = np.asarray(fit.weights[:20])
        ss = sigma_values(seq, np.asarray(fit.indices[:20]))
        assert ws == pytest.approx(np.exp(fit.dual_x - ss), rel=1e-13)

    def test_fit_meets_its_own_tolerance(self):
        # ln f(y) is asked to the fit's tolerance, which the float64
        # accumulation floor of this sum allows, not to a fixed 1e-13
        seq = logfam(3.0)
        fit = fit_gibbs(seq, 1.5, 3.0)
        assert fit.status is FitStatus.INTERIOR_UNIQUE
        expect = 1.5 * (math.log(1.5) - 1.0) + 1.5 * log_f_conjugate(seq, 2.0)
        assert fit.entropy_value == pytest.approx(expect, abs=1e-9 * 1.5)

    def test_uniqueness_perturbation(self):
        # moving mass along the two-constraint null space raises entropy
        fit = fit_gibbs(linear(), 1.0, 2.0, tol=1e-12)
        w = np.asarray(fit.weights[:3])
        direction = np.array([1.0, -2.0, 1.0])  # kills mass and energy moments
        base = entropy_of(w)
        for eps in (1e-3, -1e-3):
            assert entropy_of(w + eps * direction) > base


def _edge_ratio(seq):
    """The edge ratio gamma/f(-alpha) and its certified error."""
    di = domain_info(seq)
    f_edge = di.f_at_boundary
    err = di.gamma_err / f_edge + di.gamma * di.f_boundary_err / f_edge ** 2
    return di.gamma / f_edge, err


def _at_s_min(seq):
    return 2.0 * sigma(seq, seq.start_index)  # v at u = 2, where v/u is exact


def _value(seq, x):
    return x(seq) if callable(x) else x


# (family, u, v or v of the sequence, regime of (ln f)*(v/u)): below s_min,
# at s_min, interior, and logfam:3's edge band and plateau
RATIO_GRID = [
    ("linear", 2.0, 1.0, Regime.INFINITE),
    ("linear", 2.0, _at_s_min, Regime.ZERO),
    ("linear", 1.5, 4.0, Regime.INTERIOR),
    ("power:0.7", 1.0, 0.5, Regime.INFINITE),
    ("power:0.7", 2.0, _at_s_min, Regime.ZERO),
    ("power:0.7", 1.2, 3.0, Regime.INTERIOR),
    ("quadratic", 1.0, 0.9, Regime.INFINITE),
    ("quadratic", 2.0, _at_s_min, Regime.ZERO),
    ("quadratic", 1.3, 3.1, Regime.INTERIOR),
    ("box:0.8", 1.0, 2.3, Regime.INFINITE),
    ("box:0.8", 2.0, _at_s_min, Regime.ZERO),
    ("box:0.8", 1.0, 4.0, Regime.INTERIOR),
    ("logfam:3", 1.0, 1.3, Regime.INFINITE),
    ("logfam:3", 2.0, _at_s_min, Regime.ZERO),
    ("logfam:3", 1.5, 3.0, Regime.INTERIOR),
    ("logfam:3", 1.0, lambda q: _edge_ratio(q)[0] - 0.5 * _edge_ratio(q)[1], Regime.BOUNDARY_GAMMA),
    ("logfam:3", 1.0, lambda q: _edge_ratio(q)[0] + 0.5, Regime.PLATEAU),
]

# (family, u or u of the sequence, regime of f*(u)); logfam:3's interior
# point stays away from the edge, where the slope walks exhaust the budget
MOMENT_GRID = [
    ("linear", -1.0, Regime.NEGATIVE_U),
    ("linear", 0.0, Regime.ZERO),
    ("linear", 2.0, Regime.INTERIOR),
    ("power:0.7", 1.4, Regime.INTERIOR),
    ("quadratic", 1.5, Regime.INTERIOR),
    ("box:0.8", 0.8, Regime.INTERIOR),
    ("logfam:3", -1.0, Regime.NEGATIVE_U),
    ("logfam:3", 0.0, Regime.ZERO),
    ("logfam:3", 0.3, Regime.INTERIOR),
    ("logfam:3", lambda q: domain_info(q).gamma, Regime.BOUNDARY_GAMMA),
    ("logfam:3", lambda q: domain_info(q).gamma + 0.5, Regime.PLATEAU),
]

RATIO_STATUS = {
    Regime.INFINITE: FitStatus.INFEASIBLE,
    Regime.ZERO: FitStatus.BOUNDARY_SINGLETON,
    Regime.INTERIOR: FitStatus.INTERIOR_UNIQUE,
    Regime.BOUNDARY_GAMMA: FitStatus.INTERIOR_UNIQUE,
    Regime.PLATEAU: FitStatus.PLATEAU_NON_ATTAINED,
}
MOMENT_STATUS = {
    Regime.NEGATIVE_U: FitStatus.INFEASIBLE,
    Regime.ZERO: FitStatus.INTERIOR_UNIQUE,
    Regime.INTERIOR: FitStatus.INTERIOR_UNIQUE,
    Regime.BOUNDARY_GAMMA: FitStatus.INTERIOR_UNIQUE,
    Regime.PLATEAU: FitStatus.PLATEAU_NON_ATTAINED,
}


class TestConjugateAgreement:
    """The fits read their regimes off the conjugates: min entropy = f*(u)
    for one moment and u(ln u - 1) + u (ln f)*(v/u) for two."""

    TOL = 1e-9

    @pytest.mark.parametrize(
        "spec, u, v, regime", RATIO_GRID,
        ids=[f"{g[0]}-{g[3].value}" for g in RATIO_GRID],
    )
    def test_two_moment_fit(self, spec, u, v, regime):
        seq = parse_sequence(spec)
        v = _value(seq, v)
        assert _log_conjugate(seq, v, self.TOL, None, u=u).regime is regime
        fit = fit_gibbs(seq, u, v, tol=self.TOL)
        assert fit.status is RATIO_STATUS[regime]
        value = log_f_conjugate(seq, v / u, tol=self.TOL)
        if regime is Regime.INFINITE:
            assert value == math.inf
        else:
            expect = u * (math.log(u) - 1.0) + u * value
            assert fit.entropy_value == pytest.approx(expect, abs=self.TOL * max(1.0, u))

    @pytest.mark.parametrize(
        "spec, u, regime", MOMENT_GRID,
        ids=[f"{g[0]}-{g[2].value}" for g in MOMENT_GRID],
    )
    def test_one_moment_fit(self, spec, u, regime):
        seq = parse_sequence(spec)
        u = _value(seq, u)
        cv = conjugate(seq, u, tol=self.TOL)
        assert cv.regime is regime
        fit = min_entropy_moment(seq, u, tol=self.TOL)
        assert fit.status is MOMENT_STATUS[regime]
        if regime is not Regime.NEGATIVE_U:
            assert fit.entropy_value == pytest.approx(cv.value, abs=self.TOL * max(1.0, u))


class TestPlateauWitness:
    def test_requires_positive_eps(self):
        with pytest.raises(ValueError, match="eps must be positive"):
            plateau_witness(logfam(3.0), 3.0, 0.0)

    def test_requires_finite_slope(self):
        with pytest.raises(ValueError):
            plateau_witness(linear(), 5.0, 1e-2)

    def test_requires_finite_slope_from_the_rules(self):
        # the class is the family's: no edge sum, which next to theta = 1
        # would exceed the term budget before the usage error
        with pytest.raises(ValueError, match="infinite boundary slope"):
            plateau_witness(logfam(1.0000001), 3.0, 0.1)

    def test_requires_plateau_moment(self):
        seq = logfam(3.0)
        with pytest.raises(ValueError):
            plateau_witness(seq, 0.5, 1e-2)

    def test_achievable_eps(self):
        seq = logfam(3.0)
        g = domain_info(seq).gamma
        wit = plateau_witness(seq, g + 1.0, eps=0.2, max_terms=100_000)
        assert 0.0 <= wit.gap <= 0.2
        # the moment constraint holds exactly (last window weight adjusted)
        ss = sigma_values(seq, wit.indices)
        moment = float(ss @ wit.weights)
        assert moment == pytest.approx(g + 1.0, rel=1e-13)
        assert np.all(wit.weights >= 0.0)
        assert 0.0 < wit.lam < 1.0

    def test_window_multiplier_solves_its_equation(self):
        # lam solves the window equation within the finder's band of
        # 1e-13 relative, and the last weight then makes the moment exact
        seq = logfam(3.0)
        di = domain_info(seq)
        u = di.gamma + 1.0
        wit = plateau_witness(seq, u, eps=0.2, max_terms=100_000)
        ss = sigma_values(seq, wit.indices)
        prefix, window = ss[: -wit.window_len], ss[-wit.window_len :]
        prefix_moment = float(np.sum(prefix * np.exp(-prefix * di.alpha)))
        window_moment = float(np.sum(window * np.exp(-window * wit.lam)))
        assert window_moment == pytest.approx(u - prefix_moment, rel=2e-13)
        assert math.fsum(ss * wit.weights) == pytest.approx(u, rel=1e-15)

    def test_entropy_measures_gap(self):
        seq = logfam(3.0)
        g = domain_info(seq).gamma
        wit = plateau_witness(seq, g + 1.0, eps=0.2, max_terms=100_000)
        assert entropy_of(wit.weights) == pytest.approx(wit.entropy, abs=1e-9)
        assert wit.target == pytest.approx(conjugate(seq, g + 1.0).value, abs=1e-12)

    def test_budget_error_carries_monotone_history(self):
        seq = logfam(3.0)
        g = domain_info(seq).gamma
        with pytest.raises(WitnessBudgetError) as exc:
            plateau_witness(seq, g + 1.0, eps=1e-4, max_terms=300_000)
        best = exc.value.best
        lams = best.lam_history
        gaps = best.gap_history
        assert all(a < b for a, b in zip(lams, lams[1:]))
        assert all(b <= a + 1e-12 for a, b in zip(gaps, gaps[1:]))
        assert all(l < 1.0 for l in lams)
        assert best.gap == min(gaps)

    def test_gap_shrinks_with_budget(self):
        seq = logfam(3.0)
        g = domain_info(seq).gamma
        gaps = []
        for budget in (50_000, 800_000):
            with pytest.raises(WitnessBudgetError) as exc:
                plateau_witness(seq, g + 1.0, eps=1e-6, max_terms=budget)
            gaps.append(exc.value.best.gap)
        assert gaps[1] < gaps[0]

    def test_budget_floor_exceeds_one_percent(self):
        # weights on any K points carry entropy at least f_K*(u), the
        # conjugate of the sum of the first K (largest) terms, so the
        # finite dual optimum at the default budget floors the gap of every
        # witness that budget allows; the floor lies above 1e-2
        seq = logfam(3.0)
        u = domain_info(seq).gamma + 1.0
        sol = primal_truncated(seq, max_terms_budget(), moment=u)
        assert sol.residual <= 1e-8 * u
        assert sol.value - conjugate(seq, u).value > 1e-2

    def test_witness_at_the_boundary_moment(self):
        # at u = gamma the minimum is attained only by the infinite law;
        # a finite list still gets within a measurable, honest gap
        seq = logfam(3.0)
        g = domain_info(seq).gamma
        wit = plateau_witness(seq, g, eps=0.5, max_terms=100_000)
        assert 0.0 <= wit.gap <= 0.5
        ss = sigma_values(seq, wit.indices)
        assert float(ss @ wit.weights) == pytest.approx(g, rel=1e-13)

    def test_requested_prefix_stays_within_the_budget(self, monkeypatch):
        # a prefix past the term budget fails before its weights are made
        from gibbs_series import entropy

        computed = []

        def counted(seq, ns):
            computed.append(len(ns))
            return sigma_values(seq, ns)

        monkeypatch.setattr(entropy, "sigma_values", counted)
        u = domain_info(logfam(3.0)).gamma + 1.0
        with pytest.raises(WitnessBudgetError, match="prefix through n=3000000") as exc:
            plateau_witness(logfam(3.0), u, 0.5, max_terms=100_000, n_prefix=3_000_000)
        assert exc.value.best is None
        assert sum(computed) <= 100_000

    def test_prefix_search_stays_within_the_budget(self, monkeypatch):
        # sigma_n of logfam:3 reaches 25 only past n = 10^7, beyond 10^5
        # terms: the search gives up after a few dozen exponents instead of
        # stepping through millions of indices
        from gibbs_series import entropy

        calls = []

        def counted(seq, n):
            calls.append(n)
            assert len(calls) <= 100, "the prefix search steps index by index"
            return sigma(seq, n)

        monkeypatch.setattr(entropy, "sigma", counted)
        with pytest.raises(WitnessBudgetError, match="within 100000 terms") as exc:
            plateau_witness(logfam(3.0), 25.0, 0.1, max_terms=100_000)
        assert exc.value.best is None
        assert max(calls) <= logfam(3.0).start_index + 100_000 - 1
        # where the prefix fits, it ends at the first index whose exponent
        # reaches u, as a scan would find it
        calls.clear()
        u = 14.5
        n_bar = next(n for n in range(3, 10_000) if sigma(logfam(3.0), n) >= u)
        with pytest.raises(WitnessBudgetError) as exc:
            plateau_witness(logfam(3.0), u, 0.5, max_terms=100_000)
        assert exc.value.best.n_prefix == n_bar == 3609
        assert len(calls) <= 100

    def test_prefix_override(self):
        seq = logfam(3.0)
        g = domain_info(seq).gamma
        wit = plateau_witness(seq, g + 1.0, eps=0.5, max_terms=50_000, n_prefix=50)
        assert wit.n_prefix == 50
        assert wit.gap >= 0.0


class TestAlternatingAttainment:
    def test_square_coefficients_value(self):
        att = alternating_attainment(2.0, parse_varsigma("power:2"), tol=1e-13)
        assert att.convergent
        assert att.value == pytest.approx(-2.0 / 27.0, abs=1e-12)
        assert att.ratio == pytest.approx(0.5, abs=1e-15)

    def test_closed_form_cross_check(self):
        # sum (-1)^n n^2 z^n = -z(1-z)/(1+z)^3 evaluated by substitution
        z = 0.5
        closed = (-z) * (1.0 + (-z)) / (1.0 - (-z)) ** 3
        att = alternating_attainment(2.0, parse_varsigma("power:2"), tol=1e-14)
        assert att.value == pytest.approx(closed, abs=1e-13)

    def test_exp_threshold(self):
        att = alternating_attainment(2.0, parse_varsigma("exp:0.5"))
        assert att.convergent
        assert att.alpha_threshold == pytest.approx(math.log(2.0), abs=1e-15)
        w = -math.exp(0.5) * 0.5
        assert att.value == pytest.approx(w / (1.0 - w), rel=1e-14)
        assert not alternating_attainment(2.0, parse_varsigma("exp:0.7")).convergent

    def test_expsq_divergent(self):
        att = alternating_attainment(2.0, parse_varsigma("expsq"))
        assert not att.convergent
        assert att.value is None


class TestAlternatingWitness:
    def test_requires_positive_eps(self):
        with pytest.raises(ValueError, match="eps must be positive"):
            alternating_witness(2.0, 0.0, 0.0)

    @pytest.mark.parametrize("eps", [1e-1, 1e-2, 1e-3])
    def test_gap_ladder(self, eps):
        wit = alternating_witness(2.0, 0.0, eps)
        assert -1e-12 <= wit.gap <= eps
        assert abs(wit.moment_residuals[0]) <= 1e-12
        assert abs(wit.moment_residuals[1]) <= 1e-10 * wit.signed_scale + 1e-12

    def test_target_is_dual_value(self):
        wit = alternating_witness(2.0, 0.0, 1e-2)
        assert wit.target == pytest.approx(conjugate(linear(), 2.0).value, abs=1e-12)

    def test_attained_case_recovers_gibbs_prefix(self):
        v_bar = -2.0 / 27.0
        gaps = []
        for eps in (1e-2, 1e-4, 1e-6):
            wit = alternating_witness(2.0, v_bar, eps)
            gaps.append(wit.gap)
            # prefix is the Gibbs law; the correction weights vanish
            assert wit.weights[: wit.n_prefix] == pytest.approx(
                [0.5 ** k for k in range(1, wit.n_prefix + 1)], rel=1e-14
            )
            assert max(wit.weights[-2:]) <= 10.0 * eps
        assert gaps[0] > gaps[1] > gaps[2] >= 0.0

    def test_zero_mass_cases(self):
        wit = alternating_witness(0.0, 0.0, 1e-3)
        assert wit.entropy == 0.0 and len(wit.weights) == 0
        with pytest.raises(InfeasibleError):
            alternating_witness(0.0, 1.0, 1e-3)

    def test_other_coefficient_families(self):
        wit = alternating_witness(1.5, 0.3, 1e-3, parse_varsigma("power:3"))
        assert 0.0 <= wit.gap <= 1e-3
        assert abs(wit.moment_residuals[0]) <= 1e-12
        wit = alternating_witness(2.0, 0.5, 1e-2, parse_varsigma("expsq"))
        assert 0.0 <= wit.gap <= 1e-2
        # signed check is ill-conditioned at this coefficient scale;
        # meaningful only relative to the largest term
        assert abs(wit.moment_residuals[1]) <= 1e-12 * wit.signed_scale

    def test_negative_u_rejected(self):
        with pytest.raises(InfeasibleError):
            alternating_witness(-1.0, 0.0, 1e-2)
