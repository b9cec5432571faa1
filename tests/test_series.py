"""Certified series evaluation: closed forms, brackets, domain rules."""

import math

import numpy as np
import pytest

from gibbs_series import sequences, series
from gibbs_series import (
    BoundaryClass,
    BudgetExceededError,
    DomainError,
    Family,
    box,
    custom,
    domain_info,
    enumerate_box,
    eval_series,
    linear,
    log_f,
    logfam,
    loglog,
    phi,
    power,
    quadratic,
    sigma_values,
)


def brute_partial(seq, y, p, n_terms):
    """Plain partial sum, independent of the certified engine."""
    ns = np.arange(seq.start_index, seq.start_index + n_terms, dtype=np.int64)
    s = sigma_values(seq, ns)
    return float(np.sum(s ** p * np.exp(s * y)))


def plain_sigma(seq, ns):
    """Exponents from out-of-place numpy expressions (the in-place build's reference)."""
    x = ns.astype(np.float64)
    if seq.family is Family.POWER:
        return x ** seq.theta
    if seq.family is Family.QUADRATIC:
        return x * x
    if seq.family is Family.LOGFAM:
        lx = np.log(x)
        return lx + seq.theta * np.log(lx)
    if seq.family is Family.BOX:
        return seq.kappa * sequences._BOX.levels_array()[ns - 1].astype(np.float64)
    assert seq.family is Family.LINEAR
    return x


class TestClosedForms:
    def test_geometric_value(self):
        ev = eval_series(linear(), -math.log(2.0), 0, tol=1e-13)
        assert ev.value == pytest.approx(1.0, abs=1e-13)
        assert ev.tail_bound <= 1e-13

    def test_geometric_derivative(self):
        ev = eval_series(linear(), -math.log(2.0), 1, tol=1e-12)
        assert ev.midpoint == pytest.approx(2.0, abs=1e-12)

    def test_geometric_grid(self):
        for y in np.linspace(-10.0, -0.05, 25):
            closed = math.exp(y) / (1.0 - math.exp(y))
            ev = eval_series(linear(), float(y), 0, tol=2.5e-13 * closed)
            assert abs(ev.midpoint - closed) / closed <= 1e-12

    def test_quadratic_at_minus_one(self):
        # frozen from the brute-force oracle below
        brute = sum(math.exp(-n * n) for n in range(1, 25))
        ev = eval_series(quadratic(), -1.0, 0, tol=1e-9)
        assert brute == pytest.approx(0.3863186024133261, abs=1e-13)
        assert ev.value <= brute <= ev.value + ev.tail_bound
        assert ev.midpoint == pytest.approx(0.3863186, abs=1e-6)

    def test_custom_even_gaps(self):
        seq = custom(lambda n: 2.0 * n, declared_alpha=0.0, declared_gap=2.0)
        y = -0.4
        z = math.exp(2.0 * y)
        ev = eval_series(seq, y, 0, tol=1e-12)
        assert ev.midpoint == pytest.approx(z / (1.0 - z), abs=1e-12)


class TestBracketing:
    @pytest.mark.parametrize(
        "seq,y,p",
        [
            (linear(), -0.7, 0),
            (linear(), -0.31, 2),
            (power(1.5), -0.9, 1),
            (power(0.7), -0.8, 0),
            (power(0.7), -1.3, 1),
            (quadratic(), -0.15, 0),
            (quadratic(), -0.6, 3),
        ],
    )
    def test_value_brackets_bigger_truncation(self, seq, y, p):
        ev = eval_series(seq, y, p, tol=1e-10)
        n_terms = 10 * (ev.truncation_index - seq.start_index + 1)
        brute = brute_partial(seq, y, p, n_terms)
        assert ev.value <= brute <= ev.value + ev.tail_bound

    def test_logfam_interior_bracket(self):
        ev = eval_series(logfam(3.0), -2.0, 0, tol=1e-10)
        brute = brute_partial(logfam(3.0), -2.0, 0, 10 * ev.truncation_index)
        assert ev.value <= brute <= ev.value + ev.tail_bound

    def test_logfam_boundary_brackets_nest(self):
        # integral-corrected brackets at two tolerances must be consistent
        loose = eval_series(logfam(3.0), -1.0, 0, tol=1e-6)
        tight = eval_series(logfam(3.0), -1.0, 0, tol=1e-10)
        assert tight.tail_bound < loose.tail_bound
        lo = max(loose.value, tight.value)
        hi = min(loose.upper, tight.upper)
        assert lo <= hi  # overlapping enclosures of the same number

    def test_box_matches_flattened_brute(self):
        y = -1.0
        ev = eval_series(box(1.0), y, 0, tol=1e-10)
        brute = math.fsum(math.exp(s * y) for _, s in enumerate_box(1.0, 4000))
        assert ev.value - 1e-15 <= brute <= ev.value + ev.tail_bound

    @pytest.mark.parametrize("p", [1, 2])
    def test_box_derivatives_match_flattened_brute(self, p):
        y = -0.8
        ev = eval_series(box(1.0), y, p, tol=1e-9)
        brute = math.fsum(s ** p * math.exp(s * y) for _, s in enumerate_box(1.0, 6000))
        assert ev.value - 1e-12 <= brute <= ev.value + ev.tail_bound

    def test_box_high_order_refused(self):
        with pytest.raises(ValueError):
            eval_series(box(1.0), -1.0, 3, tol=1e-6)

    def test_roundoff_floor_fails_fast(self):
        # absolute tolerance below the float64 accumulation floor
        with pytest.raises(BudgetExceededError) as exc:
            eval_series(linear(), -0.3, 1, tol=1e-16)
        assert exc.value.best.tail_bound > 1e-16

    def test_edge_roundoff_floor_fails_fast(self):
        # the certified edge width is below the rounding slack after one block
        with pytest.raises(BudgetExceededError, match="accumulation floor") as exc:
            eval_series(logfam(50.0), -1.0, 0, tol=1e-18)
        assert exc.value.best.truncation_index == 4098


# y per family so that over 10^6 indices the terms neither all underflow
# nor stay flat
KERNEL_CASES = [
    (linear(), -1e-5),
    (power(0.7), -1e-3),
    (power(1.6), -1e-9),
    (quadratic(), -1e-11),
    (logfam(3.0), -1.0),
    (box(0.8), -1e-4),
]


class TestKernel:
    """The chunked in-place kernel gives the plain expression's bits."""

    @pytest.mark.parametrize("count", [1000, series._CHUNK, 1_000_037])
    @pytest.mark.parametrize("seq,y", KERNEL_CASES, ids=str)
    def test_block_sum_matches_plain_sum(self, seq, y, count, monkeypatch):
        if seq.family is Family.BOX:
            # a fresh table, so the million-triple one is dropped afterwards
            monkeypatch.setattr(sequences, "_BOX", sequences._BoxTable())
        first = seq.start_index + 5
        stop = first + count
        for p in (0, 1, 2):
            got = series._block_sum(seq, y, p, first, stop)
            s = plain_sigma(seq, np.arange(first, stop, dtype=np.int64))
            assert got == float(np.sum(s ** p * np.exp(s * y)))

    def test_sum_blocks_adds_block_sums_in_order(self):
        seq, y, p, budget = logfam(3.0), -1.0, 1, 300_000

        def no_certificate(seq, y, p, n):
            return 0.0, math.inf

        with pytest.raises(BudgetExceededError) as exc:
            series._sum_blocks(seq, y, p, 1e-9, budget, 4096, no_certificate, edge=True)
        total, first, block = 0.0, seq.start_index, 4096
        stop = seq.start_index + budget
        while first < stop:
            s = plain_sigma(seq, np.arange(first, min(first + block, stop), dtype=np.int64))
            total += float(np.sum(s ** p * np.exp(s * y)))
            first += block
            block *= 2
        best = exc.value.best
        assert best.truncation_index == stop - 1
        assert best.value == total - series._roundoff(total, budget)

    @pytest.mark.parametrize(
        "seq",
        [
            linear(),
            power(0.7),
            power(1.6),
            quadratic(),
            logfam(3.0),
            loglog(),
            box(0.8),
            custom(lambda n: 2.0 * n, declared_alpha=0.0, declared_gap=2.0),
        ],
        ids=str,
    )
    def test_sigma_values_leave_indices_alone(self, seq):
        # box levels are looked up by integer index only
        dtypes = (np.int64,) if seq.family is Family.BOX else (np.int64, np.float64)
        for dtype in dtypes:
            ns = np.arange(seq.start_index, seq.start_index + 100, dtype=dtype)
            kept = ns.copy()
            out = sigma_values(seq, ns)
            assert np.array_equal(ns, kept)
            assert out.dtype == np.float64 and not np.shares_memory(out, ns)


class TestShapeProperties:
    def test_convexity_probe(self):
        for seq in (linear(), quadratic(), power(0.7), box(1.0)):
            ys = np.linspace(-3.0, -0.4, 9)
            f = [eval_series(seq, float(y), 0, tol=1e-11).midpoint for y in ys]
            for i in range(1, len(ys) - 1):
                t = (ys[i] - ys[i - 1]) / (ys[i + 1] - ys[i - 1])
                chord = (1 - t) * f[i - 1] + t * f[i + 1]
                assert f[i] < chord + 1e-11

    def test_phi_strictly_increasing(self):
        for seq in (linear(), quadratic(), power(1.5), box(1.0)):
            ys = np.linspace(-4.0, -0.3, 12)
            vals = [phi(seq, float(y), tol=1e-12) for y in ys]
            assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_phi_geometric_closed_form(self):
        # f'/f = 1/(1 - e^y) for the unit-gap sequence
        y = -math.log(2.0)
        assert phi(linear(), y, tol=1e-13) == pytest.approx(2.0, rel=1e-12)

    def test_phi_limits_for_squares(self):
        assert abs(phi(quadratic(), -50.0, tol=1e-13) - 1.0) <= 1e-15
        assert phi(quadratic(), -0.05, tol=1e-10) > 10.0

    def test_phi_above_smallest_exponent(self):
        for seq in (linear(), quadratic(), box(0.5), logfam(3.0)):
            smallest = sigma_values(seq, np.array([seq.start_index]))[0]
            assert phi(seq, -4.0 * max(1.0, seq.start_index), tol=1e-10) > smallest

    def test_vanishing_at_minus_infinity(self):
        for seq in (linear(), quadratic(), power(1.5), box(1.0)):
            s0 = sigma_values(seq, np.array([seq.start_index]))[0]
            ev0 = eval_series(seq, -40.0, 0, tol=1e-30)
            ev1 = eval_series(seq, -40.0, 1, tol=1e-30)
            assert ev0.upper <= 2.0 * math.exp(-40.0 * s0)
            assert ev1.upper <= 2.0 * (s0 + 1.0) ** 2 * math.exp(-40.0 * s0)


class TestDomainInfo:
    def test_open_families(self):
        for seq in (linear(), power(1.0), power(0.5), quadratic(), box(2.0)):
            di = domain_info(seq)
            assert di.alpha == 0.0
            assert di.boundary_class is BoundaryClass.OPEN_BOUNDARY
            assert di.gamma == math.inf

    def test_logfam_classes(self):
        di = domain_info(logfam(0.5))
        assert (di.alpha, di.boundary_class) == (1.0, BoundaryClass.OPEN_BOUNDARY)
        assert di.gamma == math.inf

        di = domain_info(logfam(1.5))
        assert di.boundary_class is BoundaryClass.CLOSED_INFINITE_SLOPE
        assert di.gamma == math.inf
        assert math.isfinite(di.f_at_boundary)

        di = domain_info(logfam(3.0))
        assert di.boundary_class is BoundaryClass.CLOSED_FINITE_SLOPE
        assert math.isfinite(di.gamma) and di.gamma > 0
        assert di.gamma_err <= 1e-8

    def test_logfam_theta_edges(self):
        assert domain_info(logfam(1.0)).boundary_class is BoundaryClass.OPEN_BOUNDARY
        assert (
            domain_info(logfam(2.0)).boundary_class
            is BoundaryClass.CLOSED_INFINITE_SLOPE
        )

    def test_empty_domain(self):
        di = domain_info(loglog())
        assert di.empty

    def test_gamma_consistent_across_budgets(self):
        # two independent bracket computations must overlap
        a = eval_series(logfam(3.0), -1.0, 1, tol=1e-6, max_terms=300_000)
        b = eval_series(logfam(3.0), -1.0, 1, tol=1e-9)
        assert max(a.value, b.value) <= min(a.upper, b.upper)


class TestDomainRules:
    def test_empty_domain_eval(self):
        with pytest.raises(DomainError) as exc:
            eval_series(loglog(), -5.0, 0, tol=1e-6)
        assert exc.value.info.empty

    def test_beyond_edge(self):
        with pytest.raises(DomainError):
            eval_series(linear(), 0.5, 0, tol=1e-6)
        with pytest.raises(DomainError):
            eval_series(logfam(3.0), -0.9, 0, tol=1e-6)

    def test_open_edge_refused(self):
        with pytest.raises(DomainError):
            eval_series(linear(), 0.0, 0, tol=1e-6)
        with pytest.raises(DomainError):
            eval_series(logfam(0.5), -1.0, 0, tol=1e-6)

    def test_closed_edge_orders(self):
        # infinite-slope edge: value only
        assert eval_series(logfam(1.5), -1.0, 0, tol=1e-8).tail_bound <= 1e-8
        with pytest.raises(DomainError):
            eval_series(logfam(1.5), -1.0, 1, tol=1e-6)
        # finite-slope edge: value and first derivative, nothing higher
        assert eval_series(logfam(3.0), -1.0, 1, tol=1e-7).tail_bound <= 1e-7
        with pytest.raises(DomainError):
            eval_series(logfam(3.0), -1.0, 2, tol=1e-6)

    def test_budget_exceeded_carries_best(self):
        with pytest.raises(BudgetExceededError) as exc:
            eval_series(logfam(3.0), -1.02, 0, tol=1e-10, max_terms=50_000)
        best = exc.value.best
        assert best.value > 0.0
        assert best.tail_bound > 1e-10

    def test_env_budget_override(self, monkeypatch):
        monkeypatch.setenv("GIBBS_SERIES_MAX_TERMS", "2000")
        with pytest.raises(BudgetExceededError):
            eval_series(logfam(3.0), -1.02, 0, tol=1e-10)


class TestLogF:
    def test_log_f_matches_eval(self):
        y = -0.8
        f = eval_series(linear(), y, 0, tol=1e-14).midpoint
        assert log_f(linear(), y, tol=1e-12) == pytest.approx(math.log(f), abs=1e-12)
