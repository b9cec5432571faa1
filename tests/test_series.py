"""Certified series evaluation: closed forms, brackets, domain rules."""

import gc
import math
import sys
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from gibbs_series import sequences, series
from gibbs_series import (
    BoundaryClass,
    BudgetExceededError,
    DomainError,
    Family,
    Regime,
    box,
    box_conjugate,
    box_report,
    conjugate,
    custom,
    domain_info,
    enumerate_box,
    eval_series,
    fit_gibbs,
    linear,
    log_f,
    log_f_conjugate,
    logfam,
    loglog,
    min_entropy_moment,
    phi,
    power,
    quadratic,
    sigma_values,
    tail_bound_after,
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
    if seq.family is Family.LOGLOG:
        return np.log(np.log(x))
    if seq.family is Family.CUSTOM:
        return np.array([float(seq.generator(n)) for n in ns.tolist()])
    if seq.family is Family.BOX:
        levels = sequences._box_table_holding(int(ns.max()))[1]
        return seq.kappa * levels[ns - 1].astype(np.float64)
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
    def test_value_brackets_bigger_truncation(self, seq, y, p, walked):
        ev = eval_series(seq, y, p, tol=1e-10)
        n_terms = 10 * (ev.truncation_index - seq.start_index + 1)
        brute = brute_partial(seq, y, p, n_terms)
        assert ev.value <= brute <= ev.value + ev.tail_bound

    def test_logfam_interior_bracket(self):
        # the lower integral correction puts value above a longer partial
        # sum, so the brute sum is closed with a bound on its own far tail
        seq, y = logfam(3.0), -2.0
        ev = eval_series(seq, y, 0, tol=1e-10)
        n_terms = 10 * ev.truncation_index
        brute = brute_partial(seq, y, 0, n_terms)
        far = tail_bound_after(seq, y, 0, seq.start_index + n_terms - 1)
        assert ev.value <= brute + far
        assert brute <= ev.value + ev.tail_bound

    def test_logfam_huge_theta_stops_the_fraction_before_overflow(self):
        # a = theta y + 1 = -2e300: Legendre's convergents overflow after
        # their first pair, which still brackets the fraction; every term
        # and the tail are far below the smallest normal float
        ev = eval_series(logfam(1e300), -2.0)
        assert -1e-300 < ev.value <= 0.0
        assert 0.0 < ev.upper <= 2.0 * sys.float_info.min
        lo, hi, err = sequences._log_upper_gamma(-2e300, 5.0)
        assert math.isfinite(lo) and lo <= hi and math.isfinite(err)

    def test_logfam_boundary_brackets_nest(self):
        # integral-corrected brackets at two tolerances must be consistent
        loose = eval_series(logfam(3.0), -1.0, 0, tol=1e-6)
        tight = eval_series(logfam(3.0), -1.0, 0, tol=1e-12)
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

    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_box_brackets_contain_theta_reference(self, p, monkeypatch, walked):
        # g(z) = sum_{k>=1} exp(k^2 z) = (theta_3(0, e^z) - 1)/2, taken for
        # |z| < pi through Jacobi's transformation theta_3(0, e^z) =
        # sqrt(pi/-z) theta_3(0, e^(pi^2/z)), and f_box^(p)(y) =
        # kappa^p (g^3)^(p)(kappa y) by 50-digit differentiation.  Below
        # kappa |y| = 1e-3 the first pass is too wide and the retry runs, or
        # is refused where it would ask its factors for a relative width
        # under the 40 u that the product's rounding takes
        mp = pytest.importorskip("mpmath")

        def cube(t):
            if -t < mp.pi:
                theta = mp.sqrt(mp.pi / -t) * mp.jtheta(3, 0, mp.exp(mp.pi ** 2 / t))
            else:
                theta = mp.jtheta(3, 0, mp.exp(t))
            return ((theta - 1) / 2) ** 3

        walks = []
        sum_blocks = series._sum_blocks
        monkeypatch.setattr(series, "_sum_blocks", lambda *args: walks.append(args) or sum_blocks(*args))
        retries = refused = 0
        for kappa in (0.3, 1.0, 2.5):
            for z in (-1e-5, -3e-4, -1e-3, -0.05, -0.7, -4.0):
                y = z / kappa
                for tol, rel in ((1e-9, 0.0), (0.0, 1e-11)):
                    series._walk.cache_clear()
                    walks.clear()
                    try:
                        ev = series._evaluate(box(kappa), y, p, tol, None, rel)
                    except BudgetExceededError as exc:
                        # only a target at the float64 floor of the sum
                        ev = exc.best
                        assert max(tol, rel * ev.value) < 2e-14 * ev.value, (kappa, z)
                        refused += "(a factor: relative width" in str(exc)
                    retries += len(walks) > p + 1
                    with mp.workdps(50):
                        k = mp.mpf(kappa)
                        ref = k ** p * mp.diff(cube, k * mp.mpf(y), p)
                        assert mp.mpf(ev.value) <= ref <= mp.mpf(ev.value) + mp.mpf(ev.tail_bound), (
                            kappa, z, tol, rel,
                        )
        assert retries >= 6 and refused >= 3

    def test_box_factor_walked_at_y_over_scaled_exponents(self, monkeypatch):
        # g(y) = sum_k exp(kappa k^2 y) is walked at the box's own y over
        # the exponents fl(kappa k^2), not at a rounded kappa y
        walks = []
        sum_blocks = series._sum_blocks
        monkeypatch.setattr(series, "_sum_blocks", lambda *args: walks.append(args) or sum_blocks(*args))
        ns = np.arange(1, 200)
        for kappa in (0.37, 1.0, 2.5):
            walks.clear()
            eval_series(box(kappa), -0.25, 2)
            assert {(y, p) for _, y, p, *_ in walks} == {(-0.25, 0), (-0.25, 1), (-0.25, 2)}
            for factor, *_ in walks:
                assert factor.family is Family.QUADRATIC
                want = [kappa * float(n * n) for n in ns.tolist()]
                assert sigma_values(factor, ns).tolist() == want, kappa

    def test_box_high_order_refused(self):
        with pytest.raises(ValueError):
            eval_series(box(1.0), -1.0, 3, tol=1e-6)

    @pytest.mark.parametrize("p", [0, 1])
    def test_box_budget_failure_carries_the_box_bracket(self, p):
        # a tolerance below the factor's accumulation floor fails with the
        # box's own error, whose bracket encloses f_box, not the factor g
        ev = eval_series(box(1.0), -0.5, p)
        with pytest.raises(BudgetExceededError, match="for box:1 at y=-0.5") as info:
            eval_series(box(1.0), -0.5, p, tol=1e-30)
        best = info.value.best
        assert best.value <= ev.upper and ev.value <= best.upper

    def test_box_budget_failure_keeps_the_narrower_pass(self):
        # 1e-9 of a sum near 5.6e18 is out of reach; the first pass's product
        # is 2.8e5 wide, the retry's, from factor walks that fail, 100 times
        # wider, and the error carries the first, which holds the sum
        mp = pytest.importorskip("mpmath")
        with pytest.raises(BudgetExceededError) as info:
            eval_series(box(0.25), -1e-12, 0, tol=1e-9)
        best = info.value.best
        assert best.tail_bound < 3e5
        with mp.workdps(40):
            z = mp.mpf(0.25) * mp.mpf(-1e-12)
            g = (mp.sqrt(mp.pi / -z) * mp.jtheta(3, 0, mp.exp(mp.pi ** 2 / z)) - 1) / 2
            assert mp.mpf(best.value) <= g ** 3 <= mp.mpf(best.value) + mp.mpf(best.tail_bound)

    @pytest.mark.parametrize(
        "seq,y,which",
        [(linear(), -1e-6, "closed form's"), (quadratic(), -1e-12, "walk's")],
        ids=str,
    )
    def test_budget_failure_carries_the_narrower_bracket(self, seq, y, which):
        # the closed form misses 1e-9 and the walk fails: linear's closed
        # form is narrower than the walk's 45.4 after 10^7 terms, the
        # quadratic walk's float64 floor 6.5e-9 than its closed form's 1.42e-8
        mp = pytest.importorskip("mpmath")
        with pytest.raises(BudgetExceededError, match=f"; carried: the {which} bracket") as info:
            eval_series(seq, y)
        best = info.value.best
        assert (best.truncation_index < seq.start_index) == (which == "closed form's")
        assert best.tail_bound < 1e-8
        with mp.workdps(40):
            if seq.family is Family.LINEAR:
                f = 1 / mp.expm1(-mp.mpf(y))
            else:
                f = (mp.sqrt(mp.pi / -mp.mpf(y)) * mp.jtheta(3, 0, mp.exp(mp.pi ** 2 / mp.mpf(y))) - 1) / 2
            assert mp.mpf(best.value) <= f <= mp.mpf(best.value) + mp.mpf(best.tail_bound)

    def test_box_retry_below_the_float_floor_is_refused(self, monkeypatch):
        # a retry would ask its factors for 1e-9/(4 H) ~ 4.5e-29 of their
        # size, below any walk's float64 floor: the first pass's bracket is
        # raised at once, and no factor block is walked
        blocks = []
        kernel = series._block_sum
        monkeypatch.setattr(series, "_block_sum", lambda *args: blocks.append(args) or kernel(*args))
        series._walk.cache_clear()
        refused = r"\(a factor: relative width 4.4\d*e-29 is below 1.11022e-15 for quadratic \(kappa=0.25\) at y=-1e-12\)$"
        with pytest.raises(BudgetExceededError, match=refused):
            eval_series(box(0.25), -1e-12, 0, tol=1e-9)
        assert not blocks

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
    (loglog(), -1.0),
    (box(0.8), -1e-4),
    (custom(lambda n: 1.5 * n + 0.25, declared_alpha=0.0, declared_gap=1.5), -1e-5),
]


class TestKernel:
    """The chunked in-place kernel gives the plain expression's bits."""

    @pytest.mark.parametrize("count", [1000, series._CHUNK, 1_000_037])
    @pytest.mark.parametrize("seq,y", KERNEL_CASES, ids=str)
    def test_block_sum_matches_plain_sum(self, seq, y, count, request):
        if seq.family is Family.BOX:
            # the million-triple table is dropped afterwards
            request.addfinalizer(sequences._box_table.cache_clear)
        first = seq.start_index + 5
        stop = first + count
        s = plain_sigma(seq, np.arange(first, stop, dtype=np.int64))
        for p in (0, 1, 2, 3):
            got, s_last = series._block_sum(seq, y, p, first, stop)
            assert got == float(np.sum(s ** p * np.exp(s * y)))
            assert s_last == s[-1]

    def test_sum_blocks_adds_block_sums_in_order(self, monkeypatch):
        seq, y, p, budget = logfam(3.0), -1.0, 1, 300_000

        def no_certificate(seq, y, p, n, need):
            return 0.0, math.inf

        series._walk.cache_clear()
        monkeypatch.setattr(Family.LOGFAM, "rules", Family.LOGFAM.rules._replace(tail=no_certificate))
        with pytest.raises(BudgetExceededError) as exc:
            series._sum_blocks(seq, y, p, 1e-9, budget)
        total, first, block = 0.0, seq.start_index, 4096
        stop = seq.start_index + budget
        while first < stop:
            s = plain_sigma(seq, np.arange(first, min(first + block, stop), dtype=np.int64))
            total += float(np.sum(s ** p * np.exp(s * y)))
            first += block
            block *= 2
        best = exc.value.best
        assert best.truncation_index == stop - 1
        assert best.value == total - series._roundoff(seq, y, p, total, budget, s[-1])

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

    def test_edge_sums_within_budget(self):
        with pytest.raises(BudgetExceededError, match="within 1000 terms"):
            domain_info(logfam(3.5), 1e-9, 1000)
        di = domain_info(logfam(3.5), 1e-9)
        assert di.boundary_class is BoundaryClass.CLOSED_FINITE_SLOPE

    def test_cache_holds_at_most_64_sequences(self):
        # one entry per sequence, the oldest dropped past 64, and with it a
        # dropped custom sequence's generator
        def generator(n):
            return float(n)

        alive = weakref.ref(generator)
        domain_info(custom(generator, declared_alpha=0.0, declared_gap=1.0))
        del generator
        for k in range(100):
            domain_info(power(1.0 + k / 128))
        assert domain_info.cache_info().currsize <= 64
        gc.collect()
        assert alive() is None


class TestDomainRules:
    def test_empty_domain_eval(self):
        with pytest.raises(DomainError) as exc:
            eval_series(loglog(), -5.0, 0, tol=1e-6)
        assert exc.value.info.empty

    @pytest.mark.parametrize(
        "solve, message",
        [
            (lambda: log_f_conjugate(loglog(), 2.0), "conjugate undefined for an empty domain"),
            (lambda: min_entropy_moment(loglog(), 1.0), "entropy problem undefined for an empty domain"),
            (lambda: fit_gibbs(loglog(), 1.0, 2.0), "entropy problem undefined for an empty domain"),
        ],
        ids=["log_f_conjugate", "min_entropy_moment", "fit_gibbs"],
    )
    def test_empty_domain_solves(self, solve, message):
        with pytest.raises(DomainError, match=message) as exc:
            solve()
        assert exc.value.info.empty

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"p": -1}, "derivative order p must be a nonnegative integer"),
            ({"p": 1.5}, "derivative order p must be a nonnegative integer"),
            ({"tol": 0.0}, "tol must be positive"),
        ],
        ids=["p=-1", "p=1.5", "tol=0"],
    )
    def test_bad_order_or_tolerance(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            eval_series(linear(), -1.0, **kwargs)

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

    def test_interior_sum_leaves_the_edge_alone(self, monkeypatch):
        # the family's rules classify the edge, so a cold interior sum
        # walks no block at y = -1
        ys = []
        kernel = series._block_sum

        def recorded(seq, y, p, first, stop):
            ys.append(y)
            return kernel(seq, y, p, first, stop)

        monkeypatch.setattr(series, "_block_sum", recorded)
        clear_memo()
        domain_info.cache_clear()
        eval_series(logfam(3.0), -1.5)
        assert ys and -1.0 not in ys

    def test_refusal_carries_the_certified_record(self):
        with pytest.raises(DomainError) as exc:
            eval_series(logfam(3.0), -0.9)
        assert exc.value.info == domain_info(logfam(3.0))
        assert math.isfinite(exc.value.info.gamma)

    def test_refusal_past_the_edge_budget_carries_the_rules_record(self):
        # next to theta = 1 the edge sum f(-1) to 1e-8 needs more than the
        # 10^7-term budget: the refusal carries the rules' edge and class
        # with NaN edge values instead of raising that sum's budget error
        with pytest.raises(DomainError, match="beyond the domain edge") as exc:
            eval_series(logfam(1.0000001), 0.5)
        info = exc.value.info
        assert (info.alpha, info.boundary_class) == (1.0, BoundaryClass.CLOSED_INFINITE_SLOPE)
        assert math.isnan(info.gamma) and math.isnan(info.f_at_boundary)

    def test_refusal_past_the_edge_budget_walks_once(self, monkeypatch):
        # the record whose edge sum exceeds the budget is kept for the
        # process: a second refusal sums no block
        series._record.cache_clear()
        with pytest.raises(DomainError):
            eval_series(logfam(1.0000001), 0.5)
        blocks = []
        kernel = series._block_sum
        monkeypatch.setattr(series, "_block_sum", lambda *args: blocks.append(args) or kernel(*args))
        with pytest.raises(DomainError, match="beyond the domain edge") as exc:
            eval_series(logfam(1.0000001), 0.5)
        assert not blocks and math.isnan(exc.value.info.f_at_boundary)

    def test_edge_refusal_carries_its_class(self):
        with pytest.raises(DomainError) as exc:
            eval_series(logfam(1.5), -1.0, 1)
        assert exc.value.info.boundary_class is BoundaryClass.CLOSED_INFINITE_SLOPE

    def test_budget_exceeded_carries_best(self):
        # this close to the edge the slope's difference-quotient sandwich
        # stays wider than 1e-10 even after 10^7 terms
        with pytest.raises(BudgetExceededError) as exc:
            eval_series(logfam(3.0), -1.02, 1, tol=1e-10, max_terms=50_000)
        best = exc.value.best
        assert best.value > 0.0
        assert best.tail_bound > 1e-10

    @pytest.mark.parametrize("seq", [linear(), logfam(3.0)], ids=str)
    def test_zero_budget_exceeded(self, seq, walked):
        # no block fits the budget: the walk fails before summing a term
        with pytest.raises(BudgetExceededError):
            eval_series(seq, -1.02, 0, max_terms=0)

    @pytest.mark.parametrize("p", [1, 2])
    @pytest.mark.parametrize("shift,y", [(5.0, -1.0), (300.0, -0.05)])
    def test_negative_leading_exponents(self, shift, y, p):
        # sigma_n = n - shift: for odd p the leading terms are negative and
        # outweigh the rest, and with shift 300 the first block ends below 0
        mp = pytest.importorskip("mpmath")
        seq = custom(lambda n: n - shift, declared_alpha=0.0, declared_gap=1.0)
        with mp.workdps(50):
            ref = mp.fsum((n - shift) ** p * mp.exp((n - shift) * y) for n in range(1, 4000))
            ev = eval_series(seq, y, p, tol=1e-12 * abs(float(ref)))
            assert ev.value <= ref <= mp.mpf(ev.value) + ev.tail_bound

    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("y", [-0.9, -1.0])
    def test_signed_sum_past_float64_is_refused_quietly(self, y, p):
        # sigma_n = n - 800: exp(-799 y) passes float64, and at odd p the
        # leading terms are negative, so the partial sum runs to -inf
        seq = custom(lambda n: n - 800.0, declared_alpha=0.0, declared_gap=1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(BudgetExceededError, match="passed float64") as exc:
                eval_series(seq, y, p)
        assert math.copysign(1.0, exc.value.best.value) == (-1.0 if p % 2 else 1.0)


class TestLogF:
    def test_log_f_matches_eval(self):
        y = -0.8
        f = eval_series(linear(), y, 0, tol=1e-14).midpoint
        assert log_f(linear(), y, tol=1e-12) == pytest.approx(math.log(f), abs=1e-12)

    @pytest.mark.parametrize("fn", [phi, log_f], ids=lambda fn: fn.__name__)
    def test_underflowing_sum_is_refused_after_one_block(self, fn, monkeypatch):
        # e^-800 is below the smallest subnormal, so no relative accuracy
        # exists; the walk stops at its first certified block instead of
        # running through the term budget
        blocks = []
        kernel = series._block_sum

        def counted(seq, y, p, first, stop):
            blocks.append((p, first, stop))
            return kernel(seq, y, p, first, stop)

        monkeypatch.setattr(series, "_block_sum", counted)
        clear_memo()
        with pytest.raises(DomainError, match="underflows"):
            fn(linear(), -800.0)
        assert len(blocks) <= 1, blocks

    def test_underflow_refused_where_the_edge_sum_exceeds_the_budget(self):
        # the refusal's record cannot sum f(-1) of logfam:1.0000001 within
        # the budget; the underflow is still what the call reports
        with pytest.raises(DomainError, match="underflows"):
            phi(logfam(1.0000001), -800.0)


def clear_memo():
    """Drop the finished walks."""
    series._walk.cache_clear()


def outcome(seq, y, p, tol, max_terms):
    """A bracket as (None, value, tail_bound, truncation_index), or a budget
    failure as (message, best value, best tail_bound, best truncation_index)."""
    try:
        ev, message = eval_series(seq, y, p, tol=tol, max_terms=max_terms), None
    except BudgetExceededError as exc:
        ev, message = exc.best, str(exc)
    return message, ev.value, ev.tail_bound, ev.truncation_index


def memo_cases():
    """(seq, y, p) at an interior y and at (or near, for open edges) the edge."""
    cases = []
    for seq in (linear(), power(0.7), power(1.6), quadratic(), box(0.8), logfam(3.0), logfam(1.5)):
        closed = seq.family is Family.LOGFAM
        for y in (-1.3, -1.0 if closed else -0.05):
            for p in range(3):
                # the edge admits p = 0, and p = 1 where its slope is finite
                if y == -1.0 and p > (1 if seq.theta > 2.0 else 0):
                    continue
                cases.append((seq, y, p))
    return cases


class TestEvaluationMemo:
    """Cached walks give the bits of a walk from the start."""

    @pytest.mark.parametrize("max_terms", [300_000, 2_000])
    @pytest.mark.parametrize("seq,y,p", memo_cases(), ids=str)
    def test_warm_memo_matches_cold(self, seq, y, p, max_terms):
        tols = (1e-6, 1e-12)
        cold = {}
        for tol in tols:
            clear_memo()
            cold[tol] = outcome(seq, y, p, tol, max_terms)
        for order in (tols, tols[::-1]):
            clear_memo()
            for tol in order + order:
                assert outcome(seq, y, p, tol, max_terms) == cold[tol]

    @pytest.mark.parametrize(
        "seq,y,p",
        [(logfam(2.9), -1.26, 1), (logfam(1.5), -2.0, 2), (logfam(-1.0), -1.3, 0), (logfam(3.0), -1.0, 1), (power(0.7), -0.3, 1)],
        ids=str,
    )
    def test_floors_change_no_result(self, seq, y, p, monkeypatch):
        def walks():
            clear_memo()
            return [outcome(seq, y, p, tol, 300_000) for tol in (1e-6, 1e-9, 1e-12)]

        deferred = walks()
        # every certificate computed, as if no floor were ever enough
        rules = seq.family.rules
        monkeypatch.setattr(seq.family, "rules", rules._replace(tail=lambda s, y, p, n, need: rules.tail(s, y, p, n)))
        assert walks() == deferred

    def test_failed_walk_is_kept(self, monkeypatch):
        # a walk that exhausts the term budget is kept with its message and
        # best bracket: a repeat sums no block and raises a fresh error
        clear_memo()
        with pytest.raises(BudgetExceededError) as first:
            eval_series(power(0.5), -1e-4)
        blocks = []
        kernel = series._block_sum
        monkeypatch.setattr(series, "_block_sum", lambda *args: blocks.append(args) or kernel(*args))
        with pytest.raises(BudgetExceededError) as again:
            eval_series(power(0.5), -1e-4)
        assert not blocks and again.value is not first.value
        assert str(again.value) == str(first.value) and again.value.best == first.value.best

    def test_generator_is_part_of_the_key(self):
        unit = custom(lambda n: 1.0 * n, declared_alpha=0.0, declared_gap=1.0)
        double = custom(lambda n: 2.0 * n, declared_alpha=0.0, declared_gap=1.0)
        assert unit == double  # the generator is not compared
        clear_memo()
        a = eval_series(unit, -0.5, 0, tol=1e-12)
        b = eval_series(double, -0.5, 0, tol=1e-12)
        assert a.midpoint == pytest.approx(1.0 / math.expm1(0.5), rel=1e-11)
        assert b.midpoint == pytest.approx(1.0 / math.expm1(1.0), rel=1e-11)
        clear_memo()
        assert eval_series(double, -0.5, 0, tol=1e-12) == b

    @pytest.mark.parametrize(
        "seq,y,p,tol,budgets",
        [
            (logfam(3.0), -1.0, 1, 1e-9, (5_000, 1_000)),
            (linear(), -0.01, 0, 1e-12, (1_000, 100_000)),
        ],
        ids=str,
    )
    def test_budgets_keep_their_own_walks(self, seq, y, p, tol, budgets, walked):
        cold = {}
        for budget in budgets:
            clear_memo()
            cold[budget] = outcome(seq, y, p, tol, budget)
        assert cold[budgets[0]] != cold[budgets[1]]
        for order in (budgets, budgets[::-1]):
            clear_memo()
            for budget in order:
                assert outcome(seq, y, p, tol, budget) == cold[budget]

    def test_threads_share_the_walks(self, walked):
        # four threads share the finished walks and give the serial results
        jobs = [
            (seq, y, p, tol, 300_000)
            for seq, y in ((linear(), -1e-3), (power(0.7), -1.3), (logfam(3.0), -1.0), (box(0.8), -1.3))
            for p in (0, 1)
            for tol in (1e-6, 1e-12)
        ]
        serial = []
        for job in jobs:
            clear_memo()
            serial.append(outcome(*job))
        clear_memo()
        start = threading.Barrier(4)

        def run(shift):
            # two threads walk the jobs in order, two from the next job on,
            # so they ask for the same keys at the same time
            order = jobs[shift:] + jobs[:shift]
            start.wait(timeout=60)
            got = [outcome(*job) for job in order]
            return got[-shift:] + got[:-shift] if shift else got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                futures = [pool.submit(run, shift) for shift in (0, 1, 0, 1)]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert results == [serial] * 4


class TestNonFiniteInputs:
    """NaN and -inf series arguments, and NaN and +inf moments, are usage
    errors, raised before any summing."""

    CASES = {
        "eval_series(linear, nan)": lambda: eval_series(linear(), math.nan),
        "eval_series(linear, -inf)": lambda: eval_series(linear(), -math.inf),
        "eval_series(logfam:3, nan)": lambda: eval_series(logfam(3.0), math.nan),
        "phi(linear, nan)": lambda: phi(linear(), math.nan),
        "phi(linear, -inf)": lambda: phi(linear(), -math.inf),
        "log_f(quadratic, nan)": lambda: log_f(quadratic(), math.nan),
        "conjugate(linear, nan)": lambda: conjugate(linear(), math.nan),
        "log_f_conjugate(quadratic, nan)": lambda: log_f_conjugate(quadratic(), math.nan),
        "box_conjugate(nan, 4)": lambda: box_conjugate(math.nan, 4.0),
        "box_conjugate(1, nan)": lambda: box_conjugate(1.0, math.nan),
        "box_report(nan, 4)": lambda: box_report(math.nan, 4.0),
        "box_report(1, nan)": lambda: box_report(1.0, math.nan),
        "min_entropy_moment(logfam:3.5, nan)": lambda: min_entropy_moment(logfam(3.5), math.nan),
        "fit_gibbs(linear, 1, nan)": lambda: fit_gibbs(linear(), 1.0, math.nan),
        "fit_gibbs(linear, nan, 1)": lambda: fit_gibbs(linear(), math.nan, 1.0),
        "conjugate(linear, inf)": lambda: conjugate(linear(), math.inf),
        "log_f_conjugate(quadratic, inf)": lambda: log_f_conjugate(quadratic(), math.inf),
        "box_conjugate(inf, 4)": lambda: box_conjugate(math.inf, 4.0),
        "box_conjugate(1, inf)": lambda: box_conjugate(1.0, math.inf),
        "box_report(inf, 4)": lambda: box_report(math.inf, 4.0),
        "box_report(1, inf)": lambda: box_report(1.0, math.inf),
        "min_entropy_moment(logfam:3.5, inf)": lambda: min_entropy_moment(logfam(3.5), math.inf),
        "fit_gibbs(linear, 1, inf)": lambda: fit_gibbs(linear(), 1.0, math.inf),
        "fit_gibbs(linear, inf, 1)": lambda: fit_gibbs(linear(), math.inf, 1.0),
    }

    @pytest.mark.parametrize("name", CASES)
    def test_raises_value_error_without_summing(self, name, monkeypatch):
        blocks = []
        kernel = series._block_sum
        monkeypatch.setattr(
            series, "_block_sum", lambda *args: blocks.append(args) or kernel(*args)
        )
        domain_info.cache_clear()  # an edge classification would sum terms
        with pytest.raises(ValueError) as err:
            self.CASES[name]()
        assert not isinstance(err.value, DomainError)
        assert blocks == []

    def test_infinite_edges_keep_their_meaning(self):
        with pytest.raises(DomainError):
            eval_series(linear(), math.inf)
        assert conjugate(linear(), -math.inf).regime is Regime.NEGATIVE_U
        assert conjugate(linear(), -math.inf).value == math.inf
        assert box_conjugate(-math.inf, 4.0) == math.inf
