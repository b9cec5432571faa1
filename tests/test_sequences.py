"""Exponent-sequence definitions, increment gaps, and box enumeration."""

import functools
import math
import os
import pickle
import subprocess
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gibbs_series
from gibbs_series import sequences
from gibbs_series import (
    Family,
    SequenceIndexError,
    box,
    custom,
    enumerate_box,
    increment_gap,
    linear,
    logfam,
    loglog,
    parse_sequence,
    parse_varsigma,
    power,
    quadratic,
    sigma,
    sigma_values,
)


class TestSigma:
    def test_linear(self):
        assert sigma(linear(), 3) == 3.0

    def test_power(self):
        assert sigma(power(2.0), 4) == 16.0

    def test_logfam_start_value(self):
        # ln(n (ln n)^theta) at the start index n = 3, theta = 1
        expected = math.log(3.0 * math.log(3.0))
        assert sigma(logfam(1.0), 3) == pytest.approx(expected, rel=1e-15)
        assert expected == pytest.approx(1.1927, abs=5e-4)

    def test_below_start_raises(self):
        with pytest.raises(SequenceIndexError):
            sigma(logfam(1.0), 2)
        with pytest.raises(SequenceIndexError):
            sigma(linear(), 0)
        with pytest.raises(SequenceIndexError):
            sigma_values(loglog(), np.array([2, 3]))

    def test_vectorized_matches_scalar(self):
        for seq in (linear(), power(1.7), quadratic(), logfam(2.5), loglog(), box(1.5)):
            ns = np.arange(seq.start_index, seq.start_index + 40)
            vec = sigma_values(seq, ns)
            assert vec == pytest.approx([sigma(seq, int(n)) for n in ns], rel=1e-15)

    def test_monotone_nondecreasing(self):
        for seq in (linear(), power(0.5), power(3.0), quadratic(), logfam(-1.0),
                    logfam(3.0), loglog(), box(0.7)):
            ns = np.arange(seq.start_index, seq.start_index + 500)
            vals = sigma_values(seq, ns)
            assert np.all(np.diff(vals) >= 0.0)

    def test_positive_from_start(self):
        for seq in (linear(), power(0.5), quadratic(), logfam(-1.0), logfam(3.0), box(1.0)):
            ns = np.arange(seq.start_index, seq.start_index + 100)
            assert np.all(sigma_values(seq, ns) > 0.0)

    def test_logfam_theta_range(self):
        with pytest.raises(ValueError):
            logfam(-1.5)

    @pytest.mark.parametrize(
        "seq",
        [
            linear(),
            power(0.7),
            quadratic(),
            logfam(3.0),
            loglog(),
            box(0.8),
            custom(lambda n: 2.0 * n, declared_alpha=0.0, declared_gap=2.0),
        ],
        ids=str,
    )
    def test_empty_index_array(self, seq):
        out = sigma_values(seq, np.array([], dtype=np.int64))
        assert out.dtype == np.float64 and out.shape == (0,)


class TestIncrementGap:
    def test_linear(self):
        assert increment_gap(linear(), 5) == 1.0

    def test_quadratic(self):
        # min over n >= 3 of (n+1)^2 - n^2 = 2n + 1
        assert increment_gap(quadratic(), 3) == 7.0

    def test_logfam_forces_integral_path(self):
        assert increment_gap(logfam(0.0), 10) == 0.0

    def test_sublinear_power_is_zero(self):
        assert increment_gap(power(0.5), 10) == 0.0

    def test_box_has_ties(self):
        assert increment_gap(box(1.0), 1) == 0.0

    def test_gap_is_valid_lower_bound(self):
        for seq in (linear(), power(1.0), power(2.5), quadratic()):
            for N in (seq.start_index, 7, 40):
                delta = increment_gap(seq, N)
                assert delta > 0.0
                for n in range(N, N + 200):
                    assert sigma(seq, n + 1) >= sigma(seq, n) + delta - 1e-12

    @pytest.mark.parametrize("kappa", [0.3, 0.37, 2.5])
    def test_kappa_quadratic_gap_is_exact_lower_bound(self, kappa):
        # the box factor's increments kappa (2n + 1) >= kappa (2N + 1),
        # the product rounded down: never above it, and within an ulp
        seq = sequences.SigmaSequence(Family.QUADRATIC, kappa=kappa)
        rng = np.random.default_rng(18)
        for N in list(range(1, 1001)) + rng.integers(1, 10**6, 2000).tolist() + [10**6]:
            gap = increment_gap(seq, N)
            exact = Fraction(kappa) * (2 * N + 1)
            assert Fraction(gap) <= exact, (kappa, N)
            assert gap >= float(exact) * (1.0 - 2.0 ** -51), (kappa, N)

    @pytest.mark.parametrize("kappa", [0.3, 0.37, 2.5])
    def test_kappa_quadratic_is_one_rounded_product(self, kappa):
        # fl(kappa n^2), n^2 exact: one rounding, charged as e_rel = 1
        seq = sequences.SigmaSequence(Family.QUADRATIC, kappa=kappa)
        assert seq.sigma_error == (1.0, 0.0, 1.0)
        ns = [1, 2, 3, 1000, 10**6, 9 * 10**7]
        want = [kappa * float(n * n) for n in ns]
        assert sigma_values(seq, np.array(ns)).tolist() == want
        assert [sigma(seq, n) for n in ns] == want

    def test_custom_declares_gap(self):
        seq = custom(lambda n: 2.0 * n, declared_alpha=0.0, declared_gap=2.0)
        assert increment_gap(seq, 4) == 2.0
        with pytest.raises(ValueError):
            custom(lambda n: n, declared_alpha=0.0, declared_gap=0.0)
        with pytest.raises(ValueError, match="declared_alpha must be >= 0"):
            custom(lambda n: n, declared_alpha=-1.0, declared_gap=1.0)

    def test_below_the_start_index(self):
        with pytest.raises(SequenceIndexError, match="index 2 below start index 3"):
            increment_gap(logfam(3.0), 2)


def brute_box(s_max):
    """Every (k, l, m) with level <= s_max by a triple loop, sorted by (s, k, l, m)."""
    top = math.isqrt(s_max)
    found = []
    for k in range(1, top + 1):
        for l in range(1, top + 1):
            for m in range(1, top + 1):
                s = k * k + l * l + m * m
                if s <= s_max:
                    found.append((s, k, l, m))
    found.sort()
    return [t[1:] for t in found], [t[0] for t in found]


@functools.cache
def lexsorted_cube_below(s_end):
    """Every (k, l, m) with level below s_end, cut from the full cube of
    candidates and lexsorted by (s, k, l, m): the triples and their levels."""
    top = math.isqrt(s_end - 3)
    k, l, m = (a.ravel() for a in np.indices((top, top, top)) + 1)
    s = k * k + l * l + m * m
    keep = s < s_end
    k, l, m, s = k[keep], l[keep], m[keep], s[keep]
    order = np.lexsort((m, l, k, s))
    return np.column_stack((k, l, m))[order], s[order]


class TestEnumerateBox:
    def test_ground_state(self):
        assert enumerate_box(1.0, 1) == [((1, 1, 1), 3.0)]

    def test_first_shell_ties_lexicographic(self):
        got = enumerate_box(1.0, 4)
        assert got == [
            ((1, 1, 1), 3.0),
            ((1, 1, 2), 6.0),
            ((1, 2, 1), 6.0),
            ((2, 1, 1), 6.0),
        ]

    def test_kappa_scaling(self):
        assert enumerate_box(2.0, 2) == [((1, 1, 1), 6.0), ((1, 1, 2), 12.0)]

    def test_levels_nondecreasing(self):
        vals = [s for _, s in enumerate_box(1.0, 2000)]
        assert all(a <= b for a, b in zip(vals, vals[1:]))

    def test_complete_up_to_level_100(self):
        # exhaustive reference enumeration of every triple with level <= 100
        reference = set()
        for k in range(1, 11):
            for l in range(1, 11):
                for m in range(1, 11):
                    if k * k + l * l + m * m <= 100:
                        reference.add((k, l, m))
        listed = enumerate_box(1.0, 5000)
        got = {t for t, s in listed if s <= 100.0}
        assert got == reference

    def test_budget_validation(self):
        with pytest.raises(ValueError):
            enumerate_box(1.0, 0)
        with pytest.raises(ValueError):
            enumerate_box(-1.0, 5)

    def test_table_matches_brute_to_level_3000(self):
        triples, levels = brute_box(3000)
        table = sequences.box_levels(3000)
        assert table[0].tolist() == [list(t) for t in triples]
        assert table[1].tolist() == levels

    def test_growth_steps_do_not_change_the_prefix(self):
        triples, levels = brute_box(3000)
        by_count, by_level, mixed = [], [], []
        for n in (1, 7, 4, 950, 12_345, 60_000):
            by_count.append(sequences._box_table_holding(n))
            assert len(by_count[-1][0]) >= n
        for s_max in (5, 100, 99, 101, 1777, 3000):
            by_level.append(sequences.box_levels(s_max))
            assert len(by_level[-1][1]) == sum(s <= s_max for s in levels)
        for step, arg in (("count", 3), ("level", 40), ("count", 2_000), ("level", 1_023)):
            read = sequences._box_table_holding if step == "count" else sequences.box_levels
            mixed.append(read(arg))
        mixed.append(sequences._box_table_holding(30_000))
        for table in by_count + by_level + mixed:
            n = min(len(table[0]), len(triples))
            assert table[0][:n].tolist() == [list(t) for t in triples[:n]]
            assert table[1].tolist()[:n] == levels[:n]

    def test_levels_cut_the_least_power_of_two_table(self, monkeypatch):
        every, every_level = lexsorted_cube_below(2_050)
        asked = []
        table = sequences._box_table
        monkeypatch.setattr(sequences, "_box_table", lambda s_max: asked.append(s_max) or table(s_max))
        for s_max in (0, 1, 2, 3, 4, 5, 63, 64, 65, 2047, 2048, 2049):
            cut = np.searchsorted(every_level, s_max, side="right")
            triples, levels = sequences.box_levels(s_max)
            assert triples.tolist() == every[:cut].tolist()
            assert levels.tolist() == every_level[:cut].tolist()
        assert asked == [4, 4, 4, 4, 4, 8, 64, 64, 128, 2048, 2048, 4096]
        for k in range(2, 12):
            small, large = table(2**k), table(2 ** (k + 1))
            assert small[1][-1] <= 2**k < large[1][len(small[1])]
            assert np.array_equal(large[0][: len(small[0])], small[0])
            assert np.array_equal(large[1][: len(small[1])], small[1])

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(st.integers(3, 4_999), st.integers(1, 4_997))
    def test_triples_in_levels_match_lexsort(self, lo, width):
        hi = min(lo + width, 5_000)
        every, every_level = lexsorted_cube_below(5_000)
        a, b = np.searchsorted(every_level, (lo, hi))
        triples, levels = sequences._triples_in_levels(lo, hi)
        assert triples.tolist() == every[a:b].tolist()
        assert levels.tolist() == every_level[a:b].tolist()

    @pytest.mark.parametrize("lo, hi", [(5_000, 5_300), (20_000, 20_037), (60_000, 60_500)])
    def test_triples_in_levels_above_level_5000(self, lo, hi):
        # at [60000, 60500) the sort key s * n_pairs + pair passes 2^31
        found = []
        for k in range(1, math.isqrt(hi - 3) + 1):
            for l in range(1, math.isqrt(hi - 2 - k * k) + 1):
                r = k * k + l * l
                m_lo = 1 if r + 1 >= lo else math.isqrt(lo - r - 1) + 1  # least m, r + m^2 >= lo
                found += [(r + m * m, k, l, m) for m in range(m_lo, math.isqrt(hi - 1 - r) + 1)]
        found.sort()
        triples, levels = sequences._triples_in_levels(lo, hi)
        assert triples.tolist() == [list(t[1:]) for t in found]
        assert levels.tolist() == [t[0] for t in found]

    def test_shared_arrays_are_read_only(self):
        triples, levels = sequences.box_levels(50)
        table = sequences._box_table(64)
        before = [a.tolist() for a in table]
        for array, row in ((triples, 0), (levels, 0), (table[0], 1)):
            with pytest.raises(ValueError):
                array[row] = 9
        assert [a.tolist() for a in sequences._box_table(64)] == before

    def test_table_retains_under_2mb_to_level_2048(self):
        # int64 triples and levels, 32 bytes per triple: 1.41 MiB for the
        # 46,115 triples to level 2048
        sequences._box_table.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            triples, levels = sequences.box_levels(2048)
            retained = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        assert len(levels) == 46_115
        assert retained <= 2 * 2**20

    def test_fill_to_level_2048_peaks_at_most_3_94_mib(self):
        # 3.94 MiB is the peak of the fill by a stable argsort of the levels
        # and a gather of the triples; one in-place sort of a unique key
        # keeps fewer temporaries
        sequences._box_table.cache_clear()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            triples, levels = sequences.box_levels(2048)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(levels) == 46_115
        assert peak <= 3.94 * 2**20

    def test_cache_growth_is_thread_safe(self):
        # an empty cache, so the threads build the tables they read
        reference = sequences._box_table_holding(8000)
        sequences._box_table.cache_clear()
        budgets = (500, 2000, 8000, 2000)
        start = threading.Barrier(len(budgets))

        def grow(n):
            start.wait(timeout=60)
            return enumerate_box(1.0, n)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=len(budgets)) as pool:
                futures = [pool.submit(grow, n) for n in budgets]
                results = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        table = sequences._box_table_holding(8000)
        n = len(table[0])
        triples = reference[0].tolist()
        levels = reference[1].tolist()
        assert n >= 8000 and len(table[1]) == n
        assert table[0].tolist() == triples[:n]
        assert table[1].tolist() == levels[:n]
        for budget, got in zip(budgets, results):
            assert got == [
                (tuple(t), float(s)) for t, s in zip(triples[:budget], levels[:budget])
            ]


class TestHashing:
    def test_pickle_from_another_process_finds_the_same_key(self):
        # str hashes are salted per process, so a hash cached in the child
        # must not come along: the parent's dict lookup would miss
        src = os.path.dirname(os.path.dirname(os.path.abspath(gibbs_series.__file__)))
        seed = os.environ.get("PYTHONHASHSEED", "")
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
            "PYTHONHASHSEED": "2" if seed == "1" else "1",
        }
        child = (
            "import pickle, sys\n"
            "from gibbs_series import power\n"
            "seq = power(1.3)\n"
            "hash(seq)\n"
            "sys.stdout.write(pickle.dumps(seq).hex())\n"
        )
        out = subprocess.run(
            [sys.executable, "-c", child],
            env=env,
            capture_output=True,
            text=True,
            check=True,
            timeout=60,
        ).stdout
        theirs = pickle.loads(bytes.fromhex(out))
        ours = power(1.3)
        assert theirs == ours and hash(theirs) == hash(ours)
        assert {ours: "found"}[theirs] == "found"

    @pytest.mark.parametrize("hash_seed", ["1", "2"])
    def test_pickle_leaves_the_cached_hash_behind(self, hash_seed):
        # pickled here with its hash cached, the sequence must equal, hash
        # like and key a dict like a fresh one in a process salted otherwise
        seq = logfam(2.5)
        hash(seq)
        src = os.path.dirname(os.path.dirname(os.path.abspath(gibbs_series.__file__)))
        env = {
            **os.environ,
            "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))),
            "PYTHONHASHSEED": hash_seed,
        }
        child = (
            "import pickle, sys\n"
            "from gibbs_series import logfam\n"
            "theirs = pickle.loads(bytes.fromhex(sys.argv[1]))\n"
            "ours = logfam(2.5)\n"
            "assert theirs == ours and hash(theirs) == hash(ours)\n"
            "assert {ours: 'found'}[theirs] == 'found'\n"
        )
        subprocess.run(
            [sys.executable, "-c", child, pickle.dumps(seq).hex()],
            env=env,
            check=True,
            timeout=60,
        )

    def test_parameterless_families_are_single_instances(self):
        assert quadratic() is quadratic()
        assert linear() is linear() and loglog() is loglog()
        assert parse_sequence("quadratic") is quadratic()

    def test_custom_generators_do_not_change_equality(self):
        unit = custom(lambda n: 1.0 * n, declared_alpha=0.0, declared_gap=1.0)
        double = custom(lambda n: 2.0 * n, declared_alpha=0.0, declared_gap=1.0)
        assert unit == double and hash(unit) == hash(double)
        assert custom(lambda n: 1.0 * n, declared_alpha=0.0, declared_gap=2.0) != unit


class TestParsing:
    def test_round_trip(self):
        for spec in ("linear", "power:2", "logfam:3", "loglog", "quadratic", "box:0.5"):
            assert parse_sequence(spec).spec_string() == spec

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(
        st.sampled_from([(power, 0.0), (logfam, -1.0), (box, 0.0)]),
        st.floats(allow_nan=False, allow_infinity=False),
    )
    def test_round_trip_sampled(self, family, value):
        make, low = family
        value = low + abs(value) if make is logfam else abs(value)
        if value <= 0.0 and make is not logfam:
            value = 5e-324
        seq = make(value)
        spec = seq.spec_string()
        assert parse_sequence(spec) == seq
        short = f"{value:g}"
        if float(short) == value:  # the :g form is exact: same bytes as ever
            assert spec.partition(":")[2] == short

    def test_box_default_kappa(self):
        assert parse_sequence("box").kappa == 1.0

    def test_bad_specs(self):
        for bad in ("cubic", "power", "power:-1", "logfam:-2", "box:0"):
            with pytest.raises(ValueError):
                parse_sequence(bad)

    @pytest.mark.parametrize(
        "bad",
        ["linear:5", "quadratic:9", "loglog:7", "logfam:nan", "logfam:inf",
         "box:inf", "power:inf", "power:nan", "box:nan", "logfam:-inf"],
    )
    def test_malformed_specs(self, bad):
        with pytest.raises(ValueError, match="bad sequence spec"):
            parse_sequence(bad)

    @pytest.mark.parametrize(
        "make,value",
        [(logfam, math.nan), (logfam, math.inf), (power, math.inf), (power, math.nan),
         (box, math.inf), (box, math.nan)],
    )
    def test_constructors_reject_non_finite(self, make, value):
        with pytest.raises(ValueError, match="needs finite"):
            make(value)

    def test_power_overflow_names_the_index(self):
        seq = power(300.0)
        assert sigma(seq, 10) == 10.0 ** 300
        with pytest.raises(ValueError, match="index 11 overflows"):
            sigma(seq, 11)
        with pytest.raises(ValueError, match="index 299 overflows"):
            sigma_values(seq, np.arange(1, 300))
        # past float64 the increments keep a lower bound, 2^1023/21 here
        assert 0.0 < increment_gap(seq, 20) <= 21 ** 300 - 20 ** 300


@pytest.mark.parametrize("kappa", [1e300, 1e295])
def test_quadratic_walk_stops_at_the_last_float_term(kappa):
    # the last k whose terms (kappa k^2)^p exp(kappa k^2 y) are floats,
    # with a factor 2 to spare; the unit quadratic's lies past any budget
    seq = sequences.box_factor(kappa)
    for p in range(4):
        n, q = seq.family.rules.last(seq, p), max(p, 1)
        assert n == 0 or q * math.log2(sigma(seq, n)) < 1023.0
        assert q * math.log2(sigma(seq, n + 1)) >= 1022.0
        assert quadratic().family.rules.last(quadratic(), p) >= 2 ** 62


def exact_sigma(mp, seq, n):
    """sigma_n in mpmath's working precision, from the sequence's own floats."""
    if seq.family is Family.POWER:
        return mp.mpf(n) ** mp.mpf(seq.theta)
    if seq.family is Family.LOGFAM:
        return mp.log(n) + mp.mpf(seq.theta) * mp.log(mp.log(n))
    if seq.family is Family.LOGLOG:
        return mp.log(mp.log(n))
    if seq.family is Family.BOX:
        return mp.mpf(seq.kappa) * int(sequences._box_table_holding(n)[1][n - 1])
    if seq.family is Family.QUADRATIC:
        return mp.mpf(n) ** 2
    assert seq.family is Family.LINEAR
    return mp.mpf(n)


@pytest.mark.parametrize(
    "seq",
    [linear(), power(0.7), power(1.6), power(3.0), quadratic(), logfam(3.0), logfam(1.5),
     logfam(0.0), logfam(-0.5), logfam(-1.0), loglog(), box(0.8), box(1.0)],
    ids=str,
)
def test_sigma_error_bounds_scalar_and_vector_exponents(seq):
    # each computed exponent lies within (e_rel sigma + e_abs) u of a 40-digit
    # one, u = 2^-53; numpy's vector pow and log can differ from math's in the
    # last ulp, so both paths are checked
    mp = pytest.importorskip("mpmath")
    top = 5e4 if seq.family is Family.BOX else 1e7
    rng = np.random.default_rng(20260810)
    draws = np.exp(rng.uniform(math.log(seq.start_index), math.log(top), 1000))
    ns = np.unique(np.maximum(draws.astype(np.int64), seq.start_index))
    e_rel, e_abs, _ = seq.sigma_error
    vector = sigma_values(seq, ns).tolist()
    with mp.workdps(40):
        for n, v in zip(ns.tolist(), vector):
            exact = exact_sigma(mp, seq, n)
            bound = (e_rel * abs(float(exact)) + e_abs) * 2.0 ** -53
            assert abs(mp.mpf(sigma(seq, n)) - exact) <= bound, n
            assert abs(mp.mpf(v) - exact) <= bound, n


class TestVarsigma:
    def test_parse(self):
        assert parse_varsigma("power:2").value(3) == 9.0
        assert parse_varsigma("exp:0.5").value(2) == pytest.approx(math.e)
        assert parse_varsigma("expsq").log_value(7) == 49.0

    def test_superlinear_growth(self):
        for spec in ("power:1.5", "exp:0.1", "expsq"):
            vs = parse_varsigma(spec)
            # varsigma_n / n grows without bound
            assert vs.log_value(4000) - math.log(4000) > math.log(50.0)

    def test_preconditions(self):
        with pytest.raises(ValueError):
            parse_varsigma("power:1")
        with pytest.raises(ValueError):
            parse_varsigma("exp:0")
        with pytest.raises(ValueError):
            parse_varsigma("weird")

    def test_round_trip(self):
        for spec in ("power:2", "power:1.5", "exp:0.1", "expsq", "exp:0.123456789"):
            assert parse_varsigma(spec).spec_string() == spec
