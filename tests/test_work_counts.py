"""Work-count gate: evaluations, blocks, terms, exponents and incomplete
gamma certificates the reference calls compute from cold caches.

The counts are deterministic, so a change that silently drops the reuse of
finished walks (or computes more for any other reason) fails here on any
machine.  Exponents are counted where the walk's blocks and the float
start's block compute them, and nothing keeps them between the two: a
call computes the exponents of the terms it sums and 256 for each start
block it builds.
"""

import importlib

import pytest

from gibbs_series import (
    BudgetExceededError,
    box,
    box_report,
    conjugate,
    domain_info,
    eval_series,
    fit_gibbs,
    linear,
    log_f_conjugate,
    logfam,
    min_entropy_moment,
    parse_sequence,
    power,
    quadratic,
    sequences,
    series,
    sigma,
)

_conjugate = importlib.import_module("gibbs_series.conjugate")

# (call, most _block_sum calls, most terms summed, most exponents computed
# (the terms summed plus 256 for each float start's block),
# most evaluations: eval_series calls and the relative walks of phi, log_f
# and the ratio probes, all of which pass through series._evaluate; most
# sequences._log_upper_gamma calls, one per integral of the log family's
# interior certificates, which a walk only computes after a block whose
# cheap floor on the certificate's width could still meet the target).
# An interior solve's float start lands its first probe within the stop
# band.  linear, quadratic and the box factors give it their moments in
# closed form (``_Rules.model``), so it computes no exponent, and their
# sums have closed forms (``_Rules.whole``), so f' and f are each
# bracketed once without a block, and the solve reads its residual off
# that probe's bracket; other families' starts read their first 256
# exponents.
REFERENCE_CALLS = {
    "conjugate(linear, 2)": (lambda: conjugate(linear(), 2.0), 0, 0, 0, 2, 0),
    # the fit reads the conjugate's root; its moments reuse the cached sums
    "min_entropy_moment(linear, 2)": (
        lambda: min_entropy_moment(linear(), 2.0), 0, 0, 0, 4, 0
    ),
    # each ratio probe brackets f and f' once, to a fraction of their own size
    "fit_gibbs(linear, 1, 2)": (lambda: fit_gibbs(linear(), 1.0, 2.0), 0, 0, 0, 4, 0),
    "fit_gibbs(box, 1, 4)": (lambda: fit_gibbs(box(1.0), 1.0, 4.0), 0, 0, 0, 4, 0),
    # power sums have no closed form: each walk starts from the first term,
    # and a walk to a tighter target than a finished one sums its blocks again
    "fit_gibbs(power:1.5, 1, 4)": (
        lambda: fit_gibbs(power(1.5), 1.0, 4.0), 3, 768, 1_024, 4, 0
    ),
    "min_entropy_moment(power:0.7, 2)": (
        lambda: min_entropy_moment(power(0.7), 2.0), 3, 768, 1_024, 4, 9
    ),
    # one box fit, read for both the class and h*: no second ratio solve
    "box_report(1, 4)": (lambda: box_report(1.0, 4.0), 0, 0, 0, 4, 0),
    "log_f_conjugate(quadratic, 2)": (
        lambda: log_f_conjugate(quadratic(), 2.0), 0, 0, 0, 3, 0
    ),
    # interior sums in closed form sum no block and compute no exponent:
    # the Eulerian form of linear, Jacobi's form of the quadratic sum and of
    # a box factor at kappa |y| <= 1, and the few direct terms beyond
    "eval_series(linear, -0.5, 3)": (lambda: eval_series(linear(), -0.5, 3), 0, 0, 0, 1, 0),
    "eval_series(quadratic, -0.05, 1)": (
        lambda: eval_series(quadratic(), -0.05, 1), 0, 0, 0, 1, 0
    ),
    "eval_series(box:1, -0.5, 2)": (lambda: eval_series(box(1.0), -0.5, 2), 0, 0, 0, 1, 0),
    "eval_series(box:0.8, -2, 2)": (lambda: eval_series(box(0.8), -2.0, 2), 0, 0, 0, 1, 0),
    "eval_series(logfam:1.7229, -1.0886)": (
        lambda: eval_series(logfam(1.7229), -1.0886), 3, 1_792, 1_792, 1, 1
    ),
    "domain_info(logfam:1.5, 1e-9)": (
        lambda: domain_info(logfam(1.5), 1e-9), 1, 4_096, 4_096, 0, 0
    ),
    # near the edge the float start reads the first 256 exponents and a
    # float model of the rest, so the solve stops at its first probe, whose
    # walk ends at the slope's second-order sandwich: five incomplete gamma
    # evaluations a certificate (one per stencil node), computed only after
    # the blocks whose floor does not rule out the stop
    "conjugate(logfam:2.9, 0.6625)": (
        lambda: conjugate(logfam(2.9), 0.6625), 7, 10_752, 11_008, 2, 6
    ),
    "conjugate(logfam:1.5, 1)": (lambda: conjugate(logfam(1.5), 1.0), 8, 9_728, 9_984, 2, 11),
    # a root 2.5e-5 from the edge 0, where the terms past the first 256
    # exponents hold 92 % of f: the start's tail model adds them, so one
    # probe walks f' and the value walks f
    "conjugate(power:1.3, 1e8)": (
        lambda: conjugate(power(1.3), 1e8), 16, 130_560, 130_816, 2, 0
    ),
    # sigma is concave from x = 5.04 on for theta < 0 too, so Hermite-Hadamard applies
    "eval_series(logfam:-1, -1.3)": (
        lambda: eval_series(logfam(-1.0), -1.3), 6, 16_128, 16_128, 1, 1
    ),
    # higher orders meet the same sandwich, one incomplete gamma evaluation
    # at each of the 3p + 2 nodes of a certificate's two stencils
    "eval_series(logfam:3, -2, 3)": (
        lambda: eval_series(logfam(3.0), -2.0, 3), 4, 3_840, 3_840, 1, 44
    ),
    "eval_series(logfam:1.5, -2, 2)": (
        lambda: eval_series(logfam(1.5), -2.0, 2), 3, 1_792, 1_792, 1, 16
    ),
}


def _clear_memos():
    series._walk.cache_clear()
    domain_info.cache_clear()
    series._record.cache_clear()
    _conjugate._start_block.cache_clear()


@pytest.mark.parametrize("name", REFERENCE_CALLS)
def test_reference_call_work(name, monkeypatch):
    call, max_blocks, max_terms, max_sigmas, max_evals, max_gammas = REFERENCE_CALLS[name]
    work = {"blocks": 0, "terms": 0, "sigmas": 0, "evals": 0, "gammas": 0}
    kernel = series._block_sum
    sigma_values = series.sigma_values
    evaluate = series._evaluate
    upper_gamma = sequences._log_upper_gamma

    def counted(seq, y, p, first, stop):
        work["blocks"] += 1
        work["terms"] += stop - first
        return kernel(seq, y, p, first, stop)

    def counted_sigmas(seq, ns):
        work["sigmas"] += len(ns)
        return sigma_values(seq, ns)

    def counted_evaluate(*args):
        work["evals"] += 1
        return evaluate(*args)

    def counted_gamma(a, z):
        work["gammas"] += 1
        return upper_gamma(a, z)

    monkeypatch.setattr(series, "_block_sum", counted)
    monkeypatch.setattr(series, "sigma_values", counted_sigmas)
    monkeypatch.setattr(_conjugate, "sigma_values", counted_sigmas)
    monkeypatch.setattr(series, "_evaluate", counted_evaluate)
    monkeypatch.setattr(sequences, "_log_upper_gamma", counted_gamma)
    _clear_memos()
    call()
    assert (
        work["blocks"] <= max_blocks
        and work["terms"] <= max_terms
        and work["sigmas"] <= max_sigmas
        and work["evals"] <= max_evals
        and work["gammas"] <= max_gammas
    ), work
    # a counter on a name the certificates no longer read would stay at 0
    assert work["gammas"] >= 1 or not max_gammas, work


# (theta, (u, u'), (v, v')): f' = u at y = -1.4 and u' at y = -1.25, f'/f = v
# at y = -1.4 and v' at y = -1.3, rounded; the parent commit's solves took
# 5 to 8 probes each here, from edge - 1
_NEAR_EDGE = (
    (1.5, (0.9696, 1.7235), (2.331, 2.6209)),
    (2.2, (0.6161, 0.9962), (2.1103, 2.3035)),
    (2.5, (0.53, 0.8335), (2.0486, 2.2157)),
    (2.825, (0.4601, 0.7065), (1.9974, 2.1425)),
    (2.9, (0.4466, 0.6824), (1.9875, 2.1283)),
    (2.975, (0.4338, 0.6599), (1.9783, 2.115)),
    (3.5, (0.3621, 0.5367), (1.9286, 2.042)),
    (4.5, (0.2776, 0.399), (1.8867, 1.9715)),
)


def _count_probes(monkeypatch) -> list:
    """The probes of each ``_find_root`` call from now on, in a list."""
    find_root = _conjugate._find_root
    probes = []

    def counted(fn, *args, **kwargs):
        probes.append(0)

        def probe(y):
            probes[-1] += 1
            return fn(y)

        return find_root(probe, *args, **kwargs)

    monkeypatch.setattr(_conjugate, "_find_root", counted)
    return probes


# (solve, sequence, u): conjugate at u, log_f_conjugate at s_min + u;
# roots whose terms past the first 256 exponents count, so that the float
# start adds its tail model to them, or for linear, quadratic and the box
# reads its closed-form moments.  Without either the starts were refused
# here, and the solves took 7 to 21 probes from edge - 1
_PAST_THE_BLOCK = (
    # closed-form moments: with the tail model these took 21, 16 and 21
    # probes (linear, whose start now inverts its equation exactly), 15
    # (quadratic) and 16 (box)
    (log_f_conjugate, "linear", 1e5),
    (conjugate, "linear", 1e12),
    (log_f_conjugate, "linear", 1e12 - 1.0),
    (log_f_conjugate, "quadratic", 1e8),
    (log_f_conjugate, "box:1", 1e8),
    (conjugate, "power:0.3", 1.0),
    (conjugate, "linear", 1e3),
    (conjugate, "linear", 1e6),
    (conjugate, "power:0.5", 1e3),
    (conjugate, "power:0.5", 1e6),
    (conjugate, "power:0.8", 1e3),
    (conjugate, "power:0.8", 1e6),
    (conjugate, "power:1.3", 1e6),
    (conjugate, "power:1.3", 1e8),
    (conjugate, "power:2", 1e6),
    (conjugate, "power:2", 1e9),
    (conjugate, "quadratic", 1e6),
    (conjugate, "quadratic", 1e9),
    (conjugate, "box:1", 1e9),
    (log_f_conjugate, "box:1", 1e5),
)


def test_probes_per_solve(monkeypatch):
    # interior conjugates, log conjugates and fits over four families: the
    # float start puts nearly every first probe within the stop band
    probes = _count_probes(monkeypatch)
    for spec in ("linear", "power:1.3", "quadratic", "box:1"):
        seq = parse_sequence(spec)
        s_min = sigma(seq, seq.start_index)
        for u in (0.3, 1.0, 2.5, 4.0):
            conjugate(seq, u)
            log_f_conjugate(seq, s_min + u)
            fit_gibbs(seq, 1.5, 1.5 * (s_min + u))
    assert len(probes) == 48 and sum(probes) <= 1.5 * len(probes), probes
    # near the log family's edge the start adds a float model of the terms
    # past its first 256 exponents, and lands as it does elsewhere
    probes.clear()
    for theta, us, vs in _NEAR_EDGE:
        seq = logfam(theta)
        for u, v in zip(us, vs):
            conjugate(seq, u)
            log_f_conjugate(seq, v)
            fit_gibbs(seq, 1.5, 1.5 * v)
    assert len(probes) == 48 and max(probes) <= 2, probes
    # past the first 256 exponents the same model serves every family
    probes.clear()
    for solve, spec, u in _PAST_THE_BLOCK:
        seq = parse_sequence(spec)
        solve(seq, u if solve is conjugate else sigma(seq, seq.start_index) + u)
    assert probes == [1] * len(_PAST_THE_BLOCK), probes


@pytest.mark.parametrize(
    "solve, theta, target",
    [
        (conjugate, 1.5, 34.1),
        (log_f_conjugate, 1.5, 18.23),
        (conjugate, 2.2, 5.444),
        (log_f_conjugate, 2.2, 6.05),
    ],
)
def test_budget_bound_near_edge_solve_fails_at_once(monkeypatch, solve, theta, target):
    # roots 3e-4 to 3e-3 inside the edge, where no walk of the default
    # budget certifies the stop band: the start lands there, and its
    # bracket holds the target, so the solve raises that probe's budget error
    probes = _count_probes(monkeypatch)
    with pytest.raises(BudgetExceededError):
        solve(logfam(theta), target)
    assert probes == [1], probes


@pytest.mark.parametrize(
    "call",
    [
        lambda: fit_gibbs(linear(), 1.0, 1000.0, max_terms=1000),
        lambda: conjugate(linear(), 1e8, max_terms=1000),
    ],
    ids=["fit_gibbs(linear, 1, 1000)", "conjugate(linear, 1e8)"],
)
def test_budget_bound_start_ends_its_solve(monkeypatch, call, walked):
    # 1000 terms bracket neither root to its band, and the start's bracket
    # holds the target: no later probe could tell the root's side (the
    # parent commit's solves took 9 and 19 probes here)
    probes = _count_probes(monkeypatch)
    with pytest.raises(BudgetExceededError):
        call()
    assert probes == [1], probes


def test_cold_box_fit_builds_no_table_past_its_cut(monkeypatch):
    # the ground level is read off the level-4 table (1 triple) and the
    # weights off the level-2048 one (46,115), the fit's cut
    build = sequences._triples_in_levels
    work = {"tables": 0, "triples": 0}

    def counted(lo, hi):
        triples, levels = build(lo, hi)
        work["tables"] += 1
        work["triples"] += len(levels)
        return triples, levels

    monkeypatch.setattr(sequences, "_triples_in_levels", counted)
    _clear_memos()
    sequences._box_table.cache_clear()
    fit_gibbs(box(0.2627), 1.0, 20.7037)
    assert work["tables"] <= 2 and work["triples"] <= 46_116, work
