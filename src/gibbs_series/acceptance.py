"""Acceptance battery: ten desk-scale exact-value and property checks.

Each criterion returns a CriterionResult with a stable ``details`` dict
(no wall-clock values inside, so serialized output is reproducible).
``run_all`` executes every criterion, optionally across worker threads.
"""

from __future__ import annotations

import math
import time
from typing import Optional

import numpy as np

from .conjugate import box_conjugate, conjugate
from .entropy import (
    WitnessBudgetError,
    alternating_attainment,
    alternating_witness,
    fit_gibbs,
    gibbs_ratio,
    plateau_witness,
)
from .oracle import (
    alternating_gradient_series,
    check_fenchel_young,
    check_gradient_sum,
    check_gradient_sum_2d,
    geometric_f,
    primal_truncated,
)
from .scenarios import box_report, example1_table
from .sequences import (
    SigmaSequence,
    box,
    linear,
    logfam,
    parse_varsigma,
    power,
    quadratic,
    sigma_values,
)
from .series import _evaluate, domain_info, eval_series

__all__ = ["CriterionResult", "CRITERIA", "run_criterion", "run_all", "DEFAULT_SEED"]

DEFAULT_SEED = 20260810


class CriterionResult:
    """One criterion's verdict and the measurements behind it (``details``,
    a new dict where none is given)."""

    __slots__ = ("id", "title", "passed", "details")

    def __init__(self, id: str, title: str, passed: bool, details: Optional[dict] = None):
        self.id, self.title, self.passed = id, title, passed
        self.details = {} if details is None else details

    def __eq__(self, other: object):
        return self.to_dict() == other.to_dict() if type(other) is type(self) else NotImplemented

    def __repr__(self) -> str:
        return "CriterionResult(" + ", ".join(f"{k}={v!r}" for k, v in self.to_dict().items()) + ")"

    def summary_line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] criterion {self.id}: {self.title}"

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in self.__slots__}


def criterion_1(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Unit-gap series matches its geometric closed form to 1e-12 relative
    error on 50 grid points, within one second."""
    seq = linear()
    ys = np.linspace(-10.0, -0.05, 50)
    t0 = time.perf_counter()
    worst = 0.0
    for y in ys:
        closed = geometric_f(float(y))
        ev = eval_series(seq, float(y), 0, tol=2.5e-13 * closed)
        worst = max(worst, abs(ev.midpoint - closed) / closed)
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-12 and elapsed < 1.0
    return CriterionResult(
        "1",
        "geometric closed form on a 50-point grid",
        ok,
        {"max_rel_err": worst, "tol": 1e-12, "runtime_under_1s": elapsed < 1.0},
    )


def criterion_2(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Conjugate of the unit-gap series at u=2 hits the closed form, and the
    1000-level truncated solver agrees within 1e-6."""
    exact = -1.0 - 2.0 * math.log(2.0)
    cv = conjugate(linear(), 2.0, tol=1e-12)
    trunc = primal_truncated(linear(), 1000, moment=2.0)
    value_err = abs(cv.value - exact)
    y_err = abs(cv.attaining_y + math.log(2.0))
    trunc_err = abs(trunc.value - cv.value)
    ok = value_err <= 1e-9 and y_err <= 1e-9 and trunc_err <= 1e-6
    return CriterionResult(
        "2",
        "conjugate exactness at u=2 with truncated-dual agreement",
        ok,
        {"value_err": value_err, "argmax_err": y_err, "truncated_gap": trunc_err},
    )


def criterion_3(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Two-moment fit (mass 1, energy 2) reproduces weights (1/2)^n."""
    fit = fit_gibbs(linear(), 1.0, 2.0, tol=1e-12)
    worst = max(
        abs(float(fit.weights[n - 1]) - 0.5 ** n) for n in range(1, 31)
    )
    ratio_err = abs(float(fit.weights[1] / fit.weights[0]) - gibbs_ratio(2.0))
    ok = worst <= 1e-10 and ratio_err <= 1e-10
    return CriterionResult(
        "3",
        "Gibbs weights (1/2)^n for mass 1, energy 2",
        ok,
        {"max_weight_err": worst, "ratio_err": ratio_err},
    )


def criterion_4(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Plateau affinity (slope -1) for logfam:3, and a finite witness at
    u = gamma + 1 with gap <= 0.06 within the term budget.

    Weights on any K points carry entropy at least f_K*(u), the conjugate
    of the sum of the first K terms (the largest ones), so no witness
    within the default 10^7 terms gets below a gap of 0.048; 0.06 leaves
    the construction room above that floor.  The witness must reproduce
    its moment, and its gap must not fall below the floor on its own
    support: such a gap would mean the gap or the target is wrong.
    """
    seq = logfam(3.0)
    g = domain_info(seq).gamma
    us = [g + 0.5, g + 1.0, g + 2.0]
    values = {u: conjugate(seq, u).value for u in us}
    affin = max(
        abs((values[b] - values[a]) - (-(b - a)))
        for a in us
        for b in us
        if b > a
    )
    u, eps = g + 1.0, 0.06
    gap, floor, support, moment_err = math.inf, math.nan, 0, math.nan
    witness_ok = False
    try:
        wit = plateau_witness(seq, u, eps=eps)
    except WitnessBudgetError as exc:
        if exc.best is not None:
            gap = exc.best.gap
    else:
        gap = wit.gap
        support = int(wit.indices.size)
        # the witness sits on the first `support` indices
        floor = primal_truncated(seq, support, moment=u).value - wit.target
        moment = float(np.dot(sigma_values(seq, wit.indices), wit.weights))
        moment_err = abs(moment - u)
        witness_ok = floor - 1e-9 <= gap <= eps and moment_err <= 1e-9 * u
    ok = affin <= 1e-8 and witness_ok
    return CriterionResult(
        "4",
        "plateau affinity at slope -1 and witness gap <= 0.06 above its support floor",
        ok,
        {
            "max_affinity_err": affin,
            "affinity_tol": 1e-8,
            "witness_gap": gap,
            "witness_eps": eps,
            "support_size": support,
            "support_floor": floor,
            "moment_err": moment_err,
            "witness_ok": witness_ok,
        },
    )


def criterion_5(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Box reports: degenerate ray entropy -1 via the ground-state
    singleton; interior target (1,4) reproduces its moments and matches the
    conjugate."""
    r3 = box_report(1.0, 3.0)
    singleton_ok = (
        r3.classification == "ground_state"
        and abs(r3.fit.entropy_value + 1.0) <= 1e-12
        and abs(r3.h_star + 1.0) <= 1e-12
    )
    r4 = box_report(1.0, 4.0, tol=1e-10)
    mass, energy = r4.achieved
    moments_err = max(abs(mass - 1.0), abs(energy - 4.0))
    conj_err = abs(r4.fit.entropy_value - box_conjugate(1.0, 4.0, tol=1e-12))
    ok = singleton_ok and moments_err <= 1e-8 and conj_err <= 1e-7
    return CriterionResult(
        "5",
        "box degenerate ray and interior (1,4) duality",
        ok,
        {
            "singleton_ok": singleton_ok,
            "moments_err": moments_err,
            "conjugate_gap": conj_err,
        },
    )


def criterion_6(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Term-by-term derivative sum: central differences with h=1e-5 agree
    with the analytic series to 1e-6 at 20 random interior points per
    target (unit-gap, square-exponent, and the 2-D box free energy)."""
    rng = np.random.default_rng(seed)
    worst = {"linear": 0.0, "quadratic": 0.0, "box2d": 0.0}
    for _ in range(20):
        y = float(rng.uniform(-2.5, -0.25))
        worst["linear"] = max(
            worst["linear"], check_gradient_sum(linear(), y, h=1e-5).abs_gap
        )
    for _ in range(20):
        y = float(rng.uniform(-2.5, -0.2))
        worst["quadratic"] = max(
            worst["quadratic"], check_gradient_sum(quadratic(), y, h=1e-5).abs_gap
        )
    for _ in range(20):
        x = float(rng.uniform(-1.0, 1.0))
        y = float(rng.uniform(-2.0, -0.3))
        worst["box2d"] = max(
            worst["box2d"], check_gradient_sum_2d(x, y, h=1e-5).abs_gap
        )
    ok = all(v <= 1e-6 for v in worst.values())
    return CriterionResult(
        "6",
        "finite-difference gradient sums at 20 random points per target",
        ok,
        {"max_gaps": worst, "tol": 1e-6, "h": 1e-5, "seed": seed},
    )


def criterion_7(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Alternating gradient series: square coefficients converge to -2/27
    by 200 terms; exponential-rate classification follows the sign of
    x + rate at 10 sample points."""
    rep = alternating_gradient_series(
        -math.log(2.0), parse_varsigma("power:2"), 200
    )
    second_err = abs(rep.second_partial - (-2.0 / 27.0))
    samples = [
        (0.5, -1.0),
        (0.5, -0.4),
        (1.0, -2.0),
        (1.0, -0.5),
        (2.0, -3.0),
        (2.0, -1.0),
        (1.5, -1.6),
        (1.5, -1.4),
        (0.7, -0.8),
        (0.7, -0.6),
    ]
    cls_ok = True
    for a, x in samples:
        r = alternating_gradient_series(x, parse_varsigma(f"exp:{a}"), 100)
        expect = "convergent" if x + a < 0 else "divergent"
        cls_ok = cls_ok and (r.classification == expect)
    ok = second_err <= 1e-10 and cls_ok
    return CriterionResult(
        "7",
        "alternating series value -2/27 and sign-rule classification",
        ok,
        {"second_err": second_err, "classification_ok": cls_ok},
    )


def criterion_8(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Attainment value -2/27 at u=2 to 1e-12; alternating witnesses reach
    gaps 1e-1, 1e-2, 1e-3."""
    att = alternating_attainment(2.0, parse_varsigma("power:2"), tol=1e-13)
    value_err = abs(att.value - (-2.0 / 27.0))
    gaps = {}
    witness_ok = True
    for eps in (1e-1, 1e-2, 1e-3):
        wit = alternating_witness(2.0, 0.0, eps)
        gaps[f"{eps:g}"] = wit.gap
        witness_ok = witness_ok and (-1e-12 <= wit.gap <= eps)
    ok = value_err <= 1e-12 and witness_ok
    return CriterionResult(
        "8",
        "alternating attainment value and witness gaps",
        ok,
        {"value_err": value_err, "witness_gaps": gaps},
    )


def _cycle_families() -> list[SigmaSequence]:
    return [linear(), power(1.5), power(0.7), quadratic(), box(1.0)]


def criterion_9(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Fenchel-Young sweep over 1000 random (sequence, y, u) samples: no
    gap below -1e-10, equality cases within 1e-8."""
    rng = np.random.default_rng(seed)
    families = _cycle_families()
    min_gap = math.inf
    max_equality_gap = 0.0
    for i in range(1000):
        seq = families[i % len(families)]
        y = float(rng.uniform(-4.0, -0.3))
        if i % 10 < 7:
            u = float(rng.uniform(0.0, 5.0))
        else:  # equality case: u on the derivative graph
            u = _evaluate(seq, y, 1, 1e-12, None, 1e-12).midpoint
        rep = check_fenchel_young(seq, y, u)
        gap = rep.lhs[0]
        min_gap = min(min_gap, gap)
        if abs(rep.meta["fprime_minus_u"]) < 1e-11:
            max_equality_gap = max(max_equality_gap, abs(gap))
    ok = min_gap >= -1e-10 and max_equality_gap <= 1e-8
    return CriterionResult(
        "9",
        "Fenchel-Young inequality sweep (1000 samples)",
        ok,
        {
            "min_gap": min_gap,
            "max_equality_gap": max_equality_gap,
            "seed": seed,
        },
    )


def criterion_10(seed: int = DEFAULT_SEED) -> CriterionResult:
    """Domain table reproduces all five classifications with certificates."""
    rows = example1_table(n_probe=10**6)
    expected = [
        ("power", "OpenBoundary"),
        ("logfam:0.5", "OpenBoundary"),
        ("logfam:1.5", "ClosedInfiniteSlope"),
        ("logfam:3", "ClosedFiniteSlope"),
        ("loglog", "EmptyDomain"),
    ]
    cls_ok = len(rows) == 5 and all(
        row["sequence"].startswith(name) and row["boundary_class"] == cls
        for row, (name, cls) in zip(rows, expected)
    )
    certs_ok = all(
        all(
            cert.get("type") in ("divergence_lower_bound", "certified_value")
            for cert in row["certificates"].values()
        )
        for row in rows
    )
    slope_ok = isinstance(rows[3]["boundary_slope"], float) and math.isfinite(
        rows[3]["boundary_slope"]
    )
    ok = cls_ok and certs_ok and slope_ok
    return CriterionResult(
        "10",
        "five-row domain classification table with certificates",
        ok,
        {"classes_ok": cls_ok, "certificates_ok": certs_ok, "finite_slope_ok": slope_ok},
    )


CRITERIA = {
    "1": criterion_1,
    "2": criterion_2,
    "3": criterion_3,
    "4": criterion_4,
    "5": criterion_5,
    "6": criterion_6,
    "7": criterion_7,
    "8": criterion_8,
    "9": criterion_9,
    "10": criterion_10,
}

_ALIASES = {
    "geometric": "1",
    "conjugate": "2",
    "gibbs-weights": "3",
    "plateau": "4",
    "box": "5",
    "gradient-sum": "6",
    "alternating-series": "7",
    "alternating-witness": "8",
    "fenchel-young": "9",
    "domain-table": "10",
}


def run_criterion(claim: str, seed: int = DEFAULT_SEED) -> CriterionResult:
    key = _ALIASES.get(claim, claim)
    if key not in CRITERIA:
        known = ", ".join(list(CRITERIA) + sorted(_ALIASES))
        raise ValueError(f"unknown claim {claim!r}; known: {known}")
    return CRITERIA[key](seed=seed)


def run_all(seed: int = DEFAULT_SEED, jobs: int = 1) -> list[CriterionResult]:
    ids = list(CRITERIA)
    if jobs <= 1:
        return [CRITERIA[i](seed=seed) for i in ids]
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        futures = {i: pool.submit(CRITERIA[i], seed=seed) for i in ids}
        return [futures[i].result() for i in ids]
