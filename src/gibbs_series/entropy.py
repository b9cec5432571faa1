"""Countable maximum-entropy problems with Gibbs-form solutions.

Minimizes sum_n w_n (ln w_n - 1) over nonnegative weights under one
moment constraint (sum sigma_n w_n = u) or two (additionally
sum w_n = u with energy v).  Attained minimizers are exponential-family
laws w_n = exp(x + sigma_n y); when the infimum is not attained (the
affine plateau of the conjugate, or sign-alternating constraints away
from the attainment point) finite-support eps-optimal witnesses are
constructed explicitly.

The minima are the conjugates f*(u) (one moment) and u(ln u - 1) +
u (ln f)*(v/u) (two), and the fits map the regimes ``conjugate`` decides
to a FitStatus: infeasible exactly when v < s_min u, the ground level in
a rounding band above s_min, the edge law within its certified band.
"""

from __future__ import annotations

import bisect
import math
from enum import Enum
from typing import NamedTuple, Optional

import numpy as np

from .conjugate import Regime, _find_root, _log_conjugate, _require_numbers, conjugate, exp_conjugate
from .sequences import (
    BoundaryClass,
    SigmaSequence,
    VarsigmaFamily,
    VarsigmaSequence,
    _U,
    _frozen,
    _li_neg,
    _up,
    linear,
    sigma,
    sigma_values,
    varsigma_power,
)
from .series import (
    domain_info,
    eval_series,
    max_terms_budget,
    tail_bound_after,
    _compared,
    _edge,
)

__all__ = [
    "FitStatus",
    "GibbsFit",
    "PlateauWitness",
    "AlternatingAttainment",
    "AlternatingWitness",
    "InfeasibleError",
    "WitnessBudgetError",
    "min_entropy_moment",
    "fit_gibbs",
    "plateau_witness",
    "alternating_attainment",
    "alternating_witness",
    "gibbs_ratio",
]

class InfeasibleError(ValueError):
    """No nonnegative weights can satisfy the requested constraints."""


class WitnessBudgetError(RuntimeError):
    """Witness search hit its budget; ``best`` holds the closest result (may be None)."""

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best


_NO_INDICES = _frozen(np.empty(0, dtype=np.int64))


class FitStatus(str, Enum):
    INTERIOR_UNIQUE = "InteriorUnique"
    BOUNDARY_SINGLETON = "BoundarySingleton"
    PLATEAU_NON_ATTAINED = "PlateauNonAttained"
    INFEASIBLE = "Infeasible"


class GibbsFit(NamedTuple):
    """Result of an entropy minimization.

    For attained fits the law is w_n = exp(dual_x + sigma_n dual_y)
    (dual_x absent for the single-constraint problem); ``indices`` and
    ``weights`` materialize a prefix, with certified bounds on the mass
    and energy carried by the un-materialized tail.  ``indices`` is a
    read-only int64 array, of shape (n,) for an index family and (n, 3)
    of triples (k, l, m) for the box (empty where nothing is
    materialized).  ``achieved`` holds the full-law moments (mass, energy).
    """

    status: FitStatus
    dual_x: Optional[float] = None
    dual_y: Optional[float] = None
    indices: np.ndarray = _NO_INDICES
    weights: Optional[np.ndarray] = None
    tail_mass: float = 0.0
    tail_energy: float = 0.0
    achieved: tuple[Optional[float], Optional[float]] = (None, None)
    entropy_value: float = math.nan
    reason: str = ""
    __eq__, __ne__, __hash__ = _compared("indices", "weights")


def _attained(
    seq: SigmaSequence,
    x: Optional[float],
    y: float,
    mass: float,
    energy: float,
    tail_target: float,
) -> GibbsFit:
    """The attained law w_n = exp(x + sigma_n y) with the given moments and
    entropy (x - 1) mass + y energy (x = None: the one-moment law, x = 0).

    The prefix is cut where its family's rules cut it (at an index, or
    between box levels), the cut doubling from the first of ``rules.cuts``
    until both certified tails are below ``tail_target`` or it reaches the
    last, neither past the last float exponent (``rules.last``).
    """
    x0 = 0.0 if x is None else x
    rules = seq.family.rules
    cut, last = rules.cuts(seq)
    last = min(last, rules.last(seq, 1))
    cut = min(cut, last)
    mass_t = energy_t = math.inf
    while True:
        m = tail_bound_after(seq, y, 0, cut)
        e = tail_bound_after(seq, y, 1, cut)
        if m is not None and e is not None:
            mass_t, energy_t = _scaled_up(x0, m), _scaled_up(x0, e)
            if max(mass_t, energy_t) <= tail_target:
                break
        if cut >= last:
            break
        cut = min(2 * cut, last)
    # the prefix's exponents are its own array: the weights take its place
    indices, w = rules.prefix(seq, cut)
    w *= y
    _scale_by_exp(x0, np.exp(w, out=w))
    keep = max(int(np.searchsorted(w == 0.0, True)), 1)  # drop underflowed tail
    return _noted(GibbsFit(
        status=FitStatus.INTERIOR_UNIQUE,
        dual_x=x,
        dual_y=y,
        indices=indices[:keep],
        weights=w[:keep],
        tail_mass=mass_t,
        tail_energy=energy_t,
        achieved=(mass, energy),
        entropy_value=(x0 - 1.0) * mass + y * energy,
    ))


def _noted(fit: GibbsFit) -> GibbsFit:
    """``fit``, its reason ending in a note where its entropy value passed
    float64 (``scenarios.box_report`` repeats the note)."""
    if math.isfinite(fit.entropy_value):
        return fit
    note = f"entropy passed float64: {fit.entropy_value!r}"
    return fit._replace(reason=f"{fit.reason}; {note}" if fit.reason else note)


def _scaled_up(x: float, tail: float) -> float:
    """Upper bound on exp(x) tail: exp(x) carries (|x| + 1) u, halved 2 u more (in _up's margin)."""
    return _up(_exp_times(x, tail), 2.0 ** -53 * (abs(x) + 2.0))


_LN_MAX = 709.782712893384  # ln(largest float): exp(x) overflows past it


def _exp_times(x: float, c):
    """exp(x) c, as exp(x/2) c exp(x/2) where exp(x) overflows (x > ``_LN_MAX``)."""
    if x <= _LN_MAX:
        return math.exp(x) * c
    half = math.exp(0.5 * x)
    return half * c * half


def _scale_by_exp(x: float, a: np.ndarray) -> None:
    """``a`` times exp(x) in place, rounded as ``_exp_times`` rounds it."""
    if x <= _LN_MAX:
        a *= math.exp(x)
    else:
        half = math.exp(0.5 * x)
        a *= half
        a *= half


# ---------------------------------------------------------------------------
# Moment-constrained minimization
# ---------------------------------------------------------------------------

def min_entropy_moment(
    seq: SigmaSequence,
    u: float,
    tol: float = 1e-9,
    max_terms: Optional[int] = None,
) -> GibbsFit:
    """Minimize sum w_n (ln w_n - 1) subject to sum sigma_n w_n = u.

    The optimal value equals the conjugate of the exponential sum at u
    for every u >= 0; the minimum is attained exactly for u up to the
    boundary slope gamma (weights exp(sigma_n y) with f'(y) = u, all
    zero at u = 0), and for u beyond a finite gamma the infimum is an
    affine plateau that no summable law attains.
    """
    _require_numbers(u=u)
    _edge(seq, "entropy problem undefined for an empty domain")
    cv = conjugate(seq, u, tol=tol, max_terms=max_terms)
    if cv.regime is Regime.NEGATIVE_U:
        return GibbsFit(
            status=FitStatus.INFEASIBLE,
            reason=f"target moment {u!r} is negative; weights are nonnegative",
        )
    if cv.regime is Regime.ZERO:
        return GibbsFit(
            status=FitStatus.INTERIOR_UNIQUE,
            achieved=(0.0, 0.0),
            entropy_value=0.0,
            reason="zero moment forces the all-zero law",
        )
    if cv.regime is Regime.PLATEAU:
        return GibbsFit(
            status=FitStatus.PLATEAU_NON_ATTAINED,
            entropy_value=cv.value,
            achieved=(None, u),
            reason="moment exceeds the boundary slope; infimum not attained",
        )
    y = cv.attaining_y
    if cv.regime is Regime.BOUNDARY_GAMMA:  # (a finite slope) the edge law's moments are the domain's
        di = domain_info(seq)
        f_mid, g_mid = di.f_at_boundary, di.gamma
    else:
        f_mid = eval_series(seq, y, 0, tol=0.25 * tol * max(1.0, u), max_terms=max_terms).midpoint
        g_mid = eval_series(seq, y, 1, tol=0.25 * tol * max(1.0, u), max_terms=max_terms).midpoint
    return _attained(seq, None, y, f_mid, g_mid, tol * max(1.0, u))


def fit_gibbs(
    seq: SigmaSequence,
    u: float,
    v: float,
    tol: float = 1e-9,
    max_terms: Optional[int] = None,
) -> GibbsFit:
    """Minimize entropy subject to sum w_n = u and sum sigma_n w_n = v.

    Dispatch on the energy-per-mass ratio rho = v/u: interior ratios give
    the unique law exp(x + sigma_n y) with f'(y)/f(y) = rho and
    x = ln u - ln f(y); the minimal ratio puts all mass on the lowest
    level (a solution no multiplier pair produces); ratios below it are
    infeasible.  For a finite-slope closed edge, ratios beyond the
    attainable range leave a finite but non-attained infimum.
    """
    _require_numbers(u=u, v=v)
    _edge(seq, "entropy problem undefined for an empty domain")
    if u < 0 or v < 0:
        return GibbsFit(
            status=FitStatus.INFEASIBLE,
            reason=f"moments ({u!r}, {v!r}) outside the nonnegative cone",
        )
    if u == 0:
        if v == 0:
            return GibbsFit(
                status=FitStatus.INTERIOR_UNIQUE,
                achieved=(0.0, 0.0),
                entropy_value=0.0,
                reason="zero mass and energy force the all-zero law",
            )
        return GibbsFit(
            status=FitStatus.INFEASIBLE,
            achieved=(0.0, None),
            reason=(
                "zero mass forces all weights to zero, so no positive energy is "
                "representable (the conjugate still evaluates to 0 there)"
            ),
        )
    cv = _log_conjugate(seq, v, tol, max_terms, u=u)
    s_min = sigma(seq, seq.start_index)
    rho = v / u
    if cv.regime is Regime.INFINITE:
        # the exact test v < s_min * u, printed in full: the rounded ratio
        # can read equal to s_min
        return GibbsFit(
            status=FitStatus.INFEASIBLE,
            reason=(
                f"energy {v!r} below the minimal exponent times the mass, {s_min * u!r}; "
                f"feasible energy/mass ratios lie in [{s_min!r}, sup f'/f)"
            ),
        )
    if cv.regime is Regime.ZERO:
        # unique minimal level carries everything; not a Gibbs law
        return _noted(GibbsFit(
            status=FitStatus.BOUNDARY_SINGLETON,
            indices=_frozen(np.array([seq.family.rules.ground(seq)])),
            weights=np.array([u]),
            achieved=(u, u * s_min),
            entropy_value=exp_conjugate(u),
            reason="ratio at the minimal exponent: all mass on the ground level",
        ))
    if cv.regime is Regime.PLATEAU:
        return _noted(GibbsFit(
            status=FitStatus.PLATEAU_NON_ATTAINED,
            entropy_value=exp_conjugate(u) + u * cv.value,
            achieved=(u, v),
            reason="ratio beyond the attainable range; infimum not attained",
        ))
    y = cv.attaining_y
    x = math.log(u) - (rho * y - cv.value)  # Fenchel-Young: ln f(y) = rho y - (ln f)*(rho)
    g_mid = eval_series(seq, y, 1, tol=0.25 * tol * max(1.0, v), max_terms=max_terms).midpoint
    return _attained(seq, x, y, u, _exp_times(x, g_mid), tol * max(1.0, u))


# ---------------------------------------------------------------------------
# Plateau witnesses (finite support, moment exact, entropy near-optimal)
# ---------------------------------------------------------------------------

class PlateauWitness(NamedTuple):
    """Finite-support weights for a non-attained plateau infimum.

    Prefix indices carry the boundary law exp(-sigma_k alpha); window
    indices carry exp(-sigma_k lam) with lam in (0, alpha) chosen so the
    moment matches exactly (the last window weight absorbs the float
    residual).  ``gap`` = entropy - target where target is the conjugate
    value at u.
    """

    indices: np.ndarray
    weights: np.ndarray
    entropy: float = math.nan
    target: float = math.nan
    gap: float = math.nan
    lam: float = math.nan
    n_prefix: int = 0
    window_len: int = 0
    lam_history: tuple[float, ...] = ()
    gap_history: tuple[float, ...] = ()
    __eq__, __ne__, __hash__ = _compared("indices", "weights")


def plateau_witness(
    seq: SigmaSequence,
    u: float,
    eps: float,
    max_terms: Optional[int] = None,
    n_prefix: Optional[int] = None,
) -> PlateauWitness:
    """eps-optimal finite weights for the plateau regime u >= gamma.

    Requires a finite boundary slope, the class of ``rules.domain``,
    before gamma is summed.  The prefix sits at the boundary multiplier
    alpha; a window of q further terms runs at a smaller multiplier lam_q
    solving sum_window sigma_k exp(-sigma_k lam) = u - prefix moment, and
    q grows until the measured entropy gap drops below eps.  The gap of
    this construction (indeed of any finite-support witness for these
    slowly decaying exponents) shrinks only like 1/log(support), so small
    eps values exhaust any realistic budget: the search then raises
    WitnessBudgetError carrying the best witness found.
    """
    if not eps > 0:
        raise ValueError("eps must be positive")
    if seq.family.rules.domain(seq)[1] is not BoundaryClass.CLOSED_FINITE_SLOPE:
        raise ValueError(
            f"{seq.spec_string()} has an infinite boundary slope: every moment "
            "is attained and no plateau exists"
        )
    di = domain_info(seq)
    if u < di.gamma - di.gamma_err:
        raise ValueError(
            f"moment {u!r} is below the boundary slope {di.gamma:g}; "
            "the minimum is attained, use min_entropy_moment"
        )
    budget = max_terms_budget(max_terms)
    start = seq.start_index
    target = conjugate(seq, u).value

    # smallest admissible prefix end: the first index whose exponent reaches
    # u, by bisection of the nondecreasing sigma over the budget's indices
    stop = start + budget
    n_bar = start + bisect.bisect_left(range(start, stop), u, key=lambda n: sigma(seq, n))
    if n_bar == stop:
        raise WitnessBudgetError(f"no exponent within {budget} terms reaches u={u!r}")
    n_end = max(n_prefix if n_prefix is not None else n_bar, n_bar)
    if n_end >= stop:
        raise WitnessBudgetError(f"prefix through n={n_end} exceeds the {budget}-term budget")

    ks_prefix = np.arange(start, n_end + 1, dtype=np.int64)
    s_prefix = sigma_values(seq, ks_prefix)
    w_prefix = np.exp(-s_prefix * di.alpha)
    prefix_moment = float(np.sum(s_prefix * w_prefix))
    prefix_entropy = float(np.sum(w_prefix * (np.log(w_prefix) - 1.0)))
    v_window = u - prefix_moment
    if v_window <= 0:
        raise ValueError(
            f"prefix through n={n_end} already carries moment {prefix_moment:g} "
            f">= u={u!r}; decrease n_prefix"
        )

    lam_hist: list[float] = []
    gap_hist: list[float] = []
    best: Optional[PlateauWitness] = None
    q = 1024
    while True:
        q = min(q, budget - (n_end - start + 1))
        if q < 1:
            break
        ks = np.arange(n_end + 1, n_end + q + 1, dtype=np.int64)
        s = sigma_values(seq, ks)

        def window_moment(lam: float) -> float:
            return float(np.sum(s * np.exp(-s * lam)))

        # the window moment decreases in lam, so solve in -lam below the edge
        # lam = 0, where it is at least sigma_{n_end+1} >= u > v_window
        lam = -_find_root(lambda t: (window_moment(-t), None), v_window, 1e-13 * v_window, 0.0)[0]
        w = np.exp(-s * lam)
        moment = prefix_moment + float(np.sum(s * w))
        w[-1] += (u - moment) / s[-1]  # exact moment, float-level
        entropy = prefix_entropy + float(np.sum(w * (np.log(w) - 1.0)))
        gap = entropy - target
        lam_hist.append(lam)
        gap_hist.append(gap)
        wit = PlateauWitness(
            indices=np.concatenate([ks_prefix, ks]),
            weights=np.concatenate([w_prefix, w]),
            entropy=entropy,
            target=target,
            gap=gap,
            lam=lam,
            n_prefix=n_end,
            window_len=q,
            lam_history=tuple(lam_hist),
            gap_history=tuple(gap_hist),
        )
        if best is None or wit.gap < best.gap:
            best = wit
        if gap <= eps:
            return wit
        if (n_end - start + 1) + q >= budget:
            break
        q *= 2
    achieved = f"{best.gap:g}" if best is not None else "none"
    raise WitnessBudgetError(
        f"witness gap {achieved} did not reach eps={eps:g} within {budget} terms "
        f"(the gap of this construction decays like 1/log(terms))",
        best,
    )


# ---------------------------------------------------------------------------
# Sign-alternating second constraint
# ---------------------------------------------------------------------------

def gibbs_ratio(u: float) -> float:
    """Weight ratio of the unit-gap Gibbs law with energy u.

    The law (ratio)^n solves the single-moment problem for sigma_n = n;
    the ratio is the root in (0,1) of u z^2 - (2u+1) z + u = 0.
    """
    if not u > 0:
        raise ValueError("ratio defined for u > 0")
    return (1.0 + 2.0 * u - math.sqrt(4.0 * u + 1.0)) / (2.0 * u)


class AlternatingAttainment(NamedTuple):
    """Attainment classification for the alternating second moment.

    The infimum with constraints (sum n w_n = u, sum (-1)^n vs_n w_n = v)
    is attained iff the alternating series over the Gibbs law converges
    and v equals its sum ``value``.
    """

    convergent: bool
    value: Optional[float]
    ratio: float
    alpha_threshold: Optional[float] = None  # exp family: convergent iff alpha < this


def alternating_attainment(
    u: float,
    varsigma: VarsigmaSequence,
    tol: float = 1e-12,
) -> AlternatingAttainment:
    """Classify convergence of sum (-1)^n varsigma_n ratio^n and sum it.

    The sum is within ``tol`` of the exact one at the reported ratio, or
    WitnessBudgetError says why it cannot be: for varsigma_n = n^k, k = 2
    or 3, it is Li_{-k}(-q) = -q A_k(-q)/(1 + q)^(k+1), A_k the Eulerian
    polynomials (``sequences._li_neg``), where |A_k(-q)| <= 2 and each of
    its few operations is within an ulp of its size: 32 u in all.  Other
    coefficients that grow slower than geometric are summed
    (``_alternating_sum``).
    """
    q = gibbs_ratio(u)
    rules = varsigma.family.rules
    rate = rules.rate(varsigma.param)
    # the terms vanish iff varsigma_n grows slower than q^-n; the threshold
    # is reported for the geometric family, whose parameter is its rate
    threshold = -math.log(q)
    reported = threshold if rules.geometric else None
    if rate >= threshold:
        return AlternatingAttainment(False, None, q, alpha_threshold=reported)
    if rules.geometric:
        w = -math.exp(rate) * q
        return AlternatingAttainment(True, w / (1.0 - w), q, alpha_threshold=reported)
    k = varsigma.param
    if varsigma.family is VarsigmaFamily.POWER_K and k == int(k) and k <= 3:
        if 32.0 * _U > tol:
            raise WitnessBudgetError(
                f"alternating sum's float64 rounding floor {32.0 * _U:g} exceeds tol={tol:g}"
            )
        return AlternatingAttainment(True, _li_neg(int(k), -q, 1.0 + q), q)
    return AlternatingAttainment(True, _alternating_sum(q, varsigma, tol), q)


def _alternating_sum(q: float, varsigma: VarsigmaSequence, tol: float) -> float:
    """sum_{n>=1} (-1)^n varsigma_n q^n in doubling blocks from 64 terms,
    until a geometric bound on the rest is at most tol/2.

    Each term is within 6 u of itself (two pows and two products), a
    numpy block sum within (log2 n + 19) u of its |terms| and the sum of
    the blocks, ``math.fsum``, rounds once: with S the sum of |terms| to
    n, the float64 floor u (log2 n + 30) S, 1 % more for S's own rounding.
    Where the terms peak far above the sum (q near 1) that floor passes
    tol/2 and WitnessBudgetError names it, as it does past 10^7 terms.
    """
    rules = varsigma.family.rules
    parts = []
    weight = 0.0
    N = 0
    block = 64
    while True:
        ns = np.arange(N + 1, N + block + 1, dtype=np.float64)
        terms = np.where(ns % 2 == 0, 1.0, -1.0) * varsigma.values(ns) * q ** ns
        parts.append(float(np.sum(terms)))
        weight += float(np.sum(np.abs(terms)))
        N += block
        floor = _U * (math.log2(N) + 30.0) * weight * 1.01
        if floor > 0.5 * tol:
            raise WitnessBudgetError(
                f"alternating sum's float64 rounding floor {floor:g} exceeds tol/2 = "
                f"{0.5 * tol:g} after {N} terms (ratio {q!r})"
            )
        r = q * rules.step(varsigma.param, N)
        if r < 1.0 and varsigma.value(N + 1) * q ** (N + 1) / (1.0 - r) <= 0.5 * tol:
            return math.fsum(parts)
        if N > 10_000_000:
            raise WitnessBudgetError("alternating sum did not certify")
        block *= 2


class AlternatingWitness(NamedTuple):
    """Finite weights meeting the alternating two-moment constraints.

    Prefix 1..n_prefix carries the Gibbs law ratio^n; indices (m, m+1)
    carry the exact two-term correction absorbing the residual moments.
    Entropy is within ``gap`` <= eps of the conjugate value at u.

    The constraints hold exactly in real arithmetic; the measured float
    residuals are only meaningful relative to ``signed_scale``, the
    largest |vs_i * w_i| term (enormous for the doubly-exponential
    coefficients, where the signed check is ill-conditioned by nature).
    """

    indices: np.ndarray
    weights: np.ndarray
    entropy: float = math.nan
    target: float = math.nan
    gap: float = math.nan
    n_prefix: int = 0
    window_start: int = 0
    moment_residuals: tuple[float, float] = (0.0, 0.0)
    signed_scale: float = 1.0
    __eq__, __ne__, __hash__ = _compared("indices", "weights")


def alternating_witness(
    u: float,
    v: float,
    eps: float,
    varsigma: Optional[VarsigmaSequence] = None,
    max_index: int = 10_000_000_000,
) -> AlternatingWitness:
    """eps-optimal weights with sum n w_n = u, sum (-1)^n vs_n w_n = v.

    Every real v is reachable at entropy cost approaching the
    single-constraint optimum: a long-enough Gibbs prefix brings the
    entropy within eps/2, and a two-term far-tail correction with
    vanishing weights fixes both moments at nonpositive entropy cost.
    """
    if varsigma is None:
        varsigma = varsigma_power(2.0)
    if not eps > 0:
        raise ValueError("eps must be positive")
    if u < 0:
        raise InfeasibleError("mass-moment u must be nonnegative")
    if u == 0:
        if v == 0:
            return AlternatingWitness(
                indices=np.empty(0, dtype=np.int64),
                weights=np.empty(0),
                entropy=0.0,
                target=0.0,
                gap=0.0,
            )
        raise InfeasibleError(
            "u = 0 forces all weights to zero, so v must be 0 "
            "(no finite witness exists although the conjugate value is 0)"
        )

    q = gibbs_ratio(u)
    target = conjugate(linear(), u).value

    # prefix long enough that the omitted entropy tail is below eps/2
    n_pref = max(4, math.ceil(2.0 * q / (1.0 - q)))
    while True:
        t_next = q ** (n_pref + 1) * ((n_pref + 1) * (-math.log(q)) + 1.0)
        r = q * (1.0 + 1.0 / (n_pref + 1))
        if r < 1.0 and t_next / (1.0 - r) <= eps / 2.0:
            break
        n_pref += max(1, n_pref // 4)
    ks = np.arange(1, n_pref + 1, dtype=np.float64)
    w_pref = q ** ks
    # residual moments of the omitted tail: closed form for the mass
    # moment, direct alternating sum for the signed one
    u_resid = q ** (n_pref + 1) * ((n_pref + 1) - n_pref * q) / (1.0 - q) ** 2
    v_resid = v - float(
        np.sum(np.where(ks % 2 == 0, 1.0, -1.0) * varsigma.values(ks) * w_pref)
    )

    # two-term correction at (m, m+1): admissible once u' vs_k >= k |v'|
    def admissible(m: int) -> bool:
        if v_resid == 0.0:
            return True
        bound = math.log(abs(v_resid) / u_resid)
        return all(
            varsigma.log_value(k) >= math.log(k) + bound for k in (m, m + 1)
        )

    m = n_pref + 1
    while not admissible(m):
        m = max(m + 1, int(m * 1.5))
        if m > max_index:
            raise WitnessBudgetError(
                f"no admissible correction index below {max_index}"
            )
    # normalized by vs_{m+1} to stay finite for the exponential families
    s_m = -1.0 if m % 2 else 1.0  # (-1)^m
    rho = math.exp(varsigma.log_value(m) - varsigma.log_value(m + 1))
    v_over = v_resid * math.exp(-varsigma.log_value(m + 1))
    den = m + (m + 1.0) * rho
    g_m = (u_resid + s_m * (m + 1.0) * v_over) / den
    g_m1 = (u_resid * rho - s_m * m * v_over) / den
    if g_m < -1e-18 or g_m1 < -1e-18:
        raise WitnessBudgetError(
            f"correction weights negative at m={m}: ({g_m:g}, {g_m1:g})"
        )
    g_m, g_m1 = max(g_m, 0.0), max(g_m1, 0.0)

    idx = np.concatenate([ks.astype(np.int64), np.array([m, m + 1], dtype=np.int64)])
    wts = np.concatenate([w_pref, np.array([g_m, g_m1])])
    nz = wts > 0.0
    entropy = float(np.sum(wts[nz] * (np.log(wts[nz]) - 1.0)))
    mass_mom = math.fsum(float(i) * float(w) for i, w in zip(idx, wts))
    terms = []
    for i, w in zip(idx, wts):
        if w > 0.0:
            t = math.exp(math.log(w) + varsigma.log_value(int(i)))
            terms.append(t if i % 2 == 0 else -t)
    signed = math.fsum(terms)
    scale = max([1.0] + [abs(t) for t in terms])
    return AlternatingWitness(
        indices=idx,
        weights=wts,
        entropy=entropy,
        target=target,
        gap=entropy - target,
        n_prefix=n_pref,
        window_start=m,
        moment_residuals=(mass_mom - u, signed - v),
        signed_scale=scale,
    )
