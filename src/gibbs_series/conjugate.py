"""Convex conjugates of exponential sums and of the box free energy.

The conjugate f*(u) = sup_y [y u - f(y)] of f(y) = sum_n exp(sigma_n y)
is finite exactly on u >= 0.  Regimes:

* u < 0: +inf;
* u = 0: 0 (the infimum of f is 0, approached as y -> -inf, not attained);
* 0 < u < gamma: the sup is attained at the unique interior y with
  f'(y) = u, found by a safeguarded secant on ln f'(y) - ln u (``_find_root``);
* u = gamma < inf: attained at the domain edge -alpha;
* u > gamma (finite gamma): f* is affine with slope -alpha,
  f*(u) = -alpha u - f(-alpha), the sup being attained at the edge.

The conjugate of ln f is read at the ratio rho = v/u of a mass u > 0 and
an energy v (u = 1 for ``log_f_conjugate``).  It is +inf exactly when
v < s_min u (s_min the smallest exponent); 0, not attained, up to
1e-13 max(1, s_min) above s_min (the rounding of v/u); attained at the
edge within the certified error of the edge ratio gamma/f(-alpha) and
affine beyond it; else attained where f'/f = rho.  The entropy minima
f*(u) and u(ln u - 1) + u (ln f)*(v/u) take their regimes from here.

All infinite values are genuine IEEE infinities paired with an explicit
regime tag; no finite sentinels are used.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import Callable, NamedTuple, Optional

from .sequences import SigmaSequence, quadratic, sigma
from .series import (
    BoundaryClass,
    DomainError,
    _best_bracket,
    _compared,
    domain_info,
    eval_series,
    log_f,
    phi,
)

__all__ = [
    "Regime",
    "ConjugateValue",
    "NumericError",
    "exp_conjugate",
    "conjugate",
    "log_f_conjugate",
    "box_conjugate",
    "solve_fprime",
    "solve_phi",
    "BOUNDARY_CAP",
]

# closest approach to an open domain edge when searching toward it
BOUNDARY_CAP = 1e-12
# probes before _find_root gives up; an interior solve takes about seven
_MAX_PROBES = 200


class NumericError(RuntimeError):
    """Root finding or bracketing failed; the message carries diagnostics."""


class Regime(str, Enum):
    NEGATIVE_U = "NegativeU"
    ZERO = "Zero"
    INTERIOR = "Interior"
    BOUNDARY_GAMMA = "BoundaryGamma"
    PLATEAU = "Plateau"
    INFINITE = "Infinite"


class ConjugateValue(NamedTuple):
    """f*(u) with its regime tag and, when the sup is attained, the argmax.

    ``residual`` is the achieved residual of the root equation for
    interior solutions (nonzero when the optimizer was capped at an open edge).
    """

    value: float
    regime: Regime
    attaining_y: Optional[float] = None
    residual: Optional[float] = None
    __eq__, __ne__, __hash__ = _compared()


def _require_numbers(**args: float) -> None:
    """ValueError for a NaN or +inf moment, raised before any evaluation
    (-inf stays meaningful: the +inf regime of a negative moment)."""
    for name, value in args.items():
        if math.isnan(value) or value == math.inf:
            raise ValueError(f"{name} must be a number below +inf, got {value!r}")


def exp_conjugate(u: float) -> float:
    """Conjugate of exp: +inf for u < 0, u*(ln u - 1) for u >= 0 (0 ln 0 = 0)."""
    if u < 0:
        return math.inf
    if u == 0:
        return 0.0
    return u * (math.log(u) - 1.0)


# ---------------------------------------------------------------------------
# Monotone inversion in log space
# ---------------------------------------------------------------------------

def _find_root(
    fn: Callable[[float], float],
    target: float,
    band: float,
    edge: float,
    cap: Optional[float] = None,
) -> tuple[float, float, bool]:
    """Solve fn(y) = target > 0 for fn increasing on (-inf, edge).

    Returns (y, fn(y), capped).  Starts at edge - 1 and takes secant steps
    on the log excess ln fn(y) - ln target.  For f' that is a log-sum-exp
    of affine functions of y, convex and nearly linear, so few steps reach
    the root.  The nearest probes below and above target form a bracket;
    a step that leaves it, or that follows a secant step inside it which
    did not halve the log excess, is replaced by bisection.  Before a
    bracket forms a step may at most halve the distance to the edge
    (toward it) or double it (away from it).  Stops at the first probe
    within ``band`` of target, or at the better end of a bracket that float
    resolution cannot split; there is no stop on the step length.  With
    ``cap`` (an open edge) the search gets no closer to the edge than
    ``cap`` and returns capped=True there if fn is still below target.
    Raises NumericError on a NaN probe, when fn does not cross target, or
    after _MAX_PROBES probes.
    """
    if not target > 0.0:
        raise NumericError(f"the log-space solve needs a positive target, got {target!r}")
    log_target = math.log(target)
    lo: Optional[tuple[float, float]] = None  # nearest (y, fn(y)) below target
    hi: Optional[tuple[float, float]] = None  # nearest (y, fn(y)) above target
    prev = None  # (y, log excess) of the previous probe
    interpolated = False  # whether the current probe is a secant step inside the bracket
    y = edge - 1.0
    for _ in range(_MAX_PROBES):
        fy = fn(y)
        if math.isnan(fy):
            raise NumericError(f"probe fn({y!r}) is NaN while solving for {target!r}")
        if abs(fy - target) <= band:
            return y, fy, False
        if fy < target:
            lo = (y, fy)
        else:
            hi = (y, fy)
        excess = math.log(fy) - log_target if fy > 0.0 else -math.inf
        step = None
        if prev is not None and math.isfinite(excess + prev[1]) and excess != prev[1]:
            step = y - excess * (y - prev[0]) / (excess - prev[1])
        slow = interpolated and abs(excess) > 0.5 * abs(prev[1])
        prev = (y, excess)
        interpolated = False
        if lo is not None and hi is not None:
            if step is None or not lo[0] < step < hi[0] or slow:
                step = 0.5 * (lo[0] + hi[0])
            else:
                interpolated = True
            if not lo[0] < step < hi[0]:
                return min(lo, hi, key=lambda p: abs(p[1] - target)) + (False,)
        elif hi is None:
            nearest = edge - max(0.5 * (edge - lo[0]), cap or 0.0)
            step = nearest if step is None or step <= lo[0] else min(step, nearest)
            if step <= lo[0]:
                if cap is not None:
                    return lo + (True,)
                raise NumericError(
                    f"fn stays below {target!r} up to the edge {edge!r} (last fn={fy!r})"
                )
        else:
            farthest = edge - 2.0 * (edge - hi[0])
            step = farthest if step is None or step >= hi[0] else max(step, farthest)
        y = step
    raise NumericError(
        f"no root of fn(y) = {target!r} within {_MAX_PROBES} probes (last y={y!r})"
    )


def solve_fprime(
    seq: SigmaSequence,
    u: float,
    tol: float = 1e-12,
    max_terms: Optional[int] = None,
) -> tuple[float, float]:
    """Solve f'(y) = u on the domain interior; returns (y, residual).

    f' is strictly increasing from 0 to gamma, so ``_find_root`` inverts
    it, stopping at the first probe whose midpoint lies within
    0.5*tol*max(1, u) of u.  Probes closer
    to a slow boundary than the budget allows degrade to their best
    bracket midpoint; the returned root is re-certified strictly, so the
    final residual satisfies |f'(y) - u| <= tol*max(1, u) or an error is
    raised.
    """
    di = domain_info(seq)
    eta = 0.25 * tol * max(1.0, u)

    def fp(y: float) -> float:
        return _best_bracket(seq, y, 1, eta, max_terms).midpoint

    cap = BOUNDARY_CAP if di.boundary_class is BoundaryClass.OPEN_BOUNDARY else None
    y, fy, capped = _find_root(fp, u, 2.0 * eta, -di.alpha, cap)
    if capped:
        return y, abs(fy - u)
    final = eval_series(seq, y, 1, tol=eta, max_terms=max_terms)
    residual = abs(final.midpoint - u) + 0.5 * final.tail_bound
    if residual > tol * max(1.0, u):
        raise NumericError(
            f"root residual {residual:g} exceeds {tol * max(1.0, u):g} "
            f"for f'(y)={u!r} on {seq.spec_string()} (y={y!r})"
        )
    return y, residual


def solve_phi(
    seq: SigmaSequence,
    v: float,
    tol: float = 1e-12,
    max_terms: Optional[int] = None,
) -> tuple[float, float]:
    """Solve f'(y)/f(y) = v on the domain interior; returns (y, residual).

    The ratio increases from s_min, and phi - s_min falls to 0 like
    exp((sigma_2 - sigma_1) y) as y -> -inf, so ``_find_root`` solves
    phi - s_min = v - s_min, whose log is nearly linear where ln phi would
    flatten.  Each probe walks f and f' once, until their brackets are a
    fraction of their own certified lower ends wide.  It stops at the
    first probe within 0.25*tol*max(1, v) of v, and the root is
    re-certified strictly like ``solve_fprime``'s.
    """
    di = domain_info(seq)
    rel = max(1e-15, 0.125 * tol * max(1.0, v) / max(v, 1e-300))

    def ph_best(y: float) -> float:
        num = _best_bracket(seq, y, 1, 0.0, max_terms, 0.25 * rel)
        den = _best_bracket(seq, y, 0, 0.0, max_terms, 0.25 * rel)
        if num.value <= 0.0 or den.value <= 0.0:
            raise NumericError(f"series underflows at y={y!r} while bracketing")
        return num.midpoint / den.midpoint

    s_min = sigma(seq, seq.start_index)
    cap = None if di.boundary_class is BoundaryClass.CLOSED_FINITE_SLOPE else BOUNDARY_CAP
    y, fy, capped = _find_root(
        lambda y: ph_best(y) - s_min, v - s_min, 0.25 * tol * max(1.0, v), -di.alpha, cap
    )
    if capped:
        return y, abs(fy + s_min - v)
    residual = abs(phi(seq, y, tol=rel, max_terms=max_terms) - v) + 0.5 * rel * v
    if residual > tol * max(1.0, v):
        raise NumericError(
            f"ratio residual {residual:g} exceeds {tol * max(1.0, v):g} "
            f"for phi(y)={v!r} on {seq.spec_string()} (y={y!r})"
        )
    return y, residual


# ---------------------------------------------------------------------------
# Conjugates
# ---------------------------------------------------------------------------

def conjugate(
    seq: SigmaSequence,
    u: float,
    tol: float = 1e-9,
    max_terms: Optional[int] = None,
) -> ConjugateValue:
    """f*(u) with regime dispatch; see the module docstring for the cases."""
    _require_numbers(u=u)
    di = domain_info(seq)
    if di.empty:
        raise DomainError("conjugate undefined for an empty domain", di)
    if u < 0:
        return ConjugateValue(math.inf, Regime.NEGATIVE_U)
    if u == 0:
        return ConjugateValue(0.0, Regime.ZERO)
    if math.isfinite(di.gamma):
        edge_value = -di.alpha * u - di.f_at_boundary
        if u > di.gamma + di.gamma_err:
            return ConjugateValue(edge_value, Regime.PLATEAU, attaining_y=-di.alpha)
        if u >= di.gamma - di.gamma_err:
            return ConjugateValue(edge_value, Regime.BOUNDARY_GAMMA, attaining_y=-di.alpha)
    y, residual = solve_fprime(seq, u, tol=tol, max_terms=max_terms)
    f_here = eval_series(
        seq, y, 0, tol=0.25 * tol * max(1.0, u), max_terms=max_terms
    ).midpoint
    return ConjugateValue(y * u - f_here, Regime.INTERIOR, attaining_y=y, residual=residual)


def log_f_conjugate(
    seq: SigmaSequence,
    v: float,
    tol: float = 1e-9,
    max_terms: Optional[int] = None,
) -> float:
    """Conjugate of ln f, sup_y [v y - ln f(y)]: the module's ratio rule at u = 1."""
    return _log_conjugate(seq, v, tol, max_terms).value


def _log_conjugate(
    seq: SigmaSequence,
    v: float,
    tol: float,
    max_terms: Optional[int],
    u: float = 1.0,
) -> ConjugateValue:
    """(ln f)*(v/u) for u > 0, tagged by the ratio rule of the module
    docstring; ZERO has no attaining y, the edge regimes attain at -alpha."""
    _require_numbers(v=v)
    di = domain_info(seq)
    if di.empty:
        raise DomainError("conjugate undefined for an empty domain", di)
    s_min = sigma(seq, seq.start_index)
    if v < s_min * u:
        return ConjugateValue(math.inf, Regime.INFINITE)
    rho = v / u
    if rho <= s_min + 1e-13 * max(1.0, s_min):  # absorbs the rounding of v/u
        return ConjugateValue(0.0, Regime.ZERO)
    if math.isfinite(di.gamma):
        f_edge = di.f_at_boundary
        ratio_sup = di.gamma / f_edge
        ratio_err = di.gamma_err / f_edge + di.gamma * di.f_boundary_err / f_edge ** 2
        edge_value = -di.alpha * rho - math.log(f_edge)
        if rho > ratio_sup + ratio_err:
            return ConjugateValue(edge_value, Regime.PLATEAU, attaining_y=-di.alpha)
        if rho >= ratio_sup - ratio_err:
            return ConjugateValue(edge_value, Regime.BOUNDARY_GAMMA, attaining_y=-di.alpha)
    y, residual = solve_phi(seq, rho, tol=tol, max_terms=max_terms)
    lf = log_f(seq, y, tol=0.25 * tol * max(1.0, rho), max_terms=max_terms)
    return ConjugateValue(rho * y - lf, Regime.INTERIOR, attaining_y=y, residual=residual)


def box_conjugate(u: float, v: float, tol: float = 1e-9, kappa: float = 1.0) -> float:
    """Conjugate of the box free energy h(x, y) = e^x (sum_k e^{kappa y k^2})^3.

    Case table over (u, v): +inf when u < 0, v < 0, or 0 <= v < 3 kappa u;
    0 when u = 0 <= v; and u(ln u - 1) + 3u (ln f)*(v/(3 kappa u)) on the
    cone v >= 3 kappa u > 0, with f the unit quadratic series.
    """
    _require_numbers(u=u, v=v)
    if u < 0 or v < 0:
        return math.inf
    if u == 0:
        return 0.0
    if v < 3.0 * kappa * u:
        return math.inf
    lf = log_f_conjugate(quadratic(), v / (3.0 * kappa * u), tol=tol)
    return exp_conjugate(u) + 3.0 * u * lf
