"""Convex conjugates of exponential sums and of the box free energy.

The conjugate f*(u) = sup_y [y u - f(y)] of f(y) = sum_n exp(sigma_n y)
is finite exactly on u >= 0.  Regimes:

* u < 0: +inf;
* u = 0: 0 (the infimum of f is 0, approached as y -> -inf, not attained);
* 0 < u < gamma: the sup is attained at the unique interior y with
  f'(y) = u, found by bracketed monotone root finding;
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
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .sequences import SigmaSequence, quadratic, sigma
from .series import (
    BoundaryClass,
    DomainError,
    _best_bracket,
    domain_info,
    eval_series,
    log_f,
    max_terms_budget,
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

# closest approach to an open domain edge when bracketing toward it
BOUNDARY_CAP = 1e-12


class NumericError(RuntimeError):
    """Root finding or bracketing failed; the message carries diagnostics."""


class Regime(str, Enum):
    NEGATIVE_U = "NegativeU"
    ZERO = "Zero"
    INTERIOR = "Interior"
    BOUNDARY_GAMMA = "BoundaryGamma"
    PLATEAU = "Plateau"
    INFINITE = "Infinite"


@dataclass(frozen=True)
class ConjugateValue:
    """f*(u) with its regime tag and, when the sup is attained, the argmax.

    ``residual`` is the achieved residual of the root equation for
    interior solutions (nonzero when the optimizer was capped at an open edge).
    """

    value: float
    regime: Regime
    attaining_y: Optional[float] = None
    residual: Optional[float] = None


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
# Bracketed monotone inversion
# ---------------------------------------------------------------------------

def _expand_bracket(
    fn: Callable[[float], float],
    target: float,
    alpha: float,
    open_edge: bool,
) -> tuple[float, float, Optional[float]]:
    """Bracket the root of fn(y) = target on (-inf, -alpha).

    ``fn`` must be increasing with limit below target at -inf.  Returns
    (a, b) with fn(a) <= target <= fn(b), or (a, b, capped_value) when an
    open edge stops the rightward search at -alpha - BOUNDARY_CAP.
    """
    dist = 1.0
    a = -alpha - dist
    for _ in range(80):
        if fn(a) <= target:
            break
        dist *= 2.0
        a = -alpha - dist
    else:
        raise NumericError(
            f"left bracket expansion failed: fn({a!r}) still above {target!r}"
        )
    h = dist / 2.0
    b = -alpha - h
    for _ in range(200):
        fb = fn(b)
        if fb >= target:
            return a, b, None
        if open_edge and h <= BOUNDARY_CAP:
            return a, b, fb
        h = max(h / 2.0, BOUNDARY_CAP if open_edge else h / 2.0)
        b = -alpha - h
    raise NumericError(
        f"right bracket expansion failed near the edge -{alpha:g} "
        f"(target {target!r}, last fn={fb!r})"
    )


def _brent(
    f: Callable[[float], float],
    a: float,
    b: float,
    xtol: float,
    rtol: float,
    maxiter: int,
) -> float:
    """Root of f in the sign-changing bracket [a, b] by Brent's method.

    Brent, *Algorithms for Minimization without Derivatives* (1973),
    ch. 4.  Steps, acceptance tests and operation order follow the
    ``brentq`` C routine the tests compare against, so both return the
    same root after the same calls of f.  Stops once half the bracket is
    below (xtol + rtol |x|) / 2.  Raises NumericError when f(a), f(b) do
    not bracket a root, f returns NaN, or maxiter steps do not converge.
    """
    xpre, xcur = a, b
    xblk = fblk = spre = scur = 0.0
    fpre = f(xpre)
    fcur = f(xcur)
    if fpre == 0.0:
        return xpre
    if fcur == 0.0:
        return xcur
    if math.isnan(fpre) or math.isnan(fcur) or (fpre < 0.0) == (fcur < 0.0):
        raise NumericError(f"f({a!r})={fpre!r} and f({b!r})={fcur!r} do not bracket a root")
    for _ in range(maxiter):
        if fpre != 0.0 and fcur != 0.0 and (fpre < 0.0) != (fcur < 0.0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2.0
        sbis = (xblk - xcur) / 2.0
        if fcur == 0.0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            if 2.0 * abs(stry) < min(abs(spre), 3.0 * abs(sbis) - delta):
                spre, scur = scur, stry  # good short step
            else:
                spre = scur = sbis
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0.0 else -delta)
        fcur = f(xcur)
        if math.isnan(fcur):
            raise NumericError(f"f({xcur!r}) is NaN in the bracket ({a!r}, {b!r})")
    raise NumericError(f"Brent iteration did not converge in {maxiter} steps on ({a!r}, {b!r})")


def _excess(fn: Callable[[float], float], target: float) -> Callable[[float], float]:
    """fn(y) - target for Brent's method, read as 0 within four ulps of
    target.  A bracket midpoint, or a quotient of two, carries a few ulps
    of rounding, so that close the sign of the excess is noise: the probe
    is taken as the root rather than chased with further probes.  The
    caller still certifies the root's residual."""
    noise = 4.0 * math.ulp(target)

    def excess(y: float) -> float:
        d = fn(y) - target
        return 0.0 if abs(d) <= noise else d

    return excess


def solve_fprime(
    seq: SigmaSequence,
    u: float,
    tol: float = 1e-12,
    max_terms: Optional[int] = None,
) -> tuple[float, float]:
    """Solve f'(y) = u on the domain interior; returns (y, residual).

    f' is strictly increasing from 0 to gamma, so geometric bracket
    expansion followed by Brent iteration is sound.  Probes closer to a
    slow boundary than the budget allows degrade to their best bracket
    midpoint; the returned root is re-certified strictly, so the final
    residual satisfies |f'(y) - u| <= tol*max(1, u) or an error is
    raised.
    """
    di = domain_info(seq)
    eta = 0.25 * tol * max(1.0, u)
    max_terms = max_terms_budget(max_terms)  # one environment read, not one per probe

    def fp(y: float) -> float:
        return _best_bracket(seq, y, 1, eta, max_terms).midpoint

    open_edge = di.boundary_class is BoundaryClass.OPEN_BOUNDARY
    a, b, capped = _expand_bracket(fp, u, di.alpha, open_edge)
    if capped is not None:
        return b, abs(capped - u)
    y = _brent(_excess(fp, u), a, b, 1e-15, 8.9e-16, 300)
    final = eval_series(seq, y, 1, tol=eta, max_terms=max_terms)
    residual = abs(final.midpoint - u) + 0.5 * final.tail_bound
    if residual > tol * max(1.0, u):
        raise NumericError(
            f"root residual {residual:g} exceeds {tol * max(1.0, u):g} "
            f"for f'(y)={u!r} on {seq.spec_string()} (y={y!r}, bracket=({a!r},{b!r}))"
        )
    return y, residual


def solve_phi(
    seq: SigmaSequence,
    v: float,
    tol: float = 1e-12,
    max_terms: Optional[int] = None,
) -> tuple[float, float]:
    """Solve f'(y)/f(y) = v on the domain interior; returns (y, residual)."""
    di = domain_info(seq)
    rel = max(1e-15, 0.125 * tol * max(1.0, v) / max(v, 1e-300))
    max_terms = max_terms_budget(max_terms)  # one environment read, not one per probe

    def ph_best(y: float) -> float:
        f0 = _best_bracket(seq, y, 0, 1.0, max_terms).midpoint
        g0 = _best_bracket(seq, y, 1, 1.0, max_terms).midpoint
        if f0 <= 0.0 or g0 <= 0.0:
            raise NumericError(f"series underflows at y={y!r} while bracketing")
        num = _best_bracket(seq, y, 1, 0.25 * rel * g0, max_terms).midpoint
        den = _best_bracket(seq, y, 0, 0.25 * rel * f0, max_terms).midpoint
        return num / den

    open_edge = di.boundary_class is not BoundaryClass.CLOSED_FINITE_SLOPE
    a, b, capped = _expand_bracket(ph_best, v, di.alpha, open_edge)
    if capped is not None:
        return b, abs(capped - v)
    y = _brent(_excess(ph_best, v), a, b, 1e-15, 8.9e-16, 300)
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
    return u * (math.log(u) - 1.0) + 3.0 * u * lf
