"""Convex conjugates of exponential sums and of the box free energy.

The conjugate f*(u) = sup_y [y u - f(y)] of f(y) = sum_n exp(sigma_n y)
is finite exactly on u >= 0.  Regimes:

* u < 0: +inf;
* u = 0: 0 (the infimum of f is 0, approached as y -> -inf, not attained);
* 0 < u < gamma: the sup is attained at the unique interior y with
  f'(y) = u, found by a safeguarded secant on ln f'(y) - ln u (``_find_root``)
  whose first probe is a float64 root on the first exponents (``_float_start``);
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
from functools import lru_cache, partial
from typing import Any, Callable, NamedTuple, Optional

import numpy as np

from .sequences import Family, SigmaSequence, _float_tail, box, box_factor, quadratic, sigma
from .series import (
    BoundaryClass,
    _best_bracket,
    _compared,
    _edge,
    _relative,
    _sigma_prefix,
    domain_info,
    eval_series,
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
]

# probes before _find_root gives up; an interior solve from a float start
# takes one or two, and up to about twenty from edge - 1, where none is made
_MAX_PROBES = 200
# the float start (``_float_start``): exponents it reads (a tail model adds
# the rest) and steps it takes at most
_START_TERMS, _START_STEPS = 256, 40
# the most a tail model's error estimate may be, relative to a moment, and
# the share of one below which the terms past the block are left out: a
# quarter, as where increments shrink they fall slower than its last ratio
_START_AGREE, _START_SKIP = 1e-10, 2.5e-11
# a log excess at which one more Halley step leaves ~1e-15 of it
_START_DONE = 1e-5


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

    ``residual`` is the certified residual of the root equation for
    interior solutions.
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

def _require_positive(target: float) -> None:
    """NumericError unless the log-space solve's target is positive."""
    if not target > 0.0:
        raise NumericError(f"the log-space solve needs a positive target, got {target!r}")


def _find_root(
    fn: Callable[[float], tuple[float, Any]],
    target: float,
    band: float,
    edge: float,
    start: Optional[tuple[float, float]] = None,
) -> tuple[float, Any]:
    """Solve value = target > 0, fn(y) = (value, payload), value increasing on (-inf, edge).

    Starts at ``start`` (``_float_start``'s float root and the slope of the
    log excess there), or without one at edge - 1, and takes secant steps
    on the log excess ln value - ln target; a first probe from a start that
    misses takes a Newton step on the start's slope instead.  For f' that
    is a log-sum-exp of affine functions of y, convex and nearly linear, so
    few steps reach the root.  The nearest probes below and above target
    form a bracket; a step that leaves it, or that follows a secant step
    inside it which did not halve the log excess, is replaced by the
    bracket's midpoint in ln(edge - y).  Before a bracket forms a step may
    at most halve the distance to the edge or double it; without a step,
    or past the edge, a step keeps 1/2, 1/4, 1/16, ... of the distance, so
    any float distance is reached in ~11 probes.  Returns (y, payload) of
    the first probe within ``band`` of target, or of the better end of a
    bracket that float resolution cannot split.  Raises NumericError for a
    target not positive (before any probe), on a NaN probe, when value does
    not cross target, or after _MAX_PROBES probes.
    """
    _require_positive(target)
    log_target = math.log(target)
    lo: Optional[tuple] = None  # nearest (y, value, payload) below target
    hi: Optional[tuple] = None  # nearest (y, value, payload) above target
    prev = None  # (y, log excess) of the previous probe
    interpolated = False  # whether the current probe is a secant step inside the bracket
    keep = 0.5  # share of the edge distance kept by the next step without a secant
    y, slope = (edge - 1.0, None) if start is None else start
    for _ in range(_MAX_PROBES):
        fy, payload = fn(y)
        if math.isnan(fy):
            raise NumericError(f"probe fn({y!r}) is NaN while solving for {target!r}")
        if abs(fy - target) <= band:
            return y, payload
        if fy < target:
            lo = (y, fy, payload)
        else:
            hi = (y, fy, payload)
        excess = math.log(fy) - log_target if fy > 0.0 else -math.inf
        step = None
        if prev is not None and math.isfinite(excess + prev[1]) and excess != prev[1]:
            step = y - excess * (y - prev[0]) / (excess - prev[1])
        elif prev is None and slope is not None:  # the first probe, from a start
            step = y - excess / slope
        slow = interpolated and abs(excess) > 0.5 * abs(prev[1])
        prev = (y, excess)
        interpolated = False
        if lo is not None and hi is not None:
            if step is None or not lo[0] < step < hi[0] or slow:
                step = edge - math.sqrt(edge - lo[0]) * math.sqrt(edge - hi[0])
            else:
                interpolated = True
            if not lo[0] < step < hi[0]:
                y, _, payload = min(lo, hi, key=lambda p: abs(p[1] - target))
                return y, payload
        elif hi is None:
            gap = edge - lo[0]
            if step is None or not lo[0] < step < edge:
                # at most the float nearest the edge
                step = min(edge - keep * gap, math.nextafter(edge, -math.inf))
                keep *= keep
            else:
                step = min(step, edge - 0.5 * gap)
            if step <= lo[0]:
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


def _float_start(
    seq: SigmaSequence, target: float, ratio: bool = False
) -> Optional[tuple[float, float]]:
    """An uncertified root of f'(y) = target, or with ``ratio`` of
    f'(y)/f(y) - s_min = target, in float64 (``_StartBlock``), and the
    slope of the log excess there, for ``_find_root``'s first probe.

    Halley steps on the log excess, each at most twice Newton's and under
    ``_find_root``'s limits (at most halving the distance to the edge or
    doubling it), start from edge - 1.  None, for ``_find_root``'s own
    start, where ``_start_block`` makes no block, where the block has no
    value at a step (``_StartBlock.at``), or without convergence in
    _START_STEPS steps.
    """
    block = _start_block(seq, seq.generator)
    if block is None:
        return None
    log_target = math.log(target)
    edge = block.edge
    y = edge - 1.0
    # whether y is edge - 1 or reached from it by limited steps alone: an
    # edge - 2^k, whose values the block keeps for every target
    ladder = True
    kept = block.ladders[ratio]
    for _ in range(_START_STEPS):
        point = kept.get(y) if ladder else None
        if point is None:
            point = block.at(y, ratio)
            if point is None:
                return None
            if ladder:
                kept[y] = point
        log_sum, slope, curve = point
        excess = log_sum - log_target
        done = abs(excess) <= _START_DONE
        # Halley's step, at most twice Newton's
        halley = 1.0 - 0.5 * excess * curve / (slope * slope)
        step = excess / slope / (halley if halley > 0.5 else 0.5)
        gap = edge - y
        if step > gap:  # farther than twice the distance to the edge
            y = edge - 2.0 * gap
        elif step < -0.5 * gap:  # more than half way to the edge
            y = edge - 0.5 * gap
        else:
            y -= step
            ladder = False
        if done:
            return y, slope
    return None


class _StartBlock:
    """A sequence's first exponents as ``_float_start`` solves on them.

    f = g^power, g = sum exp(sigma_n y) over the block's exponents and the
    terms past them: a box is the cube of its factor's sum
    (``series._eval_box``), any other sequence its own g.  The sums are
    scaled by exp(-s_min y) so that no term overflows, and ``at`` reads
    either equation from the moments sum d^k exp(d y), k = 0..3, d_n =
    sigma_n - s_min: the read-only ``rows`` d^k times exp(d y) give the
    block's, and ``tail``, the family's float model of the terms past it
    (``sequences._float_tail``; None for exponents without a formula),
    adds theirs.  ``ladders`` holds per equation the values (``at``) at the
    points that every solve probes first.
    """

    __slots__ = ("rows", "s_min", "s_top", "s_gap", "edge", "power", "tail", "ladders")

    def __init__(self, s: np.ndarray, edge: float, power: int, tail: Optional[Callable]) -> None:
        self.s_min, self.s_top, self.s_gap = float(s[0]), float(s[-1]), float(s[-1] - s[-2])
        self.edge, self.power, self.tail = edge, power, tail
        self.rows = rows = np.empty((4, s.size))
        rows[0] = 1.0
        d = np.subtract(s, self.s_min, out=rows[1])
        np.multiply(d, d, out=rows[2])
        np.multiply(rows[2], d, out=rows[3])
        rows.flags.writeable = False
        self.ladders: tuple[dict, dict] = ({}, {})

    def at(self, y: float, ratio: bool) -> Optional[tuple[float, float, float]]:
        """(log sum, slope, curvature): the log excess over the target 1 of
        ln f' or ln(f'/f - s_min), and its first two y-derivatives.  The
        tail model adds the terms past the block unless its last term times
        1 + d and the geometric series on its last ratio (at most its size)
        is below _START_SKIP of the moments k = 0, 1, which set the value
        (k = 2, 3 only steer).  None outside the domain, where a sum
        underflows, a value is not finite, the slope is not positive or d y
        would overflow, and where the terms past the block count but there
        is no model or its error estimate exceeds _START_AGREE of those."""
        if not (y < self.edge and self.s_top * y > -1e300):
            return None
        e = self.rows[1] * y
        np.exp(e, out=e)
        # a product and a row sum, not BLAS: after a BLAS matrix-vector
        # product the pure-Python certificates that follow ran up to 20 %
        # slower in a cold process (the log family's near-edge conjugates)
        sums = (self.rows * e).sum(axis=1)
        count = 1.0 / max(math.expm1(min(-y * self.s_gap, 700.0)), 1.0 / e.size)  # q / (1 - q)
        if e[-1] * count * (1.0 + self.s_top - self.s_min) >= _START_SKIP * min(sums[0], sums[1]):
            if self.tail is None:
                return None
            tail, err = self.tail(y)
            sums += tail
            if not (err[:2] <= _START_AGREE * sums[:2]).all():
                return None
        m0, m1, m2, m3 = sums.tolist()
        shift = 0.0 if ratio else self.s_min
        # g' - s_min g or g', over exp(s_min y)
        num, dnum, ddnum = m1 + shift * m0, m2 + shift * m1, m3 + shift * m2
        if not num > 0.0:
            return None
        log_sum = math.log(self.power * num) + shift * y
        slope = dnum / num
        curve = ddnum / num - slope * slope
        slope += shift
        # f'/f - s_min = power (g'/g - s_min), f' = power g^(power-1) g'
        weight = -1.0 if ratio else self.power - 1.0  # of ln g
        if weight:
            mean = m1 / m0
            log_sum += weight * (math.log(m0) + shift * y)
            slope += weight * (mean + shift)
            curve += weight * (m2 / m0 - mean * mean)
        if not (slope > 0.0 and math.isfinite(log_sum + curve)):
            return None
        return log_sum, slope, curve


@lru_cache(maxsize=64)
def _start_block(seq: SigmaSequence, generator) -> Optional[_StartBlock]:
    """The ``_StartBlock`` of the first _START_TERMS exponents, cut at the
    last float one (``Rules.last``), of the sequence or of a box's factor,
    with the family's float tail model after them where its rules give its
    exponents in w = ln x.  None for an empty domain, a signed sequence, a
    single exponent or exponents not finite or too large to cube.
    ``generator`` keys a custom sequence's exponents, as in ``_sigma_prefix``."""
    alpha, edge = seq.family.rules.domain(seq)
    if edge is BoundaryClass.EMPTY_DOMAIN or seq.signed:
        return None
    power = 1
    if seq.family is Family.BOX:
        seq, power = box_factor(seq.kappa), 3
    rules = seq.family.rules
    first = seq.start_index
    stop = min(first + _START_TERMS, rules.last(seq, 1) + 1)
    s = _sigma_prefix(seq, stop)[: stop - first]
    s_min, s_top = float(s[0]), float(s[-1])
    big = max(s_top, 1.0)
    # bounds every moment; inf (products overflow quietly) or NaN for
    # exponents not finite
    if not (math.isfinite(s_min) and 1 < s.size and s.size * s_top * big * big < 2.0 ** 1000):
        return None
    tail = None if rules.in_w is None else partial(_float_tail, seq, stop - 1, s_min)
    return _StartBlock(s, -alpha, power, tail)


def _solved(
    seq: SigmaSequence, found: tuple, limit: float, kind: str, equation: str
) -> tuple[float, float]:
    """``_find_root``'s (y, (residual, error)) as (y, residual); raises the
    stopping probe's budget error, or NumericError for a residual > limit."""
    y, (residual, error) = found
    if error is not None:
        raise error
    if residual > limit:
        where = f"for {equation} on {seq.spec_string()} (y={y!r})"
        raise NumericError(f"{kind} residual {residual:g} exceeds {limit:g} {where}")
    return y, residual


def solve_fprime(
    seq: SigmaSequence,
    u: float,
    tol: float = 1e-12,
    max_terms: Optional[int] = None,
) -> tuple[float, float]:
    """Solve f'(y) = u on the domain interior; returns (y, residual).

    f' is strictly increasing from 0 to gamma, so ``_find_root`` inverts it
    up to the first probe whose midpoint (of its best bracket where the walk
    exhausts the budget) lies within 0.5*tol*max(1, u) of u.  That bracket
    certifies |f'(y) - u| <= residual <= tol*max(1, u), or ``_solved`` raises.
    A budget-bound first probe from the float start whose bracket holds u
    raises its budget error at once: no later probe could tell the root's side.
    So does a probe whose sum passed float64 toward -inf, its midpoint NaN.
    """
    _require_positive(u)
    eta = 0.25 * tol * max(1.0, u)
    start = _float_start(seq, u)

    def fp(y: float) -> tuple[float, tuple]:
        ev, error = _best_bracket(seq, y, 1, eta, max_terms)
        held = start and y == start[0] and ev.value <= u <= ev.upper
        if error is not None and (held or math.isnan(ev.midpoint)):
            raise error
        return ev.midpoint, (abs(ev.midpoint - u) + 0.5 * ev.tail_bound, error)

    found = _find_root(fp, u, 2.0 * eta, -seq.family.rules.domain(seq)[0], start)
    return _solved(seq, found, tol * max(1.0, u), "root", f"f'(y)={u!r}")


def _ratio_rel(tol: float, v: float) -> float:
    """``solve_phi``'s relative split of ``tol`` at the ratio v: each probe
    walks f' and f to a quarter of it."""
    return max(1e-15, 0.125 * tol * max(1.0, v) / max(v, 1e-300))


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
    flatten.  Each probe walks f' and f once, as ``phi`` does, to a fraction
    of their own certified lower ends; the first within 0.25*tol*max(1, v)
    of v gives the residual as in ``solve_fprime`` (f's budget error first,
    and at once from the start where the ratio's bracket holds v).
    """
    s_min = sigma(seq, seq.start_index)
    _require_positive(v - s_min)
    rel = _ratio_rel(tol, v)
    start = _float_start(seq, v - s_min, ratio=True)

    def ph(y: float) -> tuple[float, tuple]:
        num, num_error = _best_bracket(seq, y, 1, 0.0, max_terms, 0.25 * rel)
        den, den_error = _best_bracket(seq, y, 0, 0.0, max_terms, 0.25 * rel)
        if not (num.value > 0.0 and 0.0 < den.value <= den.upper < math.inf):
            raise NumericError(f"series underflows or passes float64 at y={y!r} while bracketing")
        error = den_error or num_error
        at_start = error is not None and start and y == start[0]
        if at_start and num.value / den.upper <= v <= num.upper / den.value:
            raise error
        ratio = num.midpoint / den.midpoint
        return ratio - s_min, (abs(ratio - v) + 0.5 * rel * v, error)

    edge = -seq.family.rules.domain(seq)[0]
    found = _find_root(ph, v - s_min, 0.25 * tol * max(1.0, v), edge, start)
    return _solved(seq, found, tol * max(1.0, v), "ratio", f"phi(y)={v!r}")


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
    edge = _edge(seq, "conjugate undefined for an empty domain")[1]
    if u < 0:
        return ConjugateValue(math.inf, Regime.NEGATIVE_U)
    if u == 0:
        return ConjugateValue(0.0, Regime.ZERO)
    if edge is BoundaryClass.CLOSED_FINITE_SLOPE:  # gamma and f(-alpha) are finite
        di = domain_info(seq)
        edge_value = -di.alpha * u - di.f_at_boundary
        if u > di.gamma + di.gamma_err:
            return ConjugateValue(edge_value, Regime.PLATEAU, attaining_y=-di.alpha)
        if u >= di.gamma - di.gamma_err:
            return ConjugateValue(edge_value, Regime.BOUNDARY_GAMMA, attaining_y=-di.alpha)
    y, residual = solve_fprime(seq, u, tol=tol, max_terms=max_terms)
    # |f*(u)| = f(y) + |y| u, so f to 0.25 tol max(1, |y| u) keeps the value's
    # error within 0.125 tol max(1, |f*(u)|)
    f_here = eval_series(
        seq, y, 0, tol=0.25 * tol * max(1.0, min(u, abs(y) * u)), max_terms=max_terms
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
    edge = _edge(seq, "conjugate undefined for an empty domain")[1]
    s_min = sigma(seq, seq.start_index)
    if v < s_min * u:
        return ConjugateValue(math.inf, Regime.INFINITE)
    rho = v / u
    if rho <= s_min + 1e-13 * max(1.0, s_min):  # absorbs the rounding of v/u
        return ConjugateValue(0.0, Regime.ZERO)
    if edge is BoundaryClass.CLOSED_FINITE_SLOPE:
        di = domain_info(seq)
        f_edge = di.f_at_boundary
        ratio_sup = di.gamma / f_edge
        ratio_err = di.gamma_err / f_edge + di.gamma * di.f_boundary_err / f_edge ** 2
        edge_value = -di.alpha * rho - math.log(f_edge)
        if rho > ratio_sup + ratio_err:
            return ConjugateValue(edge_value, Regime.PLATEAU, attaining_y=-di.alpha)
        if rho >= ratio_sup - ratio_err:
            return ConjugateValue(edge_value, Regime.BOUNDARY_GAMMA, attaining_y=-di.alpha)
    y, residual = solve_phi(seq, rho, tol=tol, max_terms=max_terms)
    # f to the stopping probe's relative width, a replay of its walk, but
    # never looser than 0.125 tol (looser where rho < 1/4)
    rel = min(0.25 * _ratio_rel(tol, rho), 0.125 * tol)
    lf = math.log(_relative(seq, y, 0, rel, max_terms, "log").midpoint)
    return ConjugateValue(rho * y - lf, Regime.INTERIOR, attaining_y=y, residual=residual)


def box_conjugate(u: float, v: float, tol: float = 1e-9, kappa: float = 1.0) -> float:
    """Conjugate of the box free energy h(x, y) = e^x (sum_k e^{kappa y k^2})^3.

    Case table over (u, v): +inf when u < 0, v < 0, or 0 <= v < 3 kappa u;
    0 when u = 0 <= v; and u(ln u - 1) + 3u (ln f)*(v/(3 kappa u)) on the
    cone v >= 3 kappa u > 0, with f the unit quadratic series: NumericError
    where that passes float64 (u (ln u - 1) from u ~ 2.6e305), not +inf.
    A kappa outside the box family (``box``) is a ValueError.
    """
    box(kappa)
    _require_numbers(u=u, v=v)
    if u < 0 or v < 0 or (u > 0 and v < 3.0 * kappa * u):
        return math.inf
    if u == 0:
        return 0.0
    lf = log_f_conjugate(quadratic(), v / (3.0 * kappa * u), tol=tol)
    value = exp_conjugate(u) + 3.0 * u * lf
    if not math.isfinite(value):
        raise NumericError(f"box conjugate at (u, v) = ({u!r}, {v!r}) passed float64: {value!r}")
    return value
