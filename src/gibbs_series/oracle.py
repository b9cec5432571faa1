"""Brute-force and finite-difference cross-checks.

Everything here is deliberately independent of the certified series
machinery: truncated problems are solved by damped Newton on the finite
dual in log domain, derivatives are probed by difference stencils, and
closed forms are spelled out locally.  The main modules are verified
against these oracles in the test suite.
"""

from __future__ import annotations

import json
import math
from typing import NamedTuple, Optional

import numpy as np

from .sequences import SigmaSequence, VarsigmaSequence, sigma_values, varsigma_power
from .series import _compared, _evaluate

__all__ = [
    "VerificationReport",
    "TruncatedSolution",
    "TruncationInfeasibleError",
    "AlternatingSeriesReport",
    "primal_truncated",
    "check_gradient_sum",
    "check_gradient_sum_2d",
    "check_fenchel_young",
    "alternating_gradient_series",
    "geometric_f",
    "geometric_fprime",
    "geometric_fsecond",
]


class VerificationReport(NamedTuple):
    """One verified claim: inputs echoed, both sides, gaps, verdict.

    ``meta`` is a new dict for each report built without one.
    """

    claim: str
    params: dict
    lhs: tuple
    rhs: tuple
    abs_gap: float
    rel_gap: float
    tol: float
    passed: bool
    meta: Optional[dict] = None

    def to_json(self) -> str:
        return json.dumps(self._asdict(), sort_keys=True)


def _new_report(cls, *args, _new=VerificationReport.__new__, **kwargs) -> VerificationReport:
    report = _new(cls, *args, **kwargs)
    return report._replace(meta={}) if report.meta is None else report


# a NamedTuple field takes no default factory, so its __new__ gives each
# report left without ``meta`` a dict of its own
VerificationReport.__new__ = _new_report


def _report(claim, params, lhs, rhs, tol, meta=None) -> VerificationReport:
    lhs = tuple(float(x) for x in np.atleast_1d(lhs))
    rhs = tuple(float(x) for x in np.atleast_1d(rhs))
    gap = max(abs(a - b) for a, b in zip(lhs, rhs))
    scale = max([1e-300] + [abs(x) for x in lhs + rhs])
    return VerificationReport(
        claim=claim,
        params=params,
        lhs=lhs,
        rhs=rhs,
        abs_gap=gap,
        rel_gap=gap / scale,
        tol=tol,
        passed=gap <= tol,
        meta=meta,
    )


# ---------------------------------------------------------------------------
# Closed forms for the unit-gap geometric series (local, oracle-side)
# ---------------------------------------------------------------------------

def geometric_f(x: float) -> float:
    """sum_{n>=1} e^{nx} = e^x / (1 - e^x) for x < 0."""
    z = math.exp(x)
    return z / (1.0 - z)


def geometric_fprime(x: float) -> float:
    z = math.exp(x)
    return z / (1.0 - z) ** 2


def geometric_fsecond(x: float) -> float:
    z = math.exp(x)
    return z * (1.0 + z) / (1.0 - z) ** 3


# ---------------------------------------------------------------------------
# Truncated primal problems (finite-dimensional KKT oracle)
# ---------------------------------------------------------------------------

class TruncationInfeasibleError(ValueError):
    """The truncated support cannot meet the requested moments."""


class TruncatedSolution(NamedTuple):
    """Optimum of the N-level problem; upper bound on the countable one."""

    value: float
    weights: np.ndarray
    dual_x: Optional[float]
    dual_y: float
    residual: float
    n_levels: int
    __eq__, __ne__, __hash__ = _compared("weights")


def _truncated_sigmas(seq: SigmaSequence, n_levels: int) -> np.ndarray:
    start = seq.start_index
    ns = np.arange(start, start + n_levels, dtype=np.int64)
    return sigma_values(seq, ns)


def _damped_newton(value_and_slope, target_log: float, tol: float) -> float:
    """Solve value(y) = target_log by damped Newton from y = 0.

    ``value_and_slope(y)`` returns an increasing smooth value and its
    derivative; each step is halved until the residual shrinks.
    """
    y = 0.0
    val, slope = value_and_slope(y)
    for _ in range(200):
        resid = val - target_log
        if abs(resid) <= tol:
            return y
        step = -resid / slope
        for _ in range(60):
            y_new = y + step
            val_new, slope_new = value_and_slope(y_new)
            if abs(val_new - target_log) < abs(resid):
                y, val, slope = y_new, val_new, slope_new
                break
            step *= 0.5
        else:
            raise TruncationInfeasibleError(f"Newton stalled at residual {resid:g}")
    raise TruncationInfeasibleError("Newton did not converge in 200 iterations")


def _log_moment(s: np.ndarray):
    """y -> ln(sum s_i exp(s_i y)) and its slope, in log domain.

    The slope lies in [min s, max s]; the log domain keeps large |y| safe.
    """
    log_s = np.log(s)

    def value_and_slope(y: float) -> tuple[float, float]:
        a = s * y + log_s
        m = float(np.max(a))
        w = np.exp(a - m)
        tot = float(np.sum(w))
        return m + math.log(tot), float(np.dot(w, s) / tot)

    return value_and_slope


def _log_ratio(s: np.ndarray):
    """y -> ln(sum s e^{s y}) - ln(sum e^{s y}) and its slope."""

    def value_and_slope(y: float) -> tuple[float, float]:
        a = s * y
        m = float(np.max(a))
        w = np.exp(a - m)
        tot0 = float(np.sum(w))
        tot1 = float(np.dot(w, s))
        tot2 = float(np.dot(w, s * s))
        return math.log(tot1) - math.log(tot0), tot2 / tot1 - tot1 / tot0

    return value_and_slope


def primal_truncated(
    seq: SigmaSequence,
    n_levels: int,
    moment: float,
    mass: Optional[float] = None,
    tol: float = 1e-12,
) -> TruncatedSolution:
    """Solve the N-level entropy problem exactly (finite Gibbs family).

    min sum w_i (ln w_i - 1) subject to sum sigma_i w_i = moment and,
    when given, sum w_i = mass.  The value is an upper bound on the
    countable infimum and decreases as n_levels grows.
    """
    if n_levels < 2:
        raise ValueError("need at least two levels")
    s = _truncated_sigmas(seq, n_levels)
    if moment == 0 and (mass is None or mass == 0):
        return TruncatedSolution(0.0, np.zeros(n_levels), None, 0.0, 0.0, n_levels)
    if moment < 0 or (mass is not None and mass <= 0):
        raise TruncationInfeasibleError(
            f"targets (mass={mass!r}, moment={moment!r}) need mass > 0 and moment >= 0"
        )
    if mass is None:
        y = _damped_newton(_log_moment(s), math.log(moment), tol)
        w = np.exp(s * y)
        value = y * moment - float(np.sum(w))
        resid = abs(float(np.dot(s, w)) - moment)
        return TruncatedSolution(value, w, None, y, resid, n_levels)
    rho = moment / mass
    lo, hi = float(s.min()), float(s.max())
    if not (lo < rho < hi):
        raise TruncationInfeasibleError(
            f"ratio moment/mass = {rho:g} outside the representable range "
            f"({lo:g}, {hi:g}) of the first {n_levels} levels"
        )
    y = _damped_newton(_log_ratio(s), math.log(rho), tol)
    a = s * y
    m = float(np.max(a))
    log_mass_y = m + math.log(float(np.sum(np.exp(a - m))))
    x = math.log(mass) - log_mass_y
    w = np.exp(x + s * y)
    value = mass * (x - 1.0) + y * moment
    resid = max(
        abs(float(np.sum(w)) - mass), abs(float(np.dot(s, w)) - moment)
    )
    return TruncatedSolution(value, w, x, y, resid, n_levels)


# ---------------------------------------------------------------------------
# Derivative checks
# ---------------------------------------------------------------------------

def _tight_mid(seq: SigmaSequence, y: float, p: int = 0) -> float:
    """f^(p)(y) to 1e-13 of its size (absolute below 1)."""
    return _evaluate(seq, y, p, 1e-13, None, 1e-13).midpoint


def check_gradient_sum(
    seq: SigmaSequence,
    y: float,
    h: Optional[float] = None,
    tol: float = 1e-6,
    mode: str = "central",
) -> VerificationReport:
    """Difference-quotient check of the term-by-term derivative sum.

    central: (f(y+h) - f(y-h)) / 2h against sum sigma_n exp(sigma_n y).
    directional: one-sided quotients in both directions; at interior
    points they agree with +-f'(y).
    """
    if h is None:
        h = 1e-5 * max(1.0, abs(y))
    analytic = _tight_mid(seq, y, 1)
    if mode == "central":
        fd = (_tight_mid(seq, y + h) - _tight_mid(seq, y - h)) / (2.0 * h)
        return _report(
            "gradient-sum/central",
            {"seq": seq.spec_string(), "y": y, "h": h},
            fd,
            analytic,
            tol,
            meta={"stencil": "central", "order": 2},
        )
    if mode == "directional":
        f0 = _tight_mid(seq, y)
        d_plus = (_tight_mid(seq, y + h) - f0) / h
        d_minus = (_tight_mid(seq, y - h) - f0) / h
        return _report(
            "gradient-sum/directional",
            {"seq": seq.spec_string(), "y": y, "h": h},
            (d_plus, -d_minus),
            (analytic, analytic),
            tol,
            meta={"stencil": "one-sided", "order": 1},
        )
    raise ValueError(f"unknown mode {mode!r}")


def check_gradient_sum_2d(
    x: float,
    y: float,
    kappa: float = 1.0,
    h: Optional[float] = None,
    tol: float = 1e-6,
) -> VerificationReport:
    """Gradient check for H(x, y) = e^x (sum_k e^{kappa k^2 y})^3.

    Central differences in both coordinates against the analytic
    gradient (e^x f^3, 3 e^x f^2 f') built from certified evaluations of
    the cubed factor.
    """
    if h is None:
        h = 1e-5 * max(1.0, abs(x), abs(y))
    from .scenarios import BoxModel

    model = BoxModel(kappa)
    H = model.h
    fd = (
        (H(x + h, y) - H(x - h, y)) / (2.0 * h),
        (H(x, y + h) - H(x, y - h)) / (2.0 * h),
    )
    analytic = model.grad_h(x, y)
    return _report(
        "gradient-sum/2d-box",
        {"x": x, "y": y, "kappa": kappa, "h": h},
        fd,
        analytic,
        tol,
        meta={"stencil": "central", "order": 2},
    )


def check_fenchel_young(
    seq: SigmaSequence,
    y: float,
    u: float,
    tol: float = 1e-9,
) -> VerificationReport:
    """f(y) + f*(u) - y u >= 0, tight exactly when u = f'(y)."""
    from .conjugate import conjugate

    f_here = _tight_mid(seq, y)
    fp_here = _tight_mid(seq, y, 1)
    fstar = conjugate(seq, u, tol=1e-12).value
    gap = f_here + fstar - y * u
    report = VerificationReport(
        claim="fenchel-young",
        params={"seq": seq.spec_string(), "y": y, "u": u},
        lhs=(gap,),
        rhs=(0.0,),
        abs_gap=max(0.0, -gap),
        rel_gap=max(0.0, -gap) / max(1.0, abs(gap)),
        tol=tol,
        passed=gap >= -tol,
        meta={"fprime_minus_u": fp_here - u, "fstar": fstar},
    )
    return report


# ---------------------------------------------------------------------------
# Alternating gradient partial sums
# ---------------------------------------------------------------------------

class AlternatingSeriesReport(NamedTuple):
    """Partial sums of sum_n (n e^{nx}, (-1)^n vs_n e^{nx}) with references."""

    first_partial: float
    second_partial: float
    first_reference: float
    second_reference: Optional[float]
    classification: str
    n_terms: int
    first_gap: float
    second_gap: Optional[float]


def alternating_gradient_series(
    x: float,
    varsigma: VarsigmaSequence,
    n_terms: int,
) -> AlternatingSeriesReport:
    """Partial gradient sums of e^{nx + (-1)^n vs_n * 0} at the axis point.

    The first component always converges to the geometric closed form;
    the second converges iff the coefficient growth loses to e^{nx}
    (square-power coefficients: reference 8 f''(2x) - f''(x); exponential
    rate a: convergent iff x + a < 0 with a geometric reference).
    """
    if not x < 0:
        raise ValueError("needs x < 0")
    ns = np.arange(1, n_terms + 1, dtype=np.float64)
    z = np.exp(ns * x)
    first = float(np.dot(ns, z))
    sgn = np.where(ns % 2 == 0, 1.0, -1.0)
    rules = varsigma.family.rules
    rate = rules.rate(varsigma.param)  # lim ln(vs_n)/n
    if rate > 0.0:
        # exponentially growing coefficients overflow fast: sum in log space
        log_terms = varsigma.log_values(ns) + ns * x
        second = float(np.sum(sgn * np.exp(np.minimum(log_terms, 700.0))))
    else:
        second = float(np.sum(sgn * varsigma.values(ns) * z))
    convergent = x + rate < 0
    classification = "convergent" if convergent else "divergent"
    second_ref = None
    if convergent and rules.geometric:
        w = math.exp(x + rate)
        second_ref = -w / (1.0 + w)
    elif convergent and varsigma == varsigma_power(2.0):
        second_ref = 8.0 * geometric_fsecond(2.0 * x) - geometric_fsecond(x)
    first_ref = geometric_fprime(x)
    return AlternatingSeriesReport(
        first_partial=first,
        second_partial=second,
        first_reference=first_ref,
        second_reference=second_ref,
        classification=classification,
        n_terms=n_terms,
        first_gap=abs(first - first_ref),
        second_gap=abs(second - second_ref) if second_ref is not None else None,
    )
