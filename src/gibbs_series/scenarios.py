"""Canned model instances wired to the core modules.

* a domain-classification table for the power / log / iterated-log
  exponent families, with certified convergence or divergence bounds;
* the cubic-box spectrum kappa*(k^2+l^2+m^2) with its free energy
  h(x, y) = e^x (sum_k e^{kappa k^2 y})^3 and one-call entropy reports;
* a sample table for the sign-alternating gradient families.
"""

from __future__ import annotations

import math
from typing import NamedTuple, Optional

from .conjugate import box_conjugate
from .entropy import FitStatus, GibbsFit, fit_gibbs
from .oracle import alternating_gradient_series
from .sequences import (
    Family,
    SigmaSequence,
    box,
    box_factor,
    logfam,
    loglog,
    power,
    varsigma_exp,
    varsigma_expsq,
    varsigma_power,
)
from .series import domain_info, eval_series

__all__ = ["BoxModel", "BoxReport", "example1_table", "example2_table", "box_report"]


# ---------------------------------------------------------------------------
# Domain classification table
# ---------------------------------------------------------------------------

def _divergence_certificate(seq: SigmaSequence, kind: str, n_probe: int) -> dict:
    """Exact lower bound, growing without bound in n_probe, for a
    divergent boundary series (integral comparison, closed form)."""
    if kind == "loglog":  # terms (ln n)^y decay slower than any 1/n power
        y = -5.0
        lower = (n_probe - 2.0) * math.log(n_probe) ** y
        growth = f"N (ln N)^{y:g} (probe y = {y:g})"
    else:  # sum_{n>=3} 1/(n (ln n)^t) is the mass (t = theta), below the slope (t = theta - 1)
        t = seq.theta if kind == "mass" else seq.theta - 1.0
        W0, W1 = math.log(3.0), math.log(n_probe + 1.0)
        if t == 1.0:
            lower = math.log(W1) - math.log(W0)
            growth = "ln ln N"
        else:
            lower = (W1 ** (1.0 - t) - W0 ** (1.0 - t)) / (1.0 - t)
            growth = f"(ln N)^{1.0 - t:g}"
    return {
        "type": "divergence_lower_bound",
        "at_terms": n_probe,
        "partial_lower_bound": lower,
        "growth": growth,
    }


def _edge_certificate(
    seq: SigmaSequence, p: int, converges: bool, n_probe: int, tol: float
) -> dict:
    """The edge sum of order p (mass, slope): its certified value where it
    converges, else an exact diverging lower bound."""
    if not converges:
        return _divergence_certificate(seq, "slope" if p else "mass", n_probe)
    ev = eval_series(seq, -domain_info(seq).alpha, p, tol=tol)
    return {
        "type": "certified_value",
        "value": ev.value,
        "tail_bound": ev.tail_bound,
        "truncation_index": ev.truncation_index,
    }


# each row's sequence and the theta range sharing its edge class; the power
# row stands for its family, whose edge terms e^0 = 1 need no sum
_EXAMPLE1 = (
    (power(1.0), "theta > 0"),
    (logfam(0.5), "theta <= 1"),
    (logfam(1.5), "1 < theta <= 2"),
    (logfam(3.0), "theta > 2"),
    (loglog(), "-"),
)
_POWER_LABEL = "power:<theta>, theta > 0 (shown: theta=1)"
_POWER_NOTE = "terms e^{sigma_n * 0} = 1 do not vanish at y = 0"


def example1_table(n_probe: int = 10**6, tol: float = 1e-8) -> list[dict]:
    """Five-row domain classification with certified edge behaviour.

    Rows: the power family (open domain ending at 0), the log family in
    its three slope classes at the edge -1, and the iterated-log family
    (empty domain).  Each row reads its edge class from ``domain_info``
    and logs, for the edge mass and slope, either a certified boundary
    value (where that edge sum converges) or an exact diverging lower
    bound.
    """
    rows: list[dict] = []
    for seq, theta_range in _EXAMPLE1:
        di = domain_info(seq)
        closed, finite = math.isfinite(di.f_at_boundary), math.isfinite(di.gamma)
        row = {
            "sequence": _POWER_LABEL if seq.family is Family.POWER else seq.spec_string(),
            "theta_range": theta_range,
            "domain": "empty" if di.empty else f"(-inf, {0.0 - di.alpha:g}{']' if closed else ')'}",
            "boundary_class": di.boundary_class.value,
            "boundary_slope": "-" if di.empty else di.gamma if finite else "inf",
        }
        if finite:
            row["boundary_slope_err"] = di.gamma_err
        if di.empty:
            certificates = {"any_y": _divergence_certificate(seq, "loglog", n_probe)}
        elif seq.family is Family.POWER:
            certificates = {
                "edge": {
                    "type": "divergence_lower_bound",
                    "note": _POWER_NOTE,
                    "partial_lower_bound": float(n_probe),
                    "at_terms": n_probe,
                }
            }
        else:
            certificates = {"edge_mass": _edge_certificate(seq, 0, closed, n_probe, tol)}
            if closed:
                certificates["edge_slope"] = _edge_certificate(seq, 1, finite, n_probe, tol)
        row["certificates"] = certificates
        rows.append(row)
    return rows


def example2_table(n_terms: int = 400) -> list[dict]:
    """Convergence table for the sign-alternating gradient families."""
    rows: list[dict] = []
    cases = [
        (varsigma_power(2.0), -math.log(2.0)),
        (varsigma_power(2.0), -1.5),
        (varsigma_exp(2.0), -1.0),
        (varsigma_exp(2.0), -3.0),
        (varsigma_expsq(), -2.0),
    ]
    for vs, x in cases:
        rep = alternating_gradient_series(x, vs, n_terms)
        rows.append(
            {
                "varsigma": vs.spec_string(),
                "x": x,
                "classification": rep.classification,
                "first_partial": rep.first_partial,
                "first_reference": rep.first_reference,
                "second_partial": rep.second_partial,
                "second_reference": rep.second_reference,
                "n_terms": rep.n_terms,
            }
        )
    return rows


# ---------------------------------------------------------------------------
# Cubic box model
# ---------------------------------------------------------------------------

class BoxModel(NamedTuple):
    """Free energy h(x, y) = e^x g(y)^3 over the box spectrum.

    g(y) = sum_{k>=1} exp(kappa k^2 y); the flattened spectrum is the
    exponent sequence ``box(kappa)``.  h is finite on R x (-inf, 0) and
    strictly convex there.
    """

    kappa: float = 1.0

    def g(self, y: float, p: int = 0, tol: float = 1e-13) -> float:
        return eval_series(box_factor(self.kappa), y, p, tol=tol).midpoint

    def h(self, x: float, y: float) -> float:
        return math.exp(x) * self.g(y) ** 3

    def grad_h(self, x: float, y: float) -> tuple[float, float]:
        g0 = self.g(y)
        return math.exp(x) * g0 ** 3, 3.0 * math.exp(x) * g0 ** 2 * self.g(y, 1)


class BoxReport(NamedTuple):
    """Full record for one (mass, energy) target of the box model."""

    u: float
    v: float
    kappa: float
    classification: str
    h_star: float
    fit: Optional[GibbsFit]
    dual: Optional[tuple[float, float]]
    achieved: tuple[Optional[float], Optional[float]]
    notes: str = ""


def box_report(
    u: float,
    v: float,
    kappa: float = 1.0,
    tol: float = 1e-9,
) -> BoxReport:
    """Classify (u, v) against the cone v >= 3*kappa*u >= 0 and solve.

    Interior targets produce the unique Gibbs law with its multipliers
    (x, y) satisfying grad h(x, y) = (u, v); the degenerate ray v =
    3*kappa*u is carried by the ground level alone (no multiplier pair
    reproduces it); u = 0 < v has conjugate value 0 with no
    representing weights.
    """
    h_star = box_conjugate(u, v, tol=tol, kappa=kappa)
    if u < 0 or v < 0 or (u > 0 and v < 3.0 * kappa * u):
        return BoxReport(
            u, v, kappa, "infeasible", h_star, None, None, (None, None),
            notes="outside the closed cone v >= 3*kappa*u >= 0",
        )
    if u == 0:
        if v == 0:
            return BoxReport(
                u, v, kappa, "zero", 0.0, None, None, (0.0, 0.0),
                notes="all-zero law",
            )
        return BoxReport(
            u, v, kappa, "empty_feasible_set", 0.0, None, None, (0.0, None),
            notes="no weights reach positive energy at zero mass, yet the conjugate value is 0",
        )
    fit = fit_gibbs(box(kappa), u, v, tol=tol)
    if fit.status is FitStatus.BOUNDARY_SINGLETON:
        return BoxReport(
            u, v, kappa, "ground_state", h_star, fit, None, fit.achieved,
            notes="all mass on (1,1,1); not produced by any multiplier pair",
        )
    dual = (fit.dual_x, fit.dual_y)
    return BoxReport(u, v, kappa, "interior", h_star, fit, dual, fit.achieved)
