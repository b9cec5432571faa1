"""Command-line front end.

Every subcommand prints a single JSON (or pretty) document, ``table`` also
CSV, on stdout.  Exit codes: 0 success, 1 usage error, 2 domain or
infeasibility, 3 numeric failure (budget, bracketing, residual).
Floats are rendered with 17 significant digits so round-trips are
lossless, and identical configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import io
import math
import re
import sys
from typing import Optional

import numpy as np

from . import acceptance
from .conjugate import NumericError, box_conjugate, conjugate, log_f_conjugate
from .entropy import (
    FitStatus,
    GibbsFit,
    InfeasibleError,
    WitnessBudgetError,
    alternating_witness,
    fit_gibbs,
    min_entropy_moment,
    plateau_witness,
)
from .scenarios import box_report, example1_table, example2_table
from .sequences import linear, parse_sequence, parse_varsigma
from .series import BoundaryClass, BudgetExceededError, DomainError, domain_info, eval_series

SCHEMA = "gibbs-series/1"

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_NUMERIC = 3


# ---------------------------------------------------------------------------
# Canonical serialization
# ---------------------------------------------------------------------------

def _fmt_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    return format(x, ".17g")


def dumps(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats.

    Non-finite floats are emitted as the strings "inf", "-inf", "nan"
    (strict JSON has no literals for them).
    """
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _fmt_float(float(obj))
    if isinstance(obj, str):
        import json

        return json.dumps(obj)
    if isinstance(obj, dict):
        items = (f"{dumps(str(k))}: {dumps(v)}" for k, v in obj.items())
        return "{" + ", ".join(items) + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ", ".join(dumps(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _emit(doc: dict, fmt: str) -> None:
    doc = {"schema": SCHEMA, **doc}
    if fmt == "pretty":
        for k, v in doc.items():
            print(f"{k}: {v}")
        return
    print(dumps(doc))


def _emit_table(rows: list[dict], fmt: str, name: str) -> None:
    if fmt == "csv":
        import csv

        cols: list[str] = []
        for row in rows:
            for k in row:
                if k not in cols:
                    cols.append(k)
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(cols)
        for row in rows:
            out = []
            for c in cols:
                v = row.get(c, "")
                if isinstance(v, float):
                    v = format(v, ".17g")
                elif isinstance(v, dict):
                    v = dumps(v)
                out.append(v)
            writer.writerow(out)
        sys.stdout.write(buf.getvalue())
        return
    if fmt == "pretty":
        for row in rows:
            print(" | ".join(f"{k}={v}" for k, v in row.items()))
        return
    print(dumps({"schema": SCHEMA, "table": name, "rows": rows}))


def _weights_payload(indices: np.ndarray, weights: np.ndarray, cap: int) -> dict:
    total = len(weights)
    out = [
        {"index": idx, "weight": w}
        for idx, w in zip(indices[:cap].tolist(), weights[:cap].tolist())
    ]
    payload = {"weights": out, "weights_total": total}
    if total > cap:
        payload["weights_truncated"] = True
    return payload


def _fit_doc(fit: GibbsFit, cap: int) -> dict:
    doc = {
        "status": fit.status.value,
        "entropy": fit.entropy_value,
        "dual_x": fit.dual_x,
        "dual_y": fit.dual_y,
        "achieved_mass": fit.achieved[0],
        "achieved_energy": fit.achieved[1],
        "tail_mass": fit.tail_mass,
        "tail_energy": fit.tail_energy,
    }
    if fit.reason:
        doc["reason"] = fit.reason
    if fit.weights is not None and len(fit.weights):
        doc.update(_weights_payload(fit.indices, fit.weights, cap))
    return doc


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # a dash-led number in exponent form (-5e-1) is a value, not an option
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


@functools.lru_cache(maxsize=None)
def _build_parser() -> _Parser:
    """The parser, built on first use and shared by every later call."""
    p = _Parser(
        prog="gibbs-series",
        description="Certified exponential sums, conjugates, and entropy fits",
    )
    p.add_argument("--tol", type=float, default=1e-9, help="target tolerance")
    p.add_argument("--max-terms", type=int, default=None, help="series term budget")
    p.add_argument(
        "--format", choices=("json", "csv", "pretty"), default="json", dest="fmt"
    )
    p.add_argument("--seed", type=int, default=acceptance.DEFAULT_SEED)
    p.add_argument(
        "--max-weights", type=int, default=50, help="materialized weights printed"
    )
    sub = p.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("domain", help="classify the domain of a sequence")
    sp.set_defaults(run=_cmd_domain)
    sp.add_argument("sequence")

    sp = sub.add_parser("eval", help="certified series value")
    sp.set_defaults(run=_cmd_eval)
    sp.add_argument("sequence")
    sp.add_argument("--y", type=float, required=True)
    sp.add_argument("--p", type=int, default=0)

    sp = sub.add_parser("conjugate", help="conjugate of the exponential sum")
    sp.set_defaults(run=_cmd_conjugate)
    sp.add_argument("sequence")
    sp.add_argument("--u", type=float, required=True)

    sp = sub.add_parser("logconj", help="conjugate of ln f")
    sp.set_defaults(run=_cmd_logconj)
    sp.add_argument("--v", type=float, required=True)
    sp.add_argument("--seq", default="quadratic", dest="sequence")

    sp = sub.add_parser("boxconj", help="conjugate of the box free energy")
    sp.set_defaults(run=_cmd_boxconj)
    sp.add_argument("--u", type=float, required=True)
    sp.add_argument("--v", type=float, required=True)

    sp = sub.add_parser("fit", help="entropy minimization under moments")
    sp.set_defaults(run=_cmd_fit)
    sp.add_argument("sequence")
    sp.add_argument("--u", type=float, required=True)
    sp.add_argument("--v", type=float, default=None)

    sp = sub.add_parser("witness", help="finite eps-optimal weights")
    sp.set_defaults(run=_cmd_witness)
    sp.add_argument("sequence")
    sp.add_argument("--u", type=float, required=True)
    sp.add_argument("--v", type=float, default=None)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--varsigma", default="power:2")

    sp = sub.add_parser("table", help="canned scenario tables")
    sp.set_defaults(run=_cmd_table)
    sp.add_argument("which", choices=("example1", "example2", "box"))

    sp = sub.add_parser("verify", help="run acceptance criteria")
    sp.set_defaults(run=_cmd_verify)
    sp.add_argument("claim", help="criterion id, alias, or 'all'")
    sp.add_argument("--jobs", type=int, default=1)
    return p


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_domain(args) -> int:
    seq = parse_sequence(args.sequence)
    di = domain_info(seq, tol=min(args.tol, 1e-8), max_terms=args.max_terms)
    _emit(
        {
            "sequence": seq.spec_string(),
            "alpha": di.alpha,
            "boundary_class": di.boundary_class.value,
            "gamma": di.gamma,
            "gamma_err": di.gamma_err,
            "f_at_boundary": di.f_at_boundary,
            "f_boundary_err": di.f_boundary_err,
        },
        args.fmt,
    )
    return EXIT_OK


def _cmd_eval(args) -> int:
    seq = parse_sequence(args.sequence)
    ev = eval_series(seq, args.y, args.p, tol=args.tol, max_terms=args.max_terms)
    _emit(
        {
            "sequence": seq.spec_string(),
            "y": args.y,
            "p": args.p,
            "value": ev.value,
            "tail_bound": ev.tail_bound,
            "midpoint": ev.midpoint,
            "truncation_index": ev.truncation_index,
        },
        args.fmt,
    )
    return EXIT_OK


def _cmd_conjugate(args) -> int:
    seq = parse_sequence(args.sequence)
    cv = conjugate(seq, args.u, tol=args.tol, max_terms=args.max_terms)
    _emit(
        {
            "sequence": seq.spec_string(),
            "u": args.u,
            "value": cv.value,
            "regime": cv.regime.value,
            "y": cv.attaining_y,
            "residual": cv.residual,
        },
        args.fmt,
    )
    return EXIT_OK


def _cmd_logconj(args) -> int:
    seq = parse_sequence(args.sequence)
    value = log_f_conjugate(seq, args.v, tol=args.tol, max_terms=args.max_terms)
    _emit({"sequence": seq.spec_string(), "v": args.v, "value": value}, args.fmt)
    return EXIT_OK


def _cmd_boxconj(args) -> int:
    value = box_conjugate(args.u, args.v, tol=args.tol)
    _emit({"u": args.u, "v": args.v, "value": value}, args.fmt)
    return EXIT_OK


def _cmd_fit(args) -> int:
    seq = parse_sequence(args.sequence)
    if args.v is None:
        fit = min_entropy_moment(seq, args.u, tol=args.tol, max_terms=args.max_terms)
    else:
        fit = fit_gibbs(seq, args.u, args.v, tol=args.tol, max_terms=args.max_terms)
    _emit(_fit_doc(fit, args.max_weights), args.fmt)
    return EXIT_DOMAIN if fit.status is FitStatus.INFEASIBLE else EXIT_OK


def _cmd_witness(args) -> int:
    seq = parse_sequence(args.sequence)
    if args.v is None:
        wit = plateau_witness(seq, args.u, args.eps, max_terms=args.max_terms)
        doc = {
            "kind": "plateau",
            "entropy": wit.entropy,
            "target": wit.target,
            "gap": wit.gap,
            "lam": wit.lam,
            "n_prefix": wit.n_prefix,
            "window_len": wit.window_len,
        }
    else:
        if seq != linear():
            raise InfeasibleError(
                "alternating witnesses are defined for the unit-gap sequence "
                "(use: witness linear --u ... --v ...)"
            )
        wit = alternating_witness(args.u, args.v, args.eps, parse_varsigma(args.varsigma))
        doc = {
            "kind": "alternating",
            "entropy": wit.entropy,
            "target": wit.target,
            "gap": wit.gap,
            "n_prefix": wit.n_prefix,
            "window_start": wit.window_start,
            "moment_residuals": list(wit.moment_residuals),
            "signed_scale": wit.signed_scale,
        }
    doc.update(_weights_payload(wit.indices, wit.weights, args.max_weights))
    _emit(doc, args.fmt)
    return EXIT_OK


def _cmd_table(args) -> int:
    if args.which == "example1":
        rows = example1_table()
    elif args.which == "example2":
        rows = example2_table()
    else:
        targets = [(1.0, 3.0), (0.0, 2.0), (1.0, 4.0), (2.0, 7.0), (0.5, 2.0)]
        rows = []
        for u, v in targets:
            r = box_report(u, v)
            rows.append(
                {
                    "u": u,
                    "v": v,
                    "classification": r.classification,
                    "h_star": r.h_star,
                    "dual_x": r.dual[0] if r.dual else None,
                    "dual_y": r.dual[1] if r.dual else None,
                    "entropy": r.fit.entropy_value if r.fit else None,
                    "notes": r.notes,
                }
            )
    _emit_table(rows, args.fmt, args.which)
    return EXIT_OK


def _cmd_verify(args) -> int:
    if args.claim == "all":
        results = acceptance.run_all(seed=args.seed, jobs=max(1, args.jobs))
    else:
        results = [acceptance.run_criterion(args.claim, seed=args.seed)]
    for res in results:
        print(res.summary_line(), file=sys.stderr)
    doc = {
        "seed": args.seed,
        "passed": all(r.passed for r in results),
        "results": [r.to_dict() for r in results],
    }
    _emit(doc, args.fmt)
    return EXIT_OK if doc["passed"] else EXIT_NUMERIC


def main(argv: Optional[list[str]] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if not args.tol > 0:
            raise ValueError("tolerance must be positive")
        if args.max_terms is not None and args.max_terms < 1000:
            raise ValueError("term budget must be at least 1000")
        if args.fmt == "csv" and args.command != "table":
            raise ValueError("--format csv applies to the table command only")
        return args.run(args)
    except DomainError as exc:
        name = (
            "EmptyDomain"
            if exc.info.boundary_class is BoundaryClass.EMPTY_DOMAIN
            else "OutsideDomain"
        )
        _emit({"error": name, "detail": str(exc)}, args.fmt)
        return EXIT_DOMAIN
    except InfeasibleError as exc:
        _emit({"error": "Infeasible", "detail": str(exc)}, args.fmt)
        return EXIT_DOMAIN
    except BudgetExceededError as exc:
        _emit(
            {
                "error": "BudgetExceeded",
                "detail": str(exc),
                "best_value": exc.best.value,
                "best_tail_bound": exc.best.tail_bound,
            },
            args.fmt,
        )
        return EXIT_NUMERIC
    except WitnessBudgetError as exc:
        doc = {"error": "WitnessBudgetExceeded", "detail": str(exc)}
        if exc.best is not None:
            doc["best_gap"] = exc.best.gap
        _emit(doc, args.fmt)
        return EXIT_NUMERIC
    except NumericError as exc:
        _emit({"error": "NumericError", "detail": str(exc)}, args.fmt)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
