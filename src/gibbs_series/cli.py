"""Command-line front end.

Every subcommand prints a single JSON document (CSV/pretty for tables)
on stdout.  Exit codes: 0 success, 1 usage error, 2 domain or
infeasibility, 3 numeric failure (budget, bracketing, residual).
Floats are rendered with 17 significant digits so round-trips are
lossless, and identical configurations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import sys
from dataclasses import dataclass
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


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters shared by the subcommands."""

    tol: float
    max_terms: Optional[int]
    fmt: str
    seed: int

    def __post_init__(self) -> None:
        if not self.tol > 0:
            raise ValueError("tolerance must be positive")
        if self.max_terms is not None and self.max_terms < 1000:
            raise ValueError("term budget must be at least 1000")


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
    if fmt == "pretty":
        for k, v in doc.items():
            print(f"{k}: {v}")
        return
    print(dumps(doc))


def _emit_table(rows: list[dict], fmt: str, name: str) -> None:
    if fmt == "csv":
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


def _weights_payload(fit_indices, weights, cap: int) -> dict:
    total = len(weights)
    out = []
    for idx, w in list(zip(fit_indices, weights))[:cap]:
        key = list(idx) if isinstance(idx, (tuple, list)) else int(idx)
        out.append({"index": key, "weight": float(w)})
    payload = {"weights": out, "weights_total": total}
    if total > cap:
        payload["weights_truncated"] = True
    return payload


def _fit_doc(fit: GibbsFit, cap: int) -> dict:
    doc = {
        "schema": SCHEMA,
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
    def error(self, message: str):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _build_parser() -> _Parser:
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
    sp.add_argument("sequence")

    sp = sub.add_parser("eval", help="certified series value")
    sp.add_argument("sequence")
    sp.add_argument("--y", type=float, required=True)
    sp.add_argument("--p", type=int, default=0)

    sp = sub.add_parser("conjugate", help="conjugate of the exponential sum")
    sp.add_argument("sequence")
    sp.add_argument("--u", type=float, required=True)

    sp = sub.add_parser("logconj", help="conjugate of ln f")
    sp.add_argument("--v", type=float, required=True)
    sp.add_argument("--seq", default="quadratic", dest="sequence")

    sp = sub.add_parser("boxconj", help="conjugate of the box free energy")
    sp.add_argument("--u", type=float, required=True)
    sp.add_argument("--v", type=float, required=True)

    sp = sub.add_parser("fit", help="entropy minimization under moments")
    sp.add_argument("sequence")
    sp.add_argument("--u", type=float, required=True)
    sp.add_argument("--v", type=float, default=None)

    sp = sub.add_parser("witness", help="finite eps-optimal weights")
    sp.add_argument("sequence")
    sp.add_argument("--u", type=float, required=True)
    sp.add_argument("--v", type=float, default=None)
    sp.add_argument("--eps", type=float, required=True)
    sp.add_argument("--varsigma", default="power:2")

    sp = sub.add_parser("table", help="canned scenario tables")
    sp.add_argument("which", choices=("example1", "example2", "box"))

    sp = sub.add_parser("verify", help="run acceptance criteria")
    sp.add_argument("claim", help="criterion id, alias, or 'all'")
    sp.add_argument("--jobs", type=int, default=1)
    return p


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def _cmd_domain(cfg: RunConfig, args) -> int:
    seq = parse_sequence(args.sequence)
    di = domain_info(seq, tol=min(cfg.tol, 1e-8), max_terms=cfg.max_terms)
    _emit(
        {
            "schema": SCHEMA,
            "sequence": seq.spec_string(),
            "alpha": di.alpha,
            "boundary_class": di.boundary_class.value,
            "gamma": di.gamma,
            "gamma_err": di.gamma_err,
            "f_at_boundary": di.f_at_boundary,
            "f_boundary_err": di.f_boundary_err,
        },
        cfg.fmt,
    )
    return EXIT_OK


def _cmd_eval(cfg: RunConfig, args) -> int:
    seq = parse_sequence(args.sequence)
    ev = eval_series(seq, args.y, args.p, tol=cfg.tol, max_terms=cfg.max_terms)
    _emit(
        {
            "schema": SCHEMA,
            "sequence": seq.spec_string(),
            "y": args.y,
            "p": args.p,
            "value": ev.value,
            "tail_bound": ev.tail_bound,
            "midpoint": ev.midpoint,
            "truncation_index": ev.truncation_index,
        },
        cfg.fmt,
    )
    return EXIT_OK


def _cmd_conjugate(cfg: RunConfig, args) -> int:
    seq = parse_sequence(args.sequence)
    cv = conjugate(seq, args.u, tol=cfg.tol, max_terms=cfg.max_terms)
    _emit(
        {
            "schema": SCHEMA,
            "sequence": seq.spec_string(),
            "u": args.u,
            "value": cv.value,
            "regime": cv.regime.value,
            "y": cv.attaining_y,
            "residual": cv.residual,
        },
        cfg.fmt,
    )
    return EXIT_OK


def _cmd_logconj(cfg: RunConfig, args) -> int:
    seq = parse_sequence(args.sequence)
    value = log_f_conjugate(seq, args.v, tol=cfg.tol, max_terms=cfg.max_terms)
    _emit(
        {"schema": SCHEMA, "sequence": seq.spec_string(), "v": args.v, "value": value},
        cfg.fmt,
    )
    return EXIT_OK


def _cmd_boxconj(cfg: RunConfig, args) -> int:
    value = box_conjugate(args.u, args.v, tol=cfg.tol)
    _emit({"schema": SCHEMA, "u": args.u, "v": args.v, "value": value}, cfg.fmt)
    return EXIT_OK


def _cmd_fit(cfg: RunConfig, args) -> int:
    seq = parse_sequence(args.sequence)
    if args.v is None:
        fit = min_entropy_moment(seq, args.u, tol=cfg.tol, max_terms=cfg.max_terms)
    else:
        fit = fit_gibbs(seq, args.u, args.v, tol=cfg.tol, max_terms=cfg.max_terms)
    _emit(_fit_doc(fit, args.max_weights), cfg.fmt)
    return EXIT_DOMAIN if fit.status is FitStatus.INFEASIBLE else EXIT_OK


def _cmd_witness(cfg: RunConfig, args) -> int:
    seq = parse_sequence(args.sequence)
    if args.v is None:
        wit = plateau_witness(seq, args.u, args.eps, max_terms=cfg.max_terms)
        doc = {
            "schema": SCHEMA,
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
            "schema": SCHEMA,
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
    _emit(doc, cfg.fmt)
    return EXIT_OK


def _cmd_table(cfg: RunConfig, args) -> int:
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
    _emit_table(rows, cfg.fmt, args.which)
    return EXIT_OK


def _cmd_verify(cfg: RunConfig, args) -> int:
    if args.claim == "all":
        results = acceptance.run_all(seed=cfg.seed, jobs=max(1, args.jobs))
    else:
        results = [acceptance.run_criterion(args.claim, seed=cfg.seed)]
    for res in results:
        print(res.summary_line(), file=sys.stderr)
    doc = {
        "schema": SCHEMA,
        "seed": cfg.seed,
        "passed": all(r.passed for r in results),
        "results": [r.to_dict() for r in results],
    }
    _emit(doc, cfg.fmt)
    return EXIT_OK if doc["passed"] else EXIT_NUMERIC


_COMMANDS = {
    "domain": _cmd_domain,
    "eval": _cmd_eval,
    "conjugate": _cmd_conjugate,
    "logconj": _cmd_logconj,
    "boxconj": _cmd_boxconj,
    "fit": _cmd_fit,
    "witness": _cmd_witness,
    "table": _cmd_table,
    "verify": _cmd_verify,
}


def main(argv: Optional[list[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = RunConfig(
            tol=args.tol,
            max_terms=args.max_terms,
            fmt=args.fmt,
            seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _COMMANDS[args.command](cfg, args)
    except DomainError as exc:
        name = (
            "EmptyDomain"
            if exc.info.boundary_class is BoundaryClass.EMPTY_DOMAIN
            else "OutsideDomain"
        )
        _emit({"schema": SCHEMA, "error": name, "detail": str(exc)}, cfg.fmt)
        return EXIT_DOMAIN
    except InfeasibleError as exc:
        _emit({"schema": SCHEMA, "error": "Infeasible", "detail": str(exc)}, cfg.fmt)
        return EXIT_DOMAIN
    except BudgetExceededError as exc:
        _emit(
            {
                "schema": SCHEMA,
                "error": "BudgetExceeded",
                "detail": str(exc),
                "best_value": exc.best.value,
                "best_tail_bound": exc.best.tail_bound,
            },
            cfg.fmt,
        )
        return EXIT_NUMERIC
    except WitnessBudgetError as exc:
        doc = {"schema": SCHEMA, "error": "WitnessBudgetExceeded", "detail": str(exc)}
        if exc.best is not None:
            doc["best_gap"] = exc.best.gap
        _emit(doc, cfg.fmt)
        return EXIT_NUMERIC
    except NumericError as exc:
        _emit({"schema": SCHEMA, "error": "NumericError", "detail": str(exc)}, cfg.fmt)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
