"""Span tracer for the benchmark: wraps the public functions of every
``gibbs_series`` module and derives per-layer metrics from the spans.

Spans live in per-thread ``array`` buffers (name id, parent index,
start, end, CPU time, two counters, status) until ``finish`` turns them
into raw sums.  Parents are tracked with a ``contextvars`` variable, so
criteria running on worker threads under ``verify all --jobs N`` keep
their own span trees.  A layer's self time is the time of its spans
minus the part their child spans cover.
"""

from __future__ import annotations

import contextvars
import functools
import sys
import threading
import time
import types
from array import array

LAYERS = (
    "sequences",
    "series",
    "conjugate",
    "entropy",
    "oracle",
    "scenarios",
    "acceptance",
    "cli",
)

# Raw sums produced by ``finish``; they add up across processes, so the
# per-layer metrics are derived from their totals.
RAW_KEYS = (
    "terms",
    "box_levels_calls",
    "box_levels_s",
    "box_triples",
    "eval_calls",
    "eval_failed",
    "eval_ok_terms",
    "eval_terms",
    "eval_tail_certs",
    "eval_s",
    "domain_info_calls",
    "domain_info_misses",
    "domain_info_s",
    "solves",
    "solve_failed",
    "solve_probes",
    "solve_terms",
    "entropy_weights",
    "witness_rounds",
    "witness_support",
    "oracle_checks",
    "oracle_check_evals",
    "truncated_levels",
    "scenario_reports",
    "scenario_evals",
    "criterion_runs",
    "criteria_failed",
    "acceptance_wait_s",
    "cli_processes",
    "cli_import_s",
    "cli_main_calls",
    "cli_main_s",
    "cli_stdout_bytes",
) + tuple(f"{layer}.calls" for layer in LAYERS) + tuple(
    f"{layer}.failed" for layer in LAYERS
) + tuple(f"{layer}.self_s" for layer in LAYERS) + tuple(
    f"criterion_s.{i}" for i in range(1, 11)
)

_SOLVERS = ("conjugate.solve_fprime", "conjugate.solve_phi")
_CHECKS = (
    "oracle.check_fenchel_young",
    "oracle.check_gradient_sum",
    "oracle.check_gradient_sum_2d",
)
_REPORTS = ("scenarios.box_report", "scenarios.example1_table", "scenarios.example2_table")


def _len_weights(result) -> int:
    weights = getattr(result, "weights", None)
    return 0 if weights is None else len(weights)


def _witness_counts(result, exc):
    wit = result if exc is None else getattr(exc, "best", None)
    if wit is None:
        return 0, 0
    return len(getattr(wit, "gap_history", ())), len(wit.weights)


def _levels_arg(args, kwargs) -> int:
    return int(kwargs.get("n_levels", args[1] if len(args) > 1 else 0))


def _criterion_outcome(args, kwargs, result, exc):
    return (0 if result is not None and result.passed else 1), 0


# name -> hook(args, kwargs, result, exc) -> (n, m); counters stored on the span
_HOOKS = {
    "sequences.sigma_values": lambda a, k, r, e: (len(a[1]) if len(a) > 1 else len(k["ns"]), 0),
    "sequences.box_levels": lambda a, k, r, e: (0, 0 if r is None else len(r[0])),
    "entropy.min_entropy_moment": lambda a, k, r, e: (_len_weights(r), 0),
    "entropy.fit_gibbs": lambda a, k, r, e: (_len_weights(r), 0),
    "entropy.plateau_witness": lambda a, k, r, e: _witness_counts(r, e),
    "entropy.alternating_witness": lambda a, k, r, e: (0, 0 if r is None else len(r.weights)),
    "oracle.primal_truncated": lambda a, k, r, e: (_levels_arg(a, k), 0),
}


class _Buffer:
    __slots__ = ("name", "parent", "t0", "t1", "cpu", "n", "m", "status")

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("l")
        self.t0 = array("d")
        self.t1 = array("d")
        self.cpu = array("d")
        self.n = array("q")
        self.m = array("q")
        self.status = array("b")


class Tracer:
    """Installs span wrappers into the loaded ``gibbs_series`` modules."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._current = contextvars.ContextVar("perfbench_span", default=-1)
        self._domain_info = None
        self._misses0 = 0

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def _wrap(self, fn, name: str):
        name_id = len(self.names)
        self.names.append(name)
        hook = _HOOKS.get(name)
        if name.startswith("acceptance.criterion_"):
            hook = _criterion_outcome
        want_cpu = name.startswith("acceptance.")
        current = self._current
        clock = time.perf_counter
        cpu_clock = time.thread_time
        get_buffer = self._buffer

        @functools.wraps(fn)
        def span(*args, **kwargs):
            buf = get_buffer()
            idx = len(buf.t0)
            buf.name.append(name_id)
            buf.parent.append(current.get())
            buf.n.append(0)
            buf.m.append(0)
            buf.status.append(0)
            buf.t1.append(0.0)
            buf.cpu.append(-cpu_clock() if want_cpu else 0.0)
            token = current.set(idx)
            buf.t0.append(clock())
            result = exc = None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                buf.status[idx] = 1
                raise
            finally:
                buf.t1[idx] = clock()
                if want_cpu:
                    buf.cpu[idx] += cpu_clock()
                current.reset(token)
                if hook is not None:
                    buf.n[idx], buf.m[idx] = hook(args, kwargs, result, exc)

        return span

    def install(self) -> None:
        """Wrap each public function in every module namespace holding it.

        ``gibbs_series.conjugate`` is the function, not the module, so the
        modules are reached through ``sys.modules``.  The criteria table of
        the acceptance module holds references too and is patched alike.
        """
        modules = [
            mod
            for key, mod in sorted(sys.modules.items())
            if key == "gibbs_series" or key.startswith("gibbs_series.")
        ]
        wrapped: dict[int, object] = {}
        for mod in modules:
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if not (isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info")):
                    continue
                origin = getattr(obj, "__module__", "") or ""
                layer = origin.rpartition(".")[2]
                if not origin.startswith("gibbs_series.") or layer not in LAYERS:
                    continue
                if id(obj) not in wrapped:
                    wrapped[id(obj)] = self._wrap(obj, f"{layer}.{obj.__name__}")
                    if obj.__name__ == "domain_info":
                        self._domain_info = obj
                setattr(mod, attr, wrapped[id(obj)])
        criteria = getattr(sys.modules.get("gibbs_series.acceptance"), "CRITERIA", {})
        for key, fn in list(criteria.items()):
            if id(fn) in wrapped:
                criteria[key] = wrapped[id(fn)]
        if self._domain_info is not None:
            self._misses0 = self._domain_info.cache_info().misses

    def finish(self) -> dict:
        """Raw sums over every recorded span (see ``RAW_KEYS``)."""
        raw = dict.fromkeys(RAW_KEYS, 0)
        layer_of = [name.partition(".")[0] for name in self.names]
        for buf in self._buffers:
            _summarize(buf, self.names, layer_of, raw)
        if self._domain_info is not None:
            raw["domain_info_misses"] = self._domain_info.cache_info().misses - self._misses0
        return raw

    def dump(self, path) -> None:
        """Write every span to an ``.npz`` file, one array per field."""
        import numpy as np

        fields = {f: np.concatenate([np.asarray(getattr(b, f)) for b in self._buffers] or [[]]) for f in _Buffer.__slots__}
        thread = np.concatenate([np.full(len(b.t0), i) for i, b in enumerate(self._buffers)] or [[]])
        np.savez(path, names=np.array(self.names), thread=thread, **fields)


def _summarize(buf: _Buffer, names: list[str], layer_of: list[str], raw: dict) -> None:
    count = len(buf.t0)
    # Children start after their parent, so one backward pass folds each
    # span's subtree totals into its parent before the parent is read.
    child_s = [0.0] * count
    terms = [0] * count
    evals = [0] * count
    certs = [0] * count
    for i in range(count - 1, -1, -1):
        name = names[buf.name[i]]
        layer = layer_of[buf.name[i]]
        dur = buf.t1[i] - buf.t0[i]
        failed = buf.status[i]
        if name == "sequences.sigma_values":
            terms[i] += buf.n[i]
            raw["terms"] += buf.n[i]
        elif name == "series.tail_bound_after":
            certs[i] += 1
        elif name == "series.eval_series":
            raw["eval_calls"] += 1
            raw["eval_failed"] += failed
            raw["eval_terms"] += terms[i]
            raw["eval_ok_terms"] += 0 if failed else terms[i]
            raw["eval_tail_certs"] += certs[i]
            raw["eval_s"] += dur
            evals[i] += 1
        elif name == "series.domain_info":
            raw["domain_info_calls"] += 1
            raw["domain_info_s"] += dur
        elif name == "sequences.box_levels":
            raw["box_levels_calls"] += 1
            raw["box_levels_s"] += dur
            raw["box_triples"] = max(raw["box_triples"], buf.m[i])
        elif name in _SOLVERS:
            raw["solves"] += 1
            raw["solve_failed"] += failed
            raw["solve_probes"] += evals[i]
            raw["solve_terms"] += terms[i]
        elif name in ("entropy.min_entropy_moment", "entropy.fit_gibbs"):
            raw["entropy_weights"] += buf.n[i]
        elif name in ("entropy.plateau_witness", "entropy.alternating_witness"):
            raw["witness_rounds"] += buf.n[i]
            raw["witness_support"] += buf.m[i]
        elif name in _CHECKS:
            raw["oracle_checks"] += 1
            raw["oracle_check_evals"] += evals[i]
        elif name == "oracle.primal_truncated":
            raw["truncated_levels"] += buf.n[i]
        elif name in _REPORTS:
            raw["scenario_reports"] += 1
            raw["scenario_evals"] += evals[i]
        elif name == "cli.main":
            raw["cli_main_calls"] += 1
            raw["cli_main_s"] += dur
        elif name.startswith("acceptance.criterion_"):
            raw["criterion_runs"] += 1
            raw["criteria_failed"] += buf.n[i]
            raw["acceptance_wait_s"] += dur - buf.cpu[i]
            raw["criterion_s." + name.rpartition("_")[2]] += dur
        raw[f"{layer}.self_s"] += dur - child_s[i]
        parent = buf.parent[i]
        if parent < 0 or layer_of[buf.name[parent]] != layer:
            raw[f"{layer}.calls"] += 1
            raw[f"{layer}.failed"] += failed
        if parent >= 0:
            child_s[parent] += dur
            terms[parent] += terms[i]
            evals[parent] += evals[i]
            certs[parent] += certs[i]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(raw: dict, traced_calls_per_s: float, untraced_calls_per_s: float) -> dict:
    """Per-layer metrics, as (value, unit), from summed raw counters."""
    criterion_runs = raw["criterion_runs"] // 10 or 1
    out = {
        "sequences.terms": (raw["terms"], "count"),
        "sequences.self_s": (raw["sequences.self_s"], "s"),
        "sequences.box_levels_calls": (raw["box_levels_calls"], "count"),
        "sequences.box_levels_s": (raw["box_levels_s"], "s"),
        "sequences.box_triples": (raw["box_triples"], "count"),
        "series.eval_calls": (raw["eval_calls"], "count"),
        "series.eval_failed": (raw["eval_failed"], "count"),
        "series.useful_ratio": (_ratio(raw["eval_ok_terms"], raw["eval_terms"]), "ratio"),
        "series.terms_per_eval": (_ratio(raw["eval_terms"], raw["eval_calls"]), "terms/eval"),
        "series.tail_certs_per_eval": (_ratio(raw["eval_tail_certs"], raw["eval_calls"]), "count/eval"),
        "series.kernel_terms_per_s": (_ratio(raw["eval_terms"], raw["eval_s"]), "1/s"),
        "series.self_s": (raw["series.self_s"], "s"),
        "series.domain_info_calls": (raw["domain_info_calls"], "count"),
        "series.domain_info_misses": (raw["domain_info_misses"], "count"),
        "series.domain_info_s": (raw["domain_info_s"], "s"),
        "conjugate.solves": (raw["solves"], "count"),
        "conjugate.probes_per_solve": (_ratio(raw["solve_probes"], raw["solves"]), "evals/solve"),
        "conjugate.terms_per_solve": (_ratio(raw["solve_terms"], raw["solves"]), "terms/solve"),
        "conjugate.solve_failed": (raw["solve_failed"], "count"),
        "conjugate.self_s": (raw["conjugate.self_s"], "s"),
        "entropy.calls": (raw["entropy.calls"], "count"),
        "entropy.failed": (raw["entropy.failed"], "count"),
        "entropy.self_s": (raw["entropy.self_s"], "s"),
        "entropy.materialized_weights": (raw["entropy_weights"], "count"),
        "entropy.witness_rounds": (raw["witness_rounds"], "count"),
        "entropy.witness_support": (raw["witness_support"], "count"),
        "oracle.calls": (raw["oracle.calls"], "count"),
        "oracle.self_s": (raw["oracle.self_s"], "s"),
        "oracle.evals_per_check": (_ratio(raw["oracle_check_evals"], raw["oracle_checks"]), "evals/check"),
        "oracle.truncated_levels": (raw["truncated_levels"], "count"),
        "scenarios.calls": (raw["scenarios.calls"], "count"),
        "scenarios.self_s": (raw["scenarios.self_s"], "s"),
        "scenarios.evals_per_report": (_ratio(raw["scenario_evals"], raw["scenario_reports"]), "evals/report"),
    }
    for i in range(1, 11):
        out[f"acceptance.criterion_s.{i}"] = (raw[f"criterion_s.{i}"] / criterion_runs, "s")
    out["acceptance.failed"] = (raw["criteria_failed"], "count")
    out["acceptance.wait_s"] = (raw["acceptance_wait_s"], "s")
    mains = raw["cli_main_calls"] or 1
    out["cli.import_s"] = (raw["cli_import_s"] / (raw["cli_processes"] or 1), "s")
    out["cli.main_s"] = (raw["cli_main_s"] / mains, "s")
    out["cli.self_s"] = (raw["cli.self_s"] / mains, "s")
    out["cli.stdout_bytes"] = (raw["cli_stdout_bytes"], "bytes")
    out["trace.slowdown"] = (_ratio(untraced_calls_per_s, traced_calls_per_s), "ratio")
    return out
