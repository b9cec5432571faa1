"""In-process worker for the solve_mix and edge_sums workloads.

Run by ``run.py`` in a fresh interpreter with ``src`` on PYTHONPATH.  It
times the import of ``gibbs_series`` plus the workload's warm-up (the
set-up), replays the seeded call list one call at a time, checks each
output after its timer stops, and writes a JSON record to ``--out``.
Untraced, it runs the host's reference kernel (``hostspeed.py``) beside
the calls and records every latency, and the set-up, both as measured
and scaled to the nominal host speed.
Outputs checked against mpmath go into the record's samples; the
harness checks them, so this process never imports mpmath.
With ``--setup-only`` it prints the set-up time and exits.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time

import calls as calls_mod
import checks
import hostspeed
from tracer import Tracer


def _warm_up(gs, workload: str, calls: list) -> None:
    """Fill the caches a steady-state solve_mix process would hold.

    For each (function, family) the call reaching furthest into the box
    spectrum runs once; edge_sums keeps its caches cold on purpose.
    """
    if workload != "solve_mix":
        return
    pick: dict = {}
    for call in calls:
        key = (call.op, call.family)
        if key not in pick or calls_mod.demand(call) > calls_mod.demand(pick[key]):
            pick[key] = call
    for op, args, kwargs in calls_mod.materialize(gs, list(pick.values())):
        with contextlib.redirect_stdout(io.StringIO()):
            _resolve(gs, op)(*args, **kwargs)


def _resolve(gs, op: str):
    """The function named ``op``, looked up at call time so that tracer
    wrappers apply; ``cli.main`` and ``acceptance.run_criterion`` live in
    submodules the package does not re-export."""
    if "." in op:
        module, _, name = op.partition(".")
        return getattr(sys.modules[f"gibbs_series.{module}"], name)
    return getattr(gs, op)


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--passes", type=int, default=1)
    ap.add_argument("--out")
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    opts = ap.parse_args()

    calls = []
    if opts.workload in ("solve_mix", "edge_sums"):
        calls = getattr(calls_mod, opts.workload)(opts.seed, calls_mod.pass_seconds(opts.workload, opts.seconds))
    t0 = time.perf_counter()
    import gibbs_series as gs
    import gibbs_series.cli  # noqa: F401  (the console script imports it too)

    import_s = time.perf_counter() - t0
    _warm_up(gs, opts.workload, calls)
    setup_s = time.perf_counter() - t0
    kind = hostspeed.KIND["setup"]
    hostspeed.reference(kind)  # the kernel's own first-run costs
    refs = [hostspeed.reference(kind) for _ in range(5)]
    setup = {"setup_s": setup_s * hostspeed.scale(kind, refs), "setup_unscaled_s": setup_s}
    if opts.setup_only:
        print(json.dumps({**setup, "budget": gs.max_terms_budget()}))
        return

    plan = calls_mod.materialize(gs, calls)
    domain_cache = gs.domain_info
    cache0 = domain_cache.cache_info()
    tracer = Tracer()
    if opts.trace:
        tracer.install()
    passes: list[list[float]] = []
    status_counts = {"ok": 0, "budget": 0, "wrong": 0, "unexpected": 0}
    problems: list[str] = []
    samples: list[dict] = []
    first: list[str] = []  # outcome of each call in the first pass
    stdout_bytes = 0
    kind = hostspeed.KIND.get(opts.workload)
    every = hostspeed.EVERY.get(opts.workload, 0) if not opts.trace else 0
    if every:
        hostspeed.reference(kind)  # the kernel's own first-run costs
    scaled_passes: list[list[float]] = []
    for k in range(opts.passes):
        latencies = []
        starts = []
        refs = [(time.perf_counter(), hostspeed.reference(kind))] if every else []
        for i, (call, (op, args, kwargs)) in enumerate(zip(calls, plan)):
            fn = _resolve(gs, op)
            result = exc = None
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                except Exception as err:  # classified below; the run goes on
                    exc = err
                latencies.append(time.perf_counter() - start)
            starts.append(start)
            if every and ((i + 1) % every == 0 or i + 1 == len(calls)):
                refs.append((time.perf_counter(), hostspeed.reference(kind)))
            if op == "cli.main":
                result = (result, out.getvalue())
                stdout_bytes += len(result[1].encode())
            if k == 0:
                status, detail = checks.check_call(op, call.args, call.kwargs, result, exc)
                first.append(status)
                if call.sampled and status in ("ok", "budget"):
                    samples.append(checks.sample_record(op, call.args, result, exc))
                elif op == "cli.main" and status == "ok":
                    # checked against mpmath by the harness, so that this
                    # process's peak memory holds only the library
                    sample = checks.cli_sample(call.args[0], result[1])
                    samples += [sample] if sample else []
            elif (exc is None) == (first[i] in ("ok", "wrong")):
                # a repeat of checked, deterministic work: same outcome class
                status, detail = first[i], "as in the first pass"
            else:
                status, detail = "unexpected", f"outcome changed between passes: {exc!r}"
            status_counts[status] += 1
            if status in ("wrong", "unexpected") and len(problems) < 20:
                problems.append(f"{op}{call.args}: {detail}")
        passes.append(latencies)
        if every:
            scaled_passes.append(hostspeed.scaled(kind, starts, latencies, refs))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache1 = domain_cache.cache_info()
    record = {
        **setup,
        "passes": scaled_passes or passes,
        "unscaled_passes": passes,
        "status": status_counts,
        "problems": problems,
        "samples": samples,
        "peak_rss_mb": peak_rss_mb,
        "domain_info_hits": cache1.hits - cache0.hits,
        "domain_info_misses": cache1.misses - cache0.misses,
        "budget": gs.max_terms_budget(),
    }
    if opts.trace:
        record["raw"] = tracer.finish()
        record["raw"].update(cli_processes=1, cli_import_s=import_s, cli_stdout_bytes=stdout_bytes)
        if opts.spans:
            tracer.dump(opts.spans)
    with open(opts.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh)


if __name__ == "__main__":
    main()
