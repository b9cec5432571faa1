"""Benchmark harness for gibbs-series.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see NOTES.md for why):

* ``solve_mix``  thousands of short calls in one warm process;
* ``edge_sums``  long log-family sums at and near y = -1 in cold processes;
* ``cli_cold``   separate ``gibbs-series`` processes, every subcommand but verify;
* ``verify_all`` ``gibbs-series verify all --jobs 2`` in fresh processes.

``BENCHMARK.json`` gates the first two; the process workloads spread too
widely between runs on a shared host to be gated.

Each run replays a call list fixed by the seed and the run length, one
call at a time (a closed loop with one client), checks every output
outside the timed region, and prints the end-to-end metrics.  With
``--trace 1`` it adds one traced pass over the same list and prints the
per-layer metrics and the tracing overhead instead.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calls as calls_mod
import checks
import tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
HERE = Path(__file__).resolve().parent
WORKLOADS = ("solve_mix", "edge_sums", "cli_cold", "verify_all")
SCALED = ("solve_mix", "edge_sums")  # times scaled to the nominal host speed (hostspeed.py)
SETUP_SAMPLES = 8  # fresh interpreters timed per run; setup_s is their median
ENTRY = "import sys; from gibbs_series.cli import main; sys.exit(main())"  # the console script
BUDGET_ENV = "GIBBS_SERIES_MAX_TERMS"

UNITS = {
    "setup_s": "s",
    "calls_per_s": "1/s",
    "p50_ms": "ms",
    "tail_ms": "ms",
    "ok_ratio": "ratio",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


def _env() -> dict:
    env = dict(os.environ)
    env.pop(BUDGET_ENV, None)  # the default 10^7 term budget applies
    env["PYTHONPATH"] = str(SRC)
    return env


def _python(args: list, timeout: float, **kw) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=timeout, **kw
    )


def _setup_probe(workload: str, seed: int, seconds: float) -> dict:
    """Import plus warm-up time, and the effective term budget, of a fresh interpreter."""
    proc = _python(
        [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--setup-only"],
        timeout=120,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"setup probe failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout)


def _tail(sorted_lat: list) -> tuple[float, float, int]:
    """Value at the highest percentile with at least 10 samples beyond it.

    Below 100 samples that percentile would fall under p90, so the
    maximum is reported (percentile 100, none beyond).
    """
    n = len(sorted_lat)
    if n >= 100:
        return sorted_lat[n - 11], 100.0 * (n - 10) / n, 10
    return sorted_lat[-1], 100.0, 0


class Result:
    """Per-call latencies, over one or more passes, and outcomes of a run."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.passes: list[list[float]] = []
        self.unscaled: list[list[float]] = []  # the same latencies as measured
        self.calls_per_item = 10 if workload == "verify_all" else 1  # criteria per process
        self.status = {"ok": 0, "budget": 0, "wrong": 0, "unexpected": 0}
        self.problems: list[str] = []
        self.setup: list[float] = []
        self.setup_unscaled: list[float] = []
        self.peak_rss_mb = 0.0
        self.raw: dict = dict.fromkeys(tracer.RAW_KEYS, 0)
        self.notes: dict = {}

    @property
    def attempted(self) -> int:
        return sum(self.status.values())

    def add(self, status: str, detail: str = "") -> None:
        self.status[status] += 1
        if status in ("wrong", "unexpected") and len(self.problems) < 20:
            self.problems.append(detail)

    def add_setup(self, probe: dict) -> None:
        scaled = self.workload in SCALED
        self.setup.append(probe["setup_s"] if scaled else probe["setup_unscaled_s"])
        self.setup_unscaled.append(probe["setup_unscaled_s"])

    def add_raw(self, raw: dict) -> None:
        for key, value in raw.items():
            if key == "box_triples":
                self.raw[key] = max(self.raw[key], value)
            else:
                self.raw[key] += value

    def samples(self, passes: list) -> list[float]:
        """The latency samples the timings are taken over.

        A list of at least 100 calls (solve_mix) gives one sample per
        call, its median over the passes (see calls.PASSES), so that the
        tail is a slow call and not a hiccup of the host.  A shorter list
        (edge_sums) gives every call of every pass, so that the tail has
        10 samples beyond it.  The process workloads, which are not
        scaled, take each call's fastest pass.
        """
        if self.workload not in SCALED:
            return [min(col) for col in zip(*passes)]
        if len(passes[0]) >= 100:
            return [statistics.median(col) for col in zip(*passes)]
        return [t for latencies in passes for t in latencies]

    def calls_per_s(self) -> float:
        lat = self.samples(self.passes)
        return len(lat) * self.calls_per_item / sum(lat)

    def first_pass_calls_per_s(self) -> float:
        """Calls per second of the first pass alone, unscaled, as the traced pass is measured."""
        first = self.unscaled[0]
        return len(first) * self.calls_per_item / sum(first)

    def _timings(self, passes: list, setup: list) -> dict:
        lat = sorted(self.samples(passes))
        return {
            "setup_s": statistics.median(setup),
            "calls_per_s": len(lat) * self.calls_per_item / sum(lat),
            "p50_ms": 1e3 * statistics.median(lat),
            "tail_ms": 1e3 * _tail(lat)[0],
        }

    def metrics(self) -> dict:
        lat = sorted(self.samples(self.passes))
        _, pct, beyond = _tail(lat)
        self.notes["tail"] = f"p{pct:.1f} of {len(lat)} samples from {len(self.passes)} passes, {beyond} beyond"
        self.notes["setup"] = f"median of {len(self.setup)} fresh interpreters"
        self.notes["fail_ratio"] = 1.0 - self.status["ok"] / self.attempted
        metrics = {
            **self._timings(self.passes, self.setup),
            "ok_ratio": self.status["ok"] / self.attempted,
            "peak_rss_mb": self.peak_rss_mb,
        }
        if self.workload in SCALED:
            measured = self._timings(self.unscaled, self.setup_unscaled)
            self.notes["unscaled"] = measured
            self.notes["host_speed"] = measured["calls_per_s"] / metrics["calls_per_s"]
        if self.workload == "verify_all":
            # one process per pass: the fastest pass's wall time
            metrics["wall_s"] = lat[0]
        return metrics


# ---------------------------------------------------------------------------
# In-process workloads
# ---------------------------------------------------------------------------

def _worker(workload: str, seed: int, seconds: float, passes: int, traced: bool, res: Result) -> list:
    out = OUT / f"{workload}-{seed}-{int(traced)}.json"
    args = [str(HERE / "worker.py"), "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    args += ["--passes", str(passes), "--trace", str(int(traced)), "--out", str(out)]
    if traced:
        args += ["--spans", str(OUT / f"spans-{workload}.npz")]
    proc = _python(args, timeout=170)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker failed: {proc.stderr.strip()[-800:]}")
    rec = json.loads(out.read_text())
    res.passes += rec["passes"]
    res.unscaled += rec["unscaled_passes"]
    res.add_setup(rec)
    res.peak_rss_mb = max(res.peak_rss_mb, rec["peak_rss_mb"])
    for key, count in rec["status"].items():
        res.status[key] += count
    res.problems += rec["problems"]
    res.notes["term_budget"] = rec["budget"]
    for key in ("domain_info_hits", "domain_info_misses"):
        res.notes[key] = res.notes.get(key, 0) + rec[key]
    if traced:
        res.add_raw(rec["raw"])
    return rec["samples"]


def run_in_process(workload: str, seed: int, seconds: float, traced: bool, res: Result) -> None:
    """solve_mix: one warm process, several passes; edge_sums: one cold
    process per pass.  Set-up probes run before and after the workers, so
    the set-up samples spread over the run."""
    if traced:
        _worker(workload, seed, seconds, 1, traced, res)
        return  # same calls as the untraced passes, whose samples were checked
    workers = 1 if workload == "solve_mix" else calls_mod.PASSES[workload]
    probes = SETUP_SAMPLES - workers
    for _ in range((probes + 1) // 2):
        res.add_setup(_setup_probe(workload, seed, seconds))
    found = [_worker(workload, seed, seconds, calls_mod.PASSES[workload] // workers, traced, res) for _ in range(workers)]
    for _ in range(probes // 2):
        res.add_setup(_setup_probe(workload, seed, seconds))
    samples = found[0]  # every worker makes the same calls
    bad = [msg for msg in map(checks.check_sample, samples) if msg]
    res.notes["reference_checks"] = f"{len(bad)} of {len(samples)} disagree with mpmath"
    for msg in bad:
        res.add("wrong", msg)


# ---------------------------------------------------------------------------
# Process-per-call workloads
# ---------------------------------------------------------------------------

def _cli_pass(workload: str, argvs: list, traced: bool, res: Result, timeout: float) -> list:
    outputs, latencies = [], []
    for i, argv in enumerate(argvs):
        if traced:
            raw_path = OUT / f"raw-{i}.json"
            spans = OUT / f"spans-{workload}-{i}.npz"
            cmd = [str(HERE / "launch.py"), "--raw", str(raw_path), "--spans", str(spans), "--", *argv]
        else:
            cmd = ["-c", ENTRY, *argv]
        start = time.perf_counter()
        proc = _python(cmd, timeout=timeout)
        latencies.append(time.perf_counter() - start)
        outputs.append((argv, proc.returncode, proc.stdout, proc.stderr))
        if traced:
            res.add_raw(json.loads(raw_path.read_text()))
    res.passes.append(latencies)
    res.unscaled.append(latencies)
    return outputs


def run_cli_cold(seed: int, seconds: float, traced: bool, res: Result) -> None:
    argvs = calls_mod.cli_cold(seed)
    for _ in range(1 if traced else calls_mod.PASSES["cli_cold"]):
        for argv, code, out, err in _cli_pass("cli_cold", argvs, traced, res, timeout=60):
            status, detail = checks.check_cli(argv, code, out)
            res.add(status, f"{' '.join(argv)}: {detail} {err.strip()[-300:]}")


def run_verify_all(seed: int, seconds: float, traced: bool, res: Result) -> None:
    argv = ["verify", "all", "--jobs", "2"]
    for _ in range(1 if traced else calls_mod.PASSES["verify_all"]):
        for _, code, out, err in _cli_pass("verify_all", [argv], traced, res, timeout=150):
            for status, detail in checks.check_verify(code, out):
                res.add(status, f"verify all: {detail} {err.strip()[-300:]}")


# ---------------------------------------------------------------------------

def _run(workload: str, seed: int, seconds: float, traced: bool) -> Result:
    res = Result(workload)
    if workload in ("solve_mix", "edge_sums"):
        run_in_process(workload, seed, seconds, traced, res)
    elif workload == "cli_cold":
        run_cli_cold(seed, seconds, traced, res)
    else:
        run_verify_all(seed, seconds, traced, res)
    if workload in ("cli_cold", "verify_all"):
        # every child so far imported the library; the largest sets the peak
        res.peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    return res


def _environment(seed: int, res: Result, caller_budget) -> dict:
    from importlib.metadata import version

    return {
        "seed": seed,
        "term_budget": res.notes.pop("term_budget"),
        f"{BUDGET_ENV}_removed": caller_budget,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = ap.parse_args()
    if not (SRC / "gibbs_series" / "__init__.py").is_file():
        print(f"error: no gibbs_series sources under {SRC}", file=sys.stderr)
        return 2
    caller_budget = os.environ.pop(BUDGET_ENV, None)
    OUT.mkdir(exist_ok=True)
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(SRC)], check=True, timeout=120)

    # set-up samples: in-process workloads collect theirs as they run;
    # the others run untimed entry points, so fresh probes time the import
    setup = []
    if opts.workload in ("cli_cold", "verify_all"):
        setup = [_setup_probe(opts.workload, opts.seed, opts.seconds) for _ in range(SETUP_SAMPLES)]
    res = _run(opts.workload, opts.seed, opts.seconds, traced=False)
    for probe in setup:
        res.add_setup(probe)
    if setup:
        res.notes["term_budget"] = setup[0]["budget"]
    metrics = res.metrics()
    failed = res.status["wrong"] + res.status["unexpected"]

    report = {"workload": opts.workload, **_environment(opts.seed, res, caller_budget), **res.notes}
    if opts.trace:
        traced = _run(opts.workload, opts.seed, opts.seconds, traced=True)
        failed += traced.status["wrong"] + traced.status["unexpected"]
        res.problems += traced.problems
        untraced = res.first_pass_calls_per_s()
        layer = tracer.per_layer(traced.raw, traced.calls_per_s(), untraced)
        report["trace_overhead"] = (
            f"traced {traced.calls_per_s():.6g} calls/s against {untraced:.6g} calls/s in the first untraced pass"
        )
        shown = {name: {"value": value, "unit": unit} for name, (value, unit) in layer.items()}
    else:
        shown = {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}
    for name, value in metrics.items():
        print(f"{name:14s} {value:.6g} {UNITS[name]}")
    print(f"{'fail_ratio':14s} {res.notes['fail_ratio']:.6g} ratio")
    if opts.trace:
        for name, item in shown.items():
            print(f"{name:32s} {item['value']:.6g} {item['unit']}")
    print("report " + json.dumps(report, sort_keys=True))
    for problem in res.problems:
        print(f"problem: {problem}")
    (OUT / f"result-{opts.workload}-{opts.seed}-{opts.trace}.json").write_text(json.dumps({"report": report, "metrics": shown}))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": res.attempted, "failed": failed, "metrics": shown}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
