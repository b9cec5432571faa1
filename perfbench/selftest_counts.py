"""Deterministic counts self-test: two traced runs with one seed must
report identical work counters.

    python3 perfbench/selftest_counts.py [WORKLOAD ...]
    python3 -m pytest perfbench/selftest_counts.py

Wall time on a shared host moves by tens of percent from run to run, so
these counts are the exact gate for a change that claims less work.
The default workloads are the two cheap in-process ones; name
``cli_cold`` or ``verify_all`` to check those as well.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTERS = (
    "sequences.terms",
    "series.eval_calls",
    "conjugate.probes_per_solve",
    "entropy.witness_rounds",
)
# a short run: the list size follows from --seconds, so both runs match
ARGS = ("--seed", "7", "--seconds", "4", "--trace", "1")


def traced_counters(workload: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload, *ARGS],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {name: metrics[name]["value"] for name in COUNTERS}


def check(workload: str) -> list[str]:
    first, second = traced_counters(workload), traced_counters(workload)
    errors = [
        f"{workload} {name}: {first[name]!r} then {second[name]!r}"
        for name in COUNTERS
        if first[name] != second[name]
    ]
    if not first["series.eval_calls"]:
        errors.append(f"{workload}: no evaluations were counted")
    return errors


def test_counts_repeat_for_a_fixed_seed():
    for workload in ("solve_mix", "edge_sums"):
        assert check(workload) == []


if __name__ == "__main__":
    problems = [msg for wl in (sys.argv[1:] or ["solve_mix", "edge_sums"]) for msg in check(wl)]
    for msg in problems:
        print(msg)
    print("counts repeat" if not problems else "counts differ")
    sys.exit(1 if problems else 0)
