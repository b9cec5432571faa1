"""Reference kernels that time how fast the host runs at the moment.

On a shared host the same code runs at speeds up to 1.5x apart, and a
slow stretch can outlast a whole run, so no statistic taken inside a run
escapes it.  The in-process workloads therefore time a fixed reference
kernel beside their calls and scale every latency to the nominal speed:

    scaled = measured * NOMINAL_S[kind] / median of nearby reference times

A call takes its factor from the median of the reference runs within
WINDOW_S of its midpoint, or within its own duration if that is longer:
a single run of a few milliseconds is too noisy to scale a call of
seconds, while the host's speed moves within seconds.

The host slows in two ways that need not coincide: bulk array work
(long series blocks) and interpreter work with short numpy calls (root
finders, small fits).  Each kind has its own kernel, made of the
operations the workload spends its time in; a kernel of the other kind
tracks a workload worse than no scaling at all.  The kernels are
benchmark code, so a change to gibbs_series moves the calls and not the
reference.
"""

from __future__ import annotations

import math
import statistics
import time

import numpy as np

_BULK = np.arange(1.0, 65537.0)
_SMALL = np.arange(1.0, 257.0)
# preallocated, so that the kernel leaves the process's peak memory alone
_A = np.empty_like(_BULK)
_B = np.empty_like(_BULK)


def _bulk() -> None:
    # a series block: exp, log, sum and cumsum over 64k terms
    for _ in range(16):
        np.log(_BULK, out=_A)
        np.multiply(_BULK, -1e-3, out=_B)
        np.subtract(_B, np.multiply(_A, 2.0, out=_A), out=_A)
        np.exp(_A, out=_A)
        _A.sum()
        np.cumsum(_A, out=_B)


def _interp() -> None:
    # short numpy calls and Python-level arithmetic, as in a solver probe
    for k in range(300):
        e = np.exp(-0.01 * k * _SMALL)
        math.log1p(float(e.sum()) + float(np.max(e)) + float(e[-1]))
    table: dict = {}

    def f(a: float, b: float) -> float:
        return a * b + 1.0

    for i in range(8000):
        table[i & 63] = f(i, 0.5)


KERNELS = {"bulk": _bulk, "interp": _interp}
# reference times at the nominal speed: the medians on the 2-vCPU
# x86-64 container the benchmark was defined on
NOMINAL_S = {"bulk": 0.010, "interp": 0.005}
# the kind each workload's calls follow; set-up (imports) is interpreter work
KIND = {"edge_sums": "bulk", "solve_mix": "interp", "setup": "interp"}
# calls between two reference runs: a long sum is followed by one, short
# solves by one every few tens of milliseconds
EVERY = {"edge_sums": 1, "solve_mix": 32}
WINDOW_S = 2.0


def reference(kind: str) -> float:
    """Seconds one run of the kind's reference kernel takes now."""
    start = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - start


def scale(kind: str, refs: list) -> float:
    """Factor that takes a time measured among these reference runs to
    the nominal speed."""
    return NOMINAL_S[kind] / statistics.median(refs)


def scaled(kind: str, starts: list, latencies: list, refs: list) -> list:
    """Latencies at the nominal speed, given the calls' start times and
    (start time, duration) of each reference run around them."""
    out = []
    for start, lat in zip(starts, latencies):
        mid, half = start + lat / 2, max(WINDOW_S, lat)
        out.append(lat * scale(kind, [d for at, d in refs if abs(at - mid) <= half]))
    return out
