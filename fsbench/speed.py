"""Host-speed reference: a fixed job timed next to every measurement.

The host this benchmark was built on changes speed by up to 1.4x in
regimes that last from seconds to minutes, so two 30 s runs of the same code
can differ by 25%. End-to-end times are therefore reported at the reference
speed: each measured time is divided by the time of this job, run right
before and after it, and multiplied by REFERENCE_S. The job always runs in
run.py's process, never in the worker, so whatever famsplit leaves behind in
the worker (heap growth, a fragmented allocator) cannot change the divisor.

The job mixes the kinds of work famsplit does, in two halves of about equal
time. The first works on 0.7 MB, which stays in the CPU caches: index
arrays turned into tuples, numbers formatted and parsed, a dict built, a
sort. The second streams over 8 MB, beyond the caches, as the K=1000 matrix
and the materialize pool do: a scan into tuples, a float text round trip
and a cumulative sum. On a 2-vCPU host, a job with only the first half
followed paper-pipeline's host-speed changes but not large-k's; the two
halves together followed both (fsbench/NOTES.md). The cyclic garbage
collector is off while the job runs, so the heap of the process that runs
it does not change its cost.
"""

from __future__ import annotations

import gc
from time import perf_counter

import numpy as np

# The job's time at the reference speed: its median on the 2-vCPU host the
# benchmark was tuned on. Only ratios between runs matter.
REFERENCE_S = 0.1

_SMALL = np.random.default_rng(0).random((300, 300))
_LARGE = np.random.default_rng(1).random((1000, 1000))


def reference() -> float:
    """Seconds the fixed job takes now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = perf_counter()
        pairs = [(int(t), int(v)) for t, v in np.argwhere(_SMALL > 0.85)]
        table = {}
        for line in [f"s{i:06d}\t{x:.6f}" for i, x in enumerate(_SMALL[:40].ravel())]:
            key, value = line.split("\t")
            table[key] = float(value)
        sorted(pairs, key=lambda p: (p[1], p[0]))
        [(int(t), int(v)) for t, v in np.argwhere(_LARGE > 0.985)]
        text = ",".join(f"{x:.6f}" for x in _LARGE[:8].ravel())
        [float(x) for x in text.split(",")]
        np.cumsum(_LARGE)
        return perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(seconds: float, ref_s: float) -> float:
    return seconds * REFERENCE_S / ref_s
