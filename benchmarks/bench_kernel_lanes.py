"""Per-call cost of the batched ``A x^{m-1}`` kernel across lane counts.

For ``(m, n)`` = (4, 3), (4, 4) and (4, 6) this records the median
microseconds per call, the quartiles of the per-call samples and the
nanoseconds per lane of :func:`repro.kernels.batched.ax_m1_batched` at
1 to 65,536 lanes, with lane values held lanes-last the way the fleet
engine holds them.  Small lane counts (a serve request, a lane tail after
compaction) measure the kernel's fixed cost per call; 2,048 lanes and up
(a whole-workload fleet) measure its cost per lane.  Running this file on
two commits compares a kernel change at every lane count.  It records
numbers and asserts nothing about speed.

Run with ``make kernel-bench``; writes ``results/kernel_lanes.txt``.
"""

import os
import time

import numpy as np

from benchmarks.conftest import format_table, report
from repro.kernels.batched import ax_m1_batched
from repro.kernels.tables import kernel_tables

SHAPES = [(4, 3), (4, 4), (4, 6)]
LANES = [1, 8, 128, 2048, 16384, 65536]
SAMPLES = 15  # timed samples per (shape, lanes)
SAMPLE_SECONDS = 0.01  # each sample repeats the call for at least this long


def _per_call_seconds(call) -> np.ndarray:
    """``SAMPLES`` per-call times of ``call``, each averaged over enough
    repetitions to fill :data:`SAMPLE_SECONDS`."""
    call()  # warm up
    t0 = time.perf_counter()
    call()
    number = max(1, int(SAMPLE_SECONDS / max(time.perf_counter() - t0, 1e-9)))
    samples = np.empty(SAMPLES)
    for i in range(SAMPLES):
        t0 = time.perf_counter()
        for _ in range(number):
            call()
        samples[i] = (time.perf_counter() - t0) / number
    return samples


def test_kernel_lanes_table():
    rng = np.random.default_rng(0)
    rows = []
    for m, n in SHAPES:
        tab = kernel_tables(m, n)
        for lanes in LANES:
            values = rng.normal(size=(tab.num_unique, lanes)).T  # lanes-last
            x = rng.normal(size=(lanes, n))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            us = 1e6 * _per_call_seconds(
                lambda: ax_m1_batched(values, x, tables=tab))
            q1, median, q3 = np.percentile(us, [25, 50, 75])
            rows.append([f"m={m} n={n}", lanes, f"{median:12.1f}",
                         f"{q1:.1f}-{q3:.1f}", f"{1e3 * median / lanes:10.1f}"])
    report(
        "kernel_lanes",
        format_table(
            "ax_m1_batched per call, lanes-last values, float64 "
            f"({os.cpu_count()} CPUs, numpy {np.__version__}; median and "
            f"quartiles of {SAMPLES} samples)",
            ["shape", "lanes", "us/call", "quartiles", "ns/lane"],
            rows,
        ),
    )
