"""Per-call cost of the batched ``A x^{m-1}`` kernel's two evaluation
orders across lane counts.

:func:`repro.kernels.batched.ax_m1_batched` evaluates a call in the
*gather* order (gathered value and factor blocks reduced by
``np.add.reduceat``) below ``_ROW_CROSSOVER`` lanes and with the *row
program* (one ufunc call per term on contiguous lane rows) from there
up; both give the same bits.  For eight shapes from (3,3) to (4,8) this
times both orders side by side, alternating their samples, at 1 to
65,536 lanes with lane values held lanes-last the way the fleet engine
holds them, and records the median microseconds per call, the quartiles
of the per-call samples, the row program's time over the gather order's
and the order the kernel runs at that lane count.  Small lane counts (a
serve request, a lane tail after compaction) measure fixed cost per
call; 2,048 lanes and up (a whole-workload fleet) measure cost per lane.
The crossover constant is read off this table.  Besides powers of two it
times 1,023 and 4,095 lanes: a compacted fleet's lane count is rarely a
multiple of 8, and then the lane rows the row program reads in place
start off the cache-line alignment it keeps for its own scratch rows, so
the table shows whether the order the kernel picks just above the
crossover is still the faster one there.  It records numbers and asserts
nothing about speed.

Run with ``make kernel-bench``; writes ``results/kernel_lanes.txt``.
"""

import os
import time

import numpy as np

from benchmarks.conftest import format_table, report
from repro.kernels.batched import _ROW_CROSSOVER, _gather_blocks, _row_program
from repro.kernels.tables import kernel_tables

SHAPES = [(3, 3), (4, 3), (4, 4), (5, 4), (6, 3), (3, 6), (4, 6), (4, 8)]
LANES = [1, 8, 128, 512, 1023, 1024, 2048, 4095, 4096, 16384, 65536]
SAMPLES = 15  # timed samples per (shape, lanes, order)
SAMPLE_SECONDS = 0.01  # each sample repeats the call for at least this long


def _per_call_seconds(calls: dict) -> dict:
    """``SAMPLES`` per-call times of each of ``calls``, each sample
    averaged over enough repetitions to fill :data:`SAMPLE_SECONDS`; the
    calls' samples alternate so a slow spell of the host hits both."""
    number = {}
    for name, call in calls.items():
        call()  # warm up
        t0 = time.perf_counter()
        call()
        number[name] = max(1, int(SAMPLE_SECONDS
                                  / max(time.perf_counter() - t0, 1e-9)))
    samples = {name: np.empty(SAMPLES) for name in calls}
    for i in range(SAMPLES):
        for name, call in calls.items():
            t0 = time.perf_counter()
            for _ in range(number[name]):
                call()
            samples[name][i] = (time.perf_counter() - t0) / number[name]
    return samples


def test_kernel_lanes_table():
    rng = np.random.default_rng(0)
    rows = []
    for m, n in SHAPES:
        tab = kernel_tables(m, n)
        program = _row_program(tab)
        for lanes in LANES:
            values = rng.normal(size=(tab.num_unique, lanes)).T  # lanes-last
            x = rng.normal(size=(lanes, n))
            x /= np.linalg.norm(x, axis=1, keepdims=True)
            us = _per_call_seconds({
                "gather": lambda: _gather_blocks(values, x, tab),
                "row": lambda: program.run(values, x),
            })
            gq1, gather, gq3 = np.percentile(1e6 * us["gather"], [25, 50, 75])
            rq1, row, rq3 = np.percentile(1e6 * us["row"], [25, 50, 75])
            rows.append([f"m={m} n={n}", lanes,
                         f"{gather:10.1f}", f"{gq1:.1f}-{gq3:.1f}",
                         f"{row:10.1f}", f"{rq1:.1f}-{rq3:.1f}",
                         f"{row / gather:6.2f}",
                         "row" if lanes >= _ROW_CROSSOVER else "gather"])
    report(
        "kernel_lanes",
        format_table(
            "ax_m1_batched per call by evaluation order, lanes-last values, "
            f"float64 ({os.cpu_count()} CPUs, numpy {np.__version__}; median "
            f"and quartiles of {SAMPLES} alternating samples; crossover "
            f"{_ROW_CROSSOVER} lanes)",
            ["shape", "lanes", "gather us", "quartiles", "row us",
             "quartiles", "row/gather", "runs"],
            rows,
        ),
    )
