"""Host-speed reference: a frozen SS-HOPM sweep loop timed between operations.

The shared 2-vCPU host this benchmark was tuned on runs the same code up
to 1.5x slower for minutes at a time, as neighbours load the machine.  A
wall-clock median cannot cancel that drift, so the benchmark times a
fixed reference workload before the first operation and after each one,
and reports timings scaled to a nominal host speed::

    scaled = seconds * nominal_s / mean(reference seconds just before and after)

The reference is the paper's inner loop written out here in plain numpy
(row-expanded ``A x^{m-1}``, shifted update, normalisation, Rayleigh
quotient) on fixed inputs from seed 0, at the shape of the workload it
stands beside and on as many processes or threads as that workload
keeps busy.  How
much a loaded neighbour slows code depends on the code's working set, so
the ``paper_batch`` reference also shrinks its lanes the way converged
lanes leave a fleet: a reference that kept every lane active stayed
memory-bound and followed the solve too loosely.  The reference never
calls the program, so a change to the program moves the scaled timings
and leaves the reference alone.  Raw wall times are recorded in the meta
line next to the scaled ones.
"""

from __future__ import annotations

import itertools
import math
import multiprocessing
import time
from multiprocessing.pool import ThreadPool
from collections import Counter
from dataclasses import dataclass

import numpy as np


def _row_tables(m: int, n: int):
    """Row expansion of ``A x^{m-1}`` over the unique entries of an order-m,
    dim-n symmetric tensor: per row its unique-entry slot, output index,
    remaining factor indices and multiplicity, sorted by output index."""
    rows = []
    classes = list(itertools.combinations_with_replacement(range(n), m))
    for slot, cls in enumerate(classes):
        for i in sorted(set(cls)):
            rest = list(cls)
            rest.remove(i)
            count = Counter(rest)
            sigma = math.factorial(m - 1)
            for c in count.values():
                sigma //= math.factorial(c)
            rows.append((i, slot, rest, sigma))
    rows.sort(key=lambda r: r[0])
    out = np.array([r[0] for r in rows])
    starts = np.searchsorted(out, np.arange(n))
    return (len(classes), np.array([r[1] for r in rows]),
            np.array([r[2] for r in rows]), np.array([r[3] for r in rows],
                                                     dtype=np.float64), starts)


@dataclass(frozen=True)
class ReferenceShape:
    """Size of one reference measurement: ``procs`` processes each sweep
    ``tensors`` x ``starts`` lanes of order ``m``, dim ``n``.
    ``schedule`` lists ``(share of the lanes still active, sweeps)``
    stages, the way converged lanes leave a fleet at compactions.
    ``nominal_s`` is what one measurement takes on a quiet host; scaled
    timings are seconds at that speed."""

    m: int
    n: int
    tensors: int
    starts: int
    schedule: tuple
    procs: int
    nominal_s: float
    #: with one process, threads sharing its interpreter lock, the way
    #: the server's job runners do
    threads: int = 1


def reference_sweeps(shape: ReferenceShape) -> float:
    """Run the frozen sweep loop once; returns its wall seconds."""
    num_unique, row_class, row_factors, sigma, out_starts = _row_tables(
        shape.m, shape.n)
    rng = np.random.default_rng(0)
    values = rng.standard_normal((shape.tensors, num_unique))
    x = rng.standard_normal((shape.starts, shape.n))
    x = np.tile(x / np.linalg.norm(x, axis=1, keepdims=True),
                (shape.tensors, 1))
    lane_vals = values[np.arange(x.shape[0]) // shape.starts]

    def ax_m1(x):
        # lane_vals is rebound at each stage below
        f = x[:, row_factors[:, 0]].copy()
        for j in range(1, shape.m - 1):
            f *= x[:, row_factors[:, j]]
        contrib = lane_vals[:, row_class] * f
        contrib *= sigma
        return np.add.reduceat(contrib, out_starts, axis=-1)

    t0 = time.perf_counter()
    for share, sweeps in shape.schedule:
        active = max(1, int(share * x.shape[0]))
        x = x[:active]
        lane_vals = lane_vals[:active].copy()
        y = ax_m1(x)
        for _ in range(sweeps):
            x_new = y + 2.0 * x
            x = x_new / np.linalg.norm(x_new, axis=-1)[:, None]
            y = ax_m1(x)
            np.einsum("ij,ij->i", x, y)
    return time.perf_counter() - t0


class HostReference:
    """Times :func:`reference_sweeps` on ``shape.procs`` processes (or
    ``shape.threads`` threads) at once.

    Keep one per run; :meth:`close` stops the workers."""

    def __init__(self, shape: ReferenceShape):
        self.shape = shape
        self.pool = None
        self.workers = max(shape.procs, shape.threads)
        if shape.procs > 1:
            self.pool = multiprocessing.get_context("spawn").Pool(shape.procs)
        elif shape.threads > 1:
            self.pool = ThreadPool(shape.threads)
        self.samples: list = []
        self.measure()  # first call pays for page faults and pool start-up
        self.samples.clear()

    def measure(self) -> float:
        """One reference measurement, recorded in :attr:`samples`."""
        t0 = time.perf_counter()
        if self.pool is None:
            reference_sweeps(self.shape)
        else:
            self.pool.map(reference_sweeps, [self.shape] * self.workers)
        seconds = time.perf_counter() - t0
        self.samples.append(seconds)
        return seconds

    def scale(self, seconds: float, before: float, after: float) -> float:
        """``seconds`` of work measured between the reference samples
        ``before`` and ``after``, at the nominal host speed."""
        return seconds * self.shape.nominal_s * 2 / (before + after)

    def close(self) -> None:
        if self.pool is not None:
            self.pool.close()
            self.pool.join()
            self.pool = None
