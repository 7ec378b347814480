"""Communication cost model for fleet executor selection.

Which executor tier should a sharded fleet run on?  Following the
block-partitioned symmetric tensor-times-vector analysis of Al Daas,
Ballard, Grigori et al. (arXiv:2506.15488), the decision reduces to
comparing *bytes moved* against *flops computed* per shard:

* a naive process pool pickles each shard's packed tensor rows out and
  its results back — ``O(T_s * U)`` bytes per shard, the serialization
  bottleneck ROADMAP item 2 names;
* the zero-copy tier (:mod:`repro.parallel.shm`) publishes the tensor
  payload into shared memory once and moves only shard descriptors and
  completion metadata through pipes — ``O(1)`` per shard, with results
  written in place (``O(result)`` total, never serialized);
* the thread tier moves nothing and runs one fleet in the calling
  thread, so it costs the whole compute on one core.

:func:`estimate_fleet_comm` produces the byte/flop ledger for a workload
(validated against the measured ``repro_shm_bytes_published_total`` /
``repro_fleet_ipc_payload_bytes_total`` counters in
``benchmarks/bench_process_fleet.py``); :func:`choose_executor` turns it
into the ``executor="auto"`` decision.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

__all__ = [
    "EXECUTORS",
    "ExecutorChoice",
    "FleetCommEstimate",
    "choose_executor",
    "estimate_fleet_comm",
]

#: Valid ``executor=`` spellings for :func:`repro.parallel.parallel_fleet_solve`.
EXECUTORS = ("thread", "process", "auto")

#: Pickled bytes of one shard descriptor ``(sid, lo, hi, fault)`` and one
#: completion-metadata message — measured envelopes, used by the model so
#: its pipe-byte predictions line up with the instrumented counters.
DESCRIPTOR_BYTES = 96
META_BYTES = 320

#: Model constants (order-of-magnitude host parameters; the *decision*
#: only needs the ratio between tiers, not calibrated absolutes).
_FLOPS_PER_SECOND = 2.0e9
_PIPE_BYTES_PER_SECOND = 1.5e9
_WORKER_STARTUP_SECONDS = 0.02


@dataclass(frozen=True)
class FleetCommEstimate:
    """The byte/flop ledger of one sharded fleet workload.

    ``pickled_pipe_bytes`` is what a pickling process pool would move
    (tensor shards + starts out, results back); ``shm_pipe_bytes`` is
    what the zero-copy tier moves through pipes (descriptors + metadata
    only); ``shm_published_bytes`` is the one-time shared-memory
    publication (tensor payload + starts + preallocated results).
    """

    tensors: int
    unique_entries: int
    starts: int
    n: int
    workers: int
    shards: int
    itemsize: int
    flops: int
    tensor_bytes: int
    starts_bytes: int
    result_bytes: int
    pickled_pipe_bytes: int
    shm_pipe_bytes: int
    shm_published_bytes: int

    def intensity(self, executor: str) -> float:
        """Flops per pipe byte under ``executor`` — the arithmetic
        intensity of the distribution scheme (``inf`` when nothing
        crosses a pipe, as for threads)."""
        bytes_moved = self.pipe_bytes(executor)
        return self.flops / bytes_moved if bytes_moved else float("inf")

    def pipe_bytes(self, executor: str) -> int:
        """Bytes serialized across pipes under ``executor``."""
        if executor == "thread":
            return 0
        if executor == "process":
            return self.shm_pipe_bytes
        if executor == "pickle":  # the tier this module exists to avoid
            return self.pickled_pipe_bytes
        raise ValueError(f"unknown executor {executor!r}")


def estimate_fleet_comm(
    tensors: int,
    unique_entries: int,
    starts: int,
    n: int,
    workers: int,
    *,
    m: int = 3,
    shards: int | None = None,
    sweeps: int = 40,
    itemsize: int = 8,
) -> FleetCommEstimate:
    """Predict bytes moved and flops computed for a sharded fleet run.

    ``unique_entries`` is the packed symmetric size ``U = C(m+n-1, m)``.
    The flop estimate is the analytic ``2 m U`` multiply-adds per
    ``A x^{m-1}`` lane application (row-expansion kernels touch each of
    the ``U`` packed entries with ``m-1`` factor products), times
    ``T * V`` lanes times the expected ``sweeps`` — the same ledger the
    kernel-plan flop counters report.
    """
    workers = max(1, min(workers, tensors))
    if shards is None:
        shards = workers
    T, U, V = tensors, unique_entries, starts
    tensor_bytes = T * U * itemsize
    starts_bytes = V * n * itemsize
    # per-lane outputs: lambda f8 + shift f8 + iterations i8 + eigenvector
    # + converged/failed bools
    result_bytes = T * V * (3 * 8 + n * itemsize + 2)
    flops = 2 * m * U * T * V * sweeps
    pickled = tensor_bytes + shards * starts_bytes + result_bytes
    shm_pipe = shards * (DESCRIPTOR_BYTES + META_BYTES)
    published = tensor_bytes + starts_bytes + result_bytes
    return FleetCommEstimate(
        tensors=T, unique_entries=U, starts=V, n=n,
        workers=workers, shards=shards, itemsize=itemsize, flops=flops,
        tensor_bytes=tensor_bytes, starts_bytes=starts_bytes,
        result_bytes=result_bytes, pickled_pipe_bytes=pickled,
        shm_pipe_bytes=shm_pipe, shm_published_bytes=published,
    )


@dataclass(frozen=True)
class ExecutorChoice:
    """What ``executor="auto"`` decided, and why."""

    executor: str
    reason: str
    thread_seconds: float
    process_seconds: float


def choose_executor(estimate: FleetCommEstimate,
                    cpu_count: int | None = None) -> ExecutorChoice:
    """Pick the executor tier for a workload from its comm estimate.

    The thread tier is one fleet in the calling thread, so it costs the
    whole predicted compute.  It wins when there is no parallel
    hardware, too little work to amortize worker startup, or a single
    worker; otherwise the zero-copy process tier wins as soon as its
    share of the compute plus its fixed costs (startup + descriptor
    traffic) undercut that, because its pipe traffic is O(shards), not
    O(tensor).
    """
    if cpu_count is None:
        cpu_count = os.cpu_count() or 1
    compute = estimate.flops / _FLOPS_PER_SECOND
    eff_workers = max(1, min(estimate.workers, cpu_count))
    thread_seconds = compute
    process_seconds = (
        compute / eff_workers
        + _WORKER_STARTUP_SECONDS * estimate.workers
        + estimate.shm_pipe_bytes / _PIPE_BYTES_PER_SECOND
    )
    if estimate.workers < 2:
        return ExecutorChoice(
            "thread", "single worker: nothing to distribute",
            thread_seconds, process_seconds)
    if cpu_count < 2:
        return ExecutorChoice(
            "thread", f"one usable core (cpu_count={cpu_count}): process "
            "workers would timeshare it and pay IPC on top",
            thread_seconds, process_seconds)
    if process_seconds < thread_seconds:
        return ExecutorChoice(
            "process",
            f"predicted {thread_seconds / max(process_seconds, 1e-12):.1f}x "
            f"over one inline fleet at intensity "
            f"{estimate.intensity('process'):.0f} flops/pipe-byte",
            thread_seconds, process_seconds)
    return ExecutorChoice(
        "thread", "workload too small to amortize process startup",
        thread_seconds, process_seconds)
