"""T-axis sharding for the fleet engine over worker processes.

The fleet scheduler (:func:`repro.engine.fleet.fleet_solve`) already
vectorizes every (tensor, start) lane of its workload; this module runs
it either as one fleet in the calling thread or split along the
*tensor* axis into contiguous shards, one fleet per worker process:

``executor="thread"``
    One fleet in the calling thread, whatever ``workers`` is.  Worker
    threads would contend for the interpreter lock: on a 2-core host two
    of them ran 1.09–2.15x slower than the better of one inline fleet
    and the process tier at every measured shape (``docs/parallel.md``).
``executor="process"``
    Persistent worker processes over a zero-copy shared-memory tensor
    store (:mod:`repro.parallel.shm`, :mod:`repro.parallel.procfleet`).
    Tensor payload is published once; shard *descriptors* go through a
    work queue (which doubles as work stealing when the batch is
    oversplit — see ``steal=``), and results land in a preallocated
    shared block, so pipe traffic is O(result metadata) per shard.
``executor="auto"``
    Picks one of the two via the communication cost model in
    :mod:`repro.parallel.comm` (bytes moved vs. flops computed, after the
    block-partitioned Symv analysis of arXiv:2506.15488).

Every shard shares one starting-vector set, and the kernel names
(``"auto"`` included) are resolved once before any shard starts, so
every shard runs the same plan and the merged ``(T, V)`` result is
bit-for-bit the single-fleet result.  Shards are cut by
:func:`~repro.parallel.partition.cost_weighted_partition` fed with
per-tensor kernel-plan flop estimates; worker counts exceeding the batch
size are clamped with a warning (the partition itself refuses empty
shards with a typed :class:`~repro.parallel.partition.PartitionError`).

Observability: process workers serialize their span trees through the
result queue and the parent stitches them under ``workerN`` (see
``FleetRunReport.workers_traced``); both tiers spool typed events
(``events=`` or an ambient :func:`~repro.instrument.events.use_spool`)
that ``repro top`` renders live.  See ``docs/events.md``.
"""

from __future__ import annotations

import contextlib
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SolveConfig, deadline_stop, resolve_option
from repro.core.results import FleetResult
from repro.instrument import Recorder, current_recorder
from repro.instrument import span as _span
from repro.instrument.events import (
    EventSpool,
    current_spool,
    emit as _emit,
    use_spool,
)
from repro.instrument.log import get_logger
from repro.parallel.comm import EXECUTORS, choose_executor, estimate_fleet_comm
from repro.parallel.partition import cost_weighted_partition
from repro.symtensor.storage import SymmetricTensorBatch
from repro.util.rng import starting_vectors

__all__ = [
    "STEAL_IMBALANCE_THRESHOLD",
    "STEAL_SPLIT_FACTOR",
    "FleetRunReport",
    "parallel_fleet_solve",
]

#: ``imbalance()`` (max/mean shard seconds) above which the auto stealing
#: heuristic considers a static shard-per-worker split too lopsided and
#: oversplits the batch into a stealable queue instead.
STEAL_IMBALANCE_THRESHOLD = 1.25

#: Sub-shards per worker when stealing is on: small enough to keep
#: per-shard descriptor/metadata overhead negligible, large enough that a
#: worker whose tensors converge early keeps pulling work.
STEAL_SPLIT_FACTOR = 4

_log = get_logger("parallel.fleet")


@dataclass
class FleetRunReport:
    """A merged fleet result plus execution metadata.

    ``shard_sizes`` lists how many tensors each shard covered;
    ``shard_seconds`` the per-shard wall times (their spread is the load
    imbalance the partition could not avoid — see :meth:`imbalance`).
    ``executor`` is the tier that actually ran (``"auto"`` resolves
    before execution, and a single-shard run, which is inline on the
    calling thread, reports ``"thread"`` whatever tier was asked for);
    a ``"thread"`` run is always one fleet, so it reports
    ``workers=1`` and ``shard_sizes=[T]``.
    ``requeues``/``failed_shards`` are the process
    tier's crash accounting (a requeued shard, a written-off shard).
    ``workers_traced`` counts the worker span subtrees stitched into the
    caller's trace (0 when tracing was off or the run was one inline
    fleet; a process worker SIGKILLed before sending its exit message
    cannot be counted).
    """

    result: FleetResult
    workers: int
    seconds: float
    shard_sizes: list[int]
    shard_seconds: list[float] = field(default_factory=list)
    executor: str = "thread"
    requeues: int = 0
    failed_shards: list[int] = field(default_factory=list)
    workers_traced: int = 0

    def imbalance(self) -> float:
        """Load imbalance of the run: max/mean of ``shard_seconds``.

        1.0 is perfect balance; values above
        :data:`STEAL_IMBALANCE_THRESHOLD` are what the auto stealing
        heuristic exists to fix (rerun with ``steal=True`` or more
        shards).  NaN when no shard timings were recorded.
        """
        if not self.shard_seconds:
            return float("nan")
        mean = sum(self.shard_seconds) / len(self.shard_seconds)
        if mean <= 0:
            return 1.0
        return max(self.shard_seconds) / mean


def _shard_weights(tensors: SymmetricTensorBatch, num_starts: int) -> np.ndarray:
    """Per-tensor cost estimates feeding the cost-weighted partition:
    the analytic kernel-plan flop count ``2 m U`` per lane application
    times the tensor's ``V`` lanes.  Uniform for a homogeneous batch —
    where the weighting earns its keep is oversplit stealing queues and
    future mixed workloads."""
    U = tensors.values.shape[1]
    return np.full(len(tensors), 2.0 * tensors.m * U * num_starts)


def _stitch_worker_traces(parent: Recorder, traces: dict,
                          *, stacklevel: int = 4) -> int:
    """Absorb per-worker span payloads under ``workerN``; returns the
    count stitched.

    A payload that fails to deserialize is discarded with a single
    caller-blamed :class:`RuntimeWarning` (never silently) — the other
    workers' subtrees still land, so one corrupt pickle degrades the
    trace instead of voiding it.
    """
    stitched = 0
    warned = False
    for wid in sorted(traces):
        doc = traces[wid]
        if doc is None:
            continue
        try:
            rec = Recorder.from_dict(doc)
        except Exception as exc:
            if not warned:
                warned = True
                warnings.warn(
                    f"discarding undecodable span payload from fleet "
                    f"worker {wid} ({exc}); its subtree is missing from "
                    f"the stitched trace",
                    RuntimeWarning, stacklevel=stacklevel)
            _log.warning("undecodable worker span payload",
                         fields={"worker": wid, "error": str(exc)})
            continue
        parent.absorb(rec, under=f"worker{wid}")
        stitched += 1
    return stitched


def parallel_fleet_solve(
    tensors: SymmetricTensorBatch,
    workers: int = 1,
    num_starts: int | None = None,
    alpha: float | None = None,
    tol: float | None = None,
    max_iters: int | None = None,
    starts: np.ndarray | None = None,
    scheme: str | None = None,
    variant: str | None = None,
    dtype=None,
    rng=None,
    config: SolveConfig | None = None,
    *,
    backend: str | None = None,
    adaptive: bool | str = False,
    compact_every: int = 8,
    guards=None,
    executor: str | None = None,
    steal: bool | None = None,
    start_method: str | None = None,
    max_requeues: int = 2,
    faults: dict | None = None,
    events: str | None = None,
    stop=None,
    deadline: float | None = None,
    **engine,
) -> FleetRunReport:
    """Run ``tensors`` as one fleet, or shard them over ``workers``
    processes, one fleet per shard.

    Parameters are those of :func:`repro.engine.fleet.fleet_solve`, with
    the same defaults and the same ``config`` resolution; every shard
    shares one starting-vector set, so the merged ``(T, V)`` result is
    bit-for-bit a single fleet run with the same starts (shard
    boundaries change lane scheduling, not arithmetic).  Per-tensor
    ``(T, V, n)`` starts and a ``stop`` returning a ``(T,)`` mask need
    one fleet: ``workers=1`` or the thread tier (a sharded process run
    refuses such starts with ``ValueError`` before any worker starts).
    The tier-specific ones:

    executor : ``"thread"`` (default: one fleet in the calling thread,
        whatever ``workers`` is), ``"process"`` (``workers`` zero-copy
        shared-memory worker processes), or ``"auto"`` (cost-model pick
        between the two); also settable via ``SolveConfig.executor``.
    steal : oversplit the batch into ``STEAL_SPLIT_FACTOR`` sub-shards
        per worker so the process tier's work queue behaves as work
        stealing.  ``None`` (auto) enables it when the cost-weighted
        partition itself predicts imbalance above
        :data:`STEAL_IMBALANCE_THRESHOLD`.
    start_method : multiprocessing start method for the process tier
        (default: ``fork`` where available).
    max_requeues / faults : crash budget and chaos injection for the
        process tier (``faults`` maps shard id → ``"crash"``/``"kill"``).
    events : path of a per-run JSONL event spool
        (:mod:`repro.instrument.events`; also settable via
        ``SolveConfig.events``).  Ignored when a spool is already active
        via :func:`~repro.instrument.events.use_spool` — the ambient
        spool wins, so one CLI-opened spool covers nested solves.
        ``repro top <path>`` renders the stream live.
    stop : optional zero-argument callable forwarded to
        :func:`~repro.engine.fleet.fleet_solve` — polled once per sweep;
        when truthy the whole run cancels cleanly through the
        lane-retirement path and the result has ``stopped=True``.
        For the process tier the parent polls it and relays cancellation
        to the workers through a shared event (callables don't pickle).
    deadline : optional absolute epoch time (``time.time()`` scale); at
        the deadline the run cancels exactly like ``stop`` firing.  Works
        on every tier — process workers check it directly, so a deadline
        holds even if the parent thread stalls.  Also settable via
        ``SolveConfig.deadline``.
    **engine : the other :func:`~repro.engine.fleet.fleet_solve`
        keywords (``counter=``, ``plan=``, ``telemetry=``, ``tau=``),
        forwarded to the one inline fleet; a sharded process run refuses
        them with ``TypeError``.
    """
    from repro.engine.fleet import fleet_solve
    from repro.kernels.plan import resolve_names

    num_starts = resolve_option("num_starts", num_starts, config, 32)
    alpha = resolve_option("alpha", alpha, config, 0.0)
    tol = resolve_option("tol", tol, config, 1e-10)
    max_iters = resolve_option("max_iters", max_iters, config, 500)
    scheme = resolve_option("scheme", scheme, config, "random")
    dtype = resolve_option("dtype", dtype, config, np.float64)
    rng = resolve_option("rng", rng, config, None)
    deadline = resolve_option("deadline", deadline, config, None)
    guards = resolve_option("guards", guards, config, None)
    # resolved before any shard starts: every shard runs one kernel
    variant, backend = resolve_names(
        tensors.m, tensors.n,
        resolve_option("variant", variant, config, "vectorized"),
        resolve_option("backend", backend, config, "numpy"))
    stop = deadline_stop(stop, deadline)

    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    T = len(tensors)
    if workers > T:
        warnings.warn(
            f"workers={workers} exceeds the batch size T={T}; clamping to "
            f"{T} (extra workers would own empty shards)",
            RuntimeWarning, stacklevel=2)
        workers = max(1, T)
    executor = resolve_option("executor", executor, config, "thread")
    if executor not in EXECUTORS:
        raise ValueError(
            f"executor must be one of {EXECUTORS}, got {executor!r}")
    if starts is None:
        # explicit starts pass through: fleet_solve validates them
        starts = starting_vectors(num_starts, tensors.n, scheme=scheme,
                                  rng=rng, dtype=dtype)
    elif np.ndim(starts) not in (2, 3):
        raise ValueError(f"starts must have shape (V, n) or (T, V, n), "
                         f"got {np.shape(starts)}")
    V = np.shape(starts)[-2]

    if executor == "auto":
        estimate = estimate_fleet_comm(
            T, tensors.values.shape[1], V, tensors.n,
            workers, m=tensors.m, sweeps=max_iters // 4 or 1)
        executor = choose_executor(estimate).executor
    if executor == "process":
        from repro.parallel.shm import SHM_AVAILABLE

        if not SHM_AVAILABLE:  # pragma: no cover - exotic builds only
            warnings.warn(
                "multiprocessing.shared_memory unavailable; falling back "
                "to the thread executor", RuntimeWarning, stacklevel=2)
            executor = "thread"
    sharded = executor == "process" and workers > 1
    if sharded and np.ndim(starts) == 3:
        # shards take tensor slices but every shard gets the whole starts
        # array, so per-tensor starts would reach workers misshapen
        raise ValueError(
            f"per-tensor (T, V, n) starts need a single-shard run, got "
            f"workers={workers} on the process tier")
    if sharded and engine:
        raise TypeError(
            f"a sharded process run takes no {'/'.join(sorted(engine))} "
            f"keyword: those reach only the one inline fleet")

    parent = current_recorder()
    t0 = time.perf_counter()

    with contextlib.ExitStack() as _stack:
        spool = current_spool()
        if spool is None:
            events_path = resolve_option("events", events, config, None)
            if events_path:
                spool = _stack.enter_context(
                    EventSpool.open(events_path, src="parent"))
                _stack.enter_context(use_spool(spool))

        if sharded:
            return _process_tier(
                tensors, workers, starts, alpha=alpha, tol=tol,
                max_iters=max_iters, variant=variant, backend=backend,
                dtype=dtype, adaptive=adaptive,
                compact_every=compact_every, guards=guards, steal=steal,
                start_method=start_method, max_requeues=max_requeues,
                faults=faults, parent=parent, t0=t0,
                stop=stop, deadline=deadline)

        # the thread tier, and any single-shard run: one fleet, inline
        _emit("run_start", tensors=T, lanes=T * V, workers=1, shards=1,
              executor="inline", ranges=[[0, T]])
        _emit("shard_start", shard=0, lo=0, hi=T)
        res = fleet_solve(
            tensors, alpha=alpha, tol=tol, max_iters=max_iters,
            starts=starts, variant=variant, backend=backend, dtype=dtype,
            config=config, adaptive=adaptive, compact_every=compact_every,
            guards=guards, stop=stop, **engine,
        )
        elapsed = time.perf_counter() - t0
        _emit("shard_finish", shard=0, seconds=elapsed, sweeps=res.sweeps)
        _emit("run_finish", seconds=elapsed, requeues=0, failed=0)
        return FleetRunReport(
            result=res, workers=1, seconds=elapsed,
            shard_sizes=[T], shard_seconds=[elapsed], executor="thread",
        )


def _predicted_imbalance(weights: np.ndarray, ranges) -> float:
    """Max/mean shard weight of a partition — the up-front analog of
    :meth:`FleetRunReport.imbalance` the stealing heuristic checks."""
    sums = [float(weights[r.start:r.stop].sum()) for r in ranges]
    mean = sum(sums) / len(sums)
    return max(sums) / mean if mean > 0 else 1.0


def _process_tier(tensors, workers, starts, *, alpha, tol,
                  max_iters, variant, backend, dtype, adaptive,
                  compact_every, guards, steal, start_method, max_requeues,
                  faults, parent, t0, stop=None,
                  deadline=None) -> FleetRunReport:
    """Pick the process tier's shards and delegate to
    :func:`repro.parallel.procfleet.process_fleet_solve`."""
    from repro.parallel.procfleet import process_fleet_solve

    T = len(tensors)
    weights = _shard_weights(tensors, np.shape(starts)[-2])
    ranges = cost_weighted_partition(weights, workers)
    if steal is None:
        # auto: oversplit when even the *predicted* shard weights are
        # lopsided past the threshold (e.g. T not divisible by workers)
        steal = (_predicted_imbalance(weights, ranges)
                 > STEAL_IMBALANCE_THRESHOLD)
    if steal:
        shards = cost_weighted_partition(
            weights, min(T, workers * STEAL_SPLIT_FACTOR))
    else:
        shards = ranges

    workers_traced = 0
    with _span("parallel_fleet_solve"):
        result, info = process_fleet_solve(
            tensors, shards, starts, workers=workers, alpha=alpha, tol=tol,
            max_iters=max_iters, variant=variant, backend=backend,
            dtype=dtype, adaptive=adaptive, compact_every=compact_every,
            guards=guards, start_method=start_method,
            max_requeues=max_requeues, faults=faults,
            stop=stop, deadline=deadline,
        )
        if parent is not None:
            parent.gauge("parallel.workers", workers)
            parent.gauge("parallel.executor", "process")
            parent.gauge("parallel.shard_sizes", info["shard_sizes"])
            parent.gauge("parallel.steal", bool(steal))
            workers_traced = _stitch_worker_traces(
                parent, info.get("worker_traces", {}))
            parent.gauge("parallel.workers_traced", workers_traced)
    return FleetRunReport(
        result=result,
        workers=workers,
        seconds=time.perf_counter() - t0,
        shard_sizes=info["shard_sizes"],
        shard_seconds=info["shard_seconds"],
        executor="process",
        requeues=info["requeues"],
        failed_shards=info["failed_shards"],
        workers_traced=workers_traced,
    )
