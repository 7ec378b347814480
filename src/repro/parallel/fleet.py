"""T-axis sharding for the fleet engine, over thread or process workers.

The fleet scheduler (:func:`repro.engine.fleet.fleet_solve`) already
vectorizes every (tensor, start) lane of its workload; this driver splits
the *tensor* axis into contiguous shards and runs one fleet per worker.
Two executor tiers share the partition/merge discipline:

``executor="thread"``
    One fleet per worker thread (the historical behavior).  Cheap to
    start and zero-copy by construction, but numpy dispatch serializes on
    the GIL, so scaling is bounded by the fraction of each sweep spent
    inside GIL-releasing kernels.
``executor="process"``
    Persistent worker processes over a zero-copy shared-memory tensor
    store (:mod:`repro.parallel.shm`, :mod:`repro.parallel.procfleet`).
    Tensor payload is published once; shard *descriptors* go through a
    work queue (which doubles as work stealing when the batch is
    oversplit — see ``steal=``), and results land in a preallocated
    shared block, so pipe traffic is O(result metadata) per shard.
``executor="auto"``
    Picks a tier via the communication cost model in
    :mod:`repro.parallel.comm` (bytes moved vs. flops computed, after the
    block-partitioned Symv analysis of arXiv:2506.15488).

Either way every shard shares one starting-vector set and all shards
resolve kernels from the same plan cache, so the merged ``(T, V)`` result
is bit-for-bit the single-worker fleet result.  Shards are cut by
:func:`~repro.parallel.partition.cost_weighted_partition` fed with
per-tensor kernel-plan flop estimates; worker counts exceeding the batch
size are clamped with a warning (the partition itself refuses empty
shards with a typed :class:`~repro.parallel.partition.PartitionError`).

Observability: both tiers feed one coherent trace — thread workers'
recorders are absorbed directly, process workers serialize their span
trees through the result queue and the parent stitches them under
``workerN`` (see ``FleetRunReport.workers_traced``) — and both tiers
spool typed events (``events=`` or an ambient
:func:`~repro.instrument.events.use_spool`) that ``repro top`` renders
live.  See ``docs/events.md``.
"""

from __future__ import annotations

import contextlib
import time
import warnings
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SolveConfig, resolve_option
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
from repro.instrument.metrics import MetricsRegistry, get_registry, use_registry
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
    before execution); ``requeues``/``failed_shards`` are the process
    tier's crash accounting (a requeued shard, a written-off shard).
    ``workers_traced`` counts the worker span subtrees stitched into the
    caller's trace (0 when tracing was off or the run was a degenerate
    single shard; for the process tier a worker SIGKILLed before sending
    its exit message cannot be counted).
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
) -> FleetRunReport:
    """Shard ``tensors`` over ``workers``, one fleet per shard.

    Parameters are those of :func:`repro.engine.fleet.fleet_solve`, with
    the same defaults and the same ``config`` resolution; every shard
    shares one starting-vector set, so the merged ``(T, V)`` result is
    bit-for-bit a single-worker fleet run with the same starts (shard
    boundaries change lane scheduling, not arithmetic).  The tier-specific
    ones:

    executor : ``"thread"`` (default), ``"process"`` (zero-copy
        shared-memory worker processes), or ``"auto"`` (cost-model pick);
        also settable via ``SolveConfig.executor``.
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
    stop : optional zero-argument callable forwarded to every shard's
        :func:`~repro.engine.fleet.fleet_solve` — polled once per sweep;
        when truthy the whole run cancels cleanly through the
        lane-retirement path and the merged result has ``stopped=True``.
        For the process tier the parent polls it and relays cancellation
        to the workers through a shared event (callables don't pickle).
    deadline : optional absolute epoch time (``time.time()`` scale); at
        the deadline the run cancels exactly like ``stop`` firing.  Works
        on every tier — process workers check it directly, so a deadline
        holds even if the parent thread stalls.  Also settable via
        ``SolveConfig.deadline``.
    """
    from repro.engine.fleet import fleet_solve

    num_starts = resolve_option("num_starts", num_starts, config, 32)
    alpha = resolve_option("alpha", alpha, config, 0.0)
    tol = resolve_option("tol", tol, config, 1e-10)
    max_iters = resolve_option("max_iters", max_iters, config, 500)
    scheme = resolve_option("scheme", scheme, config, "random")
    dtype = resolve_option("dtype", dtype, config, np.float64)
    rng = resolve_option("rng", rng, config, None)
    deadline = resolve_option("deadline", deadline, config, None)
    if deadline is not None:
        user_stop = stop

        def stop(_user_stop=user_stop, _deadline=deadline):
            if _user_stop is not None and _user_stop():
                return True
            return time.time() >= _deadline


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

    weights = _shard_weights(tensors, starts.shape[0])
    if executor == "auto":
        estimate = estimate_fleet_comm(
            T, tensors.values.shape[1], starts.shape[0], tensors.n,
            workers, m=tensors.m, sweeps=max_iters // 4 or 1)
        choice = choose_executor(estimate)
        executor = choice.executor
    if executor == "process":
        from repro.parallel.shm import SHM_AVAILABLE

        if not SHM_AVAILABLE:  # pragma: no cover - exotic builds only
            warnings.warn(
                "multiprocessing.shared_memory unavailable; falling back "
                "to the thread executor", RuntimeWarning, stacklevel=2)
            executor = "thread"

    parent = current_recorder()
    t0 = time.perf_counter()
    V = starts.shape[0]

    with contextlib.ExitStack() as _stack:
        spool = current_spool()
        if spool is None:
            events_path = resolve_option("events", events, config, None)
            if events_path:
                spool = _stack.enter_context(
                    EventSpool.open(events_path, src="parent"))
                _stack.enter_context(use_spool(spool))

        def solve(shard):
            # one fleet per shard, every shard on the same starts and options
            return fleet_solve(
                shard, alpha=alpha, tol=tol, max_iters=max_iters,
                starts=starts, variant=variant, backend=backend, dtype=dtype,
                config=config, adaptive=adaptive, compact_every=compact_every,
                guards=guards, stop=stop,
            )

        if workers == 1 or T == 1:
            # degenerate single shard: run inline, skip any pool
            _emit("run_start", tensors=T, lanes=T * V, workers=1, shards=1,
                  executor="inline", ranges=[[0, T]])
            _emit("shard_start", shard=0, lo=0, hi=T)
            res = solve(tensors)
            elapsed = time.perf_counter() - t0
            _emit("shard_finish", shard=0, seconds=elapsed, sweeps=res.sweeps)
            _emit("run_finish", seconds=elapsed, requeues=0, failed=0)
            return FleetRunReport(
                result=res, workers=1, seconds=elapsed,
                shard_sizes=[T], shard_seconds=[elapsed], executor=executor,
            )

        if executor == "process":
            return _process_tier(
                tensors, workers, starts, weights, alpha=alpha, tol=tol,
                max_iters=max_iters, variant=variant, backend=backend,
                dtype=dtype, config=config, adaptive=adaptive,
                compact_every=compact_every, guards=guards, steal=steal,
                start_method=start_method, max_requeues=max_requeues,
                faults=faults, parent=parent, t0=t0,
                stop=stop, deadline=deadline)

        ranges = cost_weighted_partition(weights, workers)
        _emit("run_start", tensors=T, lanes=T * V, workers=len(ranges),
              shards=len(ranges), executor="thread",
              ranges=[[r.start, r.stop] for r in ranges])

        def solve_shard(item):
            wid, r = item
            worker_reg = MetricsRegistry()
            worker_rec = Recorder() if parent is not None else None
            worker_spool = spool.bound(f"t{wid}") if spool is not None else None
            shard = tensors.subset(np.arange(r.start, r.stop))
            ts = time.perf_counter()
            with use_registry(worker_reg), use_spool(worker_spool):
                _emit("shard_start", shard=wid, lo=r.start, hi=r.stop)
                if worker_rec is not None:
                    with worker_rec.activate():
                        res = solve(shard)
                else:
                    res = solve(shard)
                seconds = time.perf_counter() - ts
                _emit("shard_finish", shard=wid, seconds=seconds,
                      sweeps=res.sweeps)
            return res, worker_rec, worker_reg, seconds

        workers_traced = 0
        with _span("parallel_fleet_solve"):
            from concurrent.futures import ThreadPoolExecutor

            with ThreadPoolExecutor(max_workers=len(ranges)) as pool:
                outs = list(pool.map(solve_shard, enumerate(ranges)))

            caller_reg = get_registry()
            if parent is not None:
                parent.gauge("parallel.workers", len(ranges))
                parent.gauge("parallel.executor", "thread")
                parent.gauge("parallel.shard_sizes", [len(r) for r in ranges])
                for wid, (_, worker_rec, _, _) in enumerate(outs):
                    if worker_rec is not None:
                        parent.absorb(worker_rec, under=f"worker{wid}")
                        workers_traced += 1
            for _, _, worker_reg, _ in outs:
                caller_reg.merge(worker_reg)

        parts = [o[0] for o in outs]
        merged = FleetResult(
            eigenvalues=np.concatenate([p.eigenvalues for p in parts], axis=0),
            eigenvectors=np.concatenate([p.eigenvectors for p in parts], axis=0),
            converged=np.concatenate([p.converged for p in parts], axis=0),
            iterations=np.concatenate([p.iterations for p in parts], axis=0),
            sweeps=max(p.sweeps for p in parts),
            failed=np.concatenate([p.failed for p in parts], axis=0),
            shifts=np.concatenate([p.shifts for p in parts], axis=0),
            variant=parts[0].variant,
            compactions=sum(p.compactions for p in parts),
            stopped=any(p.stopped for p in parts),
            tensors=tensors,
        )
        elapsed = time.perf_counter() - t0
        _emit("run_finish", seconds=elapsed, requeues=0, failed=0)
        _log.info("thread fleet run finished",
                  fields={"workers": len(ranges), "seconds": elapsed})
        return FleetRunReport(
            result=merged,
            workers=len(ranges),
            seconds=elapsed,
            shard_sizes=[len(r) for r in ranges],
            shard_seconds=[o[3] for o in outs],
            executor="thread",
            workers_traced=workers_traced,
        )


def _predicted_imbalance(weights: np.ndarray, ranges) -> float:
    """Max/mean shard weight of a partition — the up-front analog of
    :meth:`FleetRunReport.imbalance` the stealing heuristic checks."""
    sums = [float(weights[r.start:r.stop].sum()) for r in ranges]
    mean = sum(sums) / len(sums)
    return max(sums) / mean if mean > 0 else 1.0


def _process_tier(tensors, workers, starts, weights, *, alpha, tol,
                  max_iters, variant, backend, dtype, config, adaptive,
                  compact_every, guards, steal, start_method, max_requeues,
                  faults, parent, t0, stop=None,
                  deadline=None) -> FleetRunReport:
    """Resolve process-tier options and delegate to
    :func:`repro.parallel.procfleet.process_fleet_solve`."""
    from repro.parallel.procfleet import process_fleet_solve

    T = len(tensors)
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

    # workers receive primitives, not a config: resolve the config-backed
    # options here exactly as fleet_solve would
    variant_r = resolve_option("backend", variant, config, "vectorized")
    backend_r = resolve_option("codegen_backend", backend, config, "numpy")
    guards_r = resolve_option("guards", guards, config, None)

    workers_traced = 0
    with _span("parallel_fleet_solve"):
        result, info = process_fleet_solve(
            tensors, shards, starts, workers=workers, alpha=alpha, tol=tol,
            max_iters=max_iters, variant=variant_r, backend=backend_r,
            dtype=dtype, adaptive=adaptive, compact_every=compact_every,
            guards=guards_r, start_method=start_method,
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
