"""Process tier of the parallel fleet: persistent workers over a
zero-copy shared tensor store.

The thread tier (:mod:`repro.parallel.fleet`) serializes numpy dispatch
on the GIL; this tier runs one OS process per worker instead, and keeps
every byte of tensor payload out of the pipes:

* the parent publishes the batch + starts + kernel tables into a
  :class:`~repro.parallel.shm.SharedTensorStore` and preallocates a
  :class:`~repro.parallel.shm.SharedResultBlock` (both unlinked in a
  ``finally``, whatever happens);
* persistent workers attach by name, warm the kernel plan once (table
  arrays from the store, codegen through the on-disk plan cache), then
  pull shard *descriptors* — ``(shard_id, lo, hi)`` index ranges — from
  a work queue until they drain it.  Oversplitting the batch into more
  shards than workers turns the queue into work stealing: a worker whose
  shards converge early simply pulls more;
* each shard's results are written in place through
  ``fleet_solve(out=block.workspace(lo, hi))``; the completion message is
  a dict of floats.  Per-worker metrics come back as one registry
  snapshot at exit and merge through the standard snapshot/merge path.

Crash discipline: a worker that dies mid-shard (or raises, e.g. an
injected :class:`~repro.resilience.faults.InjectedWorkerCrash`) gets its
claimed shard requeued on the survivors up to ``max_requeues`` times —
run inline in the parent if nobody survives — and a shard that exhausts
its budget is written off as NaN/failed placeholder rows, never silently
dropped.  The requeue-or-write-off decision is the resilient runner's
too (:func:`~repro.resilience.retry.requeue_or_write_off`).
"""

from __future__ import annotations

import contextlib
import multiprocessing as mp
import os
import pickle
import signal
import time
from queue import Empty

import numpy as np

from repro.core.results import FleetResult
from repro.engine.fleet import fleet_solve
from repro.instrument import Recorder, current_recorder
from repro.instrument import span as _wspan
from repro.instrument.events import (
    EventSpool,
    current_spool,
    emit as _emit,
    use_spool,
)
from repro.instrument.log import get_logger, log_context
from repro.instrument.metrics import (
    MetricsRegistry,
    get_registry,
    observe_ipc_payload,
    observe_queue_wait,
    use_registry,
)
from repro.parallel.shm import SharedResultBlock, SharedTensorStore
from repro.resilience.retry import requeue_or_write_off
from repro.symtensor.storage import SymmetricTensorBatch

__all__ = ["default_start_method", "process_fleet_solve"]

_log = get_logger("parallel.procfleet")

#: Seconds a fault-injected worker sleeps between announcing its claim and
#: killing itself — lets the queue feeder flush so the parent knows which
#: shard died (real crashes happen mid-solve, long after the claim).
_KILL_FLUSH_SECONDS = 0.1


def default_start_method() -> str:
    """``fork`` where available (workers inherit the warm plan cache and
    imported numpy for free), else ``spawn``."""
    methods = mp.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def _worker_main(worker_id: int, store_handle, block_handle,
                 task_q, done_q, opts: dict, cancel_ev=None) -> None:
    """Persistent worker loop: attach, warm the plan, drain descriptors.

    Module-level (not a closure) so spawn contexts can pickle it; every
    argument is a handle or primitive — the tensor payload arrives by
    attaching shared memory, never through this call.

    Observability: when the parent is tracing (``opts["trace"]``) the
    worker records its spans into its own :class:`Recorder` and ships the
    serialized tree back in its exit message; when an event spool is
    active (``opts["events"]``) the worker appends to the same JSONL file
    under its own ``w<id>`` source tag and ``O_APPEND`` descriptor.
    """
    # the parent coordinates shutdown (sentinels / terminate); a Ctrl-C
    # storm hitting the whole process group shouldn't produce N tracebacks
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    from repro.resilience.faults import InjectedFault

    reg = MetricsRegistry()
    rec = (Recorder(meta={"worker": worker_id, "run_id": opts.get("run_id")})
           if opts.get("trace") else None)
    spool = None
    if opts.get("events"):
        spool = EventSpool.open(opts["events"], run_id=opts.get("run_id"),
                                src=f"w{worker_id}", header=False)
    claims = 0
    shards_done = 0
    store = block = None
    try:
        with contextlib.ExitStack() as stack:
            stack.enter_context(use_registry(reg))
            stack.enter_context(log_context(run=opts.get("run_id"),
                                            worker=f"w{worker_id}"))
            if rec is not None:
                stack.enter_context(rec.activate())
                rec.gauge("worker.id", worker_id)
                rec.gauge("worker.pid", os.getpid())
            if spool is not None:
                stack.enter_context(use_spool(spool))
                spool.emit("worker_start", pid=os.getpid())
            store = store_handle.attach()
            block = block_handle.attach()
            m, n = store.m, store.n
            from repro.kernels.plan import get_plan
            from repro.kernels.tables import prime_tables

            with _wspan("plan_warm"):
                tables = store.kernel_tables()
                if tables is not None:
                    prime_tables(tables)
                # one plan warm per worker: tables came via the store,
                # codegen via the on-disk plan cache the parent populated
                plan = get_plan(m, n, opts["variant"], opts["backend"])
            dtype = np.dtype(opts["dtype"])
            # cancellation: callables don't pickle, so workers rebuild the
            # stop hook from primitives — an absolute deadline (held even
            # if the parent stalls) plus the parent-relayed cancel event
            w_deadline = opts.get("deadline")
            if w_deadline is not None or cancel_ev is not None:
                def w_stop():
                    if cancel_ev is not None and cancel_ev.is_set():
                        return True
                    return (w_deadline is not None
                            and time.time() >= w_deadline)
            else:
                w_stop = None
            wait_start = time.perf_counter()
            while True:
                item = task_q.get()
                if item is None:
                    break
                queue_wait = time.perf_counter() - wait_start
                sid, lo, hi, fault = item
                done_q.put(("claim", worker_id, sid))
                if spool is not None:
                    if claims:
                        # any pull past the first came out of the shared
                        # queue instead of this worker's nominal share
                        spool.emit("steal", shard=sid)
                    spool.emit("shard_start", shard=sid, lo=lo, hi=hi)
                claims += 1
                _log.debug("claimed shard",
                           fields={"shard": sid, "lo": lo, "hi": hi})
                if fault == "crash":
                    from repro.resilience.faults import InjectedWorkerCrash

                    raise InjectedWorkerCrash(
                        f"injected crash in worker {worker_id}, shard {sid}")
                if fault == "kill":
                    time.sleep(_KILL_FLUSH_SECONDS)
                    os.kill(os.getpid(), signal.SIGKILL)
                t0 = time.perf_counter()
                with _wspan(f"shard{sid}"):
                    res = fleet_solve(
                        store.batch(lo, hi),
                        alpha=opts["alpha"], tol=opts["tol"],
                        max_iters=opts["max_iters"], starts=store.starts,
                        variant=opts["variant"], backend=opts["backend"],
                        dtype=dtype, adaptive=opts["adaptive"],
                        compact_every=opts["compact_every"],
                        guards=opts["guards"], plan=plan,
                        out=block.workspace(lo, hi), telemetry=False,
                        stop=w_stop,
                    )
                meta = {
                    "seconds": time.perf_counter() - t0,
                    "sweeps": res.sweeps,
                    "compactions": res.compactions,
                    "queue_wait": queue_wait,
                    "stopped": res.stopped,
                }
                del res  # drop the buffer views before dispose
                shards_done += 1
                if spool is not None:
                    spool.emit("shard_finish", shard=sid,
                               seconds=meta["seconds"],
                               sweeps=meta["sweeps"])
                _log.info("shard finished",
                          fields={"shard": sid,
                                  "seconds": round(meta["seconds"], 6)})
                done_q.put(("done", worker_id, sid, meta))
                wait_start = time.perf_counter()
    except InjectedFault:
        # chaos-injected crash: die nonzero (the parent requeues the
        # shard) without spraying a traceback into the test output
        raise SystemExit(1)
    finally:
        if spool is not None:
            spool.emit("worker_exit", shards=shards_done)
            spool.close()
        try:
            trace_doc = rec.to_dict() if rec is not None else None
            done_q.put(("exit", worker_id, reg.snapshot(), trace_doc))
        except Exception:  # pragma: no cover - pipe already gone
            pass
        if block is not None:
            block.dispose()
        if store is not None:
            store.dispose()


def process_fleet_solve(
    tensors: SymmetricTensorBatch,
    shards: list[range],
    starts: np.ndarray,
    *,
    workers: int,
    alpha: float,
    tol: float,
    max_iters: int,
    variant: str,
    backend: str,
    dtype,
    adaptive: bool,
    compact_every: int,
    guards,
    start_method: str | None = None,
    max_requeues: int = 2,
    faults: dict | None = None,
    stop=None,
    deadline: float | None = None,
):
    """Run ``shards`` of ``tensors`` on a pool of worker processes.

    ``variant``/``backend``/``guards`` must already be resolved (no
    ``config`` or ``"auto"`` here — the parent resolves once so workers
    get one plan).  ``faults`` maps shard id → ``"crash"`` | ``"kill"``,
    injected on the shard's *first* attempt only (the chaos suite's
    deterministic crash hook).  Returns ``(result, info)`` where ``info``
    carries the per-shard metadata the caller folds into its
    :class:`~repro.parallel.fleet.FleetRunReport` — including
    ``worker_traces``, the serialized per-worker span trees collected
    from exit messages when the calling thread has an active
    :class:`~repro.instrument.recorder.Recorder` (workers are told to
    trace whenever the parent is).

    Cancellation: ``deadline`` (absolute epoch seconds) ships to the
    workers as a primitive, so they honor it autonomously; ``stop`` is a
    parent-side callable polled in the result loop — when it fires the
    parent sets a shared cancel event that every worker's per-sweep stop
    hook observes.  Both cancel through the engine's lane-retirement
    path, so the merged result is complete (``stopped=True``).
    """
    T = len(tensors)
    V = starts.shape[0]
    m, n = tensors.m, tensors.n
    dtype = np.dtype(dtype)
    ctx = mp.get_context(start_method or default_start_method())
    faults = dict(faults or {})

    # warm the process-wide + on-disk plan cache before forking/spawning,
    # and grab the canonical variant name for the merged result
    from repro.kernels.plan import get_plan

    plan = get_plan(m, n, variant, backend)

    # observability propagation: workers trace iff the parent traces, and
    # append to the parent's event spool (by path — each opens its own
    # O_APPEND descriptor) under the parent's run id
    spool = current_spool()
    run_id = spool.run_id if spool is not None else None
    opts = {
        "alpha": alpha, "tol": tol, "max_iters": max_iters,
        "variant": variant, "backend": backend, "dtype": dtype.str,
        "adaptive": adaptive, "compact_every": compact_every,
        "guards": guards,
        "trace": current_recorder() is not None,
        "events": spool.path if spool is not None else None,
        "run_id": run_id,
        "deadline": deadline,
    }

    store = SharedTensorStore.publish(tensors, starts, tables=plan.tables)
    block = SharedResultBlock.allocate(T, V, n, dtype=dtype)
    task_q = ctx.Queue()
    done_q = ctx.Queue()
    cancel_ev = ctx.Event() if (stop is not None or deadline is not None) \
        else None

    def cancelled() -> bool:
        """Parent-side view of the cancellation state (also the stop hook
        for inline fallback solves)."""
        if cancel_ev is not None and cancel_ev.is_set():
            return True
        if deadline is not None and time.time() >= deadline:
            return True
        return stop is not None and stop()

    state = {
        sid: {"range": (r.start, r.stop), "claimed_by": None, "meta": None}
        for sid, r in enumerate(shards)
    }
    done: set[int] = set()
    failed: set[int] = set()
    crashes: dict[int, int] = {}
    snapshots: list[dict] = []
    worker_traces: dict[int, dict] = {}

    _emit("run_start", tensors=T, lanes=T * V, workers=workers,
          shards=len(state), executor="process",
          ranges=[list(state[sid]["range"]) for sid in sorted(state)])

    def enqueue(sid: int, fault=None) -> None:
        lo, hi = state[sid]["range"]
        payload = (sid, lo, hi, fault)
        observe_ipc_payload("descriptor", len(pickle.dumps(payload)))
        task_q.put(payload)

    def write_off(sid: int) -> None:
        # placeholder rows: NaN values, failed mask set, never dropped
        lo, hi = state[sid]["range"]
        a = block.arrays
        a["eigenvalues"][lo:hi] = np.nan
        a["eigenvectors"][lo:hi] = np.nan
        a["converged"][lo:hi] = False
        a["iterations"][lo:hi] = 0
        a["failed"][lo:hi] = True
        a["shifts"][lo:hi] = alpha
        failed.add(sid)
        _emit("writeoff", shard=sid)
        _log.error("shard written off (requeue budget exhausted)",
                   fields={"run": run_id, "shard": sid})

    def run_inline(sid: int) -> None:
        # nobody left to delegate to: the parent solves the shard itself
        lo, hi = state[sid]["range"]
        _emit("shard_start", shard=sid, lo=lo, hi=hi)
        t0 = time.perf_counter()
        res = fleet_solve(
            store.batch(lo, hi), alpha=alpha, tol=tol, max_iters=max_iters,
            starts=store.starts, variant=variant, backend=backend,
            dtype=dtype, adaptive=adaptive, compact_every=compact_every,
            guards=guards, plan=plan, out=block.workspace(lo, hi),
            telemetry=False,
            stop=cancelled if cancel_ev is not None else None,
        )
        state[sid]["meta"] = {
            "seconds": time.perf_counter() - t0, "sweeps": res.sweeps,
            "compactions": res.compactions, "queue_wait": 0.0,
            "stopped": res.stopped,
        }
        del res
        done.add(sid)
        meta = state[sid]["meta"]
        _emit("shard_finish", shard=sid, seconds=meta["seconds"],
              sweeps=meta["sweeps"])
        _log.info("shard solved inline by the parent",
                  fields={"run": run_id, "shard": sid})

    def handle_lost_shard(sid: int, error: str) -> None:
        state[sid]["claimed_by"] = None
        if not requeue_or_write_off(
                crashes, sid, max_requeues,
                f"fleet worker died on shard {sid} ({error})"):
            write_off(sid)
            return
        _emit("requeue", shard=sid, attempt=crashes[sid])
        _log.warning("worker died on shard; requeueing",
                     fields={"run": run_id, "shard": sid, "error": error,
                             "attempt": crashes[sid]})
        if alive:
            enqueue(sid)  # fault injected on first attempt only
        else:
            run_inline(sid)

    for sid in state:
        enqueue(sid, faults.get(sid))

    procs = {
        wid: ctx.Process(
            target=_worker_main,
            args=(wid, store.handle(), block.handle(), task_q, done_q, opts,
                  cancel_ev),
            daemon=True, name=f"repro-fleet-worker-{wid}")
        for wid in range(workers)
    }
    alive = dict(procs)
    clean_exited: set[int] = set()
    t_start = time.perf_counter()

    try:
        for proc in procs.values():
            proc.start()

        def reap_dead() -> None:
            for wid in list(alive):
                proc = alive[wid]
                if proc.is_alive():
                    continue
                proc.join()
                del alive[wid]
                if wid in clean_exited:
                    # its exit message already credited metrics and
                    # requeued any claimed shard
                    continue
                sid = next((s for s, st in state.items()
                            if st["claimed_by"] == wid
                            and s not in done and s not in failed), None)
                if sid is not None:
                    handle_lost_shard(
                        sid, f"exitcode {proc.exitcode}")

        while len(done) + len(failed) < len(state):
            if not alive:
                # total pool loss: drain unclaimed descriptors and finish
                # inline — degraded, but no shard is ever dropped
                try:
                    while True:
                        task_q.get_nowait()
                except Empty:
                    pass
                for sid in list(state):
                    if sid not in done and sid not in failed:
                        run_inline(sid)
                break
            if cancel_ev is not None and not cancel_ev.is_set() and cancelled():
                # relay the parent-side stop to every worker's sweep hook;
                # remaining queued shards retire instantly through the
                # same path, so the run drains rather than aborts
                cancel_ev.set()
            try:
                msg = done_q.get(timeout=0.1)
            except Empty:
                reap_dead()
                continue
            kind = msg[0]
            if kind == "claim":
                _, wid, sid = msg
                state[sid]["claimed_by"] = wid
            elif kind == "done":
                _, wid, sid, meta = msg
                observe_ipc_payload("meta", len(pickle.dumps(msg)))
                observe_queue_wait(meta["queue_wait"])
                state[sid]["meta"] = meta
                state[sid]["claimed_by"] = None
                done.add(sid)
            elif kind == "exit":
                # a worker that raised sends its snapshot from `finally`
                # then dies nonzero; credit its metrics, requeue its shard
                _, wid, snap, trace_doc = msg
                snapshots.append(snap)
                if trace_doc is not None:
                    observe_ipc_payload("trace", len(pickle.dumps(trace_doc)))
                    worker_traces[wid] = trace_doc
                clean_exited.add(wid)
                sid = next((s for s, st in state.items()
                            if st["claimed_by"] == wid
                            and s not in done and s not in failed), None)
                if sid is not None:
                    handle_lost_shard(sid, "worker raised")

        # drain the pool: one sentinel per survivor, collect exit snapshots
        for _ in alive:
            task_q.put(None)
        drain_by = time.monotonic() + 10.0
        waiting = set(alive) - clean_exited
        while waiting and time.monotonic() < drain_by:
            try:
                msg = done_q.get(timeout=0.2)
            except Empty:
                for wid in list(waiting):
                    if not alive[wid].is_alive():
                        waiting.discard(wid)
                continue
            if msg[0] == "exit":
                snapshots.append(msg[2])
                if msg[3] is not None:
                    observe_ipc_payload("trace", len(pickle.dumps(msg[3])))
                    worker_traces[msg[1]] = msg[3]
                clean_exited.add(msg[1])
                waiting.discard(msg[1])
        for proc in alive.values():
            proc.join(timeout=2.0)
        arrays = block.snapshot()
    finally:
        for proc in alive.values():
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        store.dispose()
        block.dispose()
        task_q.close()
        done_q.close()

    reg = get_registry()
    for snap in snapshots:
        reg.merge(snap)
    requeues = sum(min(c, max_requeues) for c in crashes.values())
    if failed:
        reg.counter(
            "repro_chunk_failures_total",
            "Parallel chunks that exhausted their requeue budget",
        ).inc(len(failed))

    metas = [state[sid]["meta"] for sid in sorted(state)]
    result = FleetResult(
        eigenvalues=arrays["eigenvalues"],
        eigenvectors=arrays["eigenvectors"],
        converged=arrays["converged"],
        iterations=arrays["iterations"],
        sweeps=max((m_["sweeps"] for m_ in metas if m_), default=0),
        failed=arrays["failed"],
        shifts=arrays["shifts"],
        variant=plan.variant,
        compactions=sum(m_["compactions"] for m_ in metas if m_),
        stopped=any(m_.get("stopped", False) for m_ in metas if m_),
        tensors=tensors,
    )
    info = {
        "seconds": time.perf_counter() - t_start,
        "shard_sizes": [len(r) for r in shards],
        "shard_seconds": [m_["seconds"] if m_ else 0.0 for m_ in metas],
        "requeues": requeues,
        "failed_shards": sorted(failed),
        "worker_traces": worker_traces,
    }
    _emit("run_finish", seconds=info["seconds"], requeues=requeues,
          failed=len(failed))
    _log.info("process fleet run finished",
              fields={"run": run_id, "workers": workers,
                      "shards": len(state), "requeues": requeues,
                      "failed": len(failed),
                      "seconds": round(info["seconds"], 6)})
    return result, info
