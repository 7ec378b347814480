"""Serve-side job model: specs, lifecycle, and the checkpointing runner.

A *job* is one solve request flowing through the daemon: a declarative
:class:`JobSpec` (everything needed to rebuild the exact problem — a
tensor recipe, a starts seed, solver parameters), a mutable :class:`Job`
tracking its lifecycle, and :func:`run_job`, which executes the spec in
tensor *chunks* with a ``repro-ckpt/1`` checkpoint written after every
chunk.

Chunked checkpointing is what makes drain/resume bit-for-bit: per-tensor
rows of a fleet result depend only on (tensor, starting vectors) — shard
boundaries change scheduling, never arithmetic — so completed chunks
recorded as JSON (Python's float repr round-trips ``float64`` exactly)
can be merged with freshly solved chunks and match an uninterrupted run
to the last bit.  A drain interrupts *between* chunks: the in-flight
chunk cancels through the engine's lane-retirement ``stop=`` hook and is
discarded; everything checkpointed stays.

The runner is also where the circuit breaker meets the fleet: a chunk
asking for the process tier consults the breaker first, a run whose
workers crashed (even if recovered by requeueing) records a failure, and
an open breaker reroutes chunks to the thread tier with the job marked
``degraded``.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.instrument.events import emit as _emit, new_run_id
from repro.instrument.log import get_logger
from repro.instrument.metrics import observe_serve_degraded, observe_serve_job
from repro.resilience.checkpoint import (
    check_resumable,
    new_checkpoint,
    read_checkpoint,
    run_chunks,
    tensor_fingerprint,
    write_checkpoint,
)
from repro.resilience.faults import FaultPlan
from repro.symtensor.random import random_symmetric_batch
from repro.symtensor.storage import SymmetricTensorBatch
from repro.util.rng import starting_vectors

__all__ = ["Job", "JobSpec", "run_job"]

_log = get_logger("serve.jobs")

#: Terminal job states (``done_event`` is set exactly when one is reached).
TERMINAL = frozenset({"done", "failed", "interrupted", "deadline"})


class BadSpec(ValueError):
    """A request document that cannot be turned into a runnable spec."""


@dataclass
class JobSpec:
    """Declarative description of one solve request.

    ``tensors`` is a recipe, not a payload: ``{"kind": "random", "count",
    "m", "n", "seed"}`` rebuilds the batch deterministically (the same
    recipe the CLI's checkpoint ``source`` uses), and ``{"kind":
    "values", "values", "m", "n"}`` carries the unique-value rows inline.
    Both reconstruct the identical batch on resume, which the checkpoint
    layer verifies by fingerprint.

    ``method`` picks the solver from the :mod:`repro.solvers` registry
    (``"sshopm"``, ``"geap"``, ``"qrst"`` — never ``"auto"``: a job spec
    must be reproducible, so routing happens at submission time).  A
    checkpoint written under one method is stale for any other.
    """

    tensors: dict
    num_starts: int = 8
    seed: int = 0
    alpha: float = 0.0
    tol: float = 1e-8
    max_iters: int = 200
    workers: int = 1
    executor: str = "thread"
    chunk: int = 16
    deadline_seconds: float | None = None
    faults: dict = field(default_factory=dict)
    method: str = "sshopm"

    @classmethod
    def from_doc(cls, doc: dict) -> "JobSpec":
        if not isinstance(doc, dict):
            raise BadSpec("request body must be a JSON object")
        tensors = doc.get("tensors")
        if not isinstance(tensors, dict):
            raise BadSpec("request needs a 'tensors' object")
        kind = tensors.get("kind", "random")
        if kind == "random":
            for key in ("count", "m", "n"):
                if not isinstance(tensors.get(key), int) or tensors[key] < 1:
                    raise BadSpec(
                        f"tensors.{key} must be a positive integer")
            tensors.setdefault("seed", 0)
        elif kind == "values":
            if not isinstance(tensors.get("values"), list):
                raise BadSpec("tensors.values must be a list of rows")
            for key in ("m", "n"):
                if not isinstance(tensors.get(key), int):
                    raise BadSpec(f"tensors.{key} must be an integer")
        else:
            raise BadSpec(f"unknown tensors.kind {kind!r}")
        executor = doc.get("executor", "thread")
        if executor not in ("thread", "process", "auto"):
            raise BadSpec(f"executor must be thread/process/auto, "
                          f"got {executor!r}")
        deadline = doc.get("deadline_seconds")
        if deadline is not None and (not isinstance(deadline, (int, float))
                                     or deadline <= 0):
            raise BadSpec("deadline_seconds must be a positive number")
        method = doc.get("method", "sshopm")
        from repro.solvers import available_methods

        if method == "auto" or method not in available_methods():
            raise BadSpec(
                f"method must be one of "
                f"{[m for m in available_methods() if m != 'auto']}, "
                f"got {method!r}")
        try:
            spec = cls(
                tensors=tensors,
                num_starts=int(doc.get("num_starts", 8)),
                seed=int(doc.get("seed", 0)),
                alpha=float(doc.get("alpha", 0.0)),
                tol=float(doc.get("tol", 1e-8)),
                max_iters=int(doc.get("max_iters", 200)),
                workers=int(doc.get("workers", 1)),
                executor=executor,
                chunk=int(doc.get("chunk", 16)),
                deadline_seconds=(float(deadline) if deadline is not None
                                  else None),
                faults={int(k): v
                        for k, v in (doc.get("faults") or {}).items()},
                method=method,
            )
        except (TypeError, ValueError) as exc:
            raise BadSpec(f"invalid solver parameter: {exc}") from exc
        if spec.num_starts < 1 or spec.max_iters < 1 or spec.chunk < 1 \
                or spec.workers < 1:
            raise BadSpec("num_starts/max_iters/chunk/workers must be >= 1")
        return spec

    def to_doc(self) -> dict:
        return {
            "tensors": self.tensors,
            "num_starts": self.num_starts,
            "seed": self.seed,
            "alpha": self.alpha,
            "tol": self.tol,
            "max_iters": self.max_iters,
            "workers": self.workers,
            "executor": self.executor,
            "chunk": self.chunk,
            "deadline_seconds": self.deadline_seconds,
            "faults": {str(k): v for k, v in self.faults.items()},
            "method": self.method,
        }

    def build_batch(self) -> SymmetricTensorBatch:
        """Rebuild the tensor batch the recipe describes (deterministic:
        the resumed process gets the byte-identical batch)."""
        t = self.tensors
        if t.get("kind", "random") == "random":
            return random_symmetric_batch(
                t["count"], m=t["m"], n=t["n"], rng=int(t.get("seed", 0)))
        values = np.asarray(t["values"], dtype=np.float64)
        return SymmetricTensorBatch(values, t["m"], t["n"])

    def build_starts(self, n: int) -> np.ndarray:
        return starting_vectors(self.num_starts, n, scheme="random",
                                rng=self.seed)


class Job:
    """One request's mutable lifecycle state (thread-safe via ``lock``)."""

    def __init__(self, job_id: str, spec: JobSpec, run_id: str | None = None):
        self.id = job_id
        self.spec = spec
        self.run_id = run_id or new_run_id()
        self.status = "queued"
        self.degraded = False
        self.error: str | None = None
        self.created = time.time()
        self.seconds: float | None = None
        self.result: dict | None = None
        self.checkpoint: str | None = None
        self.stop_event = threading.Event()
        self.done_event = threading.Event()
        self.lock = threading.Lock()

    def finish(self, status: str, *, error: str | None = None) -> None:
        assert status in TERMINAL, status
        with self.lock:
            self.status = status
            self.error = error
            self.seconds = time.time() - self.created
        self.done_event.set()
        observe_serve_job(status, self.seconds)
        _emit("job_finish", job=self.id, status=status, seconds=self.seconds)

    def to_doc(self) -> dict:
        with self.lock:
            doc = {
                "job": self.id,
                "run_id": self.run_id,
                "status": self.status,
                "degraded": self.degraded,
                "seconds": self.seconds,
                "checkpoint": self.checkpoint,
            }
            if self.error is not None:
                doc["error"] = self.error
            if self.result is not None:
                doc["result"] = self.result
        return doc


def _row_record(result, t: int) -> dict:
    """One tensor's rows of a fleet result as a JSON-exact record."""
    return {
        "eigenvalues": result.eigenvalues[t].tolist(),
        "eigenvectors": result.eigenvectors[t].tolist(),
        "converged": result.converged[t].tolist(),
        "iterations": result.iterations[t].tolist(),
        "failed": result.failed[t].tolist(),
        "shifts": (result.shifts[t].tolist()
                   if result.shifts is not None else None),
    }


def _merge_rows(rows: dict, T: int, V: int, n: int) -> dict:
    """Assemble the per-tensor records into the job's result document.

    Tensors with no record (a deadline fired before their chunk ran) get
    NaN/failed placeholder rows — the same never-drop contract as the
    fleet's write-off path.
    """
    lam = np.full((T, V), np.nan)
    vec = np.full((T, V, n), np.nan)
    conv = np.zeros((T, V), dtype=bool)
    iters = np.zeros((T, V), dtype=np.int64)
    failed = np.ones((T, V), dtype=bool)
    shifts = np.full((T, V), np.nan)
    for t, rec in rows.items():
        lam[t] = rec["eigenvalues"]
        vec[t] = rec["eigenvectors"]
        conv[t] = rec["converged"]
        iters[t] = rec["iterations"]
        failed[t] = rec["failed"]
        if rec.get("shifts") is not None:
            shifts[t] = rec["shifts"]
    return {
        "eigenvalues": lam.tolist(),
        "eigenvectors": vec.tolist(),
        "converged": conv.tolist(),
        "iterations": iters.tolist(),
        "failed": failed.tolist(),
        "shifts": shifts.tolist(),
        "tensors_solved": sorted(rows),
    }


def run_job(job: Job, *, breaker=None, ckpt_dir=None, keep: int = 0,
            protect=None) -> None:
    """Execute ``job`` chunk by chunk; always leaves it in a terminal
    state (the runner thread must survive any single job).

    ``breaker`` gates the process tier; ``ckpt_dir`` enables chunk
    checkpointing (without it a drain loses in-flight work — the server
    always passes one); ``keep`` > 0 prunes old checkpoint files after a
    successful job.  ``protect`` is a zero-argument callable returning
    checkpoint paths that pruning must never touch — the server passes
    its live in-flight set, so one job finishing cannot delete the
    checkpoint another running job would need at the next drain.
    """
    from repro.parallel.fleet import parallel_fleet_solve

    spec = job.spec
    _emit("job_start", job=job.id)
    with job.lock:
        job.status = "running"
    try:
        batch = spec.build_batch()
        starts = spec.build_starts(batch.n)
    except Exception as exc:
        job.finish("failed", error=f"bad problem spec: {exc}")
        return
    T, V = len(batch), starts.shape[0]

    deadline = (job.created + spec.deadline_seconds
                if spec.deadline_seconds is not None else None)

    fingerprint = tensor_fingerprint(batch)
    ckpt_path = None
    ckpt = None
    if ckpt_dir is not None:
        ckpt_path = Path(ckpt_dir) / f"job-{job.id}.json"
        job.checkpoint = str(ckpt_path)
        if ckpt_path.exists():
            try:
                ckpt = read_checkpoint(ckpt_path)
                check_resumable(
                    ckpt, fingerprint=fingerprint,
                    num_starts=spec.num_starts, seed=spec.seed,
                    alpha=spec.alpha, tol=spec.tol,
                    max_iters=spec.max_iters)
                ckpt_method = ((((ckpt.get("run") or {}).get("source")
                                 or {}).get("spec") or {})
                               .get("method", "sshopm"))
                if ckpt_method != spec.method:
                    raise ValueError(
                        f"checkpoint was written by method {ckpt_method!r}"
                        f", job wants {spec.method!r}")
                _log.info("resuming job from checkpoint",
                          fields={"job": job.id,
                                  "tensors_done": len(ckpt["starts"])})
            except ValueError as exc:
                _log.warning("ignoring stale checkpoint",
                             fields={"job": job.id, "error": str(exc)})
                ckpt = None
    if ckpt is None:
        ckpt = new_checkpoint(
            fingerprint=fingerprint, num_starts=spec.num_starts,
            seed=spec.seed, alpha=spec.alpha, tol=spec.tol,
            max_iters=spec.max_iters,
            source={"kind": "serve-job", "job": job.id,
                    "spec": spec.to_doc()})
        ckpt["run"]["run_id"] = job.run_id

    deadline_cut = False  # a chunk the deadline stopped is the last one

    def stopped() -> bool:
        return deadline_cut or job.stop_event.is_set() or (
            deadline is not None and time.time() >= deadline)

    def degrade() -> None:
        # repro_serve_degraded_total counts jobs, not degraded chunks
        with job.lock:
            first, job.degraded = not job.degraded, True
        if first:
            observe_serve_degraded()

    # Fleet chaos fault keys live in a job-global shard-id space: the
    # shard ids of each chunk's fleet run, concatenated in chunk order.
    # Each run's report tells us how many shards it actually used, so keys
    # are rebased as chunks complete and a fault lands on whichever chunk
    # run contains its shard.  (After a resume the skipped chunks' shard
    # counts are unknown, so fault placement is exact only within one
    # process life — fine for chaos injection.)  QRST has no shards: its
    # fault keys are job-global tensor indices.
    shards_seen = 0

    def solve_chunk(keys: list[int]) -> dict | None:
        nonlocal shards_seen, deadline_cut
        sub = batch.subset(np.asarray(keys))
        if spec.method == "qrst":
            from repro.solvers.qrst import qrst_batch

            # QRST factors each tensor whole (dense QR sweeps), so a chunk
            # runs in-process and never asks the breaker; a faulted tensor
            # gets a crash budget at its position in the chunk
            crashes = {i: 1 for i, t in enumerate(keys) if t in spec.faults}
            result = qrst_batch(
                sub, num_starts=V, tol=spec.tol, max_iters=spec.max_iters,
                rng=spec.seed, stop=stopped, guards=True,
                faults=(FaultPlan(seed=spec.seed, crashes=crashes)
                        if crashes else None))
        else:
            executor = spec.executor
            if executor in ("process", "auto") and breaker is not None \
                    and not breaker.allow():
                executor = "thread"
                degrade()
            faults = None
            if spec.faults:
                faults = {k - shards_seen: v for k, v in spec.faults.items()
                          if k >= shards_seen} or None
            options = dict(
                workers=min(spec.workers, len(sub)), starts=starts,
                alpha=spec.alpha, tol=spec.tol, max_iters=spec.max_iters,
                stop=job.stop_event.is_set, deadline=deadline,
                faults=faults,
                adaptive=("geap" if spec.method == "geap" else False))
            # the breaker judges every run that may use the process tier
            judged = breaker is not None and executor != "thread"
            try:
                report = parallel_fleet_solve(sub, executor=executor,
                                              **options)
            except Exception as exc:
                if not judged:
                    raise
                breaker.record_failure()
                # degrade this chunk to the thread tier and carry on
                degrade()
                _log.warning("process tier failed; retrying on threads",
                             fields={"job": job.id, "chunk": keys[0],
                                     "error": str(exc)})
                report = parallel_fleet_solve(sub, executor="thread",
                                              **options)
            else:
                if judged:
                    # a recovered crash (requeues) still signals instability
                    if report.requeues or report.failed_shards:
                        breaker.record_failure()
                    elif report.executor == "process":
                        breaker.record_success()
                    else:
                        # clean run that resolved to the thread tier (e.g.
                        # executor="auto"): the process tier was never
                        # exercised, so a held half-open probe must be
                        # handed back — neither verdict applies, and
                        # keeping the lease would block every later probe
                        breaker.abandon_probe()
                shards_seen += len(report.shard_sizes)
            result = report.result
        if result.stopped:
            if job.stop_event.is_set():
                # drain: the cancelled chunk is partial — discard it; the
                # checkpoint already holds every completed chunk
                return None
            deadline_cut = True
        return {str(t): _row_record(result, i) for i, t in enumerate(keys)}

    try:
        finished = run_chunks(
            ckpt, range(T), spec.chunk, solve_chunk, stop=stopped,
            save=None if ckpt_path is None
            else lambda: write_checkpoint(ckpt_path, ckpt))
    except Exception as exc:
        job.finish("failed", error=str(exc))
        return
    if not finished and job.stop_event.is_set():
        job.finish("interrupted")
        return

    rows = {t: ckpt["starts"][str(t)] for t in range(T)
            if str(t) in ckpt["starts"]}
    with job.lock:
        job.result = _merge_rows(rows, T, V, batch.n)
    if deadline_cut or not finished:
        job.finish("deadline")
    else:
        job.finish("done")
        if keep and ckpt_dir is not None:
            from repro.resilience.retention import prune_checkpoints

            exclude = {Path(ckpt_path)}
            if protect is not None:
                exclude.update(Path(p) for p in protect() if p)
            try:
                prune_checkpoints(ckpt_dir, keep=keep, exclude=exclude)
            except OSError as exc:  # pragma: no cover - fs races
                _log.warning("checkpoint pruning failed",
                             fields={"error": str(exc)})
