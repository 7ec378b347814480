"""Merge the chunks that concurrent serve jobs have ready into one fleet.

SS-HOPM lanes never interact, so a fleet solve over several jobs'
chunks gives every tensor the bits it gets alone: the merged call
carries each job's own starting set as per-tensor ``(T, V, n)`` starts
and each job's stop event and deadline as its slice of a per-tensor
stop mask.  Under concurrent load that replaces several small fleets
contending for one interpreter with one larger fleet per round — the
paper's Figure 5 shape, where throughput rises with tensors per launch
until the device fills.

:class:`ChunkBatcher` is the meeting point, driven by the job runners
through :func:`repro.serve.jobs.run_job` and synchronised by one
condition variable (no timers):

* a job *joins* when it submits its first chunk (:meth:`ChunkBatcher.solve`)
  and *leaves* (:meth:`ChunkBatcher.leave`) once it has no chunk left —
  or when its runner raises, so no job waits on a dead one;
* a *round* starts when every member has a chunk ready; the runner
  whose wait completes the round solves it in its own thread, one fleet
  per merge key, and every job gets back its own rows as a
  :class:`~repro.core.results.FleetResult`;
* chunks merge when their calls differ only in tensors, starts and
  stop — the same ``(m, n)``, start count, shift, tolerance, sweep cap
  and method (the ``adaptive`` mode); a chunk alone under its key makes
  exactly the call its job would make without the batcher;
* a merged solve that raises is re-run one job at a time, so no job
  fails because of another.

Every solve goes through :func:`repro.parallel.fleet.parallel_fleet_solve`,
looked up at call time, so tracers that wrap it see every fleet run.
"""

from __future__ import annotations

import dataclasses
import threading

import numpy as np

from repro.core.config import deadline_stop
from repro.core.results import FleetResult
from repro.instrument.log import get_logger
from repro.symtensor.storage import SymmetricTensorBatch

__all__ = ["ChunkBatcher"]

_log = get_logger("serve.batcher")

#: the per-job parts of a chunk's ``parallel_fleet_solve`` call; every
#: other keyword must match for two chunks to share a fleet
_PER_JOB = ("starts", "stop", "deadline")


class _Chunk:
    """One job's submitted chunk and, once its round ran, the outcome."""

    def __init__(self, tensors: SymmetricTensorBatch, options: dict):
        self.tensors = tensors
        self.options = options
        # repr, not the value: a shared shift of 0.0 would report a
        # job's -0.0 as 0.0
        self.key = (tensors.m, tensors.n, np.shape(options["starts"]),
                    *sorted((k, repr(v)) for k, v in options.items()
                            if k not in _PER_JOB))
        self.outcome: FleetResult | BaseException | None = None
        self._stop = deadline_stop(options.get("stop"),
                                   options.get("deadline"))

    def stopped(self) -> bool:
        """The job's own stop: its stop hook fired or its deadline passed."""
        return self._stop is not None and bool(self._stop())

    def solve_alone(self) -> None:
        from repro.parallel import fleet as pfleet

        try:
            self.outcome = pfleet.parallel_fleet_solve(
                self.tensors, **self.options).result
        except Exception as exc:
            self.outcome = exc


class ChunkBatcher:
    """Round-based merging of concurrent jobs' fleet chunks (see module
    doc).  One per server; a member is any hashable job handle."""

    def __init__(self):
        self._cond = threading.Condition()
        self._members: set = set()
        self._ready: dict = {}

    def solve(self, member, tensors: SymmetricTensorBatch,
              options: dict) -> FleetResult:
        """Solve one chunk of ``member``'s job, merged with the chunk every
        other member has ready; blocks until the chunk's round ran.

        ``options`` are the keywords of the job's own thread-tier
        ``parallel_fleet_solve(tensors, **options)`` call,
        ``starts`` of shape ``(V, n)`` included.  Returns the job's
        ``FleetResult`` (``stopped`` when the job's own stop or deadline
        retired any of its live lanes) or raises what its solve raised.
        """
        chunk = _Chunk(tensors, options)
        with self._cond:
            self._members.add(member)
            self._ready[member] = chunk
            self._cond.notify_all()
            while (chunk.outcome is None
                   and not self._members <= self._ready.keys()):
                self._cond.wait()
            round_ = []
            if chunk.outcome is None:
                # every member has a chunk ready: this runner solves them
                round_ = list(self._ready.values())
                self._ready.clear()
        if round_:
            self._run(round_)
        if isinstance(chunk.outcome, BaseException):
            raise chunk.outcome
        return chunk.outcome

    def leave(self, member) -> None:
        """``member`` submits no more chunks; a round waiting only on it
        may start."""
        with self._cond:
            self._members.discard(member)
            self._cond.notify_all()

    def _run(self, chunks: list[_Chunk]) -> None:
        try:
            groups: dict = {}
            for chunk in chunks:
                groups.setdefault(chunk.key, []).append(chunk)
            for group in groups.values():
                if len(group) == 1 or not _solve_merged(group):
                    for chunk in group:
                        chunk.solve_alone()
        finally:
            with self._cond:
                for chunk in chunks:
                    if chunk.outcome is None:  # pragma: no cover - a bug
                        chunk.outcome = RuntimeError(
                            "chunk round ended without an outcome")
                self._cond.notify_all()


def _solve_merged(group: list[_Chunk]) -> bool:
    """One fleet over ``group``'s chunks; sets each chunk's outcome to its
    own rows.  False (outcomes untouched) when the merged solve raised."""
    from repro.parallel import fleet as pfleet

    sizes = [len(c.tensors) for c in group]
    first = group[0]
    tensors = SymmetricTensorBatch(
        np.concatenate([c.tensors.values for c in group]),
        first.tensors.m, first.tensors.n)
    starts = np.concatenate([
        np.broadcast_to(c.options["starts"], (k, *np.shape(c.options["starts"])))
        for c, k in zip(group, sizes)])

    def stop() -> np.ndarray | bool:
        # polled every sweep: a (T,) mask only once some job's stop fired
        fired = [c.stopped() for c in group]
        return np.repeat(fired, sizes) if any(fired) else False

    try:
        res = pfleet.parallel_fleet_solve(
            tensors, **{**first.options, "starts": starts, "stop": stop,
                        "deadline": None}).result
    except Exception as exc:
        _log.warning("merged chunk solve failed; solving its jobs one at "
                     "a time", fields={"jobs": len(group), "error": str(exc)})
        return False
    cut = res.stopped_tensors
    lo = 0
    for chunk, k in zip(group, sizes):
        rows = slice(lo, lo + k)
        lo += k
        chunk.outcome = dataclasses.replace(
            res, eigenvalues=res.eigenvalues[rows],
            eigenvectors=res.eigenvectors[rows],
            converged=res.converged[rows], iterations=res.iterations[rows],
            failed=res.failed[rows],
            shifts=None if res.shifts is None else res.shifts[rows],
            telemetry=None, tensors=chunk.tensors,
            stopped=cut is not None and bool(cut[rows].any()),
            stopped_tensors=None)
    return True
