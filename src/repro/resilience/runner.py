"""Fault-tolerant multistart sweeps with checkpoint/resume, on the fleet.

:func:`resilient_multistart` is the *durable* way to sweep one tensor.
Its starts are solved in chunks of ``checkpoint_every``: each chunk is one
:func:`~repro.engine.fleet.fleet_solve` call, followed by retry passes
that re-run the chunk's failed or unconverged lanes at an escalated shift
(Kolda & Mayo's shift escalation toward the convergent bound, arXiv
1007.1267), so that

* attempt ``a`` of start ``s`` starts from the vector drawn from
  ``spawn_rng(seed, s, a)``, runs at
  ``escalate_shift(alpha, a, suggested_shift(tensor))``, and gets an
  iteration budget scaled with the shift (:mod:`repro.resilience.retry`);
* a start whose admission crashes (or whose fleet call raises) is
  requeued or written off by the process tier's policy
  (:func:`~repro.resilience.retry.requeue_or_write_off`);
* an unrecoverable start is *reported* (``failed_starts``) instead of
  poisoning the sweep;
* the chunks run through :func:`~repro.resilience.checkpoint.run_chunks`,
  which writes a checkpoint after every chunk, and a resumed sweep
  reproduces the uninterrupted one bit-for-bit.

Determinism across chunk sizes and resume points holds because fleet
lanes never interact: a lane's result depends only on its start vector,
shift and budget, never on which other lanes shared its fleet call.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SolveConfig, resolve_option
from repro.core.eigenpairs import Eigenpair, dedupe_eigenpairs
from repro.engine.fleet import fleet_solve
from repro.instrument import span as _span
from repro.instrument.log import get_logger
from repro.instrument.metrics import get_registry
from repro.kernels.plan import get_plan
from repro.resilience.checkpoint import (
    check_resumable,
    new_checkpoint,
    read_checkpoint,
    run_chunks,
    tensor_fingerprint,
    write_checkpoint,
)
from repro.resilience.faults import FaultPlan
from repro.resilience.retry import (
    RetryPolicy,
    _record_attempt,
    escalate_shift,
    requeue_or_write_off,
)
from repro.solvers.sshopm import suggested_shift
from repro.symtensor.storage import SymmetricTensor
from repro.util.rng import random_unit_vector, spawn_rng

__all__ = ["ResilientSweepResult", "StartReport", "resilient_multistart"]

_log = get_logger("resilience.runner")


@dataclass
class StartReport:
    """Outcome of one starting vector, successful or not."""

    index: int
    eigenvalue: float
    eigenvector: np.ndarray
    converged: bool
    iterations: int
    residual: float
    attempts: int
    alpha: float
    requeues: int = 0
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None

    def to_doc(self) -> dict:
        """JSON-able checkpoint record (floats round-trip exactly)."""
        return {
            "eigenvalue": float(self.eigenvalue),
            "eigenvector": [float(v) for v in np.asarray(self.eigenvector)],
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "residual": float(self.residual),
            "attempts": int(self.attempts),
            "alpha": float(self.alpha),
            "requeues": int(self.requeues),
            "error": self.error,
        }

    @classmethod
    def from_doc(cls, index: int, doc: dict) -> "StartReport":
        return cls(
            index=index,
            eigenvalue=float(doc["eigenvalue"]),
            eigenvector=np.asarray(doc["eigenvector"], dtype=np.float64),
            converged=bool(doc["converged"]),
            iterations=int(doc["iterations"]),
            residual=float(doc["residual"]),
            attempts=int(doc["attempts"]),
            alpha=float(doc["alpha"]),
            requeues=int(doc.get("requeues", 0)),
            error=doc.get("error"),
        )


@dataclass
class ResilientSweepResult:
    """A completed (possibly partially failed) resilient sweep."""

    tensor: SymmetricTensor
    num_starts: int
    reports: list[StartReport] = field(default_factory=list)
    resumed: int = 0
    requeues: int = 0
    checkpoint_path: str | None = None

    @property
    def eigenvalues(self) -> np.ndarray:
        return np.array([r.eigenvalue for r in self.reports])

    @property
    def eigenvectors(self) -> np.ndarray:
        return np.stack([np.asarray(r.eigenvector) for r in self.reports])

    @property
    def converged(self) -> np.ndarray:
        return np.array([r.converged for r in self.reports])

    @property
    def failed_starts(self) -> list[int]:
        return [r.index for r in self.reports if not r.ok]

    @property
    def retried_starts(self) -> list[int]:
        return [r.index for r in self.reports if r.attempts > 1]

    @property
    def total_attempts(self) -> int:
        return sum(max(r.attempts, 1) for r in self.reports)

    def eigenpairs(self, lambda_tol: float = 1e-6, angle_tol: float = 1e-4,
                   classify: bool = True) -> list[Eigenpair]:
        """The recoverable spectrum: converged starts deduplicated into
        distinct eigenpairs (failed starts contribute nothing)."""
        keep = self.converged & np.array([r.ok for r in self.reports])
        return dedupe_eigenpairs(
            self.eigenvalues, self.eigenvectors, self.tensor.m,
            tensor=self.tensor, lambda_tol=lambda_tol, angle_tol=angle_tol,
            classify=classify, converged_mask=keep,
        )

    def summary(self) -> str:
        """Human-readable sweep health report (printed by the CLI)."""
        failed = self.failed_starts
        lines = [
            f"starts: {self.num_starts}  converged: {int(self.converged.sum())}"
            f"  failed: {len(failed)}  retried: {len(self.retried_starts)}"
            f"  requeued tasks: {self.requeues}  resumed from checkpoint: "
            f"{self.resumed}",
        ]
        if failed:
            reasons = {}
            for r in self.reports:
                if not r.ok:
                    reasons.setdefault(r.error, []).append(r.index)
            for reason, indices in sorted(reasons.items()):
                shown = ", ".join(str(i) for i in indices[:8])
                more = "" if len(indices) <= 8 else f", … ({len(indices)} total)"
                lines.append(f"  failed [{reason}]: starts {shown}{more}")
        return "\n".join(lines)


def resilient_multistart(
    tensor: SymmetricTensor,
    num_starts: int | None = None,
    alpha: float | None = None,
    tol: float | None = None,
    max_iters: int | None = None,
    seed: int = 0,
    retry: RetryPolicy | None = None,
    checkpoint: str | None = None,
    checkpoint_every: int = 8,
    resume: bool = False,
    max_requeues: int = 2,
    faults: FaultPlan | None = None,
    config: SolveConfig | None = None,
    checkpoint_source: dict | None = None,
) -> ResilientSweepResult:
    """Run ``num_starts`` SS-HOPM starts on the fleet engine, surviving
    partial failure.

    Parameters
    ----------
    tensor : the symmetric tensor to sweep.
    num_starts : starting vectors (default 64).
    alpha, tol, max_iters : SS-HOPM options of each start's first attempt
        (defaults 0.0 / 1e-12 / 500; ``config`` supplies any not passed).
    seed : root seed; attempt ``a`` of start ``s`` starts from
        ``spawn_rng(seed, s, a)``, making results independent of
        ``checkpoint_every`` and of resume points.
    retry : :class:`~repro.resilience.retry.RetryPolicy` (default: 3
        attempts, shift escalation).  A lane that died numerically
        (``"nonfinite"``/``"collapse"``) or ran out of iterations short of
        ``tol`` (``"stall"``) is re-run at the next attempt when that
        reason is in ``retry_on``, and otherwise reported with it as its
        ``error``; ``fresh_start=False`` reuses attempt 0's vector.
        Retry passes are deterministic recomputation and never sleep, so
        the policy's backoff fields do not apply here.
    checkpoint : path for ``repro-ckpt/1`` checkpoints, written after
        every chunk (``None`` disables checkpointing).
    checkpoint_every : starts per fleet chunk (and per checkpoint).
    resume : load ``checkpoint`` first and skip its completed starts;
        the checkpoint must match this sweep's tensor and parameters.
    max_requeues : how many times a crashed start is requeued before it
        is reported as failed.
    faults : optional :class:`~repro.resilience.faults.FaultPlan` (chaos
        testing only).
    checkpoint_source : free-form metadata stored in the checkpoint so
        ``repro solve --resume`` can rebuild the tensor.

    Returns a :class:`ResilientSweepResult`; it never raises for
    individual start failures (see ``failed_starts`` / ``summary()``),
    only for misuse (bad arguments, unresumable checkpoint).
    """
    num_starts = resolve_option("num_starts", num_starts, config, 64)
    alpha = resolve_option("alpha", alpha, config, 0.0)
    tol = resolve_option("tol", tol, config, 1e-12)
    max_iters = resolve_option("max_iters", max_iters, config, 500)
    retry = resolve_option("retry", retry, config, None) or RetryPolicy()
    if num_starts < 1:
        raise ValueError(f"num_starts must be >= 1, got {num_starts}")
    if checkpoint_every < 1:
        raise ValueError(f"checkpoint_every must be >= 1, got {checkpoint_every}")
    if resume and checkpoint is None:
        raise ValueError("resume=True requires a checkpoint path")

    n = tensor.n
    plan = get_plan(tensor.m, n, "vectorized")
    safe_shift = suggested_shift(tensor)
    fingerprint = tensor_fingerprint(tensor)

    if resume:
        state = read_checkpoint(checkpoint)
        check_resumable(state, fingerprint=fingerprint, num_starts=num_starts,
                        seed=seed, alpha=alpha, tol=tol, max_iters=max_iters)
    else:
        state = new_checkpoint(
            fingerprint=fingerprint, num_starts=num_starts, seed=seed,
            alpha=alpha, tol=tol, max_iters=max_iters,
            source=checkpoint_source)
    resumed = sum(str(s) in state["starts"] for s in range(num_starts))

    registry = get_registry()
    starts_failed = registry.counter(
        "repro_starts_failed_total",
        "Sweep starts whose retry budget was exhausted")
    requeues: dict[int, int] = {}  # crashes per start

    def fleet_pass(lanes: list[int], attempt: int) -> dict[int, tuple]:
        """One fleet run of ``lanes`` at attempt ``attempt``.  Lanes with a
        fault-injected tensor view or kernel plan run as their own fleet;
        lanes never interact, so the grouping changes no result."""
        alpha_a = escalate_shift(alpha, attempt, safe_shift)
        # SS-HOPM's convergence rate degrades ~linearly in |alpha| (the
        # paper's shift-vs-speed tradeoff), so an escalated retry gets a
        # proportionally larger iteration budget
        iters_a = max_iters if attempt == 0 else int(
            max_iters * retry.shift_growth ** (attempt - 1) * 2)
        key = attempt if retry.fresh_start else 0
        x0 = np.stack([random_unit_vector(n, rng=spawn_rng(seed, s, key))
                       for s in lanes])
        groups: dict[tuple, tuple] = {}
        for i, s in enumerate(lanes):
            view, plan_a = tensor, plan
            if faults is not None:
                view = faults.tensor_for(s, tensor)
                plan_a = faults.wrap_plan(s, attempt, plan)
            groups.setdefault((id(view), id(plan_a)), (view, plan_a, []))[2].append(i)
        out = {}
        for view, plan_a, rows in groups.values():
            res = fleet_solve(view, starts=x0[rows], alpha=alpha_a, tol=tol,
                              max_iters=iters_a, plan=plan_a, guards=False,
                              telemetry=False)
            lam, x = res.eigenvalues[0], res.eigenvectors[0]
            residual = np.linalg.norm(
                plan.ax_m1(view.values[None, :], x) - lam[:, None] * x, axis=-1)
            for j, i in enumerate(rows):
                out[lanes[i]] = (lam[j], x[j], bool(res.converged[0, j]),
                                 bool(res.failed[0, j]), int(res.iterations[0, j]),
                                 residual[j], alpha_a)
        return out

    def solve_lanes(lanes: list[int]) -> dict[int, StartReport]:
        """Attempt 0 plus the retry passes for ``lanes``."""
        reports = {}
        for attempt in range(retry.max_attempts):
            if not lanes:
                break
            last = attempt == retry.max_attempts - 1
            again = []
            for s, (lam, x, conv, dead, iters, resid, alpha_a) in fleet_pass(
                    lanes, attempt).items():
                reason = None
                if dead:
                    reason = "nonfinite" if not np.isfinite(lam) else "collapse"
                elif not conv:
                    # out of budget short of tol: the fleet keeps no lambda
                    # history, so stalls and oscillations both land here
                    reason = "stall"
                if reason is not None:
                    _record_attempt("fleet_solve", reason)
                    if not last and reason in retry.retry_on:
                        again.append(s)
                        continue
                    starts_failed.inc()
                elif attempt > 0:
                    registry.counter(
                        "repro_starts_recovered_total",
                        "Sweep starts that succeeded only after retries",
                    ).inc()
                reports[s] = StartReport(
                    index=s, eigenvalue=float(lam), eigenvector=x,
                    converged=conv, iterations=iters,
                    residual=float("nan") if dead else float(resid),
                    attempts=attempt + 1, alpha=alpha_a,
                    requeues=requeues.get(s, 0), error=reason)
            lanes = again
        return reports

    def crashed(s: int, exc: BaseException, reports: dict) -> bool:
        """Count a crash of start ``s``; True when it may be requeued,
        else its crash report lands in ``reports``."""
        error = f"{type(exc).__name__}: {exc}"
        requeue = requeue_or_write_off(requeues, s, max_requeues,
                                       f"sweep start {s} crashed ({error})")
        _log.warning("sweep start crashed",
                     fields={"start": s, "attempt": requeues[s],
                             "error": error})
        if requeue:
            return True
        starts_failed.inc()
        reports[s] = StartReport(
            index=s, eigenvalue=float("nan"), eigenvector=np.zeros(n),
            converged=False, iterations=0, residual=float("nan"), attempts=0,
            alpha=float("nan"), requeues=requeues[s] - 1,
            error=f"crash: {error}")
        return False

    def run_chunk(chunk: list[int]) -> dict[str, dict]:
        reports: dict[int, StartReport] = {}
        todo = chunk
        while todo:
            admitted, again = [], []
            for s in todo:
                try:
                    if faults is not None:
                        faults.on_task_start(s)
                except Exception as exc:
                    if crashed(s, exc, reports):
                        again.append(s)
                else:
                    admitted.append(s)
            try:
                reports.update(solve_lanes(admitted))
            except Exception as exc:
                again += [s for s in admitted if crashed(s, exc, reports)]
            todo = again
        return {str(s): report.to_doc() for s, report in reports.items()}

    with _span("resilient_multistart"):
        run_chunks(state, range(num_starts), checkpoint_every, run_chunk,
                   save=None if checkpoint is None
                   else lambda: write_checkpoint(checkpoint, state))

    result = ResilientSweepResult(
        tensor=tensor,
        num_starts=num_starts,
        reports=[StartReport.from_doc(s, state["starts"][str(s)])
                 for s in range(num_starts)],
        resumed=resumed,
        requeues=sum(min(c, max_requeues) for c in requeues.values()),
        checkpoint_path=checkpoint,
    )
    registry.gauge(
        "repro_sweep_failed_starts",
        "Failed starts in the most recent resilient sweep",
    ).set(len(result.failed_starts))
    return result
