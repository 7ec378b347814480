"""Numerical guards: structured failure instead of silent garbage.

SS-HOPM's convergence guarantee (Kolda & Mayo) holds only for a
sufficiently large shift; with a bad ``alpha`` or an ill-conditioned
tensor the iteration can diverge to NaN, enter a period-2 lambda
oscillation (the classic too-small-shift failure), or stall without
making progress.  The plain solvers historically froze or returned the
last iterate in those cases — indistinguishable from success without
inspecting ``converged`` and the history.

This module turns those degradations into a structured
:class:`SolveFailure` carrying the failure *reason*, the last-good
iterate, the full lambda history, and the run's convergence telemetry
stream, so the retry layer (:mod:`repro.resilience.retry`) can decide
what to do and the operator can see what happened.

Guards are **opt-in**: pass ``guards=True`` (or a :class:`GuardConfig`)
to ``sshopm`` / ``adaptive_sshopm`` / ``fleet_solve``, or set the
``guards`` field of :class:`~repro.core.config.SolveConfig`.  The
resilient sweep driver (:mod:`repro.resilience.runner`) always treats a
lane that dies numerically as a failed attempt to retry.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

__all__ = [
    "GuardConfig",
    "IterationGuard",
    "LaneGuard",
    "SolveFailure",
    "record_solve_failure",
    "resolve_guards",
]


class SolveFailure(RuntimeError):
    """A solver run failed a numerical guard.

    Attributes
    ----------
    reason : short machine-readable tag — ``"nonfinite"`` (NaN/Inf in the
        iterate or lambda), ``"collapse"`` (update collapsed to the zero
        vector), ``"oscillation"`` (lambda locked into a sign-alternating
        cycle), ``"stall"`` (no progress over the stall window), or
        ``"injected"`` (a fault-injection harness payload).
    solver : name of the solver that raised.
    iteration : iteration index at which the guard fired.
    last_lambda : last *finite* lambda seen (NaN if none).
    last_iterate : last finite unit iterate, or ``None``.
    lambda_history : the lambda sequence up to the failure.
    telemetry : the run's convergence telemetry stream when one was being
        recorded (attached by the solver before the exception propagates).
    details : free-form extra context.
    """

    def __init__(
        self,
        reason: str,
        message: str = "",
        *,
        solver: str = "",
        iteration: int = 0,
        last_lambda: float = float("nan"),
        last_iterate: np.ndarray | None = None,
        lambda_history: list[float] | None = None,
        telemetry=None,
        details: dict | None = None,
    ):
        super().__init__(message or f"{solver or 'solver'} failed: {reason}")
        self.reason = reason
        self.solver = solver
        self.iteration = iteration
        self.last_lambda = last_lambda
        self.last_iterate = last_iterate
        self.lambda_history = lambda_history or []
        self.telemetry = telemetry
        self.details = details or {}


@dataclass(frozen=True)
class GuardConfig:
    """Tuning knobs for the per-iteration guards.

    Fields
    ------
    check_finite : raise ``"nonfinite"`` on NaN/Inf lambda or iterate
        (and ``"collapse"`` on a zero update) instead of freezing.
    oscillation_window : number of consecutive sign-alternating lambda
        deltas (each above tolerance) that counts as an oscillation;
        0 disables the check.  Catches the period-2 cycles of a too-small
        shift within ~window iterations instead of burning the whole
        iteration budget.
    stall_window : the guard compares the best ``|delta lambda|`` of the
        last ``stall_window`` iterations against the best of the window
        before it; no improvement while still above tolerance means the
        run is stuck.  0 disables the check.  Kept conservative (double
        window warm-up) because large shifts legitimately converge slowly
        but monotonically.
    stall_slack : relative improvement required between windows
        (``best_recent < stall_slack * best_previous``); 1.0 demands any
        improvement at all.
    """

    check_finite: bool = True
    oscillation_window: int = 8
    stall_window: int = 50
    stall_slack: float = 1.0


def resolve_guards(guards) -> GuardConfig | None:
    """Normalize a ``guards=`` argument: ``True`` → default config,
    ``False``/``None`` → disabled, a :class:`GuardConfig` → itself."""
    if guards is None or guards is False:
        return None
    if guards is True:
        return GuardConfig()
    if isinstance(guards, GuardConfig):
        return guards
    raise TypeError(
        f"guards must be a bool or GuardConfig, got {type(guards).__name__}"
    )


def record_solve_failure(solver: str, reason: str) -> None:
    """Count one guard firing on the active metrics registry."""
    from repro.instrument.metrics import get_registry

    get_registry().counter(
        "repro_solver_failures_total",
        "Solver runs aborted by a numerical guard",
        ("solver", "reason"),
    ).labels(solver=solver, reason=reason).inc()


class IterationGuard:
    """Per-iteration watchdog for a single-vector power iteration.

    Call :meth:`check` once per iteration with the new lambda and iterate;
    it raises :class:`SolveFailure` when a guard trips.  The guard keeps
    the last finite (lambda, x) so the failure always carries a usable
    last-good iterate.
    """

    def __init__(self, config: GuardConfig, *, solver: str, tol: float):
        self.config = config
        self.solver = solver
        self.tol = float(tol)
        self._last_lambda = float("nan")
        self._last_x: np.ndarray | None = None
        window = max(config.oscillation_window, 2 * config.stall_window, 2)
        self._deltas: deque[float] = deque(maxlen=window)
        self.history: list[float] = []

    # -- bookkeeping --------------------------------------------------------

    def note_start(self, lam: float, x: np.ndarray) -> None:
        """Record the value at the starting vector (iteration 0)."""
        if np.isfinite(lam):
            self._last_lambda = float(lam)
            self._last_x = np.array(x, copy=True)
        self.history.append(float(lam))

    def _fail(self, reason: str, iteration: int, message: str,
              details: dict | None = None) -> SolveFailure:
        record_solve_failure(self.solver, reason)
        return SolveFailure(
            reason,
            f"{self.solver}: {message} (iteration {iteration})",
            solver=self.solver,
            iteration=iteration,
            last_lambda=self._last_lambda,
            last_iterate=self._last_x,
            lambda_history=list(self.history),
            details=details,
        )

    def check_update(self, iteration: int, norm: float) -> None:
        """Guard the raw update norm before renormalization."""
        if not self.config.check_finite:
            return
        if norm == 0.0:
            raise self._fail("collapse", iteration,
                             "update collapsed to the zero vector")
        if not np.isfinite(norm):
            raise self._fail("nonfinite", iteration,
                             f"update norm is {norm!r}")

    def check(self, iteration: int, lam: float, x: np.ndarray) -> None:
        """Guard the post-update (lambda, x); call once per iteration."""
        cfg = self.config
        prev = self._last_lambda
        self.history.append(float(lam))
        if cfg.check_finite and not (
            np.isfinite(lam) and np.all(np.isfinite(x))
        ):
            raise self._fail("nonfinite", iteration,
                             f"lambda={lam!r} or iterate non-finite")
        delta = lam - prev if np.isfinite(prev) else float("nan")
        self._last_lambda = float(lam)
        self._last_x = np.array(x, copy=True)
        if not np.isfinite(delta):
            return
        self._deltas.append(float(delta))
        scale = max(1.0, abs(lam))
        self._check_oscillation(iteration, scale)
        self._check_stall(iteration, scale)

    # -- individual guards --------------------------------------------------

    def _check_oscillation(self, iteration: int, scale: float) -> None:
        w = self.config.oscillation_window
        if w < 2 or len(self._deltas) < w:
            return
        recent = list(self._deltas)[-w:]
        floor = max(self.tol, 1e-14 * scale)
        if any(abs(d) <= floor for d in recent):
            return
        signs = [d > 0 for d in recent]
        if all(a != b for a, b in zip(signs, signs[1:])):
            raise self._fail(
                "oscillation", iteration,
                "lambda is sign-alternating (shift too small?)",
                details={"window": w, "recent_deltas": recent},
            )

    def _check_stall(self, iteration: int, scale: float) -> None:
        w = self.config.stall_window
        if w < 1 or len(self._deltas) < 2 * w:
            return
        deltas = list(self._deltas)
        best_prev = min(abs(d) for d in deltas[-2 * w:-w])
        best_recent = min(abs(d) for d in deltas[-w:])
        floor = max(self.tol, 1e-14 * scale)
        if best_recent <= floor:
            return
        if best_recent >= self.config.stall_slack * best_prev:
            raise self._fail(
                "stall", iteration,
                f"no |delta lambda| progress over {w} iterations",
                details={"window": w, "best_previous": best_prev,
                         "best_recent": best_recent},
            )


class LaneGuard:
    """Per-lane watchdog for the fleet engine's vectorized sweep.

    The fleet invariant is the opposite of the single-vector guard's:
    one lane dying numerically (NaN/Inf or a collapsed update) must
    *never* poison the batch — the lane is retired, counted, and the
    sweep continues.  The guard therefore only raises when nothing is
    left to save: every lane died, so the whole solve produced no usable
    output.

    Lane deaths are always tracked and counted on the
    ``repro_fleet_lanes_retired_total{reason="failed"}`` metric; the
    ``config`` (a :class:`GuardConfig` or ``None``) only controls whether
    total collapse raises a :class:`SolveFailure`.
    """

    def __init__(self, config: GuardConfig | None, *, solver: str = "fleet_solve",
                 total_lanes: int = 0):
        self.config = config
        self.solver = solver
        self.total_lanes = int(total_lanes)
        self.dead_lanes = 0
        self.converged_lanes = 0

    def retire(self, sweep: int, converged: int, failed: int) -> None:
        """Account lanes leaving the active set this sweep."""
        from repro.instrument.metrics import observe_fleet_retired

        self.converged_lanes += int(converged)
        self.dead_lanes += int(failed)
        observe_fleet_retired("converged", int(converged))
        observe_fleet_retired("failed", int(failed))

    def check_collapse(self, sweep: int, *, telemetry=None,
                       details: dict | None = None) -> None:
        """Raise when every lane died numerically (nothing recoverable)."""
        if self.config is None or not self.config.check_finite:
            return
        if self.total_lanes and self.dead_lanes == self.total_lanes:
            record_solve_failure(self.solver, "collapse")
            raise SolveFailure(
                "collapse",
                f"{self.solver}: all {self.total_lanes} lanes died "
                "numerically",
                solver=self.solver,
                iteration=sweep,
                telemetry=telemetry,
                details=details or {"lanes": self.total_lanes},
            )
