"""Per-start retry with shift escalation and jittered backoff.

A start that trips a numerical guard is usually recoverable: SS-HOPM is
guaranteed to converge once the shift exceeds the conservative bound
(:func:`~repro.solvers.sshopm.suggested_shift`), and a fresh starting
vector escapes degenerate basins.  :func:`run_with_retry` re-runs a
failed attempt with an escalated shift and (optionally) a fresh start
vector, up to a bounded attempt budget, sleeping an exponentially
growing, jittered delay between attempts, and records every attempt to
the active metrics registry.

The jitter is drawn from a seeded generator so a retried sweep is still
bit-for-bit reproducible; backoff defaults to 0 seconds because the
in-process failure modes here are deterministic (the knob exists for
callers wrapping flaky external resources).
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from repro.resilience.guards import SolveFailure

__all__ = ["RetryExhausted", "RetryOutcome", "RetryPolicy", "escalate_shift",
           "requeue_or_write_off", "run_with_retry"]


@dataclass(frozen=True)
class RetryPolicy:
    """How to re-run a failed start.

    Fields
    ------
    max_attempts : total attempt budget per start (1 = no retries).
    shift_growth : multiplicative shift escalation per retry; retry ``k``
        runs with ``escalate_shift(alpha, k, ...)``.
    fresh_start : draw a new starting vector per retry (from the
        attempt's own child RNG stream) instead of reusing the failed one.
    backoff_base : first retry delay in seconds (0 disables sleeping).
    backoff_factor : delay multiplier per subsequent retry.
    backoff_jitter : uniform jitter fraction added to each delay
        (``delay * (1 + U[0, jitter])``), decorrelating retry storms.
    retry_on : failure reasons eligible for retry; anything else
        re-raises immediately.
    """

    max_attempts: int = 3
    shift_growth: float = 3.0
    fresh_start: bool = True
    backoff_base: float = 0.0
    backoff_factor: float = 2.0
    backoff_jitter: float = 0.5
    retry_on: tuple[str, ...] = (
        "nonfinite", "collapse", "oscillation", "stall", "injected",
    )

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError(f"max_attempts must be >= 1, got {self.max_attempts}")
        if self.shift_growth < 1.0:
            raise ValueError(f"shift_growth must be >= 1, got {self.shift_growth}")
        if self.backoff_base < 0 or self.backoff_jitter < 0:
            raise ValueError("backoff_base and backoff_jitter must be >= 0")

    def backoff_seconds(self, retry_index: int, rng: np.random.Generator) -> float:
        """Delay before retry ``retry_index`` (0-based), jittered."""
        if self.backoff_base <= 0:
            return 0.0
        base = self.backoff_base * self.backoff_factor**retry_index
        return base * (1.0 + self.backoff_jitter * float(rng.uniform()))


@dataclass
class RetryOutcome:
    """A successful result plus how hard it was to get."""

    result: object
    attempts: int
    failures: list[SolveFailure]


class RetryExhausted(SolveFailure):
    """Every attempt of a start failed; carries the final failure's state
    plus the attempt count and the per-attempt failure list."""

    def __init__(self, last: SolveFailure, attempts: int,
                 failures: list[SolveFailure]):
        super().__init__(
            last.reason,
            f"{last.solver or 'solver'}: {attempts} attempt(s) exhausted; "
            f"last failure: {last.reason}",
            solver=last.solver,
            iteration=last.iteration,
            last_lambda=last.last_lambda,
            last_iterate=last.last_iterate,
            lambda_history=last.lambda_history,
            telemetry=last.telemetry,
            details=last.details,
        )
        self.attempts = attempts
        self.failures = failures


def escalate_shift(alpha: float, attempt: int, safe_shift: float | None = None) -> float:
    """The shift for attempt ``attempt`` (0-based), escalating toward and
    beyond the provably convergent value.

    Attempt 0 uses ``alpha`` unchanged.  Retries jump to at least
    ``safe_shift`` (pass :func:`~repro.solvers.sshopm.suggested_shift` of
    the tensor; defaults to 1.0) and grow by ``3**k`` from there,
    preserving the sign of ``alpha`` (a negative shift seeks minima; its
    escalation stays concave).
    """
    if attempt <= 0:
        return alpha
    sign = -1.0 if alpha < 0 else 1.0
    floor = abs(safe_shift) if safe_shift else 1.0
    magnitude = max(abs(alpha), floor) * 3.0 ** (attempt - 1)
    return sign * magnitude


def _record_attempt(solver: str, reason: str) -> None:
    from repro.instrument.metrics import get_registry

    get_registry().counter(
        "repro_retry_attempts_total",
        "Solver attempts that failed and were retried",
        ("solver", "reason"),
    ).labels(solver=solver, reason=reason).inc()


def requeue_or_write_off(crashes: dict, key, max_requeues: int,
                         crash: str) -> bool:
    """Count a crash of ``key`` (a sweep start or a process-tier shard) in
    the run's ``crashes`` tally: True to requeue it, False to write it off
    past ``max_requeues``.  The run's first crash warns with the outcome."""
    from repro.instrument.metrics import get_registry

    crashes[key] = crashes.get(key, 0) + 1
    requeue = crashes[key] <= max_requeues
    if sum(crashes.values()) == 1:
        warnings.warn(
            f"{crash}; " + ("requeueing — running in degraded mode" if requeue
                            else "requeue budget exhausted"),
            RuntimeWarning, stacklevel=2)
    if requeue:
        get_registry().counter(
            "repro_requeues_total",
            "Crashed sweep tasks rescheduled on a surviving worker",
        ).inc()
    return requeue


def run_with_retry(
    attempt_fn: Callable[[int], object],
    policy: RetryPolicy | None = None,
    *,
    solver: str = "solver",
    rng: np.random.Generator | int | None = None,
    sleep: Callable[[float], None] = time.sleep,
) -> RetryOutcome:
    """Call ``attempt_fn(attempt_index)`` until it succeeds or the budget
    is exhausted.

    ``attempt_fn`` is responsible for applying the escalated shift /
    fresh start vector for its attempt index (see
    :func:`escalate_shift`).  :class:`SolveFailure` triggers a retry when
    its reason is in ``policy.retry_on``; every failed attempt increments
    ``repro_retry_attempts_total{solver=,reason=}``.  On exhaustion a
    :class:`RetryExhausted` (itself a :class:`SolveFailure`) is raised.
    """
    policy = policy or RetryPolicy()
    jitter_rng = rng if isinstance(rng, np.random.Generator) else np.random.default_rng(rng)
    failures: list[SolveFailure] = []
    for attempt in range(policy.max_attempts):
        try:
            result = attempt_fn(attempt)
        except SolveFailure as failure:
            failures.append(failure)
            _record_attempt(solver or failure.solver, failure.reason)
            last = attempt == policy.max_attempts - 1
            if last or failure.reason not in policy.retry_on:
                raise RetryExhausted(failure, attempt + 1, failures) from failure
            delay = policy.backoff_seconds(attempt, jitter_rng)
            if delay > 0:
                sleep(delay)
        else:
            return RetryOutcome(result=result, attempts=attempt + 1,
                                failures=failures)
    raise AssertionError("unreachable")  # pragma: no cover
