"""Resilience layer: guards, retry, checkpoint/resume, fault injection.

Long sweeps fail in boring ways — a NaN from a too-small shift, a worker
that dies, a corrupted input file, a job killed at hour three.  This
package turns each of those into a structured, recoverable event:

* :mod:`~repro.resilience.guards` — per-iteration numerical watchdogs
  raising :class:`SolveFailure` instead of returning silent garbage;
* :mod:`~repro.resilience.retry` — per-start retry with shift
  escalation, seeded jittered backoff and the requeue/write-off policy;
* :mod:`~repro.resilience.checkpoint` — schema-versioned atomic
  checkpoints and the checkpointed-chunk loop, for bit-for-bit resume;
* :mod:`~repro.resilience.retention` — newest-first checkpoint pruning
  (``repro ckpt gc``; ``repro serve --keep N``) so resume loops don't
  grow the checkpoint directory unboundedly;
* :mod:`~repro.resilience.runner` — :func:`resilient_multistart`, the
  durable sweep driver tying the above together on the fleet engine;
* :mod:`~repro.resilience.faults` — deterministic fault injection for
  the chaos suite (``tests/test_chaos.py``).

See ``docs/resilience.md`` for the operator-facing guide.
"""

from repro.resilience.checkpoint import (
    CKPT_SCHEMA,
    check_resumable,
    new_checkpoint,
    read_checkpoint,
    tensor_fingerprint,
    write_checkpoint,
)
from repro.resilience.faults import (
    FaultPlan,
    InjectedFault,
    InjectedWorkerCrash,
    corrupt_tensor,
    nan_injecting_pair,
)
from repro.resilience.guards import (
    GuardConfig,
    IterationGuard,
    LaneGuard,
    SolveFailure,
    record_solve_failure,
    resolve_guards,
)
from repro.resilience.retention import list_checkpoints, prune_checkpoints
from repro.resilience.retry import (
    RetryExhausted,
    RetryOutcome,
    RetryPolicy,
    escalate_shift,
    run_with_retry,
)
# Runner symbols are re-exported lazily: the runner imports the fleet
# engine and the solvers, which themselves import repro.resilience.guards —
# an eager import here would close that cycle while they are still
# half-initialized.
_RUNNER_EXPORTS = ("ResilientSweepResult", "StartReport", "resilient_multistart")


def __getattr__(name):
    if name in _RUNNER_EXPORTS:
        from repro.resilience import runner

        return getattr(runner, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "CKPT_SCHEMA",
    "FaultPlan",
    "GuardConfig",
    "InjectedFault",
    "InjectedWorkerCrash",
    "IterationGuard",
    "LaneGuard",
    "ResilientSweepResult",
    "RetryExhausted",
    "RetryOutcome",
    "RetryPolicy",
    "SolveFailure",
    "StartReport",
    "check_resumable",
    "corrupt_tensor",
    "escalate_shift",
    "list_checkpoints",
    "nan_injecting_pair",
    "new_checkpoint",
    "prune_checkpoints",
    "read_checkpoint",
    "record_solve_failure",
    "resilient_multistart",
    "resolve_guards",
    "run_with_retry",
    "tensor_fingerprint",
    "write_checkpoint",
]
