"""Shared solver configuration (`SolveConfig`).

Every SS-HOPM driver (:func:`~repro.solvers.sshopm.sshopm`,
:func:`~repro.solvers.adaptive.adaptive_sshopm`,
:func:`~repro.engine.fleet.fleet_solve`,
:func:`~repro.core.solve.find_eigenpairs` and friends) accepts the same
normalized keyword vocabulary — ``alpha=``, ``tol=``, ``max_iters=``,
``rng=`` — plus a ``config=`` bundle carrying any subset of them.

Resolution order for each option: an explicitly passed keyword wins, then
a non-``None`` field of ``config``, then the solver's own default.  Fields
a solver does not use (e.g. ``num_starts`` for single-start ``sshopm``)
are simply ignored, so one ``SolveConfig`` can parameterize a whole
pipeline.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any

__all__ = ["SolveConfig", "resolve_option"]


@dataclass(frozen=True)
class SolveConfig:
    """A reusable bundle of solver options.

    Every field defaults to ``None`` = "don't pin; use the solver's own
    default" — set only what you want to fix across calls::

        cfg = SolveConfig(alpha=2.0, tol=1e-10, max_iters=2000)
        sshopm(A, config=cfg)
        fleet_solve(batch, num_starts=256, config=cfg)

    Fields
    ------
    alpha : SS-HOPM shift (ignored by the adaptive solver, which derives
        its shift per step).
    tol : convergence threshold on ``|lambda_{k+1} - lambda_k|``.
    max_iters : iteration / lockstep-sweep cap.
    num_starts : starting vectors per tensor (multistart drivers).
    scheme : starting-vector scheme (``"random"`` / ``"fibonacci"``).
    kernels : per-tensor kernel variant name or pair (single-start drivers).
    variant : batched kernel variant of the fleet drivers (see
        :func:`repro.kernels.plan.get_plan`; ``"auto"`` races them).
    backend : codegen backend compiling the batched kernels
        (``"numpy"`` / ``"numba"`` / ``"auto"``; see
        :mod:`repro.kernels.codegen`).
    dtype : compute precision of the batched drivers.
    rng : seed or ``numpy.random.Generator``.
    guards : numerical-guard setting — ``True`` or a
        :class:`~repro.resilience.guards.GuardConfig` makes solvers raise a
        structured :class:`~repro.resilience.guards.SolveFailure` on
        NaN/Inf iterates, lambda oscillation, or stalled progress instead
        of silently returning unconverged garbage (default: off).
    retry : a :class:`~repro.resilience.retry.RetryPolicy` for drivers
        that re-run failed starts (the resilient sweep runner).
    executor : fleet sharding tier for
        :func:`~repro.parallel.fleet.parallel_fleet_solve` —
        ``"thread"``, ``"process"`` (zero-copy shared-memory worker
        processes), or ``"auto"`` (communication-cost-model pick; see
        :mod:`repro.parallel.comm`).
    events : path of a per-run JSONL event spool the fleet drivers
        append typed operational events to
        (:mod:`repro.instrument.events`; rendered live by
        ``repro top``).  ``None`` (default) disables event emission.
    deadline : absolute wall-clock time (``time.time()`` scale) at which
        an in-flight fleet run cancels itself cleanly through the
        engine's lane-retirement path (result comes back complete, with
        ``stopped=True``).  The serving layer sets this per request; for
        ad-hoc runs prefer passing ``deadline=`` directly to
        :func:`~repro.parallel.fleet.parallel_fleet_solve`.
    method : solver method name from the :mod:`repro.solvers` registry
        (``"sshopm"`` / ``"geap"`` / ``"qrst"`` / ``"auto"`` / a
        registered third-party name); ``None`` keeps the facade's legacy
        shape routing.  Only :func:`repro.solve` reads it — the
        per-solver entry points *are* a method and ignore the field.
    """

    alpha: float | None = None
    tol: float | None = None
    max_iters: int | None = None
    num_starts: int | None = None
    scheme: str | None = None
    kernels: Any = None
    variant: str | None = None
    backend: str | None = None
    dtype: Any = None
    rng: Any = None
    guards: Any = None
    retry: Any = None
    executor: str | None = None
    events: str | None = None
    deadline: float | None = None
    method: str | None = None

    def replace(self, **changes) -> "SolveConfig":
        """A copy with the given fields changed (dataclass ``replace``)."""
        return replace(self, **changes)


def resolve_option(name: str, explicit, config: SolveConfig | None, default):
    """One option through the resolution order: explicit keyword (not
    ``None``) > ``config`` field (not ``None``) > solver default."""
    if explicit is not None:
        return explicit
    if config is not None:
        value = getattr(config, name, None)
        if value is not None:
            return value
    return default

