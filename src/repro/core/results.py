"""Normalized result types: one protocol across every solver.

Every solver result — :class:`~repro.solvers.sshopm.SSHOPMResult` (one
tensor, one start) and :class:`FleetResult` (every multistart solve, from
the fleet engine) — satisfies :class:`ResultProtocol`: it exposes
``converged``, ``telemetry``, and an ``eigenpairs()`` method producing
deduplicated :class:`~repro.core.eigenpairs.Eigenpair` objects.  Code
that consumes "whatever the solver returned" (the :func:`repro.solve`
facade, the CLI, reports) programs against the protocol instead of
switching on concrete types.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Protocol, runtime_checkable

import numpy as np

from repro.core.eigenpairs import Eigenpair, dedupe_eigenpairs

__all__ = ["FleetResult", "ResultProtocol"]


@runtime_checkable
class ResultProtocol(Protocol):
    """What every solver result guarantees.

    ``converged`` is a bool (single-start) or boolean array (one flag per
    lane); ``telemetry`` is the run's
    :class:`~repro.instrument.telemetry.ConvergenceTelemetry` stream or
    ``None``; ``eigenpairs()`` clusters the converged output into
    distinct :class:`~repro.core.eigenpairs.Eigenpair` objects (a flat
    list for single-tensor results, one list per tensor for batch
    results).
    """

    converged: Any
    telemetry: Any

    def eigenpairs(self, *args, **kwargs) -> list: ...


@dataclass
class FleetResult:
    """Outcome of a fleet solve: ``T`` tensors × ``V`` starts in one run.

    Shapes use ``T`` = tensors, ``V`` = starts per tensor, ``n`` = mode
    dimension; the engine's flat lane ``l`` maps to ``(t, v) = divmod(l, V)``.

    Attributes
    ----------
    eigenvalues : ``(T, V)`` final ``lambda`` per lane.
    eigenvectors : ``(T, V, n)`` final unit vectors.
    converged : ``(T, V)`` bool — lanes that met the tolerance.
    iterations : ``(T, V)`` iterations until each lane retired.
    sweeps : lockstep sweeps the engine executed (max over lanes).
    failed : ``(T, V)`` bool — lanes that died numerically (NaN/Inf or a
        collapsed update) and were retired without poisoning the batch.
    shifts : ``(T, V)`` final per-lane shift (differs from the initial
        alpha when adaptive escalation ran), or ``None``.
    telemetry : per-sweep aggregate convergence stream, or ``None``.
    variant : canonical kernel-plan variant the engine used.
    compactions : active-set compactions performed.
    stopped : the run was cancelled early through the engine's ``stop=``
        hook (a deadline, budget cap, or drain request) — still-active
        lanes were retired cleanly with ``converged=False`` and their
        last iterate, so the arrays are complete but the unfinished
        lanes' rows are *partial* state, not the fixed point an
        uninterrupted run would reach.
    tensors : the solved batch (kept so :meth:`eigenpairs` can classify
        and compute residuals without re-threading it), or ``None`` for
        results reloaded from disk.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    converged: np.ndarray
    iterations: np.ndarray
    sweeps: int
    failed: np.ndarray
    shifts: np.ndarray | None = None
    telemetry: Any = None
    variant: str = ""
    compactions: int = 0
    stopped: bool = False
    tensors: Any = field(default=None, repr=False)

    @property
    def num_tensors(self) -> int:
        return self.eigenvalues.shape[0]

    @property
    def num_starts(self) -> int:
        return self.eigenvalues.shape[1]

    def converged_fraction(self) -> float:
        return float(np.mean(self.converged)) if self.converged.size else 0.0

    def eigenpairs(
        self,
        tensors=None,
        lambda_tol: float = 1e-5,
        angle_tol: float = 1e-2,
        classify: bool = False,
    ) -> list[list[Eigenpair]]:
        """Per-tensor deduplicated eigenpairs: ``out[t]`` is the sorted
        distinct spectrum reached for tensor ``t`` (failed and
        unconverged lanes are excluded).

        Uses the batch captured at solve time; pass ``tensors=`` (a
        batch, or a single tensor for a one-tensor result) to override —
        required for results reloaded from disk, which carry no batch.
        ``classify=True`` also fills residuals and stability labels
        (costs one Hessian eigendecomposition per pair).
        """
        from repro.symtensor.storage import SymmetricTensor, SymmetricTensorBatch

        batch = tensors if tensors is not None else self.tensors
        if batch is None:
            raise ValueError(
                "this FleetResult carries no tensor batch; pass tensors="
            )
        if isinstance(batch, SymmetricTensor):
            batch = SymmetricTensorBatch(batch.values[None, :], batch.m, batch.n)
        if len(batch) != self.num_tensors:
            raise ValueError(
                f"batch has {len(batch)} tensors but result has "
                f"{self.num_tensors}"
            )
        keep = self.converged & ~self.failed
        return [
            dedupe_eigenpairs(
                self.eigenvalues[t],
                self.eigenvectors[t],
                batch.m,
                tensor=batch[t] if classify else None,
                lambda_tol=lambda_tol,
                angle_tol=angle_tol,
                classify=classify,
                converged_mask=keep[t],
            )
            for t in range(self.num_tensors)
        ]

    def summary(self) -> str:
        """One-line human summary (used by the CLI)."""
        T, V = self.eigenvalues.shape
        return (
            f"{T} tensors x {V} starts: "
            f"{int(self.converged.sum())}/{T * V} lanes converged "
            f"({int(self.failed.sum())} failed) in {self.sweeps} sweeps "
            f"[{self.variant or 'default'} plan, "
            f"{self.compactions} compactions]"
        )
