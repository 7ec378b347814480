"""High-level eigenpair solvers: the public entry points most users want.

``find_eigenpairs`` runs multistart SS-HOPM (on the fleet engine,
:func:`~repro.engine.fleet.fleet_solve`) on one tensor and returns the
deduplicated, classified spectrum; ``find_eigenpairs_batch`` does the same
for a whole batch (the paper's voxel workload) with shared starting vectors.
Both accept a :class:`~repro.core.config.SolveConfig` and record
``solve`` / ``dedupe`` spans when a recorder is active
(:mod:`repro.instrument`).
"""

from __future__ import annotations

import numpy as np

from repro.core.config import SolveConfig, resolve_option
from repro.core.eigenpairs import Eigenpair, dedupe_eigenpairs
from repro.core.results import FleetResult
from repro.instrument import span as _span
from repro.symtensor.storage import SymmetricTensor, SymmetricTensorBatch

__all__ = ["find_eigenpairs", "find_eigenpairs_batch"]


def find_eigenpairs(
    tensor: SymmetricTensor,
    num_starts: int | None = None,
    alpha: float | None = None,
    tol: float | None = None,
    max_iters: int | None = None,
    scheme: str | None = None,
    classify: bool = True,
    lambda_tol: float = 1e-6,
    angle_tol: float = 1e-3,
    rng=None,
    config: SolveConfig | None = None,
) -> list[Eigenpair]:
    """Real eigenpairs of ``tensor`` reachable by SS-HOPM multistart.

    Runs ``num_starts`` SS-HOPM instances (batched), dedupes the converged
    results, and (by default) classifies each pair's stability.  With
    ``alpha >= 0`` the attracting pairs include all local maxima of
    ``f(x) = A x^m``; run again with a negative shift to also reach local
    minima.  Returns pairs sorted by descending eigenvalue.

    Defaults: ``num_starts=128``, ``alpha=0``, ``tol=1e-12``,
    ``max_iters=1000``, ``scheme="random"``; any can come from ``config``.
    """
    from repro.engine.fleet import fleet_solve

    num_starts = resolve_option("num_starts", num_starts, config, 128)
    tol = resolve_option("tol", tol, config, 1e-12)
    max_iters = resolve_option("max_iters", max_iters, config, 1000)

    with _span("find_eigenpairs"):
        result = fleet_solve(
            tensor,
            num_starts=num_starts,
            alpha=alpha,
            tol=tol,
            max_iters=max_iters,
            scheme=scheme,
            rng=rng,
            config=config,
        )
        with _span("dedupe"):
            return dedupe_eigenpairs(
                result.eigenvalues[0],
                result.eigenvectors[0],
                tensor.m,
                tensor=tensor,
                lambda_tol=lambda_tol,
                angle_tol=angle_tol,
                classify=classify,
                converged_mask=result.converged[0],
            )


def find_eigenpairs_batch(
    tensors: SymmetricTensorBatch,
    num_starts: int | None = None,
    alpha: float | None = None,
    tol: float | None = None,
    max_iters: int | None = None,
    scheme: str | None = None,
    classify: bool = False,
    lambda_tol: float = 1e-5,
    angle_tol: float = 1e-2,
    rng=None,
    config: SolveConfig | None = None,
) -> tuple[list[list[Eigenpair]], FleetResult]:
    """Per-tensor deduplicated eigenpairs for a whole batch.

    Returns ``(pairs, raw)`` where ``pairs[t]`` is the sorted eigenpair list
    of tensor ``t`` and ``raw`` is the underlying
    :class:`~repro.core.results.FleetResult` (useful for convergence
    statistics).  Defaults as in :func:`find_eigenpairs` except
    ``tol=1e-10`` and ``max_iters=500``.
    """
    from repro.engine.fleet import fleet_solve

    num_starts = resolve_option("num_starts", num_starts, config, 128)
    with _span("find_eigenpairs_batch"):
        raw = fleet_solve(
            tensors,
            num_starts=num_starts,
            alpha=alpha,
            tol=tol,
            max_iters=max_iters,
            scheme=scheme,
            rng=rng,
            config=config,
        )
        with _span("dedupe"):
            pairs = [
                dedupe_eigenpairs(
                    raw.eigenvalues[t],
                    raw.eigenvectors[t],
                    tensors.m,
                    tensor=tensors[t] if classify else None,
                    lambda_tol=lambda_tol,
                    angle_tol=angle_tol,
                    classify=classify,
                    converged_mask=raw.converged[t],
                )
                for t in range(len(tensors))
            ]
    return pairs, raw
