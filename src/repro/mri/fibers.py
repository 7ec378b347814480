"""Fiber-direction extraction: the end-to-end application of Section IV/V.

Per voxel: the principal nerve fiber directions are the local maxima of the
diffusion profile ``D(g) = A g^m`` on the sphere, i.e. the positive-stable
eigenpairs of ``A`` — found by multistart SS-HOPM on the fleet engine with
a nonnegative shift ("to find local maxima, a nonnegative shift must be
used", Section V-A).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import SolveConfig
from repro.core.eigenpairs import classify_eigenpair, dedupe_eigenpairs
from repro.instrument import gauge as _gauge
from repro.instrument import span as _span
from repro.symtensor.storage import SymmetricTensor, SymmetricTensorBatch

__all__ = ["VoxelFibers", "extract_fibers", "extract_fibers_batch"]


@dataclass
class VoxelFibers:
    """Fiber estimate for one voxel.

    Attributes
    ----------
    directions : ``(F, 3)`` unit vectors (hemisphere-canonicalized), sorted
        by descending eigenvalue.
    eigenvalues : ``(F,)`` the corresponding ``lambda = D(direction)``.
    num_candidates : stable local maxima found before thresholding.
    """

    directions: np.ndarray
    eigenvalues: np.ndarray
    num_candidates: int

    @property
    def count(self) -> int:
        return self.directions.shape[0]


def _select_fibers(
    tensor: SymmetricTensor,
    eigenvalues: np.ndarray,
    eigenvectors: np.ndarray,
    converged: np.ndarray,
    max_fibers: int,
    rel_threshold: float,
    min_occurrences: int,
) -> VoxelFibers:
    with _span("dedupe"):
        pairs = dedupe_eigenpairs(
            eigenvalues,
            eigenvectors,
            tensor.m,
            tensor=tensor,
            classify=False,
            converged_mask=converged,
        )
    # local maxima only: positive stable pairs (classification is the costly
    # part, so apply it after the occurrence filter)
    maxima = []
    with _span("classify"):
        for p in pairs:
            if p.occurrences < min_occurrences:
                continue
            if classify_eigenpair(tensor, p.eigenvalue, p.eigenvector) == "pos_stable":
                maxima.append(p)
    num_candidates = len(maxima)
    if not maxima:
        return VoxelFibers(
            directions=np.zeros((0, 3)),
            eigenvalues=np.zeros(0),
            num_candidates=0,
        )
    lam_max = maxima[0].eigenvalue
    kept = [p for p in maxima if p.eigenvalue >= rel_threshold * lam_max][:max_fibers]
    return VoxelFibers(
        directions=np.stack([p.eigenvector for p in kept]),
        eigenvalues=np.array([p.eigenvalue for p in kept]),
        num_candidates=num_candidates,
    )


def extract_fibers(
    tensor: SymmetricTensor,
    num_starts: int = 128,
    alpha: float = 0.0,
    max_fibers: int = 3,
    rel_threshold: float = 0.5,
    min_occurrences: int = 2,
    tol: float = 1e-10,
    max_iters: int | None = None,
    rng=None,
    config: SolveConfig | None = None,
) -> VoxelFibers:
    """Fiber directions of a single voxel tensor.

    ``alpha`` must be nonnegative (local maxima); the paper uses 0 for its
    synthetic set.  ``rel_threshold`` discards spurious shallow maxima whose
    ADC is below that fraction of the principal one; ``min_occurrences``
    discards maxima reached by fewer than that many starting vectors.
    ``max_iters`` defaults to 500.
    """
    from repro.engine.fleet import fleet_solve

    if alpha < 0:
        raise ValueError("fiber extraction needs a nonnegative shift (local maxima)")
    with _span("extract_fibers"):
        result = fleet_solve(
            tensor,
            num_starts=num_starts,
            alpha=alpha,
            tol=tol,
            max_iters=max_iters,
            rng=rng,
            config=config,
        )
        return _select_fibers(
            tensor,
            result.eigenvalues[0],
            result.eigenvectors[0],
            result.converged[0],
            max_fibers=max_fibers,
            rel_threshold=rel_threshold,
            min_occurrences=min_occurrences,
        )


def extract_fibers_batch(
    tensors: SymmetricTensorBatch,
    num_starts: int = 128,
    alpha: float = 0.0,
    max_fibers: int = 3,
    rel_threshold: float = 0.5,
    min_occurrences: int = 2,
    tol: float = 1e-10,
    max_iters: int | None = None,
    rng=None,
    config: SolveConfig | None = None,
) -> list[VoxelFibers]:
    """Fiber directions for every voxel of a batch (one fleet run for the
    whole grid — the GPU-shaped computation).

    With a recorder active (:mod:`repro.instrument`) the pipeline stages
    appear as aggregated spans: one ``fleet_solve`` subtree for the
    solve, then per-voxel ``select_fibers`` / ``dedupe`` / ``classify``
    spans whose ``count`` is the voxel count.
    """
    from repro.engine.fleet import fleet_solve

    if alpha < 0:
        raise ValueError("fiber extraction needs a nonnegative shift (local maxima)")
    _gauge("fibers.voxels", len(tensors))
    _gauge("fibers.starts", num_starts)
    with _span("extract_fibers_batch"):
        result = fleet_solve(
            tensors,
            num_starts=num_starts,
            alpha=alpha,
            tol=tol,
            max_iters=max_iters,
            rng=rng,
            config=config,
        )
        fibers = []
        for t in range(len(tensors)):
            with _span("select_fibers"):
                fibers.append(
                    _select_fibers(
                        tensors[t],
                        result.eigenvalues[t],
                        result.eigenvectors[t],
                        result.converged[t],
                        max_fibers=max_fibers,
                        rel_threshold=rel_threshold,
                        min_occurrences=min_occurrences,
                    )
                )
    return fibers
