"""SIMT warp-divergence analysis for the multistart workload.

On the GPU, the 128 threads of a block (one per starting vector) execute in
warps of 32 in lockstep: a warp runs until its *slowest* thread converges,
so threads whose SS-HOPM instance finished early idle in their lanes.  The
paper's kernel therefore pays ``max`` (not ``mean``) iterations per warp.

This module turns a measured per-(tensor, start) iteration matrix — e.g.
from :func:`repro.engine.fleet.fleet_solve` — into the per-block
warp-accurate work the execution model should charge, plus the SIMT
efficiency lost to convergence variance.  It closes the loop between the
functional solver and the performance simulator: real convergence data in,
divergence-aware runtime predictions out.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["WarpProfile", "warp_profile", "divergence_adjusted_iterations"]


@dataclass(frozen=True)
class WarpProfile:
    """Warp-level accounting of a multistart launch.

    Attributes
    ----------
    warp_iterations : ``(T, W)`` lockstep iterations each warp executes
        (max over its lanes).
    block_iterations : ``(T,)`` per-block iteration totals summed over the
        block's warps — the warp-serialized work the SM actually issues,
        in units of (warp x iteration).
    simt_efficiency : useful lane-iterations / issued lane-iterations —
        1.0 when every lane of every warp converges simultaneously.
    mean_iterations, max_iterations : workload summary statistics.
    """

    warp_iterations: np.ndarray
    block_iterations: np.ndarray
    simt_efficiency: float
    mean_iterations: float
    max_iterations: int


def warp_profile(iterations: np.ndarray, warp_size: int = 32) -> WarpProfile:
    """Analyze a ``(T, V)`` iteration matrix under SIMT execution.

    ``V`` need not divide ``warp_size``; a ragged final warp simply has
    fewer lanes.  Iteration counts must be nonnegative.
    """
    iterations = np.asarray(iterations)
    if iterations.ndim != 2:
        raise ValueError(f"expected a (T, V) iteration matrix, got {iterations.shape}")
    if warp_size < 1:
        raise ValueError(f"warp_size must be >= 1, got {warp_size}")
    if np.any(iterations < 0):
        raise ValueError("iteration counts must be nonnegative")
    T, V = iterations.shape
    num_warps = -(-V // warp_size)

    warp_iters = np.zeros((T, num_warps), dtype=np.float64)
    issued_lanes = 0.0
    useful_lanes = float(iterations.sum())
    for w in range(num_warps):
        lanes = iterations[:, w * warp_size : (w + 1) * warp_size]
        warp_iters[:, w] = lanes.max(axis=1)
        issued_lanes += float(warp_iters[:, w].sum() * lanes.shape[1])

    block_iters = warp_iters.sum(axis=1)
    efficiency = useful_lanes / issued_lanes if issued_lanes > 0 else 1.0
    return WarpProfile(
        warp_iterations=warp_iters,
        block_iterations=block_iters,
        simt_efficiency=float(efficiency),
        mean_iterations=float(iterations.mean()),
        max_iterations=int(iterations.max()) if iterations.size else 0,
    )


def divergence_adjusted_iterations(
    iterations: np.ndarray, warp_size: int = 32
) -> np.ndarray:
    """Per-tensor *effective* iteration counts for the performance model:
    the per-block warp-serialized work expressed as equivalent full-block
    lockstep iterations (block work / warps per block).

    Feeding these to :func:`repro.gpu.perfmodel.predict_sshopm` charges the
    device for divergence: a block whose lanes converge unevenly costs as
    many cycles as its slowest lanes imply.
    """
    prof = warp_profile(iterations, warp_size=warp_size)
    num_warps = prof.warp_iterations.shape[1]
    out = prof.block_iterations / num_warps
    # the model requires strictly positive work
    return np.maximum(out, 1e-9)
