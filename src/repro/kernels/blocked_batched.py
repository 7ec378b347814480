"""Batched blocked kernels: the future-work path, over whole workloads.

Combines the two scaling axes of this reproduction: the *blocked*
decomposition (general ``(m, n)`` — Section VI future work) and the
*batched* evaluation (all ``T`` tensors x ``V`` starting vectors at once —
the GPU mapping).  Each block becomes one ``einsum`` contracting the
gathered values (shape ``(..., U_1, ..., U_r)``) against per-chunk monomial
arrays (shape ``(..., U_j)``), with leading dimensions broadcasting exactly
like the flat batched kernels: the fleet engine passes one row per
lane, ``values[A, U]`` against ``x[A, n]``.

Per-chunk weights and Jacobians are computed once per call and shared by
every block touching that chunk — the analog of the paper's table sharing
across thread blocks.  This makes multistart SS-HOPM practical for tensor
sizes far past the unrollable regime
(``variant="blocked"`` in :func:`repro.engine.fleet.fleet_solve`).
"""

from __future__ import annotations

import numpy as np

from repro.kernels.blocked import BlockingPlan, blocking_plan
from repro.kernels.tables import kernel_tables
from repro.util.flopcount import FlopCounter, null_counter

__all__ = ["ax_m_blocked_batched", "ax_m1_blocked_batched", "infer_plan"]

_EINSUM_AXES = "abcdefgh"  # supports block shapes with up to 8 distinct chunks


def _chunk_weights_batched(q: int, x_chunk: np.ndarray) -> np.ndarray:
    """``(..., U_q)`` weighted monomials of order ``q`` for every leading
    index of ``x_chunk`` (shape ``(..., b)``)."""
    b = x_chunk.shape[-1]
    if q == 1:
        return x_chunk.copy()
    tab = kernel_tables(q, b)
    mono = x_chunk[..., tab.index[:, 0]].copy()
    for j in range(1, q):
        mono *= x_chunk[..., tab.index[:, j]]
    return mono * tab.mult.astype(x_chunk.dtype)


def _chunk_jacobian_batched(q: int, x_chunk: np.ndarray) -> np.ndarray:
    """``(..., b, U_q)`` per-leading-index Jacobians ``d w^q[u] / d x_i``."""
    b = x_chunk.shape[-1]
    lead = x_chunk.shape[:-1]
    if q == 1:
        eye = np.eye(b, dtype=x_chunk.dtype)
        return np.broadcast_to(eye, lead + (b, b)).copy()
    tab = kernel_tables(q, b)
    if tab.row_factors.shape[1] == 0:
        f = np.ones(lead + (tab.num_rows,), dtype=x_chunk.dtype)
    else:
        f = x_chunk[..., tab.row_factors[:, 0]].copy()
        for j in range(1, q - 1):
            f *= x_chunk[..., tab.row_factors[:, j]]
    contrib = q * tab.row_sigma.astype(x_chunk.dtype) * f  # (..., R)
    D = np.zeros(lead + (b, tab.num_unique), dtype=x_chunk.dtype)
    D[..., tab.row_out, tab.row_class] = contrib
    return D


def infer_plan(values: np.ndarray, x: np.ndarray, block_size: int = 6) -> BlockingPlan:
    """Recover a default :class:`BlockingPlan` from array shapes."""
    from repro.util.combinatorics import num_unique_entries

    n = np.asarray(x).shape[-1]
    U = np.asarray(values).shape[-1]
    if n == 1:
        raise ValueError("cannot infer tensor order for n=1; pass plan= explicitly")
    m = next((mm for mm in range(2, 64) if num_unique_entries(mm, n) == U), None)
    if m is None:
        raise ValueError(f"no order m gives C(m+{n}-1, m) == {U}; pass plan=")
    return blocking_plan(m, n, min(block_size, n))


def _gathered(values: np.ndarray, blk) -> np.ndarray:
    lead = values.shape[:-1]
    return values[..., blk.gather.ravel()].reshape(lead + blk.gather.shape)


def ax_m_blocked_batched(
    values: np.ndarray,
    x: np.ndarray,
    plan: BlockingPlan | None = None,
    block_size: int = 6,
    counter: FlopCounter | None = None,
) -> np.ndarray:
    """Batched blocked ``A x^m`` with broadcasting leading dimensions:
    ``values (..., U)`` against ``x (..., n)`` gives the broadcast-shaped
    scalar array."""
    counter = counter or null_counter()
    values = np.asarray(values)
    x = np.asarray(x)
    if plan is None:
        plan = infer_plan(values, x, block_size)
    if x.shape[-1] != plan.n:
        raise ValueError(f"x trailing dim {x.shape[-1]} != n={plan.n}")

    weights: dict[tuple[int, int], np.ndarray] = {}
    for blk in plan.blocks:
        for c, q in zip(blk.chunks, blk.orders):
            if (c, q) not in weights:
                lo, hi = plan.chunk_bounds[c]
                weights[(c, q)] = _chunk_weights_batched(q, x[..., lo:hi])

    out_shape = np.broadcast_shapes(values.shape[:-1], x.shape[:-1])
    y = np.zeros(out_shape, dtype=np.result_type(values.dtype, x.dtype))
    for blk in plan.blocks:
        r = len(blk.chunks)
        axes = _EINSUM_AXES[:r]
        spec = (
            "..." + axes + ","
            + ",".join("..." + a for a in axes)
            + "->..."
        )
        ws = [weights[(c, q)] for c, q in zip(blk.chunks, blk.orders)]
        y = y + blk.inter_coeff * np.einsum(spec, _gathered(values, blk), *ws,
                                            optimize=True)
        counter.add_flops(2 * int(np.prod(out_shape, dtype=np.int64)) * blk.gather.size)
    return y


def ax_m1_blocked_batched(
    values: np.ndarray,
    x: np.ndarray,
    plan: BlockingPlan | None = None,
    block_size: int = 6,
    counter: FlopCounter | None = None,
) -> np.ndarray:
    """Batched blocked ``A x^{m-1}``: broadcast leading dims plus a
    trailing ``(n,)`` axis."""
    counter = counter or null_counter()
    values = np.asarray(values)
    x = np.asarray(x)
    if plan is None:
        plan = infer_plan(values, x, block_size)
    if x.shape[-1] != plan.n:
        raise ValueError(f"x trailing dim {x.shape[-1]} != n={plan.n}")
    m, n = plan.m, plan.n

    weights: dict[tuple[int, int], np.ndarray] = {}
    jacobians: dict[tuple[int, int], np.ndarray] = {}
    for blk in plan.blocks:
        for c, q in zip(blk.chunks, blk.orders):
            if (c, q) not in weights:
                lo, hi = plan.chunk_bounds[c]
                weights[(c, q)] = _chunk_weights_batched(q, x[..., lo:hi])
                jacobians[(c, q)] = _chunk_jacobian_batched(q, x[..., lo:hi])

    lead = np.broadcast_shapes(values.shape[:-1], x.shape[:-1])
    y = np.zeros(lead + (n,), dtype=np.result_type(values.dtype, x.dtype))
    for blk in plan.blocks:
        r = len(blk.chunks)
        axes = _EINSUM_AXES[:r]
        a = _gathered(values, blk)
        for j in range(r):
            cj, qj = blk.chunks[j], blk.orders[j]
            operands = []
            parts = []
            for k in range(r):
                key = (blk.chunks[k], blk.orders[k])
                if k == j:
                    parts.append("...i" + axes[k])
                    operands.append(jacobians[key])
                else:
                    parts.append("..." + axes[k])
                    operands.append(weights[key])
            spec = "..." + axes + "," + ",".join(parts) + "->...i"
            contrib = np.einsum(spec, a, *operands, optimize=True)
            lo, hi = plan.chunk_bounds[cj]
            y[..., lo:hi] += blk.inter_coeff * contrib
            counter.add_flops(
                2 * int(np.prod(lead, dtype=np.int64)) * blk.gather.size
            )
    return y / m
