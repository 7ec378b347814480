"""Blocked symmetric kernels — the paper's stated future work.

Section V-D: full loop unrolling "is possible for small problems, but to
scale to larger problems we need a blocked approach.  Handling the
different cases that arise when blocking a symmetric tensor is future
work."  Section VI: "the main implementation challenges will be to
classify the various shapes of register blocks that arise (for each order
m) so that each shape may be handled separately."

This module implements that blocking.  Partition the dimension
``{0..n-1}`` into chunks of size ``b``.  Every index class then belongs to
a *block*: the nondecreasing ``m``-tuple of chunk ids its indices fall in.
A block is characterized by its **shape** — the multiplicities
``(q_1, ..., q_r)`` of its ``r`` distinct chunks (the paper's "various
shapes of register blocks"; for ``m=4`` they are ``(4)``, ``(3,1)``,
``(2,2)``, ``(2,1,1)``, ``(1,1,1,1)``).  The content of a block is the
Cartesian product of order-``q_j`` index classes *within* each chunk, so a
block's unique values form an ``r``-way array ``A_block`` of extent
``C(q_j + b_j - 1, q_j)`` per axis.

The key identity that makes blocks separable is the factorization of the
multinomial coefficient over chunks,

    C(m; k_1..k_n) = C(m; q_1..q_r) * prod_j C(q_j; k within chunk j),

which turns the scalar kernel into a tiny tensor contraction per block:

    A x^m = sum_blocks C(m; q_1..q_r) *
            einsum(A_block, w^{q_1}_{c_1}, ..., w^{q_r}_{c_r})

where ``w^{q}_{c}[u] = C(q; k(u)) * x_c^{monomial(u)}`` is the weighted
degree-``q`` monomial vector of chunk ``c`` — computed once per
(chunk, order) and shared by every block that touches it.  The vector
kernel differentiates one factor:  ``d/dx_i`` of ``w^{q}_{c}`` is the
(b x U) matrix built from the same sigma tables as the flat kernels.

Everything per ``(m, n, block_size)`` is precomputed into a cached
:class:`BlockingPlan`; evaluation is pure NumPy contractions, giving the
"general order and dimension" performance path the paper calls for.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.kernels.tables import kernel_tables
from repro.symtensor.indexing import iter_index_classes
from repro.symtensor.storage import SymmetricTensor
from repro.util.combinatorics import multinomial, num_unique_entries
from repro.util.flopcount import FlopCounter, null_counter

__all__ = [
    "BlockingPlan",
    "blocking_plan",
    "block_shapes",
    "ax_m_blocked",
    "ax_m1_blocked",
]


def block_shapes(m: int) -> list[tuple[int, ...]]:
    """The distinct block shapes of order ``m``: all integer partitions of
    ``m`` (multiplicity patterns of chunks within a block), largest part
    first — the classification the paper's Section VI asks for."""
    if m < 1:
        raise ValueError(f"order must be >= 1, got {m}")
    shapes: list[tuple[int, ...]] = []

    def rec(remaining: int, maximum: int, prefix: tuple[int, ...]):
        if remaining == 0:
            shapes.append(prefix)
            return
        for part in range(min(remaining, maximum), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(m, m, ())
    return shapes


# -- per-chunk monomial machinery -------------------------------------------


def _chunk_monomial_weights(q: int, x_chunk: np.ndarray) -> np.ndarray:
    """``w^{q}[..., u] = C(q; k(u)) * x_chunk^{monomial(u)}`` for all
    order-``q`` classes over this chunk (last axis ``C(q+b-1, q)``), for
    every leading index of ``x_chunk`` (shape ``(..., b)``)."""
    b = x_chunk.shape[-1]
    if q == 1:
        return x_chunk.copy()
    tab = kernel_tables(q, b)
    mono = x_chunk[..., tab.index[:, 0]].copy()
    for j in range(1, q):
        mono *= x_chunk[..., tab.index[:, j]]
    return mono * tab.mult.astype(x_chunk.dtype)


def _chunk_monomial_jacobian(q: int, x_chunk: np.ndarray) -> np.ndarray:
    """``D^{q}[..., i, u] = d w^{q}[u] / d x_i`` — a ``(b, U_q)`` matrix
    per leading index.

    Using ``w[u] = C(q;k) x^k``: ``dw[u]/dx_i = C(q;k) k_i x^{k - e_i}
    = q * sigma_u(i) * x^{k-e_i}`` via the footnote-3 identity
    ``sigma = C(q;k) k_i / q``.
    """
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


# -- the blocking plan --------------------------------------------------------


@dataclass(frozen=True)
class _Block:
    chunks: tuple[int, ...]  # distinct chunk ids, ascending
    orders: tuple[int, ...]  # multiplicity of each chunk (sums to m)
    inter_coeff: int  # C(m; orders)
    gather: np.ndarray  # r-way array of positions into the flat value array


@dataclass(frozen=True)
class BlockingPlan:
    """Cached blocking of the order-``m`` dimension-``n`` index space into
    chunks of size ``block_size``."""

    m: int
    n: int
    block_size: int
    chunk_bounds: tuple[tuple[int, int], ...]  # (start, stop) per chunk
    blocks: tuple[_Block, ...]

    @property
    def num_chunks(self) -> int:
        return len(self.chunk_bounds)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def shapes_used(self) -> set[tuple[int, ...]]:
        return {tuple(sorted(b.orders, reverse=True)) for b in self.blocks}


@lru_cache(maxsize=None)
def blocking_plan(m: int, n: int, block_size: int) -> BlockingPlan:
    """Build (and cache) the :class:`BlockingPlan` for ``(m, n)`` with the
    given chunk size.

    The plan enumerates every block key (nondecreasing ``m``-tuple of chunk
    ids), derives its shape and inter-chunk multinomial, and materializes
    the gather array mapping the block's ``r``-way content onto positions
    in the flat lexicographic value array.
    """
    if m < 2:
        raise ValueError(f"blocked kernels need m >= 2, got {m}")
    if not 1 <= block_size <= n:
        raise ValueError(f"block_size must be in 1..{n}, got {block_size}")
    num_chunks = -(-n // block_size)
    bounds = tuple(
        (c * block_size, min((c + 1) * block_size, n)) for c in range(num_chunks)
    )

    # position of every global index class in the flat lex order
    from repro.symtensor.indexing import class_lookup

    lookup = class_lookup(m, n)

    blocks: list[_Block] = []
    for key in iter_index_classes(m, num_chunks):  # 1-based chunk ids
        chunk_ids = tuple(c - 1 for c in key)
        distinct: list[int] = []
        orders: list[int] = []
        for c in chunk_ids:
            if distinct and distinct[-1] == c:
                orders[-1] += 1
            else:
                distinct.append(c)
                orders.append(1)
        inter = multinomial(orders)

        # per-axis local classes: order-q_j classes over chunk j's width
        axis_classes: list[list[tuple[int, ...]]] = []
        for c, q in zip(distinct, orders):
            lo, hi = bounds[c]
            width = hi - lo
            local = [
                tuple(lo + v - 1 for v in cls)  # global 0-based indices
                for cls in iter_index_classes(q, width)
            ]
            axis_classes.append(local)

        shape = tuple(len(ax) for ax in axis_classes)
        gather = np.empty(shape, dtype=np.int64)
        # iterate the Cartesian product of local classes
        it = np.ndindex(*shape)
        for multi in it:
            combined: list[int] = []
            for ax, u in zip(axis_classes, multi):
                combined.extend(ax[u])
            combined.sort()
            gather[multi] = lookup[tuple(v + 1 for v in combined)]
        gather.setflags(write=False)
        blocks.append(
            _Block(
                chunks=tuple(distinct),
                orders=tuple(orders),
                inter_coeff=inter,
                gather=gather,
            )
        )

    # completeness: every unique value appears exactly once across blocks
    total = sum(b.gather.size for b in blocks)
    expected = num_unique_entries(m, n)
    if total != expected:
        raise AssertionError(
            f"blocking covered {total} entries, expected {expected}"
        )
    return BlockingPlan(
        m=m, n=n, block_size=block_size, chunk_bounds=bounds, blocks=tuple(blocks)
    )


# -- evaluation ---------------------------------------------------------------


def _chunk_vectors(plan: BlockingPlan, x: np.ndarray):
    """All (chunk, order) weighted-monomial vectors needed by the plan."""
    needed: set[tuple[int, int]] = set()
    for blk in plan.blocks:
        for c, q in zip(blk.chunks, blk.orders):
            needed.add((c, q))
    w: dict[tuple[int, int], np.ndarray] = {}
    for c, q in needed:
        lo, hi = plan.chunk_bounds[c]
        w[(c, q)] = _chunk_monomial_weights(q, x[lo:hi])
    return w


def ax_m_blocked(
    tensor: SymmetricTensor,
    x: np.ndarray,
    block_size: int = 4,
    plan: BlockingPlan | None = None,
    counter: FlopCounter | None = None,
) -> float:
    """``A x^m`` via the blocked decomposition (general ``(m, n)``).

    Equivalent to :func:`repro.kernels.compressed.ax_m_compressed` but
    evaluated as one small dense contraction per block, with per-chunk
    monomial vectors shared across blocks.
    """
    counter = counter or null_counter()
    m, n = tensor.m, tensor.n
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"x has shape {x.shape}, expected ({n},)")
    if plan is None:
        plan = blocking_plan(m, n, min(block_size, n))
    elif (plan.m, plan.n) != (m, n):
        raise ValueError("plan shape does not match tensor shape")
    values = tensor.values
    w = _chunk_vectors(plan, x)

    y = 0.0
    for blk in plan.blocks:
        a = values[blk.gather]
        for axis in range(len(blk.chunks) - 1, -1, -1):
            a = a @ w[(blk.chunks[axis], blk.orders[axis])]
        y += blk.inter_coeff * float(a)
        counter.add_flops(2 * blk.gather.size + 2)
    return float(y)


def ax_m1_blocked(
    tensor: SymmetricTensor,
    x: np.ndarray,
    block_size: int = 4,
    plan: BlockingPlan | None = None,
    counter: FlopCounter | None = None,
) -> np.ndarray:
    """``A x^{m-1}`` via the blocked decomposition.

    The gradient of the factorized block form: for each block and each of
    its distinct chunks ``j``, replace that chunk's monomial vector with
    the Jacobian matrix and contract — the chain rule over the block's
    product structure, scaled by ``1/m`` (since ``grad(A x^m) = m A x^{m-1}``).
    """
    counter = counter or null_counter()
    m, n = tensor.m, tensor.n
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"x has shape {x.shape}, expected ({n},)")
    if plan is None:
        plan = blocking_plan(m, n, min(block_size, n))
    elif (plan.m, plan.n) != (m, n):
        raise ValueError("plan shape does not match tensor shape")
    values = tensor.values
    w = _chunk_vectors(plan, x)
    # Jacobians per needed (chunk, order)
    D: dict[tuple[int, int], np.ndarray] = {}
    for key in w:
        c, q = key
        lo, hi = plan.chunk_bounds[c]
        D[key] = _chunk_monomial_jacobian(q, x[lo:hi])

    y = np.zeros(n, dtype=np.float64)
    for blk in plan.blocks:
        a0 = values[blk.gather]
        r = len(blk.chunks)
        for j in range(r):
            cj, qj = blk.chunks[j], blk.orders[j]
            # contract all axes != j with w, axis j with the Jacobian
            a = a0
            # contract trailing axes first to keep axis bookkeeping simple
            for axis in range(r - 1, -1, -1):
                key = (blk.chunks[axis], blk.orders[axis])
                if axis == j:
                    continue
                a = np.tensordot(a, w[key], axes=([axis], [0]))
            # remaining single axis corresponds to chunk j's classes
            grad_chunk = D[(cj, qj)] @ np.atleast_1d(a)
            lo, hi = plan.chunk_bounds[cj]
            y[lo:hi] += blk.inter_coeff * grad_chunk
            counter.add_flops(2 * blk.gather.size + 2 * grad_chunk.size)
    return y / m
