"""Batched vectorized kernels — the functional analog of the GPU mapping.

The paper's CUDA kernel assigns one thread block per tensor and one thread
per starting vector; every thread evaluates the same unrolled arithmetic on
its own ``(tensor, vector)`` pair.  With NumPy, the equivalent of launching
``T x V`` threads is broadcasting: these kernels evaluate ``A x^m`` and
``A x^{m-1}`` for every leading-dimension combination from the shared
precomputed tables (one gather per tensor mode, one segmented reduction
for the vector kernel, which runs over cache-sized blocks of lanes).

Conventions: ``values`` has shape ``(..., U)`` (unique entries last), ``x``
has shape ``(..., n)``; leading dimensions broadcast against each other.
The fleet engine calls them with one row per lane: ``values[A, U]``
against ``x[A, n]``.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.kernels.errors import TableInferenceError
from repro.kernels.tables import KernelTables, kernel_tables
from repro.util.flopcount import FlopCounter, null_counter

__all__ = ["ax_m_batched", "ax_m1_batched", "infer_shape", "monomials_batched"]


def monomials_batched(x: np.ndarray, tab: KernelTables) -> np.ndarray:
    """All ``U`` degree-``m`` monomials of ``x``: output ``[..., u]`` is
    ``prod_j x[..., index[u, j]]`` — the compressed rank-one tensor
    ``x^{(x) m}`` evaluated for every leading index."""
    x = np.asarray(x)
    out = x[..., tab.index[:, 0]].copy()
    for j in range(1, tab.m):
        out *= x[..., tab.index[:, j]]
    return out


def ax_m_batched(
    values: np.ndarray,
    x: np.ndarray,
    tables: KernelTables | None = None,
    counter: FlopCounter | None = None,
) -> np.ndarray:
    """Batched ``A x^m``.

    Parameters
    ----------
    values : ``(..., U)`` unique-value arrays.
    x : ``(..., n)`` vectors; leading dims broadcast against ``values``.

    Returns the broadcast-shaped array of scalars ``A x^m``.
    """
    counter = counter or null_counter()
    values = np.asarray(values)
    x = np.asarray(x)
    tab = _resolve_tables(values, x, tables)
    mono = monomials_batched(x, tab)  # (..., U)
    mult = tab.mult.astype(values.dtype)
    y = np.einsum("...u,...u,u->...", values, mono, mult, optimize=True)
    counter.add_flops(int(np.size(y)) * (tab.num_unique * (tab.m + 2)))
    return y


def ax_m1_batched(
    values: np.ndarray,
    x: np.ndarray,
    tables: KernelTables | None = None,
    counter: FlopCounter | None = None,
) -> np.ndarray:
    """Batched ``A x^{m-1}``.

    Returns an array shaped ``broadcast(leading dims) + (n,)``.

    Implementation: the Figure-3 double loop is flattened into the
    precomputed row expansion (one row per (class, distinct index) pair,
    sorted by output entry), evaluated one block of lanes at a time with
    lanes last: each block multiplies its gathered ``(R, B)`` value rows
    by the remaining-factor products, scales them by ``sigma`` and
    segment-reduces them with ``np.add.reduceat`` straight into its slice
    of the C-contiguous ``(lanes, n)`` result.

    Why ``K = R / n`` products: every output segment lists the same ``K``
    remaining-factor tuples (the ``(m-1)``-multisets of the ``n``
    indices) in the same order, so a block computes each distinct
    product once, ``(K, B)``, and broadcasts it over the ``n`` segments
    instead of multiplying out all ``R`` rows (10 of 30 at ``m=4, n=3``)
    — the cross-row common subexpression the paper's unrolled-CSE
    variant removes.  :func:`~repro.kernels.tables.tables_from_arrays`
    rejects tables that break this layout.

    Why blocks: evaluating every lane at once builds ``(lanes, R)``
    temporaries that outgrow the L2 cache many times over (31 MB each for
    the paper's 131,072 lanes at ``m=4, n=3``); the paper's mapping keeps
    each thread block's tensor on-chip, in shared memory, for the same
    reason.  ``B`` is derived from the row count so that each ``(R, B)``
    float64 temporary is about 512 KiB (:func:`_lane_block`).  Each
    lane's products and sums run in the same order for any ``B``, and in
    the same order as a row-by-row evaluation, so the result does not
    depend on the blocking or on the shared products.

    Why lanes-last values: a block gathers its value rows from
    ``values[lanes].T``; when ``values`` is the transpose of a C-contiguous
    ``(U, lanes)`` array (the fleet engine holds lane values that way)
    each gathered row is one contiguous copy of ``B`` lanes instead of
    ``B`` strided loads.  Any layout gives the same result.
    """
    counter = counter or null_counter()
    values = np.asarray(values)
    x = np.asarray(x)
    tab = _resolve_tables(values, x, tables)
    lead = x.shape[:-1]
    if values.shape[:-1] != lead:  # the fleet engine's one row per lane skips this
        lead = np.broadcast_shapes(values.shape[:-1], lead)
        values = np.broadcast_to(values, lead + values.shape[-1:])
        x = np.broadcast_to(x, lead + x.shape[-1:])
    values = values.reshape(-1, tab.num_unique)
    x = x.reshape(-1, tab.n)

    lanes = len(x)
    dtype, out_dtype = _dtypes(values.dtype, x.dtype)
    if values.dtype != dtype:  # the rows are scaled in place below
        values = values.astype(dtype)
    out = np.empty((lanes, tab.n), dtype=out_dtype)
    R, n = tab.num_rows, tab.n
    K = R // n
    factors = tab.row_factors[:K].T  # (m-1, K): segment 0's factor tuples
    row_class = tab.row_class.reshape(n, K)
    sigma = tab.row_sigma.astype(dtype).reshape(n, K, 1)
    starts = tab.out_starts[:-1]
    block = _lane_block(R)
    for s in range(0, lanes, block):
        xt = x[s:s + block].T  # (n, B)
        # (K, B) remaining-factor products, multiplied left to right
        f = np.multiply.reduce(xt[factors], axis=0, dtype=x.dtype)
        contrib = values[s:s + block].T[row_class]  # (n, K, B) value rows
        contrib *= f  # the same K products for every output segment
        contrib *= sigma
        np.add.reduceat(contrib.reshape(R, -1), starts, axis=0,
                        out=out[s:s + block].T)
    counter.add_flops(lanes * (tab.num_rows * (tab.m + 2)))
    return out.reshape(lead + (tab.n,))


#: Target size of one ``(R, B)`` float64 temporary of :func:`ax_m1_batched`.
_BLOCK_BYTES = 512 * 1024


def _lane_block(num_rows: int) -> int:
    """Lanes per block of :func:`ax_m1_batched` for ``num_rows`` rows: the
    ``(R, B)`` value rows of :data:`_BLOCK_BYTES` and the smaller factor
    temporaries beside them (under 1.2 MiB together at ``m=4, n=3``) fit
    a 2 MiB per-core L2."""
    return max(1, _BLOCK_BYTES // (8 * num_rows))


@lru_cache(maxsize=64)
def _dtypes(values_dtype: np.dtype, x_dtype: np.dtype) -> tuple[np.dtype, np.dtype]:
    """The dtype of the row products and the dtype ``np.add.reduceat``
    returns for them (it widens small integers), so the preallocated
    output matches an unblocked reduction."""
    dtype = np.promote_types(values_dtype, x_dtype)
    return dtype, np.add.reduce(np.zeros(1, dtype)).dtype


def infer_shape(values: np.ndarray, x: np.ndarray) -> tuple[int, int]:
    """Recover ``(m, n)`` from batched-kernel array shapes.

    ``n`` is the last axis of ``x``; ``m`` is found by matching the last
    axis of ``values`` against ``C(m+n-1, m)``.  Raises
    :class:`~repro.kernels.errors.TableInferenceError` when no order fits
    (or the shape is ambiguous, as for ``n == 1``).
    """
    from repro.util.combinatorics import num_unique_entries

    n = int(np.shape(x)[-1])
    U = int(np.shape(values)[-1])
    if n == 1:
        # U == 1 for every order when n == 1; the shape is ambiguous
        raise TableInferenceError(
            "cannot infer tensor order for n=1; pass tables= explicitly", n=n
        )
    for m in range(2, 64):
        u = num_unique_entries(m, n)
        if u == U:
            return m, n
        if u > U:
            break
    raise TableInferenceError(
        f"cannot infer tensor order: no m gives C(m+{n}-1, m) == {U}; "
        "pass tables= explicitly",
        n=n,
    )


def _resolve_tables(values: np.ndarray, x: np.ndarray,
                    tables: KernelTables | None) -> KernelTables:
    """Supplied tables are validated against the array shapes; ``None``
    triggers inference.  Both failure modes raise the typed
    :class:`~repro.kernels.errors.TableInferenceError` (mismatched explicit
    tables were historically accepted silently and produced garbage)."""
    if tables is None:
        return kernel_tables(*infer_shape(values, x))
    n = int(np.shape(x)[-1])
    U = int(np.shape(values)[-1])
    if tables.n != n or tables.num_unique != U:
        raise TableInferenceError(
            f"supplied tables are for R^[{tables.m},{tables.n}] "
            f"({tables.num_unique} unique values) but arrays have "
            f"x trailing dim {n} and {U} values per tensor",
            m=tables.m,
            n=tables.n,
        )
    return tables
