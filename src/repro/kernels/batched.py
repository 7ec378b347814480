"""Batched vectorized kernels — the functional analog of the GPU mapping.

The paper's CUDA kernel assigns one thread block per tensor and one thread
per starting vector; every thread evaluates the same unrolled arithmetic on
its own ``(tensor, vector)`` pair.  With NumPy, the equivalent of launching
``T x V`` threads is broadcasting: these kernels evaluate ``A x^m`` and
``A x^{m-1}`` for *all* leading-dimension combinations at once from the
shared precomputed tables (one gather per tensor mode, one segmented
reduction for the vector kernel).

Conventions: ``values`` has shape ``(..., U)`` (unique entries last), ``x``
has shape ``(..., n)``; leading dimensions broadcast against each other.
The fleet engine calls them with one row per lane: ``values[A, U]``
against ``x[A, n]``.
"""

from __future__ import annotations

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
    sorted by output entry); all rows are evaluated at once and segment-
    reduced with ``np.add.reduceat``.
    """
    counter = counter or null_counter()
    values = np.asarray(values)
    x = np.asarray(x)
    tab = _resolve_tables(values, x, tables)
    m = tab.m

    if m == 2:
        # row_factors has one column; the general path below handles it, but
        # the m=2 matrix case is worth keeping on the same path for clarity.
        pass

    # per-row remaining-factor products: (..., R)
    if tab.row_factors.shape[1] == 0:
        f = np.ones(x.shape[:-1] + (tab.num_rows,), dtype=x.dtype)
    else:
        f = x[..., tab.row_factors[:, 0]].copy()
        for j in range(1, m - 1):
            f *= x[..., tab.row_factors[:, j]]

    contrib = values[..., tab.row_class] * f
    contrib *= tab.row_sigma.astype(contrib.dtype)
    y = np.add.reduceat(contrib, tab.out_starts[:-1], axis=-1)
    counter.add_flops((int(np.size(y)) // tab.n) * (tab.num_rows * (m + 2)))
    return y


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
