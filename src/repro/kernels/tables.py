"""Precomputed kernel tables (Sections III-B.5 and V-C).

The paper's storage/compute tradeoff: instead of recomputing the index
representation (Figure 4) and multinomial coefficients (MULTINOMIAL0/1) at
every term, precompute them once per ``(m, n)`` and share them — across
iterations, across starting vectors, and across *all tensors* of the same
shape (on the GPU the index array is shared by every thread block).

:class:`KernelTables` bundles everything any kernel variant needs:

* ``index`` — ``(U, m)`` 0-based index representations in class order;
* ``mult`` — ``(U,)`` multiplicities ``C(m; k_1..k_n)`` (the ``A x^m``
  coefficients);
* ``monomial`` — ``(U, n)`` exponent vectors;
* the *row expansion* of the ``A x^(m-1)`` kernel: Figure 3's doubly-nested
  loop flattened into ``R`` independent rows, one per (class, distinct index)
  pair, each carrying its coefficient ``sigma`` and the ``m-1`` remaining
  factor indices.  Rows are sorted by output entry so vectorized kernels can
  segment-reduce with ``np.add.reduceat``; every output segment lists the
  same ``R/n`` remaining-factor tuples, with the same ``sigma``, in the
  same order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.symtensor.indexing import (
    index_classes,
    index_table,
    monomial_from_index,
    multiplicity_table,
)
from repro.util.combinatorics import factorial, multinomial1_from_index

__all__ = [
    "KernelTables",
    "kernel_tables",
    "prime_tables",
    "tables_from_arrays",
    "tables_to_arrays",
]

#: Array fields of :class:`KernelTables`, in a fixed serialization order.
_ARRAY_FIELDS = (
    "index",
    "mult",
    "monomial",
    "row_out",
    "row_class",
    "row_sigma",
    "row_factors",
    "out_starts",
)


@dataclass(frozen=True)
class KernelTables:
    """Immutable precomputed tables for symmetric kernels on ``R^[m,n]``."""

    m: int
    n: int
    index: np.ndarray  # (U, m) int64, 0-based, class order
    mult: np.ndarray  # (U,) int64
    monomial: np.ndarray  # (U, n) int64
    # Row expansion of the vector kernel, sorted by output entry:
    row_out: np.ndarray  # (R,) int64 — output entry this row accumulates into
    row_class: np.ndarray  # (R,) int64 — source index class
    row_sigma: np.ndarray  # (R,) int64 — Figure 3 coefficient sigma(j)
    row_factors: np.ndarray  # (R, m-1) int64 — 0-based x-factor indices
    out_starts: np.ndarray  # (n+1,) int64 — reduceat segment boundaries

    @property
    def num_unique(self) -> int:
        return self.index.shape[0]

    @property
    def num_rows(self) -> int:
        return self.row_out.shape[0]

    def extra_storage_elements(self) -> int:
        """Integer elements this precomputation stores beyond the tensor
        values — the paper's "(m+2) factor" of extra (compressible) storage:
        ``m`` index ints + 1 multiplicity per class, plus the row tables."""
        return (
            self.index.size
            + self.mult.size
            + self.row_out.size
            + self.row_class.size
            + self.row_sigma.size
            + self.row_factors.size
        )


# Tables loaded from the persistent plan cache, registered before first
# use so `kernel_tables` can skip the combinatorial build in this process.
_PRIMED: dict[tuple[int, int], KernelTables] = {}


def prime_tables(tables: KernelTables) -> None:
    """Register pre-built ``tables`` so :func:`kernel_tables` returns them
    instead of rebuilding — the warm path of the on-disk plan cache
    (:mod:`repro.kernels.diskcache`).  No-op once the shape's tables have
    already been built in this process (the lru cache wins)."""
    _PRIMED[(tables.m, tables.n)] = tables


def tables_to_arrays(tables: KernelTables) -> dict[str, np.ndarray]:
    """The table arrays as a name-keyed dict (``np.savez`` ready)."""
    return {name: getattr(tables, name) for name in _ARRAY_FIELDS}


def tables_from_arrays(m: int, n: int, arrays) -> KernelTables:
    """Rebuild :class:`KernelTables` from :func:`tables_to_arrays` output.

    Validates the structural invariants so a corrupted archive surfaces as
    ``ValueError`` (which the disk cache treats as a rebuild signal), not
    as garbage kernels.
    """
    m, n = int(m), int(n)
    kw = {}
    for name in _ARRAY_FIELDS:
        arr = np.ascontiguousarray(np.asarray(arrays[name], dtype=np.int64))
        arr.setflags(write=False)
        kw[name] = arr
    U = kw["index"].shape[0]
    R = kw["row_out"].shape[0]
    if (
        kw["index"].shape != (U, m)
        or kw["mult"].shape != (U,)
        or kw["monomial"].shape != (U, n)
        or kw["row_class"].shape != (R,)
        or kw["row_sigma"].shape != (R,)
        or kw["row_factors"].shape != (R, m - 1)
        or kw["out_starts"].shape != (n + 1,)
        or int(kw["out_starts"][0]) != 0
        or int(kw["out_starts"][-1]) != R
    ):
        raise ValueError(
            f"kernel table arrays are inconsistent for m={m}, n={n}"
        )
    # ax_m1_batched computes segment 0's K remaining-factor products once
    # and reuses them for every output segment
    K = R // n
    factors, sigma = kw["row_factors"], kw["row_sigma"]
    if (
        R != K * n
        or not np.array_equal(kw["out_starts"], K * np.arange(n + 1))
        or (factors.reshape(n, K, m - 1) != factors[:K]).any()
        or (sigma.reshape(n, K) != sigma[:K]).any()
    ):
        raise ValueError(
            f"kernel table rows for m={m}, n={n} do not list the same "
            "remaining factors and sigma in every output segment"
        )
    return KernelTables(m=m, n=n, **kw)


@lru_cache(maxsize=None)
def kernel_tables(m: int, n: int) -> KernelTables:
    """Build (and cache) the tables for ``R^[m,n]``."""
    if m < 2:
        raise ValueError(f"kernels require tensor order m >= 2, got m={m}")
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got n={n}")
    primed = _PRIMED.get((m, n))
    if primed is not None:
        return primed
    classes = index_classes(m, n)  # 1-based tuples
    idx_tab = index_table(m, n)  # (U, m) 0-based
    mult_tab = multiplicity_table(m, n)
    mono_tab = np.array([monomial_from_index(ix, n) for ix in classes], dtype=np.int64)

    m1fact = factorial(m - 1)
    rows: list[tuple[int, int, int, tuple[int, ...]]] = []
    for u, index in enumerate(classes):
        for j in sorted(set(index)):
            sigma = multinomial1_from_index(index, j, m1fact)
            # remaining m-1 factors: the class with one occurrence of j removed
            remaining = list(index)
            remaining.remove(j)
            rows.append((j - 1, u, sigma, tuple(v - 1 for v in remaining)))
    rows.sort(key=lambda r: (r[0], r[1]))

    row_out = np.array([r[0] for r in rows], dtype=np.int64)
    row_class = np.array([r[1] for r in rows], dtype=np.int64)
    row_sigma = np.array([r[2] for r in rows], dtype=np.int64)
    if m - 1 > 0:
        row_factors = np.array([r[3] for r in rows], dtype=np.int64)
    else:
        row_factors = np.empty((len(rows), 0), dtype=np.int64)

    # Segment boundaries: rows with row_out == i live in
    # [out_starts[i], out_starts[i+1]).  Every output entry has at least one
    # row (every index value occurs in some class), so segments are nonempty.
    out_starts = np.zeros(n + 1, dtype=np.int64)
    np.add.at(out_starts, row_out + 1, 1)
    out_starts = np.cumsum(out_starts)

    for arr in (row_out, row_class, row_sigma, row_factors, out_starts):
        arr.setflags(write=False)
    return KernelTables(
        m=m,
        n=n,
        index=idx_tab,
        mult=mult_tab,
        monomial=mono_tab,
        row_out=row_out,
        row_class=row_class,
        row_sigma=row_sigma,
        row_factors=row_factors,
        out_starts=out_starts,
    )
