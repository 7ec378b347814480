"""Batched vectorized kernels — the functional analog of the GPU mapping.

The paper's CUDA kernel assigns one thread block per tensor and one thread
per starting vector; every thread evaluates the same unrolled arithmetic on
its own ``(tensor, vector)`` pair.  With NumPy, the equivalent of launching
``T x V`` threads is broadcasting: these kernels evaluate ``A x^m`` and
``A x^{m-1}`` for every leading-dimension combination from the shared
precomputed tables (one gather per tensor mode; the vector kernel runs
over cache-sized blocks of lanes, as a segmented reduction on small calls
and, on large ones, as a straight-line row program, the paper's unrolled
per-thread arithmetic run across lane rows).

Conventions: ``values`` has shape ``(..., U)`` (unique entries last), ``x``
has shape ``(..., n)``; leading dimensions broadcast against each other.
The fleet engine calls them with one row per lane: ``values[A, U]``
against ``x[A, n]``.
"""

from __future__ import annotations

import itertools
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
    lanes last into the block's slice of the C-contiguous ``(lanes, n)``
    result.  Each output entry ``i`` sums ``K = R / n`` terms
    ``t_k = (v[row_class[i, k]] * f_k) * sigma_k``, where ``f_k`` is the
    product of the ``k``-th remaining-factor tuple, multiplied left to
    right.  A block is evaluated in one of two orders that give the same
    bits:

    * the *gather* order, below :data:`_ROW_CROSSOVER` lanes: gather the
      block's ``(m-1, K, B)`` factors and ``(n, K, B)`` value rows, form
      the ``K`` products with one ``np.multiply.reduce``, scale the value
      rows by them and by ``sigma``, and segment-reduce with
      ``np.add.reduceat``;
    * the *row program*, from :data:`_ROW_CROSSOVER` lanes when values
      and ``x`` share a float dtype: the same arithmetic as a
      straight-line list of ufunc calls on contiguous lane rows
      (:class:`_RowProgram`), built once per shape at first use.
      Integer and mixed dtypes keep the gather order, which forms the
      products in ``x``'s own dtype and the terms in the promoted one.

    Why ``K`` products: every output segment lists the same ``K``
    remaining-factor tuples (the ``(m-1)``-multisets of the ``n``
    indices) in the same order, so a block computes each distinct
    product once and uses it for all ``n`` segments instead of
    multiplying out all ``R`` rows (10 of 30 at ``m=4, n=3``) — the
    cross-row common subexpression the paper's unrolled-CSE variant
    removes.  :func:`~repro.kernels.tables.tables_from_arrays` rejects
    tables that break this layout.

    Why the two orders agree bit for bit: the row program forms each
    product in ``np.multiply.reduce``'s left-to-right order (sharing
    prefixes, so ``x_a * x_b`` is formed once for every
    ``x_a * x_b * x_c``), multiplies each value row by its product and
    then by ``sigma`` (skipping ``sigma == 1``, which is exact), and adds
    each segment's terms in ``np.add.reduceat``'s order: ``t_0`` plus
    numpy's pairwise sum of ``t_1 .. t_{K-1}`` (:func:`_segment_steps`;
    ``tests/test_batched.py`` checks it against ``np.add.reduceat`` for
    segment lengths 1 to 300); only NaN sign and payload bits may
    differ.  A lane's answer therefore does not depend on which order
    the size of its call chose; the fleet engine's compaction moves
    lanes across the crossover at different sweeps in different shards
    and relies on that.

    Why a crossover: the gather order's copies and ``reduceat``'s
    per-lane inner loops cost per lane (73% of a call at ``m=4, n=3`` on
    65,536 lanes), while the row program makes one ufunc call per
    product and term (62 at ``m=4, n=3``), which costs per call: it is
    1.5-3x slower on a serve-sized call of 128 lanes and about twice as
    fast on a whole-workload fleet.

    Why blocks: evaluating every lane at once builds temporaries that
    outgrow the L2 cache many times over (31 MB each for the paper's
    131,072 lanes at ``m=4, n=3``); the paper's mapping keeps each
    thread block's tensor on-chip, in shared memory, for the same reason.
    The gather order sizes ``B`` so that each ``(R, B)`` float64
    temporary is about 512 KiB (:func:`_lane_block`); the row program
    sizes it so that its live scratch rows (``x``'s rows, one product
    row per factor count and the register groups of its sums: 35 rows
    at ``m=4, n=3``, 7,488 float64 lanes) fill :data:`_ROW_L2_BYTES`
    (:meth:`_RowProgram.block`).  Counting the value rows too made the
    blocks too small to amortize each call at ``n >= 6``.  Each lane's
    products and sums run in the same order for any ``B``, so the
    result does not depend on the blocking either.

    Why lanes-last values: a block reads its value rows from
    ``values[lanes].T``; when ``values`` is the transpose of a
    C-contiguous ``(U, lanes)`` array (the fleet engine holds lane values
    that way) each value row is a contiguous run of ``B`` lanes, which
    the row program reads in place and the gather order copies in one
    piece, instead of ``B`` strided loads.  Any layout gives the same
    result.
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
    if (lanes >= _ROW_CROSSOVER and values.dtype == x.dtype
            and x.dtype in _ROW_DTYPES):
        out = _row_program(tab).run(values, x)
    else:
        out = _gather_blocks(values, x, tab)
    counter.add_flops(lanes * (tab.num_rows * (tab.m + 2)))
    return out.reshape(lead + (tab.n,))


def _gather_blocks(values: np.ndarray, x: np.ndarray,
                   tab: KernelTables) -> np.ndarray:
    """:func:`ax_m1_batched` on ``(lanes, U)`` values and ``(lanes, n)``
    vectors in the gather order, for any dtypes: the products in ``x``'s
    dtype, the rows in the promoted one."""
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
    return out


#: Target size of one ``(R, B)`` float64 temporary of the gather order.
_BLOCK_BYTES = 512 * 1024


def _lane_block(num_rows: int) -> int:
    """Lanes per block of the gather order for ``num_rows`` rows: the
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


#: Lane count from which :func:`ax_m1_batched` runs the row program.
#: ``benchmarks/results/kernel_lanes.txt`` times both orders side by
#: side on eight shapes from (3,3) to (4,8): at 512 lanes the row
#: program takes 0.81-1.23x the gather order's time (slower on five
#: shapes), at 1,024 lanes 0.58-0.74x, and at 65,536 lanes 0.28-0.52x.
_ROW_CROSSOVER = 1024

#: Dtypes the row program evaluates (values and ``x`` must share one).
_ROW_DTYPES = (np.dtype(np.float64), np.dtype(np.float32))

#: Bytes of scratch rows per row-program lane block: a 2 MiB per-core L2.
_ROW_L2_BYTES = 2 * 1024 * 1024

#: Row alignment of the row program's scratch, in bytes: one cache line.
#: Unaligned rows made every row multiply about 1.5x slower.
_ROW_ALIGN = 64


def _segment_steps(count: int) -> list[tuple[str, int, int]]:
    """The order in which ``np.add.reduceat`` sums one output segment of
    ``count`` terms ``t_0 .. t_{count-1}`` (numpy 2.4's float loops), as
    steps on numbered registers: ``("term", r, k)`` sets register ``r``
    to ``t_k`` and ``("add", r, q)`` adds register ``q`` into ``r``.  The
    sum ends in register 0 with the last step.

    ``reduceat`` copies ``t_0`` and adds to it numpy's pairwise sum of
    the rest: fewer than 8 terms left to right (from ``-0.0``, so
    exactly ``t_1 + t_2 + ...``); 8 to 128 terms in 8 accumulators, each
    taking every 8th term, combined as
    ``((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7))``, then the leftover terms in
    order; more terms split at half the count rounded down to a multiple
    of 8, and the two halves' sums added.  ``tests/test_batched.py``
    checks these steps against ``np.add.reduceat`` for 1 to 300 terms.
    """
    steps: list[tuple[str, int, int]] = [("term", 0, 0)]
    if count == 1:
        return steps
    free: list[int] = []
    fresh = itertools.count(2)  # register 0 holds t_0, 1 the term temporary

    def register() -> int:
        return free.pop() if free else next(fresh)

    def add_term(r: int, k: int) -> None:
        steps.append(("term", 1, k))
        steps.append(("add", r, 1))

    def pairwise(lo: int, hi: int) -> int:
        c = hi - lo
        if c < 8:
            r = register()
            steps.append(("term", r, lo))
            for k in range(lo + 1, hi):
                add_term(r, k)
            return r
        if c <= 128:
            acc = [register() for _ in range(8)]
            for j, r in enumerate(acc):
                steps.append(("term", r, lo + j))
            full = hi - c % 8
            for i in range(lo + 8, full, 8):
                for j, r in enumerate(acc):
                    add_term(r, i + j)
            for a, b in ((0, 1), (2, 3), (0, 2), (4, 5), (6, 7), (4, 6), (0, 4)):
                steps.append(("add", acc[a], acc[b]))
            free.extend(acc[1:])
            for k in range(full, hi):
                add_term(acc[0], k)
            return acc[0]
        half = c // 2
        half -= half % 8
        left, right = pairwise(lo, lo + half), pairwise(lo + half, hi)
        steps.append(("add", left, right))
        free.append(right)
        return left

    steps.append(("add", 0, pairwise(1, count)))
    return steps


class _RowProgram:
    """The row program of one shape: :func:`ax_m1_batched`'s arithmetic
    for a lane block as a straight-line list of ufunc calls on lane rows,
    in the gather order's exact order (see there).

    Each op is ``(ufunc, a, b, out)``, indices into the block's operand
    list: the ``U`` value rows, the ``n`` output rows, the ``(n, B)``
    output group, the ``sigma != 1`` scalars, then the scratch rows and
    one ``(n, B)`` scratch group per register of
    :func:`_segment_steps`.  Scratch rows are ``x``'s ``n`` rows, one
    product row per factor count ``2 .. m-1`` (products are formed as
    their terms need them, each prefix once while its terms last), then
    the register groups.  A register holds one term or partial sum for
    all ``n`` output entries at once, because every segment lists the
    same factor products and ``sigma`` in the same order.
    """

    def __init__(self, tab: KernelTables):
        m, n, U = tab.m, tab.n, tab.num_unique
        K = tab.num_rows // n
        factors = [tuple(f) for f in tab.row_factors[:K].tolist()]
        row_class = tab.row_class.reshape(n, K).tolist()
        sigma = tab.row_sigma[:K].tolist()
        steps = _segment_steps(K)
        self.tables = tab
        self.n = n
        self.sigmas = sorted({s for s in sigma if s != 1})
        registers = 1 + max(r for _, r, _ in steps)
        products = max(m - 2, 0)
        self.rows = n + products + n * registers
        self.groups = [n + products + n * r for r in range(registers)]

        out_rows, out_group = U, U + n
        sig = {s: U + n + 1 + j for j, s in enumerate(self.sigmas)}
        base = U + n + 1 + len(self.sigmas)  # scratch row 0

        def reg_rows(r: int) -> list[int]:
            return [base + self.groups[r] + i for i in range(n)]

        def reg_group(r: int) -> int:
            return base + self.rows + r

        ops: list[tuple[np.ufunc, int, int, int]] = []
        held: dict[int, tuple[int, ...]] = {}  # factor count -> its row's prefix

        def product(k: int) -> int:
            fac = factors[k]
            row = base + fac[0]
            for j in range(2, len(fac) + 1):
                dst = base + n + j - 2
                if held.get(j) != fac[:j]:
                    ops.append((np.multiply, row, base + fac[j - 1], dst))
                    held[j] = fac[:j]
                row = dst
            return row

        for step, (op, r, q) in enumerate(steps):
            last = step == len(steps) - 1  # the last step writes the output
            group = out_group if last else reg_group(r)
            if op == "add":
                ops.append((np.add, reg_group(r), reg_group(q), group))
                continue
            f = product(q)
            dst = range(out_rows, out_rows + n) if last else reg_rows(r)
            for i, d in enumerate(dst):
                ops.append((np.multiply, row_class[i][q], f, d))
            if sigma[q] != 1:  # multiplying by 1.0 is exact
                ops.append((np.multiply, group, sig[sigma[q]], group))
        self.ops = ops

    def reads(self, tab: KernelTables) -> bool:
        """Whether this program was built from ``tab``'s row expansion."""
        return tab is self.tables or all(
            np.array_equal(getattr(tab, name), getattr(self.tables, name))
            for name in ("row_class", "row_sigma", "row_factors"))

    def block(self, dtype: np.dtype) -> int:
        """Lanes per block: the scratch rows fill :data:`_ROW_L2_BYTES`,
        in whole cache lines."""
        unit = _ROW_ALIGN // dtype.itemsize
        return max(unit, _ROW_L2_BYTES // (dtype.itemsize * self.rows)
                   // unit * unit)

    def run(self, values: np.ndarray, x: np.ndarray) -> np.ndarray:
        """``A x^{m-1}`` of ``(lanes, U)`` values and ``(lanes, n)``
        vectors of one float dtype, as a C-contiguous ``(lanes, n)``
        array.  The scratch belongs to the call, so threads can share
        the program."""
        lanes, n, dtype = len(x), self.n, x.dtype
        unit = _ROW_ALIGN // dtype.itemsize
        block = self.block(dtype)
        width = min(block, -(-lanes // unit) * unit)
        raw = np.empty(self.rows * width + unit, dtype)
        skip = (-raw.ctypes.data % _ROW_ALIGN) // dtype.itemsize
        scratch = raw[skip:skip + self.rows * width].reshape(self.rows, width)
        out = np.empty((lanes, n), dtype)
        sigmas = [dtype.type(s) for s in self.sigmas]
        for s in range(0, lanes, block):
            e = min(s + block, lanes)
            rows = scratch[:, :e - s]
            np.copyto(rows[:n], x[s:e].T)
            block_out = out[s:e].T
            operands = [*values[s:e].T, *block_out, block_out, *sigmas,
                        *rows, *(rows[g:g + n] for g in self.groups)]
            for ufunc, a, b, d in self.ops:
                ufunc(operands[a], operands[b], operands[d])
        return out


#: Row programs built so far, one per shape (:func:`_row_program`).
_ROW_PROGRAMS: dict[tuple[int, int], _RowProgram] = {}


def _row_program(tab: KernelTables) -> _RowProgram:
    """The cached row program of ``tab``'s shape, built at first use."""
    program = _ROW_PROGRAMS.get((tab.m, tab.n))
    if program is None or not program.reads(tab):
        program = _ROW_PROGRAMS[(tab.m, tab.n)] = _RowProgram(tab)
    return program


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
