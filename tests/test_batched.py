"""Tests for the batched vectorized kernels and their table machinery."""

import numpy as np
import pytest

from repro.kernels.batched import (
    _lane_block,
    ax_m1_batched,
    ax_m_batched,
    monomials_batched,
)
from repro.kernels.reference import ax_m1_dense, ax_m_dense
from repro.kernels.tables import kernel_tables, tables_from_arrays, tables_to_arrays
from repro.symtensor.random import random_symmetric_batch, random_symmetric_tensor
from repro.util.combinatorics import num_unique_entries
from repro.util.flopcount import FlopCounter


class TestShapes:
    def test_single_pair(self, rng):
        t = random_symmetric_tensor(4, 3, rng=rng)
        x = rng.normal(size=3)
        assert np.isscalar(float(ax_m_batched(t.values, x)))
        assert ax_m1_batched(t.values, x).shape == (3,)

    def test_tensor_batch_one_vector(self, rng):
        batch = random_symmetric_batch(6, 4, 3, rng=rng)
        x = rng.normal(size=3)
        y = ax_m_batched(batch.values, x)
        v = ax_m1_batched(batch.values, x)
        assert y.shape == (6,)
        assert v.shape == (6, 3)

    def test_full_grid_broadcast(self, rng):
        batch = random_symmetric_batch(4, 3, 3, rng=rng)
        X = rng.normal(size=(4, 9, 3))
        y = ax_m_batched(batch.values[:, None, :], X)
        v = ax_m1_batched(batch.values[:, None, :], X)
        assert y.shape == (4, 9)
        assert v.shape == (4, 9, 3)
        for t in range(4):
            for k in range(9):
                dense = batch[t].to_dense()
                assert np.isclose(y[t, k], ax_m_dense(dense, X[t, k]))
                assert np.allclose(v[t, k], ax_m1_dense(dense, X[t, k]))

    def test_shared_starts_broadcast(self, rng):
        """The GPU layout: every block (tensor) uses the same start set."""
        batch = random_symmetric_batch(3, 4, 3, rng=rng)
        starts = rng.normal(size=(5, 3))
        y = ax_m_batched(batch.values[:, None, :], starts[None, :, :])
        assert y.shape == (3, 5)


def _ax_m1_unblocked(values, x, tab):
    """Frozen copy of the row-expansion kernel before lane blocking: every
    lane at once, lanes first, reduced along the last axis.  The blocked
    kernel must reproduce it bit for bit."""
    values = np.asarray(values)
    x = np.asarray(x)
    f = x[..., tab.row_factors[:, 0]].copy()
    for j in range(1, tab.m - 1):
        f *= x[..., tab.row_factors[:, j]]
    contrib = values[..., tab.row_class] * f
    contrib *= tab.row_sigma.astype(contrib.dtype)
    return np.add.reduceat(contrib, tab.out_starts[:-1], axis=-1)


# (2, 1) has single-row output segments; (5, 8) has 330 rows per segment
BLOCKING_SHAPES = [(2, 1), (2, 3), (3, 3), (4, 3), (4, 4), (3, 6), (6, 3),
                   (5, 5), (2, 8), (8, 2), (5, 8)]


def _assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)


def _random(rng, shape, dtype):
    # scaled so integer dtypes get more than the values -1, 0 and 1
    return (4 * rng.normal(size=shape)).astype(dtype)


# int32 pins the output dtype: np.add.reduceat widens small integers
@pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int32])
@pytest.mark.parametrize("shape", BLOCKING_SHAPES,
                         ids=lambda p: f"m{p[0]}n{p[1]}")
class TestLaneBlocking:
    """The blocked, lanes-last ``A x^{m-1}`` kernel against the unblocked
    formula, on both sides of every block edge."""

    def test_lane_counts_around_block_edges(self, shape, dtype, rng):
        m, n = shape
        tab = kernel_tables(m, n)
        block = _lane_block(tab.num_rows)
        for lanes in (1, block - 1, block, block + 1, 3 * block + 7):
            values = _random(rng, (lanes, tab.num_unique), dtype)
            x = _random(rng, (lanes, n), dtype)
            want = _ax_m1_unblocked(values, x, tab)
            got = ax_m1_batched(values, x, tables=tab)
            _assert_same_bits(got, want)
            assert got.flags.c_contiguous
            _assert_same_bits(
                ax_m1_batched(np.asfortranarray(values), np.asfortranarray(x),
                              tables=tab),
                want,
            )

    def test_mixed_value_and_vector_dtypes(self, shape, dtype, rng):
        m, n = shape
        tab = kernel_tables(m, n)
        lanes = _lane_block(tab.num_rows) + 1
        for x_dtype in (np.float64, np.float32, np.int32):
            values = _random(rng, (lanes, tab.num_unique), dtype)
            x = _random(rng, (lanes, n), x_dtype)
            _assert_same_bits(ax_m1_batched(values, x, tables=tab),
                              _ax_m1_unblocked(values, x, tab))

    def test_broadcast_forms(self, shape, dtype, rng):
        m, n = shape
        tab = kernel_tables(m, n)
        block = _lane_block(tab.num_rows)
        T, V = 3, block + 5  # every form spans several blocks
        values = _random(rng, (T, 1, tab.num_unique), dtype)
        x = _random(rng, (T, V, n), dtype)
        lanes = _random(rng, (T * V, tab.num_unique), dtype)
        for a, b in (
            (values, x),                      # (T,1,U) x (T,V,n)
            (values, np.asfortranarray(x)),
            (values[0, 0], x[0]),             # (U,) x (V,n)
            (lanes, x[0, 0]),                 # (A,U) x (n,)
        ):
            _assert_same_bits(ax_m1_batched(a, b, tables=tab),
                              _ax_m1_unblocked(a, b, tab))

    def test_lane_split_matches_whole_batch(self, shape, dtype, rng):
        m, n = shape
        tab = kernel_tables(m, n)
        block = _lane_block(tab.num_rows)
        lanes = 3 * block + 7
        values = _random(rng, (lanes, tab.num_unique), dtype)
        x = _random(rng, (lanes, n), dtype)
        whole = ax_m1_batched(values, x, tables=tab)
        for s, e in ((0, 1), (5, block + 9), (block - 3, 2 * block + 1),
                     (2 * block, lanes)):
            _assert_same_bits(ax_m1_batched(values[s:e], x[s:e], tables=tab),
                              whole[s:e])


class TestMonomials:
    def test_monomials_match_outer_power(self, size, rng):
        from repro.symtensor.storage import symmetric_outer_power

        m, n = size
        tab = kernel_tables(m, n)
        x = rng.normal(size=n)
        mono = monomials_batched(x, tab)
        assert np.allclose(mono, symmetric_outer_power(x, m).values)

    def test_monomials_batch_axis(self, rng):
        tab = kernel_tables(3, 4)
        X = rng.normal(size=(7, 4))
        mono = monomials_batched(X, tab)
        assert mono.shape == (7, tab.num_unique)


class TestTableInference:
    def test_inference_from_shapes(self, rng):
        t = random_symmetric_tensor(5, 3, rng=rng)
        x = rng.normal(size=3)
        dense = t.to_dense()
        assert np.isclose(ax_m_batched(t.values, x), ax_m_dense(dense, x))

    def test_inference_failure_raises(self, rng):
        with pytest.raises(ValueError):
            ax_m_batched(rng.normal(size=7), rng.normal(size=3))  # 7 != C(m+2,m)

    def test_inference_failure_is_typed(self, rng):
        from repro.kernels.errors import KernelLookupError, TableInferenceError

        with pytest.raises(TableInferenceError, match="cannot infer"):
            ax_m_batched(rng.normal(size=7), rng.normal(size=3))
        # the typed family stays catchable as the historical ValueError
        # and as the shared kernel-lookup base
        assert issubclass(TableInferenceError, ValueError)
        assert issubclass(TableInferenceError, KernelLookupError)

    def test_ambiguous_n1_refuses_to_guess(self, rng):
        from repro.kernels.errors import TableInferenceError

        with pytest.raises(TableInferenceError, match="n=1"):
            ax_m_batched(rng.normal(size=1), rng.normal(size=1))

    def test_mismatched_explicit_tables_rejected(self, rng):
        # historically accepted silently (tables trusted blindly -> garbage)
        from repro.kernels.errors import TableInferenceError

        t = random_symmetric_tensor(5, 3, rng=rng)
        wrong = kernel_tables(4, 3)  # 15 unique values, arrays carry 21
        with pytest.raises(TableInferenceError, match="supplied tables"):
            ax_m_batched(t.values, rng.normal(size=3), tables=wrong)

    def test_matching_explicit_tables_accepted(self, rng):
        t = random_symmetric_tensor(5, 3, rng=rng)
        x = rng.normal(size=3)
        tab = kernel_tables(5, 3)
        assert np.isclose(ax_m_batched(t.values, x, tables=tab),
                          ax_m_batched(t.values, x))


class TestFlopCounter:
    def test_counts_scale_with_batch(self, rng):
        batch = random_symmetric_batch(4, 4, 3, rng=rng)
        X = rng.normal(size=(4, 8, 3))
        c1, c2 = FlopCounter(), FlopCounter()
        ax_m_batched(batch.values[:, None, :], X[:, :1], counter=c1)
        ax_m_batched(batch.values[:, None, :], X, counter=c2)
        assert c2.flops == 8 * c1.flops

    def test_vector_kernel_counts(self, rng):
        t = random_symmetric_tensor(4, 3, rng=rng)
        c = FlopCounter()
        ax_m1_batched(t.values, rng.normal(size=3), counter=c)
        tab = kernel_tables(4, 3)
        assert c.flops == tab.num_rows * 6  # (m+2) per row


# every order and dimension up to 8 but (8, 8), whose 6,435 unique entries
# make it the slowest table build by far
SEGMENT_LAYOUT_SHAPES = [(m, n) for m in range(2, 9) for n in range(1, 9)
                         if num_unique_entries(m, n) <= 5000]


class TestKernelTables:
    @pytest.mark.parametrize("shape", SEGMENT_LAYOUT_SHAPES,
                             ids=lambda p: f"m{p[0]}n{p[1]}")
    def test_segments_share_one_factor_layout(self, shape):
        """ax_m1_batched reuses segment 0's K remaining-factor products for
        every output segment; the disk-cache loader accepts the layout."""
        m, n = shape
        tab = kernel_tables(m, n)
        K, rem = divmod(tab.num_rows, n)
        assert rem == 0
        assert np.array_equal(tab.out_starts, K * np.arange(n + 1))
        factors = tab.row_factors.reshape(n, K, m - 1)
        assert (factors == factors[0]).all()
        assert (tab.row_sigma.reshape(n, K) == tab.row_sigma[:K]).all()
        assert len({tuple(f) for f in factors[0]}) == K  # all distinct
        tables_from_arrays(m, n, tables_to_arrays(tab))

    def test_row_expansion_sorted_by_output(self, size):
        m, n = size
        tab = kernel_tables(m, n)
        assert np.all(np.diff(tab.row_out) >= 0)
        assert tab.out_starts[0] == 0
        assert tab.out_starts[-1] == tab.num_rows

    def test_every_output_entry_has_rows(self, size):
        m, n = size
        tab = kernel_tables(m, n)
        assert np.all(np.diff(tab.out_starts) > 0)

    def test_row_count_equals_distinct_index_pairs(self, size):
        from repro.symtensor.indexing import iter_index_classes

        m, n = size
        tab = kernel_tables(m, n)
        expected = sum(len(set(ix)) for ix in iter_index_classes(m, n))
        assert tab.num_rows == expected

    def test_row_factor_shape(self, size):
        m, n = size
        tab = kernel_tables(m, n)
        assert tab.row_factors.shape == (tab.num_rows, m - 1)

    def test_extra_storage_accounting(self):
        tab = kernel_tables(4, 3)
        # at least the paper's (m+2)x integer data: m*U index + U mult
        assert tab.extra_storage_elements() >= (4 + 1) * tab.num_unique

    def test_rejects_order_one(self):
        with pytest.raises(ValueError):
            kernel_tables(1, 3)

    def test_caching(self):
        assert kernel_tables(4, 3) is kernel_tables(4, 3)
