"""Cross-module property-based tests (hypothesis): the library-wide
invariants listed in DESIGN.md Section 6."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.batched import ax_m1_batched, ax_m_batched
from repro.kernels.compressed import ax_m1_compressed, ax_m_compressed
from repro.kernels.reference import ax_m1_dense, ax_m_dense
from repro.kernels.unrolled import _make_unrolled as make_unrolled
from repro.symtensor.indexing import (
    index_classes,
    monomial_from_index,
    multiplicity_table,
    rank_index,
    unrank_index,
)
from repro.symtensor.random import random_symmetric_tensor
from repro.symtensor.storage import SymmetricTensor, symmetrize_dense
from repro.util.combinatorics import num_unique_entries

sizes = st.tuples(st.integers(2, 5), st.integers(1, 4))
seeds = st.integers(0, 2**31 - 1)


@given(sizes, seeds)
def test_pack_unpack_round_trip(size, seed):
    m, n = size
    t = random_symmetric_tensor(m, n, rng=seed)
    assert SymmetricTensor.from_dense(t.to_dense()).allclose(t)


@given(sizes, seeds)
def test_symmetrize_then_compress_consistent(size, seed):
    """Compressing the symmetrization equals averaging the dense entries of
    each index class."""
    m, n = size
    rng = np.random.default_rng(seed)
    dense = rng.normal(size=(n,) * m)
    sym = symmetrize_dense(dense)
    t = SymmetricTensor.from_dense(sym, check=False)
    # each unique value is the mean of the class's dense entries
    from itertools import permutations

    for index in index_classes(m, n)[: min(6, num_unique_entries(m, n))]:
        zero_based = tuple(i - 1 for i in index)
        entries = [dense[p] for p in set(permutations(zero_based))]
        # mean over distinct positions with multiplicity: symmetrization
        # averages over all m! permutations, counting repeats
        all_entries = [dense[tuple(zero_based[i] for i in perm)]
                       for perm in permutations(range(m))]
        assert np.isclose(t[zero_based], np.mean(all_entries))


@given(sizes, seeds)
@settings(max_examples=25)
def test_kernel_agreement_property(size, seed):
    m, n = size
    t = random_symmetric_tensor(m, n, rng=seed)
    rng = np.random.default_rng(seed + 1)
    x = rng.normal(size=n)
    dense = t.to_dense()
    y = ax_m_dense(dense, x)
    v = ax_m1_dense(dense, x)
    assert np.allclose(ax_m_compressed(t, x), y, atol=1e-8 * max(1, abs(y)))
    assert np.allclose(ax_m1_compressed(t, x), v, atol=1e-8 * max(1, np.abs(v).max()))
    from repro.kernels.tables import kernel_tables

    tab = kernel_tables(m, n)  # explicit: n=1 shapes are ambiguous to infer
    assert np.allclose(ax_m_batched(t.values, x, tables=tab), y, atol=1e-8 * max(1, abs(y)))
    assert np.allclose(
        ax_m1_batched(t.values, x, tables=tab), v, atol=1e-8 * max(1, np.abs(v).max())
    )


@given(sizes, seeds)
@settings(max_examples=25)
def test_euler_identity_property(size, seed):
    m, n = size
    t = random_symmetric_tensor(m, n, rng=seed)
    x = np.random.default_rng(seed).normal(size=n)
    lhs = ax_m1_compressed(t, x) @ x
    rhs = ax_m_compressed(t, x)
    assert np.isclose(lhs, rhs, rtol=1e-9, atol=1e-9)


@given(sizes)
def test_rank_unrank_bijection(size):
    m, n = size
    U = num_unique_entries(m, n)
    seen = set()
    for r in range(U):
        index = unrank_index(r, m, n)
        assert rank_index(index, n) == r
        seen.add(index)
    assert len(seen) == U


@given(sizes)
def test_multiplicities_tile_dense_tensor(size):
    m, n = size
    assert multiplicity_table(m, n).sum() == n**m


@given(sizes)
def test_monomials_sum_to_order(size):
    m, n = size
    for index in index_classes(m, n):
        assert sum(monomial_from_index(index, n)) == m


@given(st.integers(2, 5), st.integers(2, 4), seeds)
@settings(max_examples=20)
def test_unrolled_equals_compressed_property(m, n, seed):
    t = random_symmetric_tensor(m, n, rng=seed)
    x = np.random.default_rng(seed).normal(size=n)
    gen = make_unrolled(m, n)
    assert np.isclose(gen.ax_m(t.values, x), ax_m_compressed(t, x), rtol=1e-9, atol=1e-9)
    assert np.allclose(gen.ax_m1(t.values, x), ax_m1_compressed(t, x), rtol=1e-9, atol=1e-9)


@given(seeds)
@settings(max_examples=15)
def test_sshopm_fixed_point_invariant(seed):
    """Converged SS-HOPM results satisfy the eigenpair equation."""
    from repro.solvers.sshopm import sshopm, suggested_shift

    t = random_symmetric_tensor(4, 3, rng=seed)
    res = sshopm(t, alpha=suggested_shift(t), rng=seed, tol=1e-13, max_iters=3000)
    if res.converged:
        assert res.residual < 1e-5
        assert np.isclose(np.linalg.norm(res.eigenvector), 1.0, atol=1e-10)
        # lambda equals the generalized Rayleigh quotient at x
        assert np.isclose(res.eigenvalue, ax_m_compressed(t, res.eigenvector), atol=1e-10)


@given(st.integers(1, 200), st.integers(1, 12))
def test_partition_properties(total, workers):
    from repro.parallel.partition import PartitionError, static_partition

    if workers > total:
        with pytest.raises(PartitionError):
            static_partition(total, workers)
        return
    parts = static_partition(total, workers)
    flat = [i for r in parts for i in r]
    assert flat == list(range(total))
    sizes = [len(r) for r in parts]
    assert max(sizes) - min(sizes) <= 1


@given(
    st.lists(st.floats(0.0, 1e6, allow_nan=False), min_size=1, max_size=64),
    st.integers(1, 12),
)
def test_cost_weighted_partition_properties(weights, workers):
    from repro.parallel.partition import PartitionError, cost_weighted_partition

    if workers > len(weights):
        with pytest.raises(PartitionError):
            cost_weighted_partition(weights, workers)
        return
    parts = cost_weighted_partition(weights, workers)
    flat = [i for r in parts for i in r]
    assert flat == list(range(len(weights)))
    assert all(len(r) >= 1 for r in parts)
