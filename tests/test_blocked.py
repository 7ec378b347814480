"""Tests for the blocked symmetric kernels (the paper's future work:
Section V-D's 'blocked approach' with Section VI's 'shapes of register
blocks')."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.kernels.blocked import (
    ax_m1_blocked,
    ax_m_blocked,
    block_shapes,
    blocking_plan,
)
from repro.kernels.compressed import ax_m1_compressed, ax_m_compressed
from repro.symtensor.random import random_symmetric_tensor
from repro.util.combinatorics import factorial, multinomial, num_unique_entries


class TestBlockShapes:
    def test_m4_shapes_match_paper_discussion(self):
        """The 'various shapes of register blocks that arise (for each
        order m)' — for m=4 these are the 5 integer partitions."""
        assert block_shapes(4) == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]

    @pytest.mark.parametrize("m,count", [(1, 1), (2, 2), (3, 3), (4, 5), (5, 7), (6, 11), (8, 22)])
    def test_partition_counts(self, m, count):
        shapes = block_shapes(m)
        assert len(shapes) == count  # partition numbers p(m)
        for s in shapes:
            assert sum(s) == m
            assert list(s) == sorted(s, reverse=True)

    def test_invalid_order(self):
        with pytest.raises(ValueError):
            block_shapes(0)


class TestBlockingPlan:
    def test_blocks_partition_unique_entries(self):
        for m, n, b in [(3, 5, 2), (4, 6, 3), (4, 7, 4), (5, 4, 2)]:
            plan = blocking_plan(m, n, b)
            total = sum(blk.gather.size for blk in plan.blocks)
            assert total == num_unique_entries(m, n)
            # no duplicates across blocks
            seen = np.concatenate([blk.gather.ravel() for blk in plan.blocks])
            assert len(np.unique(seen)) == total

    def test_inter_coefficients(self):
        plan = blocking_plan(4, 6, 3)  # 2 chunks
        for blk in plan.blocks:
            assert blk.inter_coeff == multinomial(blk.orders)
            assert sum(blk.orders) == 4

    def test_single_chunk_degenerates_to_one_block(self):
        plan = blocking_plan(4, 5, 5)
        assert plan.num_blocks == 1
        assert plan.blocks[0].orders == (4,)
        assert plan.blocks[0].inter_coeff == 1

    def test_unit_chunks_expose_all_shapes(self):
        """block_size=1 gives chunk==index: every class becomes a block of
        size 1, with shape = its monomial pattern."""
        plan = blocking_plan(3, 3, 1)
        assert plan.num_blocks == num_unique_entries(3, 3)
        for blk in plan.blocks:
            assert blk.gather.size == 1

    def test_block_count_is_chunk_class_count(self):
        plan = blocking_plan(4, 8, 3)  # 3 chunks
        assert plan.num_blocks == num_unique_entries(4, 3)

    def test_shapes_used_subset_of_partitions(self):
        plan = blocking_plan(5, 6, 2)
        assert plan.shapes_used() <= set(block_shapes(5))

    def test_validation(self):
        with pytest.raises(ValueError):
            blocking_plan(1, 4, 2)
        with pytest.raises(ValueError):
            blocking_plan(3, 4, 0)
        with pytest.raises(ValueError):
            blocking_plan(3, 4, 5)

    def test_caching(self):
        assert blocking_plan(4, 6, 3) is blocking_plan(4, 6, 3)


class TestBlockedKernelAgreement:
    @pytest.mark.parametrize(
        "m,n,b",
        [(2, 5, 2), (3, 4, 2), (4, 3, 2), (4, 6, 3), (4, 7, 4), (5, 5, 2), (6, 4, 3)],
    )
    def test_matches_compressed(self, m, n, b, rng):
        t = random_symmetric_tensor(m, n, rng=rng)
        x = rng.normal(size=n)
        assert np.isclose(ax_m_blocked(t, x, block_size=b), ax_m_compressed(t, x))
        assert np.allclose(ax_m1_blocked(t, x, block_size=b), ax_m1_compressed(t, x))

    def test_block_size_invariance(self, rng):
        """The result must not depend on the chunking."""
        t = random_symmetric_tensor(4, 7, rng=rng)
        x = rng.normal(size=7)
        ref = ax_m_blocked(t, x, block_size=7)
        for b in (1, 2, 3, 4, 5, 6):
            assert np.isclose(ax_m_blocked(t, x, block_size=b), ref)
            assert np.allclose(
                ax_m1_blocked(t, x, block_size=b), ax_m1_blocked(t, x, block_size=7)
            )

    def test_euler_identity(self, rng):
        t = random_symmetric_tensor(5, 6, rng=rng)
        x = rng.normal(size=6)
        assert np.isclose(ax_m1_blocked(t, x) @ x, ax_m_blocked(t, x))

    def test_zero_entries_in_x(self, rng):
        t = random_symmetric_tensor(4, 6, rng=rng)
        x = rng.normal(size=6)
        x[1] = x[4] = 0.0
        assert np.allclose(ax_m1_blocked(t, x, block_size=3), ax_m1_compressed(t, x))

    def test_dispatch_variant(self, rng):
        from repro.kernels.dispatch import get_kernels

        t = random_symmetric_tensor(4, 5, rng=rng)
        x = rng.normal(size=5)
        pair = get_kernels("blocked", 4, 5)
        assert np.isclose(pair.ax_m(t, x), ax_m_compressed(t, x))
        assert np.allclose(pair.ax_m1(t, x), ax_m1_compressed(t, x))

    def test_plan_shape_mismatch_raises(self, rng):
        t = random_symmetric_tensor(4, 5, rng=rng)
        plan = blocking_plan(4, 6, 3)
        with pytest.raises(ValueError):
            ax_m_blocked(t, rng.normal(size=5), plan=plan)
        with pytest.raises(ValueError):
            ax_m1_blocked(t, rng.normal(size=5), plan=plan)

    def test_x_shape_validation(self, rng):
        t = random_symmetric_tensor(4, 5, rng=rng)
        with pytest.raises(ValueError):
            ax_m_blocked(t, np.zeros(4))
        with pytest.raises(ValueError):
            ax_m1_blocked(t, np.zeros(6))

    @given(st.integers(2, 5), st.integers(2, 7), st.integers(1, 7), st.integers(0, 10**6))
    @settings(max_examples=25)
    def test_agreement_property(self, m, n, b, seed):
        b = min(b, n)
        t = random_symmetric_tensor(m, n, rng=seed)
        x = np.random.default_rng(seed).normal(size=n)
        y = ax_m_compressed(t, x)
        v = ax_m1_compressed(t, x)
        assert np.isclose(ax_m_blocked(t, x, block_size=b), y,
                          rtol=1e-9, atol=1e-9 * max(1, abs(y)))
        assert np.allclose(ax_m1_blocked(t, x, block_size=b), v,
                           rtol=1e-9, atol=1e-9 * max(1, np.abs(v).max()))


class TestBlockedInSshopm:
    def test_sshopm_with_blocked_kernels(self, rng):
        """End-to-end: SS-HOPM driven by the blocked kernels converges to
        the same eigenpair as the flat kernels, on a size where unrolling
        would be impractical."""
        from repro.solvers.sshopm import sshopm, suggested_shift
        from repro.util.rng import random_unit_vector

        t = random_symmetric_tensor(4, 8, rng=rng)
        x0 = random_unit_vector(8, rng=rng)
        alpha = suggested_shift(t)
        a = sshopm(t, x0=x0, alpha=alpha, kernels="blocked", tol=1e-13, max_iters=3000)
        b = sshopm(t, x0=x0, alpha=alpha, kernels="precomputed", tol=1e-13, max_iters=3000)
        assert a.converged and b.converged
        assert np.isclose(a.eigenvalue, b.eigenvalue, atol=1e-9)
