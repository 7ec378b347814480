"""Systematic edge cases across the library: extreme shapes, degenerate
values, dtype handling, and numerical corners."""

import numpy as np
import pytest

from repro.engine.fleet import fleet_solve
from repro.solvers.sshopm import sshopm, suggested_shift
from repro.kernels.batched import ax_m1_batched, ax_m_batched
from repro.kernels.compressed import ax_m1_compressed, ax_m_compressed
from repro.kernels.reference import ax_m1_dense, ax_m_dense
from repro.kernels.tables import kernel_tables
from repro.symtensor.indexing import index_classes
from repro.symtensor.random import random_symmetric_tensor
from repro.symtensor.storage import SymmetricTensor


class TestDimensionOne:
    """n = 1: tensors are scalars; everything must still work."""

    def test_storage(self):
        t = SymmetricTensor(np.array([2.5]), 4, 1)
        assert t.num_unique == 1
        assert t.to_dense().shape == (1, 1, 1, 1)
        assert t[(0, 0, 0, 0)] == 2.5

    def test_kernels(self):
        t = SymmetricTensor(np.array([2.0]), 3, 1)
        x = np.array([1.5])
        assert np.isclose(ax_m_compressed(t, x), 2.0 * 1.5**3)
        assert np.allclose(ax_m1_compressed(t, x), [2.0 * 1.5**2])
        tab = kernel_tables(3, 1)
        assert np.isclose(ax_m_batched(t.values, x, tables=tab), 2.0 * 1.5**3)

    def test_sshopm(self):
        t = SymmetricTensor(np.array([3.0]), 4, 1)
        res = sshopm(t, x0=np.array([1.0]), alpha=1.0, tol=1e-12)
        assert res.converged
        assert np.isclose(abs(res.eigenvalue), 3.0)

    def test_index_classes(self):
        assert index_classes(5, 1) == [(1, 1, 1, 1, 1)]


class TestHighOrder:
    """Orders beyond the application size."""

    def test_order_eight(self, rng):
        t = random_symmetric_tensor(8, 2, rng=rng)
        x = rng.normal(size=2)
        dense = t.to_dense()
        assert np.isclose(ax_m_compressed(t, x), ax_m_dense(dense, x))
        assert np.allclose(ax_m1_compressed(t, x), ax_m1_dense(dense, x))

    def test_order_two_everything(self, rng):
        """m=2 (plain matrices) through every code path."""
        t = random_symmetric_tensor(2, 4, rng=rng)
        dense = t.to_dense()
        x = rng.normal(size=4)
        from repro.kernels.dispatch import available_variants, get_kernels

        for name in available_variants():
            pair = get_kernels(name, 2, 4)
            assert np.isclose(pair.ax_m(t, x), x @ dense @ x), name
            assert np.allclose(pair.ax_m1(t, x), dense @ x), name


class TestExtremeValues:
    def test_tiny_entries(self, rng):
        t = random_symmetric_tensor(4, 3, rng=rng, scale=1e-150)
        x = rng.normal(size=3)
        y = ax_m_compressed(t, x)
        assert np.isfinite(y)
        assert np.isclose(y, ax_m_dense(t.to_dense(), x))

    def test_large_entries(self, rng):
        t = random_symmetric_tensor(4, 3, rng=rng, scale=1e100)
        x = rng.normal(size=3)
        assert np.isfinite(ax_m_compressed(t, x))

    def test_suggested_shift_of_zero_tensor(self):
        t = SymmetricTensor.zeros(4, 3)
        assert suggested_shift(t) == 0.0

    def test_sshopm_huge_shift_still_converges(self, rng):
        """alpha >> ||A||: the iteration contracts extremely slowly but
        stays numerically sane and the iterates remain unit norm."""
        t = random_symmetric_tensor(4, 3, rng=rng)
        res = sshopm(t, alpha=1e8, rng=rng, tol=0.0, max_iters=50)
        assert np.isclose(np.linalg.norm(res.eigenvector), 1.0)
        assert np.isfinite(res.eigenvalue)

    def test_nan_tensor_terminates(self):
        t = SymmetricTensor(np.full(15, np.nan), 4, 3)
        res = sshopm(t, alpha=0.0, rng=0, max_iters=20)
        assert not res.converged

    def test_multistart_with_nan_lane_does_not_poison_others(self, rng):
        from repro.symtensor.storage import SymmetricTensorBatch

        good = random_symmetric_tensor(4, 3, rng=rng)
        bad = SymmetricTensor(np.full(15, np.nan), 4, 3)
        batch = SymmetricTensorBatch.from_tensors([good, bad])
        res = fleet_solve(batch, num_starts=8, alpha=suggested_shift(good),
                          rng=1, tol=1e-10, max_iters=2000)
        assert res.converged[0].all()
        assert not res.converged[1].any()


class TestDtypes:
    def test_float32_compressed_kernel(self, rng):
        t = random_symmetric_tensor(4, 3, rng=rng).astype(np.float32)
        x = rng.normal(size=3).astype(np.float32)
        y64 = ax_m_compressed(t.astype(np.float64), x.astype(np.float64))
        assert np.isclose(ax_m_compressed(t, x), y64, rtol=1e-4)

    def test_batched_preserves_float32(self, rng):
        t = random_symmetric_tensor(4, 3, rng=rng).astype(np.float32)
        x = rng.normal(size=3).astype(np.float32)
        assert ax_m1_batched(t.values, x).dtype == np.float32

    def test_mixed_dtypes_promote(self, rng):
        t = random_symmetric_tensor(4, 3, rng=rng).astype(np.float32)
        x = rng.normal(size=3)  # float64
        v = ax_m1_batched(t.values, x)
        assert v.dtype == np.float64


class TestDegenerateSpectra:
    def test_repeated_eigenvalues_matrix(self):
        """m=2 with a repeated top eigenvalue: SS-HOPM converges to *some*
        vector in the top eigenspace."""
        dense = np.diag([2.0, 2.0, 1.0])
        t = SymmetricTensor.from_dense(dense)
        res = sshopm(t, alpha=suggested_shift(t), rng=3, tol=1e-13, max_iters=4000)
        assert res.converged
        assert np.isclose(res.eigenvalue, 2.0, atol=1e-8)
        assert abs(res.eigenvector[2]) < 1e-4

    def test_sign_symmetric_tensor(self, rng):
        """Odd-order tensor: lambda and -lambda spectra mirror; dedupe
        canonicalizes to lambda >= 0."""
        from repro.core.solve import find_eigenpairs

        t = random_symmetric_tensor(3, 3, rng=rng)
        pairs = find_eigenpairs(t, num_starts=64, alpha=suggested_shift(t),
                                rng=4, max_iters=4000)
        assert all(p.eigenvalue >= -1e-12 for p in pairs)
