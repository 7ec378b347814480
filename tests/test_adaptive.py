"""Tests for the adaptive-shift (GEAP-style) SS-HOPM extension."""

import numpy as np
import pytest

from repro.solvers.adaptive import adaptive_sshopm
from repro.core.eigenpairs import classify_eigenpair
from repro.solvers.sshopm import sshopm, suggested_shift
from repro.symtensor.random import kolda_mayo_example_3x3x3, random_symmetric_tensor
from repro.util.rng import random_unit_vector


class TestAdaptiveConvergence:
    def test_monotone_ascent(self, rng):
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        res = adaptive_sshopm(tensor, rng=rng, tol=1e-14, max_iters=1000)
        assert res.converged
        hist = np.array(res.lambda_history)
        assert np.all(np.diff(hist) >= -1e-9)

    def test_monotone_descent_for_min_mode(self, rng):
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        res = adaptive_sshopm(tensor, mode="min", rng=rng, tol=1e-14, max_iters=1000)
        assert res.converged
        hist = np.array(res.lambda_history)
        assert np.all(np.diff(hist) <= 1e-9)

    def test_residual_small(self, rng):
        for m, n in [(3, 3), (4, 3), (4, 4)]:
            tensor = random_symmetric_tensor(m, n, rng=rng)
            res = adaptive_sshopm(tensor, rng=rng, tol=1e-14, max_iters=2000)
            assert res.converged
            assert res.residual < 1e-6

    def test_finds_local_maximum(self, rng):
        """mode='max' fixed points should be positive stable (or degenerate)."""
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        res = adaptive_sshopm(tensor, rng=rng, tol=1e-14, max_iters=2000)
        label = classify_eigenpair(tensor, res.eigenvalue, res.eigenvector)
        assert label in {"pos_stable", "degenerate"}

    def test_converges_faster_than_conservative_shift(self):
        """The conservative fixed shift slows convergence (the tradeoff the
        paper notes in Section V-A); the adaptive shift should need fewer
        iterations on average."""
        tensor = kolda_mayo_example_3x3x3()
        alpha = suggested_shift(tensor)
        fixed_iters, adaptive_iters = [], []
        for seed in range(10):
            x0 = random_unit_vector(3, rng=seed)
            f = sshopm(tensor, x0=x0, alpha=alpha, tol=1e-12, max_iters=20000)
            a = adaptive_sshopm(tensor, x0=x0, tol=1e-12, max_iters=20000)
            if f.converged and a.converged:
                fixed_iters.append(f.iterations)
                adaptive_iters.append(a.iterations)
        assert len(adaptive_iters) >= 5
        assert np.mean(adaptive_iters) < np.mean(fixed_iters)

    def test_matrix_case(self, rng):
        tensor = random_symmetric_tensor(2, 5, rng=rng)
        w, _ = np.linalg.eigh(tensor.to_dense())
        res = adaptive_sshopm(tensor, rng=rng, tol=1e-14, max_iters=5000)
        assert res.converged
        # converges to *an* eigenvalue that is a local max of the Rayleigh
        # quotient — for matrices only the largest qualifies
        assert abs(res.eigenvalue - w[-1]) < 1e-6


class TestAdaptiveOptions:
    def test_bad_mode(self, rng):
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        with pytest.raises(ValueError):
            adaptive_sshopm(tensor, mode="saddle")

    def test_zero_start_rejected(self, rng):
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        with pytest.raises(ValueError):
            adaptive_sshopm(tensor, x0=np.zeros(3))

    def test_kernel_variant_selectable(self, rng):
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        x0 = random_unit_vector(3, rng=rng)
        a = adaptive_sshopm(tensor, x0=x0, kernels="compressed", tol=1e-13)
        b = adaptive_sshopm(tensor, x0=x0, kernels="unrolled", tol=1e-13)
        assert np.isclose(a.eigenvalue, b.eigenvalue, atol=1e-10)
