"""Odeco (orthogonally decomposable) tensors: exact ground truth for the
eigen-solvers.

For ``A = sum_i w_i u_i^{(x)m}`` with orthonormal ``u_i`` and distinct
positive weights, each ``(w_i, u_i)`` is an exact eigenpair, and for even
``m`` each is an attracting point of the (shifted) power iteration.  These
tests pin the whole solver stack against that analytic truth.
"""

import numpy as np
import pytest

from repro.core.eigenpairs import classify_eigenpair, eigen_residual
from repro.core.solve import find_eigenpairs
from repro.solvers.sshopm import sshopm, suggested_shift
from repro.kernels.compressed import ax_m1_compressed
from repro.symtensor.random import odeco_tensor, random_odeco_tensor


class TestConstruction:
    def test_rejects_nonorthonormal(self):
        basis = np.array([[1.0, 0.0, 0.0], [0.7, 0.7, 0.0]])
        with pytest.raises(ValueError):
            odeco_tensor(basis, np.ones(2), m=4)

    def test_components_are_exact_eigenpairs(self, rng):
        for m in (3, 4, 5):
            tensor, basis, weights = random_odeco_tensor(m, 4, rng=rng)
            for w, u in zip(weights, basis):
                assert np.allclose(ax_m1_compressed(tensor, u), w * u, atol=1e-10)
                assert eigen_residual(tensor, w, u) < 1e-10

    def test_rank_validation(self, rng):
        with pytest.raises(ValueError):
            random_odeco_tensor(4, 3, rank=5, rng=rng)
        with pytest.raises(ValueError):
            random_odeco_tensor(4, 3, rank=0, rng=rng)

    def test_weights_sorted_positive_distinct(self, rng):
        _, _, weights = random_odeco_tensor(4, 5, rng=rng)
        assert np.all(weights > 0)
        assert np.all(np.diff(weights) < 0)

    def test_rank_deficient(self, rng):
        tensor, basis, weights = random_odeco_tensor(4, 5, rank=2, rng=rng)
        assert basis.shape == (2, 5)
        # vectors orthogonal to the span are in the kernel of A x^{m-1}:
        # take a right singular vector beyond the rank
        _, _, vt = np.linalg.svd(basis)
        null_vec = vt[-1]
        assert np.allclose(basis @ null_vec, 0.0, atol=1e-10)
        assert np.allclose(ax_m1_compressed(tensor, null_vec), 0.0, atol=1e-10)


class TestSolverRecovery:
    def test_sshopm_converges_to_a_component(self, rng):
        tensor, basis, weights = random_odeco_tensor(4, 4, rng=rng)
        res = sshopm(tensor, alpha=suggested_shift(tensor), rng=rng,
                     tol=1e-14, max_iters=5000)
        assert res.converged
        errs = [abs(res.eigenvalue - w) for w in weights]
        i = int(np.argmin(errs))
        assert errs[i] < 1e-8
        assert abs(abs(res.eigenvector @ basis[i]) - 1.0) < 1e-6

    def test_multistart_recovers_all_components_even_order(self, rng):
        """Even order: every component is positive stable; enough starts
        reach all of them."""
        tensor, basis, weights = random_odeco_tensor(4, 3, rng=rng)
        pairs = find_eigenpairs(tensor, num_starts=256,
                                alpha=suggested_shift(tensor), rng=rng,
                                tol=1e-13, max_iters=5000)
        stable = [p for p in pairs if p.stability == "pos_stable"]
        assert len(stable) >= 3
        for w, u in zip(weights, basis):
            found = any(
                abs(p.eigenvalue - w) < 1e-6
                and abs(abs(p.eigenvector @ u)) > 1 - 1e-5
                for p in stable
            )
            assert found, (w, [p.eigenvalue for p in stable])

    def test_components_classified_stable(self, rng):
        tensor, basis, weights = random_odeco_tensor(4, 4, rng=rng)
        for w, u in zip(weights, basis):
            assert classify_eigenpair(tensor, w, u) == "pos_stable"

    def test_odd_order_components_recoverable(self, rng):
        tensor, basis, weights = random_odeco_tensor(3, 3, rng=rng)
        pairs = find_eigenpairs(tensor, num_starts=256,
                                alpha=suggested_shift(tensor), rng=rng,
                                tol=1e-13, max_iters=5000)
        lams = [p.eigenvalue for p in pairs]
        # principal component always reachable
        assert any(abs(l - weights[0]) < 1e-6 for l in lams)

    def test_adaptive_sshopm_on_odeco(self, rng):
        from repro.solvers.adaptive import adaptive_sshopm

        tensor, basis, weights = random_odeco_tensor(4, 4, rng=rng)
        res = adaptive_sshopm(tensor, rng=rng, tol=1e-14, max_iters=2000)
        assert res.converged
        assert min(abs(res.eigenvalue - w) for w in weights) < 1e-7

    def test_blocked_kernels_on_odeco(self, rng):
        """Cross-check: blocked kernels reproduce the exact eigen identity."""
        from repro.kernels.blocked import ax_m1_blocked

        tensor, basis, weights = random_odeco_tensor(4, 6, rng=rng)
        for w, u in zip(weights[:2], basis[:2]):
            assert np.allclose(ax_m1_blocked(tensor, u, block_size=3), w * u,
                               atol=1e-10)
