"""Tests for Newton eigenpair refinement."""

import numpy as np
import pytest

from repro.core.refine import newton_refine, refine_pairs
from repro.core.solve import find_eigenpairs
from repro.solvers.sshopm import sshopm, suggested_shift
from repro.symtensor.random import random_odeco_tensor, random_symmetric_tensor
from repro.util.rng import random_unit_vector


class TestNewtonRefine:
    def test_polishes_to_machine_precision(self, rng):
        """A loose SS-HOPM result refines to ~1e-14 residual in a few
        steps."""
        t = random_symmetric_tensor(4, 3, rng=rng)
        rough = sshopm(t, alpha=suggested_shift(t), rng=rng, tol=1e-5,
                       max_iters=2000)
        res = newton_refine(t, rough.eigenvalue, rough.eigenvector)
        assert res.converged
        assert res.residual < 1e-12
        assert res.residual < rough.residual

    def test_quadratic_convergence(self, rng):
        """Residuals decay (at least) quadratically once in the basin."""
        t = random_symmetric_tensor(4, 3, rng=rng)
        exact = sshopm(t, alpha=suggested_shift(t), rng=rng, tol=1e-14,
                       max_iters=8000)
        x0 = exact.eigenvector + 1e-3 * random_unit_vector(3, rng=rng)
        res = newton_refine(t, exact.eigenvalue + 1e-3, x0, tol=1e-15)
        h = [r for r in res.residual_history if r > 1e-14]
        for a, b in zip(h, h[1:]):
            assert b < 5 * a * a + 1e-14, h

    def test_exact_pair_zero_iterations(self, rng):
        """Already-converged input: no Newton steps taken."""
        tensor, basis, weights = random_odeco_tensor(4, 3, rng=rng)
        res = newton_refine(tensor, weights[0], basis[0])
        assert res.converged
        assert res.iterations == 0

    def test_matrix_case_matches_eigh(self, rng):
        t = random_symmetric_tensor(2, 5, rng=rng)
        w, V = np.linalg.eigh(t.to_dense())
        res = newton_refine(t, w[2] + 1e-4, V[:, 2] + 1e-4)
        assert res.converged
        assert abs(res.eigenvalue - w[2]) < 1e-10

    def test_unit_norm_output(self, rng):
        t = random_symmetric_tensor(4, 3, rng=rng)
        res = newton_refine(t, 0.5, random_unit_vector(3, rng=rng), max_iter=30)
        assert np.isclose(np.linalg.norm(res.eigenvector), 1.0, atol=1e-12)

    def test_zero_guess_rejected(self, rng):
        t = random_symmetric_tensor(4, 3, rng=rng)
        with pytest.raises(ValueError):
            newton_refine(t, 1.0, np.zeros(3))

    def test_far_guess_does_not_explode(self, rng):
        """From a random point Newton may not converge, but must return
        finite values."""
        t = random_symmetric_tensor(4, 3, rng=rng)
        res = newton_refine(t, 100.0, random_unit_vector(3, rng=rng), max_iter=10)
        assert np.isfinite(res.eigenvalue)
        assert np.all(np.isfinite(res.eigenvector))


class TestRefinePairs:
    def test_improves_whole_spectrum(self, rng):
        t = random_symmetric_tensor(4, 3, rng=rng)
        pairs = find_eigenpairs(t, num_starts=96, alpha=suggested_shift(t),
                                rng=rng, tol=1e-6, max_iters=1500)
        refined = refine_pairs(t, pairs)
        assert len(refined) == len(pairs)
        for before, after in zip(pairs, refined):
            assert after.residual <= before.residual + 1e-15
            assert after.occurrences == before.occurrences
        assert max(p.residual for p in refined) < 1e-11

    def test_two_phase_cheaper_than_tight_sshopm(self, rng):
        """Loose SS-HOPM + Newton reaches a residual a tight SS-HOPM run
        needs far more iterations for."""
        t = random_symmetric_tensor(4, 3, rng=rng)
        alpha = suggested_shift(t)
        x0 = random_unit_vector(3, rng=rng)
        loose = sshopm(t, x0=x0, alpha=alpha, tol=1e-4, max_iters=5000)
        polished = newton_refine(t, loose.eigenvalue, loose.eigenvector)
        tight = sshopm(t, x0=x0, alpha=alpha, tol=1e-14, max_iters=20000)
        assert polished.residual <= tight.residual * 10
        total_cheap = loose.iterations + polished.iterations
        assert total_cheap < tight.iterations / 3
