"""Tests for eigenpair utilities: residuals, sign canonicalization, stability
classification, and multistart deduplication."""

import numpy as np
import pytest

from repro.core.eigenpairs import (
    Eigenpair,
    canonicalize_sign,
    classify_eigenpair,
    dedupe_eigenpairs,
    eigen_residual,
    hessian_matrix,
    projected_hessian_eigenvalues,
)
from repro.symtensor.random import (
    kolda_mayo_example_3x3x3,
    random_symmetric_tensor,
    rank_one_tensor,
)
from repro.util.rng import random_unit_vector


class TestResidual:
    def test_zero_for_exact_pair(self, rng):
        """Matrix eigenpairs have zero tensor residual."""
        tensor = random_symmetric_tensor(2, 5, rng=rng)
        w, V = np.linalg.eigh(tensor.to_dense())
        for k in (0, 2, 4):
            assert eigen_residual(tensor, w[k], V[:, k]) < 1e-10

    def test_positive_for_non_pair(self, rng):
        tensor = random_symmetric_tensor(3, 3, rng=rng)
        assert eigen_residual(tensor, 0.5, random_unit_vector(3, rng=rng)) > 1e-3


class TestCanonicalizeSign:
    def test_even_order_flips_vector_only(self):
        lam, x = canonicalize_sign(2.0, np.array([-0.6, 0.8, 0.0]), m=4)
        assert lam == 2.0
        assert x[1] > 0 and np.argmax(np.abs(x)) == 1

    def test_odd_order_prefers_positive_lambda(self):
        lam, x = canonicalize_sign(-1.5, np.array([0.6, -0.8, 0.0]), m=3)
        assert lam == 1.5
        assert np.allclose(x, [-0.6, 0.8, 0.0])

    def test_odd_order_positive_lambda_untouched(self):
        lam, x = canonicalize_sign(1.5, np.array([0.6, -0.8, 0.0]), m=3)
        assert lam == 1.5
        assert np.allclose(x, [0.6, -0.8, 0.0])

    def test_idempotent(self, rng):
        for m in (3, 4):
            lam0, x0 = canonicalize_sign(rng.normal(), random_unit_vector(3, rng=rng), m)
            lam1, x1 = canonicalize_sign(lam0, x0, m)
            assert lam0 == lam1
            assert np.allclose(x0, x1)

    def test_mirror_pairs_collapse(self, rng):
        """(lambda, x) and its order-dependent mirror canonicalize equal."""
        x = random_unit_vector(4, rng=rng)
        lam = 1.25
        # even order: (lam, -x) is the mirror
        a = canonicalize_sign(lam, x, 4)
        b = canonicalize_sign(lam, -x, 4)
        assert np.allclose(a[1], b[1])
        # odd order: (-lam, -x) is the mirror
        a = canonicalize_sign(lam, x, 3)
        b = canonicalize_sign(-lam, -x, 3)
        assert a[0] == b[0]
        assert np.allclose(a[1], b[1])


class TestHessian:
    def test_m2_hessian_is_tensor_itself(self, rng):
        tensor = random_symmetric_tensor(2, 4, rng=rng)
        x = random_unit_vector(4, rng=rng)
        assert np.allclose(hessian_matrix(tensor, x), tensor.to_dense())

    def test_matches_numerical_hessian(self, rng):
        """(m)(m-1) A x^{m-2} is the Hessian of f(x) = A x^m; our
        hessian_matrix is that divided by m."""
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        from repro.kernels.compressed import ax_m_compressed

        x = random_unit_vector(3, rng=rng)
        h = 1e-4
        H_num = np.zeros((3, 3))
        for i in range(3):
            for j in range(3):
                xpp, xpm, xmp, xmm = (x.copy() for _ in range(4))
                xpp[i] += h; xpp[j] += h
                xpm[i] += h; xpm[j] -= h
                xmp[i] -= h; xmp[j] += h
                xmm[i] -= h; xmm[j] -= h
                H_num[i, j] = (
                    ax_m_compressed(tensor, xpp)
                    - ax_m_compressed(tensor, xpm)
                    - ax_m_compressed(tensor, xmp)
                    + ax_m_compressed(tensor, xmm)
                ) / (4 * h * h)
        assert np.allclose(4 * hessian_matrix(tensor, x), H_num, atol=1e-3)


class TestClassification:
    def test_matrix_extremes(self, rng):
        """m=2: largest eigenpair is the max of the Rayleigh quotient
        (pos_stable), smallest the min (neg_stable), middle ones saddles."""
        tensor = random_symmetric_tensor(2, 5, rng=rng)
        w, V = np.linalg.eigh(tensor.to_dense())
        assert classify_eigenpair(tensor, w[-1], V[:, -1]) == "pos_stable"
        assert classify_eigenpair(tensor, w[0], V[:, 0]) == "neg_stable"
        assert classify_eigenpair(tensor, w[2], V[:, 2]) == "unstable"

    def test_rank_one_principal_is_max(self, rng):
        d = random_unit_vector(3, rng=rng)
        tensor = rank_one_tensor(d, 4, weight=2.0)
        assert classify_eigenpair(tensor, 2.0, d) == "pos_stable"

    def test_n1_trivial(self):
        from repro.symtensor.storage import SymmetricTensor

        tensor = SymmetricTensor(np.array([3.0]), 3, 1)
        assert classify_eigenpair(tensor, 3.0, np.array([1.0])) == "pos_stable"

    def test_projected_hessian_dimensions(self, rng):
        tensor = random_symmetric_tensor(4, 4, rng=rng)
        x = random_unit_vector(4, rng=rng)
        evals = projected_hessian_eigenvalues(tensor, 0.3, x)
        assert evals.shape == (3,)
        assert np.all(np.diff(evals) >= 0)


class TestDedupe:
    def test_identical_results_merge(self, rng):
        x = random_unit_vector(3, rng=rng)
        lams = np.array([1.0, 1.0, 1.0])
        vecs = np.stack([x, x, -x])  # even order: -x is the same pair
        pairs = dedupe_eigenpairs(lams, vecs, m=4)
        assert len(pairs) == 1
        assert pairs[0].occurrences == 3

    def test_distinct_pairs_kept(self, rng):
        lams = np.array([1.0, 2.0])
        vecs = np.stack([np.array([1.0, 0, 0]), np.array([0, 1.0, 0])])
        pairs = dedupe_eigenpairs(lams, vecs, m=4)
        assert len(pairs) == 2
        assert pairs[0].eigenvalue == 2.0  # sorted descending

    def test_same_lambda_different_vector_kept(self):
        lams = np.array([1.0, 1.0])
        vecs = np.stack([np.array([1.0, 0, 0]), np.array([0, 0, 1.0])])
        pairs = dedupe_eigenpairs(lams, vecs, m=4)
        assert len(pairs) == 2

    def test_converged_mask_filters(self, rng):
        lams = np.array([1.0, 5.0])
        vecs = np.stack([random_unit_vector(3, rng=rng) for _ in range(2)])
        pairs = dedupe_eigenpairs(lams, vecs, m=4, converged_mask=np.array([True, False]))
        assert len(pairs) == 1
        assert pairs[0].eigenvalue == 1.0

    def test_odd_order_mirror_merges(self, rng):
        x = random_unit_vector(3, rng=rng)
        pairs = dedupe_eigenpairs(
            np.array([0.7, -0.7]), np.stack([x, -x]), m=3
        )
        assert len(pairs) == 1
        assert pairs[0].eigenvalue == pytest.approx(0.7)

    def test_classification_and_residual_filled(self):
        tensor = kolda_mayo_example_3x3x3()
        from repro.solvers.sshopm import sshopm, suggested_shift

        results = [
            sshopm(tensor, alpha=suggested_shift(tensor), rng=s, max_iters=4000, tol=1e-14)
            for s in range(8)
        ]
        pairs = dedupe_eigenpairs(
            np.array([r.eigenvalue for r in results]),
            np.stack([r.eigenvector for r in results]),
            m=3,
            tensor=tensor,
            classify=True,
        )
        for p in pairs:
            assert p.residual < 1e-6
            assert p.stability in {"pos_stable", "neg_stable", "unstable", "degenerate"}

    def test_repr(self):
        p = Eigenpair(eigenvalue=1.0, eigenvector=np.array([1.0, 0, 0]))
        assert "lambda" in repr(p)

    def test_mismatched_lengths_raise(self):
        with pytest.raises(Exception):
            dedupe_eigenpairs(np.ones(3), np.ones((2, 3)), m=4)
