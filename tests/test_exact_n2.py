"""Tests for the exact n=2 eigenpair solver (polynomial oracle)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact import eigen_polynomial_n2, exact_eigenpairs_n2
from repro.core.solve import find_eigenpairs
from repro.solvers.sshopm import sshopm, suggested_shift
from repro.symtensor.random import random_symmetric_tensor
from repro.symtensor.storage import SymmetricTensor, symmetric_outer_power


class TestPolynomial:
    def test_degree(self, rng):
        for m in (2, 3, 4, 5, 6):
            t = random_symmetric_tensor(m, 2, rng=rng)
            assert eigen_polynomial_n2(t).shape == (m + 1,)

    def test_requires_n2(self, rng):
        t = random_symmetric_tensor(3, 3, rng=rng)
        with pytest.raises(ValueError):
            eigen_polynomial_n2(t)

    def test_roots_satisfy_eigen_equation(self, rng):
        """Every real root of the polynomial gives a true eigenpair."""
        t = random_symmetric_tensor(4, 2, rng=rng)
        pairs = exact_eigenpairs_n2(t)
        assert pairs  # even order always has real pairs
        for p in pairs:
            assert p.residual < 1e-10

    def test_matrix_case_matches_eigh(self, rng):
        t = random_symmetric_tensor(2, 2, rng=rng)
        w, V = np.linalg.eigh(t.to_dense())
        pairs = exact_eigenpairs_n2(t)
        lams = sorted(p.eigenvalue for p in pairs)
        assert np.allclose(lams, w, atol=1e-12)

    def test_rank_one_known_roots(self, rng):
        """A = e_2^{(x)4}: eigenvectors are e_2 (lambda 1) and e_1
        (lambda 0, in the kernel)."""
        t = symmetric_outer_power(np.array([0.0, 1.0]), 4)
        pairs = exact_eigenpairs_n2(t)
        lams = sorted(round(p.eigenvalue, 10) for p in pairs)
        assert 1.0 in lams
        assert 0.0 in lams

    def test_root_at_infinity_handled(self):
        """A tensor whose polynomial has vanishing leading coefficient:
        x = (0, 1) must still be reported when it is an eigenvector."""
        # e_1^{(x)4}: eigenvectors e_1 (lambda 1) and e_2 (lambda 0, the
        # root at infinity of p(s))
        t = symmetric_outer_power(np.array([1.0, 0.0]), 4)
        pairs = exact_eigenpairs_n2(t)
        vecs = [tuple(np.round(np.abs(p.eigenvector), 8)) for p in pairs]
        assert (0.0, 1.0) in vecs
        assert (1.0, 0.0) in vecs


class TestAsOracle:
    @given(st.integers(3, 6), st.integers(0, 10**6))
    @settings(max_examples=15)
    def test_sshopm_results_among_exact_roots(self, m, seed):
        t = random_symmetric_tensor(m, 2, rng=seed)
        exact = exact_eigenpairs_n2(t)
        res = sshopm(t, alpha=suggested_shift(t), rng=seed, tol=1e-14, max_iters=8000)
        if not res.converged or res.residual > 1e-7:
            return
        from repro.core.eigenpairs import canonicalize_sign

        lam, _ = canonicalize_sign(res.eigenvalue, res.eigenvector, m)
        assert any(abs(lam - p.eigenvalue) < 1e-6 for p in exact), (
            lam,
            [p.eigenvalue for p in exact],
        )

    def test_multistart_finds_all_stable_roots(self, rng):
        """Every positive-stable exact root should be reachable by enough
        convex-shifted starts (even order)."""
        t = random_symmetric_tensor(4, 2, rng=rng)
        exact = exact_eigenpairs_n2(t)
        stable = [p for p in exact if p.stability == "pos_stable"]
        found = find_eigenpairs(t, num_starts=200, alpha=suggested_shift(t),
                                rng=rng, tol=1e-13, max_iters=6000)
        for p in stable:
            assert any(abs(f.eigenvalue - p.eigenvalue) < 1e-6 for f in found)

    def test_count_bounded_by_cartwright_sturmfels(self, rng):
        """n=2: at most m distinct eigenpairs over C, so at most m real."""
        for m in (3, 4, 5, 6, 7):
            t = random_symmetric_tensor(m, 2, rng=rng)
            pairs = exact_eigenpairs_n2(t)
            assert len(pairs) <= m

    def test_classification_present(self, rng):
        t = random_symmetric_tensor(4, 2, rng=rng)
        for p in exact_eigenpairs_n2(t):
            assert p.stability in {"pos_stable", "neg_stable", "unstable", "degenerate"}
        for p in exact_eigenpairs_n2(t, classify=False):
            assert p.stability == ""
