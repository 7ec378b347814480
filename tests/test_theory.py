"""Tests for the SS-HOPM fixed-point convergence theory."""

import numpy as np
import pytest

from repro.core.eigenpairs import classify_eigenpair
from repro.core.solve import find_eigenpairs
from repro.solvers.sshopm import sshopm, suggested_shift
from repro.core.theory import (
    analyze_fixed_point,
    estimate_rate,
    is_attracting,
    minimal_attracting_shift,
)
from repro.symtensor.random import random_odeco_tensor, random_symmetric_tensor
from repro.util.rng import random_unit_vector


@pytest.fixture(scope="module")
def tensor_and_pairs():
    t = random_symmetric_tensor(4, 3, rng=42)
    pairs = find_eigenpairs(t, num_starts=128, alpha=suggested_shift(t),
                            rng=1, tol=1e-14, max_iters=5000)
    return t, pairs


class TestAnalysis:
    def test_rate_below_one_with_conservative_shift(self, tensor_and_pairs):
        t, pairs = tensor_and_pairs
        alpha = suggested_shift(t)
        for p in pairs:
            if p.stability != "pos_stable":
                continue
            ana = analyze_fixed_point(t, p.eigenvalue, p.eigenvector, alpha)
            assert ana.attracting
            assert 0 <= ana.rate < 1

    def test_conservative_shift_slows_rate(self, tensor_and_pairs):
        """Larger shifts push the multiplier toward 1 — the quantitative
        form of the paper's Section V-A convergence/speed tradeoff."""
        t, pairs = tensor_and_pairs
        p = pairs[0]
        small = analyze_fixed_point(t, p.eigenvalue, p.eigenvector, 2.0)
        big = analyze_fixed_point(t, p.eigenvalue, p.eigenvector, 200.0)
        assert small.rate < big.rate < 1.0

    def test_predicted_rate_matches_measurement(self, tensor_and_pairs):
        """Measured geometric decay of |lambda_k - lambda_inf| equals
        rho^2 (eigenvalue error quadratic in eigenvector error)."""
        t, pairs = tensor_and_pairs
        p = pairs[0]
        alpha = suggested_shift(t)
        ana = analyze_fixed_point(t, p.eigenvalue, p.eigenvector, alpha)
        x0 = p.eigenvector + 0.05 * random_unit_vector(3, rng=3)
        res = sshopm(t, x0=x0, alpha=alpha, tol=1e-15, max_iters=8000)
        measured = estimate_rate(res.lambda_history)
        assert np.isfinite(measured)
        assert abs(measured - ana.rate**2) < 0.05

    def test_matrix_power_method_rate(self, rng):
        """m=2 sanity: the classical power-method rate
        |mu_2 + alpha| / |mu_1 + alpha| falls out of the same analysis."""
        t = random_symmetric_tensor(2, 4, rng=rng)
        w, V = np.linalg.eigh(t.to_dense())
        alpha = suggested_shift(t)
        ana = analyze_fixed_point(t, w[-1], V[:, -1], alpha)
        expected = max(abs(wi + alpha) for wi in w[:-1]) / abs(w[-1] + alpha)
        assert np.isclose(ana.rate, expected, atol=1e-8)


class TestAttraction:
    def test_pos_stable_iff_finitely_shiftable(self, tensor_and_pairs):
        """A pair can be made attracting by some finite nonnegative shift
        exactly when it is positive stable."""
        t, pairs = tensor_and_pairs
        for p in pairs:
            a_min = minimal_attracting_shift(t, p.eigenvalue, p.eigenvector)
            label = classify_eigenpair(t, p.eigenvalue, p.eigenvector)
            if label == "pos_stable":
                assert np.isfinite(a_min)
            elif label in ("neg_stable", "unstable"):
                assert np.isinf(a_min)

    def test_minimal_shift_is_tight(self, tensor_and_pairs):
        """Just above the minimal shift the pair attracts; well below a
        positive threshold it does not."""
        t, pairs = tensor_and_pairs
        for p in pairs:
            a_min = minimal_attracting_shift(t, p.eigenvalue, p.eigenvector,
                                             margin=1e-9)
            if not np.isfinite(a_min):
                continue
            assert is_attracting(t, p.eigenvalue, p.eigenvector, a_min + 1e-6)
            if a_min > 1e-3:
                assert not is_attracting(t, p.eigenvalue, p.eigenvector,
                                         a_min - 1e-3)

    def test_minimal_shift_below_conservative(self, tensor_and_pairs):
        """The pointwise minimal shift is far below the provable global
        bound — why adaptive shifting is faster."""
        t, pairs = tensor_and_pairs
        conservative = suggested_shift(t)
        for p in pairs:
            a_min = minimal_attracting_shift(t, p.eigenvalue, p.eigenvector)
            if np.isfinite(a_min):
                assert a_min < conservative / 5

    def test_empirical_attraction_boundary(self, rng):
        """Run the iteration from a nearby start on both sides of the
        predicted threshold for a pair with a_min > 0."""
        t, pairs = random_symmetric_tensor(4, 3, rng=11), None
        pairs = find_eigenpairs(t, num_starts=96, alpha=suggested_shift(t),
                                rng=12, tol=1e-14, max_iters=5000)
        target = None
        for p in pairs:
            a_min = minimal_attracting_shift(t, p.eigenvalue, p.eigenvector)
            if np.isfinite(a_min) and a_min > 0.05:
                target = (p, a_min)
                break
        if target is None:
            pytest.skip("no pair with a positive attraction threshold")
        p, a_min = target
        x0 = p.eigenvector + 0.02 * random_unit_vector(3, rng=13)
        above = sshopm(t, x0=x0, alpha=a_min + 0.2, tol=1e-13, max_iters=20000)
        assert abs(above.eigenvalue - p.eigenvalue) < 1e-6

    def test_odeco_components_attracting_unshifted(self, rng):
        """For odeco tensors with positive weights, every component of an
        even-order tensor attracts the *unshifted* iteration when its
        weight dominates the tangent spectrum (mu_i = 0 there)."""
        tensor, basis, weights = random_odeco_tensor(4, 3, rng=rng)
        for w, u in zip(weights, basis):
            ana = analyze_fixed_point(tensor, w, u, 0.0)
            assert np.allclose(ana.tangent_eigenvalues, 0.0, atol=1e-9)
            assert ana.attracting


class TestRateEstimator:
    def test_clean_geometric_sequence(self):
        """Finite-history bias (the limit is taken as hist[-1]) keeps the
        estimate within a few percent of the true rate."""
        rho = 0.8
        hist = [1.0 - rho**k for k in range(80)]
        assert abs(estimate_rate(hist) - rho) < 0.02

    def test_short_history_nan(self):
        assert np.isnan(estimate_rate([1.0, 2.0]))

    def test_converged_history_nan(self):
        assert np.isnan(estimate_rate([2.0] * 30))
