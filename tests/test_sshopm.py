"""Tests for SS-HOPM (Figure 1): convergence, eigenpair residuals, shift
behavior, matrix-case ground truth, kernel-variant independence."""

import numpy as np
import pytest

import repro
from repro.core.eigenpairs import eigen_residual, hessian_matrix
from repro.solvers.adaptive import adaptive_sshopm
from repro.solvers.geap import geap, projected_shift
from repro.solvers.sshopm import sshopm, suggested_shift
from repro.kernels.dispatch import get_kernels
from repro.symtensor.random import (
    identity_like_tensor,
    kolda_mayo_example_3x3x3,
    random_symmetric_tensor,
    rank_one_tensor,
)
from repro.symtensor.storage import SymmetricTensor
from repro.util.flopcount import FlopCounter
from repro.util.rng import random_unit_vector


class TestMatrixCase:
    def test_converges_to_principal_eigenpair(self, rng):
        """m=2 with a convexity shift: the power method on A + alpha I,
        converging to the largest eigenvalue of A."""
        tensor = random_symmetric_tensor(2, 6, rng=rng)
        w, V = np.linalg.eigh(tensor.to_dense())
        res = sshopm(tensor, alpha=suggested_shift(tensor), rng=rng, max_iters=5000, tol=1e-14)
        assert res.converged
        assert abs(res.eigenvalue - w[-1]) < 1e-7
        assert abs(abs(res.eigenvector @ V[:, -1]) - 1) < 1e-5

    def test_negative_shift_finds_smallest(self, rng):
        tensor = random_symmetric_tensor(2, 5, rng=rng)
        w, _ = np.linalg.eigh(tensor.to_dense())
        res = sshopm(tensor, alpha=-suggested_shift(tensor), rng=rng, max_iters=5000, tol=1e-14)
        assert res.converged
        assert abs(res.eigenvalue - w[0]) < 1e-7


class TestEigenpairProperties:
    def test_fixed_point_is_eigenpair(self, rng):
        for m, n in [(3, 3), (4, 3), (4, 4), (5, 2)]:
            tensor = random_symmetric_tensor(m, n, rng=rng)
            res = sshopm(tensor, alpha=suggested_shift(tensor), rng=rng, max_iters=3000, tol=1e-14)
            assert res.converged, (m, n)
            assert res.residual < 1e-6, (m, n, res.residual)
            assert np.isclose(np.linalg.norm(res.eigenvector), 1.0)

    def test_lambda_history_monotone_for_convex_shift(self, rng):
        """Kolda & Mayo: alpha > beta(A) makes lambda_k nondecreasing."""
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        res = sshopm(tensor, alpha=suggested_shift(tensor), rng=rng, max_iters=2000, tol=1e-14)
        hist = np.array(res.lambda_history)
        assert np.all(np.diff(hist) >= -1e-9)

    def test_lambda_history_monotone_decreasing_for_concave_shift(self, rng):
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        res = sshopm(tensor, alpha=-suggested_shift(tensor), rng=rng, max_iters=2000, tol=1e-14)
        hist = np.array(res.lambda_history)
        assert np.all(np.diff(hist) <= 1e-9)

    def test_eigenvector_unit_norm_every_time(self, rng):
        tensor = random_symmetric_tensor(3, 4, rng=rng)
        for seed in range(5):
            res = sshopm(tensor, alpha=suggested_shift(tensor), rng=seed)
            assert np.isclose(np.linalg.norm(res.eigenvector), 1.0, atol=1e-12)


class TestKnownTensors:
    def test_rank_one_principal_pair(self, rng):
        """A = 3 d^{(x)4}: principal eigenpair is (3, d)."""
        d = random_unit_vector(3, rng=rng)
        tensor = rank_one_tensor(d, 4, weight=3.0)
        res = sshopm(tensor, x0=d + 0.1 * random_unit_vector(3, rng=rng),
                     alpha=suggested_shift(tensor), max_iters=2000, tol=1e-14)
        assert res.converged
        assert abs(res.eigenvalue - 3.0) < 1e-8
        assert abs(abs(res.eigenvector @ d) - 1.0) < 1e-6

    def test_identity_like_tensor_any_start(self, rng):
        """E x^{m-1} = x on the sphere: every unit vector is an eigenvector
        with eigenvalue 1, so SS-HOPM converges immediately."""
        tensor = identity_like_tensor(4, 3)
        x0 = random_unit_vector(3, rng=rng)
        res = sshopm(tensor, x0=x0, alpha=0.0, tol=1e-12)
        assert res.converged
        assert abs(res.eigenvalue - 1.0) < 1e-10
        assert res.iterations <= 2

    def test_kolda_mayo_spectrum(self):
        """The documented spectrum of the fixed example tensor."""
        tensor = kolda_mayo_example_3x3x3()
        found = set()
        for seed in range(30):
            res = sshopm(tensor, alpha=suggested_shift(tensor), rng=seed,
                         max_iters=5000, tol=1e-14)
            if res.converged and res.residual < 1e-6:
                found.add(round(res.eigenvalue, 3))
        assert 0.873 in found  # the principal eigenvalue is always reachable

    def test_zero_tensor_terminates(self):
        tensor = SymmetricTensor.zeros(4, 3)
        res = sshopm(tensor, alpha=0.0, rng=0, max_iters=50)
        assert not res.converged  # A x^{m-1} = 0 kills the iteration
        assert res.iterations <= 1


class TestOptions:
    def test_kernel_variants_agree(self, rng):
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        x0 = random_unit_vector(3, rng=rng)
        alpha = suggested_shift(tensor)
        results = [
            sshopm(tensor, x0=x0, alpha=alpha, kernels=name, max_iters=500, tol=1e-13)
            for name in ("compressed", "precomputed", "unrolled", "vectorized")
        ]
        for r in results[1:]:
            assert np.isclose(r.eigenvalue, results[0].eigenvalue, atol=1e-10)
            assert np.allclose(r.eigenvector, results[0].eigenvector, atol=1e-8)

    def test_explicit_kernel_pair(self, rng):
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        pair = get_kernels("precomputed")
        res = sshopm(tensor, kernels=pair, alpha=suggested_shift(tensor), rng=1)
        assert res.converged

    def test_max_iter_respected(self, rng):
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        res = sshopm(tensor, alpha=suggested_shift(tensor), rng=rng, max_iters=3, tol=0.0)
        assert res.iterations == 3
        assert not res.converged

    def test_flop_counter_accumulates(self, rng):
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        counter = FlopCounter()
        res = sshopm(tensor, alpha=1.0, rng=rng, counter=counter, max_iters=100)
        assert counter.flops > 0

    def test_untraced_counter_charges_the_kernels(self):
        """A caller's counter receives the kernels' cost-model charges
        whether or not a recorder is active, not only the update's
        ``4n + 1`` flops per iteration."""
        from repro.instrument import recording

        tensor = random_symmetric_tensor(4, 3, rng=0)
        opts = dict(alpha=2.0, tol=0.0, max_iters=10, rng=0, telemetry=False)
        untraced, traced = FlopCounter(), FlopCounter()
        sshopm(tensor, counter=untraced, **opts)
        with recording():
            sshopm(tensor, counter=traced, **opts)
        assert untraced.snapshot() == traced.snapshot()
        assert untraced.flops > 10 * (4 * 3 + 1)

    def test_x0_validation(self, rng):
        tensor = random_symmetric_tensor(3, 3, rng=rng)
        with pytest.raises(ValueError):
            sshopm(tensor, x0=np.zeros(3))
        with pytest.raises(ValueError):
            sshopm(tensor, x0=np.ones(4))

    def test_x0_normalized_internally(self, rng):
        tensor = random_symmetric_tensor(3, 3, rng=rng)
        res1 = sshopm(tensor, x0=np.array([3.0, 0.0, 0.0]), alpha=5.0, tol=1e-13)
        res2 = sshopm(tensor, x0=np.array([1.0, 0.0, 0.0]), alpha=5.0, tol=1e-13)
        assert np.isclose(res1.eigenvalue, res2.eigenvalue)


class TestSuggestedShift:
    def test_dominates_frobenius(self, size, rng):
        m, n = size
        tensor = random_symmetric_tensor(m, n, rng=rng)
        assert suggested_shift(tensor) >= tensor.frobenius_norm()

    def test_guarantees_convergence_widely(self, rng):
        """With the suggested shift, every random start converges."""
        tensor = random_symmetric_tensor(3, 4, rng=rng)
        alpha = suggested_shift(tensor)
        for seed in range(10):
            res = sshopm(tensor, alpha=alpha, rng=seed, max_iters=10000, tol=1e-12)
            assert res.converged


class TestResultEigenpairs:
    def test_odd_order_pair_is_an_eigenpair(self):
        # without a tensor argument the result must still know m is odd,
        # or the sign canonicalization flips x alone
        tensor = random_symmetric_tensor(3, 4, rng=3)
        res = repro.solve(tensor, rng=3, method="geap").result
        (pair,) = res.eigenpairs(classify=True)
        assert eigen_residual(tensor, pair.eigenvalue, pair.eigenvector) < 1e-4
        assert pair.stability
        assert np.isfinite(pair.residual)


def frozen_shifted_loop(tensor, x0, shift_at, negate, tol=1e-12,
                        max_iters=500):
    """Figure 1 with the shift ``shift_at(x_k)`` chosen before each step:
    ``x_{k+1} = normalize(+-(A x_k^{m-1} + alpha_k x_k))`` (negated when
    ``negate``), ``lambda_{k+1} = A x_{k+1}^m``, stop once lambda moves
    less than ``tol``.  Frozen: ``sshopm``, ``adaptive_sshopm`` and
    ``geap`` must keep matching it bit for bit; never edit it to follow
    them."""
    kernels = get_kernels("precomputed", tensor.m, tensor.n)
    x = np.asarray(x0, dtype=np.float64)
    x = x / np.linalg.norm(x)
    lam = float(kernels.ax_m(tensor, x))
    history = [lam]
    converged = False
    iterations = 0
    for _ in range(max_iters):
        iterations += 1
        alpha = shift_at(x)
        y = np.asarray(kernels.ax_m1(tensor, x))
        x_new = y + alpha * x
        if negate:
            x_new = -x_new
        norm = np.linalg.norm(x_new)
        if norm == 0.0 or not np.isfinite(norm):
            break
        x = x_new / norm
        lam_new = float(kernels.ax_m(tensor, x))
        history.append(lam_new)
        if abs(lam_new - lam) < tol:
            lam = lam_new
            converged = True
            break
        lam = lam_new
    return {"eigenvalue": lam, "eigenvector": x, "iterations": iterations,
            "converged": converged, "lambda_history": history}


def frozen_full_hessian_shift(tensor, tau, mode):
    """``adaptive_sshopm``'s rule: the smallest shift (plus ``tau``) that
    makes ``(m-1) A x^{m-2} + alpha I`` definite."""
    def shift_at(x):
        H = hessian_matrix(tensor, x)
        evals = np.linalg.eigvalsh(0.5 * (H + H.T))
        if mode == "max":
            return max(0.0, tau - float(evals[0]))
        return min(0.0, -(tau + float(evals[-1])))
    return shift_at


@pytest.mark.parametrize("m,n", [(m, n) for m in (3, 4) for n in (2, 3, 4)])
class TestSharedShiftedLoop:
    """All three single-start power solvers against the frozen loop: they
    may share or reorganise their bookkeeping, never their arithmetic."""

    FIELDS = ("eigenvalue", "eigenvector", "iterations", "converged",
              "lambda_history")

    @staticmethod
    def problem(m, n):
        return (random_symmetric_tensor(m, n, rng=10 * m + n),
                random_unit_vector(n, rng=m + n))

    def assert_matches_frozen(self, res, want):
        for field in self.FIELDS:
            assert np.array_equal(np.asarray(getattr(res, field)),
                                  np.asarray(want[field])), field

    @pytest.mark.parametrize("alpha", [2.0, 0.0, -2.0])
    def test_sshopm(self, m, n, alpha):
        tensor, x0 = self.problem(m, n)
        want = frozen_shifted_loop(tensor, x0, lambda x: alpha,
                                   negate=alpha < 0)
        self.assert_matches_frozen(sshopm(tensor, x0=x0, alpha=alpha), want)

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_adaptive_sshopm(self, m, n, mode):
        tensor, x0 = self.problem(m, n)
        want = frozen_shifted_loop(
            tensor, x0, frozen_full_hessian_shift(tensor, 1e-6, mode),
            negate=mode == "min")
        self.assert_matches_frozen(
            adaptive_sshopm(tensor, x0=x0, mode=mode), want)

    @pytest.mark.parametrize("mode", ["max", "min"])
    def test_geap(self, m, n, mode):
        tensor, x0 = self.problem(m, n)
        want = frozen_shifted_loop(
            tensor, x0, lambda x: projected_shift(tensor, x, 1e-6, mode),
            negate=mode == "min")
        self.assert_matches_frozen(geap(tensor, x0=x0, mode=mode), want)
