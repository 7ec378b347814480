"""Tests for multistart SS-HOPM on the fleet engine (the GPU-shaped
computation), its starting vectors, and its equivalence with per-start
sequential SS-HOPM."""

import numpy as np
import pytest

from repro.engine.fleet import fleet_solve
from repro.solvers.sshopm import sshopm, suggested_shift
from repro.symtensor.random import random_symmetric_batch, random_symmetric_tensor
from repro.util.flopcount import FlopCounter
from repro.util.rng import starting_vectors


class TestStartingVectors:
    def test_random_scheme_unit_norm(self):
        starts = starting_vectors(64, 3, scheme="random", rng=0)
        assert starts.shape == (64, 3)
        assert np.allclose(np.linalg.norm(starts, axis=1), 1.0)

    def test_fibonacci_scheme(self):
        starts = starting_vectors(32, 3, scheme="fibonacci")
        assert starts.shape == (32, 3)
        assert np.allclose(np.linalg.norm(starts, axis=1), 1.0, atol=1e-12)

    def test_fibonacci_requires_n3(self):
        with pytest.raises(ValueError):
            starting_vectors(16, 4, scheme="fibonacci")

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            starting_vectors(16, 3, scheme="halton")

    def test_deterministic_with_seed(self):
        a = starting_vectors(8, 3, rng=42)
        b = starting_vectors(8, 3, rng=42)
        assert np.array_equal(a, b)


class TestLockstepEquivalence:
    def test_matches_sequential_sshopm(self, rng):
        """Each (tensor, start) lane of the batched driver must land on the
        same eigenpair as a sequential SS-HOPM run from the same start."""
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        alpha = suggested_shift(tensor)
        starts = starting_vectors(6, 3, rng=1)
        batch_res = fleet_solve(
            tensor, starts=starts, alpha=alpha, tol=1e-13, max_iters=2000
        )
        for v in range(6):
            seq = sshopm(tensor, x0=starts[v], alpha=alpha, tol=1e-13, max_iters=2000)
            assert np.isclose(batch_res.eigenvalues[0, v], seq.eigenvalue, atol=1e-9)
            assert np.allclose(
                batch_res.eigenvectors[0, v], seq.eigenvector, atol=1e-6
            )

    def test_backends_agree(self, rng):
        batch = random_symmetric_batch(5, 4, 3, rng=rng)
        starts = starting_vectors(8, 3, rng=2)
        a = fleet_solve(batch, starts=starts, alpha=5.0, variant="vectorized",
                        tol=1e-12, max_iters=1500)
        b = fleet_solve(batch, starts=starts, alpha=5.0, variant="unrolled",
                        tol=1e-12, max_iters=1500)
        assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-10)
        assert np.allclose(a.eigenvectors, b.eigenvectors, atol=1e-8)
        assert np.array_equal(a.converged, b.converged)


class TestConvergenceBehavior:
    def test_all_converge_with_big_shift(self, rng):
        batch = random_symmetric_batch(8, 4, 3, rng=rng)
        alphas = [suggested_shift(batch[t]) for t in range(8)]
        res = fleet_solve(batch, num_starts=16, alpha=max(alphas),
                          rng=3, tol=1e-11, max_iters=4000)
        assert res.converged.all()
        # all converged lanes satisfy the eigenpair equation
        from repro.kernels.batched import ax_m1_batched

        r = ax_m1_batched(batch.values[:, None, :], res.eigenvectors)
        resid = np.linalg.norm(r - res.eigenvalues[..., None] * res.eigenvectors, axis=-1)
        # |delta lambda| < tol does not bound the residual equally tightly
        # when the shift is large (slow contraction); allow slack
        assert resid[res.converged].max() < 1e-4

    def test_frozen_lanes_do_not_drift(self, rng):
        """Once converged, extra sweeps must not change a lane's result."""
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        starts = starting_vectors(4, 3, rng=5)
        short = fleet_solve(tensor, starts=starts, alpha=10.0, tol=1e-12, max_iters=400)
        long = fleet_solve(tensor, starts=starts, alpha=10.0, tol=1e-12, max_iters=4000)
        conv = short.converged[0]
        assert np.allclose(
            short.eigenvalues[0, conv], long.eigenvalues[0, conv], atol=1e-12
        )

    def test_iterations_counted_per_lane(self, rng):
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        res = fleet_solve(tensor, num_starts=8, alpha=10.0, rng=6,
                          tol=1e-12, max_iters=2000)
        assert res.iterations.shape == (1, 8)
        assert np.all(res.iterations[res.converged] >= 1)
        assert res.sweeps >= res.iterations.max()

    def test_unit_norm_outputs(self, rng):
        batch = random_symmetric_batch(3, 3, 3, rng=rng)
        res = fleet_solve(batch, num_starts=10, alpha=8.0, rng=7, max_iters=2000)
        norms = np.linalg.norm(res.eigenvectors, axis=-1)
        assert np.allclose(norms, 1.0, atol=1e-10)

    def test_max_iter_zero_sweeps(self, rng):
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        res = fleet_solve(tensor, num_starts=4, rng=8, max_iters=0)
        assert res.sweeps == 0
        assert not res.converged.any()


class TestInputs:
    def test_single_tensor_promoted_to_batch(self, rng):
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        res = fleet_solve(tensor, num_starts=4, rng=9, max_iters=50)
        assert res.num_tensors == 1
        assert res.num_starts == 4

    def test_explicit_starts_normalized(self, rng):
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        starts = np.array([[2.0, 0, 0], [0, 3.0, 0]])
        res = fleet_solve(tensor, starts=starts, alpha=5.0, max_iters=500)
        assert res.num_starts == 2

    def test_bad_starts_shape(self, rng):
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        with pytest.raises(ValueError):
            fleet_solve(tensor, starts=np.zeros((4, 2)))

    def test_zero_start_rejected(self, rng):
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        with pytest.raises(ValueError):
            fleet_solve(tensor, starts=np.zeros((2, 3)))

    def test_unknown_backend(self, rng):
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        with pytest.raises(ValueError):
            fleet_solve(tensor, variant="cuda")

    def test_float32_lockstep(self, rng):
        """Paper runs in single precision; driver must support it."""
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        res = fleet_solve(tensor, num_starts=8, alpha=10.0, rng=10,
                          dtype=np.float32, tol=1e-5, max_iters=2000)
        assert res.eigenvectors.dtype == np.float32
        assert res.converged.any()

    def test_flop_counter(self, rng):
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        counter = FlopCounter()
        fleet_solve(tensor, num_starts=4, rng=11, max_iters=20, counter=counter)
        assert counter.flops > 0
