"""Tests for the batched blocked kernels and their multistart backend."""

import numpy as np
import pytest

from repro.engine.fleet import fleet_solve
from repro.util.rng import starting_vectors
from repro.kernels.blocked import blocking_plan
from repro.kernels.blocked_batched import (
    ax_m1_blocked_batched,
    ax_m_blocked_batched,
    infer_plan,
)
from repro.kernels.compressed import ax_m1_compressed, ax_m_compressed
from repro.symtensor.random import random_symmetric_batch, random_symmetric_tensor
from repro.util.flopcount import FlopCounter


class TestBroadcastSemantics:
    @pytest.mark.parametrize("m,n,b", [(3, 4, 2), (4, 5, 3), (4, 7, 4), (2, 6, 3)])
    def test_crossed_lanes_match_flat_kernels(self, m, n, b, rng):
        batch = random_symmetric_batch(3, m, n, rng=rng)
        X = rng.normal(size=(3, 4, n))  # per-(tensor, lane) vectors
        plan = blocking_plan(m, n, b)
        Y = ax_m_blocked_batched(batch.values[:, None, :], X, plan=plan)
        V = ax_m1_blocked_batched(batch.values[:, None, :], X, plan=plan)
        for t in range(3):
            for v in range(4):
                assert np.isclose(Y[t, v], ax_m_compressed(batch[t], X[t, v]))
                assert np.allclose(V[t, v], ax_m1_compressed(batch[t], X[t, v]))

    def test_shared_starts_broadcast(self, rng):
        batch = random_symmetric_batch(5, 4, 5, rng=rng)
        starts = rng.normal(size=(6, 5))
        Y = ax_m_blocked_batched(batch.values[:, None, :], starts[None], block_size=3)
        assert Y.shape == (5, 6)

    def test_single_pair(self, rng):
        t = random_symmetric_tensor(4, 6, rng=rng)
        x = rng.normal(size=6)
        assert np.isclose(
            float(ax_m_blocked_batched(t.values, x, block_size=3)),
            ax_m_compressed(t, x),
        )
        assert np.allclose(
            ax_m1_blocked_batched(t.values, x, block_size=3),
            ax_m1_compressed(t, x),
        )

    def test_plan_inference(self, rng):
        t = random_symmetric_tensor(5, 4, rng=rng)
        plan = infer_plan(t.values, rng.normal(size=4))
        assert (plan.m, plan.n) == (5, 4)

    def test_inference_failures(self, rng):
        with pytest.raises(ValueError):
            infer_plan(np.zeros(7), np.zeros(3))
        with pytest.raises(ValueError):
            infer_plan(np.zeros(1), np.zeros(1))

    def test_wrong_trailing_dim(self, rng):
        t = random_symmetric_tensor(4, 6, rng=rng)
        plan = blocking_plan(4, 6, 3)
        with pytest.raises(ValueError):
            ax_m_blocked_batched(t.values, np.zeros(5), plan=plan)
        with pytest.raises(ValueError):
            ax_m1_blocked_batched(t.values, np.zeros(5), plan=plan)

    def test_flop_counter_active(self, rng):
        t = random_symmetric_tensor(4, 5, rng=rng)
        c = FlopCounter()
        ax_m_blocked_batched(t.values, rng.normal(size=5), block_size=3, counter=c)
        assert c.flops > 0

    def test_euler_identity_batched(self, rng):
        batch = random_symmetric_batch(4, 4, 6, rng=rng)
        X = rng.normal(size=(4, 3, 6))
        plan = blocking_plan(4, 6, 3)
        Y = ax_m_blocked_batched(batch.values[:, None, :], X, plan=plan)
        V = ax_m1_blocked_batched(batch.values[:, None, :], X, plan=plan)
        assert np.allclose(np.einsum("tvn,tvn->tv", V, X), Y)


class TestMultistartBackend:
    def test_matches_flat_backend(self, rng):
        batch = random_symmetric_batch(4, 4, 5, rng=rng)
        starts = starting_vectors(6, 5, rng=2)
        a = fleet_solve(batch, starts=starts, alpha=8.0, tol=1e-11,
                        max_iters=1500, variant="vectorized")
        b = fleet_solve(batch, starts=starts, alpha=8.0, tol=1e-11,
                        max_iters=1500, variant="blocked")
        assert np.allclose(a.eigenvalues, b.eigenvalues, atol=1e-9)
        assert np.allclose(a.eigenvectors, b.eigenvectors, atol=1e-7)
        assert np.array_equal(a.converged, b.converged)

    def test_large_dimension_multistart(self, rng):
        """The scenario the paper's future work targets: many tensors of a
        size where unrolling is impossible."""
        from repro.solvers.sshopm import suggested_shift

        batch = random_symmetric_batch(6, 4, 10, rng=rng)
        # the conservative shift is provable but very slow at this size;
        # accept partial convergence within the iteration budget
        alpha = max(suggested_shift(batch[t]) for t in range(6))
        res = fleet_solve(batch, num_starts=8, alpha=alpha, rng=3,
                          tol=1e-9, max_iters=3000, variant="blocked")
        assert res.converged.mean() > 0.4
        from repro.kernels.blocked_batched import ax_m1_blocked_batched as axm1

        r = axm1(batch.values[:, None, :], res.eigenvectors, block_size=6)
        resid = np.linalg.norm(
            r - res.eigenvalues[..., None] * res.eigenvectors, axis=-1
        )
        # residual scales with the (large) shift: |dlambda| < tol implies an
        # eigenvector error of roughly tol^(1/2), amplified by (lambda+alpha)
        assert resid[res.converged].max() < 3e-5 * alpha
