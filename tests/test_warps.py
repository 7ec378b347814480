"""Tests for SIMT warp-divergence accounting."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.gpu.perfmodel import predict_sshopm
from repro.gpu.warps import divergence_adjusted_iterations, warp_profile


class TestWarpProfile:
    def test_uniform_lanes_full_efficiency(self):
        iters = np.full((4, 64), 25)
        prof = warp_profile(iters)
        assert prof.simt_efficiency == 1.0
        assert np.all(prof.warp_iterations == 25)
        assert np.all(prof.block_iterations == 50)  # 2 warps x 25

    def test_divergent_lanes_lose_efficiency(self):
        iters = np.full((1, 32), 10)
        iters[0, 0] = 40  # one slow lane stalls the whole warp
        prof = warp_profile(iters)
        assert np.isclose(prof.warp_iterations[0, 0], 40)
        useful = 31 * 10 + 40
        issued = 40 * 32
        assert np.isclose(prof.simt_efficiency, useful / issued)

    def test_warp_boundaries_respected(self):
        """Fast lanes in one warp are not stalled by a slow lane in another."""
        iters = np.full((1, 64), 10)
        iters[0, 0] = 100  # slow lane in warp 0 only
        prof = warp_profile(iters)
        assert prof.warp_iterations[0, 0] == 100
        assert prof.warp_iterations[0, 1] == 10

    def test_ragged_final_warp(self):
        iters = np.full((2, 40), 5)  # 32 + 8 lanes
        prof = warp_profile(iters)
        assert prof.warp_iterations.shape == (2, 2)
        assert prof.simt_efficiency == 1.0

    def test_summary_stats(self):
        iters = np.array([[1, 2], [3, 4]])
        prof = warp_profile(iters, warp_size=2)
        assert prof.mean_iterations == 2.5
        assert prof.max_iterations == 4

    def test_validation(self):
        with pytest.raises(ValueError):
            warp_profile(np.ones(5))
        with pytest.raises(ValueError):
            warp_profile(np.ones((2, 4)), warp_size=0)
        with pytest.raises(ValueError):
            warp_profile(np.array([[1, -1]]))

    @given(
        arrays(np.int64, (3, 37), elements=st.integers(1, 200)),
        st.sampled_from([1, 4, 32, 64]),
    )
    @settings(max_examples=30)
    def test_efficiency_bounds_property(self, iters, warp_size):
        prof = warp_profile(iters, warp_size=warp_size)
        assert 0 < prof.simt_efficiency <= 1.0
        # warp max >= lane mean; block work >= per-warp mean work
        assert prof.warp_iterations.max() <= prof.max_iterations
        if warp_size == 1:
            # scalar "warps": no divergence possible
            assert np.isclose(prof.simt_efficiency, 1.0)

    @given(arrays(np.int64, (2, 64), elements=st.integers(1, 50)))
    @settings(max_examples=30)
    def test_adjusted_iterations_dominate_mean(self, iters):
        """Divergence can only add work: warp-adjusted per-block iterations
        are >= the block's lane-mean iterations."""
        adj = divergence_adjusted_iterations(iters)
        lane_mean = iters.mean(axis=1)
        assert np.all(adj >= lane_mean - 1e-9)


class TestModelIntegration:
    def test_divergence_slows_prediction(self):
        rng = np.random.default_rng(0)
        uniform = np.full((256, 128), 20.0)
        ragged = rng.integers(5, 60, size=(256, 128)).astype(float)
        ragged *= 20.0 / ragged.mean()  # same mean work
        t_uniform = predict_sshopm(
            num_tensors=256, iterations=divergence_adjusted_iterations(uniform)
        ).seconds
        t_ragged = predict_sshopm(
            num_tensors=256, iterations=divergence_adjusted_iterations(ragged)
        ).seconds
        assert t_ragged > t_uniform

    def test_real_solver_divergence(self, rng):
        """Measured convergence data from the actual solver feeds through."""
        from repro.engine.fleet import fleet_solve
        from repro.symtensor.random import random_symmetric_batch

        batch = random_symmetric_batch(16, 4, 3, rng=rng)
        res = fleet_solve(batch, num_starts=64, alpha=3.0, rng=1,
                          tol=1e-8, max_iters=500)
        iters = np.maximum(res.iterations, 1)
        prof = warp_profile(iters)
        assert 0 < prof.simt_efficiency <= 1.0
        pred = predict_sshopm(
            num_tensors=16, iterations=divergence_adjusted_iterations(iters)
        )
        assert pred.seconds > 0
