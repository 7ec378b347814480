"""Tests for the CPU-parallel substrate: partitioning, the sharded fleet
tiers, and the calibrated CPU scaling model."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.util.rng import starting_vectors
from repro.gpu.device import NEHALEM_2S, CpuSpec
from repro.parallel.cpumodel import CpuPerfParams, predict_cpu_sshopm, speedup_curve
from repro.parallel.fleet import parallel_fleet_solve
from repro.parallel.partition import (
    PartitionError,
    chunk_sizes,
    cost_weighted_partition,
    interleaved_partition,
    static_partition,
)
from repro.symtensor.random import random_symmetric_batch


class TestPartition:
    @given(st.integers(0, 500), st.integers(1, 16))
    def test_static_covers_everything_once(self, total, workers):
        if workers > total:
            with pytest.raises(PartitionError):
                static_partition(total, workers)
            return
        ranges = static_partition(total, workers)
        seen = [i for r in ranges for i in r]
        assert seen == list(range(total))
        assert all(len(r) >= 1 for r in ranges)

    @given(st.integers(0, 500), st.integers(1, 16))
    def test_static_balance(self, total, workers):
        sizes = chunk_sizes(total, workers)
        assert sum(sizes) == total
        assert max(sizes) - min(sizes) <= 1

    @given(st.integers(0, 200), st.integers(1, 8))
    def test_interleaved_covers_everything_once(self, total, workers):
        parts = interleaved_partition(total, workers)
        seen = sorted(i for p in parts for i in p)
        assert seen == list(range(total))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            static_partition(5, 0)
        with pytest.raises(ValueError):
            chunk_sizes(-1, 3)
        with pytest.raises(ValueError):
            interleaved_partition(5, 0)

    def test_empty_shards_raise_typed_error(self):
        with pytest.raises(PartitionError, match="clamp workers"):
            static_partition(3, 5)
        with pytest.raises(PartitionError):
            cost_weighted_partition([1.0, 2.0], 3)
        assert issubclass(PartitionError, ValueError)


class TestCostWeightedPartition:
    @given(
        st.lists(st.floats(0.0, 1e9, allow_nan=False), min_size=1, max_size=80),
        st.integers(1, 12),
    )
    def test_covers_everything_once_nonempty(self, weights, workers):
        if workers > len(weights):
            with pytest.raises(PartitionError):
                cost_weighted_partition(weights, workers)
            return
        parts = cost_weighted_partition(weights, workers)
        flat = [i for r in parts for i in r]
        assert flat == list(range(len(weights)))
        assert all(len(r) >= 1 for r in parts)

    def test_uniform_weights_match_static(self):
        assert cost_weighted_partition(np.ones(10), 3) == static_partition(10, 3)

    def test_heavy_item_isolated(self):
        """One dominant item gets its own shard; the rest split the tail."""
        weights = [100.0, 1.0, 1.0, 1.0, 1.0, 1.0]
        parts = cost_weighted_partition(weights, 3)
        assert parts[0] == range(0, 1)

    def test_zero_weights_fall_back_to_static(self):
        assert cost_weighted_partition(np.zeros(6), 2) == static_partition(6, 2)

    def test_invalid_weights(self):
        with pytest.raises(ValueError):
            cost_weighted_partition([[1.0]], 1)
        with pytest.raises(ValueError):
            cost_weighted_partition([1.0, -2.0], 1)
        with pytest.raises(ValueError):
            cost_weighted_partition([1.0, np.inf], 1)
        with pytest.raises(ValueError):
            cost_weighted_partition([1.0], 0)


class TestExecutor:
    """The thread tier of the sharded fleet (the paper's OpenMP loop)."""

    def test_worker_count_invariance(self, rng):
        """The merged result is identical for any worker count (the paper's
        OpenMP loop is embarrassingly parallel)."""
        batch = random_symmetric_batch(9, 4, 3, rng=rng)
        starts = starting_vectors(8, 3, rng=1)
        base = parallel_fleet_solve(batch, workers=1, starts=starts,
                                    alpha=8.0, max_iters=1500)
        for workers in (2, 4, 9):
            rep = parallel_fleet_solve(batch, workers=workers, starts=starts,
                                       alpha=8.0, max_iters=1500,
                                       executor="thread")
            np.testing.assert_array_equal(rep.result.eigenvalues,
                                          base.result.eigenvalues)
            np.testing.assert_array_equal(rep.result.eigenvectors,
                                          base.result.eigenvectors)
            assert np.array_equal(rep.result.converged, base.result.converged)

    def test_chunk_metadata(self, rng):
        batch = random_symmetric_batch(10, 4, 3, rng=rng)
        rep = parallel_fleet_solve(batch, workers=3, num_starts=4, rng=2,
                                   max_iters=100, executor="thread")
        assert rep.workers == 3
        assert sum(rep.shard_sizes) == 10
        assert rep.seconds > 0

    def test_more_workers_than_tensors(self, rng):
        batch = random_symmetric_batch(2, 4, 3, rng=rng)
        with pytest.warns(RuntimeWarning, match="clamping"):
            rep = parallel_fleet_solve(batch, workers=8, num_starts=4, rng=3,
                                       max_iters=100, executor="thread")
        assert sum(rep.shard_sizes) == 2

    def test_invalid_worker_count(self, rng):
        batch = random_symmetric_batch(2, 4, 3, rng=rng)
        with pytest.raises(ValueError):
            parallel_fleet_solve(batch, workers=0)

    def test_thread_tier_honours_config(self, rng):
        """Options left unset come from ``config`` on every tier, exactly as
        :func:`~repro.engine.fleet.fleet_solve` resolves them."""
        from repro.core.config import SolveConfig

        batch = random_symmetric_batch(6, 4, 3, rng=rng)
        for cfg in (SolveConfig(alpha=2.0, tol=1e-4, max_iters=50),
                    SolveConfig(alpha=2.0, tol=0.0, max_iters=30)):
            one = parallel_fleet_solve(batch, workers=1, rng=4, config=cfg)
            two = parallel_fleet_solve(batch, workers=2, rng=4, config=cfg,
                                       executor="thread")
            assert two.result.sweeps <= cfg.max_iters
            assert (two.result.shifts == cfg.alpha).all()
            np.testing.assert_array_equal(two.result.shifts, one.result.shifts)
            np.testing.assert_array_equal(two.result.eigenvalues,
                                          one.result.eigenvalues)
            np.testing.assert_array_equal(two.result.converged,
                                          one.result.converged)
            np.testing.assert_array_equal(two.result.iterations,
                                          one.result.iterations)
        assert not two.result.converged.any()  # tol=0.0 is honoured too

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_auto_resolves_once_for_every_shard(self, monkeypatch):
        """``"auto"`` is resolved to canonical kernel names before any
        shard starts: every thread shard's ``fleet_solve`` and the names
        shipped to process workers are the same canonical pair, so no two
        shards can run different kernels."""
        import repro.engine.fleet as engine
        import repro.parallel.procfleet as procfleet
        from repro.kernels.plan import get_plan

        seen = []

        def recording(real):
            def call(*args, **kwargs):
                seen.append((kwargs["variant"], kwargs["backend"]))
                return real(*args, **kwargs)
            return call

        monkeypatch.setattr(engine, "fleet_solve",
                            recording(engine.fleet_solve))
        monkeypatch.setattr(procfleet, "process_fleet_solve",
                            recording(procfleet.process_fleet_solve))
        from repro.parallel.shm import SHM_AVAILABLE

        batch = random_symmetric_batch(4, 3, 3, rng=1)
        for executor in ("thread", "process") if SHM_AVAILABLE else ("thread",):
            parallel_fleet_solve(batch, workers=2, num_starts=4, rng=0,
                                 alpha=2.0, max_iters=20, variant="auto",
                                 backend="auto", executor=executor,
                                 steal=False)
        plan = get_plan(3, 3, "auto", "auto")
        assert len(seen) == (3 if SHM_AVAILABLE else 2)
        assert set(seen) == {(plan.variant, plan.backend)}


class TestCpuModelAnchors:
    """Table III CPU rows (the calibration targets, recorded here so any
    regression in the model surfaces immediately)."""

    def test_general_rates(self):
        for cores, expected in [(1, 0.24), (4, 0.86), (8, 1.73)]:
            p = predict_cpu_sshopm(1e9, variant="general", cores=cores)
            assert abs(p.gflops - expected) / expected < 0.03, (cores, p.gflops)

    def test_unrolled_rates(self):
        for cores, expected in [(1, 2.05), (4, 7.07), (8, 9.67)]:
            p = predict_cpu_sshopm(1e9, variant="unrolled", cores=cores)
            assert abs(p.gflops - expected) / expected < 0.03, (cores, p.gflops)

    def test_unrolled_sequential_speedup(self):
        """Paper Table III(a): 8.47x sequential unrolling speedup."""
        g = predict_cpu_sshopm(1e9, variant="general", cores=1)
        u = predict_cpu_sshopm(1e9, variant="unrolled", cores=1)
        assert abs(g.seconds / u.seconds - 8.47) / 8.47 < 0.03

    def test_relative_speedups_table3c(self):
        for variant, expected in [("general", {4: 3.55, 8: 7.14}),
                                  ("unrolled", {4: 3.45, 8: 4.72})]:
            for cores, s in expected.items():
                p = predict_cpu_sshopm(1e9, variant=variant, cores=cores)
                assert abs(p.speedup - s) < 0.02, (variant, cores, p.speedup)

    def test_fraction_of_peak_about_nine_percent_unrolled(self):
        """Paper: 9% of peak sequential, 5% at 8 cores."""
        one = predict_cpu_sshopm(1e9, variant="unrolled", cores=1)
        eight = predict_cpu_sshopm(1e9, variant="unrolled", cores=8)
        assert 0.08 < one.fraction_of_peak < 0.10
        assert 0.04 < eight.fraction_of_peak < 0.06


class TestCpuModelShape:
    @given(st.integers(1, 8))
    def test_speedup_monotone_in_cores(self, cores):
        if cores < 8:
            a = predict_cpu_sshopm(1e9, cores=cores).speedup
            b = predict_cpu_sshopm(1e9, cores=cores + 1).speedup
            assert b >= a

    def test_cross_socket_kink(self):
        """Marginal speedup per core drops at the socket boundary for the
        memory-bound unrolled variant."""
        s = [predict_cpu_sshopm(1e9, variant="unrolled", cores=c).speedup
             for c in range(1, 9)]
        intra_marginal = s[3] - s[2]
        inter_marginal = s[5] - s[4]
        assert inter_marginal < intra_marginal

    def test_speedup_curve_one_core_is_unity(self):
        assert speedup_curve(1, 0.9, 0.3, 4) == 1.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            predict_cpu_sshopm(1e9, cores=0)
        with pytest.raises(ValueError):
            predict_cpu_sshopm(1e9, cores=9)
        with pytest.raises(ValueError):
            predict_cpu_sshopm(-5.0)
        with pytest.raises(ValueError):
            predict_cpu_sshopm(1e9, variant="avx512")
        with pytest.raises(ValueError):
            speedup_curve(0, 0.9, 0.3, 4)

    def test_custom_cpu_and_params(self):
        cpu = CpuSpec(name="toy", sockets=1, cores_per_socket=2, clock_ghz=2.0)
        params = CpuPerfParams(eff_unrolled=0.5, intra_unrolled=1.0)
        p = predict_cpu_sshopm(1e9, cpu=cpu, cores=2, params=params)
        assert np.isclose(p.gflops, 0.5 * 16.0 * 2.0)


class TestHardenedExecutor:
    """Crash-requeue and partial-failure behavior of the process tier,
    the fleet's hardened executor."""

    @pytest.fixture(autouse=True)
    def _needs_shm(self):
        from repro.parallel.shm import SHM_AVAILABLE

        if not SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")

    def _batch(self, tensors=6):
        return random_symmetric_batch(tensors, 4, 3, rng=np.random.default_rng(3))

    def _solve(self, batch, workers=3, **kw):
        return parallel_fleet_solve(batch, workers=workers, num_starts=4,
                                    alpha=2.0, rng=np.random.default_rng(0),
                                    **kw)

    def test_inject_hook_sees_every_chunk(self):
        batch = self._batch()
        base = self._solve(batch, executor="thread")
        with pytest.warns(RuntimeWarning, match="degraded"):
            rep = self._solve(batch, executor="process", steal=False,
                              faults={0: "crash", 1: "crash", 2: "crash"})
        # every shard's injected crash fired once and was requeued
        assert rep.requeues == 3 and not rep.failed_shards
        assert np.array_equal(rep.result.eigenvalues, base.result.eigenvalues)

    def test_crashed_chunk_requeues_to_same_result(self):
        batch = self._batch()
        base = self._solve(batch, executor="thread")
        with pytest.warns(RuntimeWarning, match="degraded"):
            rep = self._solve(batch, executor="process", faults={2: "crash"})
        assert rep.requeues == 1 and not rep.failed_shards
        assert np.array_equal(rep.result.eigenvalues, base.result.eigenvalues)
        assert not rep.result.failed.any()

    def test_exhausted_chunk_reported_not_raised(self):
        batch = self._batch()
        with pytest.warns(RuntimeWarning):
            rep = self._solve(batch, executor="process", faults={1: "crash"},
                              max_requeues=0, steal=False)
        assert rep.failed_shards == [1]
        lo, hi = 2, 4  # shard 1 of an even three-way split of six tensors
        assert rep.shard_sizes == [2, 2, 2]
        assert np.isnan(rep.result.eigenvalues[lo:hi]).all()
        assert rep.result.failed[lo:hi].all()
        assert not rep.result.failed[:lo].any()
        assert not rep.result.failed[hi:].any()
        # merged shapes stay consistent with the healthy layout
        assert rep.result.eigenvalues.shape == (len(batch), 4)

    def test_zero_requeues_budget(self):
        batch = self._batch()
        with pytest.warns(RuntimeWarning):
            rep = self._solve(batch, workers=2, executor="process",
                              faults={0: "crash"}, max_requeues=0, steal=False)
        assert rep.requeues == 0
        assert rep.failed_shards == [0]

    def test_partial_metrics_merge_from_crashed_chunk(self):
        from repro.instrument.metrics import use_registry

        batch = self._batch()
        with use_registry() as reg:
            with pytest.warns(RuntimeWarning):
                self._solve(batch, executor="process", faults={1: "crash"})
        names = {m["name"] for m in reg.snapshot()["metrics"]}
        assert "repro_requeues_total" in names
        # solver metrics from the surviving + requeued shards merged in
        assert any(n.startswith("repro_solver") for n in names)

    def test_failed_lanes_counted_in_dead_lane_metric(self):
        from repro.instrument.metrics import use_registry

        batch = self._batch(tensors=2)
        batch.values[:] = np.nan
        with use_registry() as reg:
            rep = self._solve(batch, workers=2, executor="thread")
        assert rep.result.failed.all()
        retired = reg.get("repro_fleet_lanes_retired_total")
        assert retired.labels(reason="failed").value == 8
