"""Fleet solve engine: correctness against the reference path, lane
retirement/isolation, compaction accounting, plan-cache behavior, the
adaptive per-lane shift, and the parallel sharding wrapper."""

import numpy as np
import pytest

from repro.core import dedupe_eigenpairs, sshopm, suggested_shift
from repro.core.results import FleetResult
from repro.engine import fleet_solve, suggested_shifts
from repro.instrument.metrics import use_registry
from repro.kernels.plan import clear_plan_cache, get_plan
from repro.parallel import parallel_fleet_solve
from repro.resilience import SolveFailure
from repro.symtensor import (
    SymmetricTensorBatch,
    kolda_mayo_example_3x3x3,
    random_symmetric_batch,
)


def shared_starts(num, n, seed=1):
    rng = np.random.default_rng(seed)
    starts = rng.standard_normal((num, n))
    return starts / np.linalg.norm(starts, axis=1, keepdims=True)


@pytest.fixture(scope="module")
def small_batch():
    return random_symmetric_batch(6, 3, 4, rng=3)


def per_start_reference(tensor, starts):
    """The reference path: one single-start SS-HOPM run per start."""
    return [sshopm(tensor, x0=x0, alpha=4.0, tol=1e-10, max_iters=400)
            for x0 in starts]


class TestEquivalence:
    def test_matches_looped_multistart(self, small_batch):
        starts = shared_starts(16, small_batch.n)
        fr = fleet_solve(small_batch, starts=starts, alpha=4.0,
                         tol=1e-10, max_iters=400)
        for t in range(len(small_batch)):
            ref = per_start_reference(small_batch[t], starts)
            got = np.sort(fr.eigenvalues[t][fr.converged[t]])
            want = np.sort([r.eigenvalue for r in ref if r.converged])
            assert got.shape == want.shape
            np.testing.assert_allclose(got, want, atol=1e-6)

    def test_eigenpairs_match_within_dedup_tolerance(self, small_batch):
        starts = shared_starts(16, small_batch.n)
        fr = fleet_solve(small_batch, starts=starts, alpha=4.0,
                         tol=1e-10, max_iters=400)
        spectra = fr.eigenpairs()
        assert len(spectra) == len(small_batch)
        for t, pairs in enumerate(spectra):
            ref = per_start_reference(small_batch[t], starts)
            ref_pairs = dedupe_eigenpairs(
                np.array([r.eigenvalue for r in ref]),
                np.stack([r.eigenvector for r in ref]), small_batch.m,
                converged_mask=np.array([r.converged for r in ref]))
            got = sorted(round(p.eigenvalue, 5) for p in pairs)
            want = sorted(round(p.eigenvalue, 5) for p in ref_pairs)
            assert got == want

    def test_result_shapes_and_summary(self, small_batch):
        fr = fleet_solve(small_batch, num_starts=8, alpha=4.0, rng=0,
                         tol=1e-9, max_iters=200)
        T, V = len(small_batch), 8
        assert isinstance(fr, FleetResult)
        assert fr.eigenvalues.shape == (T, V)
        assert fr.eigenvectors.shape == (T, V, small_batch.n)
        assert fr.converged.shape == (T, V)
        assert fr.iterations.shape == (T, V)
        assert fr.num_tensors == T and fr.num_starts == V
        assert 0.0 <= fr.converged_fraction() <= 1.0
        assert f"{T} tensors x {V} starts" in fr.summary()

    def test_suggested_shifts_match_per_tensor(self, small_batch):
        per = suggested_shifts(small_batch)
        assert per.shape == (len(small_batch),)
        for t in range(len(small_batch)):
            assert per[t] == pytest.approx(suggested_shift(small_batch[t]))


class TestLaneIsolation:
    def test_nan_tensor_retires_without_poisoning_batch(self):
        batch = random_symmetric_batch(5, 3, 3, rng=7)
        values = batch.values.copy()
        values[2] = np.nan  # one tensor is numerically dead on arrival
        poisoned = SymmetricTensorBatch(values, batch.m, batch.n)
        fr = fleet_solve(poisoned, num_starts=8, alpha=6.0, rng=0,
                         tol=1e-9, max_iters=1000)
        assert fr.failed[2].all()
        assert not fr.converged[2].any()
        healthy = [t for t in range(5) if t != 2]
        for t in healthy:
            assert fr.converged[t].all()
            assert not fr.failed[t].any()
            assert np.isfinite(fr.eigenvalues[t]).all()

    def test_total_collapse_raises_with_guards(self):
        batch = random_symmetric_batch(3, 3, 3, rng=7)
        values = np.full_like(batch.values, np.nan)
        doomed = SymmetricTensorBatch(values, batch.m, batch.n)
        with pytest.raises(SolveFailure) as exc:
            fleet_solve(doomed, num_starts=4, alpha=4.0, rng=0,
                        max_iters=50, guards=True)
        assert exc.value.reason == "collapse"

    def test_total_collapse_without_guards_returns_failed_result(self):
        batch = random_symmetric_batch(3, 3, 3, rng=7)
        values = np.full_like(batch.values, np.nan)
        doomed = SymmetricTensorBatch(values, batch.m, batch.n)
        fr = fleet_solve(doomed, num_starts=4, alpha=4.0, rng=0, max_iters=50)
        assert fr.failed.all()
        assert not fr.converged.any()


def frozen_uniform_sweep(tensors, starts, alpha, tol, max_iters):
    """The fleet's uniform-shift sweep and residual pass as of 2.0:
    ``np.linalg.norm(..., axis=-1)``, the ``np.where``-guarded divide and
    boolean-mask write-back.  Lanes never interact, so it skips
    compaction and lets retired lanes ride along.  Frozen: the engine
    must keep matching it bit for bit; never edit it to follow the
    engine."""
    m, n = tensors.m, tensors.n
    T, V = len(tensors), len(starts)
    L = T * V
    plan = get_plan(m, n, "vectorized", "numpy")
    lane_vals = np.asarray(tensors.values, np.float64)[np.arange(L) // V]
    x = np.tile(starts / np.linalg.norm(starts, axis=1, keepdims=True), (T, 1))
    out = dict(eigenvalues=np.full(L, np.nan),
               eigenvectors=np.full((L, n), np.nan),
               converged=np.zeros(L, dtype=bool),
               iterations=np.zeros(L, dtype=np.int64),
               failed=np.zeros(L, dtype=bool),
               shifts=np.full(L, float(alpha)))

    def write_back(sel, lam_of, converged, failed):
        out["eigenvalues"][sel] = lam_of[sel]
        out["eigenvectors"][sel] = x[sel]
        out["converged"][sel] = converged
        out["failed"][sel] = failed
        out["iterations"][sel] = sweeps

    live = np.ones(L, dtype=bool)
    sweeps = 0
    with np.errstate(invalid="ignore", over="ignore", divide="ignore"):
        y = plan.ax_m1(lane_vals, x)
        lam = np.einsum("ij,ij->i", x, y, dtype=np.float64)
        for _ in range(max_iters):
            if not live.any():
                break
            sweeps += 1
            x_new = y + alpha * x if alpha != 0.0 else y
            if alpha < 0:
                x_new = -x_new
            norms = np.linalg.norm(x_new, axis=-1)
            dead = live & ((norms == 0) | ~np.isfinite(norms))
            write_back(dead, lam, False, True)
            safe = np.where(norms > 0, norms, 1.0)
            x = x_new / safe[:, None]
            y = plan.ax_m1(lane_vals, x)
            lam_prev = lam
            lam = np.einsum("ij,ij->i", x, y, dtype=np.float64)
            bad_lam = live & ~dead & ~np.isfinite(lam)
            write_back(bad_lam, lam_prev, False, True)
            dead = dead | bad_lam
            just_conv = live & ~dead & (np.abs(lam - lam_prev) < tol)
            write_back(just_conv, lam, True, False)
            live &= ~(just_conv | dead)
        write_back(live, lam, False, False)
        y_all = plan.ax_m1(lane_vals, out["eigenvectors"])
        residuals = np.linalg.norm(
            y_all - out["eigenvalues"][:, None] * out["eigenvectors"], axis=-1)
    out["converged"] &= np.isfinite(residuals)
    out["failed"] |= ~np.isfinite(out["eigenvalues"]) | ~np.isfinite(residuals)
    return {k: v.reshape((T, V) + v.shape[1:]) for k, v in out.items()}


class TestSweepArithmetic:
    """``fleet_solve``'s uniform-shift sweep against the frozen 2.0 sweep:
    the engine may reorganise its per-lane work, never its arithmetic."""

    FIELDS = ("eigenvalues", "eigenvectors", "converged", "iterations",
              "failed", "shifts")

    def assert_matches_frozen(self, batch, alpha, tol=1e-10, max_iters=60):
        starts = shared_starts(8, batch.n, seed=batch.m * 10 + batch.n)
        want = frozen_uniform_sweep(batch, starts, alpha, tol, max_iters)
        got = fleet_solve(batch, starts=starts, alpha=alpha, tol=tol,
                          max_iters=max_iters, compact_every=4)
        for field in self.FIELDS:
            assert np.array_equal(getattr(got, field), want[field],
                                  equal_nan=want[field].dtype.kind == "f"), \
                field
        return got

    @pytest.mark.parametrize("alpha", [1.5, 0.0, -1.5])
    @pytest.mark.parametrize("n", range(1, 8))
    @pytest.mark.parametrize("m", [3, 4])
    def test_bit_identical_to_frozen_sweep(self, m, n, alpha):
        self.assert_matches_frozen(
            random_symmetric_batch(3, m, n, rng=100 * m + n), alpha)

    @pytest.mark.parametrize("alpha", [1.5, 0.0, -1.5])
    def test_zero_tensor_beside_live_lanes(self, alpha):
        # unshifted, the zero tensor's lanes collapse to norm 0 at the
        # first sweep while the other tensors' lanes iterate on
        batch = random_symmetric_batch(3, 4, 3, rng=11)
        values = batch.values.copy()
        values[1] = 0.0
        got = self.assert_matches_frozen(
            SymmetricTensorBatch(values, batch.m, batch.n), alpha)
        if alpha == 0.0:
            assert got.failed[1].all() and (got.iterations[1] == 1).all()
            assert not got.failed[[0, 2]].any()


class TestCompaction:
    def test_compactions_counted_and_metered(self, small_batch):
        with use_registry() as reg:
            fr = fleet_solve(small_batch, num_starts=8, alpha=4.0, rng=0,
                             tol=1e-9, max_iters=400, compact_every=2)
        assert fr.compactions >= 1
        compactions = reg.counter("repro_fleet_compactions_total")
        assert compactions.value == fr.compactions

    def test_compact_every_validation(self, small_batch):
        with pytest.raises(ValueError, match="compact_every"):
            fleet_solve(small_batch, num_starts=4, compact_every=0)

    def test_compaction_interval_does_not_change_answers(self, small_batch):
        starts = shared_starts(8, small_batch.n)
        a = fleet_solve(small_batch, starts=starts, alpha=4.0,
                        tol=1e-10, max_iters=400, compact_every=1)
        b = fleet_solve(small_batch, starts=starts, alpha=4.0,
                        tol=1e-10, max_iters=400, compact_every=100)
        np.testing.assert_array_equal(a.converged, b.converged)
        np.testing.assert_allclose(
            a.eigenvalues[a.converged], b.eigenvalues[b.converged], atol=1e-9)


class TestPlanCache:
    def test_second_lookup_hits(self):
        clear_plan_cache()
        with use_registry() as reg:
            p1 = get_plan(3, 4, "vectorized")
            p2 = get_plan(3, 4, "vectorized")
        assert p1 is p2
        events = reg.counter("repro_plan_cache_events_total",
                             labelnames=("event",))
        assert events.labels(event="miss").value == 1
        assert events.labels(event="hit").value == 1

    def test_fleet_reuses_cached_plan(self, small_batch):
        clear_plan_cache()
        fleet_solve(small_batch, num_starts=4, alpha=4.0, rng=0, max_iters=50)
        with use_registry() as reg:
            fleet_solve(small_batch, num_starts=4, alpha=4.0, rng=0,
                        max_iters=50)
        events = reg.counter("repro_plan_cache_events_total",
                             labelnames=("event",))
        assert events.labels(event="hit").value >= 1
        assert events.labels(event="miss").value == 0


class TestAdaptive:
    def test_adaptive_escalates_oscillating_lanes(self):
        # alpha = 0 on the Kolda-Mayo example oscillates; the fleet's
        # per-lane escalation must rescue lanes without a global restart
        tensor = kolda_mayo_example_3x3x3()
        batch = SymmetricTensorBatch(
            np.stack([tensor.values] * 4), tensor.m, tensor.n)
        fr = fleet_solve(batch, num_starts=16, alpha=0.0, rng=2,
                         tol=1e-10, max_iters=800, adaptive=True)
        assert fr.converged.mean() > 0.9
        assert fr.shifts is not None
        assert (np.abs(fr.shifts) > 0).any()  # some lanes escalated

    def test_fixed_shift_spectra_unchanged_by_adaptive_flag_when_converging(self):
        batch = random_symmetric_batch(3, 3, 3, rng=11)
        starts = shared_starts(8, 3)
        fixed = fleet_solve(batch, starts=starts, alpha=5.0,
                            tol=1e-10, max_iters=400)
        adapt = fleet_solve(batch, starts=starts, alpha=5.0,
                            tol=1e-10, max_iters=400, adaptive=True)
        # a sufficiently convex shift never oscillates, so adaptive mode
        # must leave the trajectories untouched
        np.testing.assert_allclose(
            fixed.eigenvalues[fixed.converged],
            adapt.eigenvalues[adapt.converged], atol=1e-9)

    def test_unescalated_negative_shift_follows_uniform_sweep_bit_for_bit(self):
        # adaptive lanes scale by their own shift and negate through a
        # per-lane mask; while no shift moves, that must reproduce the
        # uniform-shift sweep exactly
        alpha = -5.0
        batch = random_symmetric_batch(3, 3, 3, rng=11)
        starts = shared_starts(8, 3)
        fixed = fleet_solve(batch, starts=starts, alpha=alpha,
                            tol=1e-10, max_iters=400)
        adapt = fleet_solve(batch, starts=starts, alpha=alpha,
                            tol=1e-10, max_iters=400, adaptive=True)
        assert (adapt.shifts == alpha).all()
        for field in ("eigenvalues", "eigenvectors", "iterations",
                      "converged"):
            assert np.array_equal(getattr(adapt, field),
                                  getattr(fixed, field)), field

    @pytest.mark.parametrize("m,n", [(3, 3), (4, 3), (4, 5)])
    def test_float32_lanes_stay_float32_under_per_lane_shifts(self, m, n):
        # the per-lane shifts are float64; scaling a float32 iterate by
        # them must not promote the lanes, or every later sweep computes
        # in float64 and drifts from the uniform-shift float32 run
        alpha = -5.0
        batch = random_symmetric_batch(3, m, n, rng=11)
        starts = shared_starts(8, n)
        kw = dict(starts=starts, alpha=alpha, tol=1e-5, max_iters=400,
                  dtype=np.float32)
        fixed = fleet_solve(batch, **kw)
        adapt = fleet_solve(batch, adaptive=True, **kw)
        assert (adapt.shifts == alpha).all()
        for field in ("eigenvalues", "eigenvectors", "iterations",
                      "converged"):
            assert np.array_equal(getattr(adapt, field),
                                  getattr(fixed, field)), field


class TestParallel:
    def test_sharded_matches_single_worker(self, small_batch):
        starts = shared_starts(8, small_batch.n)
        one = parallel_fleet_solve(small_batch, workers=1, starts=starts,
                                   alpha=4.0, tol=1e-10, max_iters=400)
        two = parallel_fleet_solve(small_batch, workers=2, starts=starts,
                                   alpha=4.0, tol=1e-10, max_iters=400)
        np.testing.assert_array_equal(one.result.converged,
                                      two.result.converged)
        np.testing.assert_allclose(one.result.eigenvalues,
                                   two.result.eigenvalues, atol=1e-9,
                                   equal_nan=True)
        assert two.workers == 2
        assert sum(two.shard_sizes) == len(small_batch)

    def test_report_carries_timing(self, small_batch):
        rep = parallel_fleet_solve(small_batch, workers=2, num_starts=4,
                                   alpha=4.0, rng=0, max_iters=100)
        assert rep.seconds > 0
        assert len(rep.shard_seconds) == len(rep.shard_sizes)
