"""Tests for the instrumentation subsystem (repro.instrument) and the
unified kernel/solver API surface: span trees, the thread-local recorder,
flop-total agreement with the legacy FlopCounter, JSON traces, the
per-tensor get_kernels lookup and the batched get_plan suites, SolveConfig,
and the removed pre-2.0 spellings."""

import json

import numpy as np
import pytest

from repro.core import SolveConfig, adaptive_sshopm, find_eigenpairs, sshopm
from repro.core.config import resolve_option
from repro.engine.fleet import fleet_solve
from repro.instrument import (
    Recorder,
    RecorderFlopCounter,
    current_recorder,
    instrumented_pair,
    kernel_cost_model,
    load_trace,
    recording,
    span,
)
from repro.instrument.recorder import _NULL_SPAN
from repro.kernels import UnknownVariantError, available_variants, get_kernels
from repro.kernels.plan import get_plan
from repro.mri import extract_fibers_batch, make_phantom
from repro.parallel import parallel_fleet_solve
from repro.symtensor import random_symmetric_tensor
from repro.util.flopcount import FlopCounter


class TestSpanTree:
    def test_nesting_and_aggregation(self):
        rec = Recorder()
        with rec.span("outer"):
            for _ in range(5):
                with rec.span("inner"):
                    rec.add("flops", 10)
        outer = rec.find("outer")
        inner = rec.find("outer/inner")
        assert outer.count == 1
        assert inner.count == 5  # re-entry aggregates, no 5 sibling nodes
        assert inner.counters["flops"] == 50
        assert rec.total("flops") == 50
        assert len(outer.children) == 1

    def test_charges_land_on_innermost_span(self):
        rec = Recorder()
        with rec.span("a"):
            rec.add("flops", 1)
            with rec.span("b"):
                rec.add("flops", 100)
        assert rec.find("a").counters["flops"] == 1
        assert rec.find("a/b").counters["flops"] == 100
        assert rec.find("a").total("flops") == 101

    def test_self_seconds_excludes_children(self):
        rec = Recorder()
        with rec.span("p"):
            with rec.span("c"):
                pass
        p = rec.find("p")
        assert p.self_seconds == pytest.approx(
            p.seconds - rec.find("p/c").seconds
        )

    def test_exception_still_closes_span(self):
        rec = Recorder()
        with pytest.raises(RuntimeError):
            with rec.span("boom"):
                raise RuntimeError
        assert rec.find("boom").count == 1
        assert rec._stack == [rec.root]

    def test_gauges_last_write_wins(self):
        rec = Recorder()
        rec.gauge("k", 1)
        rec.gauge("k", 2)
        assert rec.gauges["k"] == 2


class TestThreadLocalActivation:
    def test_disabled_by_default(self):
        assert current_recorder() is None
        # the module-level helper returns the shared no-op object: no
        # allocation, no timing — this is the zero-cost disabled path
        assert span("anything") is _NULL_SPAN
        with span("anything"):
            pass  # must be usable as a context manager

    def test_activate_installs_and_restores(self):
        rec = Recorder()
        with rec.activate():
            assert current_recorder() is rec
            inner = Recorder()
            with inner.activate():
                assert current_recorder() is inner
            assert current_recorder() is rec
        assert current_recorder() is None

    def test_recording_contextmanager(self):
        with recording(meta={"k": "v"}) as rec:
            with span("s"):
                pass
        assert rec.meta == {"k": "v"}
        assert rec.find("s").count == 1
        assert current_recorder() is None


class TestJsonRoundTrip:
    def test_save_load_lossless(self, tmp_path):
        with recording(meta={"command": "test"}) as rec:
            with span("outer"):
                rec.add("flops", 123)
                rec.add("bytes", 456)
                with span("inner"):
                    rec.add("flops", 7)
            rec.gauge("starts", 128)
        path = tmp_path / "trace.json"
        rec.save_trace(path)
        back = load_trace(path)
        assert back.to_dict() == rec.to_dict()
        assert back.total("flops") == 130
        assert back.gauges == {"starts": 128}
        assert back.meta == {"command": "test"}

    def test_schema_tag_present_and_checked(self, tmp_path):
        rec = Recorder()
        d = rec.to_dict()
        assert d["schema"] == "repro-trace/1"
        d["schema"] = "other/9"
        with pytest.raises(ValueError, match="schema"):
            Recorder.from_dict(d)

    def test_numpy_values_serialize(self, tmp_path):
        with recording() as rec:
            rec.gauge("n", np.int64(3))
            with span("s"):
                rec.add("flops", np.int64(10))
        path = tmp_path / "t.json"
        rec.save_trace(path)
        data = json.loads(path.read_text())
        assert data["gauges"]["n"] == 3


class TestFlopAgreement:
    """Trace flop totals must agree exactly with legacy FlopCounter
    accounting — the acceptance criterion of the instrumentation PR."""

    def test_sshopm_recorder_matches_counter(self):
        tensor = random_symmetric_tensor(4, 3, rng=0)
        counter = FlopCounter()
        with recording() as rec:
            res = sshopm(tensor, alpha=2.0, rng=1, counter=counter)
        assert res.iterations > 0
        assert counter.flops > 0
        assert rec.total("flops") == counter.flops
        assert rec.total("loads") == counter.loads
        assert rec.total("stores") == counter.stores

    def test_multistart_recorder_matches_counter(self):
        tensor = random_symmetric_tensor(4, 3, rng=0)
        counter = FlopCounter()
        with recording() as rec:
            fleet_solve(tensor, num_starts=8, rng=2, max_iters=50,
                        counter=counter)
        assert counter.flops > 0
        assert rec.total("flops") == counter.flops
        assert rec.total("bytes") > 0  # traffic estimate recorded
        kernel = "kernel.vectorized.ax_m1"
        assert rec.find(f"fleet_solve/sweep/{kernel}").count == 50
        # every kernel call, the first one included, sits inside the fleet
        assert not any(name.startswith("kernel.") for name in rec.root.children)
        calls = sum(node.count for _, node in rec.find("fleet_solve").walk()
                    if node.name == kernel)
        assert calls == 1 + 50 + 1  # first call, sweeps, residual pass

    def test_trace_without_counter_still_counts(self):
        tensor = random_symmetric_tensor(3, 3, rng=0)
        with recording() as rec:
            sshopm(tensor, alpha=2.0, rng=1, max_iters=20)
        assert rec.total("flops") > 0

    def test_bridge_counter_mirrors(self):
        rec = Recorder()
        mirror = FlopCounter()
        bridge = rec.flop_counter(mirror=mirror)
        assert isinstance(bridge, RecorderFlopCounter)
        with rec.span("s"):
            bridge.add_flops(5)
            bridge.add_intops(3)
            bridge.add_loads(2)
            bridge.add_stores(1)
        assert (mirror.flops, mirror.intops, mirror.loads, mirror.stores) == (5, 3, 2, 1)
        assert (bridge.flops, bridge.intops) == (5, 3)
        assert rec.find("s").counters == {
            "flops": 5, "intops": 3, "loads": 2, "stores": 1,
        }


class TestInstrumentedKernels:
    @pytest.mark.parametrize("variant", [
        v for v in available_variants(4, 3) if v != "auto"
    ])
    def test_every_variant_through_wrapper(self, variant):
        tensor = random_symmetric_tensor(4, 3, rng=0)
        x = np.random.default_rng(1).normal(size=3)
        x /= np.linalg.norm(x)
        plain = get_kernels(variant, 4, 3)
        counter = FlopCounter()
        wrapped = instrumented_pair(plain, counter=counter)
        with recording() as rec:
            s1 = wrapped.ax_m(tensor, x)
            v1 = wrapped.ax_m1(tensor, x)
        assert s1 == pytest.approx(plain.ax_m(tensor, x))
        np.testing.assert_allclose(v1, plain.ax_m1(tensor, x))
        cost = kernel_cost_model(4, 3)
        assert counter.flops == cost["flops_scalar"] + cost["flops_vector"]
        assert rec.find(f"kernel.{variant}.ax_m").count == 1
        assert rec.find(f"kernel.{variant}.ax_m1").count == 1
        assert rec.total("bytes") > 0

    def test_cost_model_matches_table2_formula(self):
        from math import comb

        for m, n in [(3, 3), (4, 3), (4, 6)]:
            cost = kernel_cost_model(m, n)
            assert cost["flops_scalar"] == (m + 3) * comb(m + n - 1, m)


class TestKernelDispatch:
    def test_unknown_variant_typed_error(self):
        with pytest.raises(UnknownVariantError) as excinfo:
            get_kernels("nonexistent", 4, 3)
        err = excinfo.value
        assert isinstance(err, KeyError)  # back compat
        assert isinstance(err, ValueError)  # back compat
        assert err.variant == "nonexistent"
        assert "vectorized" in err.available
        assert "nonexistent" in str(err)
        assert "vectorized" in str(err)

    def test_unknown_batched_variant(self):
        with pytest.raises(UnknownVariantError) as excinfo:
            get_plan(4, 3, "nonexistent")
        assert excinfo.value.variant == "nonexistent"
        assert excinfo.value.available == [
            "blocked", "unrolled", "unrolled_cse", "vectorized", "auto"]

    def test_available_variants_lists_batched(self):
        """get_plan lists the batched names on an unknown variant (the
        ``available_variants(batched=True)`` listing is removed), and each
        listed name builds a plan at (4, 3)."""
        with pytest.raises(UnknownVariantError) as excinfo:
            get_plan(4, 3, "nonexistent")
        batched = excinfo.value.available
        assert "vectorized" in batched
        assert "unrolled" in batched
        for variant in batched:
            if variant != "auto":
                assert get_plan(4, 3, variant).variant == variant

    def test_batched_suite_matches_per_tensor(self):
        tensor = random_symmetric_tensor(4, 3, rng=0)
        x = np.random.default_rng(1).normal(size=(1, 4, 3))
        x /= np.linalg.norm(x, axis=-1, keepdims=True)
        values = tensor.values[None, None, :]
        ref = get_kernels("compressed", 4, 3)
        for variant in ("vectorized", "unrolled", "blocked"):
            suite = get_plan(4, 3, variant).suite
            lam = suite.ax_m(values, x)
            y = suite.ax_m1(values, x)
            for v in range(4):
                assert lam[0, v] == pytest.approx(ref.ax_m(tensor, x[0, v]))
                np.testing.assert_allclose(
                    y[0, v], ref.ax_m1(tensor, x[0, v]), atol=1e-12
                )

    def test_batched_aliases_resolve(self):
        """The multistart-era aliases are gone: ``"batched"`` and
        ``"batched_unrolled"`` are unknown variants, and the canonical
        names build their own suites."""
        for alias in ("batched", "batched_unrolled"):
            with pytest.raises(UnknownVariantError):
                get_plan(4, 3, alias)
        assert get_plan(4, 3, "vectorized").suite.name == "vectorized"
        assert get_plan(4, 3, "unrolled").suite.name == "unrolled"

    def test_batched_counter_passthrough(self):
        tensor = random_symmetric_tensor(4, 3, rng=0)
        counter = FlopCounter()
        plan = get_plan(4, 3, "vectorized")
        x = np.ones((1, 2, 3)) / np.sqrt(3)
        plan.ax_m(tensor.values[None, None, :], x, counter=counter)
        assert counter.flops > 0

    def test_flat_aliases_removed(self):
        """The flat batched-kernel aliases left the package namespace;
        get_plan(...).suite is the way to reach those kernels."""
        import repro.kernels as K

        for name in ("ax_m_batched", "ax_m1_batched",
                     "ax_m_blocked_batched", "ax_m1_blocked_batched"):
            assert name not in K.__all__
            with pytest.raises(AttributeError):
                getattr(K, name)
        for variant in ("vectorized", "blocked"):
            suite = get_plan(4, 3, variant).suite
            assert callable(suite.ax_m) and callable(suite.ax_m1)


class TestSolveConfig:
    def test_config_supplies_defaults(self):
        cfg = SolveConfig(num_starts=4, tol=1e-6, max_iters=30)
        tensor = random_symmetric_tensor(4, 3, rng=0)
        res = fleet_solve(tensor, rng=1, config=cfg)
        assert res.num_starts == 4
        assert res.sweeps <= 30

    def test_explicit_kwarg_beats_config(self):
        cfg = SolveConfig(num_starts=4)
        tensor = random_symmetric_tensor(4, 3, rng=0)
        res = fleet_solve(tensor, num_starts=2, rng=1, max_iters=10,
                          config=cfg)
        assert res.num_starts == 2

    def test_resolve_option_order(self):
        cfg = SolveConfig(tol=1e-3)
        assert resolve_option("tol", 1e-5, cfg, 1e-12) == 1e-5
        assert resolve_option("tol", None, cfg, 1e-12) == 1e-3
        assert resolve_option("tol", None, None, 1e-12) == 1e-12
        assert resolve_option("tol", None, SolveConfig(), 1e-12) == 1e-12

    def test_config_replace(self):
        cfg = SolveConfig(tol=1e-3)
        cfg2 = cfg.replace(max_iters=7)
        assert cfg2.tol == 1e-3 and cfg2.max_iters == 7
        assert cfg.max_iters is None  # frozen original untouched

    def test_max_iter_spelling_removed(self):
        """Only ``max_iters`` is accepted, as a keyword or a config field,
        and it caps the iteration count."""
        tensor = random_symmetric_tensor(4, 3, rng=0)
        with pytest.raises(TypeError, match="max_iter"):
            sshopm(tensor, alpha=2.0, rng=1, max_iter=10)
        with pytest.raises(TypeError, match="max_iter"):
            SolveConfig(max_iter=10)
        res = sshopm(tensor, alpha=2.0, rng=1, max_iters=10)
        assert res.iterations <= 10

    def test_config_accepted_by_all_solvers(self):
        cfg = SolveConfig(num_starts=4, max_iters=20, tol=1e-6)
        tensor = random_symmetric_tensor(4, 3, rng=0)
        sshopm(tensor, alpha=2.0, rng=1, config=cfg)
        adaptive_sshopm(tensor, rng=1, config=cfg)
        find_eigenpairs(tensor, rng=1, config=cfg)
        fleet_solve(tensor, rng=1, config=cfg)


class TestPipelineTracing:
    @pytest.fixture(scope="class")
    def phantom(self):
        return make_phantom(rows=3, cols=3, num_gradients=16, rng=0)

    def test_detect_pipeline_trace(self, phantom):
        with recording() as rec:
            fibers = extract_fibers_batch(phantom.tensors, num_starts=16,
                                          rng=0, max_iters=80)
        assert len(fibers) == phantom.num_voxels
        batch = rec.find("extract_fibers_batch")
        assert batch is not None and batch.count == 1
        sel = rec.find("extract_fibers_batch/select_fibers")
        assert sel.count == phantom.num_voxels  # aggregated per-voxel stage
        assert rec.find("extract_fibers_batch/select_fibers/dedupe") is not None
        assert rec.gauges["fibers.voxels"] == phantom.num_voxels
        assert rec.total("flops") > 0

    def test_parallel_workers_absorbed(self, phantom):
        from repro.parallel.shm import SHM_AVAILABLE

        if not SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        with recording() as rec:
            report = parallel_fleet_solve(
                phantom.tensors, workers=2, num_starts=8, max_iters=40, rng=0,
                executor="process",
            )
        assert report.workers == 2
        root_span = rec.find("parallel_fleet_solve")
        assert root_span is not None
        names = set(root_span.children)
        assert "worker0" in names and "worker1" in names
        assert rec.gauges["parallel.workers"] == 2
        # per-worker gauges come back namespaced
        assert "worker0.fleet.tensors" in rec.gauges
        assert rec.total("flops") > 0

    def test_parallel_matches_serial_result(self, phantom):
        from repro.util.rng import starting_vectors

        starts = starting_vectors(8, 3, rng=5)
        serial = fleet_solve(phantom.tensors, starts=starts, max_iters=40)
        par = parallel_fleet_solve(
            phantom.tensors, workers=3, starts=starts, max_iters=40,
            executor="thread",
        ).result
        np.testing.assert_allclose(serial.eigenvalues, par.eigenvalues)

    def test_report_renders(self):
        tensor = random_symmetric_tensor(4, 3, rng=0)
        with recording() as rec:
            sshopm(tensor, alpha=2.0, rng=1, max_iters=20)
        text = rec.report()
        assert "sshopm" in text
        assert "TOTAL" in text
        assert "flops" in text


class TestCliTrace:
    def test_spectrum_with_trace_flag(self, tmp_path, capsys):
        from repro.cli import main

        out = tmp_path / "trace.json"
        status = main(["spectrum", "--m", "3", "--n", "3", "--starts", "8",
                       "--max-iter", "200", "--trace", str(out)])
        assert status == 0
        rec = load_trace(out)
        assert rec.meta["command"] == "spectrum"
        assert rec.find("repro spectrum") is not None
        assert rec.total("flops") > 0
        captured = capsys.readouterr().out
        assert "TOTAL" in captured


class TestAbsorbMergeRoundTrip:
    """Recorder.absorb / SpanNode.merge and to_dict/from_dict on deep,
    re-entered span trees (the shapes the parallel executor produces)."""

    def _deep_recorder(self, reps: int, charge: float) -> Recorder:
        rec = Recorder()
        with rec.activate():
            for _ in range(reps):
                with rec.span("solve"):
                    for _ in range(3):
                        with rec.span("sweep"):
                            with rec.span("kernel"):
                                rec.add("flops", charge)
                            with rec.span("kernel"):  # re-entered sibling
                                rec.add("flops", charge)
                    with rec.span("residuals"):
                        rec.add("bytes", 64)
        return rec

    def test_merge_aggregates_deep_reentered_trees(self):
        a = self._deep_recorder(reps=2, charge=10.0)
        b = self._deep_recorder(reps=3, charge=5.0)
        a.root.merge(b.root)
        assert a.find("solve").count == 5
        assert a.find("solve/sweep").count == 15
        kernel = a.find("solve/sweep/kernel")
        assert kernel.count == 30
        # 2 reps * 3 sweeps * 2 entries * 10 + 3 * 3 * 2 * 5
        assert kernel.counters["flops"] == 210
        assert a.total("bytes") == 5 * 64

    def test_absorb_under_namespaces_whole_subtree(self):
        parent = self._deep_recorder(reps=1, charge=1.0)
        worker = self._deep_recorder(reps=2, charge=2.0)
        worker.gauge("chunk", 7)
        parent.absorb(worker, under="worker0")
        assert parent.find("worker0/solve").count == 2
        assert parent.find("worker0/solve/sweep/kernel").counters["flops"] == 24
        assert parent.gauges["worker0.chunk"] == 7
        # parent's own tree untouched
        assert parent.find("solve").count == 1
        assert parent.total("flops") == 6 + 24

    def test_absorb_twice_same_namespace_aggregates(self):
        parent = Recorder()
        for _ in range(2):
            worker = self._deep_recorder(reps=1, charge=3.0)
            parent.absorb(worker, under="worker0")
        assert parent.find("worker0/solve").count == 2
        assert parent.find("worker0/solve/sweep/kernel").counters["flops"] == 36

    def test_roundtrip_preserves_merged_tree(self, tmp_path):
        rec = self._deep_recorder(reps=2, charge=10.0)
        rec.absorb(self._deep_recorder(reps=1, charge=1.0), under="worker0")
        path = tmp_path / "deep.json"
        rec.save_trace(path)
        back = load_trace(path)
        assert back.to_dict() == rec.to_dict()
        # child insertion order (report layout) survives the round trip
        order = [n.name for _, n in rec.root.walk()]
        assert [n.name for _, n in back.root.walk()] == order

    def test_roundtrip_carries_absorbed_telemetry(self, tmp_path):
        from repro.instrument.telemetry import ConvergenceTelemetry

        worker = Recorder()
        tel = ConvergenceTelemetry("sshopm")
        tel.append(0, 1.0, residual=0.5)
        worker.add_telemetry(tel)
        parent = Recorder()
        parent.absorb(worker, under="worker3")
        path = tmp_path / "tel.json"
        parent.save_trace(path)
        back = load_trace(path)
        assert [t.name for t in back.telemetry] == ["worker3.sshopm"]
        assert back.telemetry[0].column("lam") == [1.0]

