"""Persistent on-disk kernel-plan cache (repro.kernels.diskcache):
round-trips, corrupted-file recovery, schema invalidation, warm plans
that compute and charge exactly what cold ones do, and concurrent
multi-process warm-up."""

import json
import multiprocessing
import os

import numpy as np
import pytest

from repro.instrument.metrics import use_registry
from repro.kernels import diskcache
from repro.kernels.codegen import CODEGEN_VERSION
from repro.kernels.plan import clear_plan_cache, get_plan
from repro.kernels.reference import ax_m1_dense
from repro.kernels.tables import kernel_tables, tables_from_arrays
from repro.symtensor.random import random_symmetric_tensor
from repro.util.combinatorics import num_unique_entries
from repro.util.flopcount import FlopCounter

M, N, VARIANT = 3, 4, "unrolled_cse"


@pytest.fixture
def cache_dir(tmp_path, monkeypatch):
    """A per-test cache directory (overriding the session-wide one) with
    the in-memory plan cache emptied so disk traffic actually happens."""
    root = tmp_path / "plans"
    monkeypatch.setenv("REPRO_PLAN_CACHE_DIR", str(root))
    clear_plan_cache()
    yield root
    clear_plan_cache()


def _store(m=M, n=N, variant=VARIANT, backend="numpy", **meta):
    return diskcache.store_entry(
        m, n, variant, backend,
        tables=kernel_tables(m, n),
        meta={"effective_backend": backend, "batched": True, "source": "",
              **meta},
    )


def _events(reg):
    counter = reg.counter("repro_plan_disk_cache_events_total",
                          "Persistent kernel-plan cache events by outcome",
                          ("event",))
    return lambda event: counter.labels(event=event).value


class TestRoundTrip:
    def test_store_then_load(self, cache_dir):
        assert _store()
        entry = diskcache.load_entry(M, N, VARIANT, "numpy")
        assert entry is not None
        assert entry["meta"]["m"] == M and entry["meta"]["variant"] == VARIANT
        np.testing.assert_array_equal(entry["tables"].index,
                                      kernel_tables(M, N).index)

    def test_miss_on_absent_entry(self, cache_dir):
        with use_registry() as reg:
            assert diskcache.load_entry(M, N, VARIANT, "numpy") is None
            assert _events(reg)("miss") == 1

    def test_disabled_by_env(self, cache_dir, monkeypatch):
        monkeypatch.setenv("REPRO_PLAN_CACHE", "0")
        assert diskcache.cache_dir() is None
        assert not _store()
        assert diskcache.load_entry(M, N, VARIANT, "numpy") is None
        assert diskcache.cache_info() == {
            "enabled": False, "dir": None, "entries": [], "bytes": 0}

    def test_cache_info_and_clear(self, cache_dir):
        _store()
        info = diskcache.cache_info()
        assert info["enabled"] and len(info["entries"]) == 1
        (entry,) = info["entries"]
        assert entry["valid"] and entry["backend"] == "numpy"
        assert info["bytes"] > 0
        assert diskcache.clear_cache() >= 2  # .json + .npz at least
        assert diskcache.cache_info()["entries"] == []


class TestCorruptionRecovery:
    def test_corrupt_json_is_deleted_not_fatal(self, cache_dir):
        _store()
        key = diskcache.entry_key(M, N, VARIANT, "numpy")
        (cache_dir / f"{key}.json").write_text("{ not json")
        with use_registry() as reg:
            assert diskcache.load_entry(M, N, VARIANT, "numpy") is None
            assert _events(reg)("corrupt") == 1
        assert not (cache_dir / f"{key}.json").exists()
        assert not (cache_dir / f"{key}.npz").exists()

    def test_truncated_npz_is_deleted_not_fatal(self, cache_dir):
        _store()
        key = diskcache.entry_key(M, N, VARIANT, "numpy")
        npz = cache_dir / f"{key}.npz"
        npz.write_bytes(npz.read_bytes()[:20])
        with use_registry() as reg:
            assert diskcache.load_entry(M, N, VARIANT, "numpy") is None
            assert _events(reg)("corrupt") == 1
        assert not npz.exists()

    def test_schema_mismatch_invalidates(self, cache_dir):
        _store()
        key = diskcache.entry_key(M, N, VARIANT, "numpy")
        json_path = cache_dir / f"{key}.json"
        doc = json.loads(json_path.read_text())
        doc["schema"] = "repro-plan-cache/999"
        json_path.write_text(json.dumps(doc))
        with use_registry() as reg:
            assert diskcache.load_entry(M, N, VARIANT, "numpy") is None
            assert _events(reg)("schema_mismatch") == 1
        assert not json_path.exists()

    def test_swapped_segment_rows_are_rejected(self, cache_dir):
        """Swapping two rows of output segment 1 keeps every shape check
        but breaks the one factor layout all segments must share."""
        _store()
        key = diskcache.entry_key(M, N, VARIANT, "numpy")
        npz = cache_dir / f"{key}.npz"
        with np.load(npz) as archive:
            arrays = {name: archive[name].copy() for name in archive.files}
        K = int(arrays["out_starts"][1])
        for name in ("row_out", "row_class", "row_sigma", "row_factors"):
            arrays[name][[K, K + 1]] = arrays[name][[K + 1, K]]
        with pytest.raises(ValueError, match="every output segment"):
            tables_from_arrays(M, N, arrays)
        np.savez(npz, **arrays)
        with use_registry() as reg:
            assert diskcache.load_entry(M, N, VARIANT, "numpy") is None
            assert _events(reg)("corrupt") == 1
        assert not npz.exists()

    def test_codegen_version_mismatch_invalidates(self, cache_dir):
        _store()
        key = diskcache.entry_key(M, N, VARIANT, "numpy")
        json_path = cache_dir / f"{key}.json"
        doc = json.loads(json_path.read_text())
        doc["codegen_version"] = CODEGEN_VERSION + 1
        json_path.write_text(json.dumps(doc))
        assert diskcache.load_entry(M, N, VARIANT, "numpy") is None

    def test_get_plan_recovers_and_rewrites(self, cache_dir, rng):
        """A damaged entry must never break solving: the plan is rebuilt
        cold and the disk entry replaced with a fresh valid one."""
        plan = get_plan(M, N, VARIANT, "numpy")
        key = diskcache.entry_key(M, N, VARIANT, "numpy")
        (cache_dir / f"{key}.json").write_text("garbage")
        clear_plan_cache()
        plan = get_plan(M, N, VARIANT, "numpy")
        assert plan.meta["from_disk"] is False
        tensor = random_symmetric_tensor(M, N, rng=rng)
        x = rng.standard_normal(N)
        np.testing.assert_allclose(
            plan.ax_m1(tensor.values[None, :], x[None, :])[0],
            ax_m1_dense(tensor.to_dense(), x), atol=1e-10)
        entry = diskcache.load_entry(M, N, VARIANT, "numpy")
        assert entry is not None  # rewritten on the cold build


class TestWarmPlanMatchesCold:
    @pytest.mark.parametrize("backend", ["numpy", "numba"])
    @pytest.mark.parametrize("variant", ["vectorized", "unrolled",
                                         "unrolled_cse", "blocked"])
    def test_outputs_and_charges_match(self, cache_dir, rng, variant,
                                       backend):
        """A plan rebuilt from its disk entry (generated numpy suites
        exec the stored code and read their flop counts back) computes
        and charges exactly what the cold build did."""
        values = rng.standard_normal((5, 1, num_unique_entries(M, N)))
        x = rng.standard_normal((5, 3, N))

        def run(plan):
            c_m, c_m1 = FlopCounter(), FlopCounter()
            return (plan.ax_m(values, x, counter=c_m),
                    plan.ax_m1(values, x, counter=c_m1),
                    c_m.snapshot(), c_m1.snapshot())

        cold = get_plan(M, N, variant, backend)
        assert cold.meta["from_disk"] is False
        lam, y, charged_m, charged_m1 = run(cold)
        clear_plan_cache()
        warm = get_plan(M, N, variant, backend)
        assert warm is not cold
        # degraded builds (numba not installed) are never persisted
        assert warm.meta["from_disk"] == (warm.effective_backend == backend)
        warm_lam, warm_y, warm_m, warm_m1 = run(warm)
        assert np.array_equal(warm_lam, lam) and np.array_equal(warm_y, y)
        assert warm_m == charged_m and warm_m1 == charged_m1
        assert charged_m["flops"] > 0 and charged_m1["flops"] > 0


def _warm_worker(root, queue):
    """Child-process entry: build one plan against the given cache dir."""
    os.environ["REPRO_PLAN_CACHE_DIR"] = root
    try:
        from repro.kernels.plan import get_plan as child_get_plan

        plan = child_get_plan(M, N, VARIANT, "numpy")
        queue.put(("ok", bool(plan.meta.get("from_disk"))))
    except Exception as exc:  # pragma: no cover - failure reporting
        queue.put(("error", repr(exc)))


class TestCrossProcess:
    def test_second_process_loads_from_disk(self, cache_dir):
        get_plan(M, N, VARIANT, "numpy")  # warm the disk cache
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        proc = ctx.Process(target=_warm_worker, args=(str(cache_dir), queue))
        proc.start()
        status, from_disk = queue.get(timeout=120)
        proc.join(timeout=30)
        assert status == "ok"
        assert from_disk is True

    def test_concurrent_cold_warm_up_races_benignly(self, cache_dir):
        """Several processes building the same entry from cold must all
        succeed (atomic writes: last writer wins, no torn files)."""
        ctx = multiprocessing.get_context("spawn")
        queue = ctx.Queue()
        procs = [ctx.Process(target=_warm_worker,
                             args=(str(cache_dir), queue))
                 for _ in range(3)]
        for p in procs:
            p.start()
        results = [queue.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(timeout=30)
        assert all(status == "ok" for status, _ in results), results
        entry = diskcache.load_entry(M, N, VARIANT, "numpy")
        assert entry is not None
        info = diskcache.cache_info()
        assert all(e["valid"] for e in info["entries"])
