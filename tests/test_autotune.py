"""Tests for empirical kernel selection."""

import numpy as np
import pytest

import repro.kernels.autotune as race
from repro.kernels.autotune import auto_kernels, autotune
from repro.kernels.compressed import ax_m1_compressed, ax_m_compressed
from repro.kernels.dispatch import get_kernels
from repro.symtensor.random import random_symmetric_tensor

VARIANTS = ["blocked", "unrolled", "unrolled_cse", "vectorized"]


class TestAutotune:
    def test_report_structure(self):
        rep = autotune(4, 3, reps=5)
        assert rep.best in rep.timings
        assert all(t > 0 for t in rep.timings.values())
        assert rep.timings[rep.best] == min(rep.timings.values())
        assert {"precomputed", "vectorized", "blocked"} <= set(rep.timings)

    def test_cached(self):
        assert autotune(4, 3, reps=5) is autotune(4, 3, reps=5)

    def test_speedup_over(self):
        rep = autotune(4, 3, reps=5)
        assert rep.speedup_over(rep.best) == 1.0
        for name in rep.timings:
            assert rep.speedup_over(name) >= 1.0
        with pytest.raises(KeyError):
            rep.speedup_over("nonexistent")

    def test_huge_dimension_skips_unrollable(self):
        """Past the unroll guard (U > 4000) the tuner still returns a
        winner from the remaining candidates."""
        rep = autotune(5, 16, reps=1)  # U = C(20,5) = 15504
        assert "unrolled" not in rep.timings
        assert rep.best in ("blocked", "vectorized", "precomputed")

    def test_interpreted_loop_never_wins_at_large_n(self):
        """The vectorized/blocked paths dominate the per-entry loop once
        the tensor is big."""
        rep = autotune(4, 16, reps=3)
        assert rep.best in ("blocked", "vectorized")
        assert rep.speedup_over("precomputed") > 1.5


class TestAutoVariant:
    def test_auto_pair_is_correct(self, rng):
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        x = rng.normal(size=3)
        pair = get_kernels("auto", 4, 3)
        assert np.isclose(pair.ax_m(tensor, x), ax_m_compressed(tensor, x))
        assert np.allclose(pair.ax_m1(tensor, x), ax_m1_compressed(tensor, x))

    def test_auto_requires_shape(self):
        with pytest.raises(ValueError):
            get_kernels("auto")

    def test_auto_kernels_helper(self, rng):
        pair = auto_kernels(4, 3)
        tensor = random_symmetric_tensor(4, 3, rng=rng)
        x = rng.normal(size=3)
        assert np.isclose(pair.ax_m(tensor, x), ax_m_compressed(tensor, x))

    def test_sshopm_with_auto(self, rng):
        from repro.solvers.sshopm import sshopm, suggested_shift

        tensor = random_symmetric_tensor(4, 3, rng=rng)
        res = sshopm(tensor, alpha=suggested_shift(tensor), kernels="auto",
                     rng=1, tol=1e-12, max_iters=2000)
        assert res.converged
        # |dlambda| < 1e-12 with a large shift bounds the residual loosely
        assert res.residual < 1e-4


class TestPlanRace:
    """The one race behind ``get_plan(..., "auto")`` on either axis: every
    batched (variant × codegen backend) pair on the fleet's ``A x^{m-1}``
    call, one record per shape next to the plan disk cache."""

    @pytest.fixture(autouse=True)
    def _fresh(self, tmp_path, monkeypatch):
        from repro.kernels.plan import clear_plan_cache

        monkeypatch.setenv("REPRO_PLAN_CACHE_DIR", str(tmp_path))
        monkeypatch.setattr(race, "_RACES", {})  # this process raced nothing
        clear_plan_cache()
        yield
        clear_plan_cache()

    @staticmethod
    def _fake_timings(monkeypatch, seconds):
        """Substitute the race's timings (by variant); returns the list of
        races run, each the sorted candidate pairs it timed."""
        races = []

        def timed(calls):
            races.append(sorted(calls))
            return {key: seconds[key[0]] for key in calls}

        monkeypatch.setattr(race, "_time_candidates", timed)
        return races

    @staticmethod
    def _record_path(tmp_path, m=3, n=3):
        from repro.kernels.codegen import CODEGEN_VERSION

        return tmp_path / f"tune-m{m}-n{n}-v{CODEGEN_VERSION}.json"

    @pytest.mark.parametrize("fastest", VARIANTS)
    def test_picks_the_fastest_timed_pair(self, monkeypatch, fastest):
        from repro.kernels.plan import get_plan

        races = self._fake_timings(
            monkeypatch, {v: (1.0 if v == fastest else 2.0) for v in VARIANTS})
        plan = get_plan(3, 3, "auto")
        assert (plan.variant, plan.backend) == (fastest, "numpy")
        assert len(races) == 1
        assert {v for v, _ in races[0]} == set(VARIANTS)

    def test_fresh_process_reads_the_record(self, monkeypatch, tmp_path):
        import json
        import os
        import pathlib
        import subprocess
        import sys

        from repro.kernels.plan import clear_plan_cache, get_plan

        races = self._fake_timings(monkeypatch, {
            "vectorized": 1.0, "unrolled": 3.0, "unrolled_cse": 0.5,
            "blocked": 9.0})
        assert get_plan(3, 3, "auto").variant == "unrolled_cse"
        assert get_plan(3, 3, "auto").variant == "unrolled_cse"
        assert len(races) == 1
        doc = json.loads(self._record_path(tmp_path).read_text())
        assert doc["schema"] == race.PLAN_RACE_SCHEMA
        assert (doc["m"], doc["n"], doc["lanes"]) == (3, 3, race.RACE_LANES)
        assert doc["timings"]["unrolled_cse"]["numpy"] == 0.5
        assert doc["seconds"] > 0

        # the in-process memo gone, as in a new process: the record answers
        monkeypatch.setattr(race, "_RACES", {})
        clear_plan_cache()
        assert get_plan(3, 3, "auto").variant == "unrolled_cse"
        assert len(races) == 1

        # and a real new process, whose race would fail, reads it too
        src = pathlib.Path(__file__).resolve().parents[1] / "src"
        script = ("import repro.kernels.autotune as race; "
                  "race._run_race = None; "
                  "from repro.kernels.plan import get_plan; "
                  "print(get_plan(3, 3, 'auto').variant)")
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": str(src)}, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["unrolled_cse"]

    @pytest.mark.parametrize("damage", [
        "{\"schema\": \"repro-plan-race/1\", \"m\": 3, \"n\"",
        "[]",
        '{"schema": "repro-backend-tune/1", "m": 3, "n": 3, '
        '"variant": "vectorized", "timings": {"numpy": 1.0}, "best": "numpy"}',
        '{"schema": "repro-plan-race/1", "m": 3, "n": 3, "lanes": 16384, '
        '"backends": ["numpy"], "seconds": 0.1, '
        '"timings": {"vectorized": {"numpy": 1.0}, "batched": {"numpy": 0.1}}}',
        '{"schema": "repro-plan-race/1", "m": 4, "n": 3, "lanes": 16384, '
        '"backends": ["numpy"], "seconds": 0.1, '
        '"timings": {"vectorized": {"numpy": 1.0}}}',
    ], ids=["truncated", "not-a-record", "old-schema", "unknown-variant",
            "other-shape"])
    def test_damaged_record_is_raced_again(self, monkeypatch, tmp_path,
                                           damage):
        import json

        from repro.kernels.plan import get_plan

        path = self._record_path(tmp_path)
        path.write_text(damage)
        races = self._fake_timings(monkeypatch, {
            "vectorized": 2.0, "unrolled": 3.0, "unrolled_cse": 4.0,
            "blocked": 1.0})
        assert get_plan(3, 3, "auto").variant == "blocked"
        assert len(races) == 1
        assert json.loads(path.read_text())["schema"] == race.PLAN_RACE_SCHEMA

    def test_nothing_persisted_when_cache_is_off(self, monkeypatch, tmp_path):
        from repro.kernels.plan import get_plan

        monkeypatch.setenv("REPRO_PLAN_CACHE", "0")
        races = self._fake_timings(monkeypatch, dict.fromkeys(VARIANTS, 1.0))
        get_plan(3, 3, "auto")
        get_plan(3, 3, "vectorized", "auto")
        assert len(races) == 1  # still one race per process
        assert list(tmp_path.iterdir()) == []

    def test_every_auto_spelling_reads_one_record(self, monkeypatch,
                                                  tmp_path):
        """``get_plan(m, n, "auto")``, ``get_plan(m, n, v, "auto")`` and
        both-``"auto"`` take the fastest matching pair of the same record."""
        import json

        from repro.kernels.plan import get_plan, resolve_names

        import repro.kernels.codegen as codegen

        # a host with numba: the record's backends match, so it is read
        monkeypatch.setattr(codegen, "numba_available", lambda: True)
        monkeypatch.setattr(race, "_run_race", None)  # racing would raise
        self._record_path(tmp_path).write_text(json.dumps({
            "schema": race.PLAN_RACE_SCHEMA, "m": 3, "n": 3, "lanes": 16384,
            "backends": ["numpy", "numba"], "seconds": 0.1,
            "timings": {"vectorized": {"numpy": 1.0, "numba": 3.0},
                        "unrolled": {"numpy": 2.0, "numba": 0.5},
                        "unrolled_cse": {"numpy": 1.5, "numba": 0.7},
                        "blocked": {"numpy": 9.0}}}))
        assert resolve_names(3, 3, "auto") == ("vectorized", "numpy")
        assert resolve_names(3, 3, "unrolled_cse", "auto") == (
            "unrolled_cse", "numba")
        assert resolve_names(3, 3, "blocked", "auto") == ("blocked", "numpy")
        assert resolve_names(3, 3, "auto", "auto") == ("unrolled", "numba")
        assert resolve_names(3, 3, "auto", "numba") == ("unrolled", "numba")
        plan = get_plan(3, 3, "auto")
        assert (plan.variant, plan.backend) == ("vectorized", "numpy")
        assert get_plan(3, 3, "vectorized", "auto") is plan
        assert get_plan(3, 3, "blocked", "auto") is get_plan(3, 3, "blocked")

    def test_unroll_guard_and_byte_budget(self, monkeypatch):
        """Past the unroll guard only the library variants race, on as
        many lanes as the byte budget holds."""
        from repro.kernels.plan import resolve_names
        from repro.kernels.unrolled import MAX_UNROLLED_ENTRIES
        from repro.util.combinatorics import num_unique_entries

        unique = num_unique_entries(2, 90)
        assert unique > MAX_UNROLLED_ENTRIES
        races = self._fake_timings(monkeypatch, dict.fromkeys(VARIANTS, 1.0))
        record = race.plan_race(2, 90)
        assert races == [[("blocked", "numpy"), ("vectorized", "numpy")]]
        assert record["lanes"] == race.RACE_BYTES // (8 * unique)
        assert record["lanes"] < race.RACE_LANES
        # a fixed generated variant the race skipped builds on the default
        assert resolve_names(2, 90, "unrolled", "auto") == ("unrolled", "numpy")

    def test_slow_candidates_are_cut_after_one_sample(self, monkeypatch):
        """Each candidate is timed once; only those near the fastest are
        sampled again (a fake clock stands in for the host's)."""
        clock = [0.0]
        calls = {"fast": 0, "near": 0, "slow": 0}
        cost = {"fast": 1.0, "near": 1.2, "slow": 10.0}

        def candidate(name):
            def call():
                calls[name] += 1
                clock[0] += cost[name]
            return call

        monkeypatch.setattr(race.time, "perf_counter", lambda: clock[0])
        timings = race._time_candidates({k: candidate(k) for k in cost})
        assert timings == pytest.approx(cost)
        assert calls["slow"] == 2  # the warm-up and the one timed call
        assert calls["fast"] == calls["near"] == 2 + race._RACE_SAMPLES
