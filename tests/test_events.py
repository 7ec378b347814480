"""Tests for the observability plane: the bounded event spool
(:mod:`repro.instrument.events`), structured logging
(:mod:`repro.instrument.log`), the ``repro top`` dashboard
(:mod:`repro.instrument.top`), and their plumbing through the facade,
``SolveConfig``, and the CLI."""

import io
import json
import logging
import os
import time

import numpy as np
import pytest

import repro
from repro.core.config import SolveConfig
from repro.instrument.events import (
    DEFAULT_RATE_CAP,
    EVENTS_SCHEMA,
    EventSpool,
    current_spool,
    emit,
    new_run_id,
    provenance,
    read_events,
    use_spool,
    validate_event,
)
from repro.symtensor.random import random_symmetric_batch


@pytest.fixture
def batch():
    return random_symmetric_batch(4, 4, 3, rng=np.random.default_rng(3))


class TestEventSpool:
    def test_open_writes_header_with_provenance(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        with EventSpool.open(path) as spool:
            assert spool.run_id
        (header,) = read_events(path)
        validate_event(header)
        assert header["ev"] == "header"
        assert header["schema"] == EVENTS_SCHEMA
        assert header["run"] == spool.run_id
        assert {"host", "pid", "version"} <= set(header)

    def test_emit_stamps_base_fields(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        with EventSpool.open(path, run_id="abc", src="parent") as spool:
            assert spool.emit("steal", shard=3)
        recs = read_events(path)
        steal = recs[-1]
        assert steal == {"ev": "steal", "t": steal["t"], "run": "abc",
                         "src": "parent", "shard": 3}

    def test_emit_after_close_returns_false(self, tmp_path):
        spool = EventSpool.open(tmp_path / "ev.jsonl")
        spool.close()
        assert spool.emit("steal", shard=0) is False
        spool.close()  # idempotent

    def test_decimation_caps_rate_and_accounts_drops(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        spool = EventSpool.open(path, rate_cap=10)
        for sweep in range(50):
            spool.emit("retire", converged=0, failed=0, active=1, sweep=sweep)
        spool.close()
        recs = read_events(path)
        retires = [r for r in recs if r["ev"] == "retire"]
        dec = [r for r in recs if r["ev"] == "decimated"]
        assert len(retires) == 10
        assert sum(d["dropped"] for d in dec) == 40

    def test_lifecycle_events_never_decimated(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        spool = EventSpool.open(path, rate_cap=1)
        for shard in range(20):
            assert spool.emit("shard_start", shard=shard, lo=0, hi=1)
        spool.close()
        recs = read_events(path)
        assert len([r for r in recs if r["ev"] == "shard_start"]) == 20

    def test_multi_writer_same_file(self, tmp_path):
        """Process workers append through their own descriptor; lines
        from both writers land whole."""
        path = tmp_path / "ev.jsonl"
        parent = EventSpool.open(path, run_id="r1", src="parent")
        worker = EventSpool.open(path, run_id="r1", src="w0", header=False)
        parent.emit("run_start", tensors=1, lanes=1, workers=1, shards=1,
                    executor="process")
        worker.emit("shard_start", shard=0, lo=0, hi=1)
        worker.close()
        parent.emit("run_finish", seconds=0.1, requeues=0, failed=0)
        parent.close()
        recs = read_events(path)
        for rec in recs:
            validate_event(rec)
        assert [r["src"] for r in recs] == ["parent", "parent", "w0",
                                           "parent"]

    def test_default_rate_cap_is_sane(self):
        assert DEFAULT_RATE_CAP >= 100


class TestAmbientSpool:
    def test_module_emit_noops_without_spool(self):
        assert current_spool() is None
        assert emit("steal", shard=0) is False

    def test_use_spool_scopes_thread_locally(self, tmp_path):
        with EventSpool.open(tmp_path / "ev.jsonl") as spool:
            with use_spool(spool):
                assert current_spool() is spool
                assert emit("steal", shard=1)
            assert current_spool() is None

    def test_run_id_and_provenance_shapes(self):
        rid = new_run_id()
        assert len(rid) == 12 and set(rid) <= set("0123456789abcdef")
        prov = provenance()
        assert prov["pid"] == os.getpid()
        assert prov["version"] == repro.__version__


class TestReader:
    def test_skips_torn_and_garbage_lines(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        with EventSpool.open(path, run_id="r") as spool:
            spool.emit("steal", shard=0)
        with open(path, "ab") as fh:
            fh.write(b'{"ev":"steal","t":2.0,"run":"r","sr')  # torn
            fh.write(b"\nnot json at all\n")
            fh.write(b'[1,2,3]\n')  # parseable but not an object
        recs = read_events(path)
        assert [r["ev"] for r in recs] == ["header", "steal"]

    def test_strict_raises_with_line_number(self, tmp_path):
        path = tmp_path / "ev.jsonl"
        path.write_text('{"ev":"steal","t":1.0,"run":"r","src":"p","shard":0}\n'
                        "garbage\n")
        with pytest.raises(ValueError, match=":2:"):
            read_events(path, strict=True)

    def test_validate_event_rejections(self):
        ok = {"ev": "requeue", "t": 1.0, "run": "r", "src": "parent",
              "shard": 2, "attempt": 1}
        assert validate_event(ok) is ok
        with pytest.raises(ValueError, match="base field"):
            validate_event({"ev": "steal", "t": 1.0, "run": "r"})
        with pytest.raises(ValueError, match="unknown event type"):
            validate_event({"ev": "nope", "t": 1.0, "run": "r", "src": "p"})
        with pytest.raises(ValueError, match="missing field"):
            validate_event({"ev": "steal", "t": 1.0, "run": "r", "src": "p"})
        with pytest.raises(ValueError, match="must be a number"):
            validate_event({"ev": "steal", "t": "now", "run": "r",
                            "src": "p", "shard": 0})
        # open schema: extra fields are fine
        validate_event({**ok, "future_field": True})


class TestStructuredLogging:
    def _capture(self, json_lines):
        from repro.instrument.log import configure_logging

        stream = io.StringIO()
        configure_logging("debug", json_lines=json_lines, stream=stream)
        return stream

    def teardown_method(self):
        root = logging.getLogger("repro")
        for h in list(root.handlers):
            if getattr(h, "_repro_configured", False):
                root.removeHandler(h)
        root.propagate = True

    def test_json_lines_carry_context_and_fields(self):
        from repro.instrument.log import get_logger, log_context

        stream = self._capture(json_lines=True)
        log = get_logger("test.unit")
        with log_context(run="r123", worker="w0"):
            log.info("shard finished", fields={"shard": 4, "seconds": 0.25})
        rec = json.loads(stream.getvalue().strip())
        assert rec["level"] == "INFO"
        assert rec["logger"] == "repro.test.unit"
        assert rec["msg"] == "shard finished"
        assert rec["run"] == "r123" and rec["worker"] == "w0"
        assert rec["shard"] == 4 and rec["seconds"] == 0.25

    def test_context_nests_and_unwinds(self):
        from repro.instrument.log import get_logger, log_context

        stream = self._capture(json_lines=True)
        log = get_logger("test.unit")
        with log_context(run="outer"):
            with log_context(run="inner", extra_key=1):
                log.info("a")
            log.info("b")
        lines = [json.loads(x) for x in stream.getvalue().splitlines()]
        assert lines[0]["run"] == "inner" and lines[0]["extra_key"] == 1
        assert lines[1]["run"] == "outer" and "extra_key" not in lines[1]

    def test_text_format_appends_fields(self):
        from repro.instrument.log import get_logger

        stream = self._capture(json_lines=False)
        get_logger("test.unit").warning("requeue", fields={"shard": 2})
        out = stream.getvalue()
        assert "requeue" in out and "[shard=2]" in out

    def test_configure_is_idempotent(self):
        from repro.instrument.log import configure_logging

        s1, s2 = io.StringIO(), io.StringIO()
        configure_logging("info", json_lines=True, stream=s1)
        configure_logging("info", json_lines=True, stream=s2)
        root = logging.getLogger("repro")
        mine = [h for h in root.handlers
                if getattr(h, "_repro_configured", False)]
        assert len(mine) == 1

    def test_unconfigured_logging_is_silent(self, capsys):
        from repro.instrument.log import get_logger

        get_logger("test.quiet").info("nothing to see")
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == ""


def _write_run(path, *, finished=True):
    """A small synthetic two-worker run for the dashboard tests."""
    with EventSpool.open(path, run_id="feedbeef0001") as spool:
        spool.emit("run_start", tensors=4, lanes=16, workers=2, shards=2,
                   executor="process", ranges=[[0, 2], [2, 4]],
                   starts_per_tensor=4)
        w0 = EventSpool.open(path, run_id="feedbeef0001", src="w0",
                             header=False)
        w1 = EventSpool.open(path, run_id="feedbeef0001", src="w1",
                             header=False)
        w0.emit("worker_start", pid=101)
        w1.emit("worker_start", pid=102)
        w0.emit("shard_start", shard=0, lo=0, hi=2)
        w1.emit("shard_start", shard=1, lo=2, hi=4)
        w0.emit("retire", converged=6, failed=1, active=9, sweep=40)
        w0.emit("plan_cache", outcome="miss", m=4, n=3,
                variant="vectorized", backend="numpy")
        w1.emit("plan_cache", outcome="hit", m=4, n=3,
                variant="vectorized", backend="numpy")
        w0.emit("shard_finish", shard=0, seconds=0.5, sweeps=80)
        w1.emit("steal", shard=1)
        w1.emit("requeue", shard=1, attempt=1)
        w1.emit("shard_finish", shard=1, seconds=0.7, sweeps=90)
        w0.emit("worker_exit", shards=1)
        w1.emit("worker_exit", shards=1)
        w0.close()
        w1.close()
        if finished:
            spool.emit("run_finish", seconds=1.2, requeues=1, failed=0)
    return path


class TestTopDashboard:
    def test_aggregate_counts(self, tmp_path):
        from repro.instrument.top import aggregate

        view = aggregate(read_events(_write_run(tmp_path / "ev.jsonl")))
        assert view.run_id == "feedbeef0001"
        assert view.executor == "process"
        assert view.workers_expected == 2
        assert view.shards_total == 2
        assert view.finished == 2 and view.started == 2
        assert view.queue_depth() == 0 and view.in_flight() == 0
        assert view.steals == 1 and view.requeues == 1
        assert view.plan_hits == 1 and view.plan_misses == 1
        assert view.lanes_converged == 6 and view.lanes_failed == 1
        assert view.run_finished and view.run_seconds == 1.2
        assert view.invalid == 0
        w0 = view.workers["w0"]
        assert w0.pid == 101 and w0.finished == 1 and w0.exited
        assert w0.lanes_per_second() == pytest.approx(2 * 4 / 0.5)

    def test_aggregate_midrun_has_eta(self, tmp_path):
        from repro.instrument.top import aggregate

        path = tmp_path / "ev.jsonl"
        with EventSpool.open(path, run_id="r") as spool:
            spool.emit("run_start", tensors=4, lanes=16, workers=2,
                       shards=4, executor="process",
                       ranges=[[0, 1], [1, 2], [2, 3], [3, 4]])
            # a process worker appends through its own descriptor
            with EventSpool.open(path, run_id="r", src="w0",
                                 header=False) as w0:
                w0.emit("worker_start", pid=1)
                w0.emit("shard_start", shard=0, lo=0, hi=1)
                w0.emit("shard_finish", shard=0, seconds=2.0, sweeps=10)
                w0.emit("shard_start", shard=1, lo=1, hi=2)
        view = aggregate(read_events(path))
        assert not view.run_finished
        assert view.in_flight() == 1 and view.queue_depth() == 2
        # 3 shards left at ~2 s each on one live worker
        assert view.eta_seconds() == pytest.approx(6.0)

    def test_aggregate_counts_invalid_lines(self, tmp_path):
        from repro.instrument.top import aggregate

        path = _write_run(tmp_path / "ev.jsonl")
        with open(path, "a") as fh:
            fh.write('{"ev":"mystery","t":1.0,"run":"r","src":"p"}\n')
        view = aggregate(read_events(path))
        assert view.invalid == 1

    def test_render_plain_text(self, tmp_path):
        from repro.instrument.top import aggregate, render

        view = aggregate(read_events(_write_run(tmp_path / "ev.jsonl")))
        out = render(view, color=False)
        assert "\x1b[" not in out
        assert "feedbeef0001" in out
        assert "process" in out
        assert "w0" in out and "w1" in out
        assert "steals" in out

    def test_render_color_uses_ansi(self, tmp_path):
        from repro.instrument.top import aggregate, render

        view = aggregate(read_events(_write_run(tmp_path / "ev.jsonl")))
        assert "\x1b[" in render(view, color=True)

    def test_follow_once_exit_codes(self, tmp_path):
        from repro.instrument.top import follow

        path = _write_run(tmp_path / "done.jsonl")
        out = io.StringIO()
        assert follow(path, once=True, stream=out, color=False) == 0
        assert "FINISHED" in out.getvalue()
        unfinished = _write_run(tmp_path / "live.jsonl", finished=False)
        assert follow(unfinished, once=True, stream=io.StringIO(),
                      color=False) == 1
        assert follow(tmp_path / "missing.jsonl", once=True,
                      stream=io.StringIO(), color=False) == 2

    def test_follow_replay_stops_at_finish(self, tmp_path):
        from repro.instrument.top import follow

        path = _write_run(tmp_path / "done.jsonl")
        out = io.StringIO()
        status = follow(path, interval=0.01, stream=out, color=False,
                        max_frames=50)
        assert status == 0


class TestPlumbing:
    def test_config_events_field_routes_fleet_solve(self, batch, tmp_path):
        ev = tmp_path / "cfg.jsonl"
        cfg = SolveConfig(events=str(ev))
        rep = repro.solve(batch, starts=4, max_iters=100, rng=0, config=cfg)
        assert rep.solver == "fleet_solve"
        recs = read_events(ev)
        for rec in recs:
            validate_event(rec)
        evs = {r["ev"] for r in recs}
        assert {"header", "run_start", "run_finish"} <= evs

    def test_events_option_routes_parallel(self, batch, tmp_path):
        from repro.parallel.shm import SHM_AVAILABLE

        if not SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        ev = tmp_path / "par.jsonl"
        rep = repro.solve(batch, starts=4, max_iters=100, rng=0, workers=2,
                          executor="process", events=str(ev))
        assert rep.solver == "parallel_fleet_solve"
        recs = read_events(ev)
        srcs = {r["src"] for r in recs}
        assert {"parent", "w0", "w1"} <= srcs
        run_ids = {r["run"] for r in recs}
        assert len(run_ids) == 1

    def test_ambient_spool_wins_over_kwarg(self, batch, tmp_path):
        ambient = tmp_path / "ambient.jsonl"
        ignored = tmp_path / "ignored.jsonl"
        with EventSpool.open(ambient) as spool, use_spool(spool):
            repro.solve(batch, starts=4, max_iters=100, rng=0, workers=2,
                        events=str(ignored))
        assert not ignored.exists()
        assert len(read_events(ambient)) > 1

    def test_engine_emits_retire_and_compact(self, batch, tmp_path):
        ev = tmp_path / "engine.jsonl"
        repro.solve(batch, starts=8, max_iters=300, rng=0,
                    events=str(ev), compact_every=25)
        evs = [r["ev"] for r in read_events(ev)]
        assert "retire" in evs
        assert "plan_cache" in evs


class TestCLITop:
    def test_top_once_end_to_end(self, tmp_path, capsys):
        from repro.cli import main

        path = _write_run(tmp_path / "cli.jsonl")
        status = main(["top", str(path), "--once", "--no-color"])
        assert status == 0
        out = capsys.readouterr().out
        assert "repro top" in out and "feedbeef0001" in out

    def test_top_missing_file_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["top", str(tmp_path / "nope.jsonl"), "--once"]) == 2

    def test_cli_events_flag_writes_spool(self, tmp_path, capsys):
        from repro.cli import main

        ev = tmp_path / "cli_run.jsonl"
        status = main(["fleet-solve", "--tensors", "3", "--m", "4", "--n",
                       "3", "--starts", "4", "--workers", "2",
                       "--events", str(ev)])
        assert status == 0
        recs = read_events(ev)
        for rec in recs:
            validate_event(rec)
        assert {"header", "run_start", "run_finish"} <= {r["ev"] for r in recs}
        assert str(ev) in capsys.readouterr().out

    def test_cli_unwritable_events_exits_two(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "no" / "dir" / "ev.jsonl"
        status = main(["fleet-solve", "--tensors", "2", "--m", "4", "--n",
                       "3", "--starts", "4", "--events", str(bad)])
        assert status == 2
        assert "cannot write events file" in capsys.readouterr().err


class TestProvenance:
    def test_bench_meta_carries_provenance(self):
        from repro.bench.harness import run_smoke

        doc = run_smoke(reps=1, include=["sshopm_single"])
        meta = doc["meta"]
        assert meta["pid"] == os.getpid()
        assert meta["version"] == repro.__version__
        assert len(meta["run_id"]) == 12

    def test_checkpoint_run_carries_provenance(self):
        from repro.resilience.checkpoint import check_resumable, new_checkpoint

        ck = new_checkpoint(fingerprint="f", num_starts=4, seed=1,
                            alpha=0.0, tol=1e-8, max_iters=100)
        run = ck["run"]
        assert run["version"] == repro.__version__
        assert len(run["run_id"]) == 12
        # provenance must not break resumability on another host
        check_resumable(ck, fingerprint="f", num_starts=4, seed=1,
                        alpha=0.0, tol=1e-8, max_iters=100)

    def test_checkpoint_adopts_ambient_run_id(self, tmp_path):
        from repro.resilience.checkpoint import new_checkpoint

        with EventSpool.open(tmp_path / "ev.jsonl",
                             run_id="cafecafecafe") as spool:
            with use_spool(spool):
                ck = new_checkpoint(fingerprint="f", num_starts=4, seed=1,
                                    alpha=0.0, tol=1e-8, max_iters=100)
        assert ck["run"]["run_id"] == "cafecafecafe"
