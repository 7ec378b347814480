"""``repro.serve`` suite — the crash-tolerant daemon's acceptance gate.

Covers every robustness promise the service makes:

* the circuit breaker state machine (fake clock, no sleeps);
* bounded admission with structured 429 rejection;
* job specs, deadlines, and the chunk-checkpointing runner;
* drain/resume bit-for-bit equality from chunk checkpoints;
* worker-kill chaos through the full HTTP stack (breaker trips, the
  request still completes degraded);
* the overload path end to end (queue full -> 429 + ``Retry-After`` ->
  ``repro_serve_rejected_total`` -> ``/healthz`` ready=false);
* the soak scenario: a live ``repro serve`` subprocess SIGTERM'd
  mid-flight must exit 0 with a drain manifest, and a ``--resume-dir``
  restart must finish the job bit-for-bit with no leaked shm segments.
"""

import http.client
import json
import os
import pathlib
import signal
import subprocess
import sys
import threading
import time
import types
import urllib.error
import urllib.parse
import urllib.request

import numpy as np
import pytest

from repro.serve import (
    AdmissionError,
    AdmissionQueue,
    CircuitBreaker,
    EigenServer,
    Job,
    JobSpec,
    ServeConfig,
    read_drain_manifest,
    run_job,
    write_drain_manifest,
)
from repro.serve.batcher import ChunkBatcher
from repro.serve.jobs import BadSpec
from tests.conftest import own_segments

ROOT = pathlib.Path(__file__).resolve().parents[1]

#: Small, fast problem every in-process test shares.
SPEC = {"tensors": {"kind": "random", "count": 4, "m": 3, "n": 4, "seed": 5},
        "num_starts": 4, "seed": 1, "max_iters": 100, "chunk": 2}


def _shm_available():
    from repro.parallel.shm import SHM_AVAILABLE

    return SHM_AVAILABLE


# ----------------------------------------------------------------------
# circuit breaker


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


class TestCircuitBreaker:
    def test_trips_open_at_threshold(self):
        clock = FakeClock()
        br = CircuitBreaker(threshold=3, reset_after=30.0, clock=clock)
        assert br.state == "closed" and br.allow()
        br.record_failure()
        br.record_failure()
        assert br.state == "closed"  # not yet
        br.record_failure()
        assert br.state == "open"
        assert not br.allow()

    def test_success_resets_consecutive_count(self):
        br = CircuitBreaker(threshold=2, clock=FakeClock())
        br.record_failure()
        br.record_success()
        br.record_failure()
        assert br.state == "closed"  # the streak was broken

    def test_half_open_grants_exactly_one_probe(self):
        clock = FakeClock()
        br = CircuitBreaker(threshold=1, reset_after=10.0, clock=clock)
        br.record_failure()
        assert not br.allow()
        clock.advance(10.0)
        assert br.state == "half-open"
        assert br.allow()       # the probe
        assert not br.allow()   # concurrent callers keep degrading
        assert not br.allow()

    def test_probe_success_closes(self):
        clock = FakeClock()
        br = CircuitBreaker(threshold=1, reset_after=5.0, clock=clock)
        br.record_failure()
        clock.advance(5.0)
        assert br.allow()
        br.record_success()
        assert br.state == "closed"
        assert br.allow() and br.allow()  # fully open for business

    def test_probe_failure_reopens_with_fresh_cooldown(self):
        clock = FakeClock()
        br = CircuitBreaker(threshold=1, reset_after=5.0, clock=clock)
        br.record_failure()
        clock.advance(5.0)
        assert br.allow()
        br.record_failure()  # probe failed
        assert br.state == "open"
        clock.advance(4.9)
        assert br.state == "open"  # cooldown restarted, not resumed
        clock.advance(0.1)
        assert br.state == "half-open"

    def test_abandon_probe_releases_lease(self):
        clock = FakeClock()
        br = CircuitBreaker(threshold=1, reset_after=5.0, clock=clock)
        br.record_failure()
        clock.advance(5.0)
        assert br.allow()       # probe granted
        assert not br.allow()   # held
        br.abandon_probe()      # holder never exercised the process tier
        assert br.state == "half-open"
        assert br.allow()       # next caller probes immediately

    def test_probe_lease_expires_instead_of_wedging(self):
        # a probe holder that never reports (crashed caller) must not
        # leave the breaker half-open-but-unprobable forever
        clock = FakeClock()
        br = CircuitBreaker(threshold=1, reset_after=5.0, clock=clock)
        br.record_failure()
        clock.advance(5.0)
        assert br.allow()
        assert not br.allow()
        clock.advance(5.0)      # lease expires after reset_after
        assert br.allow()       # fresh probe granted
        br.record_success()
        assert br.state == "closed"

    def test_snapshot_shape(self):
        br = CircuitBreaker(threshold=4, reset_after=7.0, clock=FakeClock())
        br.record_failure()
        snap = br.snapshot()
        assert snap == {"state": "closed", "consecutive_failures": 1,
                        "threshold": 4, "reset_after": 7.0}

    def test_threshold_validated(self):
        with pytest.raises(ValueError):
            CircuitBreaker(threshold=0)


# ----------------------------------------------------------------------
# admission queue


class TestAdmissionQueue:
    def test_fifo_submit_take(self):
        q = AdmissionQueue(4)
        q.submit("a")
        q.submit("b")
        assert len(q) == 2
        assert q.take(timeout=0.1) == "a"
        assert q.take(timeout=0.1) == "b"
        assert q.take(timeout=0.01) is None

    def test_queue_full_rejection(self):
        q = AdmissionQueue(2)
        q.submit(1)
        q.submit(2)
        with pytest.raises(AdmissionError) as exc:
            q.submit(3)
        assert exc.value.reason == "queue_full"
        assert exc.value.retry_after >= 1.0
        assert len(q) == 2  # the reject did not enqueue

    def test_close_rejects_and_returns_tail(self):
        q = AdmissionQueue(4)
        q.submit("x")
        q.submit("y")
        assert q.close() == ["x", "y"]
        assert len(q) == 0 and q.closed
        with pytest.raises(AdmissionError) as exc:
            q.submit("z")
        assert exc.value.reason == "draining"
        assert q.take(timeout=0.01) is None

    def test_retry_after_scales_with_backlog(self):
        q = AdmissionQueue(8)
        for _ in range(20):
            q.record_service_time(10.0)  # EWMA converges toward 10s/job
        for i in range(4):
            q.submit(i)
        assert q.retry_after() > 4 * 10.0 * 0.5  # ~ depth * avg

    def test_force_submit_bypasses_capacity(self):
        # drain-manifest resume: a manifest can hold more jobs than the
        # queue limit (queued tail + interrupted in-flight) and every
        # one must be re-admitted
        q = AdmissionQueue(1)
        q.submit("a")
        q.submit("b", force=True)
        q.submit("c", force=True)
        assert len(q) == 3
        assert [q.take(timeout=0.1) for _ in range(3)] == ["a", "b", "c"]
        q.close()
        with pytest.raises(AdmissionError):
            q.submit("d", force=True)  # force never overrides close

    def test_take_registers_under_the_lock(self):
        # pop + mark-in-flight must be one atomic step, or a drain can
        # miss the job in both the close() tail and the running set
        q = AdmissionQueue(2)
        q.submit("a")
        seen = []
        assert q.take(timeout=0.1, register=seen.append) == "a"
        assert seen == ["a"]
        assert q.close() == []  # already popped and registered

    def test_limit_validated(self):
        with pytest.raises(ValueError):
            AdmissionQueue(0)


# ----------------------------------------------------------------------
# job specs


class TestJobSpec:
    def test_round_trip(self):
        spec = JobSpec.from_doc(dict(SPEC))
        again = JobSpec.from_doc(spec.to_doc())
        assert again.to_doc() == spec.to_doc()

    def test_values_kind_builds_batch(self):
        import numpy as np

        from repro.symtensor.random import random_symmetric_batch

        batch = random_symmetric_batch(2, 3, 4, rng=0)
        spec = JobSpec.from_doc({"tensors": {
            "kind": "values", "values": batch.values.tolist(),
            "m": 3, "n": 4}})
        rebuilt = spec.build_batch()
        np.testing.assert_array_equal(rebuilt.values, batch.values)
        assert (rebuilt.m, rebuilt.n) == (3, 4)

    @pytest.mark.parametrize("doc", [
        [],                                             # not an object
        {},                                             # no tensors
        {"tensors": {"kind": "nope"}},                  # unknown kind
        {"tensors": {"kind": "random", "count": 0, "m": 3, "n": 4}},
        {"tensors": {"kind": "random", "count": 2, "m": 3, "n": "x"}},
        {"tensors": {"kind": "values", "values": 7, "m": 3, "n": 4}},
        {**SPEC, "executor": "gpu"},
        {**SPEC, "deadline_seconds": -1},
        {**SPEC, "num_starts": 0},
        {**SPEC, "alpha": "wat"},
    ])
    def test_bad_docs_rejected(self, doc):
        with pytest.raises(BadSpec):
            JobSpec.from_doc(doc)


# ----------------------------------------------------------------------
# the checkpointing runner


def _job(doc, job_id="j1"):
    return Job(job_id, JobSpec.from_doc(json.loads(json.dumps(doc))))


class TestRunJob:
    def test_done_job_has_full_result(self, tmp_path):
        job = _job(SPEC)
        run_job(job, ckpt_dir=tmp_path)
        assert job.status == "done" and job.done_event.is_set()
        assert job.result["tensors_solved"] == [0, 1, 2, 3]
        assert (tmp_path / "job-j1.json").exists()
        doc = job.to_doc()
        assert doc["status"] == "done" and not doc["degraded"]

    def test_immediate_deadline_ends_with_deadline_status(self, tmp_path):
        job = _job({**SPEC, "deadline_seconds": 1e-9})
        time.sleep(0.01)  # guarantee the deadline is in the past
        run_job(job, ckpt_dir=tmp_path)
        assert job.status == "deadline"
        # never-drop contract: placeholder rows, nothing solved
        assert job.result["tensors_solved"] == []
        assert all(all(row) for row in job.result["failed"])

    def test_deadline_cut_chunk_is_kept_and_ends_job(self, tmp_path,
                                                     monkeypatch):
        # a chunk the deadline stopped mid-solve is recorded (its lanes
        # retired early) and no later chunk runs
        import repro.parallel.fleet as pfleet

        real = pfleet.parallel_fleet_solve

        def cut_short(*args, **kwargs):
            report = real(*args, **kwargs)
            report.result.stopped = True  # as if the deadline fired
            return report

        monkeypatch.setattr(pfleet, "parallel_fleet_solve", cut_short)
        job = _job({**SPEC, "deadline_seconds": 3600})
        run_job(job, ckpt_dir=tmp_path)
        assert job.status == "deadline"
        assert job.result["tensors_solved"] == [0, 1]
        state = json.loads((tmp_path / "job-j1.json").read_text())
        assert sorted(state["starts"]) == ["0", "1"]

    def test_pre_set_stop_event_interrupts(self, tmp_path):
        job = _job(SPEC)
        job.stop_event.set()
        run_job(job, ckpt_dir=tmp_path)
        assert job.status == "interrupted"
        assert job.result is None

    def test_drain_discards_the_cancelled_last_chunk(self, tmp_path,
                                                    monkeypatch):
        import repro.parallel.fleet as pfleet

        real = pfleet.parallel_fleet_solve
        job = _job(SPEC)  # two chunks of two tensors
        calls = []

        def drained_in_second_chunk(*args, **kwargs):
            report = real(*args, **kwargs)
            calls.append(report)
            if len(calls) == 2:  # a drain cancels the last chunk
                job.stop_event.set()
                report.result.stopped = True
            return report

        monkeypatch.setattr(pfleet, "parallel_fleet_solve",
                            drained_in_second_chunk)
        run_job(job, ckpt_dir=tmp_path)
        assert job.status == "interrupted" and job.result is None
        state = json.loads((tmp_path / "job-j1.json").read_text())
        assert sorted(state["starts"]) == ["0", "1"]

    def test_resume_from_partial_checkpoint_bit_for_bit(self, tmp_path):
        ref = _job(SPEC, "ref")
        run_job(ref, ckpt_dir=tmp_path)

        # simulate a drained life: keep only the first chunk's rows
        ck = tmp_path / "job-ref.json"
        state = json.loads(ck.read_text())
        assert sorted(map(int, state["starts"])) == [0, 1, 2, 3]
        full_rows = dict(state["starts"])
        state["starts"] = {k: v for k, v in state["starts"].items()
                           if int(k) < 2}
        ck.write_text(json.dumps(state))

        resumed = _job(SPEC, "ref")  # same id -> same checkpoint path
        run_job(resumed, ckpt_dir=tmp_path)
        assert resumed.status == "done"
        assert resumed.result == ref.result  # bit-for-bit, == not approx
        assert json.loads(ck.read_text())["starts"] == full_rows

    def test_stale_checkpoint_is_ignored_not_fatal(self, tmp_path):
        other = _job({**SPEC, "tensors": {**SPEC["tensors"], "seed": 99}},
                     "jx")
        run_job(other, ckpt_dir=tmp_path)
        # same path, different tensors: fingerprint mismatch
        job = _job(SPEC, "jx")
        run_job(job, ckpt_dir=tmp_path)
        assert job.status == "done"
        assert job.result["tensors_solved"] == [0, 1, 2, 3]

    def test_pre_2_checkpoint_is_recomputed(self, tmp_path):
        # rows a 1.x build wrote are stale: the job recomputes them
        ref = _job(SPEC, "old")
        run_job(ref, ckpt_dir=tmp_path)
        ck = tmp_path / "job-old.json"
        state = json.loads(ck.read_text())
        state["run"]["version"] = "1.4.0"
        for row in state["starts"].values():
            row["eigenvalues"] = [0.0] * len(row["eigenvalues"])
        ck.write_text(json.dumps(state))
        job = _job(SPEC, "old")
        run_job(job, ckpt_dir=tmp_path)
        assert job.status == "done"
        assert job.result == ref.result

    def test_open_breaker_degrades_to_thread_tier(self, tmp_path):
        ref = _job(SPEC, "thread-ref")
        run_job(ref, ckpt_dir=tmp_path)

        br = CircuitBreaker(threshold=1, reset_after=3600.0,
                            clock=FakeClock())
        br.record_failure()
        assert br.state == "open"
        job = _job({**SPEC, "executor": "process", "workers": 2}, "deg")
        run_job(job, breaker=br, ckpt_dir=tmp_path)
        assert job.status == "done" and job.degraded
        # the thread tier solved it: identical to the thread reference
        assert job.result == ref.result

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_killed_worker_trips_breaker_and_completes(self, tmp_path):
        if not _shm_available():
            pytest.skip("shared_memory unavailable")
        ref = _job(SPEC, "kref")
        run_job(ref, ckpt_dir=tmp_path)

        br = CircuitBreaker(threshold=1, reset_after=3600.0,
                            clock=FakeClock())
        chaos = {**SPEC, "executor": "process", "workers": 2, "chunk": 4,
                 "faults": {"0": "kill"}}
        job = _job(chaos, "kjob")
        run_job(job, breaker=br, ckpt_dir=tmp_path)
        # the fleet driver requeued the killed shard; the request survived
        assert job.status == "done"
        assert job.result["eigenvalues"] == ref.result["eigenvalues"]
        # ...but a recovered crash still counts as breaker failure
        assert br.state == "open"

        assert own_segments() == []

    def test_half_open_probe_resolves_on_thread_tier_run(self, tmp_path):
        # regression: a half-open probe granted to a run that resolves
        # to the thread tier (executor "auto" on a small problem) used
        # to be held forever — every later allow() returned False and
        # the breaker wedged with all requests degraded
        clock = FakeClock()
        br = CircuitBreaker(threshold=1, reset_after=5.0, clock=clock)
        br.record_failure()
        clock.advance(5.0)
        assert br.state == "half-open"
        job = _job({**SPEC, "executor": "auto"}, "probe")
        run_job(job, breaker=br, ckpt_dir=tmp_path)
        assert job.status == "done"
        assert not job.degraded   # every chunk got the probe, none hid
        assert br.allow()         # the probe lease was handed back

    def test_single_shard_process_job_gives_no_verdict(self, tmp_path):
        # one worker runs each chunk inline: the process tier never ran,
        # so the run must neither close a half-open breaker nor reset a
        # closed one's failure streak
        clock = FakeClock()
        br = CircuitBreaker(threshold=1, reset_after=5.0, clock=clock)
        br.record_failure()
        clock.advance(5.0)
        inline = {**SPEC, "executor": "process", "workers": 1}
        job = _job(inline, "inline")
        run_job(job, breaker=br, ckpt_dir=tmp_path)
        assert job.status == "done" and not job.degraded
        assert br.state == "half-open"
        assert br.allow()  # the probe was handed back

        streak = CircuitBreaker(threshold=3, clock=FakeClock())
        streak.record_failure()
        run_job(_job(inline, "inline2"), breaker=streak, ckpt_dir=tmp_path)
        assert streak.snapshot()["consecutive_failures"] == 1

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_faults_reach_later_chunks(self, tmp_path):
        # fault keys live in a job-global shard-id space spanning chunk
        # runs; a key past the first chunk's shard count must still be
        # injected (on the chunk run that contains it), not dropped
        if not _shm_available():
            pytest.skip("shared_memory unavailable")
        ref = _job(SPEC, "lref")
        run_job(ref, ckpt_dir=tmp_path)

        br = CircuitBreaker(threshold=1, reset_after=3600.0,
                            clock=FakeClock())
        # chunk=2 over 4 tensors with 2 workers: two chunk runs of two
        # shards each, so shard id 2 is the second run's first shard
        chaos = {**SPEC, "executor": "process", "workers": 2, "chunk": 2,
                 "faults": {"2": "kill"}}
        job = _job(chaos, "ljob")
        run_job(job, breaker=br, ckpt_dir=tmp_path)
        assert job.status == "done"  # requeue recovered the killed shard
        assert job.result["eigenvalues"] == ref.result["eigenvalues"]
        assert br.state == "open"    # proof the fault was injected

        assert own_segments() == []

    def test_process_tier_error_falls_back_once_per_job(self, tmp_path,
                                                       monkeypatch):
        # the process tier raising (not just losing a worker) degrades
        # each chunk to threads; the degraded counter counts the job once
        from repro.instrument.metrics import use_registry
        import repro.parallel.fleet as pfleet

        spec = {**SPEC, "chunk": 1}
        ref = _job(spec, "tref")
        run_job(ref, ckpt_dir=tmp_path)

        real = pfleet.parallel_fleet_solve

        def no_process_tier(*args, **kwargs):
            if kwargs.get("executor") == "process":
                raise OSError("process tier unavailable")
            return real(*args, **kwargs)

        monkeypatch.setattr(pfleet, "parallel_fleet_solve", no_process_tier)
        br = CircuitBreaker(threshold=10)
        job = _job({**spec, "executor": "process", "workers": 2}, "perr")
        with use_registry() as reg:
            run_job(job, breaker=br, ckpt_dir=tmp_path)
        assert job.status == "done" and job.degraded
        assert reg.get("repro_serve_degraded_total").value == 1
        assert job.result == ref.result

    def test_keep_prunes_old_checkpoints(self, tmp_path):
        for i in range(3):
            job = _job(SPEC, f"gc{i}")
            run_job(job, ckpt_dir=tmp_path, keep=1)
            time.sleep(0.02)  # distinct mtimes for the newest-first order
        left = sorted(p.name for p in tmp_path.glob("job-*.json"))
        # each completed job kept its own checkpoint + the 1 newest other
        assert left == ["job-gc1.json", "job-gc2.json"]

    def test_keep_protects_inflight_checkpoints(self, tmp_path):
        # the server passes its live in-flight set as `protect`; a job
        # finishing must not prune a checkpoint another running job
        # would need at the next drain, however old its mtime
        inflight = _job(SPEC, "live")
        run_job(inflight, ckpt_dir=tmp_path)
        live_path = tmp_path / "job-live.json"
        os.utime(live_path, (1000, 1000))  # oldest by far

        for i in range(2):
            job = _job(SPEC, f"new{i}")
            run_job(job, ckpt_dir=tmp_path, keep=1,
                    protect=lambda: [str(live_path)])
            time.sleep(0.02)
        left = sorted(p.name for p in tmp_path.glob("job-*.json"))
        assert "job-live.json" in left

    @pytest.mark.parametrize("method", ["qrst", "geap"])
    def test_other_methods_finish(self, tmp_path, method):
        job = _job({**SPEC, "method": method})
        run_job(job, ckpt_dir=tmp_path)
        assert job.status == "done"
        assert job.result["tensors_solved"] == [0, 1, 2, 3]

    @pytest.mark.parametrize("method", ["qrst", "geap"])
    def test_other_methods_resume_bit_for_bit(self, tmp_path, monkeypatch,
                                              method):
        spec = {**SPEC, "method": method}
        ref = _job(spec, "ref")
        run_job(ref, ckpt_dir=tmp_path)
        ck = tmp_path / "job-ref.json"
        state = json.loads(ck.read_text())
        state["starts"] = {k: v for k, v in state["starts"].items()
                           if int(k) < 2}
        ck.write_text(json.dumps(state))

        # count the tensors each chunk solve sees: the resumed life must
        # solve only the second chunk
        import importlib

        import repro.parallel.fleet as pfleet

        # repro.solvers re-exports a function named qrst that shadows the
        # submodule, so the attribute path cannot reach the module
        qrst = importlib.import_module("repro.solvers.qrst")
        module, name = ((qrst, "qrst_batch") if method == "qrst"
                        else (pfleet, "parallel_fleet_solve"))
        real, solved = getattr(module, name), []

        def counting(batch, *args, **kwargs):
            solved.append(len(batch))
            return real(batch, *args, **kwargs)

        monkeypatch.setattr(module, name, counting)
        resumed = _job(spec, "ref")
        run_job(resumed, ckpt_dir=tmp_path)
        assert resumed.status == "done"
        assert solved == [2]
        _assert_same_result(resumed.result, ref.result)

    def test_qrst_job_leaves_half_open_breaker_alone(self, tmp_path):
        # QRST chunks run in-process: they must neither degrade nor take
        # a half-open probe they would never hand back
        clock = FakeClock()
        br = CircuitBreaker(threshold=1, reset_after=5.0, clock=clock)
        br.record_failure()
        clock.advance(5.0)
        assert br.state == "half-open"
        job = _job({**SPEC, "method": "qrst", "executor": "process"}, "qp")
        run_job(job, breaker=br, ckpt_dir=tmp_path)
        assert job.status == "done" and not job.degraded
        assert br.allow()

    @pytest.mark.parametrize("tensor", [2, 3])
    def test_qrst_fault_keys_are_job_tensor_indices(self, tmp_path, tensor):
        job = _job({**SPEC, "method": "qrst",
                    "faults": {str(tensor): "crash"}})
        run_job(job, ckpt_dir=tmp_path)
        assert job.status == "done"
        failed = [t for t, row in enumerate(job.result["failed"]) if all(row)]
        assert failed == [tensor]

    def test_checkpoint_of_another_method_is_ignored(self, tmp_path):
        fresh = _job({**SPEC, "method": "qrst"}, "fresh")
        run_job(fresh, ckpt_dir=tmp_path)
        run_job(_job(SPEC, "mixed"), ckpt_dir=tmp_path)  # sshopm rows
        job = _job({**SPEC, "method": "qrst"}, "mixed")
        run_job(job, ckpt_dir=tmp_path)
        assert job.status == "done"
        _assert_same_result(job.result, fresh.result)


def _assert_same_result(a, b):
    """Bit-for-bit equality of two job results, NaN matching NaN (QRST
    rows carry ``shifts: None``, which the merge fills with NaN, so
    ``a == b`` is False even for identical runs)."""
    assert a.keys() == b.keys()
    for key in a:
        np.testing.assert_array_equal(np.asarray(a[key]), np.asarray(b[key]),
                                      err_msg=key)


def _spec(tensor_seed, start_seed, **extra):
    return {**SPEC, "tensors": {**SPEC["tensors"], "seed": tensor_seed},
            "seed": start_seed, **extra}


def _alone(spec, job_id, tmp_path):
    """``spec`` run by ``run_job`` alone (no batcher) — the reference."""
    ref_dir = tmp_path / "alone"
    ref_dir.mkdir(exist_ok=True)
    job = _job(spec, job_id)
    run_job(job, ckpt_dir=ref_dir)
    assert job.status == "done"
    return job


def _run_merged(tmp_path, specs, monkeypatch, on_call=None):
    """Run the jobs of ``specs`` on one thread each through one
    :class:`ChunkBatcher`, with their first chunks meeting in one round.

    A one-chunk *holder* job solves first, and its fleet call waits (on
    the batcher's own condition variable) until every job has joined, so
    the holder's round ends with all of them waiting.  ``on_call(i,
    kwargs, jobs)`` may adjust the keywords of the ``i``-th later fleet
    call.
    Returns the finished jobs and the tensor count of each later call.
    """
    import repro.parallel.fleet as pfleet

    batcher = ChunkBatcher()
    jobs = [_job(spec, f"m{i}") for i, spec in enumerate(specs)]
    real, sizes, entered = pfleet.parallel_fleet_solve, [], threading.Event()

    def fleet(tensors, **kwargs):
        if not entered.is_set():  # the holder's call
            entered.set()
            with batcher._cond:
                assert batcher._cond.wait_for(
                    lambda: set(jobs) <= batcher._members, timeout=60)
            return real(tensors, **kwargs)
        sizes.append(len(tensors))
        if on_call is not None:
            on_call(len(sizes), kwargs, jobs)
        return real(tensors, **kwargs)

    monkeypatch.setattr(pfleet, "parallel_fleet_solve", fleet)
    holder = _job(_spec(9, 9, tensors={**SPEC["tensors"], "count": 2}),
                  "holder")

    def run(job):
        return threading.Thread(target=run_job, args=(job,), kwargs=dict(
            ckpt_dir=tmp_path, batcher=batcher))

    threads = [run(holder)]
    threads[0].start()
    assert entered.wait(timeout=60)
    threads += [run(job) for job in jobs]
    for t in threads[1:]:
        t.start()
    for t in threads:
        t.join(timeout=120)
        assert not t.is_alive()
    assert holder.status == "done"
    return jobs, sizes


class TestChunkBatcher:
    """Concurrent jobs' chunks merged into one fleet per round: each job's
    rows stay bit-identical to ``run_job`` alone."""

    def test_merged_jobs_equal_run_job_alone(self, tmp_path, monkeypatch):
        specs = [_spec(5, 1), _spec(6, 2), _spec(7, 3, method="geap"),
                 _spec(8, 4, method="geap")]
        refs = [_alone(spec, f"r{i}", tmp_path)
                for i, spec in enumerate(specs)]
        jobs, sizes = _run_merged(tmp_path, specs, monkeypatch)
        # two rounds (chunks of two of four tensors), one fleet per method
        assert sizes == [4, 4, 4, 4]
        for job, ref in zip(jobs, refs):
            assert job.status == "done"
            _assert_same_result(job.result, ref.result)

    def test_lone_chunk_makes_the_run_job_call(self, tmp_path, monkeypatch):
        import repro.parallel.fleet as pfleet

        real, calls = pfleet.parallel_fleet_solve, []

        def spy(tensors, **kwargs):
            calls.append((tensors.values.tolist(),
                          {k: (v.tolist() if isinstance(v, np.ndarray)
                               else v.__name__ if callable(v) else v)
                           for k, v in kwargs.items()}))
            return real(tensors, **kwargs)

        monkeypatch.setattr(pfleet, "parallel_fleet_solve", spy)
        run_job(_job(SPEC, "plain"), ckpt_dir=tmp_path)
        plain, calls[:] = list(calls), []
        run_job(_job(SPEC, "lone"), ckpt_dir=tmp_path,
                batcher=ChunkBatcher())
        assert calls == plain and len(plain) == 2

    def test_deadline_in_merged_round_spares_the_other_job(self, tmp_path,
                                                           monkeypatch):
        import repro.serve.batcher as batcher_mod

        late, other = _spec(5, 1, deadline_seconds=3600), _spec(6, 2)
        ref_late = _alone(late, "rl", tmp_path)
        ref_other = _alone(other, "ro", tmp_path)
        # the batcher's clock passes the deadline at the third sweep poll
        # of the first merged round, mid-solve
        polls = [0]

        def now():
            polls[0] += 1
            return time.time() + (1e6 if polls[0] >= 3 else 0.0)

        monkeypatch.setattr(batcher_mod, "time",
                            types.SimpleNamespace(time=now))
        (cut, kept), sizes = _run_merged(tmp_path, [late, other],
                                         monkeypatch)
        assert sizes == [4, 2]  # the other job's second chunk runs alone
        _assert_same_result(kept.result, ref_other.result)
        assert cut.status == "deadline"
        # the cut chunk is kept: its lanes stopped after two sweeps
        assert cut.result["tensors_solved"] == [0, 1]
        assert np.max(cut.result["iterations"][:2]) == 2
        assert cut.result["iterations"] != ref_late.result["iterations"]

    def test_deadline_after_lanes_retired_ends_done(self, tmp_path,
                                                    monkeypatch):
        import repro.serve.batcher as batcher_mod

        # one chunk each; with this shift tensors 5 converge by sweep 46,
        # tensors 6 by sweep 133
        one_chunk = {**SPEC["tensors"], "count": 2}
        specs = [_spec(5, 1, tensors={**one_chunk, "seed": seed},
                       alpha=5.0, max_iters=400) for seed in (5, 6)]
        refs = [_alone(spec, f"r{i}", tmp_path)
                for i, spec in enumerate(specs)]
        done_at = [int(np.max(r.result["iterations"])) for r in refs]
        early = int(np.argmin(done_at))
        assert done_at[early] + 1 < max(done_at)  # the other still runs
        specs[early] = {**specs[early], "deadline_seconds": 3600}
        polls = [0]

        def now():
            # past the deadline from the first poll after its lanes retired
            polls[0] += 1
            return time.time() + (1e6 if polls[0] > done_at[early] else 0.0)

        monkeypatch.setattr(batcher_mod, "time",
                            types.SimpleNamespace(time=now))
        jobs, sizes = _run_merged(tmp_path, specs, monkeypatch)
        assert sizes == [4]
        assert polls[0] > done_at[early]  # the deadline did pass
        for job, ref in zip(jobs, refs):
            assert job.status == "done"
            _assert_same_result(job.result, ref.result)

    def test_drain_in_merged_round_interrupts_both_then_resumes(
            self, tmp_path, monkeypatch):
        specs = [_spec(5, 1), _spec(6, 2)]
        refs = [_alone(spec, f"r{i}", tmp_path)
                for i, spec in enumerate(specs)]

        def drain_mid_second_round(i, kwargs, jobs):
            if i != 2:
                return
            inner, polls = kwargs["stop"], [0]

            def stop():
                polls[0] += 1
                if polls[0] == 3:  # the drain sets every job's stop event
                    for job in jobs:
                        job.stop_event.set()
                return inner()
            kwargs["stop"] = stop

        ran, sizes = _run_merged(tmp_path, specs, monkeypatch,
                                 on_call=drain_mid_second_round)
        assert sizes == [4, 4]
        for job in ran:
            assert job.status == "interrupted" and job.result is None
            state = json.loads(pathlib.Path(job.checkpoint).read_text())
            assert sorted(state["starts"]) == ["0", "1"]  # chunk one only
        monkeypatch.undo()
        for job, spec, ref in zip(ran, specs, refs):
            resumed = _job(spec, job.id)
            run_job(resumed, ckpt_dir=tmp_path, batcher=ChunkBatcher())
            assert resumed.status == "done"
            _assert_same_result(resumed.result, ref.result)

    def test_stress_more_jobs_than_cores(self, tmp_path):
        # six runners share one batcher, with jobs of one to four chunks
        # (they leave at different rounds) and a short switch interval;
        # a lost join, leave or outcome wedges a runner or changes rows
        specs = [_spec(10 + i, i, tensors={**SPEC["tensors"], "seed": 10 + i,
                                           "count": 1 + i % 4}, chunk=1)
                 for i in range(6)]
        refs = [_alone(spec, f"r{i}", tmp_path)
                for i, spec in enumerate(specs)]
        batcher, jobs = ChunkBatcher(), [_job(spec, f"s{i}")
                                         for i, spec in enumerate(specs)]
        threads = [threading.Thread(target=run_job, args=(job,), kwargs=dict(
            ckpt_dir=tmp_path, batcher=batcher)) for job in jobs]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for job, ref in zip(jobs, refs):
            assert job.status == "done"
            _assert_same_result(job.result, ref.result)
        assert not batcher._members and not batcher._ready

    @pytest.mark.parametrize("extra", [
        {"method": "qrst"}, {"executor": "process"}, {"executor": "auto"},
        {"workers": 2}, {"faults": {"0": "crash"}}])
    def test_ineligible_jobs_never_enter_the_batcher(self, tmp_path, extra):
        batcher = ChunkBatcher()

        def refuse(*args, **kwargs):
            raise AssertionError("an ineligible chunk reached the batcher")

        batcher.solve = refuse
        job = _job({**SPEC, **extra})
        run_job(job, ckpt_dir=tmp_path, batcher=batcher)
        assert job.status == "done"

    def test_merged_solve_that_raises_fails_no_job(self, tmp_path,
                                                   monkeypatch):
        specs = [_spec(5, 1), _spec(6, 2)]
        refs = [_alone(spec, f"r{i}", tmp_path)
                for i, spec in enumerate(specs)]

        def fail_merged(i, kwargs, jobs):
            if np.ndim(kwargs["starts"]) == 3:
                kwargs["starts"] = "not starts"  # the merged call raises

        jobs, sizes = _run_merged(tmp_path, specs, monkeypatch,
                                  on_call=fail_merged)
        # each round: the failed merged call, then each job alone
        assert sizes == [4, 2, 2, 4, 2, 2]
        for job, ref in zip(jobs, refs):
            assert job.status == "done"
            _assert_same_result(job.result, ref.result)


class TestBenchmarkHooks:
    """The per-layer traced benchmark patches names in ``repro.serve.jobs``
    and ``repro.parallel.fleet`` (``perfbench/layers.py``); a job run under
    its tracer must still reach them."""

    def test_layer_tracer_sees_every_chunk(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import layers

        with layers.LayerTracer() as tracer:
            job = _job(SPEC)  # four tensors in chunks of two
            run_job(job, ckpt_dir=tmp_path)
        assert job.status == "done"
        assert tracer.n["ckpt_writes"] == 2
        assert len(tracer.reports) == 2

    def test_layer_tracer_sees_merged_chunks(self, tmp_path, monkeypatch):
        monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
        import layers

        with layers.LayerTracer() as tracer:
            jobs, sizes = _run_merged(tmp_path, [_spec(5, 1), _spec(6, 2)],
                                      monkeypatch)
        assert [job.status for job in jobs] == ["done", "done"]
        assert sizes == [4, 4]
        # the holder's chunk, then two merged rounds
        assert tracer.n["ckpt_writes"] == 1 + 4
        assert len(tracer.reports) == 1 + 2


# ----------------------------------------------------------------------
# retention


class TestRetention:
    def _ckpt(self, path, stamp):
        path.write_text(json.dumps({"schema": "repro-ckpt/1", "starts": {}}))
        os.utime(path, (stamp, stamp))

    def test_prune_keeps_newest(self, tmp_path):
        from repro.resilience.retention import (
            list_checkpoints,
            prune_checkpoints,
        )

        for i in range(4):
            self._ckpt(tmp_path / f"c{i}.json", 1000 + i)
        assert [p.name for p in list_checkpoints(tmp_path)] == [
            "c3.json", "c2.json", "c1.json", "c0.json"]
        pruned = prune_checkpoints(tmp_path, keep=2)
        assert sorted(p.name for p in pruned) == ["c0.json", "c1.json"]
        assert sorted(p.name for p in tmp_path.glob("*.json")) == [
            "c2.json", "c3.json"]

    def test_prune_never_touches_foreign_files(self, tmp_path):
        from repro.resilience.retention import prune_checkpoints

        self._ckpt(tmp_path / "old.json", 1000)
        write_drain_manifest(tmp_path, [{
            "job": "j", "run_id": "r", "state": "queued",
            "spec": {}, "checkpoint": None}])
        (tmp_path / "notes.json").write_text('{"schema": "other/1"}')
        (tmp_path / "garbage.json").write_text("not json at all")
        pruned = prune_checkpoints(tmp_path, keep=0)
        assert [p.name for p in pruned] == ["old.json"]
        survivors = sorted(p.name for p in tmp_path.glob("*.json"))
        assert survivors == ["drain.json", "garbage.json", "notes.json"]
        assert read_drain_manifest(tmp_path)  # manifest intact

    def test_exclude_and_dry_run(self, tmp_path):
        from repro.resilience.retention import prune_checkpoints

        for i in range(3):
            self._ckpt(tmp_path / f"c{i}.json", 1000 + i)
        would = prune_checkpoints(tmp_path, keep=0,
                                  exclude=[tmp_path / "c2.json"],
                                  dry_run=True)
        assert sorted(p.name for p in would) == ["c0.json", "c1.json"]
        assert len(list(tmp_path.glob("*.json"))) == 3  # dry run deleted 0
        prune_checkpoints(tmp_path, keep=0, exclude=[tmp_path / "c2.json"])
        assert [p.name for p in tmp_path.glob("*.json")] == ["c2.json"]

    def test_keep_validated(self, tmp_path):
        from repro.resilience.retention import prune_checkpoints

        with pytest.raises(ValueError):
            prune_checkpoints(tmp_path, keep=-1)


# ----------------------------------------------------------------------
# HTTP plane (in-process server, real sockets)


def _http(method, url, doc=None, timeout=30):
    """Tiny JSON client: returns (status, headers, parsed body)."""
    data = json.dumps(doc).encode() if doc is not None else None
    req = urllib.request.Request(url, data=data, method=method,
                                 headers={"Content-Type": "application/json"})
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, dict(resp.headers), json.load(resp)
    except urllib.error.HTTPError as err:
        body = err.read().decode()
        try:
            parsed = json.loads(body)
        except json.JSONDecodeError:
            parsed = {"raw": body}
        return err.code, dict(err.headers), parsed


def _post_raw(url, body: bytes, headers=None):
    """POST raw bytes with the given headers (``urllib`` would fix up a bad
    Content-Length); returns (status, parsed body)."""
    parts = urllib.parse.urlsplit(url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port, timeout=30)
    try:
        conn.request("POST", parts.path, body=body,
                     headers={"Content-Type": "application/json",
                              **(headers or {})})
        resp = conn.getresponse()
        return resp.status, json.load(resp)
    finally:
        conn.close()


@pytest.fixture
def server(tmp_path):
    srv = EigenServer(ServeConfig(port=0, runners=1, queue_limit=8,
                                  checkpoint_dir=tmp_path / "ckpt"))
    host, port = srv.start()
    yield srv, f"http://{host}:{port}"
    srv.drain()


class TestServerHTTP:
    def test_healthz_ready(self, server):
        _, base = server
        status, _, doc = _http("GET", base + "/healthz")
        assert status == 200
        assert doc["live"] and doc["ready"] and not doc["draining"]
        assert doc["breaker"]["state"] == "closed"

    def test_solve_wait_returns_full_result(self, server):
        _, base = server
        status, _, doc = _http("POST", base + "/solve?wait=1", SPEC)
        assert status == 200
        assert doc["status"] == "done" and not doc["degraded"]
        assert doc["result"]["tensors_solved"] == [0, 1, 2, 3]
        assert doc["run_id"]

    def test_async_solve_then_poll(self, server):
        srv, base = server
        status, headers, doc = _http("POST", base + "/solve", SPEC)
        assert status == 202
        assert headers["Location"] == f"/jobs/{doc['job']}"
        assert srv.get_job(doc["job"]).done_event.wait(timeout=30)
        status, _, jdoc = _http("GET", base + headers["Location"])
        assert status == 200 and jdoc["status"] == "done"

    def test_unknown_job_404(self, server):
        _, base = server
        status, _, doc = _http("GET", base + "/jobs/nope")
        assert status == 404 and doc["error"] == "unknown job"

    def test_unknown_endpoint_404(self, server):
        _, base = server
        assert _http("GET", base + "/wat")[0] == 404
        assert _http("POST", base + "/wat", {})[0] == 404

    def test_bad_requests_400(self, server):
        _, base = server
        status, _, doc = _http("POST", base + "/solve", {"tensors": 7})
        assert status == 400 and doc["error"] == "bad_request"
        # invalid JSON body
        req = urllib.request.Request(
            base + "/solve", data=b"{nope", method="POST",
            headers={"Content-Type": "application/json"})
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=10)
        assert err.value.code == 400
        # JSON that is not an object, bytes that are not UTF-8 and a
        # non-numeric Content-Length: answered, not a dropped connection
        for body, headers in ((b"[]", None), (b"5", None), (b'"x"', None),
                              (b"null", None), (b"\xff\xfe\x80", None),
                              (b"{}", {"Content-Length": "abc"})):
            status, doc = _post_raw(base + "/solve", body, headers)
            assert status == 400 and doc["error"] == "bad_request", body
        # inline values whose rows do not hold C(m+n-1, m) = 20 numbers for
        # (3, 4), and a non-positive order: 400 at the door, not a job
        # that takes a queue slot and a runner and then fails
        for tensors in ({"values": [[1, 2]]},
                        {"values": [[1.0] * 15]},
                        {"values": [[None] * 20]},
                        {"values": [[1.0] * 15, [1.0] * 14]},
                        {"values": [[1.0] * 20, [1.0] * 19]},
                        {"values": []},
                        {"values": [[1.0]], "m": 0}):
            doc = {"tensors": {"kind": "values", "m": 3, "n": 4, **tensors}}
            status, _, reply = _http("POST", base + "/solve", doc)
            assert status == 400 and reply["error"] == "bad_request", tensors
        assert _http("GET", base + "/healthz")[0] == 200

    def test_metrics_exposition(self, server):
        _, base = server
        _http("POST", base + "/solve?wait=1", SPEC)
        req = urllib.request.Request(base + "/metrics")
        with urllib.request.urlopen(req, timeout=10) as resp:
            assert resp.status == 200
            text = resp.read().decode()
        assert "repro_serve_requests_total" in text
        assert "repro_serve_jobs_total" in text

    def test_ready_callback_runs_under_signal_handlers(self, tmp_path):
        """``serve_forever`` starts the server and calls
        ``on_ready(host, port)`` (where the CLI prints its ready line)
        only once SIGTERM drains instead of kills, so a supervisor may
        signal as soon as it reads the line."""
        srv = EigenServer(ServeConfig(port=0, runners=1,
                                      checkpoint_dir=tmp_path / "ckpt"))
        before = signal.getsignal(signal.SIGTERM)
        seen = []

        def on_ready(host, port):
            seen.append((signal.getsignal(signal.SIGTERM), port))
            srv.shutdown()

        assert srv.serve_forever(on_ready=on_ready) == 0
        assert seen and seen[0][0] not in (before, signal.SIG_DFL)
        assert seen[0][1] > 0  # the bound port, not the 0 asked for
        assert signal.getsignal(signal.SIGTERM) is before
        assert srv.draining

    def test_submit_after_drain_is_draining_error(self, server):
        srv, _ = server
        srv.drain()
        with pytest.raises(AdmissionError) as exc:
            srv.submit(dict(SPEC))
        assert exc.value.reason == "draining"


#: A spec that stays busy for seconds (many 1-tensor chunks), letting
#: overload and drain tests interrupt it deterministically mid-flight.
SLOW_SPEC = {"tensors": {"kind": "random", "count": 400, "m": 3, "n": 6,
                         "seed": 2},
             "num_starts": 8, "seed": 3, "max_iters": 500, "tol": 1e-14,
             "chunk": 1}


def _wait_for_status(base, job_id, want, timeout=15):
    deadline = time.time() + timeout
    while time.time() < deadline:
        _, _, doc = _http("GET", f"{base}/jobs/{job_id}")
        if doc.get("status") == want:
            return doc
        time.sleep(0.02)
    raise AssertionError(f"job {job_id} never reached {want!r}")


class TestOverloadPath:
    """Satellite: queue full -> 429 + Retry-After -> rejected metric ->
    healthz ready=false, asserted through the real HTTP stack."""

    def test_queue_full_end_to_end(self, tmp_path):
        srv = EigenServer(ServeConfig(port=0, runners=1, queue_limit=1,
                                      checkpoint_dir=tmp_path / "ckpt"))
        host, port = srv.start()
        base = f"http://{host}:{port}"
        try:
            # A occupies the single runner...
            status, _, a = _http("POST", base + "/solve", SLOW_SPEC)
            assert status == 202
            assert srv.get_job(a["job"]).start_event.wait(timeout=30)
            # ...B fills the queue (limit 1)...
            status, _, b = _http("POST", base + "/solve", SPEC)
            assert status == 202

            # ...C is refused at the front door with a structured payload
            status, headers, c = _http("POST", base + "/solve", SPEC)
            assert status == 429
            assert c["error"] == "queue_full"
            assert c["queue_limit"] == 1
            assert c["retry_after"] >= 1
            assert int(headers["Retry-After"]) == c["retry_after"]

            # the rejection is visible on /metrics...
            with urllib.request.urlopen(base + "/metrics",
                                        timeout=10) as resp:
                text = resp.read().decode()
            assert 'repro_serve_rejected_total{reason="queue_full"}' in text

            # ...and /healthz flips to not-ready (503) while saturated
            status, _, health = _http("GET", base + "/healthz")
            assert status == 503
            assert health["live"] and not health["ready"]
            assert health["queue_depth"] == 1

            # drain: A is interrupted in flight, B was still queued
            summary = srv.drain()
            assert summary["interrupted"] == 1 and summary["queued"] == 1
            entries = read_drain_manifest(tmp_path / "ckpt")
            states = {e["job"]: e["state"] for e in entries}
            assert states == {a["job"]: "interrupted", b["job"]: "queued"}
        finally:
            srv.drain()


class TestDrainAnswersWaitingClients:
    """A ``?wait=1`` client of a job the drain leaves queued gets a 503
    at once instead of hanging until the process exits."""

    def test_queued_wait_client_gets_503(self, tmp_path):
        srv = EigenServer(ServeConfig(port=0, runners=1, queue_limit=4,
                                      checkpoint_dir=tmp_path / "ckpt"))
        host, port = srv.start()
        base = f"http://{host}:{port}"
        try:
            busy = srv.submit(dict(SLOW_SPEC))
            assert busy.start_event.wait(timeout=30)
            admitted, submit = threading.Event(), srv.submit

            def observed(doc):
                job = submit(doc)
                admitted.set()
                return job

            srv.submit = observed
            reply = []
            client = threading.Thread(target=lambda: reply.append(
                _http("POST", base + "/solve?wait=1", SPEC, timeout=60)))
            client.start()
            assert admitted.wait(timeout=30)
            srv.drain()
            client.join(timeout=30)
            assert not client.is_alive() and reply
            status, headers, doc = reply[0]
            assert status == 503
            assert doc["error"] == "draining" and doc["status"] == "queued"
            assert int(headers["Retry-After"]) >= 1
            assert busy.status == "interrupted"
            states = {e["job"]: e["state"]
                      for e in read_drain_manifest(tmp_path / "ckpt")}
            assert states == {busy.id: "interrupted", doc["job"]: "queued"}
        finally:
            srv.drain()


class TestResumeOverfullManifest:
    """Regression: a drain taken under load writes up to queue_limit
    queued entries plus the interrupted in-flight ones, so the manifest
    can exceed the queue limit — ``--resume-dir`` startup must re-admit
    every entry, not crash on AdmissionError and strand the manifest."""

    def test_resume_manifest_exceeding_queue_limit(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        spec_doc = JobSpec.from_doc(json.loads(json.dumps(SPEC))).to_doc()
        write_drain_manifest(ckpt, [
            {"job": f"r{i}", "run_id": f"rid{i}", "state": "queued",
             "spec": spec_doc, "checkpoint": None}
            for i in range(3)])

        srv = EigenServer(ServeConfig(port=0, runners=1, queue_limit=1,
                                      checkpoint_dir=ckpt, resume_dir=ckpt))
        srv.start()  # three resumed jobs through a limit-1 queue
        try:
            assert read_drain_manifest(ckpt) is None  # cleared on load
            for i in range(3):
                job = srv.get_job(f"r{i}")
                assert job is not None
                assert job.done_event.wait(timeout=60)
                assert job.status == "done"
        finally:
            srv.drain()


class TestResumeOnBusyPort:
    """Regression: ``start()`` took the drain manifest's jobs and deleted
    the manifest before binding its port, so a restart on a busy port
    failed with the resumed jobs gone from disk."""

    def test_busy_port_keeps_the_manifest(self, tmp_path):
        import socket

        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        spec_doc = JobSpec.from_doc(json.loads(json.dumps(SPEC))).to_doc()
        write_drain_manifest(ckpt, [
            {"job": "r0", "run_id": "rid0", "state": "queued",
             "spec": spec_doc, "checkpoint": None}])
        with socket.socket() as busy:
            busy.bind(("127.0.0.1", 0))
            busy.listen()
            srv = EigenServer(ServeConfig(
                port=busy.getsockname()[1], runners=1, checkpoint_dir=ckpt,
                resume_dir=ckpt))
            with pytest.raises(OSError):
                srv.start()
        assert [e["job"] for e in read_drain_manifest(ckpt)] == ["r0"]


class TestBreakerOverHTTP:
    """Acceptance: SIGKILL a fleet worker mid-request — the breaker
    trips, the request completes, and the next process-tier request is
    served degraded on the thread tier with the identical result."""

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_worker_kill_trips_breaker_and_degrades(self, tmp_path):
        if not _shm_available():
            pytest.skip("shared_memory unavailable")
        ref = _job(SPEC, "ref")
        (tmp_path / "ref").mkdir()
        run_job(ref, ckpt_dir=tmp_path / "ref")

        srv = EigenServer(ServeConfig(
            port=0, runners=1, queue_limit=4, breaker_threshold=1,
            breaker_reset=3600.0, checkpoint_dir=tmp_path / "ckpt"))
        host, port = srv.start()
        base = f"http://{host}:{port}"
        try:
            chaos = {**SPEC, "executor": "process", "workers": 2,
                     "chunk": 4, "faults": {"0": "kill"}}
            status, _, doc = _http("POST", base + "/solve?wait=1", chaos)
            assert status == 200
            assert doc["status"] == "done"  # requeue recovered the shard
            assert doc["result"]["eigenvalues"] == \
                ref.result["eigenvalues"]

            # the crash tripped the breaker: not-ready, breaker open
            status, _, health = _http("GET", base + "/healthz")
            assert status == 503
            assert health["breaker"]["state"] == "open"

            # next process-tier request degrades to threads, same answer
            clean = {**SPEC, "executor": "process", "workers": 2}
            status, _, doc = _http("POST", base + "/solve?wait=1", clean)
            assert status == 200
            assert doc["status"] == "done" and doc["degraded"]
            assert doc["result"] == ref.result

            assert own_segments() == []
        finally:
            srv.drain()


# ----------------------------------------------------------------------
# the soak: a real `repro serve` process, SIGTERM'd mid-flight


#: Heavy enough (a few seconds) that SIGTERM reliably lands between
#: chunks, with completed chunks behind it and unsolved ones ahead.
SOAK_SPEC = {"tensors": {"kind": "random", "count": 12, "m": 4, "n": 8,
                         "seed": 3},
             "num_starts": 12, "seed": 7, "max_iters": 2000, "tol": 1e-14,
             "chunk": 2}


def _serve_proc(args, cwd):
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
         "--runners", "1", *args],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")}, cwd=str(cwd),
    )


def _has_chunk_checkpoint(path) -> bool:
    """True once ``path`` holds a job checkpoint with a completed chunk."""
    try:
        return bool(json.loads(path.read_text())["starts"])
    except (OSError, ValueError, KeyError):
        return False


def _ready_base(proc):
    line = proc.stdout.readline()
    ready = json.loads(line)
    assert ready["event"] == "ready"
    return f"http://{ready['host']}:{ready['port']}"


class TestResumeWindowSigterm:
    """Regression: ``--resume-dir`` deletes the drain manifest once its
    jobs are in memory, so from that moment a SIGTERM must drain them
    into a new manifest; before the signal handlers went in ahead of the
    resume load, it killed the process (exit -15) and the jobs were lost."""

    def test_sigterm_as_the_manifest_is_taken(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        ckpt.mkdir()
        spec_doc = JobSpec.from_doc(json.loads(json.dumps(SOAK_SPEC))).to_doc()
        manifest = write_drain_manifest(ckpt, [
            {"job": "resumed", "run_id": "rid", "state": "queued",
             "spec": spec_doc, "checkpoint": None}])
        proc = _serve_proc(["--checkpoint-dir", str(ckpt),
                            "--resume-dir", str(ckpt)], tmp_path)
        try:
            deadline = time.time() + 60
            while manifest.exists():  # bounded poll for the resume load
                assert proc.poll() is None and time.time() < deadline
                time.sleep(0.001)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        assert json.loads(out.strip().splitlines()[-1])["event"] == "drained"
        entries = read_drain_manifest(ckpt)
        assert entries is not None, "the resumed job was lost"
        assert [e["job"] for e in entries] == ["resumed"]


@pytest.mark.skipif(not _shm_available(), reason="shared_memory unavailable")
class TestSoakSigtermDrainResume:
    def test_sigterm_drain_then_resume_bit_for_bit(self, tmp_path):
        ckpt = tmp_path / "ckpt"

        # reference: the uninterrupted answer
        ref_proc = _serve_proc(["--checkpoint-dir", str(tmp_path / "ref")],
                               tmp_path)
        try:
            base = _ready_base(ref_proc)
            status, _, ref = _http("POST", base + "/solve?wait=1",
                                   SOAK_SPEC, timeout=300)
            assert status == 200 and ref["status"] == "done"
        finally:
            ref_proc.send_signal(signal.SIGTERM)
            ref_proc.communicate(timeout=60)
        assert ref_proc.returncode == 0

        # run again, SIGTERM mid-flight
        proc = _serve_proc(["--checkpoint-dir", str(ckpt)], tmp_path)
        try:
            base = _ready_base(proc)
            status, _, sub = _http("POST", base + "/solve", SOAK_SPEC)
            assert status == 202
            # a chunk in, several to go: poll (bounded) for the job's
            # first chunk checkpoint instead of sleeping and hoping
            job_ckpt = ckpt / f"job-{sub['job']}.json"
            deadline = time.time() + 60
            while not _has_chunk_checkpoint(job_ckpt):
                assert time.time() < deadline, "no chunk checkpoint in 60 s"
                time.sleep(0.02)
            proc.send_signal(signal.SIGTERM)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0  # graceful drain exit
        drained = json.loads(out.strip().splitlines()[-1])
        assert drained["event"] == "drained" and drained["status"] == 0

        entries = read_drain_manifest(ckpt)
        assert entries is not None, "drain left no manifest"
        assert [e["state"] for e in entries] == ["interrupted"]
        assert entries[0]["job"] == sub["job"]
        # nothing leaked through the drain
        assert own_segments(ref_proc.pid, proc.pid) == []

        # resume: same job id, finished bit-for-bit from the checkpoint
        res_proc = _serve_proc(["--checkpoint-dir", str(ckpt),
                                "--resume-dir", str(ckpt)], tmp_path)
        try:
            base = _ready_base(res_proc)
            doc = _wait_for_status(base, sub["job"], "done", timeout=300)
        finally:
            res_proc.send_signal(signal.SIGTERM)
            res_proc.communicate(timeout=60)
        assert res_proc.returncode == 0
        assert doc["result"] == ref["result"]  # bit-for-bit across lives
        assert read_drain_manifest(ckpt) is None  # consumed, not re-run
        assert own_segments(ref_proc.pid, proc.pid, res_proc.pid) == []
