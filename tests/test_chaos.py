"""Fault-injection (chaos) suite — the resilience layer's acceptance gate.

Run via ``make chaos`` (tier-1 includes it).  Every fault is scheduled
deterministically by :class:`~repro.resilience.faults.FaultPlan` under a
pinned seed (``REPRO_CHAOS_SEED``, default 20110516), so a failure here
reproduces exactly.

The headline scenario: a 64-start fleet sweep with injected NaN kernels,
a crashed start, and one corrupted start must still return every
recoverable eigenpair, report the failed start, and — interrupted and
resumed from its checkpoint — match the uninterrupted run bit-for-bit.
"""

import json
import os
import pathlib
import warnings

import numpy as np
import pytest

from repro.instrument.events import read_events
from repro.resilience import (
    FaultPlan,
    InjectedWorkerCrash,
    RetryPolicy,
    resilient_multistart,
)
from repro.symtensor.random import random_symmetric_batch, random_symmetric_tensor
from tests.conftest import own_segments

CHAOS_SEED = int(os.environ.get("REPRO_CHAOS_SEED", "20110516"))
ROOT = pathlib.Path(__file__).resolve().parents[1]


@pytest.fixture
def tensor():
    return random_symmetric_tensor(4, 3, rng=np.random.default_rng(CHAOS_SEED))


def _has_chunk_checkpoint(path) -> bool:
    """True once ``path`` holds a job checkpoint with a completed chunk."""
    try:
        return bool(json.loads(path.read_text())["starts"])
    except (OSError, ValueError, KeyError):
        return False


def _shard_started(path) -> bool:
    """True once the event spool at ``path`` records a ``shard_start``."""
    try:
        return any(rec["ev"] == "shard_start" for rec in read_events(path))
    except OSError:
        return False


def _pair_set(result):
    """Comparable (eigenvalue, |first eigenvector component|) signature."""
    return sorted(round(p.eigenvalue, 9) for p in result.eigenpairs())


def test_acceptance_64_starts_survive_chaos(tensor):
    """The ISSUE acceptance scenario, end to end."""
    plan = FaultPlan(
        seed=CHAOS_SEED,
        nan_kernel={3: (0,), 17: (0,), 41: (0, 1)},  # recoverable via retry
        crashes={9: 1},                               # recoverable via requeue
        corrupt={25: 4},                              # unrecoverable input fault
    )
    clean = resilient_multistart(tensor, num_starts=64, alpha=2.0,
                                 seed=CHAOS_SEED)
    assert not clean.failed_starts

    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        chaotic = resilient_multistart(
            tensor, num_starts=64, alpha=2.0, seed=CHAOS_SEED,
            retry=RetryPolicy(max_attempts=3), faults=plan,
        )

    # the one corrupted start is reported failed, nothing else is
    assert chaotic.failed_starts == [25]
    report_25 = next(r for r in chaotic.reports if r.index == 25)
    assert report_25.error == "nonfinite"
    assert "failed [nonfinite]: starts 25" in chaotic.summary()

    # the crashed start was requeued and recovered
    report_9 = next(r for r in chaotic.reports if r.index == 9)
    assert report_9.requeues == 1 and report_9.ok
    assert chaotic.requeues == 1

    # NaN-kernel starts recovered on retry with an escalated shift
    for idx in (3, 17, 41):
        rep = next(r for r in chaotic.reports if r.index == idx)
        assert rep.attempts > 1 and rep.converged, idx
        assert abs(rep.alpha) > 2.0  # escalated beyond the requested shift

    # all recoverable eigenpairs still found: same distinct spectrum as
    # the clean run (the corrupted start only loses one vote, not a pair)
    assert _pair_set(chaotic) == _pair_set(clean)


def test_acceptance_interrupt_resume_bit_for_bit(tensor, tmp_path):
    ck = tmp_path / "sweep.ckpt.json"
    full = resilient_multistart(tensor, num_starts=64, alpha=2.0,
                                seed=CHAOS_SEED)

    # simulate an interruption: checkpoint a complete run in chunks of 16,
    # then drop every start past the first 20 from the saved state — the
    # cut falls inside a chunk, so the resumed sweep re-chunks differently
    resilient_multistart(tensor, num_starts=64, alpha=2.0, seed=CHAOS_SEED,
                         checkpoint=str(ck), checkpoint_every=16)
    state = json.loads(ck.read_text())
    state["starts"] = {k: v for k, v in state["starts"].items() if int(k) < 20}
    ck.write_text(json.dumps(state))

    resumed = resilient_multistart(tensor, num_starts=64, alpha=2.0,
                                   seed=CHAOS_SEED, checkpoint=str(ck),
                                   resume=True)
    assert resumed.resumed == 20
    assert len(resumed.reports) == 64
    for a, b in zip(full.reports, resumed.reports):
        assert a.index == b.index
        assert a.eigenvalue == b.eigenvalue  # bit-for-bit, not approx
        np.testing.assert_array_equal(a.eigenvector, b.eigenvector)
        assert a.converged == b.converged and a.iterations == b.iterations
    assert _pair_set(resumed) == _pair_set(full)


@pytest.mark.parametrize("checkpoint_every", [1, 8])
def test_per_start_results_invariant_under_checkpoint_every(tensor,
                                                            checkpoint_every):
    """Spawn-key streams and non-interacting fleet lanes make every chunk
    size produce bit-identical per-start results — the property resume
    relies on.  A tight budget forces retry passes, so retried lanes are
    covered too."""
    kw = dict(num_starts=64, alpha=0.5, max_iters=40, seed=CHAOS_SEED)
    whole = resilient_multistart(tensor, checkpoint_every=64, **kw)
    chunked = resilient_multistart(tensor, checkpoint_every=checkpoint_every,
                                   **kw)
    assert whole.retried_starts  # the budget really forced retries
    for a, b in zip(whole.reports, chunked.reports):
        assert a.index == b.index
        assert a.eigenvalue == b.eigenvalue
        np.testing.assert_array_equal(a.eigenvector, b.eigenvector)
        assert (a.iterations, a.attempts, a.alpha) == (
            b.iterations, b.attempts, b.alpha)
    assert _pair_set(whole) == _pair_set(chunked)


def test_resume_rejects_mismatched_run(tensor, tmp_path):
    ck = tmp_path / "ck.json"
    resilient_multistart(tensor, num_starts=8, alpha=2.0, seed=CHAOS_SEED,
                         checkpoint=str(ck))
    with pytest.raises(ValueError):
        resilient_multistart(tensor, num_starts=8, alpha=9.0, seed=CHAOS_SEED,
                             checkpoint=str(ck), resume=True)
    other = random_symmetric_tensor(4, 3, rng=np.random.default_rng(1))
    with pytest.raises(ValueError):
        resilient_multistart(other, num_starts=8, alpha=2.0, seed=CHAOS_SEED,
                             checkpoint=str(ck), resume=True)


@pytest.mark.parametrize("version", ["1.0.0", None])
def test_resume_rejects_1x_checkpoint(tensor, tmp_path, version):
    """A checkpoint written by the 1.x per-start runner (or one with no
    version stamp) must not resume on the fleet runner: the sweep would mix
    two engines' results."""
    ck = tmp_path / "ck.json"
    resilient_multistart(tensor, num_starts=8, alpha=2.0, seed=CHAOS_SEED,
                         checkpoint=str(ck))
    state = json.loads(ck.read_text())
    state["starts"] = {k: v for k, v in state["starts"].items() if int(k) < 3}
    if version is None:
        del state["run"]["version"]
    else:
        state["run"]["version"] = version
    ck.write_text(json.dumps(state))
    with pytest.raises(ValueError, match="predates the 2.0 fleet runner"):
        resilient_multistart(tensor, num_starts=8, alpha=2.0,
                             seed=CHAOS_SEED, checkpoint=str(ck), resume=True)


@pytest.mark.parametrize("retry_on,attempts", [
    (RetryPolicy().retry_on, 2),  # default: "stall" is retried once
    (("nonfinite",), 1),          # not in retry_on: reported at once
])
def test_budget_exhaustion_reports_stall(tensor, retry_on, attempts):
    """A budget too small to converge: every start ends as a ``stall``
    failure, retried only when ``retry_on`` names it."""
    res = resilient_multistart(
        tensor, num_starts=8, alpha=2.0, max_iters=2, seed=CHAOS_SEED,
        retry=RetryPolicy(max_attempts=2, retry_on=retry_on))
    assert not res.converged.any()
    assert res.failed_starts == list(range(8))
    assert all(r.error == "stall" and r.attempts == attempts
               for r in res.reports)
    assert "failed [stall]: starts 0, 1, 2" in res.summary()
    assert res.eigenpairs() == []


def test_requeue_budget_exhaustion_reports_start(tensor):
    plan = FaultPlan(seed=CHAOS_SEED, crashes={5: 99})  # always crashes
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = resilient_multistart(tensor, num_starts=8, alpha=2.0,
                                   seed=CHAOS_SEED, faults=plan,
                                   max_requeues=2)
    assert any("degraded" in str(w.message) for w in caught)
    assert res.failed_starts == [5]
    rep = next(r for r in res.reports if r.index == 5)
    assert rep.error.startswith("crash: InjectedWorkerCrash")
    assert res.requeues == 2
    # the other 7 starts are untouched
    assert sum(r.converged for r in res.reports) == 7


def test_zero_requeue_budget_warns_write_off(tensor):
    """With no requeue budget the first crash is written off, and the
    warning says so instead of announcing a requeue."""
    plan = FaultPlan(seed=CHAOS_SEED, crashes={5: 1})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = resilient_multistart(tensor, num_starts=8, alpha=2.0,
                                   seed=CHAOS_SEED, faults=plan,
                                   max_requeues=0)
    messages = [str(w.message) for w in caught
                if issubclass(w.category, RuntimeWarning)]
    assert len(messages) == 1
    assert "start 5 crashed" in messages[0]
    assert "requeue budget exhausted" in messages[0]
    assert "degraded" not in messages[0]
    rep = next(r for r in res.reports if r.index == 5)
    assert rep.error.startswith("crash: InjectedWorkerCrash")
    assert rep.requeues == 0 and res.requeues == 0
    assert res.failed_starts == [5]


def test_slow_task_fault_executes(tensor):
    plan = FaultPlan(seed=CHAOS_SEED, slow={0: 0.01})
    res = resilient_multistart(tensor, num_starts=2, alpha=2.0,
                               seed=CHAOS_SEED, faults=plan)
    assert not res.failed_starts


def _crash_fleet_calls(monkeypatch, count):
    """Make the runner's first ``count`` fleet calls raise, as a worker
    dying mid-chunk would."""
    from repro.resilience import runner

    real = runner.fleet_solve
    calls = {"n": 0}

    def flaky(*args, **kwargs):
        calls["n"] += 1
        if calls["n"] <= count:
            raise InjectedWorkerCrash(f"fleet call {calls['n']} died")
        return real(*args, **kwargs)

    monkeypatch.setattr(runner, "fleet_solve", flaky)


def test_executor_chunk_crash_requeues_and_recovers(tensor, monkeypatch):
    base = resilient_multistart(tensor, num_starts=16, alpha=2.0,
                                seed=CHAOS_SEED)
    _crash_fleet_calls(monkeypatch, 1)
    with pytest.warns(RuntimeWarning, match="degraded"):
        res = resilient_multistart(tensor, num_starts=16, alpha=2.0,
                                   seed=CHAOS_SEED)
    # the first chunk's 8 starts were requeued once, then solved exactly
    assert res.requeues == 8 and not res.failed_starts
    assert [r.requeues for r in res.reports] == [1] * 8 + [0] * 8
    for a, b in zip(base.reports, res.reports):
        assert a.eigenvalue == b.eigenvalue
        np.testing.assert_array_equal(a.eigenvector, b.eigenvector)


def test_executor_exhausted_chunk_becomes_placeholder(tensor, monkeypatch):
    _crash_fleet_calls(monkeypatch, 2)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        res = resilient_multistart(tensor, num_starts=16, alpha=2.0,
                                   seed=CHAOS_SEED, max_requeues=1)
    # the first chunk crashed twice: written off, never dropped
    assert res.failed_starts == list(range(8))
    assert all(r.error.startswith("crash: InjectedWorkerCrash")
               for r in res.reports[:8])
    assert np.isnan(res.eigenvalues[:8]).all()
    # the second chunk is intact and usable
    assert all(r.converged and r.ok for r in res.reports[8:])
    assert res.eigenpairs()


def test_injected_crash_is_distinguishable():
    exc = InjectedWorkerCrash("boom")
    assert isinstance(exc, RuntimeError)


class TestProcessFleetChaos:
    """Process-tier crash discipline: killed or crashing workers must
    requeue their shard (same merged result) and never leak a
    ``/dev/shm`` segment."""

    @pytest.fixture
    def fleet_batch(self):
        return random_symmetric_batch(6, 4, 3,
                                      rng=np.random.default_rng(CHAOS_SEED))

    @pytest.fixture
    def fleet_starts(self):
        from repro.util.rng import starting_vectors

        return starting_vectors(6, 3, rng=CHAOS_SEED)

    def _solve(self, batch, starts, **kw):
        from repro.parallel.fleet import parallel_fleet_solve

        return parallel_fleet_solve(batch, starts=starts, alpha=2.0,
                                    max_iters=200, **kw)

    def test_sigkilled_worker_requeues_no_leak(self, fleet_batch,
                                               fleet_starts):
        from repro.parallel.shm import SHM_AVAILABLE

        if not SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        base = self._solve(fleet_batch, fleet_starts, workers=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = self._solve(fleet_batch, fleet_starts, workers=2,
                              executor="process", faults={0: "kill"})
        assert any("degraded" in str(w.message) for w in caught)
        assert rep.requeues >= 1 and rep.failed_shards == []
        np.testing.assert_array_equal(rep.result.eigenvalues,
                                      base.result.eigenvalues)
        np.testing.assert_array_equal(rep.result.converged,
                                      base.result.converged)
        assert own_segments() == []

    def test_injected_crash_requeues_no_leak(self, fleet_batch,
                                             fleet_starts):
        from repro.parallel.shm import SHM_AVAILABLE

        if not SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        base = self._solve(fleet_batch, fleet_starts, workers=1)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rep = self._solve(fleet_batch, fleet_starts, workers=2,
                              executor="process", faults={1: "crash"})
        assert any("degraded" in str(w.message) for w in caught)
        assert rep.requeues >= 1
        np.testing.assert_array_equal(rep.result.eigenvalues,
                                      base.result.eigenvalues)
        assert own_segments() == []

    def test_total_pool_loss_finishes_inline(self, fleet_batch,
                                             fleet_starts):
        """Every worker dies: the parent drains the queue and solves the
        remaining shards itself — degraded, but complete and leak-free."""
        from repro.parallel.shm import SHM_AVAILABLE

        if not SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        base = self._solve(fleet_batch, fleet_starts, workers=1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rep = self._solve(fleet_batch, fleet_starts, workers=2,
                              executor="process",
                              faults={0: "kill", 1: "kill"})
        assert rep.failed_shards == []
        np.testing.assert_array_equal(rep.result.eigenvalues,
                                      base.result.eigenvalues)
        assert own_segments() == []

    def test_sigint_mid_solve_leaves_no_segments(self, tmp_path):
        """Ctrl-C during a process-tier solve must still unlink every
        shared-memory segment (the ``finally`` dispose discipline)."""
        import signal as _signal
        import subprocess
        import sys
        import time as _time

        from repro.parallel.shm import SHM_AVAILABLE

        if not SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        assert own_segments() == []
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from repro.symtensor.random import random_symmetric_batch\n"
            "from repro.parallel.fleet import parallel_fleet_solve\n"
            "batch = random_symmetric_batch(32, 4, 6, rng=0)\n"
            "print('READY', flush=True)\n"
            "parallel_fleet_solve(batch, workers=2, num_starts=32, rng=1,\n"
            "                     alpha=6.0, tol=0.0, max_iters=2000,\n"
            "                     executor='process', events=sys.argv[1])\n"
            "print('FINISHED', flush=True)\n"
        )
        events = tmp_path / "sigint_events.jsonl"
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(events)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            cwd=str(ROOT),
        )
        try:
            assert proc.stdout.readline().strip() == "READY"
            # mid-flight means a worker has claimed its first shard, so
            # the segments are published and the solve is running
            deadline = _time.time() + 60
            while not _shard_started(events):
                assert _time.time() < deadline, "no shard_start event in 60 s"
                _time.sleep(0.02)
            proc.send_signal(_signal.SIGINT)
            out, err = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert "FINISHED" not in out
        # the child's resource tracker unlinks whatever the child leaked
        # when it exits, so an empty /dev/shm alone cannot show a skipped
        # dispose(); the tracker's shutdown warning does
        assert "leaked shared_memory" not in err, err
        assert own_segments(proc.pid) == []


class TestServeDrainChaos:
    """SIGTERM against a live ``repro serve`` running a *process-tier*
    fleet: the daemon must drain gracefully (exit 0), checkpoint the
    interrupted job into a ``repro-drain/1`` manifest, and leave no
    ``/dev/shm`` segment behind."""

    def test_sigterm_drains_checkpoints_no_shm_leak(self, tmp_path):
        import json as _json
        import signal as _signal
        import subprocess
        import sys
        import time as _time
        import urllib.request

        from repro.parallel.shm import SHM_AVAILABLE
        from repro.serve.drain import read_drain_manifest

        if not SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        ckpt = tmp_path / "ckpt"
        spec = {"tensors": {"kind": "random", "count": 12, "m": 4, "n": 8,
                            "seed": CHAOS_SEED % 1000},
                "num_starts": 12, "seed": 7, "max_iters": 2000,
                "tol": 1e-14, "chunk": 2, "executor": "process",
                "workers": 2}
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--runners", "1", "--checkpoint-dir", str(ckpt)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
            cwd=str(tmp_path),
        )
        try:
            ready = _json.loads(proc.stdout.readline())
            assert ready["event"] == "ready"
            base = f"http://{ready['host']}:{ready['port']}"
            req = urllib.request.Request(
                base + "/solve", data=_json.dumps(spec).encode(),
                method="POST",
                headers={"Content-Type": "application/json"})
            with urllib.request.urlopen(req, timeout=30) as resp:
                assert resp.status == 202
                job = _json.load(resp)["job"]
            # mid-flight means the job checkpointed its first chunk —
            # exactly the precondition the assertions below check
            job_ckpt = ckpt / f"job-{job}.json"
            deadline = _time.time() + 60
            while not _has_chunk_checkpoint(job_ckpt):
                assert _time.time() < deadline, "no chunk checkpoint in 60 s"
                _time.sleep(0.02)
            proc.send_signal(_signal.SIGTERM)
            out, err = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 0
        drained = _json.loads(out.strip().splitlines()[-1])
        assert drained["event"] == "drained" and drained["status"] == 0
        entries = read_drain_manifest(ckpt)
        assert entries and entries[0]["state"] == "interrupted"
        assert entries[0]["job"] == job
        # the interrupted job checkpointed its completed chunks
        ck = _json.loads((ckpt / f"job-{job}.json").read_text())
        assert ck["schema"].startswith("repro-ckpt/") and ck["starts"]
        # the resource tracker's shutdown warning names segments the
        # daemon leaked and the tracker then unlinked (see the SIGINT test)
        assert "leaked shared_memory" not in err, err
        assert own_segments(proc.pid) == []


class TestObservabilityUnderChaos:
    """The observability plane must survive the faults the fleet
    survives: a SIGKILL'd worker leaves a parseable (truncation-safe)
    events file, and the stitched trace still contains every surviving
    worker's subtree."""

    @pytest.fixture
    def fleet_batch(self):
        return random_symmetric_batch(6, 4, 3,
                                      rng=np.random.default_rng(CHAOS_SEED))

    @pytest.fixture
    def fleet_starts(self):
        from repro.util.rng import starting_vectors

        return starting_vectors(6, 3, rng=CHAOS_SEED)

    def test_killed_worker_leaves_parseable_events(self, fleet_batch,
                                                   fleet_starts, tmp_path):
        from repro.instrument.events import read_events, validate_event
        from repro.parallel.fleet import parallel_fleet_solve
        from repro.parallel.shm import SHM_AVAILABLE

        if not SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        ev = tmp_path / "chaos_events.jsonl"
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            rep = parallel_fleet_solve(
                fleet_batch, starts=fleet_starts, alpha=2.0, max_iters=200,
                workers=2, executor="process", faults={0: "kill"},
                events=str(ev))
        assert rep.requeues >= 1 and rep.failed_shards == []
        records = read_events(ev)
        for rec in records:
            validate_event(rec)
        evs = {r["ev"] for r in records}
        # lifecycle events survive the kill: the run completed, the lost
        # shard was requeued, and every record shares one run id
        assert {"header", "run_start", "requeue", "run_finish"} <= evs
        assert len({r["run"] for r in records}) == 1
        # a SIGKILL mid-write can leave a truncated final line; the
        # reader must skip it — simulate the worst case explicitly
        with open(ev, "a") as fh:
            fh.write('{"ev":"shard_start","t":1.0,"run":"xyz","src"')
        truncated = read_events(ev)
        assert len(truncated) == len(records)
        with pytest.raises(ValueError):
            read_events(ev, strict=True)

    def test_killed_worker_trace_keeps_survivors(self, fleet_batch,
                                                 fleet_starts):
        from repro.instrument import recording
        from repro.parallel.fleet import parallel_fleet_solve
        from repro.parallel.shm import SHM_AVAILABLE

        if not SHM_AVAILABLE:
            pytest.skip("shared_memory unavailable")
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            with recording() as rec:
                rep = parallel_fleet_solve(
                    fleet_batch, starts=fleet_starts, alpha=2.0,
                    max_iters=200, workers=2, executor="process",
                    faults={0: "kill"})
        # the killed worker's recorder dies with it; every surviving
        # worker's subtree must still be stitched in
        assert 1 <= rep.workers_traced <= rep.workers
        root = rec.find("parallel_fleet_solve")
        assert root is not None
        survivors = [name for name in root.children
                     if name.startswith("worker")]
        assert len(survivors) == rep.workers_traced >= 1
