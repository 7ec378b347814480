"""Serve-plane latency budgets (``make serve-check``).

The daemon's control plane must stay cheap relative to the solves it
fronts.  Three budgets, each generous enough to be robust on loaded CI
hosts yet tight enough to catch an accidental sleep, lock convoy, or
O(queue) scan on the hot path:

* **admission** — an admit + a structured rejection are lock-bounded
  bookkeeping, budgeted in microseconds (amortized);
* **HTTP overhead** — a ``/solve?wait=1`` round trip over loopback vs
  running the identical job directly must cost well under a second of
  extra wall time (it is JSON + one queue handoff, not a solve);
* **drain** — with no work in flight, SIGTERM-equivalent drain must
  return within a few of the HTTP listener's 0.05 s shutdown polls
  (``repro.serve.server.POLL_INTERVAL``; the runner threads wake when
  the queue closes).  The budget sits well under ``serve_forever``'s
  default 0.5 s poll, so a listener started without the short poll
  fails here.

Two more rows are recorded without a budget.  One is a ``repro serve
--port 0`` subprocess's time from launch to its ``ready`` line and from
SIGTERM to exit (median of three restarts): a fresh interpreter's
import, start-up and drain.  Each restart must still exit 0, since the
ready line follows the SIGTERM handler.  The other is two concurrent
``perfbench`` ``serve_loaded``-shaped jobs through a ``runners=2``
server, against the same two jobs run back to back with ``run_job``,
and the tensor count of every fleet run the server made for their
chunks (8 chunks of 8 tensors; a 16 is two jobs' chunks merged into
one fleet).  Both replies must equal the direct runs bit for bit.  A
timing floor would fail on a loaded 2-core host the way the process
fleet's ratio floor does, so the row only records.

The last two rows record the fleet engine's cost per sweep at serve
sizes, where a sweep's cost is set by its array calls and not by its
lanes: the mean seconds per sweep of one fleet (median over
``SWEEP_REPS`` fleets) for one serve chunk (8 (4,4) tensors x 16 starts,
alpha = 0, 200 sweeps, the thread-tier call a job chunk makes) and for
one merged round (two such chunks with their own starts through the
chunk batcher's merged solve, whose stop hook never fires).
"""

import json
import os
import pathlib
import signal
import statistics
import subprocess
import sys
import threading
import time
import urllib.request

import numpy as np

from benchmarks.conftest import format_table, report
from repro.serve import (
    AdmissionError,
    AdmissionQueue,
    EigenServer,
    ServeConfig,
    run_job,
)
from repro.serve.jobs import Job, JobSpec

SPEC = {"tensors": {"kind": "random", "count": 4, "m": 3, "n": 4, "seed": 5},
        "num_starts": 4, "seed": 1, "max_iters": 100, "chunk": 4}

ADMISSION_BUDGET = 200e-6   # seconds per admit/reject pair, amortized
HTTP_OVERHEAD_BUDGET = 0.75  # seconds of non-solve wall time per request
DRAIN_BUDGET = 0.25         # seconds for an idle drain

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _bench_admission(reps: int = 2_000) -> float:
    q = AdmissionQueue(1)
    t0 = time.perf_counter()
    for i in range(reps):
        q.submit(i)
        try:
            q.submit(i)  # always rejected: the queue holds one item
        except AdmissionError:
            pass
        q.take(timeout=0)
    return (time.perf_counter() - t0) / reps


def _bench_http_overhead(tmp_dir) -> tuple[float, float]:
    spec = JobSpec.from_doc(json.loads(json.dumps(SPEC)))
    run_job(Job("warm", spec))  # warm plan caches out of the measurement
    t0 = time.perf_counter()
    run_job(Job("direct", spec))
    direct = time.perf_counter() - t0

    srv = EigenServer(ServeConfig(port=0, runners=1,
                                  checkpoint_dir=tmp_dir))
    host, port = srv.start()
    try:
        req = urllib.request.Request(
            f"http://{host}:{port}/solve?wait=1",
            data=json.dumps(SPEC).encode(), method="POST",
            headers={"Content-Type": "application/json"})
        t0 = time.perf_counter()
        with urllib.request.urlopen(req, timeout=60) as resp:
            doc = json.load(resp)
        served = time.perf_counter() - t0
        assert doc["status"] == "done"
    finally:
        srv.drain()
    return direct, served


#: two ``serve_loaded``-shaped jobs: 32 tensors of shape (4, 4), 16
#: starts, chunks of 8
MERGE_SPECS = [{"tensors": {"kind": "random", "count": 32, "m": 4, "n": 4,
                            "seed": seed},
                "num_starts": 16, "seed": seed + 1, "chunk": 8,
                "tol": 1e-8, "max_iters": 200} for seed in (11, 21)]


def _post(url, doc, out, i):
    req = urllib.request.Request(
        url, data=json.dumps(doc).encode(), method="POST",
        headers={"Content-Type": "application/json"})
    with urllib.request.urlopen(req, timeout=120) as resp:
        out[i] = json.load(resp)


def _bench_merging(tmp_dir, monkeypatch):
    """Returns ``(back_to_back_s, concurrent_s, fleet_sizes)``."""
    import repro.parallel.fleet as pfleet

    specs = [JobSpec.from_doc(json.loads(json.dumps(d))) for d in MERGE_SPECS]
    run_job(Job("warm", JobSpec.from_doc(  # (4, 4) plan out of the timing
        {**MERGE_SPECS[0], "tensors": {**MERGE_SPECS[0]["tensors"],
                                       "count": 1}})))
    (tmp_dir / "direct").mkdir(parents=True)
    jobs = [Job(f"direct{i}", spec) for i, spec in enumerate(specs)]
    t0 = time.perf_counter()
    for job in jobs:
        run_job(job, ckpt_dir=tmp_dir / "direct")
    back_to_back = time.perf_counter() - t0
    assert all(job.status == "done" for job in jobs)

    real, sizes = pfleet.parallel_fleet_solve, []

    def counted(tensors, **kwargs):
        sizes.append(len(tensors))
        return real(tensors, **kwargs)

    monkeypatch.setattr(pfleet, "parallel_fleet_solve", counted)
    srv = EigenServer(ServeConfig(port=0, runners=2,
                                  checkpoint_dir=tmp_dir / "served"))
    host, port = srv.start()
    docs = [None, None]
    try:
        clients = [threading.Thread(
            target=_post, args=(f"http://{host}:{port}/solve?wait=1", d,
                                docs, i))
            for i, d in enumerate(MERGE_SPECS)]
        t0 = time.perf_counter()
        for c in clients:
            c.start()
        for c in clients:
            c.join(timeout=120)
        concurrent = time.perf_counter() - t0
    finally:
        srv.drain()
    for doc, job in zip(docs, jobs):
        assert doc is not None and doc["status"] == "done"
        for key, want in job.result.items():
            assert np.array_equal(np.asarray(doc["result"][key], float),
                                  np.asarray(want, float),
                                  equal_nan=True), key
    return back_to_back, concurrent, sizes


#: fleets timed per sweep-cost row
SWEEP_REPS = 15


def _bench_sweep_cost(reps: int = SWEEP_REPS) -> tuple[float, float]:
    """Median seconds per sweep of ``(one serve chunk, one merged round)``."""
    import repro.parallel.fleet as pfleet
    from repro.serve.batcher import _Chunk, _solve_merged
    from repro.symtensor import random_symmetric_batch

    rng = np.random.default_rng(7)
    chunks = []
    for seed in (11, 21):
        starts = rng.standard_normal((16, 4))
        starts /= np.linalg.norm(starts, axis=1, keepdims=True)
        # the keywords run_job hands a mergeable chunk's solve
        chunks.append((random_symmetric_batch(8, 4, 4, rng=seed), dict(
            executor="thread", workers=1, starts=starts, alpha=0.0,
            tol=1e-8, max_iters=200, stop=threading.Event().is_set,
            deadline=None, faults=None, adaptive=False)))

    def chunk() -> tuple[float, int]:
        t0 = time.perf_counter()
        res = pfleet.parallel_fleet_solve(chunks[0][0], **chunks[0][1]).result
        return time.perf_counter() - t0, res.sweeps

    def merged() -> tuple[float, int]:
        group = [_Chunk(tensors, options) for tensors, options in chunks]
        t0 = time.perf_counter()
        assert _solve_merged(group)
        return time.perf_counter() - t0, group[0].outcome.sweeps

    per_sweep = []
    for run in (chunk, merged):
        run()  # warm the (4, 4) plan
        samples = [run() for _ in range(reps)]
        per_sweep.append(statistics.median(s / sweeps for s, sweeps in samples))
    return tuple(per_sweep)


def _bench_idle_drain(tmp_dir) -> float:
    srv = EigenServer(ServeConfig(port=0, runners=2,
                                  checkpoint_dir=tmp_dir))
    srv.start()
    t0 = time.perf_counter()
    srv.drain()
    return time.perf_counter() - t0


def _bench_restart(tmp_dir, runs: int = 3) -> tuple[float, float]:
    """Median ``(launch_to_ready_s, sigterm_to_exit_s)`` of ``repro serve``
    subprocesses with nothing to do."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    ready, exit_ = [], []
    for i in range(runs):
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro.cli", "serve", "--port", "0",
             "--checkpoint-dir", str(tmp_dir / str(i))],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
            env=env)
        try:
            line = proc.stdout.readline()
            ready.append(time.perf_counter() - t0)
            assert json.loads(line)["event"] == "ready", line
            t0 = time.perf_counter()
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=60) == 0
            exit_.append(time.perf_counter() - t0)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
            proc.stdout.close()
    return statistics.median(ready), statistics.median(exit_)


def test_serve_control_plane_budgets(tmp_path, monkeypatch):
    admit = _bench_admission()
    direct, served = _bench_http_overhead(tmp_path / "a")
    overhead = max(served - direct, 0.0)
    drain = _bench_idle_drain(tmp_path / "b")
    ready, sigterm_exit = _bench_restart(tmp_path / "d")
    # before the merging row, which counts fleet runs until the test ends
    chunk_sweep, merged_sweep = _bench_sweep_cost()
    back_to_back, concurrent, sizes = _bench_merging(tmp_path / "c",
                                                     monkeypatch)

    rows = [
        ["admit+reject (amortized)", f"{admit * 1e6:8.1f} us",
         f"{ADMISSION_BUDGET * 1e6:8.1f} us"],
        ["HTTP /solve overhead", f"{overhead * 1e3:8.1f} ms",
         f"{HTTP_OVERHEAD_BUDGET * 1e3:8.1f} ms"],
        ["idle drain", f"{drain * 1e3:8.1f} ms",
         f"{DRAIN_BUDGET * 1e3:8.1f} ms"],
        ["repro serve launch to ready", f"{ready * 1e3:8.1f} ms",
         "record only"],
        ["repro serve SIGTERM to exit", f"{sigterm_exit * 1e3:8.1f} ms",
         "record only"],
        ["2 jobs back to back, run_job", f"{back_to_back * 1e3:8.1f} ms",
         "record only"],
        ["2 jobs concurrently, served", f"{concurrent * 1e3:8.1f} ms",
         "record only"],
        ["served fleet runs (tensors)",
         f"{len(sizes)}: {'/'.join(map(str, sizes))}", "record only"],
        ["serve chunk, per sweep", f"{chunk_sweep * 1e6:8.1f} us",
         "record only"],
        ["merged round, per sweep", f"{merged_sweep * 1e6:8.1f} us",
         "record only"],
    ]
    report("serve_overhead",
           format_table("repro serve control-plane budgets",
                        ["path", "measured", "budget"], rows))

    assert admit < ADMISSION_BUDGET, (
        f"admission path costs {admit * 1e6:.1f} us/pair "
        f"(budget {ADMISSION_BUDGET * 1e6:.0f} us)")
    assert overhead < HTTP_OVERHEAD_BUDGET, (
        f"HTTP round trip adds {overhead:.3f} s over the direct solve "
        f"(budget {HTTP_OVERHEAD_BUDGET} s)")
    assert drain < DRAIN_BUDGET, (
        f"idle drain took {drain:.2f} s (budget {DRAIN_BUDGET} s)")
