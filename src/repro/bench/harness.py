"""Smoke benchmark runner producing schema-versioned ``BENCH_<stamp>.json``.

Each smoke workload is a scaled-down, self-contained mirror of one of the
full ``benchmarks/bench_*.py`` suites (the ``source`` tag records which).
Workloads are sized to finish in tens of milliseconds so the whole smoke
set runs in a few seconds — fast enough for a pre-merge regression gate
(``repro bench-compare``) while still exercising the same code paths the
full suites time.

Run it three ways, all equivalent::

    repro bench-smoke -o BENCH_new.json
    python -m repro.bench.harness -o BENCH_new.json
    make bench-smoke
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import threading
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from repro.bench.schema import BENCH_SCHEMA, validate_bench
from repro.engine.fleet import fleet_solve
from repro.solvers.sshopm import sshopm
from repro.instrument import Recorder, span
from repro.instrument.events import current_spool, new_run_id, provenance
from repro.instrument.metrics import use_registry
from repro.kernels.plan import get_plan
from repro.parallel.fleet import parallel_fleet_solve
from repro.symtensor.random import random_symmetric_batch, random_symmetric_tensor
from repro.util.rng import starting_vectors

__all__ = ["BenchTimeout", "SMOKE_WORKLOADS", "main", "run_smoke",
           "write_bench_file"]


class BenchTimeout(RuntimeError):
    """A smoke workload exceeded the per-workload wall-clock budget."""

    def __init__(self, workload: str, seconds: float):
        super().__init__(
            f"smoke workload {workload!r} exceeded the {seconds:g}s timeout "
            f"(hung or pathologically slow)"
        )
        self.workload = workload
        self.seconds = seconds


def _run_with_timeout(name: str, fn, timeout: float | None):
    """Run ``fn`` with a wall-clock budget.

    The workload runs on a daemon thread so a genuinely hung workload
    cannot also hang interpreter shutdown (a ThreadPoolExecutor's
    non-daemon workers would).  With ``timeout=None`` the call is inline —
    the timed path must not pay thread-handoff noise unless asked to.
    """
    if timeout is None:
        return fn()
    box: dict = {}

    def target():
        try:
            box["result"] = fn()
        except BaseException as exc:  # propagate workload errors faithfully
            box["error"] = exc

    thread = threading.Thread(target=target, daemon=True,
                              name=f"bench-smoke-{name}")
    thread.start()
    thread.join(timeout)
    if thread.is_alive():
        raise BenchTimeout(name, timeout)
    if "error" in box:
        raise box["error"]
    return box.get("result")


def _batch(tensors=8, m=4, n=6, seed=0):
    return random_symmetric_batch(tensors, m, n, rng=np.random.default_rng(seed))


def _smoke_fleet_vectorized():
    """Mirror of bench_table3_performance.py (vectorized batched kernels)."""
    batch = _batch()
    starts = starting_vectors(16, batch.n, rng=np.random.default_rng(1))
    fleet_solve(batch, alpha=2.0, starts=starts, max_iters=40,
                variant="vectorized", telemetry=False)
    return {"tensors": len(batch), "starts": 16, "variant": "vectorized"}


def _smoke_fleet_unrolled():
    """Mirror of bench_ablation_cse.py (code-generated unrolled kernels)."""
    batch = _batch(tensors=8, m=4, n=4)
    starts = starting_vectors(16, batch.n, rng=np.random.default_rng(1))
    fleet_solve(batch, alpha=2.0, starts=starts, max_iters=40,
                variant="unrolled", telemetry=False)
    return {"tensors": len(batch), "starts": 16, "variant": "unrolled"}


def _smoke_sshopm_single():
    """Mirror of bench_convergence_theory.py (single-pair SS-HOPM)."""
    tensor = random_symmetric_tensor(4, 8, rng=np.random.default_rng(2))
    sshopm(tensor, alpha=3.0, max_iters=80, rng=np.random.default_rng(3),
           telemetry=False)
    return {"m": 4, "n": 8, "alpha": 3.0}


def _smoke_kernel_ax_m1():
    """Mirror of bench_table2_costs.py (raw batched kernel applications)."""
    batch = _batch(tensors=16, m=4, n=6)
    suite = get_plan(batch.m, batch.n, "vectorized").suite
    values = batch.values[:, None, :]
    x = starting_vectors(8, batch.n, rng=np.random.default_rng(4))
    x = np.broadcast_to(x[None, :, :], (len(batch), 8, batch.n)).copy()
    for _ in range(10):
        suite.ax_m1(values, x)
    return {"tensors": len(batch), "variant": suite.name, "applications": 10}


def _smoke_thread_fleet():
    """Mirror of bench_figure5_scaling.py (thread-tier fleet shards)."""
    batch = _batch(tensors=8, m=3, n=5)
    parallel_fleet_solve(batch, workers=2, num_starts=8, alpha=1.0,
                         max_iters=30, rng=np.random.default_rng(5),
                         executor="thread")
    return {"tensors": len(batch), "workers": 2, "executor": "thread"}


def _smoke_process_fleet():
    """Mirror of bench_process_fleet.py (zero-copy shm worker processes)."""
    from repro.parallel.shm import SHM_AVAILABLE

    batch = _batch(tensors=6, m=4, n=3, seed=6)
    executor = "process" if SHM_AVAILABLE else "thread"
    rep = parallel_fleet_solve(batch, workers=2, num_starts=6, alpha=2.0,
                               max_iters=30, rng=np.random.default_rng(7),
                               executor=executor)
    return {"tensors": len(batch), "workers": 2, "executor": rep.executor}


def _smoke_span_overhead():
    """Mirror of bench_instrument_overhead.py (recorder span hot loop)."""
    rec = Recorder()
    with rec.activate():
        for _ in range(2000):
            with span("outer"):
                with span("inner"):
                    pass
    return {"spans": 4000}


def _smoke_method_compare():
    """Mirror of bench_methods.py (solver zoo method comparison)."""
    from repro.solvers import qrst_batch

    batch = _batch(tensors=4, m=4, n=4, seed=8)
    starts = starting_vectors(8, batch.n, rng=np.random.default_rng(9))
    fleet_solve(batch, starts=starts, alpha=4.0, tol=1e-8, max_iters=40)
    fleet_solve(batch, starts=starts, tol=1e-8, max_iters=40,
                adaptive="geap")
    qrst_batch(batch, num_starts=8, tol=1e-8, max_iters=40, rng=10)
    return {"tensors": len(batch), "starts": 8,
            "methods": "sshopm+geap+qrst"}


SMOKE_WORKLOADS = [
    ("fleet_vectorized", "bench_table3_performance.py", _smoke_fleet_vectorized),
    ("fleet_unrolled", "bench_ablation_cse.py", _smoke_fleet_unrolled),
    ("sshopm_single", "bench_convergence_theory.py", _smoke_sshopm_single),
    ("kernel_ax_m1", "bench_table2_costs.py", _smoke_kernel_ax_m1),
    ("fleet_thread_two_workers", "bench_figure5_scaling.py", _smoke_thread_fleet),
    ("process_fleet", "bench_process_fleet.py", _smoke_process_fleet),
    ("span_overhead", "bench_instrument_overhead.py", _smoke_span_overhead),
    ("method_compare", "bench_methods.py", _smoke_method_compare),
]


def run_smoke(reps: int = 3, include: list[str] | None = None,
              timeout: float | None = None,
              backend: str | None = None) -> dict:
    """Time every smoke workload ``reps`` times; return a bench document.

    ``include`` restricts the run to the named workloads (unknown names
    raise :class:`ValueError`).  The first execution of each workload is a
    discarded warmup (JIT-free here, but it pays one-time table builds in
    the kernel caches, which would otherwise pollute the first rep).
    ``timeout`` caps each individual execution's wall-clock seconds and
    raises :class:`BenchTimeout` when exceeded — the CI guard against a
    hung kernel turning the smoke gate into an infinite wait.
    ``backend`` stamps the codegen backend the run represents into
    ``meta.backend`` (default: ``$REPRO_BENCH_BACKEND`` or ``"numpy"``);
    ``repro bench-compare`` refuses to gate across different backends.
    """
    if reps < 1:
        raise ValueError(f"reps must be >= 1, got {reps}")
    backend = backend or os.environ.get("REPRO_BENCH_BACKEND") or "numpy"
    if timeout is not None and timeout <= 0:
        raise ValueError(f"timeout must be positive, got {timeout}")
    known = {name for name, _, _ in SMOKE_WORKLOADS}
    if include is not None:
        unknown = sorted(set(include) - known)
        if unknown:
            raise ValueError(f"unknown smoke workloads: {', '.join(unknown)}")
    entries = []
    # isolate the harness' own metric emission from the caller's registry
    with use_registry():
        for name, source, fn in SMOKE_WORKLOADS:
            if include is not None and name not in include:
                continue
            # warmup, also yields workload params
            extra = _run_with_timeout(name, fn, timeout)
            seconds = []
            for _ in range(reps):
                t0 = time.perf_counter()
                _run_with_timeout(name, fn, timeout)
                seconds.append(time.perf_counter() - t0)
            entries.append({
                "name": name,
                "source": source,
                "reps": reps,
                "seconds": seconds,
                "median": statistics.median(seconds),
                "min": min(seconds),
                "extra": extra or {},
            })
    doc = {
        "schema": BENCH_SCHEMA,
        "stamp": datetime.now(timezone.utc).strftime("%Y%m%d_%H%M%S"),
        "meta": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "platform": platform.platform(),
            "machine": platform.machine(),
            "reps": reps,
            "backend": backend,
            # provenance: correlate this bench doc with the event stream /
            # trace of the run that produced it (schema meta is free-form)
            "run_id": _run_id(),
            **provenance(),
        },
        "benchmarks": entries,
    }
    return validate_bench(doc)


def _run_id() -> str:
    """The ambient spool's run id if one is open, else a fresh one."""
    spool = current_spool()
    return spool.run_id if spool is not None else new_run_id()


def write_bench_file(doc: dict, path: str | Path | None = None) -> Path:
    """Write ``doc`` as JSON; default path is ``BENCH_<stamp>.json`` in cwd."""
    if path is None:
        path = Path(f"BENCH_{doc['stamp']}.json")
    path = Path(path)
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return path


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench.harness",
        description="Run the smoke benchmark subset and write BENCH_<stamp>.json.",
    )
    parser.add_argument("-o", "--output", default=None,
                        help="output path (default BENCH_<stamp>.json in cwd)")
    parser.add_argument("--reps", type=int, default=3,
                        help="timed repetitions per workload (default 3)")
    parser.add_argument("--include", action="append", default=None,
                        metavar="NAME", help="run only this workload (repeatable)")
    parser.add_argument("--timeout", type=float, default=None, metavar="SECONDS",
                        help="per-workload wall-clock budget; a workload "
                             "exceeding it aborts the run with exit code 2")
    parser.add_argument("--backend", default=None,
                        help="codegen backend tag recorded in meta.backend "
                             "(default $REPRO_BENCH_BACKEND or 'numpy')")
    parser.add_argument("--list", action="store_true",
                        help="list smoke workloads and exit")
    args = parser.parse_args(argv)
    if args.list:
        for name, source, _ in SMOKE_WORKLOADS:
            print(f"{name:28s} (mirrors {source})")
        return 0
    try:
        doc = run_smoke(reps=args.reps, include=args.include,
                        timeout=args.timeout, backend=args.backend)
    except BenchTimeout as exc:
        print(f"error: {exc}")
        return 2
    path = write_bench_file(doc, args.output)
    total = sum(e["median"] for e in doc["benchmarks"])
    print(f"wrote {path} ({len(doc['benchmarks'])} benchmarks, "
          f"sum of medians {total * 1e3:.1f} ms)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
