"""Disabled-instrumentation overhead budget.

The recorder hooks (``span`` / ``count`` / ``gauge``) are compiled into
the solver hot paths permanently; the contract is that with no recorder
active they cost (well) under 5% of solver runtime.  Measured robustly:
the per-call cost of a disabled hook (a thread-local read returning a
shared no-op object) times the number of hook sites a run actually
executes, compared against the run's wall time — this is insensitive to
the run-to-run noise that plagues naive A/B timing of sub-millisecond
deltas.

A direct A/B comparison (recorder off vs on) is reported for context,
along with the enabled-tracing cost.
"""

import time

import numpy as np

from benchmarks.conftest import format_table, report
from repro.engine.fleet import fleet_solve
from repro.instrument import recording, span
from repro.instrument.recorder import _NULL_SPAN
from repro.symtensor.random import random_symmetric_batch

OVERHEAD_BUDGET = 0.05  # disabled hooks must stay under 5% of runtime


def _disabled_hook_cost(reps: int = 200_000) -> float:
    """Seconds per ``with span(...)`` round-trip with tracing disabled."""
    assert span("warmup") is _NULL_SPAN  # really measuring the no-op path
    t0 = time.perf_counter()
    for _ in range(reps):
        with span("x"):
            pass
    t_hook = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(reps):
        pass
    t_loop = time.perf_counter() - t0
    return max(t_hook - t_loop, 0.0) / reps


def _workload():
    batch = random_symmetric_batch(64, 4, 3, rng=3)
    return fleet_solve(batch, num_starts=32, alpha=0.0, tol=1e-8,
                       max_iters=120, rng=4)


def _hook_sites(rec) -> int:
    """Span entries + counter charges a traced run actually executed."""
    entries = sum(node.count for _, node in rec.root.walk())
    charges = sum(len(node.counters) for _, node in rec.root.walk())
    return entries + charges


def test_disabled_overhead_under_budget():
    _workload()  # warm numpy / kernel caches
    t0 = time.perf_counter()
    _workload()
    t_plain = time.perf_counter() - t0

    with recording() as rec:
        t0 = time.perf_counter()
        _workload()
        t_enabled = time.perf_counter() - t0

    per_hook = _disabled_hook_cost()
    hooks = _hook_sites(rec)
    est_overhead = per_hook * hooks
    frac = est_overhead / t_plain

    report(
        "instrument_overhead",
        format_table(
            "Instrumentation overhead (64 tensors x 32 starts, 120 sweeps)",
            ["quantity", "value"],
            [
                ["plain runtime", f"{t_plain * 1e3:.2f} ms"],
                ["runtime with recorder active", f"{t_enabled * 1e3:.2f} ms"],
                ["hook sites executed", hooks],
                ["disabled cost per hook", f"{per_hook * 1e9:.0f} ns"],
                ["estimated disabled overhead", f"{est_overhead * 1e6:.1f} us"],
                ["fraction of plain runtime", f"{frac:.4%}"],
                ["budget", f"{OVERHEAD_BUDGET:.0%}"],
            ],
        ),
    )
    assert frac < OVERHEAD_BUDGET, (
        f"disabled instrumentation overhead {frac:.2%} exceeds "
        f"{OVERHEAD_BUDGET:.0%} budget ({hooks} hooks x {per_hook * 1e9:.0f} ns "
        f"vs {t_plain * 1e3:.1f} ms runtime)"
    )


def _solver_metrics_cost(result, reps: int = 200) -> float:
    """Seconds per ``observe_solver_run`` call (the only metrics hook in the
    solver paths — once per run, never per iteration), fed the run's real
    per-pair iteration array as ``fleet_solve`` emits it."""
    from repro.instrument.metrics import observe_solver_run, use_registry

    args = (result.iterations, int(result.converged.sum()),
            result.converged.size)
    with use_registry():
        observe_solver_run("warmup", 0.01, *args)  # build the families once
        t0 = time.perf_counter()
        for _ in range(reps):
            observe_solver_run("warmup", 0.01, *args)
        return (time.perf_counter() - t0) / reps


def test_metrics_emission_under_budget():
    """Solver metrics are emitted once per run, so the budget question is
    per-run cost vs run wall time — same methodology as the span hooks."""
    _workload()
    t0 = time.perf_counter()
    result = _workload()
    t_plain = time.perf_counter() - t0

    per_run = _solver_metrics_cost(result)
    frac = per_run / t_plain

    report(
        "metrics_overhead",
        format_table(
            "Solver metrics emission (one observe_solver_run per solve, "
            f"{result.iterations.size}-pair iteration array)",
            ["quantity", "value"],
            [
                ["plain runtime", f"{t_plain * 1e3:.2f} ms"],
                ["cost per emission", f"{per_run * 1e6:.2f} us"],
                ["fraction of plain runtime", f"{frac:.4%}"],
                ["budget", f"{OVERHEAD_BUDGET:.0%}"],
            ],
        ),
    )
    assert frac < OVERHEAD_BUDGET, (
        f"metrics emission {frac:.2%} of runtime exceeds "
        f"{OVERHEAD_BUDGET:.0%} budget"
    )


def test_telemetry_disabled_path_under_budget():
    """With no recorder active telemetry defaults off; the residual cost is
    one ``telemetry_enabled`` check plus a skipped branch per sweep — it
    must not push a run past the instrumentation budget."""
    _workload()
    times_off = []
    for _ in range(3):
        t0 = time.perf_counter()
        _workload()  # telemetry=None, no recorder -> disabled
        times_off.append(time.perf_counter() - t0)
    t_off = min(times_off)

    # the gating check itself, amortized: it runs once per solve
    from repro.instrument.telemetry import telemetry_enabled

    reps = 100_000
    t0 = time.perf_counter()
    for _ in range(reps):
        telemetry_enabled(None, None)
    per_check = (time.perf_counter() - t0) / reps
    frac = per_check / t_off

    report(
        "telemetry_overhead",
        format_table(
            "Telemetry disabled path (gating check per solve)",
            ["quantity", "value"],
            [
                ["plain runtime (telemetry off)", f"{t_off * 1e3:.2f} ms"],
                ["gating check cost", f"{per_check * 1e9:.0f} ns"],
                ["fraction of plain runtime", f"{frac:.6%}"],
                ["budget", f"{OVERHEAD_BUDGET:.0%}"],
            ],
        ),
    )
    assert frac < OVERHEAD_BUDGET


def test_enabled_tracing_is_bounded():
    """Tracing on should cost well under 2x (it's a few dict ops per span
    against vectorized numpy kernels) — a regression tripwire, not a tight
    bound."""
    _workload()
    t0 = time.perf_counter()
    _workload()
    t_plain = time.perf_counter() - t0
    with recording():
        t0 = time.perf_counter()
        _workload()
        t_enabled = time.perf_counter() - t0
    assert t_enabled < max(2.0 * t_plain, t_plain + 0.05)
