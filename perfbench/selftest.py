"""Self-test: a deliberate kernel slowdown is flagged where it should be.

Slows every batched ``A x^{m-1}`` call by 30% of its own time
(:func:`layers.kernel_delay`) and measures the workloads with and without
the delay in one process: each pair runs the same inputs twice, back to
back, alternating which side goes first, so host drift and per-input
cost cancel in the pair's ratio.  Against the bounds in
``BENCHMARK.json`` it checks that

* ``solve_s`` on ``paper_batch`` (a process-tier solve) worsens by more
  than its bound;
* ``solve_s`` on ``method_mix`` (one round of the three methods, the
  kernel-bypass workload) stays within it;
* in traced inline ``paper_batch`` solves, ``kernels.ax_m1_s`` worsens by
  more than the bound while ``engine.self_s`` stays within it, so the
  slowdown is attributed to the kernel.

Usage, from the root of a checkout::

    python3 perfbench/selftest.py

Prints each median change; exits 0 when every check holds, 1 otherwise.
Takes about four minutes.
"""

from __future__ import annotations

import contextlib
import json
import os
import shutil
import statistics
import sys
import time

import layers
import run
from workloads import MIX, MethodMix, PaperBatch

SEED = 101
DELAY = 0.3
PAPER_PAIRS = 8
MIX_PAIRS = 8
TRACED_PAIRS = 4


def paired(op, plan, pairs: int) -> dict:
    """Median over ``pairs`` of the relative change (slowed / base - 1) of
    every metric ``op(i)`` returns, ``op`` running once with and once
    without the kernel delay on ``plan`` for each ``i``."""
    changes: dict = {}
    for i in range(pairs):
        out = {}
        for slowed in ((False, True) if i % 2 == 0 else (True, False)):
            delay = (layers.kernel_delay(plan, DELAY) if slowed
                     else contextlib.nullcontext())
            with delay:
                out[slowed] = op(i)
        for name, base in out[False].items():
            changes.setdefault(name, []).append(out[True][name] / base - 1)
    return {name: statistics.median(c) for name, c in changes.items()}


def seconds(call) -> float:
    t0 = time.perf_counter()
    call()
    return time.perf_counter() - t0


def measure(work):
    """``([(label, change, passes) for every check], solve_s bound)``."""
    bound = {m["name"]: m["bound"] for m in json.loads(
        (run.ROOT / "BENCHMARK.json").read_text())["end_to_end"]}["solve_s"]

    paper = PaperBatch()
    paper.setup(SEED, work)
    paper._process_solve()  # warm-up
    process = paired(lambda i: {"solve_s": seconds(paper._process_solve)},
                     paper.plan, PAPER_PAIRS)

    def traced(_):
        tracer = layers.LayerTracer()
        with tracer:
            paper._solve(workers=1, plan=tracer.plan_for(paper.plan))
        got = tracer.layer_metrics(1)
        return {k: got[k] for k in ("kernels.ax_m1_s", "engine.self_s")}

    inline = paired(traced, paper.plan, TRACED_PAIRS)

    mix = MethodMix()
    mix.setup(SEED, work)
    mix._warm_up()
    rounds = paired(lambda i: {"solve_s": seconds(
        lambda: [mix._solve(i, m) for m in MIX["methods"]])},
        mix.plan, MIX_PAIRS)

    return [
        ("paper_batch solve_s worsens beyond the bound",
         process["solve_s"], process["solve_s"] > bound),
        ("method_mix solve_s stays within the bound",
         rounds["solve_s"], rounds["solve_s"] <= bound),
        ("paper_batch kernels.ax_m1_s worsens beyond the bound",
         inline["kernels.ax_m1_s"], inline["kernels.ax_m1_s"] > bound),
        ("paper_batch engine.self_s stays within the bound",
         inline["engine.self_s"], inline["engine.self_s"] <= bound),
    ], bound


def main() -> int:
    work = run.ROOT / ".perfbench_work" / f"selftest-{os.getpid()}"
    run.prepare_environment(work)
    try:
        checks, bound = measure(work)
    finally:
        run.stop_resource_tracker()
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):
            work.parent.rmdir()
    print(f"injected kernel delay {DELAY:.0%}, solve_s bound {bound:.0%}, "
          f"seed {SEED}")
    ok = True
    for label, change, passes in checks:
        ok &= passes
        print(f"  {'ok  ' if passes else 'FAIL'} {label}: {change:+.3f}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
