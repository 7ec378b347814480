"""Per-layer timing from outside the program.

:class:`LayerTracer` swaps timing wrappers in for the public functions of
each layer while it is active, and restores the originals on exit:

* ``repro.kernels`` -- the plan's ``BatchedKernelPair.ax_m1`` (time, calls,
  flops through a ``FlopCounter``, and the computed bytes of its operands);
* ``repro.engine`` -- ``fleet_solve`` (time, sweeps, lane iterations,
  compactions, useful lane iterations);
* ``repro.solvers`` -- ``repro.solvers.geap.projected_shift``;
* ``repro.parallel`` -- ``parallel_fleet_solve`` (its ``FleetRunReport``);
* ``repro.resilience`` -- ``write_checkpoint`` as the serve job runner
  calls it (time, count, bytes written).

Kernel and shift time spent inside a ``fleet_solve`` call is tallied
separately, so ``engine.self_s`` is the engine's own time.  All tallies
are lock-protected: the serve workload runs two job runners at once.

:func:`kernel_delay` is the self-test's hook: while active, it slows the
cached plan's ``ax_m1`` by a fixed fraction of its own run time.
"""

from __future__ import annotations

import contextlib
import dataclasses
import importlib
import os
import threading
import time
from collections import defaultdict

_GEAP = "repro.solvers.geap"


class LayerTracer:
    """Context manager that times calls into each layer (see module doc)."""

    def __init__(self):
        self._lock = threading.Lock()
        self._local = threading.local()
        self.t = defaultdict(float)
        self.n = defaultdict(int)
        self.reports = []
        self._plans = {}
        self._saved = []

    # -- tallies -----------------------------------------------------------

    def _add(self, **amounts):
        with self._lock:
            for key, value in amounts.items():
                if isinstance(value, float):
                    self.t[key] += value
                else:
                    self.n[key] += value

    def _in_fleet(self) -> bool:
        return getattr(self._local, "fleet_depth", 0) > 0

    # -- wrappers ----------------------------------------------------------

    def plan_for(self, plan):
        """A copy of ``plan`` whose suite's ``ax_m1`` is timed."""
        from repro.kernels.dispatch import BatchedKernelPair
        from repro.util.flopcount import FlopCounter

        key = id(plan)
        if key not in self._plans:
            real = plan.suite.ax_m1
            tracer = self

            def ax_m1(values, x, counter=None):
                charged = FlopCounter()
                t0 = time.perf_counter()
                out = real(values, x, counter=charged)
                dt = time.perf_counter() - t0
                if counter is not None:
                    counter.add_flops(charged.flops)
                inside = tracer._in_fleet()
                tracer._add(ax_m1_s=dt, ax_m1_calls=1, flops=charged.flops,
                            bytes=values.nbytes + x.nbytes + out.nbytes,
                            ax_m1_in_fleet_s=dt if inside else 0.0)
                return out

            suite = BatchedKernelPair(plan.suite.name, plan.suite.ax_m, ax_m1)
            self._plans[key] = (plan, dataclasses.replace(plan, suite=suite))
        return self._plans[key][1]

    def _wrap_get_plan(self, real):
        def get_plan(*args, **kwargs):
            return self.plan_for(real(*args, **kwargs))
        return get_plan

    def _wrap_fleet(self, real):
        def fleet_solve(*args, **kwargs):
            self._local.fleet_depth = getattr(self._local, "fleet_depth", 0) + 1
            t0 = time.perf_counter()
            try:
                res = real(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                self._local.fleet_depth -= 1
            iters = res.iterations
            useful = res.converged & ~res.failed
            self._add(fleet_s=dt, fleet_calls=1, sweeps=int(res.sweeps),
                      lane_iters=int(iters.sum()),
                      useful_iters=int(iters[useful].sum()),
                      compactions=int(res.compactions))
            return res
        return fleet_solve

    def _wrap_shift(self, real):
        def projected_shift(*args, **kwargs):
            t0 = time.perf_counter()
            out = real(*args, **kwargs)
            dt = time.perf_counter() - t0
            self._add(shift_s=dt, shift_calls=1,
                      shift_in_fleet_s=dt if self._in_fleet() else 0.0)
            return out
        return projected_shift

    def _wrap_parallel(self, real):
        def parallel_fleet_solve(*args, **kwargs):
            report = real(*args, **kwargs)
            with self._lock:
                self.reports.append(report)
            return report
        return parallel_fleet_solve

    def _wrap_checkpoint(self, real):
        def write_checkpoint(path, state):
            t0 = time.perf_counter()
            out = real(path, state)
            dt = time.perf_counter() - t0
            self._add(ckpt_s=dt, ckpt_writes=1, ckpt_bytes=os.path.getsize(out))
            return out
        return write_checkpoint

    # -- activation --------------------------------------------------------

    def _patch(self, module, name, wrapper):
        real = getattr(module, name)
        self._saved.append((module, name, real))
        setattr(module, name, wrapper(real))

    def __enter__(self):
        import repro.engine.fleet as fleet
        import repro.parallel.fleet as pfleet
        import repro.serve.jobs as jobs

        # repro.solvers re-exports a *function* named geap that shadows
        # the submodule, so the attribute path cannot reach the module
        geap = importlib.import_module(_GEAP)
        self._patch(fleet, "fleet_solve", self._wrap_fleet)
        self._patch(fleet, "get_plan", self._wrap_get_plan)
        self._patch(geap, "projected_shift", self._wrap_shift)
        self._patch(pfleet, "parallel_fleet_solve", self._wrap_parallel)
        self._patch(jobs, "write_checkpoint", self._wrap_checkpoint)
        return self

    def __exit__(self, *exc):
        while self._saved:
            module, name, real = self._saved.pop()
            setattr(module, name, real)
        return False

    # -- derived metrics ---------------------------------------------------

    def layer_metrics(self, ops: int) -> dict:
        """Kernel, engine, shift and checkpoint metrics per operation.

        ``ops`` is the number of workload operations the tracer saw (inline
        solves, method rounds or serve jobs).
        """
        t, n = self.t, self.n
        per = 1.0 / max(ops, 1)
        flops = n["flops"]
        self_s = t["fleet_s"] - t["ax_m1_in_fleet_s"] - t["shift_in_fleet_s"]
        return {
            "kernels.ax_m1_s": t["ax_m1_s"] * per,
            "kernels.ax_m1_calls": n["ax_m1_calls"] * per,
            "kernels.flops": flops * per,
            "kernels.bytes_computed": n["bytes"] * per,
            "kernels.gflops": flops / t["ax_m1_s"] / 1e9 if t["ax_m1_s"] else 0.0,
            "kernels.flops_per_byte": flops / n["bytes"] if n["bytes"] else 0.0,
            "engine.fleet_s": t["fleet_s"] * per,
            "engine.self_s": self_s * per,
            "engine.sweeps": n["sweeps"] * per,
            "engine.lane_iters": n["lane_iters"] * per,
            "engine.compactions": n["compactions"] * per,
            "engine.useful_lane_frac": (n["useful_iters"] / n["lane_iters"]
                                        if n["lane_iters"] else 0.0),
            "solvers.projected_shift_s": t["shift_s"] * per,
            "solvers.projected_shift_calls": n["shift_calls"] * per,
            "resilience.ckpt_write_s": t["ckpt_s"] * per,
            "resilience.ckpt_writes": n["ckpt_writes"] * per,
            "resilience.ckpt_bytes": n["ckpt_bytes"] * per,
        }

    def reconciles(self, slack: float = 1e-6) -> bool:
        """Kernel and shift time inside the engine never exceed the
        engine's own wall time, and every kernel and shift call of the
        traced solves happened inside the engine."""
        t = self.t
        inner = t["ax_m1_in_fleet_s"] + t["shift_in_fleet_s"]
        return (inner <= t["fleet_s"] + slack
                and abs(t["ax_m1_in_fleet_s"] - t["ax_m1_s"]) <= slack
                and abs(t["shift_in_fleet_s"] - t["shift_s"]) <= slack)


def parallel_metrics(reports, inline_fleet_s: float, ops: int) -> dict:
    """``repro.parallel`` metrics from ``FleetRunReport`` objects, per
    operation; ``inline_fleet_s`` is the single-worker engine time of one
    operation (the baseline of ``parallel.speedup``)."""
    per = 1.0 / max(ops, 1)
    run_s = sum(r.seconds for r in reports) * per
    overhead = sum(r.seconds - max(r.shard_seconds or [0.0])
                   for r in reports) * per
    imbalances = sorted(r.imbalance() for r in reports)
    return {
        "parallel.run_s": run_s,
        "parallel.overhead_s": overhead,
        "parallel.imbalance": imbalances[len(imbalances) // 2],
        "parallel.requeues": sum(r.requeues for r in reports) * per,
        "parallel.speedup": inline_fleet_s / run_s if run_s else 0.0,
    }


@contextlib.contextmanager
def kernel_delay(plan, fraction: float):
    """Slow ``plan``'s batched ``ax_m1`` by ``fraction`` of its own run
    time while the context is active.

    ``plan`` is the cached plan every solver of the run resolves, so the
    delay reaches inline solves, the tracer's wrapper (which wraps the
    slowed kernel and so attributes the delay to ``kernels.ax_m1_s``), and
    process-tier workers, which inherit the cache when they fork.
    """
    from repro.kernels.dispatch import BatchedKernelPair

    suite = plan.suite
    real = suite.ax_m1

    def ax_m1(values, x, counter=None):
        t0 = time.perf_counter()
        out = real(values, x, counter=counter)
        t1 = time.perf_counter()
        # spin rather than sleep: a slower kernel keeps its core busy
        until = t1 + fraction * (t1 - t0)
        while time.perf_counter() < until:
            pass
        return out

    # KernelPlan is frozen; replacing the suite on the cached object is
    # what makes every later cache hit see the slowed kernel
    object.__setattr__(plan, "suite",
                       BatchedKernelPair(suite.name, suite.ax_m, ax_m1))
    try:
        yield
    finally:
        object.__setattr__(plan, "suite", suite)
