"""Shared per-run scaffolding for the single-tensor solvers.

Every solver in :mod:`repro.solvers` does the same bookkeeping around its
mathematical core: resolve options through the
:class:`~repro.core.config.SolveConfig` chain, bridge the flop counter and
kernels onto the active recorder, open a telemetry stream, arm the
numerical guard, and — on both success and structured failure — attach
telemetry and account the run in the metrics registry.  :func:`prepare`
and :meth:`SolverScaffold.finish` / :meth:`SolverScaffold.record_failure`
centralize that.  ``sshopm``, ``adaptive_sshopm`` and ``geap`` then share
one loop (``repro.solvers.sshopm._shifted_power_loop``) and differ only in
their shift rule; QRST brings its own.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import SolveConfig, resolve_option
from repro.instrument import current_recorder, instrumented_pair
from repro.instrument.metrics import observe_solver_run
from repro.instrument.telemetry import ConvergenceTelemetry, telemetry_enabled
from repro.kernels.dispatch import KernelPair, get_kernels
from repro.resilience.guards import IterationGuard, resolve_guards
from repro.symtensor.storage import SymmetricTensor
from repro.util.flopcount import FlopCounter, null_counter
from repro.util.rng import random_unit_vector

__all__ = ["SolverScaffold", "prepare", "start_vector"]


@dataclass
class SolverScaffold:
    """Resolved per-run state shared by the single-tensor solver drivers.
    ``counter`` is the caller's flop counter (or a no-op one), bridged onto
    the active recorder when the run is traced."""

    solver: str
    tensor: SymmetricTensor
    tol: float
    max_iters: int
    kernels: KernelPair
    counter: FlopCounter
    rng: object
    recorder: object
    telemetry: ConvergenceTelemetry | None
    guard: IterationGuard | None
    t0: float

    def finish(self, *, iterations: int, converged: bool, lam: float,
               residual: float, shift: float | None = None) -> None:
        """Close out a completed run: final telemetry record, hand the
        stream to the recorder, and account the run in the metrics plane."""
        if self.telemetry is not None:
            self.telemetry.append(
                iterations, lam, residual=residual,
                shift=shift if shift is not None else float("nan"),
                active=0 if converged else 1, force=True,
            )
            if self.recorder is not None:
                self.recorder.add_telemetry(self.telemetry)
        observe_solver_run(self.solver, time.perf_counter() - self.t0,
                           iterations, int(converged), 1)

    def record_failure(self, failure) -> None:
        """Attach the telemetry stream to a structured
        :class:`~repro.resilience.guards.SolveFailure` and account the
        (failed) run; the caller re-raises."""
        failure.telemetry = self.telemetry
        if self.telemetry is not None and self.recorder is not None:
            self.recorder.add_telemetry(self.telemetry)
        observe_solver_run(self.solver, time.perf_counter() - self.t0,
                           failure.iteration, 0, 1)


def prepare(
    solver: str,
    tensor: SymmetricTensor,
    *,
    tol: float | None,
    max_iters: int | None,
    kernels: KernelPair | str | None,
    rng,
    config: SolveConfig | None,
    telemetry: bool | None,
    guards,
    tel_meta: dict | None = None,
    tol_default: float = 1e-12,
    max_iters_default: int = 500,
    counter=None,
) -> SolverScaffold:
    """Resolve the shared options and wire up counter/recorder/telemetry/guards."""
    tol = resolve_option("tol", tol, config, tol_default)
    max_iters = resolve_option("max_iters", max_iters, config, max_iters_default)
    kernels = resolve_option("kernels", kernels, config, None)
    rng = resolve_option("rng", rng, config, None)
    guard_cfg = resolve_guards(resolve_option("guards", guards, config, None))

    recorder = current_recorder()
    counter = counter or null_counter()
    if isinstance(kernels, str) or kernels is None:
        kernels = get_kernels(kernels or "precomputed", tensor.m, tensor.n)
    if recorder is not None:
        counter = recorder.flop_counter(mirror=counter)
        kernels = instrumented_pair(kernels, counter=counter)
    tel = None
    if telemetry_enabled(telemetry, recorder):
        meta = {"m": tensor.m, "n": tensor.n, "tol": tol}
        meta.update(tel_meta or {})
        tel = ConvergenceTelemetry(solver, meta=meta)
    guard = None
    if guard_cfg is not None:
        guard = IterationGuard(guard_cfg, solver=solver, tol=tol)
    return SolverScaffold(
        solver=solver, tensor=tensor, tol=tol, max_iters=max_iters,
        kernels=kernels, counter=counter, rng=rng, recorder=recorder,
        telemetry=tel, guard=guard, t0=time.perf_counter(),
    )


def start_vector(x0, n: int, rng) -> np.ndarray:
    """Validate/normalize an explicit start, or draw a random unit one."""
    if x0 is None:
        x0 = random_unit_vector(n, rng=rng)
    x = np.asarray(x0, dtype=np.float64)
    if x.shape != (n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({n},)")
    norm = np.linalg.norm(x)
    if norm == 0:
        raise ValueError("starting vector must be nonzero")
    return x / norm
