"""The fleet solve engine: one vectorized SS-HOPM sweep over a whole workload.

This is the package's one multistart engine — the paper's Section V
mapping of a thread block per tensor and a thread per starting vector.
It treats the workload as a flat pool of ``L = T * V`` independent
*lanes* and keeps the kernels dense over the *active* lanes only:

* every lane carries its own state — iterate, lambda, shift — so shifts
  can escalate per lane (adaptive mode) without splitting the batch;
* converged and numerically-dead lanes are retired immediately (their
  outputs written back to the full-result arrays) and physically removed
  from the working arrays at the next *compaction*, the host-side analog
  of persistent-kernel work re-binning on a GPU;
* all kernel calls go through one :class:`~repro.kernels.plan.KernelPlan`
  resolved from the process-wide plan cache, so table and codegen costs
  are paid once per ``(m, n, variant)`` across the entire fleet.

Lane ``l`` maps to pair ``(t, v) = divmod(l, V)``; results come back as
``(T, V)`` arrays in a :class:`~repro.core.results.FleetResult`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.core.config import SolveConfig, resolve_option
from repro.core.results import FleetResult
from repro.instrument import current_recorder, gauge as _gauge
from repro.instrument import span as _span
from repro.instrument.events import emit as _emit
from repro.instrument.kernels import instrumented_plan
from repro.instrument.metrics import (
    observe_fleet_compaction,
    observe_solver_run,
)
from repro.instrument.telemetry import ConvergenceTelemetry, telemetry_enabled
from repro.kernels.plan import KernelPlan, get_plan
from repro.resilience.guards import LaneGuard, resolve_guards
from repro.symtensor.indexing import multiplicity_table
from repro.symtensor.storage import SymmetricTensor, SymmetricTensorBatch
from repro.util.flopcount import FlopCounter, null_counter
from repro.util.rng import starting_vectors

__all__ = ["FleetWorkspace", "fleet_solve", "suggested_shifts"]

# escalate a lane's shift after this many consecutive sign-alternating
# lambda deltas (the too-small-shift signature; cf. GuardConfig)
_OSC_WINDOW = 4


def suggested_shifts(tensors: SymmetricTensorBatch) -> np.ndarray:
    """Per-tensor convergence-guaranteeing shifts ``m (m-1) ||A_t||_F``.

    The batched analog of :func:`repro.solvers.sshopm.suggested_shift`,
    computed in one vectorized pass over the compressed values.
    """
    m, n = tensors.m, tensors.n
    mult = multiplicity_table(m, n).astype(np.float64)
    norms = np.sqrt((mult * np.asarray(tensors.values, np.float64) ** 2).sum(-1))
    return m * (m - 1) * norms


@dataclass
class FleetWorkspace:
    """Externally-owned fleet output buffers.

    Passing one as ``fleet_solve(..., out=ws)`` makes the engine write
    every result directly into these arrays instead of allocating its
    own — the zero-copy hook the process fleet uses to land each shard's
    results in a preallocated shared-memory block
    (:class:`repro.parallel.shm.SharedResultBlock`), so only shard
    *descriptors* ever cross a pipe.  The returned
    :class:`~repro.core.results.FleetResult` arrays are views of these
    buffers.

    Shapes are the ``(T, V)`` lane grid (``eigenvectors`` is
    ``(T, V, n)``); every buffer must be C-contiguous so the engine's
    flat ``(L,)`` lane views alias it rather than copy.
    """

    eigenvalues: np.ndarray  # (T, V) float64
    eigenvectors: np.ndarray  # (T, V, n) compute dtype
    converged: np.ndarray  # (T, V) bool
    iterations: np.ndarray  # (T, V) int64
    failed: np.ndarray  # (T, V) bool
    shifts: np.ndarray  # (T, V) float64

    @classmethod
    def allocate(cls, T: int, V: int, n: int, dtype=np.float64) -> "FleetWorkspace":
        """Fresh C-contiguous buffers for a ``(T, V)`` lane grid."""
        return cls(
            eigenvalues=np.full((T, V), np.nan),
            eigenvectors=np.full((T, V, n), np.nan, dtype=dtype),
            converged=np.zeros((T, V), dtype=bool),
            iterations=np.zeros((T, V), dtype=np.int64),
            failed=np.zeros((T, V), dtype=bool),
            shifts=np.full((T, V), np.nan),
        )

    def lane_views(self, T: int, V: int, n: int, dtype):
        """Validated flat ``(L, ...)`` views over the ``(T, V, ...)``
        buffers, in the engine's output order.  Raises ``ValueError`` on
        any shape/dtype/contiguity mismatch — a reshape that silently
        copied would drop results on the floor."""
        L = T * V
        specs = [
            ("eigenvalues", self.eigenvalues, (T, V), np.float64, (L,)),
            ("eigenvectors", self.eigenvectors, (T, V, n), np.dtype(dtype), (L, n)),
            ("converged", self.converged, (T, V), np.bool_, (L,)),
            ("iterations", self.iterations, (T, V), np.int64, (L,)),
            ("failed", self.failed, (T, V), np.bool_, (L,)),
            ("shifts", self.shifts, (T, V), np.float64, (L,)),
        ]
        views = []
        for name, arr, shape, want_dtype, flat_shape in specs:
            if arr.shape != shape:
                raise ValueError(
                    f"workspace {name} has shape {arr.shape}, need {shape}")
            if arr.dtype != np.dtype(want_dtype):
                raise ValueError(
                    f"workspace {name} has dtype {arr.dtype}, need "
                    f"{np.dtype(want_dtype)}")
            if not arr.flags.c_contiguous:
                raise ValueError(f"workspace {name} must be C-contiguous")
            view = arr.reshape(flat_shape)
            if not np.shares_memory(view, arr):  # pragma: no cover - guarded above
                raise ValueError(f"workspace {name} reshape copied")
            views.append(view)
        return tuple(views)


def _as_batch(tensors) -> SymmetricTensorBatch:
    if isinstance(tensors, SymmetricTensor):
        return SymmetricTensorBatch(tensors.values[None, :], tensors.m, tensors.n)
    return tensors


def _lane_values(values: np.ndarray, tensor_of: np.ndarray) -> np.ndarray:
    """The ``(A, U)`` per-lane tensor values, held lanes-last: the
    transpose of a C-contiguous ``(U, A)`` array, so each lane block of
    the ``A x^{m-1}`` kernel gathers contiguous rows of lanes (see
    :func:`repro.kernels.batched.ax_m1_batched`).  ``take`` because fancy
    indexing ``values.T[:, tensor_of]`` would return lanes-first memory."""
    return values.T.take(tensor_of, axis=1).T


def _resolve_starts(starts, num_starts, n, scheme, rng, dtype) -> np.ndarray:
    # generated starts take the same normalization as explicit ones, so a
    # tier that generates the set and hands it on solves bit-identically
    if starts is None:
        starts = starting_vectors(num_starts, n, scheme=scheme, rng=rng)
    starts = np.asarray(starts, dtype=dtype)
    if starts.ndim != 2 or starts.shape[1] != n:
        raise ValueError(f"starts must have shape (V, {n}), got {starts.shape}")
    norms = np.linalg.norm(starts, axis=1, keepdims=True)
    if np.any(norms == 0):
        raise ValueError("starting vectors must be nonzero")
    return starts / norms


def fleet_solve(
    tensors: SymmetricTensorBatch | SymmetricTensor,
    num_starts: int | None = None,
    alpha: float | None = None,
    tol: float | None = None,
    max_iters: int | None = None,
    starts: np.ndarray | None = None,
    scheme: str | None = None,
    variant: str | None = None,
    dtype=None,
    rng=None,
    counter: FlopCounter | None = None,
    config: SolveConfig | None = None,
    *,
    backend: str | None = None,
    adaptive: bool | str = False,
    tau: float = 1e-6,
    compact_every: int = 8,
    plan: KernelPlan | None = None,
    out: FleetWorkspace | None = None,
    telemetry: bool | None = None,
    guards=None,
    stop=None,
) -> FleetResult:
    """Solve the whole ``T``-tensor, ``V``-start workload in one fleet run.

    Parameters
    ----------
    tensors : a batch (or a single tensor, run as a batch of one).
    num_starts, alpha, tol, max_iters : starts per tensor (default 32;
        ignored when ``starts`` is given), shift (default 0; negative
        seeks minima), ``|delta lambda|`` threshold (default ``1e-10``)
        and sweep cap (default 500).
    starts, scheme, rng, dtype : explicit ``(V, n)`` starts shared by
        every tensor, else ``scheme`` (``"random"``/``"fibonacci"``)
        drawn from ``rng``; compute precision (default float64).
    counter, config, telemetry : flop counter; a
        :class:`~repro.core.config.SolveConfig` supplying any option not
        passed; per-sweep telemetry (default: on when a recorder is).
    variant : batched kernel variant for the :class:`KernelPlan`
        (``"vectorized"``, ``"unrolled"``, ``"unrolled_cse"``,
        ``"blocked"``, their ``batched*`` aliases, or ``"auto"``).
        Resolved through the ``backend`` config field when unset.
    backend : codegen backend compiling the plan's kernels (``"numpy"``,
        ``"numba"``, or ``"auto"`` to race them per shape; see
        :mod:`repro.kernels.codegen`).  Resolved through the
        ``codegen_backend`` config field when unset.  Degrades gracefully:
        requesting ``"numba"`` without numba installed runs the numpy
        path and records it on ``plan.effective_backend``.
    adaptive : ``True`` gives each lane its own shift and escalates it
        halfway toward the tensor's convergence-guaranteeing bound (see
        :func:`suggested_shifts`) whenever the lane's lambda sequence
        sign-alternates for ``_OSC_WINDOW`` consecutive sweeps — the
        fleet analog of :func:`repro.solvers.adaptive.adaptive_sshopm`.
        The string ``"geap"`` instead recomputes every live lane's shift
        each sweep from the projected-Hessian rule
        (:func:`repro.solvers.geap.projected_shift`, margin ``tau``) —
        the fleet lane version of :func:`repro.solvers.geap.geap`
        (``mode="max"`` only).
    tau : convexity margin for ``adaptive="geap"`` (ignored otherwise).
    compact_every : sweeps between active-set compactions.  Between
        compactions retired lanes ride along masked; each compaction
        gathers the survivors so kernel work tracks the live population.
    plan : prebuilt :class:`KernelPlan` to use instead of a cache lookup
        (the parallel sharding path passes one per worker).
    out : a :class:`FleetWorkspace` of caller-owned ``(T, V)`` buffers the
        engine writes results into instead of allocating its own; the
        returned result's arrays are views of it.  The process fleet
        passes shard slices of a shared-memory result block here so
        results never cross a pipe.
    guards : per-lane semantics — an individual dying lane (NaN/Inf or
        collapsed update) is always retired and reported via
        ``result.failed``; enabling guards only makes *total* collapse
        (every lane dead) raise a structured
        :class:`~repro.resilience.guards.SolveFailure`.
    stop : optional zero-argument callable polled once per sweep — the
        cancellation hook deadlines, budget caps, and ``repro serve``
        drain ride on.  When it returns truthy the engine stops cleanly
        through the lane-retirement path: every still-active lane is
        written back (``converged=False``, ``failed=False``, its last
        iterate and current sweep count) and the result is returned with
        ``stopped=True``.  Lanes that already retired are untouched, so
        a stopped run never corrupts or drops completed work.

    Returns a :class:`~repro.core.results.FleetResult` with the
    ``(T, V)`` lane grid.  Lanes never interact, so a lane's result is
    bit-identical however the starts are split across calls.

    Each sweep does, per lane and in this order: the shifted update
    ``u = alpha x + y`` (negated where ``alpha < 0``), with
    ``y = A x^{m-1}``; the norm ``sqrt(u_0^2 + u_1^2 + ... + u_{n-1}^2)``,
    summed left to right over the ``n`` components; retirement as failed
    of a lane whose norm is zero or not finite (it keeps its last finite
    state); ``x = u / norm``; then ``y`` for the new ``x`` and
    ``lambda = x . y``.  A lane whose new lambda is not finite fails
    with its previous lambda, and one whose lambda moved less than
    ``tol`` converges.  For ``n <= 7`` the norm is bit-identical to
    ``np.linalg.norm(u, axis=-1)`` (numpy adds a row of at most 7 terms
    left to right); for ``n >= 8`` numpy sums a row pairwise, so the
    two can differ in the last bit.
    """
    # ``if adaptive:`` truthiness would silently give the string "geap"
    # the oscillation-escalation machinery — keep the two modes explicit
    if not (isinstance(adaptive, bool) or adaptive == "geap"):
        raise ValueError(
            f"adaptive must be a bool or 'geap', got {adaptive!r}")
    osc_adaptive = adaptive is True
    geap_mode = adaptive == "geap"
    num_starts = resolve_option("num_starts", num_starts, config, 32)
    alpha = resolve_option("alpha", alpha, config, 0.0)
    tol = resolve_option("tol", tol, config, 1e-10)
    max_iters = resolve_option("max_iters", max_iters, config, 500)
    scheme = resolve_option("scheme", scheme, config, "random")
    variant = resolve_option("backend", variant, config, "vectorized")
    backend = resolve_option("codegen_backend", backend, config, "numpy")
    dtype = resolve_option("dtype", dtype, config, np.float64)
    rng = resolve_option("rng", rng, config, None)
    guard_cfg = resolve_guards(resolve_option("guards", guards, config, None))
    if compact_every < 1:
        raise ValueError(f"compact_every must be >= 1, got {compact_every}")

    tensors = _as_batch(tensors)
    m, n = tensors.m, tensors.n
    T = len(tensors)
    counter = counter or null_counter()
    recorder = current_recorder()
    if recorder is not None:
        counter = recorder.flop_counter(mirror=counter)

    starts = _resolve_starts(starts, num_starts, n, scheme, rng, dtype)
    V = starts.shape[0]
    L = T * V

    if plan is None:
        plan = get_plan(m, n, variant, backend)
    elif (plan.m, plan.n) != (m, n):
        raise ValueError(
            f"plan is for shape {(plan.m, plan.n)} but batch is {(m, n)}"
        )
    if recorder is not None:
        plan = instrumented_plan(plan, recorder)  # kernel spans + bytes

    _gauge("fleet.tensors", T)
    _gauge("fleet.starts", V)
    _gauge("fleet.variant", plan.variant)
    _gauge("fleet.codegen_backend", plan.effective_backend)
    _gauge("fleet.shape", [m, n])

    tel = None
    if telemetry_enabled(telemetry, recorder):
        tel = ConvergenceTelemetry(
            "fleet_solve",
            meta={"tensors": T, "starts": V, "alpha": alpha,
                  "variant": plan.variant, "shape": [m, n],
                  "adaptive": adaptive, "compact_every": compact_every},
        )
    guard = LaneGuard(guard_cfg, solver="fleet_solve", total_lanes=L)

    values = np.asarray(tensors.values, dtype=dtype)          # (T, U)
    # lane state (active working set; compactions shrink these arrays).
    # Retired lanes keep riding along between compactions — their outputs
    # are already written back, so their working rows are free to update
    # unconditionally (no masked assignments in the hot loop).
    idx = np.arange(L)                                        # global lane ids
    tensor_of = idx // V                                      # (A,)
    x = np.tile(starts, (T, 1)).astype(dtype, copy=True)      # (A, n)
    alpha_lane = np.full(L, alpha, dtype=np.float64)
    uniform_shift = not (osc_adaptive or geap_mode)           # scalar fast path
    any_neg = alpha < 0
    lane_vals = _lane_values(values, tensor_of)               # (A, U)
    live = np.ones(L, dtype=bool)
    if osc_adaptive:
        bounds = suggested_shifts(tensors)                    # (T,)
        prev_delta = np.zeros(L)
        osc = np.zeros(L, dtype=np.int64)
    if geap_mode:
        from repro.solvers.geap import projected_shift

        tensor_objs = [tensors[t] for t in range(T)]

    # full-workload outputs, written as lanes retire; with ``out=`` these
    # are flat views over the caller's buffers instead of fresh arrays
    if out is None:
        out_lam = np.full(L, np.nan)
        out_x = np.full((L, n), np.nan, dtype=dtype)
        out_conv = np.zeros(L, dtype=bool)
        out_iters = np.zeros(L, dtype=np.int64)
        out_failed = np.zeros(L, dtype=bool)
        out_alpha = np.full(L, alpha, dtype=np.float64)
    else:
        (out_lam, out_x, out_conv, out_iters,
         out_failed, out_alpha) = out.lane_views(T, V, n, dtype)
        out_lam.fill(np.nan)
        out_x.fill(np.nan)
        out_conv.fill(False)
        out_iters.fill(0)
        out_failed.fill(False)
        out_alpha.fill(alpha)

    sweeps = 0
    compactions = 0
    was_stopped = False

    def write_back(sel: np.ndarray, lam_of: np.ndarray, converged: bool,
                   failed: bool) -> None:
        # every live lane iterates every sweep, so a retiring lane has done
        # exactly `sweeps` iterations; one integer index serves every gather
        pos = np.flatnonzero(sel)
        gids = idx[pos]
        out_lam[gids] = lam_of[pos]
        out_x[gids] = x[pos]
        out_conv[gids] = converged
        out_failed[gids] = failed
        out_iters[gids] = sweeps
        out_alpha[gids] = alpha_lane[pos]

    t0 = time.perf_counter()
    with _span("fleet_solve"), np.errstate(invalid="ignore", over="ignore",
                                           divide="ignore"):
        # one kernel per sweep: y = A x^{m-1} drives both the update and,
        # via lambda = A x^m = x . y, the eigenvalue — no separate ax_m call
        y = np.asarray(plan.ax_m1(lane_vals, x, counter=counter))
        lam = np.einsum("ij,ij->i", x, y, dtype=np.float64)
        for _ in range(max_iters):
            if not live.any():
                break
            if stop is not None and stop():
                # cancelled (deadline / budget / drain): retire the
                # still-active lanes through the normal write-back path
                # below, exactly like running out of iterations
                was_stopped = True
                _emit("stop", active=int(live.sum()), sweep=sweeps)
                break
            sweeps += 1
            with _span("sweep"):
                if geap_mode:
                    # per-sweep projected-Hessian shift, one lane at a
                    # time (the eigendecompositions dominate anyway)
                    for i in np.flatnonzero(live):
                        a = projected_shift(
                            tensor_objs[tensor_of[i]],
                            np.asarray(x[i], dtype=np.float64), tau, "max")
                        if np.isfinite(a):
                            alpha_lane[i] = a
                # x_new = alpha x + y, formed in place (y itself when the
                # uniform shift is zero: y is recomputed below anyway)
                if uniform_shift and alpha == 0.0:
                    x_new = y
                else:
                    # dtype= keeps float32 lanes in float32 (alpha_lane is
                    # float64)
                    x_new = np.multiply(
                        x, alpha if uniform_shift else alpha_lane[:, None],
                        dtype=x.dtype)
                    x_new += y
                if any_neg:
                    np.negative(x_new, out=x_new,
                                where=(True if uniform_shift
                                       else (alpha_lane < 0)[:, None]))
                # column by column: a row reduction over n <= 7 terms adds in
                # this same order but costs several times as much (at n = 16
                # on fleets whose rows outgrow the cache it costs less)
                norms = np.square(x_new[:, 0])
                for j in range(1, n):
                    norms += np.square(x_new[:, j])
                np.sqrt(norms, out=norms)
                dead = live & ~((norms > 0) & (norms < np.inf))
                if dead.any():
                    # retire with the pre-update (last finite) state
                    write_back(dead, lam, converged=False, failed=True)
                if tel is not None:
                    x_prev = x
                # unguarded: only lanes retired by now (this sweep or
                # earlier) can have a zero or non-finite norm, and no result
                # of their NaN/Inf rows is used before compaction drops them
                x_new /= norms[:, None]
                x = x_new
                y = np.asarray(plan.ax_m1(lane_vals, x, counter=counter))
                lam_prev = lam
                lam = np.einsum("ij,ij->i", x, y, dtype=np.float64)
                counter.add_flops(2 * x.shape[0] * n)
                upd = live & ~dead
                bad_lam = upd & ~np.isfinite(lam)
                if bad_lam.any():
                    write_back(bad_lam, lam_prev, converged=False, failed=True)
                    dead |= bad_lam
                    upd &= ~bad_lam
                delta = lam - lam_prev
                just_conv = upd & (np.abs(delta) < tol)

                if osc_adaptive:
                    flip = upd & (delta * prev_delta < 0) & (np.abs(delta) >= tol)
                    osc[flip] += 1
                    osc[upd & ~flip] = 0
                    prev_delta = np.where(upd, delta, prev_delta)
                    esc = osc >= _OSC_WINDOW
                    if esc.any():
                        target = np.where(
                            alpha_lane[esc] < 0, -1.0, 1.0
                        ) * bounds[tensor_of[esc]]
                        alpha_lane[esc] = 0.5 * (alpha_lane[esc] + target)
                        osc[esc] = 0
                        any_neg = bool((alpha_lane < 0).any())

                if tel is not None and upd.any():
                    resid_now = np.linalg.norm(
                        y - lam[:, None] * x, axis=-1)[upd]
                    step_now = np.linalg.norm(x - x_prev, axis=-1)[upd]
                    tel.append(
                        sweeps, float(lam[upd].mean()),
                        residual=float(resid_now.max()),
                        shift=float(alpha_lane[upd].mean()),
                        step_norm=float(step_now.mean()),
                        active=int(upd.sum()),
                    )

                if just_conv.any():
                    write_back(just_conv, lam, converged=True, failed=False)
                retired = just_conv | dead
                if retired.any():
                    guard.retire(sweeps, int(just_conv.sum()), int(dead.sum()))
                    live &= ~retired
                    _emit("retire", converged=int(just_conv.sum()),
                          failed=int(dead.sum()), active=int(live.sum()),
                          sweep=sweeps)
                    try:
                        guard.check_collapse(
                            sweeps, telemetry=tel,
                            details={"lanes": L, "sweep": sweeps})
                    except Exception:
                        _emit("guard_trip", reason="collapse", sweep=sweeps)
                        raise

                if sweeps % compact_every == 0 and not live.all():
                    with _span("compact"):
                        keep = np.flatnonzero(live)
                        idx = idx[keep]
                        tensor_of = tensor_of[keep]
                        x = x[keep]
                        y = y[keep]
                        lam = lam[keep]
                        alpha_lane = alpha_lane[keep]
                        lane_vals = _lane_values(values, tensor_of)
                        if osc_adaptive:
                            prev_delta = prev_delta[keep]
                            osc = osc[keep]
                        live = np.ones(keep.size, dtype=bool)
                    compactions += 1
                    observe_fleet_compaction(idx.shape[0], L)
                    _emit("compact", active=int(idx.shape[0]), total=L,
                          sweep=sweeps)

        # lanes that ran out of iterations: record their current state
        if live.any():
            write_back(live, lam, converged=False, failed=False)

        with _span("residuals"):
            full_vals = _lane_values(values, np.arange(L) // V)
            y_all = np.asarray(plan.ax_m1(full_vals, out_x, counter=counter))
            residuals = np.linalg.norm(
                y_all - out_lam[:, None] * out_x, axis=-1
            )
            out_conv &= np.isfinite(residuals)
            out_failed |= ~np.isfinite(out_lam) | ~np.isfinite(residuals)

    elapsed = time.perf_counter() - t0
    if tel is not None:
        finite = residuals[np.isfinite(residuals)]
        tel.append(
            sweeps, float(np.nanmean(out_lam)) if L else float("nan"),
            residual=float(finite.max()) if finite.size else float("nan"),
            shift=float(out_alpha.mean()) if L else alpha,
            active=int(live.sum()),
            force=True,
        )
        if recorder is not None:
            recorder.add_telemetry(tel)
    observe_solver_run(
        "fleet_solve", elapsed,
        out_iters.reshape(T, V), int(out_conv.sum()), L,
    )
    return FleetResult(
        eigenvalues=out_lam.reshape(T, V),
        eigenvectors=out_x.reshape(T, V, n),
        converged=out_conv.reshape(T, V),
        iterations=out_iters.reshape(T, V),
        sweeps=sweeps,
        failed=out_failed.reshape(T, V),
        shifts=out_alpha.reshape(T, V),
        telemetry=tel,
        variant=plan.variant,
        compactions=compactions,
        stopped=was_stopped,
        tensors=tensors,
    )
