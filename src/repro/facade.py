"""``repro.solve`` — one front door for every eigensolver in the package.

The solvers grew up separately: :func:`~repro.solvers.sshopm.sshopm` for
one tensor and one start, :func:`~repro.solvers.adaptive.adaptive_sshopm`
for the self-tuning shift, and the fleet engine
(:func:`~repro.engine.fleet.fleet_solve`) for every multistart solve.
Choosing among them is mechanical — it depends only on the *shape* of the
request (one tensor or a batch? one start or many? fixed or adaptive
shift? how many workers?) — so the facade makes the choice:

>>> import repro
>>> report = repro.solve(tensor)                      # one start: sshopm
>>> report = repro.solve(tensor, starts=64)           # fleet, batch of one
>>> report = repro.solve(batch, starts=32)            # fleet engine
>>> report.result.eigenpairs(...)                     # ResultProtocol

Every report wraps a result satisfying
:class:`~repro.core.results.ResultProtocol`, so downstream code reads
``.converged`` / ``.telemetry`` / ``.eigenpairs()`` without caring which
solver ran.  See ``docs/api.md`` for the full reference and the
migration table from the per-solver entry points.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.config import SolveConfig
from repro.core.results import ResultProtocol
from repro.symtensor.storage import SymmetricTensor, SymmetricTensorBatch

__all__ = ["SolveReport", "SolveRequest", "solve"]


@dataclass
class SolveRequest:
    """A fully-specified solve, ready to route.

    ``starts`` follows :func:`solve`'s convention: ``None`` (one random
    start), an ``int`` count, a 1-D array (one explicit start), or a 2-D
    ``(V, n)`` array of explicit starts.  ``options`` carries any extra
    keyword arguments forwarded verbatim to the routed solver.
    ``method`` holds the *resolved* solver method (``"auto"`` is resolved
    before the request is routed); ``None`` means the legacy
    shape-routing with SS-HOPM solvers.
    """

    problem: SymmetricTensorBatch | SymmetricTensor
    starts: int | np.ndarray | None = None
    alpha: float | None = None
    tol: float | None = None
    max_iters: int | None = None
    adaptive: bool = False
    workers: int = 1
    config: SolveConfig | None = None
    rng: Any = None
    options: dict = field(default_factory=dict)
    method: str | None = None

    @property
    def is_batch(self) -> bool:
        return isinstance(self.problem, SymmetricTensorBatch)

    @property
    def num_starts(self) -> int:
        """Starting vectors the request asks for (0 = solver default)."""
        if self.starts is None:
            return 1
        if isinstance(self.starts, (int, np.integer)):
            return int(self.starts)
        arr = np.asarray(self.starts)
        return 1 if arr.ndim == 1 else arr.shape[0]

    def solver_name(self) -> str:
        """Which solver :func:`solve` will route this request to."""
        if self.method == "geap":
            if self.is_batch or self.num_starts > 1:
                # GEAP shares the fleet's lane machinery for multistart
                base = ("parallel_fleet_solve"
                        if self.is_batch and self.workers > 1
                        else "fleet_solve")
                return base + "+geap"
            return "geap"
        if self.method == "qrst":
            return "qrst_batch" if self.is_batch else "qrst"
        if self.method not in (None, "sshopm"):
            return self.method
        if self.is_batch or self.num_starts > 1:
            if self.is_batch and self.workers > 1:
                return "parallel_fleet_solve"
            return "fleet_solve"
        return "adaptive_sshopm" if self.adaptive else "sshopm"


@dataclass
class SolveReport:
    """What :func:`solve` hands back.

    ``result`` satisfies :class:`~repro.core.results.ResultProtocol`;
    ``solver`` names the routed entry point (see
    :meth:`SolveRequest.solver_name`); ``seconds`` is end-to-end wall
    time; ``extra`` carries solver-specific side products (e.g. the
    :class:`~repro.parallel.fleet.FleetRunReport` of a parallel run).
    """

    result: ResultProtocol
    solver: str
    seconds: float
    request: SolveRequest
    extra: Any = None

    @property
    def converged(self):
        return self.result.converged

    @property
    def telemetry(self):
        return self.result.telemetry

    def eigenpairs(self, *args, **kwargs):
        return self.result.eigenpairs(*args, **kwargs)


def _split_starts(request: SolveRequest):
    """Normalize ``starts`` into (count or None, explicit array or None)."""
    s = request.starts
    if s is None:
        return None, None
    if isinstance(s, (int, np.integer)):
        return int(s), None
    arr = np.asarray(s, dtype=np.float64)
    if arr.ndim == 1:
        return 1, arr
    if arr.ndim == 2:
        return arr.shape[0], arr
    raise ValueError(f"starts must be an int or a 1-D/2-D array, got ndim={arr.ndim}")


def _fold_deadline(opts: dict, config: SolveConfig | None) -> dict:
    """Translate ``deadline=`` (or ``config.deadline``) into the solver's
    ``stop=`` hook, mirroring the fleet path's convention."""
    deadline = opts.pop("deadline", None)
    if deadline is None and config is not None:
        deadline = config.deadline
    if deadline is not None and "stop" not in opts:
        opts["stop"] = lambda: time.time() >= deadline
    return opts


# Options only the fleet drivers understand; uniform callers
# (the CLI passes its full flag set regardless of method) may hand them
# to geap/qrst, where they have no meaning and are dropped.
_FLEET_ONLY_OPTS = ("variant", "backend", "compact_every", "scheme",
                    "executor", "events")


def _strip_fleet_opts(opts: dict) -> dict:
    for key in _FLEET_ONLY_OPTS:
        opts.pop(key, None)
    return opts


def solve(
    problem: SymmetricTensorBatch | SymmetricTensor,
    starts: int | np.ndarray | None = None,
    alpha: float | None = None,
    tol: float | None = None,
    max_iters: int | None = None,
    config: SolveConfig | None = None,
    rng: Any = None,
    *,
    adaptive: bool = False,
    workers: int = 1,
    method: str | None = None,
    **options,
) -> SolveReport:
    """Solve a tensor eigenproblem, routing by the shape of the request.

    Parameters
    ----------
    problem : a :class:`~repro.symtensor.SymmetricTensor` or a
        :class:`~repro.symtensor.SymmetricTensorBatch`.
    starts : ``None`` (one random start), an ``int`` (that many shared
        random starts), a 1-D ``(n,)`` vector (one explicit start), or a
        2-D ``(V, n)`` array of explicit starts.
    alpha, tol, max_iters, config, rng : as in the underlying solvers;
        ``config`` supplies defaults for anything unset.
    adaptive : self-tuning shift.  Routes a single-start request to
        :func:`~repro.solvers.adaptive.adaptive_sshopm` and turns on the
        fleet engine's per-lane shift escalation for batch requests.
    method : solver method from the :mod:`repro.solvers` registry —
        ``"sshopm"`` (default behavior), ``"geap"`` (adaptive
        projected-Hessian shift; pass ``mode="min"`` for the concave
        case), ``"qrst"`` (deterministic tensor QR with deflation), any
        third-party registered name, or ``"auto"`` to route by problem
        shape and spectrum target
        (:func:`~repro.solvers.registry.choose_method`).  ``None``
        defers to ``config.method`` and then the legacy shape routing.
        See ``docs/solvers.md`` for the selection guide.
    workers : shard a batch request over this many workers via
        :func:`~repro.parallel.fleet.parallel_fleet_solve`; pass
        ``executor="process"`` (or ``"auto"``) in ``options`` to run them
        as zero-copy shared-memory worker processes instead of threads
        (see ``docs/parallel.md`` — results stay bit-for-bit identical
        to a single-worker run).
    **options : forwarded verbatim to the routed solver (e.g.
        ``variant=``/``backend=``, ``telemetry=``, ``guards=``,
        ``scheme=``, ``dtype=``, ``compact_every=``).  On the fleet
        paths ``variant=`` names the batched kernel variant and
        ``backend=`` the codegen backend compiling it (see
        :func:`repro.kernels.plan.get_plan`; ``"auto"`` on either takes
        the shape's race winner).

    Routing
    -------
    ==========================  =======================================
    request shape               solver
    ==========================  =======================================
    tensor, one start           ``sshopm`` / ``adaptive_sshopm``
    tensor, many starts         ``fleet_solve`` (a batch of one)
    batch (any starts)          ``fleet_solve``
    batch, ``workers > 1``      ``parallel_fleet_solve``
    ==========================  =======================================

    Returns a :class:`SolveReport`; ``report.result`` satisfies
    :class:`~repro.core.results.ResultProtocol` whichever solver ran.
    """
    from repro.core.config import resolve_option

    request = SolveRequest(
        problem=problem,
        starts=starts,
        alpha=alpha,
        tol=tol,
        max_iters=max_iters,
        adaptive=adaptive,
        workers=workers,
        config=config,
        rng=rng,
        options=dict(options),
    )
    method = resolve_option("method", method, config, None)
    if method is not None:
        from repro.solvers import choose_method, get_solver

        if method == "auto":
            method = choose_method(
                problem.m,
                problem.n,
                batch=request.is_batch,
                num_starts=request.num_starts,
                spectrum=str(options.get("mode", "max")),
            )
        else:
            get_solver(method)  # unknown names fail loudly up front
        request.method = method
    solver = request.solver_name()
    count, explicit = _split_starts(request)
    common = dict(alpha=alpha, tol=tol, max_iters=max_iters, config=config)
    extra = None

    from repro.instrument import gauge

    gauge("solve.method", request.method or "sshopm")
    gauge("solve.solver", solver)

    t0 = time.perf_counter()
    if solver == "geap":
        from repro.resilience.retry import run_with_retry
        from repro.solvers.geap import geap

        opts = _strip_fleet_opts(_fold_deadline(dict(options), config))
        x0 = explicit
        policy = config.retry if config is not None else None
        if policy is not None:
            outcome = run_with_retry(
                lambda attempt: geap(
                    problem, x0=x0 if attempt == 0 else None, tol=tol,
                    max_iters=max_iters, config=config, rng=rng, **opts,
                ),
                policy, solver="geap", rng=rng,
            )
            result, extra = outcome.result, outcome
        else:
            result = geap(problem, x0=x0, tol=tol, max_iters=max_iters,
                          config=config, rng=rng, **opts)
    elif solver == "qrst":
        from repro.resilience.retry import run_with_retry
        from repro.solvers.qrst import qrst

        opts = _strip_fleet_opts(_fold_deadline(dict(options), config))
        opts.pop("mode", None)  # QRST has no spectrum-target switch
        policy = config.retry if config is not None else None
        if policy is not None:
            outcome = run_with_retry(
                lambda attempt: qrst(
                    problem, tol=tol, max_iters=max_iters, config=config,
                    rng=rng, **opts,
                ),
                policy, solver="qrst", rng=rng,
            )
            result, extra = outcome.result, outcome
        else:
            result = qrst(problem, tol=tol, max_iters=max_iters,
                          config=config, rng=rng, **opts)
    elif solver == "qrst_batch":
        from repro.solvers.qrst import qrst_batch

        opts = _strip_fleet_opts(_fold_deadline(dict(options), config))
        opts.pop("mode", None)
        result = qrst_batch(
            problem, num_starts=count or 8, tol=tol, max_iters=max_iters,
            rng=rng, config=config, **opts,
        )
    elif request.method not in (None, "sshopm", "geap", "qrst"):
        result = _solve_custom_entry(request, count, tol, max_iters)
    elif solver in ("sshopm", "adaptive_sshopm"):
        x0 = explicit if explicit is not None else None
        if solver == "adaptive_sshopm":
            from repro.solvers.adaptive import adaptive_sshopm

            opts = dict(options)
            # adaptive picks its own shift trajectory; alpha seeds it as tau
            opts.pop("variant", None)
            result = adaptive_sshopm(
                problem, x0=x0, tol=tol, max_iters=max_iters,
                config=config, rng=rng, **opts,
            )
        else:
            from repro.solvers.sshopm import sshopm

            result = sshopm(problem, x0=x0, rng=rng, **common, **options)
    else:
        # every multistart solve runs on the fleet; a single tensor with
        # many starts runs as a batch of one
        batch = (problem if request.is_batch
                 else SymmetricTensorBatch.from_tensors([problem]))
        fleet_opts = dict(options)
        if request.method == "geap":
            # GEAP rides the fleet lanes with per-sweep projected shifts
            if fleet_opts.pop("mode", "max") != "max":
                raise ValueError(
                    "method='geap' with mode='min' is single-start only; "
                    "drop starts= or run per-start geap(mode='min') calls"
                )
            adaptive = "geap"
        if solver.startswith("parallel_fleet_solve"):
            from repro.parallel.fleet import parallel_fleet_solve

            kwargs = dict(
                workers=workers, starts=explicit, rng=rng,
                adaptive=adaptive, **common, **fleet_opts,
            )
            if count is not None and explicit is None:
                kwargs["num_starts"] = count
            report = parallel_fleet_solve(batch, **kwargs)
            result, extra = report.result, report
        else:
            from repro.engine.fleet import fleet_solve
            from repro.instrument.events import (
                EventSpool,
                current_spool,
                use_spool,
            )

            # executor-tier options are meaningless without sharding
            for key in ("executor", "steal", "start_method"):
                fleet_opts.pop(key, None)
            # the engine speaks stop= only; fold a deadline into the hook
            _fold_deadline(fleet_opts, config)
            # the engine takes no events= keyword; the facade opens the
            # spool so engine-level events (retirements, compactions,
            # plan-cache traffic) still stream for single-shard runs
            events_path = fleet_opts.pop("events", None)
            if events_path is None and config is not None:
                events_path = config.events
            kwargs = dict(
                starts=explicit, rng=rng, adaptive=adaptive,
                **common, **fleet_opts,
            )
            if count is not None and explicit is None:
                kwargs["num_starts"] = count
            if events_path and current_spool() is None:
                T = len(batch)
                V = count if count is not None else (
                    1 if explicit is None or explicit.ndim == 1
                    else explicit.shape[0])
                with EventSpool.open(events_path, src="parent") as spool, \
                        use_spool(spool):
                    spool.emit("run_start", tensors=T, lanes=T * V,
                               workers=1, shards=1, executor="inline",
                               ranges=[[0, T]], starts_per_tensor=V)
                    t_run = time.perf_counter()
                    result = fleet_solve(batch, **kwargs)
                    spool.emit("run_finish",
                               seconds=time.perf_counter() - t_run,
                               requeues=0, failed=0)
            else:
                result = fleet_solve(batch, **kwargs)
    seconds = time.perf_counter() - t0

    return SolveReport(
        result=result,
        solver=solver,
        seconds=seconds,
        request=request,
        extra=extra,
    )


def _solve_custom_entry(request: SolveRequest, count, tol, max_iters):
    """Route a third-party registered method through its
    :class:`~repro.solvers.registry.SolverEntry` callables.

    Batch requests use ``entry.batch`` when provided; otherwise the
    facade falls back to running ``entry.single`` per tensor and packing
    one result slot per tensor into a
    :class:`~repro.core.results.FleetResult` (reading the conventional
    ``eigenvalue`` / ``eigenvector`` / ``converged`` / ``iterations``
    attributes, NaN where absent).
    """
    from repro.solvers import get_solver

    entry = get_solver(request.method)
    config, rng = request.config, request.rng
    opts = _fold_deadline(dict(request.options), config)
    common = dict(tol=tol, max_iters=max_iters, config=config, rng=rng)
    if not request.is_batch:
        if entry.single is None:
            raise ValueError(
                f"solver {request.method!r} is batch-only; pass a "
                "SymmetricTensorBatch"
            )
        return entry.single(request.problem, **common, **opts)
    if entry.batch is not None:
        return entry.batch(request.problem, num_starts=count or 8,
                           **common, **opts)
    if entry.single is None:
        raise ValueError(f"solver {request.method!r} registered no callables")
    from repro.core.results import FleetResult

    batch = request.problem
    T, n = len(batch), batch.n
    eigenvalues = np.full((T, 1), np.nan)
    eigenvectors = np.full((T, 1, n), np.nan)
    converged = np.zeros((T, 1), dtype=bool)
    iterations = np.zeros((T, 1), dtype=np.int64)
    failed = np.zeros((T, 1), dtype=bool)
    sweeps = 0
    for t, tensor in enumerate(batch):
        r = entry.single(tensor, **common, **opts)
        eigenvalues[t, 0] = float(getattr(r, "eigenvalue", np.nan))
        vec = getattr(r, "eigenvector", None)
        if vec is not None:
            eigenvectors[t, 0] = np.asarray(vec, dtype=np.float64)
        converged[t, 0] = bool(np.all(getattr(r, "converged", False)))
        iterations[t, 0] = int(getattr(r, "iterations", 0))
        sweeps = max(sweeps, int(getattr(r, "iterations", 0)))
    return FleetResult(
        eigenvalues=eigenvalues, eigenvectors=eigenvectors,
        converged=converged, iterations=iterations, sweeps=sweeps,
        failed=failed, shifts=None, variant=request.method, tensors=batch,
    )
