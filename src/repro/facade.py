"""``repro.solve`` — one front door for every eigensolver in the package.

The solvers grew up separately: :func:`~repro.solvers.sshopm.sshopm` for
one tensor and one start, :func:`~repro.solvers.adaptive.adaptive_sshopm`
for the self-tuning shift, :func:`~repro.solvers.geap.geap` and
:func:`~repro.solvers.qrst.qrst` for the other two methods, and
:func:`~repro.parallel.fleet.parallel_fleet_solve` (one fleet, or process
shards of a batch) for every multistart solve.  Choosing among them is
mechanical — it depends only on the method and the *shape* of the request
(one tensor or a batch? one start or many? fixed or adaptive shift? how
many workers?) — so the facade makes the choice:

>>> import repro
>>> report = repro.solve(tensor)                      # one start: sshopm
>>> report = repro.solve(tensor, starts=64)           # fleet, batch of one
>>> report = repro.solve(batch, starts=32)            # one fleet
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

from repro.core.config import SolveConfig, deadline_stop, resolve_option
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
        if self.method == "qrst":
            return "qrst_batch" if self.is_batch else "qrst"
        if not (self.is_batch or self.num_starts > 1):
            if self.method == "geap":
                return "geap"
            return "adaptive_sshopm" if self.adaptive else "sshopm"
        # every multistart request runs parallel_fleet_solve; the name
        # says whether it may shard (a batch with workers > 1)
        name = ("parallel_fleet_solve" if self.is_batch and self.workers > 1
                else "fleet_solve")
        return name + "+geap" if self.method == "geap" else name


@dataclass
class SolveReport:
    """What :func:`solve` hands back.

    ``result`` satisfies :class:`~repro.core.results.ResultProtocol`;
    ``solver`` names the routed entry point (see
    :meth:`SolveRequest.solver_name`); ``seconds`` is end-to-end wall
    time; ``extra`` carries solver-specific side products: the
    :class:`~repro.parallel.fleet.FleetRunReport` of every fleet route,
    the :class:`~repro.resilience.retry.RetryOutcome` of a GEAP or QRST
    solve under ``config.retry``, else ``None``.
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


# Options only the fleet drivers understand; uniform callers
# (the CLI passes its full flag set regardless of method) may hand them
# to geap/qrst, where they have no meaning and are dropped.
_FLEET_ONLY_OPTS = ("variant", "backend", "compact_every", "scheme",
                    "executor", "events")


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
    method : solver method, one of :data:`repro.solvers.METHODS` —
        ``"sshopm"`` (default behavior), ``"geap"`` (adaptive
        projected-Hessian shift; pass ``mode="min"`` for the concave
        case), ``"qrst"`` (deterministic tensor QR with deflation) — or
        ``"auto"`` to route by problem shape and spectrum target
        (:func:`~repro.solvers.registry.choose_method`).  Any other name
        raises :class:`~repro.solvers.registry.UnknownMethodError`.
        ``None`` defers to ``config.method`` and then the legacy shape
        routing.  See ``docs/solvers.md`` for the selection guide.
    workers : shard a batch request over this many zero-copy
        shared-memory worker processes when ``executor="process"`` (or
        ``"auto"``) is in ``options``; the default thread tier runs one
        fleet in the calling thread whatever ``workers`` is (see
        ``docs/parallel.md`` — results stay bit-for-bit identical to a
        single-worker run).
    **options : forwarded verbatim to the routed solver (e.g.
        ``variant=``/``backend=``, ``telemetry=``, ``guards=``,
        ``scheme=``, ``dtype=``, ``compact_every=``, ``deadline=``).  On
        the fleet paths ``variant=`` names the batched kernel variant and
        ``backend=`` the codegen backend compiling it (see
        :func:`repro.kernels.plan.get_plan`; ``"auto"`` on either takes
        the shape's race winner).

    Routing
    -------
    ==============================  ===================================
    request                         solver
    ==============================  ===================================
    tensor, one start               ``sshopm`` / ``adaptive_sshopm`` /
                                    ``geap`` (``method="geap"``)
    ``method="qrst"``               ``qrst`` / ``qrst_batch``
    tensor with many starts, or     ``parallel_fleet_solve``: one fleet
    a batch                         (a tensor runs as a batch of one),
                                    or process shards of a batch;
                                    GEAP rides the lanes
    ==============================  ===================================

    Returns a :class:`SolveReport`; ``report.result`` satisfies
    :class:`~repro.core.results.ResultProtocol` whichever solver ran.
    """
    from repro.instrument import gauge
    from repro.solvers import METHODS, UnknownMethodError, choose_method

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
    if method == "auto":
        method = choose_method(
            problem.m,
            problem.n,
            batch=request.is_batch,
            num_starts=request.num_starts,
            spectrum=str(options.get("mode", "max")),
        )
    elif method is not None and method not in METHODS:
        raise UnknownMethodError(method)
    request.method = method
    solver = request.solver_name()
    gauge("solve.method", request.method or "sshopm")
    gauge("solve.solver", solver)

    t0 = time.perf_counter()
    if "fleet_solve" in solver:
        extra = _solve_fleet(request)
        result = extra.result
    else:
        result, extra = _solve_direct(request, solver)
    return SolveReport(
        result=result,
        solver=solver,
        seconds=time.perf_counter() - t0,
        request=request,
        extra=extra,
    )


def _solve_fleet(request: SolveRequest):
    """Every multistart solve: SS-HOPM or GEAP lanes on
    :func:`~repro.parallel.fleet.parallel_fleet_solve`, which opens the
    event spool, adds the deadline to the stop hook, and runs one inline
    fleet or shards a batch over processes."""
    from repro.parallel.fleet import parallel_fleet_solve

    count, explicit = _split_starts(request)
    opts = dict(request.options)
    adaptive = request.adaptive
    if request.method == "geap":
        # GEAP rides the fleet lanes with per-sweep projected shifts
        if opts.pop("mode", "max") != "max":
            raise ValueError(
                "method='geap' with mode='min' is single-start only; "
                "drop starts= or run per-start geap(mode='min') calls"
            )
        adaptive = "geap"
    if count is not None and explicit is None:
        opts["num_starts"] = count
    problem = request.problem
    if not request.is_batch:  # a single tensor never shards
        problem = SymmetricTensorBatch.from_tensors([problem])
    return parallel_fleet_solve(
        problem, workers=request.workers if request.is_batch else 1,
        alpha=request.alpha, tol=request.tol, max_iters=request.max_iters,
        starts=explicit, rng=request.rng, config=request.config,
        adaptive=adaptive, **opts,
    )


def _solve_direct(request: SolveRequest, solver: str):
    """Single-start SS-HOPM/adaptive/GEAP and QRST; returns
    ``(result, extra)``.  A deadline reaches each as its ``stop=`` hook,
    and GEAP/QRST rerun under ``config.retry`` (``extra`` is then the
    :class:`~repro.resilience.retry.RetryOutcome`)."""
    from repro.solvers import adaptive_sshopm, geap, qrst, qrst_batch, sshopm

    problem, config, rng = request.problem, request.config, request.rng
    count, x0 = _split_starts(request)
    opts = dict(request.options)
    deadline = resolve_option("deadline", opts.pop("deadline", None),
                              config, None)
    opts["stop"] = deadline_stop(opts.get("stop"), deadline)
    common = dict(tol=request.tol, max_iters=request.max_iters,
                  config=config, rng=rng)
    if solver == "sshopm":
        return sshopm(problem, x0=x0, alpha=request.alpha, **common,
                      **opts), None
    if solver == "adaptive_sshopm":
        # the shift is derived each step (alpha is not passed), and
        # variant= names a fleet kernel
        opts.pop("variant", None)
        return adaptive_sshopm(problem, x0=x0, **common, **opts), None
    for key in _FLEET_ONLY_OPTS:
        opts.pop(key, None)
    if solver == "geap":
        def attempt(k):
            return geap(problem, x0=x0 if k == 0 else None, **common, **opts)
    else:
        opts.pop("mode", None)  # QRST has no spectrum-target switch
        if solver == "qrst_batch":
            return qrst_batch(problem, num_starts=count or 8, **common,
                              **opts), None

        def attempt(k):
            return qrst(problem, **common, **opts)
    policy = config.retry if config is not None else None
    if policy is None:
        return attempt(0), None
    from repro.resilience.retry import run_with_retry

    outcome = run_with_retry(attempt, policy, solver=solver, rng=rng)
    return outcome.result, outcome
