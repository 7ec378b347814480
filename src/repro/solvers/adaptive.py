"""Adaptive-shift SS-HOPM (GEAP-style), an extension beyond the paper.

The paper notes "there are still many open problems regarding ... choice of
shift"; Kolda & Mayo's follow-up work (GEAP) resolves the practical side by
choosing the shift *per iteration* from the Hessian at the current iterate.

Derivation of the rule used here: with the shifted function
``f_hat(x) = A x^m + alpha (x.x)^{m/2}``, the Hessian restricted to the
tangent space of the unit sphere at ``x`` is
``m [(m-1) A x^{m-2} + alpha I]``, so local convexity needs
``alpha >= -lambda_min(C(x))`` with ``C(x) = (m-1) A x^{m-2}``.  We take

    alpha_k = max(0, tau - lambda_min(C(x_k)))            (maxima)
    alpha_k = min(0, -(tau + lambda_max(C(x_k))))         (minima)

— the smallest shift (plus margin ``tau``) keeping the step an ascent
(descent), much smaller than the global conservative bound, so convergence
is faster (the paper's Section V-A notes exactly this tradeoff between
convergence guarantees and time-to-completion).
"""

from __future__ import annotations

import time

import numpy as np

from repro.core.config import SolveConfig, resolve_option
from repro.core.eigenpairs import hessian_matrix
from repro.solvers.sshopm import SSHOPMResult
from repro.instrument import current_recorder, instrumented_pair
from repro.instrument import span as _span
from repro.instrument.metrics import observe_solver_run
from repro.instrument.telemetry import ConvergenceTelemetry, telemetry_enabled
from repro.kernels.dispatch import KernelPair, get_kernels
from repro.resilience.guards import IterationGuard, SolveFailure, resolve_guards
from repro.symtensor.storage import SymmetricTensor
from repro.util.rng import random_unit_vector

__all__ = ["adaptive_sshopm"]


def adaptive_sshopm(
    tensor: SymmetricTensor,
    x0: np.ndarray | None = None,
    tau: float = 1e-6,
    mode: str = "max",
    tol: float | None = None,
    max_iters: int | None = None,
    kernels: KernelPair | str | None = None,
    rng=None,
    config: SolveConfig | None = None,
    *,
    telemetry: bool | None = None,
    guards=None,
) -> SSHOPMResult:
    """SS-HOPM with the GEAP adaptive shift.

    Parameters
    ----------
    tensor : symmetric tensor (order >= 2... order >= 3 for a nontrivial
        Hessian; m = 2 degenerates to the shifted matrix power method).
    tau : convexity margin (smallest enforced definiteness of the shifted
        Hessian); Kolda & Mayo suggest a small positive constant.
    mode : ``"max"`` seeks local maxima of ``f`` (convex shifts),
        ``"min"`` local minima (concave shifts).
    guards : ``True`` or a :class:`~repro.resilience.guards.GuardConfig`
        raises a structured :class:`~repro.resilience.guards.SolveFailure`
        on NaN/Inf, collapse, oscillation, or stall, as in
        :func:`repro.solvers.sshopm.sshopm` (default: off).
    config : optional :class:`~repro.core.config.SolveConfig`; its
        ``alpha`` field is ignored (the shift is derived per step).
    Other parameters as in :func:`repro.solvers.sshopm.sshopm`
    (``tol`` default ``1e-12``, ``max_iters`` default 500).

    Returns an :class:`SSHOPMResult`; its ``lambda_history`` is monotone
    nondecreasing for ``mode="max"`` (nonincreasing for ``"min"``) up to
    floating-point noise — a property the tests assert.
    """
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    tol = resolve_option("tol", tol, config, 1e-12)
    max_iters = resolve_option("max_iters", max_iters, config, 500)
    kernels = resolve_option("kernels", kernels, config, None)
    rng = resolve_option("rng", rng, config, None)
    guards = resolve_guards(resolve_option("guards", guards, config, None))

    recorder = current_recorder()
    if isinstance(kernels, str) or kernels is None:
        kernels = get_kernels(kernels or "precomputed", tensor.m, tensor.n)
    if recorder is not None:
        kernels = instrumented_pair(kernels, counter=recorder.flop_counter())
    tel = None
    if telemetry_enabled(telemetry, recorder):
        tel = ConvergenceTelemetry(
            "adaptive_sshopm",
            meta={"m": tensor.m, "n": tensor.n, "mode": mode, "tau": tau,
                  "tol": tol},
        )
    m, n = tensor.m, tensor.n
    if x0 is None:
        x0 = random_unit_vector(n, rng=rng)
    x = np.asarray(x0, dtype=np.float64)
    norm = np.linalg.norm(x)
    if norm == 0:
        raise ValueError("starting vector must be nonzero")
    x = x / norm

    guard = None
    if guards is not None:
        guard = IterationGuard(guards, solver="adaptive_sshopm", tol=tol)

    t0 = time.perf_counter()
    try:
        with _span("adaptive_sshopm"):
            lam = float(kernels.ax_m(tensor, x))
            history = [lam]
            if guard is not None:
                guard.note_start(lam, x)
            converged = False
            iterations = 0
            for _ in range(max_iters):
                with _span("iteration"):
                    iterations += 1
                    with _span("hessian_shift"):
                        H = hessian_matrix(tensor, x)  # (m-1) * A x^{m-2}
                        if guard is not None and not np.all(np.isfinite(H)):
                            # eigvalsh would die with an opaque LinAlgError
                            guard.check(iterations, float("nan"), x)
                        evals = np.linalg.eigvalsh(0.5 * (H + H.T))
                    y = np.asarray(kernels.ax_m1(tensor, x))
                    if mode == "max":
                        alpha = max(0.0, tau - float(evals[0]))
                        x_new = y + alpha * x
                    else:
                        alpha = min(0.0, -(tau + float(evals[-1])))
                        x_new = -(y + alpha * x)
                    norm = np.linalg.norm(x_new)
                    if guard is not None:
                        guard.check_update(iterations, float(norm))
                    if norm == 0.0 or not np.isfinite(norm):
                        break
                    x_prev = x
                    x = x_new / norm
                    lam_new = float(kernels.ax_m(tensor, x))
                    history.append(lam_new)
                    if tel is not None:
                        tel.append(
                            iterations, lam_new,
                            residual=float(np.linalg.norm(y - lam * x_prev)),
                            shift=alpha,
                            step_norm=float(np.linalg.norm(x - x_prev)),
                        )
                    if guard is not None:
                        guard.check(iterations, lam_new, x)
                    if abs(lam_new - lam) < tol:
                        lam = lam_new
                        converged = True
                        break
                    lam = lam_new

            residual = float(np.linalg.norm(np.asarray(kernels.ax_m1(tensor, x)) - lam * x))
    except SolveFailure as failure:
        failure.telemetry = tel
        if tel is not None and recorder is not None:
            recorder.add_telemetry(tel)
        observe_solver_run("adaptive_sshopm", time.perf_counter() - t0,
                           failure.iteration, 0, 1)
        raise
    if tel is not None:
        tel.append(iterations, lam, residual=residual,
                   active=0 if converged else 1, force=True)
        if recorder is not None:
            recorder.add_telemetry(tel)
    observe_solver_run("adaptive_sshopm", time.perf_counter() - t0,
                       iterations, int(converged), 1)
    return SSHOPMResult(
        eigenvalue=lam,
        eigenvector=x,
        converged=converged,
        iterations=iterations,
        residual=residual,
        lambda_history=history,
        telemetry=tel,
    )
