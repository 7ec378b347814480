"""SS-HOPM — the shifted symmetric higher-order power method (Figure 1).

Kolda & Mayo's generalization of the matrix power method to symmetric
tensor eigenpairs (Definition 3): iterate

    x_{k+1} = normalize( +-(A x_k^{m-1} + alpha x_k) ),
    lambda_{k+1} = A x_{k+1}^m,

with the sign chosen positive for ``alpha >= 0`` (convex case, converges to
attracting eigenpairs that include local *maxima* of ``f(x) = A x^m`` on the
sphere) and negative for ``alpha < 0`` (concave case, local minima).  A
sufficiently large ``|alpha|`` guarantees monotone convergence of the
``lambda_k`` sequence; ``alpha = 0`` recovers the unshifted S-HOPM of
De Lathauwer et al. / Kofidis & Regalia, which the paper uses for its MRI
test set.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SolveConfig, resolve_option
from repro.instrument import current_recorder, instrumented_pair
from repro.instrument import span as _span
from repro.instrument.metrics import observe_solver_run
from repro.instrument.telemetry import ConvergenceTelemetry, telemetry_enabled
from repro.kernels.dispatch import KernelPair, get_kernels
from repro.resilience.guards import IterationGuard, SolveFailure, resolve_guards
from repro.symtensor.storage import SymmetricTensor
from repro.util.flopcount import FlopCounter, null_counter
from repro.util.rng import random_unit_vector

__all__ = ["SSHOPMResult", "sshopm", "suggested_shift"]


@dataclass
class SSHOPMResult:
    """Outcome of one SS-HOPM run.

    Attributes
    ----------
    eigenvalue : final Rayleigh-like value ``lambda = A x^m``.
    eigenvector : final unit vector ``x``.
    converged : whether ``|lambda_{k+1} - lambda_k| < tol`` was reached.
    iterations : number of iterations performed.
    residual : ``|| A x^{m-1} - lambda x ||_2`` at the final iterate (the
        eigenpair equation defect; small iff (lambda, x) is an eigenpair).
    lambda_history : the full ``lambda_k`` sequence (including the value at
        the starting vector), useful for monotonicity checks.
    telemetry : bounded per-iteration convergence stream
        (:class:`~repro.instrument.telemetry.ConvergenceTelemetry`) when
        telemetry was enabled for the run, else ``None``.
    """

    eigenvalue: float
    eigenvector: np.ndarray
    converged: bool
    iterations: int
    residual: float
    lambda_history: list[float] = field(default_factory=list)
    telemetry: ConvergenceTelemetry | None = None

    def eigenpairs(
        self,
        tensor: SymmetricTensor | None = None,
        lambda_tol: float = 1e-5,
        angle_tol: float = 1e-2,
        classify: bool = False,
    ) -> list:
        """The run's eigenpair as a (zero- or one-element) list, matching
        the :class:`~repro.core.results.ResultProtocol` shape shared with
        the batch solvers.  Unconverged runs yield ``[]``; ``tensor`` is
        needed only for ``classify=True``.
        """
        from repro.core.eigenpairs import dedupe_eigenpairs

        if not self.converged:
            return []
        m = tensor.m if tensor is not None else 0
        return dedupe_eigenpairs(
            np.asarray([self.eigenvalue]),
            self.eigenvector[None, :],
            m,
            tensor=tensor if classify else None,
            lambda_tol=lambda_tol,
            angle_tol=angle_tol,
            classify=classify,
        )


def suggested_shift(tensor: SymmetricTensor) -> float:
    """A shift large enough to guarantee SS-HOPM convergence.

    Kolda & Mayo prove convergence whenever ``alpha > beta(A)`` where
    ``beta(A)`` bounds the largest eigenvalue magnitude of the Hessian of
    ``f(x) = A x^m`` on the unit sphere.  Since the Hessian at unit ``x`` is
    ``m (m-1) A x^{m-2}`` and ``||A x^{m-2}||_2 <= ||A||_F`` for unit ``x``,
    ``alpha = m (m-1) ||A||_F`` is a (conservative) sufficient choice.
    """
    m = tensor.m
    return float(m * (m - 1) * tensor.frobenius_norm())


def sshopm(
    tensor: SymmetricTensor,
    x0: np.ndarray | None = None,
    alpha: float | None = None,
    tol: float | None = None,
    max_iters: int | None = None,
    kernels: KernelPair | str | None = None,
    counter: FlopCounter | None = None,
    rng=None,
    config: SolveConfig | None = None,
    *,
    telemetry: bool | None = None,
    guards=None,
) -> SSHOPMResult:
    """Run SS-HOPM (Figure 1) from one starting vector.

    Parameters
    ----------
    tensor : symmetric tensor whose eigenpair is sought.
    x0 : starting vector (normalized internally); random if omitted.
    alpha : shift (default 0). ``>= 0`` seeks attracting pairs of the convex
        shifted function (local maxima for large alpha); ``< 0`` the concave
        case.
    tol : convergence threshold on ``|lambda_{k+1} - lambda_k|``
        (default ``1e-12``).
    max_iters : iteration cap (default 500); exceeding it returns
        ``converged=False``.
    kernels : a :class:`KernelPair` or variant name (default
        ``"precomputed"``); lets the benchmarks time the same driver over
        every kernel implementation.
    counter : optional flop counter threaded through the run.  When a
        recorder is active (see :mod:`repro.instrument`) kernel-model flops
        are folded into the same stream, so trace totals and counter totals
        agree.
    config : a :class:`~repro.core.config.SolveConfig` supplying defaults
        for any option not passed explicitly.
    telemetry : record the per-iteration convergence stream
        (``lambda``, residual, shift, step norm) on the result.  ``None``
        (the default) enables it exactly when a recorder is active, so the
        untraced hot path stays free of the extra per-iteration norms.
    guards : ``True`` or a :class:`~repro.resilience.guards.GuardConfig`
        raises a structured :class:`~repro.resilience.guards.SolveFailure`
        (carrying the last-good iterate, lambda history, and telemetry)
        on NaN/Inf, a collapsed update, lambda oscillation, or stalled
        progress, instead of the legacy freeze-and-return-unconverged
        behavior (default: off).

    Notes
    -----
    The fixed points for ``alpha >= 0`` satisfy
    ``A x^{m-1} + alpha x = (lambda + alpha) x``, i.e. they are exactly the
    eigenpairs of ``A`` (the shift moves the spectrum, not the eigenvectors).
    A zero iterate ``A x^{m-1} + alpha x = 0`` (possible for small shifts,
    e.g. alpha=0 with x in the kernel of the map) terminates the run
    unconverged at the current iterate.
    """
    alpha = resolve_option("alpha", alpha, config, 0.0)
    tol = resolve_option("tol", tol, config, 1e-12)
    max_iters = resolve_option("max_iters", max_iters, config, 500)
    kernels = resolve_option("kernels", kernels, config, None)
    rng = resolve_option("rng", rng, config, None)
    guards = resolve_guards(resolve_option("guards", guards, config, None))

    recorder = current_recorder()
    counter = counter or null_counter()
    if recorder is not None:
        counter = recorder.flop_counter(mirror=counter)
    if isinstance(kernels, str) or kernels is None:
        kernels = get_kernels(kernels or "precomputed", tensor.m, tensor.n)
    if recorder is not None:
        kernels = instrumented_pair(kernels, counter=counter)
    tel = None
    if telemetry_enabled(telemetry, recorder):
        tel = ConvergenceTelemetry(
            "sshopm",
            meta={"m": tensor.m, "n": tensor.n, "alpha": alpha, "tol": tol},
        )
    if x0 is None:
        x0 = random_unit_vector(tensor.n, rng=rng)
    x = np.asarray(x0, dtype=np.float64)
    if x.shape != (tensor.n,):
        raise ValueError(f"x0 has shape {x.shape}, expected ({tensor.n},)")
    norm = np.linalg.norm(x)
    if norm == 0:
        raise ValueError("starting vector must be nonzero")
    x = x / norm

    guard = None
    if guards is not None:
        guard = IterationGuard(guards, solver="sshopm", tol=tol)

    t0 = time.perf_counter()
    try:
        with _span("sshopm"):
            lam = float(kernels.ax_m(tensor, x))
            history = [lam]
            if guard is not None:
                guard.note_start(lam, x)
            converged = False
            iterations = 0
            for _ in range(max_iters):
                with _span("iteration"):
                    iterations += 1
                    y = np.asarray(kernels.ax_m1(tensor, x))
                    x_new = y + alpha * x
                    if alpha < 0:
                        x_new = -x_new
                    counter.add_flops(2 * tensor.n)
                    norm = np.linalg.norm(x_new)
                    counter.add_flops(2 * tensor.n + 1)
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
        # structured abort: hand the telemetry stream to the failure and
        # still account the (failed) run in the metrics registry
        failure.telemetry = tel
        if tel is not None and recorder is not None:
            recorder.add_telemetry(tel)
        observe_solver_run("sshopm", time.perf_counter() - t0,
                           failure.iteration, 0, 1)
        raise
    if tel is not None:
        tel.append(iterations, lam, residual=residual, shift=alpha,
                   active=0 if converged else 1, force=True)
        if recorder is not None:
            recorder.add_telemetry(tel)
    observe_solver_run("sshopm", time.perf_counter() - t0, iterations,
                       int(converged), 1)
    return SSHOPMResult(
        eigenvalue=lam,
        eigenvector=x,
        converged=converged,
        iterations=iterations,
        residual=residual,
        lambda_history=history,
        telemetry=tel,
    )
