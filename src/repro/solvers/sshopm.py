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
test set.  The adaptive-shift solvers (``adaptive_sshopm``, ``geap``) run
this same loop with ``alpha`` chosen afresh each iteration.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from repro.core.config import SolveConfig, resolve_option
from repro.instrument import span as _span
from repro.instrument.telemetry import ConvergenceTelemetry
from repro.kernels.dispatch import KernelPair
from repro.resilience.guards import SolveFailure
from repro.solvers.scaffold import SolverScaffold, prepare, start_vector
from repro.symtensor.storage import SymmetricTensor
from repro.util.flopcount import FlopCounter

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
    tensor : the solved tensor (kept so :meth:`eigenpairs` knows the
        order's sign symmetry and can classify without re-threading it).
    """

    eigenvalue: float
    eigenvector: np.ndarray
    converged: bool
    iterations: int
    residual: float
    lambda_history: list[float] = field(default_factory=list)
    telemetry: ConvergenceTelemetry | None = None
    tensor: SymmetricTensor | None = field(default=None, repr=False)

    def eigenpairs(
        self,
        tensor: SymmetricTensor | None = None,
        lambda_tol: float = 1e-5,
        angle_tol: float = 1e-2,
        classify: bool = False,
    ) -> list:
        """The run's eigenpair as a (zero- or one-element) list, matching
        the :class:`~repro.core.results.ResultProtocol` shape shared with
        the batch solvers.  Unconverged runs yield ``[]``; ``tensor``
        defaults to the solved one.
        """
        from repro.core.eigenpairs import dedupe_eigenpairs

        if not self.converged:
            return []
        tensor = tensor if tensor is not None else self.tensor
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
    counter : optional flop counter threaded through the run.  It is
        charged the kernels' cost model (flops, loads, stores) and the
        update's flops, traced or not; when a recorder is active (see
        :mod:`repro.instrument`) the same charges land on the trace, so
        trace totals and counter totals agree.
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
    run = prepare(
        "sshopm", tensor, tol=tol, max_iters=max_iters, kernels=kernels,
        rng=rng, config=config, telemetry=telemetry, guards=guards,
        tel_meta={"alpha": alpha}, counter=counter,
    )
    x = start_vector(x0, tensor.n, run.rng)
    return _shifted_power_loop(run, x, lambda _: alpha, negate=alpha < 0)


def _shifted_power_loop(
    run: SolverScaffold,
    x: np.ndarray,
    shift_at: Callable[[np.ndarray], float],
    *,
    negate: bool,
    stop: Callable[[], bool] | None = None,
) -> SSHOPMResult:
    """Figure 1's iteration from the unit start ``x``: the one loop behind
    :func:`sshopm`, :func:`~repro.solvers.adaptive.adaptive_sshopm` and
    :func:`~repro.solvers.geap.geap`, which differ only in ``shift_at``.

    Each iteration takes ``alpha_k = shift_at(x_k)``, forms
    ``x_{k+1} = normalize(+-(A x_k^{m-1} + alpha_k x_k))`` (negated when
    ``negate``) and ``lambda_{k+1} = A x_{k+1}^m``, and stops once
    ``|lambda_{k+1} - lambda_k| < tol``.  ``run`` (from
    :func:`~repro.solvers.scaffold.prepare`) supplies the kernels, flop
    counter, telemetry stream and guard.  A non-finite shift trips an
    armed guard as a non-finite step; unguarded, it leaves a non-finite
    update that ends the run unconverged.  ``stop`` is polled before each
    iteration; a truthy value returns the current state unconverged.
    """
    tensor, kernels, counter = run.tensor, run.kernels, run.counter
    tel, guard = run.telemetry, run.guard
    update_flops = 4 * tensor.n + 1  # 2n for y + alpha x, 2n + 1 for its norm
    alpha = 0.0
    try:
        with _span(run.solver):
            lam = float(kernels.ax_m(tensor, x))
            history = [lam]
            if guard is not None:
                guard.note_start(lam, x)
            converged = False
            iterations = 0
            for _ in range(run.max_iters):
                if stop is not None and stop():
                    break
                with _span("iteration"):
                    iterations += 1
                    alpha = shift_at(x)
                    if guard is not None and not np.isfinite(alpha):
                        guard.check(iterations, float("nan"), x)
                    y = np.asarray(kernels.ax_m1(tensor, x))
                    x_new = y + alpha * x
                    if negate:
                        x_new = -x_new
                    norm = np.linalg.norm(x_new)
                    counter.add_flops(update_flops)
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
                    if abs(lam_new - lam) < run.tol:
                        lam = lam_new
                        converged = True
                        break
                    lam = lam_new

            residual = float(np.linalg.norm(
                np.asarray(kernels.ax_m1(tensor, x)) - lam * x))
    except SolveFailure as failure:
        run.record_failure(failure)
        raise
    run.finish(iterations=iterations, converged=converged, lam=lam,
               residual=residual, shift=alpha)
    return SSHOPMResult(
        eigenvalue=lam,
        eigenvector=x,
        converged=converged,
        iterations=iterations,
        residual=residual,
        lambda_history=history,
        telemetry=tel,
        tensor=tensor,
    )
