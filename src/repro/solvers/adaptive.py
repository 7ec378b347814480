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

import numpy as np

from repro.core.config import SolveConfig
from repro.core.eigenpairs import hessian_matrix
from repro.instrument import span as _span
from repro.kernels.dispatch import KernelPair
from repro.solvers.scaffold import prepare, start_vector
from repro.solvers.sshopm import SSHOPMResult, _shifted_power_loop
from repro.symtensor.storage import SymmetricTensor

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
    run = prepare(
        "adaptive_sshopm", tensor, tol=tol, max_iters=max_iters,
        kernels=kernels, rng=rng, config=config, telemetry=telemetry,
        guards=guards, tel_meta={"mode": mode, "tau": tau},
    )
    x = start_vector(x0, tensor.n, run.rng)

    def full_hessian_shift(x):
        with _span("hessian_shift"):
            H = hessian_matrix(tensor, x)  # (m-1) * A x^{m-2}
            try:
                evals = np.linalg.eigvalsh(0.5 * (H + H.T))
            except np.linalg.LinAlgError:  # a non-finite Hessian
                return float("nan")
            if mode == "max":
                return max(0.0, tau - float(evals[0]))
            return min(0.0, -(tau + float(evals[-1])))

    return _shifted_power_loop(run, x, full_hessian_shift,
                               negate=mode == "min")
