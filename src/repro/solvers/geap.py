"""GEAP — the generalized eigenproblem adaptive power method.

Kolda & Mayo's adaptive-shift method (the line of work behind
arXiv:1007.1267), here with the shift chosen from the **projected**
Hessian each iteration.  The convexity condition that makes an SS-HOPM
step an ascent only involves the Hessian restricted to the tangent space
of the unit sphere at the iterate, so with ``C(x) = (m-1) A x^{m-2}``
and ``P = I - x x^T`` the smallest sufficient shift is

    alpha_k = max(0, tau - lambda_min(P C(x_k) P |_tangent))    (maxima)
    alpha_k = min(0, -(tau + lambda_max(P C(x_k) P |_tangent))) (minima)

The tangent-restricted eigenvalues interlace the full-space ones, so
this shift is never larger than the full-Hessian rule used by
:func:`~repro.solvers.adaptive.adaptive_sshopm` — smaller shifts mean a
larger effective step and faster convergence, while the monotonicity of
``lambda_k`` (nondecreasing for ``mode="max"``, nonincreasing for
``"min"``) is preserved.  ``mode="min"`` is the concave case: it reaches
the local *minima* of ``f(x) = A x^m`` that no convex (``alpha >= 0``)
SS-HOPM run converges to.
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

__all__ = ["geap", "projected_shift", "tangent_hessian_eigenvalues"]


def tangent_hessian_eigenvalues(tensor: SymmetricTensor, x: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of ``C(x) = (m-1) A x^{m-2}`` restricted to
    the tangent space of the unit sphere at ``x``.

    The ``n = 1`` sphere has an empty tangent space; returns an empty
    array there (any shift works).
    """
    x = np.asarray(x, dtype=np.float64)
    if tensor.n == 1:
        return np.empty(0)
    H = hessian_matrix(tensor, x)
    # orthonormal tangent basis: left singular vectors of x beyond the first
    u, _, _ = np.linalg.svd(x.reshape(-1, 1), full_matrices=True)
    tangent = u[:, 1:]
    restricted = tangent.T @ H @ tangent
    restricted = 0.5 * (restricted + restricted.T)
    return np.linalg.eigvalsh(restricted)


def projected_shift(tensor: SymmetricTensor, x: np.ndarray, tau: float,
                    mode: str = "max") -> float:
    """The GEAP shift at iterate ``x`` (see the module docstring)."""
    evals = tangent_hessian_eigenvalues(tensor, x)
    if evals.size == 0:
        return 0.0
    if not np.all(np.isfinite(evals)):
        return float("nan")
    if mode == "max":
        return max(0.0, tau - float(evals[0]))
    return min(0.0, -(tau + float(evals[-1])))


def geap(
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
    stop=None,
) -> SSHOPMResult:
    """Run GEAP (projected-Hessian adaptive shift) from one start.

    Parameters
    ----------
    tensor : symmetric tensor whose eigenpair is sought.
    tau : convexity margin enforced on the shifted tangent Hessian.
    mode : ``"max"`` seeks local maxima of ``f(x) = A x^m`` (convex
        shifts ``>= 0``), ``"min"`` local minima (concave shifts
        ``<= 0`` — eigenpairs SS-HOPM's convex iteration cannot reach).
    stop : optional zero-argument callable polled once per iteration;
        when truthy the run returns immediately with its current state
        (``converged=False``) — the cancellation hook ``deadline=`` and
        the serve drain ride on.
    Other parameters as in :func:`repro.solvers.sshopm.sshopm`
    (``tol`` default ``1e-12``, ``max_iters`` default 500; ``guards``
    raises a structured :class:`~repro.resilience.guards.SolveFailure`).

    Returns an :class:`~repro.solvers.sshopm.SSHOPMResult`;
    ``lambda_history`` is monotone (up to floating-point noise) in the
    requested direction.
    """
    if mode not in ("max", "min"):
        raise ValueError(f"mode must be 'max' or 'min', got {mode!r}")
    run = prepare(
        "geap", tensor, tol=tol, max_iters=max_iters, kernels=kernels,
        rng=rng, config=config, telemetry=telemetry, guards=guards,
        tel_meta={"mode": mode, "tau": tau},
    )
    x = start_vector(x0, tensor.n, run.rng)

    def shift_at(x):
        with _span("projected_shift"):
            return projected_shift(tensor, x, tau, mode)

    return _shifted_power_loop(run, x, shift_at, negate=mode == "min",
                               stop=stop)
