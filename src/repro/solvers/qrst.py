"""QRST — a QR algorithm for symmetric tensors, with deflation.

Batselier & Wong's QRST (arXiv:1411.1926) transplants the shifted
matrix-QR iteration to symmetric tensors.  One sweep on the dense tensor
``S`` (order ``m``, dimension ``k``):

1. take the matrix slice ``C[i, j] = S[i, j, k-1, ..., k-1]`` (all
   trailing indices pinned to the last coordinate — the tensor analogue
   of the trailing 2x2 block the matrix algorithm watches),
2. shift by the Rayleigh-quotient corner ``mu = C[-1, -1]`` and factor
   ``Q R = C - mu I``,
3. apply the orthogonal similarity to **every** mode:
   ``S <- S x_1 Q^T x_2 Q^T ... x_m Q^T``, accumulating ``V <- V Q``.

``f(x) = S x^m`` and eigenpair residuals are invariant under such
orthogonal multilinear changes of basis, and for ``m = 2`` the sweep *is*
shifted symmetric QR.  When the fiber ``S[:, k-1, ..., k-1]`` collapses
onto ``e_last`` the pair ``(S[k-1, ..., k-1], V[:, k-1])`` is an
eigenpair of the original tensor; the last coordinate is then deflated
(``S <- S[:-1, ..., :-1]``) and the iteration continues on the smaller
tensor.  Unlike the matrix case tensor deflation is only approximate —
discarded fibers need not be exactly zero — so every recorded pair is
polished against the *original* tensor with
:func:`~repro.core.refine.newton_refine` and flagged converged only when
its true residual passes ``tol``.

QRST is deterministic given the tensor (no starting vectors); the
optional ``rng`` is used only to rotate out of the rare stalled sweep.
It runs on the dense tensor, so it is gated to small ``n**m`` (see
``max_dense``) — exactly the regime where one run recovering several
eigenpairs beats a multistart sweep.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.core.config import SolveConfig
from repro.core.refine import newton_refine
from repro.instrument import span as _span
from repro.kernels.dispatch import KernelPair
from repro.resilience.guards import SolveFailure
from repro.solvers.scaffold import prepare
from repro.symtensor.storage import SymmetricTensor, SymmetricTensorBatch

__all__ = ["QRST_DENSE_LIMIT", "QRSTResult", "qrst", "qrst_batch"]

#: Default ceiling on ``n**m`` (dense entry count) for one QRST run; the
#: sweep is O(n^{m+1}) per iteration on the dense array, so past this the
#: fleet solvers win anyway.
QRST_DENSE_LIMIT = 1 << 18


@dataclass
class QRSTResult:
    """Outcome of one QRST run: the deflation sequence's eigenpairs.

    Attributes
    ----------
    eigenvalues : ``(k,)`` recovered eigenvalues, in deflation order.
    eigenvectors : ``(k, n)`` matching unit eigenvectors (rows).
    converged : ``(k,)`` bool — pairs whose Newton-polished residual
        against the original tensor passed the tolerance.  Approximate
        deflation can leave a level's candidate short of a true
        eigenpair; it is still reported, flagged unconverged.
    residuals : ``(k,)`` final ``||A x^{m-1} - lambda x||`` per pair.
    iterations : total QR sweeps across all deflation levels.
    sweeps_per_level : sweeps spent at each level, outermost first.
    stopped : the run was cancelled through ``stop=`` before all levels
        deflated (the arrays hold the pairs recovered so far).
    telemetry : per-sweep convergence stream, or ``None``.
    tensor : the solved tensor (kept so :meth:`eigenpairs` can classify
        and dedupe without re-threading it).
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    converged: np.ndarray
    residuals: np.ndarray
    iterations: int
    sweeps_per_level: list[int]
    stopped: bool = False
    telemetry: Any = None
    tensor: Any = field(default=None, repr=False)

    def eigenpairs(
        self,
        tensor: SymmetricTensor | None = None,
        lambda_tol: float = 1e-6,
        angle_tol: float = 1e-4,
        classify: bool = False,
    ) -> list:
        """Converged pairs as deduplicated
        :class:`~repro.core.eigenpairs.Eigenpair` objects (the
        :class:`~repro.core.results.ResultProtocol` shape)."""
        from repro.core.eigenpairs import dedupe_eigenpairs

        tensor = tensor if tensor is not None else self.tensor
        m = tensor.m if tensor is not None else 0
        return dedupe_eigenpairs(
            self.eigenvalues,
            self.eigenvectors,
            m,
            tensor=tensor,
            lambda_tol=lambda_tol,
            angle_tol=angle_tol,
            classify=classify,
            converged_mask=self.converged,
        )


def _rotate_all_modes(S: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """``S x_1 Q^T x_2 Q^T ... x_m Q^T`` — each tensordot consumes axis 0
    and appends the rotated mode at the end, so ``m`` applications
    restore the original axis order."""
    for _ in range(S.ndim):
        S = np.tensordot(S, Q, axes=([0], [0]))
    return S


def _last_fiber(S: np.ndarray) -> np.ndarray:
    """The fiber ``S[:, k-1, ..., k-1]`` the convergence test watches."""
    k = S.shape[0]
    return S[(slice(None),) + (k - 1,) * (S.ndim - 1)]


def _corner_slice(S: np.ndarray) -> np.ndarray:
    """The matrix slice ``C[i, j] = S[i, j, k-1, ..., k-1]``."""
    k = S.shape[0]
    return np.array(S[(slice(None), slice(None)) + (k - 1,) * (S.ndim - 2)])


def qrst(
    tensor: SymmetricTensor,
    tol: float | None = None,
    max_iters: int | None = None,
    kernels: KernelPair | str | None = None,
    rng=None,
    config: SolveConfig | None = None,
    *,
    telemetry: bool | None = None,
    guards=None,
    stop=None,
    max_pairs: int | None = None,
    max_dense: int = QRST_DENSE_LIMIT,
    stall_window: int = 25,
) -> QRSTResult:
    """Run QRST with deflation on one symmetric tensor.

    Parameters
    ----------
    tensor : symmetric tensor; its dense form (``n**m`` entries) must fit
        under ``max_dense`` or :class:`ValueError` is raised.
    tol : acceptance tolerance on each pair's polished residual against
        the original tensor (default ``1e-12``); the per-level sweep
        test uses the same scale on the watched fiber.
    max_iters : QR sweep budget **per deflation level** (default 500).
    max_pairs : stop after recovering this many pairs (default: all
        ``n`` deflation levels).
    stall_window : sweeps without progress on the watched fiber before a
        seeded random rotation restarts the level (``rng`` drives it).
    stop : zero-argument cancellation hook polled once per sweep; a
        truthy value returns the pairs recovered so far
        (``stopped=True``).
    guards : when armed (``True``/GuardConfig), a nonfinite sweep raises
        a structured :class:`~repro.resilience.guards.SolveFailure`
        with ``reason="nonfinite"`` instead of returning garbage.
    Other parameters as in :func:`repro.solvers.sshopm.sshopm`.
    """
    if tensor.n ** tensor.m > max_dense:
        raise ValueError(
            f"qrst works on the dense tensor: n**m = {tensor.n ** tensor.m} "
            f"exceeds max_dense={max_dense}; use method='sshopm' for large "
            "problems"
        )
    run = prepare(
        "qrst", tensor, tol=tol, max_iters=max_iters, kernels=kernels,
        rng=rng, config=config, telemetry=telemetry, guards=guards,
        tel_meta={"deflation": True},
    )
    tel = run.telemetry
    rng = run.rng if isinstance(run.rng, np.random.Generator) \
        else np.random.default_rng(run.rng)

    n, m = tensor.n, tensor.m
    levels = n if max_pairs is None else min(n, int(max_pairs))
    # sweep-level convergence only needs to bring the candidate inside
    # Newton's basin; the polish below supplies the final accuracy.
    sweep_tol = max(run.tol, 1e-10) * max(1.0, tensor.frobenius_norm())

    eigenvalues: list[float] = []
    eigenvectors: list[np.ndarray] = []
    converged: list[bool] = []
    residuals: list[float] = []
    sweeps_per_level: list[int] = []
    total_sweeps = 0
    stopped = False

    try:
        with _span("qrst"):
            S = tensor.to_dense().astype(np.float64, copy=True)
            V = np.eye(n)
            while S.shape[0] > 1 and len(eigenvalues) < levels:
                k = S.shape[0]
                level_sweeps = 0
                best = np.inf
                since_best = 0
                level_converged = False
                while level_sweeps < run.max_iters:
                    if stop is not None and stop():
                        stopped = True
                        break
                    with _span("sweep"):
                        level_sweeps += 1
                        total_sweeps += 1
                        C = _corner_slice(S)
                        C = 0.5 * (C + C.T)
                        mu = float(C[-1, -1])
                        if not np.isfinite(C).all():
                            if run.guard is not None:
                                raise SolveFailure(
                                    "nonfinite",
                                    solver="qrst",
                                    iteration=total_sweeps,
                                    last_lambda=mu,
                                )
                            break
                        Q, _ = np.linalg.qr(C - mu * np.eye(k))
                        S = _rotate_all_modes(S, Q)
                        V[:, :k] = V[:, :k] @ Q
                        fiber = _last_fiber(S)
                        lam = float(fiber[-1])
                        off = float(np.linalg.norm(fiber[:-1]))
                        if tel is not None:
                            tel.append(total_sweeps, lam, residual=off,
                                       active=k)
                        if off < best - 1e-15:
                            best = off
                            since_best = 0
                        else:
                            since_best += 1
                        if off < sweep_tol:
                            level_converged = True
                            break
                        if since_best >= stall_window:
                            # rotate out of the stall with a seeded
                            # random orthogonal basis change
                            Qr, _ = np.linalg.qr(rng.standard_normal((k, k)))
                            S = _rotate_all_modes(S, Qr)
                            V[:, :k] = V[:, :k] @ Qr
                            best = np.inf
                            since_best = 0
                sweeps_per_level.append(level_sweeps)
                if stopped:
                    break
                if not np.isfinite(S).all():
                    break
                # record + polish the level's candidate against the
                # ORIGINAL tensor — deflation error stops here
                lam = float(_last_fiber(S)[-1])
                vec = V[:, k - 1]
                polished = newton_refine(tensor, lam, vec,
                                         tol=max(run.tol, 1e-13))
                ok = bool(polished.converged and level_converged)
                eigenvalues.append(polished.eigenvalue if ok else lam)
                eigenvectors.append(
                    polished.eigenvector if ok else vec / np.linalg.norm(vec))
                converged.append(ok)
                residuals.append(
                    polished.residual if ok else
                    float(np.linalg.norm(
                        np.asarray(run.kernels.ax_m1(tensor, vec)) - lam * vec)))
                S = S[(slice(0, k - 1),) * m]
                if S.shape[0] == 1 and len(eigenvalues) < levels:
                    # the last level is a scalar: its pair is immediate
                    lam = float(S.reshape(-1)[0])
                    vec = V[:, 0]
                    polished = newton_refine(tensor, lam, vec,
                                             tol=max(run.tol, 1e-13))
                    ok = bool(polished.converged)
                    eigenvalues.append(polished.eigenvalue if ok else lam)
                    eigenvectors.append(
                        polished.eigenvector if ok
                        else vec / np.linalg.norm(vec))
                    converged.append(ok)
                    residuals.append(
                        polished.residual if ok else
                        float(np.linalg.norm(
                            np.asarray(run.kernels.ax_m1(tensor, vec))
                            - lam * vec)))
    except SolveFailure as failure:
        run.record_failure(failure)
        raise

    eigenvalues_arr = np.asarray(eigenvalues, dtype=np.float64)
    eigenvectors_arr = (
        np.asarray(eigenvectors, dtype=np.float64)
        if eigenvectors else np.empty((0, n))
    )
    converged_arr = np.asarray(converged, dtype=bool)
    residuals_arr = np.asarray(residuals, dtype=np.float64)
    any_lam = float(eigenvalues_arr[0]) if eigenvalues else float("nan")
    run.finish(
        iterations=total_sweeps,
        converged=bool(len(converged) > 0 and converged_arr.all()
                       and not stopped),
        lam=any_lam,
        residual=float(residuals_arr.min()) if residuals else float("nan"),
    )
    return QRSTResult(
        eigenvalues=eigenvalues_arr,
        eigenvectors=eigenvectors_arr,
        converged=converged_arr,
        residuals=residuals_arr,
        iterations=total_sweeps,
        sweeps_per_level=sweeps_per_level,
        stopped=stopped,
        telemetry=run.telemetry,
        tensor=tensor,
    )


def qrst_batch(
    batch: SymmetricTensorBatch,
    num_starts: int = 8,
    tol: float | None = None,
    max_iters: int | None = None,
    rng=None,
    config: SolveConfig | None = None,
    *,
    telemetry: bool | None = None,
    guards=None,
    stop=None,
    faults=None,
    max_dense: int = QRST_DENSE_LIMIT,
):
    """Run QRST per tensor over a batch, shaped like a fleet solve.

    Returns a :class:`~repro.core.results.FleetResult` whose ``(T, V)``
    lane grid holds each tensor's recovered pairs in its first slots
    (``V = num_starts``; QRST is deterministic, so ``num_starts`` only
    sizes the grid) — unfilled slots are NaN/unconverged, matching the
    placeholder convention of the serve row merger.

    ``faults`` accepts a :class:`~repro.resilience.faults.FaultPlan`
    keyed by **tensor index**: ``on_task_start`` crash budgets and
    ``tensor_for`` corruption apply per tensor; a tensor whose run dies
    (:class:`~repro.resilience.faults.InjectedWorkerCrash` or a guard
    :class:`~repro.resilience.guards.SolveFailure`) is marked failed in
    every slot while the rest of the batch proceeds.
    """
    from repro.core.results import FleetResult
    from repro.resilience.faults import InjectedFault

    T, V, n = len(batch), int(num_starts), batch.n
    eigenvalues = np.full((T, V), np.nan)
    eigenvectors = np.full((T, V, n), np.nan)
    converged = np.zeros((T, V), dtype=bool)
    iterations = np.zeros((T, V), dtype=np.int64)
    failed = np.zeros((T, V), dtype=bool)
    total_sweeps = 0
    stopped = False

    for t in range(T):
        if stopped or (stop is not None and stop()):
            stopped = True
            break
        tensor = batch[t]
        try:
            if faults is not None:
                faults.on_task_start(t)
                tensor = faults.tensor_for(t, tensor)
            result = qrst(
                tensor, tol=tol, max_iters=max_iters, rng=rng,
                config=config, telemetry=telemetry, guards=guards,
                stop=stop, max_pairs=V, max_dense=max_dense,
            )
        except (InjectedFault, SolveFailure):
            failed[t, :] = True
            continue
        total_sweeps = max(total_sweeps, result.iterations)
        stopped = stopped or result.stopped
        k = min(len(result.eigenvalues), V)
        eigenvalues[t, :k] = result.eigenvalues[:k]
        eigenvectors[t, :k] = result.eigenvectors[:k]
        converged[t, :k] = result.converged[:k]
        iterations[t, :k] = result.iterations

    return FleetResult(
        eigenvalues=eigenvalues,
        eigenvectors=eigenvectors,
        converged=converged,
        iterations=iterations,
        sweeps=total_sweeps,
        failed=failed,
        shifts=None,
        telemetry=None,
        variant="qrst",
        stopped=stopped,
        tensors=batch,
    )
