"""Tensor eigenpair utilities: residuals, sign canonicalization,
deduplication of multistart results, and stability classification.

SS-HOPM converges to different eigenpairs from different starting vectors
(unlike the matrix power method); a multistart run therefore yields a
multiset of (lambda, x) pairs that must be clustered into distinct
eigenpairs, and — for the MRI application — filtered to the *local maxima*
of ``f(x) = A x^m`` on the sphere, which are the eigenpairs with negative
definite projected Hessian.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kernels.compressed import ax_m1_compressed, ax_m_compressed, ttsv_compressed
from repro.symtensor.storage import SymmetricTensor

__all__ = [
    "Eigenpair",
    "eigen_residual",
    "canonicalize_sign",
    "hessian_matrix",
    "projected_hessian_eigenvalues",
    "classify_eigenpair",
    "dedupe_eigenpairs",
]


@dataclass
class Eigenpair:
    """A (deduplicated) real eigenpair of a symmetric tensor.

    Attributes
    ----------
    eigenvalue, eigenvector : the pair ``(lambda, x)``, ``||x|| = 1``.
    occurrences : how many multistart runs converged to this pair (a proxy
        for the size of its basin of attraction).
    residual : ``||A x^{m-1} - lambda x||``.
    stability : ``"pos_stable"`` (local max of f), ``"neg_stable"``
        (local min), ``"unstable"`` (saddle), or ``"degenerate"``
        (projected Hessian singular to tolerance); empty if unclassified.
    """

    eigenvalue: float
    eigenvector: np.ndarray
    occurrences: int = 1
    residual: float = np.nan
    stability: str = ""

    def __repr__(self) -> str:
        vec = np.array2string(self.eigenvector, precision=4, suppress_small=True)
        return (
            f"Eigenpair(lambda={self.eigenvalue:+.4f}, x={vec}, "
            f"occurrences={self.occurrences}, stability={self.stability or '?'})"
        )


def eigen_residual(tensor: SymmetricTensor, lam: float, x: np.ndarray) -> float:
    """Eigenpair equation defect ``||A x^{m-1} - lambda x||_2``."""
    x = np.asarray(x, dtype=np.float64)
    return float(np.linalg.norm(ax_m1_compressed(tensor, x) - lam * x))


def canonicalize_sign(lam: float, x: np.ndarray, m: int) -> tuple[float, np.ndarray]:
    """Canonical representative of the sign symmetry.

    For even ``m``, ``(lambda, -x)`` is also an eigenpair: flip ``x`` so its
    largest-magnitude entry is positive.  For odd ``m``, ``(-lambda, -x)``
    is the mirror pair: choose the representative with ``lambda >= 0``
    (flipping ``x`` accordingly), breaking ``lambda == 0`` ties by entry
    sign like the even case.
    """
    x = np.asarray(x, dtype=np.float64)
    if m % 2 == 1:
        if lam < 0:
            return -lam, -x
        if lam > 0:
            return lam, x
    pivot = int(np.argmax(np.abs(x)))
    if x[pivot] < 0:
        x = -x
    return lam, x


def hessian_matrix(tensor: SymmetricTensor, x: np.ndarray) -> np.ndarray:
    """The ``n x n`` symmetric matrix ``(m-1) * (A x^{m-2})``.

    This is ``1/m`` times the (unconstrained) Hessian of ``f(x) = A x^m``;
    its restriction to the tangent space of the sphere, compared against
    ``lambda``, determines the stability of an eigenpair (Kolda & Mayo).
    Requires ``m >= 2``; for ``m = 2`` it is just the matrix ``A`` itself.
    """
    m, n = tensor.m, tensor.n
    x = np.asarray(x, dtype=np.float64)
    if m == 2:
        return tensor.to_dense()
    axm2 = ttsv_compressed(tensor, x, 2)
    return (m - 1) * axm2.to_dense()


def projected_hessian_eigenvalues(
    tensor: SymmetricTensor, lam: float, x: np.ndarray
) -> np.ndarray:
    """Eigenvalues of ``P ((m-1) A x^{m-2} - lambda I) P`` restricted to the
    tangent space at ``x`` (``P = I - x x^T``), in ascending order.

    All negative  -> ``x`` is a strict local maximum of ``f`` on the sphere
    (positive stable); all positive -> local minimum (negative stable);
    mixed signs -> saddle.  A non-finite restriction (a tensor holding NaN
    or Inf) gives NaN eigenvalues at every ``n``, where ``eigvalsh`` would
    raise from ``n = 4`` on.
    """
    x = np.asarray(x, dtype=np.float64)
    n = tensor.n
    H = hessian_matrix(tensor, x) - lam * np.eye(n)
    # orthonormal tangent basis: left singular vectors of x beyond the first
    # span the orthogonal complement of x
    u, _, _ = np.linalg.svd(x.reshape(-1, 1), full_matrices=True)
    tangent = u[:, 1:]
    restricted = tangent.T @ H @ tangent
    restricted = 0.5 * (restricted + restricted.T)
    if not np.isfinite(restricted).all():
        return np.full(n - 1, np.nan)
    return np.linalg.eigvalsh(restricted)


def classify_eigenpair(
    tensor: SymmetricTensor, lam: float, x: np.ndarray, tol: float = 1e-8
) -> str:
    """Stability label of an eigenpair (see
    :func:`projected_hessian_eigenvalues`)."""
    if tensor.n == 1:
        return "pos_stable"  # the sphere is two points; every pair is extremal
    evals = projected_hessian_eigenvalues(tensor, lam, x)
    scale = max(1.0, float(np.max(np.abs(evals))))
    if np.any(np.abs(evals) <= tol * scale):
        return "degenerate"
    if np.all(evals < 0):
        return "pos_stable"
    if np.all(evals > 0):
        return "neg_stable"
    return "unstable"


def dedupe_eigenpairs(
    eigenvalues: np.ndarray,
    eigenvectors: np.ndarray,
    m: int,
    tensor: SymmetricTensor | None = None,
    lambda_tol: float = 1e-6,
    angle_tol: float = 1e-4,
    classify: bool = False,
    converged_mask: np.ndarray | None = None,
) -> list[Eigenpair]:
    """Cluster multistart results into distinct eigenpairs.

    Two results are the same pair when their eigenvalues agree to
    ``lambda_tol`` (absolute, after sign canonicalization) and their vectors
    are parallel to within ``angle_tol`` radians (up to the even-order sign
    symmetry).  Results flagged unconverged via ``converged_mask`` are
    dropped.  Returns pairs sorted by descending eigenvalue, each carrying
    its occurrence count; with ``classify=True`` (requires ``tensor``)
    residuals and stability labels are filled in.
    """
    eigenvalues = np.asarray(eigenvalues, dtype=np.float64).ravel()
    eigenvectors = np.asarray(eigenvectors, dtype=np.float64)
    if eigenvectors.size % max(1, eigenvalues.shape[0]) != 0 or (
        eigenvectors.ndim > 1 and eigenvectors.shape[0] != eigenvalues.shape[0]
    ):
        raise ValueError(
            f"eigenvector array of shape {eigenvectors.shape} does not match "
            f"{eigenvalues.shape[0]} eigenvalues"
        )
    eigenvectors = eigenvectors.reshape(eigenvalues.shape[0], -1)
    if converged_mask is not None:
        keep = np.asarray(converged_mask, dtype=bool).ravel()
        eigenvalues = eigenvalues[keep]
        eigenvectors = eigenvectors[keep]

    clusters: list[Eigenpair] = []
    cos_tol = np.cos(angle_tol)
    for lam, vec in zip(eigenvalues, eigenvectors):
        lam, vec = canonicalize_sign(float(lam), vec, m)
        matched = False
        for pair in clusters:
            if abs(pair.eigenvalue - lam) > lambda_tol:
                continue
            cosine = abs(float(np.dot(pair.eigenvector, vec)))
            if cosine >= cos_tol:
                # running mean keeps the representative centered
                w = pair.occurrences
                merged = (w * pair.eigenvector + vec * np.sign(
                    np.dot(pair.eigenvector, vec) or 1.0
                )) / (w + 1)
                nrm = np.linalg.norm(merged)
                if nrm > 0:
                    pair.eigenvector = merged / nrm
                pair.eigenvalue = (w * pair.eigenvalue + lam) / (w + 1)
                pair.occurrences += 1
                matched = True
                break
        if not matched:
            clusters.append(Eigenpair(eigenvalue=lam, eigenvector=vec))

    clusters.sort(key=lambda p: -p.eigenvalue)
    if tensor is not None:
        for pair in clusters:
            pair.residual = eigen_residual(tensor, pair.eigenvalue, pair.eigenvector)
            if classify:
                pair.stability = classify_eigenpair(
                    tensor, pair.eigenvalue, pair.eigenvector
                )
    return clusters
