"""Spherical harmonics <-> symmetric tensor correspondence (Section IV).

The paper: "a common way to approximate the diffusion function is as a
finite sum of spherical harmonic functions ... The correspondence between
coefficients of spherical harmonic functions with the entries in the
associated symmetric tensor are given in [6]" (Schultz & Seidel 2008).

The mathematical fact: on the unit sphere, the even-degree real spherical
harmonics up to degree ``L`` span exactly the same function space as the
degree-``L`` homogeneous forms ``A g^L`` of symmetric tensors — both have
dimension ``(L+1)(L+2)/2`` (15/28/45 for L = 4/6/8, the measurement counts
Section IV quotes).  This module provides the real SH basis, least-squares
SH fitting of ADC profiles, and the (numerically constructed, exact) linear
isomorphism between SH coefficient vectors and compressed symmetric tensor
values — so the two fitting routes can be used interchangeably and checked
against each other.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from repro.mri.fit import design_matrix
from repro.symtensor.storage import SymmetricTensor
from repro.util.combinatorics import num_unique_entries
from repro.util.rng import fibonacci_sphere

__all__ = [
    "num_even_sh_coefficients",
    "even_sh_index_list",
    "real_sph_harm_basis",
    "fit_sh",
    "evaluate_sh",
    "sh_to_tensor",
    "tensor_to_sh",
]


def num_even_sh_coefficients(degree: int) -> int:
    """Number of real SH basis functions of even degree ``<= degree``:
    ``(degree+1)(degree+2)/2`` — equals the symmetric tensor DOF
    ``C(degree+2, degree)`` (the paper's 6/15/28/45 for degree 2/4/6/8)."""
    if degree < 0 or degree % 2 != 0:
        raise ValueError(f"degree must be even and nonnegative, got {degree}")
    return (degree + 1) * (degree + 2) // 2


def even_sh_index_list(degree: int) -> list[tuple[int, int]]:
    """The (l, m) pairs of the even-degree basis, l = 0, 2, ..., degree."""
    if degree < 0 or degree % 2 != 0:
        raise ValueError(f"degree must be even and nonnegative, got {degree}")
    return [(l, m) for l in range(0, degree + 1, 2) for m in range(-l, l + 1)]


def _to_angles(directions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    directions = np.asarray(directions, dtype=np.float64)
    if directions.ndim != 2 or directions.shape[1] != 3:
        raise ValueError(f"directions must have shape (G, 3), got {directions.shape}")
    norms = np.linalg.norm(directions, axis=1)
    if np.any(norms < 1e-12):
        raise ValueError("directions must be nonzero")
    unit = directions / norms[:, None]
    theta = np.arccos(np.clip(unit[:, 2], -1.0, 1.0))  # polar
    phi = np.arctan2(unit[:, 1], unit[:, 0])  # azimuth
    return theta, phi


def real_sph_harm_basis(degree: int, directions: np.ndarray) -> np.ndarray:
    """The ``(G, K)`` real even-degree SH design matrix.

    Real convention: ``m = 0`` is ``Y_l^0``; ``m > 0`` is
    ``sqrt(2) (-1)^m Re(Y_l^m)``; ``m < 0`` is ``sqrt(2) (-1)^m Im(Y_l^|m|)``
    — orthonormal on the sphere.
    """
    # imported here, not at module level, so that ``import repro`` (every
    # CLI command, server and worker process) does not load scipy
    from scipy.special import sph_harm_y

    theta, phi = _to_angles(directions)
    cols = []
    for l, m in even_sh_index_list(degree):
        y = sph_harm_y(l, abs(m), theta, phi)
        if m == 0:
            cols.append(y.real)
        elif m > 0:
            cols.append(np.sqrt(2.0) * (-1.0) ** m * y.real)
        else:
            cols.append(np.sqrt(2.0) * (-1.0) ** m * y.imag)
    return np.stack(cols, axis=1)


def fit_sh(
    gradients: np.ndarray, adc: np.ndarray, degree: int = 4, rcond=None
) -> np.ndarray:
    """Least-squares real-SH coefficients of an ADC profile (the Section IV
    "finite sum of spherical harmonic functions")."""
    B = real_sph_harm_basis(degree, gradients)
    adc = np.asarray(adc, dtype=np.float64)
    if adc.shape != (B.shape[0],):
        raise ValueError(f"adc must have shape ({B.shape[0]},), got {adc.shape}")
    if B.shape[0] < B.shape[1]:
        raise ValueError(
            f"underdetermined: {B.shape[0]} samples < {B.shape[1]} coefficients"
        )
    coeffs, *_ = np.linalg.lstsq(B, adc, rcond=rcond)
    return coeffs


def evaluate_sh(coeffs: np.ndarray, degree: int, directions: np.ndarray) -> np.ndarray:
    """Evaluate an even-SH expansion at unit directions."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    expected = num_even_sh_coefficients(degree)
    if coeffs.shape != (expected,):
        raise ValueError(f"need {expected} coefficients for degree {degree}")
    return real_sph_harm_basis(degree, directions) @ coeffs


@lru_cache(maxsize=None)
def _conversion_matrices(degree: int) -> tuple[np.ndarray, np.ndarray]:
    """(sh->tensor, tensor->sh) matrices for one degree.

    Both function spaces are sampled on a dense Fibonacci direction set
    (far more points than the common dimension K); the change of basis is
    the exact linear map matching the sampled functions in the
    least-squares sense, which — since both sample matrices have full
    column rank K and span the same space — is the exact isomorphism up to
    rounding.
    """
    K = num_even_sh_coefficients(degree)
    pts = fibonacci_sphere(max(8 * K, 256))
    B_sh = real_sph_harm_basis(degree, pts)  # (G, K)
    B_tensor = design_matrix(pts, degree)  # (G, K)
    sh_to_t = np.linalg.lstsq(B_tensor, B_sh, rcond=None)[0]  # (K, K)
    t_to_sh = np.linalg.lstsq(B_sh, B_tensor, rcond=None)[0]
    return sh_to_t, t_to_sh


def sh_to_tensor(coeffs: np.ndarray, degree: int = 4) -> SymmetricTensor:
    """Convert real-SH coefficients to the equivalent symmetric tensor:
    the unique ``A`` with ``A g^degree == sum_k c_k Y_k(g)`` on the sphere."""
    coeffs = np.asarray(coeffs, dtype=np.float64)
    expected = num_even_sh_coefficients(degree)
    if coeffs.shape != (expected,):
        raise ValueError(f"need {expected} coefficients for degree {degree}")
    sh_to_t, _ = _conversion_matrices(degree)
    return SymmetricTensor(sh_to_t @ coeffs, degree, 3)


def tensor_to_sh(tensor: SymmetricTensor) -> np.ndarray:
    """Inverse conversion: the SH coefficients of ``g -> A g^m``."""
    if tensor.n != 3:
        raise ValueError("SH correspondence is defined on the 2-sphere (n=3)")
    if tensor.m % 2 != 0:
        raise ValueError("SH correspondence needs even tensor order")
    _, t_to_sh = _conversion_matrices(tensor.m)
    return t_to_sh @ tensor.values
