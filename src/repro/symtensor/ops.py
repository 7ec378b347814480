"""Algebra on compressed symmetric tensors.

Section VI: "the techniques for exploiting symmetry may be extended to
other computations involving symmetric tensors."  This module provides the
extensions most useful downstream, all operating directly on the
compressed unique-value representation:

* weighted inner product and induced norm (multiplicity-weighted, matching
  the dense Frobenius inner product),
* symmetric product ``sym(A (x) B)`` of two compressed symmetric tensors,
* the gradient operator ``A -> m * A x^{m-1}`` as algebra (already in the
  kernels) and the polynomial view ``A x^m`` as a polynomial evaluator,
* best symmetric rank-1 approximation via SS-HOPM (the Kofidis-Regalia /
  De Lathauwer problem the paper cites as reference [2]/[10]), including
  the deflation-style greedy rank-R approximation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.symtensor.indexing import (
    class_lookup,
    index_table,
    iter_index_classes,
    multiplicity_table,
)
from repro.symtensor.storage import SymmetricTensor, symmetric_outer_power
from repro.util.combinatorics import factorial, multinomial

__all__ = [
    "inner_product",
    "norm",
    "symmetric_product",
    "polynomial_coefficients",
    "evaluate_polynomial",
    "RankOneApproximation",
    "best_rank_one",
    "greedy_rank_r",
]


def inner_product(a: SymmetricTensor, b: SymmetricTensor) -> float:
    """Frobenius inner product ``<A, B> = sum over all n^m entries`` of the
    dense tensors, computed from unique values weighted by multiplicity."""
    if (a.m, a.n) != (b.m, b.n):
        raise ValueError(
            f"shape mismatch: R^[{a.m},{a.n}] vs R^[{b.m},{b.n}]"
        )
    mult = multiplicity_table(a.m, a.n).astype(np.float64)
    return float(np.sum(mult * a.values * b.values))


def norm(a: SymmetricTensor) -> float:
    """Frobenius norm (alias for :meth:`SymmetricTensor.frobenius_norm`)."""
    return a.frobenius_norm()


def symmetric_product(a: SymmetricTensor, b: SymmetricTensor) -> SymmetricTensor:
    """The symmetrized outer product ``sym(A (x) B)`` of compressed
    symmetric tensors, itself compressed, of order ``m_a + m_b``.

    Entry derivation: for an output class with index representation ``I``
    (order ``m = m_a + m_b``), the symmetrization averages ``A ⊗ B`` over
    all ``m!`` permutations; grouping permutations by which multiset of
    positions lands in the ``A`` factor gives

        sym(A⊗B)_I = (m_a! m_b! / m!) * sum_{S} A_{I_S} B_{I_{S^c}}

    where ``S`` ranges over the distinct ``m_a``-sub-multisets of ``I``
    counted with their multiset multiplicity.  Implemented by iterating,
    for each output class, over the sub-multiset split.
    """
    if a.n != b.n:
        raise ValueError(f"dimension mismatch: {a.n} vs {b.n}")
    n = a.n
    ma, mb = a.m, b.m
    m = ma + mb
    lookup_a = class_lookup(ma, n)
    lookup_b = class_lookup(mb, n)
    out = SymmetricTensor.zeros(m, n, dtype=np.result_type(a.dtype, b.dtype))
    scale = factorial(ma) * factorial(mb) / factorial(m)

    from itertools import combinations

    for u, index in enumerate(iter_index_classes(m, n)):
        # distinct m_a-sub-multisets of the multiset `index`, with counts
        seen: dict[tuple[int, ...], int] = {}
        for combo in combinations(range(m), ma):
            sub = tuple(index[i] for i in combo)
            seen[sub] = seen.get(sub, 0) + 1
        acc = 0.0
        for sub, count in seen.items():
            remaining = list(index)
            for v in sub:
                remaining.remove(v)
            acc += count * a.values[lookup_a[sub]] * b.values[lookup_b[tuple(remaining)]]
        out.values[u] = scale * acc
    return out


def polynomial_coefficients(a: SymmetricTensor) -> dict[tuple[int, ...], float]:
    """The homogeneous polynomial ``p(x) = A x^m`` as a map from exponent
    vectors (monomial representations) to coefficients: the unique value
    times its multiplicity."""
    from repro.symtensor.indexing import monomial_from_index

    mult = multiplicity_table(a.m, a.n)
    return {
        monomial_from_index(index, a.n): float(mult[u] * a.values[u])
        for u, index in enumerate(iter_index_classes(a.m, a.n))
    }


def evaluate_polynomial(coeffs: dict[tuple[int, ...], float], x: np.ndarray) -> float:
    """Evaluate a polynomial given as exponent-vector -> coefficient."""
    x = np.asarray(x, dtype=np.float64)
    total = 0.0
    for expo, c in coeffs.items():
        if len(expo) != x.shape[0]:
            raise ValueError(
                f"exponent vector {expo} does not match dimension {x.shape[0]}"
            )
        total += c * float(np.prod(x ** np.asarray(expo)))
    return total


@dataclass
class RankOneApproximation:
    """Best symmetric rank-1 approximation ``lambda * x^{(x)m}`` of a
    symmetric tensor.

    Attributes
    ----------
    weight, vector : the approximation parameters (``||vector|| = 1``).
    residual_norm : Frobenius distance ``||A - lambda x^{(x)m}||_F``.
    relative_error : residual over ``||A||_F``.
    """

    weight: float
    vector: np.ndarray
    residual_norm: float
    relative_error: float

    def tensor(self, m: int) -> SymmetricTensor:
        return symmetric_outer_power(self.vector, m) * self.weight


def best_rank_one(
    tensor: SymmetricTensor,
    num_starts: int = 64,
    tol: float = 1e-12,
    max_iter: int = 2000,
    rng=None,
) -> RankOneApproximation:
    """Best symmetric rank-1 approximation via SS-HOPM.

    The best rank-1 symmetric approximation of ``A`` is
    ``lambda* x*^{(x)m}`` where ``(lambda*, x*)`` is the eigenpair with the
    largest ``|lambda|`` (Kofidis & Regalia / De Lathauwer — the setting of
    the paper's references [2] and [10]); the squared distance is
    ``||A||_F^2 - lambda*^2``.  Both convex and concave shifted iterations
    are run so negative-lambda optima are found too.
    """
    from repro.engine.fleet import fleet_solve
    from repro.solvers.sshopm import suggested_shift

    alpha = suggested_shift(tensor)
    best_lam, best_x = 0.0, None
    for shift in (alpha, -alpha):
        res = fleet_solve(
            tensor, num_starts=num_starts, alpha=shift, tol=tol,
            max_iters=max_iter, rng=rng,
        )
        lams = res.eigenvalues[0]
        conv = res.converged[0]
        if not conv.any():
            continue
        idx = int(np.argmax(np.where(conv, np.abs(lams), -np.inf)))
        if abs(lams[idx]) > abs(best_lam):
            best_lam = float(lams[idx])
            best_x = res.eigenvectors[0, idx]
    if best_x is None:
        raise RuntimeError("no SS-HOPM start converged; increase max_iter")
    approx = symmetric_outer_power(best_x, tensor.m) * best_lam
    resid = (tensor - approx).frobenius_norm()
    total = tensor.frobenius_norm()
    return RankOneApproximation(
        weight=best_lam,
        vector=best_x,
        residual_norm=resid,
        relative_error=resid / total if total > 0 else 0.0,
    )


def greedy_rank_r(
    tensor: SymmetricTensor,
    rank: int,
    num_starts: int = 64,
    tol: float = 1e-12,
    max_iter: int = 2000,
    stop_tol: float = 1e-7,
    rng=None,
) -> tuple[list[RankOneApproximation], SymmetricTensor]:
    """Greedy rank-R approximation by successive rank-1 deflation.

    Repeatedly subtracts the best rank-1 term from the residual.  (For
    tensors, unlike matrices, greedy deflation is *not* optimal in general
    — but it is exact for odeco tensors and a standard practical baseline.)
    Stops early once the residual norm falls below ``stop_tol`` relative to
    the input norm.  Returns the rank-1 terms and the final residual.
    """
    if rank < 1:
        raise ValueError(f"rank must be >= 1, got {rank}")
    terms: list[RankOneApproximation] = []
    residual = tensor.copy()
    floor = stop_tol * max(tensor.frobenius_norm(), 1e-300)
    for _ in range(rank):
        if residual.frobenius_norm() < floor:
            break
        term = best_rank_one(residual, num_starts=num_starts, tol=tol,
                             max_iter=max_iter, rng=rng)
        terms.append(term)
        residual = residual - term.tensor(tensor.m)
    return terms, residual
