"""Correctness checks the benchmark applies to every result it counts.

The residual check does not trust the program's kernels: it expands each
tensor's unique values into the dense ``n^m`` array once and contracts it
with plain ``numpy.einsum``, so a broken kernel cannot vouch for itself.
"""

from __future__ import annotations

import json
from functools import lru_cache

import numpy as np

#: residual bound factor: a converged pair must satisfy
#: ``||A x^{m-1} - lambda x|| <= RESID_FACTOR * sqrt(tol) * (1 + |lambda| + |alpha|)``.
#: Near a fixed point the power step changes lambda by about
#: ``||r||^2 / (lambda + alpha)``, so ``|d lambda| < tol`` puts the residual
#: on the ``sqrt(tol)`` scale; the factor leaves room for slow lanes.
RESID_FACTOR = 10.0

#: lanes the engine flags converged that break the residual bound (false
#: convergence: |d lambda| < tol while x still oscillates) are excluded
#: from every converged count; more than this share of a run's lanes marks
#: the run incorrect.  Over 20 seeds the engine reached at most 41 of
#: 131072 lanes (3.1e-4, mean 1.5e-4) on paper_batch and 10 of ~56000
#: (1.8e-4) on serve_loaded; method_mix's GEAP lanes stall more, about
#: 0.3%.  Each ceiling sits near twice the highest rate seen, so a
#: kernel or convergence change that doubles false convergence fails.
FALSE_CONVERGED_CEILING = {"paper_batch": 5e-4, "serve_loaded": 4e-4,
                           "method_mix": 6e-3}

#: two verified eigenvalues of one tensor are the same when they differ
#: by less than this, relative to ``1 + |lambda|``
DISTINCT_LAMBDA_TOL = 1e-5


@lru_cache(maxsize=None)
def _dense_index(m: int, n: int) -> np.ndarray:
    """Map from dense ``(n,)*m`` positions to unique-value slots."""
    from repro.symtensor.storage import SymmetricTensor
    from repro.util.combinatorics import num_unique_entries

    slots = np.arange(num_unique_entries(m, n), dtype=np.float64)
    return SymmetricTensor(slots, m, n).to_dense().astype(np.intp)


def residuals(values: np.ndarray, m: int, n: int, lam: np.ndarray,
              vec: np.ndarray) -> np.ndarray:
    """``||A_t x^{m-1} - lambda x||`` for every ``(t, v)`` lane.

    ``values`` is ``(T, U)``, ``lam`` ``(T, V)`` and ``vec`` ``(T, V, n)``;
    non-finite lanes come back NaN.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        dense = np.asarray(values, np.float64)[:, _dense_index(m, n)]
        x = np.asarray(vec, np.float64)
        y = np.einsum("t...j,tvj->tv...", dense, x)
        for _ in range(m - 2):
            y = np.einsum("tv...j,tvj->tv...", y, x)
        return np.linalg.norm(y - np.asarray(lam)[..., None] * x, axis=-1)


def verify_lanes(values, m: int, n: int, tol: float, lam, vec, converged,
                 failed, shifts) -> dict:
    """Classify every lane of one ``(T, V)`` result.

    Returns boolean ``(T, V)`` masks ``verified`` (flagged converged, not
    failed, residual within bound) and ``false_converged`` (flagged
    converged but the residual breaks the bound), plus ``failed`` (the
    program's failed flag or a non-finite converged pair).
    """
    lam = np.asarray(lam, np.float64)
    vec = np.asarray(vec, np.float64)
    converged = np.asarray(converged, bool)
    failed = np.asarray(failed, bool)
    shifts = np.abs(np.nan_to_num(np.asarray(shifts, np.float64)))
    claimed = converged & ~failed
    resid = residuals(values, m, n, lam, vec)
    bound = RESID_FACTOR * np.sqrt(tol) * (1.0 + np.abs(lam) + shifts)
    ok = np.isfinite(resid) & (resid <= bound)
    bad_numbers = claimed & ~(np.isfinite(lam) & np.isfinite(vec).all(-1))
    return {
        "verified": claimed & ok,
        "false_converged": claimed & ~ok & ~bad_numbers,
        "failed": failed | bad_numbers,
    }


def distinct_eigenvalues(lam: np.ndarray, verified: np.ndarray) -> int:
    """Number of distinct verified eigenvalues summed over the tensors of
    one ``(T, V)`` result."""
    total = 0
    for row, keep in zip(np.asarray(lam), np.asarray(verified)):
        vals = np.sort(row[keep])
        if vals.size:
            gaps = np.diff(vals) > DISTINCT_LAMBDA_TOL * (1.0 + np.abs(vals[1:]))
            total += 1 + int(gaps.sum())
    return total


def same_fleet_result(a, b) -> bool:
    """Bit-for-bit equality of two fleet results' lane arrays (NaNs in the
    same places count as equal)."""
    pairs = [(a.eigenvalues, b.eigenvalues), (a.eigenvectors, b.eigenvectors),
             (a.converged, b.converged), (a.iterations, b.iterations),
             (a.failed, b.failed)]
    if (a.shifts is None) != (b.shifts is None):
        return False
    if a.shifts is not None:
        pairs.append((a.shifts, b.shifts))
    return all(x.shape == y.shape and x.dtype == y.dtype
               and np.array_equal(x, y, equal_nan=x.dtype.kind == "f")
               for x, y in pairs)


def same_json(a, b) -> bool:
    """Equality of two JSON documents, NaN-aware (floats round-trip exactly
    through ``repr``, so equal text means equal bits)."""
    return json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
