"""Basin-of-attraction analysis for SS-HOPM.

The paper: "there are still many open problems regarding choice of starting
vector ... and finding eigenpairs with certain properties."  Multistart
coverage depends on the basins of attraction of the shifted iteration; this
module maps them: a (near-)uniform grid of starting vectors on the sphere
is run through the fleet engine and each start is labeled with the eigenpair
it reaches.  The result quantifies how many random starts are needed to
find everything (basin fractions -> coupon-collector estimates) and renders
an ASCII map of the sphere for n = 3.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.eigenpairs import Eigenpair, canonicalize_sign, dedupe_eigenpairs
from repro.symtensor.storage import SymmetricTensor
from repro.util.rng import fibonacci_sphere

__all__ = ["BasinMap", "basin_map", "starts_needed_estimate", "render_basin_map"]


@dataclass
class BasinMap:
    """Result of a basin-of-attraction sweep.

    Attributes
    ----------
    pairs : the distinct eigenpairs reached (sorted by descending lambda).
    starts : the ``(S, n)`` starting vectors probed.
    labels : ``(S,)`` index into ``pairs`` per start; ``-1`` = unconverged
        or unmatched.
    fractions : basin size per pair (fraction of converged starts).
    """

    pairs: list[Eigenpair]
    starts: np.ndarray
    labels: np.ndarray
    fractions: np.ndarray

    @property
    def coverage(self) -> float:
        """Fraction of starts that converged to some labeled pair."""
        return float(np.mean(self.labels >= 0))


def basin_map(
    tensor: SymmetricTensor,
    alpha: float,
    resolution: int = 400,
    starts: np.ndarray | None = None,
    tol: float = 1e-11,
    max_iter: int = 3000,
    lambda_tol: float = 1e-5,
    angle_tol: float = 1e-2,
) -> BasinMap:
    """Map the basins of attraction of the ``alpha``-shifted iteration.

    Default starts: a Fibonacci covering of the sphere (``n = 3``); pass
    explicit ``starts`` for other dimensions.
    """
    n = tensor.n
    if starts is None:
        if n != 3:
            raise ValueError("default sphere covering requires n=3; pass starts=")
        starts = fibonacci_sphere(resolution)
    starts = np.asarray(starts, dtype=np.float64)

    from repro.engine.fleet import fleet_solve

    res = fleet_solve(tensor, starts=starts, alpha=alpha, tol=tol,
                      max_iters=max_iter)
    lams = res.eigenvalues[0]
    vecs = res.eigenvectors[0]
    conv = res.converged[0]

    pairs = dedupe_eigenpairs(
        lams, vecs, tensor.m, tensor=tensor, classify=True,
        lambda_tol=lambda_tol, angle_tol=angle_tol, converged_mask=conv,
    )

    labels = np.full(starts.shape[0], -1, dtype=np.int64)
    cos_tol = np.cos(10 * angle_tol)
    for s in range(starts.shape[0]):
        if not conv[s]:
            continue
        lam_c, vec_c = canonicalize_sign(float(lams[s]), vecs[s], tensor.m)
        for k, p in enumerate(pairs):
            if abs(p.eigenvalue - lam_c) <= 10 * lambda_tol and abs(
                float(p.eigenvector @ vec_c)
            ) >= cos_tol:
                labels[s] = k
                break

    converged_count = max(1, int((labels >= 0).sum()))
    fractions = np.array(
        [(labels == k).sum() / converged_count for k in range(len(pairs))]
    )
    return BasinMap(pairs=pairs, starts=starts, labels=labels, fractions=fractions)


def starts_needed_estimate(fractions: np.ndarray, confidence: float = 0.99) -> int:
    """Random starts needed to hit *every* basin at least once with the
    given confidence, assuming independent draws with the mapped basin
    probabilities: union bound ``sum_k (1 - f_k)^N <= 1 - confidence``."""
    fractions = np.asarray(fractions, dtype=np.float64)
    fractions = fractions[fractions > 0]
    if fractions.size == 0:
        raise ValueError("no nonempty basins")
    if np.any(fractions >= 1.0):
        return 1
    miss = 1.0 - confidence
    count = 1
    while np.sum((1.0 - fractions) ** count) > miss and count < 10**7:
        count += 1
    return count


def render_basin_map(bmap: BasinMap, width: int = 72, height: int = 24) -> str:
    """ASCII theta-phi map of the basins (n = 3): each cell shows the label
    of the nearest probed start ('.' for unlabeled).  Eigenpair k prints as
    the digit/letter ``k``."""
    if bmap.starts.shape[1] != 3:
        raise ValueError("rendering requires n=3 starts")
    symbols = "0123456789abcdefghijklmnopqrstuvwxyz"
    lines = []
    # precompute angles of probed starts
    for row in range(height):
        theta = np.pi * (row + 0.5) / height
        cells = []
        for col in range(width):
            phi = 2 * np.pi * (col + 0.5) / width - np.pi
            p = np.array(
                [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi), np.cos(theta)]
            )
            idx = int(np.argmax(bmap.starts @ p))
            label = bmap.labels[idx]
            cells.append(symbols[label % len(symbols)] if label >= 0 else ".")
        lines.append("".join(cells))
    legend = "  ".join(
        f"{symbols[k % len(symbols)]}: lambda={p.eigenvalue:+.4f} ({bmap.fractions[k]:.0%})"
        for k, p in enumerate(bmap.pairs)
    )
    return "\n".join(lines) + "\n" + legend
