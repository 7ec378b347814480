"""Seeded random number helpers.

All stochastic components of the library (random symmetric tensors, starting
vectors, phantom generation) draw through these helpers so that every
experiment is reproducible from a single integer seed.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "make_rng",
    "spawn_rng",
    "random_unit_vectors",
    "random_unit_vector",
    "fibonacci_sphere",
    "starting_vectors",
]


def make_rng(seed: int | np.random.Generator | None = None) -> np.random.Generator:
    """Coerce ``seed`` into a :class:`numpy.random.Generator`.

    Passing an existing Generator returns it unchanged so callers can thread
    one RNG through a pipeline.
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def spawn_rng(seed: int | None, *key: int) -> np.random.Generator:
    """A child generator derived from ``(seed, key)`` via
    :class:`numpy.random.SeedSequence` spawn keys.

    The stream depends only on the root seed and the key — not on how
    many siblings were spawned before it, which worker thread asks, or
    in what order — so per-start randomness (e.g. restart vectors for
    attempt ``a`` of start ``i``: ``spawn_rng(seed, i, a)``) is identical
    however the starts are chunked into fleet calls, and a resumed sweep
    regenerates exactly the streams the interrupted one used.

    ``seed=None`` draws fresh OS entropy (not reproducible); pass an
    integer for deterministic sweeps.
    """
    entropy = seed if seed is None else int(seed)
    sequence = np.random.SeedSequence(
        entropy, spawn_key=tuple(int(k) for k in key)
    )
    return np.random.default_rng(sequence)


def random_unit_vectors(
    count: int,
    dim: int,
    rng: int | np.random.Generator | None = None,
    dtype: np.dtype | type = np.float64,
) -> np.ndarray:
    """Sample ``count`` unit vectors in ``R^dim`` the way the paper does:
    each entry uniform on ``[-1, 1]``, then normalize (Section V).

    Degenerate draws (norm below 1e-12, probability ~0) are redrawn.

    Returns an array of shape ``(count, dim)``.
    """
    if count < 0:
        raise ValueError(f"count must be nonnegative, got {count}")
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim}")
    rng = make_rng(rng)
    vecs = rng.uniform(-1.0, 1.0, size=(count, dim))
    norms = np.linalg.norm(vecs, axis=1)
    bad = norms < 1e-12
    while np.any(bad):
        vecs[bad] = rng.uniform(-1.0, 1.0, size=(int(bad.sum()), dim))
        norms = np.linalg.norm(vecs, axis=1)
        bad = norms < 1e-12
    out = vecs / norms[:, None]
    return out.astype(dtype, copy=False)


def random_unit_vector(
    dim: int,
    rng: int | np.random.Generator | None = None,
    dtype: np.dtype | type = np.float64,
) -> np.ndarray:
    """Single random unit vector in ``R^dim`` (see :func:`random_unit_vectors`)."""
    return random_unit_vectors(1, dim, rng=rng, dtype=dtype)[0]


def fibonacci_sphere(count: int, dtype: np.dtype | type = np.float64) -> np.ndarray:
    """Deterministic, nearly-even covering of the unit sphere in ``R^3``.

    The paper notes that "one could use a deterministic approach and pick
    starting vectors evenly spaced about the sphere"; this is the standard
    Fibonacci-lattice construction of such a set.

    Returns an array of shape ``(count, 3)``.
    """
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    i = np.arange(count, dtype=np.float64)
    golden = (1.0 + 5.0**0.5) / 2.0
    theta = 2.0 * np.pi * i / golden
    z = 1.0 - (2.0 * i + 1.0) / count
    r = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    pts = np.stack([r * np.cos(theta), r * np.sin(theta), z], axis=1)
    return pts.astype(dtype, copy=False)


def starting_vectors(
    count: int,
    n: int,
    scheme: str = "random",
    rng=None,
    dtype=np.float64,
) -> np.ndarray:
    """Generate the shared ``(count, n)`` starting-vector set.

    ``scheme="random"`` draws uniform entries in ``[-1, 1]`` and normalizes
    (the paper's choice); ``scheme="fibonacci"`` returns the deterministic
    evenly-spaced alternative the paper mentions (``n == 3`` only).
    """
    if scheme == "random":
        return random_unit_vectors(count, n, rng=rng, dtype=dtype)
    if scheme == "fibonacci":
        if n != 3:
            raise ValueError("fibonacci scheme is defined on the 2-sphere (n=3)")
        return fibonacci_sphere(count, dtype=dtype)
    raise ValueError(f"unknown starting-vector scheme {scheme!r}")
