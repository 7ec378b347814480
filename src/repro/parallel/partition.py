"""Work partitioning over tensors.

The paper's CPU parallelization is a single ``omp for`` over the input
tensors (Section V-E); these helpers reproduce OpenMP's static schedule
(contiguous near-equal chunks), so the executor and its tests can verify
both coverage and balance.

:func:`cost_weighted_partition` generalizes the static schedule to
per-item cost weights (the fleet feeds it kernel-plan flop estimates):
contiguous shards with near-equal *weight* rather than near-equal count,
via prefix-sum splitting.  Oversplitting — more shards than workers, fed
through a queue — is how the process fleet steals work when predicted
costs miss (see :mod:`repro.parallel.procfleet`).

Partitions that would emit empty shards (``workers > total``) raise the
typed :class:`PartitionError` instead of silently returning them; drivers
that can degrade gracefully clamp their worker count *before* partitioning.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "PartitionError",
    "chunk_sizes",
    "cost_weighted_partition",
    "static_partition",
]


class PartitionError(ValueError):
    """A partition request that can only be satisfied with empty shards
    (more workers than items).  Raised instead of silently emitting
    zero-length ranges, which historically produced idle workers and
    division-by-zero imbalance statistics downstream."""


def chunk_sizes(total: int, workers: int) -> list[int]:
    """Sizes of the static chunks: ``total`` items over ``workers`` chunks,
    first ``total % workers`` chunks one larger (OpenMP static)."""
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    if total < 0:
        raise ValueError(f"total must be nonnegative, got {total}")
    base, extra = divmod(total, workers)
    return [base + (1 if w < extra else 0) for w in range(workers)]


def static_partition(total: int, workers: int) -> list[range]:
    """Contiguous index ranges per worker (OpenMP ``schedule(static)``).

    Raises :class:`PartitionError` when ``workers > total`` — every
    partition would contain an empty shard.
    """
    if workers > total:
        raise PartitionError(
            f"cannot partition {total} items into {workers} non-empty "
            f"shards; clamp workers to at most {total}")
    sizes = chunk_sizes(total, workers)
    out: list[range] = []
    start = 0
    for size in sizes:
        out.append(range(start, start + size))
        start += size
    return out


def cost_weighted_partition(weights, workers: int) -> list[range]:
    """Contiguous index ranges with near-equal total *weight*.

    ``weights`` is one nonnegative finite cost per item (e.g. per-tensor
    flop estimates).  Shard boundaries sit where the prefix sum crosses
    the ``k/workers`` fractions of the total weight, pinched so every
    shard stays non-empty; uniform weights reproduce a balanced static
    schedule.  Raises :class:`PartitionError` when ``workers > len(weights)``.
    """
    w = np.asarray(weights, dtype=np.float64)
    if w.ndim != 1:
        raise ValueError(f"weights must be 1-D, got shape {w.shape}")
    if workers < 1:
        raise ValueError(f"need at least one worker, got {workers}")
    total = w.shape[0]
    if workers > total:
        raise PartitionError(
            f"cannot partition {total} items into {workers} non-empty "
            f"shards; clamp workers to at most {total}")
    if np.any(w < 0) or not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite and nonnegative")
    if w.sum() <= 0:
        return static_partition(total, workers)
    prefix = np.cumsum(w)
    bounds = [0]
    for k in range(1, workers):
        target = prefix[-1] * k / workers
        cut = int(np.searchsorted(prefix, target, side="left")) + 1
        # non-empty on both sides: past the previous bound, and leaving at
        # least one item for each remaining shard
        cut = min(max(cut, bounds[-1] + 1), total - (workers - k))
        bounds.append(cut)
    bounds.append(total)
    return [range(a, b) for a, b in zip(bounds, bounds[1:])]

