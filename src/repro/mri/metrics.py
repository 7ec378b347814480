"""Accuracy metrics for fiber detection on phantoms with known ground truth."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["angular_error_deg", "match_fibers", "DetectionReport", "evaluate_detection"]


def angular_error_deg(estimated: np.ndarray, truth: np.ndarray) -> float:
    """Angle in degrees between two directions, modulo the antipodal
    symmetry (a fiber has no orientation sign)."""
    estimated = np.asarray(estimated, dtype=np.float64)
    truth = np.asarray(truth, dtype=np.float64)
    cosine = abs(float(np.dot(estimated, truth)))
    cosine /= float(np.linalg.norm(estimated) * np.linalg.norm(truth))
    return float(np.degrees(np.arccos(np.clip(cosine, -1.0, 1.0))))


def match_fibers(
    estimated: np.ndarray, truth: np.ndarray, max_error_deg: float = 20.0
) -> tuple[list[tuple[int, int, float]], int, int]:
    """Optimal assignment of estimated to true fibers.

    Returns ``(matches, false_positives, misses)`` where each match is
    ``(est_index, true_index, angular_error_deg)`` with error below
    ``max_error_deg``; unmatched estimates are false positives, unmatched
    truths are misses.
    """
    # imported here so that ``import repro`` does not load scipy
    from scipy.optimize import linear_sum_assignment

    estimated = np.atleast_2d(np.asarray(estimated, dtype=np.float64))
    truth = np.atleast_2d(np.asarray(truth, dtype=np.float64))
    ne, nt = estimated.shape[0], truth.shape[0]
    if ne == 0 or nt == 0:
        return [], ne, nt
    cost = np.empty((ne, nt))
    for i in range(ne):
        for j in range(nt):
            cost[i, j] = angular_error_deg(estimated[i], truth[j])
    rows, cols = linear_sum_assignment(cost)
    matches = [
        (int(i), int(j), float(cost[i, j]))
        for i, j in zip(rows, cols)
        if cost[i, j] <= max_error_deg
    ]
    matched_est = {m[0] for m in matches}
    matched_true = {m[1] for m in matches}
    return matches, ne - len(matched_est), nt - len(matched_true)


@dataclass
class DetectionReport:
    """Aggregate phantom-wide detection quality.

    Attributes
    ----------
    voxels : voxel count evaluated.
    correct_count_fraction : voxels whose detected fiber count equals truth.
    mean_angular_error_deg : mean error over all matched fibers.
    matched, false_positives, misses : fiber-level totals.
    by_fiber_count : per-ground-truth-count breakdown
        ``{count: (voxels, correct_count, mean_error)}``.
    """

    voxels: int
    correct_count_fraction: float
    mean_angular_error_deg: float
    matched: int
    false_positives: int
    misses: int
    by_fiber_count: dict


def evaluate_detection(
    estimated_per_voxel: list[np.ndarray],
    truth_per_voxel: list[np.ndarray],
    max_error_deg: float = 20.0,
) -> DetectionReport:
    """Score detections against ground truth across a phantom."""
    if len(estimated_per_voxel) != len(truth_per_voxel):
        raise ValueError("estimated and truth lists must have equal length")
    total_matched = 0
    total_fp = 0
    total_miss = 0
    errors: list[float] = []
    correct_count = 0
    buckets: dict[int, list] = {}
    for est, true in zip(estimated_per_voxel, truth_per_voxel):
        est = np.atleast_2d(np.asarray(est)) if np.size(est) else np.zeros((0, 3))
        true = np.atleast_2d(np.asarray(true))
        matches, fp, miss = match_fibers(est, true, max_error_deg=max_error_deg)
        total_matched += len(matches)
        total_fp += fp
        total_miss += miss
        errs = [m[2] for m in matches]
        errors.extend(errs)
        ok = est.shape[0] == true.shape[0] and miss == 0 and fp == 0
        correct_count += int(ok)
        bucket = buckets.setdefault(true.shape[0], [0, 0, []])
        bucket[0] += 1
        bucket[1] += int(ok)
        bucket[2].extend(errs)

    by_count = {
        k: (v[0], v[1], float(np.mean(v[2])) if v[2] else float("nan"))
        for k, v in sorted(buckets.items())
    }
    return DetectionReport(
        voxels=len(truth_per_voxel),
        correct_count_fraction=correct_count / max(1, len(truth_per_voxel)),
        mean_angular_error_deg=float(np.mean(errors)) if errors else float("nan"),
        matched=total_matched,
        false_positives=total_fp,
        misses=total_miss,
        by_fiber_count=by_count,
    )
