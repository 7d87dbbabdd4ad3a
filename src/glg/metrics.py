"""Evaluation measures for feature and adjacency recovery."""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import NumericError, ShapeError, UndefinedMetricError
from .numkit import hungarian_assign

__all__ = [
    "AdjacencyScore",
    "BatchMatchScore",
    "adjacency_accuracy",
    "auc",
    "average_precision",
    "batch_match_score",
    "mae_lower_tri",
    "rnmse",
    "rnmse_per_row",
    "score_adjacency",
]


def _pair(truth, estimate, names=("x_true", "x_hat")):
    """Both arrays as float64; :class:`ShapeError` unless their shapes agree,
    :class:`NumericError` naming the one that holds a NaN or Inf."""
    pair = (np.asarray(truth, dtype=np.float64),
            np.asarray(estimate, dtype=np.float64))
    if pair[0].shape != pair[1].shape:
        raise ShapeError(f"shape mismatch {pair[0].shape} vs {pair[1].shape}")
    for name, a in zip(names, pair):
        if not np.isfinite(a).all():
            raise NumericError(f"{name} contains NaN or Inf")
    return pair


def rnmse(x_true, x_hat):
    """Root normalized mean squared error ||x - x_hat|| / ||x||."""
    x_true, x_hat = _pair(x_true, x_hat)
    denom = np.linalg.norm(x_true)
    if denom == 0.0:
        raise UndefinedMetricError("RNMSE is undefined for a zero-norm truth")
    return float(np.linalg.norm(x_true - x_hat) / denom)


def rnmse_per_row(x_true, x_hat):
    """Mean of per-row RNMSE values; the reported error for a feature matrix."""
    x_true, x_hat = _pair(x_true, x_hat)
    if x_true.ndim != 2:
        raise ShapeError(f"per-row RNMSE needs (rows, features) matrices, "
                         f"got shape {x_true.shape}")
    norms = np.linalg.norm(x_true, axis=1)
    if np.any(norms == 0.0):
        raise UndefinedMetricError("RNMSE is undefined for a zero-norm feature row")
    errs = np.linalg.norm(x_true - x_hat, axis=1) / norms
    return float(errs.mean())


def _adjacency_pair(a_true, a_est):
    """Both adjacency matrices as float64; :class:`ShapeError` unless they
    are square and of one shape. The one shape rule of the four adjacency
    metrics."""
    pair = (np.asarray(a_true, dtype=np.float64),
            np.asarray(a_est, dtype=np.float64))
    shape = pair[0].shape
    if len(shape) != 2 or shape[0] != shape[1] or pair[1].shape != shape:
        raise ShapeError(f"adjacency matrices must be square and of one "
                         f"shape, got {shape} and {pair[1].shape}")
    return pair


def _check_binary(a, name):
    if not np.all((a == 0.0) | (a == 1.0)):
        raise ShapeError(f"{name} must be binary")
    return a


def adjacency_accuracy(a_true, a_hat):
    """Fraction of matching entries over the full N x N grid."""
    a_true, a_hat = _adjacency_pair(a_true, a_hat)
    _check_binary(a_true, "a_true")
    _check_binary(a_hat, "a_hat")
    return float((a_true == a_hat).mean())


def _lower_tri_values(a, k=-1):
    idx = np.tril_indices(a.shape[0], k=k)
    return np.asarray(a)[idx]


def _average_ranks(values):
    """1-based ranks; tied values share the mean rank of their group."""
    order = np.argsort(values, kind="stable")
    ordered = values[order]
    starts = np.flatnonzero(np.r_[True, ordered[1:] != ordered[:-1]])
    ends = np.r_[starts[1:], values.size]
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((starts + ends + 1) / 2.0, ends - starts)
    return ranks


def auc(a_true, a_scores):
    """Rank-based (Mann-Whitney) AUC over the strict lower triangle.

    ``a_scores`` are the probabilistic adjacency entries; ties receive
    average ranks, so constant scores give 0.5.
    """
    a_true, a_scores = _adjacency_pair(a_true, a_scores)
    labels = _lower_tri_values(_check_binary(a_true, "a_true"))
    scores = _lower_tri_values(a_scores)
    n_pos = int(labels.sum())
    n_neg = labels.size - n_pos
    if n_pos == 0 or n_neg == 0:
        raise UndefinedMetricError("AUC needs both edges and non-edges")
    if not np.all(np.isfinite(scores)):
        raise NumericError("AUC scores contain NaN or Inf")
    ranks = _average_ranks(scores)
    pos_rank_sum = ranks[labels == 1.0].sum()
    return float((pos_rank_sum - n_pos * (n_pos + 1) / 2.0) / (n_pos * n_neg))


def average_precision(a_true, a_hat):
    """Precision TP / (TP + FP) of the predicted edge set (lower triangle)."""
    a_true, a_hat = _adjacency_pair(a_true, a_hat)
    labels = _lower_tri_values(_check_binary(a_true, "a_true"))
    preds = _lower_tri_values(_check_binary(a_hat, "a_hat"))
    predicted = preds == 1.0
    if not np.any(predicted):
        raise UndefinedMetricError("no edges predicted; precision undefined")
    tp = float(np.sum(predicted & (labels == 1.0)))
    return tp / float(predicted.sum())


def mae_lower_tri(a_true, a_hat):
    """Mean absolute difference over the lower triangle including the diagonal."""
    a_true, a_hat = _pair(*_adjacency_pair(a_true, a_hat),
                          ("a_true", "a_hat"))
    lt = _lower_tri_values(np.abs(a_true - a_hat), k=0)
    return float(lt.mean())


@dataclass
class AdjacencyScore:
    accuracy: float
    auc: Optional[float]
    ap: Optional[float]
    mae: float
    mae_thresholded: Optional[float] = None


def score_adjacency(a_true, a_hat, a_prob=None, a_thresholded=None):
    """Bundle the adjacency metrics; AUC/AP are None when undefined.

    ``a_thresholded`` is an alternative binarization of the probabilistic
    matrix whose MAE is reported separately.
    """
    try:
        auc_val = auc(a_true, a_prob if a_prob is not None else a_hat)
    except UndefinedMetricError:
        auc_val = None
    try:
        ap_val = average_precision(a_true, a_hat)
    except UndefinedMetricError:
        ap_val = None
    return AdjacencyScore(
        accuracy=adjacency_accuracy(a_true, a_hat),
        auc=auc_val,
        ap=ap_val,
        mae=mae_lower_tri(a_true, a_hat),
        mae_thresholded=(mae_lower_tri(a_true, a_thresholded)
                         if a_thresholded is not None else None),
    )


@dataclass
class BatchMatchScore:
    mean: float
    min: float
    std: float
    assignment: np.ndarray


def batch_match_score(true_samples, recovered_samples):
    """Hungarian-matched RNMSE between two equally sized sample sets.

    Builds the pairwise RNMSE cost matrix (true sample i vs recovered j),
    finds the minimum-cost assignment, and reports mean/min/std over the
    matched pairs. Resolves the permutation ambiguity of batched recovery.
    Empty or unequal sets raise :class:`ShapeError`.
    """
    b = len(true_samples)
    if b != len(recovered_samples) or b == 0:
        raise ShapeError(f"{b} true vs {len(recovered_samples)} recovered "
                         f"samples; need one or more of each, equally many")
    cost = np.zeros((b, b))
    for i in range(b):
        for j in range(b):
            cost[i, j] = rnmse(true_samples[i], recovered_samples[j])
    perm = hungarian_assign(cost)
    matched = cost[np.arange(b), perm]
    return BatchMatchScore(
        mean=float(matched.mean()),
        min=float(matched.min()),
        std=float(matched.std()),
        assignment=perm,
    )
