"""Closed-form recoveries from first-layer gradient bundles.

Each first-layer weight-gradient row is the bias-gradient entry times the
layer's input vector, so ratios of rows to bias entries reproduce that
input exactly. Stacking per-node recoveries turns the aggregation identity
``X_agg = Anorm @ X`` into a linear system that yields the normalized
adjacency (given features), the features (given the adjacency), or both
(GraphSAGE, whose self weight exposes the raw features as well).

For the graph task the same information is spread over all nodes; the
matrix chain below untangles it whenever the feature matrix has full row
rank and the hidden width is at least the node count.
"""

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import PartialRecoveryError, ShapeError, UnrecoverableError
from .models import FRAMEWORKS
from .numkit import least_squares, pseudoinverse

__all__ = [
    "MatrixRecovery",
    "recover_adjacency_given_features",
    "recover_adjacency_graph_sage",
    "recover_agg_features",
    "recover_both_sage",
    "recover_features_given_adjacency",
    "recover_target_features",
]

# Bias-gradient entries below this are unusable as ratio denominators.
EPS_DIV = 1e-12

# Relative singular-value threshold under which a recovery gets a
# conditioning warning attached instead of a silent bad answer.
RANK_TOL = 1e-8


def _row_ratio(weight_grad, bias_grad):
    """Average of weight-gradient rows divided by their bias entries.

    Exact on noiseless bundles; averaging over all usable rows only damps
    floating-point noise.
    """
    valid = np.abs(bias_grad) > EPS_DIV
    if not np.any(valid):
        raise UnrecoverableError("all bias-gradient entries are (near) zero")
    ratios = weight_grad[valid] / bias_grad[valid][:, None]
    return ratios.mean(axis=0)


def recover_agg_features(bundle, framework):
    """Aggregated input of the sample's target node, from one bundle.

    Uses the aggregation-path weight gradient: the single conv weight for
    gcn, the neighbor-aggregation weight for sage.
    """
    t = bundle.tensors
    if framework not in FRAMEWORKS:
        raise ShapeError(f"unknown framework {framework!r}")
    if framework == "gcn" and "conv1_self" in t:
        raise ShapeError("bundle has a self-path tensor; not a gcn bundle")
    if framework == "sage" and "conv1_self" not in t:
        raise ShapeError("sage bundle lacks the self-path tensor")
    return _row_ratio(t["conv1_agg"], t["conv1_bias"])


def recover_target_features(bundle):
    """Raw feature vector of the sample's target node (sage only)."""
    t = bundle.tensors
    if "conv1_self" not in t:
        raise ShapeError("target-feature recovery needs the sage self weight")
    return _row_ratio(t["conv1_self"], t["conv1_bias"])


@dataclass
class MatrixRecovery:
    """A recovered matrix plus how trustworthy the inversion was."""

    matrix: np.ndarray
    residual: float
    warning: Optional[str] = None


def _rank_warning(m, name, need):
    if min(m.shape) < need:
        return f"{name} is rank-deficient; recovery is a least-squares guess"
    s = np.linalg.svd(m, compute_uv=False)
    if s.size == 0 or s[0] == 0.0 or s[-1] / s[0] < RANK_TOL:
        return f"{name} is rank-deficient; recovery is a least-squares guess"
    return None


def recover_adjacency_given_features(x_agg, x):
    """Normalized adjacency from aggregated and raw features: solve Anorm X = X_agg.

    Exact when X has full row rank (at least as many feature columns as
    nodes); otherwise the minimum-norm solution comes back with a warning
    and a nonzero residual.
    """
    x_agg = np.asarray(x_agg, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    if x_agg.shape != x.shape:
        raise ShapeError("aggregated and raw feature shapes differ")
    anorm = x_agg @ pseudoinverse(x)
    residual = float(np.linalg.norm(anorm @ x - x_agg))
    warning = _rank_warning(x, "feature matrix", x.shape[0])
    return MatrixRecovery(matrix=anorm, residual=residual, warning=warning)


def recover_features_given_adjacency(x_agg, anorm):
    """Features from aggregated features and the normalized adjacency.

    Solves ``anorm @ X = X_agg`` for the minimum-norm X. Exact when the
    adjacency operator has full column rank.
    """
    x_agg = np.asarray(x_agg, dtype=np.float64)
    anorm = np.asarray(anorm, dtype=np.float64)
    if anorm.shape[0] != x_agg.shape[0]:
        raise ShapeError("adjacency and aggregated features disagree on N")
    x = pseudoinverse(anorm) @ x_agg
    residual = float(np.linalg.norm(anorm @ x - x_agg))
    warning = _rank_warning(anorm, "adjacency operator", anorm.shape[1])
    return MatrixRecovery(matrix=x, residual=residual, warning=warning)


def recover_both_sage(bundles):
    """Features and normalized adjacency from per-node sage bundles alone.

    Row i of X comes from bundle i's self-path ratio, row i of X_agg from
    its aggregation-path ratio; the adjacency then follows from
    ``Anorm X = X_agg``. Nodes whose bias gradients vanish are reported
    together in a partial-failure error.
    """
    xs, aggs, failed = [], [], []
    for i, b in enumerate(bundles):
        try:
            xs.append(recover_target_features(b))
            aggs.append(recover_agg_features(b, "sage"))
        except UnrecoverableError:
            failed.append(i)
    if failed:
        raise PartialRecoveryError("per-node recovery failed", failed)
    x = np.vstack(xs)
    x_agg = np.vstack(aggs)
    rec = recover_adjacency_given_features(x_agg, x)
    return x, rec


def recover_adjacency_graph_sage(bundle, x):
    """Normalized adjacency from one graph-task sage bundle plus known features.

    Chain: the self-path weight gradient equals X^T G for the first layer's
    pre-activation gradient G, so G = pinv(X^T) dW_self^T; the aggregation
    path gives (Anorm X)^T G = dW_agg^T, solved for Anorm X by least
    squares; dividing out X yields Anorm. Exact when X has full row rank
    and G has rank N (hidden width >= N).
    """
    t = bundle.tensors
    if "conv1_self" not in t:
        raise ShapeError("graph-task adjacency chain needs the sage self weight")
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[0]
    g = pseudoinverse(x.T) @ t["conv1_self"].T          # (N, F)
    agg = least_squares(g.T, t["conv1_agg"])             # Anorm X, (N, D)
    anorm = agg @ pseudoinverse(x)
    residual = float(
        np.linalg.norm(x.T @ g - t["conv1_self"].T)
        + np.linalg.norm(agg.T @ g - t["conv1_agg"].T)
    )
    warning = _rank_warning(x, "feature matrix", n) or _rank_warning(
        g, "pre-activation gradient", n
    )
    return MatrixRecovery(matrix=anorm, residual=residual, warning=warning)
