"""Graph data model: normalizations, Laplacian, generators, egonets, file IO.

A :class:`Graph` holds a binary symmetric adjacency matrix with a zero
diagonal, a dense feature matrix, optional per-node class labels and an
optional graph-level label. Instances are treated as immutable once built.
"""

import numbers
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import DataFormatError, ShapeError
from .numkit import as_matrix

__all__ = [
    "Graph",
    "NormalizedAdjacency",
    "dummy_tree",
    "er_graph",
    "khop_egonet",
    "laplacian",
    "load_graph",
    "normalize_adjacency",
    "normalize_dense",
    "normalize_dense_backward",
    "save_graph",
    "synthetic_graph",
]

NORM_MODES = ("gcn", "sage-mean")


@dataclass(frozen=True)
class Graph:
    adjacency: np.ndarray
    features: np.ndarray
    labels: Optional[np.ndarray] = None
    graph_label: Optional[int] = None

    def __post_init__(self):
        a = as_matrix(self.adjacency, "adjacency")
        x = as_matrix(self.features, "features")
        if a.shape[0] != a.shape[1]:
            raise ShapeError(f"adjacency must be square, got {a.shape}")
        if x.shape[0] != a.shape[0]:
            raise ShapeError(
                f"features have {x.shape[0]} rows for {a.shape[0]} nodes"
            )
        if not np.array_equal(a, a.T):
            raise ShapeError("adjacency must be symmetric")
        if np.any(np.diag(a) != 0.0):
            raise ShapeError("adjacency diagonal must be zero")
        if not np.all((a == 0.0) | (a == 1.0)):
            raise ShapeError("adjacency entries must be 0 or 1")
        object.__setattr__(self, "adjacency", a)
        object.__setattr__(self, "features", x)
        if self.labels is not None:
            y = np.asarray(self.labels, dtype=np.int64)
            if y.shape != (a.shape[0],):
                raise ShapeError(f"labels shape {y.shape} for {a.shape[0]} nodes")
            if np.any(y < 0):
                raise ShapeError("labels must be non-negative class indices")
            object.__setattr__(self, "labels", y)

    @property
    def num_nodes(self):
        return self.adjacency.shape[0]

    @property
    def feature_dim(self):
        return self.features.shape[1]

    def degrees(self):
        return self.adjacency.sum(axis=1)

    def neighbors(self, node):
        return np.flatnonzero(self.adjacency[node])


@dataclass(frozen=True)
class NormalizedAdjacency:
    """Normalized adjacency operator plus the convention used to build it."""

    matrix: np.ndarray
    mode: str


def _normalize(a, mode):
    """``(normalized, degrees, scale)`` of a dense adjacency.

    gcn: degrees of A + I, scale d^{-1/2} applied on both sides.
    sage-mean: row sums, scale the row divisor (1 for an all-zero row).
    """
    a = np.asarray(a, dtype=np.float64)
    if mode == "gcn":
        m = a + np.eye(a.shape[0])
        d = m.sum(axis=1)
        r = 1.0 / np.sqrt(d)
        return m * r[:, None] * r[None, :], d, r
    if mode == "sage-mean":
        d = a.sum(axis=1)
        safe = np.where(d > 0.0, d, 1.0)
        out = a / safe[:, None]
        out[d <= 0.0] = 0.0
        return out, d, safe
    raise ValueError(f"unknown normalization mode {mode!r}")


def normalize_dense(a, mode):
    """Normalize a dense (possibly non-binary) adjacency matrix.

    gcn: D^{-1/2} (A + I) D^{-1/2} with degrees counted on A + I.
    sage-mean: each row divided by its sum; all-zero rows stay zero.
    """
    return _normalize(a, mode)[0]


def normalize_dense_backward(gbar, a, mode):
    """Pull a gradient on the normalized matrix back onto the raw adjacency.

    ``gbar`` is d(objective)/d(normalized); the return value is
    d(objective)/d(a), accounting for the degree terms.
    """
    return _normalize_backward(np.asarray(gbar, dtype=np.float64),
                               _normalize(a, mode), mode)


def _normalize_backward(gbar, parts, mode):
    """The normalization's backward pass, given the forward's parts.

    ``parts`` is :func:`_normalize`'s ``(normalized, degrees, scale)``; the
    result equals :func:`normalize_dense_backward` bit for bit.
    """
    norm, d, scale = parts
    if mode == "sage-mean":
        # d norm_ij / d a_il = (delta_jl - norm_il) / d_i
        row_dot = (gbar * norm).sum(axis=1)
        out = (gbar - row_dot[:, None]) / scale[:, None]
        out[d <= 0.0] = 0.0
        return out
    gn = gbar * norm
    corr = (gn.sum(axis=1) + gn.sum(axis=0)) / d
    return gbar * scale[:, None] * scale[None, :] - 0.5 * corr[:, None]


def normalize_adjacency(g, mode):
    if mode not in NORM_MODES:
        raise ValueError(f"mode must be one of {NORM_MODES}, got {mode!r}")
    return NormalizedAdjacency(normalize_dense(g.adjacency, mode), mode)


def laplacian(g):
    """Symmetric normalized Laplacian; isolated nodes get identity rows."""
    a = g.adjacency
    d = a.sum(axis=1)
    r = np.where(d > 0.0, 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0)), 0.0)
    return np.eye(a.shape[0]) - a * r[:, None] * r[None, :]


def _attach_features(rng, a, feature_dim, num_classes):
    n = a.shape[0]
    x = rng.standard_normal((n, feature_dim))
    labels = rng.integers(0, num_classes, size=n) if num_classes else None
    return Graph(adjacency=a, features=x, labels=labels)


def er_graph(rng, n, p, feature_dim, num_classes=None):
    """Erdos-Renyi graph: each undirected pair kept with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"edge probability must lie in [0, 1], got {p}")
    a = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    draws = (rng.random(len(iu[0])) < p).astype(np.float64)
    a[iu] = draws
    a = a + a.T
    return _attach_features(rng, a, feature_dim, num_classes)


def synthetic_graph(rng, n, avg_degree, feature_dim, num_classes=None):
    """Random graph with exactly ``floor(avg_degree * n / 2)`` distinct edges.

    Edge endpoints are sampled uniformly without replacement from all pairs;
    features are standard normal and labels uniform over the classes.
    """
    num_edges = int(avg_degree * n) // 2
    max_edges = n * (n - 1) // 2
    if num_edges > max_edges:
        raise ValueError(f"{num_edges} edges requested but only {max_edges} exist")
    a = np.zeros((n, n))
    if num_edges > 0:
        chosen = rng.choice(max_edges, size=num_edges, replace=False)
        iu = np.triu_indices(n, k=1)
        a[iu[0][chosen], iu[1][chosen]] = 1.0
        a = a + a.T
    return _attach_features(rng, a, feature_dim, num_classes)


def dummy_tree(rng, d_tree, feature_dim, num_classes=None):
    """Two-level tree rooted at node 0: d_tree children, d_tree^2 grandchildren.

    Node features are Gaussian-initialized; used as the attacker's dummy graph.
    """
    if d_tree < 1:
        raise ValueError("d_tree must be at least 1")
    n = 1 + d_tree + d_tree * d_tree
    a = np.zeros((n, n))
    for c in range(1, d_tree + 1):
        a[0, c] = a[c, 0] = 1.0
        for k in range(d_tree):
            gc = 1 + d_tree + (c - 1) * d_tree + k
            a[c, gc] = a[gc, c] = 1.0
    return _attach_features(rng, a, feature_dim, num_classes)


def khop_egonet(g, center, k):
    """Induced subgraph on nodes within BFS distance k of ``center``.

    Returns the subgraph plus the map from subgraph indices to original
    indices; the center always maps to subgraph index 0.
    """
    n = g.num_nodes
    if not 0 <= center < n:
        raise ShapeError(f"center {center} out of range for {n} nodes")
    if isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 0:
        raise ValueError(f"hop count must be a non-negative integer, got {k!r}")
    dist = np.full(n, -1, dtype=np.int64)
    dist[center] = 0
    queue = deque([center])
    order = [center]
    while queue:
        u = queue.popleft()
        if dist[u] == k:
            continue
        for v in g.neighbors(u):
            if dist[v] < 0:
                dist[v] = dist[u] + 1
                queue.append(v)
                order.append(v)
    index_map = np.array(order, dtype=np.int64)
    sub_a = g.adjacency[np.ix_(index_map, index_map)]
    sub_x = g.features[index_map]
    sub_y = g.labels[index_map] if g.labels is not None else None
    sub = Graph(adjacency=sub_a, features=sub_x, labels=sub_y,
                graph_label=g.graph_label)
    return sub, index_map


def _parse_edge_line(raw, line_no, path, n):
    parts = raw.replace(",", " ").split()
    if len(parts) != 2:
        raise DataFormatError(
            f"expected two node indices, got {raw!r}", path=path, line=line_no
        )
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError:
        raise DataFormatError(
            f"non-integer node index in {raw!r}", path=path, line=line_no
        ) from None
    if not (0 <= i < n and 0 <= j < n):
        raise DataFormatError(
            f"node index out of range in {raw!r} (n={n})", path=path, line=line_no
        )
    return i, j


def load_graph(feature_file, edge_file, label_file=None):
    """Build a graph from a feature CSV, an edge list and an optional label file.

    Feature CSV: one node per row, comma-separated floats. Edge list: one
    "i j" pair per line (0-based, comma or whitespace separated); duplicates
    and reversed pairs collapse to a single undirected edge. Label file: one
    non-negative integer per line, one per node.
    """
    rows = []
    width = None
    with open(feature_file, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            try:
                row = [float(tok) for tok in raw.split(",")]
            except ValueError:
                raise DataFormatError(
                    "non-numeric feature value", path=feature_file, line=line_no
                ) from None
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise DataFormatError(
                    f"expected {width} features, got {len(row)}",
                    path=feature_file, line=line_no,
                )
            rows.append(row)
    if not rows:
        raise DataFormatError("feature file is empty", path=feature_file)
    x = np.array(rows, dtype=np.float64)
    n = x.shape[0]

    a = np.zeros((n, n))
    with open(edge_file, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if not raw:
                continue
            i, j = _parse_edge_line(raw, line_no, edge_file, n)
            if i != j:
                a[i, j] = a[j, i] = 1.0

    labels = None
    if label_file is not None:
        vals = []
        with open(label_file, "r", encoding="utf-8") as fh:
            for line_no, raw in enumerate(fh, start=1):
                raw = raw.strip()
                if not raw:
                    continue
                try:
                    vals.append(int(raw))
                except ValueError:
                    raise DataFormatError(
                        f"non-integer label {raw!r}", path=label_file, line=line_no
                    ) from None
                if vals[-1] < 0:
                    raise DataFormatError(f"negative label {vals[-1]}",
                                          path=label_file, line=line_no)
        if len(vals) != n:
            raise DataFormatError(
                f"{len(vals)} labels for {n} feature rows", path=label_file
            )
        labels = np.array(vals, dtype=np.int64)
    return Graph(adjacency=a, features=x, labels=labels)


def save_graph(g, feature_file, edge_file, label_file=None):
    """Write a graph in the format that :func:`load_graph` reads."""
    with open(feature_file, "w", encoding="utf-8") as fh:
        for row in g.features:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    with open(edge_file, "w", encoding="utf-8") as fh:
        ii, jj = np.nonzero(np.triu(g.adjacency, k=1))
        for i, j in zip(ii, jj):
            fh.write(f"{i} {j}\n")
    if label_file is not None:
        if g.labels is None:
            raise ValueError("graph has no labels to save")
        with open(label_file, "w", encoding="utf-8") as fh:
            for y in g.labels:
                fh.write(f"{int(y)}\n")
