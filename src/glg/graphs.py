"""Graph data model: normalizations, Laplacian, generators, egonets, file IO.

A :class:`Graph` holds a binary symmetric adjacency matrix with a zero
diagonal, a dense feature matrix, optional per-node class labels and an
optional graph-level label. Instances are treated as immutable once built.
"""

import functools
from collections import deque
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (ConfigError, DataFormatError, ShapeError, check_indices,
                     check_int, check_real)
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
        a = np.asarray(self.adjacency, dtype=np.float64)
        # a square symmetric matrix of 0s and 1s is finite, and of its
        # entries only the diagonal is left to check; any other input goes
        # through every check, in order
        valid = (a.ndim == 2 and a.shape[0] == a.shape[1]
                 and _binary_symmetric(a))
        if not valid:
            a = as_matrix(a, "adjacency")
        x = as_matrix(self.features, "features")
        if a.shape[0] != a.shape[1]:
            raise ShapeError(f"adjacency must be square, got {a.shape}")
        if x.shape[0] != a.shape[0]:
            raise ShapeError(
                f"features have {x.shape[0]} rows for {a.shape[0]} nodes"
            )
        if not (valid or np.array_equal(a, a.T)):
            raise ShapeError("adjacency must be symmetric")
        if np.any(a.diagonal() != 0.0):
            raise ShapeError("adjacency diagonal must be zero")
        if not (valid or np.all((a == 0.0) | (a == 1.0))):
            raise ShapeError("adjacency entries must be 0 or 1")
        object.__setattr__(self, "adjacency", a)
        object.__setattr__(self, "features", x)
        if self.labels is not None:
            y = check_indices(self.labels, "label")
            if y.shape != (a.shape[0],):
                raise ShapeError(f"labels shape {y.shape} for {a.shape[0]} nodes")
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


# rows of a square matrix that _binary_symmetric reads at once
_SCAN_ROWS = 256


def _binary_symmetric(a):
    """Whether the square float64 ``a`` equals its transpose and holds only
    0s and 1s.

    One pass over blocks of ``_SCAN_ROWS`` rows, each read up to the end of
    its diagonal block, so every temporary holds a block, not the matrix.
    A block must equal the transpose of the matching column strip, and its
    nonzero count must equal its count of ones (NaN and Inf are nonzero).
    The blocks cover every entry on and below the diagonal, which a
    symmetric matrix mirrors above it.
    """
    for i in range(0, a.shape[0], _SCAN_ROWS):
        j = i + _SCAN_ROWS
        left = a[i:j, :j]
        if not (np.array_equal(a[:j, i:j], left.T)
                and np.count_nonzero(left) == np.count_nonzero(left == 1.0)):
            return False
    return True


@dataclass(frozen=True)
class NormalizedAdjacency:
    """Normalized adjacency operator plus the convention used to build it."""

    matrix: np.ndarray
    mode: str


@functools.lru_cache(maxsize=8)
def _identity(n):
    """A read-only (n, n) identity, made once per size."""
    eye = np.eye(n)
    eye.flags.writeable = False
    return eye


def normalize_dense(a, mode, out=None):
    """Normalize a dense (possibly non-binary) adjacency matrix.

    gcn: D^{-1/2} (A + I) D^{-1/2} with degrees d counted on A + I; the
    scale is d^{-1/2}. sage-mean: each row divided by its sum d, which is
    the scale; a row whose sum is not positive stays zero, with scale 1.
    Without ``out`` returns a new normalized matrix. ``out`` is a
    ``(normalized, degrees, scale)`` triple of float64 buffers of shapes
    (n, n), (n,) and (n,), which an attack allocates once: the pass
    refills all three in place and returns ``normalized``, and the triple
    is the ``parts`` that :func:`normalize_dense_backward` reads. Either
    way the normalized matrix has the same bits. Any other mode raises
    :class:`ConfigError`.
    """
    a = np.asarray(a, dtype=np.float64)
    n = a.shape[0]
    if out is None:
        out = (np.empty((n, n)), np.empty(n), np.empty(n))
    norm, d, scale = out
    if mode == "gcn":
        np.add(a, _identity(n), out=norm)  # A + I
        np.add.reduce(norm, axis=1, out=d)
        np.sqrt(d, out=scale)
        np.divide(1.0, scale, out=scale)
        np.multiply(norm, scale[:, None], out=norm)
        return np.multiply(norm, scale, out=norm)
    if mode == "sage-mean":
        np.add.reduce(a, axis=1, out=d)
        empty = d <= 0.0
        np.copyto(scale, d)
        np.copyto(scale, 1.0, where=empty)
        np.divide(a, scale[:, None], out=norm)
        np.copyto(norm, 0.0, where=empty[:, None])
        return norm
    raise ConfigError(f"mode must be one of {NORM_MODES}, got {mode!r}",
                      "mode")


def normalize_dense_backward(gbar, parts, mode, out=None):
    """Pull a gradient on the normalized matrix back onto the raw adjacency.

    ``gbar`` is d(objective)/d(normalized), a float64 array, and ``parts``
    the ``(normalized, degrees, scale)`` triple that :func:`normalize_dense`
    filled in the forward pass; the return value is d(objective)/d(a),
    degree terms included. It is written into ``out``, an (n, n) float64
    buffer other than ``gbar``, when given, and into a new array otherwise.
    """
    norm, d, scale = parts
    if out is None:
        out = np.empty_like(norm)
    np.multiply(gbar, norm, out=out)
    if mode == "sage-mean":
        # d norm_ij / d a_il = (delta_jl - norm_il) / d_i
        row_dot = np.add.reduce(out, axis=1, keepdims=True)
        np.subtract(gbar, row_dot, out=out)
        np.divide(out, scale[:, None], out=out)
        np.copyto(out, 0.0, where=(d <= 0.0)[:, None])
        return out
    corr = np.add.reduce(out, axis=1)
    corr += np.add.reduce(out, axis=0)
    corr /= d
    corr *= 0.5
    np.multiply(gbar, scale[:, None], out=out)
    np.multiply(out, scale, out=out)
    return np.subtract(out, corr[:, None], out=out)


def normalize_adjacency(g, mode):
    return NormalizedAdjacency(normalize_dense(g.adjacency, mode), mode)


def laplacian(g):
    """Symmetric normalized Laplacian; isolated nodes get identity rows."""
    a = g.adjacency
    d = a.sum(axis=1)
    r = np.where(d > 0.0, 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0)), 0.0)
    return np.eye(a.shape[0]) - a * r[:, None] * r[None, :]


def _attach_features(rng, a, feature_dim, num_classes):
    check_int(feature_dim, "feature_dim", 1)
    n = a.shape[0]
    x = rng.standard_normal((n, feature_dim))
    labels = rng.integers(0, num_classes, size=n) if num_classes else None
    return Graph(adjacency=a, features=x, labels=labels)


def _pair_nodes(n, index):
    """Endpoints ``(i, j)``, i < j, of the node pairs numbered ``index`` in
    the order ``np.triu_indices(n, 1)`` lists them: row i's pairs start at
    i*n - i*(i+1)/2."""
    rows = np.arange(n - 1)
    starts = rows * n - rows * (rows + 1) // 2
    i = np.searchsorted(starts, index, side="right") - 1
    return i, index - starts[i] + i + 1


def er_graph(rng, n, p, feature_dim, num_classes=None):
    """Erdos-Renyi graph: each undirected pair kept with probability p, one
    uniform draw per pair in ``np.triu_indices(n, 1)`` order."""
    check_int(n, "n", 1)
    check_real(p, "p")
    if not 0.0 <= p <= 1.0:
        raise ConfigError(f"edge probability must lie in [0, 1], got {p}", "p")
    a = np.zeros((n, n))
    i, j = _pair_nodes(n, np.flatnonzero(rng.random(n * (n - 1) // 2) < p))
    a[i, j] = a[j, i] = 1.0
    return _attach_features(rng, a, feature_dim, num_classes)


def synthetic_graph(rng, n, avg_degree, feature_dim, num_classes=None):
    """Random graph with exactly ``floor(avg_degree * n / 2)`` distinct edges.

    Edge endpoints are sampled uniformly without replacement from all pairs,
    numbered as ``np.triu_indices(n, 1)`` orders them; features are standard
    normal and labels uniform over the classes.
    """
    check_int(n, "n", 1)
    check_real(avg_degree, "avg_degree")
    if not 0.0 <= avg_degree < np.inf:
        raise ConfigError(f"must be finite and non-negative, got {avg_degree}",
                          "avg_degree")
    num_edges = int(avg_degree * n) // 2
    max_edges = n * (n - 1) // 2
    if num_edges > max_edges:
        raise ConfigError(f"{num_edges} edges requested but only {max_edges} "
                          f"exist", "avg_degree")
    a = np.zeros((n, n))
    if num_edges > 0:
        chosen = rng.choice(max_edges, size=num_edges, replace=False)
        i, j = _pair_nodes(n, chosen)
        a[i, j] = a[j, i] = 1.0
    return _attach_features(rng, a, feature_dim, num_classes)


def dummy_tree(rng, d_tree, feature_dim):
    """Two-level tree rooted at node 0: d_tree children, d_tree^2 grandchildren.

    Node features are Gaussian-initialized; used as the attacker's dummy graph.
    """
    check_int(d_tree, "d_tree", 1)
    n = 1 + d_tree + d_tree * d_tree
    # child c's grandchildren are the d_tree nodes from 1 + c * d_tree on
    parent = np.concatenate((np.zeros(d_tree, dtype=np.int64),
                             np.repeat(np.arange(1, d_tree + 1), d_tree)))
    child = np.arange(1, n)
    a = np.zeros((n, n))
    a[parent, child] = a[child, parent] = 1.0
    return _attach_features(rng, a, feature_dim, None)


def khop_egonet(g, center, k):
    """Induced subgraph on nodes within BFS distance k of ``center``.

    Returns the subgraph plus the map from subgraph indices to original
    indices; the center always maps to subgraph index 0.
    """
    n = g.num_nodes
    # a one-element list, so that a vector of centers is refused too
    center = int(check_indices([center], "center", n, "nodes")[0])
    check_int(k, "k", 0)
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


def _records(path):
    """``(line number, stripped line)`` for each non-blank line of a text file."""
    with open(path, "r", encoding="utf-8") as fh:
        for line_no, raw in enumerate(fh, start=1):
            raw = raw.strip()
            if raw:
                yield line_no, raw


def _parse_edge_line(raw, line_no, path, n):
    parts = raw.replace(",", " ").split()
    if len(parts) != 2:
        raise DataFormatError(f"expected two node indices, got {raw!r}",
                              path=path, line=line_no)
    try:
        i, j = int(parts[0]), int(parts[1])
    except ValueError:
        raise DataFormatError(f"non-integer node index in {raw!r}",
                              path=path, line=line_no) from None
    if not (0 <= i < n and 0 <= j < n):
        raise DataFormatError(f"node index out of range in {raw!r} (n={n})",
                              path=path, line=line_no)
    return i, j


def load_graph(feature_file, edge_file, label_file=None):
    """Build a graph from a feature CSV, an edge list and an optional label file.

    Feature CSV: one node per row, comma-separated floats. Edge list: one
    "i j" pair per line (0-based, comma or whitespace separated); duplicates
    and reversed pairs collapse to a single undirected edge. Label file: one
    non-negative integer per line, one per node.
    """
    rows = []
    for line_no, raw in _records(feature_file):
        try:
            row = [float(tok) for tok in raw.split(",")]
        except ValueError:
            raise DataFormatError("non-numeric feature value",
                                  path=feature_file, line=line_no) from None
        if rows and len(row) != len(rows[0]):
            raise DataFormatError(f"expected {len(rows[0])} features, got "
                                  f"{len(row)}", path=feature_file, line=line_no)
        rows.append(row)
    if not rows:
        raise DataFormatError("feature file is empty", path=feature_file)
    x = np.array(rows, dtype=np.float64)
    n = x.shape[0]

    a = np.zeros((n, n))
    for line_no, raw in _records(edge_file):
        i, j = _parse_edge_line(raw, line_no, edge_file, n)
        if i != j:
            a[i, j] = a[j, i] = 1.0

    labels = None
    if label_file is not None:
        vals = []
        for line_no, raw in _records(label_file):
            try:
                vals.append(int(raw))
            except ValueError:
                raise DataFormatError(f"non-integer label {raw!r}",
                                      path=label_file, line=line_no) from None
            if vals[-1] < 0:
                raise DataFormatError(f"negative label {vals[-1]}",
                                      path=label_file, line=line_no)
        if len(vals) != n:
            raise DataFormatError(f"{len(vals)} labels for {n} feature rows",
                                  path=label_file)
        labels = np.array(vals, dtype=np.int64)
    return Graph(adjacency=a, features=x, labels=labels)


def save_graph(g, feature_file, edge_file, label_file=None):
    """Write a graph in the format that :func:`load_graph` reads.

    A label file for a graph without labels raises :class:`ConfigError`
    before any file is opened.
    """
    if label_file is not None and g.labels is None:
        raise ConfigError("graph has no labels to save", "label_file")
    with open(feature_file, "w", encoding="utf-8") as fh:
        for row in g.features:
            fh.write(",".join(repr(float(v)) for v in row) + "\n")
    with open(edge_file, "w", encoding="utf-8") as fh:
        ii, jj = np.nonzero(np.triu(g.adjacency, k=1))
        for i, j in zip(ii, jj):
            fh.write(f"{i} {j}\n")
    if label_file is not None:
        with open(label_file, "w", encoding="utf-8") as fh:
            for y in g.labels:
                fh.write(f"{int(y)}\n")
