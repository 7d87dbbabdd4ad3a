"""Forward passes and hand-derived gradients for the two GNN classifiers.

Node task: one graph-convolution layer (sigmoid) followed by a linear
readout at the target node. With this head, the loss reaches the first
layer's weights only through the target's own pre-activation, which is what
makes the closed-form feature recoveries exact. Graph task: two
graph-convolution layers (sigmoid), row-major flattening, and a linear MLP
readout over the whole graph.

Both tasks come in a "gcn" flavour (single weight on the aggregated input,
self-loop normalization) and a "sage" flavour (separate aggregation and
self weights, mean normalization).

It is the one home of the model's tensor layout, which :func:`init_params`
draws from and :class:`ModelParams` checks against, and of the bundle
layout, the model's tensors in :data:`PARAM_ORDER`: :func:`bundle_rows`,
:func:`bundle_views` and :func:`split_bundles` convert between per-sample
bundles, (S, ...) stacks and (S, P) flat rows.

Besides plain backward passes (the parameter gradient bundles a federated
server would see) and the loss's input gradients (``*_input_grads``), this
module computes batch means of bundles directly, one pass per task; a
single sample is a batch of one. Only :func:`node_bundles` with
``per_sample`` builds per-sample stacks, for node2's per-node leak and the
node2 attacks that match it row by row. It also computes the gradient of
``<bundle, V>`` with respect to the input features and the normalized
adjacency for a constant co-vector ``V``. That second-order pass is what
the iterative gradient-matching attacks differentiate through.

Array convention: an optional leading sample axis is supported everywhere;
``x`` may be (N, D) or (B, N, D), the normalized adjacency (N, N), or (B,
N, N) for a graph batch. Each task's forward pass records a trace, built
once per attack and refilled in place by ``node_ctx(..., out=trace)`` /
``graph_ctx(..., out=trace)``. A trace holds its buffers, its labels'
one-hot rows and every view the passes multiply by, made when it is built
(those of x and anorm when they are bound); the dummy bundle and the
co-vector are :class:`Stacks`, made once too. So an attack iteration runs
numpy calls only. A trace holds no weights: every pass reads them from the
model on every call. A :class:`NodeTrace` holds one (rows, width) buffer per
intermediate, one row per target, so each weight and shared co-vector
product is one 2-D ``np.dot``. A :class:`GraphTrace` keeps a batch's
per-node arrays in (B*N, width) row buffers: at B = 1 each product is one
2-D ``np.dot`` on the rows, for B > 1 one ``np.matmul`` per sample on (B,
N, width) views, so every sample keeps the bits it has alone.
"""

from dataclasses import dataclass, replace
from types import SimpleNamespace
from typing import Optional

import numpy as np

from .errors import (AmbiguousLabelError, ConfigError, NumericError,
                     ShapeError, check_indices, check_int)
from .graphs import Graph, NormalizedAdjacency

__all__ = [
    "GradientBundle",
    "GraphTrace",
    "ModelParams",
    "NodeTrace",
    "backward_graph",
    "backward_node",
    "check_labels",
    "check_targets",
    "forward_graph",
    "forward_node",
    "infer_label",
    "init_params",
    "softmax",
]

FRAMEWORKS = ("gcn", "sage")
TASKS = ("node", "graph")

# Canonical tensor order: the layout of a bundle's flat row.
PARAM_ORDER = (
    "conv1_agg",
    "conv1_self",
    "conv1_bias",
    "conv2_agg",
    "conv2_self",
    "conv2_bias",
    "out_weight",
    "out_bias",
    "mlp_weight",
    "mlp_bias",
)

# the one rule for a model's and a bundle's tensor names and their order
_PARAM_NAMES = property(lambda self: [k for k in PARAM_ORDER
                                      if k in self.tensors])


def _tensor_layout(framework, task, feature_dim, hidden_dim, num_classes,
                   num_nodes=None):
    """The model's ``(name, shape, fan_in)`` rows in :data:`PARAM_ORDER`;
    an unknown name or a dimension that is not an integer >= 1 raises
    :class:`ConfigError`."""
    for field, value, known in (("framework", framework, FRAMEWORKS),
                                ("task", task, TASKS)):
        if value not in known:
            raise ConfigError(f"must be one of {known}, got {value!r}", field)
    sage, node, graph = framework == "sage", task == "node", task == "graph"
    for name, value in zip(("feature_dim", "hidden_dim", "num_classes",
                            "num_nodes")[:3 + graph],
                           (feature_dim, hidden_dim, num_classes, num_nodes)):
        check_int(value, name, 1)
    d, f, k = feature_dim, hidden_dim, num_classes
    flat = num_nodes * f if graph else None
    rows = (("conv1_agg", (f, d), d, True),
            ("conv1_self", (f, d), d, sage),
            ("conv1_bias", (f,), d, True),
            ("conv2_agg", (f, f), f, graph),
            ("conv2_self", (f, f), f, sage and graph),
            ("conv2_bias", (f,), f, graph),
            ("out_weight", (k, f), f, node),
            ("out_bias", (k,), f, node),
            ("mlp_weight", (k, flat), flat, graph),
            ("mlp_bias", (k,), flat, graph))
    return [row[:3] for row in rows if row[3]]


def _check_congruent(tensors, shapes, what, of):
    """Raise :class:`ShapeError`, naming the tensor, unless ``tensors`` holds
    exactly the names of ``shapes`` (name: shape), each in its shape."""
    for k in [k for k in tensors if k not in shapes] + list(shapes):
        if k not in shapes or k not in tensors:
            raise ShapeError(f"{what} is not congruent with the {of}: {k} is "
                             f"not in the {of if k in tensors else what}")
        if np.shape(tensors[k]) != shapes[k]:
            raise ShapeError(f"{what} is not congruent with the {of}: {k} "
                             f"has shape {np.shape(tensors[k])}, the {of}'s "
                             f"{shapes[k]}")


@dataclass
class ModelParams:
    """Parameter tensors of one classifier, keyed by canonical names; made
    float64 and checked against the layout :func:`init_params` draws from."""

    framework: str
    task: str
    feature_dim: int
    hidden_dim: int
    num_classes: int
    tensors: dict
    num_nodes: Optional[int] = None  # graph task: node count the MLP expects

    def __post_init__(self):
        layout = _tensor_layout(self.framework, self.task, self.feature_dim,
                                self.hidden_dim, self.num_classes,
                                self.num_nodes)
        self.tensors = {k: np.asarray(v, dtype=np.float64)
                        for k, v in self.tensors.items()}
        _check_congruent(self.tensors, {k: shape for k, shape, _ in layout},
                         "model", "layout")
        for k, v in self.tensors.items():
            if not np.isfinite(v).all():
                raise NumericError(f"model tensor {k} contains NaN or Inf")

    @property
    def norm_mode(self):
        return "gcn" if self.framework == "gcn" else "sage-mean"

    param_names = _PARAM_NAMES

    def copy(self):
        return replace(self, tensors={k: v.copy()
                                      for k, v in self.tensors.items()})


def init_params(rng, framework, task, feature_dim, hidden_dim, num_classes,
                num_nodes=None):
    """Gaussian init, std 1/sqrt(fan_in) per tensor, drawn in the layout's
    order."""
    dims = (framework, task, feature_dim, hidden_dim, num_classes)
    tensors = {k: rng.standard_normal(shape) / np.sqrt(fan_in)
               for k, shape, fan_in in _tensor_layout(*dims, num_nodes)}
    return ModelParams(*dims, tensors, num_nodes)


@dataclass
class GradientBundle:
    """Gradients of one loss w.r.t. every parameter tensor (same shapes)."""

    tensors: dict
    param_names = _PARAM_NAMES


def bundle_rows(params, bundles):
    """The (S, P) flat rows of S bundles, each first checked against the
    model's tensors: a row is every tensor raveled, in the model's order."""
    names = params.param_names
    for b in bundles:
        _check_congruent(b.tensors, {k: params.tensors[k].shape
                                     for k in names}, "bundle", "model")
    return np.array([np.concatenate([np.ravel(b.tensors[k]) for k in names])
                     for b in bundles])


class Stacks(dict):
    """Per-tensor (S, *shape) stacks keyed by tensor name, and the forms
    the passes read: ``shared`` (S = 1) and, then, ``entry``, each
    tensor's one entry, and ``entry_t``, the 2-D ones' transposes."""

    def __init__(self, stacks):
        super().__init__(stacks)
        self.shared = len(next(iter(self.values()))) == 1
        self.entry = {k: s[0] for k, s in self.items()} if self.shared else {}
        self.entry_t = {k: e.T for k, e in self.entry.items() if e.ndim == 2}


def bundle_views(params, rows):
    """The :class:`Stacks` of (S, P) rows laid out as :func:`bundle_rows`
    lays them, in the model's order: each stack a view into ``rows``."""
    names = params.param_names
    ends = np.cumsum([params.tensors[k].size for k in names])
    return Stacks({k: part.reshape(rows.shape[:1] + params.tensors[k].shape)
                   for k, part in zip(names, np.split(rows, ends[:-1], axis=1))})


def _new_stacks(params, count):
    """The :class:`Stacks` of ``count`` new, unfilled bundle rows."""
    return bundle_views(params, np.empty(
        (count, sum(params.tensors[k].size for k in params.param_names))))


def split_bundles(stacks):
    """One :class:`GradientBundle` per entry of the stacks' leading axis; each
    tensor is a view into its stack."""
    return [GradientBundle(tensors=dict(zip(stacks, entry)))
            for entry in zip(*stacks.values())]


def softmax(logits, out=None):
    # the ufunc reductions give np.max's and .sum's bits without their
    # Python wrappers
    e = np.subtract(logits, np.maximum.reduce(logits, axis=-1, keepdims=True),
                    out=out)
    np.exp(e, out=e)
    e /= np.add.reduce(e, axis=-1, keepdims=True)
    return e


def _sigmoid(z, out=None, tmp=None):
    """The logistic function of ``z``, in ``out`` (which may be ``z``).

    ``tmp``, an array of z's shape, is scratch; without it one is allocated.
    """
    # exp of a non-positive argument never overflows. The numerator is
    # exp(min(z, 0)): exactly 1 for z >= 0 and e itself for z < 0, so the
    # quotient has the bits of the masked form 1/(1+exp(-z)) for z >= 0 and
    # exp(z)/(1+exp(z)) for z < 0, without np.where's scalar broadcast
    e = np.abs(z, out=tmp)
    np.negative(e, out=e)
    np.exp(e, out=e)
    e += 1.0
    num = np.minimum(z, 0.0, out=out)
    np.exp(num, out=num)
    num /= e
    return num


def _ce_rows(logits, labels):
    z = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    return lse - z[np.arange(z.shape[0]), labels]


def check_labels(labels, num_classes):
    """The one label rule, which both traces apply when they are built:
    labels are integer class indices, by :func:`~glg.errors.check_indices`."""
    return check_indices(labels, "label", num_classes, "classes")


def check_targets(targets, n):
    """The one target rule, which a node trace applies when it is built:
    integer node indices into ``n`` nodes, by :func:`~glg.errors.check_indices`."""
    return check_indices(targets, "target", n, "nodes")


def onehot(labels, num_classes):
    """One-hot rows of ``labels``; ``softmax - onehot`` is the logit gradient
    of cross-entropy."""
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _softmax_adjoint(q, qbar, out=None):
    """The logits' adjoint of ``q = softmax(logits)`` given q's adjoint
    ``qbar``, computed in ``out`` when given (which may be ``qbar``)."""
    p = np.multiply(q, qbar, out=out)
    p -= np.add.reduce(p, axis=-1, keepdims=True) * q
    return p


def _times_one_minus_twice(s, h, out=None):
    """``s * (1 - 2 h)``, in ``out`` when given: the sigmoid's second
    derivative term."""
    out = np.multiply(h, 2.0, out=out)
    np.subtract(1.0, out, out=out)
    out *= s
    return out


def _check_norm(params, anorm):
    if isinstance(anorm, NormalizedAdjacency):
        if anorm.mode != params.norm_mode:
            raise ShapeError(
                f"normalization mode {anorm.mode!r} does not match "
                f"framework {params.framework!r}"
            )
        return anorm.matrix
    return anorm


def _model_inputs(params, task, x, anorm):
    """``x`` and ``anorm`` as float64, once ``params`` is a ``task`` model
    and ``x`` is (N, D) or (B, N, D) with the model's width D."""
    if params.task != task:
        raise ShapeError(f"params are not a {task}-task model")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim not in (2, 3) or x.shape[-1] != params.feature_dim:
        raise ShapeError(f"features {x.shape} for a model that expects "
                         f"(N, {params.feature_dim}) or (B, N, "
                         f"{params.feature_dim})")
    return x, np.asarray(anorm, dtype=np.float64)


def _refill(ctx, x, anorm, holds):
    """``ctx`` bound to new inputs under both traces' refill rule: float64
    ``x`` and ``anorm`` of the shapes it was built for, unconverted, and
    ``holds``, the caller passed the very ``ctx._held`` arrays; otherwise
    :class:`ShapeError`, shapes checked first."""
    if x.shape != ctx._shapes[0] or anorm.shape != ctx._shapes[1]:
        raise ShapeError(f"trace holds features {ctx._shapes[0]} and "
                         f"adjacency {ctx._shapes[1]}, got {x.shape} and "
                         f"{anorm.shape}")
    if not holds:
        raise ShapeError(f"a trace is refilled for the {ctx._held} it holds")
    ctx._bind(x, anorm)
    return ctx


def _pre_activation(agg, h, w_agg, bias, w_self, product, out, tmp):
    """Pre-activation of a convolution layer, in ``out``, from its
    aggregated and own inputs; the self term, if any, goes to ``tmp``.
    ``product`` is ``np.dot`` on 2-D rows, ``np.matmul`` on (B, N, width)
    stacks."""
    pre = product(agg, w_agg.T, out=out)
    pre += bias
    if w_self is not None:
        pre += product(h, w_self.T, out=tmp)
    return pre


# ---------------------------------------------------------------------------
# Node task
# ---------------------------------------------------------------------------

# the row buffers of a node trace, one row per target: name -> "d" (feature
# wide), "f" (hidden wide), "k" (class wide) or "n" (node wide). The forward
# record's buffers back public fields; the matching pass's scratch is
# overwritten by the next pass.
_NODE_RECORD = {"mt": "d", "ht": "f", "st": "f", "u": "f", "g1": "f",
                "logits": "k", "q": "k", "g2": "k"}
_NODE_SCRATCH = {"g1bar": "f", "htbar": "f", "f1": "f", "f2": "f",
                 "g2bar": "k", "k1": "k", "mtbar": "d", "xtbar": "d", "d1": "d"}


class NodeTrace:
    """Forward record of the node task: what the backward passes consume.

    Built by :func:`node_ctx`; the constructor converts x and anorm to
    float64, checks them once and builds the labels' one-hot rows. It
    raises :class:`ShapeError` unless ``params`` is a node-task model, x is
    (N, D) or (B, N, D) with the model's width, anorm is (N, N), and the
    targets (:func:`check_targets`) and labels (:func:`check_labels`) come
    one per row. x (N, D) is one shared graph, where ``targets`` None makes
    every row a target and the row stacks ``at`` (anorm's rows) and ``xt``
    (x's rows) are anorm and x themselves; x (B, N, D) is a batch of graphs
    sharing anorm, one target each. Otherwise the row stacks are gathered
    into buffers. ``mt`` (at @ x), ``ht`` (hidden rows), ``st`` (sigma'
    there), ``logits``, ``q``, ``g2`` (softmax - onehot), ``u`` (g2 @
    out_weight) and ``g1`` (d loss / d pre-activation) are (rows, width)
    buffers, made here with the scratch and each buffer's transpose,
    (rows, width, 1) columns and (rows, 1, width) rows. Only
    :func:`forward_node` fills ``losses``.
    """

    def __init__(self, params, x, anorm, targets, labels):
        x, anorm = _model_inputs(params, "node", x, anorm)
        n = x.shape[-2]
        if x.ndim == 3 and targets is None:
            raise ShapeError("a batch of node graphs needs one target each")
        if anorm.shape != (n, n):
            raise ShapeError(f"adjacency {anorm.shape} for features {x.shape}")
        targets = None if targets is None else check_targets(targets, n)
        rows = n if targets is None else len(targets)
        if x.ndim == 3 and rows != x.shape[0]:
            raise ShapeError(f"{rows} targets for {x.shape[0]} graphs")
        labels = check_labels(labels, params.num_classes)
        if labels.shape != (rows,):
            raise ShapeError(f"{labels.shape[0]} labels for {rows} targets")
        self.targets, self.labels = targets, labels
        self._held, self._shapes = "targets and labels", (x.shape, anorm.shape)
        self._batch = x.ndim == 3
        width = {"d": x.shape[-1], "f": params.hidden_dim,
                 "k": params.num_classes, "n": n}
        record = dict(_NODE_RECORD)
        if targets is not None:
            record.update(at="n", xt="d")
            # the rows of x to gather: a batch's sample i reads row i of
            # each stack
            self._xi = targets if x.ndim == 2 else np.arange(rows) * n + targets
            self._samples = np.arange(rows)
        bufs = {name: np.empty((rows, width[w]))
                for name, w in {**record, **_NODE_SCRATCH}.items()}
        for name in record:
            setattr(self, name, bufs[name])
        self._scratch = SimpleNamespace(**{k: bufs[k] for k in _NODE_SCRATCH})
        self._t = SimpleNamespace(**{k: b.T for k, b in bufs.items()})
        self._col = SimpleNamespace(**{k: b[:, :, None] for k, b in bufs.items()})
        self._row = SimpleNamespace(**{k: b[:, None, :] for k, b in bufs.items()})
        self._onehot = onehot(labels, params.num_classes)
        self.x = self.anorm = None
        self._bind(x, anorm)

    def _bind(self, x, anorm):
        """Bind new inputs and make the views the passes read of each new
        array; one bound already keeps its views."""
        self.losses = None
        if x is not self.x:
            self.x = x
            # what the targets' rows are gathered from, and x's transpose
            if self._batch:
                self._x_rows = x.reshape(-1, x.shape[-1])
            else:
                self._x_rows, self._t.x = x, x.T
            if self.targets is None:
                self.xt = x
                self._col.xt, self._row.xt = x[:, :, None], x[:, None, :]
        if anorm is not self.anorm:
            self.anorm = anorm
            if self.targets is None:
                self.at, self._t.at = anorm, anorm.T


def node_ctx(params, x, anorm, targets, labels, out=None):
    """Forward and first-order backward intermediates at the target rows.

    Without ``out`` the pass builds a :class:`NodeTrace`, which checks and
    converts the inputs. ``out`` is a trace an earlier call returned for
    the same model (an attack builds one and passes it back each
    iteration): the pass refills it in place under the rule both traces
    share (:func:`_refill`; pass ``trace.targets`` and ``trace.labels``)
    and returns it, overwriting everything the earlier call recorded.
    """
    if out is None:
        ctx = NodeTrace(params, x, anorm, targets, labels)
    else:
        ctx = _refill(out, x, anorm,
                      targets is out.targets and labels is out.labels)
    t = params.tensors
    s = ctx._scratch

    # the head reads the first layer at the targets only, so only those
    # rows are computed; every row stack is 2-D, so the products go to
    # np.dot. The ``take`` method skips np.take's Python wrapper; "clip"
    # skips the buffered copy that "raise" makes of ``out``, and the
    # indices are checked when the trace is built.
    if ctx.targets is not None:
        ctx.anorm.take(ctx.targets, 0, ctx.at, "clip")
        ctx._x_rows.take(ctx._xi, 0, ctx.xt, "clip")
    if ctx._batch:  # one (1, N) @ (N, D) product per sample
        np.matmul(ctx._row.at, ctx.x, out=ctx._row.mt)
    else:
        np.dot(ctx.at, ctx.x, out=ctx.mt)
    ht = _pre_activation(ctx.mt, ctx.xt, t["conv1_agg"], t["conv1_bias"],
                         t.get("conv1_self"), np.dot, ctx.ht, s.f1)
    _sigmoid(ht, out=ht, tmp=s.f1)
    np.subtract(1.0, ht, out=ctx.st)
    ctx.st *= ht

    np.dot(ht, t["out_weight"].T, out=ctx.logits)
    ctx.logits += t["out_bias"]
    softmax(ctx.logits, out=ctx.q)
    np.subtract(ctx.q, ctx._onehot, out=ctx.g2)
    np.dot(ctx.g2, t["out_weight"], out=ctx.u)
    np.multiply(ctx.u, ctx.st, out=ctx.g1)
    return ctx


def node_bundles(ctx, params, per_sample=False, out=None):
    """The batch mean of the targets' gradients, as a stack of one.

    Each weight gradient is one matrix product summed over the targets, so
    no per-sample stack is built; one target is a batch of one, with
    nothing divided. ``per_sample`` gives one stack entry per target
    instead (node2's per-node leak). The stacks go to ``out``, an
    attack's :class:`Stacks`, or to new rows, and are returned.
    """
    rows = len(ctx.g1)
    out = _new_stacks(params, rows if per_sample else 1) if out is None else out
    has_self = "conv1_self" in params.tensors
    if per_sample:
        col, row = ctx._col, ctx._row
        np.multiply(col.g2, row.ht, out=out["out_weight"])
        np.copyto(out["out_bias"], ctx.g2)
        np.multiply(col.g1, row.mt, out=out["conv1_agg"])
        np.copyto(out["conv1_bias"], ctx.g1)
        if has_self:
            np.multiply(col.g1, row.xt, out=out["conv1_self"])
        return out
    e, tr = out.entry, ctx._t
    np.dot(tr.g2, ctx.ht, out=e["out_weight"])
    np.add.reduce(ctx.g2, axis=0, out=e["out_bias"])
    np.dot(tr.g1, ctx.mt, out=e["conv1_agg"])
    np.add.reduce(ctx.g1, axis=0, out=e["conv1_bias"])
    if has_self:
        np.dot(tr.g1, ctx.xt, out=e["conv1_self"])
    if rows > 1:
        for stack in out.values():
            stack /= rows
    return out


def _node_scatter(ctx, xtbar, want_features, want_adjacency):
    """Pull the adjoints of ``mt = at @ x`` (scratch ``mtbar``) and ``xt``
    back to x and anorm.

    ``xtbar`` is None for a model without a self weight or when the features
    are not wanted. A shared graph sums over the targets; a batch of graphs
    keeps one stack entry per sample and raises :class:`ShapeError` if the
    adjacency is wanted. An input not wanted comes back as None; the
    gradients are new arrays.
    """
    mtbar = ctx._scratch.mtbar
    xbar = abar = None
    if ctx._batch:
        if want_adjacency:
            raise ShapeError("a batch of node graphs has no adjacency "
                             "gradient")
        if want_features:
            xbar = ctx._col.at * ctx._row.mtbar
            if xtbar is not None:
                xbar[ctx._samples, ctx.targets] += xtbar
        return xbar, abar
    # with every row a target (``targets`` None) nothing is scattered
    if want_features:
        xbar = np.dot(ctx._t.at, mtbar)
        if xtbar is not None and ctx.targets is None:
            xbar += xtbar
        elif xtbar is not None:
            np.add.at(xbar, ctx.targets, xtbar)
    if want_adjacency and ctx.targets is None:
        abar = np.dot(mtbar, ctx._t.x)
    elif want_adjacency:
        abar = np.zeros(ctx._shapes[1])
        np.add.at(abar, ctx.targets, np.dot(mtbar, ctx._t.x))
    return xbar, abar


def node_input_grads(ctx, params):
    """First-order d loss / d features and d loss / d anorm, summed over samples."""
    t = params.tensors
    xtbar = ctx.g1 @ t["conv1_self"] if "conv1_self" in t else None
    np.matmul(ctx.g1, t["conv1_agg"], out=ctx._scratch.mtbar)
    return _node_scatter(ctx, xtbar, True, True)


def node_matching_grad(ctx, params, v, want_adjacency, want_features=True):
    """Gradient of sum_s <bundle_s, v_s> w.r.t. features and normalized adjacency.

    ``v`` holds one co-tensor per parameter, stacked along the sample axis
    (a stack of one is shared by every sample), as :class:`Stacks` or a
    dict of stacks. The return value follows the ctx layout: a shared
    graph gives new (N, D) and (N, N) arrays summed over samples, a batch
    of graphs the (B, N, D) features' stack only (``want_adjacency``
    raises :class:`ShapeError`); the trace's scratch buffers hold the
    intermediates. A gradient not wanted is not computed and comes back as
    None.
    """
    v = v if type(v) is Stacks else Stacks(v)
    t = params.tensors
    w_self = t.get("conv1_self")
    s, col, row, ve, vt = ctx._scratch, ctx._col, ctx._row, v.entry, v.entry_t
    xtbar = s.xtbar if want_features and w_self is not None else None

    # each sample's rows with its co-tensors: one 2-D product over all the
    # rows for a shared co-vector, else one batched product per sample
    if v.shared:
        np.dot(ctx.mt, vt["conv1_agg"], out=s.g1bar)
        np.dot(ctx.g1, ve["conv1_agg"], out=s.mtbar)
        np.dot(ctx.ht, vt["out_weight"], out=s.g2bar)
        np.dot(ctx.g2, ve["out_weight"], out=s.f2)
        if w_self is not None:
            np.dot(ctx.xt, vt["conv1_self"], out=s.f1)
        if xtbar is not None:
            np.dot(ctx.g1, ve["conv1_self"], out=xtbar)
    else:
        np.matmul(v["conv1_agg"], col.mt, out=col.g1bar)
        np.matmul(row.g1, v["conv1_agg"], out=row.mtbar)
        np.matmul(v["out_weight"], col.ht, out=col.g2bar)
        np.matmul(row.g2, v["out_weight"], out=row.f2)
        if w_self is not None:
            np.matmul(v["conv1_self"], col.xt, out=col.f1)
        if xtbar is not None:
            np.matmul(row.g1, v["conv1_self"], out=row.xtbar)

    g1bar = s.g1bar
    g1bar += v["conv1_bias"]
    if w_self is not None:
        g1bar += s.f1
    ubar = np.multiply(g1bar, ctx.st, out=s.f1)
    stbar = np.multiply(g1bar, ctx.u, out=g1bar)  # g1bar is not read again
    g2bar = s.g2bar
    g2bar += v["out_bias"]
    g2bar += np.dot(ubar, t["out_weight"].T, out=s.k1)
    pbar = _softmax_adjoint(ctx.q, g2bar, out=g2bar)
    htbar = np.dot(pbar, t["out_weight"], out=s.htbar)
    htbar += s.f2
    htbar += _times_one_minus_twice(stbar, ctx.ht, s.f1)
    ztbar = np.multiply(htbar, ctx.st, out=htbar)
    s.mtbar += np.dot(ztbar, t["conv1_agg"], out=s.d1)
    if xtbar is not None:
        xtbar += np.dot(ztbar, w_self, out=s.d1)
    return _node_scatter(ctx, xtbar, want_features, want_adjacency)


def forward_node(params, g, anorm, target, label):
    """Node classifier's loss at ``target`` for ``label``; feeds the backward passes."""
    x = g.features if isinstance(g, Graph) else g
    trace = node_ctx(params, x, _check_norm(params, anorm), target, label)
    trace.losses = _ce_rows(trace.logits, trace.labels)
    return trace


def backward_node(params, trace):
    """The parameter gradient bundle of a recorded node forward."""
    return split_bundles(node_bundles(trace, params))[0]


# ---------------------------------------------------------------------------
# Graph task
# ---------------------------------------------------------------------------

# the per-node row buffers of a graph trace: name -> "d" (feature wide),
# "f" (hidden wide) or "n" (node wide). The forward record's buffers back
# public fields; the passes' scratch is overwritten by the next pass.
_GRAPH_RECORD = {
    "agg1": "d", "hidden1": "f", "sig1": "f", "agg2": "f", "hidden2": "f",
    "sig2": "f", "hbar": "f", "g2": "f", "g2w": "f", "u1": "f", "g1": "f",
}
_GRAPH_SCRATCH = {
    "f1": "f", "f2": "f", "g1bar": "f", "u1bar": "f", "g2bar": "f",
    "m2bar": "f", "h2bar": "f", "h1bar": "f", "m1bar": "d", "d1": "d",
    "d2": "d", "nn": "n",
}


class GraphTrace:
    """Forward record of the graph task for a batch of B graphs of N nodes.

    Built by :func:`graph_ctx` as ``GraphTrace(params, x, anorm, labels)``,
    which converts x and anorm to float64, checks them once and builds the
    labels' one-hot rows. It raises :class:`ShapeError` unless ``params``
    is a graph-task model, x is (N, D) or (B, N, D) with the model's width
    and node count, anorm is (N, N) (shared) or (B, N, N), and the labels
    (:func:`check_labels`) come one per graph. Every per-node array is a
    (B*N, width) row buffer allocated here, once; ``agg1``, ``sig1``,
    ``hidden1``, ``agg2``, ``sig2``, ``hidden2``, ``hbar`` (gp @
    mlp_weight), ``g2w`` (g2 @ conv2_agg), ``u1``, ``g1`` and ``g2`` are
    (B, N, width) views over those buffers and ``flat`` the (B, N*F) view
    of ``hidden2``; ``logits``, ``q`` and ``gp`` (softmax - onehot) are
    (B, K) buffers, made here with the transposes the passes multiply by
    and the scratch. ``x`` is the (B, N, D) view of the features and
    ``anorm`` the normalized adjacency as given. Only :func:`forward_graph`
    fills ``losses``.

    The passes compute on the row buffers themselves at B = 1, where every
    product is a 2-D ``np.dot``. For B > 1 they compute on the (B, N, width)
    views with ``np.matmul``, one product per sample: a single (B*N)-row
    product sums in another order in BLAS, so its last bits differ from
    those of B separate samples.
    """

    def __init__(self, params, x, anorm, labels):
        x, anorm = _model_inputs(params, "graph", x, anorm)
        b, n, d = (1,) + x.shape if x.ndim == 2 else x.shape
        if n != params.num_nodes:
            raise ShapeError(f"model readout expects {params.num_nodes} "
                             f"nodes, graph has {n}")
        if anorm.shape not in ((n, n), (b, n, n)):
            raise ShapeError(f"adjacency {anorm.shape} for features {x.shape}")
        labels = check_labels(labels, params.num_classes)
        if labels.shape != (b,):
            raise ShapeError(f"{labels.shape[0]} labels for {b} graphs")
        self.labels, self._held = labels, "labels"
        self._shapes = (x.shape, anorm.shape)
        k = params.num_classes
        width = {"d": d, "f": params.hidden_dim, "n": n}
        self._rows = SimpleNamespace(**{
            name: np.empty((b * n, width[w]))
            for name, w in {**_GRAPH_RECORD, **_GRAPH_SCRATCH}.items()})
        self._stacks = SimpleNamespace(**{
            name: rows.reshape(b, n, -1)
            for name, rows in vars(self._rows).items()})
        for name in _GRAPH_RECORD:
            setattr(self, name, getattr(self._stacks, name))
        # what the passes compute on: the rows at B = 1, else the stacks
        self._work = self._rows if b == 1 else self._stacks
        self._mm = np.dot if b == 1 else np.matmul
        self.flat = self._rows.hidden2.reshape(b, -1)
        self._hbar_flat = self._rows.hbar.reshape(b, -1)
        self._f1_flat = self._rows.f1.reshape(b, -1)
        self._h2bar_flat = self._rows.h2bar.reshape(b, -1)
        self.logits, self.q, self.gp = np.empty((3, b, k))
        self._onehot = onehot(labels, k)
        # the transposes of the rows the bundles read and of the work forms
        self._rows_t = SimpleNamespace(gp=self.gp.T, g1=self._rows.g1.T,
                                       g2=self._rows.g2.T)
        self._work_t = SimpleNamespace(
            hidden1=self._work.hidden1.swapaxes(-1, -2),
            u1bar=self._work.u1bar.swapaxes(-1, -2))
        # the (B, N, width) and work shapes of the inputs and new gradients
        work = (n,) if b == 1 else (b, n)
        self._x3 = (b, n, d)
        self._a_work = (n, n) if b == 1 else anorm.shape
        self._new = {"x": (self._x3, work + (d,)), "a": ((b, n, n), work + (n,))}
        self._x_given = self.anorm = None
        self._bind(x, anorm)

    def _bind(self, x, anorm):
        """As :meth:`NodeTrace._bind`."""
        self.losses = None
        if x is not self._x_given:
            self._x_given = x
            self._stacks.x = self.x = x.reshape(self._x3)
            self._rows.x = x.reshape(-1, x.shape[-1])
            self._work_t.x = self._work.x.swapaxes(-1, -2)
        if anorm is not self.anorm:
            self.anorm = anorm
            self._work.a = anorm.reshape(self._a_work)
            self._work_t.a = self._work.a.swapaxes(-1, -2)

    def _fresh(self, kind):
        """A new (B, N, width) gradient of the features (``kind`` "x") or
        the adjacency ("a"), and the form of it the passes write."""
        shape, work = self._new[kind]
        out = np.empty(shape)
        return out, out.reshape(work)


def graph_ctx(params, x, anorm, labels, out=None):
    """Forward + first-order backward intermediates; x is (N, D) or (B, N, D).

    ``out`` works as in :func:`node_ctx`: without it the pass builds a
    :class:`GraphTrace`; with it the pass refills that trace under the
    rule both traces share (:func:`_refill`; pass ``trace.labels``).
    """
    if out is None:
        ctx = GraphTrace(params, x, anorm, labels)
    else:
        ctx = _refill(out, x, anorm, labels is out.labels)
    t = params.tensors
    w = ctx._work
    mm = ctx._mm

    mm(w.a, w.x, out=w.agg1)
    h1 = _pre_activation(w.agg1, w.x, t["conv1_agg"], t["conv1_bias"],
                         t.get("conv1_self"), mm, w.hidden1, w.f1)
    _sigmoid(h1, out=h1, tmp=w.f1)
    np.subtract(1.0, h1, out=w.sig1)
    w.sig1 *= h1

    mm(w.a, h1, out=w.agg2)
    h2 = _pre_activation(w.agg2, h1, t["conv2_agg"], t["conv2_bias"],
                         t.get("conv2_self"), mm, w.hidden2, w.f1)
    _sigmoid(h2, out=h2, tmp=w.f1)
    np.subtract(1.0, h2, out=w.sig2)
    w.sig2 *= h2

    np.dot(ctx.flat, t["mlp_weight"].T, out=ctx.logits)
    ctx.logits += t["mlp_bias"]
    softmax(ctx.logits, out=ctx.q)
    np.subtract(ctx.q, ctx._onehot, out=ctx.gp)

    np.dot(ctx.gp, t["mlp_weight"], out=ctx._hbar_flat)
    np.multiply(w.hbar, w.sig2, out=w.g2)
    mm(w.g2, t["conv2_agg"], out=w.g2w)
    mm(ctx._work_t.a, w.g2w, out=w.u1)
    if "conv2_self" in t:
        w.u1 += mm(w.g2, t["conv2_self"], out=w.f1)
    np.multiply(w.u1, w.sig1, out=w.g1)
    return ctx


def graph_bundles(ctx, params, out=None):
    """The batch mean of the B graphs' gradients, as a stack of one.

    A single graph is a batch of one. Each weight gradient is one matrix
    product over the trace's (B*N)-row buffers, summed over every sample's
    nodes. ``out`` works as in :func:`node_bundles`.
    """
    out = _new_stacks(params, 1) if out is None else out
    e, r, rt = out.entry, ctx._rows, ctx._rows_t
    np.dot(rt.gp, ctx.flat, out=e["mlp_weight"])
    np.add.reduce(ctx.gp, axis=0, out=e["mlp_bias"])
    np.dot(rt.g2, r.agg2, out=e["conv2_agg"])
    np.add.reduce(r.g2, axis=0, out=e["conv2_bias"])
    np.dot(rt.g1, r.agg1, out=e["conv1_agg"])
    np.add.reduce(r.g1, axis=0, out=e["conv1_bias"])
    if "conv2_self" in params.tensors:
        np.dot(rt.g2, r.hidden1, out=e["conv2_self"])
    if "conv1_self" in params.tensors:
        np.dot(rt.g1, r.x, out=e["conv1_self"])
    b = len(ctx.gp)
    if b > 1:
        for stack in out.values():
            stack /= b
    return out


def graph_input_grads(ctx, params):
    """First-order d loss / d features and d loss / d anorm, per sample."""
    t = params.tensors
    w, wt = ctx._work, ctx._work_t
    mm = ctx._mm
    m1bar = mm(w.g1, t["conv1_agg"])
    xbar, xbar_w = ctx._fresh("x")
    mm(wt.a, m1bar, out=xbar_w)
    if "conv1_self" in t:
        xbar_w += mm(w.g1, t["conv1_self"])
    abar, abar_w = ctx._fresh("a")
    mm(w.g2w, wt.hidden1, out=abar_w)
    abar_w += mm(m1bar, wt.x)
    return xbar, abar


def graph_matching_grad(ctx, params, v, want_adjacency, want_features=True):
    """Gradient of sum_b <bundle_b, v> w.r.t. features and normalized adjacency.

    A graph leak is one bundle, the batch mean, so one co-vector ``v`` is
    shared by every sample: each tensor's co-vector is a stack of one (the
    attacks pass the mean's co-vector scaled by 1/B), best as the
    :class:`Stacks` an attack makes once; a stack of more entries raises
    :class:`ShapeError`. The gradients come back as new (B, N, D) and (B,
    N, N) arrays; the trace's scratch buffers hold the intermediates. A
    gradient not wanted is not computed and comes back as None.
    """
    v = v if type(v) is Stacks else Stacks(v)
    if not v.shared:
        raise ShapeError(f"a graph co-vector is a stack of one, got "
                         f"{len(v['mlp_bias'])}")
    t = params.tensors
    w1a = t["conv1_agg"]
    w1s = t.get("conv1_self")
    w2a = t["conv2_agg"]
    w2s = t.get("conv2_self")
    wm = t["mlp_weight"]
    w, wt = ctx._work, ctx._work_t
    mm = ctx._mm
    ve, vt = v.entry, v.entry_t

    # adjoints of the first-layer backward outputs
    g1bar = mm(w.agg1, vt["conv1_agg"], out=w.g1bar)
    g1bar += ve["conv1_bias"]
    if w1s is not None:
        g1bar += mm(w.x, vt["conv1_self"], out=w.f1)
    m1bar = mm(w.g1, ve["conv1_agg"], out=w.m1bar)

    u1bar = np.multiply(g1bar, w.sig1, out=w.u1bar)
    s1bar = np.multiply(g1bar, w.u1, out=g1bar)  # g1bar is not read again
    g2bar = mm(mm(w.a, u1bar, out=w.f1), w2a.T, out=w.g2bar)
    abar = None
    if want_adjacency:
        abar, abar_w = ctx._fresh("a")
        mm(w.g2w, wt.u1bar, out=abar_w)
    if w2s is not None:
        g2bar += mm(u1bar, w2s.T, out=w.f1)

    # adjoints of the second-layer gradient outputs
    p2 = mm(w.agg2, vt["conv2_agg"], out=w.f1)
    p2 += ve["conv2_bias"]
    g2bar += p2
    m2bar = mm(w.g2, ve["conv2_agg"], out=w.m2bar)
    if w2s is not None:
        g2bar += mm(w.hidden1, vt["conv2_self"], out=w.f1)

    # adjoints of the readout gradient outputs
    gpbar = np.dot(ctx.flat, vt["mlp_weight"]) + ve["mlp_bias"]
    np.multiply(g2bar, w.sig2, out=w.f1)
    gpbar += np.dot(ctx._f1_flat, wm.T)
    s2bar = np.multiply(g2bar, w.hbar, out=g2bar)  # g2bar is not read again

    np.dot(_softmax_adjoint(ctx.q, gpbar), wm, out=ctx._h2bar_flat)
    ctx._h2bar_flat += np.dot(ctx.gp, ve["mlp_weight"])
    h2bar = w.h2bar
    h2bar += _times_one_minus_twice(s2bar, w.hidden2, w.f1)
    z2bar = np.multiply(h2bar, w.sig2, out=h2bar)

    m2bar += mm(z2bar, w2a, out=w.f1)
    if want_adjacency:
        abar_w += mm(m2bar, wt.hidden1, out=w.nn)
    h1bar = mm(wt.a, m2bar, out=w.h1bar)
    h1bar += _times_one_minus_twice(s1bar, w.hidden1, w.f1)
    if w2s is not None:
        p1 = mm(w.g2, ve["conv2_self"], out=w.f1)
        p1 += mm(z2bar, w2s, out=w.f2)
        h1bar += p1
    z1bar = np.multiply(h1bar, w.sig1, out=h1bar)

    m1bar += mm(z1bar, w1a, out=w.d1)
    if want_adjacency:
        abar_w += mm(m1bar, wt.x, out=w.nn)
    xbar = None
    if want_features:
        xbar, xbar_w = ctx._fresh("x")
        mm(wt.a, m1bar, out=xbar_w)
        if w1s is not None:
            p0 = mm(w.g1, ve["conv1_self"], out=w.d1)
            p0 += mm(z1bar, w1s, out=w.d2)
            xbar_w += p0
    return xbar, abar


def forward_graph(params, g, anorm, graph_label):
    """Graph classifier's loss for ``graph_label``; feeds the backward passes."""
    x = g.features if isinstance(g, Graph) else g
    trace = graph_ctx(params, x, _check_norm(params, anorm), graph_label)
    trace.losses = _ce_rows(trace.logits, trace.labels)
    return trace


def backward_graph(params, trace):
    """The parameter gradient bundle of a recorded graph forward."""
    return split_bundles(graph_bundles(trace, params))[0]


def infer_label(bundle):
    """Read the training label off the signs of the final-layer weight gradient.

    Every row of that gradient is the (positive) activation vector scaled by
    softmax - onehot, so the true class's row is anti-aligned with every
    other row and is the only one with a negative entry sum. For K > 2 the
    pairwise products single out the class; with K = 2 both rows pass the
    product test and the row sums break the tie. Raises if the rule does not
    isolate exactly one class (e.g. an all-zero bundle).
    """
    w = bundle.tensors.get("mlp_weight", bundle.tensors.get("out_weight"))
    if w is None:
        raise ShapeError("bundle lacks a final-layer weight gradient")
    dots = w @ w.T
    k = w.shape[0]
    candidates = [
        i for i in range(k)
        if dots[i, i] > 0.0
        and all(dots[i, j] <= 0.0 for j in range(k) if j != i)
    ]
    if len(candidates) > 1:
        candidates = [i for i in candidates if w[i].sum() < 0.0]
    if len(candidates) != 1:
        raise AmbiguousLabelError(
            f"sign rule matched {len(candidates)} classes instead of 1"
        )
    return candidates[0]
