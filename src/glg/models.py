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

Besides plain backward passes (the gradient bundles a federated server
would see), this module computes the gradient of ``<bundle, V>`` with
respect to the input features and the normalized adjacency for a constant
co-vector ``V``. That second-order pass is what the iterative
gradient-matching attacks differentiate through.

Array convention: an optional leading sample axis is supported everywhere;
``x`` may be (N, D) or (B, N, D), the normalized adjacency (N, N) or
(B, N, N).
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import AmbiguousLabelError, ShapeError
from .graphs import Graph, NormalizedAdjacency

__all__ = [
    "GradientBundle",
    "GraphTrace",
    "ModelParams",
    "NodeTrace",
    "backward_graph",
    "backward_node",
    "check_labels",
    "cross_entropy",
    "forward_graph",
    "forward_node",
    "infer_label",
    "init_params",
    "softmax",
]

FRAMEWORKS = ("gcn", "sage")
TASKS = ("node", "graph")

# Canonical tensor order used when flattening bundles.
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


@dataclass
class ModelParams:
    """Parameter tensors of one classifier, keyed by canonical names."""

    framework: str
    task: str
    feature_dim: int
    hidden_dim: int
    num_classes: int
    tensors: dict
    num_nodes: Optional[int] = None  # graph task: node count the MLP expects

    def __post_init__(self):
        if self.framework not in FRAMEWORKS:
            raise ValueError(f"framework must be one of {FRAMEWORKS}")
        if self.task not in TASKS:
            raise ValueError(f"task must be one of {TASKS}")
        if self.task == "graph" and self.num_nodes is None:
            raise ValueError("graph task requires num_nodes")
        self.tensors = {
            k: np.asarray(v, dtype=np.float64) for k, v in self.tensors.items()
        }

    @property
    def norm_mode(self):
        return "gcn" if self.framework == "gcn" else "sage-mean"

    @property
    def param_names(self):
        return [k for k in PARAM_ORDER if k in self.tensors]

    def copy(self):
        return ModelParams(
            framework=self.framework,
            task=self.task,
            feature_dim=self.feature_dim,
            hidden_dim=self.hidden_dim,
            num_classes=self.num_classes,
            tensors={k: v.copy() for k, v in self.tensors.items()},
            num_nodes=self.num_nodes,
        )


def init_params(rng, framework, task, feature_dim, hidden_dim, num_classes,
                num_nodes=None):
    """Gaussian init, std 1/sqrt(fan_in) per tensor."""
    d, f, k = feature_dim, hidden_dim, num_classes
    tensors = {}

    def gauss(shape, fan_in):
        return rng.standard_normal(shape) / np.sqrt(fan_in)

    tensors["conv1_agg"] = gauss((f, d), d)
    if framework == "sage":
        tensors["conv1_self"] = gauss((f, d), d)
    tensors["conv1_bias"] = gauss((f,), d)
    if task == "node":
        tensors["out_weight"] = gauss((k, f), f)
        tensors["out_bias"] = gauss((k,), f)
    else:
        if num_nodes is None:
            raise ValueError("graph task requires num_nodes")
        tensors["conv2_agg"] = gauss((f, f), f)
        if framework == "sage":
            tensors["conv2_self"] = gauss((f, f), f)
        tensors["conv2_bias"] = gauss((f,), f)
        tensors["mlp_weight"] = gauss((k, num_nodes * f), num_nodes * f)
        tensors["mlp_bias"] = gauss((k,), num_nodes * f)
    return ModelParams(
        framework=framework,
        task=task,
        feature_dim=d,
        hidden_dim=f,
        num_classes=k,
        tensors=tensors,
        num_nodes=num_nodes,
    )


@dataclass
class GradientBundle:
    """Gradients of one loss w.r.t. every parameter tensor (same shapes)."""

    tensors: dict
    d_features: Optional[np.ndarray] = None
    d_adj_norm: Optional[np.ndarray] = None

    @property
    def param_names(self):
        return [k for k in PARAM_ORDER if k in self.tensors]


def softmax(logits):
    z = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits, label):
    """Stable -log softmax(logits)[label]."""
    logits = np.asarray(logits, dtype=np.float64).ravel()
    label = int(label)
    if not 0 <= label < logits.shape[0]:
        raise ShapeError(f"label {label} out of range for {logits.shape[0]} classes")
    z = logits - logits.max()
    return float(np.log(np.exp(z).sum()) - z[label])


def _sigmoid(z):
    # exp of a non-positive argument never overflows; the two branches give
    # the same bits as the masked form 1/(1+exp(-z)) for z >= 0 and
    # exp(z)/(1+exp(z)) for z < 0
    e = np.exp(-np.abs(z))
    d = 1.0 + e
    return np.where(z >= 0, 1.0 / d, e / d)


def _ce_rows(logits, labels):
    z = logits - logits.max(axis=-1, keepdims=True)
    lse = np.log(np.exp(z).sum(axis=-1))
    return lse - z[np.arange(z.shape[0]), labels]


def check_labels(labels, num_classes):
    """Labels as an int64 vector, each checked to be a class index.

    Raises :class:`ShapeError` for a label outside ``[0, num_classes)``.
    """
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    if np.any(labels < 0) or np.any(labels >= num_classes):
        raise ShapeError(f"label out of range for {num_classes} classes")
    return labels


def _minus_onehot(q, labels):
    """``q - onehot(labels)``, row by row: the logit gradient of cross-entropy."""
    out = q.copy()
    out[np.arange(labels.shape[0]), labels] -= 1.0
    return out


def _check_norm(params, anorm):
    if isinstance(anorm, NormalizedAdjacency):
        if anorm.mode != params.norm_mode:
            raise ShapeError(
                f"normalization mode {anorm.mode!r} does not match "
                f"framework {params.framework!r}"
            )
        return anorm.matrix
    return np.asarray(anorm, dtype=np.float64)


# ---------------------------------------------------------------------------
# Node task
# ---------------------------------------------------------------------------

@dataclass
class NodeTrace:
    """Forward record of the node task: what the backward passes consume.

    Every stack has one row per target. The layout of ``x`` selects between
    one shared graph with many target nodes (x is (N, D)) and a batch of
    independent graphs with one target each (x is (B, N, D)). Only
    :func:`forward_node` fills ``losses``; the attack loop never reads them.
    """

    x: np.ndarray
    anorm: np.ndarray
    targets: np.ndarray
    labels: np.ndarray
    ht: np.ndarray = field(repr=False, default=None)     # hidden rows at targets
    st: np.ndarray = field(repr=False, default=None)     # sigma' at those rows
    mt: np.ndarray = field(repr=False, default=None)     # aggregated input rows
    xt: np.ndarray = field(repr=False, default=None)     # raw feature rows
    at: np.ndarray = field(repr=False, default=None)     # anorm rows at targets
    q: np.ndarray = field(repr=False, default=None)
    g2: np.ndarray = field(repr=False, default=None)     # softmax - onehot
    g1: np.ndarray = field(repr=False, default=None)     # d loss / d pre1 rows
    u: np.ndarray = field(repr=False, default=None)      # g2 @ out_weight
    losses: np.ndarray = None
    logits: np.ndarray = field(repr=False, default=None)


def _gather_rows(arr, targets):
    if arr.ndim == 3:  # one row per sample of the stack
        return arr[np.arange(arr.shape[0]), targets]
    return arr[targets]


def _pre_activation(t, layer, agg, h):
    """Pre-activation of a convolution layer from its aggregated and own inputs."""
    pre = agg @ t[layer + "_agg"].T + t[layer + "_bias"]
    if layer + "_self" in t:
        pre = pre + h @ t[layer + "_self"].T
    return pre


def node_ctx(params, x, anorm, targets, labels):
    """Forward and first-order backward intermediates at the target rows.

    ``labels`` must already have passed :func:`check_labels`.
    """
    t = params.tensors
    x = np.asarray(x, dtype=np.float64)
    anorm = np.asarray(anorm, dtype=np.float64)
    targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))

    # the head reads the first layer at the targets only, so only those
    # rows are computed
    ctx = NodeTrace(x=x, anorm=anorm, targets=targets, labels=labels)
    ctx.at = _gather_rows(anorm, targets)
    ctx.xt = _gather_rows(x, targets)
    ctx.mt = (ctx.at[:, None, :] @ x)[:, 0] if x.ndim == 3 else ctx.at @ x
    ctx.ht = _sigmoid(_pre_activation(t, "conv1", ctx.mt, ctx.xt))
    ctx.st = ctx.ht * (1.0 - ctx.ht)

    ctx.logits = ctx.ht @ t["out_weight"].T + t["out_bias"]
    ctx.q = softmax(ctx.logits)
    ctx.g2 = _minus_onehot(ctx.q, labels)
    ctx.u = ctx.g2 @ t["out_weight"]
    ctx.g1 = ctx.u * ctx.st
    return ctx


def node_bundles(ctx, params):
    """Per-sample gradient stacks, leading axis = sample."""
    g1 = ctx.g1[:, :, None]
    out = {
        "out_weight": ctx.g2[:, :, None] * ctx.ht[:, None, :],
        "out_bias": ctx.g2.copy(),
        "conv1_agg": g1 * ctx.mt[:, None, :],
        "conv1_bias": ctx.g1.copy(),
    }
    if "conv1_self" in params.tensors:
        out["conv1_self"] = g1 * ctx.xt[:, None, :]
    return out


def _node_scatter(ctx, mtbar, xtbar, want_features, want_adjacency):
    """Pull the adjoints of ``mt = at @ x`` and ``xt`` back to x and anorm.

    ``xtbar`` is None for a model without a self weight or when the features
    are not wanted. A shared graph sums over the targets; a batch of graphs
    keeps one stack entry per sample. An input not wanted comes back as None.
    """
    xbar = abar = None
    if ctx.x.ndim == 3:
        rows = np.arange(ctx.x.shape[0])
        if want_features:
            xbar = ctx.at[:, :, None] * mtbar[:, None, :]
            if xtbar is not None:
                xbar[rows, ctx.targets] += xtbar
        if want_adjacency:
            abar = np.zeros(ctx.x.shape[:-1] + (ctx.x.shape[-2],))
            abar[rows, ctx.targets] = (ctx.x @ mtbar[:, :, None])[:, :, 0]
        return xbar, abar
    if want_features:
        xbar = ctx.at.T @ mtbar
        if xtbar is not None:
            np.add.at(xbar, ctx.targets, xtbar)
    if want_adjacency:
        abar = np.zeros((ctx.x.shape[0], ctx.x.shape[0]))
        np.add.at(abar, ctx.targets, mtbar @ ctx.x.T)
    return xbar, abar


def node_input_grads(ctx, params, want_adjacency=True):
    """First-order d loss / d features (and d loss / d anorm), summed over samples."""
    t = params.tensors
    xtbar = ctx.g1 @ t["conv1_self"] if "conv1_self" in t else None
    return _node_scatter(ctx, ctx.g1 @ t["conv1_agg"], xtbar, True,
                         want_adjacency)


def node_matching_grad(ctx, params, v, want_adjacency, want_features=True):
    """Gradient of sum_s <bundle_s, v_s> w.r.t. features and normalized adjacency.

    ``v`` holds one co-tensor per parameter, stacked along the sample axis
    (a stack of one is shared by every sample). The return value follows
    the ctx layout: a shared graph gives (N, D) and (N, N) arrays summed
    over samples, a batch of graphs per-sample stacks. A gradient not
    wanted is not computed and comes back as None.
    """
    t = params.tensors
    w_out = t["out_weight"]
    w_agg = t["conv1_agg"]
    w_self = t.get("conv1_self")

    # contractions over one sample's tensors, as batched matrix products:
    # (S, F, D) @ (S, D, 1) -> (S, F) and (S, 1, F) @ (S, F, D) -> (S, D)
    g1 = ctx.g1[:, None, :]
    g1bar = (v["conv1_agg"] @ ctx.mt[:, :, None])[:, :, 0] + v["conv1_bias"]
    if w_self is not None:
        g1bar += (v["conv1_self"] @ ctx.xt[:, :, None])[:, :, 0]
    mtbar = (g1 @ v["conv1_agg"])[:, 0]

    ubar = g1bar * ctx.st
    stbar = g1bar * ctx.u
    g2bar = ((v["out_weight"] @ ctx.ht[:, :, None])[:, :, 0] + v["out_bias"]
             + ubar @ w_out.T)
    pbar = ctx.q * g2bar - (g2bar * ctx.q).sum(axis=-1, keepdims=True) * ctx.q
    htbar = (pbar @ w_out
             + (ctx.g2[:, None, :] @ v["out_weight"])[:, 0]
             + stbar * (1.0 - 2.0 * ctx.ht))
    ztbar = htbar * ctx.st
    mtbar = mtbar + ztbar @ w_agg
    xtbar = None
    if want_features and w_self is not None:
        xtbar = (g1 @ v["conv1_self"])[:, 0] + ztbar @ w_self
    return _node_scatter(ctx, mtbar, xtbar, want_features, want_adjacency)


def forward_node(params, g, anorm, target, label=None):
    """Run the node classifier at ``target``; the trace feeds :func:`backward_node`."""
    if params.task != "node":
        raise ShapeError("params are not a node-task model")
    mat = _check_norm(params, anorm)
    x = g.features if isinstance(g, Graph) else np.asarray(g, dtype=np.float64)
    if label is None:
        if not isinstance(g, Graph) or g.labels is None:
            raise ShapeError("no label given and the graph carries none")
        label = int(g.labels[target])
    if not 0 <= target < x.shape[0]:
        raise ShapeError(f"target {target} out of range")
    labels = check_labels(label, params.num_classes)
    trace = node_ctx(params, x, mat, [target], labels)
    trace.losses = _ce_rows(trace.logits, labels)
    return trace


def _single(stacked):
    return {k: v[0] for k, v in stacked.items()}


def backward_node(params, trace, wrt=("params",)):
    """Exact reverse-mode gradients for a recorded node forward."""
    bundle = GradientBundle(tensors=_single(node_bundles(trace, params)))
    if "features" in wrt or "adjacency" in wrt:
        want_adj = "adjacency" in wrt
        xbar, abar = node_input_grads(trace, params, want_adjacency=want_adj)
        bundle.d_features = xbar
        bundle.d_adj_norm = abar
    return bundle


# ---------------------------------------------------------------------------
# Graph task
# ---------------------------------------------------------------------------

@dataclass
class GraphTrace:
    """Forward record of the graph task for a batch of losses (leading axis B).

    Only :func:`forward_graph` fills ``losses``; the attack loop never reads
    them.
    """

    x: np.ndarray
    anorm: np.ndarray
    labels: np.ndarray
    agg1: np.ndarray = field(repr=False, default=None)
    sig1: np.ndarray = field(repr=False, default=None)
    hidden1: np.ndarray = field(repr=False, default=None)
    agg2: np.ndarray = field(repr=False, default=None)
    sig2: np.ndarray = field(repr=False, default=None)
    hidden2: np.ndarray = field(repr=False, default=None)
    flat: np.ndarray = field(repr=False, default=None)
    logits: np.ndarray = field(repr=False, default=None)
    q: np.ndarray = field(repr=False, default=None)
    gp: np.ndarray = field(repr=False, default=None)
    u1: np.ndarray = field(repr=False, default=None)
    g1: np.ndarray = field(repr=False, default=None)
    g2: np.ndarray = field(repr=False, default=None)
    losses: np.ndarray = None


def _swap(a):
    """Transpose of the last two axes (of every matrix in a stack)."""
    return a.swapaxes(-1, -2)


def graph_ctx(params, x, anorm, labels):
    """Forward + first-order backward intermediates; x is (B, N, D).

    ``labels`` must already have passed :func:`check_labels`.
    """
    t = params.tensors
    x = np.asarray(x, dtype=np.float64)
    if x.ndim == 2:
        x = x[None]
    anorm = np.asarray(anorm, dtype=np.float64)
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))
    b, n, _ = x.shape
    if params.num_nodes != n:
        raise ShapeError(
            f"model readout expects {params.num_nodes} nodes, graph has {n}"
        )

    ctx = GraphTrace(x=x, anorm=anorm, labels=labels)
    ctx.agg1 = anorm @ x
    ctx.hidden1 = _sigmoid(_pre_activation(t, "conv1", ctx.agg1, x))
    ctx.sig1 = ctx.hidden1 * (1.0 - ctx.hidden1)

    ctx.agg2 = anorm @ ctx.hidden1
    ctx.hidden2 = _sigmoid(_pre_activation(t, "conv2", ctx.agg2, ctx.hidden1))
    ctx.sig2 = ctx.hidden2 * (1.0 - ctx.hidden2)

    ctx.flat = ctx.hidden2.reshape(b, -1)
    ctx.logits = ctx.flat @ t["mlp_weight"].T + t["mlp_bias"]
    ctx.q = softmax(ctx.logits)
    ctx.gp = _minus_onehot(ctx.q, labels)

    hbar = (ctx.gp @ t["mlp_weight"]).reshape(ctx.hidden2.shape)
    ctx.g2 = hbar * ctx.sig2
    ctx.u1 = _swap(anorm) @ (ctx.g2 @ t["conv2_agg"])
    if "conv2_self" in t:
        ctx.u1 = ctx.u1 + ctx.g2 @ t["conv2_self"]
    ctx.g1 = ctx.u1 * ctx.sig1
    return ctx


def graph_bundles(ctx, params):
    """Per-sample gradient stacks for the graph task, leading axis B."""
    g2t = _swap(ctx.g2)
    g1t = _swap(ctx.g1)
    out = {
        "mlp_weight": ctx.gp[:, :, None] * ctx.flat[:, None, :],
        "mlp_bias": ctx.gp.copy(),
        "conv2_agg": g2t @ ctx.agg2,
        "conv2_bias": ctx.g2.sum(axis=-2),
        "conv1_agg": g1t @ ctx.agg1,
        "conv1_bias": ctx.g1.sum(axis=-2),
    }
    if "conv2_self" in params.tensors:
        out["conv2_self"] = g2t @ ctx.hidden1
    if "conv1_self" in params.tensors:
        out["conv1_self"] = g1t @ ctx.x
    return out


def graph_input_grads(ctx, params, want_adjacency=True):
    """First-order d loss / d features and d loss / d anorm, per sample."""
    t = params.tensors
    m1bar = ctx.g1 @ t["conv1_agg"]
    xbar = _swap(ctx.anorm) @ m1bar
    if "conv1_self" in t:
        xbar = xbar + ctx.g1 @ t["conv1_self"]
    abar = None
    if want_adjacency:
        m2bar = ctx.g2 @ t["conv2_agg"]
        abar = m2bar @ _swap(ctx.hidden1) + m1bar @ _swap(ctx.x)
    return xbar, abar


def graph_matching_grad(ctx, params, v, want_adjacency, want_features=True):
    """Gradient of sum_b <bundle_b, v_b> w.r.t. features and normalized adjacency.

    ``v`` is stacked along the sample axis like :func:`node_matching_grad`'s.
    A gradient not wanted is not computed and comes back as None.
    """
    t = params.tensors
    w1a = t["conv1_agg"]
    w1s = t.get("conv1_self")
    w2a = t["conv2_agg"]
    w2s = t.get("conv2_self")
    wm = t["mlp_weight"]
    anorm_t = _swap(ctx.anorm)
    b = ctx.x.shape[0]

    # adjoints of the first-layer backward outputs
    g1bar = ctx.agg1 @ _swap(v["conv1_agg"]) + v["conv1_bias"][:, None, :]
    if w1s is not None:
        g1bar += ctx.x @ _swap(v["conv1_self"])
    m1bar = ctx.g1 @ v["conv1_agg"]

    u1bar = g1bar * ctx.sig1
    s1bar = g1bar * ctx.u1
    g2bar = (ctx.anorm @ u1bar) @ w2a.T
    abar_n = None
    if want_adjacency:
        abar_n = (ctx.g2 @ w2a) @ _swap(u1bar)
    if w2s is not None:
        g2bar += u1bar @ w2s.T

    # adjoints of the second-layer gradient outputs
    g2bar += ctx.agg2 @ _swap(v["conv2_agg"]) + v["conv2_bias"][:, None, :]
    m2bar = ctx.g2 @ v["conv2_agg"]
    if w2s is not None:
        g2bar += ctx.hidden1 @ _swap(v["conv2_self"])

    # adjoints of the readout gradient outputs
    gpbar = (v["mlp_weight"] @ ctx.flat[:, :, None])[:, :, 0] + v["mlp_bias"]
    rbar = (g2bar * ctx.sig2).reshape(b, -1)
    gpbar += rbar @ wm.T
    s2bar = g2bar * (ctx.gp @ wm).reshape(ctx.hidden2.shape)

    pbar = ctx.q * gpbar - (gpbar * ctx.q).sum(axis=-1, keepdims=True) * ctx.q
    hflatbar = pbar @ wm + (ctx.gp[:, None, :] @ v["mlp_weight"])[:, 0]
    h2bar = hflatbar.reshape(ctx.hidden2.shape) + s2bar * (1.0 - 2.0 * ctx.hidden2)
    z2bar = h2bar * ctx.sig2

    m2bar = m2bar + z2bar @ w2a
    if want_adjacency:
        abar_n = abar_n + m2bar @ _swap(ctx.hidden1)
    h1bar = anorm_t @ m2bar + s1bar * (1.0 - 2.0 * ctx.hidden1)
    if w2s is not None:
        h1bar += ctx.g2 @ v["conv2_self"] + z2bar @ w2s
    z1bar = h1bar * ctx.sig1

    m1bar = m1bar + z1bar @ w1a
    if want_adjacency:
        abar_n = abar_n + m1bar @ _swap(ctx.x)
    xbar = None
    if want_features:
        xbar = anorm_t @ m1bar
        if w1s is not None:
            xbar += ctx.g1 @ v["conv1_self"] + z1bar @ w1s
    return xbar, abar_n


def forward_graph(params, g, anorm, graph_label=None):
    """Run the graph classifier; the trace feeds :func:`backward_graph`."""
    if params.task != "graph":
        raise ShapeError("params are not a graph-task model")
    mat = _check_norm(params, anorm)
    x = g.features if isinstance(g, Graph) else np.asarray(g, dtype=np.float64)
    if graph_label is None:
        if not isinstance(g, Graph) or g.graph_label is None:
            raise ShapeError("no graph label given and the graph carries none")
        graph_label = int(g.graph_label)
    labels = check_labels(graph_label, params.num_classes)
    trace = graph_ctx(params, x, mat, labels)
    trace.losses = _ce_rows(trace.logits, labels)
    return trace


def backward_graph(params, trace, wrt=("params",)):
    """Exact reverse-mode gradients for a recorded graph forward."""
    bundle = GradientBundle(tensors=_single(graph_bundles(trace, params)))
    if "features" in wrt or "adjacency" in wrt:
        want_adj = "adjacency" in wrt
        xbar, abar = graph_input_grads(trace, params, want_adjacency=want_adj)
        bundle.d_features = xbar[0]
        if want_adj:
            bundle.d_adj_norm = abar[0]
    return bundle


def infer_label(bundle):
    """Read the training label off the signs of the final-layer weight gradient.

    Every row of that gradient is the (positive) activation vector scaled by
    softmax - onehot, so the true class's row is anti-aligned with every
    other row and is the only one with a negative entry sum. For K > 2 the
    pairwise products single out the class; with K = 2 both rows pass the
    product test and the row sums break the tie. Raises if the rule does not
    isolate exactly one class (e.g. an all-zero bundle).
    """
    tensors = bundle.tensors if isinstance(bundle, GradientBundle) else bundle
    w = tensors.get("mlp_weight", tensors.get("out_weight"))
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
