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

    @property
    def param_names(self):
        return [k for k in PARAM_ORDER if k in self.tensors]


def softmax(logits):
    # the ufunc reductions give np.max's and .sum's bits without their
    # Python wrappers
    z = logits - np.maximum.reduce(logits, axis=-1, keepdims=True)
    e = np.exp(z)
    return e / np.add.reduce(e, axis=-1, keepdims=True)


def _sigmoid(z):
    # exp of a non-positive argument never overflows. The numerator is
    # exp(min(z, 0)): exactly 1 for z >= 0 and e itself for z < 0, so the
    # quotient has the bits of the masked form 1/(1+exp(-z)) for z >= 0 and
    # exp(z)/(1+exp(z)) for z < 0, without np.where's scalar broadcast
    e = np.exp(-np.abs(z))
    return np.exp(np.minimum(z, 0.0)) / (1.0 + e)


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


def onehot(labels, num_classes):
    """One-hot rows of ``labels``; ``softmax - onehot`` is the logit gradient
    of cross-entropy."""
    out = np.zeros((labels.shape[0], num_classes))
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def _copy_into(dst, src):
    """``src`` itself when ``dst`` is None, else ``dst`` holding its values."""
    if dst is None:
        return src
    np.copyto(dst, src)
    return dst


def _mean_product(a, b, n, dst):
    """``a @ b / n`` as a stack of one, computed in ``dst`` when given.

    ``a`` and ``b`` are 2-D, so ``np.dot`` runs the product without the
    matmul gufunc's dispatch. At ``n = 1`` (a single sample) nothing is
    divided: ``x / 1`` is exact, so the bits are those of the raw product.
    """
    if dst is None:
        dst = np.empty((1, a.shape[0], b.shape[1]))
    np.dot(a, b, out=dst[0])
    if n > 1:
        dst /= n
    return dst


def _mean_sum(a, n, dst):
    """The column sums of ``a`` over ``n`` as a stack of one, in ``dst`` when given.

    As in :func:`_mean_product`, nothing is divided at ``n = 1``.
    """
    if dst is None:
        dst = np.empty((1, a.shape[1]))
    np.add.reduce(a, axis=0, out=dst[0])
    if n > 1:
        dst /= n
    return dst


def _covec_rows(w, rows):
    """``w[s] @ rows[s]`` for each sample s: an (S, M) stack of products.

    A shared co-vector ``w`` (a stack of one) is one 2-D product over all
    the rows instead of S matrix-vector products; ``rows`` is 2-D, so it
    goes to ``np.dot``. Per-sample stacks keep the batched ``@``.
    """
    if w.shape[0] == 1:
        return np.dot(rows, w[0].T)
    return (w @ rows[:, :, None])[:, :, 0]


def _rows_covec(rows, w):
    """``rows[s] @ w[s]`` for each sample s; a shared ``w`` as one 2-D product."""
    if w.shape[0] == 1:
        return np.dot(rows, w[0])
    return (rows[:, None, :] @ w)[:, 0]


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
    independent graphs with one target each (x is (B, N, D)). On a shared
    graph ``targets`` None makes every row a target, and the row stacks are
    ``x`` and ``anorm`` themselves. Only
    :func:`forward_node` fills ``losses``; the attack loop never reads them.
    """

    x: np.ndarray
    anorm: np.ndarray
    targets: Optional[np.ndarray]
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
    if targets is None:  # every row of a shared graph
        return arr
    if arr.ndim == 3:  # one row per sample of the stack
        return arr[np.arange(arr.shape[0]), targets]
    return arr[targets]


def _pre_activation(t, layer, agg, h, product=np.matmul):
    """Pre-activation of a convolution layer from its aggregated and own inputs.

    ``product`` multiplies the inputs by the transposed weights: the node
    pass, whose rows are 2-D, passes ``np.dot``; graph stacks keep matmul.
    """
    pre = product(agg, t[layer + "_agg"].T) + t[layer + "_bias"]
    if layer + "_self" in t:
        pre = pre + product(h, t[layer + "_self"].T)
    return pre


def node_ctx(params, x, anorm, targets, labels, onehot_rows=None, at=None):
    """Forward and first-order backward intermediates at the target rows.

    ``labels`` must already have passed :func:`check_labels`. ``targets``
    None, on a shared graph, makes every row a target. A caller that runs
    the pass many times on fixed labels or a fixed ``anorm`` may hand in
    the labels' :func:`onehot` rows and the target rows ``at`` of
    ``anorm``, built once.
    """
    t = params.tensors
    x = np.asarray(x, dtype=np.float64)
    anorm = np.asarray(anorm, dtype=np.float64)
    if targets is not None:
        targets = np.atleast_1d(np.asarray(targets, dtype=np.int64))
    labels = np.atleast_1d(np.asarray(labels, dtype=np.int64))

    # the head reads the first layer at the targets only, so only those
    # rows are computed; every row stack is 2-D, so the products go to
    # np.dot
    ctx = NodeTrace(x=x, anorm=anorm, targets=targets, labels=labels)
    ctx.at = _gather_rows(anorm, targets) if at is None else at
    ctx.xt = _gather_rows(x, targets)
    ctx.mt = (ctx.at[:, None, :] @ x)[:, 0] if x.ndim == 3 else np.dot(ctx.at, x)
    ctx.ht = _sigmoid(_pre_activation(t, "conv1", ctx.mt, ctx.xt, np.dot))
    ctx.st = ctx.ht * (1.0 - ctx.ht)

    ctx.logits = np.dot(ctx.ht, t["out_weight"].T) + t["out_bias"]
    ctx.q = softmax(ctx.logits)
    if onehot_rows is None:
        onehot_rows = onehot(labels, ctx.q.shape[-1])
    ctx.g2 = ctx.q - onehot_rows
    ctx.u = np.dot(ctx.g2, t["out_weight"])
    ctx.g1 = ctx.u * ctx.st
    return ctx


def node_bundles(ctx, params, per_sample=False, out=None):
    """The batch mean of the targets' gradients, as a stack of one.

    Each weight gradient is one matrix product summed over the targets, so
    no per-sample stack is built; one target is a batch of one, with
    nothing divided. ``per_sample`` gives one stack entry per target
    instead (node2's per-node leak); its bias stacks are the trace's own
    arrays unless ``out`` is given. ``out`` maps each tensor name to an
    array of its stack's shape (an attack passes views into one flat row
    buffer); every stack is then written there, the returned dict holds
    those arrays, and the next call with the same ``out`` overwrites them.
    """
    o = out or {}
    has_self = "conv1_self" in params.tensors
    if per_sample:
        g1 = ctx.g1[:, :, None]
        res = {
            "out_weight": np.multiply(ctx.g2[:, :, None], ctx.ht[:, None, :],
                                      out=o.get("out_weight")),
            "out_bias": _copy_into(o.get("out_bias"), ctx.g2),
            "conv1_agg": np.multiply(g1, ctx.mt[:, None, :],
                                     out=o.get("conv1_agg")),
            "conv1_bias": _copy_into(o.get("conv1_bias"), ctx.g1),
        }
        if has_self:
            res["conv1_self"] = np.multiply(g1, ctx.xt[:, None, :],
                                            out=o.get("conv1_self"))
        return res
    b = ctx.g1.shape[0]
    res = {
        "out_weight": _mean_product(ctx.g2.T, ctx.ht, b, o.get("out_weight")),
        "out_bias": _mean_sum(ctx.g2, b, o.get("out_bias")),
        "conv1_agg": _mean_product(ctx.g1.T, ctx.mt, b, o.get("conv1_agg")),
        "conv1_bias": _mean_sum(ctx.g1, b, o.get("conv1_bias")),
    }
    if has_self:
        res["conv1_self"] = _mean_product(ctx.g1.T, ctx.xt, b,
                                          o.get("conv1_self"))
    return res


def _node_scatter(ctx, mtbar, xtbar, want_features, want_adjacency):
    """Pull the adjoints of ``mt = at @ x`` and ``xt`` back to x and anorm.

    ``xtbar`` is None for a model without a self weight or when the features
    are not wanted. A shared graph sums over the targets; a batch of graphs
    keeps one stack entry per sample. An input not wanted comes back as None.
    """
    xbar = abar = None
    if ctx.targets is None:  # every row is a target: no scatter
        if want_features:
            xbar = np.dot(ctx.anorm.T, mtbar)
            if xtbar is not None:
                xbar += xtbar
        if want_adjacency:
            abar = np.dot(mtbar, ctx.x.T)
        return xbar, abar
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
        xbar = np.dot(ctx.at.T, mtbar)
        if xtbar is not None:
            np.add.at(xbar, ctx.targets, xtbar)
    if want_adjacency:
        abar = np.zeros((ctx.x.shape[0], ctx.x.shape[0]))
        np.add.at(abar, ctx.targets, np.dot(mtbar, ctx.x.T))
    return xbar, abar


def node_input_grads(ctx, params):
    """First-order d loss / d features and d loss / d anorm, summed over samples."""
    t = params.tensors
    xtbar = ctx.g1 @ t["conv1_self"] if "conv1_self" in t else None
    return _node_scatter(ctx, ctx.g1 @ t["conv1_agg"], xtbar, True, True)


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

    # contractions of each sample's rows with its co-tensors:
    # (S, F, D) with (S, D) -> (S, F) and (S, F) with (S, F, D) -> (S, D)
    g1bar = _covec_rows(v["conv1_agg"], ctx.mt) + v["conv1_bias"]
    if w_self is not None:
        g1bar += _covec_rows(v["conv1_self"], ctx.xt)
    mtbar = _rows_covec(ctx.g1, v["conv1_agg"])

    ubar = g1bar * ctx.st
    stbar = g1bar * ctx.u
    g2bar = (_covec_rows(v["out_weight"], ctx.ht) + v["out_bias"]
             + np.dot(ubar, w_out.T))
    pbar = ctx.q * g2bar - (g2bar * ctx.q).sum(axis=-1, keepdims=True) * ctx.q
    htbar = (np.dot(pbar, w_out)
             + _rows_covec(ctx.g2, v["out_weight"])
             + stbar * (1.0 - 2.0 * ctx.ht))
    ztbar = htbar * ctx.st
    mtbar = mtbar + np.dot(ztbar, w_agg)
    xtbar = None
    if want_features and w_self is not None:
        xtbar = _rows_covec(ctx.g1, v["conv1_self"]) + np.dot(ztbar, w_self)
    return _node_scatter(ctx, mtbar, xtbar, want_features, want_adjacency)


def forward_node(params, g, anorm, target, label):
    """Node classifier's loss at ``target`` for ``label``; feeds the backward passes."""
    if params.task != "node":
        raise ShapeError("params are not a node-task model")
    mat = _check_norm(params, anorm)
    x = g.features if isinstance(g, Graph) else np.asarray(g, dtype=np.float64)
    if not 0 <= target < x.shape[0]:
        raise ShapeError(f"target {target} out of range")
    labels = check_labels(label, params.num_classes)
    trace = node_ctx(params, x, mat, [target], labels)
    trace.losses = _ce_rows(trace.logits, labels)
    return trace


def _single(stacked):
    return {k: v[0] for k, v in stacked.items()}


def backward_node(params, trace):
    """The parameter gradient bundle of a recorded node forward."""
    return GradientBundle(tensors=_single(node_bundles(trace, params)))


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
    hbar: np.ndarray = field(repr=False, default=None)   # gp @ mlp_weight
    g2w: np.ndarray = field(repr=False, default=None)    # g2 @ conv2_agg
    u1: np.ndarray = field(repr=False, default=None)
    g1: np.ndarray = field(repr=False, default=None)
    g2: np.ndarray = field(repr=False, default=None)
    losses: np.ndarray = None


def _swap(a):
    """Transpose of the last two axes (of every matrix in a stack)."""
    return a.swapaxes(-1, -2)


def graph_ctx(params, x, anorm, labels, onehot_rows=None):
    """Forward + first-order backward intermediates; x is (B, N, D).

    ``labels`` must already have passed :func:`check_labels`;
    ``onehot_rows`` are their :func:`onehot` rows when built once by the
    caller.
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
    if onehot_rows is None:
        onehot_rows = onehot(labels, ctx.q.shape[-1])
    ctx.gp = ctx.q - onehot_rows

    ctx.hbar = (ctx.gp @ t["mlp_weight"]).reshape(ctx.hidden2.shape)
    ctx.g2 = ctx.hbar * ctx.sig2
    ctx.g2w = ctx.g2 @ t["conv2_agg"]
    ctx.u1 = _swap(anorm) @ ctx.g2w
    if "conv2_self" in t:
        ctx.u1 = ctx.u1 + ctx.g2 @ t["conv2_self"]
    ctx.g1 = ctx.u1 * ctx.sig1
    return ctx


def graph_bundles(ctx, params, out=None):
    """The batch mean of the B graphs' gradients, as a stack of one.

    A single graph is a batch of one. The B graphs' node rows are stacked
    into one (B*N)-row matrix per operand, so each weight gradient is one
    matrix product over every sample's nodes. ``out`` works as in
    :func:`node_bundles`.
    """
    o = out or {}
    b = ctx.x.shape[0]

    def rows(a):
        return a.reshape(-1, a.shape[-1])

    g2 = rows(ctx.g2)
    g1 = rows(ctx.g1)
    res = {
        "mlp_weight": _mean_product(ctx.gp.T, ctx.flat, b, o.get("mlp_weight")),
        "mlp_bias": _mean_sum(ctx.gp, b, o.get("mlp_bias")),
        "conv2_agg": _mean_product(g2.T, rows(ctx.agg2), b, o.get("conv2_agg")),
        "conv2_bias": _mean_sum(g2, b, o.get("conv2_bias")),
        "conv1_agg": _mean_product(g1.T, rows(ctx.agg1), b, o.get("conv1_agg")),
        "conv1_bias": _mean_sum(g1, b, o.get("conv1_bias")),
    }
    if "conv2_self" in params.tensors:
        res["conv2_self"] = _mean_product(g2.T, rows(ctx.hidden1), b,
                                          o.get("conv2_self"))
    if "conv1_self" in params.tensors:
        res["conv1_self"] = _mean_product(g1.T, rows(ctx.x), b,
                                          o.get("conv1_self"))
    return res


def graph_input_grads(ctx, params):
    """First-order d loss / d features and d loss / d anorm, per sample."""
    t = params.tensors
    m1bar = ctx.g1 @ t["conv1_agg"]
    xbar = _swap(ctx.anorm) @ m1bar
    if "conv1_self" in t:
        xbar = xbar + ctx.g1 @ t["conv1_self"]
    return xbar, ctx.g2w @ _swap(ctx.hidden1) + m1bar @ _swap(ctx.x)


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
        abar_n = ctx.g2w @ _swap(u1bar)
    if w2s is not None:
        g2bar += u1bar @ w2s.T

    # adjoints of the second-layer gradient outputs
    g2bar += ctx.agg2 @ _swap(v["conv2_agg"]) + v["conv2_bias"][:, None, :]
    m2bar = ctx.g2 @ v["conv2_agg"]
    if w2s is not None:
        g2bar += ctx.hidden1 @ _swap(v["conv2_self"])

    # adjoints of the readout gradient outputs
    gpbar = _covec_rows(v["mlp_weight"], ctx.flat) + v["mlp_bias"]
    rbar = (g2bar * ctx.sig2).reshape(b, -1)
    gpbar += rbar @ wm.T
    s2bar = g2bar * ctx.hbar

    pbar = ctx.q * gpbar - (gpbar * ctx.q).sum(axis=-1, keepdims=True) * ctx.q
    hflatbar = pbar @ wm + _rows_covec(ctx.gp, v["mlp_weight"])
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


def forward_graph(params, g, anorm, graph_label):
    """Graph classifier's loss for ``graph_label``; feeds the backward passes."""
    if params.task != "graph":
        raise ShapeError("params are not a graph-task model")
    mat = _check_norm(params, anorm)
    x = g.features if isinstance(g, Graph) else np.asarray(g, dtype=np.float64)
    labels = check_labels(graph_label, params.num_classes)
    trace = graph_ctx(params, x, mat, labels)
    trace.losses = _ce_rows(trace.logits, labels)
    return trace


def backward_graph(params, trace):
    """The parameter gradient bundle of a recorded graph forward."""
    return GradientBundle(tensors=_single(graph_bundles(trace, params)))


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
