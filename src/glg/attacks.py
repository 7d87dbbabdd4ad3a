"""Iterative gradient-matching attacks and their objectives.

The attacker holds leaked gradient bundles, a copy of the model, and
optionally part of the private data. Dummy inputs are pushed through the
model, their gradients compared to the leak under an L2 or cosine
objective (plus smoothness and Frobenius regularizers when structure is
being recovered), and the dummies updated by Adam. Adjacency dummies stay
symmetric by construction: each off-diagonal pair is one unknown, each
step is projected back into [0, 1], and the final probabilistic matrix is
binarized by Bernoulli sampling or min-max thresholding. Each attack
draws from the ``numpy.random.Generator`` it is passed as ``rng``.
"""

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import (
    ConfigError,
    DegenerateGradientError,
    NumericError,
    ShapeError,
    check_int,
)
from .graphs import (
    _normalize,
    _normalize_backward,
    dummy_tree,
    normalize_dense,
)
# not called here: the loop hands the forward's normalization parts to
# _normalize_backward; bench/tracing.py wraps this name in this module
from .graphs import normalize_dense_backward  # noqa: F401
from .models import (
    _gather_rows,
    check_labels,
    graph_bundles,
    graph_ctx,
    graph_matching_grad,
    infer_label,
    node_bundles,
    node_ctx,
    node_matching_grad,
    node_mean_bundle,
    onehot,
)
from .numkit import AdamState, adam_step, sample_bernoulli

__all__ = [
    "AttackSpec",
    "RecoveryResult",
    "attack_batched",
    "attack_graph",
    "attack_node1",
    "attack_node2",
    "finalize_adjacency",
    "frobenius_penalty",
    "project_interval",
]

SCENARIOS = ("node1", "node2a", "node2b", "node2c", "graph_a", "graph_b", "graph_c")
OBJECTIVES = ("cosine", "l2")
INITS = ("gaussian", "constant")
FINALIZATIONS = ("bernoulli", "threshold")


@dataclass
class AttackSpec:
    """Configuration of one attack run."""

    scenario: str
    objective: str = "cosine"
    alpha: float = 1e-9            # smoothness weight
    beta: float = 1e-7             # Frobenius weight
    learning_rate: float = 0.05
    iterations: int = 2000
    init: str = "gaussian"
    init_value: float = 0.5        # fill value for constant init
    d_tree: int = 10               # dummy-tree degree (node1)
    finalization: str = "bernoulli"
    threshold: float = 0.5

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}", "scenario")
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"objective must be one of {OBJECTIVES}", "objective")
        if self.init not in INITS:
            raise ConfigError(f"init must be one of {INITS}", "init")
        if self.finalization not in FINALIZATIONS:
            raise ConfigError(
                f"finalization must be one of {FINALIZATIONS}", "finalization"
            )
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate must be finite and positive",
                              "learning_rate")
        for name in ("alpha", "beta", "init_value", "threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError("must be finite", name)
        if self.alpha < 0 or self.beta < 0:
            raise ConfigError("regularizer weights must be non-negative", "alpha")
        if not 0.0 <= self.threshold <= 1.0:
            raise ConfigError("threshold must lie in [0, 1]", "threshold")
        for name in ("iterations", "d_tree"):
            check_int(getattr(self, name), name, 1)


@dataclass
class RecoveryResult:
    """Output of one attack: recovered data plus the optimization trace."""

    features: Optional[np.ndarray] = None
    adjacency_prob: Optional[np.ndarray] = None
    adjacency: Optional[np.ndarray] = None
    labels: Optional[np.ndarray] = None
    objective_trace: np.ndarray = field(default_factory=lambda: np.zeros(0))
    target_feature: Optional[np.ndarray] = None
    neighbor_features: Optional[np.ndarray] = None
    final_objective: float = np.inf


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------

def _stack_tensors(bundles):
    names = bundles[0].param_names
    return {k: np.stack([b.tensors[k] for b in bundles]) for k in names}


def _flatten(stacks, names):
    s = stacks[names[0]].shape[0]
    return np.concatenate([stacks[k].reshape(s, -1) for k in names], axis=1)


def _layout(stacks, names):
    """``(name, start, stop, shape)`` of each tensor in a flattened stack row."""
    out = []
    pos = 0
    for k in names:
        shape = stacks[k].shape
        size = math.prod(shape[1:])
        out.append((k, pos, pos + size, shape))
        pos += size
    return out


def _unflatten(mat, layout):
    return {k: mat[:, lo:hi].reshape(shape) for k, lo, hi, shape in layout}


def _matcher(leaked_flat, kind):
    """``match(dummy_flat) -> (value, d value / d dummy_flat)`` against the leak.

    The value is the sum of per-row matching losses. The leak's own norms
    and unit rows are computed here, once; a zero-norm leaked row raises
    :class:`DegenerateGradientError` under the cosine objective. The
    gradient is written into one array allocated here: every call returns
    that same array, and the next call overwrites it.
    """
    grad = np.empty_like(leaked_flat)
    if kind == "l2":
        def match(dummy_flat):
            np.subtract(dummy_flat, leaked_flat, out=grad)
            value = float((grad * grad).sum())
            np.multiply(grad, 2.0, out=grad)
            return value, grad
        return match

    ln = np.sqrt((leaked_flat * leaked_flat).sum(axis=1, keepdims=True))
    if np.any(ln == 0.0):
        raise DegenerateGradientError("zero-norm leaked gradient bundle in "
                                      "cosine objective")
    v = leaked_flat / ln

    def match(dummy_flat):
        dn = np.sqrt((dummy_flat * dummy_flat).sum(axis=1, keepdims=True))
        if (dn == 0.0).any():
            raise DegenerateGradientError("zero-norm dummy gradient bundle in "
                                          "cosine objective")
        u = dummy_flat / dn
        w = u - v
        # 0.5 ||u - v||^2 equals 1 - cos and is exactly zero on identical bundles
        value = 0.5 * float((w * w).sum())
        np.multiply(u, (u * w).sum(axis=1, keepdims=True), out=grad)
        np.subtract(w, grad, out=grad)
        np.divide(grad, dn, out=grad)
        return value, grad

    return match


# ---------------------------------------------------------------------------
# Regularizers, projection, finalization
# ---------------------------------------------------------------------------

def smoothness_grads(x, a, wrt_features, wrt_adjacency):
    """Dirichlet energy of the degree-scaled features over the edge set.

    The value is the sum over edges of ||x_i/sqrt(d_i) - x_j/sqrt(d_j)||^2;
    zero-degree rows contribute nothing. Accepts a weighted adjacency (each
    ordered pair counts half). Returns ``(value, gx, ga)`` with the exact
    gradients, degrees included, of the inputs asked for (None otherwise).
    """
    x = np.asarray(x, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    d = a.sum(axis=1)
    pos = d > 0.0
    safe = np.where(pos, d, 1.0)
    r = np.where(pos, 1.0 / np.sqrt(safe), 0.0)
    u = x * r[:, None]
    sq = (u * u).sum(axis=1)
    pair = sq[:, None] + sq[None, :] - 2.0 * np.dot(u, u.T)
    value = float(0.5 * (a * pair).sum())
    gu = (d + a.sum(axis=0))[:, None] * u - np.dot(a, u) - np.dot(a.T, u)
    gx = None
    if wrt_features:
        gx = gu * r[:, None]
    ga = None
    if wrt_adjacency:
        ga = 0.5 * pair
        # degree channel: d_k enters every u_k = x_k d_k^{-1/2}
        wdeg = np.where(pos, -0.5 * (gu * u).sum(axis=1) / safe, 0.0)
        ga += wdeg[:, None]
    return value, gx, ga


def frobenius_penalty(a):
    """Squared Frobenius norm; the sparsity-promoting term on the adjacency."""
    a = np.asarray(a, dtype=np.float64)
    return float((a * a).sum())


def project_interval(m):
    """Entrywise clamp to [0, 1]."""
    return np.clip(np.asarray(m, dtype=np.float64), 0.0, 1.0)


def finalize_adjacency(prob, rule, rng=None, tau=0.5):
    """Binarize a probabilistic adjacency.

    bernoulli: entrywise draw with the given probabilities. threshold:
    min-max normalize the off-diagonal entries, then keep entries at or
    above tau; when they are all equal, compare the raw entries with tau.
    Either way the lower triangle is mirrored and the diagonal zeroed.
    """
    prob = np.asarray(prob, dtype=np.float64)
    if rule == "bernoulli":
        if rng is None:
            raise ValueError("bernoulli finalization needs an rng")
        draw = sample_bernoulli(rng, prob)
        lower = np.tril(draw, k=-1)
        return lower + lower.T
    if rule == "threshold":
        off = prob[~np.eye(prob.shape[0], dtype=bool)]
        z = prob
        if off.size and off.max() > off.min():
            z = (prob - off.min()) / (off.max() - off.min())
        lower = np.tril((z >= tau).astype(np.float64), k=-1)
        return lower + lower.T
    raise ValueError(f"unknown finalization rule {rule!r}")


# ---------------------------------------------------------------------------
# The optimization loop shared by every attack
# ---------------------------------------------------------------------------

def _checked(value, shape, name):
    """Float64 copy of the argument ``name``, which must have ``shape``."""
    try:
        value = np.array(value, dtype=np.float64)
    except ValueError:
        raise ShapeError(f"{name} is not one numeric array") from None
    if value.shape != shape:
        raise ShapeError(f"{name} shape {value.shape}, expected {shape}")
    return value


def _start(rng, spec, shape, warm, name):
    """Starting point of an optimized input: ``warm`` if given, else the init."""
    if warm is not None:
        return _checked(warm, shape, name)
    if spec.init == "constant":
        return np.full(shape, float(spec.init_value))
    return rng.standard_normal(shape)


def _check_scenario(spec, params, scenarios, task):
    """Raise :class:`ConfigError` unless the spec and model fit this attack."""
    if spec.scenario not in scenarios:
        raise ConfigError(f"spec scenario {spec.scenario} is not one of "
                          f"{scenarios}", "scenario")
    if params.task != task:
        raise ConfigError(f"{spec.scenario} needs a {task}-task model",
                          "scenario")


def _known(value, shape, name):
    if value is None:
        raise ConfigError(f"scenario requires {name}", name)
    return _checked(value, shape, name)


def _matching_objective(spec, params, bundles, labels, targets=None,
                        known_x=None, known_a=None, anorm=None,
                        regularize=False):
    """The objective the loop descends: ``f(x, a, update) -> (value, gx, ga)``.

    The loop passes None for a known input; ``known_x``, or ``known_a``
    with its normalization ``anorm``, stands in. The dummies go through the
    model's forward and bundle passes with ``labels`` (one per dummy
    sample); a node-task model reads its loss at ``targets``, by default
    (None) row i for sample i. With as many leaked bundles as labels the
    rows are matched one by one; a single averaged bundle is matched by the
    dummies' batch mean, computed without per-sample stacks, whose
    co-vector every sample shares scaled by 1/B. With
    ``update``, gradients of the unknowns come back in their own shapes
    (None otherwise). An optimized adjacency is normalized once per call;
    its gradient goes back through that normalization's parts, as in
    :func:`normalize_dense_backward`. ``regularize`` adds the smoothness and
    Frobenius terms weighted by spec.alpha / spec.beta.

    Whatever stays fixed for the whole attack is built here, once: the
    leak's layout and cosine norms (so a zero-norm leak raises
    :class:`DegenerateGradientError` before any iteration), the labels'
    one-hot rows, the target rows of a known normalized adjacency, and
    two buffers shaped like the leak's flat rows, each with per-tensor
    views: the dummy's bundle rows, which the bundle pass writes, and the
    matcher's gradient, which the matching pass reads as its co-vector.
    """
    names = bundles[0].param_names
    missing = set(names) - set(params.param_names)
    if missing:
        raise ShapeError(f"leaked tensors {sorted(missing)} are not in the "
                         "model")
    leaked = _stack_tensors(bundles)
    layout = _layout(leaked, names)
    leaked_flat = _flatten(leaked, names)
    match = _matcher(leaked_flat, spec.objective)
    dummy_flat = np.empty_like(leaked_flat)
    dummy = _unflatten(dummy_flat, layout)
    covec = None  # views into the matcher's gradient array, made once
    mode = params.norm_mode
    node = params.task == "node"
    batch = len(labels) if len(bundles) != len(labels) else None
    onehot_rows = onehot(labels, params.num_classes)
    known_at = None if anorm is None else _gather_rows(anorm, targets)

    def objective(x, a, update):
        nonlocal covec
        opt_x = x is not None
        opt_a = a is not None
        x = x if opt_x else known_x
        a = a if opt_a else known_a
        parts = _normalize(a, mode) if opt_a else None
        an = parts[0] if opt_a else anorm
        # the model passes are looked up here, at call time, so a wrapper
        # swapped into this module's namespace sees every call
        if node:
            ctx = node_ctx(params, x, an, targets, labels, onehot_rows,
                           None if opt_a else known_at)
            (node_mean_bundle if batch else node_bundles)(ctx, params, out=dummy)
        else:
            ctx = graph_ctx(params, x, an, labels, onehot_rows)
            graph_bundles(ctx, params, out=dummy)
        value, vflat = match(dummy_flat)
        gx = ga = None
        if update:
            if batch:
                # every sample shares the mean's co-vector, scaled by 1/B
                vflat /= batch
            if covec is None:
                covec = _unflatten(vflat, layout)
            grad = node_matching_grad if node else graph_matching_grad
            gx, abar_norm = grad(ctx, params, covec, opt_a, opt_x)
            if opt_x:
                gx = gx.reshape(x.shape)
            if opt_a:
                ga = _normalize_backward(abar_norm.reshape(a.shape), parts,
                                         mode)
        if regularize and spec.alpha > 0.0:
            s_val, s_gx, s_ga = smoothness_grads(
                x, a, wrt_features=gx is not None, wrt_adjacency=ga is not None)
            value += spec.alpha * s_val
            if gx is not None:
                gx += spec.alpha * s_gx
            if ga is not None:
                ga += spec.alpha * s_ga
        if regularize and spec.beta > 0.0:
            value += spec.beta * frobenius_penalty(a)
            if ga is not None:
                ga += spec.beta * 2.0 * a
        return value, gx, ga

    return objective


def _finite(value, iteration):
    if not math.isfinite(value):
        raise NumericError(f"attack objective is {value} at iteration "
                           f"{iteration}")
    return value


def _optimize(spec, objective, x=None, a=None):
    """One Adam run on the unknown features and/or adjacency.

    ``x`` / ``a`` are the starting points, None where that input is known.
    The adjacency starts as the mirrored strict lower triangle of ``a``
    projected into [0, 1]; both entries of an off-diagonal pair step on the
    pair's summed gradient, so they stay equal, and the diagonal on a zero
    gradient, so it stays 0; each step is clipped back into [0, 1]. A
    non-finite objective raises :class:`NumericError`. The result holds the
    optimized inputs (None where known) and the objective trace.
    """
    if a is not None:
        a = np.tril(project_interval(a), k=-1)
        a = a + a.T
    x_state = AdamState(lr=spec.learning_rate)
    a_state = AdamState(lr=spec.learning_rate)
    trace = np.zeros(spec.iterations)
    for p in range(spec.iterations):
        value, gx, ga = objective(x, a, True)
        trace[p] = _finite(value, p)
        if x is not None:
            x = adam_step(x_state, x, gx)
        if a is not None:
            ga = ga + ga.T
            ga.flat[::ga.shape[0] + 1] = 0.0
            # np.clip's bits, without its dispatch overhead
            a = np.minimum(np.maximum(adam_step(a_state, a, ga), 0.0), 1.0)
    final = _finite(objective(x, a, False)[0], spec.iterations)
    return RecoveryResult(features=x, adjacency_prob=a, objective_trace=trace,
                          final_objective=final)


# ---------------------------------------------------------------------------
# Attacks
# ---------------------------------------------------------------------------

def _attack_trees(spec, params, rng, bundle, labels, warm_x=None):
    """One dummy tree per label, matched to one (averaged) node-task bundle.

    Each tree's target is its root. Only the target and its d_tree
    children are optimized: the target's row of the normalized adjacency
    reads no other row, so the grandchildren get no gradient (they still
    set the children's degrees). One tree keeps the (N, D) layout, B trees
    the (B, N, D) stack; ``features`` comes back in that full shape, the
    grandchildren at their starting point. ``warm_x`` (that shape) warm
    starts the tree features instead of the configured init.
    """
    tree = dummy_tree(rng, spec.d_tree, params.feature_dim)
    live = 1 + spec.d_tree
    b = labels.shape[0]
    objective = _matching_objective(
        spec, params, [bundle], labels, targets=np.zeros(b, dtype=np.int64),
        anorm=normalize_dense(tree.adjacency, params.norm_mode)[:live, :live])
    shape = tree.features.shape if b == 1 else (b,) + tree.features.shape
    x = _start(rng, spec, shape, warm_x, "init_features")
    best = _optimize(spec, objective, x=x[..., :live, :])
    x[..., :live, :] = best.features
    best.features = x
    return best


def attack_node1(leak, spec, params, rng, init_features=None):
    """Recover target (and neighbor) features from one node-task bundle.

    Infers the label from the leak and runs the dummy-tree attack on a
    batch of one, with the plain cosine/L2 objective (no regularizers).
    ``rng`` draws the dummy tree, then the gaussian start. ``features``
    comes back in the full tree's shape, the grandchildren at their
    starting draw. ``init_features`` (the full tree's shape) warm starts
    the tree features instead of the configured init.
    """
    _check_scenario(spec, params, ("node1",), "node")
    bundle = leak.bundle
    labels = check_labels(infer_label(bundle), params.num_classes)
    best = _attack_trees(spec, params, rng, bundle, labels, init_features)
    best.labels = labels
    best.target_feature = best.features[0].copy()
    best.neighbor_features = best.features[1:1 + spec.d_tree].copy()
    return best


def _attack_unknowns(spec, params, rng, bundles, n, labels, known_features,
                     known_adjacency, init_features, init_adjacency):
    """Subgraph / whole-graph attack body: the scenario picks the unknowns.

    Scenario suffix a optimizes the adjacency, b the features, c both; the
    known input is required, and a known or warm-start input of the wrong
    shape raises :class:`ShapeError` before any iteration. The features
    start first, then the adjacency. A recovered adjacency is binarized
    with the configured finalization.
    """
    opt_x = spec.scenario[-1] in "bc"
    opt_a = spec.scenario[-1] in "ac"
    xs = (n, params.feature_dim)
    known_x = None if opt_x else _known(known_features, xs, "known_features")
    known_a = None if opt_a else _known(known_adjacency, (n, n),
                                        "known_adjacency")
    anorm = None if opt_a else normalize_dense(known_a, params.norm_mode)
    objective = _matching_objective(spec, params, bundles, labels,
                                    known_x=known_x, known_a=known_a,
                                    anorm=anorm, regularize=True)
    x = _start(rng, spec, xs, init_features, "init_features") if opt_x else None
    a = (_start(rng, spec, (n, n), init_adjacency, "init_adjacency")
         if opt_a else None)
    best = _optimize(spec, objective, x, a)
    best.labels = labels
    if opt_a:
        best.adjacency = finalize_adjacency(
            best.adjacency_prob, spec.finalization, rng=rng, tau=spec.threshold)
    return best


def attack_node2(leak, spec, params, known_features=None, known_adjacency=None,
                 *, rng, init_features=None, init_adjacency=None):
    """Recover features and/or structure from per-node bundles of a subgraph.

    node2a optimizes the adjacency (features known), node2b the features
    (adjacency known), node2c both. The objective sums per-node matching
    losses and adds the smoothness and Frobenius terms weighted by
    spec.alpha / spec.beta. ``rng`` draws the gaussian starts and the
    Bernoulli finalization; ``init_features`` / ``init_adjacency`` warm
    start the optimized variables instead of the configured init.
    """
    _check_scenario(spec, params, ("node2a", "node2b", "node2c"), "node")
    bundles = leak.bundles
    labels = check_labels([infer_label(b) for b in bundles], params.num_classes)
    return _attack_unknowns(spec, params, rng, bundles, len(bundles), labels,
                            known_features, known_adjacency, init_features,
                            init_adjacency)


def attack_graph(leak, spec, params, known_features=None, known_adjacency=None,
                 *, rng, init_features=None, init_adjacency=None):
    """Recover features and/or structure from one graph-task bundle.

    Same unknown-selection logic, ``rng`` and warm starts as the subgraph
    attack, driven by a single graph-level loss. With alpha = beta = 0 the
    objective reduces to the plain matching loss.
    """
    _check_scenario(spec, params, ("graph_a", "graph_b", "graph_c"), "graph")
    bundle = leak.bundle
    labels = check_labels(infer_label(bundle), params.num_classes)
    return _attack_unknowns(spec, params, rng, [bundle], params.num_nodes,
                            labels, known_features, known_adjacency,
                            init_features, init_adjacency)


def attack_batched(leak, spec, params, labels, known_adjacencies=None, *, rng):
    """Jointly recover a batch of samples from one averaged bundle.

    Node task: the dummy-tree attack of :func:`attack_node1` with one tree
    per sample, optimized so the batch-averaged dummy gradient matches the
    leak; at B = 1 it is that attack. Graph task: per-sample known
    adjacencies, per-sample feature matrices optimized. True labels must be
    supplied; averaging destroys the per-sample sign structure that
    single-sample label inference relies on. The spec's scenario is node1
    for a node-task model and graph_b for a graph-task model. ``rng``
    draws the dummy trees or the gaussian starts.
    """
    _check_scenario(spec, params,
                    ("node1",) if params.task == "node" else ("graph_b",),
                    params.task)
    bundle, b = leak.bundle, leak.batch_size
    labels = check_labels(labels, params.num_classes)
    if labels.shape[0] != b:
        raise ConfigError(f"{labels.shape[0]} labels for batch of {b}", "labels")

    if params.task == "node":
        best = _attack_trees(spec, params, rng, bundle, labels)
    else:
        n = params.num_nodes
        known = _known(known_adjacencies, (b, n, n), "known_adjacencies")
        anorm = np.stack([normalize_dense(a, params.norm_mode) for a in known])
        objective = _matching_objective(spec, params, [bundle], labels,
                                        anorm=anorm)
        best = _optimize(spec, objective, x=_start(
            rng, spec, (b, n, params.feature_dim), None, "features"))
    features = best.features.reshape((b, -1, params.feature_dim))
    return [
        RecoveryResult(
            features=features[i].copy(),
            labels=np.array([labels[i]]),
            objective_trace=best.objective_trace,
            final_objective=best.final_objective,
            target_feature=(features[i, 0].copy()
                            if params.task == "node" else None),
        )
        for i in range(b)
    ]
