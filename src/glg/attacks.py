"""Iterative gradient-matching attacks and their objectives.

The attacker holds leaked gradient bundles, a copy of the model, and
optionally part of the private data. Dummy inputs are pushed through the
model, their gradients compared to the leak under an L2 or cosine
objective (plus smoothness and Frobenius regularizers when structure is
being recovered), and the dummies updated by Adam. Adjacency dummies stay
symmetric by construction: only the strict lower triangle is optimized,
each step is projected back into [0, 1], and the final probabilistic
matrix is binarized by Bernoulli sampling or min-max thresholding.
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
from .federated import LeakRecord
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
    GradientBundle,
    check_labels,
    graph_bundles,
    graph_ctx,
    graph_matching_grad,
    infer_label,
    node_bundles,
    node_ctx,
    node_matching_grad,
)
from .numkit import AdamState, adam_step, make_rng, sample_bernoulli

__all__ = [
    "AttackSpec",
    "RecoveryResult",
    "attack_batched",
    "attack_graph",
    "attack_node1",
    "attack_node2",
    "finalize_adjacency",
    "frobenius_penalty",
    "grad_match_cosine",
    "grad_match_l2",
    "project_interval",
    "smoothness",
]

SCENARIOS = ("node1", "node2a", "node2b", "node2c", "graph_a", "graph_b", "graph_c")
OBJECTIVES = ("cosine", "l2")
INITS = ("gaussian", "constant", "tree")
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
    restarts: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in SCENARIOS:
            raise ConfigError(f"scenario must be one of {SCENARIOS}", "scenario")
        if self.objective not in OBJECTIVES:
            raise ConfigError(f"objective must be one of {OBJECTIVES}", "objective")
        if self.init not in INITS:
            raise ConfigError(f"init must be one of {INITS}", "init")
        if self.init == "tree" and self.scenario != "node1":
            raise ConfigError("tree init only applies to node1", "init")
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
        for name in ("iterations", "restarts", "d_tree"):
            check_int(getattr(self, name), name, 1)
        check_int(self.seed, "seed", 0)


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
    :class:`DegenerateGradientError` under the cosine objective.
    """
    if kind == "l2":
        def match(dummy_flat):
            diff = dummy_flat - leaked_flat
            return float((diff * diff).sum()), 2.0 * diff
        return match

    ln = np.sqrt((leaked_flat * leaked_flat).sum(axis=1, keepdims=True))
    if np.any(ln == 0.0):
        raise DegenerateGradientError("zero-norm leaked gradient bundle in "
                                      "cosine objective")
    v = leaked_flat / ln

    def match(dummy_flat):
        dn = np.sqrt((dummy_flat * dummy_flat).sum(axis=1, keepdims=True))
        if np.any(dn == 0.0):
            raise DegenerateGradientError("zero-norm dummy gradient bundle in "
                                          "cosine objective")
        u = dummy_flat / dn
        w = u - v
        # 0.5 ||u - v||^2 equals 1 - cos and is exactly zero on identical bundles
        value = float(0.5 * (w * w).sum())
        return value, (w - u * (u * w).sum(axis=1, keepdims=True)) / dn

    return match


def _pair_match(leaked, dummy, kind):
    """:func:`_matcher` value on one-row stacks of two bundles."""
    lf = _flatten(_stack_tensors([leaked]), leaked.param_names)
    df = _flatten(_stack_tensors([dummy]), dummy.param_names)
    if leaked.param_names != dummy.param_names or lf.shape != df.shape:
        raise ShapeError("bundles are not congruent")
    return _matcher(lf, kind)(df)[0]


def grad_match_l2(leaked, dummy):
    """Squared entrywise distance between two gradient bundles."""
    return _pair_match(leaked, dummy, "l2")


def grad_match_cosine(leaked, dummy):
    """One minus the cosine similarity of two flattened gradient bundles."""
    return _pair_match(leaked, dummy, "cosine")


# ---------------------------------------------------------------------------
# Regularizers, projection, finalization
# ---------------------------------------------------------------------------

def smoothness(x, a):
    """Dirichlet energy of the degree-scaled features over the edge set.

    Sum over edges of ||x_i/sqrt(d_i) - x_j/sqrt(d_j)||^2; zero-degree rows
    contribute nothing. Accepts a weighted adjacency (each ordered pair
    counts half).
    """
    return smoothness_grads(x, a, False, False)[0]


def smoothness_grads(x, a, wrt_features, wrt_adjacency):
    """Value and exact gradients of :func:`smoothness`, degrees included."""
    x = np.asarray(x, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    d = a.sum(axis=1)
    r = np.where(d > 0.0, 1.0 / np.sqrt(np.where(d > 0.0, d, 1.0)), 0.0)
    u = x * r[:, None]
    sq = (u * u).sum(axis=1)
    pair = sq[:, None] + sq[None, :] - 2.0 * (u @ u.T)
    value = float(0.5 * (a * pair).sum())
    gu = (d + a.sum(axis=0))[:, None] * u - a @ u - a.T @ u
    gx = None
    if wrt_features:
        gx = gu * r[:, None]
    ga = None
    if wrt_adjacency:
        ga = 0.5 * pair.copy()
        # degree channel: d_k enters every u_k = x_k d_k^{-1/2}
        safe = np.where(d > 0.0, d, 1.0)
        wdeg = np.where(d > 0.0, -0.5 * (gu * u).sum(axis=1) / safe, 0.0)
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

class _SymmetricAdjacency:
    """Strict-lower-triangle parameterization of a [0,1] symmetric matrix."""

    def __init__(self, init_matrix, lr):
        self.n = init_matrix.shape[0]
        self.rows, self.cols = np.tril_indices(self.n, k=-1)
        self.theta = project_interval(init_matrix)[self.rows, self.cols]
        self.adam = AdamState(lr=lr)

    def matrix(self):
        a = np.zeros((self.n, self.n))
        a[self.rows, self.cols] = self.theta
        return a + a.T

    def step(self, grad_full):
        g = grad_full[self.rows, self.cols] + grad_full[self.cols, self.rows]
        self.theta = np.clip(adam_step(self.adam, self.theta, g), 0.0, 1.0)


def _init_features(rng, spec, shape, warm=None):
    if warm is not None:
        warm = np.array(warm, dtype=np.float64)
        if warm.shape != tuple(shape):
            raise ShapeError(f"init_features shape {warm.shape}, expected "
                             f"{tuple(shape)}")
        return warm
    if spec.init == "constant":
        return np.full(shape, float(spec.init_value))
    return rng.standard_normal(shape)


def _init_adjacency(rng, spec, n, warm=None):
    if warm is not None:
        warm = np.asarray(warm, dtype=np.float64)
        if warm.shape != (n, n):
            raise ShapeError(f"init_adjacency shape {warm.shape}, expected "
                             f"{(n, n)}")
        return warm
    if spec.init == "constant":
        return np.full((n, n), float(spec.init_value))
    return project_interval(rng.standard_normal((n, n)))


def _bundles_of(leak):
    if isinstance(leak, LeakRecord):
        return leak.bundles
    if isinstance(leak, GradientBundle):
        return [leak]
    return list(leak)


def _check_scenario(spec, params, scenarios, task):
    """Raise :class:`ConfigError` unless the spec and model fit this attack."""
    if spec.scenario not in scenarios:
        raise ConfigError(f"spec scenario {spec.scenario} is not one of "
                          f"{scenarios}", "scenario")
    if params.task != task:
        raise ConfigError(f"{spec.scenario} needs a {task}-task model",
                          "scenario")


def _known_matrix(value, name):
    if value is None:
        raise ConfigError(f"scenario requires known {name}", name)
    return np.asarray(value, dtype=np.float64)


def _matching_objective(spec, params, bundles, labels, targets=None,
                        known_x=None, known_a=None, anorm=None,
                        regularize=False):
    """The objective the loop descends: ``f(x, a, update) -> (value, gx, ga)``.

    The loop passes None for a known input; ``known_x``, or ``known_a``
    with its normalization ``anorm``, stands in. The dummies go through the
    model's forward and bundle passes with ``labels`` (one per dummy
    sample); a node-task model reads its loss at ``targets``, by default
    row i for sample i. With as many leaked bundles as labels the rows are
    matched one by one; a single averaged bundle is matched by the dummies'
    batch mean, whose co-vector every sample shares scaled by 1/B. With
    ``update``, gradients of the unknowns come back in their own shapes
    (None otherwise). An optimized adjacency is normalized once per call;
    its gradient goes back through that normalization's parts, as in
    :func:`normalize_dense_backward`. ``regularize`` adds the smoothness and
    Frobenius terms weighted by spec.alpha / spec.beta. The leak's layout and
    cosine norms are computed here, once per attack, so a zero-norm leak
    raises :class:`DegenerateGradientError` before any iteration.
    """
    names = bundles[0].param_names
    leaked = _stack_tensors(bundles)
    layout = _layout(leaked, names)
    match = _matcher(_flatten(leaked, names), spec.objective)
    mode = params.norm_mode
    node = params.task == "node"
    if node and targets is None:
        targets = np.arange(len(labels))
    batch = len(labels) if len(bundles) != len(labels) else None

    def objective(x, a, update):
        opt_x = x is not None
        opt_a = a is not None
        x = x if opt_x else known_x
        a = a if opt_a else known_a
        parts = _normalize(a, mode) if opt_a else None
        an = parts[0] if opt_a else anorm
        # the model passes are looked up here, at call time, so a wrapper
        # swapped into this module's namespace sees every call
        if node:
            ctx = node_ctx(params, x, an, targets, labels)
            stacks = node_bundles(ctx, params)
        else:
            ctx = graph_ctx(params, x, an, labels)
            stacks = graph_bundles(ctx, params)
        if batch:
            stacks = {k: s.mean(axis=0, keepdims=True) for k, s in stacks.items()}
        value, vflat = match(_flatten(stacks, names))
        gx = ga = None
        if update:
            if batch:
                # the matching gradient's batched matmuls broadcast the
                # mean's leading axis of 1 over the samples
                vflat = vflat / batch
            grad = node_matching_grad if node else graph_matching_grad
            gx, abar_norm = grad(ctx, params, _unflatten(vflat, layout), opt_a,
                                 opt_x)
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


def _finite(value, restart, iteration):
    if not math.isfinite(value):
        raise NumericError(f"attack objective is {value} at restart {restart}, "
                           f"iteration {iteration}")
    return value


def _optimize(spec, rng, objective, x_shape=None, n_adj=None, warm_x=None,
              warm_a=None, live_rows=None):
    """Restarted Adam on the unknown features and/or adjacency.

    ``x_shape`` / ``n_adj`` size the unknown features / adjacency and are
    None where that input is known. Each restart draws its starting
    features, then its starting adjacency (``warm_x`` / ``warm_a`` replace
    the draws), and steps the adjacency through :class:`_SymmetricAdjacency`.
    With ``live_rows`` set, only the leading ``live_rows`` feature rows
    (axis -2) of the draw are optimized and reach the objective; the others
    keep their drawn values. A non-finite objective raises
    :class:`NumericError`. Returns the restart with the lowest final
    objective; the result holds the optimized inputs (None where known;
    features in the full ``x_shape``) and the objective trace.
    """
    best = None
    for restart in range(spec.restarts):
        drawn = (None if x_shape is None
                 else _init_features(rng, spec, x_shape, warm_x))
        x = None if drawn is None else drawn[..., :live_rows, :]
        adj = None if n_adj is None else _SymmetricAdjacency(
            _init_adjacency(rng, spec, n_adj, warm_a), spec.learning_rate)
        x_state = AdamState(lr=spec.learning_rate)
        trace = np.zeros(spec.iterations)
        for p in range(spec.iterations):
            value, gx, ga = objective(x, None if adj is None else adj.matrix(), True)
            trace[p] = _finite(value, restart, p)
            if x is not None:
                x = adam_step(x_state, x, gx)
            if adj is not None:
                adj.step(ga)
        a = None if adj is None else adj.matrix()
        final = _finite(objective(x, a, False)[0], restart, spec.iterations)
        if drawn is not None:
            drawn[..., :live_rows, :] = x
        if best is None or final < best.final_objective:
            best = RecoveryResult(features=drawn, adjacency_prob=a,
                                  objective_trace=trace, final_objective=final)
    return best


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
    grandchildren at their starting draw. ``warm_x`` (that shape) warm
    starts the tree features instead of the configured init.
    """
    tree = dummy_tree(rng, spec.d_tree, params.feature_dim)
    live = 1 + spec.d_tree
    b = labels.shape[0]
    objective = _matching_objective(
        spec, params, [bundle], labels, targets=np.zeros(b, dtype=np.int64),
        anorm=normalize_dense(tree.adjacency, params.norm_mode)[:live, :live])
    shape = tree.features.shape if b == 1 else (b,) + tree.features.shape
    return _optimize(spec, rng, objective, x_shape=shape, warm_x=warm_x,
                     live_rows=live)


def attack_node1(leak, spec, params, rng=None, init_features=None):
    """Recover target (and neighbor) features from one node-task bundle.

    Infers the label from the leak and runs the dummy-tree attack on a
    batch of one, with the plain cosine/L2 objective (no regularizers).
    ``features`` comes back in the full tree's shape, the grandchildren at
    their starting draw. ``init_features`` (the full tree's shape) warm
    starts the tree features instead of the configured init.
    """
    _check_scenario(spec, params, ("node1",), "node")
    rng = rng or make_rng(spec.seed)
    bundle = _bundles_of(leak)[0]
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
    known input is required. A recovered adjacency is binarized with the
    configured finalization after the best restart is chosen.
    """
    opt_x = spec.scenario[-1] in "bc"
    opt_a = spec.scenario[-1] in "ac"
    known_x = None if opt_x else _known_matrix(known_features, "features")
    known_a = None if opt_a else _known_matrix(known_adjacency, "adjacency")
    anorm = None if opt_a else normalize_dense(known_a, params.norm_mode)
    objective = _matching_objective(spec, params, bundles, labels,
                                    known_x=known_x, known_a=known_a,
                                    anorm=anorm, regularize=True)
    rng = rng or make_rng(spec.seed)
    best = _optimize(spec, rng, objective,
                     x_shape=(n, params.feature_dim) if opt_x else None,
                     n_adj=n if opt_a else None,
                     warm_x=init_features, warm_a=init_adjacency)
    best.labels = labels
    if opt_a:
        best.adjacency = finalize_adjacency(
            best.adjacency_prob, spec.finalization, rng=rng, tau=spec.threshold)
    return best


def attack_node2(leak, spec, params, known_features=None, known_adjacency=None,
                 rng=None, init_features=None, init_adjacency=None):
    """Recover features and/or structure from per-node bundles of a subgraph.

    node2a optimizes the adjacency (features known), node2b the features
    (adjacency known), node2c both. The objective sums per-node matching
    losses and adds the smoothness and Frobenius terms weighted by
    spec.alpha / spec.beta. ``init_features`` / ``init_adjacency`` warm
    start the optimized variables instead of the configured init.
    """
    _check_scenario(spec, params, ("node2a", "node2b", "node2c"), "node")
    bundles = _bundles_of(leak)
    labels = check_labels([infer_label(b) for b in bundles], params.num_classes)
    return _attack_unknowns(spec, params, rng, bundles, len(bundles), labels,
                            known_features, known_adjacency, init_features,
                            init_adjacency)


def attack_graph(leak, spec, params, known_features=None, known_adjacency=None,
                 rng=None, init_features=None, init_adjacency=None):
    """Recover features and/or structure from one graph-task bundle.

    Same unknown-selection logic as the subgraph attack, driven by a single
    graph-level loss. With alpha = beta = 0 the objective reduces to the
    plain matching loss.
    """
    _check_scenario(spec, params, ("graph_a", "graph_b", "graph_c"), "graph")
    bundle = _bundles_of(leak)[0]
    labels = check_labels(infer_label(bundle), params.num_classes)
    return _attack_unknowns(spec, params, rng, [bundle], params.num_nodes,
                            labels, known_features, known_adjacency,
                            init_features, init_adjacency)


def attack_batched(leak, spec, params, labels, known_adjacencies=None, rng=None):
    """Jointly recover a batch of samples from one averaged bundle.

    Node task: the dummy-tree attack of :func:`attack_node1` with one tree
    per sample, optimized so the batch-averaged dummy gradient matches the
    leak; at B = 1 it is that attack. Graph task: per-sample known
    adjacencies, per-sample feature matrices optimized. True labels must be
    supplied; averaging destroys the per-sample sign structure that
    single-sample label inference relies on. The spec's scenario is node1
    for a node-task model and graph_b for a graph-task model.
    """
    _check_scenario(spec, params,
                    ("node1",) if params.task == "node" else ("graph_b",),
                    params.task)
    rng = rng or make_rng(spec.seed)
    bundle = _bundles_of(leak)[0]
    b = leak.batch_size if isinstance(leak, LeakRecord) else len(labels)
    labels = check_labels(labels, params.num_classes)
    if labels.shape[0] != b:
        raise ConfigError(f"{labels.shape[0]} labels for batch of {b}", "labels")

    if params.task == "node":
        best = _attack_trees(spec, params, rng, bundle, labels)
    else:
        if known_adjacencies is None:
            raise ConfigError("batched graph attack needs known adjacencies",
                              "known_adjacencies")
        anorm = np.stack([
            normalize_dense(np.asarray(a, dtype=np.float64), params.norm_mode)
            for a in known_adjacencies
        ])
        objective = _matching_objective(spec, params, [bundle], labels,
                                        anorm=anorm)
        best = _optimize(spec, rng, objective,
                         x_shape=(b, params.num_nodes, params.feature_dim))
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
