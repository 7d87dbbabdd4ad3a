"""Iterative gradient-matching attacks and their objectives.

The attacker holds leaked gradient bundles, a copy of the model, and
optionally part of the private data. Dummy inputs are pushed through the
model, their gradients compared to the leak under an L2 or cosine
objective (plus smoothness and Frobenius regularizers when structure is
being recovered), and the dummies updated. node2's per-node bundles are
not matched as bundles: each node's bundle reads the graph only through
its first-layer input, which the leak's row ratios give in closed form,
so node2 matches the dummy's input rows to those by L2, with no model
pass. Each attack reads a leak of its own scenario. An attack's unknowns
are one flat vector: the unknown features raveled, then the strict lower
triangle of an unknown adjacency in ``np.tril_indices(n, k=-1)`` order. Each
off-diagonal pair is thus one unknown in the box [0, 1], and the box picks
the step rule: an attack with an unknown adjacency (node2a/c, graph_a/c)
runs projected Adam, each step clipped back into [0, 1], and its final
probabilistic matrix is binarized by Bernoulli sampling or min-max
thresholding; an attack whose only unknowns are features (node1, node2b,
graph_b, the batched attacks) runs L-BFGS with a backtracking line search.
Each attack draws from the ``numpy.random.Generator`` it is passed as
``rng``.
"""

import math
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import closed_form
from .errors import (
    ConfigError,
    DegenerateGradientError,
    NumericError,
    ShapeError,
    UnrecoverableError,
    check_int,
    check_real,
)
from .graphs import dummy_tree, normalize_dense, normalize_dense_backward
from .models import (
    bundle_rows,
    bundle_views,
    check_bundles,
    check_labels,
    graph_bundles,
    graph_ctx,
    graph_matching_grad,
    infer_label,
    node_bundles,
    node_ctx,
    node_matching_grad,
)
from .numkit import AdamState, LbfgsMemory, adam_step, sample_bernoulli

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

# the L-BFGS loop's curvature pairs: as many as a node1 run keeps, but no
# more than fit in LBFGS_BYTES, since every step reads them twice (64
# pairs of B = 50's 3,000 unknowns are 3 MB); the share of the predicted
# decrease its line search asks of a step, and the step below which the
# search gives up: a unit step's direction is only that exact
LBFGS_PAIRS = 64
LBFGS_BYTES = 256 * 1024
ARMIJO_C1 = 1e-4
MIN_STEP = 2.0 ** -52


@dataclass
class AttackSpec:
    """Configuration of one attack run.

    ``iterations`` caps the run: Adam steps for an attack with an unknown
    adjacency, evaluations of the objective for one whose only unknowns
    are features, which runs L-BFGS and may stop sooner. ``learning_rate``
    is Adam's and applies to the first kind only. ``objective`` is the
    gradient-matching loss of the attacks that match bundles (node1,
    graph_*, batched); node2 matches the leak's layer-input rows by L2
    whatever it says.
    """

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
        for name in ("alpha", "beta", "learning_rate", "init_value",
                     "threshold"):
            check_real(getattr(self, name), name)
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ConfigError("learning_rate must be finite and positive",
                              "learning_rate")
        for name in ("alpha", "beta", "init_value", "threshold"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError("must be finite", name)
        for name in ("alpha", "beta"):
            if getattr(self, name) < 0:
                raise ConfigError("regularizer weights must be non-negative", name)
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
    final_objective: float = np.inf


# ---------------------------------------------------------------------------
# Objectives
# ---------------------------------------------------------------------------

def _matcher(leaked_flat, kind, dummy_flat, grad):
    """``match() -> (value, d value / d dummy_flat)`` against the leak.

    ``dummy_flat`` holds the dummy's rows at each call, and every call
    writes the gradient into ``grad`` and returns it; both have the leak's
    shape. ``l2`` sums the squared differences of every row. ``cosine`` is
    1 - cos between the whole flat leak and the whole flat dummy, each one
    vector (Geiping et al., 2020): every attack that matches by cosine
    matches one bundle row. The temporaries, and the cosine objective's
    unit leak, are made here, once; a zero-norm leak or dummy raises
    :class:`DegenerateGradientError`. Each dot product is one ``np.dot`` of
    flat vectors, and a vector is scaled by its norm's reciprocal. The
    leak goes through the same products as the dummy, so a dummy equal to
    the leak gives a value and gradient of exactly 0.
    """
    if kind == "l2":
        tmp = np.empty_like(grad)

        def match():
            np.subtract(dummy_flat, leaked_flat, out=grad)
            value = float(np.add.reduce(np.multiply(grad, grad, out=tmp),
                                        axis=None))
            np.multiply(grad, 2.0, out=grad)
            return value, grad
        return match

    leaked = leaked_flat.reshape(-1)
    ln = math.sqrt(np.dot(leaked, leaked))
    if ln == 0.0:
        raise DegenerateGradientError("zero-norm leaked gradient bundle in "
                                      "cosine objective")
    v = leaked * (1.0 / ln)
    dummy, out = dummy_flat.reshape(-1), grad.reshape(-1)
    u, w = np.empty((2, len(v)))

    def match():
        dn = math.sqrt(np.dot(dummy, dummy))
        if dn == 0.0:
            raise DegenerateGradientError("zero-norm dummy gradient bundle in "
                                          "cosine objective")
        inv = 1.0 / dn
        np.multiply(dummy, inv, out=u)
        np.subtract(u, v, out=w)
        # 0.5 ||u - v||^2 equals 1 - cos and is exactly zero on identical bundles
        value = 0.5 * float(np.dot(w, w))
        np.multiply(u, np.dot(u, w), out=out)
        np.subtract(w, out, out=out)
        np.multiply(out, inv, out=out)
        return value, grad

    return match


def _input_rows(inputs, n, dummy, grad):
    """The dummy's layer-input rows: ``(rows, rows_grad)``, a pass and its
    adjoint over the rows of ``inputs``
    (:class:`~glg.closed_form.LayerInputs`) of n nodes; inputs that keep no
    node leave nothing to match and raise :class:`UnrecoverableError`.

    ``rows(x, an)`` writes the kept nodes' aggregate rows (an @ x)_i into
    the first rows of ``dummy``, then, when ``inputs.own`` is matched,
    their feature rows x_i. ``rows_grad(x, want_adjacency,
    want_features)`` reads the rows' gradient from ``grad``, laid out as
    ``dummy``: with g_m and g_s its two parts, the features' gradient is
    an_keep^T g_m plus g_s on the kept rows and the normalized
    adjacency's is g_m x^T on the kept rows, zero on the others, both new
    arrays, None when not wanted; an_keep holds the rows of the last
    ``rows`` call's ``an``.
    """
    keep = inputs.keep
    k = len(keep)
    if not k:
        raise UnrecoverableError("no node of the leak has a recoverable "
                                 "layer input")
    own = inputs.own is not None
    agg, agg_grad, own_rows, own_grad = dummy[:k], grad[:k], dummy[k:], grad[k:]
    at = np.empty((k, n))

    def rows(x, an):
        np.dot(an.take(keep, 0, at, "clip"), x, out=agg)
        if own:
            x.take(keep, 0, own_rows, "clip")

    def rows_grad(x, want_adjacency, want_features):
        gx = ga = None
        if want_features:
            gx = np.dot(at.T, agg_grad)
            if own:
                gx[keep] += own_grad
        if want_adjacency:
            ga = np.zeros((n, n))
            ga[keep] = np.dot(agg_grad, x.T)
        return gx, ga

    return rows, rows_grad


# ---------------------------------------------------------------------------
# Regularizers, projection, finalization
# ---------------------------------------------------------------------------

def smoothness_grads(x, a, wrt_features, wrt_adjacency, out=None):
    """Dirichlet energy of the degree-scaled features over the edge set.

    With d the row sums of ``a``, r_i = d_i^{-1/2} (0 on a row of zero
    degree) and u_i = r_i x_i, the value is the sum over edges of
    ||u_i - u_j||^2, so zero-degree rows contribute nothing. Accepts a
    weighted, even non-symmetric, adjacency: each ordered pair counts
    half. Returns ``(value, gx, ga)`` with the exact gradients, degrees
    included, of the inputs asked for (None otherwise); they are written
    into ``out``, a ``(gx, ga)`` pair of buffers shaped like ``x`` and
    ``a`` (either may be None when its gradient is not asked for), when
    it is given.

    Everything but ``gx`` comes from the Gram matrix M = U U^T, that is
    (r r^T) * (x x^T), which is symmetric: with m its diagonal, c the
    column sums of ``a`` and s the row sums of (a + a^T) * M (the row plus
    the column sums of a * M), k = s - c * m gives the value (d . m -
    sum(k)) / 2 and ga_ij = m_j / 2 - M_ij + r_i^2 k_i / 2. That is the
    pair's (m_i + m_j) / 2 - M_ij plus the degree channel (d_i enters
    u_i), -r_i^2 ((d_i + c_i) m_i - s_i) / 2, where r_i^2 d_i = 1 cancels
    the m_i / 2 (on a zero-degree row r_i, m_i and k_i are all 0).
    gx = r * ((d + c) * U - a U - a^T U).
    """
    x = np.asarray(x, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    if a.shape != (len(x), len(x)):
        raise ShapeError(f"adjacency {a.shape} for {len(x)} feature rows")
    gx, ga = (None, None) if out is None else out
    d = np.add.reduce(a, axis=1)
    c = np.add.reduce(a, axis=0)
    pos = d > 0.0
    r = np.zeros(len(d))
    np.divide(1.0, np.sqrt(d, out=r, where=pos), out=r, where=pos)
    u = x * r[:, None]
    gram = np.dot(u, u.T)
    m = gram.diagonal()
    k = np.add.reduce(np.multiply(a + a.T, gram), axis=1)
    k -= np.multiply(c, m)
    value = 0.5 * (float(np.dot(d, m)) - float(np.add.reduce(k)))
    if wrt_features:
        gu = u * (d + c)[:, None]
        gu -= np.dot(a, u)
        gu -= np.dot(a.T, u)
        gx = np.multiply(gu, r[:, None], out=gx)
    if wrt_adjacency:
        r *= r
        k *= r
        ga = np.add(k[:, None], m, out=ga)
        ga *= 0.5
        ga -= gram
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
    Either way the lower triangle is mirrored and the diagonal zeroed. An
    entry that is NaN, Inf or outside [0, 1] raises :class:`NumericError`,
    a matrix that is not square :class:`ShapeError`, an unknown rule or a
    missing ``rng`` :class:`ConfigError`.
    """
    if rule not in FINALIZATIONS:
        raise ConfigError(f"unknown finalization rule {rule!r}", "finalization")
    if rule == "bernoulli" and rng is None:
        raise ConfigError("bernoulli finalization needs an rng", "rng")
    prob = np.asarray(prob, dtype=np.float64)
    if prob.ndim != 2 or prob.shape[0] != prob.shape[1]:
        raise ShapeError(f"adjacency probabilities of shape {prob.shape}")
    # a NaN fails both comparisons, so it is rejected with the out-of-range
    if not ((prob >= 0.0) & (prob <= 1.0)).all():
        raise NumericError("adjacency probability is NaN or Inf or outside [0, 1]")
    if rule == "bernoulli":
        draw = sample_bernoulli(rng, prob)
    else:
        off = prob[~np.eye(prob.shape[0], dtype=bool)]
        z = prob
        if off.size and off.max() > off.min():
            z = (prob - off.min()) / (off.max() - off.min())
        draw = (z >= tau).astype(np.float64)
    lower = np.tril(draw, k=-1)
    return lower + lower.T


# ---------------------------------------------------------------------------
# The optimization loop shared by every attack
# ---------------------------------------------------------------------------

def _start(rng, spec, shape):
    """Starting point of an optimized input: the configured init."""
    if spec.init == "constant":
        return np.full(shape, float(spec.init_value))
    return rng.standard_normal(shape)


def _check_scenario(spec, params, scenarios, task, leak, leaked):
    """Raise :class:`ConfigError` unless the spec, the model and the leak,
    which must be of the ``leaked`` scenario, fit this attack."""
    if spec.scenario not in scenarios:
        raise ConfigError(f"spec scenario {spec.scenario} is not one of "
                          f"{scenarios}", "scenario")
    if params.task != task:
        raise ConfigError(f"{spec.scenario} needs a {task}-task model",
                          "scenario")
    if leak.scenario != leaked:
        raise ConfigError(f"{spec.scenario} needs a {leaked} leak, got "
                          f"{leak.scenario!r}", "scenario")


def _known(value, shape, name):
    """Float64 copy of the known input ``name``, which must have ``shape``."""
    if value is None:
        raise ConfigError(f"scenario requires {name}", name)
    try:
        value = np.array(value, dtype=np.float64)
    except ValueError:
        raise ShapeError(f"{name} is not one numeric array") from None
    if value.shape != shape:
        raise ShapeError(f"{name} shape {value.shape}, expected {shape}")
    return value


def _pairs(n):
    """Flat indices of an (n, n) matrix's strict lower triangle and mirror."""
    rows, cols = np.tril_indices(n, k=-1)
    return rows * n + cols, cols * n + rows


def _matching_objective(spec, params, leaked, labels, x_shape=None, n=0,
                        known_x=None, known_a=None, anorm=None,
                        regularize=False):
    """The objective the loop descends: ``f(z) -> (value, gz)``.

    ``z`` holds the unknowns: the features of shape ``x_shape`` raveled
    (``known_x`` stands in when it is None), then, when ``n`` > 0, the
    (n, n) adjacency's strict lower triangle in ``np.tril_indices(n,
    k=-1)`` order, mirrored into one buffer with a zero diagonal (otherwise
    ``known_a`` and its normalization ``anorm`` stand in). Every call
    returns the value and its gradient ``gz``, a new array like ``z``; a
    pair's entry sums the gradients of its two mirrored entries.

    ``leaked`` is what the dummies are matched against, by one of two
    pass/adjoint pairs:
    - one gradient bundle (node1's, a graph's, a batch's mean): the
      dummies go through the model's passes with ``labels``, one per dummy
      sample, and the mean of their B bundles is matched under
      spec.objective, each sample's co-vector divided by B. On the node
      task each dummy sample is a tree whose target is its root, row 0.
    - node2's :class:`~glg.closed_form.LayerInputs`: the dummy's
      first-layer input rows (:func:`_input_rows`) are matched by L2, with
      no model pass; ``labels`` is not read.

    ``regularize`` adds the smoothness and Frobenius terms weighted by
    spec.alpha / spec.beta.

    Built once per attack, before any iteration: the pair indices and
    adjacency buffer, the normalization's forward parts and backward
    output, the smoothness gradients' buffers, the leak's flat rows
    (checked against the model) and cosine norms, the matcher's
    temporaries and views, and the :class:`~glg.models.Stacks` of the
    dummy's bundle rows and of the co-vector, or the input rows' pass and
    adjoint. The model's trace is built by the first call and refilled by
    every later one. On an attack whose only unknowns are features, ``gz``
    is the features' gradient itself, raveled.
    """
    opt_x = x_shape is not None
    nx = math.prod(x_shape) if opt_x else 0
    lower, upper = _pairs(n)
    a = np.zeros((n, n)) if n else known_a  # z's pairs are mirrored into it
    # normalize_dense's (normalized, degrees, scale) and the backward's output
    parts = (np.empty((n, n)), np.empty(n), np.empty(n))
    a_grad = np.empty((n, n))
    inputs = isinstance(leaked, closed_form.LayerInputs)
    if inputs:
        leaked_flat = (leaked.agg if leaked.own is None
                       else np.concatenate((leaked.agg, leaked.own)))
    else:
        leaked_flat = bundle_rows(params, [leaked])
    dummy_flat = np.empty_like(leaked_flat)
    grad_flat = np.empty_like(leaked_flat)
    match = _matcher(leaked_flat, "l2" if inputs else spec.objective,
                     dummy_flat, grad_flat)
    if inputs:
        rows, rows_grad = _input_rows(
            leaked, x_shape[0] if opt_x else len(known_x), dummy_flat,
            grad_flat)
    else:
        dummy = bundle_views(params, dummy_flat)
        covec = bundle_views(params, grad_flat)
        batch = len(labels)
        roots = np.zeros(batch, dtype=np.int64)
    trace = None  # built on the first call, refilled by every later one
    mode = params.norm_mode
    node = params.task == "node"
    alpha, beta = (spec.alpha, spec.beta) if regularize else (0.0, 0.0)
    smooth = (np.empty(x_shape) if alpha and opt_x else None,
              np.empty((n, n)) if alpha and n else None)

    def objective(z):
        nonlocal trace
        x = z[:nx].reshape(x_shape) if opt_x else known_x
        an = anorm
        # the normalization and the model passes are looked up here, at
        # call time, so a wrapper swapped into this module's namespace sees
        # every call
        if n:
            pairs = z[nx:]
            a.put(lower, pairs)
            a.put(upper, pairs)
            an = normalize_dense(a, mode, out=parts)
        if inputs:
            rows(x, an)
        elif node:
            ctx = trace = node_ctx(params, x, an, roots, labels, out=trace)
            node_bundles(ctx, params, out=dummy)
        else:
            ctx = trace = graph_ctx(params, x, an, labels, out=trace)
            graph_bundles(ctx, params, out=dummy)
        value, vflat = match()
        if alpha:
            s_val, s_gx, s_ga = smoothness_grads(
                x, a, wrt_features=opt_x, wrt_adjacency=n > 0, out=smooth)
            value += alpha * s_val
        if beta:
            value += beta * frobenius_penalty(a)
        if inputs:
            gx, abar_norm = rows_grad(x, n > 0, opt_x)
        else:
            if batch > 1:
                # every sample shares the mean's co-vector, scaled by 1/B
                vflat /= batch
            grad = node_matching_grad if node else graph_matching_grad
            gx, abar_norm = grad(ctx, params, covec, n > 0, opt_x)
        if opt_x and alpha:
            s_gx *= alpha
            gx += s_gx
        if not n:
            return value, gx.reshape(-1)
        ga = normalize_dense_backward(abar_norm.reshape(n, n), parts, mode,
                                      out=a_grad)
        if alpha:
            s_ga *= alpha
            ga += s_ga
        if beta:
            ga += beta * 2.0 * a
        gz = np.empty(len(z))
        if opt_x:
            gz[:nx] = gx.reshape(-1)
        np.add(ga.take(lower), ga.take(upper), out=gz[nx:])
        return value, gz

    return objective


def _optimize(spec, objective, z, pairs=0):
    """One optimizer run on ``z``, the flat vector of an attack's unknowns.

    The last ``pairs`` entries are the adjacency pairs of
    :func:`_matching_objective`, in the box [0, 1]: with pairs the run is
    projected Adam (:func:`_adam`), without them L-BFGS (:func:`_lbfgs`).
    Both step rules call ``evaluate``, the loop's one evaluation of
    ``objective(z) -> (value, gz)``: a value that is not finite raises
    :class:`NumericError` naming the evaluation, and the trace keeps the
    first ``spec.iterations`` values. Returns the optimized ``z`` and a
    :class:`RecoveryResult` with the trace and the final value. An empty
    ``z`` (node2a on a one-node graph has no pair) raises
    :class:`UnrecoverableError` before any evaluation.
    """
    if not len(z):
        raise UnrecoverableError("the attack has no unknowns")
    trace = []

    def evaluate(point):
        value, gz = objective(point)
        if not math.isfinite(value):
            raise NumericError(f"attack objective is {value} at evaluation "
                               f"{len(trace)}")
        trace.append(value)
        return value, gz

    if pairs:
        z, value = _adam(spec, evaluate, z, pairs)
    else:
        z, value = _lbfgs(spec, evaluate, z)
    trace = np.array(trace[:spec.iterations], dtype=np.float64)
    return z, RecoveryResult(objective_trace=trace, final_objective=value)


def _adam(spec, evaluate, z, pairs):
    """Projected Adam: ``spec.iterations`` steps at ``spec.learning_rate``,
    each clipping the last ``pairs`` entries of ``z`` back into [0, 1],
    then one evaluation past the trace scores the result, its gradient
    unused. Returns ``(z, value)``."""
    state = AdamState(lr=spec.learning_rate)
    for _ in range(spec.iterations):
        z = adam_step(state, z, evaluate(z)[1])
        # np.clip's bits, without its dispatch overhead
        box = z[-pairs:]
        np.minimum(np.maximum(box, 0.0, out=box), 1.0, out=box)
    return z, evaluate(z)[0]


def _lbfgs(spec, evaluate, z):
    """L-BFGS on unknowns without a box, at most ``spec.iterations``
    evaluations. Returns ``(z, value)``.

    A :class:`~glg.numkit.LbfgsMemory` keeps the last ``LBFGS_PAIRS``
    curvature pairs, fewer when their s and y rows would pass
    ``LBFGS_BYTES``, skipping a pair with s . y <= 0, and gives the
    direction. The line search halves a unit step until the value falls
    by at least ``ARMIJO_C1`` times the step's predicted decrease
    (Armijo's rule). The run stops when the gradient is exactly zero, when
    the line search finds no decrease (the step falls below ``MIN_STEP``
    or no longer moves ``z``), or when the evaluations are spent. It
    returns the last accepted point, the lowest value the run has seen.
    """
    # a pair is two rows of z's size
    size = min(LBFGS_PAIRS, max(1, LBFGS_BYTES // (2 * z.nbytes)))
    memory = LbfgsMemory(size, len(z))
    value, gz = evaluate(z)
    spent = 1
    while spent < spec.iterations:
        d = memory.direction(gz)
        if d is None:
            break  # the gradient is exactly zero
        bound = ARMIJO_C1 * float(np.dot(gz, d))
        step, trial = 1.0, z + d
        while True:
            t_value, t_gz = evaluate(trial)
            spent += 1
            if t_value < value and t_value <= value + step * bound:
                break
            step *= 0.5
            trial = z + step * d
            if (spent == spec.iterations or step < MIN_STEP
                    or np.array_equal(trial, z)):
                return z, value
        memory.push(trial, z, t_gz, gz)
        z, value, gz = trial, t_value, t_gz
    return z, value


# ---------------------------------------------------------------------------
# Attacks
# ---------------------------------------------------------------------------

def _attack_trees(spec, params, rng, bundle, labels):
    """One dummy tree per label, matched to one (averaged) node-task bundle.

    Each tree's target is its root. Only the target and its d_tree
    children are optimized: the target's row of the normalized adjacency
    reads no other row, so the grandchildren get no gradient (they still
    set the children's degrees). One tree keeps the (N, D) layout, B trees
    the (B, N, D) stack; ``features`` comes back in that full shape, the
    grandchildren at their starting point.
    """
    tree = dummy_tree(rng, spec.d_tree, params.feature_dim)
    live = 1 + spec.d_tree
    b = labels.shape[0]
    shape = tree.features.shape if b == 1 else (b,) + tree.features.shape
    x = _start(rng, spec, shape)
    optimized = x[..., :live, :]
    objective = _matching_objective(
        spec, params, bundle, labels, x_shape=optimized.shape,
        anorm=normalize_dense(tree.adjacency, params.norm_mode)[:live, :live])
    z, best = _optimize(spec, objective, optimized.ravel())
    optimized[...] = z.reshape(optimized.shape)
    best.features = x
    return best


def attack_node1(leak, spec, params, rng):
    """Recover the target's features from one node-task bundle.

    Infers the label from the leak and runs the dummy-tree attack on a
    batch of one, with the plain cosine/L2 objective (no regularizers).
    ``rng`` draws the dummy tree, then the gaussian start. ``features``
    comes back in the full tree's shape, the grandchildren at their
    starting draw.
    """
    _check_scenario(spec, params, ("node1",), "node", leak, "node1")
    bundle = leak.bundle
    labels = check_labels(infer_label(bundle), params.num_classes)
    best = _attack_trees(spec, params, rng, bundle, labels)
    best.labels = labels
    best.target_feature = best.features[0].copy()
    return best


def _attack_unknowns(spec, params, rng, leaked, n, labels, known_features,
                     known_adjacency):
    """Subgraph / whole-graph attack body: the scenario picks the unknowns.

    Scenario suffix a optimizes the adjacency, b the features, c both.
    ``leaked`` is what :func:`_matching_objective` matches. Only the known
    input the scenario needs is read, so a caller may pass both; that one
    is required, and one of the wrong shape raises :class:`ShapeError`
    before any iteration. The features start first, then the adjacency. A
    recovered adjacency is binarized with the configured finalization.
    """
    opt_x = spec.scenario[-1] in "bc"
    na = n if spec.scenario[-1] in "ac" else 0  # optimized adjacency's size
    xs = (n, params.feature_dim)
    known_x = None if opt_x else _known(known_features, xs, "known_features")
    known_a = None if na else _known(known_adjacency, (n, n), "known_adjacency")
    anorm = None if na else normalize_dense(known_a, params.norm_mode)
    objective = _matching_objective(
        spec, params, leaked, labels, x_shape=xs if opt_x else None, n=na,
        known_x=known_x, known_a=known_a, anorm=anorm, regularize=True)
    lower, upper = _pairs(na)
    x = _start(rng, spec, xs).ravel() if opt_x else np.zeros(0)
    a = project_interval(_start(rng, spec, (n, n))) if na else np.zeros(0)
    z, best = _optimize(spec, objective,
                        np.concatenate((x, a.take(lower))), len(lower))
    best.labels = labels
    if opt_x:
        best.features = z[:x.size].reshape(xs)
    if na:
        best.adjacency_prob = prob = np.zeros((n, n))
        prob.flat[lower] = prob.flat[upper] = z[x.size:]
        best.adjacency = finalize_adjacency(
            prob, spec.finalization, rng=rng, tau=spec.threshold)
    return best


def attack_node2(leak, spec, params, known_features=None, known_adjacency=None,
                 *, rng):
    """Recover features and/or structure from per-node bundles of a subgraph.

    node2a optimizes the adjacency (features known), node2b the features
    (adjacency known), node2c both. Node i's bundle reads the graph only
    through its first-layer input, so the attack matches that input, not
    the bundle: the leak's row ratios give each node's aggregate row m_i =
    (Anorm X)_i and, for sage when the features are unknown, its feature
    row x_i (:func:`~glg.closed_form.recover_layer_inputs`), once; each
    step matches the dummy's rows [Anorm X | X] to them by L2, with no
    model pass, and adds the smoothness and Frobenius terms weighted by
    spec.alpha / spec.beta. spec.objective does not apply. A node without
    a recoverable row is left out, and a leak with none raises
    :class:`UnrecoverableError`. Labels are inferred for the report.
    ``rng`` draws the gaussian starts and the Bernoulli finalization.
    """
    _check_scenario(spec, params, ("node2a", "node2b", "node2c"), "node",
                    leak, "node2")
    bundles = leak.bundles
    labels = check_labels([infer_label(b) for b in bundles], params.num_classes)
    own = spec.scenario != "node2a" and params.framework == "sage"
    check_bundles(params, bundles)
    inputs = closed_form.recover_layer_inputs(bundles, params.framework, own)
    return _attack_unknowns(spec, params, rng, inputs, len(bundles), labels,
                            known_features, known_adjacency)


def attack_graph(leak, spec, params, known_features=None, known_adjacency=None,
                 *, rng):
    """Recover features and/or structure from one graph-task bundle.

    Same unknown-selection logic and ``rng`` as the subgraph attack, driven
    by a single graph-level loss. With alpha = beta = 0 the objective
    reduces to the plain matching loss.
    """
    _check_scenario(spec, params, ("graph_a", "graph_b", "graph_c"), "graph",
                    leak, "graph")
    bundle = leak.bundle
    labels = check_labels(infer_label(bundle), params.num_classes)
    return _attack_unknowns(spec, params, rng, bundle, params.num_nodes,
                            labels, known_features, known_adjacency)


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
                    params.task, leak, f"batched-{params.task}")
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
        xs = (b, n, params.feature_dim)
        objective = _matching_objective(spec, params, bundle, labels,
                                        x_shape=xs, anorm=anorm)
        z, best = _optimize(spec, objective, _start(rng, spec, xs).ravel())
        best.features = z
    # each sample's result shares the run's trace and final value
    features = best.features.reshape((b, -1, params.feature_dim))
    return [
        replace(best, features=features[i].copy(),
                labels=np.array([labels[i]]),
                target_feature=(features[i, 0].copy()
                                if params.task == "node" else None))
        for i in range(b)
    ]
