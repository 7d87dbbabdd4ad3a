import functools

import numpy as np
import pytest

from glg import (attacks, closed_form, federated, graphs, metrics, models,
                 numkit, selftest)
from glg.errors import (
    ConfigError,
    DegenerateGradientError,
    NumericError,
    ShapeError,
    UnrecoverableError,
)
from glg.models import GradientBundle

rng = numkit.make_rng(808)


def random_bundle(seed=0, scale=1.0):
    r = numkit.make_rng(seed)
    return GradientBundle(tensors={
        "conv1_agg": scale * r.standard_normal((4, 3)),
        "conv1_bias": scale * r.standard_normal(4),
        "out_weight": scale * r.standard_normal((2, 4)),
        "out_bias": scale * r.standard_normal(2),
    })


def scaled(bundle, c):
    return GradientBundle(tensors={k: c * v for k, v in bundle.tensors.items()})


def match(kind, leaked, dummy):
    """The attack's matching loss between two bundles, each one flat row."""
    def row(b):
        return np.concatenate([b.tensors[k].ravel() for k in b.param_names])[None]
    grad = np.empty_like(row(leaked))
    return attacks._matcher(row(leaked), kind, row(dummy), grad)()[0]


class TestObjectives:
    def test_l2_identical(self):
        b = random_bundle()
        assert match("l2", b, b) == 0.0

    def test_l2_unit_perturbation(self):
        b = random_bundle()
        other = scaled(b, 1.0)
        other.tensors["conv1_agg"] = b.tensors["conv1_agg"].copy()
        other.tensors["conv1_agg"][0, 0] += 1.0
        assert match("l2", b, other) == pytest.approx(1.0)

    def test_l2_flat_oracle(self):
        a, b = random_bundle(1), random_bundle(2)
        want = sum(((a.tensors[k] - b.tensors[k]) ** 2).sum()
                   for k in a.tensors)
        assert match("l2", a, b) == pytest.approx(want)

    def test_cosine_identical_exactly_zero(self):
        b = random_bundle(3)
        assert match("cosine", b, b) == 0.0

    def test_cosine_antiparallel(self):
        b = random_bundle(4)
        assert match("cosine", b, scaled(b, -1.0)) == pytest.approx(2.0)

    def test_cosine_scale_invariant(self):
        b = random_bundle(5)
        assert match("cosine", b, scaled(b, 3.0)) < 1e-12
        other = random_bundle(6)
        assert match("cosine", b, other) == pytest.approx(
            match("cosine", b, scaled(other, 7.5)), abs=1e-12)

    def test_cosine_degenerate(self):
        b = random_bundle(7)
        with pytest.raises(DegenerateGradientError):
            match("cosine", b, scaled(b, 0.0))


def row_dots(a, b):
    """Each row of ``a`` dotted with the same row of ``b``, as a column."""
    return np.matmul(a[:, None, :], b[:, :, None]).reshape(-1, 1)


def reference_matcher(leaked_flat, kind):
    """The matcher's expressions on (S, P) rows with (S, 1) columns of
    reciprocal norms, allocating every temporary: the reference its
    buffers must reproduce. On a one-row leak each cosine dot is a (1, 1,
    P) by (1, P, 1) ``np.matmul``, the per-row form the flat ``np.dot``
    matcher replaced, so the test also pins that the two agree bit for
    bit."""
    if kind == "l2":
        def match(dummy_flat):
            grad = dummy_flat - leaked_flat
            return float((grad * grad).sum()), grad * 2.0
        return match
    v = leaked_flat * (1.0 / np.sqrt(row_dots(leaked_flat, leaked_flat)))

    def match(dummy_flat):
        inv = 1.0 / np.sqrt(row_dots(dummy_flat, dummy_flat))
        u = dummy_flat * inv
        w = u - v
        grad = (w - u * row_dots(u, w)) * inv
        return 0.5 * float(np.dot(w.reshape(-1), w.reshape(-1))), grad
    return match


def pairwise_matcher(leaked_flat):
    """The cosine matcher as numpy's pairwise sums of products, dividing by
    the norms: the expressions it had before its row dot products."""
    ln = np.sqrt((leaked_flat * leaked_flat).sum(axis=1, keepdims=True))
    v = leaked_flat / ln

    def match(dummy_flat):
        dn = np.sqrt((dummy_flat * dummy_flat).sum(axis=1, keepdims=True))
        u = dummy_flat / dn
        w = u - v
        grad = (w - u * (u * w).sum(axis=1, keepdims=True)) / dn
        return 0.5 * float((w * w).sum()), grad
    return match


class TestMatcherOperands:
    """The buffered matcher gives the reference's bits on a one-row leak
    (node1's, a graph's), which the cosine objective matches as one flat
    vector, and by L2 on several rows (node2's)."""

    @pytest.mark.parametrize("rows,kind", [(1, "cosine"), (1, "l2"),
                                           (3, "l2")])
    def test_equals_the_reference(self, kind, rows):
        r = numkit.make_rng(17)
        leaked = r.standard_normal((rows, 57))
        dummy, grad = np.empty((2,) + leaked.shape)
        match = attacks._matcher(leaked, kind, dummy, grad)
        want = reference_matcher(leaked, kind)
        for scale in (1.0, 1e-3, 1e5):
            # the matcher reads the buffer it was built with
            np.multiply(scale, r.standard_normal((rows, 57)), out=dummy)
            value, got = match()
            want_value, want_grad = want(dummy)
            assert value == want_value
            assert got is grad and np.array_equal(got, want_grad)
            if kind == "cosine":
                # the pairwise sums agree to rounding
                old_value, old_grad = pairwise_matcher(leaked)(dummy)
                assert value == pytest.approx(old_value, rel=1e-13)
                np.testing.assert_allclose(got, old_grad, rtol=1e-13)


def pairwise_smoothness(x, a):
    """``smoothness_grads``'s value, gx and ga from the pairwise squared
    distances of the scaled rows: the reference its Gram form must meet."""
    d = a.sum(axis=1)
    pos = d > 0.0
    safe = np.where(pos, d, 1.0)
    r = np.where(pos, 1.0 / np.sqrt(safe), 0.0)
    u = x * r[:, None]
    sq = (u * u).sum(axis=1)
    pair = sq[:, None] + sq[None, :] - 2.0 * np.dot(u, u.T)
    value = float(0.5 * (a * pair).sum())
    gu = (d + a.sum(axis=0))[:, None] * u - np.dot(a, u) - np.dot(a.T, u)
    wdeg = np.where(pos, -0.5 * (gu * u).sum(axis=1) / safe, 0.0)
    return value, gu * r[:, None], 0.5 * pair + wdeg[:, None]


def check_smoothness_gradients(x, a, skip_a=()):
    """``smoothness_grads``'s gx and ga against central differences of its
    value, leaving out the flat entries ``skip_a`` of ``a``; returns gx."""
    _, gx, ga = attacks.smoothness_grads(x, a, True, True)
    eps = 1e-6
    for arr, grad, skip in ((x, gx, ()), (a, ga, skip_a)):
        flat = arr.reshape(-1)
        gflat = grad.reshape(-1)
        for i in sorted(set(range(flat.size)) - set(skip)):
            old = flat[i]
            flat[i] = old + eps
            fp = attacks.smoothness_grads(x, a, False, False)[0]
            flat[i] = old - eps
            fm = attacks.smoothness_grads(x, a, False, False)[0]
            flat[i] = old
            assert gflat[i] == pytest.approx((fp - fm) / (2 * eps),
                                             rel=1e-4, abs=1e-7)
    return gx


class TestRegularizers:
    def test_smoothness_empty_graph(self):
        assert attacks.smoothness_grads(rng.standard_normal((4, 2)),
                                        np.zeros((4, 4)), False, False)[0] == 0.0

    def test_smoothness_constant_features_regular_graph(self):
        # 4-cycle is 2-regular; identical rows are constant in the scaled metric
        a = np.zeros((4, 4))
        for i in range(4):
            a[i, (i + 1) % 4] = a[(i + 1) % 4, i] = 1.0
        x = np.tile([1.5, -2.0], (4, 1))
        assert attacks.smoothness_grads(x, a, False, False)[0] == pytest.approx(
            0.0, abs=1e-12)

    def test_smoothness_trace_oracle(self):
        g = graphs.synthetic_graph(numkit.make_rng(9), 7, 3, 4)
        if np.any(g.degrees() == 0):
            pytest.skip("oracle needs no isolated nodes")
        lap = graphs.laplacian(g)
        x = numkit.make_rng(10).standard_normal((7, 4))
        want = np.trace(x.T @ lap @ x)
        value = attacks.smoothness_grads(x, g.adjacency, False, False)[0]
        assert value == pytest.approx(want, abs=1e-10)

    def test_smoothness_gradients_finite_difference(self):
        r = numkit.make_rng(11)
        a = np.abs(r.random((5, 5)))
        a = np.tril(a, -1) + np.tril(a, -1).T
        x = r.standard_normal((5, 3))
        check_smoothness_gradients(x, a)

    def test_smoothness_zero_degree_row_non_symmetric_finite_difference(self):
        # a weighted, non-symmetric adjacency whose row 2 sums to zero while
        # column 2 does not. The value jumps when row 2's degree leaves 0,
        # so the difference quotients skip that row's entries.
        r = numkit.make_rng(12)
        a = r.random((5, 5))
        np.fill_diagonal(a, 0.0)
        a[2] = 0.0
        x = r.standard_normal((5, 3))
        gx = check_smoothness_gradients(x, a, skip_a=range(10, 15))
        assert np.all(gx[2] == 0.0)

    @pytest.mark.parametrize("seed", range(5))
    def test_smoothness_equals_the_pairwise_reference(self, seed):
        r = numkit.make_rng(100 + seed)
        n = 5 + seed
        a = r.random((n, n))
        np.fill_diagonal(a, 0.0)
        if seed % 2 == 0:
            a = np.tril(a, -1) + np.tril(a, -1).T
        if seed >= 3:
            a[1] = 0.0  # a zero-degree row
            if seed % 2 == 0:
                a[:, 1] = 0.0
        x = r.standard_normal((n, 4))
        want = pairwise_smoothness(x, a)
        out = (np.full_like(x, np.nan), np.full_like(a, np.nan))
        got = attacks.smoothness_grads(x, a, True, True, out=out)
        assert got[1] is out[0] and got[2] is out[1]
        assert got[0] == pytest.approx(want[0], rel=1e-12)
        # gx keeps the reference's expression, so it keeps its bits
        assert np.array_equal(got[1], want[1])
        np.testing.assert_allclose(got[2], want[2], rtol=1e-12)
        assert attacks.smoothness_grads(x, a, False, False) == (got[0], None,
                                                                None)

    def test_frobenius(self):
        assert attacks.frobenius_penalty(np.zeros((3, 3))) == 0.0
        assert attacks.frobenius_penalty(np.eye(3)) == 3.0
        m = rng.standard_normal((4, 5))
        assert attacks.frobenius_penalty(m) == pytest.approx((m ** 2).sum())


class TestProjectionFinalization:
    def test_projection_cases(self):
        m = np.array([[1.5, -0.2], [0.4, 1.0]])
        got = attacks.project_interval(m)
        assert np.array_equal(got, [[1.0, 0.0], [0.4, 1.0]])
        inside = np.array([[0.3, 0.7], [0.0, 1.0]])
        assert np.array_equal(attacks.project_interval(inside), inside)
        assert np.array_equal(attacks.project_interval(got), got)

    def test_finalize_zero(self):
        r = numkit.make_rng(12)
        zero = np.zeros((4, 4))
        assert not attacks.finalize_adjacency(zero, "bernoulli", rng=r).any()
        assert not attacks.finalize_adjacency(zero, "threshold").any()

    def test_finalize_all_ones_bernoulli(self):
        r = numkit.make_rng(13)
        got = attacks.finalize_adjacency(np.ones((4, 4)), "bernoulli", rng=r)
        assert np.array_equal(got, np.ones((4, 4)) - np.eye(4))

    def test_threshold_hand_case(self):
        prob = np.array([[0.0, 0.9], [0.9, 0.0]])
        got = attacks.finalize_adjacency(prob, "threshold", tau=0.5)
        assert got[0, 1] == 1.0 and got[1, 0] == 1.0

    def test_threshold_min_max_over_off_diagonal(self):
        prob = np.array([[0.0, 0.5, 0.6], [0.5, 0.0, 0.9], [0.6, 0.9, 0.0]])
        got = attacks.finalize_adjacency(prob, "threshold", tau=0.5)
        # off-diagonal min-max: 0.5 -> 0, 0.6 -> 0.25, 0.9 -> 1
        want = np.zeros((3, 3))
        want[1, 2] = want[2, 1] = 1.0
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("rule", ["bernoulli", "threshold"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_finalize_non_finite_raises(self, rule, bad):
        """An all-NaN matrix once thresholded to all zeros; one bad entry is
        refused by either rule with a typed error."""
        for prob in (np.full((4, 4), bad), np.where(np.eye(4) == 1, bad, 0.5)):
            with pytest.raises(NumericError, match="NaN or Inf"):
                attacks.finalize_adjacency(prob, rule, rng=numkit.make_rng(15))

    @pytest.mark.parametrize("rule", ["bernoulli", "threshold"])
    @pytest.mark.parametrize("bad", [1.5, -2.0])
    def test_finalize_out_of_range_raises(self, rule, bad):
        """A 3x3 matrix of 1.5 once thresholded to the full graph, one of
        -2.0 to the empty graph."""
        with pytest.raises(NumericError, match=r"\[0, 1\]"):
            attacks.finalize_adjacency(np.full((3, 3), bad), rule,
                                       rng=numkit.make_rng(15))

    def test_bernoulli_without_rng_raises(self):
        with pytest.raises(ConfigError, match="rng") as exc:
            attacks.finalize_adjacency(np.zeros((3, 3)), "bernoulli")
        assert exc.value.field == "rng"

    def test_unknown_finalization_rule_raises(self):
        with pytest.raises(ConfigError, match="unknown") as exc:
            attacks.finalize_adjacency(np.zeros((3, 3)), "round",
                                       rng=numkit.make_rng(15))
        assert exc.value.field == "finalization"

    def test_finalized_is_symmetric_zero_diagonal(self):
        r = numkit.make_rng(14)
        prob = r.random((6, 6))
        for rule in ("bernoulli", "threshold"):
            got = attacks.finalize_adjacency(prob, rule, rng=r)
            assert np.array_equal(got, got.T)
            assert not np.diag(got).any()
            assert set(np.unique(got)) <= {0.0, 1.0}


class TestAttackSpecValidation:
    def test_bad_scenario(self):
        with pytest.raises(ConfigError):
            attacks.AttackSpec(scenario="nodeX")

    def test_unknown_init(self):
        for scenario in ("node1", "graph_a"):
            with pytest.raises(ConfigError, match="init"):
                attacks.AttackSpec(scenario=scenario, init="tree")

    @pytest.mark.parametrize("name", ["alpha", "beta"])
    def test_negative_alpha(self, name):
        with pytest.raises(ConfigError) as exc:
            attacks.AttackSpec(scenario="node1", **{name: -1.0})
        assert exc.value.field == name

    @pytest.mark.parametrize("learning_rate", [-0.05, 0.0, np.inf, np.nan])
    def test_bad_learning_rate(self, learning_rate):
        with pytest.raises(ConfigError):
            attacks.AttackSpec(scenario="node2b", learning_rate=learning_rate)

    @pytest.mark.parametrize("name", ["alpha", "beta", "init_value", "threshold"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_non_finite_hyperparameter(self, name, value):
        with pytest.raises(ConfigError):
            attacks.AttackSpec(scenario="node2b", **{name: value})


def tree_world(seed=15, d_tree=3, d=4, f=8, k=3):
    """True private data that itself is a dummy-shaped tree."""
    r = numkit.make_rng(seed)
    g0 = graphs.dummy_tree(r, d_tree, d)
    g = graphs.Graph(adjacency=g0.adjacency, features=g0.features,
                     labels=r.integers(0, k, size=g0.num_nodes))
    params = models.init_params(r, "sage", "node", d, f, k)
    return g, params


def flat(*parts):
    """The flat vector of unknowns: the given parts raveled, None skipped."""
    return np.concatenate([np.ravel(p) for p in parts if p is not None])


def optimize_from(spec, params, record, x=None, a=None, leaked=None, **known):
    """The structure attacks' Adam loop on their objective, from the given
    starts (None where the input is known); ``known`` holds the objective's
    known inputs. It matches ``leaked``, by default what the attack
    matches: a node2 leak's layer inputs, the feature rows too when a sage
    model's features are optimized, else the leak's bundles. As in the
    attack, the adjacency start is projected and packed, the result
    unpacked, and a recovered adjacency finalized, here with a fixed
    draw."""
    labels = np.array([models.infer_label(b) for b in record.bundles])
    if leaked is None and record.scenario == "node2":
        leaked = closed_form.recover_layer_inputs(
            record.bundles, params.framework,
            x is not None and params.framework == "sage")
    elif leaked is None:
        leaked = record.bundle
    n = 0 if a is None else len(a)
    objective = attacks._matching_objective(
        spec, params, leaked, labels,
        x_shape=None if x is None else x.shape, n=n, regularize=True, **known)
    lower, upper = attacks._pairs(n)
    pairs = attacks.project_interval(a).take(lower) if n else None
    z, res = attacks._optimize(spec, objective, flat(x, pairs), len(lower))
    nx = 0 if x is None else x.size
    if x is not None:
        res.features = z[:nx].reshape(x.shape)
    if n:
        res.adjacency_prob = np.zeros((n, n))
        res.adjacency_prob.put(lower, z[nx:])
        res.adjacency_prob.put(upper, z[nx:])
        res.adjacency = attacks.finalize_adjacency(
            res.adjacency_prob, spec.finalization, rng=numkit.make_rng(0),
            tau=spec.threshold)
    return res


def truth_inputs(params, x, a, own):
    """Every node's layer-input rows from the true features and adjacency,
    by the products the objective's rows pass runs."""
    m = np.dot(graphs.normalize_dense(a, params.norm_mode), x)
    return closed_form.LayerInputs(np.arange(len(x)), m,
                                   x.copy() if own else None)


class TestFixedPoints:
    def test_node1_truth_init(self):
        # the node1 loop, started at the truth on the tree's live rows
        g, params = tree_world()
        record = federated.leak(params, g, "node1", targets=[0])
        spec = attacks.AttackSpec(scenario="node1", iterations=8, d_tree=3)
        live = 1 + spec.d_tree
        objective = attacks._matching_objective(
            spec, params, record.bundle, g.labels[:1],
            x_shape=g.features[:live].shape,
            anorm=graphs.normalize_dense(g.adjacency,
                                         params.norm_mode)[:live, :live])
        z, res = attacks._optimize(spec, objective, g.features[:live].ravel())
        assert np.all(res.objective_trace == 0.0)
        assert np.array_equal(z.reshape(live, -1), g.features[:live])

    def test_node2c_truth_init(self):
        # rows built from the truth: the leak's ratio-recovered rows carry
        # rounding, so only these give an exact zero
        r = numkit.make_rng(16)
        g = graphs.synthetic_graph(r, 6, 2, 8, num_classes=3)
        params = models.init_params(r, "sage", "node", 8, 5, 3)
        record = federated.leak(params, g, "node2")
        spec = attacks.AttackSpec(scenario="node2c", iterations=6, alpha=0.0,
                                  beta=0.0)
        res = optimize_from(spec, params, record, g.features, g.adjacency,
                            leaked=truth_inputs(params, g.features,
                                                g.adjacency, True))
        assert np.all(res.objective_trace == 0.0)
        assert np.array_equal(res.features, g.features)
        assert np.array_equal(res.adjacency_prob, g.adjacency)

    def test_graph_c_truth_init(self):
        r = numkit.make_rng(17)
        g0 = graphs.er_graph(r, 5, 0.5, 6)
        g = graphs.Graph(adjacency=g0.adjacency, features=g0.features,
                         graph_label=1)
        params = models.init_params(r, "sage", "graph", 6, 4, 3, num_nodes=5)
        record = federated.leak(params, g, "graph")
        spec = attacks.AttackSpec(scenario="graph_c", iterations=6, alpha=0.0,
                                  beta=0.0)
        res = optimize_from(spec, params, record, g.features, g.adjacency)
        assert np.all(res.objective_trace == 0.0)
        assert np.array_equal(res.features, g.features)

    @pytest.mark.parametrize("scenario", ["node2b", "graph_b"])
    def test_features_only_truth_init(self, scenario):
        # L-BFGS from the truth: its first gradient is exactly zero, so it
        # stops there
        r = numkit.make_rng(19)
        if scenario == "node2b":
            g = graphs.synthetic_graph(r, 6, 2, 8, num_classes=3)
            params = models.init_params(r, "sage", "node", 8, 5, 3)
            record = federated.leak(params, g, "node2")
        else:
            g0 = graphs.er_graph(r, 5, 0.5, 6)
            g = graphs.Graph(adjacency=g0.adjacency, features=g0.features,
                             graph_label=1)
            params = models.init_params(r, "sage", "graph", 6, 4, 3,
                                        num_nodes=5)
            record = federated.leak(params, g, "graph")
        spec = attacks.AttackSpec(scenario=scenario, iterations=6, alpha=0.0,
                                  beta=0.0)
        # node2b's rows built from the truth, as in test_node2c_truth_init
        leaked = (truth_inputs(params, g.features, g.adjacency, True)
                  if scenario == "node2b" else None)
        res = optimize_from(spec, params, record, g.features, leaked=leaked,
                            known_a=g.adjacency,
                            anorm=graphs.normalize_dense(g.adjacency,
                                                         params.norm_mode))
        assert np.array_equal(res.objective_trace, [0.0])
        assert np.array_equal(res.features, g.features)

    # node1 and the batched node attack optimize a dummy tree, not the
    # private graph, so they have no truth point at which to evaluate this
    @pytest.mark.parametrize("objective", ["cosine", "l2"])
    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    @pytest.mark.parametrize("scenario", [
        "node2a", "node2b", "node2c", "graph_a", "graph_b", "graph_c",
        "batched_graph"])
    def test_objective_is_zero_at_the_truth(self, scenario, framework,
                                            objective):
        """The leak and the attack run the same products, so the dummy's
        bundle at the private inputs has the leak's bits: the matching value
        and every gradient entry are exactly zero. node2 matches layer-input
        rows, here built from the truth (:func:`truth_inputs`), by L2
        whatever the spec's objective."""
        r = numkit.make_rng(18)
        n, d = 8, 20
        if scenario.startswith("node"):
            g = graphs.synthetic_graph(r, n, 2, d, num_classes=3)
            params = models.init_params(r, framework, "node", d, 16, 3)
            record = federated.leak(params, g, "node2")
            gs, labels = [g], g.labels
        else:
            gs = []
            for i in range(3 if scenario == "batched_graph" else 1):
                g0 = graphs.er_graph(r, n, 0.5, d)
                gs.append(graphs.Graph(adjacency=g0.adjacency,
                                       features=g0.features, graph_label=i))
            params = models.init_params(r, framework, "graph", d, 16, 3,
                                        num_nodes=n)
            record = federated.leak(params, gs if len(gs) > 1 else gs[0],
                                    "batched-graph" if len(gs) > 1 else "graph")
            labels = np.array([g.graph_label for g in gs])
        x = np.stack([g.features for g in gs]) if len(gs) > 1 else gs[0].features
        a = gs[0].adjacency
        # batched_graph optimizes the features, as graph_b does
        opt_x = scenario == "batched_graph" or scenario[-1] in "bc"
        opt_a = scenario[-1] in "ac"
        anorm = None
        if not opt_a:
            mats = [graphs.normalize_dense(g.adjacency, params.norm_mode)
                    for g in gs]
            anorm = np.stack(mats) if len(gs) > 1 else mats[0]
        # of the spec, the objective reads only the matching loss's kind
        spec = attacks.AttackSpec(scenario="node2a", objective=objective)
        if scenario.startswith("node"):
            leaked = truth_inputs(params, x, a,
                                  opt_x and framework == "sage")
        else:
            leaked = record.bundle
        f = attacks._matching_objective(
            spec, params, leaked, labels,
            x_shape=x.shape if opt_x else None, n=n if opt_a else 0,
            known_x=None if opt_x else x, known_a=None if opt_a else a,
            anorm=anorm)
        # z holds the features, then the adjacency's strict lower triangle
        z = flat(x if opt_x else None,
                 a[np.tril_indices(n, k=-1)] if opt_a else None)
        value, gz = f(z)
        assert value == 0.0
        assert gz.shape == z.shape
        assert np.all(gz == 0.0)


def quadratic(center, scale=1.0, nan_at=None, sign=1.0):
    """``f(z)`` for scale * ||z - center||^2 / 2 with its gradient times
    ``sign``; the evaluation numbered ``nan_at`` returns NaN."""
    calls = []

    def f(z):
        calls.append(z.copy())
        r = z - center
        value = np.nan if len(calls) - 1 == nan_at else 0.5 * scale * r @ r
        return value, sign * scale * r
    f.calls = calls
    return f


@pytest.mark.parametrize("pairs, k", [(0, 2), (2, 2), (2, 5)],
                         ids=["lbfgs", "adam", "adam-score"])
def test_both_step_rules_share_one_guard(pairs, k):
    # with pairs the run is Adam, whose evaluation 5 is the one past its
    # five steps that scores the result
    spec = attacks.AttackSpec(scenario="node2a", iterations=5)
    f = quadratic(np.ones(4), nan_at=k)
    with pytest.raises(NumericError, match=rf"nan at evaluation {k}$"):
        attacks._optimize(spec, f, np.zeros(4), pairs)
    assert len(f.calls) == k + 1


class TestQuasiNewton:
    """The L-BFGS loop that attacks whose unknowns carry no box run."""

    spec = attacks.AttackSpec(scenario="node2b", iterations=200)

    def test_non_finite_value_names_the_evaluation(self):
        f = quadratic(np.ones(4), nan_at=2)
        with pytest.raises(NumericError, match=r"nan at evaluation 2$"):
            attacks._optimize(self.spec, f, np.zeros(4))
        assert len(f.calls) == 3

    def test_converges_on_a_quadratic_before_the_cap(self):
        center = numkit.make_rng(3).standard_normal(9)
        f = quadratic(center, scale=40.0)
        z, res = attacks._optimize(self.spec, f, np.zeros(9))
        assert np.allclose(z, center, rtol=0.0, atol=1e-12)
        assert len(res.objective_trace) == len(f.calls) < self.spec.iterations
        # the result is the last accepted point, the lowest value seen
        assert res.final_objective == res.objective_trace.min()

    def test_no_decrease_stops_at_the_start(self):
        # the gradient points uphill, so no step lowers the value
        f = quadratic(np.ones(3), sign=-1.0)
        z, res = attacks._optimize(self.spec, f, np.zeros(3))
        assert np.array_equal(z, np.zeros(3))
        assert res.final_objective == res.objective_trace[0] == 1.5
        assert np.all(res.objective_trace[1:] >= 1.5)
        assert len(res.objective_trace) < self.spec.iterations

    def test_cap_counts_evaluations(self):
        f = quadratic(np.ones(5))
        spec = attacks.AttackSpec(scenario="node2b", iterations=3)
        _, res = attacks._optimize(spec, f, np.zeros(5))
        assert len(f.calls) == len(res.objective_trace) == 3

    @staticmethod
    def _test06_attack(seed):
        """Acceptance criterion 6's node1 attack on ``seed``: the evaluation
        count and the target's RNMSE."""
        r = numkit.make_rng(seed)
        g = graphs.synthetic_graph(r, 50, 4, 10, num_classes=4)
        params = models.init_params(r, "sage", "node", 10, 100, 4)
        target = int(r.integers(0, 50))
        record = federated.leak(params, g, "node1", targets=[target])
        spec = attacks.AttackSpec(scenario="node1", iterations=2000,
                                  d_tree=10)
        res = attacks.attack_node1(record, spec, params, rng=r)
        return (len(res.objective_trace),
                metrics.rnmse(g.features[target], res.target_feature))

    def test_test06_seed_stops_before_the_cap(self):
        # the first seed of acceptance criterion 6's config
        evaluations, error = self._test06_attack(9000)
        assert evaluations < 2000
        assert error <= 1e-12

    def test_test06_seeds_take_few_evaluations(self):
        # the curvature memory holds a whole node1 run: a median 140.5
        # evaluations on these seeds with 3 pairs, 71.5 with it
        evaluations = [self._test06_attack(s)[0] for s in range(9000, 9010)]
        assert np.median(evaluations) <= 100


class TestIterativeAttacks:
    def test_node2a_recovers_structure(self):
        r = numkit.make_rng(18)
        g = graphs.synthetic_graph(r, 8, 3, 16, num_classes=3)
        params = models.init_params(r, "sage", "node", 16, 12, 3)
        record = federated.leak(params, g, "node2")
        spec = attacks.AttackSpec(scenario="node2a", iterations=500,
                                  finalization="threshold", init="constant",
                                  init_value=1.0)
        res = attacks.attack_node2(record, spec, params,
                                   known_features=g.features, rng=r)
        assert np.array_equal(res.adjacency, g.adjacency)
        assert np.array_equal(res.labels, g.labels)

    def test_node2b_recovers_features(self):
        r = numkit.make_rng(19)
        g = graphs.synthetic_graph(r, 8, 3, 5, num_classes=3)
        params = models.init_params(r, "sage", "node", 5, 12, 3)
        record = federated.leak(params, g, "node2")
        spec = attacks.AttackSpec(scenario="node2b", iterations=800)
        res = attacks.attack_node2(record, spec, params,
                                   known_adjacency=g.adjacency, rng=r)
        assert metrics.rnmse_per_row(g.features, res.features) < 1e-3

    def test_graph_b_recovers_features(self):
        r = numkit.make_rng(20)
        g0 = graphs.er_graph(r, 6, 0.5, 4)
        g = graphs.Graph(adjacency=g0.adjacency, features=g0.features,
                         graph_label=0)
        params = models.init_params(r, "sage", "graph", 4, 12, 2, num_nodes=6)
        record = federated.leak(params, g, "graph")
        spec = attacks.AttackSpec(scenario="graph_b", iterations=1200)
        res = attacks.attack_graph(record, spec, params,
                                   known_adjacency=g.adjacency, rng=r)
        assert metrics.rnmse_per_row(g.features, res.features) < 1e-2

    def test_best_so_far_monotone(self):
        r = numkit.make_rng(21)
        g = graphs.synthetic_graph(r, 6, 2, 4, num_classes=3)
        params = models.init_params(r, "sage", "node", 4, 6, 3)
        record = federated.leak(params, g, "node2")
        spec = attacks.AttackSpec(scenario="node2c", iterations=120)
        res = attacks.attack_node2(record, spec, params, rng=r)
        best = np.minimum.accumulate(res.objective_trace)
        assert np.all(np.diff(best) <= 0.0)

    def test_projection_keeps_probabilities_valid(self):
        r = numkit.make_rng(22)
        g = graphs.synthetic_graph(r, 6, 2, 8, num_classes=3)
        params = models.init_params(r, "gcn", "node", 8, 6, 3)
        record = federated.leak(params, g, "node2")
        spec = attacks.AttackSpec(scenario="node2a", iterations=60)
        res = attacks.attack_node2(record, spec, params,
                                   known_features=g.features, rng=r)
        assert res.adjacency_prob.min() >= 0.0
        assert res.adjacency_prob.max() <= 1.0
        assert np.array_equal(res.adjacency_prob, res.adjacency_prob.T)

    def test_diverging_attack_raises_numeric_error(self):
        r = numkit.make_rng(19)
        g = graphs.synthetic_graph(r, 8, 3, 5, num_classes=3)
        params = models.init_params(r, "sage", "node", 5, 12, 3)
        record = federated.leak(params, g, "node2")
        # node2c steps with Adam, so the learning rate reaches the step
        spec = attacks.AttackSpec(scenario="node2c", iterations=20,
                                  learning_rate=1e300)
        with np.errstate(all="ignore"), pytest.raises(
                NumericError, match=r"at evaluation \d+"):
            attacks.attack_node2(record, spec, params,
                                 known_adjacency=g.adjacency, rng=r)

    @pytest.mark.parametrize("task", ["node2", "graph"])
    def test_zero_leak_raises_before_iterating(self, monkeypatch, task):
        # node2's zero bundles give no layer-input row to match; a graph's
        # zero bundle has no direction for the cosine objective
        r = numkit.make_rng(21)
        if task == "node2":
            g = graphs.synthetic_graph(r, 5, 2, 3, num_classes=2)
            params = models.init_params(r, "sage", "node", 3, 4, 2)
            attack, spec = attacks.attack_node2, "node2a"
            error, match = UnrecoverableError, "no node"
        else:
            g0 = graphs.er_graph(r, 4, 0.5, 3)
            g = graphs.Graph(adjacency=g0.adjacency, features=g0.features,
                             graph_label=1)
            params = models.init_params(r, "sage", "graph", 3, 4, 2,
                                        num_nodes=4)
            attack, spec = attacks.attack_graph, "graph_a"
            error, match = DegenerateGradientError, "leaked"
        record = federated.leak(params, g, task)
        zero = federated.LeakRecord(record.scenario, [
            GradientBundle(tensors={k: np.zeros_like(t)
                                    for k, t in b.tensors.items()})
            for b in record.bundles])
        # the sign rule reads no label off a zero bundle; supply one
        monkeypatch.setattr(attacks, "infer_label", lambda bundle: 0)
        monkeypatch.setattr(attacks, "_optimize", no_iteration)
        spec = attacks.AttackSpec(scenario=spec, objective="cosine",
                                  iterations=5)
        with pytest.raises(error, match=match):
            attack(zero, spec, params, known_features=g.features, rng=r)

    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    def test_attack_without_unknowns_raises(self, monkeypatch, framework):
        """node2a on a one-node graph has no adjacency pair to optimize (a
        one-node egonet of the CLI's default config): refused by name before
        either step rule evaluates the objective."""
        r = numkit.make_rng(23)
        g = graphs.Graph(adjacency=np.zeros((1, 1)),
                         features=r.standard_normal((1, 4)),
                         labels=np.array([1]))
        params = models.init_params(r, framework, "node", 4, 5, 3)
        record = federated.leak(params, g, "node2")
        for name in ("_adam", "_lbfgs"):
            monkeypatch.setattr(attacks, name, no_iteration)
        spec = attacks.AttackSpec(scenario="node2a", iterations=5)
        with pytest.raises(UnrecoverableError, match="no unknowns"):
            attacks.attack_node2(record, spec, params,
                                 known_features=g.features, rng=r)

    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    def test_node_without_a_recoverable_row_is_left_out(self, framework):
        """A node whose bias-gradient entries are all within EPS_DIV of zero
        has no layer-input row and is left out: the rows are the other
        nodes' own, the value is their match plus the regularizers, and
        the gradient through the kept rows meets central differences."""
        r = numkit.make_rng(22)
        g = graphs.synthetic_graph(r, 6, 2, 4, num_classes=3)
        params = models.init_params(r, framework, "node", 4, 5, 3)
        bundles = federated.leak(params, g, "node2").bundles
        bundles[3].tensors["conv1_bias"][:] = closed_form.EPS_DIV
        bundles[3].tensors["conv1_bias"][0] = -closed_form.EPS_DIV
        own = framework == "sage"
        inputs = closed_form.recover_layer_inputs(bundles, framework, own)
        assert np.array_equal(inputs.keep, [0, 1, 2, 4, 5])
        full = closed_form.recover_layer_inputs(bundles[:3] + bundles[4:],
                                                framework, own)
        for got, want in zip(inputs[1:], full[1:]):
            assert np.array_equal(got, want)
        spec = attacks.AttackSpec(scenario="node2c", alpha=1e-2, beta=1e-2)
        x = r.standard_normal((6, 4))
        pairs = probabilities(r, 15)
        f = attacks._matching_objective(spec, params, inputs, None,
                                        x_shape=x.shape, n=6, regularize=True)
        z = flat(x, pairs)
        value, gz = f(z)
        # the rows pass of the five kept nodes, from the whole graph
        lower, upper = attacks._pairs(6)
        a = np.zeros((6, 6))
        a.put(lower, pairs)
        a.put(upper, pairs)
        kept = inputs.keep
        rows = np.dot(graphs.normalize_dense(a, params.norm_mode), x)[kept]
        want = ((rows - inputs.agg) ** 2).sum()
        if own:
            want += ((x[kept] - inputs.own) ** 2).sum()
        want += (1e-2 * attacks.smoothness_grads(x, a, False, False)[0]
                 + 1e-2 * attacks.frobenius_penalty(a))
        assert value == pytest.approx(want, rel=1e-12)
        fd = selftest.finite_difference(lambda: f(z)[0], z)
        np.testing.assert_allclose(gz, fd, rtol=selftest.REL_TOL,
                                   atol=selftest.ABS_TOL)

    def test_scenario_mismatch_errors(self):
        r = numkit.make_rng(23)
        g = graphs.synthetic_graph(r, 5, 2, 3, num_classes=2)
        params = models.init_params(r, "sage", "node", 3, 4, 2)
        record = federated.leak(params, g, "node2")
        spec = attacks.AttackSpec(scenario="node2a", iterations=5)
        with pytest.raises(ConfigError):
            attacks.attack_node2(record, spec, params, rng=r)  # no known features

    @pytest.mark.parametrize("task,scenario", [
        ("node", "graph_b"), ("node", "node2a"),
        ("graph", "node1"), ("graph", "graph_c"),
    ])
    def test_batched_scenario_must_match_task(self, task, scenario):
        r = numkit.make_rng(26)
        if task == "node":
            g = graphs.synthetic_graph(r, 6, 2, 3, num_classes=2)
            params = models.init_params(r, "sage", "node", 3, 4, 2)
            record = federated.leak(params, g, "batched-node", targets=[1, 4])
            labels, known = g.labels[[1, 4]], None
        else:
            g0 = graphs.er_graph(r, 4, 0.5, 3)
            g = graphs.Graph(adjacency=g0.adjacency, features=g0.features,
                             graph_label=1)
            params = models.init_params(r, "sage", "graph", 3, 4, 2,
                                        num_nodes=4)
            record = federated.leak(params, [g], "batched-graph")
            labels, known = [g.graph_label], [g.adjacency]
        spec = attacks.AttackSpec(scenario=scenario, iterations=5)
        with pytest.raises(ConfigError, match="scenario"):
            attacks.attack_batched(record, spec, params, labels=labels,
                                   known_adjacencies=known, rng=r)

    @pytest.mark.parametrize("task", ["node", "graph"])
    def test_batched_label_out_of_range_raises_before_iterating(
            self, monkeypatch, task):
        self.check_batched_labels_refused(monkeypatch, task, [0, 2],
                                          "label out of range")

    @pytest.mark.parametrize("task", ["node", "graph"])
    def test_batched_fractional_label_raises_before_iterating(
            self, monkeypatch, task):
        # refused, not truncated to label 1
        self.check_batched_labels_refused(monkeypatch, task, [0, 1.7],
                                          "labels must be a vector of integers")

    @staticmethod
    def check_batched_labels_refused(monkeypatch, task, labels, match):
        r = numkit.make_rng(28)
        if task == "node":
            g = graphs.synthetic_graph(r, 6, 2, 3, num_classes=2)
            params = models.init_params(r, "sage", "node", 3, 4, 2)
            record = federated.leak(params, g, "batched-node", targets=[1, 4])
            known, spec, forward = None, "node1", "node_ctx"
        else:
            g0 = graphs.er_graph(r, 4, 0.5, 3)
            g = graphs.Graph(adjacency=g0.adjacency, features=g0.features,
                             graph_label=1)
            params = models.init_params(r, "sage", "graph", 3, 4, 2,
                                        num_nodes=4)
            record = federated.leak(params, [g, g], "batched-graph")
            known, spec, forward = [g.adjacency] * 2, "graph_b", "graph_ctx"
        calls = []
        real = getattr(attacks, forward)
        monkeypatch.setattr(attacks, forward,
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        spec = attacks.AttackSpec(scenario=spec, iterations=5)
        with pytest.raises(ShapeError, match=match):
            attacks.attack_batched(record, spec, params, labels=labels,
                                   known_adjacencies=known, rng=r)
        assert calls == []

    @pytest.mark.parametrize("batched", [False, True])
    def test_only_target_and_children_are_optimized(self, monkeypatch,
                                                    batched):
        r = numkit.make_rng(29)
        g = graphs.synthetic_graph(r, 8, 3, 4, num_classes=3)
        params = models.init_params(r, "sage", "node", 4, 6, 3)
        targets = [1, 5] if batched else [1]
        record = federated.leak(params, g,
                                "batched-node" if batched else "node1",
                                targets=targets)
        spec = attacks.AttackSpec(scenario="node1", iterations=3, d_tree=2)
        starts = []
        real = attacks.node_ctx
        monkeypatch.setattr(attacks, "node_ctx", lambda *a, **k: (
            starts.append(np.array(a[1])) or real(*a, **k)))
        if batched:
            results = attacks.attack_batched(record, spec, params,
                                             labels=g.labels[targets],
                                             rng=numkit.make_rng(5))
            features = np.stack([res.features for res in results])
        else:
            features = attacks.attack_node1(record, spec, params,
                                            rng=numkit.make_rng(5)).features
        # replay the attack's draws: the dummy tree, then the start
        replay = numkit.make_rng(5)
        graphs.dummy_tree(replay, spec.d_tree, 4)
        draw = replay.standard_normal(features.shape)
        live = 1 + spec.d_tree
        assert features.shape[-2] == 1 + spec.d_tree + spec.d_tree ** 2
        # one forward call per L-BFGS evaluation, each on the live rows only
        assert len(starts) == spec.iterations
        assert all(start.shape[-2] == live for start in starts)
        assert np.array_equal(starts[0], draw[..., :live, :])
        assert np.array_equal(features[..., live:, :], draw[..., live:, :])
        assert not np.array_equal(features[..., :live, :],
                                  draw[..., :live, :])

    @pytest.mark.parametrize("scenario,argument,shape", [
        ("batched_graph", "known_adjacencies", (1, 5, 5)),
        ("batched_graph", "known_adjacencies", (2, 5, 5)),
        ("batched_graph", "known_adjacencies", (3, 4, 4)),
        ("batched_graph", "known_adjacencies", "ragged"),
        ("node2a", "known_features", (6, 4)),
        ("node2a", "known_features", (5, 3)),
        ("node2b", "known_adjacency", (6, 6)),
        ("node2b", "known_adjacency", (5, 6)),
        ("graph_a", "known_features", (5, 3)),
        ("graph_b", "known_adjacency", (4, 4)),
    ], ids=["one_adjacency_for_3", "two_for_3", "4x4_for_5_nodes", "ragged",
            "node2_extra_row", "node2_short_row", "node2_6x6", "node2_5x6",
            "graph_short_row", "graph_4x4"])
    def test_known_input_shape_is_checked_before_iterating(
            self, monkeypatch, scenario, argument, shape):
        # 5 nodes, 4 features; a batch of 3 graphs
        r = numkit.make_rng(32)
        kwargs = {"known_features": np.ones((5, 4)),
                  "known_adjacency": np.full((5, 5), 0.5)}
        if scenario.startswith("node"):
            g = graphs.synthetic_graph(r, 5, 2, 4, num_classes=3)
            params = models.init_params(r, "sage", "node", 4, 6, 3)
            record = federated.leak(params, g, "node2")
            attack, forward = attacks.attack_node2, "node_ctx"
        else:
            gs = []
            for k in range(3):
                g0 = graphs.er_graph(r, 5, 0.5, 4)
                gs.append(graphs.Graph(adjacency=g0.adjacency,
                                       features=g0.features, graph_label=k))
            params = models.init_params(r, "sage", "graph", 4, 6, 3,
                                        num_nodes=5)
            forward = "graph_ctx"
            if scenario == "batched_graph":
                record = federated.leak(params, gs, "batched-graph")
                attack, kwargs = attacks.attack_batched, {"labels": [0, 1, 2]}
                scenario = "graph_b"
            else:
                record = federated.leak(params, gs[1], "graph")
                attack = attacks.attack_graph
        if shape == "ragged":
            kwargs[argument] = [np.full((5, 5), 0.5), np.full((4, 4), 0.5),
                                np.full((5, 5), 0.5)]
        else:
            kwargs[argument] = np.full(shape, 0.5)
        calls = []
        real = getattr(attacks, forward)
        monkeypatch.setattr(attacks, forward,
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        spec = attacks.AttackSpec(scenario=scenario, iterations=5)
        with pytest.raises(ShapeError, match=argument):
            attack(record, spec, params, rng=r, **kwargs)
        assert calls == []

    def test_constant_adjacency_start_is_projected_once(self):
        # the loop clips the adjacency start into [0, 1]: 1.5 starts at 1.0
        r = numkit.make_rng(33)
        g = graphs.synthetic_graph(r, 6, 2, 4, num_classes=3)
        params = models.init_params(r, "sage", "node", 4, 5, 3)
        record = federated.leak(params, g, "node2")
        a, b = [
            attacks.attack_node2(
                record, attacks.AttackSpec(scenario="node2a", iterations=20,
                                           init="constant", init_value=value),
                params, known_features=g.features, rng=numkit.make_rng(0))
            for value in (1.5, 1.0)
        ]
        for name in ("adjacency_prob", "adjacency", "objective_trace"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_warm_adjacency_start_is_projected(self):
        r = numkit.make_rng(34)
        g = graphs.synthetic_graph(r, 6, 2, 4, num_classes=3)
        params = models.init_params(r, "sage", "node", 4, 5, 3)
        record = federated.leak(params, g, "node2")
        warm = 2.0 * r.standard_normal((6, 6))
        assert (warm < 0.0).any() and (warm > 1.0).any()
        spec = attacks.AttackSpec(scenario="node2c", iterations=20)
        x = numkit.make_rng(0).standard_normal((6, 4))
        a, b = [optimize_from(spec, params, record, x, start)
                for start in (warm, np.clip(warm, 0.0, 1.0))]
        for name in ("features", "adjacency_prob", "adjacency",
                     "objective_trace"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("task", ["node", "graph"])
    def test_adjacency_start_reads_only_the_lower_triangle(self, task):
        r = numkit.make_rng(35)
        g, params, record, _, scenario = structure_case(r, task)
        lower = np.tril(r.random((6, 6)), k=-1)
        starts = (lower + lower.T,
                  lower + np.triu(2.0 * r.standard_normal((6, 6))))
        spec = attacks.AttackSpec(scenario=scenario, iterations=20)
        a, b = [optimize_from(spec, params, record, a=start,
                              known_x=g.features)
                for start in starts]
        for name in ("adjacency_prob", "adjacency", "objective_trace"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("scenario",
                             ["node2a", "node2c", "graph_a", "graph_c"])
    def test_gaussian_adjacency_start_is_symmetric_with_zero_diagonal(
            self, scenario):
        r = numkit.make_rng(36)
        g, params, record, attack, _ = structure_case(r, scenario[:-2])
        spec = attacks.AttackSpec(scenario=scenario, iterations=20)
        prob = attack(record, spec, params, known_features=g.features,
                      rng=r).adjacency_prob
        assert np.array_equal(prob, prob.T)
        assert np.all(np.diag(prob) == 0.0)
        assert np.all((prob >= 0.0) & (prob <= 1.0))

    def test_batched_b1_matches_node1(self):
        r = numkit.make_rng(24)
        g = graphs.synthetic_graph(r, 12, 3, 5, num_classes=3)
        params = models.init_params(r, "sage", "node", 5, 8, 3)
        single = federated.leak(params, g, "node1", targets=[4])
        batched = federated.leak(params, g, "batched-node", targets=[4])
        spec = attacks.AttackSpec(scenario="node1", iterations=120, d_tree=3)
        res1 = attacks.attack_node1(single, spec, params,
                                    rng=numkit.make_rng(42))
        resb = attacks.attack_batched(batched, spec, params,
                                      labels=[int(g.labels[4])],
                                      rng=numkit.make_rng(42))
        # node1 is the batched tree attack with B = 1, bit for bit
        assert np.array_equal(res1.features, resb[0].features)
        assert np.array_equal(res1.objective_trace, resb[0].objective_trace)

    def test_node1_infers_label(self):
        g, params = tree_world(seed=25)
        record = federated.leak(params, g, "node1", targets=[0])
        spec = attacks.AttackSpec(scenario="node1", iterations=5, d_tree=3)
        res = attacks.attack_node1(record, spec, params, rng=numkit.make_rng(6))
        assert res.labels[0] == g.labels[0]

    def test_node1_gcn_target_stays_hidden(self):
        # gcn exposes only the aggregated neighborhood; the raw target
        # features stay unidentified even when the attack converges
        from glg import closed_form

        r = numkit.make_rng(26)
        g = graphs.synthetic_graph(r, 30, 4, 8, num_classes=4)
        params = models.init_params(r, "gcn", "node", 8, 40, 4)
        target = 3
        record = federated.leak(params, g, "node1", targets=[target])
        spec = attacks.AttackSpec(scenario="node1", iterations=1200, d_tree=6)
        res = attacks.attack_node1(record, spec, params, rng=r)
        assert metrics.rnmse(g.features[target], res.target_feature) > 0.1
        anorm = graphs.normalize_adjacency(g, "gcn").matrix
        agg = closed_form.recover_agg_features(record.bundle, "gcn")
        assert metrics.rnmse((anorm @ g.features)[target], agg) < 1e-9

    def test_large_smoothness_weight_degrades_recovery(self):
        # the matching signal drowns once the regularizer dominates
        aps = {}
        for alpha in (1e-9, 1e-3):
            vals = []
            for seed in range(2):
                r = numkit.make_rng(5000 + seed)
                g0 = graphs.synthetic_graph(r, 16, 2, 8)
                g = graphs.Graph(adjacency=g0.adjacency, features=g0.features,
                                 graph_label=int(r.integers(0, 2)))
                params = models.init_params(r, "gcn", "graph", 8, 24, 2,
                                            num_nodes=16)
                record = federated.leak(params, g, "graph")
                spec = attacks.AttackSpec(scenario="graph_a", iterations=500,
                                          alpha=alpha, beta=1e-7,
                                          init="gaussian")
                res = attacks.attack_graph(record, spec, params,
                                           known_features=g.features,
                                           rng=numkit.make_rng(seed))
                sc = metrics.score_adjacency(g.adjacency, res.adjacency,
                                             res.adjacency_prob)
                vals.append(sc.auc if sc.auc is not None else 0.5)
            aps[alpha] = np.mean(vals)
        assert aps[1e-3] < aps[1e-9]


def structure_case(r, task):
    """A 6-node graph, its sage model and leak, and the adjacency attack."""
    if task == "node":
        g = graphs.synthetic_graph(r, 6, 2, 4, num_classes=3)
        params = models.init_params(r, "sage", "node", 4, 5, 3)
        return (g, params, federated.leak(params, g, "node2"),
                attacks.attack_node2, "node2a")
    g0 = graphs.er_graph(r, 6, 0.5, 4)
    g = graphs.Graph(adjacency=g0.adjacency, features=g0.features,
                     graph_label=1)
    params = models.init_params(r, "sage", "graph", 4, 5, 3, num_nodes=6)
    return (g, params, federated.leak(params, g, "graph"),
            attacks.attack_graph, "graph_a")


class _Captured(Exception):
    pass


def captured_objective(monkeypatch, attack, *args, **kwargs):
    """The objective an attack hands to the shared optimization loop."""
    got = []

    def fake_optimize(spec, objective, *rest, **options):
        got.append(objective)
        raise _Captured

    monkeypatch.setattr(attacks, "_optimize", fake_optimize)
    with pytest.raises(_Captured):
        attack(*args, rng=numkit.make_rng(0), **kwargs)
    return got[0]


def probabilities(r, shape):
    """Entries drawn in (0.1, 0.9)."""
    return 0.1 + 0.8 * r.random(shape)


def symmetric_probabilities(r, n):
    """Zero-diagonal symmetric matrix with off-diagonal entries in (0.1, 0.9)."""
    lower = np.tril(probabilities(r, (n, n)), k=-1)
    return lower + lower.T


def objective_case(monkeypatch, scenario, framework, objective):
    """Captured objective of one attack plus the point to check it at: the
    features x and the adjacency pairs, None where the attack treats the
    input as known."""
    r = numkit.make_rng(31)
    batched = {"batched_node": "node1", "batched_graph": "graph_b"}
    spec = attacks.AttackSpec(scenario=batched.get(scenario, scenario),
                              objective=objective, alpha=1e-2, beta=1e-2,
                              d_tree=1)
    if scenario in ("node1", "batched_node"):
        g = graphs.synthetic_graph(r, 6, 2, 3, num_classes=3)
        params = models.init_params(r, framework, "node", 3, 4, 3)
        if scenario == "node1":
            record = federated.leak(params, g, "node1", targets=[2])
            f = captured_objective(monkeypatch, attacks.attack_node1, record,
                                   spec, params)
            # the live rows of the 3-node dummy tree: the target and its child
            return f, r.standard_normal((2, 3)), None
        record = federated.leak(params, g, "batched-node", targets=[1, 4])
        f = captured_objective(monkeypatch, attacks.attack_batched, record,
                               spec, params, labels=g.labels[[1, 4]])
        return f, r.standard_normal((2, 2, 3)), None
    if scenario == "batched_graph":
        gs = []
        for k in range(2):
            g0 = graphs.er_graph(r, 4, 0.6, 3)
            gs.append(graphs.Graph(adjacency=g0.adjacency, features=g0.features,
                                   graph_label=k))
        params = models.init_params(r, framework, "graph", 3, 4, 3, num_nodes=4)
        record = federated.leak(params, gs, "batched-graph")
        f = captured_objective(monkeypatch, attacks.attack_batched, record,
                               spec, params, labels=[0, 1],
                               known_adjacencies=[g.adjacency for g in gs])
        return f, r.standard_normal((2, 4, 3)), None
    if scenario.startswith("node"):
        n, d = 6, 4
        g = graphs.synthetic_graph(r, n, 2, d, num_classes=3)
        params = models.init_params(r, framework, "node", d, 4, 3)
        record = federated.leak(params, g, "node2")
        attack = attacks.attack_node2
    else:
        n, d = 5, 3
        g0 = graphs.er_graph(r, n, 0.5, d)
        g = graphs.Graph(adjacency=g0.adjacency, features=g0.features,
                         graph_label=1)
        params = models.init_params(r, framework, "graph", d, 4, 3, num_nodes=n)
        record = federated.leak(params, g, "graph")
        attack = attacks.attack_graph
    f = captured_objective(monkeypatch, attack, record, spec, params,
                           known_features=g.features,
                           known_adjacency=symmetric_probabilities(r, n))
    x = r.standard_normal((n, d)) if scenario[-1] in "bc" else None
    pairs = probabilities(r, n * (n - 1) // 2) if scenario[-1] in "ac" else None
    return f, x, pairs


WHOLE_OBJECTIVE_CASES = [
    (scenario, framework, objective)
    for scenario in ("node2a", "node2b", "node2c", "graph_a", "graph_b", "graph_c")
    for framework in ("gcn", "sage")
    for objective in ("cosine", "l2")
] + [
    (scenario, framework, "cosine")
    for scenario in ("node1", "batched_node", "batched_graph")
    for framework in ("gcn", "sage")
]


class TestWholeObjective:
    """Pin the objective the shared loop follows against finite differences.

    This covers the composition of the matching objective, the
    second-order matching gradient (on node2, the adjoint of the
    layer-input rows, matched by L2 whatever the objective named), the
    normalization backward pass, the regularizers (alpha = beta = 1e-2,
    large enough to matter) and the fold of each adjacency pair's two
    entries into one unknown: the differences are taken in the flat vector
    of unknowns itself.
    """

    @pytest.mark.parametrize("scenario,framework,objective", WHOLE_OBJECTIVE_CASES)
    def test_gradients_match_finite_differences(self, monkeypatch, scenario,
                                                framework, objective):
        f, x, pairs = objective_case(monkeypatch, scenario, framework, objective)
        z = flat(x, pairs)
        value, gz = f(z)
        assert gz.shape == z.shape
        fd = selftest.finite_difference(lambda: f(z)[0], z)
        np.testing.assert_allclose(gz, fd, rtol=selftest.REL_TOL,
                                   atol=selftest.ABS_TOL)


class TestObjectiveState:
    """The objective's buffers carry nothing from one call to the next."""

    @pytest.mark.parametrize("objective", ["cosine", "l2"])
    @pytest.mark.parametrize("scenario",
                             ["node1", "node2a", "graph_a", "graph_c",
                              "batched_node", "batched_graph"])
    def test_second_call_equals_a_fresh_objective(self, monkeypatch, scenario,
                                                  objective):
        f, x2, p2 = objective_case(monkeypatch, scenario, "sage", objective)
        fresh = objective_case(monkeypatch, scenario, "sage", objective)[0]
        r = numkit.make_rng(41)
        x1 = None if x2 is None else x2 + r.standard_normal(x2.shape)
        p1 = None if p2 is None else probabilities(r, p2.shape)
        first = f(flat(x1, p1))
        kept = [np.copy(arr) for arr in first]
        second = f(flat(x2, p2))
        want = fresh(flat(x2, p2))
        assert first[0] != second[0]
        for got_arr, want_arr in zip(second, want):
            assert np.array_equal(got_arr, want_arr)
        # the second call left what the first returned as it was
        for arr, copy in zip(first, kept):
            assert np.array_equal(arr, copy)

    def test_attacks_in_one_process_share_nothing(self):
        """A graph attack, a batched graph attack, then the first again:
        each attack builds its own trace, so the repeat has the first's bits."""
        r = numkit.make_rng(43)
        n, d = 6, 4
        params = models.init_params(r, "sage", "graph", d, 5, 3, num_nodes=n)
        gs = []
        for k in range(3):
            g0 = graphs.er_graph(r, n, 0.5, d)
            gs.append(graphs.Graph(adjacency=g0.adjacency, features=g0.features,
                                   graph_label=k))
        spec = attacks.AttackSpec(scenario="graph_a", iterations=30)

        def graph_a():
            return attacks.attack_graph(
                federated.leak(params, gs[0], "graph"), spec, params,
                known_features=gs[0].features, rng=numkit.make_rng(44))

        first = graph_a()
        attacks.attack_batched(
            federated.leak(params, gs, "batched-graph"),
            attacks.AttackSpec(scenario="graph_b", iterations=30), params,
            labels=[0, 1, 2], known_adjacencies=[g.adjacency for g in gs],
            rng=numkit.make_rng(45))
        again = graph_a()
        for name in ("adjacency_prob", "adjacency", "labels",
                     "objective_trace"):
            assert np.array_equal(getattr(again, name), getattr(first, name))
        assert again.final_objective == first.final_objective


    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    def test_node_attacks_in_one_process_share_nothing(self, framework):
        """node1, a batched node attack, then node1 again: each attack
        builds its own node trace, so the repeat has the first's bits."""
        r = numkit.make_rng(46)
        g = graphs.synthetic_graph(r, 8, 2, 4, num_classes=3)
        params = models.init_params(r, framework, "node", 4, 6, 3)
        spec = attacks.AttackSpec(scenario="node1", iterations=30, d_tree=3)

        def node1():
            return attacks.attack_node1(
                federated.leak(params, g, "node1", targets=[2]), spec, params,
                rng=numkit.make_rng(47))

        first = node1()
        attacks.attack_batched(
            federated.leak(params, g, "batched-node", targets=[1, 4, 6]),
            spec, params, labels=g.labels[[1, 4, 6]], rng=numkit.make_rng(48))
        again = node1()
        for name in ("features", "labels", "objective_trace",
                     "target_feature"):
            assert np.array_equal(getattr(again, name), getattr(first, name))
        assert again.final_objective == first.final_objective


def test_leak_with_a_tensor_the_model_lacks_fails():
    """The dummy's bundle buffer is laid out from the model, so a leaked
    tensor the model never writes is refused before any iteration."""
    r = numkit.make_rng(42)
    g = graphs.synthetic_graph(r, 6, 2, 3, num_classes=3)
    sage = models.init_params(r, "sage", "node", 3, 4, 3)
    gcn = models.init_params(r, "gcn", "node", 3, 4, 3)
    record = federated.leak(sage, g, "node2")
    spec = attacks.AttackSpec(scenario="node2b", iterations=2)
    with pytest.raises(ShapeError, match="conv1_self"):
        attacks.attack_node2(record, spec, gcn, known_adjacency=g.adjacency,
                             rng=r)


def no_iteration(*args, **kwargs):
    raise AssertionError("an attack iteration ran")


def test_leak_that_lacks_a_model_tensor_fails(monkeypatch):
    """A gcn leak attacked with a sage model lacks the self weight: refused,
    naming it, before the first forward pass."""
    r = numkit.make_rng(42)
    g = graphs.synthetic_graph(r, 6, 2, 3, num_classes=3)
    sage = models.init_params(r, "sage", "node", 3, 4, 3)
    gcn = models.init_params(r, "gcn", "node", 3, 4, 3)
    record = federated.leak(gcn, g, "node2")
    spec = attacks.AttackSpec(scenario="node2b", iterations=2)
    monkeypatch.setattr(attacks, "node_ctx", no_iteration)
    with pytest.raises(ShapeError, match="conv1_self is not in the bundle"):
        attacks.attack_node2(record, spec, sage, known_adjacency=g.adjacency,
                             rng=r)


@pytest.mark.parametrize("task", ["node", "graph"])
def test_leaked_tensor_of_the_wrong_shape_fails(task, monkeypatch):
    """A leak of a wider model is refused, naming the first tensor whose
    shape differs from the model's, before the first forward pass."""
    r = numkit.make_rng(43)
    num_nodes = None if task == "node" else 6
    wide, narrow = (models.init_params(r, "sage", task, 3, f, 3,
                                       num_nodes=num_nodes) for f in (5, 4))
    if task == "node":
        g = graphs.synthetic_graph(r, 6, 2, 3, num_classes=3)
        record = federated.leak(wide, g, "node2")
        spec = attacks.AttackSpec(scenario="node2b", iterations=2)
        attack = functools.partial(attacks.attack_node2,
                                   known_adjacency=g.adjacency)
    else:
        g = graphs.Graph(adjacency=graphs.er_graph(r, 6, 0.5, 3).adjacency,
                         features=r.standard_normal((6, 3)), graph_label=1)
        record = federated.leak(wide, g, "graph")
        spec = attacks.AttackSpec(scenario="graph_b", iterations=2)
        attack = functools.partial(attacks.attack_graph,
                                   known_adjacency=g.adjacency)
    monkeypatch.setattr(attacks, f"{task}_ctx", no_iteration)
    with pytest.raises(ShapeError,
                       match=r"conv1_agg has shape \(5, 3\), the model's "
                             r"\(4, 3\)"):
        attack(record, spec, narrow, rng=r)
