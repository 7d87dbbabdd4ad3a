import numpy as np
import pytest

from glg import attacks, federated, graphs, metrics, models, numkit, selftest
from glg.errors import (
    ConfigError,
    DegenerateGradientError,
    NumericError,
    ShapeError,
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
    return attacks._matcher(row(leaked), kind)(row(dummy))[0]


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
        _, gx, ga = attacks.smoothness_grads(x, a, True, True)
        eps = 1e-6
        for arr, grad in ((x, gx), (a, ga)):
            flat = arr.reshape(-1)
            gflat = grad.reshape(-1)
            for i in range(flat.size):
                old = flat[i]
                flat[i] = old + eps
                fp = attacks.smoothness_grads(x, a, False, False)[0]
                flat[i] = old - eps
                fm = attacks.smoothness_grads(x, a, False, False)[0]
                flat[i] = old
                assert gflat[i] == pytest.approx((fp - fm) / (2 * eps),
                                                 rel=1e-4, abs=1e-7)

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

    def test_tree_init_only_node1(self):
        for scenario in ("node1", "graph_a"):
            with pytest.raises(ConfigError, match="init"):
                attacks.AttackSpec(scenario=scenario, init="tree")

    def test_negative_alpha(self):
        with pytest.raises(ConfigError):
            attacks.AttackSpec(scenario="node1", alpha=-1.0)

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


class TestFixedPoints:
    def test_node1_truth_init(self):
        g, params = tree_world()
        record = federated.leak(params, g, "node1", targets=[0])
        spec = attacks.AttackSpec(scenario="node1", iterations=8, d_tree=3)
        res = attacks.attack_node1(record, spec, params, rng=numkit.make_rng(1),
                                   init_features=g.features)
        assert np.all(res.objective_trace == 0.0)
        assert np.array_equal(res.features, g.features)

    def test_node2c_truth_init(self):
        r = numkit.make_rng(16)
        g = graphs.synthetic_graph(r, 6, 2, 8, num_classes=3)
        params = models.init_params(r, "sage", "node", 8, 5, 3)
        record = federated.leak(params, g, "node2")
        spec = attacks.AttackSpec(scenario="node2c", iterations=6, alpha=0.0,
                                  beta=0.0)
        res = attacks.attack_node2(record, spec, params, rng=numkit.make_rng(1),
                                   init_features=g.features,
                                   init_adjacency=g.adjacency)
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
        res = attacks.attack_graph(record, spec, params, rng=numkit.make_rng(1),
                                   init_features=g.features,
                                   init_adjacency=g.adjacency)
        assert np.all(res.objective_trace == 0.0)
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
        and every gradient entry are exactly zero."""
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
        f = attacks._matching_objective(
            spec, params, record.bundles, labels,
            known_x=None if opt_x else x, known_a=None if opt_a else a,
            anorm=anorm)
        value, gx, ga = f(x if opt_x else None, a if opt_a else None, True)
        assert value == 0.0
        assert (gx is None) != opt_x and (ga is None) != opt_a
        for grad in (gx, ga):
            assert grad is None or np.all(grad == 0.0)


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
        spec = attacks.AttackSpec(scenario="node2b", iterations=20,
                                  learning_rate=1e300)
        with np.errstate(all="ignore"), pytest.raises(NumericError,
                                                      match=r"iteration \d+"):
            attacks.attack_node2(record, spec, params,
                                 known_adjacency=g.adjacency, rng=r)

    @pytest.mark.parametrize("task", ["node2", "graph"])
    def test_zero_leak_raises_before_iterating(self, monkeypatch, task):
        r = numkit.make_rng(21)
        if task == "node2":
            g = graphs.synthetic_graph(r, 5, 2, 3, num_classes=2)
            params = models.init_params(r, "sage", "node", 3, 4, 2)
            attack, spec = attacks.attack_node2, "node2a"
            forward = "node_ctx"
        else:
            g0 = graphs.er_graph(r, 4, 0.5, 3)
            g = graphs.Graph(adjacency=g0.adjacency, features=g0.features,
                             graph_label=1)
            params = models.init_params(r, "sage", "graph", 3, 4, 2,
                                        num_nodes=4)
            attack, spec = attacks.attack_graph, "graph_a"
            forward = "graph_ctx"
        record = federated.leak(params, g, task)
        zero = federated.LeakRecord(record.scenario, [
            GradientBundle(tensors={k: np.zeros_like(t)
                                    for k, t in b.tensors.items()})
            for b in record.bundles])
        # the sign rule reads no label off a zero bundle; supply one
        monkeypatch.setattr(attacks, "infer_label", lambda bundle: 0)
        calls = []
        real = getattr(attacks, forward)
        monkeypatch.setattr(attacks, forward,
                            lambda *a, **k: calls.append(1) or real(*a, **k))
        spec = attacks.AttackSpec(scenario=spec, objective="cosine",
                                  iterations=5)
        with pytest.raises(DegenerateGradientError, match="leaked"):
            attack(zero, spec, params, known_features=g.features, rng=r)
        assert calls == []

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
        with pytest.raises(ShapeError, match="label out of range"):
            attacks.attack_batched(record, spec, params, labels=[0, 2],
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
        # iterations + 1 forward calls, each on the live rows only
        assert len(starts) == spec.iterations + 1
        assert all(start.shape[-2] == live for start in starts)
        assert np.array_equal(starts[0], draw[..., :live, :])
        assert np.array_equal(features[..., live:, :], draw[..., live:, :])
        assert not np.array_equal(features[..., :live, :],
                                  draw[..., :live, :])

    def test_node1_init_features_must_cover_the_tree(self):
        g, params = tree_world()
        record = federated.leak(params, g, "node1", targets=[0])
        spec = attacks.AttackSpec(scenario="node1", iterations=2, d_tree=3)
        with pytest.raises(ShapeError, match="init_features"):
            attacks.attack_node1(record, spec, params, rng=numkit.make_rng(0),
                                 init_features=g.features[:4])

    @pytest.mark.parametrize("task", ["node", "graph"])
    def test_init_adjacency_must_match_the_graph(self, task):
        g, params, record, attack, scenario = structure_case(
            numkit.make_rng(25), task)
        spec = attacks.AttackSpec(scenario=scenario, iterations=2)
        with pytest.raises(ShapeError, match="init_adjacency"):
            attack(record, spec, params, known_features=g.features,
                   rng=numkit.make_rng(0), init_adjacency=np.zeros((4, 4)))

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
        a, b = [
            attacks.attack_node2(record, spec, params, rng=numkit.make_rng(0),
                                 init_adjacency=start)
            for start in (warm, np.clip(warm, 0.0, 1.0))
        ]
        for name in ("features", "adjacency_prob", "adjacency",
                     "objective_trace"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    @pytest.mark.parametrize("task", ["node", "graph"])
    def test_adjacency_start_reads_only_the_lower_triangle(self, task):
        r = numkit.make_rng(35)
        g, params, record, attack, scenario = structure_case(r, task)
        lower = np.tril(r.random((6, 6)), k=-1)
        starts = (lower + lower.T,
                  lower + np.triu(2.0 * r.standard_normal((6, 6))))
        spec = attacks.AttackSpec(scenario=scenario, iterations=20)
        a, b = [attack(record, spec, params, known_features=g.features,
                       rng=numkit.make_rng(0), init_adjacency=start)
                for start in starts]
        for name in ("adjacency_prob", "adjacency", "objective_trace"):
            assert np.array_equal(getattr(a, name), getattr(b, name))

    def test_gaussian_adjacency_start_is_symmetric_with_zero_diagonal(self):
        r = numkit.make_rng(36)
        _, params, record, _, _ = structure_case(r, "node")
        spec = attacks.AttackSpec(scenario="node2c", iterations=20)
        prob = attacks.attack_node2(record, spec, params, rng=r).adjacency_prob
        assert np.array_equal(prob, prob.T)
        assert np.all(np.diag(prob) == 0.0)

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


def symmetric_probabilities(r, n):
    """Zero-diagonal symmetric matrix with off-diagonal entries in (0.1, 0.9)."""
    lower = np.tril(0.1 + 0.8 * r.random((n, n)), k=-1)
    return lower + lower.T


def objective_case(monkeypatch, scenario, framework, objective):
    """Captured objective of one attack plus the point (x, a) to check it at.

    x / a are None where the attack treats the input as known.
    """
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
    a = symmetric_probabilities(r, n) if scenario[-1] in "ac" else None
    return f, x, a


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
    second-order matching gradient, the normalization backward pass, the
    regularizers (alpha = beta = 1e-2, large enough to matter) and the
    lower-triangle folding of the adjacency gradient.
    """

    @pytest.mark.parametrize("scenario,framework,objective", WHOLE_OBJECTIVE_CASES)
    def test_gradients_match_finite_differences(self, monkeypatch, scenario,
                                                framework, objective):
        f, x, a = objective_case(monkeypatch, scenario, framework, objective)
        value, gx, ga = f(x, a, True)
        assert value == f(x, a, False)[0]
        assert (gx is None) == (x is None) and (ga is None) == (a is None)
        if x is not None:
            fd = selftest.finite_difference(lambda: f(x, a, False)[0], x)
            np.testing.assert_allclose(gx, fd, rtol=selftest.REL_TOL,
                                       atol=selftest.ABS_TOL)
        if a is not None:
            rows, cols = np.tril_indices(a.shape[0], k=-1)
            folded = ga[rows, cols] + ga[cols, rows]
            theta = a[rows, cols]

            def symmetric():
                lower = np.zeros_like(a)
                lower[rows, cols] = theta
                return lower + lower.T

            fd = selftest.finite_difference(
                lambda: f(x, symmetric(), False)[0], theta)
            np.testing.assert_allclose(folded, fd, rtol=selftest.REL_TOL,
                                       atol=selftest.ABS_TOL)


class TestObjectiveState:
    """The objective's buffers carry nothing from one call to the next."""

    @pytest.mark.parametrize("objective", ["cosine", "l2"])
    @pytest.mark.parametrize("scenario",
                             ["node1", "node2a", "graph_a", "batched_node"])
    def test_second_call_equals_a_fresh_objective(self, monkeypatch, scenario,
                                                  objective):
        f, x2, a2 = objective_case(monkeypatch, scenario, "sage", objective)
        fresh = objective_case(monkeypatch, scenario, "sage", objective)[0]
        r = numkit.make_rng(41)
        x1 = None if x2 is None else x2 + r.standard_normal(x2.shape)
        a1 = None if a2 is None else symmetric_probabilities(r, a2.shape[0])
        first = f(x1, a1, True)
        kept = [None if arr is None else np.copy(arr) for arr in first]
        second = f(x2, a2, True)
        want = fresh(x2, a2, True)
        assert first[0] != second[0]
        for got_arr, want_arr in zip(second, want):
            assert (got_arr is None) == (want_arr is None)
            if want_arr is not None:
                assert np.array_equal(got_arr, want_arr)
        # the second call left what the first returned as it was
        for arr, copy in zip(first, kept):
            assert (arr is None and copy is None) or np.array_equal(arr, copy)


def test_leak_with_a_tensor_the_model_lacks_fails():
    """The dummy's bundle buffer is laid out from the leak, so a leaked
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
