import math

import numpy as np
import pytest

from glg import graphs, models, numkit, selftest
from glg.errors import AmbiguousLabelError, ShapeError

rng = numkit.make_rng(31)


def make_node_setup(framework, n=5, d=3, f=4, k=3, seed=None):
    r = numkit.make_rng(seed) if seed is not None else rng
    g = graphs.synthetic_graph(r, n, min(n - 1, 2), d, num_classes=k)
    params = models.init_params(r, framework, "node", d, f, k)
    anorm = graphs.normalize_adjacency(g, params.norm_mode)
    return g, params, anorm


class TestCrossEntropy:
    def test_uniform(self):
        assert models.cross_entropy(np.zeros(4), 0) == pytest.approx(math.log(4))

    def test_peaked(self):
        got = models.cross_entropy(np.array([10.0, 0.0, 0.0]), 0)
        want = -math.log(math.exp(10) / (math.exp(10) + 2))
        assert got == pytest.approx(want, rel=1e-10)
        assert got == pytest.approx(9.08e-5, rel=1e-2)

    def test_shift_invariance(self):
        p = rng.standard_normal(5)
        base = models.cross_entropy(p, 2)
        assert models.cross_entropy(p + 123.456, 2) == pytest.approx(base, abs=1e-9)

    def test_label_range(self):
        with pytest.raises(ShapeError):
            models.cross_entropy(np.zeros(3), 3)


class TestForwardNode:
    def test_zero_weights_uniform_loss(self):
        g, params, anorm = make_node_setup("sage", k=4)
        for name in params.param_names:
            params.tensors[name][:] = 0.0
        trace = models.forward_node(params, g, anorm, 0, 1)
        assert np.allclose(trace.logits, 0.0)
        assert trace.loss == pytest.approx(math.log(4))

    def test_isolated_node_gcn_self_aggregation(self):
        g = graphs.Graph(adjacency=np.zeros((3, 3)),
                         features=rng.standard_normal((3, 2)))
        params = models.init_params(rng, "gcn", "node", 2, 4, 2)
        anorm = graphs.normalize_adjacency(g, "gcn")
        trace = models.forward_node(params, g, anorm, 1, 0)
        assert np.allclose(trace.aggregated[1], g.features[1])

    def test_scalar_loop_oracle_sage(self):
        g, params, anorm = make_node_setup("sage", n=5, seed=101)
        target, label = 2, int(g.labels[2])
        trace = models.forward_node(params, g, anorm, target, label)

        t = params.tensors
        x = g.features
        nbrs = g.neighbors(target)
        agg = (x[nbrs].mean(axis=0) if len(nbrs) else np.zeros(x.shape[1]))
        pre = agg @ t["conv1_agg"].T + x[target] @ t["conv1_self"].T + t["conv1_bias"]
        hid = 1.0 / (1.0 + np.exp(-pre))
        logits = hid @ t["out_weight"].T + t["out_bias"]
        probs = np.exp(logits - logits.max())
        probs /= probs.sum()
        assert np.allclose(trace.logits, logits, atol=1e-12)
        assert trace.loss == pytest.approx(-math.log(probs[label]), abs=1e-12)

    def test_trace_replay_is_deterministic(self):
        g, params, anorm = make_node_setup("gcn", seed=11)
        a = models.forward_node(params, g, anorm, 1, int(g.labels[1]))
        b = models.forward_node(params, g, anorm, 1, int(g.labels[1]))
        assert a.loss == b.loss
        assert np.array_equal(a.logits, b.logits)


def full_first_layer(params, x, anorm):
    """Aggregated input, hidden layer and sigmoid derivative on every row."""
    t = params.tensors
    agg = anorm @ x
    pre = agg @ t["conv1_agg"].T + t["conv1_bias"]
    if "conv1_self" in t:
        pre = pre + x @ t["conv1_self"].T
    hidden = 1.0 / (1.0 + np.exp(-pre))
    return agg, hidden, hidden * (1.0 - hidden)


class TestNodeCtxRows:
    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    def test_shared_graph_several_targets(self, framework):
        g, params, anorm = make_node_setup(framework, n=7, seed=41)
        targets = np.array([3, 0, 6, 3])
        ctx = models.node_ctx(params, g.features, anorm.matrix, targets,
                              g.labels[targets])
        agg, hidden, sig = full_first_layer(params, g.features, anorm.matrix)
        assert np.allclose(ctx.mt, agg[targets], rtol=0, atol=1e-12)
        assert np.allclose(ctx.ht, hidden[targets], rtol=0, atol=1e-12)
        assert np.allclose(ctx.st, sig[targets], rtol=0, atol=1e-12)

    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    def test_batch_of_graphs_shared_adjacency(self, framework):
        g, params, anorm = make_node_setup(framework, n=6, seed=42)
        r = numkit.make_rng(43)
        x = r.standard_normal((4,) + g.features.shape)
        targets = np.array([0, 2, 0, 5])
        ctx = models.node_ctx(params, x, anorm.matrix, targets, [0, 1, 2, 1],
                              batch=True)
        for b, target in enumerate(targets):
            agg, hidden, sig = full_first_layer(params, x[b], anorm.matrix)
            assert np.allclose(ctx.mt[b], agg[target], rtol=0, atol=1e-12)
            assert np.allclose(ctx.ht[b], hidden[target], rtol=0, atol=1e-12)
            assert np.allclose(ctx.st[b], sig[target], rtol=0, atol=1e-12)


class TestForwardGraph:
    def test_zero_mlp_uniform_loss(self):
        r = numkit.make_rng(5)
        g = graphs.er_graph(r, 4, 0.5, 3)
        params = models.init_params(r, "sage", "graph", 3, 4, 5, num_nodes=4)
        params.tensors["mlp_weight"][:] = 0.0
        params.tensors["mlp_bias"][:] = 0.0
        trace = models.forward_graph(params, g, graphs.normalize_adjacency(g, "sage-mean"), 2)
        assert trace.loss == pytest.approx(math.log(5))

    def test_empty_graph_sage_only_self_path(self):
        r = numkit.make_rng(6)
        g = graphs.Graph(adjacency=np.zeros((4, 4)),
                         features=r.standard_normal((4, 3)))
        params = models.init_params(r, "sage", "graph", 3, 4, 2, num_nodes=4)
        anorm = graphs.normalize_adjacency(g, "sage-mean")
        trace = models.forward_graph(params, g, anorm, 0)
        t = params.tensors
        want = 1.0 / (1.0 + np.exp(-(g.features @ t["conv1_self"].T + t["conv1_bias"])))
        assert np.allclose(trace.hidden1, want)

    def test_node_count_mismatch(self):
        r = numkit.make_rng(7)
        g = graphs.er_graph(r, 5, 0.5, 3)
        params = models.init_params(r, "gcn", "graph", 3, 4, 2, num_nodes=4)
        with pytest.raises(ShapeError):
            models.forward_graph(params, g, graphs.normalize_adjacency(g, "gcn"), 0)

    def test_scalar_loop_oracle(self):
        r = numkit.make_rng(8)
        g = graphs.er_graph(r, 4, 0.6, 2)
        params = models.init_params(r, "gcn", "graph", 2, 3, 2, num_nodes=4)
        anorm = graphs.normalize_adjacency(g, "gcn").matrix
        trace = models.forward_graph(params, g, anorm, 1)
        t = params.tensors
        h1 = np.zeros((4, 3))
        for i in range(4):
            agg = sum(anorm[i, j] * g.features[j] for j in range(4))
            h1[i] = 1.0 / (1.0 + np.exp(-(t["conv1_agg"] @ agg + t["conv1_bias"])))
        h2 = np.zeros((4, 3))
        for i in range(4):
            agg = sum(anorm[i, j] * h1[j] for j in range(4))
            h2[i] = 1.0 / (1.0 + np.exp(-(t["conv2_agg"] @ agg + t["conv2_bias"])))
        logits = t["mlp_weight"] @ h2.reshape(-1) + t["mlp_bias"]
        z = logits - logits.max()
        want = math.log(np.exp(z).sum()) - z[1]
        assert trace.loss == pytest.approx(want, abs=1e-12)


class TestBackward:
    def test_one_hot_softmax_zero_gradients(self):
        g, params, anorm = make_node_setup("sage", seed=21)
        params.tensors["out_weight"][:] = 0.0
        params.tensors["out_bias"][:] = 0.0
        params.tensors["out_bias"][1] = 60.0  # softmax is one-hot at class 1
        trace = models.forward_node(params, g, anorm, 0, 1)
        bundle = models.backward_node(params, trace)
        for v in bundle.tensors.values():
            assert np.abs(v).max() < 1e-12

    def test_softmax_gradient_identity(self):
        g, params, anorm = make_node_setup("gcn", seed=22)
        label = int(g.labels[0])
        trace = models.forward_node(params, g, anorm, 0, label)
        bundle = models.backward_node(params, trace)
        onehot = np.zeros(params.num_classes)
        onehot[label] = 1.0
        assert np.allclose(bundle.tensors["out_bias"], trace.probs - onehot)

    def test_finite_difference_sample(self):
        checked, worst, failures = selftest.check_gradients(
            instances_per_combo=5, seed=99)
        assert failures == 0
        assert worst < selftest.REL_TOL
        assert checked > 0

    def test_prop_identities_hold(self):
        for framework in ("gcn", "sage"):
            g, params, anorm = make_node_setup(framework, n=6, d=4, seed=23)
            target = 3
            trace = models.forward_node(params, g, anorm, target,
                                        int(g.labels[target]))
            bundle = models.backward_node(params, trace)
            agg = (anorm.matrix @ g.features)[target]
            ratio = bundle.tensors["conv1_agg"] / bundle.tensors["conv1_bias"][:, None]
            assert np.abs(ratio - agg).max() < 1e-10
            if framework == "sage":
                ratio2 = (bundle.tensors["conv1_self"]
                          / bundle.tensors["conv1_bias"][:, None])
                assert np.abs(ratio2 - g.features[target]).max() < 1e-10


class TestInferLabel:
    def test_recovers_true_label_binary(self):
        hits = 0
        for seed in range(50):
            g, params, anorm = make_node_setup("sage", k=2, seed=3000 + seed)
            target = int(numkit.make_rng(seed).integers(0, g.num_nodes))
            label = int(g.labels[target])
            trace = models.forward_node(params, g, anorm, target, label)
            bundle = models.backward_node(params, trace)
            hits += models.infer_label(bundle) == label
        assert hits == 50

    def test_zero_gradients_ambiguous(self):
        with pytest.raises(AmbiguousLabelError):
            models.infer_label({"out_weight": np.zeros((3, 4))})

    def test_manufactured_signs(self):
        w = np.array([[-1.0, -2.0], [1.0, 2.0], [0.5, 1.0]])
        assert models.infer_label({"out_weight": w}) == 0
