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
        assert trace.losses[0] == pytest.approx(math.log(4))

    def test_isolated_node_gcn_self_aggregation(self):
        g = graphs.Graph(adjacency=np.zeros((3, 3)),
                         features=rng.standard_normal((3, 2)))
        params = models.init_params(rng, "gcn", "node", 2, 4, 2)
        anorm = graphs.normalize_adjacency(g, "gcn")
        trace = models.forward_node(params, g, anorm, 1, 0)
        assert np.allclose(trace.mt[0], g.features[1])

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
        assert trace.losses[0] == pytest.approx(-math.log(probs[label]), abs=1e-12)

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_out_of_range(self, label):
        g, params, anorm = make_node_setup("sage", k=3, seed=12)
        with pytest.raises(ShapeError, match="label out of range"):
            models.forward_node(params, g, anorm, 0, label)

    def test_trace_replay_is_deterministic(self):
        g, params, anorm = make_node_setup("gcn", seed=11)
        a = models.forward_node(params, g, anorm, 1, int(g.labels[1]))
        b = models.forward_node(params, g, anorm, 1, int(g.labels[1]))
        assert a.losses[0] == b.losses[0]
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
        ctx = models.node_ctx(params, x, anorm.matrix, targets, [0, 1, 2, 1])
        for b, target in enumerate(targets):
            agg, hidden, sig = full_first_layer(params, x[b], anorm.matrix)
            assert np.allclose(ctx.mt[b], agg[target], rtol=0, atol=1e-12)
            assert np.allclose(ctx.ht[b], hidden[target], rtol=0, atol=1e-12)
            assert np.allclose(ctx.st[b], sig[target], rtol=0, atol=1e-12)


def two_branch_sigmoid(z):
    """The masked sigmoid: 1/(1+exp(-z)) for z >= 0, exp(z)/(1+exp(z)) below."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


class TestSigmoid:
    @pytest.mark.parametrize("z", [
        np.array([0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 36.7, -36.7,
                  745.2, -745.2]),
        numkit.make_rng(51).normal(0.0, 20.0, size=(40, 25)),
        numkit.make_rng(52).normal(0.0, 3.0, size=(3, 8, 20)),
    ], ids=["edges", "2d", "3d"])
    def test_bit_identical_to_two_branch_form(self, z):
        got = models._sigmoid(z)
        assert got.shape == z.shape and got.dtype == np.float64
        assert np.array_equal(got, two_branch_sigmoid(z))

    def test_saturates_without_overflow(self):
        with np.errstate(over="raise"):
            got = models._sigmoid(np.array([[800.0, -800.0], [0.0, -0.0]]))
        assert np.array_equal(got, [[1.0, 0.0], [0.5, 0.5]])


# The contractions as einsum formulas, written out independently of the
# batched matrix products in glg.models.

def einsum_node_bundles(ctx, params):
    out = {
        "out_weight": np.einsum("sk,sf->skf", ctx.g2, ctx.ht),
        "out_bias": ctx.g2,
        "conv1_agg": np.einsum("sf,sd->sfd", ctx.g1, ctx.mt),
        "conv1_bias": ctx.g1,
    }
    if "conv1_self" in params.tensors:
        out["conv1_self"] = np.einsum("sf,sd->sfd", ctx.g1, ctx.xt)
    return out


def einsum_node_matching_grad(ctx, params, v):
    t = params.tensors
    w_out, w_agg, w_self = t["out_weight"], t["conv1_agg"], t.get("conv1_self")
    g1bar = np.einsum("sd,sfd->sf", ctx.mt, v["conv1_agg"]) + v["conv1_bias"]
    mtbar = np.einsum("sf,sfd->sd", ctx.g1, v["conv1_agg"])
    if w_self is not None:
        g1bar = g1bar + np.einsum("sd,sfd->sf", ctx.xt, v["conv1_self"])
    g2bar = (np.einsum("sf,skf->sk", ctx.ht, v["out_weight"]) + v["out_bias"]
             + (g1bar * ctx.st) @ w_out.T)
    pbar = ctx.q * g2bar - (g2bar * ctx.q).sum(axis=-1, keepdims=True) * ctx.q
    htbar = (pbar @ w_out + np.einsum("sk,skf->sf", ctx.g2, v["out_weight"])
             + g1bar * ctx.u * (1.0 - 2.0 * ctx.ht))
    ztbar = htbar * ctx.st
    mtbar = mtbar + ztbar @ w_agg
    xtbar = 0.0
    if w_self is not None:
        xtbar = np.einsum("sf,sfd->sd", ctx.g1, v["conv1_self"]) + ztbar @ w_self
    rows = np.arange(len(ctx.targets))
    if ctx.x.ndim == 3:
        xbar = np.einsum("sn,sd->snd", ctx.at, mtbar)
        xbar[rows, ctx.targets] += xtbar
        abar = np.zeros(ctx.x.shape[:-1] + (ctx.x.shape[-2],))
        abar[rows, ctx.targets] = np.einsum("sd,snd->sn", mtbar, ctx.x)
        return xbar, abar
    xbar = np.einsum("sn,sd->nd", ctx.at, mtbar)
    abar = np.zeros((ctx.x.shape[0], ctx.x.shape[0]))
    for s, target in enumerate(ctx.targets):
        if w_self is not None:
            xbar[target] += xtbar[s]
        abar[target] += np.einsum("d,nd->n", mtbar[s], ctx.x)
    return xbar, abar


def einsum_graph_bundles(ctx, params):
    out = {
        "mlp_weight": np.einsum("bk,bm->bkm", ctx.gp, ctx.flat),
        "mlp_bias": ctx.gp,
        "conv2_agg": np.einsum("bnf,bng->bfg", ctx.g2, ctx.agg2),
        "conv2_bias": ctx.g2.sum(axis=1),
        "conv1_agg": np.einsum("bnf,bnd->bfd", ctx.g1, ctx.agg1),
        "conv1_bias": ctx.g1.sum(axis=1),
    }
    if "conv2_self" in params.tensors:
        out["conv2_self"] = np.einsum("bnf,bng->bfg", ctx.g2, ctx.hidden1)
        out["conv1_self"] = np.einsum("bnf,bnd->bfd", ctx.g1, ctx.x)
    return out


def einsum_graph_matching_grad(ctx, params, v):
    t = params.tensors
    w1a, w2a, wm = t["conv1_agg"], t["conv2_agg"], t["mlp_weight"]
    w1s, w2s = t.get("conv1_self"), t.get("conv2_self")
    a = np.broadcast_to(ctx.anorm, (ctx.x.shape[0],) + ctx.anorm.shape[-2:])
    b, n = ctx.x.shape[:2]

    g1bar = (np.einsum("bnd,bfd->bnf", ctx.agg1, v["conv1_agg"])
             + v["conv1_bias"][:, None, :])
    m1bar = np.einsum("bnf,bfd->bnd", ctx.g1, v["conv1_agg"])
    xbar = np.zeros_like(ctx.x)
    if w1s is not None:
        g1bar = g1bar + np.einsum("bnd,bfd->bnf", ctx.x, v["conv1_self"])
        xbar = xbar + np.einsum("bnf,bfd->bnd", ctx.g1, v["conv1_self"])
    u1bar = g1bar * ctx.sig1
    s1bar = g1bar * ctx.u1
    g2bar = np.einsum("bij,bjf,gf->big", a, u1bar, w2a)
    abar = np.einsum("bif,fg,bjg->bij", ctx.g2, w2a, u1bar)
    h1bar = np.zeros_like(ctx.hidden1)
    if w2s is not None:
        g2bar = g2bar + np.einsum("bnf,gf->bng", u1bar, w2s)
        g2bar = g2bar + np.einsum("bng,bfg->bnf", ctx.hidden1, v["conv2_self"])
        h1bar = h1bar + np.einsum("bnf,bfg->bng", ctx.g2, v["conv2_self"])
    g2bar = (g2bar + np.einsum("bng,bfg->bnf", ctx.agg2, v["conv2_agg"])
             + v["conv2_bias"][:, None, :])
    m2bar = np.einsum("bnf,bfg->bng", ctx.g2, v["conv2_agg"])

    gpbar = (np.einsum("bm,bkm->bk", ctx.flat, v["mlp_weight"]) + v["mlp_bias"]
             + np.einsum("bm,km->bk", (g2bar * ctx.sig2).reshape(b, -1), wm))
    s2bar = g2bar * np.einsum("bk,km->bm", ctx.gp, wm).reshape(b, n, -1)
    pbar = ctx.q * gpbar - (gpbar * ctx.q).sum(axis=-1, keepdims=True) * ctx.q
    hflatbar = (np.einsum("bk,km->bm", pbar, wm)
                + np.einsum("bk,bkm->bm", ctx.gp, v["mlp_weight"]))
    z2bar = (hflatbar.reshape(b, n, -1)
             + s2bar * (1.0 - 2.0 * ctx.hidden2)) * ctx.sig2

    m2bar = m2bar + np.einsum("bnf,fg->bng", z2bar, w2a)
    if w2s is not None:
        h1bar = h1bar + np.einsum("bnf,fg->bng", z2bar, w2s)
    abar = abar + np.einsum("bif,bjf->bij", m2bar, ctx.hidden1)
    h1bar = (h1bar + np.einsum("bji,bjf->bif", a, m2bar)
             + s1bar * (1.0 - 2.0 * ctx.hidden1))
    z1bar = h1bar * ctx.sig1
    m1bar = m1bar + np.einsum("bnf,fd->bnd", z1bar, w1a)
    if w1s is not None:
        xbar = xbar + np.einsum("bnf,fd->bnd", z1bar, w1s)
    abar = abar + np.einsum("bid,bjd->bij", m1bar, ctx.x)
    xbar = xbar + np.einsum("bji,bjd->bid", a, m1bar)
    return xbar, abar


def random_covectors(r, stacks):
    return {k: r.standard_normal(s.shape) for k, s in stacks.items()}


def assert_close_rel(got, want, rel=1e-12):
    assert got.shape == want.shape
    assert np.abs(got - want).max() <= rel * np.abs(want).max()


class TestContractions:
    """Pin the per-sample contractions against einsum formulas."""

    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    @pytest.mark.parametrize("targets,batch", [
        ([4], False), ([1, 5, 1], False), ([0, 3, 0, 6], True),
    ], ids=["shared-1", "shared-3", "batch-4"])
    def test_node_passes(self, framework, targets, batch):
        g, params, anorm = make_node_setup(framework, n=7, d=3, f=5, k=3,
                                           seed=61)
        r = numkit.make_rng(62)
        targets = np.array(targets)
        x = (r.standard_normal((len(targets),) + g.features.shape) if batch
             else g.features)
        ctx = models.node_ctx(params, x, anorm.matrix, targets,
                              r.integers(0, 3, size=len(targets)))
        stacks = models.node_bundles(ctx, params)
        want = einsum_node_bundles(ctx, params)
        assert stacks.keys() == want.keys()
        for k in want:
            assert_close_rel(stacks[k], want[k])
        v = random_covectors(r, stacks)
        got = models.node_matching_grad(ctx, params, v, True)
        for got_arr, want_arr in zip(got, einsum_node_matching_grad(ctx, params, v)):
            assert_close_rel(got_arr, want_arr)
        # without the feature pull-back the adjacency one is unchanged
        xbar, abar = models.node_matching_grad(ctx, params, v, True,
                                               want_features=False)
        assert xbar is None and np.array_equal(abar, got[1])

    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_graph_passes(self, framework, batch):
        r = numkit.make_rng(63)
        n, d = 6, 4
        params = models.init_params(r, framework, "graph", d, 5, 3, num_nodes=n)
        x = r.standard_normal((batch, n, d))
        mats = [graphs.normalize_dense(graphs.er_graph(r, n, 0.5, d).adjacency,
                                       params.norm_mode) for _ in range(batch)]
        # a single graph shares its (N, N) matrix, as in the graph attacks
        anorm = mats[0] if batch == 1 else np.stack(mats)
        ctx = models.graph_ctx(params, x, anorm, r.integers(0, 3, size=batch))
        stacks = models.graph_bundles(ctx, params)
        want = einsum_graph_bundles(ctx, params)
        assert stacks.keys() == want.keys()
        for k in want:
            assert_close_rel(stacks[k], want[k])
        v = random_covectors(r, stacks)
        got = models.graph_matching_grad(ctx, params, v, True)
        for got_arr, want_arr in zip(got, einsum_graph_matching_grad(ctx, params, v)):
            assert_close_rel(got_arr, want_arr)
        xbar, abar = models.graph_matching_grad(ctx, params, v, True,
                                                want_features=False)
        assert xbar is None and np.array_equal(abar, got[1])


class TestForwardGraph:
    def test_zero_mlp_uniform_loss(self):
        r = numkit.make_rng(5)
        g = graphs.er_graph(r, 4, 0.5, 3)
        params = models.init_params(r, "sage", "graph", 3, 4, 5, num_nodes=4)
        params.tensors["mlp_weight"][:] = 0.0
        params.tensors["mlp_bias"][:] = 0.0
        trace = models.forward_graph(params, g, graphs.normalize_adjacency(g, "sage-mean"), 2)
        assert trace.losses[0] == pytest.approx(math.log(5))

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

    @pytest.mark.parametrize("label", [-1, 2])
    def test_label_out_of_range(self, label):
        r = numkit.make_rng(9)
        g = graphs.er_graph(r, 4, 0.5, 3)
        params = models.init_params(r, "gcn", "graph", 3, 4, 2, num_nodes=4)
        with pytest.raises(ShapeError, match="label out of range"):
            models.forward_graph(params, g, graphs.normalize_adjacency(g, "gcn"),
                                 label)

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
        assert trace.losses[0] == pytest.approx(want, abs=1e-12)


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
        assert np.allclose(bundle.tensors["out_bias"], trace.q[0] - onehot)

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
