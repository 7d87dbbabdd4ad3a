import functools
import math
import warnings

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


def ce(logits, label):
    """The models' per-row cross-entropy on one row of logits."""
    return float(models._ce_rows(np.atleast_2d(logits), [label])[0])


class TestCrossEntropy:
    def test_uniform(self):
        assert ce(np.zeros(4), 0) == pytest.approx(math.log(4))

    def test_peaked(self):
        got = ce(np.array([10.0, 0.0, 0.0]), 0)
        want = -math.log(math.exp(10) / (math.exp(10) + 2))
        assert got == pytest.approx(want, rel=1e-10)
        assert got == pytest.approx(9.08e-5, rel=1e-2)

    def test_shift_invariance(self):
        p = rng.standard_normal(5)
        base = ce(p, 2)
        assert ce(p + 123.456, 2) == pytest.approx(base, abs=1e-9)


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

    def test_fractional_target_raises(self):
        # refused, not read as target 1
        g, params, anorm = make_node_setup("sage", seed=13)
        with pytest.raises(ShapeError, match="targets must be a vector of "
                                             "integers"):
            models.forward_node(params, g, anorm, 1.9, 0)

    def test_feature_width_mismatch_raises(self):
        g, params, anorm = make_node_setup("sage", d=4, seed=14)
        with pytest.raises(ShapeError, match=r"features \(5, 5\) for a model "
                                             r"that expects \(N, 4\)"):
            models.forward_node(params, np.ones((5, 5)), anorm, 0, 0)

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


def where_sigmoid(z):
    """The same two branches over one exp: numerator 1 or e = exp(-|z|)."""
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


class TestSigmoid:
    @pytest.mark.parametrize("z", [
        np.array([0.0, -0.0, 800.0, -800.0, 1e-300, -1e-300, 36.7, -36.7,
                  745.0, -745.0, 745.2, -745.2, np.inf, -np.inf, np.nan]),
        numkit.make_rng(51).normal(0.0, 20.0, size=(40, 25)),
        numkit.make_rng(52).normal(0.0, 3.0, size=(3, 8, 20)),
        numkit.make_rng(53).normal(0.0, 10.0, size=100_000),
    ], ids=["edges", "2d", "3d", "1e5"])
    def test_bit_identical_to_two_branch_form(self, z):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = models._sigmoid(z)
        assert got.shape == z.shape and got.dtype == np.float64
        for want in (two_branch_sigmoid(z), where_sigmoid(z)):
            assert np.array_equal(got, want, equal_nan=True)

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
    if ctx.x.ndim == 3:  # a batch of graphs has no adjacency gradient
        xbar = np.einsum("sn,sd->snd", ctx.at, mtbar)
        xbar[np.arange(len(ctx.targets)), ctx.targets] += xtbar
        return xbar, None
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
        stacks = models.node_bundles(ctx, params, per_sample=True)
        want = einsum_node_bundles(ctx, params)
        assert stacks.keys() == want.keys()
        for k in want:
            assert_close_rel(stacks[k], want[k])
        # the mean's co-vector, a stack of one that every sample shares
        v = random_covectors(r, models.node_bundles(ctx, params))
        want = einsum_node_matching_grad(ctx, params, {
            k: np.repeat(c, len(targets), axis=0) for k, c in v.items()})
        if batch:
            # a batch of graphs gives the features' gradient only
            xbar, abar = models.node_matching_grad(ctx, params, v, False)
            assert_close_rel(xbar, want[0])
            assert abar is None and want[1] is None
            with pytest.raises(ShapeError, match="no adjacency gradient"):
                models.node_matching_grad(ctx, params, v, True)
            return
        got = models.node_matching_grad(ctx, params, v, True)
        for got_arr, want_arr in zip(got, want):
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
        mean = models.graph_bundles(ctx, params)
        want = einsum_graph_bundles(ctx, params)
        assert mean.keys() == want.keys()
        for k in want:
            assert_close_rel(mean[k], want[k].mean(axis=0, keepdims=True))
        # the mean's co-vector, a stack of one that every sample shares
        v = random_covectors(r, mean)
        tiled = {k: np.repeat(s, batch, axis=0) for k, s in v.items()}
        got = models.graph_matching_grad(ctx, params, v, True)
        for got_arr, want_arr in zip(got, einsum_graph_matching_grad(ctx, params,
                                                                     tiled)):
            assert_close_rel(got_arr, want_arr)
        xbar, abar = models.graph_matching_grad(ctx, params, v, True,
                                                want_features=False)
        assert xbar is None and np.array_equal(abar, got[1])

    def test_node_covector_of_several_samples_raises(self):
        ctx, params = node_case("sage", "every-row")
        v = random_covectors(numkit.make_rng(64),
                             models.node_bundles(ctx, params, per_sample=True))
        with pytest.raises(ShapeError, match="stack of one, got 8"):
            models.node_matching_grad(ctx, params, v, True)

    def test_graph_covector_of_several_samples_raises(self):
        ctx, params = graph_case("sage", 3)
        v = random_covectors(numkit.make_rng(64),
                             einsum_graph_bundles(ctx, params))
        with pytest.raises(ShapeError, match="stack of one, got 3"):
            models.graph_matching_grad(ctx, params, v, True)


class TestMeanBundle:
    """The node batch-mean pass against the mean of the per-sample stacks.

    The graph pass is pinned the same way in
    :meth:`TestContractions.test_graph_passes`.
    """

    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    @pytest.mark.parametrize("batch", [1, 3])
    def test_node(self, framework, batch):
        g, params, anorm = make_node_setup(framework, n=6, seed=73)
        r = numkit.make_rng(74)
        x = (g.features if batch == 1
             else r.standard_normal((batch,) + g.features.shape))
        targets = r.integers(0, 6, size=batch)
        ctx = models.node_ctx(params, x, anorm.matrix, targets,
                              r.integers(0, 3, size=batch))
        mean = models.node_bundles(ctx, params)
        stacks = models.node_bundles(ctx, params, per_sample=True)
        self.check(mean, stacks)
        if batch == 1:
            # one target is a batch of one: the single-sample leak and
            # attacks run the mean pass and keep the per-sample bits
            for k, stack in stacks.items():
                assert np.array_equal(mean[k], stack)

    @staticmethod
    def check(mean, stacks):
        assert mean.keys() == stacks.keys()
        for k, stack in stacks.items():
            want = stack.mean(axis=0, keepdims=True)
            assert mean[k].shape == want.shape
            assert np.abs(mean[k] - want).max() <= 1e-12


def node_case(framework, layout):
    """A node trace: every row of an 8-node graph a target, named in order
    (node2's leak), one target of a shared graph, or a batch of three
    graphs."""
    g, params, anorm = make_node_setup(framework, n=8, seed=81)
    r = numkit.make_rng(82)
    if layout == "every-row":
        return models.node_ctx(params, g.features, anorm.matrix,
                               np.arange(8), g.labels), params
    if layout == "one-target":
        return models.node_ctx(params, g.features, anorm.matrix, [5],
                               g.labels[[5]]), params
    x = r.standard_normal((3,) + g.features.shape)
    return models.node_ctx(params, x, anorm.matrix, [0, 2, 7],
                           r.integers(0, 3, size=3)), params


def graph_case(framework, batch):
    r = numkit.make_rng(83)
    n, d = 6, 4
    params = models.init_params(r, framework, "graph", d, 5, 3, num_nodes=n)
    x = r.standard_normal((batch, n, d))
    mats = [graphs.normalize_dense(graphs.er_graph(r, n, 0.5, d).adjacency,
                                   params.norm_mode) for _ in range(batch)]
    anorm = mats[0] if batch == 1 else np.stack(mats)
    return models.graph_ctx(params, x, anorm, r.integers(0, 3, size=batch)), params


class TestBundleOut:
    """With ``out``, a bundle pass writes exactly what it returns without it.

    ``out`` holds the per-tensor views into one NaN-filled flat row buffer
    that an attack builds, so a stack left unwritten shows as NaN.
    """

    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    @pytest.mark.parametrize("layout", ["every-row", "one-target", "batch"])
    @pytest.mark.parametrize("mean", [False, True], ids=["per-sample", "mean"])
    def test_node(self, framework, layout, mean):
        ctx, params = node_case(framework, layout)
        self.check(functools.partial(models.node_bundles,
                                     per_sample=not mean), ctx, params)

    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    @pytest.mark.parametrize("batch", [1, 3])
    @pytest.mark.parametrize("mean", [False, True], ids=["per-sample", "mean"])
    def test_graph(self, framework, batch, mean):
        """The one graph pass, over the whole batch or on each graph of it
        as a batch of one (how a client computes its per-sample bundles)."""
        ctx, params = graph_case(framework, batch)
        if mean:
            self.check(models.graph_bundles, ctx, params)
            return
        for i in range(batch):
            anorm = ctx.anorm if ctx.anorm.ndim == 2 else ctx.anorm[i]
            one = models.graph_ctx(params, ctx.x[i:i + 1], anorm,
                                   ctx.labels[i:i + 1])
            self.check(models.graph_bundles, one, params)

    @staticmethod
    def check(fn, ctx, params):
        want = fn(ctx, params)
        names = params.param_names
        width = sum(params.tensors[k].size for k in names)
        buf = np.full((want[names[0]].shape[0], width), np.nan)
        views = models.bundle_views(params, buf)
        assert all(np.shares_memory(v, buf) for v in views.values())
        got = fn(ctx, params, out=views)
        assert got.keys() == want.keys()
        for k in names:
            assert got[k] is views[k]
            assert np.array_equal(views[k], want[k])
        assert not np.isnan(buf).any()
        # a second call overwrites the same arrays with the same bits
        fn(ctx, params, out=views)
        for k in names:
            assert np.array_equal(views[k], want[k])


GRAPH_TRACE_FIELDS = ("x", "anorm", "labels", "agg1", "sig1", "hidden1",
                      "agg2", "sig2", "hidden2", "flat", "logits", "q", "gp",
                      "hbar", "g2w", "u1", "g1", "g2", "losses")


def graph_inputs(r, params, batch, stack):
    """Features, normalized adjacency and labels of ``batch`` random graphs;
    one graph's adjacency is (N, N), or the (1, N, N) stack with ``stack``."""
    n, d = params.num_nodes, params.feature_dim
    mats = [graphs.normalize_dense(graphs.er_graph(r, n, 0.5, d).adjacency,
                                   params.norm_mode) for _ in range(batch)]
    anorm = np.stack(mats) if stack else mats[0]
    return (r.standard_normal((batch, n, d)), anorm,
            r.integers(0, 3, size=batch))


class TestTraceReuse:
    """A trace refilled with ``out`` holds the bits of a fresh one, and the
    passes that read it hand back arrays of their own."""

    CASES = pytest.mark.parametrize("batch,stack", [
        (1, False), (1, True), (3, True)], ids=["one", "one-stack", "three"])

    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    @CASES
    def test_refill_equals_a_fresh_trace(self, framework, batch, stack):
        r = numkit.make_rng(91)
        params = models.init_params(r, framework, "graph", 4, 5, 3, num_nodes=6)
        trace = models.graph_ctx(params, *graph_inputs(r, params, batch, stack))
        v = random_covectors(r, models.graph_bundles(trace, params))
        models.graph_matching_grad(trace, params, v, True)
        x2, anorm2 = graph_inputs(r, params, batch, stack)[:2]
        assert models.graph_ctx(params, x2, anorm2, trace.labels,
                                out=trace) is trace
        fresh = models.graph_ctx(params, x2, anorm2, trace.labels)
        for name in GRAPH_TRACE_FIELDS:
            got, want = getattr(trace, name), getattr(fresh, name)
            assert (got is None) == (want is None), name
            if want is not None:
                assert got.shape == want.shape and np.array_equal(got, want), name
        got = models.graph_bundles(trace, params)
        want = models.graph_bundles(fresh, params)
        for k in want:
            assert np.array_equal(got[k], want[k])
        for got_arr, want_arr in zip(
                models.graph_matching_grad(trace, params, v, True),
                models.graph_matching_grad(fresh, params, v, True)):
            assert np.array_equal(got_arr, want_arr)

    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    @CASES
    def test_gradients_are_fresh_arrays(self, framework, batch, stack):
        r = numkit.make_rng(92)
        params = models.init_params(r, framework, "graph", 4, 5, 3, num_nodes=6)
        trace = models.graph_ctx(params, *graph_inputs(r, params, batch, stack))
        v = random_covectors(r, models.graph_bundles(trace, params))
        first = models.graph_matching_grad(trace, params, v, True)
        kept = [arr.copy() for arr in first]
        second = models.graph_matching_grad(trace, params, v, True)
        buffers = [arr for arr in vars(trace).values()
                   if isinstance(arr, np.ndarray)]
        buffers += list(vars(trace._rows).values())
        for arr in first + second:
            assert not any(np.shares_memory(arr, buf) for buf in buffers)
        for one in first:
            assert not any(np.shares_memory(one, two) for two in second)
        for arr, copy, again in zip(first, kept, second):
            assert np.array_equal(arr, copy) and np.array_equal(again, copy)

    def test_refill_with_another_shape_raises(self):
        r = numkit.make_rng(93)
        params = models.init_params(r, "sage", "graph", 4, 5, 3, num_nodes=6)
        trace = models.graph_ctx(params, *graph_inputs(r, params, 1, False))
        with pytest.raises(ShapeError, match="trace holds features"):
            models.graph_ctx(params, *graph_inputs(r, params, 3, True),
                             out=trace)

    @pytest.mark.parametrize("anorm_shape", [(1, 6, 6), (6, 5)])
    def test_refill_with_another_adjacency_shape_raises(self, anorm_shape):
        r = numkit.make_rng(93)
        params = models.init_params(r, "sage", "graph", 4, 5, 3, num_nodes=6)
        x, anorm, labels = graph_inputs(r, params, 1, False)
        trace = models.graph_ctx(params, x, anorm, labels)
        with pytest.raises(ShapeError, match="trace holds features"):
            models.graph_ctx(params, x, np.zeros(anorm_shape), trace.labels,
                             out=trace)

    def test_refill_with_another_labels_array_raises(self):
        r = numkit.make_rng(93)
        params = models.init_params(r, "gcn", "graph", 4, 5, 3, num_nodes=6)
        x, anorm, labels = graph_inputs(r, params, 3, True)
        trace = models.graph_ctx(params, x, anorm, labels)
        # equal values in another array: the one-hot rows are built once
        with pytest.raises(ShapeError, match="the labels it holds"):
            models.graph_ctx(params, x, anorm, labels.copy(), out=trace)

    @pytest.mark.parametrize("batch,labels,match", [
        (3, [1], "1 labels for 3 graphs"),
        (1, [-1], "label out of range"),
        (1, [1.7], "labels must be a vector of integers"),
    ])
    def test_build_checks_labels(self, batch, labels, match):
        r = numkit.make_rng(90)
        params = models.init_params(r, "gcn", "graph", 4, 5, 3, num_nodes=6)
        x, anorm = graph_inputs(r, params, batch, True)[:2]
        with pytest.raises(ShapeError, match=match):
            models.graph_ctx(params, x, anorm, labels)


NODE_TRACE_FIELDS = ("x", "anorm", "targets", "labels", "at", "xt", "mt",
                     "ht", "st", "logits", "q", "g2", "u", "g1", "losses")
NODE_LAYOUTS = pytest.mark.parametrize("layout",
                                       ["one-target", "every-row", "batch"])


def node_inputs(r, params, layout):
    """Features, normalized adjacency of an 8-node graph, targets and labels:
    node1's layout (one explicit target), node2's (every row, named in
    order) or a batch of three graphs sharing the adjacency, one target
    each."""
    g = graphs.synthetic_graph(r, 8, 2, params.feature_dim, num_classes=3)
    anorm = graphs.normalize_adjacency(g, params.norm_mode).matrix
    if layout == "one-target":
        return g.features, anorm, np.array([5]), np.array([1])
    if layout == "every-row":
        return g.features, anorm, np.arange(8), g.labels
    x = r.standard_normal((3,) + g.features.shape)
    return x, anorm, np.array([0, 2, 7]), np.array([2, 0, 1])


def node_trace_buffers(trace):
    return ([arr for arr in vars(trace).values() if isinstance(arr, np.ndarray)]
            + list(vars(trace._scratch).values()))


class TestNodeTraceReuse:
    """A node trace refilled with ``out`` holds the bits of a fresh one, and
    the passes that read it hand back arrays of their own."""

    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    @NODE_LAYOUTS
    def test_refill_equals_a_fresh_trace(self, framework, layout):
        r = numkit.make_rng(94)
        params = models.init_params(r, framework, "node", 4, 5, 3)
        x, anorm, targets, labels = node_inputs(r, params, layout)
        trace = models.node_ctx(params, x, anorm, targets, labels)
        v = random_covectors(r, models.node_bundles(trace, params))
        models.node_matching_grad(trace, params, v, layout != "batch")
        x2, anorm2 = node_inputs(r, params, layout)[:2]
        assert models.node_ctx(params, x2, anorm2, trace.targets, trace.labels,
                               out=trace) is trace
        fresh = models.node_ctx(params, x2, anorm2, targets, labels)
        for name in NODE_TRACE_FIELDS:
            got, want = getattr(trace, name), getattr(fresh, name)
            assert (got is None) == (want is None), name
            if want is not None:
                assert got.shape == want.shape and np.array_equal(got, want), name
        for per_sample in (False, True):
            got = models.node_bundles(trace, params, per_sample)
            want = models.node_bundles(fresh, params, per_sample)
            assert got.keys() == want.keys()
            for k in want:
                assert np.array_equal(got[k], want[k])
        for got_arr, want_arr in zip(
                models.node_matching_grad(trace, params, v, layout != "batch"),
                models.node_matching_grad(fresh, params, v, layout != "batch")):
            assert (got_arr is None) == (want_arr is None)
            if want_arr is not None:
                assert np.array_equal(got_arr, want_arr)

    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    @NODE_LAYOUTS
    def test_gradients_are_fresh_arrays(self, framework, layout):
        r = numkit.make_rng(95)
        params = models.init_params(r, framework, "node", 4, 5, 3)
        trace = models.node_ctx(params, *node_inputs(r, params, layout))
        v = random_covectors(r, models.node_bundles(trace, params))
        want_adjacency = layout != "batch"
        first = models.node_matching_grad(trace, params, v, want_adjacency)
        kept = [None if arr is None else arr.copy() for arr in first]
        second = models.node_matching_grad(trace, params, v, want_adjacency)
        first, second = ([arr for arr in grads if arr is not None]
                         for grads in (first, second))
        buffers = node_trace_buffers(trace)
        for arr in first + second:
            assert not any(np.shares_memory(arr, buf) for buf in buffers)
        for one in first:
            assert not any(np.shares_memory(one, two) for two in second)
        for arr, copy, again in zip(first, kept, second):
            assert np.array_equal(arr, copy) and np.array_equal(again, copy)

    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    @NODE_LAYOUTS
    def test_refill_reads_the_model_it_is_given(self, framework, layout):
        # a trace holds no weights: a refill for another model of the same
        # shapes is that model's fresh trace
        r = numkit.make_rng(99)
        first, second = (models.init_params(r, framework, "node", 4, 5, 3)
                         for _ in range(2))
        x, anorm, targets, labels = node_inputs(r, first, layout)
        trace = models.node_ctx(first, x, anorm, targets, labels)
        models.node_ctx(second, x, anorm, trace.targets, trace.labels,
                        out=trace)
        fresh = models.node_ctx(second, x, anorm, targets, labels)
        for name in NODE_TRACE_FIELDS:
            got, want = getattr(trace, name), getattr(fresh, name)
            if want is not None:
                assert np.array_equal(got, want), name
        v = random_covectors(r, models.node_bundles(fresh, second))
        for got_arr, want_arr in zip(
                models.node_matching_grad(trace, second, v, layout != "batch"),
                models.node_matching_grad(fresh, second, v, layout != "batch")):
            if want_arr is not None:
                assert np.array_equal(got_arr, want_arr)

    def test_refill_with_another_shape_raises(self):
        r = numkit.make_rng(96)
        params = models.init_params(r, "sage", "node", 4, 5, 3)
        x, anorm, targets, labels = node_inputs(r, params, "batch")
        trace = models.node_ctx(params, x, anorm, targets, labels)
        with pytest.raises(ShapeError, match="trace holds features"):
            models.node_ctx(params, x[:2], anorm, trace.targets, trace.labels,
                            out=trace)
        with pytest.raises(ShapeError, match="trace holds features"):
            models.node_ctx(params, x, anorm[:5, :5], trace.targets,
                            trace.labels, out=trace)

    def test_refill_with_other_targets_or_labels_raises(self):
        r = numkit.make_rng(97)
        params = models.init_params(r, "gcn", "node", 4, 5, 3)
        x, anorm, targets, labels = node_inputs(r, params, "one-target")
        trace = models.node_ctx(params, x, anorm, targets, labels)
        for other in ((np.array([5]), trace.labels),
                      (trace.targets, np.array([1]))):
            with pytest.raises(ShapeError, match="targets and labels"):
                models.node_ctx(params, x, anorm, *other, out=trace)

    @pytest.mark.parametrize("targets,labels,match", [
        ([8], [1], "target out of range"),
        ([-1], [1], "target out of range"),
        ([0, 3], [1], "1 labels for 2 targets"),
        ([2.7], [1], "targets must be a vector of integers"),
        ([5], [-1], "label out of range"),
        ([5], [1.7], "labels must be a vector of integers"),
        # every layout names its targets, node2's every row included
        (None, [1], "targets must be a vector of integers"),
    ])
    def test_build_checks_targets_and_labels(self, targets, labels, match):
        r = numkit.make_rng(98)
        params = models.init_params(r, "sage", "node", 4, 5, 3)
        x, anorm = node_inputs(r, params, "one-target")[:2]
        with pytest.raises(ShapeError, match=match):
            models.node_ctx(params, x, anorm, targets, labels)


def node_pass_inputs(r, params, layout, count):
    """``count`` node inputs of one layout: new features and adjacency
    arrays, with the layout's targets and labels."""
    first = node_inputs(r, params, layout)
    return [first[:2]] + [node_inputs(r, params, layout)[:2]
                          for _ in range(count - 1)], first[2:]


def graph_pass_inputs(r, params, layout, count):
    """``count`` graph inputs of one layout, as :func:`node_pass_inputs`:
    one graph with (N, D) features and an (N, N) adjacency, one with a
    (1, N, N) stack, or three graphs."""
    batch, stack = {"one": (1, False), "one-stack": (1, True),
                    "three": (3, True)}[layout]
    inputs = [graph_inputs(r, params, batch, stack) for _ in range(count)]
    pairs = [(x[0] if layout == "one" else x, anorm) for x, anorm, _ in inputs]
    return pairs, (inputs[0][2],)


def views_made_once(r, params, ctx_pass, bundle_pass, grad_pass, inputs,
                    held, want_adjacency):
    """Run the passes as an attack does, on one trace refilled in place and
    on the dummy's and the co-vector's :class:`models.Stacks`, each made
    once over a flat row buffer (the co-vector's is one row, which every
    sample shares); at every step, compare them with the passes on a fresh
    trace and fresh ``bundle_views`` stacks."""
    trace = ctx_pass(params, *inputs[0], *held)
    rows = len(next(iter(bundle_pass(trace, params).values())))
    width = sum(params.tensors[k].size for k in params.param_names)
    dummy_flat, covec_flat = np.empty((rows, width)), np.empty((1, width))
    dummy = models.bundle_views(params, dummy_flat)
    covec = models.bundle_views(params, covec_flat)
    held = tuple(getattr(trace, k) for k in ("targets", "labels")
                 if hasattr(trace, k))
    for x, anorm in inputs:
        assert ctx_pass(params, x, anorm, *held, out=trace) is trace
        assert bundle_pass(trace, params, out=dummy) is dummy
        covec_flat[...] = r.standard_normal(covec_flat.shape)
        got = grad_pass(trace, params, covec, want_adjacency)

        fresh = ctx_pass(params, x.copy(), anorm.copy(), *held)
        want = bundle_pass(fresh, params, out=models.bundle_views(
            params, np.empty_like(dummy_flat)))
        for k in want:
            assert np.array_equal(dummy[k], want[k]), k
        for got_arr, want_arr in zip(got, grad_pass(
                fresh, params, models.bundle_views(params, covec_flat.copy()),
                want_adjacency)):
            assert (got_arr is None) == (want_arr is None)
            if want_arr is not None:
                assert np.array_equal(got_arr, want_arr)


class TestViewsMadeOnce:
    """The views an attack makes once (the trace's views of its buffers and
    inputs, the dummy's and the co-vector's stacks) give, over refills, the
    bits of the passes on views made afresh."""

    # the dummy's bundles: the mean, one row that every sample shares, or
    # per-sample stacks
    @pytest.mark.parametrize("per_sample", [False, True],
                             ids=["shared", "per-sample"])
    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    @NODE_LAYOUTS
    def test_node(self, layout, framework, per_sample):
        r = numkit.make_rng(110)
        params = models.init_params(r, framework, "node", 4, 5, 3)
        inputs, held = node_pass_inputs(r, params, layout, 3)
        views_made_once(
            r, params, models.node_ctx,
            functools.partial(models.node_bundles, per_sample=per_sample),
            models.node_matching_grad, inputs, held, layout != "batch")

    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    @pytest.mark.parametrize("layout", ["one", "one-stack", "three"])
    def test_graph(self, layout, framework):
        r = numkit.make_rng(111)
        params = models.init_params(r, framework, "graph", 4, 5, 3, num_nodes=6)
        inputs, held = graph_pass_inputs(r, params, layout, 3)
        views_made_once(r, params, models.graph_ctx, models.graph_bundles,
                        models.graph_matching_grad, inputs, held, True)

    @pytest.mark.parametrize("task", ["node", "graph"])
    def test_refill_reads_new_inputs(self, task):
        """After the trace's views are made, a refill reads new arrays and
        new values written into the arrays it holds (an attack's
        normalization refills one buffer), then the first arrays again."""
        r = numkit.make_rng(112)
        if task == "node":
            params = models.init_params(r, "sage", "node", 4, 5, 3)
            (first, second), held = node_pass_inputs(r, params, "every-row", 2)
            ctx_pass, grad_pass = models.node_ctx, models.node_matching_grad
            fields = NODE_TRACE_FIELDS
        else:
            params = models.init_params(r, "sage", "graph", 4, 5, 3,
                                        num_nodes=6)
            (first, second), held = graph_pass_inputs(r, params, "one", 2)
            ctx_pass, grad_pass = models.graph_ctx, models.graph_matching_grad
            fields = GRAPH_TRACE_FIELDS
        trace = ctx_pass(params, *first, *held)
        held = (trace.labels,) if task == "graph" else (trace.targets,
                                                        trace.labels)
        v = random_covectors(r, {k: t[None] for k, t in params.tensors.items()})
        x, anorm = (arr.copy() for arr in first)
        steps = [second, (x, anorm), (x, anorm), first]
        for i, (x_i, anorm_i) in enumerate(steps):
            if i == 2:  # new values in the arrays the trace holds
                x += r.standard_normal(x.shape)
                anorm *= 0.5
            ctx_pass(params, x_i, anorm_i, *held, out=trace)
            fresh = ctx_pass(params, x_i.copy(), anorm_i.copy(), *held)
            for name in fields:
                got, want = getattr(trace, name), getattr(fresh, name)
                if want is not None and name not in ("targets", "labels"):
                    assert np.array_equal(got, want), (i, name)
            for got_arr, want_arr in zip(grad_pass(trace, params, v, True),
                                         grad_pass(fresh, params, v, True)):
                assert np.array_equal(got_arr, want_arr), i


ROP_STEPS = (1e-4, 1e-5)


def r_operator_case(layout, framework):
    """A model in one layout of the matching passes, on fixed inputs:
    ``(params, trace, reference, bundles, matching_grad)``. ``trace(p)``
    records p's trace. ``reference(model)`` is the first-order
    input-gradient pair that the matching pass differentiates, with
    ``model(s)`` the model that sample s reads. "node" and "graph" are at
    the bench's sizes: a d_tree = 10 dummy tree (111 nodes) with target 0,
    and one 8-node graph. The rest are small: every node of a 7-node graph
    a target, named in order ("node-all"), 3 graphs sharing an adjacency
    with one target each ("node-batch"), 3 targets gathered from one graph,
    one of them twice ("node-targets"), and a batch of 3 graphs
    ("graph-batch")."""
    r = numkit.make_rng(120)
    if layout.startswith("node"):
        big = layout == "node"
        params = models.init_params(r, framework, "node", 10,
                                    100 if big else 6, 4)
        g = graphs.dummy_tree(r, 10, 10) if big else graphs.er_graph(
            r, 7, 0.5, 10)
        anorm = graphs.normalize_dense(g.adjacency, params.norm_mode)
        x, targets, labels = g.features, [0], [2]
        if not big:
            targets, labels = [1, 5, 1], [2, 0, 3]
        if layout == "node-all":
            targets, labels = np.arange(7), [2, 0, 3, 1, 1, 0, 2]
        if layout == "node-batch":
            x = r.standard_normal((3, 7, 10))

        def trace(p):
            return models.node_ctx(p, x, anorm, targets, labels)

        def one(p, s):  # sample s alone
            return models.node_input_grads(models.node_ctx(
                p, x[s] if x.ndim == 3 else x, anorm, targets[s:s + 1],
                labels[s:s + 1]), p)

        reference = lambda model: models.node_input_grads(
            trace(model(0)), model(0))
        if layout == "node-batch":
            reference = lambda model: (np.stack([
                one(model(0), s)[0] for s in range(3)]), None)
        return (params, trace, reference, models.node_bundles,
                models.node_matching_grad)
    b = 1 if layout == "graph" else 3
    params = models.init_params(r, framework, "graph", 16 if b == 1 else 6,
                                20 if b == 1 else 5, 3, num_nodes=8)
    gs = [graphs.er_graph(r, 8, 0.4, params.feature_dim) for _ in range(b)]
    x = np.stack([g.features for g in gs])
    anorm = np.stack([graphs.normalize_dense(g.adjacency, params.norm_mode)
                      for g in gs])
    if b == 1:
        x, anorm = x[0], anorm[0]

    def trace(p):
        return models.graph_ctx(p, x, anorm, [1, 0, 2][:b])
    return (params, trace,
            lambda model: models.graph_input_grads(trace(model(0)), model(0)),
            models.graph_bundles, models.graph_matching_grad)


# layout, framework, input; a batch of node graphs has no adjacency gradient
ROP_CASES = [(layout, framework, wrt)
             for layout in ("node", "graph", "node-all", "node-batch",
                            "node-targets", "graph-batch")
             for framework in ("gcn", "sage") for wrt in (0, 1)
             if (layout, wrt) != ("node-batch", 1)]


class TestROperator:
    """The matching passes against a second derivation, in every layout. A
    bundle is b(x) = grad_theta L(theta, x), and a matching pass returns
    J^T v with J = db/dx. Mixed partials commute, so J^T v = d/de grad_x
    L(theta + e v, x) at e = 0 (Pearlmutter's R-operator): a central
    difference of the first-order input-gradient passes along v, whose
    error falls 100x per 10x step in e. The co-vector is one stack that
    every sample shares."""

    @pytest.mark.parametrize("layout,framework,wrt", ROP_CASES, ids=[
        f"{layout}-{framework}-{('features', 'adjacency')[wrt]}"
        for layout, framework, wrt in ROP_CASES])
    def test_matching_grad_is_the_r_operator(self, layout, framework, wrt):
        params, trace, reference, bundles, matching_grad = r_operator_case(
            layout, framework)
        ctx = trace(params)
        v = random_covectors(numkit.make_rng(121), bundles(ctx, params))
        want = matching_grad(ctx, params, v, wrt == 1)[wrt]

        def moved(e):
            def model(s):
                p = params.copy()
                for k, c in v.items():
                    p.tensors[k] = p.tensors[k] + e * c[s]
                return p
            return reference(model)[wrt]

        errors = [np.abs((moved(e) - moved(-e)) / (2 * e) - want).max()
                  / np.abs(want).max() for e in ROP_STEPS]
        assert errors[1] < 1e-7
        assert 50 <= errors[0] / errors[1] <= 200, errors


class TestTraceContract:
    """Each trace checks the model's task when it is built, and the label
    and target rules refuse what is not an integer index vector."""

    def test_node_trace_needs_a_node_model(self):
        r = numkit.make_rng(100)
        params = models.init_params(r, "sage", "graph", 4, 5, 3, num_nodes=8)
        x, anorm, targets, labels = node_inputs(r, params, "one-target")
        with pytest.raises(ShapeError, match="not a node-task model"):
            models.node_ctx(params, x, anorm, targets, labels)

    def test_graph_trace_needs_a_graph_model(self):
        r = numkit.make_rng(101)
        params = models.init_params(r, "sage", "node", 4, 5, 3)
        with pytest.raises(ShapeError, match="not a graph-task model"):
            models.graph_ctx(params, r.standard_normal((6, 4)), np.eye(6), [0])

    @pytest.mark.parametrize("values,match", [
        ([1.7], "labels must be a vector of integers, got float64"),
        (["1"], "labels must be a vector of integers"),
        ([[0, 1]], r"labels must be a vector of integers, got int64 of "
                   r"shape \(1, 2\)"),
    ], ids=["fraction", "string", "matrix"])
    def test_labels_refuse_non_integer_vectors(self, values, match):
        with pytest.raises(ShapeError, match=match):
            models.check_labels(values, 3)

    def test_fractional_targets_are_refused(self):
        with pytest.raises(ShapeError, match="targets must be a vector of "
                                             "integers"):
            models.check_targets([0, 2.5], 5)

    @pytest.mark.parametrize("check", [models.check_labels,
                                       models.check_targets])
    def test_index_vectors_pass_through(self, check):
        # an int64 vector is the array itself, so a trace refilled with the
        # array it was built from holds that very array
        vec = np.array([2, 0], dtype=np.int64)
        assert check(vec, 3) is vec
        assert np.array_equal(check(np.int32(1), 3), [1])
        assert check([], 3).shape == (0,)


class TestSharedCovector:
    """A shared co-vector (a stack of one) is contracted by 2-D products,
    which give the numbers of the einsum formulas on that co-vector tiled
    to one entry per sample; both passes take only a stack of one. A batch
    mean over one sample is the raw product or sum, with nothing
    divided."""

    @pytest.mark.parametrize("shape", [(100, 10), (20, 16), (100, 100)])
    def test_contractions_at_one_sample_are_exact(self, shape):
        # one target of a node model whose first layer's weights are
        # ``shape``: the mean bundle of one target is its per-sample bundle,
        # bit for bit
        f, d = shape
        r = numkit.make_rng(84)
        g = graphs.er_graph(r, 8, 0.4, d, num_classes=4)
        for framework in ("gcn", "sage"):
            params = models.init_params(r, framework, "node", d, f, 4)
            anorm = graphs.normalize_adjacency(g, params.norm_mode).matrix
            ctx = models.node_ctx(params, g.features, anorm, [3],
                                  g.labels[[3]])
            mean = models.node_bundles(ctx, params)
            each = models.node_bundles(ctx, params, per_sample=True)
            for k in mean:
                assert np.array_equal(mean[k], each[k]), k
            self.check_one_sample(models.node_matching_grad, ctx, params,
                                  mean)

    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    def test_node_one_sample_is_exact(self, framework):
        ctx, params = node_case(framework, "one-target")
        self.check_one_sample(models.node_matching_grad, ctx, params,
                              models.node_bundles(ctx, params))

    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    def test_node_batch_of_five(self, framework):
        g, params, anorm = make_node_setup(framework, n=8, seed=85)
        r = numkit.make_rng(86)
        x = r.standard_normal((5,) + g.features.shape)
        ctx = models.node_ctx(params, x, anorm.matrix, r.integers(0, 8, size=5),
                              r.integers(0, 3, size=5))
        self.check_batch(models.node_matching_grad, ctx, params,
                         models.node_bundles(ctx, params), r,
                         lambda c, p, v, _: einsum_node_matching_grad(c, p, v),
                         False)

    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    def test_graph_batch_of_five(self, framework):
        """The graph pass takes no per-sample stack, so the tiled co-vector
        goes to the einsum reference."""
        ctx, params = graph_case(framework, 5)
        self.check_batch(models.graph_matching_grad, ctx, params,
                         models.graph_bundles(ctx, params),
                         numkit.make_rng(87),
                         lambda c, p, v, _: einsum_graph_matching_grad(c, p, v),
                         True)

    @staticmethod
    def check_one_sample(grad, ctx, params, stacks):
        v = random_covectors(numkit.make_rng(88), stacks)
        for got_arr, want_arr in zip(grad(ctx, params, v, True),
                                     einsum_node_matching_grad(ctx, params, v)):
            assert_close_rel(got_arr, want_arr)

    @staticmethod
    def check_batch(grad, ctx, params, mean, r, reference, want_adjacency):
        """``grad`` on a shared co-vector equals ``reference`` on that
        co-vector tiled to one entry per sample."""
        shared = random_covectors(r, mean)
        tiled = {k: np.repeat(s, 5, axis=0) for k, s in shared.items()}
        for got_arr, want_arr in zip(
                grad(ctx, params, shared, want_adjacency),
                reference(ctx, params, tiled, want_adjacency)):
            assert (got_arr is None) == (want_arr is None)
            if want_arr is not None:
                assert_close_rel(got_arr, want_arr)


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

    def test_feature_width_mismatch_raises(self):
        r = numkit.make_rng(10)
        g = graphs.er_graph(r, 4, 0.5, 3)
        params = models.init_params(r, "gcn", "graph", 2, 4, 2, num_nodes=4)
        with pytest.raises(ShapeError, match=r"features \(4, 3\) for a model "
                                             r"that expects \(N, 2\)"):
            models.forward_graph(params, g, graphs.normalize_adjacency(g, "gcn"),
                                 0)

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
            models.infer_label(models.GradientBundle(
                tensors={"out_weight": np.zeros((3, 4))}))

    def test_manufactured_signs(self):
        w = np.array([[-1.0, -2.0], [1.0, 2.0], [0.5, 1.0]])
        assert models.infer_label(
            models.GradientBundle(tensors={"out_weight": w})) == 0
