import numpy as np
import pytest

from glg import attacks, closed_form, federated, graphs, models, numkit
from glg.errors import PartialRecoveryError, ShapeError, UnrecoverableError

rng = numkit.make_rng(606)


def node_leak(framework, n, d, f=6, k=3, seed=0):
    r = numkit.make_rng(seed)
    g = graphs.synthetic_graph(r, n, min(n - 1, 2), d, num_classes=k)
    params = models.init_params(r, framework, "node", d, f, k)
    anorm = graphs.normalize_adjacency(g, params.norm_mode).matrix
    record = federated.leak(params, g, "node2")
    return g, params, anorm, record


def graph_leak(framework, n, d, f, k=3, seed=0, binary_features=False):
    r = numkit.make_rng(seed)
    g0 = graphs.er_graph(r, n, 0.5, d)
    x = g0.features
    if binary_features:
        x = (r.random((n, d)) < 0.5).astype(np.float64)
    g = graphs.Graph(adjacency=g0.adjacency, features=x,
                     graph_label=int(r.integers(0, k)))
    params = models.init_params(r, framework, "graph", d, f, k, num_nodes=n)
    anorm = graphs.normalize_adjacency(g, params.norm_mode).matrix
    record = federated.leak(params, g, "graph")
    return g, params, anorm, record


class TestRowRatioRecoveries:
    def test_manufactured_outer_product(self):
        b = rng.standard_normal(5)
        agg = rng.standard_normal(3)
        bundle = models.GradientBundle(
            tensors={"conv1_agg": np.outer(b, agg), "conv1_bias": b})
        got = closed_form.recover_agg_features(bundle, "gcn")
        assert np.allclose(got, agg, atol=1e-12)

    def test_real_gcn_bundle(self):
        g, params, anorm, record = node_leak("gcn", 7, 4, seed=1)
        agg_true = anorm @ g.features
        for i, bundle in enumerate(record.bundles):
            agg = closed_form.recover_agg_features(bundle, "gcn")
            assert np.abs(agg - agg_true[i]).max() < 1e-9

    def test_real_sage_bundle_target_features(self):
        g, params, anorm, record = node_leak("sage", 7, 4, seed=2)
        for i, bundle in enumerate(record.bundles):
            xv = closed_form.recover_target_features(bundle)
            assert np.abs(xv - g.features[i]).max() < 1e-9

    def test_zero_feature_vector_recovered(self):
        r = numkit.make_rng(3)
        g0 = graphs.synthetic_graph(r, 5, 2, 3, num_classes=2)
        x = g0.features.copy()
        x[2] = 0.0
        g = graphs.Graph(adjacency=g0.adjacency, features=x, labels=g0.labels)
        params = models.init_params(r, "sage", "node", 3, 4, 2)
        record = federated.leak(params, g, "node2")
        xv = closed_form.recover_target_features(record.bundles[2])
        assert np.abs(xv).max() < 1e-12

    def test_zero_bias_gradient_unrecoverable(self):
        bundle = models.GradientBundle(
            tensors={"conv1_agg": np.zeros((4, 3)), "conv1_bias": np.zeros(4)})
        with pytest.raises(UnrecoverableError):
            closed_form.recover_agg_features(bundle, "gcn")

    def test_gcn_bundle_rejected_for_target_features(self):
        bundle = models.GradientBundle(
            tensors={"conv1_agg": np.ones((4, 3)), "conv1_bias": np.ones(4)})
        with pytest.raises(ShapeError):
            closed_form.recover_target_features(bundle)


class TestAdjacencyFromFeatures:
    def test_identity_features(self):
        x_agg = rng.standard_normal((4, 4))
        rec = closed_form.recover_adjacency_given_features(x_agg, np.eye(4))
        assert np.allclose(rec.matrix, x_agg, atol=1e-10)
        assert rec.warning is None

    def test_construct_then_invert(self):
        r = numkit.make_rng(4)
        x = r.standard_normal((6, 10))
        g = graphs.er_graph(r, 6, 0.5, 1)
        anorm = graphs.normalize_dense(g.adjacency, "sage-mean")
        rec = closed_form.recover_adjacency_given_features(anorm @ x, x)
        assert np.abs(rec.matrix - anorm).max() < 1e-8
        assert rec.warning is None

    def test_rank_deficient_warns(self):
        r = numkit.make_rng(5)
        x = r.standard_normal((6, 3))  # D < N: no full row rank
        anorm = graphs.normalize_dense(graphs.er_graph(r, 6, 0.5, 1).adjacency,
                                       "sage-mean")
        rec = closed_form.recover_adjacency_given_features(anorm @ x, x)
        assert rec.warning is not None


class TestFeaturesFromAdjacency:
    def test_invertible_diagonal(self):
        anorm = np.diag([2.0, 4.0])
        x_agg = np.array([[2.0, 6.0], [8.0, 12.0]])
        rec = closed_form.recover_features_given_adjacency(x_agg, anorm)
        assert np.allclose(rec.matrix, [[1.0, 3.0], [2.0, 3.0]])

    def test_construct_then_invert_gcn(self):
        g, params, anorm, record = node_leak("gcn", 6, 8, seed=6)
        if np.linalg.matrix_rank(anorm) < 6:
            pytest.skip("normalized adjacency not full rank for this seed")
        aggs = np.vstack([
            closed_form.recover_agg_features(b, "gcn") for b in record.bundles
        ])
        rec = closed_form.recover_features_given_adjacency(aggs, anorm)
        assert np.abs(rec.matrix - g.features).max() < 1e-8

    def test_zero_adjacency_warns(self):
        rec = closed_form.recover_features_given_adjacency(
            np.zeros((3, 2)), np.zeros((3, 3)))
        assert rec.warning is not None
        assert np.allclose(rec.matrix, 0.0)


class TestRecoverBothSage:
    def test_end_to_end(self):
        g, params, anorm, record = node_leak("sage", 8, 12, seed=7)
        x, rec = closed_form.recover_both_sage(record.bundles)
        assert np.abs(x - g.features).max() < 1e-8
        assert np.abs(rec.matrix - anorm).max() < 1e-6

    def test_single_node(self):
        r = numkit.make_rng(8)
        g = graphs.Graph(adjacency=np.zeros((1, 1)),
                         features=r.standard_normal((1, 3)),
                         labels=np.array([0]))
        params = models.init_params(r, "sage", "node", 3, 4, 2)
        record = federated.leak(params, g, "node2")
        x, rec = closed_form.recover_both_sage(record.bundles)
        assert np.abs(x - g.features).max() < 1e-9
        assert rec.matrix.shape == (1, 1)

    def test_partial_failure_lists_nodes(self):
        g, params, anorm, record = node_leak("sage", 5, 6, seed=9)
        broken = dict(record.bundles[3].tensors)
        broken["conv1_bias"] = np.zeros_like(broken["conv1_bias"])
        bundles = list(record.bundles)
        bundles[3] = models.GradientBundle(tensors=broken)
        with pytest.raises(PartialRecoveryError) as err:
            closed_form.recover_both_sage(bundles)
        assert err.value.failed_nodes == [3]


    def test_runs_on_node2s_rows(self, monkeypatch):
        """recover_both_sage and node2's attacks read one per-node loop: the
        rows node2c matches are the features and aggregate rows it solves
        with, and a zeroed bundle, left out of those rows, is named in the
        partial-failure error."""
        g, params, anorm, record = node_leak("sage", 6, 8, seed=11)
        matched = []

        def capture(spec, params, rng, leaked, *args):
            matched.append(leaked)
            raise RuntimeError("captured")
        monkeypatch.setattr(attacks, "_attack_unknowns", capture)
        with pytest.raises(RuntimeError, match="captured"):
            attacks.attack_node2(record, attacks.AttackSpec("node2c"), params,
                                 rng=numkit.make_rng(0))
        rows = matched[0]
        x, rec = closed_form.recover_both_sage(record.bundles)
        assert np.array_equal(rows.keep, np.arange(6))
        assert np.array_equal(rows.own, x)
        want = closed_form.recover_adjacency_given_features(rows.agg, rows.own)
        assert np.array_equal(rec.matrix, want.matrix)
        bundles = list(record.bundles)
        bundles[2] = models.GradientBundle(tensors={
            k: np.zeros_like(t) for k, t in bundles[2].tensors.items()})
        kept = closed_form.recover_layer_inputs(bundles, "sage", True)
        assert np.array_equal(kept.keep, [0, 1, 3, 4, 5])
        assert np.array_equal(kept.own, np.delete(rows.own, 2, axis=0))
        with pytest.raises(PartialRecoveryError) as err:
            closed_form.recover_both_sage(bundles)
        assert err.value.failed_nodes == [2]


class TestGraphAdjacencyChain:
    def test_end_to_end_full_rank(self):
        g, params, anorm, record = graph_leak("sage", 6, 10, 8, seed=10)
        rec = closed_form.recover_adjacency_graph_sage(record.bundle, g.features)
        assert np.abs(rec.matrix - anorm).max() < 1e-6
        assert rec.warning is None

    def test_matches_compact_closed_form(self):
        g, params, anorm, record = graph_leak("sage", 5, 9, 7, seed=11)
        t = record.bundle.tensors
        compact = (g.features @ numkit.pseudoinverse(t["conv1_self"])
                   @ t["conv1_agg"] @ numkit.pseudoinverse(g.features))
        rec = closed_form.recover_adjacency_graph_sage(record.bundle, g.features)
        assert np.abs(rec.matrix - compact).max() < 1e-6

    def test_binary_low_rank_warns(self):
        g, params, anorm, record = graph_leak("sage", 10, 4, 12, seed=12,
                                              binary_features=True)
        rec = closed_form.recover_adjacency_graph_sage(record.bundle, g.features)
        assert rec.warning is not None
        assert rec.residual > 1e-8

    def test_empty_graph(self):
        r = numkit.make_rng(13)
        g = graphs.Graph(adjacency=np.zeros((5, 5)),
                         features=r.standard_normal((5, 8)), graph_label=0)
        params = models.init_params(r, "sage", "graph", 8, 7, 2, num_nodes=5)
        record = federated.leak(params, g, "graph")
        rec = closed_form.recover_adjacency_graph_sage(record.bundle, g.features)
        assert np.abs(rec.matrix).max() < 1e-8
