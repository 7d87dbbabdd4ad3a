import numpy as np
import pytest

from glg import federated, graphs, models, numkit
from glg.errors import ShapeError

rng = numkit.make_rng(55)


def node_setup(seed=1, n=7, d=3, f=4, k=3, framework="sage"):
    r = numkit.make_rng(seed)
    g = graphs.synthetic_graph(r, n, 2, d, num_classes=k)
    params = models.init_params(r, framework, "node", d, f, k)
    return g, params


def graph_setup(seed=2, n=5, d=3, f=4, k=3, framework="sage"):
    r = numkit.make_rng(seed)
    g0 = graphs.er_graph(r, n, 0.5, d)
    g = graphs.Graph(adjacency=g0.adjacency, features=g0.features,
                     graph_label=int(r.integers(0, k)))
    params = models.init_params(r, framework, "graph", d, f, k, num_nodes=n)
    return g, params


class TestClientGradients:
    def test_single_sample_matches_direct_backward(self):
        g, params = node_setup()
        shard = federated.ClientShard(client_id=0, graph=g, targets=[4])
        (bundle,) = federated.client_gradients(params, shard, [0])
        anorm = graphs.normalize_adjacency(g, "sage-mean")
        trace = models.forward_node(params, g, anorm, 4, int(g.labels[4]))
        direct = models.backward_node(params, trace)
        for k in direct.param_names:
            assert np.allclose(bundle.tensors[k], direct.tensors[k], atol=1e-12)

    def test_duplicated_sample_identical(self):
        g, params = node_setup()
        shard = federated.ClientShard(client_id=0, graph=g, targets=[2, 2])
        b1, b2 = federated.client_gradients(params, shard, [0, 1])
        for k in b1.param_names:
            assert np.array_equal(b1.tensors[k], b2.tensors[k])

    def test_graph_shard(self):
        g, params = graph_setup()
        shard = federated.ClientShard(client_id=1, graphs=[g, g])
        bundles = federated.client_gradients(params, shard, [0, 1])
        assert len(bundles) == 2

    @pytest.mark.parametrize("task", ["node", "graph"])
    @pytest.mark.parametrize("index", [-1, 2, 1.5], ids=["negative", "size",
                                                         "non_integer"])
    def test_bad_batch_index_raises(self, monkeypatch, task, index):
        if task == "node":
            g, params = node_setup()
            shard = federated.ClientShard(client_id=0, graph=g, targets=[1, 4])
            stacks = "_node_stacks"
        else:
            g, params = graph_setup()
            shard = federated.ClientShard(client_id=0, graphs=[g, g])
            stacks = "_graph_stacks"
        calls = []
        real = getattr(federated, stacks)
        monkeypatch.setattr(federated, stacks,
                            lambda *a: calls.append(1) or real(*a))
        with pytest.raises(ShapeError, match="batch index"):
            federated.client_gradients(params, shard, [0, index])
        assert calls == []

    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    @pytest.mark.parametrize("task", ["node", "graph"])
    def test_bundles_are_leaks_of_one_sample(self, task, framework):
        if task == "node":
            g, params = node_setup(framework=framework)
            shard = federated.ClientShard(client_id=0, graph=g,
                                          targets=[4, 0, 6])
            want = [federated.leak(params, g, "node1", targets=[t]).bundle
                    for t in shard.targets]
        else:
            g, params = graph_setup(framework=framework)
            h, _ = graph_setup(seed=3, framework=framework)
            shard = federated.ClientShard(client_id=0, graphs=[g, h, g])
            want = [federated.leak(params, s, "graph").bundle
                    for s in shard.graphs]
        got = federated.client_gradients(params, shard, [0, 1, 2])
        for b, w in zip(got, want, strict=True):
            assert b.param_names == w.param_names
            for k in w.param_names:
                assert np.array_equal(b.tensors[k], w.tensors[k])

    def test_shard_validation(self):
        g, _ = node_setup()
        with pytest.raises(ShapeError):
            federated.ClientShard(client_id=0, graph=g, targets=[99])

    def test_shard_fractional_target_raises(self):
        # refused, not stored as target 2
        g, _ = node_setup()
        with pytest.raises(ShapeError, match="targets must be a vector of "
                                             "integers"):
            federated.ClientShard(client_id=0, graph=g, targets=[2.5])


class TestAggregateAndStep:
    def test_single_bundle_plain_sgd(self):
        g, params = node_setup()
        shard = federated.ClientShard(client_id=0, graph=g, targets=[1])
        bundles = federated.client_gradients(params, shard, [0])
        updated, rnd = federated.aggregate_and_step(params, [bundles], 0.1)
        for k in params.param_names:
            want = params.tensors[k] - 0.1 * bundles[0].tensors[k]
            assert np.allclose(updated.tensors[k], want, atol=1e-15)
        assert rnd.num_clients == 1

    def test_opposite_bundles_cancel(self):
        g, params = node_setup()
        shard = federated.ClientShard(client_id=0, graph=g, targets=[1])
        (b,) = federated.client_gradients(params, shard, [0])
        neg = models.GradientBundle(
            tensors={k: -v for k, v in b.tensors.items()})
        updated, _ = federated.aggregate_and_step(params, [[b], [neg]], 0.5)
        for k in params.param_names:
            assert np.allclose(updated.tensors[k], params.tensors[k], atol=1e-15)

    def test_three_by_two_flat_mean(self):
        g, params = node_setup(n=9)
        per_client = []
        flat = []
        for c in range(3):
            shard = federated.ClientShard(client_id=c, graph=g,
                                          targets=[2 * c, 2 * c + 1])
            bundles = federated.client_gradients(params, shard, [0, 1])
            per_client.append(bundles)
            flat.extend(bundles)
        _, rnd = federated.aggregate_and_step(params, per_client, 0.1)
        for k in params.param_names:
            want = sum(b.tensors[k] for b in flat) / 6.0
            assert np.abs(rnd.averaged.tensors[k] - want).max() < 1e-15

    def test_batch_size_counts_the_samples_the_mean_weighs(self):
        # clients of 1 and 3 samples: the mean weighs 4 samples equally
        g, params = node_setup(n=9)
        per_client = [
            federated.client_gradients(params, federated.ClientShard(
                client_id=c, graph=g, targets=targets), range(len(targets)))
            for c, targets in enumerate(([0], [2, 4, 6]))]
        _, rnd = federated.aggregate_and_step(params, per_client, 0.1)
        assert rnd.batch_size == 4
        assert rnd.num_clients == 2
        flat = per_client[0] + per_client[1]
        for k in params.param_names:
            want = sum(b.tensors[k] for b in flat) / 4.0
            assert np.abs(rnd.averaged.tensors[k] - want).max() < 1e-15

    def test_empty_fails(self):
        _, params = node_setup()
        with pytest.raises(ShapeError):
            federated.aggregate_and_step(params, [], 0.1)

    def test_non_congruent_bundles_fail(self):
        g, params = node_setup()
        shard = federated.ClientShard(client_id=0, graph=g, targets=[1])
        (b,) = federated.client_gradients(params, shard, [0])
        renamed = models.GradientBundle(
            tensors={"conv2_agg" if k == "conv1_agg" else k: v
                     for k, v in b.tensors.items()})
        with pytest.raises(ShapeError, match="not congruent"):
            federated.aggregate_and_step(params, [[b], [renamed]], 0.1)

    def test_bundles_of_different_widths_fail(self):
        g, narrow = node_setup(f=4)
        _, wide = node_setup(f=5)
        bundles = [federated.client_gradients(
            params, federated.ClientShard(client_id=0, graph=g, targets=[1]),
            [0]) for params in (narrow, wide)]
        with pytest.raises(ShapeError,
                           match=r"conv1_agg has shape \(5, 3\).*\(4, 3\)"):
            federated.aggregate_and_step(narrow, bundles, 0.1)

    def test_bundles_that_agree_but_not_with_the_model_fail(self):
        """Every bundle is checked against the model, not only against the
        first bundle, and the model is left as it was."""
        g, narrow = node_setup(f=4)
        _, wide = node_setup(f=5)
        shard = federated.ClientShard(client_id=0, graph=g, targets=[1, 2])
        bundles = federated.client_gradients(wide, shard, [0, 1])
        before = narrow.copy()
        with pytest.raises(ShapeError,
                           match=r"conv1_agg has shape \(5, 3\), the model's "
                                 r"\(4, 3\)"):
            federated.aggregate_and_step(narrow, [bundles], 0.1)
        for k in before.param_names:
            assert np.array_equal(narrow.tensors[k], before.tensors[k])


class TestLeak:
    def test_node2_cardinality(self):
        g, params = node_setup(n=8)
        record = federated.leak(params, g, "node2")
        assert len(record.bundles) == 8

    @pytest.mark.parametrize("framework", ["gcn", "sage"])
    @pytest.mark.parametrize("task", ["node", "graph"])
    def test_batched_b1_equals_unbatched(self, task, framework):
        if task == "node":
            g, params = node_setup(framework=framework)
            single = federated.leak(params, g, "node1", targets=[3])
            batched = federated.leak(params, g, "batched-node", targets=[3])
            shard = federated.ClientShard(client_id=0, graph=g, targets=[3])
        else:
            g, params = graph_setup(framework=framework)
            single = federated.leak(params, g, "graph")
            batched = federated.leak(params, [g], "batched-graph")
            shard = federated.ClientShard(client_id=0, graphs=[g])
        (client,) = federated.client_gradients(params, shard, [0])
        assert batched.batch_size == 1
        for k in single.bundle.param_names:
            assert np.array_equal(single.bundle.tensors[k],
                                  batched.bundle.tensors[k])
            assert np.array_equal(single.bundle.tensors[k], client.tensors[k])

    def test_batched_average_equals_mean_of_leaks(self):
        g, params = node_setup(n=10)
        targets = [0, 3, 5, 7, 9]
        batched = federated.leak(params, g, "batched-node", targets=targets)
        singles = [federated.leak(params, g, "node1", targets=[t]).bundle
                   for t in targets]
        for k in batched.bundle.param_names:
            want = sum(s.tensors[k] for s in singles) / 5.0
            assert np.abs(batched.bundle.tensors[k] - want).max() < 1e-12

    def test_batched_graph(self):
        g, params = graph_setup()
        record = federated.leak(params, [g, g, g], "batched-graph")
        assert record.batch_size == 3
        single = federated.leak(params, g, "graph")
        for k in single.bundle.param_names:
            assert np.allclose(record.bundle.tensors[k],
                               single.bundle.tensors[k], atol=1e-12)

    def test_leak_carries_only_gradients(self):
        g, params = node_setup()
        record = federated.leak(params, g, "node2")
        assert set(vars(record)) == {"scenario", "bundles", "batch_size"}
        for b in record.bundles:
            assert set(vars(b)) == {"tensors"}
            assert set(b.tensors) == set(params.param_names)

    def test_scenario_task_mismatch(self):
        g, params = node_setup()
        with pytest.raises(ShapeError):
            federated.leak(params, g, "graph")

    def test_linearity_of_aggregation(self):
        # mean of per-sample bundles equals the bundle of the mean loss
        g, params = node_setup(n=6)
        targets = [0, 1, 2, 3, 4, 5]
        record = federated.leak(params, g, "batched-node", targets=targets)
        per_node = federated.leak(params, g, "node2")
        for k in record.bundle.param_names:
            want = np.mean([b.tensors[k] for b in per_node.bundles], axis=0)
            assert np.abs(record.bundle.tensors[k] - want).max() < 1e-12

    @pytest.mark.parametrize("scenario", ["node1", "node2", "batched-node",
                                          "graph", "batched-graph"])
    def test_out_of_range_label_raises(self, scenario):
        if scenario.endswith("graph"):
            g, params = graph_setup()
            g = graphs.Graph(adjacency=g.adjacency, features=g.features,
                             graph_label=params.num_classes)
            data, targets = ([g, g] if scenario == "batched-graph" else g), None
        else:
            g, params = node_setup()
            labels = g.labels.copy()
            labels[3] = params.num_classes
            data = graphs.Graph(adjacency=g.adjacency, features=g.features,
                                labels=labels)
            targets = {"node1": [3], "node2": None,
                       "batched-node": [1, 3]}[scenario]
        with pytest.raises(ShapeError, match="label out of range"):
            federated.leak(params, data, scenario, targets=targets)

    @pytest.mark.parametrize("scenario", ["node1", "batched-node"])
    @pytest.mark.parametrize("targets", [None, [], [7], [-1], [2, 99], [2.7]],
                             ids=["none", "empty", "n", "negative", "99",
                                  "fraction"])
    def test_bad_targets_raise(self, scenario, targets):
        g, params = node_setup()
        with pytest.raises(ShapeError, match="target"):
            federated.leak(params, g, scenario, targets=targets)

    @staticmethod
    def no_pass(monkeypatch):
        """Record every forward pass the leak would run."""
        calls = []
        for name in ("node_ctx", "graph_ctx"):
            monkeypatch.setattr(federated, name,
                                lambda *a, **k: calls.append(a))
        return calls

    def test_batched_graphs_of_different_sizes_raise(self, monkeypatch):
        g, params = graph_setup()
        r = numkit.make_rng(3)
        h0 = graphs.er_graph(r, g.num_nodes + 1, 0.5, g.feature_dim)
        h = graphs.Graph(adjacency=h0.adjacency, features=h0.features,
                         graph_label=0)
        calls = self.no_pass(monkeypatch)
        with pytest.raises(ShapeError, match=r"of one size.*\(6, 3\)"):
            federated.leak(params, [g, h], "batched-graph")
        assert calls == []

    def test_empty_graph_batch_raises(self, monkeypatch):
        _, params = graph_setup()
        calls = self.no_pass(monkeypatch)
        with pytest.raises(ShapeError, match="one or more graphs"):
            federated.leak(params, [], "batched-graph")
        assert calls == []

    @pytest.mark.parametrize("scenario", ["node1", "node2", "batched-node",
                                          "graph", "batched-graph"])
    def test_feature_width_mismatch_raises(self, scenario, monkeypatch):
        if scenario.endswith("graph"):
            g, _ = graph_setup(d=4)
            _, narrow = graph_setup(d=3)
            data, targets = ([g, g] if scenario == "batched-graph" else g), None
            message = "3 features wide"
        else:
            g, _ = node_setup(d=4)
            _, narrow = node_setup(d=3)
            data = g
            targets = {"node1": [3], "node2": None,
                       "batched-node": [1, 3]}[scenario]
            message = "features are 4 wide, the model expects 3"
        calls = self.no_pass(monkeypatch)
        with pytest.raises(ShapeError, match=message):
            federated.leak(narrow, data, scenario, targets=targets)
        assert calls == []

    @pytest.mark.parametrize("scenario", ["node1", "node2", "batched-node",
                                          "graph", "batched-graph"])
    def test_wrong_container_raises(self, scenario, monkeypatch):
        if scenario.endswith("graph"):
            g, params = graph_setup()
        else:
            g, params = node_setup()
        # a list where one graph belongs, and one graph where a list does
        data = g if scenario == "batched-graph" else [g]
        targets = {"node1": [3], "batched-node": [1, 3]}.get(scenario)
        calls = self.no_pass(monkeypatch)
        with pytest.raises(ShapeError, match="Graph"):
            federated.leak(params, data, scenario, targets=targets)
        assert calls == []

    def test_node1_needs_exactly_one_target(self):
        g, params = node_setup()
        with pytest.raises(ShapeError, match="one target"):
            federated.leak(params, g, "node1", targets=[1, 2])
