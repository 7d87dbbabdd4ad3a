"""One table: each public entry point, given a malformed value, raises a
named :class:`GlgError` subclass. The table holds no valid input."""

import pathlib

import numpy as np
import pytest

from glg import attacks, experiments, federated, graphs, metrics, models, numkit
from glg.errors import (ConfigError, GlgError, NumericError, ShapeError,
                        UndefinedMetricError, UnrecoverableError)

rng = numkit.make_rng(3)
NODE = models.init_params(rng, "sage", "node", 4, 3, 2)
G = graphs.synthetic_graph(rng, 6, 2, 4, num_classes=2)
GRAPH = models.init_params(rng, "sage", "graph", 4, 3, 2, num_nodes=6)
LABELED = graphs.Graph(G.adjacency, G.features, graph_label=1)
BUNDLE = federated.leak(NODE, G, "node1", targets=[0]).bundle
GRAPH_BUNDLE = federated.leak(GRAPH, LABELED, "graph").bundle
ONE_NODE = graphs.Graph(np.zeros((1, 1)), np.ones((1, 4)),
                        labels=np.array([1]))
MISSING = pathlib.Path(__file__).parent / "no-such-directory"


def model(**tensors):
    """A sage node model with ``tensors`` in place of init_params' own; a
    None drops the tensor."""
    t = {**NODE.tensors, **tensors}
    return lambda: models.ModelParams(
        "sage", "node", 4, 3, 2, {k: v for k, v in t.items() if v is not None})


def step(learning_rate):
    return lambda: federated.aggregate_and_step(NODE, [[BUNDLE]],
                                                learning_rate)


def batched(batch_size, labels):
    return lambda: attacks.attack_batched(
        federated.LeakRecord("batched-node", [BUNDLE], batch_size),
        attacks.AttackSpec("node1", iterations=3, d_tree=2), NODE, labels,
        rng=rng)


def init(framework="gcn", task="node", feature_dim=4, hidden_dim=3,
         num_classes=2, num_nodes=None):
    return lambda: models.init_params(rng, framework, task, feature_dim,
                                      hidden_dim, num_classes, num_nodes)


ROWS = {
    # the model's tensors, checked against its layout at construction
    "init_params framework gat": (init(framework="gat"), ConfigError),
    "init_params task edge": (init(task="edge"), ConfigError),
    "init_params hidden 0": (init(hidden_dim=0), ConfigError),
    "init_params hidden 2.5": (init(hidden_dim=2.5), ConfigError),
    "init_params hidden True": (init(hidden_dim=True), ConfigError),
    "init_params feature_dim -1": (init(feature_dim=-1), ConfigError),
    "init_params graph without num_nodes": (init(task="graph"), ConfigError),
    "init_params num_nodes 0": (init(task="graph", num_nodes=0), ConfigError),
    "ModelParams missing tensor": (model(conv1_self=None), ShapeError),
    "ModelParams extra tensor": (model(mlp_bias=np.zeros(2)), ShapeError),
    "ModelParams wrong shape": (model(out_weight=np.zeros((2, 4))), ShapeError),
    "ModelParams wrong ndim": (model(out_bias=np.zeros((1, 2))), ShapeError),
    "ModelParams NaN entry": (model(out_bias=[np.nan, 0.0]), NumericError),
    "ModelParams Inf entry": (model(conv1_agg=np.full((3, 4), np.inf)),
                              NumericError),
    # generators and the seeded generator
    "khop_egonet k -1": (lambda: graphs.khop_egonet(G, 0, -1), ConfigError),
    "khop_egonet k 1.5": (lambda: graphs.khop_egonet(G, 0, 1.5), ConfigError),
    "khop_egonet k True": (lambda: graphs.khop_egonet(G, 0, True), ConfigError),
    "khop_egonet center 6": (lambda: graphs.khop_egonet(G, 6, 1), ShapeError),
    "khop_egonet center 1.5": (lambda: graphs.khop_egonet(G, 1.5, 1),
                               ShapeError),
    "khop_egonet center True": (lambda: graphs.khop_egonet(G, True, 1),
                                ShapeError),
    "normalize_dense mode unknown": (
        lambda: graphs.normalize_dense(G.adjacency, "sym"), ConfigError),
    "normalize_adjacency mode unknown": (
        lambda: graphs.normalize_adjacency(G, "sym"), ConfigError),
    # refused before any file is opened, so the missing directory is
    # never reached
    "save_graph labels of an unlabeled graph": (lambda: graphs.save_graph(
        LABELED, *(MISSING / f for f in ("x.csv", "e.txt", "y.txt"))),
        ConfigError),
    "synthetic_graph n -1": (lambda: graphs.synthetic_graph(rng, -1, 2, 3),
                             ConfigError),
    "synthetic_graph too many edges": (
        lambda: graphs.synthetic_graph(rng, 4, 4, 1), ConfigError),
    "synthetic_graph avg_degree NaN": (
        lambda: graphs.synthetic_graph(rng, 4, np.nan, 1), ConfigError),
    "synthetic_graph feature_dim 0": (
        lambda: graphs.synthetic_graph(rng, 4, 1, 0), ConfigError),
    "er_graph p 1.5": (lambda: graphs.er_graph(rng, 5, 1.5, 2), ConfigError),
    "er_graph p -0.1": (lambda: graphs.er_graph(rng, 5, -0.1, 2), ConfigError),
    "er_graph p NaN": (lambda: graphs.er_graph(rng, 5, np.nan, 2), ConfigError),
    "er_graph n 0": (lambda: graphs.er_graph(rng, 0, 0.5, 2), ConfigError),
    "dummy_tree d_tree 0": (lambda: graphs.dummy_tree(rng, 0, 2), ConfigError),
    "dummy_tree d_tree 1.5": (lambda: graphs.dummy_tree(rng, 1.5, 2),
                              ConfigError),
    "make_rng -1": (lambda: numkit.make_rng(-1), ConfigError),
    "make_rng 1.5": (lambda: numkit.make_rng(1.5), ConfigError),
    "make_rng True": (lambda: numkit.make_rng(True), ConfigError),
    # rows that raised their typed error before the rows above did
    "Graph NaN feature": (lambda: graphs.Graph(np.zeros((2, 2)),
                                               [[np.nan], [0.0]]),
                          NumericError),
    "Graph non-square adjacency": (lambda: graphs.Graph(np.zeros((2, 3)),
                                                        np.zeros((2, 1))),
                                   ShapeError),
    "Graph asymmetric adjacency": (lambda: graphs.Graph([[0, 1], [0, 0]],
                                                        np.zeros((2, 1))),
                                   ShapeError),
    "Graph fractional label": (lambda: graphs.Graph(
        np.zeros((2, 2)), np.zeros((2, 1)), labels=[0.5, 1.0]), ShapeError),
    "Graph bool label": (lambda: graphs.Graph(
        np.zeros((2, 2)), np.zeros((2, 1)), labels=[True, False]), ShapeError),
    "AttackSpec scenario unknown": (lambda: attacks.AttackSpec("node3"),
                                    ConfigError),
    "AttackSpec iterations 0": (
        lambda: attacks.AttackSpec("node1", iterations=0), ConfigError),
    "AttackSpec alpha NaN": (
        lambda: attacks.AttackSpec("node1", alpha=np.nan), ConfigError),
    "AttackSpec beta -1": (lambda: attacks.AttackSpec("node1", beta=-1.0),
                           ConfigError),
    "AttackSpec threshold 1.5": (
        lambda: attacks.AttackSpec("node1", threshold=1.5), ConfigError),
    "leak target out of range": (
        lambda: federated.leak(NODE, G, "node1", targets=[6]), ShapeError),
    "leak fractional target": (
        lambda: federated.leak(NODE, G, "node1", targets=[0.5]), ShapeError),
    "leak scenario unknown": (lambda: federated.leak(NODE, G, "node3"),
                              ShapeError),
    # the federated round: shard inputs, batch indices, the SGD step
    "ClientShard graph ndarray": (lambda: federated.ClientShard(
        0, graph=np.zeros((3, 3)), targets=[0]), ShapeError),
    "ClientShard graph and graphs": (lambda: federated.ClientShard(
        0, graph=G, targets=[0, 1], graphs=[LABELED]), ShapeError),
    "ClientShard graphs of ints": (
        lambda: federated.ClientShard(0, graphs=[1, 2]), ShapeError),
    "client_gradients bool batch index": (
        lambda: federated.client_gradients(
            GRAPH, federated.ClientShard(0, graphs=[LABELED, LABELED]),
            [True]), ShapeError),
    # the leak record: a known scenario, a non-empty list of bundles from
    # >= 1 samples
    "LeakRecord scenario node3": (lambda: federated.LeakRecord(
        "node3", [BUNDLE]), ConfigError, "scenario"),
    "attack_batched batch_size True": (batched(True, [0]), ConfigError),
    "attack_batched batch_size 3.0": (batched(3.0, [0, 0, 0]), ConfigError),
    "attack_batched batch_size 0": (batched(0, np.zeros(0, dtype=np.int64)),
                                    ConfigError),
    "attack_node1 bundles None": (lambda: attacks.attack_node1(
        federated.LeakRecord("node1", None), attacks.AttackSpec("node1"),
        NODE, rng), ShapeError),
    "attack_node1 bundle not a GradientBundle": (
        lambda: attacks.attack_node1(federated.LeakRecord("node1", [1]),
                                     attacks.AttackSpec("node1"), NODE, rng),
        ShapeError),
    # each attack reads the leak of its own scenario
    "attack_node2 node1 leak": (lambda: attacks.attack_node2(
        federated.LeakRecord("node1", [BUNDLE]), attacks.AttackSpec("node2b"),
        NODE, known_adjacency=np.zeros((1, 1)), rng=rng), ConfigError),
    "attack_node1 node2 leak": (lambda: attacks.attack_node1(
        federated.LeakRecord("node2", [BUNDLE]),
        attacks.AttackSpec("node1", iterations=3, d_tree=2), NODE, rng),
        ConfigError),
    "attack_graph batched-graph leak": (lambda: attacks.attack_graph(
        federated.LeakRecord("batched-graph", [GRAPH_BUNDLE]),
        attacks.AttackSpec("graph_b", iterations=3), GRAPH,
        known_adjacency=G.adjacency, rng=rng), ConfigError),
    "attack_batched node1 leak": (lambda: attacks.attack_batched(
        federated.LeakRecord("node1", [BUNDLE]),
        attacks.AttackSpec("node1", iterations=3, d_tree=2), NODE, [0],
        rng=rng), ConfigError),
    "attack_node2 empty leak": (lambda: attacks.attack_node2(
        federated.LeakRecord("node2", []), attacks.AttackSpec("node2b"), NODE,
        known_adjacency=G.adjacency, rng=rng), ShapeError, "no gradient"),
    # an attack with nothing to optimize: node2a on a one-node graph
    "attack_node2 node2a one-node graph": (lambda: attacks.attack_node2(
        federated.leak(NODE, ONE_NODE, "node2"),
        attacks.AttackSpec("node2a", iterations=3), NODE,
        known_features=ONE_NODE.features, rng=rng), UnrecoverableError,
        "no unknowns"),
    "aggregate_and_step learning_rate NaN": (step(np.nan), ConfigError),
    "aggregate_and_step learning_rate Inf": (step(np.inf), ConfigError),
    "aggregate_and_step learning_rate str": (step("0.1"), ConfigError),
    "ExperimentConfig hidden_dim 0": (lambda: experiments.ExperimentConfig(
        "node1", hidden_dim=0), ConfigError),
    "ExperimentConfig framework gat": (lambda: experiments.ExperimentConfig(
        "node1", framework="gat"), ConfigError),
    "sample_bernoulli probability 1.5": (
        lambda: numkit.sample_bernoulli(rng, [1.5]), NumericError),
    "finalize_adjacency rule unknown": (
        lambda: attacks.finalize_adjacency(np.zeros((2, 2)), "round"),
        ConfigError),
    "as_matrix 1-D": (lambda: numkit.as_matrix(np.zeros(3)), ShapeError),
    "pseudoinverse NaN": (lambda: numkit.pseudoinverse([[np.nan]]),
                          NumericError),
    "auc single-class truth": (lambda: metrics.auc(np.zeros((3, 3)),
                                                   np.zeros((3, 3))),
                               UndefinedMetricError),
    # the four adjacency metrics share one shape rule
    "auc 1-D": (lambda: metrics.auc(np.zeros(3), np.zeros(3)), ShapeError),
    "auc shape mismatch": (lambda: metrics.auc(
        [[0, 1, 0], [1, 0, 0], [0, 0, 0]], np.zeros((2, 2))), ShapeError),
    "average_precision shape mismatch": (lambda: metrics.average_precision(
        [[0, 1], [1, 0]], np.ones((3, 3)) - np.eye(3)), ShapeError),
    "batch_match_score empty": (lambda: metrics.batch_match_score([], []),
                                ShapeError),
    "rnmse_per_row 1-D": (lambda: metrics.rnmse_per_row(np.ones(3),
                                                        np.ones(3)),
                          ShapeError),
    "finalize_adjacency 1-D": (
        lambda: attacks.finalize_adjacency(np.zeros(3), "threshold"),
        ShapeError),
    "finalize_adjacency non-square": (
        lambda: attacks.finalize_adjacency(np.zeros((2, 3)), "threshold"),
        ShapeError),
    "smoothness_grads node counts differ": (
        lambda: attacks.smoothness_grads(np.ones((3, 2)), np.zeros((4, 4)),
                                         True, True), ShapeError),
}


@pytest.mark.parametrize("row", ROWS)
def test_malformed_input_raises_its_named_error(row):
    # a third entry is a pattern the message must match, for a row whose
    # error type alone does not tell the right check from a wrong one
    call, error, *match = ROWS[row]
    assert issubclass(error, GlgError) and error is not GlgError
    with pytest.raises(error, match=match[0] if match else None):
        call()
