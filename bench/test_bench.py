"""Self-tests of the benchmark's span arithmetic and correctness checks.

They run no attack, so they finish in about a second.
"""

import numpy as np
import pytest

from glg import metrics

import tracing
import workloads


def test_self_times_on_hand_built_nest():
    spans = [
        ("rep", 0, 100, -1),
        ("attack", 10, 80, 0),
        ("ctx", 20, 30, 1),
        ("ctx", 40, 55, 1),
        ("adam", 60, 70, 1),
        ("leak", 85, 95, 0),
        ("pinv", 88, 93, 5),
    ]
    # rep: 100 - attack 70 - leak 10; attack: 70 - 10 - 15 - 10
    assert tracing.self_times(spans) == [20, 35, 10, 15, 10, 5, 5]


def test_per_rep_totals_add_up_to_wall():
    spans = [
        ("rep", 0, 100, -1),
        ("attack", 10, 80, 0),
        ("ctx", 20, 30, 1),
        ("ctx", 40, 50, 1),
        ("rep", 200, 260, -1),
        ("attack", 205, 255, 4),
    ]
    first, second = tracing.per_rep_totals(spans)
    assert first == {"wall": 100, "untraced": 30,
                     "self": {"attack": 50, "ctx": 20},
                     "calls": {"attack": 1, "ctx": 2}}
    assert second["calls"] == {"attack": 1}
    for rep in (first, second):
        assert sum(rep["self"].values()) + rep["untraced"] == rep["wall"]


def test_recorder_nests_and_patch_restores():
    from glg import attacks, closed_form, federated

    modules = {"attacks": attacks, "closed_form": closed_form,
               "federated": federated, "metrics": metrics}
    originals = [getattr(modules[m], attr) for m, attr, _ in tracing.PATCHES]
    rec = tracing.SpanRecorder()
    outer = rec.wrap("outer", lambda: metrics.rnmse(np.ones(3), np.ones(3)))
    with tracing.Patched(rec, modules):
        assert outer() == 0.0
    assert [getattr(modules[m], attr) for m, attr, _ in tracing.PATCHES] \
        == originals
    (n0, s0, e0, p0), (n1, s1, e1, p1) = rec.spans
    assert (n0, p0, n1, p1) == ("outer", -1, "metrics.rnmse", 0)
    assert s0 <= s1 <= e1 <= e0


@pytest.fixture(scope="module")
def node1():
    return workloads.make_instance("node1_tree", 0)


@pytest.fixture(scope="module")
def node2a():
    return workloads.make_instance("node2a_gcn", 0)


@pytest.fixture(scope="module")
def graph_a():
    return workloads.make_instance("graph_a_sage", 0)


def _node1_outcome(inst, feature, label):
    truth = inst.graph.features[inst.target]
    return {"label": label, "target_feature": feature,
            "rnmse": metrics.rnmse(truth, feature)}


def test_node1_check_rejects_corruption(node1):
    truth = node1.graph.features[node1.target]
    label = int(node1.graph.labels[node1.target])
    assert workloads.check_node1_tree(
        node1, _node1_outcome(node1, truth.copy(), label)) == []

    # every entry moved by 1% of the largest one
    moved = truth + 0.01 * np.abs(truth).max() * np.sign(truth)
    assert workloads.own_rnmse(truth, moved) > workloads.RNMSE_BOUND
    assert workloads.check_node1_tree(
        node1, _node1_outcome(node1, moved, label))

    wrong = (label + 1) % node1.params.num_classes
    assert workloads.check_node1_tree(
        node1, _node1_outcome(node1, truth.copy(), wrong))


def _structure_outcome(inst, adjacency, labels):
    a = inst.graph.adjacency
    prob = 0.1 + 0.8 * a
    return {"labels": labels, "adjacency": adjacency, "adjacency_prob": prob,
            "score": metrics.score_adjacency(a, adjacency, prob)}


def _flipped(a):
    out = a.copy()
    out[1, 0] = 1.0 - out[1, 0]
    return out


def test_node2a_check_rejects_corruption(node2a):
    g = node2a.graph
    anorm = workloads.gcn_normalized(g.adjacency)

    def outcome(adjacency, labels, anorm_hat):
        out = _structure_outcome(node2a, adjacency, labels)
        out.update(anorm=anorm_hat, anorm_rnmse=metrics.rnmse(anorm, anorm_hat))
        return out

    good = outcome(g.adjacency.copy(), g.labels.copy(), anorm.copy())
    assert workloads.check_node2a_gcn(node2a, good) == []
    assert workloads.check_node2a_gcn(
        node2a, outcome(_flipped(g.adjacency), g.labels.copy(), anorm))
    wrong = g.labels.copy()
    wrong[3] = (wrong[3] + 1) % node2a.params.num_classes
    assert workloads.check_node2a_gcn(
        node2a, outcome(g.adjacency.copy(), wrong, anorm))
    assert workloads.check_node2a_gcn(
        node2a, outcome(g.adjacency.copy(), g.labels.copy(), anorm * 1.01))


def test_graph_a_check_rejects_corruption(graph_a):
    g = graph_a.graph
    label = np.array([g.graph_label])
    assert workloads.check_graph_a_sage(
        graph_a, _structure_outcome(graph_a, g.adjacency.copy(), label)) == []
    assert workloads.check_graph_a_sage(
        graph_a, _structure_outcome(graph_a, _flipped(g.adjacency), label))
    assert workloads.check_graph_a_sage(
        graph_a, _structure_outcome(graph_a, g.adjacency.copy(),
                                    (label + 1) % 3))


def test_score_disagreement_is_rejected(graph_a):
    g = graph_a.graph
    out = _structure_outcome(graph_a, g.adjacency.copy(),
                             np.array([g.graph_label]))
    out["score"].auc -= 0.25
    assert workloads.check_graph_a_sage(graph_a, out)


def test_instances_repeat_for_a_seed():
    a, b, c = (workloads.make_instance("node2a_gcn", s) for s in (7, 7, 8))
    assert np.array_equal(a.graph.adjacency, b.graph.adjacency)
    assert np.array_equal(a.params.tensors["conv1_agg"],
                          b.params.tensors["conv1_agg"])
    assert np.array_equal(a.attack_rng().random(3), b.attack_rng().random(3))
    assert not np.array_equal(a.graph.features, c.graph.features)
