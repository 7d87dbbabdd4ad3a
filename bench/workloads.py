"""The benchmark's workloads: seeded inputs, one timed repetition, checks.

Inputs are generated here from the workload seed with numpy alone, so a
change to glg's own generators cannot change what is measured. glg receives
only the finished graph, model parameters and attack configuration. Every
repetition is checked against ground truth computed here, never against
stored output.

Each ``run_*`` function is one timed repetition: ``federated.leak`` ->
attack -> closed-form recovery (node2a_gcn only) -> ``glg.metrics``
scoring. All glg calls go through module attributes, so the tracer can swap
in its wrappers.
"""

from dataclasses import dataclass
import time

import numpy as np

from glg import attacks, closed_form, federated, metrics
from glg.graphs import Graph
from glg.models import ModelParams

ITERATIONS = 2000
RNMSE_BOUND = 1e-2        # criterion 6
ANORM_TOL = 1e-6          # criterion 4
SCORE_TOL = 1e-12         # glg.metrics vs this file's own computation


@dataclass
class Instance:
    """One private input, the model the server shares, and the truth."""

    graph: Graph
    params: ModelParams
    spec: attacks.AttackSpec
    attack_entropy: tuple
    target: int = 0

    def attack_rng(self):
        # a fresh generator per repetition, so repeating an instance repeats
        # every draw
        return np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(self.attack_entropy)))


# ---------------------------------------------------------------------------
# Input generation
# ---------------------------------------------------------------------------

def _adjacency(rng, n, num_edges, no_isolated):
    iu = np.triu_indices(n, k=1)
    while True:
        chosen = rng.choice(len(iu[0]), size=num_edges, replace=False)
        a = np.zeros((n, n))
        a[iu[0][chosen], iu[1][chosen]] = 1.0
        a = a + a.T
        if not no_isolated or np.all(a.sum(axis=1) >= 1.0):
            return a


def _params(rng, framework, task, d, f, k, num_nodes=None):
    """Gaussian weights with std 1/sqrt(fan_in), in glg's tensor names."""
    def gauss(shape, fan_in):
        return rng.standard_normal(shape) / np.sqrt(fan_in)

    t = {"conv1_agg": gauss((f, d), d)}
    if framework == "sage":
        t["conv1_self"] = gauss((f, d), d)
    t["conv1_bias"] = gauss((f,), d)
    if task == "node":
        t["out_weight"] = gauss((k, f), f)
        t["out_bias"] = gauss((k,), f)
    else:
        t["conv2_agg"] = gauss((f, f), f)
        if framework == "sage":
            t["conv2_self"] = gauss((f, f), f)
        t["conv2_bias"] = gauss((f,), f)
        t["mlp_weight"] = gauss((k, num_nodes * f), num_nodes * f)
        t["mlp_bias"] = gauss((k,), num_nodes * f)
    return ModelParams(framework=framework, task=task, feature_dim=d,
                       hidden_dim=f, num_classes=k, tensors=t,
                       num_nodes=num_nodes)


def make_node1_tree(rng, entropy):
    n, d, k = 50, 10, 4
    a = _adjacency(rng, n, n * 4 // 2, no_isolated=False)
    g = Graph(adjacency=a, features=rng.standard_normal((n, d)),
              labels=rng.integers(0, k, size=n))
    params = _params(rng, "sage", "node", d, 100, k)
    spec = attacks.AttackSpec(scenario="node1", iterations=ITERATIONS,
                              d_tree=10)
    return Instance(g, params, spec, entropy, target=int(rng.integers(0, n)))


def make_node2a_gcn(rng, entropy):
    n, d, k = 8, 16, 3
    a = _adjacency(rng, n, 12, no_isolated=True)
    g = Graph(adjacency=a, features=rng.standard_normal((n, d)),
              labels=rng.integers(0, k, size=n))
    params = _params(rng, "gcn", "node", d, 20, k)
    spec = attacks.AttackSpec(scenario="node2a", iterations=ITERATIONS,
                              init="constant", init_value=1.0,
                              finalization="threshold")
    return Instance(g, params, spec, entropy)


def make_graph_a_sage(rng, entropy):
    n, d, k = 8, 16, 3
    a = _adjacency(rng, n, 12, no_isolated=True)
    g = Graph(adjacency=a, features=rng.standard_normal((n, d)),
              graph_label=int(rng.integers(0, k)))
    params = _params(rng, "sage", "graph", d, 20, k, num_nodes=n)
    spec = attacks.AttackSpec(scenario="graph_a", iterations=ITERATIONS,
                              init="constant", init_value=1.0,
                              finalization="threshold")
    return Instance(g, params, spec, entropy)


# ---------------------------------------------------------------------------
# One timed repetition each. Returns (outcome, attack seconds, iterations).
# ---------------------------------------------------------------------------

def run_node1_tree(inst):
    g, params = inst.graph, inst.params
    record = federated.leak(params, g, "node1", targets=[inst.target])
    t0 = time.perf_counter()
    res = attacks.attack_node1(record, inst.spec, params, rng=inst.attack_rng())
    attack_s = time.perf_counter() - t0
    score = metrics.rnmse(g.features[inst.target], res.target_feature)
    out = {"label": int(res.labels[0]), "target_feature": res.target_feature,
           "rnmse": score}
    return out, attack_s, len(res.objective_trace)


def run_node2a_gcn(inst):
    g, params = inst.graph, inst.params
    record = federated.leak(params, g, "node2")
    t0 = time.perf_counter()
    res = attacks.attack_node2(record, inst.spec, params,
                               known_features=g.features,
                               rng=inst.attack_rng())
    attack_s = time.perf_counter() - t0
    aggs = np.vstack([closed_form.recover_agg_features(b, "gcn")
                      for b in record.bundles])
    rec = closed_form.recover_adjacency_given_features(aggs, g.features)
    out = {"labels": res.labels, "adjacency": res.adjacency,
           "adjacency_prob": res.adjacency_prob, "anorm": rec.matrix,
           "anorm_rnmse": metrics.rnmse(gcn_normalized(g.adjacency),
                                        rec.matrix),
           "score": metrics.score_adjacency(g.adjacency, res.adjacency,
                                            res.adjacency_prob)}
    return out, attack_s, len(res.objective_trace)


def run_graph_a_sage(inst):
    g, params = inst.graph, inst.params
    record = federated.leak(params, g, "graph")
    t0 = time.perf_counter()
    res = attacks.attack_graph(record, inst.spec, params,
                               known_features=g.features,
                               rng=inst.attack_rng())
    attack_s = time.perf_counter() - t0
    out = {"labels": res.labels, "adjacency": res.adjacency,
           "adjacency_prob": res.adjacency_prob,
           "score": metrics.score_adjacency(g.adjacency, res.adjacency,
                                            res.adjacency_prob)}
    return out, attack_s, len(res.objective_trace)


# ---------------------------------------------------------------------------
# Ground truth and checks. Each returns a list of problems; empty is correct.
# ---------------------------------------------------------------------------

def gcn_normalized(a):
    """D^-1/2 (A + I) D^-1/2, degrees counted on A + I."""
    m = a + np.eye(a.shape[0])
    r = 1.0 / np.sqrt(m.sum(axis=1))
    return m * np.outer(r, r)


def own_rnmse(x_true, x_hat):
    return float(np.sqrt(((x_true - x_hat) ** 2).sum() / (x_true ** 2).sum()))


def own_adjacency_scores(a_true, a_hat, a_prob):
    """Accuracy, pairwise AUC, precision and lower-triangle MAE."""
    lo = np.tril_indices(a_true.shape[0], k=-1)
    truth, pred, prob = a_true[lo], a_hat[lo], a_prob[lo]
    pos, neg = prob[truth == 1.0], prob[truth == 0.0]
    wins = (pos[:, None] > neg[None, :]).sum() \
        + 0.5 * (pos[:, None] == neg[None, :]).sum()
    predicted = pred == 1.0
    diag_lo = np.tril_indices(a_true.shape[0], k=0)
    return {
        "accuracy": float((a_true == a_hat).sum()) / a_true.size,
        "auc": float(wins) / (pos.size * neg.size),
        "ap": float((predicted & (truth == 1.0)).sum()) / predicted.sum(),
        "mae": float(np.abs(a_true - a_hat)[diag_lo].mean()),
    }


def _agree(name, got, want, problems):
    if got is None or abs(got - want) > SCORE_TOL * max(1.0, abs(want)):
        problems.append(f"glg {name} {got!r} != own {want!r}")


def _check_adjacency(inst, out, problems):
    a = inst.graph.adjacency
    if out["adjacency"] is None or not np.array_equal(out["adjacency"], a):
        problems.append("thresholded adjacency differs from the truth")
        return
    own = own_adjacency_scores(a, out["adjacency"], out["adjacency_prob"])
    for key, want in own.items():
        _agree(key, getattr(out["score"], key), want, problems)


def check_node1_tree(inst, out):
    problems = []
    truth = inst.graph.features[inst.target]
    if out["label"] != int(inst.graph.labels[inst.target]):
        problems.append(f"label {out['label']} != "
                        f"{inst.graph.labels[inst.target]}")
    err = own_rnmse(truth, out["target_feature"])
    if not err <= RNMSE_BOUND:
        problems.append(f"target RNMSE {err:.3e} > {RNMSE_BOUND}")
    _agree("rnmse", out["rnmse"], err, problems)
    return problems


def check_node2a_gcn(inst, out):
    problems = []
    if not np.array_equal(out["labels"], inst.graph.labels):
        problems.append(f"labels {out['labels']} != {inst.graph.labels}")
    want = gcn_normalized(inst.graph.adjacency)
    err = float(np.abs(out["anorm"] - want).max())
    if not err <= ANORM_TOL:
        problems.append(f"closed-form adjacency error {err:.3e} > {ANORM_TOL}")
    _agree("rnmse", out["anorm_rnmse"], own_rnmse(want, out["anorm"]),
           problems)
    _check_adjacency(inst, out, problems)
    return problems


def check_graph_a_sage(inst, out):
    problems = []
    if list(out["labels"]) != [inst.graph.graph_label]:
        problems.append(f"label {out['labels']} != {inst.graph.graph_label}")
    _check_adjacency(inst, out, problems)
    return problems


# name -> (numeric id mixed into the seed, make, run, check)
WORKLOADS = {
    "node1_tree": (1, make_node1_tree, run_node1_tree, check_node1_tree),
    "node2a_gcn": (2, make_node2a_gcn, run_node2a_gcn, check_node2a_gcn),
    "graph_a_sage": (3, make_graph_a_sage, run_graph_a_sage,
                     check_graph_a_sage),
}


def make_instance(name, seed):
    """The workload's instance for ``seed``; the same seed gives the same one."""
    wid, make, _, _ = WORKLOADS[name]
    seed &= (1 << 64) - 1
    rng = np.random.Generator(np.random.PCG64(
        np.random.SeedSequence([wid, seed, 0])))
    return make(rng, (wid, seed, 1))
