"""Self-contained property suites: gradient exactness and closed-form recovery.

These run both under pytest and from the command line. The gradient checks
compare every hand-derived derivative coordinate against central finite
differences of a plain re-evaluation of the loss; the recovery checks
exercise the closed-form recovery operators on freshly generated instances.
"""

import numpy as np

from . import closed_form
from .federated import leak
from .graphs import normalize_dense, synthetic_graph
from .models import (
    backward_graph,
    backward_node,
    forward_graph,
    forward_node,
    graph_input_grads,
    infer_label,
    init_params,
    node_input_grads,
)
from .numkit import make_rng

__all__ = [
    "check_closed_form",
    "check_gradients",
    "check_label_inference",
    "finite_difference",
    "run_all",
]

REL_TOL = 1e-5
ABS_TOL = 1e-7


def finite_difference(f, arr, eps=1e-5):
    """Central-difference gradient of scalar ``f()`` w.r.t. ``arr`` in place."""
    grad = np.zeros_like(arr)
    flat = arr.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        old = flat[i]
        flat[i] = old + eps
        fp = f()
        flat[i] = old - eps
        fm = f()
        flat[i] = old
        gflat[i] = (fp - fm) / (2.0 * eps)
    return grad


def _max_mismatch(got, want):
    """Largest relative error, absolute near zero."""
    scale = np.maximum(np.abs(want), ABS_TOL / REL_TOL)
    return float(np.max(np.abs(got - want) / scale)) if got.size else 0.0


def _node_loss(params, x, anorm, target, label):
    t = params.tensors
    pre = (anorm @ x) @ t["conv1_agg"].T + t["conv1_bias"]
    if "conv1_self" in t:
        pre = pre + x @ t["conv1_self"].T
    hidden = 1.0 / (1.0 + np.exp(-pre))
    logits = hidden[target] @ t["out_weight"].T + t["out_bias"]
    z = logits - logits.max()
    return float(np.log(np.exp(z).sum()) - z[label])


def _graph_loss(params, x, anorm, label):
    t = params.tensors
    pre1 = (anorm @ x) @ t["conv1_agg"].T + t["conv1_bias"]
    if "conv1_self" in t:
        pre1 = pre1 + x @ t["conv1_self"].T
    h1 = 1.0 / (1.0 + np.exp(-pre1))
    pre2 = (anorm @ h1) @ t["conv2_agg"].T + t["conv2_bias"]
    if "conv2_self" in t:
        pre2 = pre2 + h1 @ t["conv2_self"].T
    h2 = 1.0 / (1.0 + np.exp(-pre2))
    logits = h2.reshape(-1) @ t["mlp_weight"].T + t["mlp_bias"]
    z = logits - logits.max()
    return float(np.log(np.exp(z).sum()) - z[label])


def _random_instance(rng, framework, task):
    n = int(rng.integers(2, 9))
    d = int(rng.integers(1, 7))
    f = int(rng.integers(1, 6))
    k = int(rng.integers(2, 5))
    deg = min(n - 1, 2)
    g = synthetic_graph(rng, n, deg, d, num_classes=k)
    num_nodes = n if task == "graph" else None
    params = init_params(rng, framework, task, d, f, k, num_nodes=num_nodes)
    anorm = normalize_dense(g.adjacency, params.norm_mode)
    return g, params, anorm


def check_gradients(instances_per_combo=200, seed=0):
    """FD-check every gradient coordinate over random instances.

    Checks the parameter bundle of ``backward_*`` and the feature and
    normalized-adjacency gradients of ``*_input_grads``. Returns
    (checked_coordinates, worst_relative_error, failures).
    """
    rng = make_rng(seed)
    worst = 0.0
    failures = 0
    checked = 0
    for framework in ("gcn", "sage"):
        for task in ("node", "graph"):
            for _ in range(instances_per_combo):
                g, params, anorm = _random_instance(rng, framework, task)
                x = g.features.copy()
                if task == "node":
                    target = int(rng.integers(0, g.num_nodes))
                    label = int(g.labels[target])
                    trace = forward_node(params, x, anorm, target, label)
                    bundle = backward_node(params, trace)
                    xbar, abar = node_input_grads(trace, params)
                    def loss():
                        return _node_loss(params, x, anorm, target, label)
                else:
                    label = int(rng.integers(0, params.num_classes))
                    trace = forward_graph(params, x, anorm, label)
                    bundle = backward_graph(params, trace)
                    xbar, abar = (a[0] for a in graph_input_grads(trace, params))
                    def loss():
                        return _graph_loss(params, x, anorm, label)

                pairs = [(bundle.tensors[k], params.tensors[k])
                         for k in params.param_names]
                pairs += [(xbar, x), (abar, anorm)]
                for got, var in pairs:
                    fd = finite_difference(loss, var)
                    err = _max_mismatch(got, fd)
                    worst = max(worst, err)
                    checked += got.size
                    if err >= REL_TOL:
                        failures += 1
    return checked, worst, failures


def check_label_inference(instances=1000, seed=1):
    """Exact label extraction from final-layer gradients; returns failure count."""
    rng = make_rng(seed)
    failures = 0
    for task in ("node", "graph"):
        for _ in range(instances):
            framework = ("gcn", "sage")[int(rng.integers(0, 2))]
            k = int(rng.integers(2, 11))
            n = int(rng.integers(2, 8))
            d = int(rng.integers(1, 5))
            f = int(rng.integers(1, 5))
            g = synthetic_graph(rng, n, min(n - 1, 2), d, num_classes=k)
            num_nodes = n if task == "graph" else None
            params = init_params(rng, framework, task, d, f, k,
                                 num_nodes=num_nodes)
            anorm = normalize_dense(g.adjacency, params.norm_mode)
            if task == "node":
                target = int(rng.integers(0, n))
                label = int(g.labels[target])
                trace = forward_node(params, g.features, anorm, target, label)
                bundle = backward_node(params, trace)
            else:
                label = int(rng.integers(0, k))
                trace = forward_graph(params, g.features, anorm, label)
                bundle = backward_graph(params, trace)
            try:
                if infer_label(bundle) != label:
                    failures += 1
            except Exception:
                failures += 1
    return failures


def _rel_err(truth, got):
    """Relative vector error; absolute once the truth is (near) zero."""
    denom = np.linalg.norm(truth)
    diff = np.linalg.norm(truth - got)
    return diff if denom < 1e-12 else diff / denom


def check_closed_form(instances=100, seed=2):
    """Closed-form recoveries on real bundles; returns the worst relative error."""
    rng = make_rng(seed)
    worst = 0.0
    for framework in ("gcn", "sage"):
        for _ in range(instances):
            n = int(rng.integers(2, 9))
            d = n + int(rng.integers(0, 5))
            f = int(rng.integers(2, 7))
            k = int(rng.integers(2, 5))
            g = synthetic_graph(rng, n, min(n - 1, 2), d, num_classes=k)
            params = init_params(rng, framework, "node", d, f, k)
            anorm = normalize_dense(g.adjacency, params.norm_mode)
            agg_true = anorm @ g.features
            record = leak(params, g, "node2")
            for i, b in enumerate(record.bundles):
                agg = closed_form.recover_agg_features(b, framework)
                worst = max(worst, _rel_err(agg_true[i], agg))
                if framework == "sage":
                    xv = closed_form.recover_target_features(b)
                    worst = max(worst, _rel_err(g.features[i], xv))
    return worst


def run_all(fast=False):
    """Run all suites, printing one line each; returns True when all pass."""
    n_grad = 25 if fast else 200
    n_label = 100 if fast else 1000
    n_prop = 20 if fast else 100
    ok = True

    checked, worst, failures = check_gradients(n_grad)
    line = (f"gradient-exactness: {checked} coordinates, worst rel err "
            f"{worst:.2e}, {failures} failures")
    ok &= failures == 0
    print(("PASS " if failures == 0 else "FAIL ") + line)

    failures = check_label_inference(n_label)
    ok &= failures == 0
    print(("PASS " if failures == 0 else "FAIL ")
          + f"label-inference: {failures} failures over {2 * n_label} instances")

    worst = check_closed_form(n_prop)
    passed = worst < 1e-8
    ok &= passed
    print(("PASS " if passed else "FAIL ")
          + f"closed-form recovery: worst relative error {worst:.2e}")
    return ok
