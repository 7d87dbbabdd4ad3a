"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run as ``pytest tests/test_acceptance.py -v -s`` (or via ``glg selftest``
for the property subset). Every tolerance is pinned here; the runtime
budgets are asserted alongside the numeric targets.
"""

import itertools
import json
import os
import subprocess
import sys
import time

import numpy as np

import glg
from glg import (
    attacks,
    closed_form,
    federated,
    graphs,
    metrics,
    models,
    numkit,
    selftest,
)


def report(num, name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def test_01_gradient_exactness():
    start = time.perf_counter()
    checked, worst, failures = selftest.check_gradients(instances_per_combo=200)
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 30.0
    report(1, "gradient exactness", ok,
           f"{checked} coordinates, worst rel err {worst:.2e}, "
           f"{failures} failures, {elapsed:.1f}s")


def test_02_label_inference():
    start = time.perf_counter()
    failures = selftest.check_label_inference(instances=1000)
    elapsed = time.perf_counter() - start
    ok = failures == 0 and elapsed < 10.0
    report(2, "label inference", ok,
           f"{failures} failures over 2000 instances, {elapsed:.1f}s")


def test_03_closed_form_feature_recovery():
    start = time.perf_counter()
    worst = selftest.check_closed_form(instances=100)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-8 and elapsed < 10.0
    report(3, "closed-form feature recovery", ok,
           f"worst relative error {worst:.2e} over 100 instances/framework, "
           f"{elapsed:.1f}s")


def _random_egonet(r, max_nodes, feature_dim):
    host = graphs.synthetic_graph(r, 24, 2, feature_dim, num_classes=3)
    center = int(r.integers(0, host.num_nodes))
    ego, _ = graphs.khop_egonet(host, center, 1)
    if ego.num_nodes > max_nodes:
        ego, _ = graphs.khop_egonet(host, center, 0)
    return ego


def test_04_subgraph_analytic_recoveries():
    start = time.perf_counter()
    worst_anorm = worst_x = worst_both_x = worst_both_a = 0.0
    done_a = done_b = done_both = 0
    seed = 0
    while min(done_a, done_b, done_both) < 50 and seed < 1000:
        seed += 1
        r = numkit.make_rng(40_000 + seed)
        ego = _random_egonet(r, 12, 14)

        params = models.init_params(r, "gcn", "node", 14, 6, 3)
        anorm = graphs.normalize_adjacency(ego, "gcn").matrix
        record = federated.leak(params, ego, "node2")
        aggs = np.vstack([closed_form.recover_agg_features(b, "gcn")
                          for b in record.bundles])
        if done_a < 50:
            rec = closed_form.recover_adjacency_given_features(aggs, ego.features)
            worst_anorm = max(worst_anorm, np.abs(rec.matrix - anorm).max())
            done_a += 1

        s = np.linalg.svd(anorm, compute_uv=False)
        if done_b < 50 and s[-1] / s[0] > 1e-8:
            rec_x = closed_form.recover_features_given_adjacency(aggs, anorm)
            worst_x = max(worst_x, np.abs(rec_x.matrix - ego.features).max())
            done_b += 1

        if done_both < 50:
            params = models.init_params(r, "sage", "node", 14, 6, 3)
            anorm = graphs.normalize_adjacency(ego, "sage-mean").matrix
            record = federated.leak(params, ego, "node2")
            x, rec = closed_form.recover_both_sage(record.bundles)
            worst_both_x = max(worst_both_x, np.abs(x - ego.features).max())
            worst_both_a = max(worst_both_a, np.abs(rec.matrix - anorm).max())
            done_both += 1
    elapsed = time.perf_counter() - start
    ok = (done_a >= 50 and done_b >= 50 and done_both >= 50
          and worst_anorm < 1e-6 and worst_x < 1e-6
          and worst_both_x < 1e-6 and worst_both_a < 1e-6
          and elapsed < 30.0)
    report(4, "subgraph analytic recoveries", ok,
           f"structure err {worst_anorm:.2e}, feature err {worst_x:.2e}, "
           f"joint errs {worst_both_x:.2e}/{worst_both_a:.2e} "
           f"({done_a}/{done_b}/{done_both} instances), {elapsed:.1f}s")


def test_05_graph_task_analytic_chain():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        r = numkit.make_rng(50_000 + seed)
        n = int(r.integers(2, 9))
        d = n + int(r.integers(2, 6))
        f = n + int(r.integers(2, 6))
        g0 = graphs.er_graph(r, n, 0.5, d)
        g = graphs.Graph(adjacency=g0.adjacency, features=g0.features,
                         graph_label=int(r.integers(0, 3)))
        params = models.init_params(r, "sage", "graph", d, f, 3, num_nodes=n)
        anorm = graphs.normalize_adjacency(g, "sage-mean").matrix
        record = federated.leak(params, g, "graph")
        rec = closed_form.recover_adjacency_graph_sage(record.bundle, g.features)
        worst = max(worst, np.abs(rec.matrix - anorm).max())

    # low-rank binary-feature regime must warn instead of silently failing
    r = numkit.make_rng(51_000)
    n, d, f = 12, 5, 16
    x = (r.random((n, d)) < 0.5).astype(np.float64)
    g0 = graphs.er_graph(r, n, 0.3, d)
    g = graphs.Graph(adjacency=g0.adjacency, features=x, graph_label=0)
    params = models.init_params(r, "sage", "graph", d, f, 2, num_nodes=n)
    record = federated.leak(params, g, "graph")
    rec = closed_form.recover_adjacency_graph_sage(record.bundle, g.features)
    warned = rec.warning is not None
    elapsed = time.perf_counter() - start
    ok = worst < 1e-6 and warned and elapsed < 30.0
    report(5, "graph-task analytic chain", ok,
           f"worst entry err {worst:.2e} over 50 instances, low-rank warning="
           f"{warned}, {elapsed:.1f}s")


def test_06_target_feature_attack():
    start = time.perf_counter()
    errs = []
    for seed in range(20):
        r = numkit.make_rng(9000 + seed)
        g = graphs.synthetic_graph(r, 50, 4, 10, num_classes=4)
        params = models.init_params(r, "sage", "node", 10, 100, 4)
        target = int(r.integers(0, 50))
        record = federated.leak(params, g, "node1", targets=[target])
        spec = attacks.AttackSpec(scenario="node1", iterations=2000,
                                  d_tree=10, seed=seed)
        res = attacks.attack_node1(record, spec, params, rng=r)
        errs.append(metrics.rnmse(g.features[target], res.target_feature))
    elapsed = time.perf_counter() - start
    mean = float(np.mean(errs))
    ok = mean <= 1e-2 and elapsed < 300.0
    report(6, "iterative target-feature attack", ok,
           f"mean RNMSE {mean:.2e} (max {np.max(errs):.2e}) over 20 seeds, "
           f"{elapsed:.0f}s")


def _min_degree_one(r, n, deg, d, k=None):
    # egonet-style subgraphs have no isolated nodes; a zero row would make
    # the mean-normalized operator degenerate
    while True:
        g = graphs.synthetic_graph(r, n, deg, d, num_classes=k)
        if np.all(g.degrees() >= 1):
            return g


def test_07_perfect_structure_recovery():
    start = time.perf_counter()
    perfect = True
    scores = []
    for seed in range(10):
        r = numkit.make_rng(70_000 + seed)
        g = _min_degree_one(r, 8, 3, 16, 3)
        params = models.init_params(r, "sage", "node", 16, 20, 3)
        record = federated.leak(params, g, "node2")
        spec = attacks.AttackSpec(scenario="node2a", iterations=2000,
                                  finalization="threshold", init="constant",
                                  init_value=1.0, seed=seed)
        res = attacks.attack_node2(record, spec, params,
                                   known_features=g.features, rng=r)
        sc = metrics.score_adjacency(g.adjacency, res.adjacency,
                                     res.adjacency_prob)
        scores.append((sc.accuracy, sc.auc, sc.ap))
        perfect &= sc.accuracy == 1.0 and sc.auc == 1.0 and sc.ap == 1.0

    for seed in range(10):
        r = numkit.make_rng(71_000 + seed)
        g0 = _min_degree_one(r, 8, 3, 16)
        g = graphs.Graph(adjacency=g0.adjacency, features=g0.features,
                         graph_label=int(r.integers(0, 3)))
        params = models.init_params(r, "sage", "graph", 16, 20, 3, num_nodes=8)
        record = federated.leak(params, g, "graph")
        spec = attacks.AttackSpec(scenario="graph_a", iterations=2000,
                                  finalization="threshold", init="constant",
                                  init_value=1.0, seed=seed)
        res = attacks.attack_graph(record, spec, params,
                                   known_features=g.features, rng=r)
        sc = metrics.score_adjacency(g.adjacency, res.adjacency,
                                     res.adjacency_prob)
        scores.append((sc.accuracy, sc.auc, sc.ap))
        perfect &= sc.accuracy == 1.0 and sc.auc == 1.0 and sc.ap == 1.0
    elapsed = time.perf_counter() - start
    ok = perfect and elapsed < 300.0
    worst = min(min(t) for t in scores)
    report(7, "perfect structure recovery", ok,
           f"ACC=AUC=AP=1.0 on all 20 runs (worst score {worst}), {elapsed:.0f}s")


def _batched_mean(batch_size, seeds):
    means = []
    for seed in range(seeds):
        r = numkit.make_rng(7000 + seed)
        g = graphs.synthetic_graph(r, 50, 4, 10, num_classes=4)
        params = models.init_params(r, "sage", "node", 10, 100, 4)
        targets = r.choice(50, size=batch_size, replace=False)
        record = federated.leak(params, g, "batched-node", targets=targets)
        spec = attacks.AttackSpec(scenario="node1", iterations=2000, d_tree=5,
                                  seed=seed)
        results = attacks.attack_batched(record, spec, params,
                                         labels=g.labels[targets], rng=r)
        ms = metrics.batch_match_score([g.features[t] for t in targets],
                                       [res.target_feature for res in results])
        means.append(ms.mean)
    return float(np.mean(means))


def test_08_batched_attack():
    start = time.perf_counter()
    mean5 = _batched_mean(5, 10)
    mean50 = _batched_mean(50, 10)
    elapsed = time.perf_counter() - start
    ok = mean5 <= 5e-3 and mean50 >= mean5 and elapsed < 600.0
    report(8, "batched attack", ok,
           f"matched RNMSE mean B=5 {mean5:.2e}, B=50 {mean50:.2e}, "
           f"{elapsed:.0f}s")


def test_09_regularizer_ablation():
    start = time.perf_counter()
    aps = {True: [], False: []}
    for seed in range(10):
        r = numkit.make_rng(5000 + seed)
        g0 = graphs.synthetic_graph(r, 16, 2, 8)
        g = graphs.Graph(adjacency=g0.adjacency, features=g0.features,
                         graph_label=int(r.integers(0, 2)))
        params = models.init_params(r, "gcn", "graph", 8, 24, 2, num_nodes=16)
        record = federated.leak(params, g, "graph")
        for with_reg in (True, False):
            spec = attacks.AttackSpec(
                scenario="graph_a", iterations=800,
                alpha=1e-9 if with_reg else 0.0,
                beta=1e-7 if with_reg else 0.0,
                seed=seed, finalization="bernoulli", init="gaussian")
            res = attacks.attack_graph(record, spec, params,
                                       known_features=g.features)
            try:
                ap = metrics.average_precision(g.adjacency, res.adjacency)
            except Exception:
                ap = 0.0
            aps[with_reg].append(ap)
    elapsed = time.perf_counter() - start
    mean_reg = float(np.mean(aps[True]))
    mean_none = float(np.mean(aps[False]))
    ok = mean_reg >= mean_none
    report(9, "regularizer ablation", ok,
           f"mean AP with regularizers {mean_reg:.4f} vs without "
           f"{mean_none:.4f} over 10 seeds, {elapsed:.0f}s")


def test_10_metric_oracles():
    start = time.perf_counter()
    ok = True

    # AUC vs brute-force pair ordering, N <= 6
    for seed in range(40):
        r = numkit.make_rng(10_000 + seed)
        n = int(r.integers(3, 7))
        a = np.zeros((n, n))
        iu = np.triu_indices(n, k=1)
        a[iu] = (r.random(len(iu[0])) < 0.5).astype(np.float64)
        a = a + a.T
        il = np.tril_indices(n, k=-1)
        if a[il].sum() in (0, len(il[0])):
            continue
        scores = np.zeros((n, n))
        scores[il] = np.round(r.random(len(il[0])), 1)
        labels, vals = a[il], scores[il]
        total = sum(1.0 if p > q else (0.5 if p == q else 0.0)
                    for p in vals[labels == 1] for q in vals[labels == 0])
        want = total / ((labels == 1).sum() * (labels == 0).sum())
        ok &= abs(metrics.auc(a, scores) - want) < 1e-12

    # Hungarian vs exhaustive minimum, n <= 6
    for seed in range(10):
        r = numkit.make_rng(11_000 + seed)
        n = int(r.integers(2, 7))
        cost = r.standard_normal((n, n))
        perm = numkit.hungarian_assign(cost)
        got = cost[np.arange(n), perm].sum()
        best = min(cost[np.arange(n), list(p)].sum()
                   for p in itertools.permutations(range(n)))
        ok &= got <= best + 1e-12

    # hand formulas
    ok &= metrics.mae_lower_tri(np.zeros((2, 2)),
                                np.array([[0.0, 0.0], [1.0, 0.0]])) == 1 / 3
    path = np.array([[0.0, 1.0], [1.0, 0.0]])
    ok &= metrics.adjacency_accuracy(path, np.zeros((2, 2))) == 0.5
    ok &= metrics.rnmse(np.array([3.0, 4.0]), np.array([3.0, 0.0])) == 4 / 5
    ok &= metrics.rnmse(np.array([3.0, 4.0]), np.zeros(2)) == 1.0

    elapsed = time.perf_counter() - start
    ok &= elapsed < 10.0
    report(10, "metric oracles", ok, f"AUC/assignment/hand-formula oracles "
                                     f"all matched, {elapsed:.1f}s")


def test_11_cli_determinism(tmp_path):
    config = {
        "scenario": "node2a",
        "framework": "sage",
        "hidden_dim": 12,
        "dataset": {"source": "synthetic", "n": 7, "avg_degree": 2,
                    "feature_dim": 14, "num_classes": 3},
        "attack": {"iterations": 200, "finalization": "threshold",
                   "init": "constant", "init_value": 1.0},
        "egonet_hops": None,
        "repeats": 2,
        "seed": 5,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(config))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(glg.__file__))
    outs = []
    for name in ("a", "b"):
        proc = subprocess.run(
            [sys.executable, "-m", "glg.cli", "attack", "--config", str(cfg),
             "--out", str(tmp_path / name)],
            capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outs.append((tmp_path / name / "report.csv").read_bytes())
    ok = outs[0] == outs[1]
    report(11, "report determinism", ok,
           f"two identical runs produced byte-identical reports "
           f"({len(outs[0])} bytes)")
