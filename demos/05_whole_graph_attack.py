"""Whole-graph attacks and what the regularizers buy.

A graph classifier leaks a single gradient for the entire sample, so
recovery is harder than the per-node setting. On sparse graphs whose
feature matrix is rank-deficient, the smoothness and Frobenius penalties
decide how many spurious edges survive; the ablation below reruns the same
seeds with the regularizers switched off.
"""
import numpy as np

from glg import (
    AttackSpec,
    Graph,
    attack_graph,
    average_precision,
    init_params,
    leak,
    make_rng,
    rnmse_per_row,
    score_adjacency,
    synthetic_graph,
)

rng = make_rng(3)
base = synthetic_graph(rng, 8, 3, 16)
g = Graph(adjacency=base.adjacency, features=base.features,
          graph_label=int(rng.integers(0, 3)))
params = init_params(rng, "sage", "graph", 16, 24, 3, num_nodes=8)
record = leak(params, g, "graph")

spec = AttackSpec(scenario="graph_a", iterations=1500, finalization="threshold",
                  init="constant", init_value=1.0)
res = attack_graph(record, spec, params, known_features=g.features, rng=rng)
sc = score_adjacency(g.adjacency, res.adjacency, res.adjacency_prob)
print(f"features known  -> structure: ACC {sc.accuracy:.2f} AUC {sc.auc:.2f} "
      f"AP {sc.ap:.2f}")

spec = AttackSpec(scenario="graph_b", iterations=1500)
res = attack_graph(record, spec, params, known_adjacency=g.adjacency, rng=rng)
print(f"structure known -> features:  RNMSE "
      f"{rnmse_per_row(g.features, res.features):.1e}")

print("\nregularizer ablation (GCN, sparse graphs, rank-deficient features):")
for alpha, beta, tag in ((1e-9, 1e-7, "with regularizers"),
                         (0.0, 0.0, "without          ")):
    aps = []
    for seed in range(5):
        r = make_rng(5000 + seed)
        b = synthetic_graph(r, 16, 2, 8)
        gg = Graph(adjacency=b.adjacency, features=b.features,
                   graph_label=int(r.integers(0, 2)))
        p = init_params(r, "gcn", "graph", 8, 24, 2, num_nodes=16)
        rec = leak(p, gg, "graph")
        s = AttackSpec(scenario="graph_a", iterations=800, alpha=alpha,
                       beta=beta, init="gaussian")
        out = attack_graph(rec, s, p, known_features=gg.features,
                           rng=make_rng(seed))
        try:
            aps.append(average_precision(gg.adjacency, out.adjacency))
        except Exception:
            aps.append(0.0)
    print(f"  {tag}: mean AP {np.mean(aps):.3f}")
