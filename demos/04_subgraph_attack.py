"""Subgraph attacks: per-node gradients against partial prior knowledge.

One scenario per level of attacker knowledge. Known features -> recover
the structure; known structure -> recover the features; neither -> recover
both. All three match the first-layer inputs that the per-node gradients
give in closed form, by one objective; only the optimized variables
change.
"""
import numpy as np

from glg import (
    AttackSpec,
    attack_node2,
    init_params,
    leak,
    make_rng,
    rnmse_per_row,
    score_adjacency,
    synthetic_graph,
)

rng = make_rng(7)
g = synthetic_graph(rng, 8, 3, 16, num_classes=3)   # D >= N keeps X full row rank
params = init_params(rng, "sage", "node", 16, 32, 3)
record = leak(params, g, "node2")
print(f"leak: {len(record.bundles)} per-node gradient bundles\n")

spec_a = AttackSpec(scenario="node2a", iterations=1500,
                    finalization="threshold", init="constant", init_value=1.0)
res = attack_node2(record, spec_a, params, known_features=g.features, rng=rng)
sc = score_adjacency(g.adjacency, res.adjacency, res.adjacency_prob)
print(f"features known  -> structure: ACC {sc.accuracy:.2f} "
      f"AUC {sc.auc:.2f} AP {sc.ap:.2f}")

spec_b = AttackSpec(scenario="node2b", iterations=1500)
res = attack_node2(record, spec_b, params, known_adjacency=g.adjacency, rng=rng)
print(f"structure known -> features:  RNMSE {rnmse_per_row(g.features, res.features):.1e}")

spec_c = AttackSpec(scenario="node2c", iterations=1500,
                    finalization="threshold")
res = attack_node2(record, spec_c, params, rng=rng)
sc = score_adjacency(g.adjacency, res.adjacency, res.adjacency_prob)
print(f"nothing known   -> both:      RNMSE "
      f"{rnmse_per_row(g.features, res.features):.1e}, ACC {sc.accuracy:.2f} "
      f"AUC {sc.auc:.2f} AP {sc.ap:.2f}")
print(f"                   labels inferred from gradients: "
      f"{np.array_equal(res.labels, g.labels)}")
