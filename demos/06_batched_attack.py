"""Does batching protect the data? Recovery quality vs batch size.

The server only sees the average gradient over B samples, so the attack
optimizes B dummy trees jointly until their averaged gradient matches.
Recovered samples come back in arbitrary order; assignment matching pairs
them with the truth before scoring. Averaging over more samples blurs the
signal, but small batches barely help.
"""
from glg import (
    AttackSpec,
    attack_batched,
    batch_match_score,
    init_params,
    leak,
    make_rng,
    synthetic_graph,
)

for batch_size in (1, 5, 20):
    rng = make_rng(200 + batch_size)
    g = synthetic_graph(rng, 50, 4, 10, num_classes=4)
    params = init_params(rng, "sage", "node", 10, 100, 4)
    targets = rng.choice(50, size=batch_size, replace=False)
    record = leak(params, g, "batched-node", targets=targets)

    spec = AttackSpec(scenario="node1", iterations=2000, d_tree=5)
    results = attack_batched(record, spec, params, labels=g.labels[targets],
                             rng=rng)
    score = batch_match_score([g.features[t] for t in targets],
                              [r.target_feature for r in results])
    print(f"B={batch_size:2d}: matched RNMSE mean {score.mean:.2e} "
          f"min {score.min:.2e}")
