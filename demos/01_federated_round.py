"""A federated round from the attacker's vantage point.

Three clients hold private subgraphs, each computes per-sample gradients
for a shared node classifier, and the server averages them into one SGD
step. The point of interest: everything the server handles is a
GradientBundle, and those bundles are exactly what the attacks consume.
"""
import numpy as np

from glg import (
    ClientShard,
    aggregate_and_step,
    client_gradients,
    init_params,
    leak,
    make_rng,
    synthetic_graph,
)

rng = make_rng(0)

params = init_params(rng, "sage", "node", feature_dim=10, hidden_dim=32,
                     num_classes=4)

clients = []
for cid in range(3):
    g = synthetic_graph(rng, 30, 4, 10, num_classes=4)
    targets = rng.choice(30, size=4, replace=False)
    clients.append(ClientShard(client_id=cid, graph=g, targets=targets))

print("computing per-sample gradients on each client...")
per_client = [client_gradients(params, shard, range(4)) for shard in clients]

updated, rnd = aggregate_and_step(params, per_client, learning_rate=0.1)
print(f"round {rnd.round_index}: {rnd.batch_size} samples from "
      f"{rnd.num_clients} clients averaged")
for name in params.param_names:
    delta = np.abs(updated.tensors[name] - params.tensors[name]).max()
    print(f"  {name:12s} grad-norm {np.linalg.norm(rnd.averaged.tensors[name]):.4f} "
          f"max param change {delta:.5f}")

# What a curious server actually sees for one client sample:
record = leak(params, clients[0].graph, "node1",
              targets=[int(clients[0].targets[0])])
print("\nleaked record for one sample:")
for name, grad in record.bundle.tensors.items():
    print(f"  {name:12s} shape {grad.shape}")
print("note: no features, no adjacency, no labels -- only gradients.")
