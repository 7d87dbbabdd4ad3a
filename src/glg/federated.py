"""Federated gradient exchange, simulated in-process.

Clients hold private shards (a subgraph with target nodes, or a list of
graphs), compute per-sample gradients, and the server averages them and
takes an SGD step. The :func:`leak` surface exposes exactly what an
honest-but-curious server observes in each attack scenario: gradient
tensors only, never raw features, adjacency or labels.
"""

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

from .errors import ShapeError
from .graphs import Graph, normalize_adjacency
from .models import (
    GradientBundle,
    ModelParams,
    check_labels,
    graph_bundles,
    graph_ctx,
    node_bundles,
    node_ctx,
)

__all__ = [
    "ClientShard",
    "FedRound",
    "LeakRecord",
    "aggregate_and_step",
    "client_gradients",
    "leak",
]

LEAK_SCENARIOS = ("node1", "node2", "graph", "batched-node", "batched-graph")


@dataclass
class ClientShard:
    """One client's private data: a graph with targets, or a list of graphs."""

    client_id: int
    graph: Optional[Graph] = None
    targets: Optional[np.ndarray] = None
    graphs: Optional[List[Graph]] = None

    def __post_init__(self):
        if self.graph is not None:
            if self.targets is None:
                raise ShapeError("node shard needs target indices")
            self.targets = np.asarray(self.targets, dtype=np.int64)
            if np.any(self.targets < 0) or np.any(self.targets >= self.graph.num_nodes):
                raise ShapeError("shard target out of range")
        elif not self.graphs:
            raise ShapeError("shard holds neither a graph nor a graph list")


@dataclass
class FedRound:
    """Record of one aggregation round."""

    round_index: int
    batch_size: int
    num_clients: int
    learning_rate: float
    client_bundles: List[List[GradientBundle]]
    averaged: GradientBundle


@dataclass
class LeakRecord:
    """What the server sees for one attack scenario: gradients only."""

    scenario: str
    bundles: List[GradientBundle] = field(default_factory=list)
    batch_size: int = 1

    @property
    def bundle(self):
        if len(self.bundles) != 1:
            raise ShapeError(f"leak holds {len(self.bundles)} bundles, not one")
        return self.bundles[0]


def _node_stacks(params, g, targets):
    """Per-sample gradient stacks for target nodes of one labeled graph."""
    anorm = normalize_adjacency(g, params.norm_mode).matrix
    if g.labels is None:
        raise ShapeError("node-task graph carries no labels")
    targets = np.asarray(targets, dtype=np.int64)
    labels = check_labels(g.labels[targets], params.num_classes)
    ctx = node_ctx(params, g.features, anorm, targets, labels)
    return node_bundles(ctx, params)


def _node_sample_bundle(params, g, target):
    stacks = _node_stacks(params, g, [target])
    return GradientBundle(tensors={k: v[0] for k, v in stacks.items()})


def _graph_sample_bundle(params, g):
    anorm = normalize_adjacency(g, params.norm_mode).matrix
    if g.graph_label is None:
        raise ShapeError("graph-task sample carries no graph label")
    labels = check_labels(g.graph_label, params.num_classes)
    ctx = graph_ctx(params, g.features[None], anorm, labels)
    stacks = graph_bundles(ctx, params)
    return GradientBundle(tensors={k: v[0] for k, v in stacks.items()})


def _graph_batch_stacks(params, gs):
    """Per-sample gradient stacks for a batch of equally sized graphs."""
    for g in gs:
        if g.graph_label is None:
            raise ShapeError("graph-task sample carries no graph label")
    anorm = np.stack(
        [normalize_adjacency(g, params.norm_mode).matrix for g in gs]
    )
    x = np.stack([g.features for g in gs])
    labels = check_labels([g.graph_label for g in gs], params.num_classes)
    ctx = graph_ctx(params, x, anorm, labels)
    return graph_bundles(ctx, params)


def client_gradients(params, shard, batch_indices):
    """One gradient bundle per selected sample of a shard."""
    bundles = []
    for idx in batch_indices:
        if params.task == "node":
            if shard.graph is None:
                raise ShapeError("node task but shard holds graphs")
            bundles.append(
                _node_sample_bundle(params, shard.graph, int(shard.targets[idx]))
            )
        else:
            if shard.graphs is None:
                raise ShapeError("graph task but shard holds a node graph")
            bundles.append(_graph_sample_bundle(params, shard.graphs[idx]))
    return bundles


def average_bundles(bundles):
    """Arithmetic mean of congruent gradient bundles."""
    if not bundles:
        raise ShapeError("cannot average zero bundles")
    names = bundles[0].param_names
    for b in bundles[1:]:
        if b.param_names != names:
            raise ShapeError("bundles are not congruent")
    mean = {
        k: sum(b.tensors[k] for b in bundles) / float(len(bundles)) for k in names
    }
    return GradientBundle(tensors=mean)


def aggregate_and_step(params, client_bundles, learning_rate, round_index=0):
    """Average all per-sample bundles and apply one SGD step.

    ``client_bundles`` is a list (over clients, in client-id order) of lists
    of per-sample bundles. Returns the updated parameters and the round
    record; the input parameters are not mutated.
    """
    flat = [b for per_client in client_bundles for b in per_client]
    averaged = average_bundles(flat)
    updated = params.copy()
    for k in updated.param_names:
        updated.tensors[k] = updated.tensors[k] - learning_rate * averaged.tensors[k]
    record = FedRound(
        round_index=round_index,
        batch_size=len(flat) // max(len(client_bundles), 1),
        num_clients=len(client_bundles),
        learning_rate=learning_rate,
        client_bundles=client_bundles,
        averaged=averaged,
    )
    return updated, record


def leak(params, data, scenario, targets=None, combine="per-node"):
    """Produce the gradient exposure for one attack scenario.

    node1: the single bundle of one target node (``targets`` holds it).
    node2: one bundle per node of the (sub)graph, each node its own loss;
    ``combine="summed"`` collapses them into one summed bundle instead.
    graph: the bundle of one graph sample. batched-node / batched-graph:
    the average over the batch (``targets`` / list order defines it).
    """
    if scenario not in LEAK_SCENARIOS:
        raise ShapeError(f"scenario must be one of {LEAK_SCENARIOS}")
    if scenario == "node1":
        if params.task != "node":
            raise ShapeError("node1 leak needs a node-task model")
        (target,) = targets
        return LeakRecord(
            scenario=scenario,
            bundles=[_node_sample_bundle(params, data, int(target))],
        )
    if scenario == "node2":
        if params.task != "node":
            raise ShapeError("node2 leak needs a node-task model")
        stacks = _node_stacks(params, data, np.arange(data.num_nodes))
        if combine == "summed":
            total = {k: v.sum(axis=0) for k, v in stacks.items()}
            per_node = [GradientBundle(tensors=total)]
        else:
            per_node = [
                GradientBundle(tensors={k: v[i] for k, v in stacks.items()})
                for i in range(data.num_nodes)
            ]
        return LeakRecord(scenario=scenario, bundles=per_node)
    if scenario == "graph":
        if params.task != "graph":
            raise ShapeError("graph leak needs a graph-task model")
        return LeakRecord(scenario=scenario, bundles=[_graph_sample_bundle(params, data)])
    if scenario == "batched-node":
        if params.task != "node":
            raise ShapeError("batched-node leak needs a node-task model")
        stacks = _node_stacks(params, data, targets)
        mean = {k: v.mean(axis=0) for k, v in stacks.items()}
        return LeakRecord(
            scenario=scenario,
            bundles=[GradientBundle(tensors=mean)],
            batch_size=len(targets),
        )
    # batched-graph
    if params.task != "graph":
        raise ShapeError("batched-graph leak needs a graph-task model")
    stacks = _graph_batch_stacks(params, list(data))
    mean = {k: v.mean(axis=0) for k, v in stacks.items()}
    return LeakRecord(
        scenario=scenario,
        bundles=[GradientBundle(tensors=mean)],
        batch_size=len(data),
    )
