"""Federated gradient exchange, simulated in-process.

Clients hold private shards (a subgraph with target nodes, or a list of
graphs), compute per-sample gradients, and the server averages them and
takes an SGD step. The :func:`leak` surface exposes exactly what an
honest-but-curious server observes in each attack scenario: gradient
tensors only, never raw features, adjacency or labels.
"""

import math
from dataclasses import dataclass, replace
from typing import List, Optional

import numpy as np

from .errors import (ConfigError, ShapeError, check_indices, check_int,
                     check_real)
from .graphs import Graph, normalize_adjacency
from .models import (
    GradientBundle,
    bundle_rows,
    bundle_views,
    check_targets,
    graph_bundles,
    graph_ctx,
    node_bundles,
    node_ctx,
    split_bundles,
)

__all__ = [
    "ClientShard",
    "FedRound",
    "LeakRecord",
    "aggregate_and_step",
    "client_gradients",
    "leak",
]

# each leak scenario and the model task it needs
SCENARIO_TASKS = {"node1": "node", "node2": "node", "batched-node": "node",
                  "graph": "graph", "batched-graph": "graph"}


@dataclass
class ClientShard:
    """One client's private data: a graph with targets, or a list of graphs,
    not both (:class:`ShapeError`)."""

    client_id: int
    graph: Optional[Graph] = None
    targets: Optional[np.ndarray] = None
    graphs: Optional[List[Graph]] = None

    def __post_init__(self):
        if self.graph is not None and self.graphs is not None:
            raise ShapeError("shard holds both a node graph and a graph list")
        if self.graph is not None:
            if not isinstance(self.graph, Graph):
                raise ShapeError(f"node shard needs one Graph, got "
                                 f"{type(self.graph).__name__}")
            if self.targets is None:
                raise ShapeError("node shard needs target indices")
            self.targets = check_targets(self.targets, self.graph.num_nodes)
        else:
            _check_graphs(self.graphs, "shard without a graph")
            if not self.graphs:
                raise ShapeError("shard holds neither a graph nor a graph list")


def _check_graphs(data, what):
    """Raise :class:`ShapeError` unless ``data`` is a list or tuple of
    :class:`Graph`."""
    if not isinstance(data, (list, tuple)):
        raise ShapeError(f"{what} needs a list of Graphs, got "
                         f"{type(data).__name__}")
    for g in data:
        if not isinstance(g, Graph):
            raise ShapeError(f"{what} needs a list of Graphs, got one "
                             f"holding a {type(g).__name__}")


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
    """What the server sees for one attack scenario, a key of
    ``SCENARIO_TASKS``: gradients only, a non-empty list of bundles
    (:class:`ShapeError` otherwise) averaged over ``batch_size`` samples, an
    integer >= 1. A scenario or batch size outside those raises
    :class:`ConfigError`."""

    scenario: str
    bundles: List[GradientBundle]
    batch_size: int = 1

    def __post_init__(self):
        if self.scenario not in tuple(SCENARIO_TASKS):
            raise ConfigError(f"must be one of {tuple(SCENARIO_TASKS)}, got "
                              f"{self.scenario!r}", "scenario")
        if not isinstance(self.bundles, (list, tuple)):
            raise ShapeError(f"leak needs a list of GradientBundles, got "
                             f"{type(self.bundles).__name__}")
        if not self.bundles:
            raise ShapeError("leak holds no gradient bundle")
        for b in self.bundles:
            if not isinstance(b, GradientBundle):
                raise ShapeError(f"leak needs a list of GradientBundles, got "
                                 f"one holding a {type(b).__name__}")
        check_int(self.batch_size, "batch_size", 1)

    @property
    def bundle(self):
        if len(self.bundles) != 1:
            raise ShapeError(f"leak holds {len(self.bundles)} bundles, not one")
        return self.bundles[0]


def _node_stacks(params, g, targets, per_sample=False):
    """The batch mean of the target nodes' gradients in one labeled graph,
    as a stack of one; with ``per_sample``, one stack entry per target."""
    if targets is None or np.size(targets) == 0:
        raise ShapeError("node leak needs target indices")
    targets = check_targets(targets, g.num_nodes)
    if g.feature_dim != params.feature_dim:
        raise ShapeError(f"features are {g.feature_dim} wide, the model "
                         f"expects {params.feature_dim}")
    anorm = normalize_adjacency(g, params.norm_mode).matrix
    if g.labels is None:
        raise ShapeError("node-task graph carries no labels")
    ctx = node_ctx(params, g.features, anorm, targets, g.labels[targets])
    return node_bundles(ctx, params, per_sample)


def _graph_stacks(params, gs):
    """The batch mean of equally sized graphs' gradients, as a stack of one."""
    shapes = sorted({g.features.shape for g in gs})
    if len(shapes) != 1 or shapes[0][1] != params.feature_dim:
        raise ShapeError(f"graph leak needs one or more graphs of one size, "
                         f"{params.feature_dim} features wide; got feature "
                         f"shapes {shapes}")
    if any(g.graph_label is None for g in gs):
        raise ShapeError("graph-task sample carries no graph label")
    anorm = np.stack([normalize_adjacency(g, params.norm_mode).matrix for g in gs])
    x = np.stack([g.features for g in gs])
    ctx = graph_ctx(params, x, anorm, [g.graph_label for g in gs])
    return graph_bundles(ctx, params)


def client_gradients(params, shard, batch_indices):
    """One bundle per batch index; each must be an integer in [0, shard
    size), by :func:`~glg.errors.check_indices`."""
    node = params.task == "node"
    if node and shard.graph is None:
        raise ShapeError("node task but shard holds graphs")
    if not node and shard.graphs is None:
        raise ShapeError("graph task but shard holds a node graph")
    samples = shard.targets if node else shard.graphs
    batch_indices = check_indices(batch_indices, "batch index value",
                                  len(samples), "shard samples")
    if node:
        return [leak(params, shard.graph, "node1", targets=[samples[idx]]).bundle
                for idx in batch_indices]
    return [leak(params, samples[idx], "graph").bundle for idx in batch_indices]


def aggregate_and_step(params, client_bundles, learning_rate, round_index=0):
    """Average all per-sample bundles and apply one SGD step.

    ``client_bundles`` is a list (over clients, in client-id order) of lists
    of per-sample bundles, each checked against the model before any
    update. ``learning_rate`` must be a finite real number. Returns the
    updated parameters, checked as any :class:`~glg.models.ModelParams` is,
    and the round record, whose ``batch_size`` is the number of samples the
    mean weighs; the input parameters are not mutated.
    """
    check_real(learning_rate, "learning_rate")
    if not math.isfinite(learning_rate):
        raise ConfigError("must be finite", "learning_rate")
    flat = [b for per_client in client_bundles for b in per_client]
    if not flat:
        raise ShapeError("cannot average zero bundles")
    mean = bundle_rows(params, flat).mean(axis=0, keepdims=True)
    averaged = split_bundles(bundle_views(params, mean))[0]
    updated = replace(params, tensors={
        k: v - learning_rate * averaged.tensors[k]
        for k, v in params.tensors.items()})
    record = FedRound(
        round_index=round_index,
        batch_size=len(flat),
        num_clients=len(client_bundles),
        learning_rate=learning_rate,
        client_bundles=client_bundles,
        averaged=averaged,
    )
    return updated, record


def leak(params, data, scenario, targets=None):
    """Produce the gradient exposure for one attack scenario.

    node1: the bundle of the one target node in ``targets``. node2: one
    bundle per node of the (sub)graph, each node its own loss. graph: the
    bundle of one graph sample. batched-node / batched-graph: the average
    over the batch (``targets`` / list order defines it). A single-sample
    leak is the average over a batch of one. ``data`` is a list of graphs
    for batched-graph and one :class:`Graph` otherwise; any other container
    raises :class:`ShapeError` before a pass runs.
    """
    if scenario not in SCENARIO_TASKS:
        raise ShapeError(f"scenario must be one of {tuple(SCENARIO_TASKS)}")
    if params.task != SCENARIO_TASKS[scenario]:
        raise ShapeError(f"{scenario} leak needs a "
                         f"{SCENARIO_TASKS[scenario]}-task model")
    if scenario == "batched-graph":
        _check_graphs(data, "batched-graph leak")
    elif not isinstance(data, Graph):
        raise ShapeError(f"{scenario} leak needs one Graph, got "
                         f"{type(data).__name__}")
    if scenario == "node2":
        return LeakRecord(scenario=scenario, bundles=split_bundles(
            _node_stacks(params, data, np.arange(data.num_nodes),
                         per_sample=True)))
    if params.task == "node":
        size = np.size(targets)
        if scenario == "node1" and size != 1:
            raise ShapeError(f"node1 leak needs one target, got {size}")
        stacks = _node_stacks(params, data, targets)
    else:
        gs = [data] if scenario == "graph" else list(data)
        size = len(gs)
        stacks = _graph_stacks(params, gs)
    return LeakRecord(scenario=scenario, bundles=split_bundles(stacks),
                      batch_size=size)
