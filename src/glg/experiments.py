"""Experiment orchestration: build data, leak, attack, score, report.

One :class:`ExperimentConfig` describes a scenario end to end. Each of the
R repetitions derives its own generator from (seed, repetition), so runs
are reproducible and no repetition's result depends on another's.
"""

import csv
import json
import math
import numbers
import os
from dataclasses import asdict, dataclass, field
from typing import List, Optional

import numpy as np

from .attacks import (
    AttackSpec,
    attack_batched,
    attack_graph,
    attack_node1,
    attack_node2,
    finalize_adjacency,
)
from .errors import (ConfigError, DataFormatError, GlgError, ShapeError,
                     check_int, check_real)
from .federated import leak
from .graphs import Graph, er_graph, khop_egonet, load_graph, synthetic_graph
from .metrics import (
    batch_match_score,
    rnmse,
    rnmse_per_row,
    score_adjacency,
)
from .models import FRAMEWORKS, init_params

__all__ = [
    "DatasetSpec",
    "ExperimentConfig",
    "ReportRow",
    "emit_report",
    "load_config",
    "run_experiment",
    "sweep",
]

EXPERIMENT_SCENARIOS = (
    "node1", "node2a", "node2b", "node2c",
    "graph_a", "graph_b", "graph_c",
    "batched_node", "batched_graph",
)

# each sweepable parameter and the type a swept value is parsed as
SWEEP_PARAMETERS = {"alpha": float, "beta": float, "hidden_dim": int,
                    "threshold": float, "batch_size": int, "d_tree": int,
                    "init": str}


def _attack_scenario(scenario):
    """The attack scenario that an experiment scenario runs."""
    batched = {"batched_node": "node1", "batched_graph": "graph_b"}
    return batched.get(scenario, scenario)


@dataclass
class DatasetSpec:
    source: str = "synthetic"          # synthetic | er | files
    n: int = 50
    avg_degree: float = 4.0
    feature_dim: int = 10
    num_classes: int = 4
    feature_file: Optional[str] = None
    edge_file: Optional[str] = None
    label_file: Optional[str] = None

    def validate(self):
        sources = ("synthetic", "er", "files")
        if self.source not in sources:
            raise ConfigError(f"must be one of {sources}, got {self.source!r}",
                              "dataset.source")
        for name, minimum in (("n", 1), ("feature_dim", 1), ("num_classes", 2)):
            check_int(getattr(self, name), f"dataset.{name}", minimum)
        check_real(self.avg_degree, "dataset.avg_degree")
        if self.source == "files":
            for name in ("feature_file", "edge_file"):
                path = getattr(self, name)
                if not path or not os.path.exists(path):
                    raise ConfigError(f"missing file {path!r}", f"dataset.{name}")
            return
        if not (math.isfinite(self.avg_degree) and self.avg_degree >= 0):
            raise ConfigError("avg_degree must be finite and non-negative",
                              "dataset.avg_degree")
        if self.source == "synthetic":
            if int(self.avg_degree * self.n) // 2 > self.n * (self.n - 1) // 2:
                raise ConfigError(f"avg_degree {self.avg_degree} asks for more "
                                  f"edges than {self.n} nodes have",
                                  "dataset.avg_degree")
        elif self.n < 2 or self.avg_degree > self.n - 1:
            raise ConfigError("the er edge probability avg_degree / (n - 1) "
                              "must lie in [0, 1]; lower avg_degree or raise n",
                              "dataset.avg_degree")


@dataclass
class ExperimentConfig:
    scenario: str
    framework: str = "sage"
    hidden_dim: int = 100
    dataset: DatasetSpec = field(default_factory=DatasetSpec)
    attack: AttackSpec = None
    egonet_hops: Optional[int] = 3     # node2*: sample this k-hop egonet
    batch_size: int = 5                # batched scenarios
    repeats: int = 1
    seed: int = 0

    def __post_init__(self):
        if self.scenario not in EXPERIMENT_SCENARIOS:
            raise ConfigError(
                f"scenario must be one of {EXPERIMENT_SCENARIOS}", "scenario")
        if self.framework not in FRAMEWORKS:
            raise ConfigError(f"must be one of {FRAMEWORKS}", "framework")
        for name in ("hidden_dim", "batch_size", "repeats"):
            check_int(getattr(self, name), name, 1)
        check_int(self.seed, "seed", 0)
        if self.egonet_hops is not None:
            check_int(self.egonet_hops, "egonet_hops", 0)
        if self.attack is None:
            self.attack = AttackSpec(scenario=_attack_scenario(self.scenario))
        if self.attack.scenario != _attack_scenario(self.scenario):
            raise ConfigError(
                f"attack scenario {self.attack.scenario} does not fit "
                f"experiment scenario {self.scenario}", "attack.scenario")
        self.dataset.validate()

    @property
    def task(self):
        return "graph" if self.scenario.startswith(("graph", "batched_graph")) else "node"

    def to_dict(self):
        return asdict(self)

    @classmethod
    def from_dict(cls, data):
        data = _json_object(data, "config")
        ds = _json_object(data.pop("dataset", {}), "dataset")
        atk = data.pop("attack", None)
        try:
            dataset = DatasetSpec(**ds)
        except TypeError as exc:
            raise ConfigError(str(exc), "dataset") from None
        scenario = data.get("scenario")
        if scenario not in EXPERIMENT_SCENARIOS:
            raise ConfigError(f"must be one of {EXPERIMENT_SCENARIOS}, got "
                              f"{scenario!r}", "scenario")
        attack = None
        if atk is not None:
            atk = _json_object(atk, "attack")
            atk.setdefault("scenario", _attack_scenario(scenario))
            try:
                attack = AttackSpec(**atk)
            except TypeError as exc:
                raise ConfigError(str(exc), "attack") from None
        try:
            return cls(dataset=dataset, attack=attack, **data)
        except TypeError as exc:
            raise ConfigError(str(exc)) from None


def _json_object(part, field):
    """A copy of the config part ``field``, which must be a JSON object."""
    if not isinstance(part, dict):
        raise ConfigError(f"must be a JSON object, not {type(part).__name__}",
                          field)
    return dict(part)


def load_config(path):
    with open(path, "r", encoding="utf-8") as fh:
        return ExperimentConfig.from_dict(json.load(fh))


@dataclass
class ReportRow:
    scenario: str
    framework: str
    dataset: str
    repeats: int
    metrics: dict                      # name -> {mean, std, min}
    hyperparams: dict
    errors: List[str]


def _rep_rng(seed, rep):
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, rep))))


def _load_files(cfg):
    """The ``files`` dataset's graph, checked against the config; draws no RNG."""
    ds = cfg.dataset
    try:
        g = load_graph(ds.feature_file, ds.edge_file, ds.label_file)
    except (DataFormatError, ShapeError) as exc:
        raise ConfigError(str(exc), "dataset") from None
    if cfg.task == "node":
        if g.labels is None:
            raise ConfigError("file dataset lacks labels for a node task",
                              "dataset.label_file")
        if g.labels.max() >= ds.num_classes:
            raise ConfigError(f"file labels go up to {int(g.labels.max())}, "
                              f"but there are {ds.num_classes} classes",
                              "dataset.num_classes")
    return g


def _build_graph(cfg, rng, files_graph, need_graph_label=False):
    ds = cfg.dataset
    if ds.source == "synthetic":
        g = synthetic_graph(rng, ds.n, ds.avg_degree, ds.feature_dim,
                            num_classes=ds.num_classes)
    elif ds.source == "er":
        g = er_graph(rng, ds.n, ds.avg_degree / (ds.n - 1), ds.feature_dim,
                     num_classes=ds.num_classes)
    else:
        g = files_graph
    if need_graph_label:
        g = Graph(adjacency=g.adjacency, features=g.features, labels=g.labels,
                  graph_label=int(rng.integers(0, ds.num_classes)))
    return g


def _one_repetition(cfg, rep, files_graph):
    """Returns (metric dict, artifact dict of recovered/true matrices).

    The model is sized from the graphs the repetition builds: a ``files``
    dataset's loaded graph (``files_graph``), else the configured n and
    feature_dim.
    """
    rng = _rep_rng(cfg.seed, rep)
    ds = cfg.dataset
    if files_graph is not None:
        feature_dim, n = files_graph.feature_dim, files_graph.num_nodes
    else:
        feature_dim, n = ds.feature_dim, ds.n
    params = init_params(
        rng, cfg.framework, cfg.task, feature_dim, cfg.hidden_dim,
        ds.num_classes, num_nodes=n if cfg.task == "graph" else None)
    out = {}
    arts = {}

    if cfg.scenario == "node1":
        g = _build_graph(cfg, rng, files_graph)
        target = int(rng.integers(0, g.num_nodes))
        record = leak(params, g, "node1", targets=[target])
        res = attack_node1(record, cfg.attack, params, rng=rng)
        out["target_rnmse"] = rnmse(g.features[target], res.target_feature)
        arts["true_features"] = g.features[target][None]
        arts["recovered_features"] = res.target_feature[None]
        return out, arts

    if cfg.scenario.startswith("batched"):
        if cfg.task == "node":
            g = _build_graph(cfg, rng, files_graph)
            if cfg.batch_size > g.num_nodes:
                raise ConfigError("batch larger than the graph", "batch_size")
            targets = rng.choice(g.num_nodes, size=cfg.batch_size, replace=False)
            record = leak(params, g, "batched-node", targets=targets)
            results = attack_batched(record, cfg.attack, params,
                                     labels=g.labels[targets], rng=rng)
            truth = [g.features[t] for t in targets]
            recovered = [r.target_feature for r in results]
        else:
            gs = [_build_graph(cfg, rng, files_graph, need_graph_label=True)
                  for _ in range(cfg.batch_size)]
            record = leak(params, gs, "batched-graph")
            results = attack_batched(record, cfg.attack, params,
                                     labels=[g.graph_label for g in gs],
                                     known_adjacencies=[g.adjacency for g in gs],
                                     rng=rng)
            truth = [g.features for g in gs]
            recovered = [r.features for r in results]
        ms = batch_match_score(truth, recovered)
        out.update(matched_rnmse=ms.mean, matched_rnmse_min=ms.min,
                   matched_rnmse_std=ms.std)
        arts["true_features"] = np.vstack(truth)
        arts["recovered_features"] = np.vstack(recovered)
        return out, arts

    # subgraph (node2*) and whole-graph (graph_*) scenarios; the attack reads
    # the known input its scenario needs
    g = _build_graph(cfg, rng, files_graph,
                     need_graph_label=cfg.task == "graph")
    if cfg.task == "node":
        if cfg.egonet_hops is not None:
            center = int(rng.integers(0, g.num_nodes))
            g, _ = khop_egonet(g, center, cfg.egonet_hops)
        record, attack = leak(params, g, "node2"), attack_node2
    else:
        record, attack = leak(params, g, "graph"), attack_graph
    res = attack(record, cfg.attack, params, known_features=g.features,
                 known_adjacency=g.adjacency, rng=rng)
    if res.features is not None:
        out["feature_rnmse"] = rnmse_per_row(g.features, res.features)
        arts["true_features"] = g.features
        arts["recovered_features"] = res.features
    if res.adjacency is not None:
        thresholded = finalize_adjacency(res.adjacency_prob, "threshold",
                                         tau=cfg.attack.threshold)
        sc = score_adjacency(g.adjacency, res.adjacency, res.adjacency_prob,
                             a_thresholded=thresholded)
        out.update(accuracy=sc.accuracy, auc=sc.auc, ap=sc.ap, mae=sc.mae,
                   mae_thresholded=sc.mae_thresholded)
        arts["true_adjacency"] = g.adjacency
        arts["recovered_adjacency"] = res.adjacency
        arts["recovered_adjacency_prob"] = res.adjacency_prob
    return out, arts


def _aggregate(per_rep, cfg, errors):
    names = sorted({k for rep in per_rep for k, v in rep.items() if v is not None})
    stats = {}
    for name in names:
        vals = np.array([rep[name] for rep in per_rep
                         if rep.get(name) is not None], dtype=np.float64)
        stats[name] = {
            "mean": float(vals.mean()),
            "std": float(vals.std()),
            "min": float(vals.min()),
        }
    hp = {c: getattr(cfg.attack, c) for c in _ATTACK_HP}
    hp.update((c, getattr(cfg, c)) for c in _RUN_HP)
    return ReportRow(
        scenario=cfg.scenario,
        framework=cfg.framework,
        dataset=cfg.dataset.source,
        repeats=cfg.repeats,
        metrics=stats,
        hyperparams=hp,
        errors=errors,
    )


def run_experiment(cfg, dump_dir=None):
    """Run the configured scenario R times and aggregate mean/std/min.

    A ``files`` dataset is loaded and checked once, before any repetition,
    so a bad file or label set raises instead of failing each repetition.
    With ``dump_dir`` set, each repetition's recovered and true matrices are
    written there as CSV (``rep<i>_<name>.csv``), so every reported metric
    can be recomputed from the files.
    """
    files_graph = _load_files(cfg) if cfg.dataset.source == "files" else None
    per_rep = []
    errors = []
    for rep in range(cfg.repeats):
        try:
            metrics_out, artifacts = _one_repetition(cfg, rep, files_graph)
        except GlgError as exc:
            errors.append(f"rep {rep}: {exc}")
            continue
        per_rep.append(metrics_out)
        if dump_dir is not None:
            os.makedirs(dump_dir, exist_ok=True)
            for name, arr in artifacts.items():
                np.savetxt(os.path.join(dump_dir, f"rep{rep}_{name}.csv"),
                           np.atleast_2d(arr), fmt="%.17g", delimiter=",")
    if not per_rep and errors:
        raise GlgError("every repetition failed: " + "; ".join(errors))
    return [_aggregate(per_rep, cfg, errors)]


def sweep(cfg, parameter, values):
    """Re-run the experiment for each value of one hyperparameter.

    Every value is parsed and its config checked before the first run. No
    parameter takes a bool. An integer parameter takes an int or a string
    that parses as one, so a value such as 2.5 is refused rather than
    truncated.
    """
    if parameter not in SWEEP_PARAMETERS:
        raise ConfigError("sweep parameter must be one of "
                          f"{tuple(SWEEP_PARAMETERS)}", "parameter")
    parse = SWEEP_PARAMETERS[parameter]
    configs = []
    for value in values:
        # float() and int() would take a bool, and int() truncates a float
        refused = isinstance(value, bool) or (
            parse is int and not isinstance(value, (str, numbers.Integral)))
        try:
            if refused:
                raise TypeError
            parsed = parse(value)
        except (TypeError, ValueError):
            raise ConfigError(f"{value!r} does not parse as {parse.__name__}",
                              parameter) from None
        data = cfg.to_dict()
        part = data if parameter in ("hidden_dim", "batch_size") else data["attack"]
        part[parameter] = parsed
        configs.append((value, ExperimentConfig.from_dict(data)))
    rows = []
    for value, swept in configs:
        for row in run_experiment(swept):
            row.hyperparams["swept_parameter"] = parameter
            row.hyperparams["swept_value"] = value
            rows.append(row)
    return rows


_BASE_COLUMNS = ("scenario", "framework", "dataset", "repeats")
# report hyperparameters: attack settings, then experiment settings
_ATTACK_HP = ("objective", "alpha", "beta", "learning_rate", "iterations",
              "init", "finalization", "threshold", "d_tree")
_RUN_HP = ("hidden_dim", "batch_size", "seed")
_HP_COLUMNS = _ATTACK_HP + _RUN_HP + ("swept_parameter", "swept_value")


def emit_report(rows, fmt, path, config=None):
    """Write rows as CSV or JSON with a deterministic layout; returns the path."""
    if fmt not in ("csv", "json"):
        raise ConfigError("format must be csv or json", "format")
    if fmt == "json":
        payload = {
            "config": config.to_dict() if config is not None else None,
            "rows": [asdict(r) for r in rows],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return path

    metric_names = sorted({m for r in rows for m in r.metrics})
    header = list(_BASE_COLUMNS)
    for m in metric_names:
        header += [f"{m}_mean", f"{m}_std", f"{m}_min"]
    header += _HP_COLUMNS + ("errors",)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for r in rows:
            rec = [r.scenario, r.framework, r.dataset, r.repeats]
            for m in metric_names:
                st = r.metrics.get(m)
                rec += ([st["mean"], st["std"], st["min"]] if st
                        else ["", "", ""])
            rec += [r.hyperparams.get(c, "") for c in _HP_COLUMNS]
            rec.append("; ".join(r.errors))
            writer.writerow(rec)
    return path

