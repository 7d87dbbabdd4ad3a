import json

import numpy as np
import pytest

from glg import graphs, numkit
from glg.errors import ConfigError
from glg.experiments import (
    ExperimentConfig,
    emit_report,
    load_config,
    run_experiment,
    sweep,
)


def quick_config(**overrides):
    data = {
        "scenario": "node2a",
        "framework": "sage",
        "hidden_dim": 10,
        "dataset": {"source": "synthetic", "n": 6, "avg_degree": 2,
                    "feature_dim": 12, "num_classes": 3},
        "attack": {"iterations": 120, "finalization": "threshold",
                   "init": "constant", "init_value": 1.0},
        "egonet_hops": None,
        "repeats": 2,
        "seed": 7,
    }
    data.update(overrides)
    return ExperimentConfig.from_dict(data)


class TestConfigValidation:
    def test_bad_scenario(self):
        with pytest.raises(ConfigError):
            quick_config(scenario="bogus")

    def test_bad_framework(self):
        with pytest.raises(ConfigError):
            quick_config(framework="gat")

    def test_mismatched_attack_scenario(self):
        with pytest.raises(ConfigError):
            quick_config(attack={"scenario": "graph_a", "iterations": 5})

    def test_unknown_attack_field(self):
        with pytest.raises(ConfigError):
            quick_config(attack={"iterations": 5, "bogus_knob": 1})

    def test_attack_seed_is_rejected(self):
        # an attack draws from the repetition's generator; it has no seed
        with pytest.raises(ConfigError, match="attack: .*'seed'"):
            quick_config(attack={"iterations": 5, "seed": 0})

    @pytest.mark.parametrize("field, part", [
        ("config", [1, 2]), ("config", "x"), ("dataset", "x"),
        ("dataset", [1]), ("attack", "x"), ("attack", [["iterations", 5]]),
    ])
    def test_part_that_is_not_an_object(self, field, part):
        data = part if field == "config" else dict(
            quick_config().to_dict(), **{field: part})
        with pytest.raises(ConfigError, match=f"{field}: must be a JSON object"):
            ExperimentConfig.from_dict(data)

    def test_missing_scenario(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"framework": "sage"})

    def test_scenario_that_is_not_a_name(self):
        with pytest.raises(ConfigError, match="scenario: must be one of"):
            ExperimentConfig.from_dict({"scenario": [1], "attack": {}})

    def test_file_dataset_requires_paths(self):
        with pytest.raises(ConfigError):
            quick_config(dataset={"source": "files"})

    @pytest.mark.parametrize("edge_prob", [-0.1, 1.5, float("nan")])
    def test_er_edge_prob_outside_unit_interval(self, edge_prob):
        with pytest.raises(ConfigError, match="dataset.edge_prob"):
            quick_config(dataset={"source": "er", "n": 6,
                                  "edge_prob": edge_prob})

    def test_er_default_edge_prob_above_one(self):
        # avg_degree / (n - 1) = 8 / 5
        with pytest.raises(ConfigError, match="dataset.avg_degree"):
            quick_config(dataset={"source": "er", "n": 6, "avg_degree": 8})

    def test_er_default_edge_prob_at_bounds(self):
        for avg_degree in (0, 5):
            cfg = quick_config(dataset={"source": "er", "n": 6,
                                        "avg_degree": avg_degree})
            assert cfg.dataset.avg_degree == avg_degree

    @pytest.mark.parametrize("source", ["synthetic", "er"])
    def test_negative_avg_degree(self, source):
        with pytest.raises(ConfigError, match="dataset.avg_degree"):
            quick_config(dataset={"source": source, "n": 6, "avg_degree": -1})

    def test_synthetic_more_edges_than_pairs(self):
        # floor(6 * 6) // 2 = 18 edges, but 6 nodes have 15 pairs
        with pytest.raises(ConfigError, match="dataset.avg_degree"):
            quick_config(dataset={"source": "synthetic", "n": 6,
                                  "avg_degree": 6})

    def test_negative_egonet_hops(self):
        with pytest.raises(ConfigError, match="egonet_hops"):
            quick_config(egonet_hops=-1)

    @pytest.mark.parametrize("field, value", [
        ("egonet_hops", 1.5), ("repeats", 1.5), ("repeats", True),
        ("batch_size", 2.5), ("hidden_dim", -1), ("hidden_dim", 0),
        ("seed", -1), ("attack.iterations", 2.5),
        ("attack.d_tree", 2.5), ("dataset.n", 8.5),
        ("dataset.feature_dim", 2.5), ("dataset.num_classes", 1),
        ("dataset.d_tree", 0),
    ])
    def test_bad_integer_field(self, field, value):
        data = quick_config().to_dict()
        section, _, name = field.rpartition(".")
        (data[section] if section else data)[name] = value
        with pytest.raises(ConfigError, match=f"{name}: must be"):
            ExperimentConfig.from_dict(data)


class TestRunExperiment:
    def test_aggregates_over_repeats(self):
        rows = run_experiment(quick_config())
        assert len(rows) == 1
        row = rows[0]
        assert row.repeats == 2
        assert "accuracy" in row.metrics
        assert set(row.metrics["accuracy"]) == {"mean", "std", "min"}
        assert row.errors == []

    def test_deterministic_given_seed(self):
        a = run_experiment(quick_config())[0]
        b = run_experiment(quick_config())[0]
        assert a.metrics == b.metrics

    def test_seed_changes_results(self):
        a = run_experiment(quick_config(scenario="node2b", seed=1,
                                        attack={"iterations": 40}))[0]
        b = run_experiment(quick_config(scenario="node2b", seed=2,
                                        attack={"iterations": 40}))[0]
        assert a.metrics != b.metrics

    def test_node1_scenario(self):
        cfg = quick_config(
            scenario="node1",
            dataset={"source": "synthetic", "n": 12, "avg_degree": 2,
                     "feature_dim": 4, "num_classes": 3},
            attack={"iterations": 150, "d_tree": 3},
            repeats=1,
        )
        row = run_experiment(cfg)[0]
        assert "target_rnmse" in row.metrics

    def test_batched_scenario(self):
        cfg = quick_config(
            scenario="batched_node",
            dataset={"source": "synthetic", "n": 10, "avg_degree": 2,
                     "feature_dim": 4, "num_classes": 3},
            attack={"scenario": "node1", "iterations": 80, "d_tree": 2},
            batch_size=2,
            repeats=1,
        )
        row = run_experiment(cfg)[0]
        assert "matched_rnmse" in row.metrics

    def test_one_hop_eval_matches_dummy_to_degree(self):
        cfg = quick_config(
            scenario="node1",
            dataset={"source": "synthetic", "n": 12, "avg_degree": 3,
                     "feature_dim": 4, "num_classes": 3},
            attack={"iterations": 100, "d_tree": 9},
            one_hop_eval=True,
            repeats=2,
        )
        row = run_experiment(cfg)[0]
        assert "neighbor_rnmse" in row.metrics

    @pytest.mark.parametrize("scenario, hops", [
        ("node1", None), ("node2a", None), ("node2a", 2), ("node2b", None),
        ("node2c", None), ("graph_a", None), ("graph_b", None),
        ("graph_c", None), ("batched_node", None), ("batched_graph", None),
    ])
    def test_every_scenario_reports_its_metrics(self, scenario, hops):
        attack = {"iterations": 10, "d_tree": 2}
        if scenario == "batched_node":
            attack["scenario"] = "node1"
        cfg = quick_config(
            scenario=scenario,
            dataset={"source": "synthetic", "n": 10, "avg_degree": 3,
                     "feature_dim": 4, "num_classes": 3},
            attack=attack, egonet_hops=hops, batch_size=2, repeats=1)
        row = run_experiment(cfg)[0]
        known = scenario[-1]
        want = set()
        if scenario == "node1":
            want = {"target_rnmse"}
        elif scenario.startswith("batched"):
            want = {"matched_rnmse", "matched_rnmse_min", "matched_rnmse_std"}
        else:
            if known != "a":
                want |= {"feature_rnmse"}
            if known != "b":
                want |= {"accuracy", "auc", "ap", "mae", "mae_thresholded"}
        assert row.errors == []
        assert set(row.metrics) == want
        assert all(np.isfinite(st["mean"]) for st in row.metrics.values())

    def test_adjacency_scenarios_report_thresholded_mae(self):
        row = run_experiment(quick_config(repeats=1))[0]
        assert "mae_thresholded" in row.metrics


def files_config(tmp_path, scenario, labels=None, num_classes=3):
    """A 6-node, 3-feature file dataset; dataset n and feature_dim stay unset."""
    g = graphs.synthetic_graph(numkit.make_rng(40), 6, 2, 3, num_classes=3)
    if labels is not None:
        g = graphs.Graph(adjacency=g.adjacency, features=g.features,
                         labels=labels)
    paths = {name: str(tmp_path / f"{name}.txt")
             for name in ("feature_file", "edge_file", "label_file")}
    graphs.save_graph(g, paths["feature_file"], paths["edge_file"],
                      paths["label_file"])
    return quick_config(scenario=scenario, attack={"iterations": 10},
                        dataset={"source": "files",
                                 "num_classes": num_classes, **paths},
                        repeats=1)


class TestModelSizedFromDataset:
    @pytest.mark.parametrize("scenario", ["node2b", "graph_b"])
    def test_files_dataset(self, tmp_path, scenario):
        row = run_experiment(files_config(tmp_path, scenario))[0]
        assert row.errors == []
        assert np.isfinite(row.metrics["feature_rnmse"]["mean"])

    def test_tree_graph_c_with_default_n(self):
        cfg = quick_config(
            scenario="graph_c", attack={"iterations": 10},
            dataset={"source": "tree", "d_tree": 2, "feature_dim": 4,
                     "num_classes": 3},
            repeats=1)
        row = run_experiment(cfg)[0]
        assert row.errors == []
        assert {"feature_rnmse", "auc"} <= set(row.metrics)

    def test_file_labels_beyond_num_classes(self, tmp_path):
        cfg = files_config(tmp_path, "node2b", labels=[0, 1, 2, 0, 1, 2],
                           num_classes=2)
        with pytest.raises(ConfigError, match="dataset.num_classes"):
            run_experiment(cfg)


class TestEmitReport:
    def test_empty_rows_header_only(self, tmp_path):
        path = emit_report([], "csv", tmp_path / "r.csv")
        lines = open(path).read().splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("scenario,framework,dataset,repeats")

    def test_single_row_csv(self, tmp_path):
        rows = run_experiment(quick_config(repeats=1))
        path = emit_report(rows, "csv", tmp_path / "r.csv")
        lines = open(path).read().splitlines()
        assert len(lines) == 2
        assert lines[1].startswith("node2a,sage,synthetic,1")

    def test_json_round_trip(self, tmp_path):
        cfg = quick_config(repeats=1)
        rows = run_experiment(cfg)
        path = emit_report(rows, "json", tmp_path / "r.json", config=cfg)
        with open(path) as fh:
            payload = json.load(fh)
        assert payload["rows"][0]["metrics"] == rows[0].metrics
        assert payload["rows"][0]["hyperparams"] == rows[0].hyperparams
        assert payload["config"]["scenario"] == "node2a"

    def test_timing_excluded_by_default(self, tmp_path):
        rows = run_experiment(quick_config(repeats=1))
        p1 = emit_report(rows, "json", tmp_path / "a.json")
        assert "wall_time" not in open(p1).read()


class TestConfigFile:
    def test_load_config(self, tmp_path):
        cfg = quick_config()
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        loaded = load_config(path)
        assert loaded.scenario == cfg.scenario
        assert loaded.attack.iterations == cfg.attack.iterations


class TestArtifactDumps:
    def test_metrics_recomputable_from_dump(self, tmp_path):
        from glg import metrics

        cfg = quick_config(repeats=1)
        rows = run_experiment(cfg, dump_dir=str(tmp_path))
        true_a = np.loadtxt(tmp_path / "rep0_true_adjacency.csv", delimiter=",")
        rec_a = np.loadtxt(tmp_path / "rep0_recovered_adjacency.csv",
                           delimiter=",")
        acc = metrics.adjacency_accuracy(true_a, rec_a)
        assert acc == pytest.approx(rows[0].metrics["accuracy"]["mean"])


class TestSweep:
    def test_empty_values(self):
        assert sweep(quick_config(), "alpha", []) == []

    def test_unknown_parameter(self):
        with pytest.raises(ConfigError):
            sweep(quick_config(), "gamma", [1.0])

    @pytest.mark.parametrize("parameter, value", [
        ("batch_size", "2.5"), ("alpha", "abc"), ("hidden_dim", "1e3"),
        ("d_tree", None),
    ])
    def test_value_that_does_not_parse(self, monkeypatch, parameter, value):
        runs = []
        monkeypatch.setattr("glg.experiments.run_experiment",
                            lambda cfg: runs.append(cfg) or [])
        with pytest.raises(ConfigError, match=f"{parameter}: {value!r}"):
            sweep(quick_config(), parameter, ["4", value])
        # every value is checked before the first run
        assert runs == []

    def test_alpha_sweep_tags_rows(self):
        cfg = quick_config(repeats=1, attack={"iterations": 30,
                                              "finalization": "threshold",
                                              "init": "constant",
                                              "init_value": 1.0})
        rows = sweep(cfg, "alpha", [0.0, 1e-9])
        assert len(rows) == 2
        assert rows[0].hyperparams["swept_parameter"] == "alpha"
        assert rows[0].hyperparams["swept_value"] == 0.0
        assert rows[1].hyperparams["alpha"] == 1e-9

    def test_hidden_dim_sweep(self):
        cfg = quick_config(repeats=1, attack={"iterations": 20,
                                              "finalization": "threshold",
                                              "init": "constant",
                                              "init_value": 1.0})
        rows = sweep(cfg, "hidden_dim", [4, 8])
        assert [r.hyperparams["hidden_dim"] for r in rows] == [4, 8]
