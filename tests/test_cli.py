import json
import os
import subprocess
import sys

import pytest

import glg


CONFIG = {
    "scenario": "node2a",
    "framework": "sage",
    "hidden_dim": 10,
    "dataset": {"source": "synthetic", "n": 6, "avg_degree": 2,
                "feature_dim": 12, "num_classes": 3},
    "attack": {"iterations": 100, "finalization": "threshold",
               "init": "constant", "init_value": 1.0},
    "egonet_hops": None,
    "repeats": 1,
    "seed": 3,
}


def run_cli(*args):
    # the child process finds the package the test process imported
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.dirname(os.path.dirname(glg.__file__))
    return subprocess.run(
        [sys.executable, "-m", "glg.cli", *args],
        capture_output=True, text=True, env=env,
    )


def write_config(tmp_path, data=CONFIG):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(data))
    return str(path)


def assert_attack_field_rejected(tmp_path, name):
    old = dict(CONFIG, attack=dict(CONFIG["attack"], **{name: 1}))
    cfg = write_config(tmp_path, old)
    out = run_cli("attack", "--config", cfg, "--out", str(tmp_path / "o"))
    assert out.returncode == 1
    assert "configuration error: attack: " in out.stderr
    assert repr(name) in out.stderr
    assert "Traceback" not in out.stderr
    assert not (tmp_path / "o" / "report.csv").exists()


class TestAttackCommand:
    def test_runs_and_reports(self, tmp_path):
        cfg = write_config(tmp_path)
        out = run_cli("attack", "--config", cfg, "--out", str(tmp_path / "o"))
        assert out.returncode == 0, out.stderr
        report = (tmp_path / "o" / "report.csv").read_text()
        assert report.splitlines()[1].startswith("node2a,sage")

    def test_byte_identical_reports(self, tmp_path):
        cfg = write_config(tmp_path)
        a = run_cli("attack", "--config", cfg, "--out", str(tmp_path / "a"))
        b = run_cli("attack", "--config", cfg, "--out", str(tmp_path / "b"))
        assert a.returncode == 0 and b.returncode == 0
        assert ((tmp_path / "a" / "report.csv").read_bytes()
                == (tmp_path / "b" / "report.csv").read_bytes())

    def test_seed_override(self, tmp_path):
        cfg = write_config(tmp_path)
        a = run_cli("attack", "--config", cfg, "--out", str(tmp_path / "a"),
                    "--format", "json")
        b = run_cli("attack", "--config", cfg, "--out", str(tmp_path / "b"),
                    "--format", "json", "--seed", "99")
        pa = json.loads((tmp_path / "a" / "report.json").read_text())
        pb = json.loads((tmp_path / "b" / "report.json").read_text())
        assert pa["config"]["seed"] == 3
        assert pb["config"]["seed"] == 99

    def test_validation_error_exit_code(self, tmp_path):
        bad = dict(CONFIG, scenario="bogus")
        cfg = write_config(tmp_path, bad)
        out = run_cli("attack", "--config", cfg, "--out", str(tmp_path))
        assert out.returncode == 1
        assert "configuration error" in out.stderr

    def test_bad_edge_probability_is_configuration_error(self, tmp_path):
        bad = dict(CONFIG, dataset={"source": "er", "n": 6, "edge_prob": 1.5,
                                    "feature_dim": 12, "num_classes": 3})
        cfg = write_config(tmp_path, bad)
        out = run_cli("attack", "--config", cfg, "--out", str(tmp_path / "o"))
        assert out.returncode == 1
        assert "configuration error" in out.stderr
        assert "dataset.edge_prob" in out.stderr
        assert "Traceback" not in out.stderr

    def test_diverging_attack_exits_numeric_failure(self, tmp_path):
        bad = dict(CONFIG, scenario="node2b",
                   dataset=dict(CONFIG["dataset"], n=8),
                   attack={"iterations": 20, "learning_rate": 1e300})
        cfg = write_config(tmp_path, bad)
        out = run_cli("attack", "--config", cfg, "--out", str(tmp_path / "o"))
        assert out.returncode == 2
        assert "numeric failure" in out.stderr
        assert not (tmp_path / "o" / "report.csv").exists()

    def test_non_integer_egonet_hops_is_configuration_error(self, tmp_path):
        cfg = write_config(tmp_path, dict(CONFIG, egonet_hops=1.5))
        out = run_cli("attack", "--config", cfg, "--out", str(tmp_path / "o"))
        assert out.returncode == 1
        assert "configuration error" in out.stderr
        assert "egonet_hops" in out.stderr
        assert "Traceback" not in out.stderr

    @pytest.mark.parametrize("defect, where", [
        ("feature", "feat.csv:2]"),
        ("edge", "edges.txt:2]"),
        ("label", "labels.txt:2]"),
    ], ids=["feature", "edge", "label"])
    def test_malformed_files_dataset_is_configuration_error(
            self, tmp_path, defect, where):
        features = ["0.1,0.2", "oops,0.4" if defect == "feature" else "0.3,0.4",
                    "0.5,0.6"]
        edges = ["0 1", "1 9" if defect == "edge" else "1 2"]
        labels = ["0", "-1" if defect == "label" else "1", "2"]
        paths = {}
        for field, name, lines in (("feature_file", "feat.csv", features),
                                   ("edge_file", "edges.txt", edges),
                                   ("label_file", "labels.txt", labels)):
            (tmp_path / name).write_text("\n".join(lines) + "\n")
            paths[field] = str(tmp_path / name)
        cfg = write_config(tmp_path, dict(
            CONFIG, scenario="node2b",
            dataset={"source": "files", "num_classes": 3, **paths}))
        out = run_cli("attack", "--config", cfg, "--out", str(tmp_path / "o"))
        assert out.returncode == 1
        assert "configuration error: dataset:" in out.stderr
        assert where in out.stderr
        assert "Traceback" not in out.stderr

    # restarts and seed are no attack fields; a config that sets one is
    # rejected, not ignored
    def test_old_config_with_restarts_is_configuration_error(self, tmp_path):
        assert_attack_field_rejected(tmp_path, "restarts")

    def test_old_config_with_attack_seed_is_configuration_error(self, tmp_path):
        assert_attack_field_rejected(tmp_path, "seed")

    def test_missing_config_exit_code(self, tmp_path):
        out = run_cli("attack", "--config", str(tmp_path / "nope.json"))
        assert out.returncode == 1


class TestSweepCommand:
    def test_sweep_writes_rows(self, tmp_path):
        cfg = write_config(tmp_path)
        out = run_cli("sweep", "--config", cfg, "--param", "alpha",
                      "--values", "0,1e-9", "--out", str(tmp_path / "s"),
                      "--format", "json")
        assert out.returncode == 0, out.stderr
        payload = json.loads((tmp_path / "s" / "report.json").read_text())
        assert len(payload["rows"]) == 2

    def test_unknown_param(self, tmp_path):
        cfg = write_config(tmp_path)
        out = run_cli("sweep", "--config", cfg, "--param", "gamma",
                      "--values", "1", "--out", str(tmp_path))
        assert out.returncode == 1

    @pytest.mark.parametrize("param, value", [
        ("batch_size", "2.5"), ("alpha", "abc"), ("hidden_dim", "1e3"),
    ])
    def test_value_that_does_not_parse_is_configuration_error(
            self, tmp_path, param, value):
        cfg = write_config(tmp_path)
        out = run_cli("sweep", "--config", cfg, "--param", param,
                      "--values", value, "--out", str(tmp_path / "s"))
        assert out.returncode == 1
        assert f"configuration error: {param}: {value!r}" in out.stderr
        assert "Traceback" not in out.stderr
        assert not (tmp_path / "s" / "report.csv").exists()


class TestSelftestCommand:
    def test_fast_selftest_passes(self):
        out = run_cli("selftest", "--fast")
        assert out.returncode == 0, out.stdout + out.stderr
        assert out.stdout.count("PASS") == 3
