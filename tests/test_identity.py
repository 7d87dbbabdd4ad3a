"""tools/identity.py: an unchanged copy of the source compares equal, and a
copy with one constant changed is flagged, on a two-config subset."""

import importlib.util
import pathlib
import shutil

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "identity", REPO / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

# one direct attack config and one CLI run, which compares files byte for byte
CONFIGS = ["graph_a-sage-cosine-a0.001-b0.001", "cli-node1_gcn-csv"]


@pytest.fixture
def copy(tmp_path):
    shutil.copytree(REPO / "src" / "glg", tmp_path / "copy" / "src" / "glg",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return tmp_path / "copy"


def test_a_copy_of_the_source_compares_equal(copy, tmp_path):
    lines = []
    assert identity.compare(str(REPO), str(copy), tmp_path / "out", CONFIGS,
                            lines.append) == 0
    assert lines[:2] == [f"{name}: equal" for name in CONFIGS]
    assert lines[2].startswith("2/2 configs equal")


def test_a_changed_constant_is_flagged(copy, tmp_path):
    numkit = copy / "src" / "glg" / "numkit.py"
    text = numkit.read_text()
    assert "ADAM_EPS = 1e-8\n" in text
    numkit.write_text(text.replace("ADAM_EPS = 1e-8\n", "ADAM_EPS = 1e-7\n"))
    lines = []
    assert identity.compare(str(REPO), str(copy), tmp_path / "out", CONFIGS,
                            lines.append) == 2
    assert lines[0].startswith(f"{CONFIGS[0]}: moved ")
    assert "0::final_objective (max abs" in lines[0]
    assert lines[1].startswith(f"{CONFIGS[1]}: moved ")
    assert "report.csv differs" in lines[1]
    # moved configs fail the run unless it only reports
    argv = ["--against", str(copy), "--only", CONFIGS[0],
            "--out", str(tmp_path / "out")]
    assert identity.main(argv) == 1
    assert identity.main(argv + ["--report"]) == 0
