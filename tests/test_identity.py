"""tools/identity.py: an unchanged copy of the source compares equal, and a
copy with one constant changed is flagged, on a two-config subset. An
installed package compared with itself, as CI's determinism step runs it,
is equal unless a report depends on the process that writes it or a CLI run
fails."""

import importlib.util
import pathlib
import shutil

import pytest

REPO = pathlib.Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location(
    "identity", REPO / "tools" / "identity.py")
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)

# one direct attack config and one CLI run, which compares files byte for
# byte; both step with Adam, which the changed constant reaches
CONFIGS = ["graph_a-sage-cosine-a0.001-b0.001", "cli-node2c-csv"]


def _copy_source(dest):
    shutil.copytree(REPO / "src" / "glg", dest / "glg",
                    ignore=shutil.ignore_patterns("__pycache__"))


@pytest.fixture
def copy(tmp_path):
    _copy_source(tmp_path / "copy" / "src")
    return tmp_path / "copy"


@pytest.fixture
def site(tmp_path):
    """A copy laid out as an installed package: ``glg`` in site-packages."""
    _copy_source(tmp_path / "site")
    return tmp_path / "site"


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


def _self_compare(site, tmp_path):
    """CI's determinism comparison on ``site``, one CLI config: the number
    of configs that moved, and the lines."""
    lines = []
    moved = identity.compare(str(site), str(site), tmp_path / "out",
                             CONFIGS[1:], lines.append)
    return moved, lines


def test_an_installed_package_compares_equal_to_itself(site, tmp_path):
    assert identity.source_dir(site, tmp_path) == site.resolve()
    moved, lines = _self_compare(site, tmp_path)
    assert moved == 0
    assert lines[0] == f"{CONFIGS[1]}: equal"
    assert lines[1].startswith("1/1 configs equal")


# what two runs of each CLI config catch: a report that depends on the
# process that writes it, and a CLI run that does not exit 0
RUN_FAULTS = {
    "pid in the csv header": ("experiments.py", "writer.writerow(header)\n",
                              "writer.writerow(header + [os.getpid()])\n",
                              "report.csv differs"),
    "exit code 1": ("cli.py", "_emit(rows, cfg, args)\n        return 0\n",
                    "_emit(rows, cfg, args)\n        return 1\n",
                    "exit code 1 vs 1"),
}


@pytest.mark.parametrize("fault", RUN_FAULTS)
def test_a_self_comparison_flags_a_faulty_run(site, tmp_path, fault):
    module, old, new, moved_line = RUN_FAULTS[fault]
    path = site / "glg" / module
    text = path.read_text()
    assert text.count(old) == 1
    path.write_text(text.replace(old, new))
    moved, lines = _self_compare(site, tmp_path)
    assert moved == 1
    assert lines[0] == f"{CONFIGS[1]}: moved {moved_line}"
    # and CI's command line fails on it
    assert identity.main(["--tree", str(site), "--against", str(site),
                          "--only", CONFIGS[1],
                          "--out", str(tmp_path / "out")]) == 1
