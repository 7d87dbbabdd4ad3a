"""Identity harness: does a change leave every attack result and CLI output
as it was?

Runs one fixed set of configs on two source trees and compares them:

- the direct set: the nine attack families (node1, node2a-c, graph_a-c,
  batched_node, batched_graph) x gcn/sage x l2/cosine x (alpha, beta) in
  {(0, 0), (0, 1e-3), (1e-3, 1e-3)}, at 300 iterations and d_tree 3. Every
  ``RecoveryResult`` field and ``final_objective`` is compared with
  ``np.array_equal`` (NaN equal to NaN);
- the CLI set: the eight configs of ``CLI_CONFIGS`` in both formats, with
  ``--dump``, and a sweep over alpha, run through ``glg.cli.main``. Every
  file is compared byte for byte, and every run must exit 0.

A tree is a git revision, extracted with ``git archive``, or a directory
holding ``src/glg`` or ``glg``. Each tree runs in one subprocess that
imports its own ``glg``, with BLAS pinned to one thread; the two run side
by side. Each writes its results to ``<out>/<label>.npz`` and its CLI
outputs under ``<out>/<label>-cli/``. One line per config says ``equal``
or which fields moved, by how much.

    python tools/identity.py --against HEAD~1            # working tree vs parent
    python tools/identity.py --tree 19cb5f1 --against 68d7a91
    python tools/identity.py --against ../other-checkout --only node1-gcn-l2-a0-b0

A tree compared with itself checks that a run is deterministic: the two
runs are separate processes, each with its own hash seed. CI's determinism
step runs it so on the installed package, ``--tree "$site" --against
"$site"`` with ``site`` the directory that holds ``glg``; ``CLI_CONFIGS``
is the only copy of its configs.

Exits 1 when anything moved (or a run failed), unless ``--report`` is given.
"""

import argparse
import contextlib
import io
import json
import os
import pathlib
import shutil
import subprocess
import sys
import tarfile
import tempfile

import numpy as np

REPO = pathlib.Path(__file__).resolve().parents[1]

FAMILIES = ("node1", "node2a", "node2b", "node2c", "graph_a", "graph_b",
            "graph_c", "batched_node", "batched_graph")
REGULARIZERS = ((0, 0), (0, 1e-3), (1e-3, 1e-3))
ITERATIONS = 300
D_TREE = 3

# the CLI set's configs: the graph configs run the trace each graph attack
# refills; node1 and batched_node run the dummy-tree attack; the node
# attacks refill a node trace, the gcn ones without a self weight;
# graph_a_gcn optimizes the adjacency alone, on the gcn graph trace
_SMALL = {"n": 8, "avg_degree": 2, "feature_dim": 5, "num_classes": 3}
CLI_CONFIGS = {
    "node2c": {"scenario": "node2c", "framework": "sage", "hidden_dim": 10,
               "dataset": {"source": "synthetic", "n": 6, "avg_degree": 2,
                           "feature_dim": 12, "num_classes": 3},
               "attack": {"iterations": 100}, "egonet_hops": None,
               "repeats": 2, "seed": 3},
    "graph_c": {"scenario": "graph_c", "framework": "sage", "hidden_dim": 10,
                "dataset": {"source": "er", "n": 6, "avg_degree": 2,
                            "feature_dim": 5, "num_classes": 3},
                "attack": {"iterations": 100}, "repeats": 2, "seed": 4},
    "batched_graph": {"scenario": "batched_graph", "framework": "sage",
                      "hidden_dim": 10,
                      "dataset": {"source": "er", "n": 6, "avg_degree": 2,
                                  "feature_dim": 5, "num_classes": 3},
                      "attack": {"iterations": 100}, "batch_size": 3,
                      "repeats": 2, "seed": 5},
    "node1": {"scenario": "node1", "framework": "sage", "hidden_dim": 10,
              "dataset": {"source": "synthetic", **_SMALL},
              "attack": {"iterations": 100}, "repeats": 2, "seed": 6},
    "batched_node": {"scenario": "batched_node", "framework": "sage",
                     "hidden_dim": 10,
                     "dataset": {"source": "synthetic", **_SMALL},
                     "attack": {"iterations": 100}, "batch_size": 3,
                     "repeats": 2, "seed": 7},
    "node2a_gcn": {"scenario": "node2a", "framework": "gcn", "hidden_dim": 10,
                   "dataset": {"source": "synthetic", "n": 6, "avg_degree": 2,
                               "feature_dim": 12, "num_classes": 3},
                   "attack": {"iterations": 100}, "egonet_hops": None,
                   "repeats": 2, "seed": 8},
    "node1_gcn": {"scenario": "node1", "framework": "gcn", "hidden_dim": 10,
                  "dataset": {"source": "synthetic", **_SMALL},
                  "attack": {"iterations": 100}, "repeats": 2, "seed": 9},
    "graph_a_gcn": {"scenario": "graph_a", "framework": "gcn",
                    "hidden_dim": 10,
                    "dataset": {"source": "er", "n": 6, "avg_degree": 2,
                                "feature_dim": 5, "num_classes": 3},
                    "attack": {"iterations": 100}, "repeats": 2, "seed": 10},
}
RESULT_FIELDS = ("features", "adjacency_prob", "adjacency", "labels",
                 "objective_trace", "target_feature", "final_objective")


def direct_configs():
    """``{name: (family, framework, objective, alpha, beta, seed)}``; the
    seed depends on the family and framework only, so the variants of one
    model attack the same leak."""
    configs = {}
    for i, family in enumerate(FAMILIES):
        for j, framework in enumerate(("gcn", "sage")):
            for objective in ("l2", "cosine"):
                for alpha, beta in REGULARIZERS:
                    name = f"{family}-{framework}-{objective}-a{alpha}-b{beta}"
                    configs[name] = (family, framework, objective, alpha, beta,
                                     10 * i + j)
    return configs


def cli_runs():
    """``{name: argv}`` of the CLI set; ``{out}`` and ``{configs}`` stand for
    the run's output and config directories."""
    runs = {}
    for cfg in CLI_CONFIGS:
        for fmt in ("json", "csv"):
            runs[f"cli-{cfg}-{fmt}"] = [
                "attack", "--config", f"{{configs}}/{cfg}.json", "--format",
                fmt, "--dump", "--out", f"{{out}}/cli-{cfg}-{fmt}"]
    for fmt in ("json", "csv"):
        runs[f"cli-sweep-{fmt}"] = [
            "sweep", "--config", "{configs}/node2c.json", "--param", "alpha",
            "--values", "0,1e-9", "--format", fmt, "--out",
            f"{{out}}/cli-sweep-{fmt}"]
    return runs


# ---------------------------------------------------------------------------
# Worker: runs in a subprocess whose glg is the tree's own
# ---------------------------------------------------------------------------

def _run_direct(family, framework, objective, alpha, beta, seed):
    """The RecoveryResults of one direct config, as a list."""
    from glg.attacks import (AttackSpec, attack_batched, attack_graph,
                             attack_node1, attack_node2)
    from glg.federated import leak
    from glg.graphs import Graph, er_graph, synthetic_graph
    from glg.models import init_params
    from glg.numkit import make_rng

    rng = make_rng(seed)
    scenario = {"batched_node": "node1", "batched_graph": "graph_b"}.get(
        family, family)
    spec = AttackSpec(scenario=scenario, objective=objective, alpha=alpha,
                      beta=beta, iterations=ITERATIONS, d_tree=D_TREE)

    def labeled_er():
        g = er_graph(rng, 6, 0.4, 5, num_classes=3)
        return Graph(adjacency=g.adjacency, features=g.features,
                     labels=g.labels, graph_label=int(rng.integers(0, 3)))

    if "graph" in family:
        params = init_params(rng, framework, "graph", 5, 10, 3, num_nodes=6)
    else:
        width = 12 if family.startswith("node2") else 5
        params = init_params(rng, framework, "node", width, 10, 3)
    if family == "node1":
        g = synthetic_graph(rng, 8, 2, 5, num_classes=3)
        record = leak(params, g, "node1", targets=[int(rng.integers(0, 8))])
        return [attack_node1(record, spec, params, rng=rng)]
    if family == "batched_node":
        g = synthetic_graph(rng, 8, 2, 5, num_classes=3)
        targets = rng.choice(8, size=3, replace=False)
        record = leak(params, g, "batched-node", targets=targets)
        return attack_batched(record, spec, params, labels=g.labels[targets],
                              rng=rng)
    if family == "batched_graph":
        gs = [labeled_er() for _ in range(3)]
        record = leak(params, gs, "batched-graph")
        return attack_batched(record, spec, params,
                              labels=[g.graph_label for g in gs],
                              known_adjacencies=[g.adjacency for g in gs],
                              rng=rng)
    if family.startswith("node2"):
        g = synthetic_graph(rng, 6, 2, 12, num_classes=3)
        record, attack = leak(params, g, "node2"), attack_node2
    else:
        g = labeled_er()
        record, attack = leak(params, g, "graph"), attack_graph
    return [attack(record, spec, params, known_features=g.features,
                   known_adjacency=g.adjacency, rng=rng)]


def worker(npz_path, out_dir, names):
    """Run the named configs with this process's glg; write the direct
    results to ``npz_path`` and the CLI outputs under ``out_dir``."""
    from glg.cli import main as cli_main

    direct, runs = direct_configs(), cli_runs()
    configs_dir = pathlib.Path(out_dir) / "configs"
    configs_dir.mkdir(parents=True, exist_ok=True)
    for cfg, body in CLI_CONFIGS.items():
        (configs_dir / f"{cfg}.json").write_text(json.dumps(body))
    arrays = {}
    for name in names:
        if name in direct:
            for i, res in enumerate(_run_direct(*direct[name])):
                for field in RESULT_FIELDS:
                    value = getattr(res, field, None)
                    if value is not None:
                        arrays[f"{name}::{i}::{field}"] = np.asarray(value)
        else:
            argv = [a.format(out=out_dir, configs=configs_dir)
                    for a in runs[name]]
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli_main(argv)
            arrays[f"{name}::exit"] = np.asarray(code)
    np.savez(npz_path, **arrays)


# ---------------------------------------------------------------------------
# Comparison: runs both trees and compares what they wrote
# ---------------------------------------------------------------------------

def source_dir(tree, tmp):
    """The directory holding ``glg`` for a tree: a directory with ``src/glg``
    or ``glg``, else a git revision extracted into ``tmp``."""
    path = pathlib.Path(tree)
    for candidate in (path / "src", path):
        if (candidate / "glg" / "__init__.py").is_file():
            return candidate.resolve()
    archive = subprocess.run(["git", "-C", str(REPO), "archive", "--format=tar",
                              tree, "src/glg"], capture_output=True)
    if archive.returncode != 0:
        raise SystemExit(f"{tree!r} is neither a source directory nor a git "
                         f"revision: {archive.stderr.decode().strip()}")
    with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(tmp, filter="data")
        else:
            tar.extractall(tmp)
    return pathlib.Path(tmp, "src").resolve()


def run_trees(trees, out, names):
    """Run ``names`` on each ``(label, src)`` tree side by side; returns
    each tree's npz path and CLI directory, or exits on a failed run."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1")
    procs = {}
    for label, src in trees:
        cli_dir = out / f"{label}-cli"
        shutil.rmtree(cli_dir, ignore_errors=True)
        cmd = [sys.executable, str(pathlib.Path(__file__).resolve()),
               "--worker", str(out / f"{label}.npz"), str(cli_dir), *names]
        procs[label] = (subprocess.Popen(
            cmd, env=dict(env, PYTHONPATH=str(src)), stderr=subprocess.PIPE,
            text=True), out / f"{label}.npz", cli_dir)
    failed = []
    for label, (proc, _, _) in procs.items():
        _, err = proc.communicate()
        if proc.returncode != 0:
            failed.append(f"{label} run failed:\n{err}")
    if failed:
        raise SystemExit("\n".join(failed))
    return {label: (npz, cli_dir) for label, (_, npz, cli_dir) in procs.items()}


def _difference(a, b):
    """Max abs and max rel difference of two same-shaped numeric arrays."""
    a, b = a.astype(np.float64), b.astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        diff = np.abs(a - b)
        rel = diff / np.maximum(np.abs(a), np.abs(b))
    return float(np.nanmax(diff)), float(np.nanmax(np.where(diff == 0, 0, rel)))


def compare_direct(name, a, b):
    """The fields of one direct config that moved between npz files a, b."""
    prefix = f"{name}::"
    keys = sorted({k for k in (*a.files, *b.files) if k.startswith(prefix)})
    moved = []
    for key in keys:
        field = key[len(prefix):]
        if key not in a.files or key not in b.files:
            moved.append(f"{field} only in one tree")
        elif a[key].shape != b[key].shape:
            moved.append(f"{field} shape {a[key].shape} vs {b[key].shape}")
        elif not np.array_equal(a[key], b[key], equal_nan=True):
            abs_d, rel_d = _difference(a[key], b[key])
            moved.append(f"{field} (max abs {abs_d:.3g}, max rel {rel_d:.3g})")
    return moved


def compare_cli(name, a, b, dir_a, dir_b):
    """The files of one CLI run that differ between the two output trees,
    or its exit codes unless both are 0: every CLI config is valid."""
    codes = int(a[f"{name}::exit"]), int(b[f"{name}::exit"])
    if codes != (0, 0):
        return [f"exit code {codes[0]} vs {codes[1]}"]
    da, db = pathlib.Path(dir_a, name), pathlib.Path(dir_b, name)
    files = sorted({p.relative_to(d).as_posix() for d in (da, db)
                    for p in d.rglob("*") if p.is_file()})
    moved = []
    for f in files:
        pa, pb = da / f, db / f
        if not (pa.is_file() and pb.is_file()):
            moved.append(f"{f} only in one tree")
        elif pa.read_bytes() != pb.read_bytes():
            moved.append(f"{f} differs")
    return moved


def compare(tree, against, out, names, report_lines=print):
    """Run ``names`` on both trees and print one line per config; returns
    the number of configs that moved."""
    out = pathlib.Path(out).resolve()
    out.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        trees = [(label, source_dir(t, os.path.join(tmp, label)))
                 for label, t in (("tree", tree), ("against", against))]
        paths = run_trees(trees, out, names)
    (npz_a, cli_a), (npz_b, cli_b) = paths["tree"], paths["against"]
    moved_count = 0
    with np.load(npz_a) as a, np.load(npz_b) as b:
        for name in names:
            moved = (compare_cli(name, a, b, cli_a, cli_b)
                     if name.startswith("cli-")
                     else compare_direct(name, a, b))
            moved_count += bool(moved)
            report_lines(f"{name}: " + ("equal" if not moved
                                        else "moved " + "; ".join(moved)))
    report_lines(f"{len(names) - moved_count}/{len(names)} configs equal "
                 f"({tree} vs {against}); results in {out}")
    return moved_count


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="compare every attack result and CLI output of two trees")
    parser.add_argument("--against", required=True,
                        help="git revision or source directory to compare with")
    parser.add_argument("--tree", default=str(REPO),
                        help="the tree under test (default: this checkout)")
    parser.add_argument("--only", action="append", default=None,
                        help="run only this config (repeatable)")
    parser.add_argument("--out", default=str(REPO / "identity-out"),
                        help="directory for the npz files and CLI outputs")
    parser.add_argument("--report", action="store_true",
                        help="exit 0 even when something moved")
    args = parser.parse_args(argv)
    names = [*direct_configs(), *cli_runs()]
    unknown = sorted(set(args.only or ()) - set(names))
    if unknown:
        parser.error(f"unknown configs: {', '.join(unknown)}")
    moved = compare(args.tree, args.against, args.out, args.only or names)
    return 1 if moved and not args.report else 0


if __name__ == "__main__":
    if sys.argv[1:2] == ["--worker"]:
        worker(sys.argv[2], sys.argv[3], sys.argv[4:])
    else:
        sys.exit(main())
