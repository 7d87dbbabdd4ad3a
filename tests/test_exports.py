"""Every exported or traced name resolves, so a deletion cannot leave one
behind, and the bench's tracer sees every call of the passes it names."""

import ast
import collections
import importlib
import importlib.util
import pathlib
import pkgutil

import pytest

import glg
from glg import attacks, closed_form, federated, graphs, metrics, models, numkit

MODULES = [m.name for m in pkgutil.iter_modules(glg.__path__)]
ROOT = pathlib.Path(__file__).resolve().parents[1]


def load_tracing():
    spec = importlib.util.spec_from_file_location(
        "tracing", ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


@pytest.mark.parametrize("name", MODULES)
def test_module_all_resolves(name):
    module = importlib.import_module(f"glg.{name}")
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_package_imports_resolve():
    tree = ast.parse(pathlib.Path(glg.__file__).read_text())
    imported = [(node.module, alias.name) for node in tree.body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names]
    assert imported
    module_attr = [(m, n) for m, n in imported
                   if not hasattr(importlib.import_module(f"glg.{m}"), n)]
    package_attr = [n for _, n in imported if not hasattr(glg, n)]
    assert module_attr == [] and package_attr == []


def test_traced_names_exist():
    tracing = load_tracing()
    missing = [(m, attr) for m, attr, _ in tracing.PATCHES
               if not hasattr(importlib.import_module(f"glg.{m}"), attr)]
    assert tracing.PATCHES and missing == []


ITERATIONS = 7


def traced_calls(run):
    """Calls per layer name while ``run`` runs under the bench's tracer."""
    tracing = load_tracing()
    recorder = tracing.SpanRecorder()
    with tracing.Patched(recorder, {"attacks": attacks,
                                    "closed_form": closed_form,
                                    "federated": federated,
                                    "metrics": metrics}):
        run()
    return collections.Counter(name for name, *_ in recorder.spans)


def node_setup(framework):
    r = numkit.make_rng(5)
    g = graphs.synthetic_graph(r, 8, 2, 4, num_classes=3)
    return g, models.init_params(r, framework, "node", 4, 6, 3)


def run_node1():
    g, params = node_setup("sage")
    leak = federated.leak(params, g, "node1", targets=[3])
    spec = attacks.AttackSpec(scenario="node1", iterations=ITERATIONS, d_tree=2)
    attacks.attack_node1(leak, spec, params, numkit.make_rng(0))


def run_batched_node():
    g, params = node_setup("sage")
    leak = federated.leak(params, g, "batched-node", targets=[1, 3, 6])
    spec = attacks.AttackSpec(scenario="node1", iterations=ITERATIONS, d_tree=2)
    attacks.attack_batched(leak, spec, params, g.labels[[1, 3, 6]],
                           rng=numkit.make_rng(0))


def run_node2a():
    g, params = node_setup("gcn")
    leak = federated.leak(params, g, "node2")
    spec = attacks.AttackSpec(scenario="node2a", iterations=ITERATIONS)
    attacks.attack_node2(leak, spec, params, known_features=g.features,
                         rng=numkit.make_rng(0))


def run_graph_a():
    r = numkit.make_rng(6)
    g = graphs.synthetic_graph(r, 6, 2, 4)
    g = graphs.Graph(adjacency=g.adjacency, features=g.features, graph_label=1)
    params = models.init_params(r, "sage", "graph", 4, 5, 3, num_nodes=6)
    leak = federated.leak(params, g, "graph")
    spec = attacks.AttackSpec(scenario="graph_a", iterations=ITERATIONS)
    attacks.attack_graph(leak, spec, params, known_features=g.features,
                         rng=numkit.make_rng(0))


@pytest.mark.parametrize("run, task, structure, bundles", [
    (run_node1, "node", False, True), (run_batched_node, "node", False, True),
    (run_node2a, "node", True, False), (run_graph_a, "graph", True, True),
], ids=["node1", "batched-node", "node2a", "graph_a"])
def test_trace_counts_every_pass(run, task, structure, bundles):
    calls = traced_calls(run)
    # the leak's forward and bundle pass, then, on an attack that matches
    # bundles, one of each per objective evaluation, and every evaluation
    # takes one matching gradient. node2a matches the layer inputs of the
    # leak's 8 nodes, one row ratio each, and runs no model pass. The
    # structure attacks' Adam evaluates once per step and once more to
    # score the result; the features-only attacks' L-BFGS spends all its
    # evaluations on these small problems
    evaluations = ITERATIONS + 1 if structure else ITERATIONS
    passes = evaluations if bundles else 0
    assert calls[f"models.{task}_ctx"] == 1 + passes
    assert calls[f"models.{task}_bundles"] == calls[f"models.{task}_ctx"]
    assert calls[f"models.{task}_matching_grad"] == passes
    assert calls["closed_form.recover_agg_features"] == (0 if bundles else 8)
    assert calls["numkit.adam_step"] == (ITERATIONS if structure else 0)
    # an optimized adjacency is normalized, forward and backward, at every
    # evaluation; the dummy-tree attacks normalize their tree once
    assert calls["graphs.normalize_dense"] == (evaluations if structure else 1)
    assert calls["graphs.normalize_dense_backward"] == (
        evaluations if structure else 0)
