"""Outside-in layer tracing: spans recorded around glg's public functions.

The recorder wraps the functions that ``glg.attacks``, ``glg.federated``,
``glg.closed_form`` and ``glg.metrics`` look up in their own module
namespaces, and swaps the wrappers in only while a traced repetition runs.
Nothing inside ``src/glg`` knows it is being traced. Spans are kept in memory
as ``(name, start_ns, end_ns, parent_index)`` and written out when the run
ends; all times are integer nanoseconds, so self times add up exactly.
"""

import functools
import json
import time

ROOT = "rep"

# (module, attribute the module calls through, layer name). A layer name is
# ``<defining module>.<function>``; the three attack entry points share one
# name because a workload runs exactly one of them.
PATCHES = (
    ("federated", "leak", "federated.leak"),
    ("federated", "node_ctx", "models.node_ctx"),
    ("federated", "node_bundles", "models.node_bundles"),
    ("federated", "graph_ctx", "models.graph_ctx"),
    ("federated", "graph_bundles", "models.graph_bundles"),
    ("attacks", "attack_node1", "attacks.attack"),
    ("attacks", "attack_node2", "attacks.attack"),
    ("attacks", "attack_graph", "attacks.attack"),
    ("attacks", "node_ctx", "models.node_ctx"),
    ("attacks", "node_bundles", "models.node_bundles"),
    ("attacks", "node_matching_grad", "models.node_matching_grad"),
    ("attacks", "graph_ctx", "models.graph_ctx"),
    ("attacks", "graph_bundles", "models.graph_bundles"),
    ("attacks", "graph_matching_grad", "models.graph_matching_grad"),
    ("attacks", "infer_label", "models.infer_label"),
    ("attacks", "adam_step", "numkit.adam_step"),
    ("attacks", "smoothness_grads", "attacks.smoothness_grads"),
    ("attacks", "frobenius_penalty", "attacks.frobenius_penalty"),
    ("attacks", "normalize_dense", "graphs.normalize_dense"),
    ("attacks", "normalize_dense_backward", "graphs.normalize_dense_backward"),
    ("attacks", "dummy_tree", "graphs.dummy_tree"),
    ("attacks", "finalize_adjacency", "attacks.finalize_adjacency"),
    ("closed_form", "recover_agg_features", "closed_form.recover_agg_features"),
    ("closed_form", "recover_adjacency_given_features",
     "closed_form.recover_adjacency_given_features"),
    ("closed_form", "pseudoinverse", "numkit.pseudoinverse"),
    ("metrics", "rnmse", "metrics.rnmse"),
    ("metrics", "score_adjacency", "metrics.score_adjacency"),
)

LAYERS = tuple(dict.fromkeys(name for _, _, name in PATCHES))


class SpanRecorder:
    """In-memory span store with a stack that gives each span its parent."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def wrap(self, name, fn):
        spans = self.spans
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # reserve the slot so parents precede children
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter_ns()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def write(self, path):
        """One JSON array per line: index, parent, name, start_ns, end_ns."""
        with open(path, "w") as fh:
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(json.dumps([i, parent, name, start, end]) + "\n")


class Patched:
    """Context manager that swaps traced wrappers into the glg modules."""

    def __init__(self, recorder, modules):
        self._recorder = recorder
        self._modules = modules
        self._saved = []

    def __enter__(self):
        for mod_name, attr, layer in PATCHES:
            mod = self._modules[mod_name]
            original = getattr(mod, attr)
            self._saved.append((mod, attr, original))
            setattr(mod, attr, self._recorder.wrap(layer, original))
        return self

    def __exit__(self, *exc):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()
        return False


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    ``spans`` holds ``(name, start, end, parent)`` tuples. The recorder
    takes them from one call stack, so children never overlap each other
    and lie inside their parent.
    """
    out = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def per_rep_totals(spans):
    """Per root span: its wall time, the self time and call count per layer.

    The root's own self time is reported as ``untraced`` (the part of the
    repetition no layer span covers), so ``sum(self) + untraced == wall``.
    """
    selfs = self_times(spans)
    reps = []
    for (name, start, end, parent), own in zip(spans, selfs):
        if parent < 0:
            reps.append({"wall": end - start, "untraced": own,
                         "self": {}, "calls": {}})
            continue
        rep = reps[-1]
        rep["self"][name] = rep["self"].get(name, 0) + own
        rep["calls"][name] = rep["calls"].get(name, 0) + 1
    return reps
