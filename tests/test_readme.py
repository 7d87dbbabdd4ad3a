"""README's code runs as written."""

import pathlib
import re

import numpy as np

from glg import metrics

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def python_block(heading):
    """The first ```python block under the README section ``heading``."""
    section = README.read_text().split(f"\n## {heading}\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_taste_runs():
    scope = {}
    exec(compile(python_block("Quick taste"), "README.md", "exec"), scope)
    result, g = scope["result"], scope["g"]
    # the closed form is exact; the iterative attack returns a symmetric graph
    assert metrics.rnmse(g.features, scope["features"]) < 1e-8
    assert result.features.shape == g.features.shape
    assert np.array_equal(result.adjacency, result.adjacency.T)
