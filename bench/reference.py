"""The reference kernel: a fixed numpy loop, independent of glg.

The worker times it before the first repetition and after each one, and
divides each repetition's wall time by the mean of the two kernel times
around it. The host this benchmark was tuned on drifts in speed by tens of
percent over seconds to minutes; the ratio cancels much of that drift.

Its mix resembles an attack iteration, because code of a different mix
slows down by a different factor on a busy host:
- a 111x10 -> 100 sigmoid layer with its backward pass, like the node
  forward of ``node1_tree``;
- an 8-node matching step with many small numpy calls and Python-level
  bookkeeping (symmetric adjacency from its lower triangle, GCN
  normalization, softmax head, cosine of two flattened gradient bundles,
  Adam with projection), like ``node2a_gcn`` and ``graph_a_sage``.

Changing this file changes every timing metric's unit, so it stays fixed.
"""

import math

import numpy as np

N, D, F, K = 8, 16, 20, 3


def _wide_layer(x, w1, w2):
    h = 1.0 / (1.0 + np.exp(-(x @ w1)))
    return x - 1e-3 * (((h * (1.0 - h)) * (h @ w2 @ w2.T)) @ w1.T)


def _small_step(vec, state, data):
    x, w1, w2, labels, target = data
    lo = np.tril_indices(N, -1)
    a = np.zeros((N, N))
    a[lo] = vec
    m = a + a.T + np.eye(N)
    d = 1.0 / np.sqrt(m.sum(axis=1))
    an = m * np.outer(d, d)
    h = 1.0 / (1.0 + np.exp(-(an @ x @ w1.T)))
    z = h @ w2.T
    q = np.exp(z - z.max(axis=1, keepdims=True))
    q /= q.sum(axis=1, keepdims=True)
    q[np.arange(N), labels] -= 1.0
    grads = {"w2": q.T @ h, "w1": ((q @ w2) * h * (1.0 - h)).T @ (an @ x)}
    flat = np.concatenate([grads[key].ravel() for key in sorted(grads)])
    cos = float(flat @ target / (np.linalg.norm(flat) * np.linalg.norm(target)))
    ga = np.outer(d, d) * (q @ w2 @ w1 @ x.T)
    g = (ga + ga.T)[lo] * (1.0 - cos)
    state["step"] += 1
    state["m"] = 0.9 * state["m"] + 0.1 * g
    state["v"] = 0.999 * state["v"] + 0.001 * g * g
    m_hat = state["m"] / (1.0 - 0.9 ** state["step"])
    v_hat = state["v"] / (1.0 - 0.999 ** state["step"])
    state["trace"].append(math.fsum((cos, float(vec.mean()))))
    return np.clip(vec - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8), 0.0, 1.0)


def reference_kernel(rounds=120):
    """About 45 ms on a 2-vCPU Xeon host, a quarter of it in the 111-row
    layer; returns a checksum."""
    rng = np.random.default_rng(12345)
    x = rng.standard_normal((111, 10))
    w1 = rng.standard_normal((10, 100)) / 3.0
    w2 = rng.standard_normal((100, 4)) / 10.0
    data = (rng.standard_normal((N, D)), rng.standard_normal((F, D)) / 4.0,
            rng.standard_normal((K, F)) / 4.0, rng.integers(0, K, size=N),
            rng.standard_normal(K * F + F * D))
    vec = np.full(N * (N - 1) // 2, 0.5)
    state = {"step": 0, "m": np.zeros_like(vec), "v": np.zeros_like(vec),
             "trace": []}
    for _ in range(rounds):
        x = _wide_layer(x, w1, w2)
        vec = _small_step(vec, state, data)
        vec = _small_step(vec, state, data)
    return float(x.sum() + vec.sum()) + len(state["trace"])
