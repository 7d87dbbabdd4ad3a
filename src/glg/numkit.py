"""Dense numeric kernel: pseudoinverse, least squares, Adam, L-BFGS,
assignment, RNG.

Everything runs in float64. All randomness flows through an explicit
``numpy.random.Generator`` so that a seed fully determines every draw.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError, check_int

__all__ = [
    "AdamState",
    "LbfgsMemory",
    "adam_step",
    "as_matrix",
    "hungarian_assign",
    "least_squares",
    "make_rng",
    "pseudoinverse",
    "sample_bernoulli",
]

# Relative singular-value cutoff. The closed-form recoveries assume exact
# rank, so it is tight rather than the usual eps*max(m,n).
PINV_TOL = 1e-10

# Adam's moment decay rates and denominator guard (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


def as_matrix(a, name="matrix"):
    """Coerce to a 2-D float64 array and reject non-finite entries."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise ShapeError(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise NumericError(f"{name} contains NaN or Inf")
    return m


def pseudoinverse(m):
    """Moore-Penrose pseudoinverse via SVD.

    Singular values at or below ``PINV_TOL * sigma_max`` are treated as zero.
    """
    m = as_matrix(m)
    try:
        u, s, vt = np.linalg.svd(m, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD did not converge: {exc}") from exc
    if s.size == 0 or s[0] == 0.0:
        return np.zeros((m.shape[1], m.shape[0]))
    inv = np.where(s > PINV_TOL * s[0], 1.0 / np.where(s > 0, s, 1.0), 0.0)
    return (vt.T * inv) @ u.T


def least_squares(a, b):
    """Minimum-norm solution of ``a @ x ~= b``."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[0] != b.shape[0]:
        raise ShapeError(f"row mismatch: a has {a.shape[0]}, b has {b.shape[0]}")
    x, _, _, _ = np.linalg.lstsq(a, b, rcond=None)
    return x


@dataclass
class AdamState:
    """Adam moment buffers for one optimized variable."""

    lr: float = 0.05
    step: int = 0
    m: np.ndarray = field(default=None, repr=False)
    v: np.ndarray = field(default=None, repr=False)


def adam_step(state, var, grad):
    """One bias-corrected Adam update; returns the updated variable."""
    var = np.asarray(var, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if var.shape != grad.shape:
        raise ShapeError(f"variable {var.shape} vs gradient {grad.shape}")
    if state.m is None:
        state.m = np.zeros_like(var)
        state.v = np.zeros_like(var)
    if state.m.shape != var.shape:
        raise ShapeError(f"Adam buffers {state.m.shape} vs variable {var.shape}")
    state.step += 1
    # in place: m *= b1 rounds exactly like the product b1 * m
    state.m *= ADAM_BETA1
    state.m += (1.0 - ADAM_BETA1) * grad
    state.v *= ADAM_BETA2
    state.v += (1.0 - ADAM_BETA2) * grad * grad
    m_hat = state.m / (1.0 - ADAM_BETA1 ** state.step)
    v_hat = state.v / (1.0 - ADAM_BETA2 ** state.step)
    return var - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)


class LbfgsMemory:
    """The last ``size`` curvature pairs of an L-BFGS run on vectors of
    length ``dim``, and their inner products.

    :meth:`push` keeps a pair (s, y) when s . y > 0, dropping the oldest
    beyond ``size``; :meth:`direction` is the two-loop recursion's -H g
    (Nocedal & Wright, Numerical Optimization, algorithm 7.4), the initial
    inverse Hessian the newest pair's s . y / y . y times the identity. The
    pairs and g are rows of one stack, and the dot products among the
    pairs are kept as Python floats, refreshed by one product with the
    stack per pair pushed. So a direction is one product of the stack with
    g, the recursion on scalars, and one weighted sum of the rows.
    """

    def __init__(self, size, dim):
        self.size = size
        k = size + 1  # slots: one more than the pairs held, for a push
        # rows 2i and 2i + 1 are slot i's s and y; the last row is the
        # gradient of the last direction
        self._rows = np.zeros((2 * k + 1, dim))
        self._slots = list(range(k))  # the held slots, oldest first
        self._held = 0
        self._sy = [[0.0] * k for _ in range(k)]  # s_i . y_j
        self._yy = [[0.0] * k for _ in range(k)]  # y_i . y_j

    def push(self, z_new, z_old, g_new, g_old):
        """Store s = z_new - z_old and y = g_new - g_old unless s . y <= 0;
        returns whether the pair was kept."""
        slot = self._slots[self._held]
        pair = self._rows[2 * slot:2 * slot + 2]
        np.subtract(z_new, z_old, out=pair[0])
        np.subtract(g_new, g_old, out=pair[1])
        dots = np.dot(self._rows, pair.T).tolist()  # row . s, row . y
        if not dots[2 * slot][1] > 0.0:
            return False
        sy, yy = self._sy, self._yy
        for i in self._slots[:self._held + 1]:
            sy[slot][i] = dots[2 * i + 1][0]
            sy[i][slot] = dots[2 * i][1]
            yy[i][slot] = yy[slot][i] = dots[2 * i + 1][1]
        if self._held < self.size:
            self._held += 1
        else:
            self._slots.append(self._slots.pop(0))  # the oldest slot is free
        return True

    def direction(self, grad):
        """-H grad, or None when ``grad`` is exactly zero; with no pair
        held, the unit steepest descent -grad / ||grad||."""
        rows = self._rows
        rows[-1] = grad
        p = np.dot(rows, grad).tolist()  # s_i . g and y_i . g, then g . g
        if p[-1] == 0.0 and not grad.any():
            return None
        if not self._held:
            # scaled first, so that ||grad|| neither underflows nor overflows
            u = grad / np.abs(grad).max()
            return u * (-1.0 / math.sqrt(np.dot(u, u)))
        sy, yy = self._sy, self._yy
        held = self._slots[:self._held]
        # the weights of -H g on the rows
        coef = [0.0] * len(p)
        # first loop, newest pair first: alpha_i = s_i . q / s_i . y_i with
        # q = g - sum_j alpha_j y_j over the newer pairs j
        alpha = {}
        for n in range(len(held) - 1, -1, -1):
            i = held[n]
            t = p[2 * i]
            for j in held[n + 1:]:
                t -= alpha[j] * sy[i][j]
            alpha[i] = t / sy[i][i]
        newest = held[-1]
        gamma = sy[newest][newest] / yy[newest][newest]
        # second loop, oldest pair first: beta_i = y_i . r / s_i . y_i with
        # r = gamma q + sum_j (alpha_j - beta_j) s_j over the older pairs j
        for n, i in enumerate(held):
            t = p[2 * i + 1]
            for j in held:
                t -= alpha[j] * yy[i][j]
            t *= gamma
            for j in held[:n]:
                t -= coef[2 * j] * sy[j][i]
            coef[2 * i] = t / sy[i][i] - alpha[i]
            coef[2 * i + 1] = gamma * alpha[i]
        coef[-1] = -gamma
        return np.dot(coef, rows)


def hungarian_assign(cost):
    """Minimum-cost assignment of rows to columns of a square cost matrix.

    Returns ``perm`` with row ``i`` assigned to column ``perm[i]``.
    """
    # imported here: scipy.optimize would otherwise dominate ``import glg``
    from scipy.optimize import linear_sum_assignment

    cost = as_matrix(cost, "cost")
    if cost.shape[0] != cost.shape[1]:
        raise ShapeError(f"cost matrix must be square, got {cost.shape}")
    rows, cols = linear_sum_assignment(cost)
    perm = np.empty(cost.shape[0], dtype=np.int64)
    perm[rows] = cols
    return perm


def make_rng(seed):
    """Seeded generator; identical seed gives an identical draw sequence.
    The seed is an integer >= 0 (:class:`ConfigError` otherwise)."""
    check_int(seed, "seed", 0)
    return np.random.Generator(np.random.PCG64(seed))


def sample_bernoulli(rng, probs):
    """Entrywise Bernoulli draw; ``probs`` entries must lie in [0, 1].

    An entry that is NaN, Inf or outside [0, 1] raises :class:`NumericError`.
    """
    probs = np.asarray(probs, dtype=np.float64)
    # a NaN fails both comparisons, so it is rejected with the out-of-range
    if not ((probs >= 0.0) & (probs <= 1.0)).all():
        raise NumericError("bernoulli probabilities must lie in [0, 1]")
    return (rng.random(probs.shape) < probs).astype(np.float64)
