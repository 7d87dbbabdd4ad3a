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
    length ``dim``, and the products that give its direction.

    :meth:`push` keeps a pair (s, y) when s . y > 0, dropping the oldest
    beyond ``size``; :meth:`direction` is -H g in the compact form of
    Byrd, Nocedal & Schnabel (Math. Prog. 63, 1994), which equals the
    two-loop recursion's (Nocedal & Wright, Numerical Optimization,
    algorithm 7.4)::

        H = gamma I + [S  gamma Y] M [S^T; gamma Y^T]
        M = [[R^-T (D + gamma Y^T Y) R^-1, -R^-T], [-R^-1, 0]]

    with the pairs the columns of S and Y, oldest first, R the upper
    triangle of S^T Y, D its diagonal and gamma the newest pair's
    s . y / y . y. So -H g = -gamma g - S q + gamma Y p, with
    p = R^-1 S^T g and q = R^-T ((D + gamma Y^T Y) p - gamma Y^T g).

    The pairs and g are rows of one stack, in slots; R^-1, Y^T Y and D
    are kept in slot order, R^-1 zero in the rows and columns of the slots
    not held. A push adds R^-1's column for its pair (the inverse of
    [[R, r], [0, rho]] is [[R^-1, -R^-1 r / rho], [0, 1 / rho]]), and
    dropping the oldest pair zeroes its row: R^-1's trailing block is the
    inverse of R's, and the oldest pair's column is zero off the diagonal.
    A push reads the stack once, against its y and its g_new, which also
    gives the next direction's S^T g and Y^T g; a direction is then a few
    products of slot-sized arrays and one weighted sum of the rows,
    whatever the pair count.
    """

    def __init__(self, size, dim):
        self.size = size
        # slots: one more than the pairs held, for a push
        self._k = k = size + 1
        # row i is slot i's s, row k + i its y; the last row is the
        # gradient of the last push or direction
        self._rows = np.zeros((2 * k + 1, dim))
        self._slots = list(range(k))  # the held slots, oldest first
        self._held = 0
        self._rinv = np.zeros((k, k))  # R^-1, zero outside the held slots
        self._yy = np.zeros((k, k))  # y_i . y_j
        self._sy = np.zeros(k)  # D's diagonal, s_i . y_i
        self._gamma = 0.0
        # the g_new of the last push and every row's product with it
        self._grad = self._dots = None

    def push(self, z_new, z_old, g_new, g_old):
        """Store s = z_new - z_old and y = g_new - g_old unless s . y <= 0;
        returns whether the pair was kept."""
        k, slot, rows = self._k, self._slots[self._held], self._rows
        np.subtract(z_new, z_old, out=rows[slot])
        np.subtract(g_new, g_old, out=rows[k + slot])
        rows[-1] = g_new
        dots = np.dot(rows[[k + slot, -1]], rows.T)  # y . row, g_new . row
        self._grad, self._dots = g_new, dots[1]
        sy = dots[0, slot]
        if not sy > 0.0:
            return False
        rinv = self._rinv
        if self._held < self.size:
            self._held += 1
        else:
            oldest = self._slots.pop(0)
            self._slots.append(oldest)  # the oldest slot is free
            rinv[oldest] = 0.0
        column = np.dot(rinv, dots[0, :k])  # R^-1 S^T y
        column *= -1.0 / sy
        column[slot] = 1.0 / sy
        rinv[:, slot] = column
        yy = dots[0, k:-1]
        self._yy[slot] = self._yy[:, slot] = yy
        self._sy[slot] = sy
        self._gamma = sy / yy[slot]
        return True

    def direction(self, grad):
        """-H grad, or None when ``grad`` is exactly zero; with no pair
        held, the unit steepest descent -grad / ||grad||. A direction at
        the last push's ``g_new``, unchanged since, takes that push's
        products with the stack; any other gradient reads the stack once
        more."""
        k, rows, dots = self._k, self._rows, self._dots
        if grad is not self._grad:
            rows[-1] = grad
            dots = np.dot(rows, grad)
            self._grad = None  # the gradient row no longer holds g_new
        if dots[-1] == 0.0 and not grad.any():
            return None
        if not self._held:
            # scaled first, so that ||grad|| neither underflows nor overflows
            u = grad / np.abs(grad).max()
            return u * (-1.0 / math.sqrt(np.dot(u, u)))
        gamma, rinv = self._gamma, self._rinv
        p = np.dot(rinv, dots[:k])
        w = np.dot(self._yy, p)
        w -= dots[k:-1]
        w *= gamma
        w += self._sy * p
        # the weights of -H g on the rows: -q = -R^-T w on the s rows,
        # gamma p on the y rows, -gamma on the gradient row
        coef = np.empty(len(dots))
        np.dot(w, rinv, out=coef[:k])
        coef[:k] *= -1.0
        np.multiply(p, gamma, out=coef[k:-1])
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
