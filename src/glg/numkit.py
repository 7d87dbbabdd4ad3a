"""Dense numeric kernel: pseudoinverse, least squares, Adam, assignment, RNG.

Everything runs in float64. All randomness flows through an explicit
``numpy.random.Generator`` so that a seed fully determines every draw.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import NumericError, ShapeError, check_int

__all__ = [
    "AdamState",
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
