import itertools
import os
import subprocess
import sys

import numpy as np
import pytest

import glg
from glg import numkit
from glg.errors import NumericError, ShapeError

rng = numkit.make_rng(2024)


class TestPseudoinverse:
    def test_identity(self):
        assert np.allclose(numkit.pseudoinverse(np.eye(3)), np.eye(3))

    def test_rank_deficient_diagonal(self):
        got = numkit.pseudoinverse(np.diag([2.0, 0.0]))
        assert np.allclose(got, np.diag([0.5, 0.0]))

    def test_penrose_condition_full_row_rank(self):
        m = rng.standard_normal((4, 6))
        p = numkit.pseudoinverse(m)
        assert np.abs(m @ p @ m - m).max() < 1e-8

    def test_all_penrose_conditions(self):
        for _ in range(30):
            shape = (int(rng.integers(1, 6)), int(rng.integers(1, 6)))
            m = rng.standard_normal(shape)
            p = numkit.pseudoinverse(m)
            assert np.abs(m @ p @ m - m).max() < 1e-8
            assert np.abs(p @ m @ p - p).max() < 1e-8
            assert np.abs((m @ p) - (m @ p).T).max() < 1e-8
            assert np.abs((p @ m) - (p @ m).T).max() < 1e-8

    def test_rejects_nan(self):
        with pytest.raises(NumericError):
            numkit.pseudoinverse(np.array([[np.nan, 0.0], [0.0, 1.0]]))


class TestLeastSquares:
    def test_identity_system(self):
        x = numkit.least_squares(np.eye(2), np.array([[3.0], [4.0]]))
        assert np.allclose(x, [[3.0], [4.0]])

    def test_overdetermined_consistent(self):
        a = rng.standard_normal((8, 3))
        x_true = rng.standard_normal((3, 2))
        x = numkit.least_squares(a, a @ x_true)
        assert np.linalg.norm(a @ x - a @ x_true) < 1e-10

    def test_underdetermined_matches_pseudoinverse(self):
        a = rng.standard_normal((3, 7))
        b = rng.standard_normal((3, 2))
        x = numkit.least_squares(a, b)
        assert np.abs(x - numkit.pseudoinverse(a) @ b).max() < 1e-10

    def test_dimension_mismatch(self):
        with pytest.raises(ShapeError):
            numkit.least_squares(np.eye(3), np.ones((2, 1)))


class TestAdam:
    def test_zero_gradient_no_move(self):
        state = numkit.AdamState(lr=0.1)
        var = rng.standard_normal((3, 2))
        out = numkit.adam_step(state, var, np.zeros_like(var))
        assert np.array_equal(out, var)

    def test_constant_gradient_monotone(self):
        state = numkit.AdamState(lr=0.01)
        var = np.zeros((2, 2))
        grad = np.array([[1.0, -2.0], [0.5, -0.1]])
        prev = var
        for _ in range(100):
            var = numkit.adam_step(state, var, grad)
            assert np.all(np.sign(var - prev) == -np.sign(grad))
            prev = var

    def test_first_step_magnitude(self):
        state = numkit.AdamState(lr=0.05)
        var = np.zeros((1, 3))
        out = numkit.adam_step(state, var, np.array([[3.0, -0.2, 10.0]]))
        assert np.allclose(np.abs(out), 0.05, rtol=1e-6)

    def test_in_place_moments_match_the_formula(self):
        r = numkit.make_rng(17)
        state = numkit.AdamState(lr=0.05)
        var = r.standard_normal((4, 3))
        m = v = np.zeros_like(var)
        want = var
        for step in range(1, 51):
            grad = r.standard_normal(var.shape)
            before = var.copy()
            out = numkit.adam_step(state, var, grad)
            # the result is a new array; the input is left as it was
            assert not np.shares_memory(out, var)
            assert np.array_equal(var, before)
            m = 0.9 * m + (1.0 - 0.9) * grad
            v = 0.999 * v + (1.0 - 0.999) * grad * grad
            m_hat = m / (1.0 - 0.9 ** step)
            v_hat = v / (1.0 - 0.999 ** step)
            want = want - 0.05 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert np.array_equal(out, want)
            assert np.array_equal(state.m, m) and np.array_equal(state.v, v)
            var = out

    def test_shape_mismatch(self):
        state = numkit.AdamState()
        with pytest.raises(ShapeError):
            numkit.adam_step(state, np.zeros((2, 2)), np.zeros((3, 2)))


def two_loop(grad, pairs):
    """The textbook two-loop recursion over (s, y) pairs, oldest first."""
    if not pairs:
        return -grad / np.linalg.norm(grad)
    q = grad.copy()
    alphas = []
    for s, y in reversed(pairs):
        alphas.append(np.dot(s, q) / np.dot(s, y))
        q -= alphas[-1] * y
    s, y = pairs[-1]
    q *= np.dot(s, y) / np.dot(y, y)
    for (s, y), a in zip(pairs, reversed(alphas)):
        q += (a - np.dot(y, q) / np.dot(s, y)) * s
    return -q


class TestLbfgsMemory:
    @staticmethod
    def _steps_against_the_two_loop_recursion(size):
        """L-BFGS steps on a convex quadratic, each direction compared with
        the two-loop recursion's; the pairs pushed at steps 4 and 9 have
        s . y = 0."""
        r = numkit.make_rng(31)
        dim, steps, refused = 12, 16, (4, 9)
        h = r.standard_normal((dim, dim))
        h = h @ h.T + np.eye(dim)
        memory = numkit.LbfgsMemory(size, dim)
        pairs = []
        z = r.standard_normal(dim)
        g = h @ z
        for step in range(steps):
            want = two_loop(g, pairs)
            # a gradient other than the last push's reads the stack itself,
            # and the last push's products still serve its own
            assert np.allclose(memory.direction(-g), -want, rtol=1e-12,
                               atol=0.0)
            d = memory.direction(g)
            assert np.allclose(d, want, rtol=1e-12, atol=0.0)
            z_new = z + 0.5 * d
            g_new = g if step in refused else h @ z_new
            kept = memory.push(z_new, z, g_new, g)
            assert kept == (step not in refused)
            if kept:
                pairs = (pairs + [(z_new - z, g_new - g)])[-size:]
            z, g = z_new, g_new
        assert len(pairs) == min(size, steps - len(refused))

    def test_directions_equal_the_two_loop_recursion(self):
        # the memory wraps around at step 3, and each refused pair is
        # written into the free slot that the next kept pair reuses
        self._steps_against_the_two_loop_recursion(3)

    def test_memory_deeper_than_the_run(self):
        self._steps_against_the_two_loop_recursion(64)

    def test_no_pair_gives_the_unit_steepest_descent(self):
        g = np.array([3.0, -4.0])
        d = numkit.LbfgsMemory(3, 2).direction(g)
        assert np.allclose(d, [-0.6, 0.8], rtol=1e-15, atol=0.0)

    def test_zero_gradient_has_no_direction(self):
        memory = numkit.LbfgsMemory(3, 4)
        assert memory.direction(np.zeros(4)) is None
        # a gradient whose squared norm underflows is not zero
        tiny = np.full(4, 1e-310)
        assert np.all(memory.direction(tiny) < 0.0)

    def test_pair_with_non_positive_curvature_is_skipped(self):
        memory = numkit.LbfgsMemory(3, 2)
        z0, z1 = np.zeros(2), np.array([1.0, 0.0])
        assert not memory.push(z1, z0, np.array([-1.0, 0.0]), np.zeros(2))
        assert not memory.push(z1, z0, np.array([0.0, 1.0]), np.zeros(2))
        g = np.array([0.0, 2.0])
        assert np.array_equal(memory.direction(g), [0.0, -1.0])


class TestHungarian:
    def test_identity_cost(self):
        cost = np.ones((3, 3)) - np.eye(3)
        assert np.array_equal(numkit.hungarian_assign(cost), [0, 1, 2])

    def test_two_by_two(self):
        perm = numkit.hungarian_assign(np.array([[4.0, 1.0], [2.0, 3.0]]))
        assert np.array_equal(perm, [1, 0])

    def test_matches_bruteforce_six(self):
        for _ in range(20):
            cost = rng.standard_normal((6, 6))
            perm = numkit.hungarian_assign(cost)
            got = cost[np.arange(6), perm].sum()
            best = min(
                cost[np.arange(6), list(p)].sum()
                for p in itertools.permutations(range(6))
            )
            assert got <= best + 1e-12

    def test_beats_random_permutations(self):
        cost = rng.standard_normal((12, 12))
        perm = numkit.hungarian_assign(cost)
        got = cost[np.arange(12), perm].sum()
        for _ in range(1000):
            p = rng.permutation(12)
            assert got <= cost[np.arange(12), p].sum() + 1e-12

    def test_non_square(self):
        with pytest.raises(ShapeError):
            numkit.hungarian_assign(np.ones((2, 3)))


class TestSampling:
    def test_bernoulli_degenerate(self):
        r = numkit.make_rng(0)
        assert not numkit.sample_bernoulli(r, np.zeros((4, 4))).any()
        assert numkit.sample_bernoulli(r, np.ones((4, 4))).all()

    def test_bernoulli_mean(self):
        r = numkit.make_rng(1)
        draws = numkit.sample_bernoulli(r, np.full((100, 100), 0.5))
        assert abs(draws.mean() - 0.5) < 0.02

    def test_bernoulli_range_check(self):
        with pytest.raises(NumericError):
            numkit.sample_bernoulli(numkit.make_rng(0), np.array([[1.5]]))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_bernoulli_rejects_non_finite(self, bad):
        # a NaN compares False both ways, so it once drew 0 silently
        with pytest.raises(NumericError, match=r"\[0, 1\]"):
            numkit.sample_bernoulli(numkit.make_rng(0), np.array([bad, 0.5]))

    def test_seed_reproducibility(self):
        a = numkit.make_rng(7).standard_normal((5, 5))
        b = numkit.make_rng(7).standard_normal((5, 5))
        assert np.array_equal(a, b)
        x = numkit.make_rng(9).integers(0, 1000, size=8)
        y = numkit.make_rng(9).integers(0, 1000, size=8)
        assert np.array_equal(x, y)
        assert not np.array_equal(
            numkit.make_rng(8).standard_normal((5, 5)), a)


class TestImport:
    def test_import_glg_loads_no_scipy(self):
        # scipy is imported on first use only; it would dominate import time
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.dirname(os.path.dirname(glg.__file__))
        out = subprocess.run(
            [sys.executable, "-c",
             "import sys, glg; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True, text=True, env=env, check=True)
        assert out.stdout.strip() == "[]"
