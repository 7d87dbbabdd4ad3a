import itertools

import numpy as np
import pytest

from glg import metrics, numkit
from glg.errors import NumericError, ShapeError, UndefinedMetricError

rng = numkit.make_rng(404)


def random_binary_adj(r, n, p=0.5):
    a = np.zeros((n, n))
    iu = np.triu_indices(n, k=1)
    a[iu] = (r.random(len(iu[0])) < p).astype(np.float64)
    return a + a.T


class TestRnmse:
    def test_exact(self):
        x = rng.standard_normal(6)
        assert metrics.rnmse(x, x) == 0.0

    def test_zero_prediction(self):
        x = rng.standard_normal(6)
        assert metrics.rnmse(x, np.zeros(6)) == pytest.approx(1.0)

    def test_hand_values(self):
        x = np.array([3.0, 4.0])
        assert metrics.rnmse(x, np.zeros(2)) == pytest.approx(1.0)
        assert metrics.rnmse(x, np.array([3.0, 0.0])) == pytest.approx(4 / 5)

    def test_zero_truth_error(self):
        with pytest.raises(UndefinedMetricError):
            metrics.rnmse(np.zeros(3), np.ones(3))

    def test_triangle_bound(self):
        for _ in range(20):
            x = rng.standard_normal(5)
            y = rng.standard_normal(5)
            bound = (np.linalg.norm(y) + np.linalg.norm(x)) / np.linalg.norm(x)
            assert metrics.rnmse(x, y) <= bound + 1e-12

    def test_per_row_mean(self):
        x = np.array([[3.0, 4.0], [1.0, 0.0]])
        xh = np.array([[3.0, 0.0], [0.0, 0.0]])
        assert metrics.rnmse_per_row(x, xh) == pytest.approx((0.8 + 1.0) / 2)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("side", ["x_true", "x_hat"])
    def test_non_finite_input_raises(self, bad, side):
        """A NaN or Inf never becomes a NaN error; the message names the
        argument that holds it."""
        x = np.ones((2, 3))
        broken = x.copy()
        broken[1, 0] = bad
        args = (broken, x) if side == "x_true" else (x, broken)
        for metric in (metrics.rnmse, metrics.rnmse_per_row):
            with pytest.raises(NumericError, match=side):
                metric(*args)
        with pytest.raises(NumericError, match=side):
            metrics.rnmse(args[0][1], args[1][1])


class TestAccuracy:
    def test_exact(self):
        a = random_binary_adj(rng, 5)
        assert metrics.adjacency_accuracy(a, a) == 1.0

    def test_complement_two_nodes(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        flipped = np.array([[0.0, 0.0], [0.0, 0.0]])
        assert metrics.adjacency_accuracy(a, flipped) == 0.5

    def test_entry_loop_oracle(self):
        a = random_binary_adj(rng, 6)
        b = random_binary_adj(rng, 6)
        want = np.mean([a[i, j] == b[i, j] for i in range(6) for j in range(6)])
        assert metrics.adjacency_accuracy(a, b) == pytest.approx(want)

    def test_rejects_nonbinary(self):
        with pytest.raises(ShapeError):
            metrics.adjacency_accuracy(np.zeros((2, 2)),
                                       np.full((2, 2), 0.5))


def brute_force_auc(a, scores):
    idx = np.tril_indices(a.shape[0], k=-1)
    labels = a[idx]
    vals = scores[idx]
    pos = vals[labels == 1.0]
    neg = vals[labels == 0.0]
    total = 0.0
    for p in pos:
        for q in neg:
            total += 1.0 if p > q else (0.5 if p == q else 0.0)
    return total / (len(pos) * len(neg))


class TestAuc:
    def test_perfect_scores(self):
        a = random_binary_adj(numkit.make_rng(3), 5)
        assert metrics.auc(a, a) == 1.0

    def test_constant_scores(self):
        a = random_binary_adj(numkit.make_rng(4), 5)
        assert metrics.auc(a, np.full((5, 5), 0.3)) == pytest.approx(0.5)

    def test_four_node_hand_ranking(self):
        a = np.zeros((4, 4))
        a[1, 0] = a[0, 1] = 1.0
        a[3, 2] = a[2, 3] = 1.0
        s = np.zeros((4, 4))
        s[1, 0] = 0.9   # edge, top rank
        s[2, 0] = 0.7   # non-edge above one edge
        s[3, 2] = 0.5   # edge
        s[2, 1] = 0.2
        s[3, 0] = 0.1
        s[3, 1] = 0.0
        assert metrics.auc(a, s) == pytest.approx(brute_force_auc(a, s))

    def test_matches_bruteforce_small(self):
        for seed in range(30):
            r = numkit.make_rng(900 + seed)
            n = int(r.integers(3, 7))
            a = random_binary_adj(r, n)
            idx = np.tril_indices(n, k=-1)
            if a[idx].sum() in (0, len(idx[0])):
                continue
            scores = np.zeros((n, n))
            scores[idx] = np.round(r.random(len(idx[0])), 1)  # force ties
            assert metrics.auc(a, scores) == pytest.approx(
                brute_force_auc(a, scores), abs=1e-12)

    def test_tied_scores_hand_value(self):
        a = np.zeros((4, 4))
        for i, j in ((1, 0), (2, 1), (3, 2)):
            a[i, j] = a[j, i] = 1.0
        s = np.zeros((4, 4))
        s[1, 0], s[2, 1], s[3, 2] = 0.8, 0.5, 0.5   # edges
        s[2, 0], s[3, 0], s[3, 1] = 0.5, 0.2, 0.8   # non-edges
        # ranks 0.2 -> 1, the three 0.5 -> 3, the two 0.8 -> 5.5; edge rank
        # sum 11.5, so AUC = (11.5 - 3 * 4 / 2) / (3 * 3) = 11/18
        assert metrics.auc(a, s) == 11.0 / 18.0

    def test_non_finite_scores_raise(self):
        a = np.zeros((3, 3))
        a[1, 0] = a[0, 1] = 1.0
        s = np.full((3, 3), 0.5)
        s[2, 1] = np.nan
        with pytest.raises(NumericError):
            metrics.auc(a, s)

    def test_single_class_error(self):
        with pytest.raises(UndefinedMetricError):
            metrics.auc(np.zeros((3, 3)), np.zeros((3, 3)))


class TestAveragePrecision:
    def test_exact(self):
        a = random_binary_adj(numkit.make_rng(5), 6)
        assert metrics.average_precision(a, a) == 1.0

    def test_predict_everything(self):
        a = random_binary_adj(numkit.make_rng(6), 5)
        full = np.ones((5, 5)) - np.eye(5)
        edges = a[np.tril_indices(5, k=-1)].sum()
        assert metrics.average_precision(a, full) == pytest.approx(edges / 10)

    def test_empty_prediction_error(self):
        a = random_binary_adj(numkit.make_rng(7), 4)
        with pytest.raises(UndefinedMetricError):
            metrics.average_precision(a, np.zeros((4, 4)))


class TestMae:
    def test_exact(self):
        a = random_binary_adj(rng, 5)
        assert metrics.mae_lower_tri(a, a) == 0.0

    def test_one_entry_formula(self):
        a = np.zeros((2, 2))
        b = np.zeros((2, 2))
        b[1, 0] = 1.0
        assert metrics.mae_lower_tri(a, b) == pytest.approx(1 / 3)

    def test_all_differ(self):
        a = np.zeros((4, 4))
        b = np.ones((4, 4))
        assert metrics.mae_lower_tri(a, b) == 1.0

    @pytest.mark.parametrize("side", ["a_true", "a_hat"])
    def test_non_finite_input_raises(self, side):
        a = np.zeros((3, 3))
        broken = a.copy()
        broken[2, 1] = np.nan
        args = (broken, a) if side == "a_true" else (a, broken)
        with pytest.raises(NumericError, match=side):
            metrics.mae_lower_tri(*args)


class TestPermutationConsistency:
    def test_all_adjacency_scores(self):
        r = numkit.make_rng(8)
        a = random_binary_adj(r, 6)
        b = random_binary_adj(r, 6)
        prob = r.random((6, 6))
        prob = np.tril(prob, -1) + np.tril(prob, -1).T
        perm = r.permutation(6)
        pa = a[np.ix_(perm, perm)]
        pb = b[np.ix_(perm, perm)]
        pp = prob[np.ix_(perm, perm)]
        assert metrics.adjacency_accuracy(a, b) == pytest.approx(
            metrics.adjacency_accuracy(pa, pb))
        assert metrics.mae_lower_tri(a, b) == pytest.approx(
            metrics.mae_lower_tri(pa, pb))
        if a[np.tril_indices(6, -1)].sum() not in (0, 15):
            assert metrics.auc(a, prob) == pytest.approx(metrics.auc(pa, pp))
            if b[np.tril_indices(6, -1)].sum() > 0:
                assert metrics.average_precision(a, b) == pytest.approx(
                    metrics.average_precision(pa, pb))


class TestBatchMatch:
    def test_permuted_truth(self):
        xs = [rng.standard_normal(4) for _ in range(5)]
        recovered = [xs[i] for i in (3, 0, 4, 1, 2)]
        score = metrics.batch_match_score(xs, recovered)
        assert score.mean == 0.0

    def test_two_sample_hand_costs(self):
        xs = [np.array([1.0, 0.0]), np.array([0.0, 2.0])]
        rec = [np.array([0.0, 1.9]), np.array([1.1, 0.0])]
        score = metrics.batch_match_score(xs, rec)
        want = np.mean([metrics.rnmse(xs[0], rec[1]),
                        metrics.rnmse(xs[1], rec[0])])
        assert score.mean == pytest.approx(want)
        best = min(
            np.mean([metrics.rnmse(xs[0], rec[p[0]]),
                     metrics.rnmse(xs[1], rec[p[1]])])
            for p in itertools.permutations(range(2))
        )
        assert score.mean == pytest.approx(best)

    def test_zero_recovery(self):
        xs = [rng.standard_normal(4) for _ in range(3)]
        score = metrics.batch_match_score(xs, [np.zeros(4)] * 3)
        assert score.mean == pytest.approx(1.0)

    def test_count_mismatch(self):
        with pytest.raises(ShapeError):
            metrics.batch_match_score([np.ones(2)], [np.ones(2), np.ones(2)])
