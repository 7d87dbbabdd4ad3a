import numpy as np
import pytest

from glg import graphs, numkit
from glg.errors import ConfigError, DataFormatError, NumericError, ShapeError

rng = numkit.make_rng(77)


def parts_of(a, mode):
    """normalize_dense's ``(normalized, degrees, scale)``, filled through
    ``out`` into NaN buffers as an attack's are before its first call."""
    n = len(a)
    parts = (np.full((n, n), np.nan), np.full(n, np.nan), np.full(n, np.nan))
    assert graphs.normalize_dense(a, mode, out=parts) is parts[0]
    return parts


def two_node_path(feature_dim=3):
    return graphs.Graph(
        adjacency=np.array([[0.0, 1.0], [1.0, 0.0]]),
        features=rng.standard_normal((2, feature_dim)),
    )


class TestGraphType:
    def test_rejects_asymmetric(self):
        with pytest.raises(ShapeError):
            graphs.Graph(adjacency=np.array([[0.0, 1.0], [0.0, 0.0]]),
                         features=np.zeros((2, 1)))

    def test_rejects_self_loop(self):
        with pytest.raises(ShapeError):
            graphs.Graph(adjacency=np.eye(2), features=np.zeros((2, 1)))

    def test_rejects_nonbinary(self):
        with pytest.raises(ShapeError):
            graphs.Graph(adjacency=np.array([[0.0, 0.5], [0.5, 0.0]]),
                         features=np.zeros((2, 1)))

    # an adjacency with more rows than one block of the entry scan; each
    # defect sits in another block or across the diagonal
    @pytest.mark.parametrize("r, c", [(0, 600), (600, 0), (300, 5), (5, 300),
                                      (600, 599), (256, 255)])
    @pytest.mark.parametrize("defect, error, match", [
        ("one side", ShapeError, "symmetric"),
        ("two", ShapeError, "0 or 1"),
        ("nan", NumericError, "NaN or Inf"),
        ("inf both sides", NumericError, "NaN or Inf"),
        ("nan and diagonal", NumericError, "NaN or Inf"),
        ("two and diagonal", ShapeError, "diagonal"),
    ])
    def test_entry_defects_in_any_block(self, r, c, defect, error, match):
        n = 601
        a = graphs.er_graph(numkit.make_rng(7), n, 0.01, 1).adjacency
        if defect == "one side":
            a[r, c] = 1.0 - a[r, c]
        elif defect == "nan":
            a[r, c] = np.nan
        else:
            a[r, c] = a[c, r] = np.inf if defect.startswith("inf") else 2.0
            if defect.endswith("diagonal"):
                a[3, 3] = 1.0
            if defect.startswith("nan"):
                a[r, c] = np.nan
        with pytest.raises(error, match=match):
            graphs.Graph(adjacency=a, features=np.zeros((n, 1)))

    # a label is a class index under the rule the model traces apply:
    # fractions and bools are refused, not truncated to 1 and 0
    @pytest.mark.parametrize("labels", [[1.5, 0.9], [True, False]],
                             ids=["fraction", "bool"])
    def test_rejects_non_integer_labels(self, labels):
        with pytest.raises(ShapeError, match="labels must be a vector of "
                                             "integers"):
            graphs.Graph(adjacency=np.zeros((2, 2)), features=np.zeros((2, 1)),
                         labels=labels)

    @pytest.mark.parametrize("labels", [[0, -1],
                                        np.array([2**63, 0], dtype=np.uint64)],
                             ids=["negative", "past-int64"])
    def test_rejects_negative_labels(self, labels):
        with pytest.raises(ShapeError, match="label out of range"):
            graphs.Graph(adjacency=np.zeros((2, 2)), features=np.zeros((2, 1)),
                         labels=labels)


class TestNormalization:
    def test_two_node_path_gcn(self):
        got = graphs.normalize_adjacency(two_node_path(), "gcn")
        assert got.mode == "gcn"
        assert np.allclose(got.matrix, 0.5 * np.ones((2, 2)))

    def test_two_node_path_sage(self):
        got = graphs.normalize_adjacency(two_node_path(), "sage-mean")
        assert np.allclose(got.matrix, [[0.0, 1.0], [1.0, 0.0]])

    def test_gcn_entrywise_oracle(self):
        g = graphs.er_graph(rng, 6, 0.5, 2)
        got = graphs.normalize_adjacency(g, "gcn").matrix
        m = g.adjacency + np.eye(6)
        deg = m.sum(axis=1)
        for i in range(6):
            for j in range(6):
                assert got[i, j] == pytest.approx(
                    m[i, j] / np.sqrt(deg[i] * deg[j]), abs=1e-12)

    def test_sage_rows_mean_neighbors(self):
        g = graphs.er_graph(rng, 7, 0.4, 3)
        anorm = graphs.normalize_adjacency(g, "sage-mean").matrix
        agg = anorm @ g.features
        for i in range(7):
            nbrs = g.neighbors(i)
            if len(nbrs):
                assert np.allclose(agg[i], g.features[nbrs].mean(axis=0))
            else:
                assert np.allclose(anorm[i], 0.0)

    def test_gcn_adds_the_identity_bit_for_bit(self):
        r = numkit.make_rng(14)
        a = r.random((6, 6))
        a = np.tril(a, -1) + np.tril(a, -1).T
        before = a.copy()
        m = a + np.eye(6)
        d = m.sum(axis=1)
        scale = 1.0 / np.sqrt(d)
        got = parts_of(a, "gcn")
        assert np.array_equal(a, before)  # the input is not modified
        for part, want in zip(got, (m * scale[:, None] * scale[None, :], d,
                                    scale)):
            assert np.array_equal(part, want)

    def test_gcn_aggregation_oracle(self):
        g = graphs.er_graph(rng, 6, 0.5, 3)
        anorm = graphs.normalize_adjacency(g, "gcn").matrix
        agg = anorm @ g.features
        m = g.adjacency + np.eye(6)
        deg = m.sum(axis=1)
        for i in range(6):
            want = sum(g.features[j] / np.sqrt(deg[i] * deg[j])
                       for j in range(6) if m[i, j] > 0)
            assert np.allclose(agg[i], want)


class TestNormalizationBackward:
    @pytest.mark.parametrize("mode", ["gcn", "sage-mean"])
    def test_matches_finite_differences(self, mode):
        a = graphs.er_graph(rng, 5, 0.6, 1).adjacency.copy()
        gbar = rng.standard_normal((5, 5))

        def scalar():
            return float((gbar * graphs.normalize_dense(a, mode)).sum())

        got = graphs.normalize_dense_backward(gbar, parts_of(a, mode), mode)
        eps = 1e-6
        for i in range(5):
            for j in range(5):
                old = a[i, j]
                a[i, j] = old + eps
                fp = scalar()
                a[i, j] = old - eps
                fm = scalar()
                a[i, j] = old
                assert got[i, j] == pytest.approx((fp - fm) / (2 * eps),
                                                  rel=1e-5, abs=1e-8)


    @pytest.mark.parametrize("mode", ["gcn", "sage-mean"])
    def test_forward_parts_give_the_same_bits(self, mode):
        # the parts that the attack loop hands to the backward hold the
        # matrix that normalize_dense returns
        r = numkit.make_rng(13)
        a = np.abs(r.standard_normal((5, 5)))
        a = np.tril(a, -1) + np.tril(a, -1).T
        a[2] = a[:, 2] = 0.0  # a zero-degree row
        parts = parts_of(r.random((5, 5)), mode)
        graphs.normalize_dense(a, mode, out=parts)  # a refill
        assert np.array_equal(parts[0], graphs.normalize_dense(a, mode))

    @pytest.mark.parametrize("mode", ["gcn", "sage-mean"])
    def test_backward_into_a_buffer_gives_the_same_bits(self, mode):
        r = numkit.make_rng(15)
        a = np.abs(r.standard_normal((5, 5)))
        a = np.tril(a, -1) + np.tril(a, -1).T
        a[3] = a[:, 3] = 0.0  # a zero-degree row
        gbar = r.standard_normal((5, 5))
        parts = parts_of(a, mode)
        want = graphs.normalize_dense_backward(gbar, parts, mode)
        out = np.full((5, 5), np.nan)
        got = graphs.normalize_dense_backward(gbar, parts, mode, out=out)
        assert got is out and np.array_equal(got, want)
        if mode == "sage-mean":
            assert np.all(got[3] == 0.0)


class TestLaplacian:
    def test_empty_graph(self):
        g = graphs.Graph(adjacency=np.zeros((3, 3)), features=np.zeros((3, 1)))
        assert np.array_equal(graphs.laplacian(g), np.eye(3))

    def test_two_node_path(self):
        lap = graphs.laplacian(two_node_path())
        assert np.allclose(lap, [[1.0, -1.0], [-1.0, 1.0]])

    def test_dirichlet_identity(self):
        g = graphs.synthetic_graph(rng, 8, 3, 1)
        lap = graphs.laplacian(g)
        x = rng.standard_normal(8)
        deg = g.degrees()
        want = 0.0
        ii, jj = np.nonzero(np.triu(g.adjacency, k=1))
        for i, j in zip(ii, jj):
            want += (x[i] / np.sqrt(deg[i]) - x[j] / np.sqrt(deg[j])) ** 2
        iso = deg == 0
        want += (x[iso] ** 2).sum()
        assert x @ lap @ x == pytest.approx(want, abs=1e-10)

    def test_positive_semidefinite(self):
        g = graphs.er_graph(rng, 9, 0.4, 1)
        vals = np.linalg.eigvalsh(graphs.laplacian(g))
        assert vals.min() > -1e-10


class TestGenerators:
    def test_er_degenerate(self):
        empty = graphs.er_graph(rng, 6, 0.0, 2)
        assert empty.adjacency.sum() == 0
        full = graphs.er_graph(rng, 6, 1.0, 2)
        assert full.adjacency.sum() == 6 * 5

    def test_er_expected_edges(self):
        counts = [graphs.er_graph(numkit.make_rng(i), 50, 4 / 49, 1).adjacency.sum() / 2
                  for i in range(200)]
        assert abs(np.mean(counts) - 100) < 15

    def test_synthetic_exact_edge_count(self):
        g = graphs.synthetic_graph(rng, 50, 4, 10, num_classes=4)
        assert g.adjacency.sum() / 2 == 100

    def test_synthetic_zero_degree(self):
        g = graphs.synthetic_graph(rng, 10, 0, 2, num_classes=3)
        assert g.adjacency.sum() == 0
        assert g.labels is not None and len(g.labels) == 10

    def test_synthetic_label_histogram(self):
        g = graphs.synthetic_graph(numkit.make_rng(5), 10_000, 2, 1,
                                   num_classes=4)
        hist = np.bincount(g.labels, minlength=4) / 10_000
        assert np.abs(hist - 0.25).max() < 0.03

    def test_synthetic_too_many_edges(self):
        with pytest.raises(ConfigError, match="avg_degree"):
            graphs.synthetic_graph(rng, 4, 4, 1)

    @pytest.mark.parametrize("n", range(2, 61))
    def test_synthetic_pairs_are_the_triu_enumeration(self, n):
        # the reference numbers the pairs with np.triu_indices, from the same
        # draw of pair indices
        for avg_degree in (1, min(3.5, n - 1), n - 1):
            g = graphs.synthetic_graph(numkit.make_rng(n), n, avg_degree, 2)
            chosen = numkit.make_rng(n).choice(
                n * (n - 1) // 2, size=int(avg_degree * n) // 2, replace=False)
            iu = np.triu_indices(n, k=1)
            ref = np.zeros((n, n))
            ref[iu[0][chosen], iu[1][chosen]] = 1.0
            assert np.array_equal(g.adjacency, ref + ref.T)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 50])
    @pytest.mark.parametrize("p", [0.0, 0.1, 0.5, 1.0])
    def test_er_pairs_are_the_triu_enumeration(self, n, p):
        # the reference keeps the pairs np.triu_indices lists, one draw
        # each, then draws the features and labels from the same generator
        for seed in range(3):
            g = graphs.er_graph(numkit.make_rng(seed), n, p, 3, num_classes=4)
            r = numkit.make_rng(seed)
            ref = np.zeros((n, n))
            iu = np.triu_indices(n, k=1)
            ref[iu] = (r.random(len(iu[0])) < p).astype(np.float64)
            want = graphs._attach_features(r, ref + ref.T, 3, 4)
            assert np.array_equal(g.adjacency, want.adjacency)
            assert np.array_equal(g.features, want.features)
            assert np.array_equal(g.labels, want.labels)

    def test_tree_single_child(self):
        g = graphs.dummy_tree(rng, 1, 2)
        assert g.num_nodes == 3
        assert np.array_equal(np.nonzero(g.adjacency[0])[0], [1])

    def test_tree_ten(self):
        g = graphs.dummy_tree(rng, 10, 4)
        assert g.num_nodes == 111
        assert g.adjacency.sum() / 2 == 110

    @pytest.mark.parametrize("d", [1, 2, 5, 10])
    def test_tree_grandchildren_follow_their_parent(self, d):
        # child c's grandchildren are nodes 1 + c * d, ..., (c + 1) * d
        a = graphs.dummy_tree(rng, d, 2).adjacency
        want = np.zeros_like(a)
        for c in range(1, d + 1):
            want[0, c] = want[c, 0] = 1.0
            for gc in range(1 + c * d, 1 + (c + 1) * d):
                want[c, gc] = want[gc, c] = 1.0
        assert np.array_equal(a, want)

    def test_tree_internal_degree(self):
        d = 4
        g = graphs.dummy_tree(rng, d, 2)
        deg = g.degrees()
        assert deg[0] == d
        for c in range(1, d + 1):
            assert deg[c] == d + 1
        assert np.all(deg[d + 1:] == 1)


class TestEgonet:
    def test_zero_hops(self):
        g = graphs.er_graph(rng, 6, 0.5, 2, num_classes=2)
        sub, idx = graphs.khop_egonet(g, 3, 0)
        assert sub.num_nodes == 1 and idx[0] == 3

    def test_star_one_hop(self):
        a = np.zeros((5, 5))
        a[0, 1:] = a[1:, 0] = 1.0
        g = graphs.Graph(adjacency=a, features=np.zeros((5, 2)))
        sub, idx = graphs.khop_egonet(g, 0, 1)
        assert sub.num_nodes == 5 and idx[0] == 0

    def test_matches_shortest_path_filter(self):
        g = graphs.er_graph(rng, 12, 0.2, 1)
        sub, idx = graphs.khop_egonet(g, 4, 3)
        cur = {4}
        seen = {4: 0}
        for depth in range(1, 4):
            nxt = set()
            for u in cur:
                for v in np.nonzero(g.adjacency[u])[0]:
                    if v not in seen:
                        seen[int(v)] = depth
                        nxt.add(int(v))
            cur = nxt
        assert set(idx.tolist()) == set(seen)

    def test_idempotent(self):
        g = graphs.er_graph(rng, 10, 0.3, 2, num_classes=2)
        sub, _ = graphs.khop_egonet(g, 2, 2)
        twice, idx = graphs.khop_egonet(sub, 0, 2)
        assert np.array_equal(twice.adjacency, sub.adjacency)
        assert np.array_equal(idx, np.arange(sub.num_nodes))

    @pytest.mark.parametrize("k", [1.5, -1, True])
    def test_rejects_non_integer_or_negative_hops(self, k):
        g = graphs.synthetic_graph(numkit.make_rng(0), 8, 3, 2)
        with pytest.raises(ConfigError, match="k: must be"):
            graphs.khop_egonet(g, 0, k)


class TestFileIO:
    def test_two_node_path(self, tmp_path):
        (tmp_path / "x.csv").write_text("1.0,2.0\n3.0,4.0\n")
        (tmp_path / "e.txt").write_text("0 1\n")
        g = graphs.load_graph(tmp_path / "x.csv", tmp_path / "e.txt")
        assert g.adjacency[0, 1] == 1.0 and g.num_nodes == 2

    def test_duplicate_edges_collapse(self, tmp_path):
        (tmp_path / "x.csv").write_text("1.0\n2.0\n")
        (tmp_path / "e.txt").write_text("0 1\n1 0\n0,1\n")
        g = graphs.load_graph(tmp_path / "x.csv", tmp_path / "e.txt")
        assert g.adjacency.sum() == 2  # one undirected edge

    def test_round_trip(self, tmp_path):
        g = graphs.synthetic_graph(rng, 9, 2, 4, num_classes=3)
        graphs.save_graph(g, tmp_path / "x.csv", tmp_path / "e.txt",
                          tmp_path / "y.txt")
        back = graphs.load_graph(tmp_path / "x.csv", tmp_path / "e.txt",
                                 tmp_path / "y.txt")
        assert np.array_equal(back.adjacency, g.adjacency)
        assert np.array_equal(back.features, g.features)
        assert np.array_equal(back.labels, g.labels)

    def test_labels_of_an_unlabeled_graph_write_nothing(self, tmp_path):
        g = graphs.er_graph(rng, 4, 0.5, 2)
        paths = [tmp_path / f for f in ("x.csv", "e.txt", "y.txt")]
        with pytest.raises(ConfigError, match="label_file"):
            graphs.save_graph(g, *paths)
        assert list(tmp_path.iterdir()) == []

    def test_malformed_edge_reports_line(self, tmp_path):
        (tmp_path / "x.csv").write_text("1.0\n2.0\n")
        (tmp_path / "e.txt").write_text("0 1\nbroken\n")
        with pytest.raises(DataFormatError) as err:
            graphs.load_graph(tmp_path / "x.csv", tmp_path / "e.txt")
        assert err.value.line == 2

    def test_out_of_range_index(self, tmp_path):
        (tmp_path / "x.csv").write_text("1.0\n2.0\n")
        (tmp_path / "e.txt").write_text("0 5\n")
        with pytest.raises(DataFormatError):
            graphs.load_graph(tmp_path / "x.csv", tmp_path / "e.txt")

    def test_negative_label_reports_line(self, tmp_path):
        (tmp_path / "x.csv").write_text("1.0\n2.0\n")
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "y.txt").write_text("0\n-1\n")
        with pytest.raises(DataFormatError) as err:
            graphs.load_graph(tmp_path / "x.csv", tmp_path / "e.txt",
                              tmp_path / "y.txt")
        assert err.value.line == 2
        assert "y.txt:2]" in str(err.value)

    def test_label_count_mismatch(self, tmp_path):
        (tmp_path / "x.csv").write_text("1.0\n2.0\n")
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "y.txt").write_text("1\n")
        with pytest.raises(DataFormatError):
            graphs.load_graph(tmp_path / "x.csv", tmp_path / "e.txt",
                              tmp_path / "y.txt")
