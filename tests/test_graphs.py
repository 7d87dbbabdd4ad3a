import numpy as np
import pytest

from glg import graphs, numkit
from glg.errors import DataFormatError, ShapeError

rng = numkit.make_rng(77)


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

        got = graphs.normalize_dense_backward(gbar, a, mode)
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
        # the attack loop feeds the forward's parts to the backward
        r = numkit.make_rng(13)
        a = np.abs(r.standard_normal((5, 5)))
        a = np.tril(a, -1) + np.tril(a, -1).T
        a[2] = a[:, 2] = 0.0  # a zero-degree row
        gbar = r.standard_normal((5, 5))
        parts = graphs._normalize(a, mode)
        assert np.array_equal(parts[0], graphs.normalize_dense(a, mode))
        assert np.array_equal(graphs._normalize_backward(gbar, parts, mode),
                              graphs.normalize_dense_backward(gbar, a, mode))


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
        with pytest.raises(ValueError):
            graphs.synthetic_graph(rng, 4, 4, 1)

    def test_tree_single_child(self):
        g = graphs.dummy_tree(rng, 1, 2)
        assert g.num_nodes == 3
        assert np.array_equal(np.nonzero(g.adjacency[0])[0], [1])

    def test_tree_ten(self):
        g = graphs.dummy_tree(rng, 10, 4)
        assert g.num_nodes == 111
        assert g.adjacency.sum() / 2 == 110

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
        with pytest.raises(ValueError, match="hop count"):
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
