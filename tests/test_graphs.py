"""Parser, featurization, normalization, batching and sampling tests."""

import numpy as np
import pytest

from latentgraph.engine import SparseMatrix, Value, spmm
from latentgraph.graphs import (
    Graph,
    GraphBatch,
    GraphDataset,
    NodeSplit,
    batch_graphs,
    degree_onehot,
    make_blob_dataset,
    make_sbm_graph,
    normalize_adjacency,
    parse_nodelevel,
    parse_tudataset,
    sample_node_subset,
    with_degree_features,
    write_nodelevel,
)


def write_tud(tmp_path, name, edges, indicator, labels, node_labels=None):
    d = tmp_path / name
    d.mkdir(parents=True, exist_ok=True)
    (d / f"{name}_A.txt").write_text(edges)
    (d / f"{name}_graph_indicator.txt").write_text(indicator)
    (d / f"{name}_graph_labels.txt").write_text(labels)
    if node_labels is not None:
        (d / f"{name}_node_labels.txt").write_text(node_labels)
    return tmp_path


def dense_reference(n, u, v):
    """Binary symmetric adjacency with zero diagonal, built entry by entry."""
    a = np.zeros((n, n))
    a[u, v] = a[v, u] = 1.0
    np.fill_diagonal(a, 0.0)
    return a


def assert_canonical(adj, dense):
    """The CSR equals ``dense`` with sorted columns and every stored value 1."""
    np.testing.assert_array_equal(adj.to_dense(), dense)
    assert adj.nnz == np.count_nonzero(dense)
    np.testing.assert_array_equal(adj.data, np.ones(adj.nnz))
    for r in range(adj.shape[0]):
        assert (np.diff(adj.indices[adj.indptr[r]:adj.indptr[r + 1]]) > 0).all()


def triangle():
    return Graph(3, SparseMatrix.from_dense(np.ones((3, 3)) - np.eye(3)), np.eye(3))


class TestTUDatasetParser:
    def test_two_node_single_graph(self, tmp_path):
        root = write_tud(tmp_path, "TOY", "1, 2\n2, 1\n", "1\n1\n", "1\n")
        ds = parse_tudataset(str(root), "TOY")
        assert len(ds) == 1
        g = ds[0]
        assert g.num_nodes == 2
        np.testing.assert_array_equal(g.adjacency.to_dense(), [[0, 1], [1, 0]])
        assert g.label == 0

    def test_labels_remapped_contiguously(self, tmp_path):
        root = write_tud(tmp_path, "TOY", "1, 2\n3, 4\n",
                         "1\n1\n2\n2\n", "-1\n1\n")
        ds = parse_tudataset(str(root), "TOY")
        assert ds.num_classes == 2
        assert [g.label for g in ds.graphs] == [0, 1]

    def test_node_labels_become_one_hot_features(self, tmp_path):
        root = write_tud(tmp_path, "TOY", "1, 2\n", "1\n1\n", "1\n",
                         node_labels="5\n7\n")
        ds = parse_tudataset(str(root), "TOY")
        assert ds.feature_dim == 2
        np.testing.assert_array_equal(ds[0].features, [[1.0, 0.0], [0.0, 1.0]])

    def test_duplicate_edges_are_deduplicated(self, tmp_path):
        root = write_tud(tmp_path, "TOY", "1, 2\n1, 2\n2, 1\n", "1\n1\n", "1\n")
        ds = parse_tudataset(str(root), "TOY")
        np.testing.assert_array_equal(ds[0].adjacency.to_dense(), [[0, 1], [1, 0]])

    def test_directed_pairs_are_symmetrized(self, tmp_path):
        root = write_tud(tmp_path, "TOY", "1, 2\n", "1\n1\n", "1\n")
        ds = parse_tudataset(str(root), "TOY")
        dense = ds[0].adjacency.to_dense()
        np.testing.assert_array_equal(dense, dense.T)

    def test_cross_graph_edge_rejected(self, tmp_path):
        root = write_tud(tmp_path, "TOY", "1, 3\n", "1\n1\n2\n", "1\n2\n")
        with pytest.raises(ValueError, match="crosses graph boundaries"):
            parse_tudataset(str(root), "TOY")

    def test_missing_mandatory_file(self, tmp_path):
        d = tmp_path / "TOY"
        d.mkdir()
        (d / "TOY_A.txt").write_text("1, 2\n")
        with pytest.raises(FileNotFoundError):
            parse_tudataset(str(tmp_path), "TOY")

    def test_non_integer_token_rejected(self, tmp_path):
        root = write_tud(tmp_path, "TOY", "1, x\n", "1\n1\n", "1\n")
        with pytest.raises(ValueError, match="non-integer"):
            parse_tudataset(str(root), "TOY")

    def test_parsed_adjacency_symmetric_zero_diagonal(self, tmp_path):
        rng = np.random.default_rng(0)
        lines = []
        for _ in range(30):
            u, v = rng.integers(1, 9, size=2)
            lines.append(f"{u}, {v}")
        root = write_tud(tmp_path, "TOY", "\n".join(lines) + "\n",
                         "\n".join(["1"] * 8) + "\n", "1\n")
        g = parse_tudataset(str(root), "TOY")[0]
        dense = g.adjacency.to_dense()
        np.testing.assert_array_equal(dense, dense.T)
        np.testing.assert_array_equal(np.diag(dense), np.zeros(8))

    def test_interleaved_indicator_with_unsorted_graph_ids(self, tmp_path):
        rng = np.random.default_rng(8)
        indicator = rng.choice([7, 2, 5], size=40)  # graphs interleaved, ids unsorted
        node_labels = rng.choice([3, -1, 9, 4], size=40)
        edges = []
        for _ in range(120):
            u = int(rng.integers(40))
            same = np.flatnonzero(indicator == indicator[u])
            edges.append((u, int(rng.choice(same))))  # self-loops and repeats included
        root = write_tud(tmp_path, "TOY",
                         "".join(f"{u + 1}, {v + 1}\n" for u, v in edges),
                         "".join(f"{g}\n" for g in indicator), "1\n0\n1\n",
                         node_labels="".join(f"{x}\n" for x in node_labels))
        ds = parse_tudataset(str(root), "TOY")
        assert [g.label for g in ds.graphs] == [1, 0, 1]
        values = np.unique(node_labels)
        assert ds.feature_dim == len(values)
        for g, gid in zip(ds.graphs, [2, 5, 7]):
            nodes = np.flatnonzero(indicator == gid)  # local id = rank in file order
            local = {int(x): i for i, x in enumerate(nodes)}
            inside = [(local[u], local[v]) for u, v in edges if u in local]
            u, v = np.array(inside, dtype=np.intp).T
            reference = dense_reference(len(nodes), u, v)
            assert g.num_nodes == len(nodes)
            assert_canonical(g.adjacency, reference)
            np.testing.assert_array_equal(g.degrees(), reference.sum(axis=1))
            expected = (node_labels[nodes, None] == values[None, :]).astype(float)
            np.testing.assert_array_equal(g.features, expected)

    def test_duplicate_reversed_and_self_loop_edges(self, tmp_path):
        edges = [(1, 2), (2, 1), (1, 2), (3, 3), (4, 2), (2, 4), (4, 2), (5, 6), (6, 6)]
        root = write_tud(tmp_path, "TOY",
                         "".join(f"{u}, {v}\n" for u, v in edges),
                         "1\n1\n1\n1\n2\n2\n", "0\n1\n")
        first, second = parse_tudataset(str(root), "TOY").graphs
        assert_canonical(first.adjacency, dense_reference(4, [0, 1, 0, 3, 1, 3],
                                                          [1, 0, 1, 1, 3, 1]))
        assert_canonical(second.adjacency, dense_reference(2, [0], [1]))
        np.testing.assert_array_equal(first.degrees(), [1, 2, 0, 1])
        np.testing.assert_array_equal(first.features, np.ones((4, 1)))


class TestDegreeOnehot:
    def test_isolated_node(self):
        g = Graph(1, SparseMatrix.from_coo([], [], [], (1, 1)), np.zeros((1, 1)))
        row = degree_onehot(g, 5)
        np.testing.assert_array_equal(row, [[1, 0, 0, 0, 0, 0]])

    def test_degree_clamps_to_threshold(self):
        n = 201
        pairs = [(0, i) for i in range(1, n)]
        rows = [u for u, v in pairs] + [v for u, v in pairs]
        cols = [v for u, v in pairs] + [u for u, v in pairs]
        g = Graph(n, SparseMatrix.from_coo(rows, cols, np.ones(len(rows)), (n, n)),
                  np.zeros((n, 1)))
        onehot = degree_onehot(g, 128)
        assert onehot.shape == (n, 129)
        assert onehot[0, 128] == 1.0  # hub with degree 200 lands in the clamp bucket
        assert (onehot[1:, 1] == 1.0).all()

    def test_triangle_all_degree_two(self):
        onehot = degree_onehot(triangle(), 4)
        np.testing.assert_array_equal(onehot, np.tile([0, 0, 1, 0, 0], (3, 1)))

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(1)
        dense = (rng.uniform(size=(10, 10)) < 0.3).astype(float)
        dense = np.triu(dense, 1)
        dense = dense + dense.T
        g = Graph(10, SparseMatrix.from_dense(dense), np.zeros((10, 1)))
        np.testing.assert_array_equal(degree_onehot(g, 4).sum(axis=1), np.ones(10))

    def test_with_degree_features_swaps_features(self):
        ds = GraphDataset([triangle()], 1, 3)
        swapped = with_degree_features(ds, 3)
        assert swapped.feature_dim == 4
        np.testing.assert_array_equal(swapped[0].features.sum(axis=1), np.ones(3))


class TestNormalizeAdjacency:
    def test_single_isolated_node(self):
        a = SparseMatrix.from_coo([], [], [], (1, 1))
        np.testing.assert_array_equal(normalize_adjacency(a).to_dense(), [[1.0]])

    def test_two_node_path(self):
        a = SparseMatrix.from_dense([[0, 1], [1, 0]])
        np.testing.assert_allclose(normalize_adjacency(a).to_dense(),
                                   [[0.5, 0.5], [0.5, 0.5]], rtol=1e-15)

    def test_symmetry_and_bounded_row_sums(self):
        rng = np.random.default_rng(2)
        dense = np.triu((rng.uniform(size=(8, 8)) < 0.4).astype(float), 1)
        dense = dense + dense.T
        norm = normalize_adjacency(SparseMatrix.from_dense(dense)).to_dense()
        np.testing.assert_allclose(norm, norm.T, atol=1e-12)
        # spectral norm of the symmetric normalization is at most 1, which
        # bounds every row sum by sqrt(n)
        eigs = np.linalg.eigvalsh(norm)
        assert np.abs(eigs).max() <= 1.0 + 1e-12
        assert (np.abs(norm @ np.ones(8)) <= np.sqrt(8) + 1e-12).all()


class TestBatching:
    def test_single_graph_batch_matches_graph(self):
        g = triangle()
        batch = batch_graphs([g])
        np.testing.assert_array_equal(batch.block_adjacency.to_dense(),
                                      g.adjacency.to_dense())
        np.testing.assert_array_equal(batch.features, g.features)
        np.testing.assert_array_equal(batch.membership, [0, 0, 0])

    def test_two_graphs_block_diagonal(self):
        path = Graph(2, SparseMatrix.from_dense([[0, 1], [1, 0]]), np.ones((2, 2)))
        batch = batch_graphs([path, path])
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = 1.0
        expected[2, 3] = expected[3, 2] = 1.0
        np.testing.assert_array_equal(batch.block_adjacency.to_dense(), expected)
        np.testing.assert_array_equal(batch.membership, [0, 0, 1, 1])
        assert batch.node_range(1) == (2, 4)

    def test_batched_spmm_equals_per_graph_concat(self):
        rng = np.random.default_rng(3)
        graphs = []
        for _ in range(4):
            n = int(rng.integers(2, 7))
            dense = np.triu((rng.uniform(size=(n, n)) < 0.5).astype(float), 1)
            dense = dense + dense.T
            feats = rng.integers(-4, 5, size=(n, 3)).astype(float)
            graphs.append(Graph(n, SparseMatrix.from_dense(dense), feats))
        batch = batch_graphs(graphs)
        out = spmm(batch.block_adjacency, Value(batch.features)).data
        per_graph = np.vstack([
            spmm(g.adjacency, Value(g.features)).data for g in graphs
        ])
        np.testing.assert_array_equal(out, per_graph)

    def test_pool_matrix_sums_rows_per_graph(self):
        g1 = Graph(2, SparseMatrix.from_dense([[0, 1], [1, 0]]), np.array([[1.0, 2.0], [3.0, 4.0]]))
        g2 = Graph(1, SparseMatrix.from_coo([], [], [], (1, 1)), np.array([[5.0, 6.0]]))
        batch = batch_graphs([g1, g2])
        pooled = batch.pool_matrix().matmat(batch.features)
        np.testing.assert_array_equal(pooled, [[4.0, 6.0], [5.0, 6.0]])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            batch_graphs([])

    def test_mixed_feature_dims_rejected(self):
        g1 = Graph(1, SparseMatrix.from_coo([], [], [], (1, 1)), np.zeros((1, 2)))
        g2 = Graph(1, SparseMatrix.from_coo([], [], [], (1, 1)), np.zeros((1, 3)))
        with pytest.raises(ValueError, match="mixed feature dims"):
            batch_graphs([g1, g2])


class TestNodeSubsetSampling:
    def test_full_subset_preserves_edge_count(self):
        g = triangle()
        sub = sample_node_subset(g, 3, np.random.default_rng(0))
        assert sub.adjacency.nnz == g.adjacency.nnz

    def test_triangle_pair_keeps_one_edge(self):
        sub = sample_node_subset(triangle(), 2, np.random.default_rng(1))
        np.testing.assert_array_equal(sub.adjacency.to_dense(), [[0, 1], [1, 0]])

    def test_star_leaves_are_isolated(self):
        # star with center node 0; force a leaf-only sample by trying seeds
        n = 10
        rows = [0] * (n - 1) + list(range(1, n))
        cols = list(range(1, n)) + [0] * (n - 1)
        g = Graph(n, SparseMatrix.from_coo(rows, cols, np.ones(2 * (n - 1)), (n, n)),
                  np.arange(n, dtype=float).reshape(-1, 1))
        for seed in range(50):
            sub = sample_node_subset(g, 2, np.random.default_rng(seed))
            if 0.0 not in sub.features:
                assert sub.adjacency.nnz == 0
                break
        else:
            pytest.fail("no leaf-only sample in 50 seeds")

    def test_subset_edges_exist_in_parent(self):
        rng = np.random.default_rng(4)
        dense = np.triu((rng.uniform(size=(12, 12)) < 0.4).astype(float), 1)
        dense = dense + dense.T
        g = Graph(12, SparseMatrix.from_dense(dense),
                  np.arange(12, dtype=float).reshape(-1, 1))
        sub = sample_node_subset(g, 6, rng)
        kept = sub.features[:, 0].astype(int)
        sub_dense = sub.adjacency.to_dense()
        for i in range(6):
            for j in range(6):
                if sub_dense[i, j]:
                    assert dense[kept[i], kept[j]] == 1.0

    def test_out_of_range_sizes_rejected(self):
        g = triangle()
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sample_node_subset(g, 0, rng)
        with pytest.raises(ValueError):
            sample_node_subset(g, 4, rng)


class TestNodeLevelFormat:
    def test_three_node_path(self, tmp_path):
        (tmp_path / "e.txt").write_text("0\t1\n1\t2\n")
        (tmp_path / "x.txt").write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
        (tmp_path / "y.txt").write_text("0\n1\n0\n")
        g, split = parse_nodelevel(tmp_path / "e.txt", tmp_path / "x.txt", tmp_path / "y.txt")
        assert g.num_nodes == 3 and g.feature_dim == 2
        assert split is None
        np.testing.assert_array_equal(g.node_labels, [0, 1, 0])

    def test_short_label_file_rejected(self, tmp_path):
        (tmp_path / "e.txt").write_text("0\t1\n")
        (tmp_path / "x.txt").write_text("1.0\n2.0\n3.0\n")
        (tmp_path / "y.txt").write_text("0\n1\n")
        with pytest.raises(ValueError, match="label file"):
            parse_nodelevel(tmp_path / "e.txt", tmp_path / "x.txt", tmp_path / "y.txt")

    def write_files(self, tmp_path, edges="0\t1\n", feats="1.0\n2.0\n", labels="0\n1\n",
                    split=None):
        paths = []
        for name, text in (("e.txt", edges), ("x.txt", feats), ("y.txt", labels),
                           ("s.txt", split)):
            if text is not None:
                (tmp_path / name).write_text(text)
                paths.append(tmp_path / name)
        return paths

    def test_non_integer_edge_token_names_file_and_line(self, tmp_path):
        paths = self.write_files(tmp_path, edges="0\t1\n1\tx\n")
        with pytest.raises(ValueError, match="edge file: non-integer tokens on line 2"):
            parse_nodelevel(*paths)

    def test_non_integer_split_token_names_file_and_line(self, tmp_path):
        paths = self.write_files(tmp_path, split="train 0\ntest one\n")
        with pytest.raises(ValueError, match="split file: non-integer node id on line 2"):
            parse_nodelevel(*paths)

    def test_ragged_feature_row_names_line_and_widths(self, tmp_path):
        paths = self.write_files(tmp_path, feats="1.0,2.0\n\n3.0\n")
        with pytest.raises(ValueError,
                           match="feature file: row on line 3 has 1 values, expected 2"):
            parse_nodelevel(*paths)

    def test_duplicate_reversed_and_self_loop_edges(self, tmp_path):
        edges = [(0, 1), (1, 0), (0, 1), (2, 2), (3, 1), (1, 3)]
        paths = self.write_files(tmp_path, edges="".join(f"{u}\t{v}\n" for u, v in edges),
                                 feats="1.0\n2.0\n3.0\n4.0\n", labels="0\n1\n0\n1\n")
        g, _ = parse_nodelevel(*paths)
        u, v = np.array(edges).T
        assert_canonical(g.adjacency, dense_reference(4, u, v))

    def test_sbm_round_trip_is_lossless(self, tmp_path):
        rng = np.random.default_rng(5)
        g = make_sbm_graph(60, 2, p_in=0.2, p_out=0.02, feature_dim=4, rng=rng)
        split = NodeSplit(train=np.arange(0, 30), valid=np.arange(30, 40),
                          test=np.arange(40, 60))
        paths = write_nodelevel(g, str(tmp_path), split=split)
        parsed, parsed_split = parse_nodelevel(*paths)
        assert parsed.num_nodes == g.num_nodes
        np.testing.assert_array_equal(parsed.features, g.features)
        np.testing.assert_array_equal(parsed.node_labels, g.node_labels)
        np.testing.assert_array_equal(parsed.adjacency.to_dense(), g.adjacency.to_dense())
        np.testing.assert_array_equal(parsed_split.train, split.train)
        np.testing.assert_array_equal(parsed_split.test, split.test)


class TestSyntheticGenerators:
    def test_sbm_structure(self):
        rng = np.random.default_rng(6)
        g = make_sbm_graph(200, 2, p_in=0.1, p_out=0.01, feature_dim=3, rng=rng)
        dense = g.adjacency.to_dense()
        np.testing.assert_array_equal(dense, dense.T)
        np.testing.assert_array_equal(np.diag(dense), np.zeros(200))
        assert set(np.unique(g.node_labels)) <= {0, 1}
        # intra-block edges should dominate
        same = dense[np.equal.outer(g.node_labels, g.node_labels)].sum()
        cross = dense.sum() - same
        assert same > cross

    def test_blob_dataset_balanced_and_uniform_dim(self):
        ds = make_blob_dataset(20, 2, np.random.default_rng(7))
        assert len(ds) == 20
        counts = np.bincount(ds.labels())
        np.testing.assert_array_equal(counts, [10, 10])
        assert all(g.feature_dim == ds.feature_dim for g in ds.graphs)

    def test_sbm_without_edges(self):
        g = make_sbm_graph(30, 2, p_in=0.0, p_out=0.0, feature_dim=2,
                           rng=np.random.default_rng(10))
        assert g.adjacency.shape == (30, 30)
        assert_canonical(g.adjacency, np.zeros((30, 30)))
        np.testing.assert_array_equal(g.degrees(), np.zeros(30))

    def test_blob_dataset_without_edges(self):
        ds = make_blob_dataset(6, 2, np.random.default_rng(11), p_edge=0.0)
        for g in ds.graphs:
            assert_canonical(g.adjacency, np.zeros((g.num_nodes, g.num_nodes)))

    def test_dataset_invariants_enforced(self):
        g1 = Graph(1, SparseMatrix.from_coo([], [], [], (1, 1)), np.zeros((1, 2)), label=0)
        g2 = Graph(1, SparseMatrix.from_coo([], [], [], (1, 1)), np.zeros((1, 3)), label=0)
        with pytest.raises(ValueError):
            GraphDataset([g1, g2], 1, 2)
        g3 = Graph(1, SparseMatrix.from_coo([], [], [], (1, 1)), np.zeros((1, 2)), label=5)
        with pytest.raises(ValueError):
            GraphDataset([g3], 1, 2)
