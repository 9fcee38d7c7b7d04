"""Parser, featurization, normalization, batching and sampling tests."""

import gc
import re
import weakref

import numpy as np
import pytest

from latentgraph import graphs
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

    def test_missing_corpus_names_both_layouts(self, tmp_path):
        with pytest.raises(FileNotFoundError) as info:
            parse_tudataset(str(tmp_path), "TOY")
        for path in (tmp_path / "TOY" / "TOY_A.txt", tmp_path / "TOY_A.txt"):
            assert str(path) in str(info.value)

    def test_corpus_of_no_graphs_rejected(self, tmp_path):
        root = write_tud(tmp_path, "TOY", "", "", "")
        with pytest.raises(ValueError, match="no node to a graph"):
            parse_tudataset(str(root), "TOY")

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
        g = Graph(1, SparseMatrix.from_dense(np.zeros((1, 1))), np.zeros((1, 1)))
        row = degree_onehot(g, 5)
        np.testing.assert_array_equal(row, [[1, 0, 0, 0, 0, 0]])

    def test_degree_clamps_to_threshold(self):
        n = 201
        star = np.zeros((n, n))
        star[0, 1:] = star[1:, 0] = 1.0
        g = Graph(n, SparseMatrix.from_dense(star), np.zeros((n, 1)))
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
        ds = GraphDataset([triangle()])
        swapped = with_degree_features(ds, 3)
        assert swapped.feature_dim == 4
        np.testing.assert_array_equal(swapped[0].features.sum(axis=1), np.ones(3))


def coo_normalized(a):
    """The COO construction ``normalize_adjacency`` replaced: every entry
    of A plus a unit diagonal, scaled, then sorted and summed by scipy's
    COO-to-CSR conversion."""
    import scipy.sparse as sp
    n = a.shape[0]
    rows = np.concatenate([np.repeat(np.arange(n), np.diff(a.indptr)), np.arange(n)])
    cols = np.concatenate([a.indices, np.arange(n)])
    vals = np.concatenate([a.data, np.ones(n)])
    inv_sqrt = 1.0 / np.sqrt(np.bincount(rows, weights=vals, minlength=n))
    csr = sp.csr_matrix((vals * inv_sqrt[rows] * inv_sqrt[cols], (rows, cols)),
                        shape=(n, n))
    csr.sum_duplicates()
    return csr


def dense_normalized(dense):
    """D^-1/2 (A + I) D^-1/2, D the degree matrix of A + I."""
    loops = dense + np.eye(len(dense))
    inv_sqrt = 1.0 / np.sqrt(loops.sum(axis=1))
    return loops * inv_sqrt[:, None] * inv_sqrt[None, :]


class TestNormalizeAdjacency:
    def test_single_isolated_node(self):
        a = SparseMatrix.from_dense(np.zeros((1, 1)))
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

    def test_bitwise_the_coo_construction_on_zero_diagonal_graphs(self):
        rng = np.random.default_rng(21)
        sizes = [1, 2, 3, 5, 17, 40, 40, 40, 200]
        for n, p in zip(sizes, rng.uniform(0.0, 1.0, size=len(sizes))):
            graph = make_sbm_graph(n, 2, p, p / 4, 1, rng)
            for a in (graph.adjacency, SparseMatrix.from_dense(np.zeros((n, n)))):
                got, want = normalize_adjacency(a), coo_normalized(a)
                for name in ("indptr", "indices", "data"):
                    x, y = getattr(got, name), getattr(want, name)
                    assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name
                assert got.shape == want.shape

    def test_weighted_matrix_is_the_dense_formula(self):
        rng = np.random.default_rng(22)
        dense = np.triu(rng.uniform(0.1, 3.0, size=(9, 9)) * (rng.uniform(size=(9, 9)) < 0.5), 1)
        dense = dense + dense.T
        norm = normalize_adjacency(SparseMatrix.from_dense(dense))
        np.testing.assert_allclose(norm.to_dense(), dense_normalized(dense), rtol=1e-14)
        assert norm.nnz == np.count_nonzero(dense) + 9

    def test_a_stored_diagonal_entry_gets_one_added(self):
        # a caller's fixed adjacency may carry self-loops of its own
        rng = np.random.default_rng(23)
        dense = np.triu((rng.uniform(size=(8, 8)) < 0.5) * rng.uniform(0.5, 2.0, (8, 8)))
        dense = dense + np.triu(dense, 1).T
        dense[np.diag_indices(8)] *= np.arange(8) % 2  # every other row stored
        assert np.count_nonzero(np.diag(dense)) > 0
        a = SparseMatrix.from_dense(dense)
        norm = normalize_adjacency(a)
        np.testing.assert_allclose(norm.to_dense(), dense_normalized(dense), rtol=1e-14)
        assert norm.nnz == a.nnz + np.count_nonzero(np.diag(dense) == 0)
        for r in range(8):
            assert (np.diff(norm.indices[norm.indptr[r]:norm.indptr[r + 1]]) > 0).all()


def _binary_matrices(kind, tmp_path):
    """The 0/1 matrices one builder of ``graphs`` makes."""
    rng = np.random.default_rng(41)
    if kind == "parse_nodelevel":
        graph = make_sbm_graph(30, 3, 0.3, 0.05, 2, rng)
        return [parse_nodelevel(*write_nodelevel(graph, str(tmp_path)))[0].adjacency]
    if kind == "parse_tudataset":
        root = write_tud(tmp_path, "TOY", "1, 2\n2, 3\n3, 1\n4, 5\n", "1\n1\n1\n2\n2\n2\n",
                         "0\n1\n")
        return [g.adjacency for g in parse_tudataset(str(root), "TOY")]
    if kind == "make_sbm_graph":
        return [make_sbm_graph(40, 2, 0.3, 0.05, 2, rng).adjacency]
    if kind == "make_blob_dataset":
        return [g.adjacency for g in make_blob_dataset(4, 2, rng)]
    if kind == "sample_node_subset":
        return [sample_node_subset(make_sbm_graph(40, 2, 0.3, 0.05, 2, rng), 15, rng).adjacency]
    batch = batch_graphs(make_blob_dataset(3, 2, rng).graphs)
    return [batch.block_adjacency if kind == "block_adjacency" else batch.pool_matrix()]


class TestBinaryValues:
    """Every 0/1 matrix holds float32 ones: exact, and half the bytes."""

    @pytest.mark.parametrize("kind", ["parse_nodelevel", "parse_tudataset", "make_sbm_graph",
                                      "make_blob_dataset", "sample_node_subset",
                                      "block_adjacency", "pool_matrix"])
    def test_builders_hold_float32_ones(self, tmp_path, kind):
        matrices = _binary_matrices(kind, tmp_path)
        assert sum(m.nnz for m in matrices) > 0
        for m in matrices:
            assert m.data.tobytes() == np.ones(m.nnz, dtype=np.float32).tobytes()

    def test_float32_ones_normalize_to_the_bits_of_float64_ones(self):
        rng = np.random.default_rng(42)
        for graph in (make_sbm_graph(300, 3, 0.05, 0.01, 1, rng),
                      *make_blob_dataset(4, 2, rng).graphs):
            ones32 = graph.adjacency
            ones64 = ones32.astype(np.float64)
            assert ones32.data.dtype == np.float32
            got, want = normalize_adjacency(ones32), normalize_adjacency(ones64)
            for name in ("indptr", "indices", "data"):
                x, y = getattr(got, name), getattr(want, name)
                assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), name


class TestBatching:
    def test_one_graph_batch_shares_the_graphs_arrays(self):
        g = make_sbm_graph(30, 2, 0.3, 0.05, 3, np.random.default_rng(24))
        batch = batch_graphs([g])
        assert batch.block_adjacency is g.adjacency
        assert np.shares_memory(batch.features, g.features)
        with pytest.raises(ValueError, match="read-only"):
            batch.features[0, 0] = 1.0
        assert g.features.flags.writeable

    def test_multi_graph_batch_owns_its_arrays(self):
        rng = np.random.default_rng(25)
        parts = [make_sbm_graph(n, 2, 0.4, 0.1, 3, rng) for n in (6, 9)]
        batch = batch_graphs(parts)
        for g in parts:
            assert not np.shares_memory(batch.features, g.features)
            assert not np.shares_memory(batch.block_adjacency.indices, g.adjacency.indices)
        batch.features[0, 0] = 7.0
        assert parts[0].features[0, 0] != 7.0

    def test_single_graph_batch_matches_graph(self):
        g = triangle()
        batch = batch_graphs([g])
        np.testing.assert_array_equal(batch.block_adjacency.to_dense(),
                                      g.adjacency.to_dense())
        np.testing.assert_array_equal(batch.features, g.features)
        np.testing.assert_array_equal(batch.pool_matrix().to_dense(), [[1, 1, 1]])

    def test_two_graphs_block_diagonal(self):
        path = Graph(2, SparseMatrix.from_dense([[0, 1], [1, 0]]), np.ones((2, 2)))
        batch = batch_graphs([path, path])
        expected = np.zeros((4, 4))
        expected[0, 1] = expected[1, 0] = 1.0
        expected[2, 3] = expected[3, 2] = 1.0
        np.testing.assert_array_equal(batch.block_adjacency.to_dense(), expected)
        np.testing.assert_array_equal(batch.pool_matrix().to_dense(),
                                      [[1, 1, 0, 0], [0, 0, 1, 1]])
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
        g2 = Graph(1, SparseMatrix.from_dense(np.zeros((1, 1))), np.array([[5.0, 6.0]]))
        batch = batch_graphs([g1, g2])
        pooled = batch.pool_matrix().matmat(batch.features)
        np.testing.assert_array_equal(pooled, [[4.0, 6.0], [5.0, 6.0]])

    def test_normalized_adjacency_is_cast_once_per_dtype(self):
        rng = np.random.default_rng(4)
        batch = batch_graphs([make_sbm_graph(30, 2, 0.3, 0.05, 3, rng)])
        full = batch.normalized_adjacency()
        assert batch.normalized_adjacency(np.float64) is full
        single = batch.normalized_adjacency(np.float32)
        assert batch.normalized_adjacency("float32") is single
        assert single.data.dtype == np.float32
        assert single.data.tobytes() == full.data.astype(np.float32).tobytes()

    @staticmethod
    def recorded_normalizations(monkeypatch):
        """A weak reference to the values of each normalisation made."""
        made = []

        def recording(a):
            out = normalize_adjacency(a)
            made.append(weakref.ref(out.data))
            return out

        monkeypatch.setattr(graphs, "normalize_adjacency", recording)
        return made

    def test_float32_normalized_adjacency_keeps_no_float64_values(self, monkeypatch):
        made = self.recorded_normalizations(monkeypatch)
        batch = batch_graphs([make_sbm_graph(30, 2, 0.3, 0.05, 3, np.random.default_rng(4))])
        single = batch.normalized_adjacency(np.float32)
        gc.collect()
        assert single.data.dtype == np.float32 and made[0]() is None

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            batch_graphs([])

    def test_mixed_feature_dims_rejected(self):
        g1 = Graph(1, SparseMatrix.from_dense(np.zeros((1, 1))), np.zeros((1, 2)))
        g2 = Graph(1, SparseMatrix.from_dense(np.zeros((1, 1))), np.zeros((1, 3)))
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
        star = np.zeros((n, n))
        star[0, 1:] = star[1:, 0] = 1.0
        g = Graph(n, SparseMatrix.from_dense(star),
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


def write_node_files(tmp_path, edges="0\t1\n", feats="1.0\n2.0\n", labels="0\n1\n",
                     split=None):
    paths = []
    for name, text in (("e.txt", edges), ("x.txt", feats), ("y.txt", labels),
                       ("s.txt", split)):
        if text is not None:
            (tmp_path / name).write_text(text)
            paths.append(tmp_path / name)
    return paths


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

    write_files = staticmethod(write_node_files)

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

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_feature_names_file_and_line(self, tmp_path, value):
        paths = self.write_files(tmp_path, feats=f"1.0,2.0\n\n3.0,{value}\n")
        with pytest.raises(ValueError, match="feature file: non-finite value on line 3"):
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


def assert_same_bytes(actual, expected):
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def reference_rows(path, sep=None, commas_are_spaces=False):
    """Per-line reference reader: the fields of each non-blank line."""
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                rows.append((line.replace(",", " ") if commas_are_spaces else line).split(sep))
    return rows


def reference_csr(n, pairs):
    """CSR arrays of the symmetric binary adjacency of ``pairs``, built from a set."""
    entries = sorted({e for u, v in pairs if u != v for e in ((u, v), (v, u))})
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.add.at(indptr, [u + 1 for u, _ in entries], 1)
    return np.cumsum(indptr, dtype=np.int32), np.array([v for _, v in entries], dtype=np.int32)


def assert_adjacency(adj, n, pairs):
    indptr, indices = reference_csr(n, pairs)
    assert_same_bytes(adj.indptr, indptr)
    assert_same_bytes(adj.indices, indices)
    # the parsers keep a binary adjacency's values as float32 ones
    assert_same_bytes(adj.data, np.ones(len(indices), dtype=np.float32))


def untidy(lines, rng):
    """Lines joined with blank and whitespace-only lines, CRLF endings and
    padding around the fields, and no newline at the end."""
    out = []
    for line in lines:
        if rng.uniform() < 0.2:
            out.append(rng.choice(["", "  ", "\t", " \t "]))
        out.append(" " * int(rng.integers(2)) + line + "\t" * int(rng.integers(2)))
    return "\r\n".join(out)


class TestReaderOracle:
    """Random files parse to the same bytes as a per-line reference reader."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("tidy", [True, False])
    def test_node_level_files(self, tmp_path, seed, tidy):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 40))
        g = make_sbm_graph(n, 3, 0.2, 0.05, int(rng.integers(1, 6)), rng)
        # values across the exponent range, and negative zeros
        g.features = g.features * 10.0 ** rng.integers(-300, 300, size=g.features.shape)
        g.features[rng.uniform(size=g.features.shape) < 0.1] = -0.0
        perm = rng.permutation(n)
        split = NodeSplit(perm[: n // 3], perm[n // 3: n // 2], perm[n // 2:])
        paths = write_nodelevel(g, str(tmp_path), split=split)
        if not tidy:
            for path in paths:
                with open(path, encoding="utf-8") as fh:
                    text = untidy(fh.read().splitlines(), rng)
                with open(path, "w", encoding="utf-8", newline="") as fh:
                    fh.write(text)
        parsed, parsed_split = parse_nodelevel(*paths)

        edges, labels, sections = (reference_rows(p) for p in (paths[0], paths[2], paths[3]))
        feats = reference_rows(paths[1], ",")
        assert_same_bytes(parsed.features, np.array([[float(x) for x in r] for r in feats]))
        assert_same_bytes(parsed.node_labels, np.array([int(r[0]) for r in labels], dtype=np.intp))
        assert_adjacency(parsed.adjacency, n, [(int(u), int(v)) for u, v in edges])
        for name in ("train", "valid", "test"):
            expected = np.array([int(i) for s, i in sections if s == name], dtype=np.intp)
            assert_same_bytes(getattr(parsed_split, name), expected)

    @pytest.mark.parametrize("seed", [3, 4, 5])
    @pytest.mark.parametrize("tidy", [True, False])
    def test_tu_files(self, tmp_path, seed, tidy):
        rng = np.random.default_rng(seed)
        total = int(rng.integers(8, 60))
        indicator = rng.choice([9, 2, 5, 4], size=total)  # interleaved, ids unsorted
        indicator[:4] = [9, 2, 5, 4]  # every graph has a node
        node_labels = rng.choice([3, -1, 8], size=total)
        edges = []
        for _ in range(int(rng.integers(0, 3 * total))):
            u = int(rng.integers(total))
            edges.append((u + 1, int(rng.choice(np.flatnonzero(indicator == indicator[u]))) + 1))
        formats = ["{}, {}", "{},{}", "{} {}", "{} ,\t{}"] if not tidy else ["{}, {}"]
        edge_lines = [formats[int(rng.integers(len(formats)))].format(*e) for e in edges]
        columns = [edge_lines, [str(x) for x in indicator], ["-1", "1", "-1", "7"],
                   [str(x) for x in node_labels]]
        texts = ["".join(line + "\n" for line in lines) if tidy else untidy(lines, rng)
                 for lines in columns]
        root = write_tud(tmp_path, "TOY", *texts[:3], node_labels=texts[3])
        ds = parse_tudataset(str(root), "TOY")

        prefix = tmp_path / "TOY" / "TOY"
        ind = [int(r[0]) for r in reference_rows(f"{prefix}_graph_indicator.txt")]
        raw = [int(r[0]) for r in reference_rows(f"{prefix}_graph_labels.txt")]
        atoms = [int(r[0]) for r in reference_rows(f"{prefix}_node_labels.txt")]
        pairs = [(int(u) - 1, int(v) - 1)
                 for u, v in reference_rows(f"{prefix}_A.txt", commas_are_spaces=True)]
        classes, values = sorted(set(raw)), sorted(set(atoms))
        assert ds.feature_dim == len(values)
        for g, gid, label in zip(ds.graphs, sorted(set(ind)), raw):
            nodes = [i for i, x in enumerate(ind) if x == gid]
            local = {node: k for k, node in enumerate(nodes)}
            assert g.num_nodes == len(nodes) and g.label == classes.index(label)
            assert_adjacency(g.adjacency, len(nodes),
                             [(local[u], local[v]) for u, v in pairs if u in local])
            onehot = np.zeros((len(nodes), len(values)))
            onehot[np.arange(len(nodes)), [values.index(atoms[i]) for i in nodes]] = 1.0
            assert_same_bytes(g.features, onehot)


class TestTextFormat:
    """What the readers accept and what they reject, with which message."""

    @staticmethod
    def parse(tmp_path, **files):
        tmp_path.mkdir(exist_ok=True)
        return parse_nodelevel(*write_node_files(tmp_path, **files))

    def test_blank_crlf_and_unterminated_lines_are_tidy_lines(self, tmp_path):
        tidy = self.parse(tmp_path / "a", edges="0\t1\n1 2\n", feats="1.0,2.0\n3.0,4.0\n5.5,6.0\n",
                          labels="0\n1\n0\n", split="train 0\ntest 2\nvalid 1\n")
        untidy = self.parse(tmp_path / "b", edges="\r\n 0\t1 \r\n\t\r\n1 2",
                            feats="  \n1.0, 2.0\r\n\r\n \t \n3.0 ,4.0\n5.5,6.0\t",
                            labels="\n0\r\n \n1\r\n0", split=" train 0\n\n  \ntest\t2\r\nvalid 1")
        (graph, split), (graph2, split2) = tidy, untidy
        for name in ("features", "node_labels"):
            assert_same_bytes(getattr(graph2, name), getattr(graph, name))
        for name in ("train", "valid", "test"):
            assert_same_bytes(getattr(split2, name), getattr(split, name))
        assert_same_bytes(graph2.adjacency.indices, graph.adjacency.indices)

    def test_single_row_files(self, tmp_path):
        g, split = self.parse(tmp_path, edges="0 0", feats="1.5,-2.5", labels="3",
                              split="test 0")
        assert g.num_nodes == 1 and g.adjacency.nnz == 0
        np.testing.assert_array_equal(g.features, [[1.5, -2.5]])
        np.testing.assert_array_equal(g.node_labels, [3])
        assert (split.train.size, split.valid.size, list(split.test)) == (0, 0, [0])

    def test_single_line_tu_files(self, tmp_path):
        root = write_tud(tmp_path, "TOY", "1 2", "1\n1", "5", node_labels="4\n4")
        (g,) = parse_tudataset(str(root), "TOY").graphs
        np.testing.assert_array_equal(g.adjacency.to_dense(), [[0, 1], [1, 0]])

    @pytest.mark.parametrize("edges", ["", "\n \n"])
    def test_empty_edge_file_is_an_edgeless_graph(self, tmp_path, edges):
        g, _ = self.parse(tmp_path, edges=edges)
        assert g.num_nodes == 2 and g.adjacency.nnz == 0
        assert_same_bytes(g.adjacency.indptr, np.zeros(3, dtype=np.int32))

    def test_tu_file_without_edges(self, tmp_path):
        root = write_tud(tmp_path, "TOY", "", "1\n2\n", "0\n1\n")
        assert [g.adjacency.nnz for g in parse_tudataset(str(root), "TOY").graphs] == [0, 0]

    @pytest.mark.parametrize("feats", ["", "\n  \n"])
    def test_empty_feature_file_rejected(self, tmp_path, feats):
        with pytest.raises(ValueError, match="feature file has no rows"):
            self.parse(tmp_path, feats=feats)

    @pytest.mark.parametrize("files, message", [
        (dict(edges="# uv\n0\t1\n"), "edge file: non-integer tokens on line 1: '# uv'"),
        (dict(edges="0\t1 # loop\n"), "edge file: expected two tokens on line 1"),
        (dict(feats="#x\n1.0\n2.0\n"), "feature file: bad row on line 1"),
        (dict(labels="0\n1 # b\n"), "labels: non-integer token on line 2: '1 # b'"),
        (dict(split="# header\n"), "split file: bad line 1: '# header'"),
    ])
    def test_hash_is_a_bad_token(self, tmp_path, files, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self.parse(tmp_path, **files)

    @pytest.mark.parametrize("files, message", [
        (dict(edges="0\t1_0\n"), "edge file: non-integer tokens on line 1"),
        (dict(feats="1.0\n2_0.5\n"), "feature file: bad row on line 2"),
        (dict(labels="0\n1_000\n"), "labels: non-integer token on line 2: '1_000'"),
        (dict(split="train 0_1\n"), "split file: non-integer node id on line 1"),
    ])
    def test_digit_separators_rejected(self, tmp_path, files, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self.parse(tmp_path, **files)

    @pytest.mark.parametrize("files, message", [
        (dict(edges="0\t1\n\n1\t2\n"), "edge file: node id out of range on line 3"),
        (dict(edges="0\t1\n-1\t0\n"), "edge file: node id out of range on line 2"),
        (dict(edges="0\t1\n0 1 1\n"), "edge file: expected two tokens on line 2"),
        (dict(edges="0\t1\n1\n"), "edge file: expected two tokens on line 2"),
        (dict(edges="0 1 1\n1 0 0\n"), "edge file: expected two tokens on line 1"),
        (dict(labels="0 0\n1 1\n"), "labels: non-integer token on line 1: '0 0'"),
        (dict(edges="0\t1\n1.0\t0\n"), "edge file: non-integer tokens on line 2: '1.0\\t0'"),
        (dict(edges="0,1\n"), "edge file: expected two tokens on line 1"),
        (dict(feats="1.0,2.0\n3.0,x\n"), "feature file: bad row on line 2"),
        (dict(feats="1.0,2.0\n3.0,,4.0\n"), "feature file: bad row on line 2"),
        (dict(feats="1.0,2.0\n3.0,4.0,5.0\n"),
         "feature file: row on line 2 has 3 values, expected 2"),
        (dict(feats="1.0,2.0\n 3.0 4.0\n"), "feature file: bad row on line 2"),
        (dict(labels="0\n1.5\n"), "labels: non-integer token on line 2: '1.5'"),
        (dict(labels="0\n1\n2\n"), "label file has 3 entries for 2 nodes"),
        (dict(labels="0\n\n-1\n"), "labels: negative class id on line 3: '-1'"),
        (dict(split="train 0\nvalid 2\n"), "split file: node id out of range on line 2"),
        (dict(split="train 0\ntrain\n"), "split file: bad line 2: 'train'"),
        (dict(split="train 0\nholdout 1\n"), "split file: bad line 2: 'holdout 1'"),
        (dict(split="train 0\n1 test\n"), "split file: bad line 2: '1 test'"),
        (dict(split="train 0\ntest 1 1\n"), "split file: bad line 2: 'test 1 1'"),
    ])
    def test_node_level_messages(self, tmp_path, files, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            self.parse(tmp_path, **files)

    @pytest.mark.parametrize("edges, message", [
        ("1, 2\n2, 4\n", "edge file: node id out of range on line 2: '2, 4'"),
        ("1, 2\n\n0, 1\n", "edge file: node id out of range on line 3: '0, 1'"),
        ("1, 2\n2, 3, 1\n", "edge file: expected two tokens on line 2: '2, 3, 1'"),
        ("1, 2\n2, x\n", "edge file: non-integer tokens on line 2: '2, x'"),
        ("1, 2\n2,\n", "edge file: expected two tokens on line 2: '2,'"),
        ("1, 2\n1, 3\n", "edge file: edge (1, 3) crosses graph boundaries (graphs 1 and 2)"),
    ])
    def test_tu_edge_messages(self, tmp_path, edges, message):
        root = write_tud(tmp_path, "TOY", edges, "1\n1\n2\n", "0\n1\n")
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_tudataset(str(root), "TOY")

    @pytest.mark.parametrize("indicator, labels, node_labels, message", [
        ("1\n1 1\n", "0\n", None, "graph_indicator: non-integer token on line 2: '1 1'"),
        ("1\n1\n", "a\n", None, "graph_labels: non-integer token on line 1: 'a'"),
        ("1\n1\n1\n", "0\n", "1\n2\n1_0\n", "node_labels: non-integer token on line 3: '1_0'"),
    ])
    def test_tu_integer_file_messages(self, tmp_path, indicator, labels, node_labels, message):
        root = write_tud(tmp_path, "TOY", "1, 2\n", indicator, labels, node_labels=node_labels)
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_tudataset(str(root), "TOY")


class TestSplitFile:
    @pytest.mark.parametrize("split, node, lines", [
        ("train 0\ntrain 2\ntrain 0\n", 0, (1, 3)),
        ("train 1\nvalid 2\n\ntest 0\ntest 1\ntest 2\n", 1, (1, 5)),
        ("train 1\nvalid 2\ntest 0\nvalid 2\ntest 1\n", 2, (2, 4)),
    ])
    def test_node_listed_twice_rejected(self, tmp_path, split, node, lines):
        paths = write_node_files(tmp_path, feats="1.0\n2.0\n3.0\n", labels="0\n1\n0\n",
                                 split=split)
        message = f"split file: node {node} is listed on line {lines[0]} and again on line {lines[1]}"
        with pytest.raises(ValueError, match=re.escape(message)):
            parse_nodelevel(*paths)

    def test_sections_keep_file_order(self, tmp_path):
        paths = write_node_files(tmp_path, feats="1.0\n2.0\n3.0\n4.0\n", labels="0\n1\n0\n1\n",
                                 split="test 3\ntrain 2\ntest 0\ntrain 1\n")
        _, split = parse_nodelevel(*paths)
        assert (list(split.train), list(split.valid), list(split.test)) == ([2, 1], [], [3, 0])


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
        g1 = Graph(1, SparseMatrix.from_dense(np.zeros((1, 1))), np.zeros((1, 2)), label=0)
        g2 = Graph(1, SparseMatrix.from_dense(np.zeros((1, 1))), np.zeros((1, 3)), label=0)
        with pytest.raises(ValueError):
            GraphDataset([g1, g2])
