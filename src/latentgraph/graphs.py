"""Graph containers, dataset parsers, featurization, batching and sampling.

A :class:`Graph` stores a symmetric binary adjacency without self-loops plus a
float feature matrix. Collections live in a :class:`GraphDataset`; mini-batches
are block-diagonal :class:`GraphBatch` objects on which an encoder forward pass
equals the per-graph passes row for row.

Two plain-text formats are supported:

* the classic multi-graph benchmark layout: ``<DS>_A.txt`` (comma-separated
  1-indexed edge pairs), ``<DS>_graph_indicator.txt``, ``<DS>_graph_labels.txt``
  and optional ``<DS>_node_labels.txt``;
* a single-graph node classification layout: tab-separated 0-indexed edges,
  CSV feature rows, one label per line, and a split file with ``train``/
  ``valid``/``test`` sections.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .engine import SparseMatrix

__all__ = [
    "Graph",
    "GraphDataset",
    "GraphBatch",
    "NodeSplit",
    "parse_tudataset",
    "degree_onehot",
    "normalize_adjacency",
    "batch_graphs",
    "sample_node_subset",
    "parse_nodelevel",
    "write_nodelevel",
    "make_sbm_graph",
    "make_blob_dataset",
]


@dataclass
class Graph:
    """One graph: adjacency (symmetric, zero diagonal), features, labels."""

    num_nodes: int
    adjacency: SparseMatrix
    features: np.ndarray
    label: int | None = None
    node_labels: np.ndarray | None = None

    def __post_init__(self):
        self.features = np.ascontiguousarray(self.features, dtype=np.float64)
        if self.features.ndim != 2 or self.features.shape[0] != self.num_nodes:
            raise ValueError("features must be a num_nodes x d matrix")
        if self.adjacency.shape != (self.num_nodes, self.num_nodes):
            raise ValueError("adjacency shape disagrees with num_nodes")

    @property
    def feature_dim(self):
        return self.features.shape[1]

    def degrees(self):
        return np.diff(self.adjacency.indptr).astype(np.intp)


@dataclass
class GraphDataset:
    graphs: list
    num_classes: int
    feature_dim: int
    name: str = ""

    def __post_init__(self):
        for g in self.graphs:
            if g.feature_dim != self.feature_dim:
                raise ValueError("all graphs must share one feature dimension")
            if g.label is not None and not (0 <= g.label < self.num_classes):
                raise ValueError("graph label out of range")

    def __len__(self):
        return len(self.graphs)

    def __getitem__(self, i):
        return self.graphs[i]

    def labels(self):
        return np.array([g.label for g in self.graphs], dtype=np.intp)


@dataclass
class NodeSplit:
    train: np.ndarray
    valid: np.ndarray
    test: np.ndarray


class GraphBatch:
    """Block-diagonal stacking of several graphs.

    ``membership[r]`` is the index of the graph owning stacked row ``r``;
    ``offsets[i]`` is the first row of graph ``i`` (with a final sentinel
    equal to the total node count).
    """

    def __init__(self, graphs):
        graphs = list(graphs)
        if not graphs:
            raise ValueError("cannot batch zero graphs")
        dims = {g.feature_dim for g in graphs}
        if len(dims) != 1:
            raise ValueError(f"mixed feature dims in batch: {sorted(dims)}")
        counts = [g.num_nodes for g in graphs]
        offsets = np.zeros(len(graphs) + 1, dtype=np.intp)
        np.cumsum(counts, out=offsets[1:])
        total = int(offsets[-1])
        rows, cols, vals = [], [], []
        for g, off in zip(graphs, offsets[:-1]):
            r = np.repeat(np.arange(g.num_nodes, dtype=np.intp),
                          np.diff(g.adjacency.indptr))
            rows.append(r + off)
            cols.append(g.adjacency.indices + off)
            vals.append(g.adjacency.data)
        self.graphs = graphs
        self.num_graphs = len(graphs)
        self.total_nodes = total
        self.offsets = offsets
        self.membership = np.repeat(np.arange(len(graphs), dtype=np.intp), counts)
        # each block is canonical and starts below and right of the previous one
        self.block_adjacency = SparseMatrix._from_sorted_coo(
            np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
            shape=(total, total),
        )
        self.features = np.vstack([g.features for g in graphs])
        self._normalized = None
        self._pool = None

    def node_range(self, i):
        return int(self.offsets[i]), int(self.offsets[i + 1])

    def normalized_adjacency(self):
        if self._normalized is None:
            self._normalized = normalize_adjacency(self.block_adjacency)
        return self._normalized

    def pool_matrix(self):
        """num_graphs x total_nodes indicator; spmm with it sum-pools rows."""
        if self._pool is None:
            self._pool = SparseMatrix._from_sorted_coo(
                self.membership,
                np.arange(self.total_nodes, dtype=np.intp),
                np.ones(self.total_nodes),
                shape=(self.num_graphs, self.total_nodes),
            )
        return self._pool


def batch_graphs(graphs):
    return GraphBatch(graphs)


def _symmetrized_adjacency(num_nodes, u, v):
    """Deduplicated symmetric binary adjacency from endpoint arrays, no loops."""
    u = np.asarray(u, dtype=np.intp)
    v = np.asarray(v, dtype=np.intp)
    keep = u != v
    u, v = u[keep], v[keep]
    keys = np.unique(np.concatenate([u * num_nodes + v, v * num_nodes + u]))
    # unique sorted keys are canonical CSR order
    return SparseMatrix._from_sorted_coo(keys // num_nodes, keys % num_nodes,
                                         np.ones(len(keys)), shape=(num_nodes, num_nodes))


def _group_by(keys, num_groups):
    """Stable order sorting ``keys`` in 0..num_groups-1, and each group's start in it."""
    order = np.argsort(keys, kind="stable")
    starts = np.concatenate([[0], np.cumsum(np.bincount(keys, minlength=num_groups))])
    return order, starts


def _read_int_lines(path, what):
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(int(line))
            except ValueError as exc:
                raise ValueError(f"{what}: non-integer token on line {lineno}: {line!r}") from exc
    return out


def parse_tudataset(directory, dataset_name):
    """Parse the raw multi-graph benchmark text layout into a GraphDataset.

    Edges are 1-indexed ``u, v`` pairs; the indicator file assigns each node to
    a graph; node labels (when present) become one-hot features. Graph labels
    are remapped to contiguous ids sorted by original value. Edges crossing
    graph boundaries are rejected.
    """
    prefix = os.path.join(directory, dataset_name, dataset_name)
    if not os.path.exists(prefix + "_A.txt"):
        # also accept the files directly in `directory`
        prefix = os.path.join(directory, dataset_name)
    edge_path = prefix + "_A.txt"
    indicator_path = prefix + "_graph_indicator.txt"
    labels_path = prefix + "_graph_labels.txt"
    node_labels_path = prefix + "_node_labels.txt"
    for path in (edge_path, indicator_path, labels_path):
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing mandatory file: {path}")

    indicator = np.array(_read_int_lines(indicator_path, "graph_indicator"), dtype=np.intp)
    total_nodes = len(indicator)
    graph_ids, graph_pos = np.unique(indicator, return_inverse=True)

    raw_labels = _read_int_lines(labels_path, "graph_labels")
    if len(raw_labels) != len(graph_ids):
        raise ValueError(
            f"graph_labels has {len(raw_labels)} entries for {len(graph_ids)} graphs"
        )
    classes = sorted(set(raw_labels))
    class_map = {c: i for i, c in enumerate(classes)}

    us, vs = [], []
    with open(edge_path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.replace(",", " ").split()
            if len(parts) != 2:
                raise ValueError(f"edge file: expected two tokens on line {lineno}: {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"edge file: non-integer tokens on line {lineno}: {line!r}") from exc
            if not (1 <= u <= total_nodes and 1 <= v <= total_nodes):
                raise ValueError(f"edge file: node id out of range on line {lineno}: {line!r}")
            if indicator[u - 1] != indicator[v - 1]:
                raise ValueError(
                    f"edge file: edge ({u}, {v}) crosses graph boundaries "
                    f"(graphs {indicator[u - 1]} and {indicator[v - 1]})"
                )
            us.append(u - 1)
            vs.append(v - 1)

    node_labels = None
    if os.path.exists(node_labels_path):
        node_labels = np.array(_read_int_lines(node_labels_path, "node_labels"), dtype=np.intp)
        if len(node_labels) != total_nodes:
            raise ValueError(
                f"node_labels has {len(node_labels)} entries for {total_nodes} nodes"
            )

    # local id = rank of a node among its graph's nodes in file order
    order, starts = _group_by(graph_pos, len(graph_ids))
    local_ids = np.empty(total_nodes, dtype=np.intp)
    local_ids[order] = np.arange(total_nodes) - starts[graph_pos[order]]
    us, vs = np.array(us, dtype=np.intp), np.array(vs, dtype=np.intp)
    edge_order, edge_starts = _group_by(graph_pos[us], len(graph_ids))
    edge_u, edge_v = local_ids[us[edge_order]], local_ids[vs[edge_order]]

    # feature rows in graph-grouped order: graph g owns rows starts[g]:starts[g + 1]
    if node_labels is not None:
        label_values, label_pos = np.unique(node_labels, return_inverse=True)
        features = np.zeros((total_nodes, len(label_values)))
        features[np.arange(total_nodes), label_pos[order]] = 1.0
    else:
        # placeholder constant feature; callers usually swap in degree one-hots
        features = np.ones((total_nodes, 1))

    graphs = []
    for gpos in range(len(graph_ids)):
        e0, e1 = edge_starts[gpos], edge_starts[gpos + 1]
        n = int(starts[gpos + 1] - starts[gpos])
        graphs.append(Graph(
            num_nodes=n,
            adjacency=_symmetrized_adjacency(n, edge_u[e0:e1], edge_v[e0:e1]),
            features=features[starts[gpos]:starts[gpos + 1]],
            label=class_map[raw_labels[gpos]],
        ))
    return GraphDataset(
        graphs=graphs,
        num_classes=len(classes),
        feature_dim=features.shape[1],
        name=dataset_name,
    )


def degree_onehot(g, threshold):
    """One-hot of min(degree, threshold); row v has a single 1. Shape |V| x (threshold+1)."""
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    deg = np.minimum(g.degrees(), threshold)
    out = np.zeros((g.num_nodes, threshold + 1))
    out[np.arange(g.num_nodes), deg] = 1.0
    return out


def with_degree_features(dataset, threshold):
    """Copy of a dataset with degree one-hot features on every graph."""
    graphs = [
        Graph(g.num_nodes, g.adjacency, degree_onehot(g, threshold), g.label, g.node_labels)
        for g in dataset.graphs
    ]
    return GraphDataset(graphs, dataset.num_classes, threshold + 1, dataset.name)


def normalize_adjacency(a):
    """Symmetric degree normalization of A with self-loops added.

    Returns Dh^{-1/2} (A + I) Dh^{-1/2} where Dh is the degree matrix of A + I.
    """
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be square")
    rows = np.repeat(np.arange(n, dtype=np.intp), np.diff(a.indptr))
    cols = a.indices
    vals = a.data
    rows = np.concatenate([rows, np.arange(n, dtype=np.intp)])
    cols = np.concatenate([cols, np.arange(n, dtype=np.intp)])
    vals = np.concatenate([vals, np.ones(n)])
    deg = np.bincount(rows, weights=vals, minlength=n)
    inv_sqrt = 1.0 / np.sqrt(deg)
    scaled = vals * inv_sqrt[rows] * inv_sqrt[cols]
    return SparseMatrix.from_coo(rows, cols, scaled, shape=(n, n))


def sample_node_subset(g, n, rng):
    """Induced subgraph on ``n`` uniformly sampled distinct nodes."""
    if not (1 <= n <= g.num_nodes):
        raise ValueError(f"subset size {n} out of range for {g.num_nodes} nodes")
    keep = np.sort(rng.choice(g.num_nodes, size=n, replace=False))
    position = -np.ones(g.num_nodes, dtype=np.intp)
    position[keep] = np.arange(n, dtype=np.intp)
    rows = np.repeat(np.arange(g.num_nodes, dtype=np.intp), np.diff(g.adjacency.indptr))
    cols = g.adjacency.indices
    inside = (position[rows] >= 0) & (position[cols] >= 0)
    # ``position`` is increasing on the kept nodes, so CSR order survives
    adj = SparseMatrix._from_sorted_coo(
        position[rows[inside]], position[cols[inside]],
        np.ones(int(inside.sum())), shape=(n, n),
    )
    return Graph(
        num_nodes=n,
        adjacency=adj,
        features=g.features[keep].copy(),
        label=g.label,
        node_labels=None if g.node_labels is None else g.node_labels[keep].copy(),
    )


def parse_nodelevel(edge_file, feature_file, label_file, split_file=None):
    """Parse the single-graph node classification layout.

    Edges: tab- or space-separated 0-indexed pairs, one per line. Features:
    comma-separated floats, one node per line. Labels: one integer per line.
    Split file (optional): lines ``train <id>``, ``valid <id>``, ``test <id>``.
    Returns (Graph, NodeSplit | None).
    """
    feats = []
    with open(feature_file, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            try:
                row = [float(tok) for tok in line.split(",")]
            except ValueError as exc:
                raise ValueError(f"feature file: bad row on line {lineno}") from exc
            if feats and len(row) != len(feats[0]):
                raise ValueError(f"feature file: row on line {lineno} has {len(row)} values, "
                                 f"expected {len(feats[0])}")
            feats.append(row)
    if not feats:
        raise ValueError("feature file has no rows")
    features = np.array(feats)
    num_nodes = features.shape[0]

    labels = np.array(_read_int_lines(label_file, "labels"), dtype=np.intp)
    if len(labels) != num_nodes:
        raise ValueError(f"label file has {len(labels)} entries for {num_nodes} nodes")

    us, vs = [], []
    with open(edge_file, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"edge file: expected two tokens on line {lineno}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError as exc:
                raise ValueError(f"edge file: non-integer tokens on line {lineno}: {line!r}") from exc
            if not (0 <= u < num_nodes and 0 <= v < num_nodes):
                raise ValueError(f"edge file: node id out of range on line {lineno}")
            us.append(u)
            vs.append(v)

    graph = Graph(
        num_nodes=num_nodes,
        adjacency=_symmetrized_adjacency(num_nodes, us, vs),
        features=features,
        node_labels=labels,
    )

    split = None
    if split_file is not None:
        buckets = {"train": [], "valid": [], "test": []}
        with open(split_file, "r", encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, 1):
                line = line.strip()
                if not line:
                    continue
                parts = line.split()
                if len(parts) != 2 or parts[0] not in buckets:
                    raise ValueError(f"split file: bad line {lineno}: {line!r}")
                try:
                    node = int(parts[1])
                except ValueError as exc:
                    raise ValueError(
                        f"split file: non-integer node id on line {lineno}: {line!r}") from exc
                if not (0 <= node < num_nodes):
                    raise ValueError(f"split file: node id out of range on line {lineno}")
                buckets[parts[0]].append(node)
        split = NodeSplit(
            train=np.array(buckets["train"], dtype=np.intp),
            valid=np.array(buckets["valid"], dtype=np.intp),
            test=np.array(buckets["test"], dtype=np.intp),
        )
    return graph, split


def write_nodelevel(graph, directory, split=None, prefix="graph"):
    """Write a Graph (and optional split) in the node classification layout.

    Returns the four file paths (edge, feature, label, split-or-None).
    """
    os.makedirs(directory, exist_ok=True)
    edge_path = os.path.join(directory, f"{prefix}_edges.txt")
    feat_path = os.path.join(directory, f"{prefix}_features.txt")
    label_path = os.path.join(directory, f"{prefix}_labels.txt")
    with open(edge_path, "w", encoding="utf-8") as fh:
        rows = np.repeat(np.arange(graph.num_nodes, dtype=np.intp),
                         np.diff(graph.adjacency.indptr))
        for u, v in zip(rows, graph.adjacency.indices):
            if u < v:  # store each undirected edge once
                fh.write(f"{u}\t{v}\n")
    with open(feat_path, "w", encoding="utf-8") as fh:
        for row in graph.features:
            fh.write(",".join(repr(float(x)) for x in row) + "\n")
    with open(label_path, "w", encoding="utf-8") as fh:
        labels = graph.node_labels
        if labels is None:
            raise ValueError("graph has no node labels to write")
        for lab in labels:
            fh.write(f"{int(lab)}\n")
    split_path = None
    if split is not None:
        split_path = os.path.join(directory, f"{prefix}_split.txt")
        with open(split_path, "w", encoding="utf-8") as fh:
            for name, ids in (("train", split.train), ("valid", split.valid), ("test", split.test)):
                for node in ids:
                    fh.write(f"{name} {int(node)}\n")
    return edge_path, feat_path, label_path, split_path


def make_sbm_graph(num_nodes, num_blocks, p_in, p_out, feature_dim, rng,
                   feature_shift=1.0, noise_sd=1.0):
    """Two-or-more-block stochastic block model with noisy block-coded features.

    Node features are a Gaussian blob around a block-specific mean direction;
    node labels are the block ids.
    """
    labels = rng.integers(0, num_blocks, size=num_nodes)
    means = rng.normal(size=(num_blocks, feature_dim))
    means *= feature_shift / np.maximum(np.linalg.norm(means, axis=1, keepdims=True), 1e-12)
    features = means[labels] + noise_sd * rng.normal(size=(num_nodes, feature_dim))

    # sample edges block-pair by block-pair to stay O(expected edges)
    rows, cols = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    for a in range(num_blocks):
        ia = np.flatnonzero(labels == a)
        for b in range(a, num_blocks):
            ib = np.flatnonzero(labels == b)
            p = p_in if a == b else p_out
            if p <= 0 or len(ia) == 0 or len(ib) == 0:
                continue
            count = rng.binomial(len(ia) * len(ib), p)
            if count == 0:
                continue
            u = ia[rng.integers(0, len(ia), size=count)]
            v = ib[rng.integers(0, len(ib), size=count)]
            keep = u != v
            rows.append(u[keep])
            cols.append(v[keep])
    return Graph(
        num_nodes=num_nodes,
        adjacency=_symmetrized_adjacency(num_nodes, np.concatenate(rows), np.concatenate(cols)),
        features=features,
        node_labels=labels.astype(np.intp),
    )


def make_blob_dataset(num_graphs, num_classes, rng, nodes_range=(6, 14),
                      feature_dim=6, p_edge=0.35, class_shift=1.5, noise_sd=0.5):
    """Synthetic graph classification corpus with class-coded feature blobs.

    Each class has a mean feature direction; graphs draw node features around
    their class mean, with random Erdos-Renyi connectivity. Useful for
    end-to-end pipeline tests when no benchmark files are on disk.
    """
    means = rng.normal(size=(num_classes, feature_dim))
    means *= class_shift / np.maximum(np.linalg.norm(means, axis=1, keepdims=True), 1e-12)
    graphs = []
    for i in range(num_graphs):
        label = int(i % num_classes)
        n = int(rng.integers(nodes_range[0], nodes_range[1] + 1))
        feats = means[label] + noise_sd * rng.normal(size=(n, feature_dim))
        upper = np.triu(rng.uniform(0, 1, size=(n, n)) < p_edge, k=1)
        graphs.append(Graph(
            num_nodes=n,
            adjacency=_symmetrized_adjacency(n, *np.nonzero(upper)),
            features=feats,
            label=label,
        ))
    order = rng.permutation(num_graphs)
    graphs = [graphs[i] for i in order]
    return GraphDataset(graphs, num_classes, feature_dim, name="blobs")
