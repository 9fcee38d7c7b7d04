"""Graph containers, dataset parsers, featurization, batching and sampling.

A :class:`Graph` stores a symmetric binary adjacency without self-loops plus a
float feature matrix. Collections live in a :class:`GraphDataset`; mini-batches
are block-diagonal :class:`GraphBatch` objects on which an encoder forward pass
equals the per-graph passes row for row.

Two plain-text formats are read, each file as a table with one row per
non-blank line (no comment lines, no digit separators such as ``1_000``):

* the classic multi-graph benchmark layout: ``<DS>_A.txt`` (1-indexed edge
  pairs split by commas, whitespace or both), ``<DS>_graph_indicator.txt``,
  ``<DS>_graph_labels.txt`` and optional ``<DS>_node_labels.txt``;
* a single-graph node classification layout: whitespace-separated 0-indexed
  edges, CSV feature rows, one label per line, and a split file with
  ``train``/``valid``/``test`` sections that list each node at most once.
"""

from __future__ import annotations

import itertools
import os
import warnings
from dataclasses import dataclass

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
    """One graph: adjacency (symmetric, zero diagonal), features, labels.

    Every binary matrix this module builds (a graph's adjacency, a batch's
    block adjacency and pooling matrix) holds float32 ones, exact for 0/1
    and half the bytes of float64 ones.
    """

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
    """Graphs that share one feature dimension."""

    graphs: list

    def __post_init__(self):
        if len({g.feature_dim for g in self.graphs}) > 1:
            raise ValueError("all graphs must share one feature dimension")

    @property
    def feature_dim(self):
        return self.graphs[0].feature_dim

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

    ``offsets[i]`` is the first row of graph ``i`` (with a final sentinel
    equal to the total node count). A batch of one graph holds that graph's
    own adjacency and a read-only view of its features, not copies.
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
        self.num_graphs = len(graphs)
        self.total_nodes = total
        self.offsets = offsets
        if len(graphs) == 1:
            self.block_adjacency = graphs[0].adjacency
            self.features = graphs[0].features.view()
            self.features.flags.writeable = False
        else:
            rows, cols, vals = [], [], []
            for g, off in zip(graphs, offsets[:-1]):
                r = np.repeat(np.arange(g.num_nodes, dtype=np.intp),
                              np.diff(g.adjacency.indptr))
                rows.append(r + off)
                cols.append(g.adjacency.indices + off)
                vals.append(g.adjacency.data)
            # each block is canonical and starts below and right of the previous one
            self.block_adjacency = SparseMatrix._from_sorted_coo(
                np.concatenate(rows), np.concatenate(cols), np.concatenate(vals),
                shape=(total, total),
            )
            self.features = np.vstack([g.features for g in graphs])
        self._normalized = {}
        self._pool = None

    def node_range(self, i):
        return int(self.offsets[i]), int(self.offsets[i + 1])

    def normalized_adjacency(self, dtype=np.float64):
        """``normalize_adjacency(block_adjacency)`` with its values in
        ``dtype``, made once per dtype and kept only in the dtypes asked
        for."""
        dtype = np.dtype(dtype)
        if dtype not in self._normalized:
            self._normalized[dtype] = normalize_adjacency(self.block_adjacency).astype(dtype)
        return self._normalized[dtype]

    def pool_matrix(self):
        """num_graphs x total_nodes indicator; spmm with it sum-pools rows."""
        if self._pool is None:
            self._pool = SparseMatrix._from_sorted_coo(
                np.repeat(np.arange(self.num_graphs, dtype=np.intp), np.diff(self.offsets)),
                np.arange(self.total_nodes, dtype=np.intp),
                np.ones(self.total_nodes, dtype=np.float32),
                shape=(self.num_graphs, self.total_nodes),
            )
        return self._pool


def batch_graphs(graphs):
    return GraphBatch(graphs)


def sorted_unique(values, return_inverse=False):
    """``np.unique(values, return_inverse=...)`` by one sort and a neighbour
    compare: ``np.unique`` hashes, slower here, and imports ``numpy.ma``."""
    values = np.asarray(values).reshape(-1)
    order = np.argsort(values) if return_inverse else None
    ordered = np.sort(values) if order is None else values[order]
    first = np.concatenate([[True], ordered[1:] != ordered[:-1]])[:ordered.size]
    if order is None:
        return ordered[first]
    inverse = np.empty(values.size, dtype=np.intp)
    inverse[order] = np.cumsum(first) - 1
    return ordered[first], inverse


def _symmetrized_adjacency(num_nodes, u, v):
    """Deduplicated symmetric binary adjacency from endpoint arrays, no loops,
    with float32 ones as values."""
    u = np.asarray(u, dtype=np.intp)
    v = np.asarray(v, dtype=np.intp)
    keep = u != v
    u, v = u[keep], v[keep]
    keys = sorted_unique(np.concatenate([u * num_nodes + v, v * num_nodes + u]))
    # sorted distinct keys are canonical CSR order
    return SparseMatrix._from_sorted_coo(keys // num_nodes, keys % num_nodes,
                                         np.ones(len(keys), dtype=np.float32),
                                         shape=(num_nodes, num_nodes))


def _records(path):
    """(line number, stripped text) of each non-blank line: the table rows."""
    with open(path, "r", encoding="utf-8") as fh:
        yield from ((n, line.strip()) for n, line in enumerate(fh, 1) if line.strip())


def _check_rows(path, bad, message):
    """Raise ``message``, formatted with the line, for the first row in ``bad``."""
    for row in np.flatnonzero(bad)[:1]:
        lineno, line = next(itertools.islice(_records(path), int(row), None))
        raise ValueError(message.format(lineno=lineno, line=line))


def _read_table(path, dtype, complaint, width=None, delimiter=None,
                commas_are_spaces=False):
    """The non-blank lines of a text file as an array, one row per line.

    Fields are split at ``delimiter`` (None: whitespace), or at commas and
    whitespace with ``commas_are_spaces``. A line holds ``width`` fields
    (None: as many as the first) of ``dtype``, or of a structured ``dtype``'s
    columns, giving a 1-D table. numpy's C parser reads the file; if it fails,
    the first bad line raises ``ValueError(complaint(lineno, text, fields,
    width, parses))``, ``parses`` telling whether its fields convert.
    """
    names = np.dtype(dtype).names
    width = len(names) if names else width

    def load(source, delimiter, width):
        with warnings.catch_warnings():
            # a file without rows is a table without rows
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            table = np.loadtxt(source, dtype=dtype, delimiter=delimiter, comments=None,
                               encoding="utf-8", ndmin=1 if names else 2)
        if not names and len(table) and width not in (None, table.shape[1]):
            raise ValueError(f"{table.shape[1]} columns, expected {width}")
        return table if names or len(table) else table.reshape(0, width or 0)

    try:
        return load(path, "," if commas_are_spaces else delimiter, width)
    except ValueError:
        delimiter = None if commas_are_spaces else delimiter
    records = [(lineno, line, line.replace(",", " ") if commas_are_spaces else line)
               for lineno, line in _records(path)]
    try:
        # whitespace-only lines among comma-separated ones, or spaces where
        # commas may be, stop numpy's reader but not the format
        return load([text for *_, text in records], delimiter, width)
    except ValueError:
        for lineno, line, text in records:
            fields = text.split(delimiter)
            width = len(fields) if width is None else width
            try:
                load([text], delimiter, None)
            except ValueError:
                raise ValueError(complaint(lineno, line, fields, width, False)) from None
            if len(fields) != width:
                raise ValueError(complaint(lineno, line, fields, width, True)) from None
        raise


def _read_ints(path, what):
    """The integer on each non-blank line of a text file."""
    return _read_table(path, np.intp, width=1, complaint=lambda lineno, line, *_:
                       f"{what}: non-integer token on line {lineno}: {line!r}")[:, 0]


def parse_tudataset(directory, dataset_name):
    """Parse the raw multi-graph benchmark text layout into a GraphDataset.

    Edges are 1-indexed ``u, v`` pairs; the indicator file assigns each node to
    a graph; node labels (when present) become one-hot features. Graph labels
    are remapped to contiguous ids sorted by original value. Edges crossing
    graph boundaries, and a corpus of no graphs, are rejected.
    """
    nested = os.path.join(directory, dataset_name, dataset_name)
    flat = os.path.join(directory, dataset_name)  # the files directly in `directory`
    prefix = nested if os.path.exists(nested + "_A.txt") else flat
    if not os.path.exists(prefix + "_A.txt"):
        raise FileNotFoundError(f"missing mandatory file: {nested}_A.txt or {flat}_A.txt")
    edge_path, indicator_path, labels_path, node_labels_path = (
        f"{prefix}_{kind}.txt" for kind in ("A", "graph_indicator", "graph_labels", "node_labels"))
    for path in (indicator_path, labels_path):
        if not os.path.exists(path):
            raise FileNotFoundError(f"missing mandatory file: {path}")

    indicator = _read_ints(indicator_path, "graph_indicator")
    total_nodes = len(indicator)
    graph_ids, graph_pos = sorted_unique(indicator, return_inverse=True)
    if not len(graph_ids):
        raise ValueError(f"graph_indicator assigns no node to a graph: {indicator_path}")
    _, graph_labels = sorted_unique(_read_ints(labels_path, "graph_labels"),
                                    return_inverse=True)
    if len(graph_labels) != len(graph_ids):
        raise ValueError(f"graph_labels has {len(graph_labels)} entries "
                         f"for {len(graph_ids)} graphs")

    edges = _read_table(
        edge_path, np.intp, width=2, delimiter=",", commas_are_spaces=True,
        complaint=lambda lineno, line, fields, *_: "edge file: {} on line {}: {!r}".format(
            "expected two tokens" if len(fields) != 2 else "non-integer tokens", lineno, line))
    _check_rows(edge_path, ((edges < 1) | (edges > total_nodes)).any(axis=1),
                "edge file: node id out of range on line {lineno}: {line!r}")
    us, vs = edges[:, 0] - 1, edges[:, 1] - 1
    for u, v in edges[indicator[us] != indicator[vs]][:1]:
        raise ValueError(f"edge file: edge ({u}, {v}) crosses graph boundaries "
                         f"(graphs {indicator[u - 1]} and {indicator[v - 1]})")

    node_labels = None
    if os.path.exists(node_labels_path):
        node_labels = _read_ints(node_labels_path, "node_labels")
        if len(node_labels) != total_nodes:
            raise ValueError(f"node_labels has {len(node_labels)} entries for {total_nodes} nodes")

    # graph g owns rows starts[g]:starts[g + 1] of the graph-grouped node
    # order, which keeps file order within a graph (a node's local id)
    order = np.argsort(graph_pos, kind="stable")
    starts = np.concatenate([[0], np.cumsum(np.bincount(graph_pos, minlength=len(graph_ids)))])
    grouped = np.argsort(order)  # each node's row in that order
    if node_labels is not None:
        label_values, label_pos = sorted_unique(node_labels, return_inverse=True)
        features = np.zeros((total_nodes, len(label_values)))
        features[np.arange(total_nodes), label_pos[order]] = 1.0
    else:
        # placeholder constant feature; callers usually swap in degree one-hots
        features = np.ones((total_nodes, 1))

    # one block-diagonal adjacency for the corpus; no edge crosses graphs,
    # so graph g's entries are one run of its CSR order
    whole = _symmetrized_adjacency(total_nodes, grouped[us], grouped[vs])
    rows, cuts = np.repeat(np.arange(total_nodes), np.diff(whole.indptr)), whole.indptr[starts]
    graphs = []
    for s, e, a, b, label in zip(starts[:-1], starts[1:], cuts[:-1], cuts[1:], graph_labels):
        adjacency = SparseMatrix._from_sorted_coo(rows[a:b] - s, whole.indices[a:b] - s,
                                                  np.ones(b - a, dtype=np.float32),
                                                  shape=(e - s, e - s))
        graphs.append(Graph(int(e - s), adjacency, features[s:e], int(label)))
    return GraphDataset(graphs)


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
    return GraphDataset(graphs)


def normalize_adjacency(a):
    """Symmetric degree normalization of A with self-loops added.

    Returns Dh^{-1/2} (A + I) Dh^{-1/2} where Dh is the degree matrix of A + I,
    as CSR built from A's: a stored diagonal entry gets 1 added, and every
    other row gets a diagonal 1 at its sorted position. The values are
    computed and returned in float64 whatever A's value dtype, so the
    float32 ones of a binary adjacency give the same bits as float64 ones.
    """
    n = a.shape[0]
    if a.shape[0] != a.shape[1]:
        raise ValueError("adjacency must be square")
    cols = a.indices
    rows = np.repeat(np.arange(n, dtype=cols.dtype), np.diff(a.indptr))
    # each row's sum in its entries' order, then the self-loop's 1
    inv_sqrt = 1.0 / np.sqrt(np.bincount(rows, weights=a.data, minlength=n) + 1.0)
    on_diagonal = cols == rows
    scaled = a.data.astype(np.float64)
    scaled[on_diagonal] += 1.0
    scaled *= inv_sqrt[rows]
    scaled *= inv_sqrt[cols]
    missing = np.ones(n, dtype=bool)
    missing[rows[on_diagonal]] = False
    new = np.flatnonzero(missing)
    # a row's new diagonal goes after its entries left of the diagonal
    at = a.indptr[new] + np.bincount(rows[cols < rows], minlength=n)[new]
    cols = np.insert(cols, at, new)
    scaled = np.insert(scaled, at, np.square(inv_sqrt[new]))
    indptr = np.zeros(n + 1, dtype=np.intp)
    np.cumsum(missing, out=indptr[1:])
    indptr += a.indptr
    return SparseMatrix._from_csr(indptr, cols, scaled, (n, n))


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
        np.ones(int(inside.sum()), dtype=np.float32), shape=(n, n),
    )
    return Graph(
        num_nodes=n,
        adjacency=adj,
        features=g.features[keep].copy(),
        label=g.label,
        node_labels=None if g.node_labels is None else g.node_labels[keep].copy(),
    )


SPLIT_SECTIONS = ("train", "valid", "test")


def parse_nodelevel(edge_file, feature_file, label_file, split_file=None):
    """Parse the single-graph node classification layout.

    Edges: tab- or space-separated 0-indexed pairs, one per line. Features:
    comma-separated floats, one node per line. Labels: one nonnegative
    integer (class id) per line. Split file (optional): lines ``train <id>``,
    ``valid <id>``, ``test <id>``, each node at most once. Returns (Graph, NodeSplit | None).
    """
    features = _read_table(
        feature_file, np.float64, delimiter=",", complaint=lambda lineno, _, fields, width, ok: (
            f"feature file: row on line {lineno} has {len(fields)} values, expected {width}"
            if ok else f"feature file: bad row on line {lineno}"))
    if not len(features):
        raise ValueError("feature file has no rows")
    _check_rows(feature_file, ~np.isfinite(features).all(axis=1),
                "feature file: non-finite value on line {lineno}")
    num_nodes = features.shape[0]

    labels = _read_ints(label_file, "labels")
    if len(labels) != num_nodes:
        raise ValueError(f"label file has {len(labels)} entries for {num_nodes} nodes")
    _check_rows(label_file, labels < 0, "labels: negative class id on line {lineno}: {line!r}")

    edges = _read_table(edge_file, np.intp, width=2, complaint=lambda lineno, line, fields, *_: (
        f"edge file: expected two tokens on line {lineno}" if len(fields) != 2
        else f"edge file: non-integer tokens on line {lineno}: {line!r}"))
    _check_rows(edge_file, ((edges < 0) | (edges >= num_nodes)).any(axis=1),
                "edge file: node id out of range on line {lineno}")
    graph = Graph(num_nodes, _symmetrized_adjacency(num_nodes, edges[:, 0], edges[:, 1]),
                  features, node_labels=labels)
    if split_file is None:
        return graph, None

    # a longer name is cut to six characters, which no section name has
    table = _read_table(
        split_file, [("section", "U6"), ("node", np.intp)],
        complaint=lambda lineno, line, fields, *_: (
            f"split file: bad line {lineno}: {line!r}"
            if len(fields) != 2 or fields[0] not in SPLIT_SECTIONS
            else f"split file: non-integer node id on line {lineno}: {line!r}"))
    sections = [table["section"] == name for name in SPLIT_SECTIONS]
    _check_rows(split_file, ~np.any(sections, axis=0), "split file: bad line {lineno}: {line!r}")
    nodes = table["node"]
    _check_rows(split_file, (nodes < 0) | (nodes >= num_nodes),
                "split file: node id out of range on line {lineno}")
    # a node listed twice would let its label reach training from a held-out
    # section; name the earliest second listing and the one before it
    order = np.argsort(nodes, kind="stable")
    again = np.flatnonzero(nodes[order[1:]] == nodes[order[:-1]])
    if again.size:
        k = again[np.argmin(order[1:][again])]
        lines = [lineno for lineno, _ in _records(split_file)]
        raise ValueError(f"split file: node {nodes[order[k]]} is listed on line "
                         f"{lines[order[k]]} and again on line {lines[order[k + 1]]}")
    return graph, NodeSplit(*(nodes[listed] for listed in sections))


def write_nodelevel(graph, directory, split=None, prefix="graph"):
    """Write a Graph (and optional split) in the node classification layout.

    Returns the four file paths (edge, feature, label, split-or-None).
    """
    if graph.node_labels is None:
        raise ValueError("graph has no node labels to write")
    rows = np.repeat(np.arange(graph.num_nodes), np.diff(graph.adjacency.indptr))
    upper = rows < graph.adjacency.indices  # store each undirected edge once
    edges = zip(rows[upper], graph.adjacency.indices[upper])
    texts = {
        "edges": "".join(f"{u}\t{v}\n" for u, v in edges),
        "features": "".join(",".join(map(repr, row)) + "\n" for row in graph.features.tolist()),
        "labels": "".join(f"{int(label)}\n" for label in graph.node_labels),
    }
    if split is not None:
        texts["split"] = "".join(f"{name} {int(node)}\n" for name in SPLIT_SECTIONS
                                 for node in getattr(split, name))
    os.makedirs(directory, exist_ok=True)
    paths = {kind: os.path.join(directory, f"{prefix}_{kind}.txt") for kind in texts}
    for kind, text in texts.items():
        with open(paths[kind], "w", encoding="utf-8") as fh:
            fh.write(text)
    return paths["edges"], paths["features"], paths["labels"], paths.get("split")


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
    return GraphDataset(graphs)
