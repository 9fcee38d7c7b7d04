"""Seeded workload inputs, written in the package's two text layouts.

The generators and writers live in the benchmark, not in
``latentgraph.graphs``, so that a change to the package cannot change what a
workload feeds it. Each input is a pure function of its seed. Class signals
are sized so that the linear probes land clearly between chance and 1.0,
which leaves room to see a change in representation quality either way.
"""

import os

import numpy as np

CORPUS_NAME = "MOLS"
NODE_PREFIX = "graph"

# Molecule-like corpus: about 512 graphs of 6-30 atoms, 7 atom types, 2
# classes told apart only by a shift in the atom-type mix.
NUM_GRAPHS = 512
NODES_RANGE = (6, 30)
ATOM_MIX = np.array([0.62, 0.14, 0.12, 0.05, 0.03, 0.02, 0.02])
ATOM_SHIFT = np.array([-0.09, 0.06, 0.03, 0.0, 0.0, 0.0, 0.0])

# Node-level graph: an 8-block stochastic block model on 10k nodes with
# about 134k stored adjacency entries (both directions) and 8 features, a
# noisy one-hot of the block.
NUM_NODES = 10_000
NUM_BLOCKS = 8
FEATURE_DIM = 8
INTRA_EDGES = 40_000
INTER_EDGES = 27_500
FEATURE_SIGNAL = 0.6
SPLIT_FRACTIONS = (0.1, 0.1)  # train, valid; the rest is test


def _molecule(rng, label):
    """One graph: a random tree with a few ring closures, atom types drawn
    from a class-dependent mix."""
    n = int(rng.integers(NODES_RANGE[0], NODES_RANGE[1] + 1))
    mix = ATOM_MIX + (ATOM_SHIFT if label else -ATOM_SHIFT)
    atoms = rng.choice(len(mix), size=n, p=mix / mix.sum())
    parents = [int(rng.integers(max(0, i - 3), i)) for i in range(1, n)]
    edges = list(zip(range(1, n), parents))
    for _ in range(n // 6):
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        if (u, v) not in edges and (v, u) not in edges:
            edges.append((u, v))
    return n, atoms, edges


def write_molecule_corpus(directory, seed, num_graphs=NUM_GRAPHS):
    """Write a graph-classification corpus in the multi-graph text layout.

    Files go to ``directory/MOLS/MOLS_*.txt``: 1-indexed edge pairs in both
    directions, the graph indicator, graph labels (-1/1) and node labels.
    Returns the dataset path to pass as ``--dataset``.
    """
    rng = np.random.default_rng([int(seed), 1])
    labels = rng.permutation(np.arange(num_graphs) % 2)
    root = os.path.join(directory, CORPUS_NAME)
    os.makedirs(root, exist_ok=True)
    prefix = os.path.join(root, CORPUS_NAME)
    offset = 0
    with open(prefix + "_A.txt", "w", encoding="utf-8") as f_edges, \
            open(prefix + "_graph_indicator.txt", "w", encoding="utf-8") as f_ind, \
            open(prefix + "_node_labels.txt", "w", encoding="utf-8") as f_atoms:
        for gid, label in enumerate(labels, start=1):
            n, atoms, edges = _molecule(rng, int(label))
            for u, v in edges:
                f_edges.write(f"{u + offset + 1}, {v + offset + 1}\n"
                              f"{v + offset + 1}, {u + offset + 1}\n")
            f_ind.write(f"{gid}\n" * n)
            f_atoms.write("".join(f"{int(a)}\n" for a in atoms))
            offset += n
    with open(prefix + "_graph_labels.txt", "w", encoding="utf-8") as fh:
        fh.write("".join("1\n" if y else "-1\n" for y in labels))
    return root


def write_sbm_graph(directory, seed, num_nodes=NUM_NODES,
                    intra_edges=INTRA_EDGES, inter_edges=INTER_EDGES):
    """Write a node-classification graph in the single-graph text layout.

    Files go to ``directory/graph_{edges,features,labels,split}.txt``: one
    0-indexed undirected edge per line, CSV feature rows, the block of each
    node as its label, and a train/valid/test split. Returns the dataset path
    to pass as ``--dataset``.
    """
    rng = np.random.default_rng([int(seed), 2])
    blocks = rng.permutation(np.arange(num_nodes) % NUM_BLOCKS)
    members = [np.flatnonzero(blocks == b) for b in range(NUM_BLOCKS)]
    pick = rng.integers(0, NUM_BLOCKS, size=intra_edges)
    u = np.array([members[b][rng.integers(len(members[b]))] for b in pick])
    v = np.array([members[b][rng.integers(len(members[b]))] for b in pick])
    u = np.concatenate([u, rng.integers(0, num_nodes, size=inter_edges)])
    v = np.concatenate([v, rng.integers(0, num_nodes, size=inter_edges)])
    keep = u != v
    pairs = np.unique(np.sort(np.stack([u[keep], v[keep]], axis=1), axis=1),
                      axis=0)
    centers = FEATURE_SIGNAL * np.eye(NUM_BLOCKS, FEATURE_DIM)
    features = centers[blocks] + rng.normal(0.0, 1.0,
                                            size=(num_nodes, FEATURE_DIM))
    order = rng.permutation(num_nodes)
    n_train, n_valid = (int(f * num_nodes) for f in SPLIT_FRACTIONS)

    os.makedirs(directory, exist_ok=True)
    path = os.path.join(directory, NODE_PREFIX)
    with open(path + "_edges.txt", "w", encoding="utf-8") as fh:
        fh.write("".join(f"{a}\t{b}\n" for a, b in pairs))
    with open(path + "_features.txt", "w", encoding="utf-8") as fh:
        fh.write("".join(",".join(f"{x:.6f}" for x in row) + "\n"
                         for row in features))
    with open(path + "_labels.txt", "w", encoding="utf-8") as fh:
        fh.write("".join(f"{b}\n" for b in blocks))
    with open(path + "_split.txt", "w", encoding="utf-8") as fh:
        for name, ids in (("train", order[:n_train]),
                          ("valid", order[n_train:n_train + n_valid]),
                          ("test", order[n_train + n_valid:])):
            fh.write("".join(f"{name} {i}\n" for i in ids))
    return directory
