"""Every document the commands write stays byte-identical to a recorded table.

Tiny runs of graph `train` (default, strict, and float64 with no preset),
node `train`, graph and node `eval`, an `ablate --study objective` over the
four objective variants, `verify --suite all` at 64 and at 130 samples (one
chunk of the lab's draws, and several) and its `--corrupt-multiplier 0.1`
control run in fresh processes. The SHA-256 of each output except the
manifests, which hold times and paths, is compared with
`tests/golden/output_digests.json`.

The bits depend on the numeric environment, so the table is keyed by the
Python, numpy, scipy and OpenBLAS versions, OpenBLAS's run-time core and its
thread count, as a manifest records them. Where no entry matches, the test
skips and names the difference. A change that alters outputs on purpose
rewrites this environment's entry with

    PYTHONPATH=src python tests/test_output_digests.py

and the table's diff shows which documents changed.
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import latentgraph
from latentgraph.cli import _environment
from latentgraph.graphs import (
    NodeSplit,
    make_blob_dataset,
    make_sbm_graph,
    write_nodelevel,
)

TABLE = Path(__file__).resolve().parent / "golden" / "output_digests.json"

# (output directory, argv, extra environment, exit code), in run order:
# each eval reads the checkpoint of a train above it
RUNS = (
    ("graph-train", ["train", "--dataset", "{graph}", "--preset", "molecule",
                     "--hidden-dim", "16", "--epochs", "2",
                     "--batch-size", "8", "--seed", "1"], {}, 0),
    ("graph-train-strict", ["train", "--dataset", "{graph}", "--preset",
                            "molecule", "--hidden-dim", "16", "--epochs", "2",
                            "--batch-size", "8", "--seed", "1"],
     {"LAGRAPH_STRICT_DETERMINISM": "1"}, 0),
    # no preset: the only float64 Adam run
    ("graph-train-f64", ["train", "--dataset", "{graph}", "--hidden-dim", "16",
                         "--epochs", "2", "--batch-size", "8", "--seed", "1"],
     {}, 0),
    ("node-train", ["train", "--dataset", "{node}", "--preset", "node",
                    "--hidden-dim", "8", "--epochs", "3", "--seed", "1"], {}, 0),
    ("graph-eval", ["eval", "--checkpoint", "graph-train/checkpoint.json",
                    "--dataset", "{graph}", "--level", "graph", "--folds", "3",
                    "--reps", "2", "--seed", "0"], {}, 0),
    ("node-eval", ["eval", "--checkpoint", "node-train/checkpoint.json",
                   "--dataset", "{node}", "--level", "node", "--reps", "1",
                   "--seed", "0"], {}, 0),
    ("verify", ["verify", "--suite", "all", "--trials", "2", "--samples", "64",
                "--mask-draws", "4", "--seed", "1"], {}, 0),
    ("verify-control", ["verify", "--suite", "corollaries", "--trials", "2",
                        "--samples", "64", "--mask-draws", "4", "--seed", "1",
                        "--corrupt-multiplier", "0.1"], {}, 1),
    # one train per objective variant
    ("ablate-objective", ["ablate", "--study", "objective", "--dataset",
                          "{graph}", "--hidden-dim", "8", "--epochs", "1",
                          "--batch-size", "8", "--folds", "3", "--seed", "1"],
     {}, 0),
    # 130 draws make two full chunks of bounds._CHUNK_SAMPLES and a partial
    ("verify-chunked", ["verify", "--suite", "all", "--trials", "2",
                        "--samples", "130", "--mask-draws", "2", "--seed", "1"],
     {}, 0),
)


def environment_key():
    """The numeric environment the outputs' bits depend on."""
    env = _environment()
    return {
        "python": env["python"],
        "numpy": env["numpy"],
        "scipy": env["scipy"],
        "openblas": (env["blas"] or {}).get("version"),
        "openblas_core": env["blas_core"],
        "blas_threads": env["blas_threads"],
    }


def write_inputs(root):
    """A 24-graph blob corpus in the multi-graph text layout, node labels
    being each node's strongest feature, and a 120-node SBM graph with a
    split in the node-level layout."""
    rng = np.random.default_rng(5)
    data = make_blob_dataset(num_graphs=24, num_classes=2, rng=rng)
    graph_dir = root / "BLOBS"
    graph_dir.mkdir()
    edges, indicator, node_labels, offset = [], [], [], 0
    for gid, g in enumerate(data.graphs, start=1):
        rows = np.repeat(np.arange(g.num_nodes), np.diff(g.adjacency.indptr))
        edges += [f"{u + offset + 1}, {v + offset + 1}"
                  for u, v in zip(rows, g.adjacency.indices)]
        indicator += [str(gid)] * g.num_nodes
        node_labels += [str(i) for i in g.features.argmax(axis=1)]
        offset += g.num_nodes
    for kind, lines in (("A", edges), ("graph_indicator", indicator),
                        ("graph_labels", [str(y) for y in data.labels()]),
                        ("node_labels", node_labels)):
        (graph_dir / f"BLOBS_{kind}.txt").write_text("\n".join(lines) + "\n")

    graph = make_sbm_graph(120, 3, 0.1, 0.01, 6, rng, feature_shift=2.0,
                           noise_sd=0.6)
    perm = rng.permutation(graph.num_nodes)
    write_nodelevel(graph, str(root / "sbm"),
                    split=NodeSplit(train=perm[:60], valid=perm[60:80],
                                    test=perm[80:]))
    return {"graph": str(graph_dir), "node": str(root / "sbm")}


def run_all(root):
    """Run every command in a fresh process under `root`; returns
    {"<run>/<file>": sha256} for every output but the manifests."""
    root, expected_env = Path(root), _environment()
    paths = write_inputs(root)
    src = str(Path(latentgraph.__file__).resolve().parents[1])
    pythonpath = os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)
    digests = {}
    for out, argv, extra, code in RUNS:
        argv = [arg.format(**paths) for arg in argv] + ["--out", out]
        env = {k: v for k, v in os.environ.items()
               if k != "LAGRAPH_STRICT_DETERMINISM"}
        env.update(PYTHONPATH=pythonpath, **extra)
        result = subprocess.run([sys.executable, "-m", "latentgraph", *argv],
                                cwd=root, env=env, capture_output=True,
                                text=True, timeout=300)
        assert result.returncode == code, (out, result.stdout, result.stderr)
        manifest = json.loads((root / out / "manifest.json").read_text())
        assert manifest["environment"] == expected_env, out
        for name in sorted(manifest["outputs"].values()):
            if name != "manifest.json":
                data = (root / out / name).read_bytes()
                digests[f"{out}/{name}"] = hashlib.sha256(data).hexdigest()
    return digests


def mismatch(key, entries):
    """How this environment differs from the nearest recorded one."""
    if not entries:
        return "the table records no environment"
    nearest = min(entries, key=lambda e: sum(
        e["environment"].get(k) != v for k, v in key.items()))["environment"]
    return ", ".join(f"{k} is {v!r}, recorded {nearest.get(k)!r}"
                     for k, v in key.items() if nearest.get(k) != v)


def test_outputs_match_the_recorded_digests(tmp_path):
    key = environment_key()
    entries = json.loads(TABLE.read_text())["entries"]
    recorded = next((e["digests"] for e in entries
                     if e["environment"] == key), None)
    if recorded is None:
        pytest.skip(f"no output digests recorded for this numeric "
                    f"environment: {mismatch(key, entries)}")
    assert run_all(tmp_path) == recorded


def regenerate():
    """Rewrite this environment's entry of the table, keeping the others."""
    key = environment_key()
    with tempfile.TemporaryDirectory() as root:
        digests = run_all(root)
    entries = [e for e in json.loads(TABLE.read_text())["entries"]
               if e["environment"] != key] if TABLE.exists() else []
    entries.append({"environment": key, "digests": digests})
    doc = {"regenerate": "PYTHONPATH=src python tests/test_output_digests.py",
           "entries": entries}
    TABLE.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(digests)} digests for {key} to {TABLE}")


if __name__ == "__main__":
    regenerate()
