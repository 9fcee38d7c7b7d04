"""Node-level pipeline: subgraph pretraining plus a logistic-regression probe.

Builds a two-block stochastic block model where raw features barely separate
the blocks, pretrains a GCN encoder on random induced subgraphs (cheap, and a
stand-in for graphs too big to fit in one step), then trains a linear probe on
frozen node representations over a fixed train/valid/test split. Run with:

    python3 demos/04_node_level_probing.py
"""

import numpy as np

from latentgraph.evaluation import evaluate_node_split, extract_node_repr
from latentgraph.graphs import NodeSplit, make_sbm_graph
from latentgraph.models import build_model
from latentgraph.training import TrainConfig, train


def main():
    rng = np.random.default_rng(42)
    graph = make_sbm_graph(num_nodes=800, num_blocks=2, p_in=0.03,
                           p_out=0.005, feature_dim=8, rng=rng,
                           feature_shift=0.4, noise_sd=1.0)
    perm = rng.permutation(graph.num_nodes)
    split = NodeSplit(train=perm[:480], valid=perm[480:560],
                      test=perm[560:])
    print(f"graph: {graph.num_nodes} nodes, feature dim "
          f"{graph.feature_dim}, split 480/80/240")

    print("baseline: probe on the raw features alone")
    raw_acc = evaluate_node_split(graph.features, graph.node_labels, split,
                                  epochs=200, seed=0).mean
    print(f"  raw-feature test accuracy: {raw_acc:.4f}")

    print("pretraining on random 200-node induced subgraphs:")
    config = TrainConfig(level="node", encoder="gcn", hidden_dim=32,
                         encoder_layers=2, decoder_layers=1, alpha=2.0,
                         mask_ratio=0.05, noise_sd=0.5, lr=1e-3,
                         epochs=30, seed=0, subgraph_nodes=200)
    model = build_model("node", "gcn", graph.feature_dim, 32, 2, 1,
                        rng=np.random.default_rng(0))
    history = train(model, graph, config)
    print(f"  loss: epoch 0 {history[0].loss:.4f} -> "
          f"epoch {history[-1].epoch} {history[-1].loss:.4f}")

    print("probe on frozen representations (raw features concatenated):")
    reprs = extract_node_repr(graph, model.encoder, concat_raw=True)
    report = evaluate_node_split(reprs, graph.node_labels, split,
                                 epochs=200, seed=0)
    print(f"  test accuracy: {report.mean:.4f} "
          f"(vs {raw_acc:.4f} for raw features)")


if __name__ == "__main__":
    main()
