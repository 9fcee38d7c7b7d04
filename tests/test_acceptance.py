"""Acceptance suite: the eleven numbered criteria this toolkit must meet.

Each test is one criterion and prints a single PASS line with the measured
numbers when it holds. Criteria 6 through 9 score real benchmark corpora;
they look for the standard text layout under $LAGRAPH_DATA_DIR (default
./data) and skip with an explicit reason when the files are absent, never
substituting a weaker stand-in. Everything else is fully self-contained.

Summary of the criteria:
 1. every differentiable op and every full training loss matches central
    finite differences (step 1e-3) to relative error 1e-4, in under a minute
 2. the output-level reconstruction bound holds (slack >= -2 SE) across 100
    randomized synthetic trials, in under five minutes
 3. with a constant predictor the bound is an equality within 3 SE
 4. blind-prediction error is uncorrelated with observation noise (within
    3 SE of zero); a deliberately leaky identity control matches its
    analytic positive value within 3 SE
 5. the embedding-level and readout-level bounds hold across 100 randomized
    trials with Lipschitz factors from spectral norms and k = sqrt(|V|)
 6. molecule benchmark: 10-fold linear-SVM accuracy averaged over 5 seeds
    is at least 0.86
 7. protein benchmark: same protocol reaches at least 0.72
 8. accuracy is robust to small training batch sizes (8/32/128 within 2.5
    points of 256)
 9. all four objective variants train (final reconstruction at most half of
    the first epoch's) and mse-embed scores within 2 points of the best
10. node-level training on 1000-node subsamples of a 10k-node synthetic
    graph matches full-graph training within 2 points; tiny subsamples are
    reported without a quantitative assertion
11. two identical training commands produce byte-identical loss logs in
    deterministic mode
"""

import json
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import latentgraph
from latentgraph.bounds import (
    SyntheticSetup,
    check_dae_inner_product,
    constant_predictor,
    dae_identity_expectation,
    estimate_corollary,
    estimate_theorem1,
    identity_predictor,
    make_random_predictor,
)
from latentgraph.engine import (
    SparseMatrix,
    Value,
    add,
    grad_check,
    hadamard,
    kl_div,
    matmul,
    mse_per,
    relu,
    row_select,
    scale,
    softmax_ce,
    spmm,
    sqrt_eps,
    sub,
    sum_squares,
)
from latentgraph.evaluation import (
    evaluate_node_split,
    extract_graph_repr,
    extract_node_repr,
    linsvm_kfold,
)
from latentgraph.graphs import (
    Graph,
    NodeSplit,
    batch_graphs,
    make_sbm_graph,
    parse_tudataset,
)
from latentgraph.models import build_model
from latentgraph.objectives import VARIANTS, MaskSpec, objective
from latentgraph.training import TrainConfig, preset_config, train

DATA_DIR = os.environ.get("LAGRAPH_DATA_DIR", "data")


def load_benchmark_or_skip(name):
    for candidate in (os.path.join(DATA_DIR, name, f"{name}_A.txt"),
                      os.path.join(DATA_DIR, f"{name}_A.txt")):
        if os.path.exists(candidate):
            return parse_tudataset(DATA_DIR, name)
    pytest.skip(
        f"{name} benchmark files not found under {DATA_DIR!r}; place the "
        f"standard text layout at {os.path.join(DATA_DIR, name)} (or set "
        "LAGRAPH_DATA_DIR) to run this criterion against the real corpus")


def train_and_score(dataset, config, probe_seed=0):
    """Shared benchmark protocol: pretrain, freeze, 10-fold linear SVM."""
    model = build_model(config.level, config.encoder, dataset.feature_dim,
                        config.hidden_dim, config.encoder_layers,
                        config.decoder_layers,
                        rng=np.random.default_rng(config.seed),
                        dtype=config.dtype)
    history = train(model, dataset, config)
    reprs = extract_graph_repr(dataset, model.encoder)
    report = linsvm_kfold(reprs, dataset.labels(), folds=10, seed=probe_seed)
    return report, history


# ---------------------------------------------------------------------------
# criterion 1: gradient fidelity


def _ring_graph(n, d, rng, simplex=False):
    adjacency = np.zeros((n, n))
    for i in range(n):
        adjacency[i, (i + 1) % n] = adjacency[(i + 1) % n, i] = 1.0
    if simplex:
        features = rng.dirichlet([3.0] * d, size=n)
    else:
        features = rng.normal(0.8, 0.6, size=(n, d))
    return Graph(n, SparseMatrix.from_dense(adjacency), features)


def _kink_free(rng, shape):
    """Random matrix whose entries stay away from zero, so a 1e-3 probe
    cannot push a relu input across its corner."""
    signs = np.where(rng.uniform(size=shape) < 0.5, -1.0, 1.0)
    return signs * rng.uniform(0.25, 1.25, size=shape)


def _op_checks():
    rng = np.random.default_rng(0)
    a = Value(rng.normal(size=(3, 4)))
    b = Value(rng.normal(size=(4, 2)))
    checks = [("matmul", lambda: sum_squares(matmul(a, b)), [a, b])]

    sparse = SparseMatrix.from_dense(
        (rng.uniform(size=(5, 5)) < 0.4).astype(float))
    dense = Value(rng.normal(size=(5, 3)))
    checks.append(("spmm", lambda: sum_squares(spmm(sparse, dense)), [dense]))

    x = Value(rng.normal(size=(4, 3)))
    y = Value(rng.normal(size=(4, 3)))
    checks.append(("add", lambda: sum_squares(add(x, y)), [x, y]))
    checks.append(("sub", lambda: sum_squares(sub(x, y)), [x, y]))
    checks.append(("hadamard", lambda: sum_squares(hadamard(x, y)), [x, y]))
    checks.append(("scale", lambda: sum_squares(scale(x, 1.7)), [x]))

    r = Value(_kink_free(rng, (4, 3)))
    checks.append(("relu", lambda: sum_squares(relu(r)), [r]))

    h = Value(rng.normal(size=(6, 3)))
    checks.append(("row_select",
                   lambda: sum_squares(row_select(h, np.array([1, 3, 4]))),
                   [h]))
    checks.append(("sum_squares", lambda: sum_squares(h), [h]))

    p = Value(rng.normal(size=(4, 3)))
    q = Value(rng.normal(size=(4, 3)))
    checks.append(("mse_per", lambda: mse_per(p, q, 7.0), [p, q]))

    s = Value(np.array([[rng.uniform(0.5, 1.5)]]))
    checks.append(("sqrt_eps", lambda: sqrt_eps(s), [s]))

    logits = Value(rng.normal(size=(4, 3)))
    target = rng.dirichlet([3.0, 3.0, 3.0], size=4)
    checks.append(("softmax_ce", lambda: softmax_ce(logits, target), [logits]))

    pl = Value(rng.normal(size=(4, 3)))
    ql = Value(rng.normal(size=(4, 3)))
    checks.append(("kl_div", lambda: kl_div(pl, ql), [pl, ql]))
    return checks


# data/model/mask seeds where the invariance term is O(1) and no relu input
# sits within the finite-difference step of its corner; chosen by verifying
# the error also shrinks quadratically at half the step (the convergent
# regime), then frozen
_LOSS_SEEDS = {
    ("graph", "mse-embed"): 8,
    ("graph", "mse-output"): 8,
    ("graph", "ce-embed"): 10,
    ("graph", "ce-output"): 9,
    ("node", "mse-embed"): 1,
    ("node", "mse-output"): 1,
    ("node", "ce-embed"): 1,
    ("node", "ce-output"): 1,
}


def _loss_check(level, variant, seed):
    rng = np.random.default_rng(seed)
    simplex = variant.startswith("ce")
    dim = 3
    if level == "graph":
        data = batch_graphs([_ring_graph(5, dim, rng, simplex),
                             _ring_graph(3, dim, rng, simplex)])
        encoder = "gin"
    else:
        data = batch_graphs([_ring_graph(8, dim, rng, simplex)])
        encoder = "gcn"
    model = build_model(level, encoder, dim, 4, 2, 1,
                        rng=np.random.default_rng(seed + 1000))
    spec = MaskSpec(ratio=0.3, noise_sd=0.5, mode="gaussian")

    def f():
        mask_rng = np.random.default_rng(seed + 2000)
        return objective(model, data, spec, mask_rng, alpha=0.5,
                         variant=variant, training=True).total

    params = [value for _, value in model.named_parameters()]
    return f, params


def test_criterion_01_gradient_fidelity():
    started = time.monotonic()
    worst = 0.0
    for name, f, params in _op_checks():
        report = grad_check(f, params, step=1e-3, tol=1e-4)
        assert report.ok, (
            f"op {name}: max relative error {report.max_rel_err:.3e} "
            f"exceeds 1e-4")
        worst = max(worst, report.max_rel_err)
    for (level, variant), seed in _LOSS_SEEDS.items():
        f, params = _loss_check(level, variant, seed)
        report = grad_check(f, params, step=1e-3, tol=1e-4)
        assert report.ok, (
            f"{level}/{variant} loss: max relative error "
            f"{report.max_rel_err:.3e} exceeds 1e-4")
        worst = max(worst, report.max_rel_err)
    elapsed = time.monotonic() - started
    assert elapsed < 60.0, f"gradient fidelity took {elapsed:.1f}s (>= 60s)"
    print(f"PASS criterion 1: all ops and all 8 full losses match central "
          f"differences at step 1e-3; worst relative error {worst:.2e}; "
          f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 2-5: synthetic bound laboratory


def _random_trial(entropy, trial):
    rng = np.random.default_rng(np.random.SeedSequence([entropy, trial]))
    setup = SyntheticSetup(num_nodes=int(rng.integers(4, 33)),
                           feature_dim=int(rng.integers(2, 9)),
                           edge_prob=0.4, noise_sd=0.1, mask_ratio=0.25,
                           mask_noise_sd=0.5)
    predictor = make_random_predictor(setup.feature_dim, 8, 2, 2,
                                      "gin" if trial % 2 else "gcn", rng)
    return setup, predictor, rng


def test_criterion_02_output_bound_randomized():
    started = time.monotonic()
    worst_margin = np.inf
    for trial in range(100):
        setup, predictor, rng = _random_trial(20260821, trial)
        est = estimate_theorem1(predictor.predict, setup, n_mc=512,
                                mask_draws=8, rng=rng)
        margin = est.slack + 2.0 * est.slack_se
        assert margin >= 0.0, (
            f"trial {trial}: slack {est.slack:.4f} below -2 SE "
            f"({est.slack_se:.4f})")
        worst_margin = min(worst_margin, margin)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"took {elapsed:.1f}s (>= 300s)"
    print(f"PASS criterion 2: output-level bound held in 100/100 randomized "
          f"trials (512x8 Monte Carlo); worst margin {worst_margin:.4f}; "
          f"{elapsed:.1f}s")


def test_criterion_03_constant_predictor_equality():
    setup = SyntheticSetup(num_nodes=12, feature_dim=4, edge_prob=0.4,
                           noise_sd=0.15, mask_ratio=0.25, mask_noise_sd=0.5)
    target = np.zeros((setup.num_nodes, setup.feature_dim))
    est = estimate_theorem1(constant_predictor(target), setup, n_mc=4096,
                            mask_draws=8, rng=np.random.default_rng(33))
    assert est.penalty == 0.0
    assert abs(est.slack) <= 3.0 * est.slack_se, (
        f"|slack| {abs(est.slack):.5f} exceeds 3 SE ({est.slack_se:.5f})")
    print(f"PASS criterion 3: constant predictor gives equality; "
          f"|LHS - RHS| = {abs(est.slack):.5f} <= 3 SE = "
          f"{3 * est.slack_se:.5f}")


def test_criterion_04_blind_inner_product():
    setup = SyntheticSetup(num_nodes=16, feature_dim=4, edge_prob=0.4,
                           noise_sd=0.3, mask_ratio=0.25, mask_noise_sd=0.5,
                           mask_mode="zeros")
    rng = np.random.default_rng(44)
    blind = make_random_predictor(4, 8, 2, 2, "gin", rng)
    est = check_dae_inner_product(blind.predict, setup, n_mc=4096,
                                  mask_draws=8, rng=rng)
    assert abs(est.mean) <= 3.0 * est.se, (
        f"blind inner product {est.mean:.5f} not within 3 SE ({est.se:.5f}) "
        f"of zero")
    control = check_dae_inner_product(identity_predictor(), setup, n_mc=4096,
                                      mask_draws=8,
                                      rng=np.random.default_rng(45),
                                      pass_full_input=True)
    expected = dae_identity_expectation(setup)
    assert abs(control.mean - expected) <= 3.0 * control.se, (
        f"leaky control {control.mean:.5f} not within 3 SE "
        f"({control.se:.5f}) of analytic {expected:.5f}")
    print(f"PASS criterion 4: blind inner product {est.mean:.5f} within "
          f"3 SE of 0; leaky identity control {control.mean:.5f} within "
          f"3 SE of analytic {expected:.5f}")


def test_criterion_05_embedding_and_readout_bounds():
    started = time.monotonic()
    worst_margin = np.inf
    for trial in range(100):
        setup, predictor, rng = _random_trial(52026, trial)
        for level in ("node", "graph"):
            est = estimate_corollary(level, predictor, setup, n_mc=512,
                                     mask_draws=8, rng=rng)
            margin = est.slack + 2.0 * est.slack_se
            assert margin >= 0.0, (
                f"trial {trial} {est.which}: slack {est.slack:.4f} below "
                f"-2 SE ({est.slack_se:.4f})")
            worst_margin = min(worst_margin, margin)
    elapsed = time.monotonic() - started
    assert elapsed < 300.0, f"took {elapsed:.1f}s (>= 300s)"
    print(f"PASS criterion 5: embedding- and readout-level bounds held in "
          f"100/100 randomized trials each; worst margin {worst_margin:.4f}; "
          f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# criteria 6-9: benchmark corpora (skipped when the files are absent)


def test_criterion_06_molecule_benchmark():
    dataset = load_benchmark_or_skip("MUTAG")
    started = time.monotonic()
    means = []
    for seed in range(5):
        config = preset_config("molecule", seed=seed)
        report, _ = train_and_score(dataset, config, probe_seed=seed)
        means.append(report.mean)
    accuracy = float(np.mean(means))
    elapsed = time.monotonic() - started
    assert elapsed < 1800.0, f"took {elapsed:.0f}s (>= 30 min)"
    assert accuracy >= 0.86, (
        f"mean 10-fold accuracy {accuracy:.4f} over 5 seeds below 0.86")
    print(f"PASS criterion 6: molecule benchmark accuracy {accuracy:.4f} "
          f"(per-seed {['%.4f' % m for m in means]}); {elapsed:.0f}s")


def test_criterion_07_protein_benchmark():
    dataset = load_benchmark_or_skip("PROTEINS")
    started = time.monotonic()
    means = []
    for seed in range(5):
        config = preset_config("protein", seed=seed)
        report, _ = train_and_score(dataset, config, probe_seed=seed)
        means.append(report.mean)
    accuracy = float(np.mean(means))
    elapsed = time.monotonic() - started
    assert elapsed < 3600.0, f"took {elapsed:.0f}s (>= 60 min)"
    assert accuracy >= 0.72, (
        f"mean 10-fold accuracy {accuracy:.4f} over 5 seeds below 0.72")
    print(f"PASS criterion 7: protein benchmark accuracy {accuracy:.4f} "
          f"(per-seed {['%.4f' % m for m in means]}); {elapsed:.0f}s")


def test_criterion_08_batch_size_robustness():
    dataset = load_benchmark_or_skip("MUTAG")
    accuracies = {}
    for batch_size in (256, 8, 32, 128):
        config = preset_config("molecule", seed=0, batch_size=batch_size)
        report, _ = train_and_score(dataset, config, probe_seed=0)
        accuracies[batch_size] = report.mean
    reference = accuracies[256]
    for batch_size in (8, 32, 128):
        gap = abs(accuracies[batch_size] - reference)
        assert gap <= 0.025, (
            f"batch size {batch_size}: accuracy {accuracies[batch_size]:.4f} "
            f"differs from batch-256 {reference:.4f} by {gap:.4f} (> 0.025)")
    print(f"PASS criterion 8: batch sizes 8/32/128 all within 2.5 points of "
          f"batch 256; accuracies "
          f"{ {k: round(v, 4) for k, v in sorted(accuracies.items())} }")


def test_criterion_09_objective_variants():
    dataset = load_benchmark_or_skip("MUTAG")
    results = {}
    for variant in VARIANTS:
        config = preset_config("molecule", seed=0, variant=variant)
        report, history = train_and_score(dataset, config, probe_seed=0)
        first, last = history[0].reconstruction, history[-1].reconstruction
        assert last <= 0.5 * first, (
            f"{variant}: final reconstruction {last:.5f} not at most half "
            f"of first-epoch {first:.5f}")
        results[variant] = report.mean
    best = max(results.values())
    assert results["mse-embed"] >= best - 0.02, (
        f"mse-embed accuracy {results['mse-embed']:.4f} more than 2 points "
        f"below best {best:.4f}")
    print(f"PASS criterion 9: all four variants train (reconstruction "
          f"halved) and mse-embed is within 2 points of the best; "
          f"accuracies { {k: round(v, 4) for k, v in results.items()} }")


# ---------------------------------------------------------------------------
# criterion 10: subgraph-training pattern on a synthetic node corpus


def test_criterion_10_subgraph_training_pattern():
    started = time.monotonic()
    rng = np.random.default_rng(42)
    graph = make_sbm_graph(10000, 2, 0.004, 0.0008, 8, rng,
                           feature_shift=0.4, noise_sd=1.0)
    perm = rng.permutation(10000)
    split = NodeSplit(train=perm[:6000], valid=perm[6000:7000],
                      test=perm[7000:])

    def run(subgraph_nodes, seed):
        config = TrainConfig(level="node", encoder="gcn", hidden_dim=64,
                             encoder_layers=2, decoder_layers=1, alpha=2.0,
                             mask_ratio=0.05, noise_sd=0.5, lr=1e-3,
                             epochs=60, seed=seed,
                             subgraph_nodes=subgraph_nodes)
        model = build_model("node", "gcn", graph.feature_dim, 64, 2, 1,
                            rng=np.random.default_rng(seed))
        train(model, graph, config)
        reprs = extract_node_repr(graph, model.encoder, concat_raw=True)
        report = evaluate_node_split(reprs, graph.node_labels, split,
                                     epochs=200, seed=seed)
        return report.mean

    full = run(0, 0)
    sub1000 = run(1000, 1)
    tiny = run(10, 2)
    gap = abs(full - sub1000)
    elapsed = time.monotonic() - started
    assert gap <= 0.02, (
        f"1000-node subsample accuracy {sub1000:.4f} differs from "
        f"full-graph {full:.4f} by {gap:.4f} (> 0.02)")
    print(f"PASS criterion 10: full-graph {full:.4f} vs 1000-node "
          f"subsamples {sub1000:.4f} (gap {gap:.4f} <= 0.02); 10-node "
          f"subsamples reach {tiny:.4f} (reported only, collapse expected); "
          f"{elapsed:.0f}s")


# ---------------------------------------------------------------------------
# criterion 11: byte-identical training logs in deterministic mode


def _write_ring_corpus(root):
    rng = np.random.default_rng(0)
    d = root / "RINGS"
    d.mkdir(parents=True)
    edges, indicator, graph_labels, node_labels = [], [], [], []
    node = 0
    for g in range(10):
        label = g % 2
        n = int(rng.integers(5, 9))
        for i in range(n):
            u, v = node + i + 1, node + (i + 1) % n + 1
            edges += [f"{u}, {v}", f"{v}, {u}"]
        for _ in range(n):
            indicator.append(str(g + 1))
            node_labels.append(str(label))
        graph_labels.append(str(label))
        node += n
    (d / "RINGS_A.txt").write_text("\n".join(edges) + "\n")
    (d / "RINGS_graph_indicator.txt").write_text("\n".join(indicator) + "\n")
    (d / "RINGS_graph_labels.txt").write_text("\n".join(graph_labels) + "\n")
    (d / "RINGS_node_labels.txt").write_text("\n".join(node_labels) + "\n")
    return str(d)


def _child_pythonpath():
    """The child runs from "/", so put this package's absolute source
    directory first on its PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(latentgraph.__file__)))
    return os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)


def test_criterion_11_training_determinism():
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        root = __import__("pathlib").Path(tmp)
        corpus = _write_ring_corpus(root)
        env = dict(os.environ, LAGRAPH_STRICT_DETERMINISM="1",
                   PYTHONPATH=_child_pythonpath())
        logs = []
        for run in ("a", "b"):
            out = root / run
            result = subprocess.run(
                [sys.executable, "-m", "latentgraph", "train",
                 "--dataset", corpus, "--out", str(out),
                 "--epochs", "2", "--batch-size", "4", "--hidden-dim", "8",
                 "--encoder-layers", "2", "--seed", "7"],
                capture_output=True, env=env, cwd="/")
            assert result.returncode == 0, result.stderr.decode()
            logs.append((out / "loss_log.jsonl").read_bytes())
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["deterministic"] is True
        assert logs[0] == logs[1], "loss logs differ between identical runs"
        steps = len(logs[0].splitlines())
        print(f"PASS criterion 11: two identical train commands produced "
              f"byte-identical loss logs ({steps} steps) in deterministic "
              f"mode")
