"""Command-line entry point: train, eval, verify, ablate.

Every run resolves its configuration (preset, then config file, then flags,
each layer overriding the previous), writes its outputs under --out, and
finishes with a manifest.json that records the command, the fully resolved
configuration, the dataset, the seed, and the output paths. Manifests plus
the referenced inputs are enough to re-execute a run; with the
LAGRAPH_STRICT_DETERMINISM=1 environment variable set, re-execution
reproduces outputs bit for bit.

Exit codes: 0 on success, 1 when a verification suite finds a hard failure,
2 for configuration or usage errors, including a training run stopped by a
non-finite loss.
"""

import argparse
import dataclasses
import datetime
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .bounds import (
    StackPredictor,
    SyntheticSetup,
    check_dae_inner_product,
    constant_predictor,
    dae_identity_expectation,
    estimate_corollary,
    estimate_theorem1,
    identity_predictor,
    make_random_predictor,
)
from .engine import strict_determinism_enabled
from .evaluation import (
    evaluate_node_split,
    extract_graph_repr,
    extract_node_repr,
    linsvm_kfold,
)
from .graphs import parse_nodelevel, parse_tudataset, with_degree_features
from .models import build_model
from .objectives import VARIANTS
from .training import (
    CheckpointError,
    NonFiniteLossError,
    PRESETS,
    TrainConfig,
    load_checkpoint,
    load_config,
    preset_config,
    train,
    write_atomic,
)

BATCH_GRID = (8, 32, 128, 256)
SUBGRAPH_GRID = (100, 1000, 10000)
SUITES = ("theorem1", "corollaries", "dae", "all")
STUDIES = ("batch-size", "subgraph", "objective", "concat")


class CliError(Exception):
    """User-facing configuration or usage problem; exits with code 2."""


def schema_path(name):
    """Absolute path of a shipped JSON schema, e.g. schema_path('manifest')."""
    return os.path.join(os.path.dirname(__file__), "schemas",
                        name + ".schema.json")


# ---------------------------------------------------------------------------
# shared plumbing


def _utc_now():
    return datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y-%m-%dT%H:%M:%SZ")


def _write_json(path, doc):
    write_atomic(path, lambda fh: json.dump(doc, fh, indent=2, sort_keys=True))


def _derive_seed(base, index):
    """Deterministic per-cell seed derived from a base seed."""
    return int(np.random.SeedSequence([int(base), int(index)]).generate_state(1)[0])


def _manifest_doc(command, argv, config, dataset, seed, started, elapsed,
                  outputs):
    return {
        "command": command,
        "argv": [str(a) for a in argv],
        "config": config,
        "dataset": dataset,
        "seed": int(seed),
        "deterministic": strict_determinism_enabled(),
        "started_utc": started,
        "wall_clock_seconds": float(elapsed),
        "outputs": outputs,
        "toolkit_version": __version__,
    }


def _load_graph_dataset(path, degree_features=0):
    """Load a multi-graph benchmark directory; returns (dataset, name)."""
    path = os.path.normpath(path)
    name = os.path.basename(path)
    directory = os.path.dirname(path) or "."
    try:
        dataset = parse_tudataset(directory, name)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load graph dataset at {path!r}: {exc}") from exc
    if degree_features > 0:
        dataset = with_degree_features(dataset, degree_features)
    return dataset, name


def _load_node_dataset(path, prefix="graph"):
    """Load a single-graph node classification directory; returns
    (graph, split_or_None, name)."""
    path = os.path.normpath(path)
    files = {kind: os.path.join(path, f"{prefix}_{kind}.txt")
             for kind in ("edges", "features", "labels")}
    missing = [p for p in files.values() if not os.path.exists(p)]
    if missing:
        raise CliError(
            f"cannot load node dataset at {path!r}: missing {missing[0]}")
    split_file = os.path.join(path, f"{prefix}_split.txt")
    if not os.path.exists(split_file):
        split_file = None
    try:
        graph, split = parse_nodelevel(files["edges"], files["features"],
                                       files["labels"], split_file)
    except (OSError, ValueError) as exc:
        raise CliError(f"cannot load node dataset at {path!r}: {exc}") from exc
    return graph, split, os.path.basename(path)


_OVERRIDE_FIELDS = (
    "level", "encoder", "hidden_dim", "encoder_layers", "decoder_layers",
    "decoder_kind", "variant", "alpha", "mask_ratio", "noise_sd", "mask_mode",
    "lr", "weight_decay", "batch_size", "epochs", "seed", "subgraph_nodes",
)


def _add_config_arguments(parser):
    """Training-configuration flags shared by `train` and `ablate`.

    Defaults are None so that only flags the user actually passed override
    the preset/config-file values.
    """
    group = parser.add_argument_group("training configuration")
    group.add_argument("--preset", choices=sorted(PRESETS),
                       help="named hyperparameter bundle to start from")
    group.add_argument("--config", metavar="FILE",
                       help="key = value configuration file")
    group.add_argument("--level", choices=("graph", "node"))
    group.add_argument("--encoder", choices=("gin", "gcn"))
    group.add_argument("--hidden-dim", type=int, dest="hidden_dim")
    group.add_argument("--encoder-layers", type=int, dest="encoder_layers")
    group.add_argument("--decoder-layers", type=int, dest="decoder_layers")
    group.add_argument("--decoder-kind", choices=("mlp", "gcn"),
                       dest="decoder_kind")
    group.add_argument("--no-batchnorm", action="store_true",
                       help="disable batch normalization")
    group.add_argument("--variant", choices=VARIANTS,
                       help="objective variant")
    group.add_argument("--alpha", type=float,
                       help="invariance regularization weight")
    group.add_argument("--mask-ratio", type=float, dest="mask_ratio")
    group.add_argument("--noise-sd", type=float, dest="noise_sd")
    group.add_argument("--mask-mode", choices=("gaussian", "zeros"),
                       dest="mask_mode")
    group.add_argument("--lr", type=float)
    group.add_argument("--weight-decay", type=float, dest="weight_decay")
    group.add_argument("--batch-size", type=int, dest="batch_size")
    group.add_argument("--epochs", type=int)
    group.add_argument("--seed", type=int)
    group.add_argument("--subgraph-nodes", type=int, dest="subgraph_nodes",
                       help="node-level: train on induced subgraphs this size")


def _add_dataset_arguments(parser):
    parser.add_argument("--dataset", required=True, metavar="PATH",
                        help="dataset directory")
    parser.add_argument("--degree-features", type=int, default=0,
                        dest="degree_features", metavar="N",
                        help="replace features with one-hot degrees capped at N")
    parser.add_argument("--file-prefix", default="graph", dest="file_prefix",
                        help="node-level file prefix (default: graph)")


def _add_probe_arguments(parser):
    group = parser.add_argument_group("linear probe")
    group.add_argument("--probe-lr", type=float, default=0.01, dest="probe_lr")
    group.add_argument("--probe-epochs", type=int, default=300,
                       dest="probe_epochs")
    group.add_argument("--probe-weight-decay", type=float, default=0.0,
                       dest="probe_weight_decay")


def _resolve_config(args):
    """Preset -> config file -> CLI flags, then validate."""
    try:
        base = preset_config(args.preset) if args.preset else TrainConfig()
        config = load_config(args.config, base=base) if args.config else base
        overrides = {}
        for name in _OVERRIDE_FIELDS:
            value = getattr(args, name)
            if value is not None:
                overrides[name] = value
        if args.no_batchnorm:
            overrides["use_bn"] = False
        if overrides:
            config = dataclasses.replace(config, **overrides)
        config.validate()
    except (OSError, ValueError) as exc:
        raise CliError(f"invalid configuration: {exc}") from exc
    return config


def _build_from_config(config, feature_dim):
    return build_model(config.level, config.encoder, feature_dim,
                       config.hidden_dim, config.encoder_layers,
                       config.decoder_layers,
                       rng=np.random.default_rng(config.seed),
                       use_bn=config.use_bn,
                       decoder_kind=config.decoder_kind)


def _remove_files(paths):
    for path in paths:
        try:
            os.remove(path)
        except OSError:
            pass


# ---------------------------------------------------------------------------
# train


def cmd_train(args, argv):
    config = _resolve_config(args)
    if config.level == "graph":
        data, dataset_name = _load_graph_dataset(args.dataset,
                                                 args.degree_features)
        feature_dim = data.feature_dim
    else:
        data, _, dataset_name = _load_node_dataset(args.dataset,
                                                   args.file_prefix)
        feature_dim = data.feature_dim

    os.makedirs(args.out, exist_ok=True)
    outputs = {
        "checkpoint": "checkpoint.json",
        "loss_log": "loss_log.jsonl",
        "manifest": "manifest.json",
    }
    paths = {key: os.path.join(args.out, name)
             for key, name in outputs.items()}
    started, t0 = _utc_now(), time.monotonic()
    try:
        model = _build_from_config(config, feature_dim)
        with open(paths["loss_log"], "w", encoding="utf-8") as fh:
            history = train(model, data, config, log_fh=fh,
                            checkpoint_path=paths["checkpoint"])
        manifest = _manifest_doc(
            "train", argv, dataclasses.asdict(config),
            {"name": dataset_name, "path": os.path.abspath(args.dataset)},
            config.seed, started, time.monotonic() - t0, outputs)
        _write_json(paths["manifest"], manifest)
    except BaseException:
        _remove_files(paths.values())
        raise

    final = history[-1]
    print(f"trained {config.epochs} epoch(s) on {dataset_name}; "
          f"final loss {final.loss:.6f} "
          f"(reconstruction {final.reconstruction:.6f}, "
          f"invariance {final.invariance:.6f})")
    print(f"outputs in {args.out}")
    return 0


# ---------------------------------------------------------------------------
# eval


def cmd_eval(args, argv):
    if args.folds < 2:
        raise CliError(f"folds must be at least 2, got {args.folds}")
    if args.reps < 1:
        raise CliError(f"reps must be at least 1, got {args.reps}")
    try:
        model, _meta = load_checkpoint(args.checkpoint,
                                       expect_level=args.level)
    except (OSError, CheckpointError) as exc:
        raise CliError(f"cannot load checkpoint: {exc}") from exc

    started, t0 = _utc_now(), time.monotonic()
    reports = []
    if model.level == "graph":
        dataset, dataset_name = _load_graph_dataset(args.dataset,
                                                    args.degree_features)
        if dataset.feature_dim != model.build_spec["feature_dim"]:
            raise CliError(
                f"dataset feature dim {dataset.feature_dim} does not match "
                f"checkpoint feature dim {model.build_spec['feature_dim']}")
        reprs = extract_graph_repr(dataset, model.encoder)
        labels = dataset.labels()
        for rep in range(args.reps):
            reports.append(linsvm_kfold(reprs, labels, folds=args.folds,
                                        seed=args.seed + rep))
        folds = args.folds
    else:
        graph, split, dataset_name = _load_node_dataset(args.dataset,
                                                        args.file_prefix)
        if split is None:
            raise CliError("node-level evaluation needs a split file")
        if graph.node_labels is None:
            raise CliError("node-level evaluation needs node labels")
        if graph.feature_dim != model.build_spec["feature_dim"]:
            raise CliError(
                f"dataset feature dim {graph.feature_dim} does not match "
                f"checkpoint feature dim {model.build_spec['feature_dim']}")
        reprs = extract_node_repr(graph, model.encoder,
                                  concat_raw=not args.no_concat)
        for rep in range(args.reps):
            reports.append(evaluate_node_split(
                reprs, graph.node_labels, split, lr=args.probe_lr,
                weight_decay=args.probe_weight_decay,
                epochs=args.probe_epochs, seed=args.seed + rep))
        folds = 1

    means = [report.mean for report in reports]
    doc = {
        "level": model.level,
        "folds": folds,
        "reps": args.reps,
        "reports": [report.as_dict() for report in reports],
        "summary": {
            "mean_accuracy": float(np.mean(means)),
            "std_across_reps": float(np.std(means)),
            "mean_within_run_std": float(np.mean([r.std for r in reports])),
        },
    }
    os.makedirs(args.out, exist_ok=True)
    outputs = {"eval_report": "eval_report.json", "manifest": "manifest.json"}
    _write_json(os.path.join(args.out, outputs["eval_report"]), doc)
    manifest = _manifest_doc(
        "eval", argv,
        {"checkpoint": os.path.abspath(args.checkpoint), "folds": args.folds,
         "reps": args.reps, "level": model.level,
         "concat_raw": not args.no_concat, "probe_lr": args.probe_lr,
         "probe_epochs": args.probe_epochs,
         "probe_weight_decay": args.probe_weight_decay},
        {"name": dataset_name, "path": os.path.abspath(args.dataset)},
        args.seed, started, time.monotonic() - t0, outputs)
    _write_json(os.path.join(args.out, outputs["manifest"]), manifest)

    summary = doc["summary"]
    print(f"eval level {model.level} on {dataset_name}: accuracy "
          f"{summary['mean_accuracy']:.4f} "
          f"+/- {summary['std_across_reps']:.4f} across {args.reps} rep(s)")
    return 0


# ---------------------------------------------------------------------------
# verify


def _trial_setup(rng):
    """Random small scenario for one verification trial."""
    num_nodes = int(rng.integers(4, 33))
    feature_dim = int(rng.integers(2, 9))
    return SyntheticSetup(num_nodes=num_nodes, feature_dim=feature_dim,
                          edge_prob=0.4, noise_sd=0.1, mask_ratio=0.25,
                          mask_noise_sd=0.5)


def _bound_record(trial, estimate, predictor, criterion):
    if criterion == "equality":
        passed = abs(estimate.slack) <= 3.0 * estimate.slack_se
    else:
        passed = estimate.slack >= -2.0 * estimate.slack_se
    return {
        "trial": trial,
        "kind": "bound",
        "which": estimate.which,
        "predictor": predictor,
        "criterion": criterion,
        "passed": bool(passed),
        "estimate": estimate.as_dict(),
    }


def _inner_product_record(trial, which, estimate, expected):
    return {
        "trial": trial,
        "kind": "inner_product",
        "which": which,
        "passed": bool(abs(estimate.mean - expected) <= 3.0 * estimate.se),
        "expected": float(expected),
        "estimate": estimate.as_dict(),
    }


def cmd_verify(args, argv):
    if args.trials < 1:
        raise CliError(f"trials must be at least 1, got {args.trials}")
    if args.suite not in SUITES:
        raise CliError(f"suite must be one of {SUITES}")
    run_bounds = args.suite in ("theorem1", "all")
    run_corollaries = args.suite in ("corollaries", "all")
    run_dae = args.suite in ("dae", "all")
    scale = args.corrupt_multiplier

    started, t0 = _utc_now(), time.monotonic()
    records = []
    for trial in range(args.trials):
        rng = np.random.default_rng(np.random.SeedSequence([args.seed, trial]))
        setup = _trial_setup(rng)
        kind = "gin" if trial % 2 else "gcn"
        predictor = make_random_predictor(setup.feature_dim, 8, 2, 2, kind,
                                          rng)
        if run_bounds:
            # three regimes: a random network, the identity map (where the
            # penalty term is what keeps the bound true), and a constant
            # (where the bound collapses to an equality)
            est = estimate_theorem1(predictor.predict, setup,
                                    n_mc=args.samples,
                                    mask_draws=args.mask_draws, rng=rng,
                                    penalty_scale=scale)
            records.append(_bound_record(trial, est, "random-gnn", "lower"))
            est = estimate_theorem1(identity_predictor(), setup,
                                    n_mc=args.samples,
                                    mask_draws=args.mask_draws, rng=rng,
                                    penalty_scale=scale)
            records.append(_bound_record(trial, est, "identity", "lower"))
            target = np.zeros((setup.num_nodes, setup.feature_dim))
            est = estimate_theorem1(constant_predictor(target), setup,
                                    n_mc=args.samples,
                                    mask_draws=args.mask_draws, rng=rng,
                                    penalty_scale=scale)
            records.append(_bound_record(trial, est, "constant", "equality"))
        if run_corollaries:
            for level in ("node", "graph"):
                est = estimate_corollary(level, predictor, setup,
                                         n_mc=args.samples,
                                         mask_draws=args.mask_draws, rng=rng,
                                         penalty_scale=scale)
                records.append(_bound_record(trial, est, "random-gnn",
                                             "lower"))
            # relu passthrough on an edgeless graph correlates predictions
            # with the observation noise, so these records genuinely need
            # the penalty term
            eye = np.eye(setup.feature_dim)
            stress = StackPredictor("gin", [eye], [eye])
            stress_setup = dataclasses.replace(
                setup, graph_model="fixed",
                adjacency=np.zeros((setup.num_nodes, setup.num_nodes)))
            for level in ("node", "graph"):
                est = estimate_corollary(level, stress, stress_setup,
                                         n_mc=args.samples,
                                         mask_draws=args.mask_draws, rng=rng,
                                         penalty_scale=scale)
                records.append(_bound_record(trial, est, "relu-passthrough",
                                             "lower"))
        if run_dae:
            blind_setup = dataclasses.replace(setup, mask_mode="zeros")
            est = check_dae_inner_product(predictor.predict, blind_setup,
                                          n_mc=args.samples,
                                          mask_draws=args.mask_draws, rng=rng)
            records.append(_inner_product_record(trial, "dae_blind", est, 0.0))
            control = check_dae_inner_product(identity_predictor(),
                                              blind_setup, n_mc=args.samples,
                                              mask_draws=args.mask_draws,
                                              rng=rng, pass_full_input=True)
            records.append(_inner_product_record(
                trial, "dae_identity_control", control,
                dae_identity_expectation(blind_setup)))

    failed = sum(1 for record in records if not record["passed"])
    doc = {
        "suite": args.suite,
        "trials": args.trials,
        "seed": args.seed,
        "samples": args.samples,
        "mask_draws": args.mask_draws,
        "records": records,
        "passed": len(records) - failed,
        "failed": failed,
        "ok": failed == 0,
    }
    os.makedirs(args.out, exist_ok=True)
    outputs = {"verification": "verification.json", "manifest": "manifest.json"}
    _write_json(os.path.join(args.out, outputs["verification"]), doc)
    manifest = _manifest_doc(
        "verify", argv,
        {"suite": args.suite, "trials": args.trials, "samples": args.samples,
         "mask_draws": args.mask_draws, "penalty_scale": scale},
        None, args.seed, started, time.monotonic() - t0, outputs)
    _write_json(os.path.join(args.out, outputs["manifest"]), manifest)

    for record in records:
        if not record["passed"]:
            detail = record.get("predictor", record["kind"])
            print(f"FAIL trial {record['trial']} {record['which']} "
                  f"({detail}): "
                  f"{json.dumps(record['estimate'], sort_keys=True)}")
    print(f"verify suite {args.suite}: {doc['passed']}/{len(records)} "
          f"checks passed")
    return 0 if doc["ok"] else 1


# ---------------------------------------------------------------------------
# ablate


def _cell_label(cell):
    key, value = next(iter(cell.items()))
    if key == "subgraph_nodes" and value == 0:
        value = "all"
    if key == "concat":
        value = "on" if value else "off"
    return f"{key}={value}"


def cmd_ablate(args, argv):
    if args.study not in STUDIES:
        raise CliError(f"study must be one of {STUDIES}")
    if args.folds < 2:
        raise CliError(f"folds must be at least 2, got {args.folds}")
    config = _resolve_config(args)
    started, t0 = _utc_now(), time.monotonic()
    cells_out = []

    if args.study in ("batch-size", "objective"):
        if config.level != "graph":
            raise CliError(f"study {args.study!r} needs a graph-level "
                           f"configuration, got level {config.level!r}")
        dataset, dataset_name = _load_graph_dataset(args.dataset,
                                                    args.degree_features)
        labels = dataset.labels()
        if args.study == "batch-size":
            cells = [{"batch_size": b} for b in BATCH_GRID]
        else:
            cells = [{"variant": v} for v in VARIANTS]
        for index, cell in enumerate(cells):
            seed = _derive_seed(config.seed, index)
            cell_config = dataclasses.replace(config, seed=seed, **cell)
            model = _build_from_config(cell_config, dataset.feature_dim)
            history = train(model, dataset, cell_config)
            reprs = extract_graph_repr(dataset, model.encoder)
            report = linsvm_kfold(reprs, labels, folds=args.folds, seed=seed)
            cells_out.append({
                "cell": cell,
                "seed": seed,
                "final_loss": float(history[-1].loss),
                "report": report.as_dict(),
            })
    else:
        if config.level != "node":
            raise CliError(f"study {args.study!r} needs a node-level "
                           f"configuration, got level {config.level!r}")
        graph, split, dataset_name = _load_node_dataset(args.dataset,
                                                        args.file_prefix)
        if split is None:
            raise CliError(f"study {args.study!r} needs a split file")
        if graph.node_labels is None:
            raise CliError(f"study {args.study!r} needs node labels")

        def probe(reprs, seed):
            return evaluate_node_split(
                reprs, graph.node_labels, split, lr=args.probe_lr,
                weight_decay=args.probe_weight_decay,
                epochs=args.probe_epochs, seed=seed)

        if args.study == "subgraph":
            counts = [c for c in SUBGRAPH_GRID if c < graph.num_nodes] + [0]
            for index, count in enumerate(counts):
                seed = _derive_seed(config.seed, index)
                cell_config = dataclasses.replace(config, seed=seed,
                                                  subgraph_nodes=count)
                model = _build_from_config(cell_config, graph.feature_dim)
                history = train(model, graph, cell_config)
                reprs = extract_node_repr(graph, model.encoder,
                                          concat_raw=True)
                cells_out.append({
                    "cell": {"subgraph_nodes": count},
                    "seed": seed,
                    "final_loss": float(history[-1].loss),
                    "report": probe(reprs, seed).as_dict(),
                })
        else:  # concat: one trained model, probed with and without raw input
            seed = _derive_seed(config.seed, 0)
            cell_config = dataclasses.replace(config, seed=seed)
            model = _build_from_config(cell_config, graph.feature_dim)
            history = train(model, graph, cell_config)
            for index, concat in enumerate((True, False)):
                reprs = extract_node_repr(graph, model.encoder,
                                          concat_raw=concat)
                cells_out.append({
                    "cell": {"concat": concat},
                    "seed": _derive_seed(config.seed, index),
                    "final_loss": float(history[-1].loss),
                    "report": probe(reprs, _derive_seed(config.seed,
                                                        index)).as_dict(),
                })

    accuracy_by_cell = {_cell_label(c["cell"]): c["report"]["mean"]
                        for c in cells_out}
    values = list(accuracy_by_cell.values())
    doc = {
        "study": args.study,
        "base_seed": config.seed,
        "cells": cells_out,
        "summary": {
            "accuracy_by_cell": accuracy_by_cell,
            "max_accuracy": max(values),
            "min_accuracy": min(values),
            "spread": max(values) - min(values),
        },
    }
    os.makedirs(args.out, exist_ok=True)
    outputs = {"ablation": "ablation.json", "manifest": "manifest.json"}
    _write_json(os.path.join(args.out, outputs["ablation"]), doc)
    manifest = _manifest_doc(
        "ablate", argv,
        {"study": args.study, "folds": args.folds,
         "config": dataclasses.asdict(config)},
        {"name": dataset_name, "path": os.path.abspath(args.dataset)},
        config.seed, started, time.monotonic() - t0, outputs)
    _write_json(os.path.join(args.out, outputs["manifest"]), manifest)

    for label, value in accuracy_by_cell.items():
        print(f"  {label}: accuracy {value:.4f}")
    print(f"ablate study {args.study} on {dataset_name}: spread "
          f"{doc['summary']['spread']:.4f}")
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser():
    parser = argparse.ArgumentParser(
        prog="lagraph",
        description="Self-supervised graph representation learning: masked "
                    "pretraining, linear evaluation, and Monte-Carlo bound "
                    "verification.",
        epilog="Set LAGRAPH_STRICT_DETERMINISM=1 for bit-reproducible runs.")
    parser.add_argument("--version", action="version",
                        version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True,
                                metavar="{train,eval,verify,ablate}")

    p_train = sub.add_parser(
        "train", help="pretrain an encoder/decoder pair",
        description="Pretrain on a dataset and write checkpoint, per-step "
                    "loss log, and manifest to --out.")
    _add_dataset_arguments(p_train)
    p_train.add_argument("--out", required=True, metavar="DIR")
    _add_config_arguments(p_train)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser(
        "eval", help="linear evaluation of a checkpoint",
        description="Freeze a checkpoint's encoder and score its "
                    "representations with a linear probe.")
    p_eval.add_argument("--checkpoint", required=True, metavar="PATH")
    _add_dataset_arguments(p_eval)
    p_eval.add_argument("--out", required=True, metavar="DIR")
    p_eval.add_argument("--level", choices=("graph", "node"),
                        help="expected checkpoint level (checked)")
    p_eval.add_argument("--folds", type=int, default=10)
    p_eval.add_argument("--reps", type=int, default=5,
                        help="number of re-evaluations with shifted seeds")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--no-concat", action="store_true", dest="no_concat",
                        help="node-level: drop raw features from the "
                             "representation")
    _add_probe_arguments(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser(
        "verify", help="Monte-Carlo verification of the package's bounds",
        description="Run randomized synthetic trials of the reconstruction "
                    "bounds and the blind-prediction inner-product check.")
    p_verify.add_argument("--out", required=True, metavar="DIR")
    p_verify.add_argument("--suite", choices=SUITES, default="all")
    p_verify.add_argument("--trials", type=int, default=10)
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--samples", type=int, default=512,
                          help="Monte-Carlo data draws per estimate")
    p_verify.add_argument("--mask-draws", type=int, default=8,
                          dest="mask_draws",
                          help="mask draws per estimate")
    p_verify.add_argument("--corrupt-multiplier", type=float, default=1.0,
                          dest="corrupt_multiplier", help=argparse.SUPPRESS)
    p_verify.set_defaults(func=cmd_verify)

    p_ablate = sub.add_parser(
        "ablate", help="sweep one factor and probe each cell",
        description="Train across a study's grid and report a linear-probe "
                    "score per cell.")
    p_ablate.add_argument("--study", required=True, choices=STUDIES)
    _add_dataset_arguments(p_ablate)
    p_ablate.add_argument("--out", required=True, metavar="DIR")
    p_ablate.add_argument("--folds", type=int, default=10)
    _add_config_arguments(p_ablate)
    _add_probe_arguments(p_ablate)
    p_ablate.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None):
    argv = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, argv)
    except (CliError, NonFiniteLossError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
