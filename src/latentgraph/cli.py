"""Command-line entry point: train, eval, verify, ablate.

Every run resolves its configuration (a preset, then the flags given,
which override it), writes its outputs under --out, and finishes with a
manifest.json that records the command, the fully resolved configuration,
the dataset, the seed, and the output paths. Manifests plus
the referenced inputs are enough to re-execute a run; with the
LAGRAPH_STRICT_DETERMINISM=1 environment variable set, re-execution
reproduces outputs bit for bit.

Exit codes: 0 on success, 1 when a verify record fails its own test (with
no correction for the number of records, so working code can exit 1 by
chance: `verify --suite all --trials 120 --seed 1` passes 1078 of 1080), 2
for configuration or usage errors, including a training run stopped by a
non-finite loss, gradient or update, and a verify run stopped by a record
that is not finite.
"""

import argparse
import dataclasses
import datetime
import glob
import json
import os
import platform
import resource
import shutil
import sys
import tempfile
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
from .engine import (
    first_non_stochastic_row,
    scipy_version,
    strict_determinism_enabled,
)
from .evaluation import (
    PROBE_EPOCHS,
    evaluate_node_split,
    extract_graph_repr,
    extract_node_repr,
    linsvm_kfold,
)
from .graphs import parse_nodelevel, parse_tudataset, with_degree_features
from .models import build_model
from .training import (
    CHOICES,
    CheckpointError,
    NonFiniteLossError,
    PRESETS,
    TrainConfig,
    load_checkpoint,
    preset_config,
    train,
    write_atomic,
)

BATCH_GRID = (8, 32, 128, 256)
SUBGRAPH_GRID = (100, 1000, 10000)
SUITES = ("theorem1", "corollaries", "dae", "all")

# study -> (the configuration level it needs, the factor it sweeps, its values
# for the loaded data). The factor is a TrainConfig field or the probe's `concat`.
STUDIES = {
    "batch-size": ("graph", "batch_size", lambda data: BATCH_GRID),
    "subgraph": ("node", "subgraph_nodes", lambda data: [
        c for c in SUBGRAPH_GRID if c < data.num_nodes] + [0]),
    "objective": ("graph", "variant", lambda data: CHOICES["variant"]),
    "concat": ("node", "concat", lambda data: (True, False)),
}

# The flags that apply at one level only: dest -> (that level, the default
# there, the minimum or None). Their parser default is None, so a flag given
# at the other level can be told apart and refused.
LEVEL_FLAGS = {
    "folds": ("graph", 10, 2),
    "degree_features": ("graph", 0, 0),
    "probe_epochs": ("node", PROBE_EPOCHS, 1),
    "no_concat": ("node", False, None),
    "file_prefix": ("node", "graph", None),
}

# help strings of the training flags derived from TrainConfig's fields, and
# of the LEVEL_FLAGS flags, whose help _level_help completes
_FLAG_HELP = {
    "variant": "objective variant",
    "alpha": "invariance regularization weight",
    "subgraph_nodes": "node-level: train on induced subgraphs this size "
                      "(0 for the whole graph, else at least 2)",
    "dtype": "compute dtype of training and extraction",
    "folds": "folds of the SVM probe's cross-validation",
    "degree_features": "replace features with one-hot degrees capped at N, "
                       "if N > 0",
    "probe_epochs": "Adam epochs of the logistic-regression probe",
    "no_concat": "drop raw features from the representation",
    "file_prefix": "prefix of the dataset's file names",
}


def _level_help(name):
    """Help of a LEVEL_FLAGS flag: its level, what it does, its default."""
    level, default, _ = LEVEL_FLAGS[name]
    return f"{level}-level: {_FLAG_HELP[name]} (default: {default})"


class CliError(Exception):
    """User-facing configuration or usage problem; exits with code 2."""


def _settle_level_flags(args, level):
    """Refuse a LEVEL_FLAGS flag given for the other level; give the ones of
    `level` their defaults and check their minimums."""
    for name, (flag_level, default, low) in LEVEL_FLAGS.items():
        if flag_level == level:
            if getattr(args, name, None) is None:
                setattr(args, name, default)
            if low is not None:
                _require_at_least(args, **{name: low})
        elif getattr(args, name, None) is not None:
            raise CliError(f"--{name.replace('_', '-')} applies to "
                           f"{flag_level}-level data only, and this run is "
                           f"{level}-level")


def _require_at_least(args, **minimums):
    """Raise a CliError naming the first of these flags below its minimum."""
    for name, low in minimums.items():
        if getattr(args, name) < low:
            raise CliError(f"{name.replace('_', '-')} must be at least {low}, "
                           f"got {getattr(args, name)}")


def schema_path(name):
    """Absolute path of a shipped JSON schema, e.g. schema_path('manifest')."""
    return os.path.join(os.path.dirname(__file__), "schemas",
                        name + ".schema.json")


# ---------------------------------------------------------------------------
# shared plumbing


def _clock():
    """A run's start: the UTC time for its manifest, and a monotonic time."""
    utc = datetime.datetime.now(datetime.timezone.utc)
    return utc.strftime("%Y-%m-%dT%H:%M:%SZ"), time.monotonic()


# how every JSON document the commands write is encoded
_JSON_FORMAT = {"indent": 2, "sort_keys": True, "allow_nan": False}


def _write_json(path, doc):
    """Write `doc` atomically; a NaN or infinity in it raises ValueError,
    since JSON has no token for either, and leaves any earlier file."""
    write_atomic(path, lambda fh: json.dump(doc, fh, **_JSON_FORMAT))


def _derive_seed(base, index):
    """Deterministic per-cell seed derived from a base seed."""
    return int(np.random.SeedSequence([int(base), int(index)]).generate_state(1)[0])


def _openblas_call(restype, *symbols):
    """Call the first of `symbols`, functions of no arguments, that numpy's
    bundled OpenBLAS exports, with the ctypes type named `restype` as its
    result type; None when there is none to call."""
    import ctypes  # only the manifest needs it
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs",
                        "*openblas*")
    for path in sorted(glob.glob(libs)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in symbols:
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes, fn.restype = [], getattr(ctypes, restype)
                return fn()
    return None


def _blas_threads():
    """Thread count of the OpenBLAS bundled with numpy, or None."""
    return _openblas_call("c_int", "scipy_openblas_get_num_threads64_",
                          "openblas_get_num_threads64_",
                          "openblas_get_num_threads")


def _blas_core():
    """The CPU core whose kernels numpy's bundled OpenBLAS chose at run time,
    which set the bits of its products, or None."""
    core = _openblas_call("c_char_p", "scipy_openblas_get_corename64_",
                          "openblas_get_corename64_", "openblas_get_corename")
    return None if core is None else core.decode("ascii", "replace")


def _environment():
    """The numeric environment a run's numbers depend on: the Python, numpy
    and scipy versions, numpy's BLAS (null when numpy does not say), its
    thread count and its run-time core (each null when it cannot be read)."""
    deps = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {})
    blas = deps.get("blas") or {}
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version(),
        "blas": {"name": blas["name"], "version": blas.get("version")}
        if blas.get("name") else None,
        "blas_threads": _blas_threads(),
        "blas_core": _blas_core(),
    }


def _peak_rss_mib():
    """The process's peak resident set size so far, in MiB."""
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # ru_maxrss is in KiB on Linux and in bytes on macOS
    return peak / (2**20 if sys.platform == "darwin" else 2**10)


def _write_outputs(args, argv, started, docs, config, seed, dataset=None,
                   written=None, directory=None):
    """Write each of `docs` ({output key: JSON document}) to --out/<key>.json,
    then --out/manifest.json, which lists those files, the ones in `written`
    ({output key: file name}) that the command wrote itself, and itself.
    `directory` replaces --out as the place the files go."""
    directory = args.out if directory is None else directory
    os.makedirs(directory, exist_ok=True)
    outputs = dict(written or {})
    for key, doc in docs.items():
        outputs[key] = key + ".json"
        _write_json(os.path.join(directory, outputs[key]), doc)
    outputs["manifest"] = "manifest.json"
    started_utc, t0 = started
    _write_json(os.path.join(directory, outputs["manifest"]), {
        "command": args.command,
        "argv": argv,
        "config": config,
        "dataset": None if dataset is None else {
            "name": dataset, "path": os.path.abspath(args.dataset)},
        "seed": int(seed),
        "deterministic": strict_determinism_enabled(),
        "started_utc": started_utc,
        "wall_clock_seconds": time.monotonic() - t0,
        "outputs": outputs,
        "toolkit_version": __version__,
        "environment": _environment(),
        "peak_rss_mib": _peak_rss_mib(),
    })


def _check_out(path):
    """Refuse an --out that cannot become a directory (an existing file, or a
    path under one) before any work, creating nothing."""
    head = os.path.abspath(path)
    while not os.path.lexists(head):
        head = os.path.dirname(head)
    if not path or not os.path.isdir(head):
        raise CliError(f"--out {path!r} is not a directory and cannot be "
                       f"made one")


def _load_data(args, level, purpose=None):
    """Load --dataset as a graph corpus or a single node-level graph; returns
    (data, split_or_None, name).

    With a `purpose` (what the data is for, to name in errors), also check
    what that level's linear probe needs: at least --folds graphs, or node
    labels and a split file with train and test nodes.
    """
    path = os.path.normpath(args.dataset)
    name = os.path.basename(path)
    split = None
    try:
        if level == "graph":
            data = parse_tudataset(os.path.dirname(path) or ".", name)
        else:
            edges, features, labels, split_file = (
                os.path.join(path, f"{args.file_prefix}_{kind}.txt")
                for kind in ("edges", "features", "labels", "split"))
            data, split = parse_nodelevel(
                edges, features, labels,
                split_file if os.path.exists(split_file) else None)
    except (OSError, ValueError) as exc:
        raise CliError(
            f"cannot load {level} dataset at {path!r}: {exc}") from exc
    if level == "graph":
        if args.degree_features > 0:
            data = with_degree_features(data, args.degree_features)
        if purpose and len(data) < args.folds:
            raise CliError(f"{purpose} needs at least {args.folds} graphs for "
                           f"{args.folds} folds, {name} has {len(data)}")
    elif purpose:
        if split is None:
            raise CliError(f"{purpose} needs a split file")
        if data.node_labels is None:
            raise CliError(f"{purpose} needs node labels")
        for section in ("train", "test"):
            if len(getattr(split, section)) == 0:
                raise CliError(f"{purpose} needs {section} nodes, and the "
                               f"split file of {name} lists none")
    return data, split, name


def _check_subgraph_nodes(config, data):
    """Refuse a subgraph size above a node-level graph's node count: the run
    would train on the whole graph while recording that size."""
    if config.level == "node" and config.subgraph_nodes > data.num_nodes:
        raise CliError(f"--subgraph-nodes {config.subgraph_nodes} exceeds the "
                       f"graph's {data.num_nodes} nodes")


def _check_ce_features(config, data):
    """Refuse a cross-entropy variant on node features whose rows are not
    distributions, before any epoch: softmax_ce reads them as its targets
    and would stop the first step. A graph corpus's features are one-hot
    node labels or degrees, or a constant 1, so their rows always are."""
    if config.level != "node" or not config.variant.startswith("ce-"):
        return
    rows = data.features.astype(config.dtype, copy=False)
    row = first_non_stochastic_row(rows)
    if row is not None:
        raise CliError(f"variant {config.variant!r} needs feature rows that "
                       f"sum to 1, and node {row}'s sums to "
                       f"{rows[row].sum():.6g}")


def _add_config_arguments(parser):
    """Training-configuration flags shared by `train` and `ablate`: one per
    TrainConfig field.

    Defaults are None so that only flags the user actually passed override
    the preset's values.
    """
    group = parser.add_argument_group("training configuration")
    group.add_argument("--preset", choices=sorted(PRESETS),
                       help="named hyperparameter bundle to start from")
    for field in dataclasses.fields(TrainConfig):
        group.add_argument("--" + field.name.replace("_", "-"),
                           dest=field.name, type=field.type,
                           choices=CHOICES.get(field.name),
                           help=_FLAG_HELP.get(field.name))


def _add_dataset_arguments(parser):
    parser.add_argument("--dataset", required=True, metavar="PATH",
                        help="dataset directory")
    parser.add_argument("--degree-features", type=int, metavar="N",
                        help=_level_help("degree_features"))
    parser.add_argument("--file-prefix", help=_level_help("file_prefix"))


def _add_probe_arguments(parser):
    group = parser.add_argument_group("linear probe")
    group.add_argument("--probe-epochs", type=int,
                       help=_level_help("probe_epochs"))


def _resolve_config(args):
    """Preset -> CLI flags, then validate."""
    try:
        config = preset_config(args.preset) if args.preset else TrainConfig()
        overrides = {field.name: getattr(args, field.name)
                     for field in dataclasses.fields(TrainConfig)
                     if getattr(args, field.name) is not None}
        return dataclasses.replace(config, **overrides).validate()
    except ValueError as exc:
        raise CliError(f"invalid configuration: {exc}") from exc


def _build_from_config(config, feature_dim):
    return build_model(config.level, config.encoder, feature_dim,
                       config.hidden_dim, config.encoder_layers,
                       config.decoder_layers,
                       rng=np.random.default_rng(config.seed),
                       dtype=config.dtype)


def _extract(level, data, encoder, source, concat_raw=True):
    """The frozen encoder's representations of `data`. Finite weights can
    still overflow; non-finite representations are refused, naming
    `source`, since no probe can score them."""
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        if level == "graph":
            reprs = extract_graph_repr(data, encoder)
        else:
            reprs = extract_node_repr(data, encoder, concat_raw=concat_raw)
    if not np.isfinite(reprs).all():
        raise CliError(f"{source} gives representations that are not "
                       f"finite: its weights overflow {reprs.dtype}")
    return reprs


def _prober(args, data, split):
    """The linear probe of the data's level, as `probe(reprs, seed)`: k-fold
    SVM on graph labels, or logistic regression on the node split."""
    if split is None:
        labels = data.labels()
        return lambda reprs, seed: linsvm_kfold(reprs, labels,
                                                folds=args.folds, seed=seed)
    return lambda reprs, seed: evaluate_node_split(
        reprs, data.node_labels, split, epochs=args.probe_epochs, seed=seed)


# ---------------------------------------------------------------------------
# train


def cmd_train(args, argv):
    config = _resolve_config(args)
    _settle_level_flags(args, config.level)
    data, _, dataset_name = _load_data(args, config.level)
    _check_subgraph_nodes(config, data)
    _check_ce_features(config, data)

    # The run writes into a staging directory inside --out and moves its
    # files over the final names only once all of them are written, so a
    # failed run leaves an earlier run's outputs in --out untouched.
    os.makedirs(args.out, exist_ok=True)
    staging = tempfile.mkdtemp(prefix=".train-", dir=args.out)
    written = {"checkpoint": "checkpoint.json", "loss_log": "loss_log.jsonl"}
    started = _clock()
    try:
        model = _build_from_config(config, data.feature_dim)
        with open(os.path.join(staging, written["loss_log"]), "w",
                  encoding="utf-8") as fh:
            history = train(model, data, config, log_fh=fh,
                            checkpoint_path=os.path.join(
                                staging, written["checkpoint"]))
        _write_outputs(args, argv, started, {}, dataclasses.asdict(config),
                       config.seed, dataset_name, written, directory=staging)
        # the manifest goes last: its presence marks a complete run
        for name in (*written.values(), "manifest.json"):
            os.replace(os.path.join(staging, name),
                       os.path.join(args.out, name))
    finally:
        shutil.rmtree(staging, ignore_errors=True)

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
    _require_at_least(args, reps=1, seed=0)
    # the level is known before loading when --level names it
    if args.level is not None:
        _settle_level_flags(args, args.level)
    try:
        model, _meta = load_checkpoint(args.checkpoint,
                                       expect_level=args.level)
    except (OSError, CheckpointError) as exc:
        raise CliError(f"cannot load checkpoint: {exc}") from exc
    if args.level is None:
        _settle_level_flags(args, model.level)

    started = _clock()
    data, split, dataset_name = _load_data(args, model.level,
                                           f"{model.level}-level evaluation")
    if data.feature_dim != model.build_spec["feature_dim"]:
        raise CliError(
            f"dataset feature dim {data.feature_dim} does not match "
            f"checkpoint feature dim {model.build_spec['feature_dim']}")
    reprs = _extract(model.level, data, model.encoder,
                     f"checkpoint {args.checkpoint!r}",
                     concat_raw=not args.no_concat)
    probe = _prober(args, data, split)
    reports = [probe(reprs, args.seed + rep) for rep in range(args.reps)]

    means = [report.mean for report in reports]
    doc = {
        "level": model.level,
        "folds": args.folds if model.level == "graph" else 1,
        "reps": args.reps,
        "reports": [report.as_dict() for report in reports],
        "summary": {
            "mean_accuracy": float(np.mean(means)),
            "std_across_reps": float(np.std(means)),
            "mean_within_run_std": float(np.mean([r.std for r in reports])),
        },
    }
    applied = ({"folds": args.folds} if model.level == "graph" else
               {"concat_raw": not args.no_concat,
                "probe_epochs": args.probe_epochs})
    _write_outputs(
        args, argv, started, {"eval_report": doc},
        {"checkpoint": os.path.abspath(args.checkpoint), "reps": args.reps,
         "level": model.level, **applied},
        args.seed, dataset_name)

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


def _describe(record):
    """A record's trial, check and predictor, and its estimate."""
    detail = record.get("predictor", record["kind"])
    return (f"trial {record['trial']} {record['which']} ({detail}): "
            f"{json.dumps(record['estimate'], sort_keys=True)}")


class _RecordSpool:
    """A verify run's records, encoded as they are made.

    Each record's JSON text goes to `fh`, an unlinked file, as _write_json
    would lay it out two levels deep, in the document's "records" list. Only
    the count of passed records and the failed records stay in memory, so a
    run's peak does not grow with its trials.
    """

    # line breaks indented as the document's keys are, and as its records are
    KEY_BREAK = "\n" + " " * _JSON_FORMAT["indent"]
    RECORD_BREAK = KEY_BREAK + " " * _JSON_FORMAT["indent"]

    def __init__(self, fh):
        self.fh = fh
        self.passed = 0
        self.failed = []

    def add(self, record):
        """Spool `record`; one holding a NaN or infinity is a CliError."""
        try:
            text = json.dumps(record, **_JSON_FORMAT)
        except ValueError as exc:
            raise CliError(f"a value is not finite, and JSON cannot encode "
                           f"it, in {_describe(record)}") from exc
        # JSON escapes a newline inside a string, so each one here starts a
        # line that the nesting indents by two levels
        self.fh.write(("," if self.passed or self.failed else "")
                      + self.RECORD_BREAK
                      + text.replace("\n", self.RECORD_BREAK))
        if record["passed"]:
            self.passed += 1
        else:
            self.failed.append(record)

    def write(self, path, doc):
        """Write `doc` plus these records as its "records" list to `path`,
        atomically and byte for byte as _write_json would write the whole."""
        # JSON escapes a quote inside a string, so this marker can only be
        # the key itself
        head, tail = json.dumps({**doc, "records": []},
                                **_JSON_FORMAT).split('"records": []')

        def dump(fh):
            fh.write(head + '"records": [')
            self.fh.seek(0)
            shutil.copyfileobj(self.fh, fh)
            fh.write(self.KEY_BREAK + "]" + tail)
        write_atomic(path, dump)


def cmd_verify(args, argv):
    _require_at_least(args, trials=1, samples=2, mask_draws=1, seed=0)
    scale = args.corrupt_multiplier
    if not 0.0 <= scale < float("inf"):
        raise CliError(f"corrupt-multiplier must be finite and at least 0, "
                       f"got {scale}")
    run_dae = args.suite in ("dae", "all")
    if run_dae and args.samples // args.mask_draws < 2:
        raise CliError(
            f"suite {args.suite!r} needs at least 2 samples per mask draw, "
            f"got {args.samples} samples for {args.mask_draws} mask draws")

    started = _clock()
    os.makedirs(args.out, exist_ok=True)
    # in --out, not in a temporary directory that may be held in memory
    with tempfile.TemporaryFile("w+", encoding="utf-8", dir=args.out) as fh:
        records = _RecordSpool(fh)
        for trial in range(args.trials):
            rng = np.random.default_rng(
                np.random.SeedSequence([args.seed, trial]))
            setup = _trial_setup(rng)
            kind = "gin" if trial % 2 else "gcn"
            predictor = make_random_predictor(setup.feature_dim, 8, 2, 2,
                                              kind, rng)
            mc = dict(n_mc=args.samples, mask_draws=args.mask_draws, rng=rng)
            if args.suite in ("theorem1", "all"):
                # three regimes: a random network, the identity map (where
                # the penalty term is what keeps the bound true), and a
                # constant (where the bound collapses to an equality)
                target = np.zeros((setup.num_nodes, setup.feature_dim))
                for name, predict, criterion in (
                        ("random-gnn", predictor.predict, "lower"),
                        ("identity", identity_predictor(), "lower"),
                        ("constant", constant_predictor(target), "equality")):
                    est = estimate_theorem1(predict, setup,
                                            penalty_scale=scale, **mc)
                    records.add(_bound_record(trial, est, name, criterion))
            if args.suite in ("corollaries", "all"):
                # relu passthrough on an edgeless graph correlates
                # predictions with the observation noise, so these records
                # genuinely need the penalty term
                eye = np.eye(setup.feature_dim)
                stress_setup = dataclasses.replace(
                    setup, adjacency=np.zeros((setup.num_nodes, setup.num_nodes)))
                for name, network, network_setup in (
                        ("random-gnn", predictor, setup),
                        ("relu-passthrough",
                         StackPredictor("gin", [eye], [eye]), stress_setup)):
                    for level in ("node", "graph"):
                        est = estimate_corollary(level, network,
                                                 network_setup,
                                                 penalty_scale=scale, **mc)
                        records.add(_bound_record(trial, est, name, "lower"))
            if run_dae:
                blind_setup = dataclasses.replace(setup, mask_mode="zeros")
                for which, predict, leaky, expected in (
                        ("dae_blind", predictor.predict, False, 0.0),
                        ("dae_identity_control", identity_predictor(), True,
                         dae_identity_expectation(blind_setup))):
                    est = check_dae_inner_product(predict, blind_setup,
                                                  pass_full_input=leaky, **mc)
                    records.add(_inner_product_record(trial, which, est,
                                                      expected))

        failed = len(records.failed)
        records.write(os.path.join(args.out, "verification.json"), {
            "suite": args.suite,
            "trials": args.trials,
            "seed": args.seed,
            "samples": args.samples,
            "mask_draws": args.mask_draws,
            "passed": records.passed,
            "failed": failed,
            "ok": failed == 0,
        })
    _write_outputs(
        args, argv, started, {},
        {"suite": args.suite, "trials": args.trials, "samples": args.samples,
         "mask_draws": args.mask_draws, "penalty_scale": scale},
        args.seed, written={"verification": "verification.json"})

    for record in records.failed:
        print(f"FAIL {_describe(record)}")
    print(f"verify suite {args.suite}: {records.passed}/"
          f"{records.passed + failed} checks passed")
    return 0 if failed == 0 else 1


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
    config = _resolve_config(args)
    level, factor, grid = STUDIES[args.study]
    if getattr(args, factor, None) is not None:
        raise CliError(f"study {args.study!r} sweeps "
                       f"--{factor.replace('_', '-')}; it cannot also be set")
    if config.level != level:
        raise CliError(f"study {args.study!r} needs a {level}-level "
                       f"configuration, got level {config.level!r}")
    _settle_level_flags(args, level)
    started = _clock()
    data, split, dataset_name = _load_data(args, level,
                                           f"study {args.study!r}")
    if factor != "subgraph_nodes":
        _check_subgraph_nodes(config, data)
    _check_ce_features(config, data)
    probe = _prober(args, data, split)

    cells_out = []
    for index, value in enumerate(grid(data)):
        cell = {factor: value}
        seed = _derive_seed(config.seed, index)
        overrides = {} if factor == "concat" else cell
        # a cell that changes only the probe reuses the first cell's model
        if index == 0 or overrides:
            cell_config = dataclasses.replace(config, seed=seed, **overrides)
            model = _build_from_config(cell_config, data.feature_dim)
            final_loss = float(train(model, data, cell_config)[-1].loss)
        reprs = _extract(level, data, model.encoder,
                         f"the model of cell {_cell_label(cell)}",
                         cell.get("concat", True))
        cells_out.append({
            "cell": cell,
            "seed": seed,
            "final_loss": final_loss,
            "report": probe(reprs, seed).as_dict(),
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
    applied = {"folds": args.folds} if level == "graph" else {}
    _write_outputs(
        args, argv, started, {"ablation": doc},
        {"study": args.study, "config": dataclasses.asdict(config), **applied},
        config.seed, dataset_name)

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
    p_eval.add_argument("--level", choices=CHOICES["level"],
                        help="expected checkpoint level (checked)")
    p_eval.add_argument("--folds", type=int, help=_level_help("folds"))
    p_eval.add_argument("--reps", type=int, default=5,
                        help="number of re-evaluations with shifted seeds")
    p_eval.add_argument("--seed", type=int, default=0)
    p_eval.add_argument("--no-concat", action="store_true", default=None,
                        help=_level_help("no_concat"))
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
    p_ablate.add_argument("--folds", type=int, help=_level_help("folds"))
    _add_config_arguments(p_ablate)
    _add_probe_arguments(p_ablate)
    p_ablate.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None):
    """Run one `lagraph` command; returns its exit code.

    An in-process caller inherits the OpenSSL guard below: once `main` has
    run, `hashlib` and `hmac` use CPython's built-in digests in that
    process, unless it had already loaded `_hashlib`.
    """
    # numpy.random imports secrets -> hmac -> _hashlib, which maps OpenSSL's
    # libcrypto (3.3 MiB resident) into a process that computes no digest.
    # A None entry makes hashlib and hmac fall back to the built-in digests;
    # every rng here is seeded explicitly, so no output changes.
    sys.modules.setdefault("_hashlib", None)
    argv = list(sys.argv[1:]) if argv is None else [str(a) for a in argv]
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _check_out(args.out)
        return args.func(args, argv)
    except (CliError, NonFiniteLossError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
