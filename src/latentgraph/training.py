"""Optimization loop, run configuration, and checkpoint serialization.

Everything here is deterministic given a seed: the seed fans out through
`numpy.random.SeedSequence` into independent streams for masking, shuffling,
and subgraph sampling, so a rerun with the same config reproduces the same
losses (bit for bit under strict determinism).

Checkpoints are single JSON documents; array payloads are base64-encoded
little-endian float64 bytes, which round-trip exactly, also for a float32
model: float32 -> float64 is exact, and the build recipe records the dtype
the arrays are cast back to.
"""

import base64
import contextlib
import json
import os
from dataclasses import dataclass

import numpy as np

from .engine import backward
from .graphs import Graph, batch_graphs, sample_node_subset
from .models import DTYPES, ENCODER_KINDS, LEVELS, build_model
from .objectives import MaskSpec, VARIANTS, objective

CHECKPOINT_FORMAT = "latentgraph-checkpoint"
CHECKPOINT_VERSION = 1

# The allowed values of each string-valued TrainConfig field: `validate`
# checks them and the CLI offers them as its flags' choices.
CHOICES = {
    "level": LEVELS,
    "encoder": ENCODER_KINDS,
    "variant": VARIANTS,
    "dtype": DTYPES,
}


class CheckpointError(Exception):
    """Raised when a checkpoint file is malformed or does not fit the model."""


class NonFiniteLossError(ArithmeticError):
    """Raised when a training step's loss or one of its terms is NaN or inf."""


class NonFiniteParameterError(NonFiniteLossError):
    """Raised when an optimizer step meets a NaN or inf: `param` is the first
    parameter affected, and no parameter has been changed."""

    def __init__(self, param, where="a parameter"):
        super().__init__(f"non-finite {self.quantity} of {where}")
        self.param = param


class NonFiniteGradientError(NonFiniteParameterError):
    """Raised when a training step's gradient of a parameter holds NaN or inf."""
    quantity = "gradient"


class NonFiniteUpdateError(NonFiniteParameterError):
    """Raised when an optimizer step would leave a parameter NaN or inf."""
    quantity = "update"


@dataclass
class TrainConfig:
    """Everything a training run needs besides the data.

    `subgraph_nodes` only applies to node-level runs: when positive, each
    step trains on a freshly sampled induced subgraph of that many nodes
    instead of the full graph; the graph's own node count trains on the full
    graph, and `train` refuses a larger one. It is 0 or at least 2, since
    batch norm over one row zeroes every activation and the encoder would
    learn nothing. `dtype` is the model's compute dtype for training and
    extraction.
    """

    level: str = "graph"
    encoder: str = "gin"
    hidden_dim: int = 32
    encoder_layers: int = 3
    decoder_layers: int = 2
    variant: str = "mse-embed"
    alpha: float = 1.0
    mask_ratio: float = 0.1
    noise_sd: float = 0.5
    lr: float = 1e-3
    batch_size: int = 32
    epochs: int = 20
    seed: int = 0
    subgraph_nodes: int = 0
    dtype: str = "float64"

    def validate(self):
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
        for name, low in (("hidden_dim", 1), ("encoder_layers", 1), ("decoder_layers", 1),
                          ("batch_size", 1), ("epochs", 1), ("seed", 0)):
            if getattr(self, name) < low:
                raise ValueError(f"{name} must be at least {low}, got {getattr(self, name)}")
        if not 0 < self.lr < np.inf:
            raise ValueError(f"lr must be positive and finite, got {self.lr}")
        if not 0 <= self.alpha < np.inf:
            raise ValueError(f"alpha must be nonnegative and finite, got {self.alpha}")
        if self.subgraph_nodes < 0 or (self.subgraph_nodes and self.level == "graph"):
            raise ValueError("subgraph_nodes must be nonnegative, and 0 on graph-level "
                             f"runs, got {self.subgraph_nodes}")
        if self.subgraph_nodes == 1:
            raise ValueError("subgraph_nodes must be 0 (whole graph) or at least 2, "
                             "since batch norm over one node zeroes every activation")
        self.mask_spec()
        return self

    def mask_spec(self):
        return MaskSpec(self.mask_ratio, self.noise_sd)


# Frozen hyperparameter bundles. Names describe the corpus shape they were
# tuned for, not any particular dataset. Every preset trains in float32: the
# node preset's large activations take half the memory, and the graph-level
# step, whose batch norm is bound by its passes over the array, runs faster.
PRESETS = {
    # small molecule-like graphs: light masking, strong consistency weight
    "molecule": dict(level="graph", encoder="gin", hidden_dim=32,
                     encoder_layers=3, decoder_layers=2, mask_ratio=0.05,
                     noise_sd=0.5, alpha=10.0, lr=1e-5, batch_size=32,
                     dtype="float32"),
    # larger protein-like graphs: aggressive masking, unit consistency weight
    "protein": dict(level="graph", encoder="gin", hidden_dim=32,
                    encoder_layers=3, decoder_layers=2, mask_ratio=0.3,
                    noise_sd=2.0, alpha=1.0, lr=1e-5, batch_size=32,
                    dtype="float32"),
    # single large graph with node labels
    "node": dict(level="node", encoder="gcn", hidden_dim=512,
                 encoder_layers=2, decoder_layers=1, mask_ratio=0.05,
                 noise_sd=0.5, alpha=2.0, lr=1e-3, dtype="float32"),
}


def preset_config(name, **overrides):
    """Build a TrainConfig from a named preset, with keyword overrides."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    kwargs = dict(PRESETS[name])
    kwargs.update(overrides)
    return TrainConfig(**kwargs).validate()


# Adam's moment decay rates and the floor added to its denominator.
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class Adam:
    """The Adam optimizer, without weight decay, over parameters of one dtype.

    A step takes a gradient for every parameter and updates them all in one
    pass over their concatenated values, with the same float ops per element
    as a loop over the parameters. If the gradient or a new value holds a
    NaN or inf it raises `NonFiniteGradientError` or `NonFiniteUpdateError`
    and leaves the parameters and the optimizer's state as they were.
    """

    def __init__(self, params, lr=1e-3):
        if lr < 0:
            raise ValueError(f"Adam: lr must be nonnegative, got {lr}")
        self.params = list(params)
        dtypes = {p.data.dtype for p in self.params}
        if len(dtypes) != 1:
            raise ValueError(f"Adam: parameters must share one dtype, got {dtypes}")
        self.lr = float(lr)
        self.t = 0
        # parameter k holds [_ends[k] - its size, _ends[k]) of each flat array
        self._ends = np.cumsum([p.data.size for p in self.params])
        self._m = np.zeros(self._ends[-1], dtype=dtypes.pop())
        self._v = np.zeros_like(self._m)

    def _raise_if_non_finite(self, flat, error):
        finite = np.isfinite(flat)
        if not finite.all():
            raise error(self.params[np.searchsorted(self._ends, finite.argmin(), "right")])

    def step(self, grads):
        g = np.concatenate([grads[p].ravel() for p in self.params])
        self._raise_if_non_finite(g, NonFiniteGradientError)
        t = self.t + 1
        bc1 = 1.0 - ADAM_BETA1 ** t
        bc2 = 1.0 - ADAM_BETA2 ** t
        data = np.concatenate([p.data.ravel() for p in self.params])
        with np.errstate(over="ignore", invalid="ignore"):
            m = ADAM_BETA1 * self._m + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * self._v + (1.0 - ADAM_BETA2) * (g * g)
            new = data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
        self._raise_if_non_finite(new, NonFiniteUpdateError)
        self.t, self._m, self._v = t, m, v
        for p, end in zip(self.params, self._ends):
            p.data = new[end - p.data.size:end].reshape(p.data.shape)


@dataclass
class EpochStats:
    epoch: int
    loss: float
    reconstruction: float
    invariance: float
    steps: int


def _log_step(log_fh, record):
    if log_fh is not None:
        log_fh.write(json.dumps(record, sort_keys=True) + "\n")


def _check_finite(epoch, step, out):
    terms = (("reconstruction", out.reconstruction),
             ("invariance", out.invariance), ("total", out.total.item()))
    for name, value in terms:
        if not np.isfinite(value):
            raise NonFiniteLossError(
                f"non-finite {name} loss ({value}) at epoch {epoch}, step {step}")


def train(model, data, config, log_fh=None, checkpoint_path=None):
    """Run the masked-prediction training loop.

    `data` is a GraphDataset (graph level) or a single Graph (node level).
    Returns per-epoch mean loss statistics. When `log_fh` is given, one JSON
    line per optimization step is written to it. When `checkpoint_path` is
    given, the final weights are saved there. A step whose reconstruction,
    invariance or total loss is not finite raises `NonFiniteLossError`, one
    whose gradient of a parameter is not finite raises
    `NonFiniteGradientError`, and one whose update would leave a parameter
    not finite raises `NonFiniteUpdateError`, all before the step is logged
    or applied.
    """
    config.validate()
    if config.level != model.level:
        raise ValueError(
            f"config level {config.level!r} does not match model level {model.level!r}")
    if model.encoder.dtype != config.dtype:
        raise ValueError(f"config dtype {config.dtype!r} does not match model "
                         f"dtype {model.encoder.dtype.name!r}")
    streams = np.random.SeedSequence(config.seed).spawn(3)
    mask_rng = np.random.default_rng(streams[0])
    shuffle_rng = np.random.default_rng(streams[1])
    subgraph_rng = np.random.default_rng(streams[2])

    optimizer = Adam(model.parameters(), lr=config.lr)
    spec = config.mask_spec()

    if config.level == "node":
        if not isinstance(data, Graph):
            raise TypeError("node-level training expects a single Graph")
        if config.subgraph_nodes > data.num_nodes:
            raise ValueError(f"subgraph_nodes {config.subgraph_nodes} exceeds the "
                             f"graph's {data.num_nodes} nodes")
        step_batches = None
        sample_subgraphs = 0 < config.subgraph_nodes < data.num_nodes
        # the full graph never changes: batch and normalise it once
        full_batch = None if sample_subgraphs else batch_graphs([data])
    else:
        if isinstance(data, Graph):
            raise TypeError("graph-level training expects a GraphDataset")
        step_batches = len(data)
        if not step_batches:
            raise ValueError("graph-level training needs at least one graph")

    history = []
    for epoch in range(config.epochs):
        losses, recons, invs = [], [], []
        if config.level == "node":
            if sample_subgraphs:
                batches = [batch_graphs([sample_node_subset(
                    data, config.subgraph_nodes, subgraph_rng)])]
            else:
                batches = [full_batch]
        else:
            # the order is drawn up front; each batch is built when its
            # step runs, not all of the epoch's before its first step
            order = shuffle_rng.permutation(step_batches)
            batches = (
                batch_graphs([data[i] for i in order[s:s + config.batch_size]])
                for s in range(0, step_batches, config.batch_size)
            )
        for step, batch in enumerate(batches):
            # an overflow is not warned about: the finite checks stop the
            # run with one error that names the step and the term
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                out = objective(model, batch, spec, mask_rng, config.alpha,
                                config.variant, training=True)
                _check_finite(epoch, step, out)
                grads = backward(out.total)
            try:
                optimizer.step(grads)
            except NonFiniteParameterError as exc:
                name = next(n for n, p in model.named_parameters() if p is exc.param)
                raise type(exc)(exc.param, f"{name} at epoch {epoch}, step {step}") from None
            losses.append(out.total.item())
            recons.append(out.reconstruction)
            invs.append(out.invariance)
            _log_step(log_fh, {
                "epoch": epoch,
                "step": step,
                "loss": losses[-1],
                "reconstruction": recons[-1],
                "invariance": invs[-1],
                "mask_count": out.mask_count,
            })
        history.append(EpochStats(
            epoch=epoch,
            loss=float(np.mean(losses)),
            reconstruction=float(np.mean(recons)),
            invariance=float(np.mean(invs)),
            steps=len(losses),
        ))
    if checkpoint_path is not None:
        save_checkpoint(model, checkpoint_path, meta={"epochs": config.epochs,
                                                      "seed": config.seed})
    return history


def _encode_array(arr):
    data = np.ascontiguousarray(arr, dtype="<f8")
    return {
        "shape": list(data.shape),
        "data": base64.b64encode(data.tobytes()).decode("ascii"),
    }


def _decode_array(name, entry):
    try:
        shape = tuple(int(s) for s in entry["shape"])
        raw = base64.b64decode(entry["data"], validate=True)
        flat = np.frombuffer(raw, dtype="<f8")
        return flat.reshape(shape).astype(np.float64, copy=True)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"corrupt array entry for {name!r}: {exc}") from exc


def save_checkpoint(model, path, meta=None):
    """Write the model's build recipe and all arrays to a JSON file."""
    if getattr(model, "build_spec", None) is None:
        raise CheckpointError(
            "model has no build_spec; construct it with build_model to checkpoint")
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "build": dict(model.build_spec),
        "meta": dict(meta or {}),
        "arrays": {name: _encode_array(arr)
                   for name, arr in model.state_arrays().items()},
    }
    write_atomic(path, lambda fh: json.dump(doc, fh, sort_keys=True))


def write_atomic(path, write):
    """Replace `path` with what `write(fh)` writes, plus a final newline.

    The text goes to a temporary file next to `path`, is synced to disk, and
    then replaces `path` in one step. A failed write leaves any earlier file
    intact and no temporary file behind, and a power loss after the replace
    cannot leave `path` empty.
    """
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            write(fh)
            fh.write("\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def load_checkpoint(path, expect_level=None):
    """Rebuild a model from a checkpoint file, bit-exactly.

    `expect_level` optionally asserts the checkpoint holds a model of the
    given level ("node" or "graph").
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not UTF-8, not JSON, or too deep
        raise CheckpointError(f"not a valid checkpoint file: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise CheckpointError("not a valid checkpoint file: missing format marker")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint version {doc.get('version')!r}")
    build = doc.get("build")
    if not isinstance(build, dict):
        raise CheckpointError("checkpoint is missing its build recipe")
    if expect_level is not None and build.get("level") != expect_level:
        raise CheckpointError(
            f"checkpoint holds a {build.get('level')!r}-level model, "
            f"expected {expect_level!r}")
    try:
        model = build_model(rng=np.random.default_rng(0), **build)
    except (TypeError, ValueError, OverflowError) as exc:
        raise CheckpointError(f"checkpoint build recipe is invalid: {exc}") from exc

    stored = doc.get("arrays")
    if not isinstance(stored, dict):
        raise CheckpointError("checkpoint is missing its arrays")
    arrays = {name: _decode_array(name, entry) for name, entry in stored.items()}

    expected = model.state_arrays()
    missing = sorted(set(expected) - set(arrays))
    extra = sorted(set(arrays) - set(expected))
    if missing or extra:
        raise CheckpointError(
            f"checkpoint arrays do not match the model: missing {missing}, "
            f"unexpected {extra}")
    for name, arr in expected.items():
        loaded = arrays[name]
        if loaded.shape != arr.shape:
            raise CheckpointError(
                f"array {name!r} has shape {loaded.shape}, expected {arr.shape}")
        with np.errstate(over="ignore"):
            loaded = arrays[name] = loaded.astype(arr.dtype, copy=False)
        if not np.isfinite(loaded).all():
            raise CheckpointError(f"array {name!r} holds NaN or inf values")

    for name, param in model.named_parameters():
        param.data = arrays[name]
    for name, buf in model.named_buffers():
        buf[:] = arrays[name]
    return model, doc.get("meta", {})
