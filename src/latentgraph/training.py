"""Optimization loop, run configuration, and checkpoint serialization.

Everything here is deterministic given a seed: the seed fans out through
`numpy.random.SeedSequence` into independent streams for masking, shuffling,
and subgraph sampling, so a rerun with the same config reproduces the same
losses (bit for bit under strict determinism).

Checkpoints are single JSON documents; array payloads are base64-encoded
little-endian float64 bytes, which round-trip exactly.
"""

import base64
import contextlib
import dataclasses
import json
import os
from dataclasses import dataclass

import numpy as np

from .engine import backward
from .graphs import sample_node_subset
from .models import DECODER_KINDS, ENCODER_KINDS, LEVELS, build_model
from .objectives import MASK_MODES, MaskSpec, VARIANTS, objective

CHECKPOINT_FORMAT = "latentgraph-checkpoint"
CHECKPOINT_VERSION = 1

# The allowed values of each string-valued TrainConfig field: `validate`
# checks them and the CLI offers them as its flags' choices.
CHOICES = {
    "level": LEVELS,
    "encoder": ENCODER_KINDS,
    "decoder_kind": DECODER_KINDS,
    "variant": VARIANTS,
    "mask_mode": MASK_MODES,
}


class CheckpointError(Exception):
    """Raised when a checkpoint file is malformed or does not fit the model."""


class NonFiniteLossError(ArithmeticError):
    """Raised when a training step's loss or one of its terms is NaN or inf."""


class NonFiniteGradientError(NonFiniteLossError):
    """Raised when a training step's gradient of a parameter holds NaN or inf."""


class NonFiniteUpdateError(NonFiniteLossError):
    """Raised when an optimizer step would leave a parameter NaN or inf.

    `param` is that parameter's Value; no parameter has been changed.
    """

    def __init__(self, message, param):
        super().__init__(message)
        self.param = param


@dataclass
class TrainConfig:
    """Everything a training run needs besides the data.

    `subgraph_nodes` only applies to node-level runs: when positive, each
    step trains on a freshly sampled induced subgraph of that many nodes
    instead of the full graph.
    """

    level: str = "graph"
    encoder: str = "gin"
    hidden_dim: int = 32
    encoder_layers: int = 3
    decoder_layers: int = 2
    decoder_kind: str = "mlp"
    use_bn: bool = True
    variant: str = "mse-embed"
    alpha: float = 1.0
    mask_ratio: float = 0.1
    noise_sd: float = 0.5
    mask_mode: str = "gaussian"
    lr: float = 1e-3
    weight_decay: float = 0.0
    batch_size: int = 32
    epochs: int = 20
    seed: int = 0
    subgraph_nodes: int = 0

    def validate(self):
        for name, allowed in CHOICES.items():
            value = getattr(self, name)
            if value not in allowed:
                raise ValueError(f"{name} must be one of {allowed}, got {value!r}")
        for name in ("hidden_dim", "encoder_layers", "decoder_layers",
                     "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.lr <= 0:
            raise ValueError(f"lr must be positive, got {self.lr}")
        if self.weight_decay < 0:
            raise ValueError(f"weight_decay must be nonnegative, got {self.weight_decay}")
        if self.alpha < 0:
            raise ValueError(f"alpha must be nonnegative, got {self.alpha}")
        if self.subgraph_nodes < 0:
            raise ValueError(f"subgraph_nodes must be nonnegative, got {self.subgraph_nodes}")
        MaskSpec(self.mask_ratio, self.noise_sd, self.mask_mode)
        return self

    def mask_spec(self):
        return MaskSpec(self.mask_ratio, self.noise_sd, self.mask_mode)


# Frozen hyperparameter bundles. Names describe the corpus shape they were
# tuned for, not any particular dataset.
PRESETS = {
    # small molecule-like graphs: light masking, strong consistency weight
    "molecule": dict(level="graph", encoder="gin", hidden_dim=32,
                     encoder_layers=3, decoder_layers=2, mask_ratio=0.05,
                     noise_sd=0.5, alpha=10.0, lr=1e-5, batch_size=32),
    # larger protein-like graphs: aggressive masking, unit consistency weight
    "protein": dict(level="graph", encoder="gin", hidden_dim=32,
                    encoder_layers=3, decoder_layers=2, mask_ratio=0.3,
                    noise_sd=2.0, alpha=1.0, lr=1e-5, batch_size=32),
    # single large graph with node labels
    "node": dict(level="node", encoder="gcn", hidden_dim=512,
                 encoder_layers=2, decoder_layers=1, mask_ratio=0.05,
                 noise_sd=0.5, alpha=2.0, lr=1e-3),
}


def preset_config(name, **overrides):
    """Build a TrainConfig from a named preset, with keyword overrides."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; available: {sorted(PRESETS)}")
    kwargs = dict(PRESETS[name])
    kwargs.update(overrides)
    return TrainConfig(**kwargs).validate()


_CONFIG_FIELDS = {f.name: f.type for f in dataclasses.fields(TrainConfig)}


def _coerce(name, text):
    kind = _CONFIG_FIELDS[name]
    text = text.strip()
    if kind is bool:
        low = text.lower()
        if low in ("true", "1", "yes"):
            return True
        if low in ("false", "0", "no"):
            return False
        raise ValueError(f"config key {name!r}: expected a boolean, got {text!r}")
    if kind is int:
        return int(text)
    if kind is float:
        return float(text)
    return text


def parse_config(text, base=None):
    """Parse `key = value` lines into a TrainConfig.

    Blank lines and `#` comments are ignored. Unknown keys are an error, as
    are values that do not parse as the field's type.
    """
    config = dataclasses.replace(base) if base is not None else TrainConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_FIELDS:
            raise ValueError(f"config line {lineno}: unknown key {key!r}")
        try:
            coerced = _coerce(key, value)
        except ValueError as exc:
            raise ValueError(f"config line {lineno}: {exc}") from exc
        setattr(config, key, coerced)
    return config.validate()


def load_config(path, base=None):
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config(fh.read(), base=base)


class Adam:
    """Adam with decoupled weight decay.

    Decay multiplies each parameter by (1 - lr * weight_decay) using its
    pre-update value, independent of the adaptive step. Parameters that do
    not appear in the gradient map are skipped entirely. A step computes
    every new moment and parameter value before it assigns any; if one of
    those values is NaN or inf it raises `NonFiniteUpdateError` and leaves
    the parameters and the optimizer's state as they were.
    """

    def __init__(self, params, lr=1e-3, beta1=0.9, beta2=0.999, eps=1e-8,
                 weight_decay=0.0):
        if lr < 0 or not 0 <= beta1 < 1 or not 0 <= beta2 < 1 or eps <= 0:
            raise ValueError("invalid Adam hyperparameters")
        self.params = list(params)
        self.lr = float(lr)
        self.beta1 = float(beta1)
        self.beta2 = float(beta2)
        self.eps = float(eps)
        self.weight_decay = float(weight_decay)
        self.t = 0
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]

    def step(self, grads):
        t = self.t + 1
        bc1 = 1.0 - self.beta1 ** t
        bc2 = 1.0 - self.beta2 ** t
        updates = []
        with np.errstate(over="ignore", invalid="ignore"):
            for i, p in enumerate(self.params):
                g = grads.get(p)
                if g is None:
                    continue
                data = p.data
                if self.weight_decay:
                    data = data * (1.0 - self.lr * self.weight_decay)
                m = self.beta1 * self._m[i] + (1.0 - self.beta1) * g
                v = self.beta2 * self._v[i] + (1.0 - self.beta2) * (g * g)
                new = data - self.lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)
                if not np.isfinite(new).all():
                    raise NonFiniteUpdateError("non-finite update of a parameter", p)
                updates.append((i, p, new, m, v))
        self.t = t
        for i, p, new, m, v in updates:
            p.data, self._m[i], self._v[i] = new, m, v


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


def _check_finite_grads(epoch, step, named_params, grads):
    for name, param in named_params:
        grad = grads.get(param)
        if grad is not None and not np.isfinite(grad).all():
            raise NonFiniteGradientError(
                f"non-finite gradient of {name} at epoch {epoch}, step {step}")


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
    from .graphs import Graph, batch_graphs

    config.validate()
    if config.level != model.level:
        raise ValueError(
            f"config level {config.level!r} does not match model level {model.level!r}")
    streams = np.random.SeedSequence(config.seed).spawn(3)
    mask_rng = np.random.default_rng(streams[0])
    shuffle_rng = np.random.default_rng(streams[1])
    subgraph_rng = np.random.default_rng(streams[2])

    optimizer = Adam(model.parameters(), lr=config.lr,
                     weight_decay=config.weight_decay)
    named_params = model.named_parameters()
    spec = config.mask_spec()

    if config.level == "node":
        if not isinstance(data, Graph):
            raise TypeError("node-level training expects a single Graph")
        step_batches = None
        sample_subgraphs = 0 < config.subgraph_nodes < data.num_nodes
        # the full graph never changes: batch and normalise it once
        full_batch = None if sample_subgraphs else batch_graphs([data])
    else:
        if isinstance(data, Graph):
            raise TypeError("graph-level training expects a GraphDataset")
        step_batches = len(data)

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
            order = shuffle_rng.permutation(step_batches)
            batches = [
                batch_graphs([data[i] for i in order[s:s + config.batch_size]])
                for s in range(0, step_batches, config.batch_size)
            ]
        for step, batch in enumerate(batches):
            out = objective(model, batch, spec, mask_rng, config.alpha,
                            config.variant, training=True)
            _check_finite(epoch, step, out)
            grads = backward(out.total)
            _check_finite_grads(epoch, step, named_params, grads)
            try:
                optimizer.step(grads)
            except NonFiniteUpdateError as exc:
                name = next(n for n, p in named_params if p is exc.param)
                raise NonFiniteUpdateError(
                    f"non-finite update of {name} at epoch {epoch}, step {step}",
                    exc.param) from None
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
    except (KeyError, TypeError, ValueError) as exc:
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
    except json.JSONDecodeError as exc:
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
    except (TypeError, ValueError) as exc:
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

    params = dict(model.named_parameters())
    buffers = dict(model.named_buffers())
    for name, loaded in arrays.items():
        if name in params:
            params[name].data = loaded
        else:
            buffers[name][:] = loaded
    return model, doc.get("meta", {})
