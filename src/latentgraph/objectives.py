"""Self-supervised training objectives built on masked feature prediction.

The shared recipe: encode the clean features, decode them back, and score the
reconstruction; then corrupt the features on a random node subset, encode the
corrupted copy through the same weights, and penalize disagreement between the
two passes. The penalty is the square root of a mean squared difference so it
scales like a norm rather than an energy, and it enters the total weighted by
`alpha`.

Four variants differ in where the disagreement is measured and in how the
reconstruction is scored:

- "mse-embed": squared-error reconstruction; penalty on node embeddings
  (node-level models) or on pooled graph readouts (graph-level models),
  restricted to the corrupted nodes in the node case.
- "mse-output": squared-error reconstruction; penalty on decoder outputs at
  the corrupted rows for both model levels.
- "ce-embed": like "mse-embed" but reconstruction is row-wise softmax cross
  entropy, for corpora whose feature rows are one-hot or otherwise sum to 1.
- "ce-output": cross-entropy reconstruction, and the penalty is the KL
  divergence between softmaxed decoder outputs at the corrupted rows.
"""

from dataclasses import dataclass

import numpy as np

from . import engine
from .engine import Value, constant, kl_div, mse_per, row_select, scale, softmax_ce, sqrt_eps
from .models import readout_sum

VARIANTS = ("mse-embed", "mse-output", "ce-embed", "ce-output")

MASK_MODES = ("gaussian", "zeros")


@dataclass(frozen=True)
class MaskSpec:
    """How to pick and corrupt node features.

    ratio: fraction of each graph's nodes to corrupt; every graph contributes
        at least one node.
    noise_sd: standard deviation of the additive Gaussian corruption.
    mode: "gaussian" adds noise to the selected rows, "zeros" blanks them.
    """

    ratio: float = 0.1
    noise_sd: float = 0.5
    mode: str = "gaussian"

    def __post_init__(self):
        if not 0.0 < self.ratio <= 1.0:
            raise ValueError(f"mask ratio must be in (0, 1], got {self.ratio}")
        if not 0 <= self.noise_sd < np.inf:
            raise ValueError(f"noise_sd must be nonnegative and finite, got {self.noise_sd}")
        if self.mode not in MASK_MODES:
            raise ValueError(f"mask mode must be one of {MASK_MODES}, got {self.mode!r}")


def mask_size(num_nodes, ratio):
    """Number of corrupted nodes: ratio of the node count, round half up,
    never below one."""
    if num_nodes < 1:
        raise ValueError("graph must have at least one node")
    return max(1, int(np.floor(ratio * num_nodes + 0.5)))


def sample_mask_indices(num_nodes, spec, rng):
    """Draw the sorted indices of the nodes to corrupt, `mask_size` of
    `num_nodes`."""
    k = mask_size(num_nodes, spec.ratio)
    return np.sort(rng.choice(num_nodes, size=k, replace=False))


def sample_mask_noise(shape, spec, rng):
    """Draw the additive noise of shape (..., k, d) for the k rows that
    `sample_mask_indices` picked: all zeros in "zeros" mode, where apply_mask
    blanks the rows instead of adding. Noise drawn in consecutive pieces
    along the leading axis equals one whole draw, bit for bit."""
    if spec.mode == "gaussian":
        return rng.normal(0.0, spec.noise_sd, size=shape)
    return np.zeros(shape)


def sample_mask(shape, spec, rng):
    """Draw the corrupted-node index set and its noise for features of shape
    (..., n, d): one graph's matrix, or a stack of matrices over the same n
    nodes that all share the index set.

    Returns (indices, noise): sorted node indices, and additive noise of shape
    (..., k, d) aligned with them.
    """
    *lead, num_nodes, feature_dim = shape
    indices = sample_mask_indices(num_nodes, spec, rng)
    return indices, sample_mask_noise((*lead, len(indices), feature_dim),
                                      spec, rng)


def sample_batch_mask(batch, spec, rng):
    """Sample a mask graph by graph and splice the indices into batch-level
    row numbers."""
    all_indices = []
    all_noise = []
    d = batch.features.shape[1]
    for i in range(batch.num_graphs):
        start, end = batch.node_range(i)
        idx, noise = sample_mask((end - start, d), spec, rng)
        all_indices.append(idx + start)
        all_noise.append(noise)
    return np.concatenate(all_indices), np.vstack(all_noise)


def apply_mask(features, indices, noise, mode="gaussian", dtype=float):
    """Return a corrupted copy of `features`, shape (..., n, d), in `dtype`,
    with rows `indices` of the node axis noised or blanked; the original is
    untouched. Noised rows are summed in float64 and then cast, so the copy
    equals the float64 result cast to `dtype`, bit for bit."""
    features = np.asarray(features)
    out = features.astype(dtype, copy=True)
    if mode == "gaussian":
        out[..., indices, :] = np.add(features[..., indices, :], noise, dtype=float)
    elif mode == "zeros":
        out[..., indices, :] = 0.0
    else:
        raise ValueError(f"mask mode must be one of {MASK_MODES}, got {mode!r}")
    return out


@dataclass
class LossBreakdown:
    """One objective evaluation.

    total: differentiable scalar, equal to reconstruction + alpha * invariance.
    reconstruction: float value of the reconstruction term.
    invariance: float value of the root-mean-square disagreement term, before
        the alpha weighting.
    mask_count: total number of corrupted rows across the batch.
    """

    total: Value
    reconstruction: float
    invariance: float
    mask_count: int


def _reconstruction_term(outputs, batch, variant):
    """Per-graph reconstruction scores averaged over the batch.

    Squared-error variants divide each graph's summed squared error by its
    node count; cross-entropy variants average row-wise softmax cross entropy
    against the (distribution-valued) feature rows, taken in the outputs'
    dtype. A one-graph batch scores ``outputs`` itself, not a copy of all
    its rows.
    """
    use_ce = variant.startswith("ce-")
    features = batch.features.astype(outputs.data.dtype, copy=False)
    total = None
    for i in range(batch.num_graphs):
        start, end = batch.node_range(i)
        if batch.num_graphs == 1:
            predicted = outputs
        else:
            predicted = row_select(outputs, np.arange(start, end))
        target = features[start:end]
        if use_ce:
            term = softmax_ce(predicted, target)
        else:
            term = mse_per(predicted, constant(target), float(end - start))
        total = term if total is None else engine.add(total, term)
    return scale(total, 1.0 / batch.num_graphs)


def _view(variant, level, layers, out, batch, indices):
    """What one pass contributes to the invariance term.

    Output variants take the decoder outputs at the corrupted rows; embedding
    variants take the last-layer node embeddings at the corrupted rows (node
    level) or their pooled readouts (graph level).
    """
    if variant.endswith("-output"):
        return row_select(out, indices)
    if level == "node":
        return row_select(layers[-1], indices)
    return readout_sum(layers[-1], batch)


def objective(model, batch, spec, rng, alpha, variant="mse-embed",
              training=True):
    """Evaluate one masked-prediction objective on a batch.

    Draws a fresh mask from `rng`, runs the clean and corrupted passes, and
    returns a LossBreakdown whose `total` is ready for `engine.backward`.

    The passes run one after the other: the clean pass is scored and
    released before the corrupted pass starts, so the two never hold their
    layer outputs at the same time.
    """
    if variant not in VARIANTS:
        raise ValueError(f"variant must be one of {VARIANTS}, got {variant!r}")
    if alpha < 0:
        raise ValueError(f"alpha must be nonnegative, got {alpha}")

    indices, noise = sample_batch_mask(batch, spec, rng)
    # made before the clean pass, although only the corrupted pass reads it:
    # made just before that pass, it held fewer bytes, yet the node-level
    # train process peaked about 2 MiB higher, as the allocator then placed
    # the step's large arrays differently
    corrupted = apply_mask(batch.features, indices, noise, spec.mode,
                           model.encoder.dtype)

    # every array backward reads is captured by the time a pass's view is
    # taken, so its layer outputs and decoder output are released then
    layers = model.encoder.encode(batch, training)
    clean_out = model.decoder(layers[-1], training=training)
    recon = _reconstruction_term(clean_out, batch, variant)
    clean_view = _view(variant, model.level, layers, clean_out, batch, indices)
    engine.release(*layers, clean_out)

    layers = model.encoder.encode(batch, training, features=corrupted)
    corrupt_out = None
    if variant.endswith("-output"):
        corrupt_out = model.decoder(layers[-1], training=training)
    corrupt_view = _view(variant, model.level, layers, corrupt_out, batch, indices)
    engine.release(*layers)
    if corrupt_out is not None:
        engine.release(corrupt_out)

    # the invariance term: the root of the views' mean squared difference,
    # or for "ce-output" of the KL divergence between their softmaxed rows
    if variant == "ce-output":
        raw = kl_div(clean_view, corrupt_view)
    else:
        raw = mse_per(clean_view, corrupt_view, float(len(indices)))
    inv = sqrt_eps(raw)
    total = engine.add(recon, scale(inv, float(alpha)))
    return LossBreakdown(
        total=total,
        reconstruction=recon.data.item(),
        invariance=inv.data.item(),
        mask_count=int(len(indices)),
    )
