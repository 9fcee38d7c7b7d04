"""Monte-Carlo verification of the masked-prediction error bounds.

This module builds the one setting where the latent features behind a graph
are known exactly, because we generate them: a latent matrix F is drawn from
a standard normal prior, the observed features are X = F + noise with
element-wise noise standard deviation sigma, and the topology A is fixed or
Erdos-Renyi. With F in hand, the package's documented bounds become
measurable statements. The three bounds, stated over a predictor f that maps
(A, X) to a matrix shaped like X, with J a random node subset and X~ the
copy of X whose rows J were corrupted:

  theorem1 (output-level):
      E||f(A,X) - F||^2 + E||X - F||^2
        <= E||f(A,X) - X||^2
           + 2 sigma |V| E_J[ sqrt(E||f(A,X)_J - f(A,X~)_J||^2 / |J|) ]

  corollary1 (embedding-level): for f = decode . embed with a decoder that
      is ell-Lipschitz row-wise, the invariance gap above may be measured on
      embeddings instead of outputs, with multiplier 2 sigma |V| ell.

  corollary2 (readout-level): with a pooled readout z = sum of embedding
      rows (treated as k-Lipschitz with k = sqrt(|V|)), the gap may be
      measured on readouts, with multiplier 2 sigma |V| k ell.

The left side minus the observable reconstruction term collapses, draw by
draw, to -2 <f(A,X) - F, X - F>; for a constant predictor that inner product
has mean zero, which turns the bound into an equality up to Monte-Carlo
noise. A related check: a blind predictor (one that only sees the corrupted
copy) has E< f(A,X~)_J - F_J, X_J - F_J > = 0, while feeding the identity the
full input makes that inner product equal the summed noise variance over the
masked entries. Estimates carry delta-method standard errors; the slack of
each bound is required to clear -2 combined SE, and equalities to sit within
3 SE.

theorem1 as stated fails outside the scenarios `lagraph verify` draws
(d sigma^2 < 1 + sigma^2, mask noise sd s > sigma sqrt(d)). For the identity
at |V| = 16, mask ratio 0.25 and 2048 x 8 draws (seed 0), `estimate_theorem1`
reads slack -13.6 +- 0.18 with rows replaced ("zeros"), d = 8, sigma = 0.5,
and -1.66 +- 0.007 with additive masks at d = 8, sigma = 0.1, s = 0.1.

An estimate draws its adjacency from the rng it is given, then spawns
independent child Generators from it (`Generator.spawn`), one per stream:
the latent features, their observation noise, and each mask draw (its
indices, then its noise) in the bound estimates; the latent features, the
observation noise and the masks in the dae check. It then walks the draws in
chunks of 64 (`_CHUNK_SAMPLES`): each chunk draws its rows from every
stream, encodes its clean draws once and each corrupted copy once, and
reduces to per-draw scalars before the next chunk starts. Every stream is
read front to back and every per-draw statistic reads only its own draw, so
the estimates do not depend on the chunk size, bit for bit, and peak memory
holds one chunk's work plus the per-draw scalars, whatever the number of
draws or the predictor's depth. Spawning advances the parent's spawn counter, so
successive estimates on one rng draw fresh data.
"""

import dataclasses
from dataclasses import dataclass

import numpy as np

from .engine import SparseMatrix
from .graphs import normalize_adjacency
from .models import ENCODER_KINDS, LEVELS, xavier_init
from .objectives import (
    MaskSpec,
    apply_mask,
    mask_size,
    sample_mask_indices,
    sample_mask_noise,
)


@dataclass(frozen=True)
class SyntheticSetup:
    """Generator configuration for one verification scenario.

    A given `adjacency` is the fixed graph of every draw; None draws an
    Erdos-Renyi graph with edge probability `edge_prob`. The latent features
    are standard normal. noise_sd is also the sigma in the bounds'
    multipliers: the generator's own noise sd is the tightest bound on it.
    """

    num_nodes: int = 16
    feature_dim: int = 4
    edge_prob: float = 0.3
    adjacency: object = None
    noise_sd: float = 0.1
    mask_ratio: float = 0.25
    mask_noise_sd: float = 0.5
    mask_mode: str = "gaussian"

    def __post_init__(self):
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be at least 1")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be at least 1")
        if self.adjacency is None and not 0.0 <= self.edge_prob <= 1.0:
            raise ValueError("edge_prob must be in [0, 1]")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be nonnegative")
        # MaskSpec rejects a bad mask_ratio, mask_noise_sd or mask_mode
        self.mask_spec

    @property
    def mask_spec(self):
        """The pretext corruption, as the trainer's MaskSpec."""
        return MaskSpec(self.mask_ratio, self.mask_noise_sd, self.mask_mode)

    @property
    def mask_count(self):
        return mask_size(self.num_nodes, self.mask_ratio)


def gen_adjacency(setup, rng):
    """Dense symmetric 0/1 adjacency with an empty diagonal."""
    n = setup.num_nodes
    if setup.adjacency is not None:
        adj = np.asarray(setup.adjacency, dtype=float)
        if adj.shape != (n, n):
            raise ValueError(f"fixed adjacency shape {adj.shape} != ({n}, {n})")
        return adj
    upper = np.triu(rng.uniform(size=(n, n)) < setup.edge_prob, 1).astype(float)
    return upper + upper.T


def gen_latent_stack(setup, rng, count):
    """Stack of standard normal latent feature matrices, shape
    (count, n, d)."""
    return rng.normal(0.0, 1.0,
                      size=(count, setup.num_nodes, setup.feature_dim))


def gen_observation_stack(latent, setup, rng):
    """X = F + zero-mean noise, element-wise sd = noise_sd."""
    if setup.noise_sd == 0.0:
        return latent.copy()
    observed = rng.normal(0.0, setup.noise_sd, size=latent.shape)
    observed += latent  # noise + F == F + noise bit for bit, in one stack
    return observed


# ---------------------------------------------------------------------------
# predictors over stacks


class StackPredictor:
    """Norm-free message-passing encoder plus MLP head, vectorized over a
    stack of feature matrices.

    Layers: h <- relu(M h W) with M the symmetric-normalized adjacency
    ("gcn") or A + I ("gin"-style sum aggregation). The head applies dense
    layers row-wise with relu between and none after the last, so its
    Lipschitz constant is bounded by the product of weight spectral norms.
    """

    def __init__(self, kind, encoder_weights, decoder_weights):
        if kind not in ENCODER_KINDS:
            raise ValueError(f"kind must be one of {ENCODER_KINDS}")
        if not encoder_weights or not decoder_weights:
            raise ValueError("need at least one encoder and one decoder weight")
        self.kind = kind
        self.encoder_weights = [np.asarray(w, dtype=float) for w in encoder_weights]
        self.decoder_weights = [np.asarray(w, dtype=float) for w in decoder_weights]
        self._mixed = None  # (adjacency, mixing matrix) of the last embed

    def _mixing_matrix(self, adj):
        # an estimate embeds one adjacency ten times or more: build its
        # mixing matrix once
        if self._mixed is None or not np.array_equal(self._mixed[0], adj):
            if self.kind == "gcn":
                mix = normalize_adjacency(SparseMatrix.from_dense(adj)).to_dense()
            else:
                mix = adj + np.eye(adj.shape[0])
            self._mixed = (np.array(adj, dtype=float), mix)
        return self._mixed[1]

    def embed(self, adj, x_stack):
        mix = self._mixing_matrix(adj)
        h = x_stack
        for w in self.encoder_weights:
            h = np.maximum(mix @ h @ w, 0.0)
        return h

    def decode(self, h_stack):
        out = h_stack
        for w in self.decoder_weights[:-1]:
            out = np.maximum(out @ w, 0.0)
        return out @ self.decoder_weights[-1]

    def predict(self, adj, x_stack):
        return self.decode(self.embed(adj, x_stack))

    def readout(self, h_stack):
        return h_stack.sum(axis=-2)


def make_random_predictor(feature_dim, hidden_dim, encoder_layers,
                          decoder_layers, kind, rng):
    """Xavier-initialized StackPredictor mapping d -> d features."""
    enc_dims = [feature_dim] + [hidden_dim] * encoder_layers
    dec_dims = [hidden_dim] * decoder_layers + [feature_dim]
    return StackPredictor(
        kind,
        [xavier_init(a, b, rng) for a, b in zip(enc_dims[:-1], enc_dims[1:])],
        [xavier_init(a, b, rng) for a, b in zip(dec_dims[:-1], dec_dims[1:])],
    )


def constant_predictor(value):
    """Predictor that ignores its input and returns a fixed matrix."""
    value = np.asarray(value, dtype=float)

    def f(adj, x_stack):
        return np.broadcast_to(value, x_stack.shape).copy()

    return f


def identity_predictor():
    def f(adj, x_stack):
        return x_stack.copy()

    return f


# ---------------------------------------------------------------------------
# Lipschitz machinery


def spectral_norm(matrix):
    """Largest singular value, from an SVD: a power iteration approaches it
    from below and would understate the Lipschitz bound."""
    w = np.asarray(matrix, dtype=float)
    if w.ndim != 2:
        raise ValueError("spectral_norm expects a 2-D matrix")
    return float(np.linalg.norm(w, 2))


def lipschitz_upper(weights):
    """Upper bound on the Lipschitz constant of a dense relu network: the
    product of its weight matrices' spectral norms."""
    if not weights:
        raise ValueError("no weight matrices given")
    bound = 1.0
    for w in weights:
        bound *= spectral_norm(w)
    return float(bound)


# ---------------------------------------------------------------------------
# bound estimation


@dataclass
class BoundEstimate:
    """One Monte-Carlo evaluation of a bound.

    slack = rhs_mean - lhs_mean; the bound holds when slack is nonnegative
    up to estimator noise (slack >= -2 slack_se). Standard errors come from
    the delta method on the correlated per-draw statistics.
    """

    which: str
    lhs_mean: float
    lhs_se: float
    rhs_mean: float
    rhs_se: float
    slack: float
    slack_se: float
    penalty: float
    n_samples: int
    mask_draws: int

    def as_dict(self):
        return dataclasses.asdict(self)


def _delta_se(columns, grad):
    """SE of grad . column_means via the sample covariance of the columns."""
    columns = np.asarray(columns, dtype=float)
    n = columns.shape[0]
    cov = np.atleast_2d(np.cov(columns, rowvar=False, ddof=1))
    grad = np.asarray(grad, dtype=float)
    return float(np.sqrt(max(grad @ cov @ grad, 0.0) / n))


def _gap(clean, noisy, indices):
    """Per-draw summed squared disagreement, an (S,) vector: on the rows
    `indices` of a stack that keeps the node axis, (S, n, q), and on the
    whole of a pooled one, (S, q)."""
    if clean.ndim == 3:
        clean, noisy = clean[:, indices, :], noisy[:, indices, :]
    return np.sum((clean - noisy) ** 2, axis=tuple(range(1, clean.ndim)))


# Samples per chunk: the estimators draw, predict and reduce at most this
# many draws at a time, so their arrays span one chunk whatever n_mc is.
# Every stream is read front to back and every per-draw statistic reads only
# its own draw, so no estimate depends on it.
_CHUNK_SAMPLES = 64


def _chunks(count):
    """Consecutive slices of at most `_CHUNK_SAMPLES` covering range(count)."""
    return [slice(start, min(start + _CHUNK_SAMPLES, count))
            for start in range(0, count, _CHUNK_SAMPLES)]


def _unchanged(stack):
    return stack


def _estimate_bound(which, multiplier, setup, n_mc, mask_draws, rng, *,
                    encode, decode=_unchanged, view=_unchanged):
    """Shared Monte-Carlo core, over a network given as its stages.

    encode: (adj, x_stack) -> the stack whose clean-vs-corrupted
        disagreement forms the invariance gap: the whole predictor, or an
        embedding.
    decode: clean encoding -> the prediction f whose reconstruction errors
        form both sides of the bound.
    view: encoding -> what the gap (see `_gap`) is taken on, such as a
        pooled readout.
    multiplier: the constant in front of E_J[sqrt(gap / |J|)].
    """
    if n_mc < 2:
        raise ValueError("need at least 2 Monte-Carlo draws")
    if mask_draws < 1:
        raise ValueError("need at least 1 mask draw")
    adj = gen_adjacency(setup, rng)
    latent_rng, noise_rng, *mask_rngs = rng.spawn(2 + mask_draws)
    spec = setup.mask_spec
    k_mask = setup.mask_count
    masks = [sample_mask_indices(setup.num_nodes, spec, mask_rng)
             for mask_rng in mask_rngs]

    axes = (1, 2)
    recon = np.empty(n_mc)
    to_latent = np.empty(n_mc)
    noise_energy = np.empty(n_mc)
    gap_columns = np.empty((n_mc, mask_draws))
    for c in _chunks(n_mc):
        latent = gen_latent_stack(setup, latent_rng, c.stop - c.start)
        x = gen_observation_stack(latent, setup, noise_rng)
        encoded = encode(adj, x)
        predicted = decode(encoded)
        if predicted.shape != x.shape:
            raise ValueError(f"predictor output shape {predicted.shape} "
                             f"!= {x.shape}")
        recon[c] = np.sum((predicted - x) ** 2, axis=axes)
        to_latent[c] = np.sum((predicted - latent) ** 2, axis=axes)
        noise_energy[c] = np.sum((x - latent) ** 2, axis=axes)
        clean = view(encoded)
        for m, (indices, mask_rng) in enumerate(zip(masks, mask_rngs)):
            noise = sample_mask_noise((len(x), k_mask, setup.feature_dim),
                                      spec, mask_rng)
            corrupted = apply_mask(x, indices, noise, spec.mode)
            gap_columns[c, m] = _gap(clean, view(encode(adj, corrupted)),
                                     indices) / k_mask
    lhs_draws = to_latent + noise_energy
    cross = recon - lhs_draws  # equals -2 <f - F, X - F> draw by draw

    u = gap_columns.mean(axis=0)
    roots = np.sqrt(u)
    penalty = multiplier * roots.mean()

    # gradient of the penalty with respect to each column mean
    with np.errstate(divide="ignore", invalid="ignore"):
        penalty_grad = np.where(roots > 0.0,
                                multiplier / (2.0 * mask_draws * roots), 0.0)

    lhs_mean = float(lhs_draws.mean())
    lhs_se = _delta_se(lhs_draws[:, None], [1.0])
    rhs_mean = float(recon.mean() + penalty)
    rhs_se = _delta_se(np.column_stack([recon, gap_columns]),
                       np.concatenate([[1.0], penalty_grad]))
    slack_se = _delta_se(np.column_stack([cross, gap_columns]),
                         np.concatenate([[1.0], penalty_grad]))
    return BoundEstimate(
        which=which,
        lhs_mean=lhs_mean,
        lhs_se=lhs_se,
        rhs_mean=rhs_mean,
        rhs_se=rhs_se,
        slack=rhs_mean - lhs_mean,
        slack_se=slack_se,
        penalty=float(penalty),
        n_samples=n_mc,
        mask_draws=mask_draws,
    )


def estimate_theorem1(predict, setup, n_mc=512, mask_draws=8, *, rng,
                      penalty_scale=1.0):
    """Estimate both sides of the output-level bound for a predictor.

    `predict` maps (dense adjacency, stack of feature matrices) to a stack
    of predictions. `penalty_scale` is a fault-injection hook for the
    verification harness's negative control; leave it at 1.0.
    """
    multiplier = (2.0 * setup.noise_sd * setup.num_nodes) * penalty_scale
    return _estimate_bound("theorem1", multiplier, setup, n_mc, mask_draws,
                           rng, encode=predict)


def estimate_corollary(level, predictor, setup, n_mc=512, mask_draws=8, *,
                       rng, penalty_scale=1.0):
    """Estimate the embedding-level ("node") or readout-level ("graph")
    bound for a StackPredictor.

    ell is `lipschitz_upper` of the predictor's head, and the readout's k
    is sqrt(num_nodes).
    """
    if level not in LEVELS:
        raise ValueError(f"level must be one of {LEVELS}, got {level!r}")
    ell = lipschitz_upper(predictor.decoder_weights)

    if level == "node":
        which, view = "corollary1", _unchanged
        multiplier = 2.0 * setup.noise_sd * setup.num_nodes * ell
    else:
        which, view = "corollary2", predictor.readout
        k = float(np.sqrt(setup.num_nodes))
        multiplier = 2.0 * setup.noise_sd * setup.num_nodes * k * ell

    return _estimate_bound(which, multiplier * penalty_scale, setup, n_mc,
                           mask_draws, rng, encode=predictor.embed,
                           decode=predictor.decode, view=view)


# ---------------------------------------------------------------------------
# blind-prediction inner product


@dataclass
class InnerProductEstimate:
    """Monte-Carlo mean and SE of <prediction_J - F_J, X_J - F_J>."""

    mean: float
    se: float
    n_samples: int

    def as_dict(self):
        return dataclasses.asdict(self)


def check_dae_inner_product(predict, setup, n_mc=512, mask_draws=8, *, rng,
                            pass_full_input=False):
    """Estimate the correlation between prediction error and observation
    noise on masked rows.

    By default the predictor only receives the corrupted copy, modeling a
    denoising predictor that cannot see the masked rows; the inner product
    then has expectation zero. With `pass_full_input` the predictor sees the
    clean X instead, which is the deliberately leaky control: for the
    identity map the expectation becomes the summed noise variance,
    `dae_identity_expectation(setup)`.
    """
    if mask_draws < 1:
        raise ValueError("need at least 1 mask draw")
    if n_mc // mask_draws < 2:
        raise ValueError("n_mc too small for the requested mask draws")
    spec = setup.mask_spec
    k_mask = setup.mask_count
    adj = gen_adjacency(setup, rng)
    latent_rng, noise_rng, mask_rng = rng.spawn(3)
    values = np.empty(n_mc)
    # each mask draw scores n_mc // mask_draws draws or one more: all n_mc
    edges = [m * n_mc // mask_draws for m in range(mask_draws + 1)]
    for start, stop in zip(edges[:-1], edges[1:]):
        indices = sample_mask_indices(setup.num_nodes, spec, mask_rng)
        for c in _chunks(stop - start):
            count = c.stop - c.start
            latent = gen_latent_stack(setup, latent_rng, count)
            observed = gen_observation_stack(latent, setup, noise_rng)
            if pass_full_input:
                inputs = observed
            else:
                noise = sample_mask_noise((count, k_mask, setup.feature_dim),
                                          spec, mask_rng)
                inputs = apply_mask(observed, indices, noise, spec.mode)
            err = predict(adj, inputs)[:, indices, :] - latent[:, indices, :]
            residual = observed[:, indices, :] - latent[:, indices, :]
            values[start + c.start:start + c.stop] = np.sum(err * residual,
                                                            axis=(1, 2))
    se = float(values.std(ddof=1) / np.sqrt(len(values)))
    return InnerProductEstimate(mean=float(values.mean()), se=se,
                                n_samples=len(values))


def dae_identity_expectation(setup):
    """Analytic value of the leaky-control inner product for the identity
    predictor: masked rows times feature dim times the noise variance."""
    return setup.mask_count * setup.feature_dim * setup.noise_sd ** 2
