"""Encoders, decoder heads, batch normalization, readout, initialization.

Layers are small parameter containers whose ``__call__`` composes public
engine ops, the fused batch norm and relu (:func:`engine.batch_norm`) among
them, so gradients flow through the same DAG as every other operation. A
layer releases (:func:`engine.release`) each intermediate that never leaves
its ``__call__`` as soon as the next op has consumed it, and an encoder layer
releases its input once it has read it, so only the arrays that backward
closures captured stay alive until backward.

A GCN layer whose input is a constant, the encoder's features, and narrower
than its output aggregates first: ``A(XW + 1b) = (A[X 1])[W; b]``, so its
sparse product is as narrow as the features and needs no gradient. The
product with ``[W; b]`` is one GEMM away from arrays its backward holds
anyway, so that layer's batch norm keeps not even its normalized
activations: it rebuilds them from that GEMM.

A model computes in one dtype, float64 or float32, chosen by
:func:`build_model`: its parameters and running statistics are created in
it, and the encoder casts its input features and adjacency to it.
"""

from __future__ import annotations

import functools

import numpy as np

from .engine import (BN_EPS, Value, add, add_row, batch_norm, constant, matmul, release,
                     spmm, stack_rows)

__all__ = [
    "xavier_init",
    "Layer",
    "BatchNorm",
    "Linear",
    "GCNLayer",
    "GINLayer",
    "Encoder",
    "Decoder",
    "Model",
    "readout_sum",
    "build_model",
]

# The representation levels and the encoder kinds `build_model` accepts;
# `training.CHOICES` offers the same tuples as configuration values.
LEVELS = ("graph", "node")
ENCODER_KINDS = ("gin", "gcn")
DTYPES = ("float64", "float32")


def xavier_init(rows, cols, rng):
    """Uniform(-a, a) with a = sqrt(6 / (rows + cols))."""
    if rows < 1 or cols < 1:
        raise ValueError("xavier_init needs positive dimensions")
    a = np.sqrt(6.0 / (rows + cols))
    return rng.uniform(-a, a, size=(rows, cols))


def _chain(x, *stages, x_readers=None):
    """Apply the ``stages`` to ``x`` in order; return the last result.

    Every Value made in between is private to the chain, so it is released
    as soon as the next stage has consumed it, and a stage may overwrite it.
    ``x`` itself is never overwritten. With ``x_readers=k`` the first k
    stages are the only readers of ``x``, which is released once they have
    run (a no-op for a leaf); by default the caller keeps it.
    """
    out = x
    for i, stage in enumerate(stages, start=1):
        y = stage(out)
        if out is not x:
            release(out)
        if i == x_readers:
            release(x)
        out = y
    return out


def _activation(bn, training):
    """The normalise-and-rectify stage of a layer's chain: the fused batch
    norm and relu.

    It never comes first in a chain, so its input is always a private
    intermediate, which the batch norm centres in place."""
    return functools.partial(bn, training=training, overwrite_x=True)


class Layer:
    """Names its parameters and buffers by walking its attributes in the
    order they were set: a :class:`Value` is a parameter, an ``np.ndarray``
    a buffer (a running statistic), a layer is walked under ``prefix.attr``
    and a list of layers under ``prefix.i``; any other attribute is a
    setting. So names read ``encoder.0.lin1.W``, ``decoder.0.bn.beta``."""

    def named_parameters(self):
        return [(name, v) for name, v in self._walk("") if isinstance(v, Value)]

    def named_buffers(self):
        return [(name, a) for name, a in self._walk("") if isinstance(a, np.ndarray)]

    def _walk(self, prefix):
        for attr, value in vars(self).items():
            items = enumerate(value) if isinstance(value, list) else [(attr, value)]
            for key, item in items:
                name = f"{prefix}.{key}" if prefix else str(key)
                if isinstance(item, Layer):
                    yield from item._walk(name)
                elif isinstance(item, (Value, np.ndarray)):
                    yield name, item


class BatchNorm(Layer):
    def __init__(self, dim, dtype=np.float64):
        self.gamma = Value(np.ones((1, dim), dtype=dtype))
        self.beta = Value(np.zeros((1, dim), dtype=dtype))
        self.running_mean = np.zeros((1, dim), dtype=dtype)
        self.running_var = np.ones((1, dim), dtype=dtype)

    def __call__(self, x, training, overwrite_x=False):
        """relu(batch norm of ``x``): see :func:`engine.batch_norm`."""
        return batch_norm(x, self.gamma, self.beta, self.running_mean,
                          self.running_var, training, overwrite_x=overwrite_x)

    def set_identity_stats(self):
        """Make eval mode an exact no-op given unit gamma and zero beta."""
        self.running_mean[:] = 0.0
        self.running_var[:] = 1.0 - BN_EPS


class Linear(Layer):
    """Affine map x @ W + b; ``add_row`` broadcasts the 1 x q bias over rows,
    adding it into the product's fresh output, so the map holds one n x q
    array."""

    def __init__(self, in_dim, out_dim, rng, dtype=np.float64):
        self.W = Value(xavier_init(in_dim, out_dim, rng).astype(dtype, copy=False))
        self.b = Value(np.zeros((1, out_dim), dtype=dtype))

    def __call__(self, x):
        xw = matmul(x, self.W)
        out = add_row(xw, self.b, overwrite_a=True)
        release(xw)
        return out


class GCNLayer(Layer):
    """relu(batchnorm(A_norm @ (x @ W + b))) on a normalized adjacency, with
    the batch norm and relu as one fused op.

    The input is released once the linear map has read it. An input that
    needs no gradient, a :func:`engine.constant` such as the encoder's
    features, and is narrower than the output (``in_dim + 1 <= out_dim``)
    is aggregated first instead, as in SGC (Wu et al. 2019):
    ``A_norm @ (x @ W + 1 b) = (A_norm @ [x 1]) @ [W; b]``. The sparse
    product is then ``in_dim + 1`` wide, needs no gradient and is not an
    autodiff op, and the dense product of a constant left operand can be
    recomputed, so the batch norm keeps no normalized activation for it.
    A wider constant input keeps ``A_norm @ (x @ W + 1 b)``: ``[x 1]`` and
    its aggregate would be wider than the one activation they save, and
    each rebuild would rerun the ``in_dim``-deep GEMM.
    """

    def __init__(self, in_dim, out_dim, rng, dtype=np.float64):
        self.lin = Linear(in_dim, out_dim, rng, dtype)
        self.bn = BatchNorm(out_dim, dtype=dtype)
        self.out_dim = out_dim

    def __call__(self, adjacency, h, training):
        if h.op != "const" or h.data.shape[1] + 1 > self.out_dim:
            return _chain(h, self.lin, functools.partial(spmm, adjacency),
                          _activation(self.bn, training), x_readers=1)
        x1 = np.hstack((h.data, np.ones((h.data.shape[0], 1), h.data.dtype)))
        aggregated = constant(adjacency.matmat(x1))
        del x1  # not held through the batch norm
        weights = stack_rows(self.lin.W, self.lin.b)
        return _chain(aggregated, lambda a: matmul(a, weights),
                      _activation(self.bn, training))


class GINLayer(Layer):
    """Two-layer MLP on (1 + 0) h + A h, sum aggregation over raw adjacency.

    Each linear map is followed by the fused batch normalization and relu.
    The input is released once the aggregation and the sum have read it.
    """

    def __init__(self, in_dim, out_dim, rng, dtype=np.float64):
        self.lin1 = Linear(in_dim, out_dim, rng, dtype)
        self.lin2 = Linear(out_dim, out_dim, rng, dtype)
        self.bn1 = BatchNorm(out_dim, dtype=dtype)
        self.bn2 = BatchNorm(out_dim, dtype=dtype)

    def __call__(self, adjacency, h, training):
        return _chain(h, functools.partial(spmm, adjacency),
                      functools.partial(add, h),
                      self.lin1, _activation(self.bn1, training),
                      self.lin2, _activation(self.bn2, training), x_readers=2)


class _HiddenLinear(Linear):
    """A decoder's hidden layer: the affine map, followed in the decoder by
    the fused batch norm and relu it holds as ``bn``."""

    def __init__(self, in_dim, out_dim, rng, dtype=np.float64):
        super().__init__(in_dim, out_dim, rng, dtype)
        self.bn = BatchNorm(out_dim, dtype=dtype)


class Encoder(Layer):
    """Stack of GCN or GIN layers; ``encode`` returns every layer's output
    Value, of which a recorded forward keeps the last one's data only.

    ``encode`` casts the input features and the adjacency to ``dtype``, the
    parameters' dtype, so every layer computes in it.
    """

    def __init__(self, kind, feature_dim, hidden_dim, num_layers, rng,
                 dtype=np.float64):
        if kind not in ENCODER_KINDS:
            raise ValueError(f"unknown encoder kind: {kind!r}")
        if num_layers < 1:
            raise ValueError("encoder needs at least one layer")
        self.kind = kind
        self.dtype = np.dtype(dtype)
        layer_cls = GCNLayer if kind == "gcn" else GINLayer
        dims = [feature_dim] + [hidden_dim] * num_layers
        self.layers = [
            layer_cls(dims[i], dims[i + 1], rng, dtype=self.dtype)
            for i in range(num_layers)
        ]

    def adjacency_for(self, batch):
        if self.kind == "gcn":
            return batch.normalized_adjacency(self.dtype)
        return batch.block_adjacency.astype(self.dtype)

    def encode(self, batch, training, features=None):
        """Run every layer and return the list of per-layer node embeddings.

        Each layer releases its input once it has read it, so in a recorded
        forward every layer but the last comes back released; under
        :func:`engine.no_grad` every layer keeps its data.

        `features` optionally replaces `batch.features` as the input matrix,
        which lets callers push corrupted copies of the node features through
        the same graph structure. The input, cast to the encoder's dtype, is a
        :func:`engine.constant` leaf, so backward computes no gradient for it
        and a first GCN layer aggregates it before its linear map when it is
        narrower than the layer's output.
        """
        adjacency = self.adjacency_for(batch)
        h = constant(np.asarray(batch.features if features is None else features,
                                dtype=self.dtype))
        outputs = []
        for layer in self.layers:
            h = layer(adjacency, h, training)
            outputs.append(h)
        return outputs


class Decoder(Layer):
    """Node-wise MLP head: output row v depends on input row v only.

    Hidden layers are linear + fused batch norm and relu; the final layer is
    linear.
    """

    def __init__(self, in_dim, out_dim, num_layers, rng, dtype=np.float64):
        if num_layers < 1:
            raise ValueError("decoder needs at least one layer")
        self.layers = [_HiddenLinear(in_dim, in_dim, rng, dtype)
                       for _ in range(num_layers - 1)]
        self.layers.append(Linear(in_dim, out_dim, rng, dtype))

    def __call__(self, h, training=False):
        stages = []
        for layer in self.layers[:-1]:
            stages += [layer, _activation(layer.bn, training)]
        return _chain(h, *stages, self.layers[-1])


def readout_sum(h, batch):
    """Per-graph column sums of node embeddings, in their dtype: one row per
    graph."""
    if h.data.shape[0] != batch.total_nodes:
        raise ValueError("embedding rows disagree with batch node count")
    return spmm(batch.pool_matrix().astype(h.data.dtype), h)


class Model(Layer):
    """Encoder + decoder pair with a declared representation level."""

    def __init__(self, encoder, decoder, level):
        if level not in LEVELS:
            raise ValueError(f"unknown level: {level!r}")
        self.encoder = encoder
        self.decoder = decoder
        self.level = level
        # populated by build_model; checkpointing requires it
        self.build_spec = None

    def parameters(self):
        return [v for _, v in self.named_parameters()]

    def state_arrays(self):
        """All learnable and running-stat arrays, keyed by stable names."""
        return {name: v.data for name, v in self.named_parameters()} | dict(
            self.named_buffers())


def build_model(level, encoder_kind, feature_dim, hidden_dim, encoder_layers,
                decoder_layers, rng, dtype="float64"):
    """An encoder/decoder pair whose parameters and running statistics are
    created in ``dtype``, one of ``DTYPES``; the initial values are the
    float64 draws of ``rng``, rounded."""
    if dtype not in DTYPES:
        raise ValueError(f"dtype must be one of {DTYPES}, got {dtype!r}")
    encoder = Encoder(encoder_kind, feature_dim, hidden_dim, encoder_layers,
                      rng, dtype=dtype)
    decoder = Decoder(hidden_dim, feature_dim, decoder_layers, rng, dtype=dtype)
    model = Model(encoder, decoder, level)
    model.build_spec = {
        "level": level,
        "encoder_kind": encoder_kind,
        "feature_dim": feature_dim,
        "hidden_dim": hidden_dim,
        "encoder_layers": encoder_layers,
        "decoder_layers": decoder_layers,
        "dtype": dtype,
    }
    return model
