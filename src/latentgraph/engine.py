"""Dense-matrix reverse-mode autodiff engine.

Every value is a 2-D float64 or float32 matrix wrapped in a :class:`Value` node.
Operations build a provenance DAG; :func:`backward` walks it once in reverse
topological order and sums gradients within that walk, so shared subexpressions
receive the sum of all path contributions. The gradient a backward call
returns covers that call's loss only: every node it reaches starts the walk
with no gradient, so nothing carries over from an earlier call. The DAG is freed during backward (no
persistent tape), and only leaf gradients survive it.

An op's backward closure captures, when the forward runs, every array and
shape it will read (its inputs' data, masks, normalized activations); it never
reads a parent's ``.data`` during backward. The one exception is an operand
that can be recomputed: a Value whose ``_recompute`` closure returns its data
again, bit for bit, from arrays some closure keeps anyway. :func:`matmul`
captures that closure in place of such a left operand's data and calls it
during backward. So backward needs no node's data, and :func:`release` may
drop an interior Value's data once no later forward op reads it: the array
then stays alive only if some closure captured it. Releasing can never change
a gradient; a released Value is unusable as the input of a later op.

A graph is walked once: the walk runs each closure once and then drops it,
so a closure may write its input gradient over an array nothing else reads
(the fused batch norm writes it over its normalized activations). A later walk
that reaches a walked node raises; a second gradient needs a fresh forward.

Batch normalization is the one op that keeps state, fused with the relu after
it (:func:`batch_norm`): its forward uses batch statistics in training mode
and running statistics in eval mode and works in place, and its backward is
the closed-form expression obtained by differentiating through the relu, mean
and variance, written over the normalized activations it kept. Its output is
rebuilt from those when a later matmul needs it, so a layer holds no output
until backward.

Gradients are summed by one helper, :func:`_accumulate`. A closure that
hands it a fresh array, one that nothing else holds, says so; the node then
owns that array, and a later contribution is added into it in place. A
contribution that is not fresh, such as the gradient ``add`` passes on to
both its operands, is never written. Float addition of two operands
commutes, so the sums have the same bits either way.

Inside ``with no_grad():`` ops record nothing: each result is a parentless
Value, so an intermediate array is freed as soon as the next op has consumed
it. Inference (representation extraction) runs this way; training and anything
that calls :func:`backward` must not.

Every op keeps its operands' dtype, forward and backward; mixed float32 and
float64 operands give float64, as in numpy. A backward closure scales by
Python floats only, so no numpy float64 scalar upcasts a float32 gradient.

Scalars are 1x1 matrices. A :func:`constant` leaf never receives a gradient,
and no op computes one for it. Sparse matrices (:class:`SparseMatrix`) are
constants too: they only appear as the left operand of :func:`spmm`. They keep
their CSR arrays in numpy, and their products call scipy's compiled CSR
kernels on those arrays directly. The kernels' extension module is loaded at
the first sparse product without importing ``scipy`` or ``scipy.sparse``,
whose package imports load about 300 modules (``numpy.f2py``, ``numpy.ma``,
``unittest``, ...) that no product needs.

A strict deterministic mode runs a matrix product as one GEMV per row, through
one numpy matmul over the stack of rows, so row i's bits never depend on the
other rows or on BLAS threading, and repeated runs stay bit-identical. Enable it
with ``set_strict_determinism(True)`` or the ``LAGRAPH_STRICT_DETERMINISM=1``
environment variable (read once at import).
"""

from __future__ import annotations

import contextlib
import importlib.machinery
import importlib.util
import itertools
import os
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "Value",
    "SparseMatrix",
    "matmul",
    "spmm",
    "add",
    "add_row",
    "stack_rows",
    "sub",
    "hadamard",
    "scale",
    "relu",
    "batch_norm",
    "row_select",
    "sum_squares",
    "mse_per",
    "sqrt_eps",
    "softmax_ce",
    "first_non_stochastic_row",
    "kl_div",
    "backward",
    "release",
    "no_grad",
    "grad_check",
    "GradCheckReport",
    "constant",
    "set_strict_determinism",
    "strict_determinism_enabled",
    "scipy_version",
]

_STRICT = os.environ.get("LAGRAPH_STRICT_DETERMINISM", "") == "1"


def set_strict_determinism(flag):
    """Toggle the sequential-reduction matrix product at runtime."""
    global _STRICT
    _STRICT = bool(flag)


def strict_determinism_enabled():
    return _STRICT


_RECORDING = True
_SEQ = itertools.count()  # the creation number of the next Value


@contextlib.contextmanager
def no_grad():
    """Build no autodiff DAG while the block runs.

    Op results inside the block keep their data but record no parents and no
    backward closure. Recording resumes on exit, also when the block raises;
    nested blocks restore the state they found.
    """
    global _RECORDING
    previous, _RECORDING = _RECORDING, False
    try:
        yield
    finally:
        _RECORDING = previous


def _mm(a, b):
    # Strict mode: one GEMV per row, which numpy's matmul runs in C over the
    # stack of 1-row products. Row i's bits never depend on which other rows
    # are present, unlike the blocked GEMM kernels BLAS picks by shape.
    return np.matmul(a[:, None, :], b)[:, 0, :] if _STRICT else a @ b


def _as_matrix(data):
    a = np.asarray(data)
    if a.dtype != np.float32:
        a = a.astype(np.float64, copy=False)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim != 2:
        raise ValueError(f"expected a scalar, vector or matrix, got ndim={a.ndim}")
    return np.ascontiguousarray(a)


class Value:
    """A matrix node in the autodiff DAG.

    ``data`` is the 2-D float64 or float32 payload (anything else becomes
    float64), ``grad`` the gradient from the last
    backward that reached the node (``None`` before that), ``op`` a short tag
    naming the producing operation, ``_parents`` the input nodes and
    ``_backward`` a closure that routes this node's gradient to them. Under :func:`no_grad`
    the constructor drops ``parents`` and ``backward``.

    The closure holds the arrays it reads, captured at forward time, so an
    interior node's ``data`` is needed only by the forward ops that consume
    it. Once they have run, :func:`release` may set it to ``None``; the node
    then still takes part in backward, but must not be the input of any
    further op. Leaves keep their data.

    ``_recompute`` is ``None``, or, on a recorded node whose data can be
    rebuilt cheaply, a closure that returns that data again, bit for bit
    (:func:`batch_norm` sets it, and :func:`matmul` for a product of a
    constant left operand). :func:`matmul` captures it instead of the data,
    so the data need not live until backward.

    ``_owns_grad`` tells whether ``grad`` is an array that only this node
    holds, so :func:`_accumulate` may add into it in place; it is set
    whenever ``grad`` is.

    ``_seq`` numbers the nodes in creation order. A node is made after its
    parents, so :func:`backward` walks them by decreasing ``_seq``.
    """

    __slots__ = ("data", "grad", "op", "_parents", "_backward", "_recompute",
                 "_owns_grad", "_seq", "__weakref__")

    def __init__(self, data, parents=(), backward=None, op="leaf"):
        self._seq = next(_SEQ)
        self.data = _as_matrix(data)
        self.grad = None
        self._owns_grad = False
        self.op = op
        self._recompute = None
        if _RECORDING:
            self._parents = tuple(parents)
            self._backward = backward
        else:
            self._parents = ()
            self._backward = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        if self.data.shape != (1, 1):
            raise ValueError(f"item() needs a 1x1 value, got shape {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        shape = "released" if self.data is None else self.data.shape
        return f"Value(shape={shape}, op={self.op!r})"


def constant(data):
    """Leaf Value holding fixed data; it never receives a gradient."""
    return Value(data, op="const")


def _accumulate(node, g, fresh=False):
    """Add the contribution ``g`` to ``node.grad``, or make it the gradient.

    ``fresh`` says that nothing else holds ``g``, so the node may own it
    and write into it. A later contribution is added in place into an owned
    gradient, or else into a fresh incoming one, whenever that needs no type
    promotion; only when neither can be written is a third array made. An
    array that is not fresh is never written.
    """
    if node.op == "const":
        return
    grad = node.grad
    if grad is None:
        node.grad, node._owns_grad = g, fresh
        return
    dtype = np.result_type(grad, g)
    if node._owns_grad and grad.dtype == dtype:
        grad += g
    elif fresh and g.dtype == dtype:
        g += grad
        node.grad, node._owns_grad = g, True
    else:
        node.grad, node._owns_grad = grad + g, True


def _check_same_shape(a, b, opname):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{opname}: shape mismatch {a.data.shape} vs {b.data.shape}")


def matmul(a, b):
    """Matrix product a @ b with gradients g @ b.T and a.T @ g.

    The gradient of a :func:`constant` operand is never computed. A left
    operand with a ``_recompute`` closure is not held: the backward calls
    the closure for ``a.T @ g``. The product of a constant left operand is
    itself recomputable: its ``_recompute`` runs the same product again on
    the two arrays the backward holds anyway.
    """
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: inner dims disagree {a.data.shape} vs {b.data.shape}")

    b_data, recompute = b.data, a._recompute
    a_data = a.data if recompute is None else None

    def _back(g):
        # b's gradient first, so a recomputed left operand is dropped before
        # a's gradient, as large as it, is allocated
        if b.op != "const":
            left = a_data if recompute is None else recompute()
            _accumulate(b, _mm(left.T, g), fresh=True)
            del left
        if a.op != "const":
            _accumulate(a, _mm(g, b_data.T), fresh=True)

    y = Value(_mm(a.data, b_data), parents=(a, b), backward=_back, op="matmul")
    if a.op == "const" and _RECORDING:
        y._recompute = lambda: _mm(a_data, b_data)
    return y


def spmm(s, d):
    """Sparse-dense product s @ d. ``s`` is constant and gets no gradient.

    The gradient of a :func:`constant` ``d`` is never computed.
    """
    if not isinstance(s, SparseMatrix):
        raise TypeError("spmm expects a SparseMatrix left operand")
    if s.shape[1] != d.data.shape[0]:
        raise ValueError(f"spmm: inner dims disagree {s.shape} vs {d.data.shape}")

    def _back(g):
        if d.op != "const":
            _accumulate(d, s.rmatmat(g), fresh=True)

    return Value(s.matmat(d.data), parents=(d,), backward=_back, op="spmm")


def add(a, b):
    _check_same_shape(a, b, "add")

    def _back(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return Value(a.data + b.data, parents=(a, b), backward=_back, op="add")


def add_row(a, b, overwrite_a=False):
    """Add the 1 x q row ``b`` to every row of the n x q matrix ``a``.

    The gradient is ``g`` for ``a`` and the column sums of ``g`` for ``b``.
    With ``overwrite_a`` the sum is written into ``a.data`` itself, by the
    same float ops, when that needs no type promotion: only for an ``a``
    that nothing reads afterwards.
    """
    if b.data.shape[0] != 1 or b.data.shape[1] != a.data.shape[1]:
        raise ValueError(f"add_row: cannot add {b.data.shape} to rows of {a.data.shape}")

    def _back(g):
        _accumulate(a, g)
        _accumulate(b, g.sum(axis=0, keepdims=True), fresh=True)

    in_place = overwrite_a and np.result_type(a.data, b.data) == a.data.dtype
    out = np.add(a.data, b.data, out=a.data if in_place else None)
    return Value(out, parents=(a, b), backward=_back, op="add_row")


def stack_rows(a, b):
    """``a`` above ``b``: the rows of both, with as many columns. The
    gradient is split by rows, the first rows for ``a``, the rest for ``b``.
    """
    if a.data.shape[1] != b.data.shape[1]:
        raise ValueError(f"stack_rows: cannot stack {a.data.shape} on {b.data.shape}")
    split = a.data.shape[0]

    def _back(g):
        _accumulate(a, g[:split])
        _accumulate(b, g[split:])

    return Value(np.vstack((a.data, b.data)), parents=(a, b), backward=_back,
                 op="stack_rows")


def sub(a, b):
    _check_same_shape(a, b, "sub")

    def _back(g):
        _accumulate(a, g)
        _accumulate(b, -g, fresh=True)

    return Value(a.data - b.data, parents=(a, b), backward=_back, op="sub")


def hadamard(a, b):
    _check_same_shape(a, b, "hadamard")

    a_data, b_data = a.data, b.data

    def _back(g):
        _accumulate(a, g * b_data, fresh=True)
        _accumulate(b, g * a_data, fresh=True)

    return Value(a_data * b_data, parents=(a, b), backward=_back, op="hadamard")


def scale(a, c):
    c = float(c)

    def _back(g):
        _accumulate(a, g * c, fresh=True)

    return Value(a.data * c, parents=(a,), backward=_back, op="scale")


def _rectify(x, out=None):
    """max(0, x), written to ``out`` when given (``out=x`` works in place).
    A zero comes out as +0.0 whatever its sign, and a NaN stays NaN."""
    out = np.maximum(x, 0.0, out=out)
    out += 0.0  # -0.0 + 0.0 is +0.0
    return out


def relu(a):
    """Elementwise max(0, x); the derivative at exactly 0 is taken as 0.

    A NaN input gives a NaN output, so it reaches the loss.
    """
    mask = a.data > 0.0

    def _back(g):
        _accumulate(a, g * mask, fresh=True)

    return Value(_rectify(a.data), parents=(a,), backward=_back, op="relu")


# Rows per block of batch norm's backward: its temporaries span this many
# rows, whatever the batch size.
_BN_BLOCK_ROWS = 512

# Batch norm's running-stat momentum and the floor added to its variance.
BN_MOMENTUM = 0.9
BN_EPS = 1e-5


def _affine_relu(xhat, gamma, beta, out):
    """``relu(xhat * gamma + beta)`` written to ``out``: the fused batch
    norm's output, by the same float ops in its forward and its recompute."""
    np.multiply(xhat, gamma, out=out)
    out += beta
    return _rectify(out, out=out)


def batch_norm(x, gamma, beta, running_mean, running_var, training,
               overwrite_x=False):
    """Column-wise batch normalization with affine scale and shift, followed
    by relu: ``relu(gamma * xhat + beta)`` as one op.

    Training mode normalizes with the batch mean and biased batch variance and
    folds them into the running stats in place; eval mode normalizes with the
    running stats only. ``gamma`` and ``beta`` are 1 x q Values.

    The forward makes one centred copy of ``x``, which becomes ``xhat`` in
    place, and one output array, which first serves as the variance's
    scratch; in eval mode under :func:`no_grad` the copy is the
    output. With ``overwrite_x`` the centring happens in ``x.data`` itself,
    so no copy is made: only for an ``x`` that nothing reads afterwards.
    The backward keeps ``xhat`` and 1 x q rows only: each of its two passes
    over the rows recomputes the relu mask from them with the forward's own
    float ops, and it writes the input gradient over ``xhat``, which nothing
    reads afterwards, so it allocates temporaries of ``_BN_BLOCK_ROWS`` rows
    only. When the gradient's dtype is not ``xhat``'s, it allocates the
    input gradient instead. The output is not kept for backward either: its
    ``_recompute`` closure rebuilds it from ``xhat`` with the same ops, for a
    :func:`matmul` that reads it, whose backward runs before this one.

    When ``overwrite_x`` is set and ``x`` has a ``_recompute`` closure, not
    even ``xhat`` is kept: only the 1 x q ``mu`` and ``inv``. The backward
    and the output's ``_recompute`` each rebuild ``xhat = (x - mu) * inv``
    from a recomputed ``x``, with the forward's float ops, into an array of
    their own: the backward writes the input gradient over it, and the
    recompute writes the output over it.
    """
    data, gamma_data, beta_data = x.data, gamma.data, beta.data
    n = data.shape[0]
    # the running mean is copied: a rebuild must see the forward's mu
    mu = data.mean(axis=0, keepdims=True) if training else running_mean.copy()
    in_place = overwrite_x and np.result_type(data, mu) == data.dtype
    xhat = np.subtract(data, mu, out=data if in_place else None)
    dtype = np.result_type(xhat, gamma_data, beta_data)
    if training or _RECORDING or xhat.dtype != dtype:
        out = np.empty(xhat.shape, dtype)
    else:
        out = xhat  # no backward will read xhat
    if training:
        # np.var's steps on the centred copy, so the same bits
        var = np.square(xhat, out=out).sum(axis=0, keepdims=True)
        var /= n
        running_mean *= BN_MOMENTUM
        running_mean += (1.0 - BN_MOMENTUM) * mu
        running_var *= BN_MOMENTUM
        running_var += (1.0 - BN_MOMENTUM) * var
    else:
        var = running_var
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat *= inv
    _affine_relu(xhat, gamma_data, beta_data, out)
    # a private input that can be recomputed is not held: xhat is rebuilt
    # from it, with the forward's float ops, into an array of its own
    rebuild_x = x._recompute if overwrite_x else None
    held = xhat if rebuild_x is None else None

    def normalized():
        if rebuild_x is None:
            return held
        xhat = rebuild_x()
        xhat = np.subtract(xhat, mu, out=xhat if in_place else None)
        xhat *= inv
        return xhat

    def _back(g):
        xhat = normalized()
        blocks = [slice(i, i + _BN_BLOCK_ROWS) for i in range(0, n, _BN_BLOCK_ROWS)]
        grad_dtype = np.result_type(g, dtype)
        # nothing reads xhat after this closure, so dx is written over it,
        # block by block once each block is read
        if xhat.dtype == grad_dtype:
            dx = xhat
        else:
            dx = np.empty(xhat.shape, grad_dtype)
        dgamma = np.zeros((1, dx.shape[1]), dx.dtype)
        dbeta = np.zeros_like(dgamma)
        scale = gamma_data * inv
        masked = np.empty((min(n, _BN_BLOCK_ROWS), dx.shape[1]), dx.dtype)

        def masked_grad(rows, out):
            # g times the forward's relu mask, rebuilt with the forward's
            # float ops
            pre = np.multiply(xhat[rows], gamma_data)
            pre += beta_data
            return np.multiply(g[rows], pre > 0.0, out=out)

        for rows in blocks:
            xb = xhat[rows]
            gb = masked_grad(rows, masked[:xb.shape[0]])
            dbeta += gb.sum(axis=0, keepdims=True)
            dgamma += (gb * xb).sum(axis=0, keepdims=True)
            if not training:
                np.multiply(gb, scale, out=dx[rows])
        if training:
            # dx = gamma * inv * (gb - mean(gb) - xhat * mean(gb * xhat))
            mean_g, mean_gx = dbeta / n, dgamma / n
            for rows in blocks:
                shift = xhat[rows] * mean_gx
                gb = masked_grad(rows, dx[rows])
                gb -= mean_g
                gb -= shift
                gb *= scale
        _accumulate(gamma, dgamma, fresh=True)
        _accumulate(beta, dbeta, fresh=True)
        _accumulate(x, dx, fresh=True)

    def _rebuild_out():
        xhat = normalized()
        # a rebuilt xhat is private, so the output is written over it
        private = held is None and xhat.dtype == dtype
        return _affine_relu(xhat, gamma_data, beta_data,
                            xhat if private else np.empty(xhat.shape, dtype))

    y = Value(out, parents=(x, gamma, beta), backward=_back, op="batch_norm")
    if _RECORDING:
        y._recompute = _rebuild_out
    return y


def row_select(h, indices):
    """Gather rows of ``h`` in the given order; gradient scatters back."""
    idx = np.asarray(indices, dtype=np.intp).reshape(-1)
    shape = h.data.shape
    if idx.size and (idx.min() < 0 or idx.max() >= shape[0]):
        raise IndexError(f"row_select: index out of range for {shape[0]} rows")

    def _back(g):
        gh = np.zeros(shape, dtype=g.dtype)
        np.add.at(gh, idx, g)
        _accumulate(h, gh, fresh=True)

    return Value(h.data[idx], parents=(h,), backward=_back, op="row_select")


def sum_squares(a):
    """Squared Frobenius norm as a 1x1 Value."""
    a_data = a.data

    def _back(g):
        _accumulate(a, (2.0 * float(g[0, 0])) * a_data, fresh=True)

    return Value(np.sum(a_data * a_data), parents=(a,), backward=_back,
                 op="sum_squares")


def mse_per(a, b, divisor):
    """Sum of squared differences divided by a positive constant.

    A :func:`constant` operand, such as a reconstruction target, is neither
    a parent of the result nor held by its backward, so it can be freed as
    soon as the op has run.
    """
    _check_same_shape(a, b, "mse_per")
    divisor = float(divisor)
    if divisor <= 0.0:
        raise ValueError("mse_per: divisor must be positive")
    diff = a.data - b.data
    a, b = (None if v.op == "const" else v for v in (a, b))

    def _back(g):
        gd = (2.0 * float(g[0, 0]) / divisor) * diff
        if a is not None:
            _accumulate(a, gd, fresh=True)
        if b is not None:
            _accumulate(b, -gd, fresh=True)

    return Value(np.sum(diff * diff) / divisor,
                 parents=tuple(v for v in (a, b) if v is not None),
                 backward=_back, op="mse_per")


# The floor under sqrt_eps's root: it keeps the slope finite at 0.
SQRT_EPS = 1e-12


def sqrt_eps(x):
    """sqrt(x + SQRT_EPS) for a nonnegative scalar."""
    if x.data.shape != (1, 1):
        raise ValueError("sqrt_eps expects a 1x1 value")
    if x.data[0, 0] < 0.0:
        raise ValueError("sqrt_eps: negative input")
    root = np.sqrt(x.data[0, 0] + SQRT_EPS)

    def _back(g):
        _accumulate(x, g * (0.5 / float(root)), fresh=True)

    return Value(root, parents=(x,), backward=_back, op="sqrt_eps")


def _log_softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax_ce(logits, targets):
    """Mean row-wise cross-entropy between softmax(logits) and target rows.

    ``targets`` is a constant row-stochastic matrix (one-hot or soft labels),
    used in the logits' dtype.
    """
    t = _as_matrix(targets)
    if t.shape != logits.data.shape:
        raise ValueError(f"softmax_ce: shape mismatch {logits.data.shape} vs {t.shape}")
    if first_non_stochastic_row(t) is not None:
        raise ValueError("softmax_ce: target rows must sum to 1")
    t = t.astype(logits.data.dtype, copy=False)
    n = logits.data.shape[0]
    logp = _log_softmax(logits.data)

    def _back(g):
        _accumulate(logits, (float(g[0, 0]) / n) * (np.exp(logp) - t), fresh=True)

    return Value(-np.sum(t * logp) / n, parents=(logits,), backward=_back,
                 op="softmax_ce")


def first_non_stochastic_row(rows):
    """Index of the first row of `rows` whose sum is not 1, within
    :func:`softmax_ce`'s tolerance, or None when every row's is."""
    bad = np.flatnonzero(~np.isclose(rows.sum(axis=1), 1.0, atol=1e-6))
    return int(bad[0]) if bad.size else None


def kl_div(p_logits, q_logits):
    """Mean row-wise KL(softmax(p_logits) || softmax(q_logits))."""
    _check_same_shape(p_logits, q_logits, "kl_div")
    n = p_logits.data.shape[0]
    lp = _log_softmax(p_logits.data)
    lq = _log_softmax(q_logits.data)
    p = np.exp(lp)
    row_kl = np.sum(p * (lp - lq), axis=1, keepdims=True)

    def _back(g):
        gs = float(g[0, 0]) / max(n, 1)
        _accumulate(p_logits, gs * p * ((lp - lq) - row_kl), fresh=True)
        _accumulate(q_logits, gs * (np.exp(lq) - p), fresh=True)

    return Value(row_kl.sum() / max(n, 1), parents=(p_logits, q_logits),
                 backward=_back, op="kl_div")


def _walked(g):
    """The backward closure of a node a walk has consumed. It never runs:
    :func:`_toposort` refuses a graph that reaches such a node."""
    raise AssertionError("a walked node's closure ran")


def _toposort(root):
    """Every node reachable from `root`, in creation order, which is a
    topological order. A node an earlier walk consumed raises ValueError."""
    reached = {id(root): root}
    stack = [root]
    while stack:
        node = stack.pop()
        if node._backward is _walked:
            raise ValueError(f"backward: a {node.op!r} node was already walked; "
                             "run the forward again")
        for parent in node._parents:
            if id(parent) not in reached:
                reached[id(parent)] = parent
                stack.append(parent)
    return sorted(reached.values(), key=lambda node: node._seq)


def backward(loss, retain_graph=False):
    """Gradients of a 1x1 loss with respect to every reachable leaf.

    Returns a dict mapping each reachable leaf Value to the gradient of this
    loss alone, which is also left in the leaf's ``.grad``; a gradient from an
    earlier call is replaced, never added to. Each interior node's gradient,
    parents and recompute closure are dropped as soon as its backward closure
    has run, and the closure is replaced by a marker, so the DAG is freed
    during the walk and a closure may write a gradient over an array only it
    captured. A graph is walked once: a later call that reaches a walked node,
    by the same loss or by a new loss built on a walked subgraph, raises
    ValueError before it changes anything, and a second gradient needs a fresh
    forward pass. ``retain_graph`` must stay false.

    Gradient arrays may be shared between nodes; treat them as read-only.
    """
    if retain_graph:
        raise ValueError("backward: a graph is walked once, so retain_graph "
                         "must be false; run the forward again")
    if loss.data.shape != (1, 1):
        raise ValueError(f"backward needs a 1x1 loss, got shape {loss.data.shape}")
    order = _toposort(loss)
    # Every reached node, leaf or interior, starts this pass with no gradient;
    # its first contribution allocates it.
    for node in order:
        node.grad, node._owns_grad = None, False
    _accumulate(loss, np.ones((1, 1), dtype=loss.data.dtype))
    grads = {}
    # Popping walks the nodes in reverse creation order, so a node has all
    # its contributions when it is reached, and its arrays can go as soon as
    # its closure has run.
    while order:
        node = order.pop()
        if not node._parents:
            if node.grad is not None:
                grads[node] = node.grad
            continue
        node._backward(node.grad)
        node.grad, node._owns_grad = None, False
        node._parents = ()
        node._backward = _walked
        node._recompute = None
    return grads


def release(*values):
    """Drop the data of interior Values that no later forward op will read.

    Backward closures capture what they read at forward time, so this cannot
    change any gradient; it only lets an activation that no closure captured
    be freed before backward runs. A leaf keeps its data, and under
    :func:`no_grad` nothing is released. Passing a released Value to an op
    fails there, loudly.
    """
    if not _RECORDING:
        return
    for v in values:
        if v._parents:
            v.data = None


@dataclass
class GradCheckReport:
    """Outcome of comparing analytic gradients to central finite differences.

    The per-coordinate error is |analytic - numeric| / max(1, |analytic|,
    |numeric|): relative for large gradients, absolute near zero, so the
    finite-difference noise floor does not drown tiny true gradients.
    """

    max_rel_err: float
    tol: float
    step: float
    coords_checked: int
    worst_param: int = -1
    worst_coord: int = -1
    worst_analytic: float = 0.0
    worst_numeric: float = 0.0
    failures: list = field(default_factory=list)

    @property
    def ok(self):
        return self.max_rel_err <= self.tol


def grad_check(f, params, step=1e-3, tol=1e-4):
    """Check analytic gradients of ``f()`` w.r.t. ``params`` coordinate-wise.

    ``f`` rebuilds the loss from the params' current data each call. The
    analytic gradients are the map one :func:`backward` of ``f()`` returns (a
    param it does not reach counts as zero). Central differences use the given
    step; every coordinate is perturbed in place and restored. Returns a
    :class:`GradCheckReport`; ``report.ok`` is the verdict. The default step
    and tolerance hold in float64 only, so every param must be float64.
    """
    if step <= 0.0:
        raise ValueError("grad_check: step must be positive")
    for p in params:
        if p.data.dtype != np.float64:
            raise ValueError(f"grad_check: params must be float64, got {p.data.dtype}")
    grads = backward(f())
    analytic = [grads.get(p, np.zeros_like(p.data)) for p in params]
    report = GradCheckReport(max_rel_err=0.0, tol=tol, step=step, coords_checked=0)
    for pi, p in enumerate(params):
        flat = p.data.reshape(-1)
        ga = analytic[pi].reshape(-1)
        for j in range(flat.size):
            orig = flat[j]
            flat[j] = orig + step
            up = f().item()
            flat[j] = orig - step
            down = f().item()
            flat[j] = orig
            numeric = (up - down) / (2.0 * step)
            err = abs(ga[j] - numeric) / max(1.0, abs(ga[j]), abs(numeric))
            report.coords_checked += 1
            if err > report.max_rel_err:
                report.max_rel_err = err
                report.worst_param = pi
                report.worst_coord = j
                report.worst_analytic = float(ga[j])
                report.worst_numeric = float(numeric)
            if err > tol:
                report.failures.append((pi, j, float(ga[j]), float(numeric), float(err)))
    return report


def _scipy_dir():
    """scipy's install directory, named by ``find_spec`` without running
    ``scipy/__init__.py``."""
    spec = importlib.util.find_spec("scipy")
    if spec is None:
        raise ImportError("scipy is not installed")
    return spec.submodule_search_locations[0]


def scipy_version():
    """``scipy.__version__``, read from scipy's ``version.py`` without
    importing the package."""
    namespace = {}
    with open(os.path.join(_scipy_dir(), "version.py"), encoding="utf-8") as fh:
        exec(fh.read(), namespace)
    return namespace["version"]


_SPARSETOOLS = None


def _sparsetools():
    """scipy's compiled sparse kernels, ``scipy/sparse/_sparsetools``.

    Loaded at the first call straight from scipy's install directory, found
    by ``find_spec``, so neither ``scipy/__init__.py`` nor
    ``scipy/sparse/__init__.py`` runs. Raises ImportError when scipy is not
    installed or has no ``csr_matvecs``/``csc_matvecs`` there.
    """
    global _SPARSETOOLS
    if _SPARSETOOLS is None:
        name = "scipy.sparse._sparsetools"
        stem = os.path.join(_scipy_dir(), "sparse", "_sparsetools")
        module = None
        for path in (stem + s for s in importlib.machinery.EXTENSION_SUFFIXES):
            if os.path.exists(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(name, loader))
                loader.exec_module(module)
                break
        if not (hasattr(module, "csr_matvecs") and hasattr(module, "csc_matvecs")):
            raise ImportError(f"sparse products need scipy's compiled {name} with "
                              f"csr_matvecs and csc_matvecs; scipy: {scipy_version()}")
        _SPARSETOOLS = module
    return _SPARSETOOLS


class SparseMatrix:
    """Immutable CSR matrix used for adjacency and pooling indicators.

    Holds canonical CSR arrays in numpy: ``indptr``, ``indices`` (strictly
    increasing within each row, so no duplicates), ``data`` and ``shape``.
    :meth:`from_dense` gives float64 ``data``; the trusted constructor keeps
    float32 values as they are, which the 0/1 matrices of ``graphs`` use,
    since float32 ones are exact and half the bytes. :meth:`astype` gives a
    copy of ``data`` in another dtype sharing the index arrays. Index arrays
    are int32 whenever scipy would pick int32 for the same shape and nnz, and
    int64 otherwise. Building, normalising and densifying need numpy only.
    :meth:`matmat` and :meth:`rmatmat` pass these arrays to scipy's compiled
    ``csr_matvecs`` and ``csc_matvecs``, the calls ``scipy.sparse`` makes for
    ``csr @ dense`` and ``csr.T @ dense``, so the products are bit for bit
    scipy's; ``scipy.sparse`` itself is never imported.
    """

    __slots__ = ("indptr", "indices", "data", "shape")

    @classmethod
    def from_dense(cls, a):
        a = np.asarray(a, dtype=np.float64)
        if a.ndim != 2:
            raise ValueError(f"from_dense expects a matrix, got ndim={a.ndim}")
        rows, cols = np.nonzero(a)
        return cls._from_sorted_coo(rows, cols, a[rows, cols], a.shape)

    @classmethod
    def _from_sorted_coo(cls, rows, cols, values, shape):
        """Trusted constructor: the entries must already be sorted by row, then
        column, with no duplicate and in range. Nothing is checked. Float32
        values stay float32; any other values become float64."""
        indptr = np.zeros(int(shape[0]) + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=int(shape[0])), out=indptr[1:])
        values = np.asarray(values)
        return cls._from_csr(indptr, cols, values if values.dtype == np.float32
                             else values.astype(np.float64, copy=False), shape)

    @classmethod
    def _from_csr(cls, indptr, indices, data, shape):
        """Trusted constructor from canonical CSR arrays, kept as they are
        when already in the index dtype. Nothing is checked."""
        shape = (int(shape[0]), int(shape[1]))
        small = max(shape[0], shape[1], len(data)) <= np.iinfo(np.int32).max
        index = np.int32 if small else np.int64
        self = object.__new__(cls)
        self.shape = shape
        self.indptr = np.asarray(indptr, dtype=index)
        self.indices = np.asarray(indices, dtype=index)
        self.data = data
        return self

    @property
    def nnz(self):
        return self.data.size

    def astype(self, dtype):
        """This matrix with its values in ``dtype``: itself when they already
        are, else a copy of the values sharing the index arrays."""
        if self.data.dtype == dtype:
            return self
        return SparseMatrix._from_csr(self.indptr, self.indices,
                                      self.data.astype(dtype), self.shape)

    def to_dense(self):
        out = np.zeros(self.shape, dtype=self.data.dtype)
        rows = np.repeat(np.arange(self.shape[0]), np.diff(self.indptr))
        out[rows, self.indices] += self.data
        return out

    def matmat(self, dense):
        """``self @ dense``."""
        return self._product("csr_matvecs", self.shape, dense)

    def rmatmat(self, dense):
        """``self.T @ dense``: the same arrays read as the CSC form of the
        transpose, no copy."""
        return self._product("csc_matvecs", self.shape[::-1], dense)

    def _product(self, kernel, shape, dense):
        # The kernel reads and writes raw buffers: the operand's shape must
        # be checked here, and the output must be a contiguous array it
        # writes through ``ravel``'s view. The kernel needs the values, the
        # operand and the output in one dtype: float32 when both are, else
        # float64.
        x = np.asarray(dense)
        dtype = np.float32 if self.data.dtype == x.dtype == np.float32 else np.float64
        x = x.astype(dtype, copy=False)
        if x.ndim != 2 or x.shape[0] != shape[1]:
            raise ValueError(f"sparse product: {shape} matrix times operand of "
                             f"shape {x.shape}")
        out = np.zeros((shape[0], x.shape[1]), dtype=dtype)
        getattr(_sparsetools(), kernel)(shape[0], shape[1], x.shape[1], self.indptr,
                                        self.indices, self.data.astype(dtype, copy=False),
                                        x.ravel(), out.ravel())
        return out

    def __repr__(self):
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"
