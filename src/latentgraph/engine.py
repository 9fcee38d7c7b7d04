"""Dense-matrix reverse-mode autodiff engine.

Every value is a 2-D float64 matrix wrapped in a :class:`Value` node. Operations
build a provenance DAG; :func:`backward` walks it once in reverse topological
order and sums gradients within that walk, so shared subexpressions receive the
sum of all path contributions. The gradient a backward call returns covers that
call's loss only: every node it reaches starts the walk with no gradient, so
nothing carries over from an earlier call. The DAG is freed during backward (no
persistent tape), and only leaf gradients survive it.

An op's backward closure captures, when the forward runs, every array and
shape it will read (its inputs' data, masks, normalized activations); it never
reads a parent's ``.data`` during backward. So backward needs no node's data,
and :func:`release` may drop an interior Value's data once no later forward op
reads it: the array then stays alive only if some closure captured it.
Releasing can never change a gradient; a released Value is unusable as the
input of a later op.

Inside ``with no_grad():`` ops record nothing: each result is a parentless
Value, so an intermediate array is freed as soon as the next op has consumed
it. Inference (representation extraction) runs this way; training and anything
that calls :func:`backward` must not.

Scalars are 1x1 matrices. Sparse matrices (:class:`SparseMatrix`) are constants:
they never receive gradients and only appear as the left operand of :func:`spmm`.

A strict deterministic mode replaces the BLAS matrix product with a per-row
GEMV loop whose result does not depend on how rows are later sliced or stacked,
which keeps repeated runs bit-identical regardless of BLAS threading. Enable it
with ``set_strict_determinism(True)`` or the ``LAGRAPH_STRICT_DETERMINISM=1``
environment variable (read once at import).
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

__all__ = [
    "Value",
    "SparseMatrix",
    "matmul",
    "spmm",
    "add",
    "add_row",
    "sub",
    "hadamard",
    "scale",
    "relu",
    "row_select",
    "sum_squares",
    "mse_per",
    "sqrt_eps",
    "softmax_ce",
    "kl_div",
    "backward",
    "release",
    "no_grad",
    "grad_check",
    "GradCheckReport",
    "constant",
    "set_strict_determinism",
    "strict_determinism_enabled",
]

_STRICT = os.environ.get("LAGRAPH_STRICT_DETERMINISM", "") == "1"


def set_strict_determinism(flag):
    """Toggle the sequential-reduction matrix product at runtime."""
    global _STRICT
    _STRICT = bool(flag)


def strict_determinism_enabled():
    return _STRICT


_RECORDING = True


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
    # Row-by-row GEMV: the result for row i never depends on which other rows
    # are present, unlike the blocked GEMM kernels BLAS picks by shape.
    if not _STRICT:
        return a @ b
    out = np.empty((a.shape[0], b.shape[1]), dtype=np.float64)
    for i in range(a.shape[0]):
        out[i] = a[i] @ b
    return out


def _as_matrix(data):
    a = np.asarray(data, dtype=np.float64)
    if a.ndim == 0:
        a = a.reshape(1, 1)
    elif a.ndim == 1:
        a = a.reshape(1, -1)
    elif a.ndim != 2:
        raise ValueError(f"expected a scalar, vector or matrix, got ndim={a.ndim}")
    return np.ascontiguousarray(a)


class Value:
    """A matrix node in the autodiff DAG.

    ``data`` is the 2-D float64 payload, ``grad`` the gradient from the last
    backward that reached the node (``None`` before that), ``op`` a short tag
    naming the producing operation, ``_parents`` the input nodes and
    ``_backward`` a closure that routes this node's gradient to them. Under :func:`no_grad`
    the constructor drops ``parents`` and ``backward``.

    The closure holds the arrays it reads, captured at forward time, so an
    interior node's ``data`` is needed only by the forward ops that consume
    it. Once they have run, :func:`release` may set it to ``None``; the node
    then still takes part in backward, but must not be the input of any
    further op. Leaves keep their data.
    """

    __slots__ = ("data", "grad", "op", "_parents", "_backward", "__weakref__")

    def __init__(self, data, parents=(), backward=None, op="leaf"):
        self.data = _as_matrix(data)
        self.grad = None
        self.op = op
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

    def backward(self, retain_graph=False):
        return backward(self, retain_graph=retain_graph)

    def __repr__(self):
        shape = "released" if self.data is None else self.data.shape
        return f"Value(shape={shape}, op={self.op!r})"


def constant(data):
    """Leaf Value holding fixed data (still receives a gradient if reachable)."""
    return Value(data, op="const")


def _accumulate(node, g):
    node.grad = g if node.grad is None else node.grad + g


def _check_same_shape(a, b, opname):
    if a.data.shape != b.data.shape:
        raise ValueError(f"{opname}: shape mismatch {a.data.shape} vs {b.data.shape}")


def matmul(a, b):
    """Matrix product a @ b with gradients g @ b.T and a.T @ g."""
    if a.data.shape[1] != b.data.shape[0]:
        raise ValueError(f"matmul: inner dims disagree {a.data.shape} vs {b.data.shape}")

    a_data, b_data = a.data, b.data

    def _back(g):
        _accumulate(a, _mm(g, b_data.T))
        _accumulate(b, _mm(a_data.T, g))

    return Value(_mm(a_data, b_data), parents=(a, b), backward=_back, op="matmul")


def spmm(s, d):
    """Sparse-dense product s @ d. ``s`` is constant and gets no gradient."""
    if not isinstance(s, SparseMatrix):
        raise TypeError("spmm expects a SparseMatrix left operand")
    if s.shape[1] != d.data.shape[0]:
        raise ValueError(f"spmm: inner dims disagree {s.shape} vs {d.data.shape}")

    def _back(g):
        _accumulate(d, s.rmatmat(g))

    return Value(s.matmat(d.data), parents=(d,), backward=_back, op="spmm")


def add(a, b):
    _check_same_shape(a, b, "add")

    def _back(g):
        _accumulate(a, g)
        _accumulate(b, g)

    return Value(a.data + b.data, parents=(a, b), backward=_back, op="add")


def add_row(a, b):
    """Add the 1 x q row ``b`` to every row of the n x q matrix ``a``.

    The gradient is ``g`` for ``a`` and the column sums of ``g`` for ``b``.
    """
    if b.data.shape[0] != 1 or b.data.shape[1] != a.data.shape[1]:
        raise ValueError(f"add_row: cannot add {b.data.shape} to rows of {a.data.shape}")

    def _back(g):
        _accumulate(a, g)
        _accumulate(b, g.sum(axis=0, keepdims=True))

    return Value(a.data + b.data, parents=(a, b), backward=_back, op="add_row")


def sub(a, b):
    _check_same_shape(a, b, "sub")

    def _back(g):
        _accumulate(a, g)
        _accumulate(b, -g)

    return Value(a.data - b.data, parents=(a, b), backward=_back, op="sub")


def hadamard(a, b):
    _check_same_shape(a, b, "hadamard")

    a_data, b_data = a.data, b.data

    def _back(g):
        _accumulate(a, g * b_data)
        _accumulate(b, g * a_data)

    return Value(a_data * b_data, parents=(a, b), backward=_back, op="hadamard")


def scale(a, c):
    c = float(c)

    def _back(g):
        _accumulate(a, g * c)

    return Value(a.data * c, parents=(a,), backward=_back, op="scale")


def relu(a):
    """Elementwise max(0, x); the derivative at exactly 0 is taken as 0."""
    mask = a.data > 0.0

    def _back(g):
        _accumulate(a, g * mask)

    return Value(np.where(mask, a.data, 0.0), parents=(a,), backward=_back, op="relu")


def row_select(h, indices):
    """Gather rows of ``h`` in the given order; gradient scatters back."""
    idx = np.asarray(indices, dtype=np.intp).reshape(-1)
    shape = h.data.shape
    if idx.size and (idx.min() < 0 or idx.max() >= shape[0]):
        raise IndexError(f"row_select: index out of range for {shape[0]} rows")

    def _back(g):
        gh = np.zeros(shape)
        np.add.at(gh, idx, g)
        _accumulate(h, gh)

    return Value(h.data[idx], parents=(h,), backward=_back, op="row_select")


def sum_squares(a):
    """Squared Frobenius norm as a 1x1 Value."""
    a_data = a.data

    def _back(g):
        _accumulate(a, (2.0 * g[0, 0]) * a_data)

    return Value(np.sum(a_data * a_data), parents=(a,), backward=_back,
                 op="sum_squares")


def mse_per(a, b, divisor):
    """Sum of squared differences divided by a positive constant."""
    _check_same_shape(a, b, "mse_per")
    divisor = float(divisor)
    if divisor <= 0.0:
        raise ValueError("mse_per: divisor must be positive")
    diff = a.data - b.data

    def _back(g):
        gd = (2.0 * g[0, 0] / divisor) * diff
        _accumulate(a, gd)
        _accumulate(b, -gd)

    return Value(np.sum(diff * diff) / divisor, parents=(a, b), backward=_back,
                 op="mse_per")


def sqrt_eps(x, eps=1e-12):
    """sqrt(x + eps) for a nonnegative scalar; eps keeps the slope finite at 0."""
    if x.data.shape != (1, 1):
        raise ValueError("sqrt_eps expects a 1x1 value")
    if x.data[0, 0] < 0.0:
        raise ValueError("sqrt_eps: negative input")
    root = np.sqrt(x.data[0, 0] + eps)

    def _back(g):
        _accumulate(x, g * (0.5 / root))

    return Value(root, parents=(x,), backward=_back, op="sqrt_eps")


def _log_softmax(z):
    shifted = z - z.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def softmax_ce(logits, targets):
    """Mean row-wise cross-entropy between softmax(logits) and target rows.

    ``targets`` is a constant row-stochastic matrix (one-hot or soft labels).
    """
    t = _as_matrix(targets)
    if t.shape != logits.data.shape:
        raise ValueError(f"softmax_ce: shape mismatch {logits.data.shape} vs {t.shape}")
    if not np.allclose(t.sum(axis=1), 1.0, atol=1e-6):
        raise ValueError("softmax_ce: target rows must sum to 1")
    n = logits.data.shape[0]
    logp = _log_softmax(logits.data)

    def _back(g):
        _accumulate(logits, (g[0, 0] / n) * (np.exp(logp) - t))

    return Value(-np.sum(t * logp) / n, parents=(logits,), backward=_back,
                 op="softmax_ce")


def kl_div(p_logits, q_logits):
    """Mean row-wise KL(softmax(p_logits) || softmax(q_logits))."""
    _check_same_shape(p_logits, q_logits, "kl_div")
    n = p_logits.data.shape[0]
    lp = _log_softmax(p_logits.data)
    lq = _log_softmax(q_logits.data)
    p = np.exp(lp)
    row_kl = np.sum(p * (lp - lq), axis=1, keepdims=True)

    def _back(g):
        gs = g[0, 0] / max(n, 1)
        _accumulate(p_logits, gs * p * ((lp - lq) - row_kl))
        _accumulate(q_logits, gs * (np.exp(lq) - p))

    return Value(row_kl.sum() / max(n, 1), parents=(p_logits, q_logits),
                 backward=_back, op="kl_div")


def _toposort(root):
    order = []
    visited = set()
    stack = [(root, iter(root._parents))]
    on_stack = {id(root)}
    while stack:
        node, parents = stack[-1]
        advanced = False
        for parent in parents:
            if id(parent) not in visited and id(parent) not in on_stack:
                stack.append((parent, iter(parent._parents)))
                on_stack.add(id(parent))
                advanced = True
                break
        if not advanced:
            stack.pop()
            on_stack.discard(id(node))
            visited.add(id(node))
            order.append(node)
    return order


def backward(loss, retain_graph=False):
    """Gradients of a 1x1 loss with respect to every reachable leaf.

    Returns a dict mapping each reachable leaf Value to the gradient of this
    loss alone, which is also left in the leaf's ``.grad``; a gradient from an
    earlier call is replaced, never added to. Unless ``retain_graph`` is set,
    each interior node's gradient, parents and backward closure are dropped as
    soon as its closure has run, so the DAG is freed during the walk and a
    second backward needs a fresh forward pass. With ``retain_graph`` interior
    gradients are kept and returned as well, and a second backward over the
    same graph returns the same gradients.

    Gradient arrays may be shared between nodes; treat them as read-only.
    """
    if loss.data.shape != (1, 1):
        raise ValueError(f"backward needs a 1x1 loss, got shape {loss.data.shape}")
    order = _toposort(loss)
    # Every reached node, leaf or interior, starts this pass with no gradient;
    # its first contribution allocates it.
    for node in order:
        node.grad = None
    _accumulate(loss, np.ones((1, 1), dtype=np.float64))
    grads = {}
    # Popping walks the nodes in reverse topological order, so a node has all
    # its contributions when it is reached, and its arrays can go as soon as
    # its closure has run.
    while order:
        node = order.pop()
        if not node._parents:
            if node.grad is not None:
                grads[node] = node.grad
            continue
        if node._backward is not None:
            node._backward(node.grad)
        if retain_graph:
            grads[node] = node.grad
        else:
            node.grad = None
            node._parents = ()
            node._backward = None
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
    :class:`GradCheckReport`; ``report.ok`` is the verdict.
    """
    if step <= 0.0:
        raise ValueError("grad_check: step must be positive")
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


class SparseMatrix:
    """Immutable CSR matrix used for adjacency and pooling indicators.

    Exposes the raw CSR fields (indptr, indices, data); column indices are
    strictly increasing within each row. Products are delegated to scipy.
    """

    __slots__ = ("_csr",)

    def __init__(self, csr):
        csr = sp.csr_matrix(csr, dtype=np.float64)
        csr.sum_duplicates()
        csr.sort_indices()
        self._csr = csr

    @classmethod
    def from_dense(cls, a):
        return cls(sp.csr_matrix(np.asarray(a, dtype=np.float64)))

    @classmethod
    def from_coo(cls, rows, cols, values, shape):
        rows = np.asarray(rows, dtype=np.intp)
        cols = np.asarray(cols, dtype=np.intp)
        values = np.asarray(values, dtype=np.float64)
        if rows.size and shape[0] > 0 and (rows.min() < 0 or rows.max() >= shape[0]):
            raise IndexError("row index out of range")
        if cols.size and shape[1] > 0 and (cols.min() < 0 or cols.max() >= shape[1]):
            raise IndexError("column index out of range")
        return cls(sp.csr_matrix((values, (rows, cols)), shape=shape))

    @property
    def shape(self):
        return self._csr.shape

    @property
    def nnz(self):
        return self._csr.nnz

    @property
    def indptr(self):
        return self._csr.indptr

    @property
    def indices(self):
        return self._csr.indices

    @property
    def data(self):
        return self._csr.data

    def to_dense(self):
        return np.asarray(self._csr.todense(), dtype=np.float64)

    def transpose(self):
        return SparseMatrix(self._csr.T.tocsr())

    def matmat(self, dense):
        out = self._csr @ np.asarray(dense, dtype=np.float64)
        return np.ascontiguousarray(out)

    def rmatmat(self, dense):
        """``self.T @ dense`` through scipy's CSC view of the same arrays, no copy."""
        out = self._csr.T @ np.asarray(dense, dtype=np.float64)
        return np.ascontiguousarray(out)

    def __matmul__(self, dense):
        return self.matmat(dense)

    def __repr__(self):
        return f"SparseMatrix(shape={self.shape}, nnz={self.nnz})"
