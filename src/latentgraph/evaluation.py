"""Frozen-representation extraction and linear probing.

Representations come out of a trained encoder in eval mode; classification
quality is then measured with linear models only, so the numbers reflect the
representations rather than a downstream network's capacity. Graph-level
corpora use a k-fold linear SVM, node-level corpora a logistic regression on
a fixed train/test split. Both classifiers are trained from scratch here and
both return a :class:`LinearClassifier`. Labels are single-label class ids
(one per graph or node), so the logistic probe's reported micro-F1 is its
accuracy.
"""

import dataclasses
import warnings
from dataclasses import dataclass, field

import numpy as np

from .engine import Value, add_row, backward, constant, matmul, no_grad, softmax_ce
from .graphs import batch_graphs, sorted_unique
from .models import readout_sum
from .training import Adam

DEFAULT_C_GRID = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)


# ---------------------------------------------------------------------------
# representation extraction


def _row_chunks(counts, max_rows):
    """Consecutive slices of whole graphs whose node ``counts`` sum to at most
    ``max_rows``, covering range(len(counts)). A graph larger than the budget
    is a slice of its own."""
    start, rows = 0, 0
    for i, n in enumerate(counts):
        if i > start and rows + n > max_rows:
            yield slice(start, i)
            start, rows = i, 0
        rows += n
    if counts:
        yield slice(start, len(counts))


def extract_graph_repr(dataset, encoder, max_rows=512):
    """Per-graph representation: sum-pooled embeddings of every encoder
    layer, concatenated, via eval-mode forward passes under ``no_grad``.

    Each forward takes consecutive whole graphs of at most ``max_rows`` node
    rows in all (a larger graph alone), so its memory follows a fixed number
    of rows, not of graphs. Returns a (num_graphs, num_layers * hidden_dim)
    matrix in the dataset's order.
    """
    graphs = [dataset[i] for i in range(len(dataset))]
    chunks = []
    for part in _row_chunks([g.num_nodes for g in graphs], max_rows):
        batch = batch_graphs(graphs[part])
        with no_grad():
            layers = encoder.encode(batch, training=False)
            pooled = [readout_sum(h, batch).data for h in layers]
        chunks.append(np.hstack(pooled))
        # free this chunk's batch and layer outputs before the next forward
        del batch, layers, pooled
    return np.vstack(chunks)


def extract_node_repr(graph, encoder, concat_raw=True):
    """Per-node representation: last-layer embedding (an eval-mode forward
    under ``no_grad``), optionally prefixed with the raw input features."""
    batch = batch_graphs([graph])
    with no_grad():
        h_last = encoder.encode(batch, training=False)[-1].data
    if concat_raw:
        return np.hstack([batch.features, h_last])
    return h_last


# ---------------------------------------------------------------------------
# metrics


def accuracy_score(y_true, y_pred):
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("accuracy_score: shape mismatch")
    if y_true.size == 0:
        raise ValueError("accuracy_score: empty input")
    return float(np.mean(y_true == y_pred))


# ---------------------------------------------------------------------------
# logistic regression (node-level probe)

PROBE_LR = 0.01
PROBE_EPOCHS = 300

# Rows a probe scores at once, so representations in float32 are converted
# to float64 a block at a time.
_PREDICT_ROWS = 1024


@dataclass
class LinearClassifier:
    """A trained linear probe of either kind: scores are reprs @ W + b, and
    the prediction is the highest-scoring class."""

    W: np.ndarray
    b: np.ndarray
    degenerate: bool = False

    def predict(self, reprs):
        reprs = np.asarray(reprs)
        out = np.empty(reprs.shape[0], dtype=np.intp)
        for start in range(0, reprs.shape[0], _PREDICT_ROWS):
            rows = slice(start, start + _PREDICT_ROWS)
            scores = np.asarray(reprs[rows], dtype=float) @ self.W + self.b
            out[rows] = np.argmax(scores, axis=1)
        return out


def _check_class_ids(labels, caller):
    """Refuse labels that are not a 1-D vector of nonnegative integer class
    ids: a probe fits and predicts classes 0 to labels.max() only."""
    if (labels.ndim != 1 or labels.dtype.kind not in "iu"
            or (labels.size and labels.min() < 0)):
        raise ValueError(f"{caller}: labels must be a 1-D vector of "
                         "nonnegative integers")


def logreg_fit(reprs, labels, epochs=PROBE_EPOCHS, *, rng):
    """Full-batch softmax regression trained with Adam at step size
    ``PROBE_LR``, unregularised.

    Labels are a 1-D vector of nonnegative class ids. A training set with a
    single observed class is allowed but the returned classifier is flagged
    degenerate.
    """
    reprs = np.asarray(reprs, dtype=float)
    labels = np.asarray(labels)
    if not np.isfinite(reprs).all():
        raise ValueError("logreg_fit: representations must be finite")
    if reprs.shape[0] != labels.shape[0]:
        raise ValueError("logreg_fit: representation/label count mismatch")
    _check_class_ids(labels, "logreg_fit")
    if epochs < 1:
        raise ValueError(f"logreg_fit: epochs must be at least 1, got {epochs}")

    out_dim = int(labels.max()) + 1
    targets = np.eye(out_dim)[labels]
    d = reprs.shape[1]
    W = Value(0.01 * rng.standard_normal((d, out_dim)))
    b = Value(np.zeros((1, out_dim)))
    x = constant(reprs)
    optimizer = Adam([W, b], lr=PROBE_LR)
    for _ in range(epochs):
        grads = backward(softmax_ce(add_row(matmul(x, W), b), targets))
        optimizer.step(grads)
    return LinearClassifier(W=W.data.copy(), b=b.data.copy(),
                            degenerate=bool(labels.min() == labels.max()))


# ---------------------------------------------------------------------------
# linear SVM with k-fold cross validation (graph-level probe)


def _standardizer(x):
    mean = x.mean(axis=0, keepdims=True)
    std = x.std(axis=0, keepdims=True)
    std = np.where(std > 0, std, 1.0)
    return mean, std


def _svm_fit(x, labels, num_classes, cs):
    """One-vs-rest L2-regularized squared-hinge SVMs by full-batch gradient
    descent, one classifier per C in ``cs``.

    x is standardized. Weight column (C, k) fits class k with y = +-1 to
        (1 / (2 C n)) ||w||^2 + mean_i max(0, 1 - y_i (x_i w + b))^2,
    smooth and convex, so plain gradient descent with a curvature-matched
    step size converges without a line search. All columns step together.
    """
    n, d = x.shape
    y = np.tile(np.where(labels[:, None] == np.arange(num_classes), 1.0, -1.0),
                len(cs))
    lam = np.repeat(1.0 / (np.asarray(cs) * n), num_classes)
    # Lipschitz bound for the gradient: lam + 2 * mean row norm^2 (plus bias)
    step = 1.0 / (lam + 2.0 * (np.mean(np.sum(x * x, axis=1)) + 1.0))
    w = np.zeros((d, y.shape[1]))
    b = np.zeros(y.shape[1])
    coef = np.empty_like(y)
    for _ in range(500):
        # coef = -2 y max(0, 1 - y (x w + b)) / n, in place
        np.matmul(x, w, out=coef)
        coef += b
        coef *= y
        np.maximum(1.0 - coef, 0.0, out=coef)
        coef *= y
        coef *= -2.0
        coef /= n
        gw = lam * w + x.T @ coef
        w -= step * gw
        b -= step * coef.sum(axis=0)
    return [LinearClassifier(W=w[:, i:i + num_classes].copy(), b=b[i:i + num_classes])
            for i in range(0, w.shape[1], num_classes)]


def stratified_folds(labels, folds, rng):
    """Sorted index arrays for k folds, class proportions preserved.

    Falls back to plain round-robin assignment (with a warning) when some
    class has fewer members than there are folds.
    """
    labels = np.asarray(labels)
    n = labels.shape[0]
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    if n < folds:
        raise ValueError(f"{n} samples cannot fill {folds} folds")
    classes, class_of = sorted_unique(labels, return_inverse=True)
    counts = np.bincount(class_of)
    fold_of = np.empty(n, dtype=np.intp)
    if counts.min() < folds:
        warnings.warn(
            f"class with {counts.min()} members cannot be stratified over "
            f"{folds} folds; using unstratified folds", stacklevel=2)
        fold_of[rng.permutation(n)] = np.arange(n) % folds
    else:
        for cls in classes:
            members = rng.permutation(np.flatnonzero(labels == cls))
            fold_of[members] = np.arange(members.shape[0]) % folds
    return [np.flatnonzero(fold_of == f) for f in range(folds)]


def _select_c(x, labels, num_classes, rng):
    """Pick C from ``DEFAULT_C_GRID`` by accuracy on a held-out tenth of the
    training data; ties go to the smallest C."""
    n = x.shape[0]
    order = rng.permutation(n)
    n_val = max(1, n // 10)
    if n - n_val < 1:
        return DEFAULT_C_GRID[0]
    val_idx, fit_idx = order[:n_val], order[n_val:]
    fits = _svm_fit(x[fit_idx], labels[fit_idx], num_classes, DEFAULT_C_GRID)
    accs = [accuracy_score(labels[val_idx], clf.predict(x[val_idx])) for clf in fits]
    # the grid ascends and argmax keeps the first best
    return DEFAULT_C_GRID[int(np.argmax(accs))]


@dataclass
class EvalReport:
    """Cross-validated probe scores plus the hyperparameters behind them."""

    metric: str
    fold_scores: list
    mean: float
    std: float
    hyperparameters: dict
    seed: int
    folds: int
    warnings: list = field(default_factory=list)

    def as_dict(self):
        return dataclasses.asdict(self)


def _make_report(scores, hyperparameters, seed, folds, caught):
    """An accuracy report of these per-fold scores."""
    scores = [float(s) for s in scores]
    return EvalReport(
        metric="accuracy",
        fold_scores=scores,
        mean=float(np.mean(scores)),
        std=float(np.std(scores)),
        hyperparameters=hyperparameters,
        seed=seed,
        folds=folds,
        warnings=caught,
    )


def linsvm_kfold(reprs, labels, folds=10, seed=0):
    """k-fold cross-validated linear SVM accuracy on frozen representations.

    Folds are stratified by label. Within each fold's training portion, C is
    chosen on a 10% validation split, the SVM is refit on the full training
    portion with that C, and the fold score is test accuracy. The report
    carries per-fold scores and chosen C values. Labels are a 1-D vector of
    nonnegative class ids.
    """
    reprs = np.asarray(reprs, dtype=float)
    labels = np.asarray(labels)
    if reprs.shape[0] != labels.shape[0]:
        raise ValueError("linsvm_kfold: representation/label count mismatch")
    if not np.isfinite(reprs).all():
        raise ValueError("linsvm_kfold: representations must be finite")
    _check_class_ids(labels, "linsvm_kfold")

    rng = np.random.default_rng(seed)
    caught = []
    with warnings.catch_warnings(record=True) as wlist:
        warnings.simplefilter("always")
        fold_indices = stratified_folds(labels, folds, rng)
        caught.extend(str(w.message) for w in wlist)

    num_classes = int(labels.max()) + 1
    scores, chosen = [], []
    for i in range(folds):
        test_idx = fold_indices[i]
        train_idx = np.concatenate([fold_indices[j] for j in range(folds) if j != i])
        mean, std = _standardizer(reprs[train_idx])
        x_train = (reprs[train_idx] - mean) / std
        x_test = (reprs[test_idx] - mean) / std
        c = _select_c(x_train, labels[train_idx], num_classes, rng)
        clf, = _svm_fit(x_train, labels[train_idx], num_classes, [c])
        scores.append(accuracy_score(labels[test_idx], clf.predict(x_test)))
        chosen.append(c)
    return _make_report(scores, {"C": chosen, "c_grid": list(DEFAULT_C_GRID)},
                        seed, folds, caught)


def evaluate_node_split(reprs, labels, split, epochs=PROBE_EPOCHS, seed=0):
    """Train a logistic probe on the split's train nodes, score its test
    nodes, and package the result like a single-fold report.

    The probe scores every node, an n x classes product, and keeps the test
    rows' predictions, so the test rows' representations are never copied.
    """
    labels = np.asarray(labels)
    clf = logreg_fit(reprs[split.train], labels[split.train],
                     epochs=epochs, rng=np.random.default_rng(seed))
    accuracy = accuracy_score(labels[split.test], clf.predict(reprs)[split.test])
    # with one label and one prediction per node, micro-F1 is 2c / 2n, the
    # accuracy c / n to the bit
    return _make_report(
        [accuracy],
        {"lr": PROBE_LR, "epochs": epochs, "micro_f1": accuracy},
        seed, 1, ["degenerate training labels"] if clf.degenerate else [])
