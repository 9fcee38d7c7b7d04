"""Frozen-representation extraction and linear probing.

Representations come out of a trained encoder in eval mode; classification
quality is then measured with linear models only, so the numbers reflect the
representations rather than a downstream network's capacity. Graph-level
corpora use a k-fold linear SVM, node-level corpora a logistic regression on
a fixed train/test split. Both classifiers are trained from scratch here.
"""

import dataclasses
import json
import warnings
from dataclasses import dataclass, field

import numpy as np

from .engine import (Value, _accumulate, add, add_row, backward, matmul,
                     no_grad, scale, softmax_ce, sum_squares)
from .graphs import batch_graphs
from .models import readout_sum
from .training import Adam

DEFAULT_C_GRID = (1e-3, 1e-2, 1e-1, 1.0, 1e1, 1e2, 1e3)


# ---------------------------------------------------------------------------
# representation extraction


def extract_graph_repr(dataset, encoder, batch_size=256):
    """Per-graph representation: sum-pooled embeddings of every encoder
    layer, concatenated, via eval-mode forward passes under ``no_grad``.

    Returns a (num_graphs, num_layers * hidden_dim) matrix.
    """
    chunks = []
    for start in range(0, len(dataset), batch_size):
        graphs = [dataset[i] for i in range(start, min(start + batch_size, len(dataset)))]
        batch = batch_graphs(graphs)
        with no_grad():
            layers = encoder.encode(batch, training=False)
            pooled = [readout_sum(h, batch).data for h in layers]
        chunks.append(np.hstack(pooled))
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


def micro_f1_score(y_true, y_pred, num_classes=None):
    """Micro-averaged F1.

    Accepts integer label vectors (single-label multiclass) or 0/1 indicator
    matrices (multi-label). For single-label input where every sample gets
    exactly one prediction, this equals plain accuracy.
    """
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape:
        raise ValueError("micro_f1_score: shape mismatch")
    if y_true.ndim == 1:
        if num_classes is None:
            num_classes = int(max(y_true.max(), y_pred.max())) + 1
        true_hot = np.eye(num_classes, dtype=bool)[y_true]
        pred_hot = np.eye(num_classes, dtype=bool)[y_pred]
    else:
        true_hot = y_true.astype(bool)
        pred_hot = y_pred.astype(bool)
    tp = np.sum(true_hot & pred_hot)
    fp = np.sum(~true_hot & pred_hot)
    fn = np.sum(true_hot & ~pred_hot)
    denom = 2 * tp + fp + fn
    if denom == 0:
        return 0.0
    return float(2 * tp / denom)


# ---------------------------------------------------------------------------
# logistic regression (node-level probe)


def _sigmoid_bce(logits, targets):
    """Mean element-wise binary cross entropy on sigmoid(logits); the
    targets are a constant 0/1 matrix."""
    t = np.asarray(targets, dtype=float)
    z = logits.data
    if t.shape != z.shape:
        raise ValueError("sigmoid_bce: shape mismatch")
    loss = np.mean(np.maximum(z, 0.0) - z * t + np.log1p(np.exp(-np.abs(z))))

    def _back(g):
        p = 1.0 / (1.0 + np.exp(-z))
        _accumulate(logits, (g[0, 0] / z.size) * (p - t))

    return Value(loss, parents=(logits,), backward=_back, op="sigmoid_bce")


@dataclass
class LinearClassifier:
    """A trained linear probe: scores are reprs @ W + b."""

    W: np.ndarray
    b: np.ndarray
    multilabel: bool = False
    degenerate: bool = False

    def scores(self, reprs):
        return np.asarray(reprs, dtype=float) @ self.W + self.b

    def predict(self, reprs):
        s = self.scores(reprs)
        if self.multilabel:
            return (s > 0.0).astype(np.intp)
        return np.argmax(s, axis=1)


def logreg_fit(reprs, labels, lr=0.01, weight_decay=0.0, epochs=300, rng=None,
               num_classes=None):
    """Full-batch logistic regression trained with Adam.

    Single-label mode (1-D integer labels) minimizes softmax cross entropy;
    multi-label mode (2-D indicator labels) minimizes element-wise sigmoid
    cross entropy. `weight_decay` adds an L2 penalty on the weight matrix to
    the loss. A training set with a single observed class is allowed but the
    returned classifier is flagged degenerate.
    """
    reprs = np.asarray(reprs, dtype=float)
    labels = np.asarray(labels)
    if not np.isfinite(reprs).all():
        raise ValueError("logreg_fit: representations must be finite")
    if reprs.shape[0] != labels.shape[0]:
        raise ValueError("logreg_fit: representation/label count mismatch")
    if rng is None:
        rng = np.random.default_rng(0)

    multilabel = labels.ndim == 2
    if multilabel:
        out_dim = labels.shape[1]
        targets = labels.astype(float)
        degenerate = False
    else:
        if labels.min() < 0:
            raise ValueError("logreg_fit: labels must be nonnegative integers")
        out_dim = int(num_classes) if num_classes else int(labels.max()) + 1
        if labels.max() >= out_dim:
            raise ValueError("logreg_fit: label out of range")
        targets = np.eye(out_dim)[labels]
        degenerate = len(np.unique(labels)) < 2

    d = reprs.shape[1]
    W = Value(0.01 * rng.standard_normal((d, out_dim)))
    b = Value(np.zeros((1, out_dim)))
    x = Value(reprs)
    optimizer = Adam([W, b], lr=lr)
    for _ in range(epochs):
        logits = add_row(matmul(x, W), b)
        if multilabel:
            loss = _sigmoid_bce(logits, targets)
        else:
            loss = softmax_ce(logits, targets)
        if weight_decay:
            loss = add(loss, scale(sum_squares(W), weight_decay))
        grads = backward(loss)
        optimizer.step(grads)
    return LinearClassifier(W=W.data.copy(), b=b.data.copy(),
                            multilabel=multilabel, degenerate=degenerate)


def logreg_eval(classifier, reprs, labels):
    """Accuracy and micro-F1 of a trained probe on held-out data.

    Multi-label accuracy is the exact-match rate over full label sets.
    """
    labels = np.asarray(labels)
    pred = classifier.predict(reprs)
    if classifier.multilabel:
        accuracy = float(np.mean(np.all(pred == labels, axis=1)))
        f1 = micro_f1_score(labels, pred)
    else:
        accuracy = accuracy_score(labels, pred)
        f1 = micro_f1_score(labels, pred, num_classes=classifier.W.shape[1])
    return {"accuracy": accuracy, "micro_f1": f1,
            "degenerate": classifier.degenerate}


# ---------------------------------------------------------------------------
# linear SVM with k-fold cross validation (graph-level probe)


def _standardizer(x):
    mean = x.mean(axis=0, keepdims=True)
    std = x.std(axis=0, keepdims=True)
    std = np.where(std > 0, std, 1.0)
    return mean, std


def _svm_fit_binary(x, y, c):
    """L2-regularized squared-hinge SVM by full-batch gradient descent.

    x is standardized, y is +-1. The objective is
        (1 / (2 C n)) ||w||^2 + mean_i max(0, 1 - y_i (x_i w + b))^2,
    smooth and convex, so plain gradient descent with a curvature-matched
    step size converges without a line search.
    """
    n, d = x.shape
    w = np.zeros(d)
    b = 0.0
    lam = 1.0 / (c * n)
    # Lipschitz bound for the gradient: lam + 2 * mean row norm^2 (plus bias)
    step = 1.0 / (lam + 2.0 * (np.mean(np.sum(x * x, axis=1)) + 1.0))
    for _ in range(500):
        margin = 1.0 - y * (x @ w + b)
        active = margin > 0.0
        coef = -2.0 * y * margin * active / n
        gw = lam * w + x.T @ coef
        gb = float(np.sum(coef))
        w -= step * gw
        b -= step * gb
    return w, b


def _svm_fit_ovr(x, labels, num_classes, c):
    ws = np.zeros((x.shape[1], num_classes))
    bs = np.zeros(num_classes)
    for k in range(num_classes):
        y = np.where(labels == k, 1.0, -1.0)
        ws[:, k], bs[k] = _svm_fit_binary(x, y, c)
    return ws, bs


def _svm_predict(x, ws, bs):
    return np.argmax(x @ ws + bs, axis=1)


def stratified_folds(labels, folds, rng):
    """Index lists for k folds, class proportions preserved.

    Falls back to plain round-robin assignment (with a warning) when some
    class has fewer members than there are folds.
    """
    labels = np.asarray(labels)
    if folds < 2:
        raise ValueError(f"need at least 2 folds, got {folds}")
    if labels.shape[0] < folds:
        raise ValueError(f"{labels.shape[0]} samples cannot fill {folds} folds")
    classes, counts = np.unique(labels, return_counts=True)
    assignments = [[] for _ in range(folds)]
    if counts.min() < folds:
        warnings.warn(
            f"class with {counts.min()} members cannot be stratified over "
            f"{folds} folds; using unstratified folds", stacklevel=2)
        order = rng.permutation(labels.shape[0])
        for pos, idx in enumerate(order):
            assignments[pos % folds].append(int(idx))
    else:
        for cls in classes:
            members = rng.permutation(np.flatnonzero(labels == cls))
            for pos, idx in enumerate(members):
                assignments[pos % folds].append(int(idx))
    return [np.sort(np.array(a, dtype=np.intp)) for a in assignments]


def _select_c(x, labels, num_classes, c_grid, rng):
    """Pick C by accuracy on a held-out tenth of the training data; ties go
    to the smallest C."""
    n = x.shape[0]
    order = rng.permutation(n)
    n_val = max(1, n // 10)
    if n - n_val < 1:
        return min(c_grid)
    val_idx, fit_idx = order[:n_val], order[n_val:]
    best_c, best_acc = None, -1.0
    for c in sorted(c_grid):
        ws, bs = _svm_fit_ovr(x[fit_idx], labels[fit_idx], num_classes, c)
        acc = accuracy_score(labels[val_idx], _svm_predict(x[val_idx], ws, bs))
        if acc > best_acc:
            best_c, best_acc = c, acc
    return best_c


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

    def to_json(self, **kwargs):
        return json.dumps(self.as_dict(), sort_keys=True, **kwargs)


def _make_report(metric, scores, hyperparameters, seed, folds, caught):
    scores = [float(s) for s in scores]
    return EvalReport(
        metric=metric,
        fold_scores=scores,
        mean=float(np.mean(scores)),
        std=float(np.std(scores)),
        hyperparameters=hyperparameters,
        seed=seed,
        folds=folds,
        warnings=caught,
    )


def linsvm_kfold(reprs, labels, folds=10, c_grid=DEFAULT_C_GRID, seed=0):
    """k-fold cross-validated linear SVM accuracy on frozen representations.

    Folds are stratified by label. Within each fold's training portion, C is
    chosen on a 10% validation split, the SVM is refit on the full training
    portion with that C, and the fold score is test accuracy. The report
    carries per-fold scores and chosen C values.
    """
    reprs = np.asarray(reprs, dtype=float)
    labels = np.asarray(labels, dtype=np.intp)
    if reprs.shape[0] != labels.shape[0]:
        raise ValueError("linsvm_kfold: representation/label count mismatch")
    if not np.isfinite(reprs).all():
        raise ValueError("linsvm_kfold: representations must be finite")
    if not c_grid:
        raise ValueError("linsvm_kfold: empty C grid")

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
        c = _select_c(x_train, labels[train_idx], num_classes, c_grid, rng)
        ws, bs = _svm_fit_ovr(x_train, labels[train_idx], num_classes, c)
        scores.append(accuracy_score(labels[test_idx], _svm_predict(x_test, ws, bs)))
        chosen.append(c)
    return _make_report("accuracy", scores, {"C": chosen, "c_grid": list(c_grid)},
                        seed, folds, caught)


def evaluate_node_split(reprs, labels, split, lr=0.01, weight_decay=0.0,
                        epochs=300, seed=0):
    """Train a logistic probe on the split's train nodes, score its test
    nodes, and package the result like a single-fold report."""
    clf = logreg_fit(reprs[split.train], np.asarray(labels)[split.train],
                     lr=lr, weight_decay=weight_decay, epochs=epochs,
                     rng=np.random.default_rng(seed))
    metrics = logreg_eval(clf, reprs[split.test], np.asarray(labels)[split.test])
    report = _make_report(
        "accuracy", [metrics["accuracy"]],
        {"lr": lr, "weight_decay": weight_decay, "epochs": epochs,
         "micro_f1": metrics["micro_f1"]},
        seed, 1, ["degenerate training labels"] if metrics["degenerate"] else [])
    return report
