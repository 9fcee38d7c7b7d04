"""Representation extraction, metrics, the logistic probe, and the k-fold
linear SVM protocol."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from latentgraph.engine import Value, grad_check
from latentgraph.evaluation import (
    EvalReport,
    _sigmoid_bce,
    accuracy_score,
    evaluate_node_split,
    extract_graph_repr,
    extract_node_repr,
    linsvm_kfold,
    logreg_eval,
    logreg_fit,
    micro_f1_score,
    stratified_folds,
)
from latentgraph.graphs import (
    Graph,
    GraphDataset,
    NodeSplit,
    SparseMatrix,
    batch_graphs,
    make_blob_dataset,
    make_sbm_graph,
)
from latentgraph.models import build_model, readout_sum
from latentgraph.training import Adam


def blobs(rng, n_per_class, dim=2, spread=6.0):
    """Two well-separated Gaussian clusters."""
    x0 = rng.normal(0.0, 1.0, size=(n_per_class, dim))
    x1 = rng.normal(spread, 1.0, size=(n_per_class, dim))
    x = np.vstack([x0, x1])
    y = np.array([0] * n_per_class + [1] * n_per_class)
    perm = rng.permutation(len(y))
    return x[perm], y[perm]


class TestMetrics:
    def test_accuracy_basics(self):
        assert accuracy_score([0, 1, 1, 0], [0, 1, 0, 0]) == 0.75
        with pytest.raises(ValueError):
            accuracy_score([0, 1], [0, 1, 2])
        with pytest.raises(ValueError):
            accuracy_score([], [])

    def test_micro_f1_equals_accuracy_for_single_label(self):
        rng = np.random.default_rng(0)
        y_true = rng.integers(0, 4, size=200)
        y_pred = rng.integers(0, 4, size=200)
        assert micro_f1_score(y_true, y_pred, num_classes=4) == pytest.approx(
            accuracy_score(y_true, y_pred), abs=1e-15)

    def test_micro_f1_multilabel_hand_computed(self):
        y_true = np.array([[1, 0], [1, 1]])
        y_pred = np.array([[1, 1], [0, 1]])
        # TP=2, FP=1, FN=1 -> 2*2 / (4+1+1)
        assert micro_f1_score(y_true, y_pred) == pytest.approx(2 / 3)

    def test_micro_f1_empty_predictions(self):
        y_true = np.array([[1, 0]])
        y_pred = np.array([[0, 0]])
        assert micro_f1_score(y_true, y_pred) == 0.0


class TestSigmoidBce:
    def test_matches_manual_value(self):
        z = np.array([[0.5, -1.0], [2.0, 0.0]])
        t = np.array([[1.0, 0.0], [0.0, 1.0]])
        p = 1 / (1 + np.exp(-z))
        manual = -np.mean(t * np.log(p) + (1 - t) * np.log(1 - p))
        out = _sigmoid_bce(Value(z), t)
        assert out.item() == pytest.approx(manual, rel=1e-12)

    def test_gradcheck(self):
        rng = np.random.default_rng(1)
        z = Value(rng.normal(size=(4, 3)))
        t = (rng.uniform(size=(4, 3)) < 0.5).astype(float)
        report = grad_check(lambda: _sigmoid_bce(z, t), [z], step=1e-4, tol=1e-4)
        assert report.ok, f"max rel err {report.max_rel_err:.3e}"


class TestLogreg:
    def test_separable_blobs_reach_full_accuracy(self):
        rng = np.random.default_rng(2)
        x, y = blobs(rng, 20)
        clf = logreg_fit(x, y, lr=0.05, epochs=300, rng=rng)
        metrics = logreg_eval(clf, x, y)
        assert metrics["accuracy"] == 1.0
        assert metrics["micro_f1"] == 1.0
        assert not metrics["degenerate"]

    def test_shuffled_labels_sit_at_chance(self):
        rng = np.random.default_rng(3)
        x_train = rng.normal(size=(200, 5))
        y_train = rng.integers(0, 2, size=200)
        x_test = rng.normal(size=(400, 5))
        y_test = rng.integers(0, 2, size=400)
        clf = logreg_fit(x_train, y_train, lr=0.05, epochs=200, rng=rng)
        acc = logreg_eval(clf, x_test, y_test)["accuracy"]
        assert abs(acc - 0.5) <= 0.1

    def test_single_class_training_is_flagged(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 3))
        clf = logreg_fit(x, np.zeros(10, dtype=int), num_classes=2, rng=rng)
        assert clf.degenerate
        metrics = logreg_eval(clf, x, np.zeros(10, dtype=int))
        assert metrics["degenerate"]
        np.testing.assert_array_equal(clf.predict(x), 0)

    def test_weight_decay_shrinks_weights(self):
        rng = np.random.default_rng(5)
        x, y = blobs(rng, 20)
        free = logreg_fit(x, y, lr=0.05, epochs=200, rng=np.random.default_rng(9))
        decayed = logreg_fit(x, y, lr=0.05, epochs=200, weight_decay=1.0,
                             rng=np.random.default_rng(9))
        assert np.abs(decayed.W).sum() < np.abs(free.W).sum()

    def test_multilabel_mode(self):
        rng = np.random.default_rng(6)
        x = rng.normal(size=(300, 2))
        labels = np.stack([(x[:, 0] > 0), (x[:, 1] > 0)], axis=1).astype(int)
        clf = logreg_fit(x, labels, lr=0.1, epochs=300, rng=rng)
        assert clf.multilabel
        metrics = logreg_eval(clf, x, labels)
        assert metrics["micro_f1"] > 0.95
        assert 0.0 <= metrics["accuracy"] <= 1.0

    def test_each_epoch_steps_on_its_own_gradient(self, monkeypatch):
        # the gradient Adam receives at epoch 2 is the closed-form softmax
        # cross-entropy gradient at the weights epoch 2 starts from
        rng = np.random.default_rng(7)
        x, y = blobs(rng, 15, dim=3)
        real_step = Adam.step
        seen = []

        def recording(optimizer, grads):
            W, b = optimizer.params
            seen.append((W.data.copy(), b.data.copy(), grads[W].copy(),
                         grads[b].copy()))
            return real_step(optimizer, grads)

        monkeypatch.setattr(Adam, "step", recording)
        logreg_fit(x, y, lr=0.05, epochs=3, rng=rng)
        assert len(seen) == 3
        W, b, grad_W, grad_b = seen[1]
        logits = x @ W + b
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        residual = (p - np.eye(2)[y]) / len(y)
        np.testing.assert_allclose(grad_W, x.T @ residual, rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(grad_b, residual.sum(axis=0, keepdims=True),
                                   rtol=1e-9, atol=1e-15)

    def test_input_validation(self):
        with pytest.raises(ValueError, match="finite"):
            logreg_fit(np.array([[np.inf]]), np.array([0]))
        with pytest.raises(ValueError, match="mismatch"):
            logreg_fit(np.zeros((3, 2)), np.array([0, 1]))
        with pytest.raises(ValueError, match="out of range"):
            logreg_fit(np.zeros((3, 2)), np.array([0, 1, 5]), num_classes=2)


class TestStratifiedFolds:
    def test_disjoint_and_cover(self):
        rng = np.random.default_rng(7)
        labels = rng.integers(0, 3, size=67)
        folds = stratified_folds(labels, 5, rng)
        combined = np.concatenate(folds)
        assert len(combined) == 67
        assert len(np.unique(combined)) == 67

    def test_class_proportions_preserved(self):
        rng = np.random.default_rng(8)
        labels = np.array([0] * 40 + [1] * 20)
        folds = stratified_folds(labels, 5, rng)
        for fold in folds:
            counts = np.bincount(labels[fold], minlength=2)
            assert counts[0] == 8 and counts[1] == 4

    def test_small_class_falls_back_with_warning(self):
        rng = np.random.default_rng(9)
        labels = np.array([0] * 30 + [1] * 3)
        with pytest.warns(UserWarning, match="stratified"):
            folds = stratified_folds(labels, 10, rng)
        combined = np.concatenate(folds)
        assert len(np.unique(combined)) == 33

    def test_too_few_samples_or_folds(self):
        rng = np.random.default_rng(10)
        with pytest.raises(ValueError):
            stratified_folds(np.array([0, 1]), 1, rng)
        with pytest.raises(ValueError):
            stratified_folds(np.array([0, 1, 0]), 5, rng)


class TestLinearSvm:
    def test_separable_data_scores_one(self):
        rng = np.random.default_rng(11)
        x, y = blobs(rng, 25, spread=8.0)
        report = linsvm_kfold(x, y, folds=5, seed=0)
        assert report.mean == 1.0
        assert report.fold_scores == [1.0] * 5

    def test_identical_representations_give_majority_rate(self):
        x = np.ones((40, 4))
        y = np.array([0] * 25 + [1] * 15)
        report = linsvm_kfold(x, y, folds=5, seed=1)
        # stratified folds hold 5 + 3 samples each; constant features mean
        # the fitted probe can only predict the majority class
        assert report.mean == pytest.approx(25 / 40, abs=1e-12)

    def test_report_mean_std_consistent(self):
        rng = np.random.default_rng(12)
        x = rng.normal(size=(50, 3))
        y = rng.integers(0, 2, size=50)
        report = linsvm_kfold(x, y, folds=5, seed=2)
        assert report.mean == pytest.approx(np.mean(report.fold_scores), abs=1e-12)
        assert report.std == pytest.approx(np.std(report.fold_scores), abs=1e-12)
        assert report.folds == 5 and len(report.fold_scores) == 5
        assert len(report.hyperparameters["C"]) == 5

    def test_same_seed_reproduces_report(self):
        rng = np.random.default_rng(13)
        x = rng.normal(size=(40, 3))
        y = rng.integers(0, 2, size=40)
        r1 = linsvm_kfold(x, y, folds=4, seed=7)
        r2 = linsvm_kfold(x, y, folds=4, seed=7)
        assert r1.fold_scores == r2.fold_scores
        assert r1.hyperparameters == r2.hyperparameters

    def test_report_round_trips_through_json(self):
        rng = np.random.default_rng(14)
        x, y = blobs(rng, 15)
        report = linsvm_kfold(x, y, folds=3, seed=3)
        parsed = json.loads(report.to_json())
        assert parsed["mean"] == report.mean
        assert parsed["fold_scores"] == report.fold_scores
        assert parsed["metric"] == "accuracy"

    def test_small_class_warning_lands_in_report(self):
        rng = np.random.default_rng(15)
        x = rng.normal(size=(33, 2))
        y = np.array([0] * 30 + [1] * 3)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            report = linsvm_kfold(x, y, folds=10, seed=4)
        assert any("stratified" in w for w in report.warnings)

    def test_validation_errors(self):
        with pytest.raises(ValueError, match="mismatch"):
            linsvm_kfold(np.zeros((4, 2)), np.array([0, 1]))
        with pytest.raises(ValueError, match="finite"):
            linsvm_kfold(np.full((12, 2), np.nan), np.array([0, 1] * 6), folds=2)
        with pytest.raises(ValueError, match="C grid"):
            linsvm_kfold(np.zeros((12, 2)), np.array([0, 1] * 6), folds=2, c_grid=())


class TestRepresentationExtraction:
    def make_dataset(self, rng, num_graphs=6, feature_dim=4):
        return make_blob_dataset(num_graphs, 2, rng, feature_dim=feature_dim)

    def test_graph_repr_has_layers_times_hidden_columns(self):
        rng = np.random.default_rng(16)
        data = self.make_dataset(rng)
        model = build_model("graph", "gin", 4, 32, 3, 2, rng)
        reprs = extract_graph_repr(data, model.encoder)
        assert reprs.shape == (6, 96)

    def test_duplicate_graphs_get_identical_rows(self):
        rng = np.random.default_rng(17)
        g = self.make_dataset(rng)[0]
        data = GraphDataset([g, g], num_classes=2, feature_dim=4)
        model = build_model("graph", "gcn", 4, 5, 2, 1, rng)
        reprs = extract_graph_repr(data, model.encoder)
        np.testing.assert_allclose(reprs[0], reprs[1], atol=1e-12)

    def test_single_node_graph_concatenates_its_embeddings(self):
        rng = np.random.default_rng(18)
        g = Graph(1, SparseMatrix.from_coo([], [], [], (1, 1)),
                  np.array([[1.0, -2.0, 0.5, 3.0]]))
        data = GraphDataset([g], num_classes=1, feature_dim=4)
        model = build_model("graph", "gin", 4, 3, 2, 1, rng)
        reprs = extract_graph_repr(data, model.encoder)
        layers = model.encoder.encode(batch_graphs([g]), training=False)
        expected = np.hstack([h.data for h in layers])
        np.testing.assert_array_equal(reprs, expected)

    def test_batching_does_not_change_rows(self):
        rng = np.random.default_rng(19)
        data = self.make_dataset(rng, num_graphs=7)
        model = build_model("graph", "gin", 4, 5, 2, 1, rng)
        all_at_once = extract_graph_repr(data, model.encoder, batch_size=256)
        chunked = extract_graph_repr(data, model.encoder, batch_size=2)
        np.testing.assert_allclose(all_at_once, chunked, atol=1e-12)

    def test_node_repr_concat_flag(self):
        rng = np.random.default_rng(20)
        graph = make_sbm_graph(20, 2, 0.4, 0.05, 6, rng)
        model = build_model("node", "gcn", 6, 8, 2, 1, rng)
        with_raw = extract_node_repr(graph, model.encoder, concat_raw=True)
        without = extract_node_repr(graph, model.encoder, concat_raw=False)
        assert with_raw.shape == (20, 14)
        assert without.shape == (20, 8)
        np.testing.assert_array_equal(with_raw[:, :6], graph.features)
        np.testing.assert_array_equal(with_raw[:, 6:], without)

    def test_extraction_and_probing_leave_model_untouched(self):
        rng = np.random.default_rng(21)
        data = self.make_dataset(rng, num_graphs=12)
        model = build_model("graph", "gin", 4, 5, 2, 1, rng)
        before = model.parameter_checksum()
        reprs = extract_graph_repr(data, model.encoder)
        linsvm_kfold(reprs, data.labels(), folds=3, seed=0)
        assert model.parameter_checksum() == before


class TestNoGradExtraction:
    """Extraction runs under ``no_grad``: the same forward, without a DAG."""

    def trained_like(self, level, kind, feature_dim, rng):
        model = build_model(level, kind, feature_dim, 5, 2, 1, rng)
        # non-trivial running stats, so eval-mode batch norm does real work
        for _, buf in model.encoder.named_buffers():
            buf[:] = rng.uniform(0.5, 1.5, size=buf.shape)
        return model

    def test_graph_repr_is_bitwise_the_recording_forward(self):
        rng = np.random.default_rng(22)
        data = make_blob_dataset(9, 2, rng, feature_dim=4)
        model = self.trained_like("graph", "gin", 4, rng)
        reprs = extract_graph_repr(data, model.encoder, batch_size=4)
        chunks = []
        for start in range(0, len(data), 4):
            batch = batch_graphs(data.graphs[start:start + 4])
            layers = model.encoder.encode(batch, training=False)
            assert layers[-1]._parents  # this forward records
            chunks.append(np.hstack([readout_sum(h, batch).data for h in layers]))
        np.testing.assert_array_equal(reprs, np.vstack(chunks))

    def test_node_repr_is_bitwise_the_recording_forward(self):
        rng = np.random.default_rng(23)
        graph = make_sbm_graph(30, 2, 0.3, 0.05, 6, rng)
        model = self.trained_like("node", "gcn", 6, rng)
        reprs = extract_node_repr(graph, model.encoder, concat_raw=False)
        layers = model.encoder.encode(batch_graphs([graph]), training=False)
        np.testing.assert_array_equal(reprs, layers[-1].data)

    def test_graph_extraction_peak_memory(self):
        # 512 blob graphs (about 5k nodes) through GIN 3x32 in two chunks of
        # 256: recording every op's output peaks at about 45 MiB of traced
        # allocations, the DAG-free forward at about 7 MiB.
        data = make_blob_dataset(512, 2, np.random.default_rng(0))
        model = build_model("graph", "gin", data.feature_dim, 32, 3, 2,
                            np.random.default_rng(1))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            reprs = extract_graph_repr(data, model.encoder)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert reprs.shape == (512, 96)
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"


class TestNodeSplitEvaluation:
    def test_perfect_representations_score_one(self):
        rng = np.random.default_rng(22)
        labels = rng.integers(0, 3, size=60)
        reprs = np.eye(3)[labels] + 0.01 * rng.normal(size=(60, 3))
        idx = rng.permutation(60)
        split = NodeSplit(train=idx[:40], valid=idx[40:50], test=idx[50:])
        report = evaluate_node_split(reprs, labels, split, lr=0.1, epochs=200)
        assert report.folds == 1
        assert report.fold_scores == [1.0]
        assert report.metric == "accuracy"
        assert report.hyperparameters["micro_f1"] == 1.0

    def test_report_is_seed_deterministic(self):
        rng = np.random.default_rng(23)
        labels = rng.integers(0, 2, size=40)
        reprs = rng.normal(size=(40, 5))
        idx = np.arange(40)
        split = NodeSplit(train=idx[:30], valid=idx[30:35], test=idx[35:])
        r1 = evaluate_node_split(reprs, labels, split, epochs=50, seed=3)
        r2 = evaluate_node_split(reprs, labels, split, epochs=50, seed=3)
        assert r1.fold_scores == r2.fold_scores
