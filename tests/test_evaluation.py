"""Representation extraction, metrics, the logistic probe, and the k-fold
linear SVM protocol."""

import json
import tracemalloc
import warnings

import numpy as np
import pytest

from latentgraph import engine, evaluation, models
from latentgraph.engine import no_grad
from latentgraph.evaluation import (
    PROBE_LR,
    EvalReport,
    LinearClassifier,
    accuracy_score,
    evaluate_node_split,
    extract_graph_repr,
    extract_node_repr,
    linsvm_kfold,
    logreg_fit,
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

    def test_reported_micro_f1_is_accuracy(self, monkeypatch):
        # micro-F1 from the one-hot counts, 2 TP / (2 TP + FP + FN), is the
        # accuracy to the bit, and the node probe reports that value for both
        rng = np.random.default_rng(0)
        clf = LinearClassifier(W=rng.normal(size=(3, 4)), b=rng.normal(size=4))
        x = rng.normal(size=(240, 3))
        y = rng.integers(0, 4, size=240)
        monkeypatch.setattr(evaluation, "logreg_fit", lambda *args, **kwargs: clf)
        split = NodeSplit(train=np.arange(40), valid=np.arange(0), test=np.arange(40, 240))
        report = evaluate_node_split(x, y, split)
        assert report.hyperparameters["micro_f1"] == report.fold_scores[0]
        true_hot = np.eye(4, dtype=bool)[y[40:]]
        pred_hot = np.eye(4, dtype=bool)[clf.predict(x[40:])]
        tp = np.sum(true_hot & pred_hot)
        errors = np.sum(true_hot & ~pred_hot) + np.sum(~true_hot & pred_hot)
        assert 0 < tp < 200
        assert float(2 * tp / (2 * tp + errors)) == report.fold_scores[0]


class TestLogreg:
    def test_separable_blobs_reach_full_accuracy(self):
        rng = np.random.default_rng(2)
        x, y = blobs(rng, 20)
        clf = logreg_fit(x, y, epochs=300, rng=rng)
        assert accuracy_score(y, clf.predict(x)) == 1.0
        assert not clf.degenerate

    def test_shuffled_labels_sit_at_chance(self):
        rng = np.random.default_rng(3)
        x_train = rng.normal(size=(200, 5))
        y_train = rng.integers(0, 2, size=200)
        x_test = rng.normal(size=(400, 5))
        y_test = rng.integers(0, 2, size=400)
        clf = logreg_fit(x_train, y_train, epochs=200, rng=rng)
        acc = accuracy_score(y_test, clf.predict(x_test))
        assert abs(acc - 0.5) <= 0.1

    def test_single_class_training_is_flagged(self):
        rng = np.random.default_rng(4)
        x = rng.normal(size=(10, 3))
        clf = logreg_fit(x, np.zeros(10, dtype=int), rng=rng)
        assert clf.degenerate
        np.testing.assert_array_equal(clf.predict(x), 0)
        split = NodeSplit(train=np.arange(10), valid=np.arange(0), test=np.arange(10))
        report = evaluate_node_split(x, np.zeros(10, dtype=int), split)
        assert report.warnings == ["degenerate training labels"]

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
        logreg_fit(x, y, epochs=3, rng=rng)
        assert len(seen) == 3
        W, b, grad_W, grad_b = seen[1]
        logits = x @ W + b
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        residual = (p - np.eye(2)[y]) / len(y)
        np.testing.assert_allclose(grad_W, x.T @ residual, rtol=1e-9, atol=1e-15)
        np.testing.assert_allclose(grad_b, residual.sum(axis=0, keepdims=True),
                                   rtol=1e-9, atol=1e-15)

    def test_every_step_gets_a_gradient_for_W_and_b(self, monkeypatch):
        # Adam.step reads a gradient for every parameter it was given
        rng = np.random.default_rng(7)
        x, y = blobs(rng, 15, dim=3)
        real_step, keys = Adam.step, []

        def recording(optimizer, grads):
            keys.append((set(grads), set(optimizer.params)))
            return real_step(optimizer, grads)

        monkeypatch.setattr(Adam, "step", recording)
        logreg_fit(x, y, epochs=2, rng=rng)
        assert len(keys) == 2
        assert keys[0][0] == keys[0][1] and len(keys[0][1]) == 2

    def test_input_validation(self):
        with pytest.raises(ValueError, match="finite"):
            logreg_fit(np.array([[np.inf]]), np.array([0]), rng=np.random.default_rng(0))
        with pytest.raises(ValueError, match="mismatch"):
            logreg_fit(np.zeros((3, 2)), np.array([0, 1]), rng=np.random.default_rng(0))

    @pytest.mark.parametrize("epochs", [0, -5])
    def test_needs_at_least_one_epoch(self, epochs):
        with pytest.raises(ValueError, match="epochs must be at least 1"):
            logreg_fit(np.zeros((3, 2)), np.array([0, 1, 1]), epochs=epochs,
                       rng=np.random.default_rng(0))

    @pytest.mark.parametrize("labels", [
        np.array([[1, 0], [0, 1], [1, 1]]),  # a multi-label indicator matrix
        np.array([0, -1, 1]),
        np.array([0.0, 1.0, 1.0]),
    ])
    def test_labels_must_be_single_label_class_ids(self, labels):
        with pytest.raises(ValueError, match="1-D vector of nonnegative integers"):
            logreg_fit(np.zeros((3, 2)), labels, rng=np.random.default_rng(0))


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
        parsed = json.loads(json.dumps(report.as_dict(), allow_nan=False))
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

    @pytest.mark.parametrize("labels", [
        np.array([-1, 0] * 6),      # class -1 would be neither fit nor predicted
        np.array([0.5, 1.5] * 6),   # float labels would be truncated
    ])
    def test_labels_must_be_class_ids(self, labels):
        x = np.arange(24.0).reshape(12, 2)
        with pytest.raises(ValueError, match="1-D vector of nonnegative integers"):
            linsvm_kfold(x, labels, folds=2)


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
        data = GraphDataset([g, g])
        model = build_model("graph", "gcn", 4, 5, 2, 1, rng)
        reprs = extract_graph_repr(data, model.encoder)
        np.testing.assert_allclose(reprs[0], reprs[1], atol=1e-12)

    def test_single_node_graph_concatenates_its_embeddings(self):
        rng = np.random.default_rng(18)
        g = Graph(1, SparseMatrix.from_dense(np.zeros((1, 1))),
                  np.array([[1.0, -2.0, 0.5, 3.0]]))
        data = GraphDataset([g])
        model = build_model("graph", "gin", 4, 3, 2, 1, rng)
        reprs = extract_graph_repr(data, model.encoder)
        # a recorded forward releases the inner layers' data
        with no_grad():
            layers = model.encoder.encode(batch_graphs([g]), training=False)
        expected = np.hstack([h.data for h in layers])
        np.testing.assert_array_equal(reprs, expected)

    def test_batching_does_not_change_rows(self):
        rng = np.random.default_rng(19)
        data = self.make_dataset(rng, num_graphs=7)
        model = build_model("graph", "gin", 4, 5, 2, 1, rng)
        all_at_once = extract_graph_repr(data, model.encoder, max_rows=512)
        chunked = extract_graph_repr(data, model.encoder, max_rows=20)
        np.testing.assert_allclose(all_at_once, chunked, atol=1e-12)

    @pytest.mark.parametrize("counts, max_rows, expected", [
        ([3, 4, 5], 7, [(0, 2), (2, 3)]),
        ([3, 4, 5], 12, [(0, 3)]),
        ([8, 2, 2], 5, [(0, 1), (1, 3)]),   # a graph above the budget alone
        ([2, 9, 1], 5, [(0, 1), (1, 2), (2, 3)]),
        ([2, 2], 1, [(0, 1), (1, 2)]),
        ([], 4, []),
    ])
    def test_row_chunks_take_whole_graphs_up_to_the_budget(
            self, counts, max_rows, expected):
        chunks = list(evaluation._row_chunks(counts, max_rows))
        assert [(c.start, c.stop) for c in chunks] == expected

    def test_row_budget_cannot_change_rows(self, monkeypatch):
        # strict determinism makes each row's bits independent of the other
        # rows of its forward, so every budget gives the same matrix
        monkeypatch.setattr(engine, "_STRICT", True)
        rng = np.random.default_rng(24)
        small = self.make_dataset(rng, num_graphs=7).graphs
        big = make_blob_dataset(1, 2, rng, nodes_range=(30, 31), feature_dim=4)[0]
        graphs = small[:3] + [big] + small[3:]
        model = build_model("graph", "gin", 4, 5, 2, 1, rng)
        total = sum(g.num_nodes for g in graphs)
        reference = extract_graph_repr(graphs, model.encoder, max_rows=total + 1)
        for max_rows in range(1, total + 2):
            np.testing.assert_array_equal(
                extract_graph_repr(graphs, model.encoder, max_rows=max_rows),
                reference, err_msg=f"max_rows={max_rows}")
        # the 30-node graph is larger than most budgets: its row is its own
        # single-graph forward
        batch = batch_graphs([big])
        with no_grad():
            layers = model.encoder.encode(batch, training=False)
            alone = np.hstack([readout_sum(h, batch).data for h in layers])
        np.testing.assert_array_equal(reference[3:4], alone)

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
        before = {k: v.copy() for k, v in model.state_arrays().items()}
        reprs = extract_graph_repr(data, model.encoder)
        linsvm_kfold(reprs, data.labels(), folds=3, seed=0)
        after = model.state_arrays()
        assert after.keys() == before.keys()
        for name, array in before.items():
            np.testing.assert_array_equal(after[name], array, err_msg=name)


class TestNoGradExtraction:
    """Extraction runs under ``no_grad``: the same forward, without a DAG."""

    def trained_like(self, level, kind, feature_dim, rng):
        model = build_model(level, kind, feature_dim, 5, 2, 1, rng)
        # non-trivial running stats, so eval-mode batch norm does real work
        for _, buf in model.encoder.named_buffers():
            buf[:] = rng.uniform(0.5, 1.5, size=buf.shape)
        return model

    def test_graph_repr_is_bitwise_the_recording_forward(self, monkeypatch):
        rng = np.random.default_rng(22)
        data = make_blob_dataset(9, 2, rng, feature_dim=4)
        model = self.trained_like("graph", "gin", 4, rng)
        reprs = extract_graph_repr(data, model.encoder, max_rows=40)
        # the recording forward keeps every layer's data: releasing changes
        # no value, it only drops the inner layers' arrays
        monkeypatch.setattr(models, "release", lambda *values: None)
        chunks = []
        counts = [g.num_nodes for g in data.graphs]
        for part in evaluation._row_chunks(counts, 40):
            batch = batch_graphs(data.graphs[part])
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

    @staticmethod
    def _traced_peak(fn):
        """(peak traced bytes above the start, result) of ``fn()``."""
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            result = fn()
            return tracemalloc.get_traced_memory()[1] - base, result
        finally:
            tracemalloc.stop()

    @staticmethod
    def _blob_gin(num_graphs=512):
        data = make_blob_dataset(num_graphs, 2, np.random.default_rng(0))
        model = build_model("graph", "gin", data.feature_dim, 32, 3, 2,
                            np.random.default_rng(1))
        return data, model

    def test_graph_extraction_peak_memory(self):
        # 512 blob graphs (about 5k nodes) through GIN 3x32 in chunks of at
        # most 512 node rows peak at about 1 MiB of traced allocations. A
        # forward that records every op's output peaked at about 45 MiB on
        # 256 of them, and the DAG-free one at about 7 MiB.
        data, model = self._blob_gin()
        peak, reprs = self._traced_peak(
            lambda: extract_graph_repr(data, model.encoder))
        assert reprs.shape == (512, 96)
        assert peak < 16 * 2**20, f"peak {peak / 2**20:.1f} MiB"

    def test_a_chunk_is_freed_before_the_next_forward(self):
        # the same 64 graphs as one chunk and as two: the second chunk's
        # forward may not run while the first one's batch and layer outputs
        # are alive, so only the larger output separates the peaks
        data, model = self._blob_gin(64)
        graphs = data.graphs
        rows = sum(g.num_nodes for g in graphs)
        one, _ = self._traced_peak(
            lambda: extract_graph_repr(graphs, model.encoder, max_rows=rows))
        two, reprs = self._traced_peak(
            lambda: extract_graph_repr(graphs + graphs, model.encoder, max_rows=rows))
        assert reprs.shape == (128, 96)
        assert two <= one + reprs.nbytes + 64 * 2**10, (
            f"two chunks {two / 2**10:.0f} KiB, one {one / 2**10:.0f} KiB")

    def test_extraction_peak_follows_the_row_budget(self):
        # all 512 graphs peak no higher than the first budget's worth of
        # them, one forward of nearly 512 rows: only the larger output
        # separates the peaks, not the number of graphs
        data, model = self._blob_gin()
        first = next(evaluation._row_chunks([g.num_nodes for g in data.graphs], 512))
        one, _ = self._traced_peak(
            lambda: extract_graph_repr(data.graphs[first], model.encoder))
        every, reprs = self._traced_peak(
            lambda: extract_graph_repr(data, model.encoder))
        assert reprs.shape == (512, 96)
        assert every <= one + reprs.nbytes + 64 * 2**10, (
            f"512 graphs {every / 2**10:.0f} KiB, one budget {one / 2**10:.0f} KiB")


class TestNodeSplitEvaluation:
    def test_perfect_representations_score_one(self):
        rng = np.random.default_rng(22)
        labels = rng.integers(0, 3, size=60)
        reprs = np.eye(3)[labels] + 0.01 * rng.normal(size=(60, 3))
        idx = rng.permutation(60)
        split = NodeSplit(train=idx[:40], valid=idx[40:50], test=idx[50:])
        report = evaluate_node_split(reprs, labels, split)
        assert report.folds == 1
        assert report.fold_scores == [1.0]
        assert report.metric == "accuracy"
        assert report.hyperparameters["micro_f1"] == 1.0

    def test_test_class_absent_from_training_is_scored(self):
        # the probe knows classes 0 and 1 only, so every class-2 test node is
        # a miss; the rest are separable and all hit
        rng = np.random.default_rng(24)
        labels = np.repeat([0, 1, 2], 20)
        reprs = np.eye(3)[labels] + 0.01 * rng.normal(size=(60, 3))
        train = np.r_[0:15, 20:35]
        test = np.r_[15:20, 35:60]
        split = NodeSplit(train=train, valid=train[:0], test=test)
        report = evaluate_node_split(reprs, labels, split)
        assert report.fold_scores == [10 / 30]
        assert report.hyperparameters["micro_f1"] == 10 / 30
        assert report.warnings == []

    @pytest.mark.parametrize("dtype, width", [(np.float64, 72), (np.float32, 64)])
    def test_report_is_that_of_scoring_copied_test_rows(self, dtype, width):
        # float64 like raw features concatenated to the embeddings, float32
        # like embeddings alone; shuffled, non-contiguous test rows, more
        # than two blocks of rows the probe scores at once
        n = 2 * evaluation._PREDICT_ROWS + 300
        rng = np.random.default_rng(26)
        labels = rng.integers(0, 4, size=n)
        reprs = (rng.normal(size=(n, width)) + np.eye(4, width)[labels]).astype(dtype)
        idx = rng.permutation(n)
        split = NodeSplit(train=idx[:300], valid=idx[300:360], test=idx[360:])
        report = evaluate_node_split(reprs, labels, split, epochs=40, seed=5)
        clf = logreg_fit(reprs[split.train], labels[split.train], epochs=40,
                         rng=np.random.default_rng(5))
        # one product over a float64 copy of the test rows
        test_rows = np.asarray(reprs[split.test], dtype=float)
        predicted = np.argmax(test_rows @ clf.W + clf.b, axis=1)
        np.testing.assert_array_equal(clf.predict(reprs)[split.test], predicted)
        accuracy = accuracy_score(labels[split.test], predicted)
        assert 0.3 < accuracy < 1.0
        expected = EvalReport(
            metric="accuracy", fold_scores=[accuracy], mean=accuracy, std=0.0,
            hyperparameters={"lr": PROBE_LR, "epochs": 40, "micro_f1": accuracy},
            seed=5, folds=1, warnings=[])
        assert report.as_dict() == expected.as_dict()

    def test_report_is_seed_deterministic(self):
        rng = np.random.default_rng(23)
        labels = rng.integers(0, 2, size=40)
        reprs = rng.normal(size=(40, 5))
        idx = np.arange(40)
        split = NodeSplit(train=idx[:30], valid=idx[30:35], test=idx[35:])
        r1 = evaluate_node_split(reprs, labels, split, epochs=50, seed=3)
        r2 = evaluate_node_split(reprs, labels, split, epochs=50, seed=3)
        assert r1.fold_scores == r2.fold_scores
