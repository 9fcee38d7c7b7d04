"""Masking mechanics and the four masked-prediction objective variants,
checked against hand-worked values on tiny graphs."""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from latentgraph import engine, models, objectives
from latentgraph.engine import SparseMatrix, Value, backward, grad_check
from latentgraph.graphs import Graph, batch_graphs, make_sbm_graph
from latentgraph.models import build_model
from latentgraph.objectives import (
    VARIANTS,
    LossBreakdown,
    MaskSpec,
    apply_mask,
    mask_size,
    objective,
    sample_batch_mask,
    sample_mask,
    sample_mask_indices,
    sample_mask_noise,
)


def edge_graph(features, label=None):
    """Two nodes joined by one edge."""
    adj = SparseMatrix.from_dense([[0.0, 1.0], [1.0, 0.0]])
    return Graph(2, adj, np.asarray(features, dtype=float), label)


def small_random_graph(rng, n, d):
    dense = np.triu((rng.uniform(size=(n, n)) < 0.5).astype(float), 1)
    return Graph(n, SparseMatrix.from_dense(dense + dense.T), rng.normal(size=(n, d)))


class TestMaskSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            MaskSpec(ratio=0.0)
        with pytest.raises(ValueError):
            MaskSpec(ratio=1.2)
        with pytest.raises(ValueError):
            MaskSpec(noise_sd=-0.1)
        with pytest.raises(ValueError):
            MaskSpec(mode="dropout")

    def test_mask_size_rounds_half_up_with_floor_one(self):
        assert mask_size(17, 0.05) == 1
        assert mask_size(30, 0.05) == 2
        assert mask_size(5, 0.5) == 3
        assert mask_size(4, 1.0) == 4
        assert mask_size(1, 0.01) == 1

    def test_sample_mask_shapes_and_order(self):
        rng = np.random.default_rng(0)
        spec = MaskSpec(ratio=0.5, noise_sd=2.0)
        idx, noise = sample_mask((10, 3), spec, rng)
        assert idx.shape == (5,) and noise.shape == (5, 3)
        assert np.all(np.diff(idx) > 0)
        assert idx.min() >= 0 and idx.max() < 10

    def test_zeros_mode_noise_is_zero(self):
        rng = np.random.default_rng(1)
        _, noise = sample_mask((8, 2), MaskSpec(ratio=0.25, mode="zeros"), rng)
        np.testing.assert_array_equal(noise, 0.0)

    @pytest.mark.parametrize("mode", ["gaussian", "zeros"])
    @pytest.mark.parametrize("shape", [(10, 3), (5, 10, 3)])
    def test_sample_mask_is_its_two_halves_in_turn(self, mode, shape):
        spec = MaskSpec(ratio=0.3, noise_sd=0.7, mode=mode)
        whole_rng, split_rng = (np.random.default_rng(4) for _ in range(2))
        idx, noise = sample_mask(shape, spec, whole_rng)
        split_idx = sample_mask_indices(shape[-2], spec, split_rng)
        split_noise = sample_mask_noise(
            (*shape[:-2], len(split_idx), shape[-1]), spec, split_rng)
        assert idx.tobytes() == split_idx.tobytes()
        assert noise.shape == split_noise.shape
        assert noise.tobytes() == split_noise.tobytes()
        assert (whole_rng.bit_generator.state
                == split_rng.bit_generator.state)

    def test_apply_mask_gaussian_touches_only_masked_rows(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=(6, 2))
        idx = np.array([1, 4])
        noise = rng.normal(size=(2, 2))
        out = apply_mask(x, idx, noise)
        np.testing.assert_array_equal(out[[0, 2, 3, 5]], x[[0, 2, 3, 5]])
        np.testing.assert_array_equal(out[idx], x[idx] + noise)

    def test_apply_mask_zeros_blanks_rows(self):
        x = np.ones((4, 3))
        out = apply_mask(x, np.array([0, 3]), np.zeros((2, 3)), mode="zeros")
        np.testing.assert_array_equal(out[[0, 3]], 0.0)
        np.testing.assert_array_equal(out[[1, 2]], 1.0)
        np.testing.assert_array_equal(x, 1.0)  # input untouched

    @pytest.mark.parametrize("mode", ["gaussian", "zeros"])
    def test_stack_mask_corrupts_every_slice_alike(self, mode):
        rng = np.random.default_rng(3)
        stack = rng.normal(size=(5, 8, 3))
        spec = MaskSpec(ratio=0.25, noise_sd=0.7, mode=mode)
        idx, noise = sample_mask(stack.shape, spec, rng)
        assert idx.shape == (2,) and noise.shape == (5, 2, 3)
        out = apply_mask(stack, idx, noise, mode)
        rest = np.setdiff1d(np.arange(8), idx)
        np.testing.assert_array_equal(out[:, rest, :], stack[:, rest, :])
        for s in range(stack.shape[0]):
            np.testing.assert_array_equal(
                out[s], apply_mask(stack[s], idx, noise[s], mode))
        assert not np.array_equal(out[:, idx, :], stack[:, idx, :])

    @pytest.mark.parametrize("mode", ["gaussian", "zeros"])
    @pytest.mark.parametrize("shape", [(9, 3), (4, 9, 3)])
    def test_apply_mask_in_a_dtype_is_the_float64_copy_cast(self, mode, shape):
        rng = np.random.default_rng(5)
        x = rng.normal(size=shape)
        spec = MaskSpec(ratio=0.3, noise_sd=0.7, mode=mode)
        idx, noise = sample_mask(shape, spec, rng)
        out = apply_mask(x, idx, noise, mode, dtype=np.float32)
        assert out.dtype == np.float32
        expected = apply_mask(x, idx, noise, mode).astype(np.float32)
        assert out.tobytes() == expected.tobytes()

    def test_batch_mask_covers_every_graph(self):
        rng = np.random.default_rng(3)
        graphs = [small_random_graph(rng, n, 2) for n in (3, 7, 2)]
        batch = batch_graphs(graphs)
        idx, noise = sample_batch_mask(batch, MaskSpec(ratio=0.3), rng)
        assert noise.shape == (len(idx), 2)
        counts = []
        for i in range(3):
            start, end = batch.node_range(i)
            inside = (idx >= start) & (idx < end)
            counts.append(int(inside.sum()))
        assert counts == [mask_size(3, 0.3), mask_size(7, 0.3), mask_size(2, 0.3)]


def hand_model(decoder_gain):
    """Node-level 1-layer GCN, one-dim features, weights pinned by hand; its
    batch norm in eval mode is an exact relu."""
    model = build_model("node", "gcn", 1, 1, 1, 1, np.random.default_rng(0))
    model.encoder.layers[0].lin.W.data = np.array([[1.0]])
    model.encoder.layers[0].bn.set_identity_stats()
    model.decoder.layers[0].W.data = np.array([[decoder_gain]])
    return model


class TestHandComputedObjectives:
    """Two-node path, X = [[4],[8]], everything masked to zero.

    The normalized adjacency is [[.5,.5],[.5,.5]], so the clean embedding is
    [[6],[6]] and the corrupted one is [[0],[0]].
    """

    SPEC = MaskSpec(ratio=1.0, mode="zeros")

    def test_mse_embed_closed_form(self):
        model = hand_model(decoder_gain=1.0)
        batch = batch_graphs([edge_graph([[4.0], [8.0]])])
        out = objective(model, batch, self.SPEC, np.random.default_rng(0),
                        alpha=0.5, variant="mse-embed", training=False)
        # recon: ((6-4)^2 + (6-8)^2) / 2 = 4; invariance: sqrt((36+36)/2) = 6
        assert out.reconstruction == pytest.approx(4.0, abs=1e-12)
        assert out.invariance == pytest.approx(6.0, abs=1e-9)
        assert out.total.item() == pytest.approx(4.0 + 0.5 * 6.0, abs=1e-9)
        assert out.mask_count == 2

    def test_mse_output_uses_decoder_rows(self):
        model = hand_model(decoder_gain=2.0)
        batch = batch_graphs([edge_graph([[4.0], [8.0]])])
        out = objective(model, batch, self.SPEC, np.random.default_rng(0),
                        alpha=1.0, variant="mse-output", training=False)
        # decode scales by 2: clean output [[12],[12]], corrupted [[0],[0]]
        # recon: ((12-4)^2 + (12-8)^2) / 2 = 40; inv: sqrt((144+144)/2) = 12
        assert out.reconstruction == pytest.approx(40.0, abs=1e-12)
        assert out.invariance == pytest.approx(12.0, abs=1e-9)

    def test_graph_level_embed_compares_readouts(self):
        model = build_model("graph", "gcn", 1, 1, 1, 1, np.random.default_rng(0))
        model.encoder.layers[0].lin.W.data = np.array([[1.0]])
        model.encoder.layers[0].bn.set_identity_stats()
        model.decoder.layers[0].W.data = np.array([[1.0]])
        batch = batch_graphs([edge_graph([[4.0], [8.0]])])
        out = objective(model, batch, self.SPEC, np.random.default_rng(0),
                        alpha=1.0, variant="mse-embed", training=False)
        # readouts: clean 12, corrupted 0, divisor is the 2 masked rows
        assert out.invariance == pytest.approx(np.sqrt(144.0 / 2.0), abs=1e-9)

    def test_ce_recon_matches_manual_cross_entropy(self):
        rng = np.random.default_rng(4)
        model = build_model("node", "gcn", 2, 3, 1, 1, rng)
        feats = np.array([[1.0, 0.0], [0.0, 1.0]])
        batch = batch_graphs([edge_graph(feats)])
        out = objective(model, batch, MaskSpec(ratio=0.5), np.random.default_rng(0),
                        alpha=0.0, variant="ce-embed")
        layers = model.encoder.encode(batch, training=True)
        logits = model.decoder(layers[-1], training=True).data
        shifted = logits - logits.max(axis=1, keepdims=True)
        logp = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -np.sum(feats * logp) / 2.0
        assert out.reconstruction == pytest.approx(expected, rel=1e-12)

    def test_ce_recon_rejects_non_stochastic_rows(self):
        rng = np.random.default_rng(5)
        model = build_model("node", "gcn", 2, 3, 1, 1, rng)
        batch = batch_graphs([edge_graph([[2.0, 1.0], [0.5, 0.5]])])
        with pytest.raises(ValueError, match="sum to 1"):
            objective(model, batch, MaskSpec(ratio=0.5), np.random.default_rng(0),
                      alpha=1.0, variant="ce-embed")


class TestObjectiveProperties:
    def make_batch(self, rng, stochastic=False):
        graphs = []
        for n in (4, 6):
            g = small_random_graph(rng, n, 3)
            if stochastic:
                feats = rng.uniform(0.1, 1.0, size=(n, 3))
                feats /= feats.sum(axis=1, keepdims=True)
                g = Graph(n, g.adjacency, feats)
            graphs.append(g)
        return batch_graphs(graphs)

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("level", ["node", "graph"])
    def test_total_decomposes_exactly(self, variant, level):
        rng = np.random.default_rng(6)
        batch = self.make_batch(rng, stochastic=variant.startswith("ce-"))
        model = build_model(level, "gin", 3, 4, 2, 2, rng)
        alpha = 0.7
        out = objective(model, batch, MaskSpec(ratio=0.3), np.random.default_rng(1),
                        alpha=alpha, variant=variant)
        assert isinstance(out, LossBreakdown)
        assert out.total.item() == pytest.approx(
            out.reconstruction + alpha * out.invariance, abs=1e-12)

    def test_constant_encoder_has_negligible_invariance(self):
        rng = np.random.default_rng(7)
        batch = self.make_batch(rng)
        model = build_model("node", "gcn", 3, 4, 2, 2, rng)
        for layer in model.encoder.layers:
            layer.lin.W.data[:] = 0.0
        out = objective(model, batch, MaskSpec(ratio=0.5), np.random.default_rng(2),
                        alpha=1.0, variant="mse-embed")
        # both passes embed to zero, so only the eps floor remains
        assert out.invariance <= 1e-6 * (1 + 1e-9)

    def test_same_seed_same_loss(self):
        rng = np.random.default_rng(8)
        batch = self.make_batch(rng)
        model = build_model("graph", "gin", 3, 4, 2, 1, rng)
        vals = []
        for _ in range(2):
            out = objective(model, batch, MaskSpec(ratio=0.3),
                            np.random.default_rng(11), alpha=1.0,
                            variant="mse-embed", training=False)
            vals.append((out.total.item(), out.reconstruction, out.invariance))
        assert vals[0] == vals[1]

    def test_alpha_scales_penalty_monotonically(self):
        rng = np.random.default_rng(9)
        batch = self.make_batch(rng)
        model = build_model("node", "gcn", 3, 4, 2, 2, rng)
        totals = []
        for alpha in (0.0, 1.0, 10.0):
            out = objective(model, batch, MaskSpec(ratio=0.3),
                            np.random.default_rng(3), alpha=alpha,
                            variant="mse-embed", training=False)
            totals.append(out.total.item())
        assert totals[0] < totals[1] < totals[2]

    def test_rejects_bad_variant_and_alpha(self):
        rng = np.random.default_rng(10)
        batch = self.make_batch(rng)
        model = build_model("node", "gcn", 3, 4, 1, 1, rng)
        with pytest.raises(ValueError):
            objective(model, batch, MaskSpec(), np.random.default_rng(0),
                      alpha=1.0, variant="mse")
        with pytest.raises(ValueError):
            objective(model, batch, MaskSpec(), np.random.default_rng(0),
                      alpha=-0.5)

    def test_backward_reaches_all_parameters(self):
        rng = np.random.default_rng(12)
        batch = self.make_batch(rng)
        model = build_model("node", "gcn", 3, 4, 2, 2, rng)
        out = objective(model, batch, MaskSpec(ratio=0.5), np.random.default_rng(4),
                        alpha=1.0, variant="mse-embed")
        grads = backward(out.total)
        for name, p in model.named_parameters():
            assert p in grads, name
            assert np.isfinite(grads[p]).all(), name


class TestObjectiveGradients:
    """Finite differences through the full draw-mask / two-pass pipeline.

    The mask rng is reseeded inside the closure so every forward pass sees
    the same corruption.
    """

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_gradcheck_node_level(self, variant):
        rng = np.random.default_rng(13)
        g = small_random_graph(rng, 5, 3)
        if variant.startswith("ce-"):
            feats = rng.uniform(0.1, 1.0, size=(5, 3))
            feats /= feats.sum(axis=1, keepdims=True)
            g = Graph(5, g.adjacency, feats)
        batch = batch_graphs([g])
        model = build_model("node", "gcn", 3, 4, 2, 2, rng)

        def f():
            return objective(model, batch, MaskSpec(ratio=0.4, noise_sd=0.3),
                             np.random.default_rng(21), alpha=0.8,
                             variant=variant).total

        params = [p for _, p in model.named_parameters()]
        report = grad_check(f, params, step=1e-4, tol=1e-4)
        assert report.ok, (
            f"{variant}: max rel err {report.max_rel_err:.3e} "
            f"at {report.worst_param}/{report.worst_coord}"
        )

    def test_gradcheck_graph_level_embed(self):
        rng = np.random.default_rng(14)
        batch = batch_graphs([small_random_graph(rng, 4, 2),
                              small_random_graph(rng, 5, 2)])
        model = build_model("graph", "gin", 2, 3, 2, 1, rng)

        def f():
            return objective(model, batch, MaskSpec(ratio=0.5, noise_sd=0.3),
                             np.random.default_rng(22), alpha=0.8,
                             variant="mse-embed").total

        params = [p for _, p in model.named_parameters()]
        report = grad_check(f, params, step=1e-4, tol=1e-4)
        assert report.ok, f"max rel err {report.max_rel_err:.3e}"

    @pytest.mark.parametrize("variant", ["mse-output", "ce-embed", "ce-output"])
    def test_gradcheck_graph_level_other_variants(self, variant):
        # seed 14, the embed test's, leaves a ce-embed pre-activation within
        # one step of relu's kink (rel err 7e-2 at step 1e-4, 4e-10 at 1e-6)
        rng = np.random.default_rng(15)
        graphs = [small_random_graph(rng, 4, 2), small_random_graph(rng, 5, 2)]
        if variant.startswith("ce-"):
            for i, g in enumerate(graphs):
                feats = rng.uniform(0.1, 1.0, size=(g.num_nodes, 2))
                graphs[i] = Graph(g.num_nodes, g.adjacency,
                                  feats / feats.sum(axis=1, keepdims=True))
        batch = batch_graphs(graphs)
        model = build_model("graph", "gin", 2, 3, 2, 1, rng)

        def f():
            return objective(model, batch, MaskSpec(ratio=0.5, noise_sd=0.3),
                             np.random.default_rng(22), alpha=0.8,
                             variant=variant).total

        params = [p for _, p in model.named_parameters()]
        report = grad_check(f, params, step=1e-4, tol=1e-4)
        assert report.ok, f"{variant}: max rel err {report.max_rel_err:.3e}"


@pytest.mark.parametrize("variant", VARIANTS)
def test_no_batch_norm_output_outlives_the_objective(variant, monkeypatch):
    # each pass releases its layer outputs, and a matmul that reads a batch
    # norm output recomputes it in backward, so no array of one is kept
    rng = np.random.default_rng(16)
    graph = make_sbm_graph(60, 2, 0.2, 0.05, 3, rng)
    if variant.startswith("ce-"):
        graph = Graph(60, graph.adjacency, np.eye(3)[rng.integers(0, 3, 60)])
    model = build_model("node", "gcn", 3, 8, 2, 2, rng)
    outputs = []
    batch_norm = models.batch_norm

    def recorded(*args, **kwargs):
        out = batch_norm(*args, **kwargs)
        outputs.append(weakref.ref(out.data))
        return out

    monkeypatch.setattr(models, "batch_norm", recorded)
    out = objective(model, batch_graphs([graph]), MaskSpec(ratio=0.2),
                    np.random.default_rng(5), alpha=1.0, variant=variant)
    gc.collect()
    decoded = 2 if variant.endswith("-output") else 1
    assert len(outputs) == 2 * 2 + decoded
    assert all(ref() is None for ref in outputs)
    grads = backward(out.total)
    assert all(p in grads for p in model.parameters())


def _node_step_peak(dtype="float64"):
    """Traced peak bytes of one objective plus backward on a 4000-node SBM
    through the node preset's GCN at hidden 64 (two encoder layers, clean
    and corrupted passes)."""
    graph = make_sbm_graph(4000, 4, 0.01, 0.001, 8, np.random.default_rng(0))
    model = build_model("node", "gcn", 8, 64, 2, 1, np.random.default_rng(1),
                        dtype=dtype)
    batch = batch_graphs([graph])
    batch.normalized_adjacency(dtype)  # cached in the model's dtype; not part of the step
    spec = MaskSpec(0.05, 0.5, "gaussian")
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = objective(model, batch, spec, np.random.default_rng(2), 2.0)
        grads = backward(out.total)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(grads) > 0
    return peak


def test_node_level_step_peak_memory():
    # When every interior Value kept its data until backward the traced
    # peak was about 53 MiB; with layers releasing what no backward closure
    # reads it is about 22 MiB.
    peak = _node_step_peak()
    assert peak < 32 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def test_node_level_float32_step_peak_memory_holds_no_layer_output():
    # About 7 MiB. Holding the four encoder layer outputs and the decoder's
    # hidden output until backward, with both passes built before either
    # was released, took it to 10.4 MiB.
    peak = _node_step_peak("float32")
    assert peak < 9 * 2**20, f"peak {peak / 2**20:.1f} MiB"


def _float32_node_step_peak_arrays():
    """Traced peaks of one float32 step of the node preset's 2-layer GCN at
    hidden 64 on 8000 nodes, in arrays A of 8000 x 64 (1.95 MiB each): the
    forward's peak (when the objective has returned) and the whole step's."""
    n, hidden, features = 8000, 64, 8
    graph = make_sbm_graph(n, 8, 0.002, 0.0002, features, np.random.default_rng(0))
    model = build_model("node", "gcn", features, hidden, 2, 1,
                        np.random.default_rng(1), dtype="float32")
    batch = batch_graphs([graph])
    batch.normalized_adjacency(np.float32)  # cached; not part of the step
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        out = objective(model, batch, MaskSpec(0.05, 0.5), np.random.default_rng(2), 2.0)
        forward = tracemalloc.get_traced_memory()[1] - base
        grads = backward(out.total)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert len(grads) == len(model.parameters())
    array = n * hidden * 4
    return forward / array, peak / array


def test_node_level_float32_forward_peaks_below_three_point_seven_activations():
    # About 3.67 A. The forward used to hold the reconstruction target until
    # backward, as a parent of its loss, and [X 1] through the first layer's
    # batch norm, and peaked at about 3.90 A.
    forward, _ = _float32_node_step_peak_arrays()
    assert forward <= 3.7, f"forward peak {forward:.2f} arrays"


def test_node_level_float32_step_peaks_below_three_point_eight_activations():
    # About 3.76 A, in the backward of the corrupted pass's second-layer
    # batch norm: the two second layers' xhat, the row_select's scattered
    # gradient and that backward's 512-row blocks. It was 4.29 A, set in
    # the clean decoder's matmul backward, when a second gradient
    # contribution was always added into a third array instead of into one
    # the node owns.
    _, peak = _float32_node_step_peak_arrays()
    assert peak <= 3.8, f"step peak {peak:.2f} arrays"


def test_node_step_makes_two_wide_sparse_products_each_way(monkeypatch):
    # each pass aggregates its 8 features and a ones column first, 9 wide;
    # only the second layer multiplies by the adjacency 64 wide, once
    # forward and once backward. Aggregating every layer last made four
    # 64-wide products each way.
    graph = make_sbm_graph(500, 4, 0.05, 0.005, 8, np.random.default_rng(0))
    model = build_model("node", "gcn", 8, 64, 2, 1, np.random.default_rng(1))
    batch = batch_graphs([graph])
    batch.normalized_adjacency()
    products = []
    product = SparseMatrix._product

    def recorded(s, kernel, shape, dense):
        products.append((kernel, np.shape(dense)[1]))
        return product(s, kernel, shape, dense)

    monkeypatch.setattr(SparseMatrix, "_product", recorded)
    out = objective(model, batch, MaskSpec(0.05, 0.5), np.random.default_rng(2), 2.0)
    backward(out.total)
    assert sorted(products) == [("csc_matvecs", 64)] * 2 + [
        ("csr_matvecs", 9)] * 2 + [("csr_matvecs", 64)] * 2


def test_one_graph_batch_scores_the_outputs_without_a_row_copy(monkeypatch):
    rng = np.random.default_rng(15)
    batch = batch_graphs([small_random_graph(rng, 5, 3)])
    data = rng.normal(size=(5, 3))
    selected = []

    def counting_row_select(h, indices):
        selected.append(indices)
        return engine.row_select(h, indices)

    monkeypatch.setattr(objectives, "row_select", counting_row_select)
    outputs = Value(data)
    term = objectives._reconstruction_term(outputs, batch, "mse-embed")
    assert selected == []
    # bit for bit the loss and gradient of scoring a full-range row copy
    reference = Value(data)
    expected = engine.scale(engine.mse_per(
        engine.row_select(reference, np.arange(5)),
        engine.constant(batch.features), 5.0), 1.0)
    assert term.item() == expected.item()
    assert backward(term)[outputs].tobytes() == backward(expected)[reference].tobytes()


def test_eval_mse_output_is_theorem1s_loss_on_one_draw():
    # alpha = M/|V| with theorem 1's multiplier M = 2 sigma |V|: the objective
    # times |V| is ||f(X) - X||^2 + M sqrt(||f(X)_J - f(X~)_J||^2/|J| + eps)
    # for the one (X, J) draw, so the trainer and the bound lab state one loss
    rng = np.random.default_rng(16)
    graph = small_random_graph(rng, 12, 3)
    model = build_model("node", "gcn", 3, 5, 2, 2, rng)
    batch = batch_graphs([graph])
    spec = MaskSpec(ratio=0.25, noise_sd=1.0)
    n = graph.num_nodes
    multiplier = 2.0 * spec.noise_sd * n
    out = objective(model, batch, spec, np.random.default_rng(3), multiplier / n,
                    variant="mse-output", training=False)

    indices, noise = sample_batch_mask(batch, spec, np.random.default_rng(3))
    corrupted = apply_mask(batch.features, indices, noise, spec.mode)
    with engine.no_grad():
        def f(features):
            layers = model.encoder.encode(batch, False, features=features)
            return model.decoder(layers[-1]).data

        clean, noisy = f(batch.features), f(corrupted)
    gap = np.sum((clean[indices] - noisy[indices]) ** 2) / len(indices)
    expected = (np.sum((clean - graph.features) ** 2)
                + multiplier * np.sqrt(gap + engine.SQRT_EPS))
    assert out.total.item() * n == pytest.approx(expected, rel=1e-12)
    assert out.invariance == pytest.approx(np.sqrt(gap + engine.SQRT_EPS), rel=1e-12)


def test_eval_mse_output_averaged_over_observations_is_below_theorem1s_bound():
    # theorem 1's bound takes the root after averaging over X = F + sigma N,
    # the trainer's loss before: by Jensen the trainer's mean sits below it,
    # strictly when the disagreement varies from draw to draw
    rng = np.random.default_rng(17)
    graph = small_random_graph(rng, 12, 3)
    model = build_model("node", "gcn", 3, 5, 2, 2, rng)
    spec = MaskSpec(ratio=0.25, noise_sd=0.5)
    n = graph.num_nodes
    multiplier = 2.0 * spec.noise_sd * n
    scores = []
    for _ in range(16):
        observed = graph.features + spec.noise_sd * rng.normal(size=graph.features.shape)
        batch = batch_graphs([Graph(n, graph.adjacency, observed)])
        # one mask seed: every draw shares J and its noise
        out = objective(model, batch, spec, np.random.default_rng(3), multiplier / n,
                        variant="mse-output", training=False)
        scores.append((out.total.item(), out.reconstruction, out.invariance))
    total, reconstruction, invariance = np.array(scores).T
    gap = np.mean(invariance ** 2 - engine.SQRT_EPS)
    bound = np.mean(n * reconstruction) + multiplier * np.sqrt(gap + engine.SQRT_EPS)
    assert np.mean(n * total) <= bound
    assert bound - np.mean(n * total) > 0
