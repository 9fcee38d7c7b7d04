"""Optimizer math, config handling, the training loop's determinism, and
bit-exact checkpoint round-trips."""

import base64
import copy
import dataclasses
import json
import pathlib
import tracemalloc

import numpy as np
import pytest

from latentgraph.engine import Value, backward
from latentgraph.graphs import make_blob_dataset, make_sbm_graph, batch_graphs
from latentgraph.models import LEVELS, build_model
from latentgraph.objectives import VARIANTS, mask_size, objective
from latentgraph import graphs, training
from latentgraph.training import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    Adam,
    CheckpointError,
    EpochStats,
    NonFiniteGradientError,
    NonFiniteLossError,
    NonFiniteUpdateError,
    TrainConfig,
    load_checkpoint,
    preset_config,
    save_checkpoint,
    train,
)


class LoopAdam:
    """Adam as a loop over the parameters, each with its own moments: the
    reference the flat step must reproduce bit for bit."""

    def __init__(self, arrays, lr):
        self.data = [a.copy() for a in arrays]
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.lr, self.t = lr, 0

    def step(self, grads):
        self.t += 1
        bc1 = 1.0 - ADAM_BETA1 ** self.t
        bc2 = 1.0 - ADAM_BETA2 ** self.t
        for i, g in enumerate(grads):
            m = ADAM_BETA1 * self.m[i] + (1.0 - ADAM_BETA1) * g
            v = ADAM_BETA2 * self.v[i] + (1.0 - ADAM_BETA2) * (g * g)
            self.data[i] = (self.data[i]
                            - self.lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS))
            self.m[i], self.v[i] = m, v


class TestAdam:
    def test_first_step_magnitude_is_lr(self):
        p = Value(np.array([[1.0, -2.0], [3.0, 0.5]]))
        opt = Adam([p], lr=0.01)
        g = np.array([[0.3, -1.7], [2.0, 0.001]])
        before = p.data.copy()
        opt.step({p: g})
        update = p.data - before
        # with fresh moments the step is -lr * g / (|g| + eps)
        np.testing.assert_allclose(np.abs(update), 0.01, rtol=1e-4)
        np.testing.assert_array_equal(np.sign(update), -np.sign(g))

    def test_zero_gradient_leaves_parameter_alone(self):
        p = Value(np.array([[2.0]]))
        opt = Adam([p], lr=0.1)
        opt.step({p: np.zeros((1, 1))})
        assert p.data[0, 0] == 2.0

    def test_rejects_bad_hyperparameters(self):
        p = Value(np.ones((1, 1)))
        with pytest.raises(ValueError, match="lr must be nonnegative"):
            Adam([p], lr=-1.0)

    def test_parameters_of_two_dtypes_are_refused(self):
        # one flat moment array holds every parameter's moments, so a mix
        # would upcast the float32 ones
        p = Value(np.ones((2, 3)))
        q = Value(np.ones((1, 3), dtype=np.float32))
        with pytest.raises(ValueError, match="one dtype"):
            Adam([p, q])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("lr", [1e-5, 1e-3])
    def test_flat_step_matches_a_per_parameter_loop_bit_for_bit(self, dtype,
                                                                lr):
        rng = np.random.default_rng(11)
        shapes = [(7, 32), (1, 32), (32, 7)]
        params = [Value(rng.standard_normal(s).astype(dtype)) for s in shapes]
        reference = LoopAdam([p.data for p in params], lr)
        opt = Adam(params, lr=lr)
        for _ in range(5):
            # magnitudes over six decades, so the moments' roundings differ
            grads = [(rng.standard_normal(s) * 10.0 ** rng.uniform(-4, 2, s))
                     .astype(dtype) for s in shapes]
            opt.step(dict(zip(params, grads)))
            reference.step(grads)
        assert opt.t == reference.t == 5
        for p, data, shape in zip(params, reference.data, shapes):
            assert p.data.shape == shape and p.data.dtype == dtype
            assert p.data.tobytes() == data.tobytes()
        for flat, moments in ((opt._m, reference.m), (opt._v, reference.v)):
            assert flat.dtype == dtype
            assert flat.tobytes() == b"".join(m.tobytes() for m in moments)

    def test_non_finite_gradient_names_its_parameter_and_changes_nothing(self):
        params = [Value(np.full((2, 3), 1.0)), Value(np.full((1, 3), 2.0)),
                  Value(np.full((3, 2), 3.0))]
        opt = Adam(params, lr=0.1)
        grads = {p: np.ones(p.shape) for p in params}
        grads[params[1]][0, 1] = np.nan
        with pytest.raises(NonFiniteGradientError,
                           match="^non-finite gradient of a parameter$") as info:
            opt.step(grads)
        assert info.value.param is params[1]
        assert opt.t == 0
        assert not opt._m.any() and not opt._v.any()
        for p, value in zip(params, (1.0, 2.0, 3.0)):
            np.testing.assert_array_equal(p.data, value)

    def test_non_finite_update_changes_nothing(self):
        # lr * m_hat overflows for the second parameter only; the first,
        # whose new values are finite, must not be assigned either
        p = Value(np.array([[1.0, -2.0]]))
        q = Value(np.array([[0.5]]))
        opt = Adam([p, q], lr=1e300)
        with pytest.raises(NonFiniteUpdateError) as info:
            opt.step({p: np.array([[1e-3, 2e-3]]), q: np.array([[1e10]])})
        assert info.value.param is q
        np.testing.assert_array_equal(p.data, [[1.0, -2.0]])
        np.testing.assert_array_equal(q.data, [[0.5]])
        assert opt.t == 0
        assert not opt._m.any() and not opt._v.any()

    def test_converges_on_quadratic(self):
        p = Value(np.array([[5.0, -3.0]]))
        opt = Adam([p], lr=0.05)
        for _ in range(2000):
            opt.step({p: 2.0 * p.data})
        np.testing.assert_allclose(p.data, 0.0, atol=1e-4)


class TestTrainConfig:
    def test_defaults_validate(self):
        TrainConfig().validate()

    @pytest.mark.parametrize("kwargs", [
        dict(level="edge"),
        dict(encoder="gat"),
        dict(variant="mse"),
        dict(epochs=0),
        dict(batch_size=0),
        dict(lr=0.0),
        dict(alpha=-1.0),
        dict(mask_ratio=0.0),
        dict(noise_sd=-1.0),
        dict(subgraph_nodes=-5),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs).validate()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("name", ["alpha", "lr", "noise_sd"])
    def test_rejects_non_finite(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be .*finite"):
            TrainConfig(**{name: float(value)}).validate()

    def test_presets_exist_and_validate(self):
        molecule = preset_config("molecule")
        assert molecule.level == "graph" and molecule.encoder == "gin"
        assert molecule.mask_ratio == 0.05 and molecule.alpha == 10.0
        protein = preset_config("protein")
        assert protein.mask_ratio == 0.3 and protein.noise_sd == 2.0
        node = preset_config("node")
        assert node.level == "node" and node.hidden_dim == 512
        assert {name: preset_config(name).dtype for name in training.PRESETS} == {
            "molecule": "float32", "protein": "float32", "node": "float32"}

    def test_preset_overrides(self):
        cfg = preset_config("molecule", epochs=3, hidden_dim=8)
        assert cfg.epochs == 3 and cfg.hidden_dim == 8
        assert cfg.alpha == 10.0

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_config("imagenet")

    def test_subgraph_nodes_only_on_node_level_runs(self):
        with pytest.raises(ValueError, match="subgraph_nodes .*graph-level"):
            TrainConfig(level="graph", subgraph_nodes=5).validate()
        with pytest.raises(ValueError, match="subgraph_nodes .*graph-level"):
            preset_config("molecule", subgraph_nodes=5)
        assert preset_config("node", subgraph_nodes=5).subgraph_nodes == 5
        assert TrainConfig(level="graph", subgraph_nodes=0).validate()


def tiny_config(**overrides):
    base = dict(level="graph", encoder="gin", hidden_dim=6, encoder_layers=2,
                decoder_layers=1, alpha=1.0, mask_ratio=0.3, noise_sd=0.5,
                lr=1e-3, batch_size=4, epochs=2, seed=7)
    base.update(overrides)
    return TrainConfig(**base).validate()


class TestTrainLoop:
    def make_data(self, seed=0, num_graphs=12):
        return make_blob_dataset(num_graphs, 2, np.random.default_rng(seed))

    def test_history_shape_and_step_counts(self):
        data = self.make_data()
        cfg = tiny_config(epochs=3, batch_size=5)
        model = build_model("graph", cfg.encoder, data.feature_dim,
                            cfg.hidden_dim, cfg.encoder_layers,
                            cfg.decoder_layers, np.random.default_rng(cfg.seed))
        history = train(model, data, cfg)
        assert len(history) == 3
        assert all(isinstance(h, EpochStats) for h in history)
        # 12 graphs in batches of 5 -> 3 steps per epoch
        assert [h.steps for h in history] == [3, 3, 3]

    def test_same_seed_bitwise_identical_histories(self):
        data = self.make_data()
        cfg = tiny_config()
        runs = []
        for _ in range(2):
            model = build_model("graph", cfg.encoder, data.feature_dim,
                                cfg.hidden_dim, cfg.encoder_layers,
                                cfg.decoder_layers, np.random.default_rng(cfg.seed))
            history = train(model, data, cfg)
            runs.append([(h.loss, h.reconstruction, h.invariance) for h in history])
        assert runs[0] == runs[1]

    def test_different_seed_different_losses(self):
        data = self.make_data()
        model_a = build_model("graph", "gin", data.feature_dim, 6, 2, 1,
                              np.random.default_rng(0))
        model_b = build_model("graph", "gin", data.feature_dim, 6, 2, 1,
                              np.random.default_rng(0))
        h_a = train(model_a, data, tiny_config(seed=1, epochs=1))
        h_b = train(model_b, data, tiny_config(seed=2, epochs=1))
        assert h_a[0].loss != h_b[0].loss

    def test_loss_decreases_on_blob_corpus(self):
        data = self.make_data(seed=3, num_graphs=20)
        cfg = tiny_config(epochs=15, lr=3e-3, seed=11)
        model = build_model("graph", cfg.encoder, data.feature_dim,
                            cfg.hidden_dim, cfg.encoder_layers,
                            cfg.decoder_layers, np.random.default_rng(1))
        history = train(model, data, cfg)
        assert history[-1].loss < history[0].loss

    def test_log_lines_are_sorted_json(self, tmp_path):
        data = self.make_data()
        cfg = tiny_config(epochs=2, batch_size=6)
        model = build_model("graph", cfg.encoder, data.feature_dim,
                            cfg.hidden_dim, cfg.encoder_layers,
                            cfg.decoder_layers, np.random.default_rng(0))
        log_path = tmp_path / "loss.jsonl"
        with open(log_path, "w") as fh:
            train(model, data, cfg, log_fh=fh)
        lines = log_path.read_text().splitlines()
        assert len(lines) == 2 * 2  # 12 graphs / batch 6 = 2 steps, 2 epochs
        for line in lines:
            record = json.loads(line)
            assert list(record) == sorted(record)
            assert {"epoch", "step", "loss", "reconstruction",
                    "invariance", "mask_count"} <= set(record)

    def test_node_level_full_graph_and_subgraph(self):
        graph = make_sbm_graph(40, 2, 0.3, 0.05, 5, np.random.default_rng(4))
        cfg = TrainConfig(level="node", encoder="gcn", hidden_dim=8,
                          encoder_layers=2, decoder_layers=1, epochs=2,
                          batch_size=1, lr=1e-3, seed=9,
                          subgraph_nodes=10).validate()
        model = build_model("node", "gcn", 5, 8, 2, 1, np.random.default_rng(0))
        import io
        buf = io.StringIO()
        history = train(model, graph, cfg, log_fh=buf)
        assert len(history) == 2 and history[0].steps == 1
        for line in buf.getvalue().splitlines():
            record = json.loads(line)
            assert record["mask_count"] == mask_size(10, cfg.mask_ratio)

    def test_subgraph_nodes_above_the_node_count_is_refused(self):
        # the graph's own node count trains on the full graph, as 0 does;
        # a larger size is refused, not run as a full-graph run that
        # records the size
        graph = make_sbm_graph(60, 3, 0.2, 0.02, 4, np.random.default_rng(4))

        def run(subgraph_nodes):
            cfg = TrainConfig(level="node", encoder="gcn", hidden_dim=8,
                              encoder_layers=2, decoder_layers=1, epochs=2,
                              seed=9, subgraph_nodes=subgraph_nodes).validate()
            model = build_model("node", "gcn", 4, 8, 2, 1, np.random.default_rng(0))
            return train(model, graph, cfg)

        with pytest.raises(ValueError, match="subgraph_nodes 500 exceeds the graph's 60 nodes"):
            run(500)
        assert run(60) == run(0)

    def test_one_node_subgraphs_are_refused(self):
        # batch norm over a single row zeroes every activation, so one-node
        # subgraphs would leave every encoder parameter where it started;
        # two-node subgraphs train them all
        graph = make_sbm_graph(60, 3, 0.2, 0.02, 4, np.random.default_rng(4))
        config = TrainConfig(level="node", encoder="gcn", hidden_dim=8,
                             encoder_layers=2, decoder_layers=1, epochs=2,
                             seed=9)
        with pytest.raises(ValueError, match=r"0 \(whole graph\) or at least 2"):
            dataclasses.replace(config, subgraph_nodes=1).validate()
        model = build_model("node", "gcn", 4, 8, 2, 1, np.random.default_rng(0))
        before = {name: v.data.copy() for name, v in model.named_parameters()}
        train(model, graph, dataclasses.replace(config, subgraph_nodes=2))
        encoder = [(name, v.data) for name, v in model.named_parameters()
                   if name.startswith("encoder.")]
        assert encoder and not any(np.array_equal(data, before[name])
                                   for name, data in encoder)

    def test_full_graph_is_batched_once(self, monkeypatch):
        calls = []

        def counting(graph_list):
            calls.append(len(graph_list))
            return batch_graphs(graph_list)

        monkeypatch.setattr(training, "batch_graphs", counting)
        graph = make_sbm_graph(30, 2, 0.3, 0.05, 5, np.random.default_rng(4))
        cfg = TrainConfig(level="node", encoder="gcn", hidden_dim=8,
                          encoder_layers=2, decoder_layers=1, epochs=3,
                          lr=1e-3, seed=9).validate()
        model = build_model("node", "gcn", 5, 8, 2, 1, np.random.default_rng(0))
        history = train(model, graph, cfg)
        assert [h.steps for h in history] == [1, 1, 1]
        assert calls == [1]

    def test_graph_level_batches_are_built_one_step_at_a_time(self, monkeypatch):
        built = []

        def counting(graph_list):
            built.append(len(graph_list))
            return batch_graphs(graph_list)

        class Log:
            def __init__(self):
                self.built_at_write = []

            def write(self, text):
                self.built_at_write.append(len(built))

        monkeypatch.setattr(training, "batch_graphs", counting)
        data = self.make_data()
        log = Log()
        history = train(build_model("graph", "gin", data.feature_dim, 6, 2, 1,
                                    np.random.default_rng(0)),
                        data, tiny_config(epochs=2), log_fh=log)
        # 12 graphs in batches of 4: each step's batch is built just before
        # its loss line, not all of an epoch's batches before its first step
        assert [h.steps for h in history] == [3, 3]
        assert built == [4] * 6
        assert log.built_at_write == [1, 2, 3, 4, 5, 6]

    @pytest.mark.parametrize("term", ["reconstruction", "invariance", "total"])
    def test_non_finite_loss_stops_naming_epoch_step_and_term(self, term,
                                                              monkeypatch):
        real = training.objective
        seen = []

        def poisoned(*args, **kwargs):
            out = real(*args, **kwargs)
            seen.append(out)
            if len(seen) == 5:  # three steps per epoch: epoch 1, step 1
                if term == "total":
                    out.total.data[0, 0] = np.inf
                else:
                    setattr(out, term, np.nan)
            return out

        monkeypatch.setattr(training, "objective", poisoned)
        data = self.make_data()
        cfg = tiny_config(epochs=3, batch_size=4)
        model = build_model("graph", cfg.encoder, data.feature_dim,
                            cfg.hidden_dim, cfg.encoder_layers,
                            cfg.decoder_layers, np.random.default_rng(0))
        import io
        log = io.StringIO()
        with pytest.raises(NonFiniteLossError,
                           match=f"non-finite {term} loss .* epoch 1, step 1"):
            train(model, data, cfg, log_fh=log)
        assert len(seen) == 5
        assert len(log.getvalue().splitlines()) == 4

    def test_non_finite_gradient_stops_before_the_update(self, monkeypatch):
        data = self.make_data()
        cfg = tiny_config(epochs=3, batch_size=4)
        model = build_model("graph", cfg.encoder, data.feature_dim,
                            cfg.hidden_dim, cfg.encoder_layers,
                            cfg.decoder_layers, np.random.default_rng(0))
        bias = model.decoder.layers[0].b
        real = training.backward
        calls, before = [], {}

        def poisoned(loss):
            grads = real(loss)
            calls.append(1)
            if len(calls) == 5:  # three steps per epoch: epoch 1, step 1
                grads[bias] = np.full(bias.shape, np.nan)
                before.update((name, v.data.copy())
                              for name, v in model.named_parameters())
            return grads

        monkeypatch.setattr(training, "backward", poisoned)
        import io
        log = io.StringIO()
        with pytest.raises(NonFiniteGradientError,
                           match="gradient of decoder.0.b at epoch 1, step 1"):
            train(model, data, cfg, log_fh=log)
        assert len(log.getvalue().splitlines()) == 4
        for name, v in model.named_parameters():
            np.testing.assert_array_equal(v.data, before[name])

    @pytest.mark.parametrize("level", LEVELS)
    @pytest.mark.parametrize("variant", VARIANTS)
    def test_every_parameter_gets_a_gradient(self, variant, level,
                                             monkeypatch):
        # Adam.step reads a gradient for every parameter: no level or
        # objective variant leaves one out of the map backward returns
        if level == "graph":
            data, encoder = self.make_data(), "gin"
        else:
            data = make_sbm_graph(40, 2, 0.3, 0.05, 5, np.random.default_rng(4))
            encoder = "gcn"
        if variant.startswith("ce-"):  # cross-entropy needs rows on the simplex
            for g in (data.graphs if level == "graph" else [data]):
                g.features = np.eye(g.feature_dim)[g.features.argmax(axis=1)]
        cfg = tiny_config(level=level, encoder=encoder, variant=variant,
                          epochs=1)
        model = build_model(level, encoder, data.feature_dim, cfg.hidden_dim,
                            cfg.encoder_layers, cfg.decoder_layers,
                            np.random.default_rng(0))
        real_step, keys = Adam.step, []

        def recording(optimizer, grads):
            keys.append(set(grads))
            return real_step(optimizer, grads)

        monkeypatch.setattr(Adam, "step", recording)
        train(model, data, cfg)
        assert keys[0] == set(model.parameters())

    def test_non_finite_update_stops_before_any_parameter_moves(self):
        data = self.make_data()
        cfg = tiny_config(lr=1e300, alpha=1e300)
        model = build_model("graph", cfg.encoder, data.feature_dim,
                            cfg.hidden_dim, cfg.encoder_layers,
                            cfg.decoder_layers, np.random.default_rng(0))
        before = {name: v.data.copy() for name, v in model.named_parameters()}
        import io
        log = io.StringIO()
        with pytest.raises(NonFiniteUpdateError,
                           match=r"update of \S+ at epoch 0, step 0"):
            train(model, data, cfg, log_fh=log)
        assert log.getvalue() == ""
        for name, v in model.named_parameters():
            np.testing.assert_array_equal(v.data, before[name])

    def test_optimizer_gets_the_gradient_of_its_own_step_only(self,
                                                              monkeypatch):
        # the map Adam receives at its second step must equal the gradient
        # of the second step's objective, recomputed from the parameters and
        # the mask draw in effect just before that step
        data = self.make_data()
        cfg = tiny_config(epochs=1, batch_size=4)
        model = build_model("graph", cfg.encoder, data.feature_dim,
                            cfg.hidden_dim, cfg.encoder_layers,
                            cfg.decoder_layers, np.random.default_rng(0))
        real_objective, real_step = training.objective, Adam.step
        before, received = [], []

        def snapshot(model_, batch, spec, rng, *args, **kwargs):
            before.append(({n: v.data.copy() for n, v in
                            model_.named_parameters()},
                           batch, copy.deepcopy(rng), args, kwargs))
            return real_objective(model_, batch, spec, rng, *args, **kwargs)

        def recording(optimizer, grads):
            received.append({p: g.copy() for p, g in grads.items()})
            return real_step(optimizer, grads)

        monkeypatch.setattr(training, "objective", snapshot)
        monkeypatch.setattr(Adam, "step", recording)
        train(model, data, cfg)
        assert len(received) == 3

        params, batch, rng, args, kwargs = before[1]
        for name, v in model.named_parameters():
            v.data = params[name]
        expected = backward(real_objective(model, batch, cfg.mask_spec(), rng,
                                           *args, **kwargs).total)
        for name, v in model.named_parameters():
            np.testing.assert_allclose(received[1][v], expected[v],
                                       rtol=1e-12, atol=0, err_msg=name)

    def test_nan_parameters_stop_training_at_the_first_step(self):
        data = self.make_data()
        cfg = tiny_config()
        model = build_model("graph", cfg.encoder, data.feature_dim,
                            cfg.hidden_dim, cfg.encoder_layers,
                            cfg.decoder_layers, np.random.default_rng(0))
        model.decoder.layers[-1].W.data[:] = np.nan
        with pytest.raises(NonFiniteLossError,
                           match="non-finite reconstruction loss .* epoch 0, step 0"):
            train(model, data, cfg)

    def test_level_mismatch_between_config_and_model(self):
        data = self.make_data()
        model = build_model("node", "gcn", data.feature_dim, 4, 1, 1,
                            np.random.default_rng(0))
        with pytest.raises(ValueError, match="level"):
            train(model, data, tiny_config())

    def test_dtype_mismatch_between_config_and_model(self):
        data = self.make_data()
        model = build_model("graph", "gin", data.feature_dim, 4, 1, 1,
                            np.random.default_rng(0), dtype="float32")
        with pytest.raises(ValueError, match="dtype"):
            train(model, data, tiny_config())

    def test_one_node_preset_step_stays_in_float32(self, monkeypatch):
        graph = make_sbm_graph(40, 2, 0.3, 0.05, 5, np.random.default_rng(4))
        cfg = preset_config("node", hidden_dim=8, epochs=1)
        assert cfg.dtype == "float32"
        model = build_model("node", "gcn", 5, 8, cfg.encoder_layers,
                            cfg.decoder_layers, np.random.default_rng(0),
                            dtype=cfg.dtype)
        seen = {}
        real_step = Adam.step

        def step(optimizer, grads):
            real_step(optimizer, grads)
            seen["grads"] = list(grads.values())
            seen["moments"] = [optimizer._m, optimizer._v]

        monkeypatch.setattr(Adam, "step", step)
        assert train(model, graph, cfg)[0].steps == 1
        arrays = {"grads": seen["grads"], "moments": seen["moments"],
                  "params": [p.data for p in model.parameters()],
                  "buffers": [b for _, b in model.named_buffers()]}
        assert len(arrays["grads"]) == len(arrays["params"])
        assert arrays["buffers"]
        for kind, group in arrays.items():
            assert {a.dtype for a in group} == {np.dtype(np.float32)}, kind

    def test_first_node_preset_step_peak_memory(self):
        # The trainer's first full-graph step: batch the graph, normalise
        # its adjacency inside the objective, run backward. About 7.7
        # n x hidden float32 arrays at peak, and the batch keeps only the
        # float32 normalised adjacency (about 0.8). Copying the graph into
        # the batch and keeping the float64 normalisation beside its
        # float32 cast took 9.8 at peak and kept 2.9.
        graph = make_sbm_graph(4000, 4, 0.01, 0.001, 8, np.random.default_rng(0))
        cfg = preset_config("node", hidden_dim=64)
        model = build_model("node", "gcn", 8, 64, cfg.encoder_layers,
                            cfg.decoder_layers, np.random.default_rng(1),
                            dtype=cfg.dtype)
        array = 4000 * 64 * np.dtype(cfg.dtype).itemsize
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            batch = batch_graphs([graph])
            out = objective(model, batch, cfg.mask_spec(), np.random.default_rng(2),
                            cfg.alpha, cfg.variant)
            grads = backward(out.total)
            held, peak = (m - base for m in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(grads) == len(model.parameters())
        assert peak < 8.5 * array, f"peak {peak / array:.2f} arrays"
        assert held < 1.25 * array, f"held {held / array:.2f} arrays"

    def test_wrong_data_type_for_level(self):
        graph = make_sbm_graph(10, 2, 0.3, 0.1, 3, np.random.default_rng(0))
        model = build_model("graph", "gin", 3, 4, 1, 1, np.random.default_rng(0))
        with pytest.raises(TypeError, match="GraphDataset"):
            train(model, graph, tiny_config(epochs=1))

    def test_empty_corpus_is_refused(self):
        data = graphs.GraphDataset([])
        model = build_model("graph", "gin", 3, 4, 1, 1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="at least one graph"):
            train(model, data, tiny_config(epochs=1))


class TestCheckpoints:
    def build(self, seed=0):
        return build_model("graph", "gin", 4, 6, 2, 2, np.random.default_rng(seed))

    def test_atomic_write_syncs_the_data_before_the_replace(self, tmp_path,
                                                            monkeypatch):
        path = tmp_path / "doc.json"
        calls = []
        real_fsync, real_replace = training.os.fsync, training.os.replace

        def fsync(fd):
            # the whole text is written when it is synced, and the target is
            # not yet there
            calls.append(("fsync", training.os.fstat(fd).st_size,
                          path.exists()))
            real_fsync(fd)

        def replace(src, dst):
            calls.append(("replace", str(dst)))
            real_replace(src, dst)

        monkeypatch.setattr(training.os, "fsync", fsync)
        monkeypatch.setattr(training.os, "replace", replace)
        training.write_atomic(str(path), lambda fh: fh.write("abc"))
        assert calls == [("fsync", 4, False), ("replace", str(path))]
        assert path.read_text() == "abc\n"

    def test_round_trip_is_bit_exact(self, tmp_path):
        model = self.build()
        # make the arrays non-trivial, including running stats
        data = make_blob_dataset(6, 2, np.random.default_rng(1), feature_dim=4)
        train(model, data, tiny_config(epochs=1, batch_size=3))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path, meta={"note": "test"})
        loaded, meta = load_checkpoint(path)
        assert meta["note"] == "test"
        original = model.state_arrays()
        restored = loaded.state_arrays()
        assert sorted(original) == sorted(restored)
        for name in original:
            np.testing.assert_array_equal(original[name], restored[name], err_msg=name)

    def test_float32_round_trip_is_bit_exact(self, tmp_path):
        model = build_model("graph", "gin", 4, 6, 2, 2, np.random.default_rng(0),
                            dtype="float32")
        data = make_blob_dataset(6, 2, np.random.default_rng(1), feature_dim=4)
        train(model, data, tiny_config(epochs=1, batch_size=3, dtype="float32"))
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        assert doc["build"]["dtype"] == "float32"
        loaded, _ = load_checkpoint(path)
        assert loaded.build_spec == model.build_spec
        original, restored = model.state_arrays(), loaded.state_arrays()
        assert sorted(original) == sorted(restored)
        for name in original:
            assert restored[name].dtype == np.float32, name
            assert restored[name].tobytes() == original[name].tobytes(), name

    # checkpoints written by an earlier version: a float64 GIN with two
    # decoder layers and a float32 GCN, with non-trivial running statistics
    @pytest.mark.parametrize("name", ["graph_gin_checkpoint.json",
                                      "node_gcn_checkpoint.json"])
    def test_golden_checkpoint_loads_and_saves_unchanged(self, tmp_path, name):
        golden = pathlib.Path(__file__).parent / "golden" / name
        stored = json.loads(golden.read_text())["arrays"]
        model, meta = load_checkpoint(golden)
        arrays = model.state_arrays()
        assert sorted(arrays) == sorted(stored)
        for key, arr in arrays.items():
            assert list(arr.shape) == stored[key]["shape"], key
            assert (np.asarray(arr, "<f8").tobytes()
                    == base64.b64decode(stored[key]["data"])), key
        save_checkpoint(model, tmp_path / "again.json", meta=meta)
        assert (tmp_path / "again.json").read_bytes() == golden.read_bytes()

    def test_checkpoint_without_dtype_loads_as_float64(self, tmp_path):
        model = self.build()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        assert doc["build"].pop("dtype") == "float64"
        path.write_text(json.dumps(doc))
        loaded, _ = load_checkpoint(path)
        assert loaded.build_spec["dtype"] == "float64"
        for name, arr in loaded.state_arrays().items():
            assert arr.dtype == np.float64, name
            np.testing.assert_array_equal(arr, model.state_arrays()[name])

    def test_unknown_dtype_in_build_recipe_raises(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.build(), path)
        doc = json.loads(path.read_text())
        doc["build"]["dtype"] = "float16"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="dtype"):
            load_checkpoint(path)

    def test_loaded_model_encodes_identically(self, tmp_path):
        model = self.build(seed=3)
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        loaded, _ = load_checkpoint(path)
        data = make_blob_dataset(4, 2, np.random.default_rng(2), feature_dim=4)
        batch = batch_graphs(list(data.graphs))
        out_a = model.encoder.encode(batch, training=False)[-1].data
        out_b = loaded.encoder.encode(batch, training=False)[-1].data
        np.testing.assert_array_equal(out_a, out_b)

    def test_truncated_file_raises(self, tmp_path):
        model = self.build()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        blob = path.read_text()
        path.write_text(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError, match="not a valid checkpoint"):
            load_checkpoint(path)

    def test_not_a_checkpoint_json_raises(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(CheckpointError, match="format marker"):
            load_checkpoint(path)

    def test_nesting_past_the_recursion_limit_raises(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000)
        with pytest.raises(CheckpointError, match="not a valid checkpoint"):
            load_checkpoint(path)

    @pytest.mark.parametrize("section, edit", [
        ("corrupt array", lambda doc: doc["arrays"]["decoder.0.W"].update(
            shape=[float("inf")])),
        ("build recipe is invalid", lambda doc: doc["build"].update(
            hidden_dim=float("nan"))),
    ], ids=["infinite-shape", "nan-hidden-dim"])
    def test_non_finite_number_where_an_int_belongs_raises(self, tmp_path,
                                                           section, edit):
        path, doc = self.saved_doc(tmp_path)
        edit(doc)
        path.write_text(json.dumps(doc))  # writes Infinity and NaN tokens
        with pytest.raises(CheckpointError, match=section):
            load_checkpoint(path)

    def test_level_expectation_enforced(self, tmp_path):
        model = self.build()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        load_checkpoint(path, expect_level="graph")
        with pytest.raises(CheckpointError, match="level"):
            load_checkpoint(path, expect_level="node")

    def test_corrupt_array_payload_raises(self, tmp_path):
        model = self.build()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        first = next(iter(doc["arrays"]))
        doc["arrays"][first]["data"] = "!!!not base64!!!"
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="corrupt array"):
            load_checkpoint(path)

    def test_missing_array_raises(self, tmp_path):
        model = self.build()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        first = next(iter(doc["arrays"]))
        del doc["arrays"][first]
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="missing"):
            load_checkpoint(path)

    def saved_doc(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(self.build(), path)
        return path, json.loads(path.read_text())

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_array_is_refused_by_name(self, tmp_path, value):
        path, doc = self.saved_doc(tmp_path)
        name = "decoder.0.bn.running_var"
        arr = np.ones(doc["arrays"][name]["shape"])
        arr[0, -1] = value
        doc["arrays"][name] = training._encode_array(arr)
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match=f"'{name}' holds NaN or inf"):
            load_checkpoint(path)

    def test_value_beyond_float32_is_refused(self, tmp_path):
        model = build_model("graph", "gin", 4, 6, 2, 2, np.random.default_rng(0),
                            dtype="float32")
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        doc = json.loads(path.read_text())
        arr = model.state_arrays()["encoder.0.lin1.W"].astype(np.float64)
        arr[0, 0] = 1e300  # finite in float64, inf in float32
        doc["arrays"]["encoder.0.lin1.W"] = training._encode_array(arr)
        path.write_text(json.dumps(doc))
        with pytest.raises(CheckpointError, match="encoder.0.lin1.W"):
            load_checkpoint(path)

    def test_hand_built_model_cannot_checkpoint(self, tmp_path):
        from latentgraph.models import Decoder, Encoder, Model
        rng = np.random.default_rng(0)
        model = Model(Encoder("gin", 3, 4, 1, rng), Decoder(4, 3, 1, rng), "graph")
        with pytest.raises(CheckpointError, match="build_spec"):
            save_checkpoint(model, tmp_path / "x.ckpt")

    def test_failed_save_keeps_the_earlier_file(self, tmp_path):
        model = self.build()
        path = tmp_path / "model.ckpt"
        save_checkpoint(model, path)
        before = path.read_bytes()
        model.parameters()[0].data = model.parameters()[0].data + 1.0
        # json.dump streams "arrays" to the file before it reaches the
        # unserialisable "meta" entry
        with pytest.raises(TypeError):
            save_checkpoint(model, path, meta={"bad": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_train_writes_checkpoint(self, tmp_path):
        data = make_blob_dataset(6, 2, np.random.default_rng(5), feature_dim=4)
        model = self.build(seed=6)
        path = tmp_path / "final.ckpt"
        train(model, data, tiny_config(epochs=1, batch_size=3),
              checkpoint_path=path)
        loaded, meta = load_checkpoint(path, expect_level="graph")
        assert meta["epochs"] == 1
        np.testing.assert_array_equal(
            loaded.parameters()[0].data, model.parameters()[0].data)
