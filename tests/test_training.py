"""Optimizer math, config handling, the training loop's determinism, and
bit-exact checkpoint round-trips."""

import copy
import json

import numpy as np
import pytest

from latentgraph.engine import Value, backward
from latentgraph.graphs import make_blob_dataset, make_sbm_graph, batch_graphs
from latentgraph.models import build_model
from latentgraph.objectives import mask_size
from latentgraph import graphs, training
from latentgraph.training import (
    Adam,
    CheckpointError,
    EpochStats,
    NonFiniteGradientError,
    NonFiniteLossError,
    NonFiniteUpdateError,
    TrainConfig,
    load_checkpoint,
    load_config,
    parse_config,
    preset_config,
    save_checkpoint,
    train,
)


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

    def test_missing_gradient_skips_parameter(self):
        p = Value(np.array([[2.0]]))
        opt = Adam([p], lr=0.1, weight_decay=0.5)
        opt.step({})
        assert p.data[0, 0] == 2.0

    def test_weight_decay_is_decoupled(self):
        p = Value(np.array([[4.0]]))
        opt = Adam([p], lr=0.1, weight_decay=0.5)
        opt.step({p: np.zeros((1, 1))})
        # zero gradient: only the multiplicative decay 1 - lr*wd applies
        assert p.data[0, 0] == pytest.approx(4.0 * (1 - 0.1 * 0.5), abs=1e-15)

    def test_rejects_bad_hyperparameters(self):
        p = Value(np.ones((1, 1)))
        with pytest.raises(ValueError):
            Adam([p], lr=-1.0)
        with pytest.raises(ValueError):
            Adam([p], beta1=1.0)

    def test_non_finite_update_changes_nothing(self):
        # lr * m_hat overflows for the second parameter only; the first,
        # updated earlier in the loop, must not be assigned either
        p = Value(np.array([[1.0, -2.0]]))
        q = Value(np.array([[0.5]]))
        opt = Adam([p, q], lr=1e300)
        with pytest.raises(NonFiniteUpdateError) as info:
            opt.step({p: np.array([[1e-3, 2e-3]]), q: np.array([[1e10]])})
        assert info.value.param is q
        np.testing.assert_array_equal(p.data, [[1.0, -2.0]])
        np.testing.assert_array_equal(q.data, [[0.5]])
        assert opt.t == 0
        assert not any(m.any() for m in opt._m + opt._v)

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
        dict(weight_decay=-0.01),
        dict(subgraph_nodes=-5),
    ])
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            TrainConfig(**kwargs).validate()

    def test_presets_exist_and_validate(self):
        molecule = preset_config("molecule")
        assert molecule.level == "graph" and molecule.encoder == "gin"
        assert molecule.mask_ratio == 0.05 and molecule.alpha == 10.0
        protein = preset_config("protein")
        assert protein.mask_ratio == 0.3 and protein.noise_sd == 2.0
        node = preset_config("node")
        assert node.level == "node" and node.hidden_dim == 512

    def test_preset_overrides(self):
        cfg = preset_config("molecule", epochs=3, hidden_dim=8)
        assert cfg.epochs == 3 and cfg.hidden_dim == 8
        assert cfg.alpha == 10.0

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_config("imagenet")


class TestConfigParser:
    def test_parses_types_and_comments(self):
        cfg = parse_config("""
            # a comment
            level = node
            hidden_dim = 16   # trailing comment
            lr = 0.5
            use_bn = false
            alpha = 2
        """)
        assert cfg.level == "node"
        assert cfg.hidden_dim == 16
        assert cfg.lr == 0.5
        assert cfg.use_bn is False
        assert cfg.alpha == 2.0

    def test_unknown_key_rejected_with_line_number(self):
        with pytest.raises(ValueError, match="line 2.*momentum"):
            parse_config("lr = 0.1\nmomentum = 0.9\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_config("epochs = soon\n")
        with pytest.raises(ValueError, match="boolean"):
            parse_config("use_bn = maybe\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_config("just some words\n")

    def test_base_config_is_not_mutated(self):
        base = TrainConfig(hidden_dim=7)
        cfg = parse_config("hidden_dim = 9\n", base=base)
        assert base.hidden_dim == 7 and cfg.hidden_dim == 9

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("epochs = 2\nseed = 5\n")
        cfg = load_config(path)
        assert cfg.epochs == 2 and cfg.seed == 5


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

    def test_full_graph_is_batched_once(self, monkeypatch):
        calls = []

        def counting(graph_list):
            calls.append(len(graph_list))
            return batch_graphs(graph_list)

        monkeypatch.setattr(graphs, "batch_graphs", counting)
        graph = make_sbm_graph(30, 2, 0.3, 0.05, 5, np.random.default_rng(4))
        cfg = TrainConfig(level="node", encoder="gcn", hidden_dim=8,
                          encoder_layers=2, decoder_layers=1, epochs=3,
                          lr=1e-3, seed=9).validate()
        model = build_model("node", "gcn", 5, 8, 2, 1, np.random.default_rng(0))
        history = train(model, graph, cfg)
        assert [h.steps for h in history] == [1, 1, 1]
        assert calls == [1]

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
        bias = model.decoder.linears[0].b
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
        model.decoder.linears[-1].W.data[:] = np.nan
        with pytest.raises(NonFiniteLossError,
                           match="non-finite reconstruction loss .* epoch 0, step 0"):
            train(model, data, cfg)

    def test_level_mismatch_between_config_and_model(self):
        data = self.make_data()
        model = build_model("node", "gcn", data.feature_dim, 4, 1, 1,
                            np.random.default_rng(0))
        with pytest.raises(ValueError, match="level"):
            train(model, data, tiny_config())

    def test_wrong_data_type_for_level(self):
        graph = make_sbm_graph(10, 2, 0.3, 0.1, 3, np.random.default_rng(0))
        model = build_model("graph", "gin", 3, 4, 1, 1, np.random.default_rng(0))
        with pytest.raises(TypeError, match="GraphDataset"):
            train(model, graph, tiny_config(epochs=1))


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
