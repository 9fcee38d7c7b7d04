"""End-to-end tests for the command-line interface."""

import argparse
import dataclasses
import json
import os
import subprocess
import sys

import jsonschema
import numpy as np
import pytest
import scipy

import latentgraph
import latentgraph.cli as cli
from latentgraph.cli import _derive_seed, build_parser, main, schema_path
from latentgraph.graphs import NodeSplit, make_sbm_graph, write_nodelevel
from latentgraph.training import CHOICES, TrainConfig


def load_schema(name):
    with open(schema_path(name), "r", encoding="utf-8") as fh:
        return json.load(fh)


def check(doc, schema_name):
    jsonschema.Draft7Validator(load_schema(schema_name)).validate(doc)


def read_json(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def child_pythonpath():
    """The child runs from "/", so put this package's absolute source
    directory first on its PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(latentgraph.__file__)))
    return os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)


def write_graph_corpus(root, name="BLOBS", num_graphs=12, num_node_labels=2,
                       seed=0):
    """Ring graphs whose one-hot node labels encode the class."""
    rng = np.random.default_rng(seed)
    d = root / name
    d.mkdir(parents=True, exist_ok=True)
    edges, indicator, graph_labels, node_labels = [], [], [], []
    node = 0
    for g in range(num_graphs):
        label = g % 2
        n = int(rng.integers(5, 9))
        for i in range(n):
            u, v = node + i + 1, node + (i + 1) % n + 1
            edges += [f"{u}, {v}", f"{v}, {u}"]
        for i in range(n):
            indicator.append(str(g + 1))
            if num_node_labels == 2:
                flip = rng.uniform() < 0.1
                value = (1 - label) if flip else label
            else:
                value = (label + i) % num_node_labels
            node_labels.append(str(value))
        graph_labels.append(str(label))
        node += n
    (d / f"{name}_A.txt").write_text("\n".join(edges) + "\n")
    (d / f"{name}_graph_indicator.txt").write_text("\n".join(indicator) + "\n")
    (d / f"{name}_graph_labels.txt").write_text("\n".join(graph_labels) + "\n")
    (d / f"{name}_node_labels.txt").write_text("\n".join(node_labels) + "\n")
    return str(d)


def write_node_corpus(root, with_split=True, num_nodes=150, seed=7,
                      drop_split_section=None):
    rng = np.random.default_rng(seed)
    graph = make_sbm_graph(num_nodes, 2, 0.08, 0.01, 6, rng,
                           feature_shift=2.0, noise_sd=0.6)
    split = None
    if with_split:
        perm = rng.permutation(num_nodes)
        cut1, cut2 = int(0.6 * num_nodes), int(0.7 * num_nodes)
        split = NodeSplit(train=perm[:cut1], valid=perm[cut1:cut2],
                          test=perm[cut2:])
        if drop_split_section is not None:
            split = dataclasses.replace(
                split, **{drop_split_section: perm[:0]})
    directory = str(root / "sbm")
    write_nodelevel(graph, directory, split=split)
    return directory


def subparsers():
    """The `lagraph` subcommands' parsers, by name."""
    action = next(a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    """Shared corpora plus one trained checkpoint per level."""
    root = tmp_path_factory.mktemp("clidata")
    graph_dir = write_graph_corpus(root)
    node_dir = write_node_corpus(root)

    graph_run = str(root / "graph_run")
    rc = main(["train", "--dataset", graph_dir, "--out", graph_run,
               "--epochs", "2", "--batch-size", "4", "--hidden-dim", "8",
               "--encoder-layers", "2", "--seed", "3"])
    assert rc == 0

    node_run = str(root / "node_run")
    rc = main(["train", "--dataset", node_dir, "--out", node_run,
               "--preset", "node", "--hidden-dim", "16", "--epochs", "2",
               "--subgraph-nodes", "40", "--seed", "4"])
    assert rc == 0

    return {
        "root": root,
        "graph_dir": graph_dir,
        "node_dir": node_dir,
        "graph_ckpt": os.path.join(graph_run, "checkpoint.json"),
        "graph_run": graph_run,
        "node_ckpt": os.path.join(node_run, "checkpoint.json"),
    }


class TestParserAndHelpers:
    def test_no_subcommand_exits_with_usage_error(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 2
        capsys.readouterr()

    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert "lagraph" in capsys.readouterr().out

    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("train", "eval", "verify", "ablate"):
            assert command in text

    def test_preset_choices_follow_the_preset_table(self, monkeypatch):
        monkeypatch.setitem(cli.PRESETS, "tiny", dict(cli.PRESETS["molecule"], hidden_dim=4))
        args = build_parser().parse_args(["train", "--dataset", "d", "--out", "o",
                                          "--preset", "tiny"])
        assert args.preset == "tiny"

    def test_option_strings_are_frozen(self):
        config_flags = [
            "--preset", "--config", "--level", "--encoder", "--hidden-dim",
            "--encoder-layers", "--decoder-layers", "--decoder-kind",
            "--no-batchnorm", "--variant", "--alpha", "--mask-ratio",
            "--noise-sd", "--mask-mode", "--lr", "--weight-decay",
            "--batch-size", "--epochs", "--seed", "--subgraph-nodes"]
        dataset_flags = ["--dataset", "--degree-features", "--file-prefix"]
        probe_flags = ["--probe-lr", "--probe-epochs", "--probe-weight-decay"]
        expected = {
            "train": ["-h", "--help", *dataset_flags, "--out", *config_flags],
            "eval": ["-h", "--help", "--checkpoint", *dataset_flags, "--out",
                     "--level", "--folds", "--reps", "--seed", "--no-concat",
                     *probe_flags],
            "verify": ["-h", "--help", "--out", "--suite", "--trials",
                       "--seed", "--samples", "--mask-draws",
                       "--corrupt-multiplier"],
            "ablate": ["-h", "--help", "--study", *dataset_flags, "--out",
                       "--folds", *config_flags, *probe_flags],
        }
        actual = {name: [s for action in parser._actions
                         for s in action.option_strings]
                  for name, parser in subparsers().items()}
        assert actual == expected

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_every_config_field_has_a_flag_that_reaches_the_config(
            self, command):
        parser = subparsers()[command]
        required = ["--dataset", "d", "--out", "o"]
        if command == "ablate":
            required += ["--study", "objective"]
        default = TrainConfig()
        for field in dataclasses.fields(TrainConfig):
            if field.type is bool:
                continue
            flag = "--" + field.name.replace("_", "-")
            action = parser._option_string_actions[flag]
            assert action.choices == CHOICES.get(field.name)
            old = getattr(default, field.name)
            if field.name in CHOICES:
                value = next(c for c in reversed(CHOICES[field.name])
                             if c != old)
            else:
                value = old + 1 if field.type is int else old + 0.5
            args = parser.parse_args([*required, flag, str(value)])
            assert getattr(cli._resolve_config(args), field.name) == value

        args = parser.parse_args([*required, "--no-batchnorm"])
        assert cli._resolve_config(args).use_bn is False
        assert cli._resolve_config(parser.parse_args(required)).use_bn is True

    def test_derived_seeds_are_stable_and_distinct(self):
        seeds = [_derive_seed(0, i) for i in range(8)]
        assert seeds == [_derive_seed(0, i) for i in range(8)]
        assert len(set(seeds)) == 8
        assert _derive_seed(1, 0) != _derive_seed(0, 0)

    def test_schemas_ship_with_the_package(self):
        for name in ("manifest", "step_log", "checkpoint", "eval_report",
                     "verification", "ablation"):
            schema = load_schema(name)
            jsonschema.Draft7Validator.check_schema(schema)


class TestTrain:
    def test_outputs_and_schemas(self, corpus):
        run_dir = corpus["graph_run"]
        for name in ("checkpoint.json", "loss_log.jsonl", "manifest.json"):
            assert os.path.exists(os.path.join(run_dir, name))
        manifest = read_json(os.path.join(run_dir, "manifest.json"))
        check(manifest, "manifest")
        assert manifest["command"] == "train"
        assert manifest["config"]["epochs"] == 2
        assert manifest["config"]["batch_size"] == 4
        assert manifest["dataset"]["name"] == "BLOBS"
        assert manifest["seed"] == 3
        env = manifest["environment"]
        assert env["python"] == sys.version.split()[0]
        assert (env["numpy"], env["scipy"]) == (np.__version__,
                                                scipy.__version__)
        assert manifest["peak_rss_mib"] > 0
        assert sorted(os.listdir(run_dir)) == [
            "checkpoint.json", "loss_log.jsonl", "manifest.json"]
        check(read_json(corpus["graph_ckpt"]), "checkpoint")
        with open(os.path.join(run_dir, "loss_log.jsonl")) as fh:
            lines = [json.loads(line) for line in fh]
        # 12 graphs, batch 4, 2 epochs
        assert len(lines) == 6
        for line in lines:
            check(line, "step_log")

    def test_flags_override_config_file(self, corpus, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("alpha = 5.0\nlr = 0.1\nepochs = 1\n"
                          "hidden_dim = 8\nbatch_size = 6\n")
        out = str(tmp_path / "out")
        rc = main(["train", "--dataset", corpus["graph_dir"], "--out", out,
                   "--config", str(config), "--lr", "0.01"])
        assert rc == 0
        capsys.readouterr()
        resolved = read_json(os.path.join(out, "manifest.json"))["config"]
        assert resolved["alpha"] == 5.0  # from the file
        assert resolved["lr"] == 0.01  # flag wins
        assert resolved["epochs"] == 1

    def test_preset_under_config_under_flags(self, corpus, tmp_path, capsys):
        out = str(tmp_path / "out")
        rc = main(["train", "--dataset", corpus["graph_dir"], "--out", out,
                   "--preset", "molecule", "--epochs", "1",
                   "--hidden-dim", "8"])
        assert rc == 0
        capsys.readouterr()
        resolved = read_json(os.path.join(out, "manifest.json"))["config"]
        assert resolved["mask_ratio"] == 0.05  # preset value survives
        assert resolved["alpha"] == 10.0
        assert resolved["hidden_dim"] == 8  # flag override

    def test_invalid_config_is_a_clean_error(self, corpus, tmp_path, capsys):
        out = str(tmp_path / "nope")
        rc = main(["train", "--dataset", corpus["graph_dir"], "--out", out,
                   "--epochs", "0"])
        assert rc == 2
        assert "epochs" in capsys.readouterr().err
        assert not os.path.exists(out)

    def test_missing_dataset_is_a_clean_error(self, tmp_path, capsys):
        rc = main(["train", "--dataset", str(tmp_path / "absent"),
                   "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_partial_outputs_removed_on_failure(self, corpus, tmp_path,
                                                monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "train", explode)
        out = tmp_path / "broken"
        with pytest.raises(RuntimeError, match="boom"):
            main(["train", "--dataset", corpus["graph_dir"],
                  "--out", str(out), "--epochs", "1"])
        capsys.readouterr()
        assert list(out.iterdir()) == []

    def test_non_finite_loss_is_one_error_line(self, corpus, tmp_path,
                                               monkeypatch, capsys):
        import latentgraph.training as training
        real = training.objective

        def diverging(*args, **kwargs):
            out = real(*args, **kwargs)
            out.invariance = float("nan")
            return out

        monkeypatch.setattr(training, "objective", diverging)
        out = tmp_path / "diverged"
        rc = main(["train", "--dataset", corpus["graph_dir"],
                   "--out", str(out), "--epochs", "1"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: ")
        assert "non-finite invariance loss" in err[0]
        assert "epoch 0, step 0" in err[0]
        assert list(out.iterdir()) == []

    def test_failed_rerun_keeps_the_earlier_run(self, corpus, tmp_path,
                                                capsys):
        out = tmp_path / "run"
        args = ["train", "--dataset", corpus["graph_dir"], "--out", str(out),
                "--epochs", "1"]
        assert main(args) == 0
        before = {p.name: p.read_bytes() for p in out.iterdir()}
        assert sorted(before) == ["checkpoint.json", "loss_log.jsonl",
                                  "manifest.json"]
        with np.errstate(all="ignore"):
            # the second epoch runs on the parameters the first one blew up
            rc = main(args + ["--epochs", "2", "--lr", "1e300",
                              "--alpha", "1e300"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: non-finite")
        assert {p.name: p.read_bytes() for p in out.iterdir()} == before

    def test_non_finite_gradient_is_one_error_line(self, corpus, tmp_path,
                                                   monkeypatch, capsys):
        import latentgraph.training as training
        real = training.backward

        def poisoned(loss):
            grads = real(loss)
            for value in grads:
                if value.shape == (1, 8):  # the first bias of width 8
                    grads[value] = np.full(value.shape, np.inf)
                    break
            return grads

        monkeypatch.setattr(training, "backward", poisoned)
        out = tmp_path / "diverged"
        rc = main(["train", "--dataset", corpus["graph_dir"],
                   "--out", str(out), "--epochs", "1", "--hidden-dim", "8"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: non-finite gradient of ")
        assert "epoch 0, step 0" in err[0]
        assert list(out.iterdir()) == []

    def test_overflowing_update_is_one_error_line_at_its_own_step(
            self, corpus, tmp_path):
        # a child process, so numpy's warnings would reach its real stderr
        out = tmp_path / "diverged"
        result = subprocess.run(
            [sys.executable, "-m", "latentgraph", "train",
             "--dataset", corpus["graph_dir"], "--out", str(out),
             "--epochs", "2", "--batch-size", "8", "--lr", "1e300",
             "--alpha", "1e300"],
            capture_output=True, text=True, cwd="/",
            env=dict(os.environ, PYTHONPATH=child_pythonpath()))
        assert result.returncode == 2
        err = result.stderr.splitlines()
        assert len(err) == 1, result.stderr
        assert err[0].startswith("error: non-finite update of ")
        assert "epoch 0, step 0" in err[0]
        assert list(out.iterdir()) == []

    def test_failed_json_write_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "report.json"
        cli._write_json(str(path), {"a": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            cli._write_json(str(path), {"a": 2, "b": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    def test_same_seed_same_bytes_in_deterministic_mode(self, corpus,
                                                        tmp_path):
        env = dict(os.environ, LAGRAPH_STRICT_DETERMINISM="1",
                   PYTHONPATH=child_pythonpath())
        logs = []
        for run in ("a", "b"):
            out = tmp_path / run
            result = subprocess.run(
                [sys.executable, "-m", "latentgraph", "train",
                 "--dataset", corpus["graph_dir"], "--out", str(out),
                 "--epochs", "1", "--batch-size", "4", "--hidden-dim", "8",
                 "--seed", "11"],
                capture_output=True, env=env, cwd="/")
            assert result.returncode == 0, result.stderr
            logs.append((out / "loss_log.jsonl").read_bytes())
            manifest = read_json(str(out / "manifest.json"))
            assert manifest["deterministic"] is True
        assert logs[0] == logs[1]


class TestEval:
    def test_graph_level_report(self, corpus, tmp_path, capsys):
        out = str(tmp_path / "eval")
        rc = main(["eval", "--checkpoint", corpus["graph_ckpt"],
                   "--dataset", corpus["graph_dir"], "--out", out,
                   "--folds", "3", "--reps", "2", "--probe-epochs", "50"])
        assert rc == 0
        assert "accuracy" in capsys.readouterr().out
        doc = read_json(os.path.join(out, "eval_report.json"))
        check(doc, "eval_report")
        assert doc["level"] == "graph"
        assert doc["reps"] == 2 and len(doc["reports"]) == 2
        assert doc["folds"] == 3
        # class signal is trivially separable in this corpus
        assert doc["summary"]["mean_accuracy"] >= 0.9
        manifest = read_json(os.path.join(out, "manifest.json"))
        check(manifest, "manifest")
        assert manifest["command"] == "eval"

    def test_node_level_report(self, corpus, tmp_path, capsys):
        out = str(tmp_path / "eval")
        rc = main(["eval", "--checkpoint", corpus["node_ckpt"],
                   "--dataset", corpus["node_dir"], "--out", out,
                   "--reps", "2", "--probe-epochs", "80", "--level", "node"])
        assert rc == 0
        capsys.readouterr()
        doc = read_json(os.path.join(out, "eval_report.json"))
        check(doc, "eval_report")
        assert doc["level"] == "node"
        assert doc["folds"] == 1
        assert doc["summary"]["mean_accuracy"] >= 0.9

    def test_no_concat_changes_the_representation(self, corpus, tmp_path,
                                                  capsys):
        out = str(tmp_path / "eval")
        rc = main(["eval", "--checkpoint", corpus["node_ckpt"],
                   "--dataset", corpus["node_dir"], "--out", out,
                   "--reps", "1", "--probe-epochs", "40", "--no-concat"])
        assert rc == 0
        capsys.readouterr()
        manifest = read_json(os.path.join(out, "manifest.json"))
        assert manifest["config"]["concat_raw"] is False

    def test_no_concat_on_a_graph_checkpoint_is_an_error(self, corpus,
                                                         tmp_path, capsys):
        out = tmp_path / "eval"
        rc = main(["eval", "--checkpoint", corpus["graph_ckpt"],
                   "--dataset", corpus["graph_dir"], "--out", str(out),
                   "--no-concat"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: --no-concat applies to node-level")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ("--folds", "1"),
        ("--reps", "0"),
    ])
    def test_validation_errors(self, corpus, tmp_path, capsys, flags):
        rc = main(["eval", "--checkpoint", corpus["graph_ckpt"],
                   "--dataset", corpus["graph_dir"],
                   "--out", str(tmp_path / "x"), *flags])
        assert rc == 2
        assert "error:" in capsys.readouterr().err

    def test_more_folds_than_graphs(self, corpus, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["eval", "--checkpoint", corpus["graph_ckpt"],
                   "--dataset", corpus["graph_dir"], "--out", str(out),
                   "--folds", "20"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "20 folds" in err and "has 12" in err
        assert not out.exists()

    @pytest.mark.parametrize("section", ["train", "test"])
    def test_empty_split_section(self, corpus, tmp_path, capsys, section):
        data = write_node_corpus(tmp_path, drop_split_section=section)
        out = tmp_path / "x"
        rc = main(["eval", "--checkpoint", corpus["node_ckpt"],
                   "--dataset", data, "--out", str(out), "--reps", "1"])
        assert rc == 2
        assert f"needs {section} nodes" in capsys.readouterr().err
        assert not out.exists()

    def test_level_mismatch(self, corpus, tmp_path, capsys):
        rc = main(["eval", "--checkpoint", corpus["node_ckpt"],
                   "--dataset", corpus["node_dir"],
                   "--out", str(tmp_path / "x"), "--level", "graph"])
        assert rc == 2
        assert "level" in capsys.readouterr().err

    def test_missing_checkpoint(self, corpus, tmp_path, capsys):
        rc = main(["eval", "--checkpoint", str(tmp_path / "none.json"),
                   "--dataset", corpus["graph_dir"],
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        capsys.readouterr()

    def test_feature_dim_mismatch(self, corpus, tmp_path, capsys):
        other = write_graph_corpus(tmp_path, name="TRI", num_node_labels=3,
                                   seed=5)
        rc = main(["eval", "--checkpoint", corpus["graph_ckpt"],
                   "--dataset", other, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "feature dim" in capsys.readouterr().err

    def test_node_eval_needs_a_split(self, corpus, tmp_path, capsys):
        unsplit = write_node_corpus(tmp_path, with_split=False, num_nodes=60)
        rc = main(["eval", "--checkpoint", corpus["node_ckpt"],
                   "--dataset", unsplit, "--out", str(tmp_path / "x"),
                   "--reps", "1"])
        assert rc == 2
        assert "split" in capsys.readouterr().err


class TestVerify:
    def test_all_suites_pass_and_validate(self, tmp_path, capsys):
        out = str(tmp_path / "verify")
        rc = main(["verify", "--out", out, "--suite", "all", "--trials", "2",
                   "--samples", "64", "--mask-draws", "2", "--seed", "0"])
        assert rc == 0
        assert "checks passed" in capsys.readouterr().out
        doc = read_json(os.path.join(out, "verification.json"))
        check(doc, "verification")
        assert doc["ok"] is True
        # per trial: 3 output-level + 4 corollary + 2 inner-product records
        assert len(doc["records"]) == 18
        assert doc["passed"] == 18 and doc["failed"] == 0
        check(read_json(os.path.join(out, "manifest.json")), "manifest")

    def test_single_trial_single_suite(self, tmp_path, capsys):
        out = str(tmp_path / "verify")
        rc = main(["verify", "--out", out, "--suite", "theorem1",
                   "--trials", "1", "--samples", "64", "--mask-draws", "2"])
        assert rc == 0
        capsys.readouterr()
        doc = read_json(os.path.join(out, "verification.json"))
        check(doc, "verification")
        assert [r["predictor"] for r in doc["records"]] == \
            ["random-gnn", "identity", "constant"]
        assert [r["criterion"] for r in doc["records"]] == \
            ["lower", "lower", "equality"]

    def test_dae_suite_records(self, tmp_path, capsys):
        out = str(tmp_path / "verify")
        rc = main(["verify", "--out", out, "--suite", "dae", "--trials", "2",
                   "--samples", "256", "--mask-draws", "4"])
        assert rc == 0
        capsys.readouterr()
        doc = read_json(os.path.join(out, "verification.json"))
        check(doc, "verification")
        kinds = {r["which"] for r in doc["records"]}
        assert kinds == {"dae_blind", "dae_identity_control"}
        controls = [r for r in doc["records"]
                    if r["which"] == "dae_identity_control"]
        assert all(r["expected"] > 0 for r in controls)

    def test_corrupted_multiplier_fails_loudly(self, tmp_path, capsys):
        out = str(tmp_path / "verify")
        rc = main(["verify", "--out", out, "--suite", "theorem1",
                   "--trials", "1", "--samples", "128", "--mask-draws", "2",
                   "--corrupt-multiplier", "0.01"])
        assert rc == 1
        assert "FAIL" in capsys.readouterr().out
        doc = read_json(os.path.join(out, "verification.json"))
        check(doc, "verification")
        assert doc["ok"] is False
        assert doc["failed"] >= 1
        failing = [r for r in doc["records"] if not r["passed"]]
        assert any(r["predictor"] == "identity" for r in failing)

    def test_trial_count_validation(self, tmp_path, capsys):
        rc = main(["verify", "--out", str(tmp_path / "x"), "--trials", "0"])
        assert rc == 2
        capsys.readouterr()

    @pytest.mark.parametrize("suite,samples,mask_draws", [
        ("theorem1", "1", "1"),
        ("corollaries", "64", "0"),
        ("dae", "10", "8"),
        ("all", "15", "8"),
    ])
    def test_sample_sizes_are_usage_errors(self, tmp_path, capsys, suite,
                                           samples, mask_draws):
        out = tmp_path / "x"
        rc = main(["verify", "--out", str(out), "--suite", suite,
                   "--trials", "1", "--samples", samples,
                   "--mask-draws", mask_draws])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: ")
        assert not out.exists()

    def test_same_seed_reproduces_report(self, tmp_path, capsys):
        blobs = []
        for run in ("a", "b"):
            out = tmp_path / run
            rc = main(["verify", "--out", str(out), "--suite", "corollaries",
                       "--trials", "1", "--samples", "64",
                       "--mask-draws", "2", "--seed", "9"])
            assert rc == 0
            blobs.append((out / "verification.json").read_bytes())
        capsys.readouterr()
        assert blobs[0] == blobs[1]


class TestAblate:
    def test_objective_study(self, corpus, tmp_path, capsys):
        out = str(tmp_path / "abl")
        rc = main(["ablate", "--study", "objective",
                   "--dataset", corpus["graph_dir"], "--out", out,
                   "--epochs", "1", "--batch-size", "6", "--hidden-dim", "8",
                   "--encoder-layers", "1", "--decoder-layers", "1",
                   "--folds", "3"])
        assert rc == 0
        capsys.readouterr()
        doc = read_json(os.path.join(out, "ablation.json"))
        check(doc, "ablation")
        assert doc["study"] == "objective"
        assert [c["cell"]["variant"] for c in doc["cells"]] == \
            ["mse-embed", "mse-output", "ce-embed", "ce-output"]
        assert len({c["seed"] for c in doc["cells"]}) == 4
        check(read_json(os.path.join(out, "manifest.json")), "manifest")

    def test_batch_size_study_grid(self, corpus, tmp_path, capsys):
        out = str(tmp_path / "abl")
        rc = main(["ablate", "--study", "batch-size",
                   "--dataset", corpus["graph_dir"], "--out", out,
                   "--epochs", "1", "--batch-size", "6", "--hidden-dim", "8",
                   "--encoder-layers", "1", "--decoder-layers", "1",
                   "--folds", "3"])
        assert rc == 0
        capsys.readouterr()
        doc = read_json(os.path.join(out, "ablation.json"))
        check(doc, "ablation")
        assert [c["cell"]["batch_size"] for c in doc["cells"]] == \
            [8, 32, 128, 256]
        summary = doc["summary"]
        assert summary["spread"] == pytest.approx(
            summary["max_accuracy"] - summary["min_accuracy"])

    def test_subgraph_study_cells(self, corpus, tmp_path, capsys):
        out = str(tmp_path / "abl")
        rc = main(["ablate", "--study", "subgraph",
                   "--dataset", corpus["node_dir"], "--out", out,
                   "--preset", "node", "--hidden-dim", "16", "--epochs", "1",
                   "--probe-epochs", "60", "--folds", "3"])
        assert rc == 0
        capsys.readouterr()
        doc = read_json(os.path.join(out, "ablation.json"))
        check(doc, "ablation")
        # the corpus has 150 nodes: grid keeps 100 and adds the full graph
        assert [c["cell"]["subgraph_nodes"] for c in doc["cells"]] == [100, 0]
        assert "subgraph_nodes=all" in doc["summary"]["accuracy_by_cell"]

    def test_concat_study_reuses_one_model(self, corpus, tmp_path, capsys):
        out = str(tmp_path / "abl")
        rc = main(["ablate", "--study", "concat",
                   "--dataset", corpus["node_dir"], "--out", out,
                   "--preset", "node", "--hidden-dim", "16", "--epochs", "1",
                   "--probe-epochs", "60"])
        assert rc == 0
        capsys.readouterr()
        doc = read_json(os.path.join(out, "ablation.json"))
        check(doc, "ablation")
        assert [c["cell"]["concat"] for c in doc["cells"]] == [True, False]
        losses = {c["final_loss"] for c in doc["cells"]}
        assert len(losses) == 1  # a single training backs both cells

    def test_more_folds_than_graphs(self, corpus, tmp_path, capsys):
        rc = main(["ablate", "--study", "objective",
                   "--dataset", corpus["graph_dir"],
                   "--out", str(tmp_path / "x"), "--folds", "13"])
        assert rc == 2
        assert "13 folds" in capsys.readouterr().err

    def test_empty_split_section(self, tmp_path, capsys):
        data = write_node_corpus(tmp_path, drop_split_section="train")
        rc = main(["ablate", "--study", "concat", "--preset", "node",
                   "--dataset", data, "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "needs train nodes" in capsys.readouterr().err

    def test_study_level_mismatch(self, corpus, tmp_path, capsys):
        rc = main(["ablate", "--study", "subgraph",
                   "--dataset", corpus["node_dir"],
                   "--out", str(tmp_path / "x")])
        assert rc == 2
        assert "node-level" in capsys.readouterr().err

        rc = main(["ablate", "--study", "objective", "--preset", "node",
                   "--dataset", corpus["graph_dir"],
                   "--out", str(tmp_path / "y")])
        assert rc == 2
        assert "graph-level" in capsys.readouterr().err
