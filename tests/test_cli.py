"""End-to-end tests for the command-line interface."""

import argparse
import base64
import dataclasses
import glob
import json
import os
import re
import subprocess
import sys
import weakref

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
            "--preset", "--level", "--encoder", "--hidden-dim",
            "--encoder-layers", "--decoder-layers",
            "--variant", "--alpha", "--mask-ratio", "--noise-sd", "--lr",
            "--batch-size", "--epochs", "--seed", "--subgraph-nodes", "--dtype"]
        dataset_flags = ["--dataset", "--degree-features", "--file-prefix"]
        probe_flags = ["--probe-epochs"]
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
            flag = "--" + field.name.replace("_", "-")
            action = parser._option_string_actions[flag]
            assert action.choices == CHOICES.get(field.name)
            old = getattr(default, field.name)
            if field.name in CHOICES:
                value = next(c for c in reversed(CHOICES[field.name])
                             if c != old)
            else:
                # +2, since a subgraph size of 1 is refused
                value = old + 2 if field.type is int else old + 0.5
            # a positive subgraph size is valid on node-level runs only
            level = ["--level", "node"] if field.name == "subgraph_nodes" else []
            args = parser.parse_args([*required, *level, flag, str(value)])
            assert getattr(cli._resolve_config(args), field.name) == value

    @pytest.mark.parametrize("command", ["eval", "ablate"])
    def test_level_flags_help_names_their_level_and_default(self, command):
        actions = subparsers()[command]._option_string_actions
        for name, (level, default, _) in cli.LEVEL_FLAGS.items():
            action = actions.get("--" + name.replace("_", "-"))
            if action is not None:
                assert action.help.startswith(f"{level}-level: ")
                assert action.help.endswith(f" (default: {default})")

    def test_readme_lists_the_training_flags(self):
        """README's list of the training flags is the parser's, in order."""
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = " ".join(fh.read().split())
        start = text.index("The training flags are ")
        sentence = text[start:text.index(".", start)]
        group = next(g for g in subparsers()["train"]._action_groups
                     if g.title == "training configuration")
        assert re.findall(r"`(--[a-z-]+)`", sentence) == [
            s for action in group._group_actions for s in action.option_strings]

    def test_readme_lists_the_level_flags(self):
        """README's list of the flags that apply at one level only is
        cli.LEVEL_FLAGS, level by level, in order, with their count."""
        readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
        with open(readme, encoding="utf-8") as fh:
            text = " ".join(fh.read().split())
        match = re.search(r"(\w+) flags apply at one level only, as "
                          r"`cli\.LEVEL_FLAGS` lists: (.*?) at graph level, "
                          r"(.*?) at node level\.", text)
        count = ["one", "two", "three", "four", "five", "six", "seven"].index(
            match.group(1).lower()) + 1
        listed = {level: re.findall(r"`(--[a-z-]+)`", match.group(group))
                  for level, group in (("graph", 2), ("node", 3))}
        expected = {level: ["--" + name.replace("_", "-")
                            for name, (at, _, _) in cli.LEVEL_FLAGS.items()
                            if at == level]
                    for level in ("graph", "node")}
        assert listed == expected
        assert count == len(cli.LEVEL_FLAGS)

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
        assert env["blas_threads"] is None or env["blas_threads"] >= 1
        assert sorted(os.listdir(run_dir)) == [
            "checkpoint.json", "loss_log.jsonl", "manifest.json"]
        check(read_json(corpus["graph_ckpt"]), "checkpoint")
        with open(os.path.join(run_dir, "loss_log.jsonl")) as fh:
            lines = [json.loads(line) for line in fh]
        # 12 graphs, batch 4, 2 epochs
        assert len(lines) == 6
        for line in lines:
            check(line, "step_log")

    def test_flags_override_the_preset(self, corpus, tmp_path, capsys):
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

    def test_config_file_flag_is_unrecognized(self, corpus, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("epochs = 1\n")
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--dataset", corpus["graph_dir"], "--out", str(out),
                  "--config", str(config)])
        assert excinfo.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_config_is_a_clean_error(self, corpus, tmp_path, capsys):
        out = str(tmp_path / "nope")
        rc = main(["train", "--dataset", corpus["graph_dir"], "--out", out,
                   "--epochs", "0"])
        assert rc == 2
        assert "epochs" in capsys.readouterr().err
        assert not os.path.exists(out)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("flag", ["--alpha", "--lr", "--noise-sd"])
    def test_non_finite_setting_stops_before_the_data(self, tmp_path, capsys,
                                                      flag, value):
        # the dataset does not exist: the setting is refused before loading
        out = tmp_path / "out"
        rc = main(["train", "--dataset", str(tmp_path / "absent"),
                   "--out", str(out), flag, value])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: invalid configuration: "
                                 + flag[2:].replace("-", "_"))
        assert "finite" in err[0]
        assert not out.exists()

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        # the dataset does not exist: the seed is refused before loading
        out = tmp_path / "out"
        rc = main(["train", "--dataset", str(tmp_path / "absent"),
                   "--out", str(out), "--seed", "-1"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: invalid configuration: seed must be at least 0, "
                       "got -1"]
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_degree_features_on_node_data_is_an_error(self, corpus, tmp_path,
                                                      capsys, command):
        out = tmp_path / "out"
        argv = {"train": ["train", "--preset", "node", "--epochs", "1"],
                "eval": ["eval", "--checkpoint", corpus["node_ckpt"]]}[command]
        rc = main([*argv, "--dataset", corpus["node_dir"], "--out", str(out),
                   "--degree-features", "3"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: --degree-features applies to "
                                 "graph-level data only")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_negative_degree_features_is_an_error(self, corpus, tmp_path,
                                                  capsys, command):
        out = tmp_path / "out"
        argv = {"train": ["train", "--preset", "molecule", "--epochs", "1"],
                "eval": ["eval", "--checkpoint", corpus["graph_ckpt"],
                         "--folds", "3"]}[command]
        rc = main([*argv, "--dataset", corpus["graph_dir"], "--out", str(out),
                   "--degree-features", "-3"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0] == "error: degree-features must be at least 0, got -3"
        assert not out.exists()

    def test_subgraph_nodes_on_graph_level_is_an_error(self, corpus, tmp_path,
                                                       capsys):
        out = tmp_path / "out"
        rc = main(["train", "--preset", "molecule", "--epochs", "1",
                   "--subgraph-nodes", "5", "--dataset", corpus["graph_dir"],
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: invalid configuration: "
                                 "subgraph_nodes must be nonnegative, and 0 "
                                 "on graph-level runs")
        assert not out.exists()

    def test_one_node_subgraphs_are_an_error(self, corpus, tmp_path, capsys):
        # batch norm over one node zeroes every activation: the encoder
        # would not train
        out = tmp_path / "out"
        rc = main(["train", "--preset", "node", "--hidden-dim", "4",
                   "--epochs", "1", "--subgraph-nodes", "1",
                   "--dataset", corpus["node_dir"], "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: invalid configuration: subgraph_nodes "
                                 "must be 0 (whole graph) or at least 2")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_subgraph_nodes_above_the_node_count_is_an_error(
            self, corpus, tmp_path, capsys, command):
        # the corpus graph has 150 nodes
        out = tmp_path / "out"
        argv = {"train": ["train"], "ablate": ["ablate", "--study", "concat"]}[command]
        rc = main([*argv, "--preset", "node", "--hidden-dim", "16",
                   "--epochs", "1", "--subgraph-nodes", "151",
                   "--dataset", corpus["node_dir"], "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: --subgraph-nodes 151 exceeds the graph's 150 nodes"]
        assert not out.exists()

    def test_corpus_of_no_graphs_is_an_error(self, tmp_path, capsys):
        corpus = tmp_path / "EMPTY"
        corpus.mkdir()
        for kind in ("A", "graph_indicator", "graph_labels"):
            (corpus / f"EMPTY_{kind}.txt").write_text("")
        out = tmp_path / "out"
        rc = main(["train", "--dataset", str(corpus), "--out", str(out),
                   "--epochs", "1"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: cannot load graph dataset at ")
        assert err[0].endswith("graph_indicator assigns no node to a graph: "
                               f"{corpus / 'EMPTY_graph_indicator.txt'}")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["train", "ablate"])
    def test_ce_variant_on_features_that_are_not_distributions(
            self, corpus, tmp_path, capsys, command):
        # the SBM corpus's features are Gaussian, so no row sums to 1
        out = tmp_path / "out"
        argv = {"train": ["train"], "ablate": ["ablate", "--study", "concat"]}[command]
        rc = main([*argv, "--preset", "node", "--hidden-dim", "8",
                   "--epochs", "1", "--variant", "ce-embed",
                   "--dataset", corpus["node_dir"], "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert re.fullmatch(r"error: variant 'ce-embed' needs feature rows "
                            r"that sum to 1, and node 0's sums to \S+", err[0])
        assert not out.exists()

    def test_subgraph_nodes_equal_to_the_node_count_is_the_whole_graph(
            self, corpus, tmp_path, capsys):
        logs = []
        for extra in ([], ["--subgraph-nodes", "150"]):
            out = tmp_path / f"out{len(logs)}"
            rc = main(["train", "--preset", "node", "--hidden-dim", "16",
                       "--epochs", "2", "--dataset", corpus["node_dir"],
                       "--out", str(out), *extra])
            assert rc == 0
            logs.append((out / "loss_log.jsonl").read_bytes())
        capsys.readouterr()
        assert logs[0] == logs[1]

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
        # the first step's update overflows the next step's forward, whose
        # numpy warnings this suite turns into errors
        rc = main(args + ["--preset", "molecule", "--epochs", "3",
                          "--lr", "1e300", "--dtype", "float64"])
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

    def test_overflowing_loss_is_one_error_line(self, tmp_path):
        # a child process, so numpy's warnings would reach its real stderr;
        # the first step's update overflows the second step's forward
        corpus = write_graph_corpus(tmp_path, num_graphs=40)
        out = tmp_path / "diverged"
        result = subprocess.run(
            [sys.executable, "-m", "latentgraph", "train",
             "--dataset", corpus, "--out", str(out), "--preset", "molecule",
             "--epochs", "3", "--lr", "1e300", "--dtype", "float64"],
            capture_output=True, text=True, cwd="/",
            env=dict(os.environ, PYTHONPATH=child_pythonpath()))
        assert result.returncode == 2
        assert result.stderr.splitlines() == [
            "error: non-finite reconstruction loss (nan) at epoch 0, step 1"]
        assert list(out.iterdir()) == []

    def test_failed_json_write_keeps_the_earlier_file(self, tmp_path):
        path = tmp_path / "report.json"
        cli._write_json(str(path), {"a": 1})
        before = path.read_bytes()
        with pytest.raises(TypeError):
            cli._write_json(str(path), {"a": 2, "b": object()})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["report.json"]

    @pytest.mark.parametrize("value", [float("nan"), float("inf"),
                                       -float("inf")])
    def test_non_finite_numbers_are_not_written(self, tmp_path, value):
        # JSON has no token for NaN or infinity
        path = tmp_path / "report.json"
        cli._write_json(str(path), {"a": 1})
        before = path.read_bytes()
        with pytest.raises(ValueError):
            cli._write_json(str(path), {"a": [1.0, value]})
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

    @pytest.mark.parametrize("case", ["graph", "molecule", "node"])
    def test_deterministic_mode_bytes_do_not_depend_on_blas_threads(
            self, corpus, tmp_path, case):
        graph = ["--dataset", corpus["graph_dir"], "--epochs", "2",
                 "--batch-size", "4", "--hidden-dim", "8", "--seed", "11"]
        flags = {"graph": graph,
                 "molecule": [*graph, "--preset", "molecule"],
                 "node": ["--dataset", corpus["node_dir"], "--preset", "node",
                          "--hidden-dim", "512", "--epochs", "2"]}[case]
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ, LAGRAPH_STRICT_DETERMINISM="1",
                       OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=child_pythonpath())
            out = tmp_path / f"threads{threads}"
            result = subprocess.run(
                [sys.executable, "-m", "latentgraph", "train", *flags,
                 "--out", str(out)],
                capture_output=True, env=env, cwd="/")
            assert result.returncode == 0, result.stderr
            outputs.append([(out / name).read_bytes() for name in
                            ("loss_log.jsonl", "checkpoint.json")])
        assert outputs[0] == outputs[1]
        dtype = json.loads(outputs[0][1])["build"]["dtype"]
        assert dtype == ("float64" if case == "graph" else "float32")

    def test_node_preset_float32_same_bytes_in_deterministic_mode(
            self, corpus, tmp_path):
        env = dict(os.environ, LAGRAPH_STRICT_DETERMINISM="1",
                   PYTHONPATH=child_pythonpath())
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            result = subprocess.run(
                [sys.executable, "-m", "latentgraph", "train",
                 "--dataset", corpus["node_dir"], "--out", str(out),
                 "--preset", "node", "--hidden-dim", "16", "--epochs", "2"],
                capture_output=True, env=env, cwd="/")
            assert result.returncode == 0, result.stderr
            outputs.append([(out / name).read_bytes() for name in
                            ("loss_log.jsonl", "checkpoint.json")])
        assert outputs[0] == outputs[1]
        checkpoint = json.loads(outputs[0][1])
        check(checkpoint, "checkpoint")
        assert checkpoint["build"]["dtype"] == "float32"


class TestEval:
    def test_graph_level_report(self, corpus, tmp_path, capsys):
        out = str(tmp_path / "eval")
        rc = main(["eval", "--checkpoint", corpus["graph_ckpt"],
                   "--dataset", corpus["graph_dir"], "--out", out,
                   "--folds", "3", "--reps", "2"])
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

    @pytest.mark.parametrize("epochs", ["0", "-5"])
    def test_probe_epochs_below_one_is_an_error(self, corpus, tmp_path,
                                                 capsys, epochs):
        # the check comes before anything loads: the checkpoint is absent
        out = tmp_path / "x"
        rc = main(["eval", "--checkpoint", str(tmp_path / "absent.json"),
                   "--dataset", corpus["node_dir"], "--level", "node",
                   "--reps", "1", "--probe-epochs", epochs, "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: probe-epochs must be at least 1, got {epochs}"]
        assert not out.exists()

    def test_negative_seed_is_a_usage_error(self, corpus, tmp_path, capsys):
        # the check comes before anything loads: the checkpoint is absent
        out = tmp_path / "x"
        rc = main(["eval", "--checkpoint", str(tmp_path / "absent.json"),
                   "--dataset", corpus["graph_dir"], "--seed", "-1",
                   "--out", str(out)])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: seed must be at least 0, got -1"]
        assert not out.exists()

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

    @staticmethod
    def edited_checkpoint(corpus, tmp_path, edit):
        doc = read_json(corpus["graph_ckpt"])
        edit(doc)
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(doc))
        return str(path)

    def eval_error(self, checkpoint, corpus, tmp_path, capsys):
        out = tmp_path / "x"
        rc = main(["eval", "--checkpoint", checkpoint,
                   "--dataset", corpus["graph_dir"], "--out", str(out),
                   "--folds", "3", "--reps", "1"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error: cannot load checkpoint: ")
        assert not out.exists()
        return err[0]

    @pytest.mark.parametrize("setting", [{"decoder_kind": "mlp"},
                                         {"use_bn": True}])
    def test_recorded_removed_setting_is_refused(self, corpus, tmp_path,
                                                 capsys, setting):
        """A recipe naming a setting that no longer exists does not build."""
        checkpoint = self.edited_checkpoint(
            corpus, tmp_path, lambda doc: doc["build"].update(setting))
        err = self.eval_error(checkpoint, corpus, tmp_path, capsys)
        assert "build recipe is invalid" in err and next(iter(setting)) in err

    def test_non_finite_arrays_are_refused(self, corpus, tmp_path, capsys):
        def poison(doc):
            for name, entry in doc["arrays"].items():
                nan = np.full(entry["shape"], np.nan)
                doc["arrays"][name] = {"shape": entry["shape"],
                                       "data": base64.b64encode(nan.tobytes()).decode()}

        checkpoint = self.edited_checkpoint(corpus, tmp_path, poison)
        err = self.eval_error(checkpoint, corpus, tmp_path, capsys)
        assert "holds NaN or inf values" in err

    def test_weights_that_overflow_are_refused(self, corpus, tmp_path, capsys):
        # finite weights whose representations are not: every first GIN
        # map scaled by 1e200 overflows float64 in the second layer
        def inflate(doc):
            for name, entry in doc["arrays"].items():
                if name.startswith("encoder.") and name.endswith("lin1.W"):
                    big = np.frombuffer(base64.b64decode(entry["data"]),
                                        "<f8") * 1e200
                    entry["data"] = base64.b64encode(big.tobytes()).decode()

        checkpoint = self.edited_checkpoint(corpus, tmp_path, inflate)
        out = tmp_path / "x"
        rc = main(["eval", "--checkpoint", checkpoint,
                   "--dataset", corpus["graph_dir"], "--out", str(out),
                   "--folds", "3", "--reps", "1"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: checkpoint {checkpoint!r} gives representations "
                       f"that are not finite: its weights overflow float64"]
        assert not out.exists()

    def test_checkpoint_that_is_not_utf8_is_refused(self, corpus, tmp_path,
                                                    capsys):
        path = tmp_path / "binary.json"
        path.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
        err = self.eval_error(str(path), corpus, tmp_path, capsys)
        assert err.startswith("error: cannot load checkpoint: not a valid "
                              "checkpoint file: 'utf-8' codec can't decode")

    def test_checkpoint_nested_too_deeply_is_refused(self, corpus, tmp_path,
                                                     capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200000)
        err = self.eval_error(str(path), corpus, tmp_path, capsys)
        assert "maximum recursion depth exceeded" in err

    def test_infinite_array_shape_is_refused(self, corpus, tmp_path, capsys):
        checkpoint = self.edited_checkpoint(
            corpus, tmp_path, lambda doc: next(iter(doc["arrays"].values()))
            .update(shape=[float("inf")]))
        err = self.eval_error(checkpoint, corpus, tmp_path, capsys)
        assert "corrupt array entry" in err

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

    def test_test_class_absent_from_training(self, corpus, tmp_path, capsys):
        """A test node may hold a class that no training node has, above
        every training label: the probe scores it as a miss."""
        graph = make_sbm_graph(60, 3, 0.2, 0.02, 6, np.random.default_rng(5),
                               feature_shift=2.0, noise_sd=0.6)
        seen = np.flatnonzero(graph.node_labels < 2)
        rest = np.setdiff1d(np.arange(60), seen[::2])
        split = NodeSplit(train=seen[::2], valid=rest[:4], test=rest[4:])
        assert graph.node_labels[split.train].max() == 1
        assert (graph.node_labels[split.test] == 2).any()
        data = str(tmp_path / "sbm3")
        write_nodelevel(graph, data, split=split)
        out = tmp_path / "x"
        rc = main(["eval", "--checkpoint", corpus["node_ckpt"], "--dataset", data,
                   "--out", str(out), "--reps", "1", "--probe-epochs", "40"])
        assert rc == 0
        capsys.readouterr()
        doc = read_json(out / "eval_report.json")
        check(doc, "eval_report")
        report = doc["reports"][0]
        assert report["hyperparameters"]["micro_f1"] == report["mean"]
        assert report["mean"] < 1.0

    @pytest.mark.parametrize("section", ["train", "test"])
    def test_negative_label_is_an_error(self, corpus, tmp_path, capsys,
                                        section):
        data = write_node_corpus(tmp_path, num_nodes=60)
        with open(os.path.join(data, "graph_split.txt"), encoding="utf-8") as fh:
            node = next(int(line.split()[1]) for line in fh
                        if line.startswith(section))
        path = os.path.join(data, "graph_labels.txt")
        with open(path, encoding="utf-8") as fh:
            labels = fh.read().splitlines()
        labels[node] = "-1"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(labels) + "\n")
        out = tmp_path / "x"
        rc = main(["eval", "--checkpoint", corpus["node_ckpt"],
                   "--dataset", data, "--out", str(out), "--reps", "1"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].endswith(f"labels: negative class id on line {node + 1}: '-1'")
        assert not out.exists()

    def test_node_listed_twice_in_the_split(self, corpus, tmp_path, capsys):
        data = write_node_corpus(tmp_path, num_nodes=60)
        path = os.path.join(data, "graph_split.txt")
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        first_test = next(i for i, line in enumerate(lines) if line.startswith("test"))
        node = lines[first_test].split()[1]
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(f"train {node}\n")  # a test label would reach training
        out = tmp_path / "x"
        rc = main(["eval", "--checkpoint", corpus["node_ckpt"],
                   "--dataset", data, "--out", str(out), "--reps", "1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert (f"split file: node {node} is listed on line {first_test + 1} "
                f"and again on line {len(lines) + 1}") in err
        assert not out.exists()


class TestUnusableOut:
    """An --out that cannot become a directory is a usage error before any
    work, and the command creates nothing."""

    @pytest.fixture
    def no_work(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("the command started work")
        # train, eval and ablate load their data first; verify sets up trials
        monkeypatch.setattr(cli, "_load_data", refuse)
        monkeypatch.setattr(cli, "_trial_setup", refuse)

    @pytest.mark.parametrize("under", [False, True], ids=["file", "under-file"])
    @pytest.mark.parametrize("command", ["train", "eval", "verify", "ablate"])
    def test_is_refused(self, corpus, tmp_path, capsys, no_work, command,
                        under):
        argv = {
            "train": ["train", "--dataset", corpus["graph_dir"], "--epochs", "1"],
            "eval": ["eval", "--checkpoint", corpus["graph_ckpt"],
                     "--dataset", corpus["graph_dir"]],
            "verify": ["verify", "--trials", "1"],
            "ablate": ["ablate", "--study", "batch-size",
                       "--dataset", corpus["graph_dir"], "--epochs", "1"],
        }[command]
        blocker = tmp_path / "taken"
        blocker.write_text("kept\n")
        out = blocker / "run" if under else blocker
        rc = main([*argv, "--out", str(out)])
        assert rc == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: --out {str(out)!r} is not a directory and cannot be made one"]
        assert os.listdir(tmp_path) == ["taken"]
        assert blocker.read_text() == "kept\n"

    def test_empty_path_is_refused(self, tmp_path, capsys, no_work,
                                   monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert main(["verify", "--out", ""]) == 2
        assert capsys.readouterr().err.startswith("error: --out ''")
        assert os.listdir(tmp_path) == []


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

    def test_dae_records_use_every_sample(self, tmp_path, capsys):
        # 100 samples do not divide into 8 mask draws; none is dropped
        out = str(tmp_path / "verify")
        rc = main(["verify", "--out", out, "--suite", "dae", "--trials", "1",
                   "--samples", "100", "--mask-draws", "8"])
        assert rc == 0
        capsys.readouterr()
        doc = read_json(os.path.join(out, "verification.json"))
        assert doc["samples"] == 100
        assert [r["estimate"]["n_samples"] for r in doc["records"]] == [100, 100]

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

    @pytest.mark.parametrize("multiplier", ["nan", "inf", "-inf", "-0.5"])
    def test_corrupt_multiplier_must_be_finite_and_nonnegative(
            self, tmp_path, capsys, multiplier):
        out = tmp_path / "x"
        rc = main(["verify", "--out", str(out), "--suite", "theorem1",
                   "--trials", "1", "--samples", "8", "--mask-draws", "1",
                   f"--corrupt-multiplier={multiplier}"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: corrupt-multiplier must be finite and at "
                       f"least 0, got {float(multiplier)}"]
        assert not out.exists()

    def test_trial_count_validation(self, tmp_path, capsys):
        rc = main(["verify", "--out", str(tmp_path / "x"), "--trials", "0"])
        assert rc == 2
        capsys.readouterr()

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        # exit 1 would mean a failed bound
        out = tmp_path / "x"
        rc = main(["verify", "--out", str(out), "--trials", "1", "--seed", "-1"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: seed must be at least 0, got -1"]
        assert not out.exists()

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

    @pytest.mark.parametrize("argv,code", [
        (["--suite", "all"], 0),
        (["--suite", "corollaries", "--corrupt-multiplier", "0.1"], 1),
    ], ids=["all", "control"])
    def test_report_bytes_and_fail_lines(self, tmp_path, capsys, argv, code):
        out = tmp_path / "verify"
        rc = main(["verify", "--out", str(out), "--trials", "2",
                   "--samples", "64", "--mask-draws", "4", "--seed", "1",
                   *argv])
        assert rc == code
        data = (out / "verification.json").read_bytes()
        doc = json.loads(data)
        assert data == (json.dumps(doc, indent=2, sort_keys=True)
                        + "\n").encode("utf-8")
        failed = [r for r in doc["records"] if not r["passed"]]
        assert len(failed) == doc["failed"] and bool(failed) == (code == 1)
        printed = capsys.readouterr().out.splitlines()
        assert [line for line in printed if line.startswith("FAIL")] == [
            f"FAIL trial {r['trial']} {r['which']} "
            f"({r.get('predictor', r['kind'])}): "
            f"{json.dumps(r['estimate'], sort_keys=True)}" for r in failed]
        assert printed[-1] == (f"verify suite {doc['suite']}: "
                               f"{doc['passed']}/{len(doc['records'])} "
                               f"checks passed")

    def test_earlier_records_are_released(self, tmp_path, capsys,
                                          monkeypatch):
        """Records are not held until the report is written: when a trial
        starts, no record of the trials before the previous one is alive."""
        class Record(dict):
            """A record that a weak reference can watch."""

        watched = []
        for name in ("_bound_record", "_inner_product_record"):
            def watch(trial, *args, make=getattr(cli, name)):
                record = Record(make(trial, *args))
                watched.append((trial, weakref.ref(record)))
                return record
            monkeypatch.setattr(cli, name, watch)

        make_predictor, started = cli.make_random_predictor, []

        def start_trial(*args, **kwargs):
            trial = len(started)
            started.append(trial)
            assert [t for t, ref in watched
                    if t < trial - 1 and ref() is not None] == []
            return make_predictor(*args, **kwargs)
        monkeypatch.setattr(cli, "make_random_predictor", start_trial)

        rc = main(["verify", "--out", str(tmp_path / "verify"), "--suite",
                   "all", "--trials", "4", "--samples", "64",
                   "--mask-draws", "2", "--seed", "0"])
        assert rc == 0  # none fails, so none is kept for a FAIL line
        capsys.readouterr()
        assert started == [0, 1, 2, 3]
        assert len(watched) == 4 * 9

    def test_non_finite_record_is_a_usage_error(self, tmp_path, capsys,
                                                 monkeypatch):
        """JSON has no token for NaN: the record is named, with exit 2 (1
        would mean a failed bound), and an earlier report stays."""
        out = tmp_path / "verify"
        argv = ["verify", "--out", str(out), "--suite", "theorem1",
                "--trials", "2", "--samples", "64", "--mask-draws", "2"]
        assert main(argv) == 0
        capsys.readouterr()
        before = {name: (out / name).read_bytes()
                  for name in os.listdir(out)}

        estimate, calls = cli.estimate_theorem1, []

        def nan_slack(*args, **kwargs):
            est = estimate(*args, **kwargs)
            if len(calls) == 4:  # trial 1's identity record
                est = dataclasses.replace(est, slack=float("nan"))
            calls.append(est)
            return est
        monkeypatch.setattr(cli, "estimate_theorem1", nan_slack)

        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        err = captured.err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: a value is not finite, and JSON "
                                 "cannot encode it, in trial 1 theorem1 "
                                 "(identity): {")
        assert '"slack": NaN' in err[0]
        assert len(calls) == 5  # the run stopped at that record
        assert {name: (out / name).read_bytes()
                for name in os.listdir(out)} == before


# a small run of each command at each level, and a value per level flag
LEVEL_RUNS = {
    ("eval", "graph"): ["eval", "--checkpoint", "{graph_ckpt}", "--dataset",
                        "{graph_dir}", "--reps", "1"],
    ("eval", "node"): ["eval", "--checkpoint", "{node_ckpt}", "--dataset",
                       "{node_dir}", "--reps", "1"],
    ("ablate", "graph"): ["ablate", "--study", "objective", "--dataset",
                          "{graph_dir}", "--epochs", "1", "--batch-size", "6",
                          "--hidden-dim", "8", "--encoder-layers", "1",
                          "--decoder-layers", "1"],
    ("ablate", "node"): ["ablate", "--study", "concat", "--preset", "node",
                         "--dataset", "{node_dir}", "--hidden-dim", "8",
                         "--epochs", "1"],
    ("train", "graph"): ["train", "--dataset", "{graph_dir}", "--epochs", "1",
                         "--batch-size", "4", "--hidden-dim", "8"],
    ("train", "node"): ["train", "--preset", "node", "--dataset", "{node_dir}",
                        "--hidden-dim", "8", "--epochs", "1"],
}
LEVEL_FLAG_ARGS = {
    "folds": ["--folds", "3"],
    # one-hot degrees capped at 1 are two features, as the corpus has
    "degree_features": ["--degree-features", "1"],
    "probe_epochs": ["--probe-epochs", "5"],
    "no_concat": ["--no-concat"],
    "file_prefix": ["--file-prefix", "graph"],
}
LEVEL_FLAG_CASES = [
    (name, command) for name in cli.LEVEL_FLAGS
    for command in ("eval", "ablate", "train")
    if LEVEL_FLAG_ARGS[name][0] in subparsers()[command]._option_string_actions]


class TestLevelFlags:
    def run(self, corpus, command, level, name, out):
        argv = [arg.format(**corpus) for arg in LEVEL_RUNS[command, level]]
        return main([*argv, *LEVEL_FLAG_ARGS[name], "--out", str(out)])

    def test_every_flag_is_offered_somewhere(self):
        assert sorted({name for name, _ in LEVEL_FLAG_CASES}) == sorted(
            cli.LEVEL_FLAGS)

    @pytest.mark.parametrize("name,command", LEVEL_FLAG_CASES)
    def test_flag_at_the_other_level_is_refused(self, corpus, tmp_path, capsys,
                                                name, command):
        level = cli.LEVEL_FLAGS[name][0]
        other = "node" if level == "graph" else "graph"
        out = tmp_path / "out"
        assert self.run(corpus, command, other, name, out) == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: {LEVEL_FLAG_ARGS[name][0]} applies to "
                       f"{level}-level data only, and this run is "
                       f"{other}-level"]
        assert not out.exists()

    @pytest.mark.parametrize("name,command", LEVEL_FLAG_CASES)
    def test_flag_at_its_level_runs(self, corpus, tmp_path, capsys, name,
                                    command):
        level = cli.LEVEL_FLAGS[name][0]
        out = tmp_path / "out"
        assert self.run(corpus, command, level, name, out) == 0
        capsys.readouterr()
        manifest = read_json(out / "manifest.json")
        check(manifest, "manifest")
        if command == "eval":
            # the manifest records the flags that applied, and only those
            applied = {"graph": {"folds"},
                       "node": {"concat_raw", "probe_epochs"}}[level]
            assert set(manifest["config"]) == {"checkpoint", "reps",
                                                "level"} | applied


class TestStudyFactors:
    @pytest.mark.parametrize("study,flag,preset", [
        ("batch-size", ["--batch-size", "64"], "molecule"),
        ("subgraph", ["--subgraph-nodes", "50"], "node"),
        ("objective", ["--variant", "ce-embed"], "molecule"),
    ])
    def test_a_flag_for_the_swept_factor_is_refused(self, tmp_path, capsys,
                                                    study, flag, preset):
        # refused before anything loads: the dataset is absent
        out = tmp_path / "out"
        rc = main(["ablate", "--study", study, "--preset", preset,
                   "--dataset", str(tmp_path / "absent"), "--out", str(out),
                   *flag])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: study {study!r} sweeps {flag[0]}; it cannot "
                       "also be set"]
        assert not out.exists()


def command_argv(corpus, command):
    """The argv of a small run of each command that builds sparse matrices
    (and of ``verify``, which builds none)."""
    return {
        "train-graph": ["train", "--dataset", corpus["graph_dir"], "--epochs", "1",
                        "--batch-size", "4", "--hidden-dim", "8"],
        "train-node": ["train", "--dataset", corpus["node_dir"], "--preset", "node",
                       "--hidden-dim", "8", "--epochs", "1"],
        "eval-graph": ["eval", "--checkpoint", corpus["graph_ckpt"],
                       "--dataset", corpus["graph_dir"], "--folds", "3", "--reps", "1"],
        "eval-node": ["eval", "--checkpoint", corpus["node_ckpt"],
                      "--dataset", corpus["node_dir"], "--reps", "1"],
        "verify": ["verify", "--suite", "all", "--trials", "2", "--samples", "64",
                   "--mask-draws", "2"],
    }[command]


def run_fresh(code):
    """Run ``code`` in a fresh interpreter; returns the finished process."""
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        cwd="/", env=dict(os.environ, PYTHONPATH=child_pythonpath()))
    assert result.returncode == 0, result.stderr
    return result


def loaded_after(argv, module):
    """Whether ``module`` is in ``sys.modules`` once a fresh process has run
    the command to a successful end."""
    code = ("import sys\n"
            "from latentgraph import cli\n"
            f"rc = cli.main({argv!r})\n"
            f"print(rc, {module!r} in sys.modules)\n")
    rc, loaded = run_fresh(code).stdout.split()[-2:]
    assert rc == "0", rc
    return loaded == "True"


class TestSparseImport:
    """Sparse products call scipy's compiled kernels without importing
    ``scipy.sparse``, so no command pays for its package import."""

    def test_verify_never_loads_scipy_sparse(self, tmp_path):
        assert not loaded_after(
            ["verify", "--out", str(tmp_path / "verify"), "--suite", "all",
             "--trials", "2", "--samples", "64", "--mask-draws", "2"], "scipy.sparse")

    @pytest.mark.parametrize("command", ["train-graph", "train-node", "eval-graph",
                                         "eval-node"])
    def test_no_command_loads_it(self, corpus, tmp_path, command):
        argv = command_argv(corpus, command) + ["--out", str(tmp_path / "out")]
        assert not loaded_after(argv, "scipy.sparse")


# what a fresh process reports about OpenSSL: whether libcrypto is mapped
# (None where /proc/self/maps does not exist) and whether _hashlib is blocked
OPENSSL_REPORT = (
    "maps = '/proc/self/maps'\n"
    "crypto = ('libcrypto' in open(maps).read()) if os.path.exists(maps) else None\n"
    "print(json.dumps([crypto, sys.modules.get('_hashlib', 0) is None]))\n")
SHA256_OF_NOTHING = ("e3b0c44298fc1c149afbf4c8996fb924"
                     "27ae41e4649b934ca495991b7852b855")


class TestOpenSSL:
    """``cli.main`` keeps OpenSSL's libcrypto out of the process: nothing
    computes a digest, and numpy.random would load it only through
    secrets -> hmac -> _hashlib. A plain library import keeps it."""

    @pytest.mark.parametrize("command", ["train-graph", "train-node", "eval-graph",
                                         "eval-node", "verify"])
    def test_no_command_maps_libcrypto(self, corpus, tmp_path, command):
        argv = command_argv(corpus, command) + ["--out", str(tmp_path / "out")]
        result = run_fresh(
            "import json, os, sys\n"
            "from latentgraph import cli\n"
            f"assert cli.main({argv!r}) == 0\n"
            + OPENSSL_REPORT +
            "import hashlib\n"
            "print(hashlib.sha256(b'').hexdigest())\n")
        *_, report, digest = result.stdout.splitlines()
        crypto, blocked = json.loads(report)
        assert blocked
        assert digest == SHA256_OF_NOTHING
        # hashlib logs "code for hash ... was not found" for a digest that
        # has no built-in fallback either
        assert "code for hash" not in result.stderr
        if crypto is None:
            pytest.skip("no /proc/self/maps to read")
        assert not crypto

    def test_a_library_import_still_maps_it(self):
        """The control: without ``main``, numpy.random loads libcrypto, so the
        test above can see it, and the guard lives in the CLI only."""
        if not os.path.exists("/proc/self/maps"):
            pytest.skip("no /proc/self/maps to read")
        result = run_fresh("import json, os, sys\n"
                           "import numpy as np\n"
                           "import latentgraph\n"
                           "np.random.default_rng(0)\n" + OPENSSL_REPORT)
        assert json.loads(result.stdout.splitlines()[-1]) == [True, False]


class TestEnvironment:
    @pytest.mark.parametrize("command", ["train-graph", "train-node", "eval-graph",
                                         "eval-node", "verify"])
    def test_no_command_imports_scipy(self, corpus, tmp_path, command):
        """The manifest reads scipy's version from its ``version.py``, and the
        sparse products load only the kernels' extension module, so no
        command runs scipy's package import."""
        argv = command_argv(corpus, command) + ["--out", str(tmp_path / "out")]
        assert not loaded_after(argv, "scipy")

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_blas_threads_follow_openblas(self, threads):
        """The manifest's blas_threads is what numpy's bundled OpenBLAS runs
        with, and null without one."""
        code = "from latentgraph import cli\nprint(cli._environment()['blas_threads'])\n"
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, cwd="/",
            env=dict(os.environ, PYTHONPATH=child_pythonpath(),
                     OPENBLAS_NUM_THREADS=threads))
        assert result.returncode == 0, result.stderr
        bundled = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                         "numpy.libs", "*openblas*"))
        assert result.stdout.split()[-1] == (threads if bundled else "None")

    def test_blas_core_is_read_where_openblas_is_bundled(self):
        bundled = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                         "numpy.libs", "*openblas*"))
        core = cli._environment()["blas_core"]
        assert bool(core) if bundled else core is None


class TestMaskedArrayImport:
    """No command loads ``numpy.ma``: neither our code (``np.unique`` would,
    on its first call) nor the sparse products (``scipy.sparse`` would)."""

    @pytest.mark.parametrize("command", ["train-graph", "train-node", "eval-graph",
                                         "eval-node", "verify"])
    def test_no_command_loads_it(self, corpus, tmp_path, command):
        argv = command_argv(corpus, command) + ["--out", str(tmp_path / "out")]
        assert not loaded_after(argv, "numpy.ma")

    def test_probes_do_not_load_it(self):
        """The probes' label handling, checked without a command around it."""
        code = ("import sys\n"
                "import numpy as np\n"
                "from latentgraph.evaluation import linsvm_kfold, logreg_fit\n"
                "rng = np.random.default_rng(0)\n"
                "x, y = rng.normal(size=(12, 3)), np.arange(12) % 3\n"
                "linsvm_kfold(x, y, folds=2)\n"
                "logreg_fit(x, y, epochs=2, rng=rng)\n"
                "print('numpy.ma' in sys.modules, 'scipy.sparse' in sys.modules)\n")
        result = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            cwd="/", env=dict(os.environ, PYTHONPATH=child_pythonpath()))
        assert result.returncode == 0, result.stderr
        assert result.stdout.split()[-2:] == ["False", "False"]


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
        # the preset's batch size is not a flag, so the sweep overrides it
        rc = main(["ablate", "--study", "batch-size",
                   "--dataset", corpus["graph_dir"], "--out", out,
                   "--epochs", "1", "--preset", "molecule", "--hidden-dim", "8",
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
                   "--probe-epochs", "60"])
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

    def test_probe_epochs_below_one_is_an_error(self, corpus, tmp_path,
                                                 capsys):
        # the check comes before anything loads: the dataset is absent
        out = tmp_path / "x"
        rc = main(["ablate", "--study", "concat", "--preset", "node",
                   "--dataset", str(tmp_path / "absent"), "--out", str(out),
                   "--probe-epochs", "-1"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: probe-epochs must be at least 1, got -1"]
        assert not out.exists()

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        # the check comes before anything loads: the dataset is absent
        out = tmp_path / "x"
        rc = main(["ablate", "--study", "objective",
                   "--dataset", str(tmp_path / "absent"), "--out", str(out),
                   "--seed", "-1"])
        assert rc == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["error: invalid configuration: seed must be at least 0, "
                       "got -1"]
        assert not out.exists()

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
