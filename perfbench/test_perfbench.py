"""Tests of the benchmark itself, on tiny versions of every workload.

    python3 -m unittest perfbench/test_perfbench.py    (or pytest)

They check that every named metric is emitted, that the counts of a traced
run repeat exactly, that the tracer removes its wrappers, that the strict
workload's outputs are byte-identical traced and untraced, and that the
benchmark refuses to run where there are no sources.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

_SMALL_CORPUS = (("num_graphs", 24),)
_SMALL_TRAIN = ("--preset", "molecule", "--epochs", "1", "--batch-size", "8")
TINY = {
    "graph-gin": dataclasses.replace(
        run.WORKLOADS["graph-gin"], data_args=_SMALL_CORPUS,
        train=_SMALL_TRAIN,
        eval=("--level", "graph", "--folds", "2", "--reps", "1")),
    "node-gcn": dataclasses.replace(
        run.WORKLOADS["node-gcn"],
        data_args=(("num_nodes", 200), ("intra_edges", 400),
                   ("inter_edges", 200)),
        train=("--preset", "node", "--hidden-dim", "8", "--epochs", "2"),
        eval=("--level", "node", "--reps", "1", "--probe-epochs", "5")),
    "graph-gin-strict": dataclasses.replace(
        run.WORKLOADS["graph-gin-strict"], data_args=_SMALL_CORPUS,
        train=_SMALL_TRAIN),
    "verify": dataclasses.replace(run.WORKLOADS["verify"], trials=1),
}
_TIMES = ("run_s", "step_ms_p50", "step_ms_p90")
EXTRAS = {
    "graph-gin": _TIMES + ("train_nodes_per_s", "eval_s", "final_loss",
                           "probe_acc"),
    "node-gcn": _TIMES + ("train_nodes_per_s", "eval_s", "final_loss",
                          "probe_acc"),
    "graph-gin-strict": _TIMES + ("train_nodes_per_s", "final_loss"),
    "verify": _TIMES + ("verify_checks_per_s",),
}


def _attributes():
    """Every attribute of the package's modules and classes, by identity."""
    import latentgraph
    from latentgraph import (bounds, cli, engine, evaluation, graphs, models,
                             objectives, training)
    owners = [latentgraph, bounds, cli, engine, evaluation, graphs, models,
              objectives, training]
    owners += [v for m in owners[1:] for v in vars(m).values()
               if isinstance(v, type) and v.__module__ == m.__name__]
    return {(owner.__name__, name): value
            for owner in owners for name, value in vars(owner).items()}


class TinyWorkloads(unittest.TestCase):
    """One untraced and two traced runs of every tiny workload, shared by
    the tests below; the second traced run also checks its counts against
    the first through the ledger."""

    @classmethod
    def setUpClass(cls):
        cls.work = tempfile.mkdtemp(prefix="perfbench-test-")
        cls.records = {
            (name, trace, rep): run.bench(workload, 3, 0.0, trace,
                                          work_root=cls.work,
                                          probes=1 - trace)
            for name, workload in TINY.items()
            for trace, rep in ((0, 0), (1, 0), (1, 1))}

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.work, ignore_errors=True)

    def test_runs_are_correct(self):
        for key, record in self.records.items():
            with self.subTest(run=key):
                self.assertTrue(record["correct"], record["problems"])
                self.assertEqual(record["failed"], 0)
                self.assertGreaterEqual(record["attempted"], 1)

    def test_untraced_run_emits_every_end_to_end_metric(self):
        for name in TINY:
            metrics = self.records[name, 0, 0]["metrics"]
            for metric in run.metric_names(0) + list(EXTRAS[name]):
                with self.subTest(workload=name, metric=metric):
                    self.assertIn(metric, metrics)
                    self.assertGreater(metrics[metric]["value"], 0.0)
            self.assertEqual(metrics["fail_frac"]["value"], 0.0)

    def test_traced_runs_emit_every_layer_metric_and_repeat_counts(self):
        for name in TINY:
            first = self.records[name, 1, 0]["metrics"]
            second = self.records[name, 1, 1]["metrics"]
            self.assertEqual(sorted(first), sorted(run.metric_names(1)))
            for metric in spans.COUNT_METRICS:
                with self.subTest(workload=name, metric=metric):
                    self.assertEqual(first[metric]["value"],
                                     second[metric]["value"])

    def test_layer_metrics_land_where_the_workload_runs(self):
        gin = self.records["graph-gin", 1, 0]["metrics"]
        verify = self.records["verify", 1, 0]["metrics"]
        self.assertGreater(gin["engine.row_select.calls"]["value"], 0)
        self.assertEqual(gin["graphs.normalized_adjacency.calls"]["value"], 0)
        self.assertEqual(gin["bounds.embed.calls"]["value"], 0)
        self.assertGreater(verify["bounds.embed.calls"]["value"], 0)
        self.assertEqual(verify["engine.matmul.calls"]["value"], 0)

    def test_spmm_flops_are_two_nnz_width_each_way(self):
        from latentgraph import graphs
        with tempfile.TemporaryDirectory() as tmp:
            prefix = os.path.join(
                inputs.write_sbm_graph(tmp, 3, **dict(
                    TINY["node-gcn"].data_args)), inputs.NODE_PREFIX)
            graph, _ = graphs.parse_nodelevel(
                prefix + "_edges.txt", prefix + "_features.txt",
                prefix + "_labels.txt")
        nnz = graphs.batch_graphs([graph]).normalized_adjacency().nnz
        # every spmm of the tiny node-gcn model is 8 wide: --hidden-dim 8,
        # and the decoder reconstructs the 8 features
        self.assertEqual(inputs.FEATURE_DIM, 8)
        metrics = self.records["node-gcn", 1, 0]["metrics"]
        calls = metrics["engine.spmm.calls"]["value"]
        self.assertGreater(calls, 0)
        self.assertAlmostEqual(metrics["engine.spmm.gflop"]["value"],
                               calls * 2 * (2 * nnz * 8) / 1e9, places=15)

    def test_ledger_flags_a_changed_count(self):
        path = os.path.join(self.work, "ledger.json")
        with open(path, encoding="utf-8") as fh:
            ledger = json.load(fh)
        work = tempfile.mkdtemp(prefix="perfbench-test-")
        try:
            for per_code in ledger.values():
                per_code["verify/3/counts"]["bounds.embed.calls"] += 1
            with open(os.path.join(work, "ledger.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(ledger, fh)
            record = run.bench(TINY["verify"], 3, 0.0, 1, work_root=work,
                               probes=0)
        finally:
            shutil.rmtree(work, ignore_errors=True)
        self.assertFalse(record["correct"])
        self.assertTrue(any("bounds.embed.calls" in p
                            for p in record["problems"]))


class Wrappers(unittest.TestCase):

    def test_tracer_and_hooks_remove_their_wrappers(self):
        from latentgraph import cli
        before = _attributes()
        tracer = spans.Tracer()
        tracer.install()
        hooks = child.Hooks(probe=False, tracer=tracer)
        hooks.install(cli)
        self.assertIsNot(_attributes()[("latentgraph.models", "spmm")],
                         before[("latentgraph.models", "spmm")])
        out = tempfile.mkdtemp(prefix="perfbench-test-")
        try:
            index = tracer.open("cli.main")
            code = cli.main(["verify", "--trials", "1", "--samples", "16",
                             "--mask-draws", "2", "--out", out])
            tracer.close(index)
        finally:
            hooks.uninstall()
            tracer.uninstall()
            shutil.rmtree(out, ignore_errors=True)
        self.assertIn(code, (0, 1))
        after = _attributes()
        self.assertEqual(after.keys(), before.keys())
        changed = [key for key in before if after[key] is not before[key]]
        self.assertEqual(changed, [])
        totals = tracer.aggregate()["spans"]["run"]
        self.assertGreater(totals["bounds.embed"][0], 0)

    def test_self_times_add_up(self):
        tracer = spans.Tracer()
        tracer.begin_step()
        outer = tracer.open("outer")
        tracer.close(tracer.open("inner"))
        tracer.close(tracer.open("engine.backward"))
        tracer.close(outer)
        tracer.close(tracer.open("training.optimizer"))
        tracer.end_step()
        agg = tracer.aggregate()
        self.assertEqual(agg["steps"], 1)
        totals = agg["spans"]["step"]
        step_incl = totals[spans.STEP][1]
        self.assertAlmostEqual(sum(own for _, _, own in totals.values()),
                               step_incl, places=12)
        calls, incl, own = totals["outer"]
        self.assertEqual(calls, 1)
        self.assertAlmostEqual(own, incl - totals["inner"][1]
                               - totals["engine.backward"][1], places=12)
        [(duration, *markers)] = agg["step_spans"]
        self.assertEqual(duration, step_incl)
        self.assertEqual(markers, [1, 1])

    def test_step_span_check_flags_misplaced_steps(self):
        tally = run.Tally()
        run.check_step_spans([[0.03, 1, 1], [0.04, 1, 1]], [0.03, 0.0401],
                             tally)
        self.assertEqual((tally.attempted, tally.failed), (5, 0))
        for step_spans, logged in (
                ([[0.03, 1, 1]], [0.03, 0.03]),  # a step not traced
                ([[0.06, 2, 2]], [0.06]),        # two steps in one span
                ([[0.03, 1, 1]], [0.05])):       # boundaries elsewhere
            tally = run.Tally()
            run.check_step_spans(step_spans, logged, tally)
            self.assertGreater(tally.failed, 0, (step_spans, logged))

    def test_flops_count_each_ops_backward(self):
        import numpy as np
        from latentgraph import engine, models
        tracer = spans.Tracer()
        tracer.install()
        try:
            s = engine.SparseMatrix.from_dense(np.eye(5) + np.eye(5, k=1))
            x = engine.Value(np.ones((5, 3)))
            w = engine.Value(np.ones((3, 4)))
            y = models.spmm(s, models.matmul(x, w))
            engine.backward(engine.sum_squares(y))
        finally:
            tracer.uninstall()
        flops = tracer.counters["run"]
        # spmm: 2 * nnz * width forward, once more backward (s.T @ g)
        self.assertEqual(flops["engine.spmm.flop"], 2 * (2 * 9 * 4))
        # matmul: 2 * m * k * n forward, twice more backward (two GEMMs)
        self.assertEqual(flops["engine.matmul.flop"], 3 * (2 * 5 * 3 * 4))


class Inputs(unittest.TestCase):

    def test_same_seed_same_files(self):
        with tempfile.TemporaryDirectory() as tmp:
            digests = []
            for sub in ("a", "b", "c"):
                seed = 7 if sub != "c" else 8
                inputs.write_molecule_corpus(os.path.join(tmp, sub), seed,
                                             num_graphs=10)
                inputs.write_sbm_graph(os.path.join(tmp, sub, "sbm"), seed,
                                       num_nodes=100, intra_edges=200,
                                       inter_edges=100)
                files = sorted(os.path.join(base, f)
                               for base, _, names in os.walk(
                                   os.path.join(tmp, sub)) for f in names)
                digests.append([run.sha256(f) for f in files])
            self.assertEqual(digests[0], digests[1])
            self.assertNotEqual(digests[0], digests[2])


class Contract(unittest.TestCase):

    def test_benchmark_json_lists_what_run_emits(self):
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(run.WORKLOADS))
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in spec["end_to_end"]], list(run.END_TO_END))
        self.assertEqual([m["name"] for m in spec["per_layer"]],
                         run.metric_names(1))
        for metric in spec["end_to_end"] + spec["per_layer"]:
            self.assertEqual(metric["unit"], run.UNITS[metric["name"]])

    def test_refuses_to_run_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, os.path.join(tmp, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp)
            out = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "verify",
                 "--seed", "1", "--seconds", "1", "--trace", "0"],
                cwd=tmp, capture_output=True, text=True, timeout=180)
        self.assertNotEqual(out.returncode, 0)
        self.assertNotIn("correct", out.stdout)


if __name__ == "__main__":
    unittest.main()
