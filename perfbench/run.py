"""Benchmark of the latentgraph train -> eval -> verify pipeline.

    python3 perfbench/run.py --workload graph-gin --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout. It writes the workload's inputs for
the seed, then, for about ``--seconds`` seconds, runs the workload's
``lagraph`` commands as a closed loop with one client: each command in a
fresh process, started when the previous one has returned. A run repeats
the whole command sequence while the time budget lasts; between sequences
it starts the first command a fixed number of times, spread over the run,
and stops it where set-up ends (set-up probes). It checks every output,
prints each metric with its unit and sample count, and ends with one JSON
line:
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``. With ``--trace 1`` the run alternates untraced and traced
sequences, and the metrics are the per-layer ones from ``spans.py`` plus
``trace.overhead_frac``. Everything the run writes stays under
``.perfbench_work/`` in the checkout.
"""

import argparse
import dataclasses
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import spans  # noqa: E402

WORK = os.path.join(ROOT, ".perfbench_work")
PROBES = 12          # set-up probes per untraced run
COMMAND_TIMEOUT = 120.0  # a healthy command takes well under 30 s
STRICT_ENV = "LAGRAPH_STRICT_DETERMINISM"
CHECKS_PER_TRIAL = 9  # records per verify trial with --suite all
# A traced step span and the log-write interval of its step are stamped a
# few microseconds apart; allow for a stall of the host between the stamps.
STEP_SPAN_TOLERANCE_S = 0.002
STEP_SPAN_TOLERANCE_FRAC = 0.05


@dataclasses.dataclass(frozen=True)
class Workload:
    """A workload: its input, its command sequence and why it exists."""

    name: str
    why: str
    data: str            # "molecules", "sbm" or "none"
    data_args: tuple = ()  # (keyword, value) pairs for the input writer
    train: tuple = ()    # extra `lagraph train` flags; () for no train step
    eval: tuple = ()     # extra `lagraph eval` flags; () for no eval step
    trials: int = 0      # verify trials; 0 for no verify step
    strict: bool = False


WORKLOADS = {w.name: w for w in (
    Workload(
        "graph-gin",
        "many tiny GIN batches: Python dispatch, batch norm, autodiff "
        "bookkeeping and per-graph loops dominate; runs the k-fold SVM probe",
        "molecules",
        train=("--preset", "molecule", "--epochs", "4"),
        eval=("--level", "graph", "--folds", "10", "--reps", "1")),
    Workload(
        "node-gcn",
        "one 10k-node SBM graph with 10k x 64 arrays beyond cache: spmm, GCN "
        "normalisation and memory; runs the logistic probe",
        "sbm",
        train=("--preset", "node", "--hidden-dim", "64", "--epochs", "50"),
        eval=("--level", "node", "--reps", "1")),
    Workload(
        "graph-gin-strict",
        "graph-gin training in strict-determinism mode: the per-row GEMV "
        "matmul path, and byte-identical loss logs and checkpoints",
        "molecules",
        train=("--preset", "molecule", "--epochs", "4"),
        strict=True),
    Workload(
        "verify",
        "the Monte-Carlo bound lab: stacked numpy in bounds, no autodiff",
        "none",
        trials=120),
)}

# name, unit, better. END_TO_END are BENCHMARK.json's end-to-end metrics,
# which a run reports on every workload and which never read 0. EXTRA are
# printed, not gated: some apply to some workloads only or read 0, and the
# wall times spread between runs by more than the largest bound allowed
# (0.25) on a host whose speed drifts (see README.md).
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
)
EXTRA = (
    ("run_s", "s", "lower"),
    ("step_ms_p50", "ms", "lower"),
    ("step_ms_p90", "ms", "lower"),
    ("train_nodes_per_s", "nodes/s", "higher"),
    ("eval_s", "s", "lower"),
    ("verify_checks_per_s", "checks/s", "higher"),
    ("final_loss", "loss", "lower"),
    ("probe_acc", "fraction", "higher"),
    ("fail_frac", "fraction", "lower"),
)
UNITS = {name: unit for name, unit, _ in END_TO_END + EXTRA}
UNITS.update({name: unit for name, unit, *_ in spans.LAYER_METRICS})
UNITS["trace.overhead_frac"] = "fraction"
UNITS["bounds.checks_failed"] = "count"


class Tally:
    """Operations attempted and failed, and why they failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.verdicts_failed = 0  # verify records whose check said FAIL
        self.problems = []

    def check(self, ok, message):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(message)
        return ok


# ---------------------------------------------------------------------------
# processes


def run_command(argv, out_dir, mode, strict):
    """Run one lagraph command via child.py; returns (result, wall_s,
    peak_rss_mib). The result is None when the child wrote none."""
    os.makedirs(out_dir, exist_ok=True)
    result_path = os.path.join(out_dir, "child_result.json")
    env = dict(os.environ)
    env.pop(STRICT_ENV, None)
    if strict:
        env[STRICT_ENV] = "1"
    with open(os.path.join(out_dir, "child_output.txt"), "w") as log:
        spawned = time.monotonic()
        proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "child.py"), result_path,
             repr(spawned), mode, "--", *argv],
            stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        timer = threading.Timer(COMMAND_TIMEOUT, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.monotonic() - spawned
        # reaped by wait4, which also gave the rusage; Popen must not wait
        proc.returncode = os.waitstatus_to_exitcode(status)
    result = None
    if os.path.exists(result_path):
        with open(result_path, encoding="utf-8") as fh:
            result = json.load(fh)
    return result, wall, usage.ru_maxrss / 1024.0


def write_inputs(workload, seed, directory):
    kwargs = dict(workload.data_args)
    if workload.data == "molecules":
        return inputs.write_molecule_corpus(directory, seed, **kwargs)
    if workload.data == "sbm":
        return inputs.write_sbm_graph(directory, seed, **kwargs)
    return None


def commands(workload, seed, dataset, out):
    """The workload's command sequence: (kind, argv, out_dir) triples."""
    seq = []
    if workload.train:
        seq.append(("train", ["train", "--dataset", dataset, "--out",
                              os.path.join(out, "train"), "--seed", "0",
                              *workload.train], os.path.join(out, "train")))
    if workload.eval:
        seq.append(("eval", ["eval", "--checkpoint",
                             os.path.join(out, "train", "checkpoint.json"),
                             "--dataset", dataset, "--out",
                             os.path.join(out, "eval"), "--seed", "0",
                             *workload.eval], os.path.join(out, "eval")))
    if workload.trials:
        seq.append(("verify", ["verify", "--suite", "all", "--trials",
                               str(workload.trials), "--seed", str(seed),
                               "--out", os.path.join(out, "verify")],
                    os.path.join(out, "verify")))
    return seq


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ---------------------------------------------------------------------------
# one command sequence


def run_sequence(workload, seed, dataset, out, traced, tally):
    """Run the command sequence once and check its outputs."""
    seq = {"traced": traced, "steps_s": [], "peak_rss_mb": 0.0,
           "aggregates": []}
    mode = "trace" if traced else "plain"
    start = time.monotonic()
    for kind, argv, out_dir in commands(workload, seed, dataset, out):
        result, wall, rss = run_command(argv, out_dir, mode, workload.strict)
        seq["peak_rss_mb"] = max(seq["peak_rss_mb"], rss)
        if result is None or result["error"]:
            detail = result["error"] if result else "no result written"
            tally.check(False, f"{kind} crashed: {detail}")
            return seq
        seq["env"] = result["env"]
        if result["trace"] is not None:
            seq["aggregates"].append(result["trace"])
        if kind == "train":
            check_train(workload, result, out_dir, seq, tally)
        elif kind == "eval":
            tally.check(result["exit_code"] == 0,
                        f"eval exited {result['exit_code']}")
            seq["eval_s"] = wall
            report = os.path.join(out_dir, "eval_report.json")
            if tally.check(os.path.exists(report), "eval wrote no report"):
                with open(report, encoding="utf-8") as fh:
                    acc = json.load(fh)["summary"]["mean_accuracy"]
                if tally.check(0.0 <= acc <= 1.0,
                               f"probe accuracy {acc} outside [0, 1]"):
                    seq["probe_acc"] = acc
        else:
            check_verify(workload, result, out_dir, wall, seq, tally)
    seq["run_s"] = time.monotonic() - start
    return seq


def check_train(workload, result, out_dir, seq, tally):
    if not tally.check(result["exit_code"] == 0,
                       f"train exited {result['exit_code']}"):
        return
    seq["steps_s"] = result["step_s"]
    log = os.path.join(out_dir, "loss_log.jsonl")
    checkpoint = os.path.join(out_dir, "checkpoint.json")
    if not tally.check(os.path.exists(log) and os.path.exists(checkpoint),
                       "train wrote no loss log or checkpoint"):
        return
    with open(log, encoding="utf-8") as fh:
        records = [json.loads(line) for line in fh]
    tally.check(len(records) == len(result["step_s"]),
                f"{len(records)} loss lines for {len(result['step_s'])} steps")
    for record in records:
        tally.check(all(math.isfinite(record[k]) for k in
                        ("loss", "reconstruction", "invariance")),
                    f"non-finite loss at epoch {record['epoch']} "
                    f"step {record['step']}")
    if result["trace"] is not None:
        check_step_spans(result["trace"]["step_spans"], result["step_s"],
                         tally)
    seq["final_loss"] = result["final_loss"]
    seq["train_nodes_per_s"] = result["nodes_stepped"] / result["loop_s"]
    if workload.strict:
        seq["digests"] = {"loss_log": sha256(log),
                          "checkpoint": sha256(checkpoint)}


def check_step_spans(step_spans, step_s, tally):
    """The tracer's step spans must be the training loop's steps: one per
    loss-log line, each lasting as long as the interval between the log
    writes that bound it, and each holding one backward pass and one
    optimiser update."""
    if not tally.check(len(step_spans) == len(step_s),
                       f"{len(step_spans)} traced steps for {len(step_s)} "
                       "loss lines"):
        return
    for index, ((duration, *markers), logged) in enumerate(
            zip(step_spans, step_s)):
        tally.check(abs(duration - logged) <= STEP_SPAN_TOLERANCE_S
                    + STEP_SPAN_TOLERANCE_FRAC * logged,
                    f"traced step {index} lasted {duration:.6f} s, its log "
                    f"interval {logged:.6f} s")
        tally.check(markers == [1] * len(spans.STEP_MARKERS),
                    f"traced step {index} holds {markers} spans of "
                    f"{spans.STEP_MARKERS}, not one each")


def check_verify(workload, result, out_dir, wall, seq, tally):
    path = os.path.join(out_dir, "verification.json")
    if not tally.check(os.path.exists(path), "verify wrote no report"):
        return
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    records = doc["records"]
    failed = sum(1 for r in records if not r["passed"])
    tally.check(len(records) == CHECKS_PER_TRIAL * workload.trials,
                f"verify wrote {len(records)} records for "
                f"{workload.trials} trials")
    tally.check(doc["failed"] == failed
                and result["exit_code"] == (1 if failed else 0),
                f"verify exit code {result['exit_code']} with {failed} "
                "failed records")
    tally.attempted += len(records)
    tally.verdicts_failed += failed
    seq["steps_s"] = result["trial_s"]
    seq["checks_failed"] = failed
    seq["verify_checks_per_s"] = len(records) / wall


# ---------------------------------------------------------------------------
# cross-run ledger


def source_digest():
    """Digest of the package sources, so that the ledger only compares runs
    of the same code."""
    h = hashlib.sha256()
    pkg = os.path.join(ROOT, "src", "latentgraph")
    for base, dirs, files in os.walk(pkg):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith((".py", ".json")):
                path = os.path.join(base, name)
                h.update(os.path.relpath(path, pkg).encode())
                h.update(sha256(path).encode())
    return h.hexdigest()


def ledger_check(work_root, key, facts, tally):
    """Compare ``facts`` with what earlier runs of the same code and seed
    recorded under ``key``, then record them."""
    path = os.path.join(work_root, "ledger.json")
    ledger = {}
    if os.path.exists(path):
        with open(path, encoding="utf-8") as fh:
            ledger = json.load(fh)
    seen = ledger.setdefault(source_digest(), {}).setdefault(key, {})
    for name, value in facts.items():
        if name in seen:
            tally.check(seen[name] == value,
                        f"{key} {name}: {value} differs from an earlier run's "
                        f"{seen[name]}")
        else:
            seen[name] = value
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(ledger, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# metrics


def percentile(values, q):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def end_to_end(sequences, setups, tally):
    """Every end-to-end metric that applies, as name -> (value, samples),
    and the raw samples behind the timings."""
    out = {}
    # setup_s is the mean of the run's set-up probes, not their median. The
    # host switches between a fast state and one about 1.6x slower for
    # seconds to minutes at a time, so a run's probes come from two modes:
    # their median jumps between the modes as the slow share crosses one
    # half, while their mean moves in proportion to it.
    if setups:
        out["setup_s"] = (statistics.fmean(setups), len(setups))
    # run_s is the mean over the run's sequences: the host's speed drifts
    # between a fast and a slow state, and a mean over the whole run varies
    # less between runs than the median of a few sequences
    if sequences:
        out["run_s"] = (statistics.fmean(s["run_s"] for s in sequences),
                        len(sequences))
    for name in ("peak_rss_mb", "train_nodes_per_s", "eval_s",
                 "verify_checks_per_s", "final_loss", "probe_acc"):
        values = [s[name] for s in sequences if name in s]
        if values:
            out[name] = (statistics.median(values), len(values))
    steps = [t * 1e3 for s in sequences for t in s["steps_s"]]
    if steps:
        out["step_ms_p50"] = (percentile(steps, 0.5), len(steps))
        out["step_ms_p90"] = (percentile(steps, 0.9), len(steps))
    failed = tally.failed + tally.verdicts_failed
    out["fail_frac"] = (failed / max(tally.attempted, 1), tally.attempted)
    samples = {"setup_s": setups, "run_s": [s["run_s"] for s in sequences],
               "step_ms": steps}
    return out, samples


def per_layer(work_root, key, plain, traced, tally):
    """Per-layer metrics of the traced sequences, and the tracer checks."""
    rows = [spans.layer_metrics(spans.merge(s["aggregates"])) for s in traced]
    for row, seq in zip(rows, traced):
        row["bounds.checks_failed"] = seq.get("checks_failed", 0)
    counts = {name: rows[0][name] for name in
              spans.COUNT_METRICS + ("bounds.checks_failed",)}
    for row in rows[1:]:
        for name in counts:
            tally.check(row[name] == counts[name],
                        f"count {name} changed between sequences: "
                        f"{row[name]} vs {counts[name]}")
    ledger_check(work_root, key, counts, tally)
    metrics = {name: (statistics.median(row[name] for row in rows), len(rows))
               for name in rows[0]}
    overhead = (statistics.median(s["run_s"] for s in traced)
                / statistics.median(s["run_s"] for s in plain) - 1.0)
    metrics["trace.overhead_frac"] = (overhead, len(traced))
    return metrics


# ---------------------------------------------------------------------------
# the run


def run(workload, seed, seconds, trace, work_dir, work_root, probes):
    """Inputs, set-up probes and the timed loop of sequences; returns
    (correct, tally, metrics, samples, env)."""
    tally = Tally()
    dataset = write_inputs(workload, seed, os.path.join(work_dir, "inputs"))
    start = time.monotonic()
    deadline = start + seconds

    first_kind, first_argv, first_out = commands(
        workload, seed, dataset, os.path.join(work_dir, "probe"))[0]
    setups, probe_walls = [], []

    def probe_until(now):
        """Run the set-up probes that are due by ``now``. Probe k is due
        ``k * seconds / probes`` into the run, so the probes sample the
        host over the whole run, between the sequences."""
        while len(probe_walls) < probes and (
                start + len(probe_walls) * seconds / probes <= now):
            result, wall, _ = run_command(first_argv, first_out, "probe",
                                          workload.strict)
            probe_walls.append(wall)
            ok = (result is not None and result["exit_code"] == 0
                  and result["setup_s"] is not None)
            if tally.check(ok, f"set-up probe of {first_kind} failed"):
                setups.append(result["setup_s"])

    sequences, last_wall = [], {}
    while True:
        probe_until(time.monotonic())
        traced = trace and len(sequences) % 2 == 1
        out = os.path.join(work_dir, f"seq{len(sequences)}")
        t0 = time.monotonic()
        seq = run_sequence(workload, seed, dataset, out, traced, tally)
        last_wall[traced] = time.monotonic() - t0
        shutil.rmtree(out, ignore_errors=True)
        sequences.append(seq)
        if "run_s" not in seq:
            break  # a command crashed; nothing more to learn
        kinds = {s["traced"] for s in sequences}
        if trace and len(kinds) < 2:
            continue
        upcoming = trace and len(sequences) % 2 == 1
        probes_left = (probes - len(probe_walls)) * statistics.fmean(
            probe_walls or [0.0])
        if (time.monotonic() + last_wall.get(upcoming, 0.0) + probes_left
                > deadline):
            break
    probe_until(math.inf)
    shutil.rmtree(os.path.join(work_dir, "probe"), ignore_errors=True)

    complete = [s for s in sequences if "run_s" in s]
    plain = [s for s in complete if not s["traced"]]
    env = complete[0]["env"] if complete else {}

    if workload.strict:
        digests = [s["digests"] for s in complete if "digests" in s]
        for d in digests[1:]:
            tally.check(d == digests[0],
                        "strict-mode outputs differ between sequences"
                        + (" (traced vs untraced)" if trace else ""))
        if digests:
            ledger_check(work_root, f"{workload.name}/{seed}/digests",
                         digests[0], tally)

    if trace:
        traced = [s for s in complete if s["traced"]]
        if tally.check(bool(traced) and bool(plain),
                       "no complete traced and untraced sequence"):
            metrics = per_layer(work_root, f"{workload.name}/{seed}/counts",
                                plain, traced, tally)
        else:
            metrics = {}
        samples = {}
    else:
        metrics, samples = end_to_end(plain, setups, tally)
    return tally.failed == 0, tally, metrics, samples, env


def git_commit():
    """HEAD of the checkout, or None where the checkout is not a git
    repository (git is not asked to look in parent directories)."""
    if not os.path.exists(os.path.join(ROOT, ".git")):
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def metric_names(trace):
    """The metrics the final JSON line carries, as BENCHMARK.json lists
    them: end-to-end ones untraced, per-layer ones traced."""
    if trace:
        return [name for name, *_ in spans.LAYER_METRICS] + [
            "bounds.checks_failed", "trace.overhead_frac"]
    return [name for name, *_ in END_TO_END]


def bench(workload, seed, seconds, trace, work_root=WORK, probes=None):
    """One benchmark run. Returns its record, which is also written to
    ``work_root/results/``. Set-up probes default to PROBES untraced and
    none traced, where set-up is not reported."""
    if probes is None:
        probes = 0 if trace else PROBES
    name = f"{workload.name}-seed{seed}-trace{trace}-{os.getpid()}"
    work_dir = os.path.join(work_root, name)
    try:
        correct, tally, metrics, samples, env = run(
            workload, seed, seconds, trace, work_dir, work_root, probes)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    env.update(git_commit=git_commit(), source_digest=source_digest())
    missing = [m for m in metric_names(trace) if m not in metrics]
    if missing:
        correct = tally.check(False, f"metrics not measured: {missing}")
    record = {
        "workload": workload.name, "why": workload.why, "seed": seed,
        "trace": trace, "seconds": seconds, "correct": correct,
        "attempted": tally.attempted, "failed": tally.failed,
        "verify_records_failed": tally.verdicts_failed,
        "problems": tally.problems, "env": env,
        "metrics": {m: {"value": value, "unit": UNITS[m], "n": n}
                    for m, (value, n) in sorted(metrics.items())},
        "samples": samples,
    }
    os.makedirs(os.path.join(work_root, "results"), exist_ok=True)
    with open(os.path.join(work_root, "results", name + ".json"), "w",
              encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    return record


def print_record(record):
    """Every metric by name, value, unit and sample count; then the checks
    that failed."""
    print(f"# {record['workload']} seed {record['seed']} trace "
          f"{record['trace']}: {record['why']}")
    print("# env " + json.dumps(record["env"], sort_keys=True))
    for name, m in record["metrics"].items():
        print(f"{record['workload']:18s} {name:36s} {m['value']:14.6g} "
              f"{m['unit']:9s} n={m['n']}")
    if record["verify_records_failed"]:
        print(f"# {record['verify_records_failed']} verify record(s) failed "
              "their statistical check (counted in fail_frac)")
    for problem in record["problems"]:
        print(f"# FAILED CHECK: {problem}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "latentgraph", "cli.py")):
        print(f"error: no latentgraph sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    record = bench(WORKLOADS[args.workload], args.seed, args.seconds,
                   args.trace)
    print_record(record)
    metrics = record["metrics"]
    print(json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": metrics[name]["value"],
                           "unit": metrics[name]["unit"]}
                    for name in metric_names(args.trace) if name in metrics},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
