"""Run one ``lagraph`` command in this process, with the benchmark's hooks.

    python3 perfbench/child.py RESULT SPAWNED MODE -- <lagraph arguments>

RESULT is the JSON file this writes, SPAWNED the parent's
``time.monotonic()`` just before it started this process (the clock is
system-wide), and MODE one of ``plain``, ``trace`` and ``probe``. The hooks
wrap ``latentgraph.cli.train`` so that the log file it receives timestamps
each write (``train`` writes one line per optimiser step), and the verify
loop's per-trial calls. ``trace`` also installs the span tracer; ``probe``
stops the command when its first step or trial starts, which measures
set-up alone.
"""

import ctypes
import glob
import json
import os
import platform
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from spans import Patches, Tracer  # noqa: E402  (needs the path set above)

MODES = ("plain", "trace", "probe")
ESTIMATES = ("estimate_theorem1", "estimate_corollary",
             "check_dae_inner_product")


class StopAtFirstStep(BaseException):
    """Ends a probe run where set-up ends; a BaseException so that the
    command's own error handling lets it through."""


class _StampedLog:
    """File proxy that reports each write after passing it on."""

    def __init__(self, fh, on_write):
        self._fh = fh
        self._on_write = on_write

    def write(self, text):
        self._fh.write(text)
        self._on_write()


class Hooks:
    """Timestamps for set-up, steps and verify trials, taken at the CLI's
    lookup sites of ``train``, ``make_random_predictor`` and the estimators."""

    def __init__(self, probe, tracer=None):
        self.probe = probe
        self.tracer = tracer
        self.first_work = None
        self.step_ends = []
        self.train_entry = None
        self.nodes_stepped = 0
        self.final_loss = None
        self.trial_starts = []
        self.trial_ends = []
        self.patches = Patches()

    def install(self, cli):
        self.patches.replace(cli, "train", self._wrap_train(cli.train))
        self.patches.replace(cli, "make_random_predictor",
                             self._wrap_trial(cli.make_random_predictor))
        for name in ESTIMATES:
            self.patches.replace(cli, name,
                                 self._wrap_estimate(getattr(cli, name)))

    def uninstall(self):
        self.patches.restore()

    def _started(self):
        now = time.monotonic()
        if self.first_work is None:
            self.first_work = now
            if self.probe:
                raise StopAtFirstStep()
        return now

    def _wrap_train(self, train):
        hooks, tracer = self, self.tracer

        def on_write():
            hooks.step_ends.append(time.monotonic())
            if tracer is not None:
                tracer.end_step()
                tracer.begin_step()

        def timed_train(model, data, config, log_fh=None, checkpoint_path=None):
            hooks.train_entry = hooks._started()
            per_epoch = (sum(g.num_nodes for g in data.graphs)
                         if hasattr(data, "graphs") else
                         min(config.subgraph_nodes or data.num_nodes,
                             data.num_nodes))
            if tracer is not None:
                tracer.param_ids = frozenset(id(p) for p in model.parameters())
                span = tracer.open("training.train")
                tracer.begin_step()
            try:
                history = train(model, data, config,
                                log_fh=_StampedLog(log_fh, on_write),
                                checkpoint_path=checkpoint_path)
            finally:
                if tracer is not None:
                    tracer.end_step("training.tail")
                    tracer.close(span)
            hooks.nodes_stepped = per_epoch * len(history)
            hooks.final_loss = history[-1].loss
            return history

        return timed_train

    def _wrap_trial(self, make):
        hooks = self

        def trial_start(*args, **kwargs):
            hooks.trial_starts.append(hooks._started())
            return make(*args, **kwargs)

        return trial_start

    def _wrap_estimate(self, estimate):
        hooks = self

        def timed_estimate(*args, **kwargs):
            out = estimate(*args, **kwargs)
            # the trial ends with its last estimate: keep one end per trial
            del hooks.trial_ends[len(hooks.trial_starts) - 1:]
            hooks.trial_ends.append(time.monotonic())
            return out

        return timed_estimate

    def timings(self):
        steps = []
        if self.train_entry is not None and self.step_ends:
            marks = [self.train_entry] + self.step_ends
            steps = [b - a for a, b in zip(marks, marks[1:])]
        trials = [end - start
                  for start, end in zip(self.trial_starts, self.trial_ends)]
        loop = (self.step_ends[-1] - self.train_entry) if steps else None
        return {"step_s": steps, "trial_s": trials, "loop_s": loop,
                "nodes_stepped": self.nodes_stepped,
                "final_loss": self.final_loss}


def blas_threads():
    """Thread count of the OpenBLAS that numpy loaded, or None."""
    import numpy
    libs = os.path.join(os.path.dirname(numpy.__file__), os.pardir,
                        "numpy.libs", "*openblas*")
    for path in sorted(glob.glob(libs)):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                return int(fn())
    return None


def environment():
    import numpy
    import scipy
    from latentgraph.engine import strict_determinism_enabled
    try:
        openblas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]["version"]
    except (AttributeError, KeyError):
        openblas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": openblas,
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "strict": strict_determinism_enabled(),
    }


def main(argv):
    if len(argv) < 4 or argv[2] not in MODES or argv[3] != "--":
        raise SystemExit(f"usage: child.py RESULT SPAWNED {{{','.join(MODES)}}}"
                         " -- ARGS")
    result_path, spawned, mode = argv[0], float(argv[1]), argv[2]
    command = argv[4:]
    from latentgraph import cli
    tracer = Tracer() if mode == "trace" else None
    if tracer is not None:
        tracer.install()
    hooks = Hooks(probe=mode == "probe", tracer=tracer)
    hooks.install(cli)
    error = None
    span = tracer.open("cli.main") if tracer is not None else None
    try:
        code = cli.main(command)
    except StopAtFirstStep:
        code = 0
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # the parent reports the traceback as a crash
        code, error = 1, traceback.format_exc()
    finally:
        if span is not None:
            tracer.close(span)
        hooks.uninstall()
        if tracer is not None:
            tracer.uninstall()
    result = {
        "exit_code": code,
        "error": error,
        "setup_s": (None if hooks.first_work is None
                    else hooks.first_work - spawned),
        "env": environment(),
        "trace": tracer.aggregate() if tracer is not None else None,
        **hooks.timings(),
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1:])
