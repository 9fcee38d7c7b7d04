"""Outside-in tracer for the latentgraph package.

The tracer wraps public functions and methods at the places where their
callers look them up (``latentgraph.models.spmm``, ``latentgraph.training.
backward``, ``latentgraph.cli.linsvm_kfold`` ...), so nothing under ``src/``
changes. Each call becomes a span with a name, start, end, parent span and
the training step it ran in. An autodiff op's backward time is a span around
the ``_backward`` closure of the Value the wrapped op returned. Spans stay in
memory; :meth:`Tracer.aggregate` folds them into per-name totals when the
process ends, and :func:`layer_metrics` turns those into the named per-layer
metrics of ``LAYER_METRICS``.

Self time is a span's duration minus the part of it that its child spans
cover. Counters (FLOPs, DAG sizes, gradient bytes) are taken at the same
boundaries as the spans.
"""

import functools
import time

_now = time.perf_counter

# Engine ops grouped under one metric name each.
ELEMENTWISE = ("add", "sub", "hadamard", "scale", "relu")
LOSS_OPS = ("mse_per", "sqrt_eps", "softmax_ce", "kl_div", "sum_squares")

STEP = "training.step"
# Spans a training step holds exactly one of: the step's backward pass and
# its optimiser update.
STEP_MARKERS = ("engine.backward", "training.optimizer")


# Forward FLOPs of an op. Its backward does a multiple of them: a matmul
# backward is two GEMMs of the forward's size (g @ b.T, a.T @ g), an spmm
# backward one sparse product s.T @ g with the same nnz.
def _matmul_flops(args, out):
    a, b = args[0], args[1]
    return 2 * a.data.shape[0] * a.data.shape[1] * b.data.shape[1]


def _spmm_flops(args, out):
    return 2 * args[0].nnz * out.data.shape[1]


MATMUL_BWD_FACTOR = 2
SPMM_BWD_FACTOR = 1


class Patches:
    """Attribute replacements that ``restore`` undoes, last first."""

    def __init__(self):
        self._originals = []

    def replace(self, owner, attr, wrapper):
        self._originals.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def restore(self):
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)


class Tracer:
    """Span recorder plus the patches that feed it.

    Use ``install()`` before running the CLI and ``uninstall()``
    afterwards; ``uninstall`` restores every attribute it replaced.
    """

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.steps = []
        self.stack = []
        self.step = None  # index of the open training-step span
        self.counters = {"step": {}, "run": {}}
        self.param_ids = frozenset()
        self.patches = Patches()

    # -- spans -------------------------------------------------------------

    def open(self, name):
        index = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.steps.append(self.step)
        self.ends.append(None)
        self.stack.append(index)
        self.starts.append(_now())
        return index

    def close(self, index):
        self.ends[index] = _now()
        if self.stack.pop() != index:
            raise RuntimeError(f"span {self.names[index]!r} closed out of order")

    def count(self, name, value):
        scope = self.counters["run" if self.step is None else "step"]
        scope[name] = scope.get(name, 0) + value

    def begin_step(self):
        self.step = self.open(STEP)

    def end_step(self, name=STEP):
        """Close the open step span; a trailing span that holds no step (the
        work after the last log line) is renamed so it is not counted."""
        index, self.step = self.step, None
        self.names[index] = name
        self.close(index)

    # -- wrappers ----------------------------------------------------------

    def spanned(self, name, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(index)

        return wrapper

    def op(self, base, fn, flops=None, bwd_factor=1):
        """Wrap an autodiff op: a forward span, and a backward span around
        the returned Value's ``_backward`` closure. ``flops`` gives the
        forward FLOPs; the backward counts ``bwd_factor`` times as many."""
        tracer = self
        fwd, bwd = base + ".fwd", base + ".bwd"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = tracer.open(fwd)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer.close(index)
            if flops is not None:
                work = flops(args, out)
                tracer.count(base + ".flop", work)
            back = out._backward
            if back is None:
                return out

            def timed_backward(grad):
                inner = tracer.open(bwd)
                try:
                    back(grad)
                finally:
                    tracer.close(inner)
                if flops is not None:
                    tracer.count(base + ".flop", bwd_factor * work)

            out._backward = timed_backward
            return out

        return wrapper

    def counted_backward(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(loss, retain_graph=False):
            index = tracer.open("engine.backward")
            try:
                grads = fn(loss, retain_graph=retain_graph)
            finally:
                tracer.close(index)
            total = param = 0
            for value, grad in grads.items():
                total += grad.nbytes
                if id(value) in tracer.param_ids:
                    param += grad.nbytes
            tracer.count("engine.backward.dag_nodes", len(grads))
            tracer.count("engine.backward.grad_bytes", total)
            tracer.count("engine.backward.param_grad_bytes", param)
            return grads

        return wrapper

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap the package's public names at their lookup sites."""
        from latentgraph import (bounds, cli, engine, evaluation, graphs,
                                 models, objectives, training)
        modules = (engine, graphs, models, objectives, training, evaluation,
                   bounds, cli)

        def everywhere(attr, wrapper_for, home):
            """Wrap ``home.attr`` in every module that binds the same
            object under ``attr``: the callers' lookup sites."""
            original = home.__dict__[attr]
            wrapper = wrapper_for(original)
            for module in modules:
                if module.__dict__.get(attr) is original:
                    self.patches.replace(module, attr, wrapper)

        everywhere("matmul", lambda f: self.op(
            "engine.matmul", f, _matmul_flops, MATMUL_BWD_FACTOR), engine)
        everywhere("spmm", lambda f: self.op(
            "engine.spmm", f, _spmm_flops, SPMM_BWD_FACTOR), engine)
        everywhere("row_select", lambda f: self.op("engine.row_select", f),
                   engine)
        for name in ELEMENTWISE:
            everywhere(name, lambda f: self.op("engine.elementwise", f),
                       engine)
        for name in LOSS_OPS:
            everywhere(name, lambda f: self.op("engine.loss_ops", f), engine)
        everywhere("backward", self.counted_backward, engine)
        everywhere("batch_norm", lambda f: self.op("models.batch_norm", f),
                   models)

        plain = (
            ("graphs.batch_graphs", graphs, "batch_graphs"),
            ("graphs.parse", graphs, "parse_tudataset"),
            ("graphs.parse", graphs, "parse_nodelevel"),
            ("objectives.objective", objectives, "objective"),
            ("objectives.sample_batch_mask", objectives, "sample_batch_mask"),
            ("objectives.apply_mask", objectives, "apply_mask"),
            ("training.save_checkpoint", training, "save_checkpoint"),
            ("training.load_checkpoint", training, "load_checkpoint"),
            ("evaluation.extract", evaluation, "extract_graph_repr"),
            ("evaluation.extract", evaluation, "extract_node_repr"),
            ("evaluation.linsvm_kfold", evaluation, "linsvm_kfold"),
            ("evaluation.logreg_fit", evaluation, "logreg_fit"),
            ("bounds.estimate_theorem1", bounds, "estimate_theorem1"),
            ("bounds.estimate_corollary", bounds, "estimate_corollary"),
            ("bounds.check_dae_inner_product", bounds,
             "check_dae_inner_product"),
            ("bounds.gen_stack", bounds, "gen_latent_stack"),
            ("bounds.gen_stack", bounds, "gen_observation_stack"),
            ("bounds.lipschitz_upper", bounds, "lipschitz_upper"),
        )
        for span, home, attr in plain:
            everywhere(attr, functools.partial(self.spanned, span), home)

        methods = (
            ("models.encode", models.Encoder, "encode"),
            ("models.decode", models.Decoder, "__call__"),
            ("graphs.normalized_adjacency", graphs.GraphBatch,
             "normalized_adjacency"),
            ("training.optimizer", training.Adam, "step"),
            ("bounds.embed", bounds.StackPredictor, "embed"),
            ("bounds.decode", bounds.StackPredictor, "decode"),
        )
        for span, cls, attr in methods:
            self.patches.replace(cls, attr,
                                 self.spanned(span, cls.__dict__[attr]))

    def uninstall(self):
        self.patches.restore()

    # -- aggregation -------------------------------------------------------

    def aggregate(self):
        """Fold the spans into ``{scope: {name: [calls, incl_s, self_s]}}``.

        A span is in scope "step" when it ran inside a training step, else
        in scope "run". ``step_spans`` lists, per training step, its
        duration and how many spans of each of ``STEP_MARKERS`` it holds,
        so that the caller can check the step boundaries against the
        training loop's own.
        """
        count = len(self.names)
        if self.stack:
            raise RuntimeError(f"{len(self.stack)} span(s) still open")
        covered = [0.0] * count
        last_end = [float("-inf")] * count
        for i in range(count):
            parent = self.parents[i]
            if parent < 0:
                continue
            # union of children, clipped to the parent, in start order
            lo = max(self.starts[i], last_end[parent], self.starts[parent])
            hi = min(self.ends[i], self.ends[parent])
            if hi > lo:
                covered[parent] += hi - lo
            last_end[parent] = max(last_end[parent], hi)
        totals = {"step": {}, "run": {}}
        step_spans = {}
        for i in range(count):
            name = self.names[i]
            duration = self.ends[i] - self.starts[i]
            if name == STEP:
                step_spans[i] = [duration] + [0] * len(STEP_MARKERS)
                scope = "step"
            else:
                step = self.steps[i]
                if step is not None and self.names[step] != STEP:
                    step = None  # inside the tail after the last step
                scope = "run" if step is None else "step"
                if step is not None and name in STEP_MARKERS:
                    step_spans[step][1 + STEP_MARKERS.index(name)] += 1
            entry = totals[scope].setdefault(name, [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += duration
            entry[2] += duration - covered[i]
        return {"spans": totals, "counters": self.counters,
                "steps": len(step_spans),
                "step_spans": [step_spans[i] for i in sorted(step_spans)]}


# name, unit, scope, source, field. Sources are span names (fields calls,
# incl, self; times in ms) or counters (field "counter"; "derived" ones are
# computed from counters in layer_metrics). Step-scoped values are per
# training step; run-scoped values are per command sequence.
LAYER_METRICS = (
    ("graphs.parse.ms", "ms", "run", "graphs.parse", "incl"),
    ("graphs.batch_graphs.calls", "count", "step", "graphs.batch_graphs", "calls"),
    ("graphs.batch_graphs.ms", "ms", "step", "graphs.batch_graphs", "self"),
    ("graphs.normalized_adjacency.calls", "count", "step",
     "graphs.normalized_adjacency", "calls"),
    ("graphs.normalized_adjacency.ms", "ms", "step",
     "graphs.normalized_adjacency", "self"),
    ("engine.backward.ms", "ms", "step", "engine.backward", "self"),
    ("engine.backward.dag_nodes", "count", "step", "engine.backward.dag_nodes",
     "counter"),
    ("engine.backward.grad_mb", "MiB", "step", "engine.backward.grad_bytes",
     "derived"),
    ("engine.backward.param_grad_frac", "fraction", "step",
     "engine.backward.param_grad_bytes", "derived"),
    ("engine.matmul.calls", "count", "step", "engine.matmul.fwd", "calls"),
    ("engine.matmul.fwd_ms", "ms", "step", "engine.matmul.fwd", "self"),
    ("engine.matmul.bwd_ms", "ms", "step", "engine.matmul.bwd", "self"),
    ("engine.matmul.gflop", "GFLOP", "step", "engine.matmul.flop", "counter"),
    ("engine.spmm.calls", "count", "step", "engine.spmm.fwd", "calls"),
    ("engine.spmm.fwd_ms", "ms", "step", "engine.spmm.fwd", "self"),
    ("engine.spmm.bwd_ms", "ms", "step", "engine.spmm.bwd", "self"),
    ("engine.spmm.gflop", "GFLOP", "step", "engine.spmm.flop", "counter"),
    ("engine.row_select.calls", "count", "step", "engine.row_select.fwd", "calls"),
    ("engine.row_select.fwd_ms", "ms", "step", "engine.row_select.fwd", "self"),
    ("engine.row_select.bwd_ms", "ms", "step", "engine.row_select.bwd", "self"),
    ("engine.elementwise.fwd_ms", "ms", "step", "engine.elementwise.fwd", "self"),
    ("engine.elementwise.bwd_ms", "ms", "step", "engine.elementwise.bwd", "self"),
    ("engine.loss_ops.fwd_ms", "ms", "step", "engine.loss_ops.fwd", "self"),
    ("engine.loss_ops.bwd_ms", "ms", "step", "engine.loss_ops.bwd", "self"),
    ("models.batch_norm.calls", "count", "step", "models.batch_norm.fwd", "calls"),
    ("models.batch_norm.fwd_ms", "ms", "step", "models.batch_norm.fwd", "self"),
    ("models.batch_norm.bwd_ms", "ms", "step", "models.batch_norm.bwd", "self"),
    ("models.encode.ms", "ms", "step", "models.encode", "self"),
    ("models.decode.ms", "ms", "step", "models.decode", "self"),
    ("objectives.objective.ms", "ms", "step", "objectives.objective", "self"),
    ("objectives.sample_batch_mask.ms", "ms", "step",
     "objectives.sample_batch_mask", "self"),
    ("objectives.apply_mask.ms", "ms", "step", "objectives.apply_mask", "self"),
    ("training.step.ms", "ms", "step", STEP, "incl"),
    ("training.step.self_ms", "ms", "step", STEP, "self"),
    ("training.step.batch_ms", "ms", "step", "graphs.batch_graphs", "incl"),
    ("training.step.forward_ms", "ms", "step", "objectives.objective", "incl"),
    ("training.step.backward_ms", "ms", "step", "engine.backward", "incl"),
    ("training.step.optimizer_ms", "ms", "step", "training.optimizer", "incl"),
    ("training.save_checkpoint.ms", "ms", "run", "training.save_checkpoint", "incl"),
    ("training.load_checkpoint.ms", "ms", "run", "training.load_checkpoint", "incl"),
    ("evaluation.extract.ms", "ms", "run", "evaluation.extract", "incl"),
    ("evaluation.linsvm_kfold.ms", "ms", "run", "evaluation.linsvm_kfold", "incl"),
    ("evaluation.logreg_fit.ms", "ms", "run", "evaluation.logreg_fit", "incl"),
    ("bounds.estimate_theorem1.ms", "ms", "run", "bounds.estimate_theorem1", "self"),
    ("bounds.estimate_corollary.ms", "ms", "run", "bounds.estimate_corollary", "self"),
    ("bounds.check_dae_inner_product.ms", "ms", "run",
     "bounds.check_dae_inner_product", "self"),
    ("bounds.embed.calls", "count", "run", "bounds.embed", "calls"),
    ("bounds.embed.ms", "ms", "run", "bounds.embed", "self"),
    ("bounds.decode.ms", "ms", "run", "bounds.decode", "self"),
    ("bounds.gen_stack.ms", "ms", "run", "bounds.gen_stack", "self"),
    ("bounds.lipschitz_upper.ms", "ms", "run", "bounds.lipschitz_upper", "self"),
    ("cli.self_ms", "ms", "run", "cli.main", "self"),
)

# Metrics that must repeat exactly across runs of one seed.
COUNT_METRICS = tuple(name for name, _, _, _, field in LAYER_METRICS
                      if field in ("calls", "counter", "derived"))


def merge(aggregates):
    """Sum the aggregates of several processes (one command sequence)."""
    spans = {"step": {}, "run": {}}
    counters = {"step": {}, "run": {}}
    steps = 0
    for agg in aggregates:
        steps += agg["steps"]
        for scope in spans:
            for name, (calls, incl, own) in agg["spans"][scope].items():
                entry = spans[scope].setdefault(name, [0, 0.0, 0.0])
                entry[0] += calls
                entry[1] += incl
                entry[2] += own
            for name, value in agg["counters"][scope].items():
                counters[scope][name] = counters[scope].get(name, 0) + value
    return {"spans": spans, "counters": counters, "steps": steps}


def layer_metrics(merged):
    """Named per-layer metrics of one command sequence."""
    steps = merged["steps"]
    out = {}
    for name, _unit, scope, source, field in LAYER_METRICS:
        divisor = max(steps, 1) if scope == "step" else 1
        if field == "derived":
            continue
        if field == "counter":
            value = merged["counters"][scope].get(source, 0)
        else:
            calls, incl, own = merged["spans"][scope].get(source, (0, 0.0, 0.0))
            value = {"calls": calls, "incl": incl * 1e3, "self": own * 1e3}[field]
        out[name] = value / divisor
    counters = merged["counters"]["step"]
    grad_bytes = counters.get("engine.backward.grad_bytes", 0)
    out["engine.backward.grad_mb"] = grad_bytes / 2**20 / max(steps, 1)
    out["engine.backward.param_grad_frac"] = (
        counters.get("engine.backward.param_grad_bytes", 0) / grad_bytes
        if grad_bytes else 0.0)
    out["engine.matmul.gflop"] /= 1e9
    out["engine.spmm.gflop"] /= 1e9
    return out
