"""Outside-in tracer for the fedslack benchmark.

The tracer never edits `src/`.  It replaces module attributes at the places
the program looks them up (a module global imported by name, a function
called through its module, a class attribute), records one span per call
and restores every original on exit.  Spans are kept in memory as
(name, start, end, parent, run_id) and written out by the caller after a
run; per-layer metrics and self times are computed from them.
"""

from __future__ import annotations

import csv
import os
from collections import Counter, defaultdict
from time import perf_counter

# Span names whose durations cover every dense matmul the engine performs;
# none of them calls another, so their durations add without overlap.
MATMUL_SPANS = ("nn.forward_batch", "nn.forward_cache", "nn.backprop")


def _dense_macs(model) -> int:
    """Multiply-accumulates per input row for one pass through the MLP."""
    return sum(w.shape[0] * w.shape[1] for w in model.weights)


def _rows(a) -> int:
    return a.size // a.shape[-1] if a.ndim > 1 else 1


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


class Tracer:
    """Collects spans and exact work counters while installed."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self.run_id = 0
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    # -- wrapping ----------------------------------------------------------

    def wrap(self, fn, name, count=None):
        """Return `fn` recording one span per call under `name`."""
        spans, stack = self.spans, self._stack
        counts = self.counts
        named_per_call = callable(name)

        def traced(*args, **kwargs):
            span_name = name(args, kwargs) if named_per_call else name
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                spans[idx] = (span_name, t0, t1, stack[-1] if stack else -1, self.run_id)
            if count is not None:
                count(counts, args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def _replace(self, owner, attr, value) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def patch(self, owner, attr: str, name, count=None) -> None:
        """Trace calls that look `attr` up on `owner` (a module or a class)."""
        original = getattr(owner, "__dict__", {}).get(attr)
        if original is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        if isinstance(original, classmethod):
            self._replace(owner, attr, classmethod(self.wrap(original.__func__, name, count)))
        else:
            self._replace(owner, attr, self.wrap(original, name, count))

    def count_calls(self, owner, attr: str, key: str) -> None:
        """Count calls without a span, for hooks that run too often to time."""
        original = owner.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{owner.__name__}.{attr}")
            return
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] += 1
            return original(*args, **kwargs)

        self._replace(owner, attr, counted)

    def count_gathered_bytes(self, module, key: str) -> None:
        """Count the bytes `module` gathers into one array via its `np` global.

        `np.stack(list)` and `np.mean(list, ...)` each copy every listed
        per-client array into one contiguous block.
        """
        np_real = module.__dict__.get("np")
        if np_real is None:
            self.missing.append(f"{module.__name__}.np")
            return
        counts = self.counts

        class _GatherCounter:
            def __getattr__(self, attr):
                return getattr(np_real, attr)

            def stack(self, arrays, *args, **kwargs):
                out = np_real.stack(arrays, *args, **kwargs)
                counts[key] += out.nbytes
                return out

            def mean(self, a, *args, **kwargs):
                if isinstance(a, (list, tuple)):
                    counts[key] += sum(np_real.asarray(x).nbytes for x in a)
                return np_real.mean(a, *args, **kwargs)

        self._replace(module, "np", _GatherCounter())

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- spans --------------------------------------------------------------

    def write_spans(self, path) -> None:
        """Append this tracer's spans to a CSV file, writing its header first."""
        new = not os.path.exists(path)
        with open(path, "a", newline="") as f:
            w = csv.writer(f)
            if new:
                w.writerow(["name", "start", "end", "parent", "run_id"])
            w.writerows(self.spans)

    def totals(self) -> tuple[Counter, dict, dict]:
        """Per span name: call count, inclusive seconds and self seconds."""
        calls: Counter = Counter()
        incl: dict = defaultdict(float)
        child = [0.0] * len(self.spans)
        for name, t0, t1, parent, _ in self.spans:
            calls[name] += 1
            incl[name] += t1 - t0
            if parent >= 0:
                child[parent] += t1 - t0
        own: dict = defaultdict(float)
        for (name, t0, t1, _, _), c in zip(self.spans, child):
            own[name] += t1 - t0 - c
        return calls, incl, own


def install(tracer: Tracer, fedslack) -> None:
    """Wrap the public functions of every fedslack module at their call sites."""
    runner, local, metrics = fedslack.runner, fedslack.local, fedslack.metrics
    nn, data, aggregation = fedslack.nn, fedslack.data, fedslack.aggregation

    def flops(passes, x_pos):
        # A dense layer costs 2 flops per multiply-accumulate for each matmul:
        # one matmul per layer forward, two (weight and input grads) backward.
        def count(c, args, kwargs, _result):
            c["nn.flop"] += 2 * passes * _rows(args[x_pos]) * _dense_macs(args[0])
        return count

    backprop_flops = flops(2, 2)

    def backprop_rows(c, args, kwargs, result):
        c["nn.backprop.rows"] += _rows(args[2])
        backprop_flops(c, args, kwargs, result)

    def pgd_steps(key, spec_pos):
        def count(c, args, kwargs, _result):
            spec = _arg(args, kwargs, spec_pos, "spec")
            c[key + ".steps"] += spec.steps
            c[key + ".sample_steps"] += spec.steps * _rows(_arg(args, kwargs, 1, "x"))
        return count

    def train_samples(c, args, kwargs, _result):
        shard, cfg = args[0], _arg(args, kwargs, 3, "config")
        c["local.train_client.samples"] += shard.n_samples * cfg.epochs

    def checkpoint_bytes(c, args, kwargs, _result):
        c["runner.checkpoint.bytes"] += os.path.getsize(_arg(args, kwargs, 1, "path"))

    def eval_name(args, kwargs):
        attack = args[2] if len(args) > 2 else kwargs.get("attack")
        return f"metrics.evaluate.{attack.value if attack is not None else 'none'}"

    # Names the runner imported from other modules.
    tracer.patch(runner, "build_datasets", "data.build")
    tracer.patch(runner, "partition", "data.partition")
    tracer.patch(runner, "partition_unequal", "data.partition")
    tracer.patch(runner, "train_client", "local.train_client", train_samples)
    for fn in ("slack_weights", "slack_aggregate", "sort_by_weighted_loss",
               "scaffold_server_update"):
        tracer.patch(runner, fn, f"aggregation.{fn}")
    tracer.patch(runner, "evaluate", eval_name)
    tracer.patch(runner, "client_drift", "metrics.client_drift")
    tracer.patch(runner, "gradient_variance", "metrics.gradient_variance")
    tracer.patch(runner._MetricsWriter, "write_round", "runner.write_round")
    # Attacks imported by name into local training and evaluation.
    tracer.patch(local, "pgd", "attacks.pgd", pgd_steps("attacks.pgd", 3))
    tracer.patch(local, "pgd_kl", "attacks.pgd_kl", pgd_steps("attacks.pgd_kl", 2))
    tracer.patch(metrics, "pgd", "attacks.pgd", pgd_steps("attacks.pgd", 3))
    tracer.patch(metrics, "fgsm", "attacks.fgsm")
    for fn in ("apply_fedprox", "apply_scaffold", "update_scaffold_client"):
        tracer.patch(local, fn, f"local.{fn}")
    for mod in (runner, local, data):
        tracer.patch(mod, "stream", "streams.stream")
    # The engine is always called through its module or its classes.
    tracer.patch(nn, "forward_batch", "nn.forward_batch", flops(1, 1))
    tracer.patch(nn, "_forward_cache", "nn.forward_cache", flops(1, 1))
    tracer.patch(nn, "backprop", "nn.backprop", backprop_rows)
    for fn in ("batch_loss_and_grads", "input_grads_ce", "sgd_step"):
        tracer.patch(nn, fn, f"nn.{fn}")
    tracer.patch(nn, "save_checkpoint", "runner.checkpoint", checkpoint_bytes)
    tracer.patch(nn.Model, "init", "nn.Model.init")
    tracer.count_calls(nn.ParamVector, "__post_init__", "nn.ParamVector.created")
    tracer.count_gathered_bytes(aggregation, "aggregation.stacked_bytes")


SPAN_LAYERS = (
    "nn.batch_loss_and_grads", "nn.input_grads_ce", "nn.backprop", "nn.sgd_step",
    "nn.forward_batch", "nn.forward_cache", "nn.Model.init",
    "attacks.pgd", "attacks.pgd_kl", "attacks.fgsm",
    "local.train_client", "local.apply_fedprox", "local.apply_scaffold",
    "local.update_scaffold_client",
    "aggregation.slack_weights", "aggregation.slack_aggregate",
    "aggregation.sort_by_weighted_loss", "aggregation.scaffold_server_update",
    "metrics.evaluate.none", "metrics.evaluate.fgsm", "metrics.evaluate.pgd",
    "metrics.client_drift", "metrics.gradient_variance",
    "streams.stream", "data.build", "data.partition",
    "runner.write_round", "runner.checkpoint",
)

COUNTERS = ("nn.backprop.rows", "nn.ParamVector.created", "attacks.pgd.steps",
            "attacks.pgd_kl.steps", "local.train_client.samples",
            "aggregation.stacked_bytes", "runner.checkpoint.bytes")


def layer_metrics(tracer: Tracer, root: str) -> dict[str, float]:
    """Every per-layer metric of one traced run, from its spans and counters."""
    calls, incl, own = tracer.totals()
    out: dict[str, float] = {}
    for name in SPAN_LAYERS:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.s"] = incl[name]
        out[f"{name}.self_s"] = own[name]
    for key in COUNTERS:
        out[key] = tracer.counts[key]
    out["nn.gflop"] = tracer.counts["nn.flop"] / 1e9
    matmul_s = sum(incl[n] for n in MATMUL_SPANS)
    out["nn.gflop_per_s"] = out["nn.gflop"] / matmul_s if matmul_s else 0.0
    samples = tracer.counts["local.train_client.samples"]
    out["attacks.pgd.steps_per_sample"] = (
        tracer.counts["attacks.pgd.sample_steps"] / samples if samples else 0.0)
    out["runner.self_s"] = own[root]
    return out
