"""Span tracer that records correntia's layers from outside the package.

``Tracer.installed()`` replaces each function in ``TRACED`` by a timing
wrapper in every ``correntia`` module that binds it.  Names re-exported
by ``from`` imports are replaced too (``harness.train`` is
``regmaxcem.train``, ``baselines.m_step`` is ``regmaxcem.m_step``,
``regmaxcem.sigma_heuristic`` is ``correntropy.sigma_heuristic``), so calls
made inside the package are recorded as well as the benchmark's own.  On
exit the original bindings are put back, so untraced passes run the
unmodified code.

Spans are kept in memory as dicts ``{id, parent, trace, name, start,
end}``; ``trace`` is the id of the root span (one benchmark pass), shared
by every span of that pass, also across processes.  Counters are taken at
the same boundaries and stored on the span.

Run as a script, this module is the traced front end of the CLI:

    python perfbench/tracing.py SPANS_OUT TRACE_ID PARENT_ID -- <correntia args>

It installs the tracer, runs ``correntia.cli.main`` inside a span named
``cli.<command>`` and writes the spans as JSON to ``SPANS_OUT``.
"""

import contextlib
import functools
import hashlib
import importlib
import inspect
import itertools
import json
import os
import sys
import time

# (module, function) pairs wrapped; the span name is "<module>.<function>".
TRACED = (
    ("regmaxcem", "train"),
    ("regmaxcem", "m_step"),
    ("regmaxcem", "e_step"),
    ("regmaxcem", "score_matrix"),
    ("regmaxcem", "save_model"),
    ("regmaxcem", "load_model"),
    ("correntropy", "sigma_heuristic"),
    ("correntropy", "objective"),
    ("kernels", "gram"),
    ("kernels", "median_bandwidth"),
    ("baselines", "train_square"),
    ("baselines", "train_hinge"),
    ("baselines", "train_logistic"),
    ("evaluation", "roc_curve"),
    ("evaluation", "pr_curve"),
    ("evaluation", "paired_ttest"),
    ("evaluation", "multiclass_binary_scores"),
    ("dataset", "load_csv"),
    ("dataset", "split"),
    ("dataset", "inject_label_noise"),
    ("harness", "run_experiment"),
    ("harness", "train_method"),
    ("harness", "build_representation"),
    ("harness", "emit_reports"),
)

CLI_COMMANDS = ("train", "predict", "eval")


def _m_step_counts(args, result):
    # Computed, not measured: per class a D'xD' weighted scatter over N
    # samples (2 D'^2 N) plus its Cholesky factorisation (D'^3 / 3).
    num_classes, dim = result[0].shape
    n = args["represented"].shape[1]
    return {"gflop": num_classes * (2.0 * dim * dim * n + dim**3 / 3.0) / 1e9}


def _gram_counts(args, result):
    return {"entries": result.size}


def _load_csv_counts(args, result):
    return {"rows": result.n_samples}


def _save_model_counts(args, result):
    return {"bytes": os.path.getsize(args["path"])}


def _build_representation_counts(args, result):
    # The representation depends on the training features only, so equal
    # feature matrices mean the call repeated earlier work.
    features = args["train_features"]
    digest = hashlib.sha1(features.tobytes()).hexdigest()
    return {"features": f"{features.shape}:{digest}"}


COUNTERS = {
    "regmaxcem.m_step": _m_step_counts,
    "kernels.gram": _gram_counts,
    "dataset.load_csv": _load_csv_counts,
    "regmaxcem.save_model": _save_model_counts,
    "harness.build_representation": _build_representation_counts,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self, id_prefix: str = ""):
        self.spans: list[dict] = []
        self._stack: list[tuple[str, str]] = []  # (span id, trace id)
        self._ids = itertools.count(1)
        self._prefix = id_prefix

    @contextlib.contextmanager
    def span(self, name: str, trace: str | None = None, parent: str | None = None):
        """Record one span; the innermost open span is its parent by default."""
        span_id = f"{self._prefix}{next(self._ids)}"
        if self._stack:
            parent, trace = self._stack[-1]
        record = {"id": span_id, "parent": parent, "trace": trace or span_id, "name": name}
        self._stack.append((span_id, record["trace"]))
        record["start"] = time.perf_counter()
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def _wrap(self, fn, name):
        count = COUNTERS.get(name)
        signature = inspect.signature(fn)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
            if count is not None:
                record.update(count(signature.bind(*args, **kwargs).arguments, result))
            return result

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every traced function wherever a correntia module binds it."""
        importlib.import_module("correntia.cli")  # binds its own from-imports
        modules = [
            module
            for name, module in list(sys.modules.items())
            if name == "correntia" or name.startswith("correntia.")
        ]
        replaced = []
        try:
            for module_name, func_name in TRACED:
                original = getattr(importlib.import_module(f"correntia.{module_name}"), func_name)
                wrapper = self._wrap(original, f"{module_name}.{func_name}")
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            setattr(module, attr, wrapper)
                            replaced.append((module, attr, original))
            yield self
        finally:
            for module, attr, original in reversed(replaced):
                setattr(module, attr, original)


def self_times(spans: list[dict]) -> dict[str, dict[str, float]]:
    """Calls, total seconds and self seconds per span name.

    A span's self time is its duration minus that of its direct children;
    spans of one process nest without overlap, so the children never
    cover the same instant twice.
    """
    child_s: dict[str, float] = {}
    for s in spans:
        if s["parent"] is not None:
            child_s[s["parent"]] = child_s.get(s["parent"], 0.0) + s["end"] - s["start"]
    totals: dict[str, dict[str, float]] = {}
    for s in spans:
        duration = s["end"] - s["start"]
        entry = totals.setdefault(s["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        entry["s"] += duration
        entry["self_s"] += duration - child_s.get(s["id"], 0.0)
    return totals


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all spans sharing one trace id)."""
    totals = self_times(spans)
    zero = {"calls": 0, "s": 0.0, "self_s": 0.0}
    metrics: dict[str, float] = {}
    names = [f"{m}.{f}" for m, f in TRACED] + [f"cli.{c}" for c in CLI_COMMANDS]
    for name in names:
        for key, value in totals.get(name, zero).items():
            metrics[f"{name}.{key}"] = value

    def named(name):
        return [s for s in spans if s["name"] == name]

    by_id = {s["id"]: s for s in spans}
    m_steps = named("regmaxcem.m_step")
    gflop = sum(s["gflop"] for s in m_steps)
    m_step_s = metrics["regmaxcem.m_step.s"]
    metrics["regmaxcem.m_step.gflop"] = gflop
    metrics["regmaxcem.m_step.gflops"] = gflop / m_step_s if m_step_s else 0.0
    # rounds: weight updates made by the trainer (train_square's one is not a round)
    rounds = sum(1 for s in m_steps if by_id.get(s["parent"], {}).get("name") == "regmaxcem.train")
    fits = metrics["regmaxcem.train.calls"]
    metrics["regmaxcem.rounds_per_fit"] = rounds / fits if fits else 0.0
    metrics["regmaxcem.model_file_bytes"] = sum(s["bytes"] for s in named("regmaxcem.save_model"))
    metrics["kernels.gram.entries"] = sum(s["entries"] for s in named("kernels.gram"))
    metrics["dataset.load_csv.rows"] = sum(s["rows"] for s in named("dataset.load_csv"))
    builds = [s["features"] for s in named("harness.build_representation")]
    metrics["harness.build_representation.useful_ratio"] = (
        len(set(builds)) / len(builds) if builds else 0.0
    )
    # interpreter start, imports and exit: process wall minus the in-child main span
    metrics["cli.startup_s"] = totals.get("cli.process", zero)["self_s"]
    return metrics


def _cli_main(argv: list[str]) -> int:
    spans_out, trace_id, parent_id, sep, *cli_args = argv
    if sep != "--" or not cli_args:
        raise SystemExit("usage: tracing.py SPANS_OUT TRACE_ID PARENT_ID -- <correntia args>")
    import correntia.cli

    tracer = Tracer(id_prefix=f"{os.getpid()}.")
    with tracer.installed():
        with tracer.span(f"cli.{cli_args[0]}", trace=trace_id, parent=parent_id):
            code = correntia.cli.main(cli_args)
    with open(spans_out, "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle)
    return code


if __name__ == "__main__":
    sys.exit(_cli_main(sys.argv[1:]))
