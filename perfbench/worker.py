"""Run one benchmark workload in this process and print its result as JSON.

Started by ``run.py``, which sets the BLAS/OpenMP thread variables and
``PYTHONPATH`` before this process imports numpy.

Modes:

Both modes first set the workload up: generate its inputs, then make one
warm-up pass.

* ``measure`` then runs untraced passes for ``--seconds`` (no pass starts
  that would, at the median pass length, end after it) and returns the
  set-up time and every pass's end-to-end values; ``run.py`` pools the
  passes of several such workers.
* ``trace`` then alternates untraced and traced passes for ``--seconds``
  and returns the per-layer metrics (medians over the traced passes) and
  the tracing overhead; it writes every span to
  ``.perfbench/spans-<workload>-blas<threads>.json``.

The last line of standard output is a JSON object; its ``failed`` count
is non-zero when any operation or output check failed, and then no
measurement is returned.
"""

import argparse
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback

import numpy as np
import scipy

import correntia
from tracing import Tracer, layer_metrics, self_times
from workloads import CHILD_PROCESS_WORKLOADS, WORKLOADS

MIN_PASSES = 1


def _room_for_another(start: float, seconds: float, durations: list[float]) -> bool:
    """True while a pass of the median length so far still ends within ``seconds``.

    Keeps a run's measuring time at ``--seconds`` instead of overrunning it
    by up to one pass.
    """
    if len(durations) < MIN_PASSES:
        return True
    return time.perf_counter() - start + statistics.median(durations) <= seconds


def _environment():
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "cpu_count": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "correntia": os.path.dirname(correntia.__file__),
    }


class Run:
    """Counts operations and failures over every pass of one worker."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failures: list[str] = []

    def one_pass(self, tracer=None):
        """One timed pass, then its output checks; ``None`` if anything failed."""
        try:
            if tracer is None:
                start = time.perf_counter()
                out = self.workload.run(None)
                wall = time.perf_counter() - start
                trace_id = None
            else:
                with tracer.installed(), tracer.span("pass") as root:
                    out = self.workload.run(tracer)
                wall = root["end"] - root["start"]
                trace_id = root["id"]
            checked = self.workload.check(out)
        except Exception:  # a failing pass is counted and reported, never measured
            self.attempted += 1
            self.failures.append(traceback.format_exc(limit=3).strip().replace("\n", " | "))
            return None
        self.attempted += checked["attempted"]
        if checked["failures"]:
            self.failures.extend(checked["failures"])
            return None
        return {
            "trace": trace_id,
            "robust_margin": checked.get("robust_margin"),
            "metrics": {
                "wall_s": wall,
                "fit_s": out["fit_s"],
                "predict_rows_per_s": out["predict_rows"] / out["predict_s"],
                "cells_per_s": out["cells"] / wall,
                "accuracy": checked["accuracy"],
                "auc": checked["auc"],
            },
        }

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)


def _medians(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def measure(run: Run, seconds: float, child_memory: bool) -> dict:
    passes, durations = [], []
    start = time.perf_counter()
    while _room_for_another(start, seconds, durations):
        began = time.perf_counter()
        result = run.one_pass()
        if result is None:
            return {}
        passes.append(result)
        durations.append(time.perf_counter() - began)
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if child_memory else resource.RUSAGE_SELF)
    return {
        "peak_rss_mb": usage.ru_maxrss / 1024.0,  # Linux reports KiB
        "passes": [p["metrics"] for p in passes],
        "robust_margins": [p["robust_margin"] for p in passes if p["robust_margin"] is not None],
    }


def trace(run: Run, seconds: float, spans_out: str) -> dict:
    tracer = Tracer()
    untraced, traced, durations = [], [], []
    start = time.perf_counter()
    while _room_for_another(start, seconds, durations):
        began = time.perf_counter()
        plain, spanned = run.one_pass(), run.one_pass(tracer)
        if plain is None or spanned is None:
            return {}
        durations.append(time.perf_counter() - began)
        untraced.append(plain["metrics"]["wall_s"])
        traced.append(spanned)
    per_pass = [
        layer_metrics([s for s in tracer.spans if s["trace"] == p["trace"]]) for p in traced
    ]
    metrics = _medians(per_pass)
    traced_wall = statistics.median(p["metrics"]["wall_s"] for p in traced)
    metrics["perfbench.traced_wall_s"] = traced_wall
    metrics["perfbench.trace_overhead"] = traced_wall / statistics.median(untraced)

    with open(spans_out, "w", encoding="utf-8") as handle:
        json.dump(tracer.spans, handle)
    totals = self_times(tracer.spans)
    wall = sum(p["metrics"]["wall_s"] for p in traced)
    print(f"self time over {len(traced)} traced passes ({wall:.3f} s):")
    for name, entry in sorted(totals.items(), key=lambda kv: -kv[1]["self_s"])[:10]:
        print(f"  {name:<40} {entry['self_s']:>9.3f} s {entry['self_s'] / wall:>7.1%}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--mode", required=True, choices=("measure", "trace"))
    parser.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    print("env " + json.dumps(_environment(), sort_keys=True))
    # set-up: generate the inputs, then one warm-up pass
    start = time.perf_counter()
    run = Run(WORKLOADS[args.workload](args.seed, args.workdir))
    warm = run.one_pass()
    setup_s = time.perf_counter() - start
    result = {}
    if warm is not None and args.mode == "measure":
        result = measure(run, args.seconds, args.workload in CHILD_PROCESS_WORKLOADS)
        result["setup_s"] = setup_s
    elif warm is not None:
        # kept after the run, next to the per-run scratch directories
        spans_out = os.path.join(
            os.path.dirname(os.path.abspath(args.workdir)),
            f"spans-{args.workload}-blas{os.environ.get('OPENBLAS_NUM_THREADS')}.json",
        )
        result = {"metrics": trace(run, args.seconds, spans_out)}
    for failure in run.failures:
        print(f"FAILED: {failure}")
    if run.failures:
        result = {}
    print(json.dumps({"attempted": run.attempted, "failed": run.failed, **result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
