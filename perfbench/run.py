"""correntia benchmark: run one workload and print its metrics as JSON.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload linear-fit --seed 1 --seconds 10 --trace 0

Each workload runs in a worker process (``worker.py``) that imports
``correntia`` from ``src/`` of the checkout, with the BLAS/OpenMP thread
count pinned to the number of usable CPUs before numpy is imported.

``--trace 0`` splits ``--seconds`` over ``MEASURE_WORKERS`` fresh worker
processes, pools their passes and prints the end-to-end metrics as
medians; ``setup_s`` is the median of the workers' set-up times.
``--trace 1`` prints the per-layer metrics of a separate traced run, plus
``regmaxcem.m_step`` time from a second traced run with BLAS pinned to
one thread; the two share ``--seconds``.  The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the exit code is 0 only when
every output check passed.  See ``perfbench/README.md``.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("linear-fit", "kernel-fit", "noise-sweep", "cli-roundtrip")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
DEADLINE_S = 170.0
# Several fresh processes per run, so that one process's memory layout or
# start-up luck does not set the run's figures.
MEASURE_WORKERS = 3
# Share of --seconds given to the one-thread BLAS run in traced mode; the
# traced run at nproc threads gets the rest.
BLAS1_SHARE = 0.25

END_TO_END_UNITS = {
    "setup_s": "s",
    "wall_s": "s",
    "fit_s": "s",
    "predict_rows_per_s": "rows/s",
    "cells_per_s": "cells/s",
    "accuracy": "fraction",
    "auc": "fraction",
    "peak_rss_mb": "MB",
}
# Per-layer units, by the last component of the metric name.
LAYER_UNITS = {
    "calls": "count", "s": "s", "self_s": "s", "s_blas1": "s", "startup_s": "s",
    "traced_wall_s": "s", "gflop": "GFLOP", "gflops": "GFLOP/s", "entries": "count",
    "rows": "count", "model_file_bytes": "bytes", "rounds_per_fit": "count",
    "useful_ratio": "ratio", "trace_overhead": "ratio",
}


def _unit(name):
    return END_TO_END_UNITS.get(name) or LAYER_UNITS[name.rsplit(".", 1)[-1]]


def _worker(mode, args, threads, workdir, seconds, deadline):
    """Run worker.py to completion; return its result dict, or None if it broke."""
    env = dict(os.environ)
    env.update({var: str(threads) for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.abspath("src"), env.get("PYTHONPATH")) if p
    )
    argv = [
        sys.executable, os.path.join(HERE, "worker.py"), "--mode", mode,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", repr(seconds), "--workdir", workdir,
    ]
    # own session, so a timeout also ends the CLI processes a worker started
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        print(f"error: {mode} worker exceeded the time limit", file=sys.stderr)
        return None
    lines = out.splitlines()
    for line in lines[:-1]:
        print(f"[{mode}, {threads} thread(s)] {line}")
    if proc.returncode != 0 or not lines:
        print(f"error: {mode} worker exited {proc.returncode}", file=sys.stderr)
        return None
    return json.loads(lines[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not os.path.isfile(os.path.join("src", "correntia", "__init__.py")):
        print("error: run from the root of a correntia checkout (no src/correntia)",
              file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    threads = len(os.sched_getaffinity(0))
    os.makedirs(".perfbench", exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=".perfbench")
    try:
        if args.trace == 0:
            share = args.seconds / MEASURE_WORKERS
            runs = [
                _worker("measure", args, threads, workdir, share, deadline)
                for _ in range(MEASURE_WORKERS)
            ]
        else:
            runs = [
                _worker("trace", args, threads, workdir,
                        args.seconds * (1.0 - BLAS1_SHARE), deadline),
                _worker("trace", args, 1, workdir, args.seconds * BLAS1_SHARE, deadline),
            ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if any(r is None for r in runs):
        return 1

    failed = sum(r["failed"] for r in runs)
    correct = failed == 0
    metrics = {}
    if correct and args.trace == 0:
        metrics = _pool(runs)
    elif correct:
        metrics = runs[0]["metrics"]
        metrics["regmaxcem.m_step.s_blas1"] = runs[1]["metrics"]["regmaxcem.m_step.s"]
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": _unit(k)} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


def _pool(runs):
    """End-to-end metrics: medians over the passes of every measure worker."""
    passes = [p for r in runs for p in r["passes"]]
    series = {key: [p[key] for p in passes] for key in passes[0]}
    series["setup_s"] = [r["setup_s"] for r in runs]
    margins = [m for r in runs for m in r["robust_margins"]]
    if margins:
        print(_describe("robust_margin", margins, "(regmaxcem - square accuracy)"))
    for key, values in series.items():
        print(_describe(key, values, _unit(key)))
    metrics = {key: statistics.median(values) for key, values in series.items()}
    metrics["peak_rss_mb"] = max(r["peak_rss_mb"] for r in runs)
    return metrics


def _describe(name, values, unit):
    return (
        f"  {name:<20} median {statistics.median(values):<12.6g} {unit:<8} "
        f"n={len(values)} min={min(values):.6g} max={max(values):.6g}"
    )


if __name__ == "__main__":
    sys.exit(main())
