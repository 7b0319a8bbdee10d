"""The benchmark's four workloads, each a closed loop with one caller.

A workload is built from a seed (building it generates the inputs), then
``run`` makes one pass and returns the raw outputs and phase timings, and
``check`` verifies those outputs outside the timed region.  Only public
names of ``correntia`` are called, and always through their module
attribute, so a tracer that rebinds them sees every call.
"""

import csv
import json
import math
import os
import shutil
import subprocess
import sys
import time

import numpy as np

import correntia as ca
from correntia import harness

PERFBENCH_DIR = os.path.dirname(os.path.abspath(__file__))
CLI_TIMEOUT_S = 60


def _blobs(means, per_class_train, per_class_test, noise, seed):
    """Noisy training set and clean held-out set drawn around the same means."""
    means = tuple(tuple(float(v) for v in row) for row in means)
    train = ca.generate_synthetic(
        ca.SyntheticSpec(means, 1.0, per_class_train, ca.child_seed(seed, 1))
    )
    held_out = ca.generate_synthetic(
        ca.SyntheticSpec(means, 1.0, per_class_test, ca.child_seed(seed, 2))
    )
    return ca.inject_label_noise(train, noise, ca.child_seed(seed, 3)), held_out


def _batches(rows, size):
    return (rows[i:i + size] for i in range(0, len(rows), size))


def _auc_of_class_one(model, ds, batch):
    """One-vs-rest AUC of class 1, scored ``batch`` rows at a time to bound memory."""
    scores = np.concatenate([ca.score_matrix(model, x)[:, 0] for x in _batches(ds.features, batch)])
    truth = ds.labels == 1
    if not np.all(np.isfinite(scores)):
        return None
    return ca.auc(ca.roc_curve(scores, truth))


class FitWorkload:
    """One ``train`` call, then ``predict_labels`` over the held-out set in batches.

    Used by linear-fit and kernel-fit.
    """

    def __init__(self, seed, *, mode, means, per_class_train, per_class_test, predict_batch):
        self.mode = mode
        self.predict_batch = predict_batch
        self.train_set, self.held_out = _blobs(
            means, per_class_train, per_class_test, 0.2, seed
        )

    def run(self, tracer):
        start = time.perf_counter()
        rep = harness.build_representation(self.train_set.features, self.mode, "rbf", "median")
        cfg = ca.TrainConfig(alpha=0.01, max_iters=20, tol=0.0, representation=rep)
        model, _ = ca.train(self.train_set, cfg)
        fitted = time.perf_counter()
        labels = np.concatenate([
            ca.predict_labels(model, x)
            for x in _batches(self.held_out.features, self.predict_batch)
        ])
        done = time.perf_counter()
        return {
            "model": model,
            "labels": labels,
            "fit_s": fitted - start,
            "predict_s": done - fitted,
            "predict_rows": self.held_out.n_samples,
            "cells": 1,
        }

    def check(self, out):
        model, labels = out["model"], out["labels"]
        failures = []
        if not (np.all(np.isfinite(model.weights)) and np.all(np.isfinite(model.biases))):
            failures.append("model parameters are not finite")
        if labels.shape != (self.held_out.n_samples,) or not (
            labels.min() >= 1 and labels.max() <= model.num_classes
        ):
            failures.append("predictions outside 1..L or of the wrong length")
        area = _auc_of_class_one(model, self.held_out, self.predict_batch)
        if area is None:
            failures.append("held-out scores are not finite")
        return {
            "attempted": 2,
            "failures": failures,
            "accuracy": ca.accuracy(labels, self.held_out.labels),
            "auc": area,
        }


def _simplex_means(classes, dim, distance, seed):
    """Class means at one pairwise ``distance``, in an orientation drawn from ``seed``.

    Every seed then gives a problem of the same difficulty, so accuracy
    varies little from seed to seed.
    """
    corners = np.eye(classes, dim) - np.eye(classes, dim).mean(axis=0)
    rotation, _ = np.linalg.qr(ca.make_rng(seed).standard_normal((dim, dim)))
    return distance / math.sqrt(2.0) * corners @ rotation


def linear_fit(seed, workdir):
    # D=50, L=10: a tall-skinny weight update where m_step does nearly all the work
    return FitWorkload(
        seed, mode="linear", means=_simplex_means(10, 50, 5.0, seed),
        per_class_train=1000, per_class_test=10000, predict_batch=100000,
    )


def kernel_fit(seed, workdir):
    # D=2, L=3 on a circle of radius 2: the weight update solves square N x N systems
    angle = ca.make_rng(seed).uniform(0.0, 2.0 * math.pi)
    means = [
        (2.0 * math.cos(angle + k * 2.0 * math.pi / 3), 2.0 * math.sin(angle + k * 2.0 * math.pi / 3))
        for k in range(3)
    ]
    # 660 training rows keep m_step at about 90 % of a pass.  15,000 held-out
    # rows make the predict time long enough that a few milliseconds of
    # scheduling noise do not set its rate; batches of 1,000 keep each kernel
    # block (1,000 x 660) in cache instead of faulting in fresh pages per call
    return FitWorkload(
        seed, mode="kernel", means=means, per_class_train=220, per_class_test=5000,
        predict_batch=1000,
    )


class NoiseSweep:
    """The paper's experiment: four methods x three noise rates x ten splits."""

    CLASSES = 4
    PER_CLASS = 150
    NOISE_RATES = (0.0, 0.2, 0.4)
    SPLITS = 10

    def __init__(self, seed, workdir):
        means = _simplex_means(self.CLASSES, 10, 3.0, seed)
        spec = ca.SyntheticSpec(
            tuple(map(tuple, means)), 1.0, self.PER_CLASS, ca.child_seed(seed, 1)
        )
        self.cfg = ca.ExperimentConfig(
            methods=(
                ca.MethodSpec("regmaxcem"),
                ca.MethodSpec("square"),
                ca.MethodSpec("hinge", iters=500),
                ca.MethodSpec("logistic", iters=500),
            ),
            protocol=ca.ProtocolSpec("repeated-split", times=self.SPLITS, fraction=0.5),
            noise_rates=self.NOISE_RATES,
            seed=ca.child_seed(seed, 2),
            synthetic=spec,
        )
        self.cells = len(self.cfg.methods) * len(self.NOISE_RATES) * self.SPLITS
        rows = self.CLASSES * self.PER_CLASS
        self.test_rows = self.cells * (rows - round(0.5 * rows))
        self.workdir = workdir
        self.passes = 0
        self.reference = None

    def run(self, tracer):
        self.passes += 1
        out_dir = os.path.join(self.workdir, f"sweep-{self.passes}")
        start = time.perf_counter()
        reports = ca.run_experiment(self.cfg)
        swept = time.perf_counter()
        paths = ca.emit_reports(reports, out_dir)
        return {
            "reports": reports,
            "out_dir": out_dir,
            "paths": paths,
            "fit_s": (swept - start) / self.cells,
            "predict_s": swept - start,
            "predict_rows": self.test_rows,
            "cells": self.cells,
        }

    def check(self, out):
        reports = out["reports"]
        failures = [e for r in reports for e in r.errors]
        if len(reports) != self.cells // self.SPLITS:
            failures.append(f"expected {self.cells // self.SPLITS} reports, got {len(reports)}")
        for r in reports:
            values = list(r.per_split_accuracies) + [r.accuracy, r.auc]
            if len(r.per_split_accuracies) != self.SPLITS or not all(
                v is not None and 0.0 <= v <= 1.0 for v in values
            ):
                failures.append(f"{r.method} at noise {r.noise_rate}: accuracy or auc missing")
        files = {}
        for path in out["paths"]:
            with open(path, "rb") as handle:
                files[os.path.basename(path)] = handle.read()
        shutil.rmtree(out["out_dir"])
        if self.reference is None:
            self.reference = files
        elif files != self.reference:
            failures.append("a rerun with the same seed wrote different report files")
        worst = max(self.NOISE_RATES)
        final = {r.method: r for r in reports if r.noise_rate == worst}
        result = {"attempted": self.cells, "failures": failures, "accuracy": None, "auc": None}
        if "regmaxcem" in final and "square" in final:
            result["accuracy"] = final["regmaxcem"].accuracy
            result["auc"] = final["regmaxcem"].auc
            result["robust_margin"] = final["regmaxcem"].accuracy - final["square"].accuracy
        return result


def _write_csv(path, ds):
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([f"f{j + 1}" for j in range(ds.n_features)] + ["label"])
        for row, label in zip(ds.features, ds.labels):
            writer.writerow([repr(float(v)) for v in row] + [ds.label_names[label - 1]])


class CliRoundtrip:
    """``correntia train``, ``predict`` and ``eval`` as three sequential processes."""

    def __init__(self, seed, workdir):
        train, self.held_out = _blobs(_simplex_means(4, 20, 4.5, seed), 1250, 1250, 0.2, seed)
        self.paths = {
            name: os.path.join(workdir, name)
            for name in ("train.csv", "test.csv", "model.json", "trace.csv", "pred.csv",
                         "curves", "spans.json")
        }
        _write_csv(self.paths["train.csv"], train)
        _write_csv(self.paths["test.csv"], self.held_out)

    def _commands(self):
        p = self.paths
        return (
            ("train", ["train", "--data", p["train.csv"], "--label-col", "label",
                       "--method", "regmaxcem", "--model-out", p["model.json"],
                       "--trace-out", p["trace.csv"]]),
            ("predict", ["predict", "--model", p["model.json"], "--data", p["test.csv"],
                         "--out", p["pred.csv"], "--label-col", "label"]),
            ("eval", ["eval", "--model", p["model.json"], "--data", p["test.csv"],
                      "--label-col", "label", "--out-dir", p["curves"]]),
        )

    def _call(self, args, tracer):
        if tracer is None:
            argv = [sys.executable, "-m", "correntia", *args]
            return subprocess.run(argv, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        spans_path = self.paths["spans.json"]
        with tracer.span("cli.process") as record:
            argv = [sys.executable, os.path.join(PERFBENCH_DIR, "tracing.py"), spans_path,
                    record["trace"], record["id"], "--", *args]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=CLI_TIMEOUT_S)
        if proc.returncode == 0:
            with open(spans_path, encoding="utf-8") as handle:
                tracer.spans.extend(json.load(handle))
        return proc

    def run(self, tracer):
        out = {"procs": {}, "seconds": {}}
        for name, args in self._commands():
            start = time.perf_counter()
            out["procs"][name] = proc = self._call(args, tracer)
            out["seconds"][name] = time.perf_counter() - start
            if proc.returncode != 0:
                break
        out.update(
            fit_s=out["seconds"]["train"],
            predict_s=out["seconds"].get("predict", math.nan),
            predict_rows=self.held_out.n_samples,
            cells=1,
        )
        return out

    def check(self, out):
        failures = [
            f"correntia {name} exited {proc.returncode}: {proc.stderr.strip()}"
            for name, proc in out["procs"].items()
            if proc.returncode != 0
        ]
        result = {"attempted": 3, "failures": failures, "accuracy": None, "auc": None}
        if failures:
            return result
        truth = [self.held_out.label_names[k - 1] for k in self.held_out.labels]
        with open(self.paths["pred.csv"], encoding="utf-8", newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        if len(rows) != len(truth):
            failures.append(f"prediction CSV has {len(rows)} rows for {len(truth)} inputs")
            return result
        if not all(row[0] in self.held_out.label_names for row in rows):
            failures.append("a predicted label is not a class of the model")
        if not all(math.isfinite(float(v)) for row in rows for v in row[1:]):
            failures.append("prediction scores are not finite")
        printed = dict(
            line.split("=", 1)
            for line in out["procs"]["eval"].stdout.splitlines()
            if line.startswith(("accuracy=", "auc="))
        )
        if set(printed) != {"accuracy", "auc"}:
            failures.append("eval did not print accuracy and auc")
            return result
        result["accuracy"] = float(printed["accuracy"])
        result["auc"] = float(printed["auc"])
        agreeing = sum(row[0] == t for row, t in zip(rows, truth)) / len(truth)
        if abs(agreeing - result["accuracy"]) > 1e-12:
            failures.append(f"eval accuracy {result['accuracy']} != predict accuracy {agreeing}")
        return result


WORKLOADS = {
    "linear-fit": linear_fit,
    "kernel-fit": kernel_fit,
    "noise-sweep": NoiseSweep,
    "cli-roundtrip": CliRoundtrip,
}

# Workloads whose program runs in child processes; their memory is the children's.
CHILD_PROCESS_WORKLOADS = ("cli-roundtrip",)
