"""Public names: ``__all__`` entries and the benchmark's traced functions resolve."""

import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import correntia

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(correntia.__path__) if info.name != "__main__"
)


def test_version_matches_pyproject():
    # a regex, not tomllib: the package supports Python 3.10
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    assert correntia.__version__ == re.search(r'^version = "([^"]+)"', text, re.M).group(1)


def test_every_module_is_covered():
    assert {"cli", "dataset", "harness", "kernels", "regmaxcem"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"correntia.{name}")
    exported = module.__all__
    assert len(exported) == len(set(exported)), f"duplicate entries in correntia.{name}.__all__"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"correntia.{name}.__all__ names undefined {missing}"


@pytest.mark.parametrize("name", MODULES)
def test_star_import(name):
    namespace = {}
    exec(f"from correntia.{name} import *", namespace)
    assert set(importlib.import_module(f"correntia.{name}").__all__) <= set(namespace)


def load_tracing():
    """The benchmark's tracer module, ``perfbench/tracing.py``."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing


def test_benchmark_traced_functions_resolve():
    # perfbench/run.py --trace 1 wraps these by name and fails if one is gone
    tracing = load_tracing()
    missing = [
        f"{module}.{func}"
        for module, func in tracing.TRACED
        if not callable(getattr(importlib.import_module(f"correntia.{module}"), func, None))
    ]
    assert tracing.TRACED and not missing, f"perfbench traces undefined {missing}"


def test_benchmark_traced_pass_runs(tmp_path):
    # one small pass under the tracer, so its counters' argument lookups
    # (represented, train_features, path) still bind to today's signatures
    tracing = load_tracing()
    ds = correntia.generate_synthetic(
        correntia.SyntheticSpec(((2.0, 0.0), (-2.0, 0.0)), 1.0, 10, seed=1)
    )
    cfg = correntia.ExperimentConfig(
        methods=(correntia.MethodSpec("regmaxcem", iters=3), correntia.MethodSpec("square")),
        protocol=correntia.ProtocolSpec("kfold", k=2),
        seed=0,
        synthetic=correntia.SyntheticSpec(((2.0, 0.0), (-2.0, 0.0)), 1.0, 10, seed=2),
        representation=correntia.RepresentationSpec("kernel"),
    )
    path = tmp_path / "model.json"
    original = correntia.regmaxcem.train
    with tracing.Tracer().installed() as tracer:
        model, _ = correntia.train(ds, correntia.TrainConfig(max_iters=3))
        correntia.run_experiment(cfg)
        correntia.save_model(model, path)
    assert correntia.regmaxcem.train is original
    metrics = tracing.layer_metrics(tracer.spans)
    assert metrics["harness.run_experiment.calls"] == 1
    assert metrics["regmaxcem.train.calls"] == 3  # one lone fit, one per fold
    assert metrics["regmaxcem.m_step.gflop"] > 0
    assert metrics["kernels.gram.calls"] == 4  # each fold's train and test side once
    assert metrics["kernels.gram.entries"] == 2 * (10 * 10 + 10 * 10)
    assert metrics["harness.build_representation.useful_ratio"] == 1.0
    assert metrics["regmaxcem.model_file_bytes"] == path.stat().st_size
