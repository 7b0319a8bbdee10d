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


def test_benchmark_traced_functions_resolve():
    # perfbench/run.py --trace 1 wraps these by name and fails if one is gone
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = [
        f"{module}.{func}"
        for module, func in tracing.TRACED
        if not callable(getattr(importlib.import_module(f"correntia.{module}"), func, None))
    ]
    assert tracing.TRACED and not missing, f"perfbench traces undefined {missing}"
