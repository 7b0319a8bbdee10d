"""Public names: every ``__all__`` entry resolves and star-imports work."""

import importlib
import pkgutil

import pytest

import correntia

MODULES = sorted(
    info.name for info in pkgutil.iter_modules(correntia.__path__) if info.name != "__main__"
)


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
