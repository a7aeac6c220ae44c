"""Every name a buildtuner module exports in __all__, and every name the
benchmark tracer wraps, exists on its module."""
from __future__ import annotations

import importlib
import importlib.util
import pkgutil
from pathlib import Path

import pytest

import buildtuner

MODULES = sorted(info.name for info in pkgutil.iter_modules(buildtuner.__path__)
                 if info.name != "__main__")


def test_modules_are_found():
    assert {"buildsim", "cli", "surrogate"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"buildtuner.{name}")
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), "a name is exported twice"
    assert [e for e in exported if not hasattr(module, e)] == []


def _tracing():
    """benchmarks/tracing.py, read from the repository (it imports only the stdlib)."""
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_benchmark_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    """Every function and method the benchmark tracer wraps exists, so that
    renaming one fails here rather than in a benchmark run."""
    tracing = _tracing()
    package = tracing.PACKAGE

    def module(name):
        return importlib.import_module(f"{package}.{name}")

    missing = [f"{name}.{attr}" for name, attr, _, _ in tracing.FUNCTIONS
               if not callable(getattr(module(name), attr, None))]
    missing += [f"{name}.{cls}.{method}" for name, cls, method, _ in tracing.METHODS
                if method not in vars(getattr(module(name), cls, object))]
    assert missing == []
