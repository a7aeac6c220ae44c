"""Every name a buildtuner module exports in __all__ exists on that module."""
from __future__ import annotations

import importlib
import pkgutil

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
