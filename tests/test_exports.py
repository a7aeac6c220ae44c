"""Every name a buildtuner module exports in __all__, every name the
benchmark tracer wraps, and every module attribute the benchmark workloads
and their tests read, exists on its module."""
from __future__ import annotations

import ast
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


BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _module_reads(tree: ast.Module, modules: set[str]) -> set[tuple[str, str]]:
    """(module, attribute) for each ``module.attr``, ``workloads.module.attr``
    and ``setattr(workloads.module, "attr", ...)`` in tree, where module is
    one of the buildtuner modules named in modules."""

    def module_of(node) -> str | None:
        if isinstance(node, ast.Name) and node.id in modules:
            return node.id
        if (isinstance(node, ast.Attribute) and node.attr in modules
                and isinstance(node.value, ast.Name) and node.value.id == "workloads"):
            return node.attr
        return None

    reads = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and module_of(node.value):
            reads.add((module_of(node.value), node.attr))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "setattr" and len(node.args) >= 2
              and module_of(node.args[0]) and isinstance(node.args[1], ast.Constant)):
            reads.add((module_of(node.args[0]), node.args[1].value))
    return reads


def test_benchmark_reads_resolve():
    """Every buildtuner module attribute that benchmarks/workloads.py and
    benchmarks/test_benchmark.py read exists, so that deleting one fails
    here rather than in a benchmark run."""
    workloads = ast.parse((BENCHMARKS / "workloads.py").read_text(encoding="utf-8"))
    modules = {alias.asname or alias.name for node in ast.walk(workloads)
               if isinstance(node, ast.ImportFrom) and node.module == "buildtuner"
               for alias in node.names if alias.name in MODULES}
    assert {"configspace", "metrics", "sampler"} <= modules
    reads = set()
    for name in ("workloads.py", "test_benchmark.py"):
        reads |= _module_reads(ast.parse((BENCHMARKS / name).read_text(encoding="utf-8")),
                               modules)
    assert {("configspace", "random_configuration"), ("buildsim", "synthetic_oracle"),
            ("metrics", "run")} <= reads
    missing = [f"{module}.{attr}" for module, attr in sorted(reads)
               if not hasattr(importlib.import_module(f"buildtuner.{module}"), attr)]
    assert missing == []


def test_json_files_have_one_reader_and_one_writer():
    """Graph, rules and model files are read and written by configspace's
    _read_json and _write_json: no other module uses json.load or json.dump,
    the file forms.  The string forms json.loads and json.dumps are free."""
    uses = []
    for name in MODULES:
        path = Path(importlib.import_module(f"buildtuner.{name}").__file__)
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.Attribute) and node.attr in ("load", "dump")
                    and isinstance(node.value, ast.Name) and node.value.id == "json"):
                uses.append((name, node.attr))
            elif isinstance(node, ast.ImportFrom) and node.module == "json":
                uses += [(name, alias.name) for alias in node.names
                         if alias.name in ("load", "dump")]
    assert sorted(uses) == [("configspace", "dump"), ("configspace", "load")]


def _names_read(path: Path) -> set[str]:
    """The id of every Name and the attr of every Attribute that the code in
    the file at path reads (docstrings and other strings are not code)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {node.id if isinstance(node, ast.Name) else node.attr for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute)) and isinstance(node.ctx, ast.Load)}


def test_every_export_is_read_outside_the_tests():
    """Each name in a module's __all__ is read by the package's code (any
    module but the __init__.py re-export, __main__.py included) or by
    benchmarks/*.py: a public name that only tests call is not part of the
    system."""
    package = Path(buildtuner.__file__).resolve().parent
    reads = set().union(*map(_names_read, BENCHMARKS.glob("*.py")),
                        *(_names_read(path) for path in package.glob("*.py")
                          if path.name != "__init__.py"))
    unread = [f"{name}.{e}" for name in MODULES
              for e in getattr(importlib.import_module(f"buildtuner.{name}"), "__all__", [])
              if e not in reads]
    assert unread == []
