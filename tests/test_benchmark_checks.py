"""The benchmark workloads' own correctness checks, at smoke size.

benchmarks/workloads.py checks each pass against independent references:
the final model's counts and factors, the oracle's outcomes, the output
digests.  Running one smoke pass of each workload here fails the suite
when the program stops giving what those checks read.
"""
from __future__ import annotations

import importlib
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def _workloads(monkeypatch):
    """benchmarks/workloads.py, imported from the repository beside the
    reference module it imports."""
    monkeypatch.syspath_prepend(str(BENCHMARKS))
    return importlib.import_module("workloads")


@pytest.mark.parametrize("name", ["adapt-exhaustive", "replay-eval", "campaign"])
def test_smoke_pass_passes_its_checks(name, tmp_path, monkeypatch):
    workloads = _workloads(monkeypatch)
    workload = workloads.WORKLOADS[name](str(tmp_path), 3, "smoke")
    checks = workloads.Checks()
    workload.check(workload.run_pass(), checks)
    assert checks.attempted > 0 and checks.failed == 0, checks.messages


def test_every_workload_is_checked(monkeypatch):
    assert list(_workloads(monkeypatch).WORKLOADS) == ["adapt-exhaustive", "replay-eval",
                                                      "campaign"]
