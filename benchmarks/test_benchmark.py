"""Tests of the benchmark itself, at smoke size.

Run from the root of a checkout:  python -m pytest benchmarks
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_smoke_run_is_correct(workload, trace):
    out = _bench("--workload", workload, "--seed", "3", "--seconds", "0",
                 "--trace", trace, "--smoke")
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0, out.stderr
    listed = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "campaign", "--seed", "1", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout == ""


def test_checks_catch_a_wrong_outcome(tmp_path, monkeypatch):
    workload = workloads.AdaptExhaustive(str(tmp_path), 3, "smoke")
    checks = workloads.Checks()
    workload.check(workload.run_pass(), checks)
    assert checks.attempted > 0 and checks.failed == 0, checks.messages

    make_oracle = workloads.buildsim.synthetic_oracle

    def lying_oracle(graph, rules):
        oracle = make_oracle(graph, rules)
        honest = oracle.evaluate
        oracle.evaluate = lambda config: not honest(config)
        return oracle

    monkeypatch.setattr(workloads.buildsim, "synthetic_oracle", lying_oracle)
    checks = workloads.Checks()
    workload.check(workload.run_pass(), checks)
    assert "an oracle outcome differs from the planted rules" in checks.messages


def test_tracing_restores_the_program():
    sampler, metrics, dataset = workloads.sampler, workloads.metrics, workloads.dataset
    original = (sampler.run, metrics.run, dataset.Dataset.__init__)
    with tracing.installed(tracing.Tracer()):
        assert sampler.run is not original[0] and metrics.run is sampler.run
        assert dataset.Dataset.__init__ is not original[2]
    assert (sampler.run, metrics.run, dataset.Dataset.__init__) == original
