"""End-to-end command-line coverage: every subcommand, exit codes, formats."""
from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import buildtuner
from buildtuner import (
    Dataset,
    DependencyGraph,
    GraphError,
    PlantedRuleSet,
    fit,
    load_dataset,
    load_graph,
    load_model,
    save_dataset,
    save_graph,
    save_model,
    substream,
    validate_graph,
)
from buildtuner import buildsim
from buildtuner.buildsim import SyntheticOracle, enumerate_records, save_rules
from buildtuner.cli import dispatch
from buildtuner.configspace import full_space_matrix
from helpers import all_configurations, chain_graph, distinct_records


@pytest.fixture()
def workspace(tmp_path):
    """A graph, planted rules, and a fully labeled dataset on disk."""
    graph = chain_graph(3, 3)  # 27 configurations
    rules = PlantedRuleSet(forbidden=frozenset({("A", "v1", "B", "v2")}))
    oracle = SyntheticOracle(graph, rules)
    dataset = Dataset(graph, enumerate_records(oracle))
    save_graph(graph, str(tmp_path / "graph.json"))
    save_rules(rules, str(tmp_path / "rules.json"))
    save_dataset(dataset, str(tmp_path / "data.jsonl"), "graph.json")
    return tmp_path


def _run(argv, capsys):
    code = dispatch(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestDispatchErrors:
    def test_usage_error_exits_one(self, capsys):
        code, _, err = _run(["run"], capsys)
        assert code == 1
        assert "usage" in err.lower()

    def test_unknown_command_exits_one(self, capsys):
        code, _, err = _run(["explode"], capsys)
        assert code == 1

    def test_missing_file_exits_two(self, capsys, tmp_path):
        code, _, err = _run(["summary", "--data", str(tmp_path / "nope.jsonl")],
                            capsys)
        assert code == 2
        assert err.startswith("error:")

    def test_bad_payload_exits_two(self, capsys, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        code, _, err = _run(["summary", "--data", str(bad)], capsys)
        assert code == 2

    def test_synthetic_oracle_requires_graph(self, capsys, workspace):
        code, _, err = _run(
            ["run", "--oracle", f"synthetic:{workspace / 'rules.json'}"], capsys
        )
        assert code == 1
        assert "--graph" in err

    def test_unknown_oracle_scheme(self, capsys, workspace):
        code, _, err = _run(
            ["run", "--oracle", f"magic:{workspace / 'rules.json'}"], capsys
        )
        assert code == 1


@pytest.mark.parametrize("kind, argv", [
    ("data.jsonl", ["summary", "--data", "{bad}"]),
    ("graph.json", ["simulate", "--graph", "{bad}", "--rules", "{ws}/rules.json",
                    "--sample", "4"]),
    ("rules.json", ["simulate", "--graph", "{ws}/graph.json", "--rules", "{bad}",
                    "--sample", "4"]),
    ("model.json", ["importance", "--model", "{bad}"]),
])
def test_file_that_is_not_utf8_exits_two_naming_the_file(capsys, workspace, kind, argv):
    bad = workspace / "bad" / kind
    bad.parent.mkdir()
    bad.write_bytes(b"\xff\xfe" + "{}".encode("utf-16-le"))
    code, out, err = _run([a.format(bad=bad, ws=workspace) for a in argv], capsys)
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {bad}: not UTF-8: ") and err.count("\n") == 1


class TestRunCommand:
    def test_trace_jsonl_on_disk(self, capsys, workspace):
        out = workspace / "trace.jsonl"
        code, _, _ = _run(
            ["run", "--oracle", f"dataset:{workspace / 'data.jsonl'}",
             "--bootstrap", "5", "--budget", "6", "--seed", "3",
             "--out", str(out)],
            capsys,
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        entries = [json.loads(line) for line in lines]
        assert [e["t"] for e in entries] == list(range(1, 7))
        for entry in entries:
            assert set(entry) == {"t", "digest", "score", "built"}
            assert isinstance(entry["score"], float)

    def test_random_trace_scores_are_null(self, capsys, workspace):
        code, out, _ = _run(
            ["run", "--oracle", f"dataset:{workspace / 'data.jsonl'}",
             "--strategy", "random", "--bootstrap", "5", "--budget", "4"],
            capsys,
        )
        assert code == 0
        for line in out.splitlines():
            assert json.loads(line)["score"] is None

    def test_dataset_oracle_refuses_pool_mode(self, capsys, workspace):
        """Pool draws would ignore the dataset's configurations."""
        trace = workspace / "trace.jsonl"
        code, out, err = _run(
            ["run", "--oracle", f"dataset:{workspace / 'data.jsonl'}",
             "--candidate-mode", "pool", "--pool-size", "2", "--out", str(trace)],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: pool mode") and err.count("\n") == 1
        assert not trace.exists()

    @pytest.mark.parametrize("mode", [[], ["--candidate-mode", "exhaustive"]])
    def test_pool_size_without_pool_mode_is_a_usage_error(self, capsys, workspace, mode):
        """Exhaustive mode draws no pool, so the flag would be ignored."""
        trace, model = workspace / "trace.jsonl", workspace / "model.json"
        code, out, err = _run(
            ["run", "--oracle", f"dataset:{workspace / 'data.jsonl'}", *mode,
             "--pool-size", "3", "--out", str(trace), "--model-out", str(model)],
            capsys,
        )
        assert (code, out) == (1, "")
        assert err.splitlines() == ["--pool-size needs --candidate-mode pool"]
        assert not trace.exists() and not model.exists()

    def test_synthetic_oracle_with_model_export(self, capsys, workspace):
        model_path = workspace / "model.json"
        code, _, _ = _run(
            ["run", "--oracle", f"synthetic:{workspace / 'rules.json'}",
             "--graph", str(workspace / "graph.json"),
             "--bootstrap", "5", "--budget", "5", "--seed", "7",
             "--out", str(workspace / "trace.jsonl"),
             "--model-out", str(model_path)],
            capsys,
        )
        assert code == 0
        model = load_model(str(model_path))
        assert model.n.sum() == 10

    def test_byte_identical_reruns(self, capsys, workspace):
        argv = ["run", "--oracle", f"dataset:{workspace / 'data.jsonl'}",
                "--bootstrap", "4", "--budget", "5", "--seed", "11"]
        code_a, out_a, _ = _run(argv, capsys)
        code_b, out_b, _ = _run(argv, capsys)
        assert code_a == code_b == 0
        assert out_a == out_b


class TestEvalCommand:
    def test_csv_header_and_shape(self, capsys, workspace):
        code, out, _ = _run(
            ["eval", "--data", str(workspace / "data.jsonl"),
             "--strategies", "bayesian,random", "--sizes", "5,10",
             "--reps", "2", "--bootstrap", "5", "--seed", "4"],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["strategy", "size", "mean_p", "sd_p", "mean_r", "sd_r"]
        assert len(rows) == 1 + 4  # two strategies times two sizes
        assert {row[0] for row in rows[1:]} == {"bayesian", "random"}

    def test_bootstrap_size_rows_match_across_strategies(self, capsys, workspace):
        code, out, _ = _run(
            ["eval", "--data", str(workspace / "data.jsonl"),
             "--strategies", "bayesian,crowd,random", "--sizes", "5,10",
             "--reps", "3", "--bootstrap", "5", "--seed", "4"],
            capsys,
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))[1:]
        numeric = {row[0]: row[2:] for row in rows if row[1] == "5"}
        assert numeric["bayesian"] == numeric["crowd"] == numeric["random"]

    def test_json_format(self, capsys, workspace):
        code, out, _ = _run(
            ["eval", "--data", str(workspace / "data.jsonl"),
             "--strategies", "random", "--sizes", "5,10", "--reps", "2",
             "--bootstrap", "5", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload[0]["strategy"] == "random"
        assert payload[0]["size"] == 5

    @pytest.mark.parametrize("flags, named", [
        (["--strategies", "bayesian,bayesian"], "--strategies"),
        (["--strategies", ","], "--strategies"),
        (["--sizes", "10,abc"], "--sizes"),
        (["--sizes", ","], "--sizes"),
    ])
    def test_strategy_and_size_lists_are_usage_errors(self, capsys, workspace, flags, named):
        """A strategy listed twice or none, or a size list that is empty or
        holds a value that is not an integer, exits 1 naming the flag, and
        writes nothing."""
        out = workspace / "eval.csv"
        code, _, err = _run(["eval", "--data", str(workspace / "data.jsonl"), *flags,
                             "--reps", "1", "--bootstrap", "5", "--out", str(out)], capsys)
        assert code == 1
        assert f"argument {named}:" in err
        assert not out.exists()

    def test_bootstrap_covering_every_size_exits_two(self, capsys, workspace):
        out = workspace / "eval.csv"
        code, _, err = _run(["eval", "--data", str(workspace / "data.jsonl"), "--sizes", "10",
                             "--bootstrap", "10", "--reps", "1", "--out", str(out)], capsys)
        assert code == 2
        assert err == "error: bootstrap size 10 covers every sample size; the largest is 10\n"
        assert not out.exists()

    @pytest.mark.parametrize("sizes", ["20,15,20", "15,15", "20,15"])
    def test_sizes_that_repeat_or_fall_exit_two(self, capsys, workspace, sizes):
        out = workspace / "eval.csv"
        code, _, err = _run(["eval", "--data", str(workspace / "data.jsonl"), "--sizes", sizes,
                             "--strategies", "random", "--bootstrap", "10", "--reps", "2",
                             "--out", str(out)], capsys)
        assert code == 2
        assert err.startswith("error: sample sizes [") and "must ascend" in err
        assert not out.exists()

    def test_oversized_request_exits_two(self, capsys, workspace):
        code, _, err = _run(
            ["eval", "--data", str(workspace / "data.jsonl"),
             "--sizes", "500", "--reps", "1"],
            capsys,
        )
        assert code == 2
        assert "exceeds" in err


class TestAuprcCommand:
    def test_payload_shape(self, capsys, workspace):
        code, out, _ = _run(
            ["auprc", "--data", str(workspace / "data.jsonl"),
             "--strategy", "crowd", "--reps", "3", "--selections", "4",
             "--bootstrap", "4", "--seed", "6"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["strategy"] == "crowd"
        assert len(payload["values"]) == 3
        assert len(payload["seeds"]) == 3
        assert 0.0 <= payload["mean"] <= 1.0
        assert payload["sd"] >= 0.0

    def test_deterministic(self, capsys, workspace):
        argv = ["auprc", "--data", str(workspace / "data.jsonl"),
                "--reps", "2", "--selections", "4", "--bootstrap", "4"]
        _, out_a, _ = _run(argv, capsys)
        _, out_b, _ = _run(argv, capsys)
        assert out_a == out_b

    @pytest.mark.parametrize("reps", ["0", "-2"])
    def test_repetitions_not_positive_exit_two(self, capsys, workspace, reps):
        code, out, err = _run(["auprc", "--data", str(workspace / "data.jsonl"),
                               "--reps", reps], capsys)
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: repetitions must be positive"]


class TestImportanceCommand:
    def test_csv_from_dataset(self, capsys, workspace):
        code, out, _ = _run(
            ["importance", "--data", str(workspace / "data.jsonl")], capsys
        )
        assert code == 0
        rows = list(csv.reader(io.StringIO(out)))
        assert rows[0] == ["target", "score"]
        targets = [row[0] for row in rows[1:]]
        assert set(targets) == {"A", "B", "C", "A+B", "B+C"}
        assert targets[0] == "A+B"  # the planted pair dominates

    def test_top_k_json(self, capsys, workspace):
        code, out, _ = _run(
            ["importance", "--data", str(workspace / "data.jsonl"),
             "--top", "2", "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload) == 2
        assert payload[0]["target"] == "A+B"

    def test_model_and_data_are_alternatives(self, capsys, workspace):
        code, _, err = _run(["importance"], capsys)
        assert code == 1
        assert "--model" in err or "--data" in err

    def test_from_saved_model(self, capsys, workspace):
        model_path = workspace / "model.json"
        _run(["run", "--oracle", f"dataset:{workspace / 'data.jsonl'}",
              "--bootstrap", "10", "--budget", "10",
              "--out", str(workspace / "t.jsonl"),
              "--model-out", str(model_path)], capsys)
        code, out, _ = _run(["importance", "--model", str(model_path)], capsys)
        assert code == 0
        assert out.startswith("target,score")

    def test_model_without_good_n_exits_two(self, capsys, workspace):
        model_path = workspace / "model.json"
        _run(["run", "--oracle", f"dataset:{workspace / 'data.jsonl'}",
              "--bootstrap", "10", "--budget", "10",
              "--out", str(workspace / "t.jsonl"),
              "--model-out", str(model_path)], capsys)
        payload = json.loads(model_path.read_text())
        del payload["good"]["n"]
        model_path.write_text(json.dumps(payload))
        code, _, err = _run(["importance", "--model", str(model_path)], capsys)
        assert code == 2
        assert err.startswith("error: model field good.n is missing")
        assert "Traceback" not in err

    def test_model_that_is_not_json_exits_two_naming_the_file(self, capsys, workspace):
        model_path = workspace / "model.json"
        model_path.write_text("{not json\n")
        code, _, err = _run(["importance", "--model", str(model_path)], capsys)
        assert code == 2
        assert err.startswith(f"error: {model_path}: invalid JSON: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("smoothing", ["nan", "inf", "0"])
    def test_smoothing_not_finite_and_positive_exits_two(self, capsys, workspace, smoothing):
        code, _, err = _run(["importance", "--data", str(workspace / "data.jsonl"),
                             "--smoothing", smoothing], capsys)
        assert code == 2
        assert err.startswith("error: smoothing must be finite and positive")
        assert "Traceback" not in err

    @pytest.mark.parametrize("smoothing", ["5e-324", "1e308"])
    def test_smoothing_that_rounds_a_weight_to_zero_exits_two(self, capsys, workspace,
                                                              smoothing):
        code, _, err = _run(["importance", "--data", str(workspace / "data.jsonl"),
                             "--smoothing", smoothing], capsys)
        assert code == 2
        assert err.splitlines() == [
            f"error: smoothing {float(smoothing)!r} over 24 records rounds a factor weight to 0"]


class TestHeatmapCommand:
    def test_writes_matrices_and_constraints(self, capsys, workspace):
        out_dir = workspace / "heat"
        code, _, _ = _run(
            ["heatmap", "--data", str(workspace / "data.jsonl"),
             "--threshold", "0.6", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == [
            "A+B.csv", "B+C.csv", "constraints.json"
        ]
        rows = list(csv.reader(io.StringIO((out_dir / "A+B.csv").read_text())))
        assert rows[0] == ["", "v1", "v2", "v3"]
        assert len(rows) == 4
        constraints = json.loads((out_dir / "constraints.json").read_text())
        assert constraints["threshold"] == 0.6
        planted = [
            (p["parent_version"], p["child_version"])
            for p in constraints["pairs"]
            if p["parent"] == "A"
        ]
        assert ("v1", "v2") in planted

    def test_single_edge_filter(self, capsys, workspace):
        out_dir = workspace / "one"
        code, _, _ = _run(
            ["heatmap", "--data", str(workspace / "data.jsonl"),
             "--edge", "B+C", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 0
        names = sorted(p.name for p in out_dir.iterdir())
        assert names == ["B+C.csv", "constraints.json"]

    def test_unknown_edge_exits_two(self, capsys, workspace):
        code, _, err = _run(
            ["heatmap", "--data", str(workspace / "data.jsonl"),
             "--edge", "C+A", "--out-dir", str(workspace / "x")],
            capsys,
        )
        assert code == 2

    def test_threshold_out_of_range_writes_nothing(self, capsys, workspace):
        """The threshold is checked, through constraint extraction, before
        any file or directory is written."""
        out_dir = workspace / "over"
        code, out, err = _run(
            ["heatmap", "--data", str(workspace / "data.jsonl"),
             "--threshold", "2", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error: threshold 2.0 outside [0, 1]") and err.count("\n") == 1
        assert not out_dir.exists()

    @pytest.mark.parametrize("root", ["../../esc", "nul\0root"])
    def test_edge_file_outside_out_dir_exits_two(self, capsys, tmp_path, root):
        """An edge whose file name is not one path component is refused
        before the output directory or any file is made: ../../esc+d.csv
        under out/deep would land beside out."""
        graph = DependencyGraph(packages=(root, "d"), domains=(("v1", "v2"),) * 2,
                                edges=((0, 1),), root=0)
        save_model(fit([], graph), str(tmp_path / "model.json"))
        out_dir = tmp_path / "out" / "deep"
        code, out, err = _run(["heatmap", "--model", str(tmp_path / "model.json"),
                               "--out-dir", str(out_dir)], capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [
            f"error: edge {root!r} -> 'd': {root + '+d.csv'!r} is not one path component"]
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.json"]

    @staticmethod
    def _model(tmp_path, packages, edges) -> str:
        graph = DependencyGraph(packages=packages, domains=(("v1", "v2"),) * len(packages),
                                edges=edges, root=0)
        save_model(fit([], graph), str(tmp_path / "model.json"))
        return str(tmp_path / "model.json")

    @pytest.mark.parametrize("edge", [[], ["--edge", "a+b+c"]])
    def test_edge_files_that_collide_exit_two(self, capsys, tmp_path, edge):
        """a+b -> c and a -> b+c both write a+b+c.csv: refused before the
        output directory or any file is made, with --edge naming them or not."""
        model = self._model(tmp_path, ("root", "a+b", "c", "a", "b+c"),
                            ((0, 1), (0, 3), (1, 2), (3, 4)))
        out_dir = tmp_path / "out"
        code, out, err = _run(["heatmap", "--model", model, "--out-dir", str(out_dir), *edge],
                              capsys)
        assert code == 2 and out == ""
        assert err.splitlines() == [
            "error: edge 'a+b' -> 'c': another edge's file is 'a+b+c.csv' too"]
        assert not out_dir.exists()

    def test_edge_selected_by_its_whole_name(self, capsys, tmp_path):
        """--edge x+y+z selects the edge x+y -> z; x -> y+z is no edge."""
        model = self._model(tmp_path, ("root", "x+y", "z"), ((0, 1), (1, 2)))
        out_dir = tmp_path / "out"
        code, _, _ = _run(["heatmap", "--model", model, "--out-dir", str(out_dir),
                           "--edge", "x+y+z"], capsys)
        assert code == 0
        assert sorted(p.name for p in out_dir.iterdir()) == ["constraints.json", "x+y+z.csv"]
        code, _, err = _run(["heatmap", "--model", model, "--out-dir", str(out_dir),
                             "--edge", "x+z"], capsys)
        assert code == 2 and err.splitlines() == ["error: no edge 'x+z' in the graph"]

    def test_threshold_zero_no_pairs(self, capsys, workspace):
        out_dir = workspace / "zero"
        code, _, _ = _run(
            ["heatmap", "--data", str(workspace / "data.jsonl"),
             "--threshold", "0", "--out-dir", str(out_dir)],
            capsys,
        )
        assert code == 0
        constraints = json.loads((out_dir / "constraints.json").read_text())
        assert constraints["pairs"] == []


class TestModelOptions:
    """importance and heatmap take a model from --model or fit one from
    --data; the fitting options beside --model are a usage error."""

    @staticmethod
    def _argv(command, workspace):
        model = workspace / "model.json"
        dataset = load_dataset(str(workspace / "data.jsonl"))
        save_model(fit(dataset.records, dataset.graph), str(model))
        output = workspace / "output"
        target = ["--out", str(output)] if command == "importance" else ["--out-dir", str(output)]
        return [command, "--model", str(model), *target], output

    @pytest.mark.parametrize("command", ["importance", "heatmap"])
    @pytest.mark.parametrize("flag", ["--data", "--graph", "--smoothing"])
    def test_fitting_option_beside_model_exits_one(self, capsys, workspace, command, flag):
        # --smoothing 1.0 is the fitting default, and still refused.
        value = {"--data": str(workspace / "data.jsonl"), "--graph": str(workspace / "graph.json"),
                 "--smoothing": "1.0"}[flag]
        argv, output = self._argv(command, workspace)
        code, out, err = _run([*argv, flag, value], capsys)
        assert code == 1 and out == ""
        assert err.splitlines() == [f"--model cannot be combined with {flag}"]
        assert not output.exists()

    @pytest.mark.parametrize("command", ["importance", "heatmap"])
    def test_every_fitting_option_is_named(self, capsys, workspace, command):
        argv, output = self._argv(command, workspace)
        code, _, err = _run([*argv, "--smoothing", "2", "--data", str(workspace / "data.jsonl"),
                             "--graph", "/nonexistent/graph.json"], capsys)
        assert code == 1
        assert err.splitlines() == ["--model cannot be combined with --data, --graph, --smoothing"]
        assert not output.exists()

    @pytest.mark.parametrize("command", ["importance", "heatmap"])
    def test_model_alone_still_works(self, capsys, workspace, command):
        argv, output = self._argv(command, workspace)
        code, _, err = _run(argv, capsys)
        assert code == 0 and err == ""
        assert output.exists()


class TestSimulateCommand:
    def test_report_from_dataset_configs(self, capsys, workspace):
        code, out, _ = _run(
            ["simulate", "--graph", str(workspace / "graph.json"),
             "--rules", str(workspace / "rules.json"),
             "--data", str(workspace / "data.jsonl"), "--workers", "4"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["attempted"] + report["skipped"] == report["nodes"]
        assert report["makespan"] > 0.0

    def test_sampled_configs_deterministic(self, capsys, workspace):
        argv = ["simulate", "--graph", str(workspace / "graph.json"),
                "--rules", str(workspace / "rules.json"),
                "--sample", "6", "--workers", "2", "--seed", "5"]
        _, out_a, _ = _run(argv, capsys)
        _, out_b, _ = _run(argv, capsys)
        assert out_a == out_b

    def test_lognormal_latency(self, capsys, workspace):
        code, out, _ = _run(
            ["simulate", "--graph", str(workspace / "graph.json"),
             "--rules", str(workspace / "rules.json"),
             "--sample", "4", "--latency", "lognormal", "--seed", "2"],
            capsys,
        )
        assert code == 0
        report = json.loads(out)
        assert report["makespan"] != pytest.approx(report["attempted"])

    @pytest.mark.parametrize("sigma", ["nan", "inf"])
    def test_latency_not_finite_exits_two(self, capsys, workspace, sigma):
        code, out, err = _run(
            ["simulate", "--graph", str(workspace / "graph.json"),
             "--rules", str(workspace / "rules.json"), "--sample", "4",
             "--latency", "lognormal", "--latency-sigma", sigma, "--seed", "2"],
            capsys,
        )
        assert code == 2
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: latency")

    def test_negative_sigma_names_the_flag(self, capsys, workspace):
        code, out, err = _run(
            ["simulate", "--graph", str(workspace / "graph.json"),
             "--rules", str(workspace / "rules.json"), "--sample", "4",
             "--latency", "lognormal", "--latency-sigma", "-1", "--seed", "2"],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.splitlines() == [
            "error: latency sigma -1.0 (--latency-sigma) is not finite and >= 0"]

    @pytest.mark.parametrize("latency, sigma", [([], "2"), (["--latency", "unit"], "nan")])
    def test_sigma_without_lognormal_is_a_usage_error(self, capsys, workspace, latency, sigma):
        out = workspace / "sim.json"
        code, _, err = _run(
            ["simulate", "--graph", str(workspace / "graph.json"),
             "--rules", str(workspace / "rules.json"), "--sample", "4", *latency,
             "--latency-sigma", sigma, "--out", str(out)],
            capsys,
        )
        assert code == 1
        assert err.splitlines() == ["--latency-sigma needs --latency lognormal"]
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [("--workers", "0"), ("--workers", "-2"),
                                             ("--latency-sigma", "-1"),
                                             ("--latency-sigma", "nan"),
                                             ("--latency-sigma", "inf")])
    def test_bad_flag_refused_before_build_dag(self, capsys, workspace, monkeypatch,
                                               flag, value):
        def refuse(*args, **kwargs):
            raise AssertionError("build_dag ran")

        monkeypatch.setattr(buildsim, "build_dag", refuse)
        code, out, err = _run(
            ["simulate", "--graph", str(workspace / "graph.json"),
             "--rules", str(workspace / "rules.json"), "--sample", "4",
             "--latency", "lognormal", flag, value],
            capsys,
        )
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1 and flag in err

    @pytest.mark.parametrize("field, value", [("root", ["A"]), ("versions", "v12"),
                                              ("name", None)])
    def test_malformed_graph_exits_two(self, capsys, workspace, field, value):
        # Package C appears in no rule, so the rules file still loads.
        payload = json.loads((workspace / "graph.json").read_text())
        if field == "root":
            payload["root"] = value
        else:
            package = next(p for p in payload["packages"] if p["name"] == "C")
            package[field] = value
            if field == "name":
                payload["edges"] = [[p, str(value) if c == "C" else c]
                                    for p, c in payload["edges"]]
        (workspace / "graph.json").write_text(json.dumps(payload))
        code, _, err = _run(
            ["simulate", "--graph", str(workspace / "graph.json"),
             "--rules", str(workspace / "rules.json"), "--sample", "4"],
            capsys,
        )
        assert code == 2
        assert err.startswith("error:")

    @pytest.mark.parametrize("command", ["simulate", "run", "summary"])
    def test_graph_listing_an_edge_twice_exits_two(self, capsys, workspace, command):
        payload = json.loads((workspace / "graph.json").read_text())
        payload["edges"].append(payload["edges"][0])
        (workspace / "graph.json").write_text(json.dumps(payload))
        graph = ["--graph", str(workspace / "graph.json")]
        argv = {"simulate": ["simulate", *graph, "--rules", str(workspace / "rules.json"),
                             "--sample", "4"],
                "run": ["run", "--oracle", f"synthetic:{workspace / 'rules.json'}", *graph,
                        "--bootstrap", "2", "--budget", "2"],
                "summary": ["summary", "--data", str(workspace / "data.jsonl")]}[command]
        code, out, err = _run(argv, capsys)
        assert (code, out, err) == (2, "", "error: duplicate edge 'A' -> 'B'\n")

    @pytest.mark.parametrize("noise", ["0.05", False])
    def test_malformed_rules_exit_two(self, capsys, workspace, noise):
        payload = json.loads((workspace / "rules.json").read_text())
        payload["noise"] = noise
        (workspace / "rules.json").write_text(json.dumps(payload))
        code, out, err = _run(
            ["simulate", "--graph", str(workspace / "graph.json"),
             "--rules", str(workspace / "rules.json"), "--sample", "4"],
            capsys,
        )
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "run"])
    @pytest.mark.parametrize("rule, message", [
        (("A", "v1", "Z", "v1"), "unknown package 'Z'"),
        (("A", "v9", "B", "v1"), "unknown version 'v9' for package 'A'"),
        (("A", "v1", "C", "v1"), "missing edge 'A' -> 'C'"),
    ], ids=["package", "version", "edge"])
    def test_rules_outside_the_graph_exit_two(self, capsys, workspace, command, rule, message):
        save_rules(PlantedRuleSet(forbidden=frozenset({rule})), str(workspace / "bad.json"))
        graph = ["--graph", str(workspace / "graph.json")]
        argv = {"simulate": ["simulate", *graph, "--rules", str(workspace / "bad.json"),
                             "--sample", "4"],
                "run": ["run", "--oracle", f"synthetic:{workspace / 'bad.json'}", *graph,
                        "--bootstrap", "2", "--budget", "2"]}[command]
        code, out, err = _run(argv, capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: rule") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("size", ["0", "-3"])
    def test_sample_not_positive_exits_two(self, capsys, workspace, size):
        code, out, err = _run(
            ["simulate", "--graph", str(workspace / "graph.json"),
             "--rules", str(workspace / "rules.json"), "--sample", size],
            capsys,
        )
        assert code == 2
        assert out == ""
        assert err.splitlines() == ["error: sample size must be positive"]

    def test_requires_data_or_sample(self, capsys, workspace):
        code, _, err = _run(
            ["simulate", "--graph", str(workspace / "graph.json"),
             "--rules", str(workspace / "rules.json")],
            capsys,
        )
        assert code == 1

    def test_data_and_sample_together_exit_one(self, capsys, workspace):
        code, out, err = _run(
            ["simulate", "--graph", str(workspace / "graph.json"),
             "--rules", str(workspace / "rules.json"),
             "--data", str(workspace / "data.jsonl"), "--sample", "5"],
            capsys,
        )
        assert code == 1 and out == ""
        assert err.splitlines() == ["give either --data or --sample, not both"]

    def test_workers_beyond_the_dag_give_the_same_report(self, capsys, workspace):
        """The free pool is capped at the unit count: no worker numbered past
        it is ever taken, so a huge --workers allocates nothing and changes
        no byte."""
        argv = ["simulate", "--graph", str(workspace / "graph.json"),
                "--rules", str(workspace / "rules.json"),
                "--data", str(workspace / "data.jsonl"), "--latency", "lognormal"]
        outs = []
        for workers in ("1000", str(10**20)):
            code, out, err = _run(argv + ["--workers", workers], capsys)
            assert (code, err) == (0, "")
            outs.append(out)
        assert outs[0] == outs[1]
        assert json.loads(outs[0])["nodes"] < 1000

    def test_never_builds_origins(self, capsys, workspace, monkeypatch):
        dags = []
        real = buildsim.simulate

        def spy(dag, *args, **kwargs):
            dags.append(dag)
            return real(dag, *args, **kwargs)

        monkeypatch.setattr(buildsim, "simulate", spy)
        code, _, _ = _run(
            ["simulate", "--graph", str(workspace / "graph.json"),
             "--rules", str(workspace / "rules.json"), "--sample", "20",
             "--latency", "lognormal"],
            capsys,
        )
        assert code == 0 and len(dags) == 1
        assert "origins" not in vars(dags[0])


@pytest.mark.parametrize("sigma", [0.0, 0.5, 3.0])
@pytest.mark.parametrize("n", [0, 1, 7, 5000])
def test_lognormal_batch_equals_one_draw_at_a_time(sigma, n):
    """simulate draws its latencies in one batch: the same values, and the
    same generator state after, as one scalar draw per unit."""
    one, batch = substream(5, "simulate-latency"), substream(5, "simulate-latency")
    scalars = [float(one.lognormal(mean=0.0, sigma=sigma)) for _ in range(n)]
    assert batch.lognormal(mean=0.0, sigma=sigma, size=n).tolist() == scalars
    assert batch.bit_generator.state == one.bit_generator.state
    assert batch.lognormal() == one.lognormal()


@pytest.mark.parametrize("argv, code", [(["simulate", "--help"], 0), (["run"], 1)])
def test_python_dash_m_runs_the_cli(argv, code):
    """python -m buildtuner is the same entry point, exit code included."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(buildtuner.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-m", "buildtuner", *argv],
                          env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == code, proc.stderr
    assert "usage: buildtuner" in (proc.stdout if code == 0 else proc.stderr)


def test_outputs_do_not_depend_on_the_hash_seed(tmp_path):
    """A seeded run (synthetic oracle with noise, model exported) and a
    sampled simulate give the same bytes under two string hash seeds, each
    in its own process; tests in one process share one hash seed."""
    graph, rules = buildsim.generate_benchmark(6, 3, 0.5, 0.3, seed=5)
    save_graph(graph, str(tmp_path / "graph.json"))
    save_rules(PlantedRuleSet(forbidden=rules.forbidden, noise=0.2), str(tmp_path / "rules.json"))
    src = os.path.dirname(os.path.dirname(os.path.abspath(buildtuner.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    common = ["--graph", str(tmp_path / "graph.json"), "--seed", "11"]
    outputs = {}
    for hash_seed in ("0", "1"):
        out = tmp_path / hash_seed
        out.mkdir()
        for argv in (
            ["run", "--oracle", f"synthetic:{tmp_path / 'rules.json'}", *common,
             "--bootstrap", "8", "--budget", "20", "--out", str(out / "trace.jsonl"),
             "--model-out", str(out / "model.json")],
            ["simulate", "--rules", str(tmp_path / "rules.json"), *common, "--sample", "40",
             "--workers", "3", "--latency", "lognormal", "--out", str(out / "sim.json")],
        ):
            proc = subprocess.run([sys.executable, "-m", "buildtuner", *argv],
                                  env={**os.environ, "PYTHONPATH": path,
                                       "PYTHONHASHSEED": hash_seed},
                                  capture_output=True, text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
        outputs[hash_seed] = {f.name: f.read_bytes() for f in sorted(out.iterdir())}
    assert sorted(outputs["0"]) == ["model.json", "sim.json", "trace.jsonl"]
    assert outputs["0"] == outputs["1"]


class TestGenSyntheticCommand:
    def test_generates_loadable_artifacts(self, capsys, tmp_path):
        code, _, _ = _run(
            ["gen-synthetic", "--packages", "4", "--versions", "3",
             "--target-rate", "0.5", "--rule-density", "0.5", "--seed", "9",
             "--out-graph", str(tmp_path / "g.json"),
             "--out-rules", str(tmp_path / "r.json"),
             "--emit-data", str(tmp_path / "d.jsonl")],
            capsys,
        )
        assert code == 0
        dataset = load_dataset(str(tmp_path / "d.jsonl"))
        assert len(dataset) == 81
        rate = dataset.good_count / len(dataset)
        assert 0.5 * 0.8 <= rate <= 0.5 * 1.2

    def test_version_list(self, capsys, tmp_path):
        code, _, _ = _run(
            ["gen-synthetic", "--packages", "3", "--versions", "2,3,4",
             "--target-rate", "1.0",
             "--out-graph", str(tmp_path / "g.json"),
             "--out-rules", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 0
        from buildtuner import load_graph

        assert load_graph(str(tmp_path / "g.json")).domain_sizes == (2, 3, 4)

    @pytest.mark.parametrize("versions", ["3,abc", "abc", ","])
    def test_malformed_version_list_is_a_usage_error(self, capsys, tmp_path, versions):
        code, _, err = _run(
            ["gen-synthetic", "--packages", "3", "--versions", versions,
             "--target-rate", "0.5",
             "--out-graph", str(tmp_path / "g.json"),
             "--out-rules", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 1
        assert "argument --versions:" in err
        assert list(tmp_path.iterdir()) == []

    def test_space_too_large_to_emit_writes_nothing(self, capsys, tmp_path):
        code, _, err = _run(
            ["gen-synthetic", "--packages", "12", "--versions", "3",
             "--target-rate", "0.5",
             "--out-graph", str(tmp_path / "g.json"),
             "--out-rules", str(tmp_path / "r.json"),
             "--emit-data", str(tmp_path / "d.jsonl")],
            capsys,
        )
        assert code == 2
        assert err.startswith("error: space of 531441 configurations is too large")
        assert list(tmp_path.iterdir()) == []

    def test_infeasible_exits_two(self, capsys, tmp_path):
        code, _, err = _run(
            ["gen-synthetic", "--packages", "3", "--versions", "2",
             "--target-rate", "0.05", "--rule-density", "0.0",
             "--out-graph", str(tmp_path / "g.json"),
             "--out-rules", str(tmp_path / "r.json")],
            capsys,
        )
        assert code == 2


class TestLargeGraphs:
    """Graphs deeper than the interpreter's recursion limit, and with more
    packages than numpy has array dimensions."""

    def test_deep_chain_simulates(self, capsys, tmp_path):
        n = 1200
        graph = DependencyGraph(
            packages=tuple(f"p{i:04d}" for i in range(n)),
            domains=(("v1", "v2"),) * n,
            edges=tuple((i, i + 1) for i in range(n - 1)),
            root=0,
        )
        save_graph(graph, str(tmp_path / "graph.json"))
        save_rules(PlantedRuleSet(forbidden=frozenset()), str(tmp_path / "rules.json"))
        code, out, err = _run(
            ["simulate", "--graph", str(tmp_path / "graph.json"),
             "--rules", str(tmp_path / "rules.json"), "--sample", "1"],
            capsys,
        )
        assert code == 0, err
        report = json.loads(out)
        assert report["nodes"] == report["succeeded"] == n

    def test_seventy_packages_enumerate_and_run(self, capsys, tmp_path):
        """Five packages of three versions among 70: a space of 243 rows."""
        versions = ",".join("3" if i % 14 == 0 else "1" for i in range(70))
        code, _, err = _run(
            ["gen-synthetic", "--packages", "70", "--versions", versions,
             "--target-rate", "0.5", "--rule-density", "0.5", "--seed", "3",
             "--out-graph", str(tmp_path / "graph.json"),
             "--out-rules", str(tmp_path / "rules.json"),
             "--emit-data", str(tmp_path / "data.jsonl")],
            capsys,
        )
        assert code == 0, err
        graph = load_graph(str(tmp_path / "graph.json"))
        assert graph.n_packages == 70
        matrix = full_space_matrix(graph)
        assert matrix.dtype == np.int32
        assert list(map(tuple, matrix.tolist())) == list(all_configurations(graph))
        assert len(load_dataset(str(tmp_path / "data.jsonl"))) == 243
        code, _, err = _run(
            ["run", "--oracle", f"synthetic:{tmp_path / 'rules.json'}",
             "--graph", str(tmp_path / "graph.json"), "--candidate-mode", "exhaustive",
             "--bootstrap", "5", "--budget", "10", "--out", str(tmp_path / "trace.jsonl")],
            capsys,
        )
        assert code == 0, err
        assert len((tmp_path / "trace.jsonl").read_text().splitlines()) == 10


class TestSummaryCommand:
    def test_table(self, capsys, workspace):
        code, out, _ = _run(
            ["summary", "--data", str(workspace / "data.jsonl")], capsys
        )
        assert code == 0
        assert "configs" in out and "27" in out

    def test_json(self, capsys, workspace):
        code, out, _ = _run(
            ["summary", "--data", str(workspace / "data.jsonl"),
             "--format", "json"],
            capsys,
        )
        assert code == 0
        payload = json.loads(out)
        assert payload == {"configs": 27, "good": 24, "deps": 2}


def test_workspace_dataset_good_count(workspace):
    """The planted rule pins A and B, so exactly 3 of 27 configs are bad."""
    dataset = load_dataset(str(workspace / "data.jsonl"))
    graph = chain_graph(3, 3)
    bad = sum(
        1 for c in all_configurations(graph) if c[0] == 0 and c[1] == 1
    )
    assert len(dataset) - dataset.good_count == bad == 3


def test_output_files_end_with_newline(capsys, workspace):
    out = workspace / "trace.jsonl"
    _run(["run", "--oracle", f"dataset:{workspace / 'data.jsonl'}",
          "--bootstrap", "4", "--budget", "2", "--out", str(out)], capsys)
    assert out.read_text().endswith("\n")


_NOT_A_NAME = [None, 7, 0.5, True, [], {}, ["A"]]


def _mutated_graph(data, payload) -> str:
    """One of: drop or retype a field, replace a name or label, duplicate a
    package, label or edge, add an edge, or cut the JSON text short."""
    kind = data.draw(st.sampled_from(
        ["drop", "retype", "replace", "duplicate", "edge", "truncate"]))
    packages, edges = payload["packages"], payload["edges"]
    if kind == "truncate":
        text = json.dumps(payload)
        return text[:data.draw(st.integers(0, len(text) - 1))]
    if kind == "duplicate":
        target = data.draw(st.sampled_from([packages, edges, *(p["versions"] for p in packages)]))
        target.append(copy.deepcopy(data.draw(st.sampled_from(target))))
    elif kind == "edge":
        names = [p["name"] for p in packages] + ["ghost"]
        edges.append([data.draw(st.sampled_from(names)), data.draw(st.sampled_from(names))])
    elif kind == "replace":
        target = data.draw(st.sampled_from([edges, *edges, *(p["versions"] for p in packages)]))
        at = data.draw(st.integers(0, len(target) - 1))
        target[at] = data.draw(st.sampled_from(["A", "B", "v1", "", *_NOT_A_NAME]))
    else:
        target = data.draw(st.sampled_from([payload, *packages]))
        field = data.draw(st.sampled_from(sorted(target)))
        if kind == "drop":
            del target[field]
        else:
            target[field] = data.draw(st.sampled_from(
                [v for v in _NOT_A_NAME + ["A", "x"] if type(v) is not type(target[field])]))
    return json.dumps(payload)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_fuzzed_graph_loads_valid_or_simulate_exits_two(tmp_path_factory, data):
    folder = tmp_path_factory.mktemp("fuzz")
    graph_path, rules_path = str(folder / "graph.json"), str(folder / "rules.json")
    (folder / "graph.json").write_text(_mutated_graph(data, chain_graph(3, 3).to_dict()))
    save_rules(PlantedRuleSet(forbidden=frozenset({("A", "v1", "B", "v2")})), rules_path)
    try:
        graph = load_graph(graph_path)
    except GraphError:
        graph = None
    else:
        validate_graph(graph)
        assert all(type(name) is str for name in graph.packages)
        assert all(type(label) is str for domain in graph.domains for label in domain)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = dispatch(["simulate", "--graph", graph_path, "--rules", rules_path,
                         "--sample", "5"])
    if graph is None or code != 0:
        assert code == 2
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")


_ODD_NUMBERS = [0, -1, 1, 0.5, 2**63, 5e-324, 1e-300, 1e300, 1e308, math.nan, math.inf]


def _mutated_model(data, payload) -> str:
    """One of: drop or retype a field, set a number field to an extreme
    value, change one count, lengthen or shorten a count list, list an edge
    twice, scale one side's counts and n with the success prior they give,
    or cut the JSON text short."""
    kind = data.draw(st.sampled_from(
        ["drop", "retype", "number", "count", "length", "duplicate", "scale", "truncate"]))
    if kind == "truncate":
        text = json.dumps(payload)
        return text[:data.draw(st.integers(0, len(text) - 1))]
    side = payload[data.draw(st.sampled_from(["good", "bad"]))]
    counts = [*side["nodes"], *(row for edge in side["edges"] for row in edge["counts"])]
    if kind == "count":
        target = data.draw(st.sampled_from(counts))
        at = data.draw(st.integers(0, len(target) - 1))
        target[at] = data.draw(st.sampled_from(
            [target[at] + 1, target[at] - 1, None, True, 1.5, 2**62, 2**63, "1", []]))
    elif kind == "length":
        target = data.draw(st.sampled_from(
            [*counts, side["nodes"], *(edge["counts"] for edge in side["edges"])]))
        if data.draw(st.booleans()):
            target.pop()
        else:
            target.append(copy.deepcopy(target[-1]))
    elif kind == "duplicate":
        side["edges"].append(copy.deepcopy(data.draw(st.sampled_from(side["edges"]))))
    elif kind == "scale":
        factor = data.draw(st.sampled_from([0, 3, 2**40, 2**61]))
        side["n"] *= factor
        for row in counts:
            row[:] = [c * factor for c in row]
        n_good, n_bad = payload["good"]["n"], payload["bad"]["n"]
        payload["success_prior"] = (n_good + 1) / (n_good + n_bad + 2)
    elif kind == "number":
        target, field = data.draw(st.sampled_from(
            [(payload, "smoothing"), (payload, "success_prior"), (side, "n")]))
        target[field] = data.draw(st.sampled_from(_ODD_NUMBERS))
    else:
        target = data.draw(st.sampled_from([payload, side, *side["edges"]]))
        field = data.draw(st.sampled_from(sorted(target)))
        if kind == "drop":
            del target[field]
        else:
            target[field] = data.draw(st.sampled_from(
                [v for v in _NOT_A_NAME + ["1"] if type(v) is not type(target[field])]))
    return json.dumps(payload)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_fuzzed_model_loads_valid_or_importance_exits_two(tmp_path_factory, data):
    graph = chain_graph(3, 3)
    records = distinct_records(graph, 12, np.random.default_rng(4), lambda c: c[0] != 2)
    folder = tmp_path_factory.mktemp("fuzz")
    path, out = str(folder / "model.json"), str(folder / "importance.json")
    save_model(fit(records, graph), path)
    with open(path, encoding="utf-8") as fh:
        payload = json.load(fh)
    (folder / "model.json").write_text(_mutated_model(data, payload))
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = load_model(path)
    except ValueError:
        model = None
    else:
        assert type(model.smoothing) is float and 0 < model.smoothing < math.inf
        for stats, table in ((model.good_stats, model.good), (model.bad_stats, model.bad)):
            assert stats.counts.dtype == np.int64 and (stats.counts >= 0).all()
            assert all(f.sum(dtype=object) == stats.n for f in stats.factors)
            assert (table.weights > 0).all() and np.isfinite(table.log).all()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = dispatch(["importance", "--model", path, "--format", "json", "--out", out])
    if model is None or code != 0:
        assert code == 2
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
    else:
        with open(out, encoding="utf-8") as fh:
            json.loads(fh.read(), parse_constant=pytest.fail)
