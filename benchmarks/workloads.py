"""The benchmark workloads: inputs made from a seed, one timed pass, checks.

Each workload is a closed loop: one caller in one process, every build
request answered before the next is made.  The program receives only the
generated inputs (graph, rules and dataset files, or an oracle object), and
every call goes through a module attribute so that a traced pass sees it.

Sizes are fixed per workload; the smoke size runs the same code and the
same checks on spaces small enough for the benchmark's own tests.
"""
from __future__ import annotations

import json
import os
import statistics
from dataclasses import dataclass, field
from time import perf_counter

import numpy as np

from buildtuner import (
    analysis,
    buildsim,
    cli,
    configspace,
    dataset,
    metrics,
    rng,
    sampler,
    surrogate,
)
from reference import PlantedTruth, side_counts

RULE_DENSITY = 0.5


@dataclass
class Pass:
    """What one timed pass measured and produced."""

    wall_s: float
    setup_s: float
    builds: int  # build requests answered
    build_s: float  # time from the first request to the last answer
    steps_ms: list[float] = field(default_factory=list)
    outputs: dict[str, bytes] = field(default_factory=dict)
    quality: dict[str, float] = field(default_factory=dict)
    data: object = None


class Checks:
    """Counts correctness checks and keeps the message of each that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []

    def __call__(self, ok, message: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.messages.append(message)


class _FirstRequest(Exception):
    """Raised at the first build request of a set-up probe."""


class TimedOracle:
    """Delegating oracle that takes two clock readings per build request.

    This is the program's own oracle boundary, so it is used in untraced
    runs too: the gap from one answer to the next request is the time a
    build farm would wait on the tuner.
    """

    def __init__(self, inner, stop_at_first: bool = False):
        self.inner = inner
        self.stop_at_first = stop_at_first
        self.calls: list[tuple[float, float]] = []

    def candidate_configurations(self):
        return self.inner.candidate_configurations()

    def evaluate(self, config):
        began = perf_counter()
        if self.stop_at_first:
            self.calls.append((began, began))
            raise _FirstRequest
        outcome = self.inner.evaluate(config)
        self.calls.append((began, perf_counter()))
        return outcome


def _json_bytes(payload) -> bytes:
    return json.dumps(payload, sort_keys=True).encode("utf-8")


def _read(path: str) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _truth_from_files(graph_path: str, rules_path: str) -> PlantedTruth:
    with open(graph_path, encoding="utf-8") as g, open(rules_path, encoding="utf-8") as r:
        return PlantedTruth(json.load(g), json.load(r))


class Workload:
    """One workload at one size and seed; subclasses define the pass."""

    name = ""
    SIZES: dict[str, dict] = {}
    # The traced call count, or hook count, that must equal Pass.builds.
    BUILDS_COUNTED_BY = ""

    def __init__(self, workdir: str, seed: int, size: str):
        self.workdir = workdir
        self.seed = seed
        self.p = self.SIZES[size]
        os.makedirs(workdir, exist_ok=True)

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def planted_space(self) -> tuple[str, str, PlantedTruth]:
        """Write the seed's generated graph and rules as JSON; read the truth back."""
        p = self.p
        graph, rules = buildsim.generate_benchmark(
            p["packages"], p["versions"], RULE_DENSITY, p["rate"], self.seed)
        graph_path, rules_path = self.path("graph.json"), self.path("rules.json")
        _write_json(graph_path, graph.to_dict())
        _write_json(rules_path, rules.to_dict())
        return graph_path, rules_path, _truth_from_files(graph_path, rules_path)

    def probe_setup(self) -> float:
        """Seconds before the first build request, measured on its own."""
        raise NotImplementedError

    def run_pass(self) -> Pass:
        raise NotImplementedError

    def check(self, p: Pass, check: Checks) -> None:
        raise NotImplementedError

    def report(self, passes: list[Pass]) -> dict[str, tuple[float, str]]:
        """Workload-specific metrics, as {name: (value, unit)}."""
        return {}


class AdaptExhaustive(Workload):
    """sampler.run, bayesian and exhaustive, then the explain step."""

    name = "adapt-exhaustive"
    BUILDS_COUNTED_BY = "buildsim.SyntheticOracle.evaluate"
    SIZES = {
        "full": dict(packages=10, versions=3, rate=0.02, bootstrap=20, budget=200),
        "smoke": dict(packages=7, versions=3, rate=0.1, bootstrap=10, budget=40),
    }

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed, size)
        p = self.p
        self.graph_path, self.rules_path, self.truth = self.planted_space()
        self.config = sampler.SamplerConfig(
            strategy="bayesian", bootstrap_size=p["bootstrap"], budget=p["budget"],
            candidate_mode="exhaustive", seed=seed)

    def _start(self, stop_at_first: bool):
        graph = configspace.load_graph(self.graph_path)
        rules = buildsim.load_rules(self.rules_path)
        oracle = TimedOracle(buildsim.synthetic_oracle(graph, rules), stop_at_first)
        return graph, oracle

    def probe_setup(self) -> float:
        began = perf_counter()
        graph, oracle = self._start(stop_at_first=True)
        try:
            sampler.run(oracle, graph, self.config)
        except Exception:
            if not oracle.calls:
                raise
        return oracle.calls[0][0] - began

    def run_pass(self) -> Pass:
        began = perf_counter()
        graph, oracle = self._start(stop_at_first=False)
        result = sampler.run(oracle, graph, self.config)
        answered = perf_counter()
        model_path = self.path("model.json")
        surrogate.save_model(result.model, model_path)
        ranking = analysis.importance_ranking(result.model)
        heatmaps = [analysis.pair_compatibility(result.model, (graph.packages[a], graph.packages[b]))
                    for a, b in graph.edges]
        constraints = [pair for m in heatmaps for pair in analysis.extract_constraints(m)]
        ended = perf_counter()

        calls = oracle.calls
        boot = self.config.bootstrap_size
        history = result.history
        return Pass(
            wall_s=ended - began,
            setup_s=calls[0][0] - began,
            builds=len(calls),
            build_s=answered - calls[0][0],
            steps_ms=[(calls[i][0] - calls[i - 1][1]) * 1e3 for i in range(boot, len(calls))],
            outputs={
                "trace.jsonl": "".join(json.dumps(e.to_dict(), sort_keys=True) + "\n"
                                       for e in result.trace).encode("utf-8"),
                "model.json": _read(model_path),
                "importance.json": _json_bytes([e.to_dict() for e in ranking]),
                "heatmaps.json": _json_bytes([m.to_rows() for m in heatmaps]),
                "constraints.json": _json_bytes([c.to_dict() for c in constraints]),
            },
            quality={"precision": history.good_count / len(history)},
            data=(graph, result),
        )

    def check(self, p: Pass, check: Checks) -> None:
        graph, result = p.data
        truth = self.truth
        boot, budget = self.config.bootstrap_size, self.config.budget
        entries = result.history.entries
        configs = np.asarray([r.config for r in entries], dtype=np.int64)
        outcomes = np.asarray([r.outcome for r in entries], dtype=bool)
        trace = result.trace

        check(len(trace) == budget, f"trace has {len(trace)} entries for a budget of {budget}")
        check(len(entries) == boot + budget,
              f"history has {len(entries)} records, expected {boot + budget}")
        digests = [truth.config_digest(c) for c in configs]
        check(list(result.history.digests) == digests,
              "a history digest differs from the canonical digest of its configuration")
        check(len(set(digests)) == len(digests), "a configuration was evaluated twice")
        check(len({e.digest for e in trace}) == len(trace), "a digest repeats in the trace")
        check([e.digest for e in trace] == digests[boot:],
              "trace digests do not follow the evaluation order")
        check(np.array_equal(outcomes, truth.builds_many(configs)),
              "an oracle outcome differs from the planted rules")
        check([e.built for e in trace] == outcomes[boot:].tolist(),
              "a trace outcome differs from the recorded outcome")

        model = result.model
        scratch = surrogate.fit(entries, graph, self.config.smoothing)
        for side, mask in (("good", outcomes), ("bad", ~outcomes)):
            nodes, edges = side_counts(truth, configs[mask])
            for name, stats in (("final model", getattr(model, f"{side}_stats")),
                                ("from-scratch fit", getattr(scratch, f"{side}_stats"))):
                check(stats.n == int(mask.sum())
                      and all(np.array_equal(a, b) for a, b in zip(stats.node_counts, nodes))
                      and all(np.array_equal(a, b) for a, b in zip(stats.edge_counts, edges)),
                      f"{name} {side}-side counts differ from an independent count")
            tables = getattr(model, side), getattr(scratch, side)
            check(all(np.array_equal(a, b) for a, b in zip(
                      (*tables[0].node_weights, *tables[0].edge_weights),
                      (*tables[1].node_weights, *tables[1].edge_weights))),
                  f"final model {side}-side factors differ from a from-scratch fit")

        space = truth.space()
        order = truth.space_index(configs)
        for t in sorted({1, budget // 4, budget // 2, budget}):
            seen = np.zeros(len(space), dtype=bool)
            seen[order[:boot + t - 1]] = True
            before = surrogate.fit(entries[:boot + t - 1], graph, self.config.smoothing)
            best = float(surrogate.expected_improvement_many(before, space[~seen]).max())
            chosen = float(surrogate.expected_improvement_many(
                before, configs[boot + t - 1:boot + t])[0])
            tolerance = 1e-12 * abs(best)
            check(abs(trace[t - 1].score - best) <= tolerance
                  and abs(chosen - best) <= tolerance,
                  f"step {t}: chosen score {trace[t - 1].score!r} is not the "
                  f"from-scratch maximum {best!r}")

    def report(self, passes):
        steps = [s for p in passes for s in p.steps_ms]
        return {
            "step_ms_p50": (statistics.median(steps), "ms"),
            "step_ms_p95": (statistics.quantiles(steps, n=20)[18], "ms"),
            "step_samples": (len(steps), "count"),
            "precision": (passes[0].quality["precision"], "ratio"),
        }


class ReplayEval(Workload):
    """load_dataset, then the sweep and split/train/rank protocols."""

    name = "replay-eval"
    BUILDS_COUNTED_BY = "dataset.DatasetOracle.evaluate"
    STRATEGIES = ("bayesian", "crowd", "random")
    SIZES = {
        "full": dict(packages=8, versions=3, rate=0.05, sizes=(20, 40, 60, 80, 100, 120),
                     reps=10, auprc_reps=10, selections=100, bootstrap=20),
        "smoke": dict(packages=6, versions=3, rate=0.1, sizes=(20, 40, 60),
                      reps=3, auprc_reps=2, selections=40, bootstrap=10),
    }

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed, size)
        truth = self.truth = self.planted_space()[2]
        # The dataset is written here, independently of the program's writer,
        # so that the workload times only the program's read path.
        self.data_path = self.path("data.jsonl")
        space = truth.space()
        with open(self.data_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"format": 1, "graph": "graph.json"}, sort_keys=True) + "\n")
            for config, built in zip(space.tolist(), truth.builds_many(space).tolist()):
                fh.write(json.dumps({"built": built, "versions": truth.labels(config)},
                                    sort_keys=True) + "\n")
        self.auprc_seeds = [rng.derive_seed(seed, "auprc", i)
                            for i in range(self.p["auprc_reps"])]

    def probe_setup(self) -> float:
        began = perf_counter()
        dataset.load_dataset(self.data_path)
        return perf_counter() - began

    def run_pass(self) -> Pass:
        p = self.p
        began = perf_counter()
        data = dataset.load_dataset(self.data_path)
        loaded = perf_counter()
        reports = metrics.sweep_experiment(data, self.STRATEGIES, p["sizes"], p["reps"],
                                           base_seed=self.seed, bootstrap_size=p["bootstrap"])
        values = [metrics.auprc_experiment(data, "bayesian", s, selections=p["selections"],
                                           bootstrap_size=p["bootstrap"])
                  for s in self.auprc_seeds]
        ended = perf_counter()

        sweep_runs = len(self.STRATEGIES) * p["reps"]
        last = {s: reports[s].mean_p[-1] for s in self.STRATEGIES}
        # Every replay run evaluates its bootstrap plus its budget, as
        # sampler.run promises for a dataset's candidates; the traced pass
        # checks this count against the replay oracle's calls.
        return Pass(
            wall_s=ended - began,
            setup_s=loaded - began,
            builds=sweep_runs * max(p["sizes"]) + len(values) * (p["bootstrap"] + p["selections"]),
            build_s=ended - loaded,
            outputs={
                "eval.json": _json_bytes([row for s in self.STRATEGIES for row in reports[s].rows()]),
                "auprc.json": _json_bytes(values),
            },
            quality={
                "precision": last["bayesian"],
                "precision_gain": last["bayesian"] / last["random"],
                "auprc_mean": statistics.fmean(values),
            },
            data=(data, reports, values),
        )

    def check(self, p: Pass, check: Checks) -> None:
        data, reports, values = p.data
        truth = self.truth
        configs = np.asarray([r.config for r in data.records], dtype=np.int64)
        outcomes = np.asarray([r.outcome for r in data.records], dtype=bool)
        size, good = truth.space_size(), truth.good_count()
        check(len(data) == size and data.good_count == good,
              f"loaded {len(data)} records with {data.good_count} good; "
              f"the rules predict {size} with {good}")
        check(np.array_equal(outcomes, truth.builds_many(configs)),
              "a loaded outcome differs from the planted rules")
        for strategy, report in reports.items():
            check(all(0.0 <= v <= 1.0 for v in (*report.mean_p, *report.mean_r)),
                  f"{strategy}: a precision or recall lies outside [0, 1]")
            check(all(a <= b for a, b in zip(report.mean_r, report.mean_r[1:])),
                  f"{strategy}: recall falls as the sample size grows")
        # A perfect ranking sums to one only up to floating-point rounding.
        check(all(0.0 < v <= 1.0 + 1e-12 for v in values), "an auprc lies outside (0, 1]")

    def report(self, passes):
        runs = len(self.STRATEGIES) * self.p["reps"] + self.p["auprc_reps"]
        runs_per_s = [runs / p.build_s for p in passes]
        return {
            "runs_per_s": (statistics.median(runs_per_s), "1/s"),
            "precision": (passes[0].quality["precision"], "ratio"),
            "precision_gain": (passes[0].quality["precision_gain"], "ratio"),
            "auprc_mean": (passes[0].quality["auprc_mean"], "ratio"),
        }


class Campaign(Workload):
    """gen-synthetic --emit-data, then simulate, through cli.dispatch."""

    name = "campaign"
    BUILDS_COUNTED_BY = "buildsim.dag_configs"
    SIZES = {
        "full": dict(packages=10, versions=3, rate=0.02, sample=60000, workers=8),
        "smoke": dict(packages=6, versions=3, rate=0.1, sample=200, workers=8),
    }

    def __init__(self, workdir, seed, size):
        super().__init__(workdir, seed, size)
        p = self.p
        self.files = {k: self.path(k) for k in ("graph.json", "rules.json", "data.jsonl", "sim.json")}
        self.gen_args = [
            "gen-synthetic", "--packages", str(p["packages"]), "--versions", str(p["versions"]),
            "--rule-density", str(RULE_DENSITY), "--target-rate", str(p["rate"]),
            "--seed", str(seed), "--out-graph", self.files["graph.json"],
            "--out-rules", self.files["rules.json"], "--emit-data", self.files["data.jsonl"],
        ]
        self.sim_args = [
            "simulate", "--graph", self.files["graph.json"], "--rules", self.files["rules.json"],
            "--sample", str(p["sample"]), "--workers", str(p["workers"]),
            "--latency", "lognormal", "--seed", str(seed), "--out", self.files["sim.json"],
        ]

    def _dispatch(self, args: list[str]) -> None:
        code = cli.dispatch(args)
        if code != 0:
            raise RuntimeError(f"buildtuner {args[0]} exited with code {code}")

    def probe_setup(self) -> float:
        began = perf_counter()
        self._dispatch(self.gen_args)
        return perf_counter() - began

    def run_pass(self) -> Pass:
        began = perf_counter()
        self._dispatch(self.gen_args)
        generated = perf_counter()
        self._dispatch(self.sim_args)
        ended = perf_counter()

        outputs = {name: _read(path) for name, path in self.files.items()}
        # Each sampled configuration is one request to the build farm.  The
        # units that resolve it depend on the seed's graph (their count varies
        # by a quarter across seeds), so units/s is a workload metric only.
        return Pass(
            wall_s=ended - began,
            setup_s=generated - began,
            builds=self.p["sample"],
            build_s=ended - generated,
            outputs=outputs,
            data=json.loads(outputs["sim.json"]),
        )

    def check(self, p: Pass, check: Checks) -> None:
        report = p.data
        truth = _truth_from_files(self.files["graph.json"], self.files["rules.json"])
        check(report["attempted"] + report["skipped"] == report["nodes"] == len(report["statuses"]),
              "attempted plus skipped units differ from the node count")
        check(report["succeeded"] + report["failed"] == report["attempted"],
              "succeeded plus failed units differ from the attempted count")

        # The CLI draws its sample from this named substream of --seed.
        graph = configspace.load_graph(self.files["graph.json"])
        draw = rng.substream(self.seed, "simulate-sample")
        sample = [configspace.random_configuration(graph, draw) for _ in range(self.p["sample"])]
        statuses = report["statuses"]
        wrong = 0
        for config in sample:
            status = statuses.get(truth.root_unit_digest(config))
            expected = ("succeeded",) if truth.builds(config) else ("failed", "skipped")
            wrong += status not in expected
        check(wrong == 0, f"{wrong} sampled configurations have a root-unit status "
                          f"that differs from their configuration outcome")

        lines = p.outputs["data.jsonl"].decode("utf-8").splitlines()
        header = json.loads(lines[0])
        graph_file = os.path.join(os.path.dirname(self.files["data.jsonl"]), str(header.get("graph")))
        check(header.get("format") == 1
              and os.path.abspath(graph_file) == os.path.abspath(self.files["graph.json"]),
              f"emitted dataset header {header!r} does not name the graph file")
        records = [json.loads(line) for line in lines[1:]]
        index = [{v: j for j, v in enumerate(vs)} for vs in truth.versions]
        configs = np.asarray([[index[i][r["versions"][n]] for i, n in enumerate(truth.names)]
                              for r in records], dtype=np.int64)
        built = np.asarray([r["built"] for r in records], dtype=bool)
        check(len(records) == truth.space_size()
              and len(np.unique(truth.space_index(configs))) == len(records),
              f"emitted dataset has {len(records)} records, not each of the "
              f"{truth.space_size()} configurations once")
        check(int(built.sum()) == truth.good_count()
              and np.array_equal(built, truth.builds_many(configs)),
              "an emitted outcome differs from the planted rules")

    def report(self, passes):
        units = passes[0].data["attempted"] + passes[0].data["skipped"]
        return {"units_per_s": (statistics.median(units / p.build_s for p in passes), "1/s")}


WORKLOADS = {w.name: w for w in (AdaptExhaustive, ReplayEval, Campaign)}
