"""Acceptance suite: one test per headline claim, each printing a PASS line.

Run with `pytest -v tests/test_acceptance.py` to get one pass/fail line per
criterion.  Heavy protocols are deterministic: benchmark generators, seeds,
and repetition counts are frozen, so measured margins cannot drift.
"""
from __future__ import annotations

import math
import time

import numpy as np
import pytest

from buildtuner import (
    BuildRecord,
    Dataset,
    DatasetOracle,
    DependencyGraph,
    NodeStatus,
    PlantedRuleSet,
    SamplerConfig,
    auprc,
    auprc_experiment,
    build_dag,
    config_digest,
    derive_seed,
    expected_improvement_many,
    fit,
    generate_benchmark,
    importance_ranking,
    js_divergence,
    random_configuration,
    run,
    save_dataset,
    save_graph,
    simulate,
    substream,
    sweep_experiment,
    validate_graph,
)
from buildtuner.buildsim import SyntheticOracle, enumerate_records, save_rules
from buildtuner.cli import dispatch
from helpers import all_configurations, chain_graph, diamond_graph


def _report(name: str, detail: str) -> None:
    print(f"PASS {name}: {detail}")


# 5 benchmark graphs, 6-10 packages, >= 500 configurations each, success
# rates spanning roughly 0.05-0.19 (verified below).
SUITE = (
    (6, 3, 0.05, 101),
    (7, 3, 0.10, 102),
    (8, (3, 2, 3, 2, 3, 2, 3, 2), 0.15, 103),
    (9, 2, 0.20, 104),
    (10, 2, 0.12, 105),
)


def _suite_datasets() -> list[Dataset]:
    datasets = []
    for n, domains, rate, seed in SUITE:
        graph, rules = generate_benchmark(
            n, list(domains) if isinstance(domains, tuple) else domains,
            rule_density=0.5, target_rate=rate, seed=seed,
        )
        dataset = Dataset(graph, enumerate_records(SyntheticOracle(graph, rules)))
        assert len(dataset) >= 500
        measured = dataset.good_count / len(dataset)
        assert 0.04 <= measured <= 0.20
        datasets.append(dataset)
    return datasets


def test_01_expected_improvement_matches_brute_force():
    """Vectors and gathers must agree with a from-scratch product of factors."""
    start = time.perf_counter()
    graph = chain_graph(3, 3)
    history = [
        BuildRecord((0, 0, 0), True), BuildRecord((0, 0, 1), True),
        BuildRecord((0, 1, 0), True), BuildRecord((1, 0, 0), True),
        BuildRecord((1, 1, 1), False), BuildRecord((2, 2, 2), False),
        BuildRecord((2, 1, 0), False), BuildRecord((1, 2, 0), False),
        BuildRecord((0, 2, 1), True), BuildRecord((2, 0, 2), False),
        BuildRecord((1, 1, 0), False), BuildRecord((0, 1, 2), True),
    ]
    assert len(history) == 12
    smoothing = 1.0
    good = [r for r in history if r.outcome]
    bad = [r for r in history if not r.outcome]

    def naive_density(side: list[BuildRecord], config) -> float:
        n = len(side)
        value = 1.0
        for i, v in enumerate(config):
            count = sum(1 for r in side if r.config[i] == v)
            k = len(graph.domains[i])
            value *= (count + smoothing) / (n + smoothing * k)
        for a, b in graph.edges:
            count = sum(
                1 for r in side
                if r.config[a] == config[a] and r.config[b] == config[b]
            )
            cells = len(graph.domains[a]) * len(graph.domains[b])
            value *= (count + smoothing) / (n + smoothing * cells)
        return value

    alpha = (len(good) + 1) / (len(history) + 2)
    model = fit(history, graph, smoothing=smoothing)
    worst = 0.0
    for config in all_configurations(graph):
        ratio = naive_density(bad, config) / naive_density(good, config)
        expected = 1.0 / (alpha + ratio * (1.0 - alpha))
        actual = expected_improvement_many(model, np.asarray([config]))[0]
        worst = max(worst, abs(actual - expected))
        assert actual == pytest.approx(expected, abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("expected-improvement exactness",
            f"max deviation {worst:.2e} over 27 configs in {elapsed:.2f}s")


def test_02_auprc_matches_brute_force():
    start = time.perf_counter()

    def brute_force(ranked):
        total_true = sum(1 for _, y in ranked if y)
        area = 0.0
        for k in range(1, len(ranked) + 1):
            if ranked[k - 1][1]:
                hits = sum(1 for _, y in ranked[:k] if y)
                area += (hits / k) / total_true
        return area

    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(50):
        n = int(rng.integers(1, 101))
        labels = rng.random(n) < 0.3
        if not labels.any():
            labels[int(rng.integers(n))] = True
        scores = np.sort(rng.random(n))[::-1]
        ranked = [(float(s), bool(y)) for s, y in zip(scores, labels)]
        delta = abs(auprc(scores, labels) - brute_force(ranked))
        worst = max(worst, delta)
        assert delta <= 1e-12
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("ranking-area exactness",
            f"max deviation {worst:.2e} over 50 lists in {elapsed:.2f}s")


def test_03_js_divergence_properties():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    bound = math.log(2)
    for _ in range(1000):
        n = int(rng.integers(2, 10))
        p = rng.dirichlet(np.ones(n))
        q = rng.dirichlet(np.ones(n))
        forward = js_divergence(p, q)
        backward = js_divergence(q, p)
        assert abs(forward - backward) <= 1e-12
        assert forward >= 0.0
        assert forward <= bound + 1e-12
        assert js_divergence(p, p) <= 1e-12
        if forward <= 1e-12:
            np.testing.assert_allclose(p, q, atol=1e-6)
    assert abs(js_divergence([1.0, 0.0], [0.0, 1.0]) - bound) <= 1e-12
    assert js_divergence([0.5, 0.5], [0.9, 0.1]) == pytest.approx(
        0.10174922507919676, abs=1e-12
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("divergence properties",
            f"1000 random pairs plus the disjoint bound in {elapsed:.2f}s")


def test_04_adaptive_precision_beats_random():
    """Mean precision at 100 samples, 10 seeds, 5 graphs: >= 2x random."""
    start = time.perf_counter()
    datasets = _suite_datasets()
    per_strategy = {"bayesian": [], "random": []}
    for dataset in datasets:
        reports = sweep_experiment(
            dataset, ("bayesian", "random"), (100,), repetitions=10,
            base_seed=4242,
        )
        for strategy, values in per_strategy.items():
            values.append(reports[strategy].mean_p[0])
    bayes = float(np.mean(per_strategy["bayesian"]))
    rand = float(np.mean(per_strategy["random"]))
    ratio = bayes / rand
    assert ratio >= 2.0
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("directional precision",
            f"adaptive {bayes:.4f} vs random {rand:.4f} = {ratio:.2f}x "
            f"in {elapsed:.1f}s")


def test_05_adaptive_reaches_full_recall_faster():
    """Samples to find every good config: adaptive <= 0.6x random, 10 seeds."""
    start = time.perf_counter()
    graph, rules = generate_benchmark(
        4, [5, 5, 4, 2], rule_density=0.5, target_rate=0.15, seed=77
    )
    dataset = Dataset(graph, enumerate_records(SyntheticOracle(graph, rules)))
    assert len(dataset) == 200
    total_good = dataset.good_count
    assert 20 <= total_good <= 40  # 10-20% of the space

    def samples_to_full_recall(strategy: str, seed: int) -> int:
        cfg = SamplerConfig(strategy=strategy, bootstrap_size=20,
                            budget=len(dataset) - 20, seed=seed)
        result = run(DatasetOracle(dataset), graph, cfg)
        found = 0
        for i, record in enumerate(result.history, start=1):
            if record.outcome:
                found += 1
                if found == total_good:
                    return i
        raise AssertionError("history never reached full recall")

    means = {}
    for strategy in ("bayesian", "random"):
        counts = [
            samples_to_full_recall(strategy, derive_seed(4242, "rep", r))
            for r in range(10)
        ]
        means[strategy] = float(np.mean(counts))
    ratio = means["bayesian"] / means["random"]
    assert ratio <= 0.6
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _report("directional recall",
            f"adaptive {means['bayesian']:.1f} vs random {means['random']:.1f} "
            f"samples = {ratio:.2f}x in {elapsed:.1f}s")


def test_06_strategy_ordering_by_ranking_quality():
    """Mean split/train/rank area: bayesian >= crowd >= random (0.02 slack)."""
    start = time.perf_counter()
    datasets = _suite_datasets()
    means = {}
    for strategy in ("bayesian", "crowd", "random"):
        values = [
            auprc_experiment(dataset, strategy,
                             seed=derive_seed(4242, "auprc", rep),
                             selections=100, bootstrap_size=20)
            for dataset in datasets
            for rep in range(10)
        ]
        means[strategy] = float(np.mean(values))
    assert means["bayesian"] - means["crowd"] >= -0.02
    assert means["crowd"] - means["random"] >= -0.02
    assert means["bayesian"] - means["random"] >= 0.05
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _report("strategy ordering",
            f"bayesian {means['bayesian']:.4f} >= crowd {means['crowd']:.4f} "
            f">= random {means['random']:.4f} in {elapsed:.1f}s")


def test_07_random_strategy_tracks_true_rate():
    """Random precision stays within 3 sigma of the space's success rate."""
    start = time.perf_counter()
    graph, rules = generate_benchmark(6, 3, rule_density=0.5, target_rate=0.15,
                                      seed=55)
    dataset = Dataset(graph, enumerate_records(SyntheticOracle(graph, rules)))
    rate = dataset.good_count / len(dataset)
    sizes = (20, 40, 60, 80, 100)
    repetitions = 10
    report = sweep_experiment(dataset, ("random",), sizes,
                              repetitions=repetitions, base_seed=4242)["random"]
    worst_z = 0.0
    for j, size in enumerate(sizes):
        sigma = math.sqrt(rate * (1 - rate) / size) / math.sqrt(repetitions)
        z = abs(report.mean_p[j] - rate) / sigma
        worst_z = max(worst_z, z)
        assert z <= 3.0, f"size {size}: mean {report.mean_p[j]} vs rate {rate}"
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("random baseline sanity",
            f"max z {worst_z:.2f} across sizes {sizes} in {elapsed:.1f}s")


def test_08_simulation_accounting_and_makespan():
    start = time.perf_counter()
    # Accounting identity on a merged multi-config DAG with failures.
    graph = chain_graph(4, 2)
    dag = build_dag(list(all_configurations(graph)), graph)
    report = simulate(dag, dag.version == 0, workers=3)
    assert report.attempted + report.skipped == dag.node_count
    assert report.attempted == report.succeeded + report.failed

    # Failure propagation closure: everything downstream of the failure and
    # nothing else is skipped.
    chain = chain_graph(3, 2)
    chain_dag = build_dag([(0, 0, 0)], chain)
    chain_report = simulate(chain_dag, chain_dag.package != chain.index_of("B"))
    by_package = {
        chain.packages[p]: list(NodeStatus)[code]
        for code, p in zip(chain_report.codes.tolist(), chain_dag.package.tolist())
    }
    assert by_package == {
        "C": NodeStatus.SUCCEEDED,
        "B": NodeStatus.FAILED,
        "A": NodeStatus.SKIPPED,
    }
    assert chain_report.attempted == 2

    # Diamond with two workers: leaf, then both middles in parallel, then root.
    diamond = build_dag([(0, 0, 0, 0)], diamond_graph())
    makespan = simulate(diamond, [True] * diamond.node_count, workers=2).makespan
    assert makespan == pytest.approx(3.0, abs=1e-12)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report("simulation accounting",
            f"identity, propagation closure, diamond makespan 3.0 "
            f"in {elapsed:.2f}s")


def test_09_importance_recovers_planted_pair():
    """The edge carrying one planted rule ranks top-2 in >= 9 of 10 seeds."""
    start = time.perf_counter()
    names = ("root",) + tuple(f"dep{i:02d}" for i in range(1, 7))
    graph = DependencyGraph(
        packages=names,
        domains=tuple(("v1", "v2", "v3") for _ in names),
        edges=((0, 1), (0, 2), (1, 3), (1, 4), (2, 5), (2, 6)),
        root=0,
    )
    validate_graph(graph)
    # Planted: dep01=v2 together with dep04=v1 fails.
    hits = 0
    for rep in range(10):
        rng = substream(derive_seed(777, "imp", rep), "records")
        seen: set[str] = set()
        records = []
        while len(records) < 400:
            config = random_configuration(graph, rng)
            digest = config_digest(graph, config)
            if digest in seen:
                continue
            seen.add(digest)
            good = not (config[1] == 1 and config[4] == 0)
            records.append(BuildRecord(config, good))
        top2 = [e.target for e in importance_ranking(fit(records, graph), top_k=2)]
        if "dep01+dep04" in top2:
            hits += 1
    assert hits >= 9
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report("importance recovery",
            f"planted edge in top-2 for {hits}/10 seeds in {elapsed:.1f}s")


def test_10_cli_outputs_are_byte_identical(tmp_path, capsys):
    """Every subcommand, run twice with the same inputs, emits equal bytes."""
    graph = chain_graph(3, 3)
    rules = PlantedRuleSet(forbidden=frozenset({("A", "v1", "B", "v2")}))
    dataset = Dataset(graph, enumerate_records(SyntheticOracle(graph, rules)))
    save_graph(graph, str(tmp_path / "graph.json"))
    save_rules(rules, str(tmp_path / "rules.json"))
    save_dataset(dataset, str(tmp_path / "data.jsonl"), "graph.json")
    data, graph_file = str(tmp_path / "data.jsonl"), str(tmp_path / "graph.json")
    rules_file = str(tmp_path / "rules.json")

    def outputs_of(tag: str) -> dict[str, bytes]:
        base = tmp_path / tag
        base.mkdir()
        collected: dict[str, bytes] = {}

        def record_stdout(name: str, argv: list[str]) -> None:
            assert dispatch(argv) == 0, f"{name} failed"
            collected[name] = capsys.readouterr().out.encode()

        record_stdout("run", [
            "run", "--oracle", f"dataset:{data}", "--bootstrap", "5",
            "--budget", "6", "--seed", "3",
            "--model-out", str(base / "model.json"),
        ])
        collected["run/model"] = (base / "model.json").read_bytes()
        record_stdout("eval", [
            "eval", "--data", data, "--strategies", "bayesian,random",
            "--sizes", "5,10", "--reps", "2", "--bootstrap", "5", "--seed", "4",
        ])
        record_stdout("auprc", [
            "auprc", "--data", data, "--reps", "2", "--selections", "4",
            "--bootstrap", "4", "--seed", "6",
        ])
        record_stdout("importance", ["importance", "--data", data])
        heat = base / "heat"
        assert dispatch(["heatmap", "--data", data, "--threshold", "0.6",
                         "--out-dir", str(heat)]) == 0
        capsys.readouterr()
        for path in sorted(heat.iterdir()):
            collected[f"heatmap/{path.name}"] = path.read_bytes()
        record_stdout("simulate", [
            "simulate", "--graph", graph_file, "--rules", rules_file,
            "--sample", "5", "--workers", "2", "--latency", "lognormal",
            "--seed", "5",
        ])
        assert dispatch([
            "gen-synthetic", "--packages", "4", "--versions", "2",
            "--target-rate", "0.5", "--rule-density", "0.5", "--seed", "9",
            "--out-graph", str(base / "g.json"),
            "--out-rules", str(base / "r.json"),
            "--emit-data", str(base / "d.jsonl"),
        ]) == 0
        capsys.readouterr()
        for name in ("g.json", "r.json", "d.jsonl"):
            collected[f"gen-synthetic/{name}"] = (base / name).read_bytes()
        record_stdout("summary", ["summary", "--data", data, "--format", "json"])
        return collected

    first = outputs_of("first")
    second = outputs_of("second")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    _report("deterministic interface",
            f"{len(first)} captured outputs byte-identical across re-runs")
