"""Adaptive sampling loop: bootstrap, selection, trace, pool mode."""
from __future__ import annotations

import json
import math
import sys
import tracemalloc
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buildtuner import (
    BuildRecord,
    Dataset,
    DatasetOracle,
    NoCandidatesError,
    ObservationHistory,
    PlantedRuleSet,
    SamplerConfig,
    config_digest,
    crowd_score_many,
    expected_improvement_many,
    fit,
    generate_benchmark,
    run,
    substream,
)
from buildtuner import configspace, sampler, surrogate
from buildtuner.buildsim import SyntheticOracle, enumerate_records
from buildtuner.configspace import (
    GraphError,
    check_rows,
    first_occurrences,
    full_space_matrix,
    random_configurations,
)
from buildtuner.sampler import TraceEntry
from buildtuner.surrogate import FactorModel, RatioIndex, refit_incremental, selection_scores
from helpers import (all_configurations, chain_graph, distinct_records, log_density_many,
                     two_package_graph, wide_graph)


class CountingOracle:
    """Generative oracle with a configurable outcome rule and call log."""

    def __init__(self, outcome_fn):
        self.outcome_fn = outcome_fn
        self.calls = []

    def candidate_configurations(self):
        return None

    def evaluate(self, config):
        self.calls.append(tuple(config))
        return bool(self.outcome_fn(config))


class ListedOracle(CountingOracle):
    """Oracle with a fixed candidate list, which may repeat configurations."""

    def __init__(self, candidates, outcome_fn=lambda c: True):
        super().__init__(outcome_fn)
        self.candidates = candidates

    def candidate_configurations(self):
        return self.candidates


class FailingOracle(CountingOracle):
    def __init__(self, fail_after):
        super().__init__(lambda c: True)
        self.fail_after = fail_after

    def evaluate(self, config):
        if len(self.calls) >= self.fail_after:
            raise OSError("build host went away")
        return super().evaluate(config)


class TestSamplerConfig:
    def test_defaults(self):
        config = SamplerConfig()
        assert config.strategy == "bayesian"
        assert config.bootstrap_size == 20
        assert config.budget == 100
        assert config.candidate_mode == "exhaustive"
        assert config.seed == 42

    @pytest.mark.parametrize(
        "kwargs, match",
        [
            ({"strategy": "greedy"}, "unknown strategy"),
            ({"candidate_mode": "lazy"}, "unknown candidate mode"),
            ({"bootstrap_size": 0}, "bootstrap_size"),
            ({"budget": -1}, "budget"),
            ({"pool_size": 0}, "pool_size"),
            ({"smoothing": 0.0}, "smoothing must be finite and positive"),
            ({"smoothing": math.nan}, "smoothing must be finite and positive"),
            ({"smoothing": -1.0}, "smoothing must be finite and positive"),
        ],
    )
    def test_validation(self, kwargs, match):
        with pytest.raises(ValueError, match=match):
            SamplerConfig(**kwargs)

    @pytest.mark.parametrize("smoothing", [0.0, math.nan, -1.0])
    def test_bad_smoothing_is_rejected_before_any_build(self, smoothing):
        """The config refuses it, so no bootstrap build runs before a fit could."""
        oracle = CountingOracle(lambda c: True)
        with pytest.raises(ValueError, match="smoothing must be finite and positive"):
            run(oracle, chain_graph(3, 3), replace(SamplerConfig(), smoothing=smoothing))
        assert oracle.calls == []


class TestHistory:
    def test_duplicate_rejected(self):
        graph = two_package_graph()
        history = ObservationHistory(graph)
        history.add(np.array([0, 0]), True)
        with pytest.raises(ValueError, match="already evaluated"):
            history.add(np.array([0, 0]), False)

    def test_counts_and_iteration(self):
        graph = two_package_graph()
        history = ObservationHistory(graph)
        history.add(np.array([0, 0]), True)
        history.add(np.array([0, 1]), False)
        history.add(np.array([1, 0]), True)
        assert len(history) == 3
        assert history.good_count == 2
        assert [r.outcome for r in history] == [True, False, True]
        assert len(set(history.digests)) == 3
        assert history.entries == tuple(history.dataset.records)
        assert history.dataset.rows.tolist() == [[0, 0], [0, 1], [1, 0]]
        assert np.array([1, 0]) in history and np.array([1, 1]) not in history

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_property_unseen_matches_the_tuple_filter(self, data):
        """The pool's byte-key filter keeps the rows, in draw order, that the
        dict.fromkeys filter over tuples kept."""
        graph = chain_graph(data.draw(st.integers(1, 4)), data.draw(st.integers(1, 3)))
        config = st.tuples(*(st.integers(0, m - 1) for m in graph.domain_sizes))
        drawn = data.draw(st.lists(config, min_size=1, max_size=40))
        # Repeats of drawn rows, and evaluated rows both drawn and not drawn.
        drawn += data.draw(st.lists(st.sampled_from(drawn), max_size=10))
        evaluated = data.draw(st.lists(st.one_of(st.sampled_from(drawn), config),
                                       max_size=12, unique=True))
        history = ObservationHistory(graph)
        for row in evaluated:
            history.add(np.array(row), True)
        matrix = np.array(drawn, dtype=np.int64)
        fresh = history.unseen(matrix)
        expected = [c for c in dict.fromkeys(map(tuple, matrix.tolist())) if c not in history]
        assert fresh.dtype == np.int64 and fresh.shape == (len(expected), graph.n_packages)
        assert list(map(tuple, fresh.tolist())) == expected

    def test_one_row_key_equals_the_matrix_key(self):
        """add and __contains__ key one row by its bytes, unseen keys a matrix
        through a void view: the keys agree for rows from every candidate
        source, whatever their dtype and layout."""
        graph = chain_graph(3, 3)
        records = distinct_records(graph, 12, np.random.default_rng(2), lambda c: True)
        history = ObservationHistory(graph)
        history.add(np.array([2, 2, 2]), True)
        draws = substream(5, "pool")
        sources = {
            "dataset": Dataset(graph, records).rows,
            "listed": check_rows(graph, [r.config for r in records]),
            "exhaustive": full_space_matrix(graph).astype(np.int64),
            "full space int32": full_space_matrix(graph),
            "bootstrap draws": np.array(
                [random_configurations(graph, draws, 1)[0] for _ in range(8)]),
            "pool": history.unseen(np.column_stack([draws.integers(m, size=30)
                                                    for m in graph.domain_sizes])),
            "column view": full_space_matrix(graph).astype(np.int64)[:, ::-1],
        }
        for name, rows in sources.items():
            assert configspace._row_keys(rows) == [configspace._row_key(row) for row in rows], name
            for row in rows:
                assert (row in history) == (tuple(row.tolist()) == (2, 2, 2)), name


def _bootstrap(oracle, graph, config):
    """The bootstrap history of run: the run with no selections."""
    return run(oracle, graph, replace(config, budget=0)).history


class TestBootstrap:
    def test_size_and_distinctness(self):
        graph = chain_graph(3, 3)
        oracle = CountingOracle(lambda c: True)
        config = SamplerConfig(bootstrap_size=10, seed=1)
        history = _bootstrap(oracle, graph, config)
        assert len(history) == 10
        assert len(set(history.digests)) == 10
        assert len(oracle.calls) == 10

    def test_deterministic_for_seed(self):
        graph = chain_graph(3, 3)
        config = SamplerConfig(bootstrap_size=8, seed=5)
        a = _bootstrap(CountingOracle(lambda c: True), graph, config)
        b = _bootstrap(CountingOracle(lambda c: True), graph, config)
        assert a.digests == b.digests

    def test_whole_space_when_equal(self):
        graph = two_package_graph()
        config = SamplerConfig(bootstrap_size=4, seed=2)
        history = _bootstrap(CountingOracle(lambda c: True), graph, config)
        assert sorted(r.config for r in history) == sorted(
            all_configurations(graph)
        )

    def test_space_too_small(self):
        graph = two_package_graph()
        config = SamplerConfig(bootstrap_size=5, seed=3)
        with pytest.raises(NoCandidatesError, match="cannot seed"):
            _bootstrap(CountingOracle(lambda c: True), graph, config)

    def test_repeated_candidates_count_once(self):
        graph = two_package_graph()
        oracle = ListedOracle([(0, 0), (1, 1), (0, 0), (1, 1), (0, 0)])
        config = SamplerConfig(bootstrap_size=3, seed=3)
        with pytest.raises(NoCandidatesError, match="cannot seed"):
            _bootstrap(oracle, graph, config)
        assert oracle.calls == []

    @pytest.mark.parametrize("listed", [
        [(0, 0), (0, 2)], [(0, 0), (0, -1)], [(0, 0, 0), (1, 1, 1)],
    ])
    def test_candidates_outside_the_graph_rejected(self, listed):
        oracle = ListedOracle(listed)
        config = SamplerConfig(bootstrap_size=1, seed=3)
        with pytest.raises(GraphError):
            _bootstrap(oracle, two_package_graph(), config)

    def test_candidate_list_too_small(self):
        graph = two_package_graph()
        dataset = Dataset(graph, [BuildRecord((0, 0), True), BuildRecord((1, 1), True)])
        config = SamplerConfig(bootstrap_size=3, seed=3)
        with pytest.raises(NoCandidatesError):
            _bootstrap(DatasetOracle(dataset), graph, config)


class TestRun:
    def test_history_and_trace_sizes(self):
        graph = chain_graph(3, 3)
        oracle = CountingOracle(lambda c: c[0] == 0)
        config = SamplerConfig(bootstrap_size=5, budget=7, seed=3)
        result = run(oracle, graph, config)
        assert len(result.history) == 12
        assert len(result.trace) == 7
        assert [entry.t for entry in result.trace] == list(range(1, 8))

    def test_trace_is_digested_on_first_read(self, monkeypatch):
        """A run digests nothing and computes no score until its trace (or
        its scores) is read, and then once."""
        digested, scored = [], []

        def counted(graph, config):
            digested.append(config)
            return config_digest(graph, config)

        def counted_scores(*args):
            scored.append(args)
            return selection_scores(*args)

        monkeypatch.setattr(sampler, "_digest", counted)
        monkeypatch.setattr(sampler, "selection_scores", counted_scores)
        graph = chain_graph(3, 3)
        config = SamplerConfig(bootstrap_size=5, budget=7, seed=3)
        result = run(CountingOracle(lambda c: c[0] == 0), graph, config)
        assert digested == [] and scored == []
        trace = result.trace
        selected = [record.config for record in result.history.entries[5:]]
        assert digested == selected
        assert [entry.digest for entry in trace] == [config_digest(graph, c) for c in selected]
        assert [entry.built for entry in trace] == [r.outcome for r in result.history.entries[5:]]
        assert [entry.score for entry in trace] == list(result.scores)
        assert result.trace is trace and len(digested) == 7
        assert result.scores is result.scores and len(scored) == 1

    def test_zero_budget(self):
        graph = chain_graph(3, 3)
        config = SamplerConfig(bootstrap_size=4, budget=0, seed=1)
        result = run(CountingOracle(lambda c: True), graph, config)
        assert len(result.history) == 4
        assert result.trace == ()

    def test_exhausts_space_gracefully(self):
        graph = two_package_graph()
        config = SamplerConfig(bootstrap_size=2, budget=50, seed=5)
        result = run(CountingOracle(lambda c: True), graph, config)
        assert len(result.history) == 4
        assert sorted(r.config for r in result.history) == sorted(
            all_configurations(graph)
        )

    def test_no_duplicate_evaluations(self):
        graph = chain_graph(3, 2)
        oracle = CountingOracle(lambda c: c != (0, 0, 0))
        config = SamplerConfig(bootstrap_size=3, budget=5, seed=11)
        result = run(oracle, graph, config)
        assert len(set(result.history.digests)) == len(result.history)
        assert len(oracle.calls) == len(set(map(tuple, oracle.calls)))

    def test_deterministic(self):
        graph = chain_graph(4, 2)
        config = SamplerConfig(bootstrap_size=4, budget=6, seed=21)
        a = run(CountingOracle(lambda c: sum(c) % 2 == 0), graph, config)
        b = run(CountingOracle(lambda c: sum(c) % 2 == 0), graph, config)
        assert a.history.digests == b.history.digests
        assert a.trace == b.trace

    def test_trace_scores_null_only_for_random(self):
        graph = chain_graph(3, 2)
        for strategy, expect_none in (("bayesian", False), ("crowd", False),
                                      ("random", True)):
            config = SamplerConfig(strategy=strategy, bootstrap_size=3, budget=4,
                                   seed=2)
            result = run(CountingOracle(lambda c: c[0] == 0), graph, config)
            for entry in result.trace:
                assert (entry.score is None) is expect_none

    @pytest.mark.parametrize("fail_after, match", [
        (5, "failed at iteration 2"),
        (2, "failed at bootstrap draw 3"),
    ], ids=["iteration", "bootstrap"])
    def test_oracle_failure_reports_iteration(self, fail_after, match):
        graph = chain_graph(3, 2)
        oracle = FailingOracle(fail_after=fail_after)
        config = SamplerConfig(bootstrap_size=4, budget=4, seed=9)
        with pytest.raises(RuntimeError, match=match):
            run(oracle, graph, config)

    @pytest.mark.parametrize("answer", ["false", 1, None], ids=["string", "int", "none"])
    def test_oracle_answer_not_a_bool_rejected(self, answer):
        oracle = CountingOracle(lambda c: True)
        oracle.evaluate = lambda config: answer
        config = SamplerConfig(bootstrap_size=4, budget=4, seed=9)
        with pytest.raises(RuntimeError, match="failed at bootstrap draw 1: answered"):
            run(oracle, chain_graph(3, 2), config)

    def test_numpy_bool_answer_recorded_as_bool(self):
        oracle = CountingOracle(lambda c: True)
        oracle.evaluate = lambda config: np.True_
        result = run(oracle, chain_graph(3, 2), SamplerConfig(bootstrap_size=4, budget=4, seed=9))
        assert all(type(record.outcome) is bool for record in result.history)
        assert json.loads(json.dumps([entry.to_dict() for entry in result.trace]))

    def test_model_matches_final_history(self):
        graph = chain_graph(3, 2)
        config = SamplerConfig(bootstrap_size=3, budget=3, seed=13)
        result = run(CountingOracle(lambda c: c[1] == 1), graph, config)
        rebuilt = fit(list(result.history), graph, config.smoothing)
        for a, b in zip(result.model.good.node_weights, rebuilt.good.node_weights):
            np.testing.assert_array_equal(a, b)
        assert result.model.success_prior == rebuilt.success_prior

    def test_always_good_oracle_perfect_precision(self):
        graph = chain_graph(3, 3)
        config = SamplerConfig(bootstrap_size=5, budget=10, seed=4)
        result = run(CountingOracle(lambda c: True), graph, config)
        assert result.history.good_count == len(result.history)

    def test_random_run_is_sampling_without_replacement(self):
        """Adaptive random picks must be uniform over the remaining space."""
        graph = chain_graph(3, 2)  # 8 configurations
        hits = Counter()
        trials = 1000
        for seed in range(trials):
            config = SamplerConfig(strategy="random", bootstrap_size=1, budget=2,
                                   seed=seed)
            result = run(CountingOracle(lambda c: True), graph, config)
            assert len(result.history) == 3
            for record in result.history:
                hits[record.config] += 1
        # Each config appears in a 3-of-8 draw with probability 3/8.
        expected = 3 / 8
        sigma = (expected * (1 - expected) / trials) ** 0.5
        for config_key in all_configurations(graph):
            assert abs(hits[config_key] / trials - expected) < 4 * sigma

    @pytest.mark.parametrize("strategy", ["bayesian", "crowd", "random"])
    def test_repeated_candidates_never_evaluated_twice(self, strategy):
        graph = chain_graph(3, 2)
        listed = [c for c in all_configurations(graph) for _ in range(3)]
        oracle = ListedOracle(listed[::-1], lambda c: c[0] == 0)
        config = SamplerConfig(strategy=strategy, bootstrap_size=3, budget=20, seed=12)
        result = run(oracle, graph, config)
        assert len(oracle.calls) == len(set(oracle.calls)) == 8
        assert sorted(r.config for r in result.history) == sorted(
            all_configurations(graph)
        )

    def test_dataset_oracle_replay(self):
        graph = chain_graph(3, 3)
        rng = np.random.default_rng(6)
        records = distinct_records(graph, 15, rng, lambda c: c[0] == 0)
        dataset = Dataset(graph, records)
        config = SamplerConfig(bootstrap_size=5, budget=10, seed=8)
        result = run(DatasetOracle(dataset), graph, config)
        assert len(result.history) == 15
        by_digest = {config_digest(graph, r.config): r.outcome for r in dataset}
        assert set(result.history.digests) == set(by_digest)
        for digest, record in zip(result.history.digests, result.history):
            assert record.outcome == by_digest[digest]

    @staticmethod
    def _first_pick_shares(graph, space, strategy, runs):
        """Share of runs whose first selection takes each place among the
        rows that a one-record bootstrap leaves open, in listed order."""
        counts = Counter()
        for seed in range(runs):
            config = SamplerConfig(strategy=strategy, bootstrap_size=1, budget=1, seed=seed)
            result = run(ListedOracle(space, lambda c: False), graph, config)
            first, chosen = (record.config for record in result.history)
            counts[[c for c in space if c != first].index(chosen)] += 1
        return [counts[k] / runs for k in range(len(space) - 1)]

    def test_three_way_tie_is_uniform(self):
        """After one failed diagonal record the other three share no factor
        cell with it, so they score exactly alike."""
        graph = chain_graph(2, 4)
        space = [(v, v) for v in range(4)]
        model = fit([BuildRecord(space[0], False)], graph)
        assert len(set(expected_improvement_many(model, np.asarray(space[1:])))) == 1
        for share in self._first_pick_shares(graph, space, "bayesian", 3000):
            assert abs(share - 1 / 3) < 0.05

    def test_random_strategy_uniform(self):
        graph = chain_graph(1, 5)
        space = [(v,) for v in range(5)]
        for share in self._first_pick_shares(graph, space, "random", 4000):
            assert abs(share - 0.25) < 0.05

    def test_dataset_candidates_are_its_rows(self):
        """A replay oracle, even behind a delegating one, hands run the
        dataset's checked rows without a copy."""

        class Delegating:
            def __init__(self, inner):
                self.inner = inner

            def candidate_configurations(self):
                return self.inner.candidate_configurations()

            def evaluate(self, config):
                return self.inner.evaluate(config)

        graph = chain_graph(3, 3)
        dataset = Dataset(graph, distinct_records(graph, 15, np.random.default_rng(6),
                                                  lambda c: c[0] == 0))
        rows = sampler._candidate_rows(Delegating(DatasetOracle(dataset)), graph,
                                       SamplerConfig())
        assert np.shares_memory(rows, dataset.rows)

    def test_dataset_over_another_graph_rejected(self):
        dataset = Dataset(chain_graph(2, 3), [BuildRecord((0, 0), True)])
        with pytest.raises(GraphError, match="another graph"):
            run(DatasetOracle(dataset), chain_graph(2, 2), SamplerConfig(bootstrap_size=1))

    @pytest.mark.parametrize("kind", ["dataset", "list"])
    def test_listed_candidates_refuse_pool_mode(self, kind):
        """Pool draws would ignore the listed candidates, so run refuses
        before the oracle is asked anything."""
        graph = chain_graph(3, 3)
        records = distinct_records(graph, 15, np.random.default_rng(6), lambda c: c[0] == 0)
        oracle = ListedOracle(Dataset(graph, records) if kind == "dataset"
                              else [r.config for r in records])
        config = SamplerConfig(candidate_mode="pool", pool_size=2, bootstrap_size=2, budget=2)
        with pytest.raises(ValueError, match="pool mode"):
            run(oracle, graph, config)
        assert oracle.calls == []

    @pytest.mark.parametrize("entry", [1.5, np.float64(1.0), "a", None])
    def test_non_integer_candidate_rejected(self, entry):
        oracle = ListedOracle([(0, 0), (0, entry)])
        with pytest.raises(GraphError, match="not an integer"):
            run(oracle, two_package_graph(), SamplerConfig(bootstrap_size=1, budget=1))
        assert oracle.calls == []


class TestPoolMode:
    # 2^25 configurations, and 2^71, beyond any 64-bit index.
    @pytest.mark.parametrize("n_deps", [24, 70])
    def test_runs_on_large_space(self, n_deps):
        graph = wide_graph(n_deps, versions=2)
        config = SamplerConfig(candidate_mode="pool", pool_size=50,
                               bootstrap_size=5, budget=5, seed=17)
        result = run(CountingOracle(lambda c: c[0] == 0), graph, config)
        assert len(result.history) == 10
        assert len(set(result.history.digests)) == 10

    def test_exhaustive_refuses_large_space(self):
        graph = wide_graph(24, versions=2)
        config = SamplerConfig(candidate_mode="exhaustive", bootstrap_size=5,
                               budget=5, seed=17)
        with pytest.raises(GraphError, match="exhaustive limit"):
            run(CountingOracle(lambda c: True), graph, config)

    def test_pool_deterministic(self):
        graph = wide_graph(10, versions=2)
        config = SamplerConfig(candidate_mode="pool", pool_size=30,
                               bootstrap_size=4, budget=6, seed=23)
        a = run(CountingOracle(lambda c: c[1] == 1), graph, config)
        b = run(CountingOracle(lambda c: c[1] == 1), graph, config)
        assert a.history.digests == b.history.digests

    def test_tiny_space_pool_terminates(self):
        graph = two_package_graph()
        config = SamplerConfig(candidate_mode="pool", pool_size=16,
                               bootstrap_size=2, budget=50, seed=3)
        result = run(CountingOracle(lambda c: True), graph, config)
        # The pool redraw loop gives up once the space is exhausted.
        assert len(result.history) == 4


@pytest.fixture()
def checks(monkeypatch):
    """Count check_configuration calls, wherever buildtuner binds it."""
    calls = []
    original = configspace.check_configuration

    def counted(graph, config):
        calls.append(tuple(config))
        return original(graph, config)

    for name, module in list(sys.modules.items()):
        if name == "buildtuner" or name.startswith("buildtuner."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return calls


@pytest.mark.parametrize("strategy", ["bayesian", "crowd", "random"])
@pytest.mark.parametrize("mode", ["exhaustive", "pool", "replay", "noisy"])
def test_each_evaluated_configuration_is_checked_once(checks, mode, strategy):
    """By the oracle alone: the history, the fit and the refits check nothing,
    nor do the digests of the trace and the history.  A noisy oracle hashes
    the configuration it has checked without a second check."""
    graph, oracle = {"replay": _listed, "noisy": _noisy}.get(mode, _planted)(7)
    config = SamplerConfig(strategy=strategy, bootstrap_size=10, budget=40, seed=7,
                           candidate_mode="pool" if mode == "pool" else "exhaustive",
                           pool_size=50)
    checks.clear()
    result = run(oracle, graph, config)
    assert len(checks) == len(result.history) == 50
    assert checks == [r.config for r in result.history]
    assert len(result.trace) == 40 and len(result.history.digests) == 50
    assert len(checks) == len(result.history)


def test_noisy_outcomes_check_nothing(checks):
    """outcomes hashes rows it takes as checked, and agrees with evaluate."""
    graph, oracle = _noisy(7)
    rows = full_space_matrix(graph).astype(np.int64)
    built = oracle.outcomes(rows)
    assert not checks
    assert built.tolist() == [oracle.evaluate(c) for c in map(tuple, rows.tolist())]


def test_digest_bookkeeping_matches_configspace():
    graph = chain_graph(3, 2)
    config = SamplerConfig(bootstrap_size=3, budget=2, seed=31)
    result = run(CountingOracle(lambda c: True), graph, config)
    for digest, record in zip(result.history.digests, result.history):
        assert digest == config_digest(graph, record.config)


def _reference_run(oracle, graph, config):
    """The from-scratch loop over fixed rows that run's selection replaced:
    every step scores all open rows, rows[offered], with the strategy's score.

    Returns the history, the trace, the final model, and the size of each
    step's set of tied maxima.
    """
    rng_boot = substream(config.seed, "bootstrap")
    rng_tie = substream(config.seed, "tie-break")
    listed = oracle.candidate_configurations()
    if isinstance(listed, Dataset):
        rows = np.asarray([record.config for record in listed.records], dtype=np.int64)
    elif listed is not None:
        rows = np.asarray(list(dict.fromkeys(map(tuple, listed))), dtype=np.int64)
    else:
        rows = full_space_matrix(graph).astype(np.int64)
    open_rows = np.ones(rows.shape[0], dtype=bool)
    history = ObservationHistory(graph)
    while len(history) < config.bootstrap_size:
        index = int(rng_boot.integers(rows.shape[0]))
        open_rows[index] = False
        row = rows[index]
        if row not in history:
            history.add(row, oracle.evaluate(tuple(row.tolist())))
    model = fit(history, graph, config.smoothing)
    trace, tie_sizes = [], []
    for t in range(1, config.budget + 1):
        offered = np.flatnonzero(open_rows)
        if not offered.size:
            break
        if config.strategy == "random":
            scores, tied = None, np.arange(offered.size)
        else:
            if config.strategy == "bayesian":
                scores = expected_improvement_many(model, rows[offered])
            else:
                scores = crowd_score_many(model, rows[offered])
            tied = np.flatnonzero(scores == scores.max())
        tie_sizes.append(tied.size)
        pick = int(tied[rng_tie.integers(tied.size)])
        row = rows[offered[pick]]
        open_rows[offered[pick]] = False
        built = oracle.evaluate(tuple(row.tolist()))
        history.add(row, built)
        trace.append(TraceEntry(t=t, digest=config_digest(graph, tuple(row.tolist())),
                                score=None if scores is None else float(scores[pick]),
                                built=built))
        model = refit_incremental(model, row, built)
    return history, tuple(trace), model, tie_sizes


def _assert_same_model(model, reference):
    """Bitwise-equal counts, weights and logs on both sides."""
    for side in ("good", "bad"):
        stats, ref_stats = getattr(model, f"{side}_stats"), getattr(reference, f"{side}_stats")
        table, ref_table = getattr(model, side), getattr(reference, side)
        assert stats.n == ref_stats.n
        for a, b in ((stats.counts, ref_stats.counts), (table.weights, ref_table.weights),
                     (table.log, ref_table.log)):
            assert np.array_equal(a, b)


def _planted(seed):
    graph, rules = generate_benchmark(7, 3, 0.5, 0.1, seed)
    return graph, SyntheticOracle(graph, rules)


def _noisy(seed):
    graph, rules = generate_benchmark(7, 3, 0.5, 0.1, seed)
    return graph, SyntheticOracle(graph, PlantedRuleSet(rules.forbidden, noise=0.2))


def _listed(seed):
    """A dataset of 500 configurations in random order, replayed."""
    graph, oracle = _planted(seed)
    records = distinct_records(graph, 500, np.random.default_rng(seed), oracle.evaluate)
    return graph, DatasetOracle(Dataset(graph, records))


def _always_fail(seed):
    return chain_graph(6, 3), CountingOracle(lambda c: False)


def _wide(seed):
    # With smoothing 1e-30 a factor cell seen on one side only adds about
    # +/-69 to a log ratio, so 25 factors take ratios past the +/-700 clamp.
    return wide_graph(12, 2), CountingOracle(lambda c: c[1] == c[2])


class TestIncrementalSelectionParity:
    """run's indexed bayesian selection against the from-scratch loop."""

    @pytest.fixture()
    def drift(self, monkeypatch):
        """Check, at every selection, the index's log ratios against a
        from-scratch sum on the open rows; collect the largest |log ratio|
        and whether some selection tied every open row."""
        seen = {"calls": 0, "largest": 0.0, "all_tied": False, "open": []}
        best = RatioIndex.best

        def checked(index, model):
            log_ratio = index.log_ratio(model)
            open_rows = log_ratio < np.inf
            # One run: a selection closes one row, and nothing else does.
            (n_open,) = np.count_nonzero(open_rows, axis=1).tolist()
            assert not seen["open"] or n_open == seen["open"][-1] - 1
            seen["open"].append(n_open)
            for run_index, (line, open_line) in enumerate(zip(log_ratio, open_rows)):
                one = FactorModel(model.graph, model.smoothing, model.counts[:, [run_index]])
                scratch = (log_density_many(one.bad, index.rows)
                           - log_density_many(one.good, index.rows))[open_line]
                np.testing.assert_allclose(line[open_line], scratch, rtol=0, atol=1e-9)
                seen["largest"] = max(seen["largest"], float(np.abs(scratch).max()))
            seen["calls"] += 1
            tied = best(index, model)
            seen["all_tied"] |= any(t.size == n_open for t in tied)
            return tied

        monkeypatch.setattr(RatioIndex, "best", checked)
        return seen

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("space, smoothing, budget", [
        (_planted, 1.0, 60),
        (_listed, 1.0, 60),
        (_always_fail, 1.0, 100),
        (_wide, 1e-30, 80),
    ], ids=["exhaustive", "listed", "always-fail", "clamped"])
    def test_matches_from_scratch_loop(self, drift, space, smoothing, budget, seed):
        config = SamplerConfig(bootstrap_size=10, budget=budget, seed=seed,
                               smoothing=smoothing)
        graph, oracle = space(seed)
        history, trace, model, tie_sizes = _reference_run(oracle, graph, config)
        result = run(oracle, graph, config)
        assert result.history.entries == history.entries
        assert result.trace == trace
        _assert_same_model(result.model, model)
        assert drift["calls"] == len(trace) == budget
        if space in (_always_fail, _wide):
            assert max(tie_sizes) > 1
        if space is _always_fail:
            assert drift["all_tied"]
        if space is _wide:
            assert drift["largest"] > 700

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("space", [_planted, _listed, _always_fail],
                             ids=["exhaustive", "listed", "always-fail"])
    @pytest.mark.parametrize("strategy", ["crowd", "random"])
    def test_crowd_and_random_match_from_scratch_loop(self, monkeypatch, strategy, space,
                                                      seed):
        config = SamplerConfig(strategy=strategy, bootstrap_size=10, budget=60, seed=seed)
        graph, oracle = space(seed)
        history, trace, model, tie_sizes = _reference_run(oracle, graph, config)
        scored = []
        sums = surrogate._PrefixSums.sums

        def counted(prefixes, values, out):
            scored.append(out.shape)
            return sums(prefixes, values, out)

        monkeypatch.setattr(surrogate._PrefixSums, "sums", counted)
        result = run(oracle, graph, config)
        selecting = len(scored)  # the trace's scores are computed when it is read
        assert result.history.entries == history.entries
        assert result.trace == trace
        _assert_same_model(result.model, model)
        # Only a good record makes crowd selection score the rows again.
        goods = sum(entry.built for entry in trace[:-1])
        assert selecting == (1 + goods if strategy == "crowd" else 0)
        if space is _always_fail:
            # Nothing ever builds: every open row ties at every step.
            assert tie_sizes == list(range(tie_sizes[0], tie_sizes[0] - len(trace), -1))


class TestLockstepRuns:
    """run_many advances R runs in one loop, each equal to its own run call."""

    @staticmethod
    def _assert_each_equals_its_run(oracle, graph, configs):
        results = sampler.run_many(oracle, graph, configs)
        assert len(results) == len(configs)
        for result, config in zip(results, configs):
            alone = run(oracle, graph, config)
            mine, theirs = result.history.dataset, alone.history.dataset
            assert np.array_equal(mine.rows, theirs.rows)
            assert np.array_equal(mine.built, theirs.built)
            assert result.scores == alone.scores
            _assert_same_model(result.model, alone.model)
        return results

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("strategy", ["bayesian", "crowd", "random"])
    def test_each_model_is_the_fit_of_its_history(self, runs, strategy):
        """Each run's model, taken from the runs' one model, equals a fit of
        its history from scratch bit for bit: counts, n, logs and weights."""
        graph, oracle = _listed(6)
        config = SamplerConfig(strategy=strategy, bootstrap_size=10, budget=30)
        results = sampler.run_many(oracle, graph, [replace(config, seed=s) for s in range(runs)])
        for result in results:
            scratch = fit(result.history.dataset, graph, config.smoothing)
            for a, b in ((result.model.counts, scratch.counts), (result.model.n, scratch.n),
                         (result.model.log, scratch.log)):
                assert a.shape[1] == 1 and a.dtype == b.dtype and np.array_equal(a, b)
            _assert_same_model(result.model, scratch)

    @pytest.mark.parametrize("runs", [1, 3, 10])
    @pytest.mark.parametrize("strategy", ["bayesian", "crowd", "random"])
    def test_budget_past_the_open_rows(self, runs, strategy):
        """60 listed rows, a bootstrap of 10 and a budget of 80: every run
        stops on the same step, once its 50 open rows are evaluated."""
        graph, planted = _planted(4)
        records = distinct_records(graph, 60, np.random.default_rng(4), planted.evaluate)
        oracle = DatasetOracle(Dataset(graph, records))
        configs = [SamplerConfig(strategy=strategy, bootstrap_size=10, budget=80, seed=seed)
                   for seed in range(runs)]
        results = self._assert_each_equals_its_run(oracle, graph, configs)
        assert [len(result.scores) for result in results] == [50] * runs
        assert all(len(result.history) == 60 for result in results)

    @pytest.mark.parametrize("runs", [1, 3, 10])
    @pytest.mark.parametrize("strategy", ["bayesian", "crowd", "random"])
    def test_all_bad_bootstrap(self, runs, strategy, monkeypatch):
        """One good configuration of 2^11: every bootstrap is all bad, so the
        good side is uniform.  The expected improvement then saturates at
        1/prior for most rows, so some bayesian bands hold every open row of
        a run, and those bands are exact ties."""
        bands = []
        best = RatioIndex.best

        def recorded(index, model):
            widths = np.count_nonzero(index.near(model), axis=1).tolist()
            n_open = np.count_nonzero(index.log_ratio(model) < np.inf, axis=1).tolist()
            tied = best(index, model)
            bands.extend(zip(widths, n_open, (t.size for t in tied)))
            return tied

        monkeypatch.setattr(RatioIndex, "best", recorded)
        graph, oracle = wide_graph(10, 2), CountingOracle(lambda c: sum(c) == 0)
        configs = [SamplerConfig(strategy=strategy, bootstrap_size=10, budget=30, seed=seed)
                   for seed in range(runs)]
        results = self._assert_each_equals_its_run(oracle, graph, configs)
        assert not any(result.history.dataset.built[:10].any() for result in results)
        whole = [(band, tied) for band, n_open, tied in bands if band == n_open]
        if strategy == "bayesian":
            assert whole and all(band == tied for band, tied in whole)

    @pytest.mark.parametrize("strategy", ["bayesian", "crowd"])
    def test_sparse_replay_of_61_packages(self, strategy, monkeypatch):
        """About 2,000 random rows of a 61-package graph: the trie holds a
        few levels and some 55 lie below it, each a code per row.  Three
        lockstep runs equal three one-run runs, and each selection's score
        is the from-scratch maximum over the rows open to it; each bayesian
        step's tie set is the from-scratch one too."""
        graph, rules = generate_benchmark(61, 3, 0.5, 0.02, 1)
        drawn = np.random.default_rng(1).integers(0, 3, size=(2000, 61))
        rows = drawn[first_occurrences(drawn)]
        oracle = DatasetOracle(Dataset._checked(graph, rows,
                                                SyntheticOracle(graph, rules).outcomes(rows)))
        below, best = [], RatioIndex.best

        def checked(index, model):
            tied = best(index, model)
            for run, (line, mine) in enumerate(zip(index.closed, tied)):
                one = FactorModel(graph, model.smoothing, model.counts[:, [run]])
                scratch = np.where(line, -1.0, expected_improvement_many(one, rows))
                np.testing.assert_array_equal(mine, np.flatnonzero(scratch == scratch.max()))
            below.append(61 - len(index._prefixes._levels))
            return tied

        monkeypatch.setattr(RatioIndex, "best", checked)
        config = SamplerConfig(strategy=strategy, bootstrap_size=10, budget=40)
        results = self._assert_each_equals_its_run(
            oracle, graph, [replace(config, seed=s) for s in range(3)])
        for result in results:
            TestOnReadScores._assert_scores_from_scratch(result, graph, rows)
        if strategy == "bayesian":
            assert len(below) == 4 * 40 and min(below) >= 50
        else:
            assert 61 - len(surrogate._crowd_prefixes(results[0].model.layout, rows)._levels) >= 50

    @pytest.mark.parametrize("strategy", ["bayesian", "crowd", "random"])
    def test_pool_mode_is_one_run(self, strategy):
        """Pool draws are one run's: run_many of one config is run, and of
        several is refused before the oracle is asked anything."""
        graph = wide_graph(10, 2)
        config = SamplerConfig(strategy=strategy, candidate_mode="pool", pool_size=30,
                               bootstrap_size=4, budget=12, seed=23)
        self._assert_each_equals_its_run(CountingOracle(lambda c: c[1] == 1), graph, [config])
        oracle = CountingOracle(lambda c: c[1] == 1)
        with pytest.raises(ValueError, match="fixed candidates"):
            sampler.run_many(oracle, graph, [config, replace(config, seed=24)])
        assert oracle.calls == []

    @pytest.mark.parametrize("configs", [
        [],
        [SamplerConfig(seed=1), SamplerConfig(seed=2, budget=5)],
        [SamplerConfig(strategy="crowd"), SamplerConfig(strategy="random")],
    ], ids=["none", "budgets", "strategies"])
    def test_configs_differ_in_the_seed_alone(self, configs):
        graph, oracle = _listed(3)
        with pytest.raises(ValueError, match="seed alone"):
            sampler.run_many(oracle, graph, configs)

    def test_batched_sweep_memory(self):
        """At replay-eval's size, 6,561 rows and 10 repetitions, a bayesian
        sweep's runs trace under 4 MB at their peak: each run's suffix sums,
        log ratios and open rows, 17 bytes a row, and the bands rescored a
        block at a time.  One run after another peaked near 1.3 MB."""
        graph, rules = generate_benchmark(8, 3, 0.5, 0.05, 21)
        dataset = enumerate_records(SyntheticOracle(graph, rules))
        assert len(dataset) == 6561
        config = SamplerConfig(bootstrap_size=20, budget=100)
        configs = [replace(config, seed=seed) for seed in range(10)]
        oracle = DatasetOracle(dataset)
        sampler.run_many(oracle, graph, configs[:2])  # numpy's first calls may cache
        tracemalloc.start()
        try:
            sampler.run_many(oracle, graph, configs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000

    def test_whole_space_bands_memory(self, monkeypatch):
        """Over 59,049 rows where nothing builds, 10 bayesian runs reach a
        step whose every band is the whole space: its 63 failures, spread
        evenly over every factor's cells, leave each run's model flat, so
        the bands are tie sets as they are.  Beyond one run's peak, each
        further run holds about 25 bytes a row of index state (suffix sums,
        log ratios, masks and trie sums) and 8 of its tie set: 40 bound it.
        The other steps rescore all runs' bands in one call, of at most
        56,180 rows."""
        graph = generate_benchmark(10, 3, 0.3, 0.02, 335)[0]
        n_rows = 3 ** 10
        oracle = CountingOracle(lambda c: False)
        configs = [SamplerConfig(bootstrap_size=20, budget=45, seed=seed) for seed in range(10)]
        widest = []
        near = RatioIndex.near

        def counted(index, model):
            mask = near(index, model)
            widest.append(int(np.count_nonzero(mask)))
            return mask

        run(oracle, graph, configs[0])  # numpy's first calls may cache
        peaks = []
        for batch in (configs[:1], configs):
            tracemalloc.start()
            try:
                sampler.run_many(oracle, graph, batch)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        monkeypatch.setattr(RatioIndex, "near", counted)
        sampler.run_many(oracle, graph, configs)
        assert max(widest) == 10 * (n_rows - 20 - widest.index(max(widest)))
        assert peaks[1] < peaks[0] + 9 * 40 * n_rows


class TestOnReadScores:
    """Selection returns tie sets only; RunResult.scores, computed when
    read, against a fit of the history before each selection."""

    @staticmethod
    def _assert_scores_from_scratch(result, graph, candidates=None):
        """Each selection's score is bit for bit its row's score under fit
        of the records before it (None for random selection); over fixed
        candidates it is also the from-scratch maximum over the rows still
        open, which the tie set holds."""
        config, entries = result.config, result.history.entries
        boot = config.bootstrap_size
        score = {"bayesian": expected_improvement_many,
                 "crowd": crowd_score_many}.get(config.strategy)
        assert len(result.scores) == len(entries) - boot
        for t, value in enumerate(result.scores):
            if score is None:
                assert value is None
                continue
            model = fit(entries[:boot + t], graph, config.smoothing)
            assert type(value) is float
            assert value == score(model, np.asarray([entries[boot + t].config]))[0]
            if candidates is not None:
                seen = {record.config for record in entries[:boot + t]}
                open_rows = [c for c in map(tuple, candidates.tolist()) if c not in seen]
                assert value == score(model, np.asarray(open_rows)).max()

    @pytest.mark.parametrize("mode, runs", [("exhaustive", 1), ("exhaustive", 3), ("pool", 1),
                                            ("replay", 1), ("replay", 3)])
    @pytest.mark.parametrize("strategy", ["bayesian", "crowd", "random"])
    def test_scores_match_a_fit_of_each_history(self, strategy, mode, runs):
        graph, oracle = (_listed if mode == "replay" else _planted)(5)
        config = SamplerConfig(strategy=strategy, bootstrap_size=10, budget=25,
                               candidate_mode="pool" if mode == "pool" else "exhaustive",
                               pool_size=50)
        results = sampler.run_many(oracle, graph, [replace(config, seed=s) for s in range(runs)])
        candidates = None
        if mode != "pool":
            listed = oracle.candidate_configurations()
            candidates = full_space_matrix(graph) if listed is None else listed.rows
        for result in results:
            self._assert_scores_from_scratch(result, graph, candidates)

    @pytest.mark.parametrize("strategy", ["bayesian", "crowd"])
    def test_blocks_of_steps(self, strategy, monkeypatch):
        """Scores rebuilt three steps at a time, the last block shorter,
        equal those of one block."""
        graph, oracle = _listed(5)
        config = SamplerConfig(strategy=strategy, bootstrap_size=10, budget=25, seed=2)
        whole = run(oracle, graph, config).scores
        cells = fit([], graph).layout.size
        monkeypatch.setattr(surrogate, "_STEP_CELLS", 3 * cells + 1)
        result = run(oracle, graph, config)
        assert result.scores == whole
        self._assert_scores_from_scratch(result, graph, oracle.candidate_configurations().rows)

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("strategy", ["bayesian", "crowd", "random"])
    def test_all_bad_bootstrap(self, strategy, runs):
        """One good configuration of 2^11: the good side stays uniform, the
        expected improvement saturates, and bands span the open rows."""
        graph, oracle = wide_graph(10, 2), CountingOracle(lambda c: sum(c) == 0)
        config = SamplerConfig(strategy=strategy, bootstrap_size=10, budget=20)
        results = sampler.run_many(oracle, graph, [replace(config, seed=s) for s in range(runs)])
        for result in results:
            assert not result.history.dataset.built.any()
            self._assert_scores_from_scratch(result, graph, full_space_matrix(graph))

    @pytest.mark.parametrize("runs", [1, 3])
    def test_flat_model_selects_without_rescoring(self, runs, monkeypatch):
        """A smoothing of 1e20 swamps every count, so each factor of both
        sides weighs its cells alike: every band is all the open rows, and
        those tie exactly, so selection scores no row."""
        calls = []
        score = FactorModel.expected_improvement

        def counted(model, *args, **kwargs):
            calls.append(args)
            return score(model, *args, **kwargs)

        monkeypatch.setattr(FactorModel, "expected_improvement", counted)
        graph, oracle = _planted(5)
        config = SamplerConfig(bootstrap_size=10, budget=15, smoothing=1e20)
        results = sampler.run_many(oracle, graph, [replace(config, seed=s) for s in range(runs)])
        assert calls == []
        for result in results:
            self._assert_scores_from_scratch(result, graph, full_space_matrix(graph))
            assert set(result.scores) == {1.0}

    def test_one_row_bands_are_not_rescored(self, monkeypatch):
        """Replaying 500 listed rows, each of this run's 40 bands holds one
        row, so selection makes no FactorModel.expected_improvement call;
        reading the scores makes one, for all 40 selections."""
        widths, calls = [], []
        near, score = RatioIndex.near, FactorModel.expected_improvement

        def counted_near(index, model):
            mask = near(index, model)
            widths.append(int(np.count_nonzero(mask)))
            return mask

        def counted(model, *args, **kwargs):
            calls.append(args)
            return score(model, *args, **kwargs)

        monkeypatch.setattr(RatioIndex, "near", counted_near)
        monkeypatch.setattr(FactorModel, "expected_improvement", counted)
        graph, oracle = _listed(3)
        result = run(oracle, graph, SamplerConfig(bootstrap_size=10, budget=40, seed=3))
        assert widths == [1] * 40
        assert calls == []
        assert len(result.scores) == 40 and len(calls) == 1

    @pytest.mark.parametrize("seed", [0, 3, 2**40])
    def test_a_draw_from_one_row_consumes_nothing(self, seed):
        """Selection skips the tie-break draw of a one-row tie set, which
        leaves the same generator state as drawing it would."""
        rng, fresh = substream(seed, "tie-break"), substream(seed, "tie-break")
        state = rng.bit_generator.state
        assert rng.integers(1) == 0
        assert rng.bit_generator.state == state
        assert rng.integers(2**62) == fresh.integers(2**62)
