"""Ranking area, and the two evaluation protocols with their prefix precision/recall."""
from __future__ import annotations

import math
import re

import numpy as np
import pytest

from buildtuner import (
    Dataset,
    DatasetOracle,
    SamplerConfig,
    auprc,
    auprc_experiment,
    config_digest,
    crowd_score_many,
    derive_seed,
    expected_improvement_many,
    run,
    split_train_test,
    substream,
    sweep_experiment,
)
from buildtuner import metrics, sampler
from buildtuner.metrics import _descending
from helpers import chain_graph, distinct_records


def brute_force_auprc(ranked):
    """Independent oracle: average precision via explicit prefix recomputation."""
    total_true = sum(1 for _, y in ranked if y)
    area = 0.0
    for k in range(1, len(ranked) + 1):
        prefix = ranked[:k]
        if prefix[-1][1]:
            hits = sum(1 for _, y in prefix if y)
            area += (hits / k) / total_true
    return area


def auprc_of(ranked):
    """auprc of a list of (score, outcome) pairs."""
    return auprc([s for s, _ in ranked], [y for _, y in ranked])


class TestAuprc:
    def test_frozen_true_false_true(self):
        ranked = [(0.9, True), (0.5, False), (0.1, True)]
        assert auprc_of(ranked) == pytest.approx(0.8333333333333333, abs=1e-15)

    def test_perfect_ranking(self):
        ranked = [(0.9, True), (0.8, True), (0.2, False), (0.1, False)]
        assert auprc_of(ranked) == pytest.approx(1.0, abs=0)

    def test_single_true_item(self):
        assert auprc_of([(1.0, True)]) == pytest.approx(1.0)
        assert auprc_of([(1.0, False), (0.5, True)]) == pytest.approx(0.5)

    def test_all_true(self):
        assert auprc_of([(0.5, True), (0.4, True), (0.3, True)]) == pytest.approx(1.0)

    def test_validation(self):
        with pytest.raises(ValueError, match="empty ranking"):
            auprc_of([])
        with pytest.raises(ValueError, match="of 2 scores and 1 outcomes"):
            auprc([0.9, 0.5], [True])
        with pytest.raises(ValueError, match="at least one true"):
            auprc_of([(0.5, False)])
        with pytest.raises(ValueError, match="not sorted"):
            auprc_of([(0.1, True), (0.9, True)])

    def test_ties_in_scores_allowed(self):
        assert auprc_of([(0.5, True), (0.5, False), (0.5, True)]) == pytest.approx(
            brute_force_auprc([(0.5, True), (0.5, False), (0.5, True)])
        )

    def test_matches_brute_force_on_random_lists(self):
        rng = np.random.default_rng(41)
        for _ in range(50):
            n = int(rng.integers(1, 40))
            labels = rng.random(n) < 0.4
            if not labels.any():
                labels[int(rng.integers(n))] = True
            scores = np.sort(rng.random(n))[::-1]
            ranked = [(float(s), bool(y)) for s, y in zip(scores, labels)]
            assert auprc_of(ranked) == pytest.approx(brute_force_auprc(ranked),
                                                  abs=1e-12)

    def test_sum_is_the_running_sum_in_list_order(self):
        """The terms are added one at a time in list order, so the area is
        bit for bit that of a running sum, over lists long enough that
        pairwise summation would differ."""
        rng = np.random.default_rng(43)
        for n in (1, 2, 7, 500, 3000):
            labels = rng.random(n) < 0.3
            labels[int(rng.integers(n))] = True
            ranked = [(float(s), bool(y))
                      for s, y in zip(np.sort(rng.random(n))[::-1], labels)]
            area, seen = 0.0, 0
            for k, (_, y) in enumerate(ranked, start=1):
                if y:
                    seen += 1
                    area += (seen / k) / int(labels.sum())
            assert auprc_of(ranked) == area

    def test_invariant_under_monotone_score_transform(self):
        rng = np.random.default_rng(55)
        scores = np.sort(rng.random(20))[::-1]
        labels = rng.random(20) < 0.5
        labels[0] = True
        base = [(float(s), bool(y)) for s, y in zip(scores, labels)]
        squashed = [(math.tanh(3 * s), y) for s, y in base]
        assert auprc_of(base) == pytest.approx(auprc_of(squashed), abs=0)


def _replay_dataset(n_records=60, good_fn=None, seed=10):
    graph = chain_graph(4, 3)  # 81 configurations
    rng = np.random.default_rng(seed)
    good_fn = good_fn or (lambda c: c[0] == 0)
    records = distinct_records(graph, n_records, rng, good_fn)
    return Dataset(graph, records)


class TestSweepExperiment:
    def test_report_shapes_and_seeds(self):
        dataset = _replay_dataset()
        sizes = (10, 20, 30)
        reports = sweep_experiment(dataset, ("bayesian", "random"), sizes,
                                   repetitions=3, base_seed=7, bootstrap_size=5)
        assert set(reports) == {"bayesian", "random"}
        expected_seeds = tuple(derive_seed(7, "rep", r) for r in range(3))
        for report in reports.values():
            assert report.sample_sizes == sizes
            assert report.seeds == expected_seeds
            assert len(report.mean_p) == len(sizes)
            assert all(0.0 <= v <= 1.0 for v in report.mean_p + report.mean_r)
            assert report.rows()[0]["size"] == 10

    def test_bootstrap_only_prefix_identical_across_strategies(self):
        """At sizes up to the bootstrap, all strategies share the same draws."""
        dataset = _replay_dataset()
        reports = sweep_experiment(dataset, ("bayesian", "crowd", "random"), (5, 10),
                                   repetitions=4, base_seed=3, bootstrap_size=5)
        reference = reports["bayesian"]
        for strategy in ("crowd", "random"):
            assert reports[strategy].mean_p[0] == reference.mean_p[0]
            assert reports[strategy].mean_r[0] == reference.mean_r[0]
            assert reports[strategy].sd_p[0] == reference.sd_p[0]

    def test_prefix_values_from_the_replayed_histories(self):
        """A prefix's precision is its good records over its length, and its
        recall those over the dataset's good count, not the history's."""
        dataset = _replay_dataset()
        sizes = (1, 5, 7, 20, 33)
        reports = sweep_experiment(dataset, ("bayesian", "crowd", "random"), sizes,
                                   repetitions=3, base_seed=11, bootstrap_size=5)
        for strategy, report in reports.items():
            p_values, r_values = [], []
            for seed in report.seeds:
                cfg = SamplerConfig(strategy=strategy, bootstrap_size=5,
                                    budget=max(sizes) - 5, seed=seed)
                history = run(DatasetOracle(dataset), dataset.graph, cfg).history
                found = [sum(r.outcome for r in history.entries[:size]) for size in sizes]
                p_values.append([good / size for good, size in zip(found, sizes)])
                r_values.append([good / dataset.good_count for good in found])
            p_values, r_values = np.array(p_values), np.array(r_values)
            assert report.mean_p == tuple(float(np.mean(p_values[:, j]))
                                          for j in range(len(sizes)))
            assert report.sd_p == tuple(float(np.std(p_values[:, j], ddof=1))
                                        for j in range(len(sizes)))
            assert report.mean_r == tuple(float(np.mean(r_values[:, j]))
                                          for j in range(len(sizes)))
            assert report.sd_r == tuple(float(np.std(r_values[:, j], ddof=1))
                                        for j in range(len(sizes)))

    def test_single_repetition_has_zero_spread(self):
        dataset = _replay_dataset()
        reports = sweep_experiment(dataset, ("random",), (10,), repetitions=1,
                                   base_seed=1, bootstrap_size=5)
        assert reports["random"].sd_p == (0.0,)
        assert reports["random"].sd_r == (0.0,)

    def test_deterministic(self):
        dataset = _replay_dataset()
        a = sweep_experiment(dataset, ("bayesian",), (8, 16), 2, 99,
                             bootstrap_size=4)
        b = sweep_experiment(dataset, ("bayesian",), (8, 16), 2, 99,
                             bootstrap_size=4)
        assert a["bayesian"] == b["bayesian"]

    def test_runs_digest_nothing(self, monkeypatch):
        """run digests a selection only when its trace is read, and a sweep
        reads no trace."""
        digested = []

        def counted(graph, config):
            digested.append(config)
            return config_digest(graph, config)

        monkeypatch.setattr(sampler, "_digest", counted)
        sweep_experiment(_replay_dataset(), ("bayesian", "crowd", "random"), (10, 20),
                         repetitions=2, base_seed=5, bootstrap_size=5)
        assert digested == []

    def test_validation(self):
        dataset = _replay_dataset()
        with pytest.raises(ValueError, match="unknown strategy"):
            sweep_experiment(dataset, ("sorted",), (10,), 1, 0)
        with pytest.raises(ValueError, match="no sample sizes"):
            sweep_experiment(dataset, ("random",), (), 1, 0)
        with pytest.raises(ValueError, match="must be positive"):
            sweep_experiment(dataset, ("random",), (0,), 1, 0)
        with pytest.raises(ValueError, match="exceeds the dataset size"):
            sweep_experiment(dataset, ("random",), (10_000,), 1, 0)
        with pytest.raises(ValueError, match="repetitions"):
            sweep_experiment(dataset, ("random",), (10,), 0, 0)
        all_bad = _replay_dataset(good_fn=lambda c: False)
        with pytest.raises(ValueError, match="no good configurations"):
            sweep_experiment(all_bad, ("random",), (10,), 1, 0)

    def test_error_names_strategy_and_seed(self):
        dataset = _replay_dataset(n_records=12)
        with pytest.raises(ValueError, match=r"strategy 'bayesian' with seed \d+"):
            # The least weight of a side of two or more bootstrap records rounds to 0.
            sweep_experiment(dataset, ("bayesian",), (12,), 1, 5, bootstrap_size=5,
                             smoothing=5e-324)

    def test_refit_error_names_the_seed_of_its_run(self):
        """The repetitions run in lockstep, and a refit that rounds a weight
        to 0 names the seed of the run whose side reached 20 records; that
        run alone fails the same way."""
        dataset = _replay_dataset()
        with pytest.raises(ValueError, match=r"strategy 'bayesian' with seed (\d+): "
                           r"smoothing 5e-323 over 20 records") as raised:
            sweep_experiment(dataset, ("bayesian",), (40,), 3, 5, bootstrap_size=5,
                             smoothing=5e-323)
        seed = int(re.search(r"with seed (\d+)", str(raised.value)).group(1))
        assert seed in [derive_seed(5, "rep", r) for r in range(3)]
        config = SamplerConfig(bootstrap_size=5, budget=35, seed=seed, smoothing=5e-323)
        with pytest.raises(ValueError, match="5e-323 over 20 records"):
            run(DatasetOracle(dataset), dataset.graph, config)

    @pytest.mark.parametrize("strategies", [(), ("crowd", "random", "crowd")])
    def test_strategies_listed_once(self, strategies):
        with pytest.raises(ValueError, match="no strategies|repeat a strategy"):
            sweep_experiment(_replay_dataset(), strategies, (10,), 1, 0, bootstrap_size=5)

    @pytest.mark.parametrize("sizes", [(30, 20, 30), (20, 20), (30, 20), (10, 20, 20)])
    def test_sample_sizes_ascend_each_once(self, sizes):
        with pytest.raises(ValueError, match="must ascend, each listed once"):
            sweep_experiment(_replay_dataset(), ("random",), sizes, 2, 0, bootstrap_size=5)

    @pytest.mark.parametrize("bootstrap_size", [10, 11])
    def test_bootstrap_must_leave_a_sample_size_to_select(self, bootstrap_size):
        """Prefixes within the bootstrap do not depend on the strategy."""
        with pytest.raises(ValueError, match="covers every sample size"):
            sweep_experiment(_replay_dataset(), ("random",), (5, 10), 1, 0,
                             bootstrap_size=bootstrap_size)


class TestAuprcExperiment:
    def test_insufficient_training_half(self):
        dataset = _replay_dataset(n_records=30)
        with pytest.raises(ValueError, match="cannot support"):
            auprc_experiment(dataset, "bayesian", seed=1, selections=100,
                             bootstrap_size=20)

    def test_unknown_strategy(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            auprc_experiment(_replay_dataset(), "sorted", seed=1)

    def test_deterministic_and_in_range(self):
        dataset = _replay_dataset(n_records=70)
        a = auprc_experiment(dataset, "bayesian", seed=5, selections=10,
                             bootstrap_size=5)
        b = auprc_experiment(dataset, "bayesian", seed=5, selections=10,
                             bootstrap_size=5)
        assert a == b
        assert 0.0 < a <= 1.0

    def test_random_strategy_near_prevalence(self):
        """Random ranking's area concentrates near the good-fraction."""
        dataset = _replay_dataset(n_records=80, good_fn=lambda c: c[0] != 2,
                                  seed=3)
        prevalence = dataset.good_count / len(dataset)
        values = [
            auprc_experiment(dataset, "random", seed=seed, selections=10,
                             bootstrap_size=5)
            for seed in range(10)
        ]
        assert abs(float(np.mean(values)) - prevalence) < 0.1

    def test_strategies_score_same_split(self):
        """The split and the sampling seed do not depend on the strategy."""
        dataset = _replay_dataset(n_records=70)
        bayes = auprc_experiment(dataset, "bayesian", seed=2, selections=10,
                                 bootstrap_size=5)
        crowd = auprc_experiment(dataset, "crowd", seed=2, selections=10,
                                 bootstrap_size=5)
        assert 0.0 < bayes <= 1.0 and 0.0 < crowd <= 1.0

    @pytest.mark.parametrize("strategy, score", [
        ("crowd", crowd_score_many),
        ("bayesian", expected_improvement_many),
    ])
    def test_tie_break_matches_full_digest_sort(self, strategy, score, monkeypatch):
        """Digesting only the ties that hold both outcomes ranks the same
        (score, outcome) pairs as digesting every record, and digests
        nothing else."""
        dataset = _replay_dataset(n_records=80, seed=4)
        train, test = split_train_test(dataset, substream(2, "split"))
        config = SamplerConfig(strategy=strategy, bootstrap_size=5, budget=10, seed=2)
        model = run(DatasetOracle(train), dataset.graph, config).model
        scores = score(model, np.asarray([r.config for r in test.records]))
        digests = [config_digest(test.graph, r.config) for r in test]
        full = sorted(range(len(test)), key=lambda i: (-scores[i], digests[i]))
        ranked = [(float(scores[i]), test.records[i].outcome) for i in full]
        digested = []

        def counted(graph, row):
            digested.append(tuple(row))
            return config_digest(graph, row)

        monkeypatch.setattr(metrics, "_digest", counted)
        order = _descending(test, scores)
        assert [(float(scores[i]), test.records[i].outcome) for i in order] == ranked
        # Ties occur, and the digests reorder them.
        assert full != sorted(range(len(test)), key=lambda i: -scores[i])
        mixed = {value for value in scores.tolist()
                 if len({r.outcome for r, s in zip(test.records, scores) if s == value}) == 2}
        assert sorted(digested) == sorted(r.config for r, s in zip(test.records, scores)
                                          if s in mixed)
        counts = np.unique(scores, return_counts=True)[1]
        assert len(digested) < counts[counts > 1].sum()
        monkeypatch.undo()
        assert auprc_experiment(dataset, strategy, seed=2, selections=10,
                                bootstrap_size=5) == auprc_of(ranked)
