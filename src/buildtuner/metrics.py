"""Ranking quality and the two evaluation protocols.

The sweep reports precision and recall at each prefix of an evaluation
history, both from one running count of good records; the recall
denominator is the total number of good configurations in the ground
truth, not in the history.  Ranking quality is the area under the
precision-recall curve evaluated at every prefix of a ranked list.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from .configspace import _digest
from .dataset import Dataset, DatasetOracle, split_train_test
from .rng import derive_seed, substream
from .sampler import SamplerConfig, run, run_many
from .surrogate import RunError, crowd_score_many, expected_improvement_many

__all__ = [
    "ExperimentReport",
    "StrategyListError",
    "auprc",
    "auprc_experiment",
    "sweep_experiment",
]


def auprc(scores: np.ndarray, outcomes: np.ndarray) -> float:
    """Area under the precision-recall curve of a ranked list, given as its
    scores, which must descend, and each item's outcome.

    Each true item at prefix k contributes precision(k) / G where G is the
    number of true items in the whole list.
    """
    scores, outcomes = np.asarray(scores, dtype=float), np.asarray(outcomes, dtype=bool)
    if len(scores) != len(outcomes):
        raise ValueError(f"auprc of {len(scores)} scores and {len(outcomes)} outcomes")
    if not len(scores):
        raise ValueError("auprc of an empty ranking is undefined")
    if (scores[1:] > scores[:-1]).any():
        raise ValueError("ranking is not sorted by descending score")
    prefixes = np.flatnonzero(outcomes) + 1  # k of each true item
    if prefixes.size == 0:
        raise ValueError("auprc needs at least one true outcome")
    terms = np.arange(1, prefixes.size + 1) / prefixes / prefixes.size
    # cumsum adds in list order, one term at a time, as a running sum would.
    return float(np.cumsum(terms)[-1])


class StrategyListError(ValueError):
    """A sweep's strategy list names no strategy, or one twice."""


@dataclass(frozen=True)
class ExperimentReport:
    """Mean and dispersion of prefix precision/recall over repetitions."""

    strategy: str
    sample_sizes: tuple[int, ...]
    mean_p: tuple[float, ...]
    sd_p: tuple[float, ...]
    mean_r: tuple[float, ...]
    sd_r: tuple[float, ...]
    seeds: tuple[int, ...]

    def rows(self) -> list[dict]:
        return [
            {
                "strategy": self.strategy,
                "size": size,
                "mean_p": self.mean_p[i],
                "sd_p": self.sd_p[i],
                "mean_r": self.mean_r[i],
                "sd_r": self.sd_r[i],
            }
            for i, size in enumerate(self.sample_sizes)
        ]


def _spread(values: np.ndarray) -> float:
    # Sample standard deviation; a single repetition has no spread.
    if values.size < 2:
        return 0.0
    return float(np.std(values, ddof=1))


def sweep_experiment(
    dataset: Dataset,
    strategies: Sequence[str],
    sample_sizes: Sequence[int],
    repetitions: int,
    base_seed: int,
    bootstrap_size: int = 20,
    smoothing: float = 1.0,
) -> dict[str, ExperimentReport]:
    """Replay each strategy on the dataset and report prefix P/R curves.

    Repetition seeds are derived from base_seed independently of the
    strategy, so strategies are compared on identical bootstrap draws.  A
    strategy's repetitions run in lockstep (run_many); a ValueError of one
    of them names its seed.  StrategyListError for a strategy listed twice
    or none; ValueError for a bootstrap that covers every sample size,
    whose prefixes would not depend on the strategy, and for sample sizes
    that repeat or do not ascend.
    """
    sizes = tuple(int(s) for s in sample_sizes)
    if not strategies:
        raise StrategyListError("no strategies requested")
    if len(set(strategies)) != len(strategies):
        raise StrategyListError(f"strategies {list(strategies)} repeat a strategy")
    if not sizes:
        raise ValueError("no sample sizes requested")
    if any(b <= a for a, b in zip(sizes, sizes[1:])):
        raise ValueError(f"sample sizes {list(sizes)} must ascend, each listed once")
    if min(sizes) < 1:
        raise ValueError("sample sizes must be positive")
    if max(sizes) > len(dataset):
        raise ValueError(
            f"sample size {max(sizes)} exceeds the dataset size {len(dataset)}"
        )
    if repetitions < 1:
        raise ValueError("repetitions must be positive")
    total_good = dataset.good_count
    if total_good == 0:
        raise ValueError("dataset has no good configurations; recall is undefined")
    configs = [SamplerConfig(strategy=strategy, bootstrap_size=bootstrap_size,
                             smoothing=smoothing) for strategy in strategies]
    if bootstrap_size >= max(sizes):
        raise ValueError(f"bootstrap size {bootstrap_size} covers every sample size; "
                         f"the largest is {max(sizes)}")
    budget = max(sizes) - bootstrap_size
    seeds = tuple(derive_seed(base_seed, "rep", r) for r in range(repetitions))
    oracle = DatasetOracle(dataset)
    reports: dict[str, ExperimentReport] = {}
    for config in configs:
        strategy = config.strategy
        try:
            results = run_many(oracle, dataset.graph,
                               [replace(config, budget=budget, seed=seed) for seed in seeds])
        except ValueError as exc:
            where = f" with seed {seeds[exc.run]}" if isinstance(exc, RunError) else ""
            raise ValueError(f"strategy {strategy!r}{where}: {exc}") from exc
        built = np.array([result.history.dataset.built for result in results])
        found = np.cumsum(built, axis=1)[:, np.subtract(sizes, 1)]
        p_values, r_values = found / sizes, found / total_good
        reports[strategy] = ExperimentReport(
            strategy=strategy,
            sample_sizes=sizes,
            mean_p=tuple(float(np.mean(p_values[:, j])) for j in range(len(sizes))),
            sd_p=tuple(_spread(p_values[:, j]) for j in range(len(sizes))),
            mean_r=tuple(float(np.mean(r_values[:, j])) for j in range(len(sizes))),
            sd_r=tuple(_spread(r_values[:, j]) for j in range(len(sizes))),
            seeds=seeds,
        )
    return reports


def auprc_experiment(
    dataset: Dataset,
    strategy: str,
    seed: int,
    selections: int = 100,
    bootstrap_size: int = 20,
    smoothing: float = 1.0,
) -> float:
    """Split in half, adapt on the training half, then rank and score the test half.

    The model fitted after the adaptive run scores every test configuration;
    the ranking is descending by score with digest order breaking ties
    between outcomes.
    """
    config = SamplerConfig(strategy=strategy, bootstrap_size=bootstrap_size, budget=selections,
                           seed=seed, smoothing=smoothing)
    train, test = split_train_test(dataset, substream(seed, "split"))
    if len(train) < selections + bootstrap_size:
        raise ValueError(
            f"training half of {len(train)} records cannot support "
            f"{bootstrap_size} bootstrap draws plus {selections} selections"
        )
    if len(test) == 0:
        raise ValueError("test half is empty")
    result = run(DatasetOracle(train), dataset.graph, config)
    if strategy == "bayesian":
        scores = expected_improvement_many(result.model, test.rows)
    elif strategy == "crowd":
        scores = crowd_score_many(result.model, test.rows)
    else:
        scores = substream(seed, "rank").random(len(test))
    order = _descending(test, scores)
    return auprc(scores[order], test.built[order])


def _descending(dataset: Dataset, scores: np.ndarray) -> np.ndarray:
    """Record indices by descending score, digest order breaking ties
    between records of different outcomes.

    Any order of records that share a score and an outcome ranks the same
    (score, outcome) pairs, so only the records of a score that holds both
    outcomes are digested (their rows were checked with the dataset), and
    ranked among themselves; the others keep record order.
    """
    _, group, sizes = np.unique(scores, return_inverse=True, return_counts=True)
    built = np.bincount(group[dataset.built], minlength=sizes.size)
    tied = np.flatnonzero(((built > 0) & (built < sizes))[group])
    digests = [_digest(dataset.graph, row) for row in dataset.rows[tied].tolist()]
    rank = np.zeros(len(scores), dtype=np.intp)
    rank[tied[sorted(range(tied.size), key=digests.__getitem__)]] = np.arange(tied.size)
    # A key per record: its score's place from the top, then its rank.
    return np.argsort((sizes.size - 1 - group) * len(scores) + rank, kind="stable")
