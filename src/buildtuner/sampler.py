"""Adaptive selection of build configurations to evaluate.

The loop bootstraps with uniform random draws, fits the factorized
surrogate, then repeatedly evaluates the unseen candidate with the best
strategy score, folding each observation back into the model.  Three
strategies are supported: "bayesian" (expected improvement), "crowd"
(good-side frequency product), and "random" (uniform baseline).

Fixed candidate rows are the whole space, or an oracle's listed candidates:
a replay oracle's Dataset, whose checked rows are used as they are, or any
other list, checked once.  Over fixed rows no strategy rescores the open
rows at each step.
Bayesian selection updates every row's log ratio incrementally after each
observation (surrogate.RatioIndex), takes the open rows near the least one
and settles them on from-scratch scores; crowd selection keeps every row's
score until a good record changes it; random selection ties every open row.
So each makes the same choice, and draws the same tie-break, as rescoring
every open row.  Pools score their rows from scratch.  A run's trace is
built, and its configurations digested, only when it is read.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Protocol, Sequence

import numpy as np

from .configspace import (
    Configuration,
    DependencyGraph,
    GraphError,
    check_configuration,
    check_rows,
    config_digest,
    first_occurrences,
    full_space_matrix,
    random_configuration,
    space_size,
)
from .dataset import BuildRecord, Dataset
from .rng import substream
from .surrogate import (
    FactorModel,
    RatioIndex,
    crowd_score_many,
    expected_improvement_many,
    fit,
    refit_incremental,
)

__all__ = [
    "STRATEGIES",
    "BuildOracle",
    "NoCandidatesError",
    "ObservationHistory",
    "RunResult",
    "SamplerConfig",
    "TraceEntry",
    "run",
]

STRATEGIES = ("bayesian", "crowd", "random")
CANDIDATE_MODES = ("exhaustive", "pool")

# Pool mode redraws this many times before concluding the space is exhausted.
_POOL_RETRIES = 20


class NoCandidatesError(ValueError):
    """No unevaluated candidate is available for selection."""


class BuildOracle(Protocol):
    """Anything that can label a configuration as building or failing."""

    def evaluate(self, config: Configuration) -> bool: ...

    def candidate_configurations(self) -> Dataset | Sequence[Configuration] | None:
        """Fixed candidates, as a Dataset or a list (a repeat counts once),
        or None when the space is generative."""
        ...


@dataclass(frozen=True)
class SamplerConfig:
    strategy: str = "bayesian"
    bootstrap_size: int = 20
    budget: int = 100
    candidate_mode: str = "exhaustive"
    pool_size: int = 1000
    seed: int = 42
    smoothing: float = 1.0

    def __post_init__(self):
        if self.strategy not in STRATEGIES:
            raise ValueError(f"unknown strategy {self.strategy!r}")
        if self.candidate_mode not in CANDIDATE_MODES:
            raise ValueError(f"unknown candidate mode {self.candidate_mode!r}")
        if self.bootstrap_size < 1:
            raise ValueError("bootstrap_size must be at least 1")
        if self.budget < 0:
            raise ValueError("budget must be nonnegative")
        if self.pool_size < 1:
            raise ValueError("pool_size must be at least 1")


@dataclass(frozen=True)
class TraceEntry:
    """One adaptive selection: iteration, chosen digest, score, outcome."""

    t: int
    digest: str
    score: float | None
    built: bool

    def to_dict(self) -> dict:
        return {"t": self.t, "digest": self.digest, "score": self.score,
                "built": self.built}


class ObservationHistory:
    """Evaluated records in evaluation order, unique by configuration.

    Configurations are keyed by their tuples; ``digests`` derives the
    canonical digests that name them in files and traces.
    """

    def __init__(self, graph: DependencyGraph):
        self.graph = graph
        self._entries: list[BuildRecord] = []
        self._seen: set[Configuration] = set()

    def add(self, record: BuildRecord) -> None:
        check_configuration(self.graph, record.config)
        if record.config in self._seen:
            digest = config_digest(self.graph, record.config)
            raise ValueError(f"configuration {digest} already evaluated")
        self._seen.add(record.config)
        self._entries.append(record)

    def __contains__(self, config: Configuration) -> bool:
        return config in self._seen

    @property
    def entries(self) -> tuple[BuildRecord, ...]:
        return tuple(self._entries)

    @property
    def digests(self) -> tuple[str, ...]:
        """Canonical digest of each evaluated configuration, in order."""
        return tuple(config_digest(self.graph, r.config) for r in self._entries)

    @property
    def good_count(self) -> int:
        return sum(1 for r in self._entries if r.outcome)

    def __len__(self) -> int:
        return len(self._entries)

    def __iter__(self):
        return iter(self._entries)


@dataclass(frozen=True)
class RunResult:
    """A run's history, the score of each adaptive selection, and its final model."""

    history: ObservationHistory
    scores: tuple[float | None, ...]
    model: FactorModel

    @cached_property
    def trace(self) -> tuple[TraceEntry, ...]:
        """One entry per adaptive selection: the records after the bootstrap.

        Built, and its configurations digested, on first access only.
        """
        history = self.history
        selected = history.entries[len(history) - len(self.scores):]
        return tuple(
            TraceEntry(t=t, digest=config_digest(history.graph, record.config), score=score,
                       built=record.outcome)
            for t, (record, score) in enumerate(zip(selected, self.scores), start=1))


class _Candidates:
    """Where a run's candidates come from, and how the next one is chosen.

    Either a fixed matrix of distinct rows with a mask of rows still open, or
    uniform draws: one configuration per bootstrap draw and a fresh pool per
    selection.  One source serves one history, from its first draw on.
    Over fixed rows, bayesian selection goes through a RatioIndex, built at
    the first selection and updated by observe(); crowd selection keeps the
    crowd score of every row, computed at the first selection and again
    after each good record; random selection ties the open rows.  A fresh
    pool is selected from as fixed rows, all open, scored from scratch.
    """

    def __init__(self, graph: DependencyGraph, rows: np.ndarray | None, config: SamplerConfig):
        self.graph = graph
        self.rows = rows
        self.config = config
        self.size = space_size(graph) if rows is None else rows.shape[0]
        self._open = None if rows is None else np.ones(self.size, dtype=bool)
        self._n_open = self.size  # rows of _open still set; unread for pools
        self._ratios: RatioIndex | None = None
        self._crowd: np.ndarray | None = None

    def draw(self, rng: np.random.Generator) -> Configuration:
        """One uniform bootstrap draw; a drawn fixed row closes."""
        if self.rows is None:
            return random_configuration(self.graph, rng)
        index = int(rng.integers(self.size))
        self._n_open -= bool(self._open[index])
        self._open[index] = False
        return tuple(self.rows[index].tolist())

    def _pool(self, history: ObservationHistory, rng: np.random.Generator) -> np.ndarray | None:
        """Distinct unevaluated draws, or None when the retries find none."""
        for _ in range(_POOL_RETRIES):
            drawn = np.column_stack(
                [rng.integers(m, size=self.config.pool_size) for m in self.graph.domain_sizes]
            )
            fresh = [c for c in dict.fromkeys(map(tuple, drawn.tolist())) if c not in history]
            if fresh:
                return np.asarray(fresh, dtype=np.int64)
        return None

    def select(
        self,
        model: FactorModel,
        history: ObservationHistory,
        rng_tie: np.random.Generator,
        rng_pool: np.random.Generator,
    ) -> tuple[Configuration, float | None] | None:
        """The unevaluated candidate with the best score, and the score, or
        None when no candidate is left; a chosen fixed row closes."""
        strategy = self.config.strategy
        rows, open_rows = self.rows, self._open
        if rows is None:
            rows = self._pool(history, rng_pool)
            if rows is None:
                return None
            open_rows, self._crowd = np.ones(rows.shape[0], dtype=bool), None
        elif self._n_open == 0:
            return None
        if strategy == "random":
            tied, score = np.flatnonzero(open_rows), None
        elif strategy == "bayesian" and self.rows is not None:
            if self._ratios is None:
                self._ratios = RatioIndex(model, rows)
            tied, score = self._ratios.best(model, open_rows)
        else:  # bayesian over a pool, or crowd
            if strategy == "bayesian":
                scores = expected_improvement_many(model, rows)
            else:
                if self._crowd is None:
                    self._crowd = crowd_score_many(model, rows)
                scores = np.where(open_rows, self._crowd, -1.0)  # crowd scores are >= 0
            top = scores.max()
            tied, score = np.flatnonzero(scores == top), float(top)
        pick = int(tied[rng_tie.integers(tied.size)])
        open_rows[pick] = False
        self._n_open -= 1
        return tuple(rows[pick].tolist()), score

    def observe(self, model: FactorModel, record: BuildRecord) -> None:
        """Fold a selected record into the index, given the model before it.

        A good record changes the crowd scores; a bad one leaves them as they are.
        """
        if self._ratios is not None:
            self._ratios.add(model, record)
        if record.outcome:
            self._crowd = None


def _candidates(oracle: BuildOracle, graph: DependencyGraph, config: SamplerConfig) -> _Candidates:
    """The oracle's candidates without repeats (first occurrence kept; a
    Dataset's rows as they are), the whole space in exhaustive mode, or
    uniform draws; ValueError when the oracle lists candidates and the
    config asks for pool mode, which would ignore them."""
    listed = oracle.candidate_configurations()
    if listed is not None and config.candidate_mode == "pool":
        raise ValueError("pool mode draws from the whole space, but the oracle lists "
                         "its candidates; use exhaustive mode")
    if isinstance(listed, Dataset):
        if listed.graph != graph:
            raise GraphError("the candidate dataset is over another graph")
        rows = listed.rows
    elif listed is not None:
        rows = check_rows(graph, listed)
        rows = rows[first_occurrences(rows)]
    elif config.candidate_mode == "exhaustive":
        rows = full_space_matrix(graph).astype(np.int64)
    else:
        rows = None
    return _Candidates(graph, rows, config)


def _evaluate(
    oracle: BuildOracle, history: ObservationHistory, config: Configuration, where: str
) -> BuildRecord:
    """Ask the oracle about config and record its answer, which must be a bool."""
    try:
        outcome = oracle.evaluate(config)
    except Exception as exc:
        raise RuntimeError(f"oracle evaluation failed at {where}: {exc}") from exc
    if not isinstance(outcome, (bool, np.bool_)):
        raise RuntimeError(
            f"oracle evaluation failed at {where}: answered {outcome!r}, not a bool")
    record = BuildRecord(config, bool(outcome))
    history.add(record)
    return record


def run(
    oracle: BuildOracle, graph: DependencyGraph, config: SamplerConfig
) -> RunResult:
    """Bootstrap, then adaptively evaluate up to config.budget candidates.

    The bootstrap evaluates bootstrap_size distinct uniform draws from the
    candidates; a draw already evaluated is redrawn.  Raises
    NoCandidatesError when fewer distinct candidates than that exist.  In
    exhaustive mode the history ends with exactly
    bootstrap_size + min(budget, remaining distinct candidates) records.
    """
    rng_boot = substream(config.seed, "bootstrap")
    rng_tie = substream(config.seed, "tie-break")
    rng_pool = substream(config.seed, "pool")

    source = _candidates(oracle, graph, config)
    if source.size < config.bootstrap_size:
        raise NoCandidatesError(f"{source.size} distinct configurations cannot seed "
                                f"a bootstrap of {config.bootstrap_size}")
    history = ObservationHistory(graph)
    while len(history) < config.bootstrap_size:
        cand = source.draw(rng_boot)
        if cand not in history:
            _evaluate(oracle, history, cand, f"bootstrap draw {len(history) + 1}")
    model = fit(history, graph, config.smoothing)
    scores: list[float | None] = []

    for t in range(1, config.budget + 1):
        selected = source.select(model, history, rng_tie, rng_pool)
        if selected is None:
            break
        chosen, score = selected
        record = _evaluate(oracle, history, chosen, f"iteration {t}")
        scores.append(score)
        source.observe(model, record)
        model = refit_incremental(model, record)

    return RunResult(history=history, scores=tuple(scores), model=model)
