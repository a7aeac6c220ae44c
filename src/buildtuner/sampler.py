"""Adaptive selection of build configurations to evaluate.

The loop bootstraps with uniform random draws, fits the factorized
surrogate, then repeatedly evaluates the unseen candidate with the best
strategy score, folding each observation back into the model.  Three
strategies are supported: "bayesian" (expected improvement), "crowd"
(good-side frequency product), and "random" (uniform baseline).  Each makes
the same choice, and draws the same tie-break, as rescoring every open
candidate would (see _Candidates).

A configuration is an int64 row of version indices from selection through
the history to the model.  Rows come from a checked matrix or from the
domains, so the oracle's evaluate is the one check of each: a row becomes a
tuple only there, and a digest only when the run's trace is read.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import cached_property
from typing import Protocol, Sequence

import numpy as np

from .configspace import (
    Configuration,
    DependencyGraph,
    GraphError,
    _digest,
    _row_key,
    _row_keys,
    _space_columns,
    check_rows,
    config_digest,
    first_occurrences,
    random_configurations,
    space_size,
)
from .dataset import BuildRecord, Dataset
from .rng import substream
from .surrogate import (
    FactorModel,
    RatioIndex,
    _check_smoothing,
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
        _check_smoothing(self.smoothing)


@dataclass(frozen=True)
class TraceEntry:
    """One adaptive selection: iteration, chosen digest, score, outcome."""

    t: int
    digest: str
    score: float | None
    built: bool

    def to_dict(self) -> dict:
        return asdict(self)


class ObservationHistory:
    """Evaluated configurations in evaluation order, unique by configuration.

    An insertion-ordered dict maps the key of each row (_row_key) to its
    outcome, and answers membership.  ``dataset`` holds them as a Dataset's
    rows and outcomes; ``entries`` and ``digests`` derive from it.
    """

    def __init__(self, graph: DependencyGraph):
        self.graph = graph
        self._built: dict[bytes, bool] = {}

    def add(self, row: np.ndarray, built: bool) -> None:
        """Record row, an int vector of valid version indices (not checked
        here), and its outcome; ValueError when row was evaluated before."""
        key = _row_key(row)
        if key in self._built:
            raise ValueError(f"configuration {config_digest(self.graph, row.tolist())} "
                             "already evaluated")
        self._built[key] = built

    def unseen(self, rows: np.ndarray) -> np.ndarray:
        """The distinct unevaluated rows of the int matrix rows, in order (read-only)."""
        fresh = [key for key in dict.fromkeys(_row_keys(rows)) if key not in self._built]
        return np.frombuffer(b"".join(fresh), dtype=np.int64).reshape(len(fresh), rows.shape[1])

    def __contains__(self, row) -> bool:
        return _row_key(row) in self._built

    @property
    def dataset(self) -> Dataset:
        rows = np.frombuffer(b"".join(self._built), dtype=np.int64)
        return Dataset._checked(self.graph, rows.reshape(len(self), self.graph.n_packages),
                                np.fromiter(self._built.values(), bool, len(self)))

    @property
    def entries(self) -> tuple[BuildRecord, ...]:
        return self.dataset.records

    @property
    def digests(self) -> tuple[str, ...]:
        """Canonical digest of each evaluated configuration, in order."""
        return tuple(_digest(self.graph, row) for row in self.dataset.rows.tolist())

    @property
    def good_count(self) -> int:
        return sum(self._built.values())

    def __len__(self) -> int:
        return len(self._built)

    def __iter__(self):
        return iter(self.entries)


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
            TraceEntry(t=t, digest=_digest(history.graph, record.config), score=score,
                       built=record.outcome)
            for t, (record, score) in enumerate(zip(selected, self.scores), start=1))


class _Candidates:
    """Where a run's candidates come from, and how the next one is chosen.

    Either a fixed matrix of distinct rows with a mask of rows still open, or
    uniform draws: one configuration per bootstrap draw and a fresh pool per
    selection.  One source serves one history, from its first draw on.
    Over fixed rows, bayesian selection goes through a RatioIndex, built at
    the first selection, told of each row that closes and updated by
    observe(); crowd selection keeps the crowd score of every row, computed
    at the first selection and again after each good record; random
    selection ties the open rows.  A fresh pool is selected from as fixed
    rows, all open, scored from scratch.
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

    def draw(self, rng: np.random.Generator) -> np.ndarray:
        """One uniform bootstrap draw, a row; a drawn fixed row closes."""
        if self.rows is None:
            return random_configurations(self.graph, rng, 1)[0]
        index = int(rng.integers(self.size))
        self._n_open -= bool(self._open[index])
        self._open[index] = False
        return self.rows[index]

    def _pool(self, history: ObservationHistory, rng: np.random.Generator) -> np.ndarray | None:
        """Distinct unevaluated draws, or None when the retries find none."""
        for _ in range(_POOL_RETRIES):
            drawn = np.column_stack(
                [rng.integers(m, size=self.config.pool_size) for m in self.graph.domain_sizes]
            )
            fresh = history.unseen(drawn)
            if fresh.shape[0]:
                return fresh
        return None

    def select(
        self,
        model: FactorModel,
        history: ObservationHistory,
        rng_tie: np.random.Generator,
        rng_pool: np.random.Generator,
    ) -> tuple[np.ndarray, float | None] | None:
        """The unevaluated candidate row with the best score, and the score, or
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
                self._ratios = RatioIndex(model, rows, open_rows)
            tied, score = self._ratios.best(model)
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
        if self._ratios is not None:
            self._ratios.close(pick)
        return rows[pick], score

    def observe(self, model: FactorModel, row: np.ndarray, built: bool) -> None:
        """Fold a selected row and its outcome into the index, given the model
        before it.  A good row changes the crowd scores; a bad one does not."""
        if self._ratios is not None:
            self._ratios.add(model, row, built)
        if built:
            self._crowd = None


def _candidates(oracle: BuildOracle, graph: DependencyGraph, config: SamplerConfig) -> _Candidates:
    """The oracle's candidates without repeats (first occurrence kept; a
    Dataset's rows as they are), the whole space in exhaustive mode (a
    transposed view of its int64 columns, made without a copy), or uniform
    draws; ValueError when the oracle lists candidates and the config asks
    for pool mode, which would ignore them."""
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
        rows = _space_columns(graph, np.int64).T
    else:
        rows = None
    return _Candidates(graph, rows, config)


def _evaluate(
    oracle: BuildOracle, history: ObservationHistory, row: np.ndarray, where: str
) -> bool:
    """Ask the oracle about row, as a configuration tuple, and record its
    answer, which must be a bool."""
    try:
        outcome = oracle.evaluate(tuple(row.tolist()))
    except Exception as exc:
        raise RuntimeError(f"oracle evaluation failed at {where}: {exc}") from exc
    if not isinstance(outcome, (bool, np.bool_)):
        raise RuntimeError(
            f"oracle evaluation failed at {where}: answered {outcome!r}, not a bool")
    history.add(row, bool(outcome))
    return bool(outcome)


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
        row = source.draw(rng_boot)
        if row not in history:
            _evaluate(oracle, history, row, f"bootstrap draw {len(history) + 1}")
    model = fit(history.dataset, graph, config.smoothing)
    scores: list[float | None] = []

    for t in range(1, config.budget + 1):
        selected = source.select(model, history, rng_tie, rng_pool)
        if selected is None:
            break
        row, score = selected
        built = _evaluate(oracle, history, row, f"iteration {t}")
        scores.append(score)
        source.observe(model, row, built)
        model = refit_incremental(model, row, built)

    return RunResult(history=history, scores=tuple(scores), model=model)
