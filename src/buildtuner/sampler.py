"""Adaptive selection of build configurations to evaluate.

The loop bootstraps with uniform random draws, fits the factorized
surrogate, then repeatedly evaluates the unseen candidate with the best
strategy score, folding each observation back into the model.  Three
strategies are supported: "bayesian" (expected improvement), "crowd"
(good-side frequency product), and "random" (uniform baseline).
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

import numpy as np

from .configspace import (
    Configuration,
    DependencyGraph,
    GraphError,
    check_configuration,
    config_digest,
    full_space_matrix,
    random_configuration,
    space_size,
)
from .dataset import BuildRecord
from .rng import substream
from .surrogate import (
    FactorModel,
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
    "bootstrap",
    "run",
    "select_next",
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

    def candidate_configurations(self) -> Sequence[Configuration] | None:
        """Fixed candidate list (a repeat counts once), or None when the
        space is generative."""
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
    crowd_floor: float = 0.0

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
    history: ObservationHistory
    trace: tuple[TraceEntry, ...]
    model: FactorModel


class _Candidates:
    """Where a run's candidates come from.

    Either a fixed matrix of distinct rows with a mask of rows still open, or
    uniform draws: one configuration per bootstrap draw and a fresh pool per
    selection.  One source serves one history, from its first draw on.
    """

    def __init__(self, graph: DependencyGraph, rows: np.ndarray | None, pool_size: int):
        self.graph = graph
        self.rows = rows
        self.pool_size = pool_size
        self.size = space_size(graph) if rows is None else rows.shape[0]
        self._open = None if rows is None else np.ones(self.size, dtype=bool)
        self._offered: np.ndarray | None = None  # row indices of the last offer

    def draw(self, rng: np.random.Generator) -> Configuration:
        """One uniform bootstrap draw; a drawn fixed row closes."""
        if self.rows is None:
            return random_configuration(self.graph, rng)
        index = int(rng.integers(self.size))
        self._open[index] = False
        return tuple(self.rows[index].tolist())

    def offer(self, history: ObservationHistory, rng: np.random.Generator) -> np.ndarray | None:
        """Unevaluated rows for the next selection, or None when none is left."""
        if self.rows is not None:
            self._offered = np.flatnonzero(self._open)
            return self.rows[self._offered] if self._offered.size else None
        for _ in range(_POOL_RETRIES):
            drawn = np.column_stack(
                [rng.integers(m, size=self.pool_size) for m in self.graph.domain_sizes]
            )
            fresh = [c for c in dict.fromkeys(map(tuple, drawn.tolist())) if c not in history]
            if fresh:
                return np.asarray(fresh, dtype=np.int64)
        return None

    def close(self, pick: int) -> None:
        """Keep row pick of the last offer out of later offers."""
        if self.rows is not None:
            self._open[self._offered[pick]] = False


def _candidates(
    oracle: BuildOracle, graph: DependencyGraph, config: SamplerConfig, exhaustive: bool
) -> _Candidates:
    """The oracle's candidates without repeats (first occurrence kept), the
    whole space when exhaustive, or uniform draws."""
    listed = oracle.candidate_configurations()
    if listed is not None:
        configs = list(dict.fromkeys(map(tuple, listed)))
        rows = np.asarray(configs, dtype=np.int64)
        sizes = np.asarray(graph.domain_sizes)
        if configs and (rows.shape[1:] != sizes.shape or ((rows < 0) | (rows >= sizes)).any()):
            raise GraphError("a candidate configuration does not fit the graph")
    elif exhaustive:
        rows = full_space_matrix(graph).astype(np.int64)
    else:
        rows = None
    return _Candidates(graph, rows, config.pool_size)


def _evaluate(
    oracle: BuildOracle, history: ObservationHistory, config: Configuration, where: str
) -> BuildRecord:
    try:
        outcome = oracle.evaluate(config)
    except Exception as exc:
        raise RuntimeError(f"oracle evaluation failed at {where}: {exc}") from exc
    record = BuildRecord(config, outcome)
    history.add(record)
    return record


def _bootstrap(
    source: _Candidates, oracle: BuildOracle, size: int, rng: np.random.Generator
) -> ObservationHistory:
    if source.size < size:
        raise NoCandidatesError(
            f"{source.size} distinct configurations cannot seed a bootstrap of {size}"
        )
    history = ObservationHistory(source.graph)
    while len(history) < size:
        cand = source.draw(rng)
        if cand not in history:
            _evaluate(oracle, history, cand, f"bootstrap draw {len(history) + 1}")
    return history


def _choose(
    model: FactorModel,
    rows: np.ndarray,
    strategy: str,
    rng: np.random.Generator,
    crowd_floor: float,
) -> tuple[int, float | None]:
    """Row index of the best score, and the score; exact ties break uniformly.

    The random strategy treats every row as tied and has no score.
    """
    if strategy == "random":
        return int(rng.integers(rows.shape[0])), None
    if strategy == "bayesian":
        scores = expected_improvement_many(model, rows)
    else:
        scores = crowd_score_many(model, rows, floor=crowd_floor)
    tied = np.flatnonzero(scores == scores.max())
    pick = int(tied[rng.integers(tied.size)])
    return pick, float(scores[pick])


def bootstrap(
    oracle: BuildOracle,
    graph: DependencyGraph,
    config: SamplerConfig,
    rng: np.random.Generator,
) -> ObservationHistory:
    """Evaluate bootstrap_size distinct uniform draws.

    Draws from the oracle's candidates when it lists them, else from the
    whole space; a draw already evaluated is rejected and redrawn.  Raises
    NoCandidatesError when fewer distinct configurations than requested
    exist.
    """
    source = _candidates(oracle, graph, config, exhaustive=False)
    return _bootstrap(source, oracle, config.bootstrap_size, rng)


def select_next(
    model: FactorModel,
    candidates: Iterable[Configuration],
    history: ObservationHistory,
    strategy: str,
    rng: np.random.Generator,
    crowd_floor: float = 0.0,
) -> Configuration:
    """Pick the unevaluated candidate with the best score.

    Ties are broken uniformly with the given generator; the random strategy
    treats every unevaluated candidate as tied.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    unevaluated = [c for c in candidates if tuple(c) not in history]
    if not unevaluated:
        raise NoCandidatesError("every candidate has already been evaluated")
    rows = np.asarray(unevaluated, dtype=np.int64)
    return unevaluated[_choose(model, rows, strategy, rng, crowd_floor)[0]]


def run(
    oracle: BuildOracle, graph: DependencyGraph, config: SamplerConfig
) -> RunResult:
    """Bootstrap, then adaptively evaluate up to config.budget candidates.

    In exhaustive mode the history ends with exactly
    bootstrap_size + min(budget, remaining distinct candidates) records.
    """
    rng_boot = substream(config.seed, "bootstrap")
    rng_tie = substream(config.seed, "tie-break")
    rng_pool = substream(config.seed, "pool")

    source = _candidates(oracle, graph, config,
                         exhaustive=config.candidate_mode == "exhaustive")
    history = _bootstrap(source, oracle, config.bootstrap_size, rng_boot)
    model = fit(history, graph, config.smoothing)
    trace: list[TraceEntry] = []

    for t in range(1, config.budget + 1):
        rows = source.offer(history, rng_pool)
        if rows is None:
            break
        pick, score = _choose(model, rows, config.strategy, rng_tie, config.crowd_floor)
        chosen = tuple(rows[pick].tolist())
        source.close(pick)
        record = _evaluate(oracle, history, chosen, f"iteration {t}")
        trace.append(TraceEntry(t=t, digest=config_digest(graph, chosen), score=score,
                                built=record.outcome))
        model = refit_incremental(model, record)

    return RunResult(history=history, trace=tuple(trace), model=model)
