"""Adaptive selection of build configurations to evaluate.

The loop bootstraps with uniform random draws, fits the factorized
surrogate, then repeatedly evaluates the unseen candidate with the best
strategy score, folding each observation back into the model.  Three
strategies are supported: "bayesian" (expected improvement), "crowd"
(good-side frequency product), and "random" (uniform baseline).  Each makes
the same choice, and draws the same tie-break, as rescoring every open
candidate would (see _Candidates).

There is one selection loop, run_many, which advances R runs of one
strategy over one set of candidates in lockstep, each from its own seed's
substreams; run is its one-run call.  The runs share one FactorModel,
refitted in place, and a step selects for all runs at once:
over fixed rows every run evaluates one row a step, so all stop together.
A step finds each run's tie set and nothing else; the score of each
selection is computed on first read of the run's scores, from its history.

A configuration is an int64 row of version indices from selection through
the history to the model.  Rows come from a checked matrix or from the
domains, so the oracle's evaluate is the one check of each: a row becomes a
tuple only there, and a digest only when the run's trace is read.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass, replace
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
from .surrogate import (FactorModel, RatioIndex, _check_smoothing, _fitted, _crowd_prefixes,
                        selection_scores)

__all__ = [
    "STRATEGIES",
    "BuildOracle",
    "NoCandidatesError",
    "ObservationHistory",
    "RunResult",
    "SamplerConfig",
    "TraceEntry",
    "run",
    "run_many",
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
    """A run's history, its final model, and the config it ran."""

    history: ObservationHistory
    model: FactorModel
    config: SamplerConfig

    @cached_property
    def scores(self) -> tuple[float | None, ...]:
        """The score of each adaptive selection, under the model of the
        records before it: None for random selection.

        Computed on first access only, from the history (selection_scores).
        """
        config = self.config
        if config.strategy == "random":
            return (None,) * (len(self.history) - config.bootstrap_size)
        return tuple(selection_scores(self.history.dataset, config.bootstrap_size,
                                      config.strategy, config.smoothing).tolist())

    @cached_property
    def trace(self) -> tuple[TraceEntry, ...]:
        """One entry per adaptive selection: the records after the bootstrap.

        Built, its configurations digested and its scores computed, on first
        access only.
        """
        history = self.history
        selected = history.entries[self.config.bootstrap_size:]
        return tuple(
            TraceEntry(t=t, digest=_digest(history.graph, record.config), score=score,
                       built=record.outcome)
            for t, (record, score) in enumerate(zip(selected, self.scores), start=1))


class _Candidates:
    """Where R lockstep runs' candidates come from, and how each run's next
    one is chosen.

    Either a fixed matrix of distinct rows with a line per run of the rows
    already closed to it, or, for one run, uniform draws: one configuration
    per bootstrap draw and a fresh pool per selection.  Every run evaluates
    its bootstrap and then one row a step, so over fixed rows all runs have
    the same number of rows open and run out at the same step, once their
    histories hold every row.  Over fixed rows, bayesian selection goes
    through a RatioIndex, built at the first selection, which reads the
    closed rows and sums the model as it stands; crowd selection keeps each
    run's crowd score of every row, -1 on a closed row, summed through
    prefix sums (_crowd_prefixes) at the first selection and again after each
    good record of the run (observe()); random selection ties the open
    rows.  A fresh pool is selected from as fixed rows, all open, scored
    from scratch.
    """

    def __init__(self, graph: DependencyGraph, rows: np.ndarray | None, config: SamplerConfig,
                 runs: int):
        self.graph = graph
        self.rows = rows
        self.config = config
        self.size = space_size(graph) if rows is None else rows.shape[0]
        self._closed = None if rows is None else np.zeros((runs, self.size), dtype=bool)
        self._ratios: RatioIndex | None = None
        keeps_crowd = rows is not None and config.strategy == "crowd"
        self._crowd = np.empty((runs, self.size)) if keeps_crowd else None
        self._crowd_sums = None
        self._stale = np.ones(runs, dtype=bool)  # runs whose crowd scores need computing

    def draw(self, run: int, rng: np.random.Generator) -> np.ndarray:
        """One uniform bootstrap draw of run, a row; a drawn fixed row closes."""
        if self.rows is None:
            return random_configurations(self.graph, rng, 1)[0]
        index = int(rng.integers(self.size))
        self._closed[run, index] = True
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
        histories: Sequence[ObservationHistory],
        rngs_tie: Sequence[np.random.Generator],
        rng_pool: np.random.Generator,
    ) -> np.ndarray | None:
        """Each run's unevaluated candidate row with the best score, a line
        per run, or None when no candidate is left; a chosen fixed row
        closes.  A tie set of one row is taken without a draw, which would
        consume nothing from the generator: Generator.integers(1) is 0."""
        strategy = self.config.strategy
        rows, closed = self.rows, self._closed
        if rows is None:
            rows = self._pool(histories[0], rng_pool)
            if rows is None:
                return None
            closed = np.zeros((1, rows.shape[0]), dtype=bool)
        elif len(histories[0]) == self.size:
            return None
        if strategy == "random":
            tied = [np.flatnonzero(~line) for line in closed]
        elif strategy == "bayesian" and self.rows is not None:
            if self._ratios is None:
                self._ratios = RatioIndex(model, rows, closed)
            tied = self._ratios.best(model)
        else:  # bayesian over a pool, or crowd
            if strategy == "bayesian":
                scored = model.expected_improvement(rows)[None]
            elif self.rows is None:
                scored = model.crowd(rows.T)[None]
            else:
                scored = self._crowd_scores(model)
            tied = [np.flatnonzero(line == best) for line, best in zip(scored, scored.max(axis=1))]
        picks = [int(t[0] if t.size == 1 else t[rng.integers(t.size)])
                 for t, rng in zip(tied, rngs_tie)]
        for run, pick in enumerate(picks):  # a pool's line is dropped after the step
            closed[run, pick] = True
            if self._crowd is not None:
                self._crowd[run, pick] = -1.0
        return rows[picks]

    def _crowd_scores(self, model: FactorModel) -> np.ndarray:
        """Each run's crowd score of every fixed row, -1 on a row closed to
        it (crowd scores are >= 0).  A stale run's line is summed afresh
        through the prefix sums, which add as FactorModel.crowd does, so
        each score is its score bit for bit."""
        if self._crowd_sums is None:
            self._crowd_sums = _crowd_prefixes(model.layout, self.rows)
        logs = model.crowd_logs()
        for run in np.flatnonzero(self._stale).tolist():
            line = self._crowd[run:run + 1]
            np.exp(self._crowd_sums.sums(logs[run:run + 1], line), out=line)
            np.copyto(line, -1.0, where=self._closed[run:run + 1])
        self._stale[:] = False
        return self._crowd

    def observe(self, sides: np.ndarray) -> None:
        """Take each run's outcome side (0 for a build, 1 for a failure) of
        its selected row: a good row changes its run's crowd scores; a bad
        one does not."""
        self._stale |= sides == 0


def _candidate_rows(oracle: BuildOracle, graph: DependencyGraph,
                    config: SamplerConfig) -> np.ndarray | None:
    """The oracle's candidates without repeats (first occurrence kept; a
    Dataset's rows as they are), the whole space in exhaustive mode (a
    transposed view of its int64 columns, made without a copy), or None for
    uniform draws; ValueError when the oracle lists candidates and the
    config asks for pool mode, which would ignore them."""
    listed = oracle.candidate_configurations()
    if listed is not None and config.candidate_mode == "pool":
        raise ValueError("pool mode draws from the whole space, but the oracle lists "
                         "its candidates; use exhaustive mode")
    if isinstance(listed, Dataset):
        if listed.graph != graph:
            raise GraphError("the candidate dataset is over another graph")
        return listed.rows
    if listed is not None:
        rows = check_rows(graph, listed)
        return rows[first_occurrences(rows)]
    if config.candidate_mode == "exhaustive":
        return _space_columns(graph, np.int64).T
    return None


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
    return run_many(oracle, graph, [config])[0]


def run_many(
    oracle: BuildOracle, graph: DependencyGraph, configs: Sequence[SamplerConfig]
) -> list[RunResult]:
    """run() of each config, which differ in their seeds alone, advanced in
    lockstep: one selection loop over all runs' array state.

    Each run draws from its own seed's substreams, so its result equals that
    of run(oracle, graph, config) bit for bit.  Several runs need fixed
    candidates (listed ones, or exhaustive mode); ValueError otherwise, or
    when configs is empty or differs in more than the seed.  A ValueError
    of one run's own, from fitting its bootstrap or refitting, is a RunError
    whose run is the index of its config.
    """
    if len({replace(config, seed=0) for config in configs}) != 1:
        raise ValueError("lockstep runs need one or more configs that differ in the seed alone")
    config = configs[0]
    rows = _candidate_rows(oracle, graph, config)
    if rows is None and len(configs) > 1:
        raise ValueError("lockstep runs need fixed candidates, not pool draws")
    source = _Candidates(graph, rows, config, len(configs))
    if source.size < config.bootstrap_size:
        raise NoCandidatesError(f"{source.size} distinct configurations cannot seed "
                                f"a bootstrap of {config.bootstrap_size}")
    histories = []
    for run_index, seed in enumerate(c.seed for c in configs):
        rng_boot = substream(seed, "bootstrap")
        history = ObservationHistory(graph)
        while len(history) < config.bootstrap_size:
            row = source.draw(run_index, rng_boot)
            if row not in history:
                _evaluate(oracle, history, row, f"bootstrap draw {len(history) + 1}")
        histories.append(history)
    boot = [history.dataset for history in histories]
    model = _fitted(graph, config.smoothing, np.concatenate([d.rows for d in boot]),
                    np.concatenate([d.built for d in boot]),
                    np.repeat(np.arange(len(boot)), config.bootstrap_size), len(boot))
    rngs_tie = [substream(c.seed, "tie-break") for c in configs]
    rng_pool = substream(config.seed, "pool")

    for t in range(1, config.budget + 1):
        chosen = source.select(model, histories, rngs_tie, rng_pool)
        if chosen is None:
            break
        # Each run's outcome side: 0 for a build, 1 for a failure.
        sides = np.array([0 if _evaluate(oracle, history, row, f"iteration {t}") else 1
                          for history, row in zip(histories, chosen)])
        source.observe(sides)
        model.fold(model.layout.cells(chosen), sides)

    return [RunResult(history=history, config=c,
                      model=FactorModel(graph, c.smoothing, model.counts[:, [r]], model.layout))
            for r, (history, c) in enumerate(zip(histories, configs))]
