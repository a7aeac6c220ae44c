"""Factorized categorical surrogate over build outcomes.

Two densities are maintained over the configuration space, one fitted to
configurations that built (the good side) and one to configurations that
failed (the bad side).  Each density factorizes along the dependency graph
into one categorical factor per package and one joint factor per edge, so
a factor never spans more than two packages.  Factors are additive-smoothed
normalized empirical frequencies.  A configuration is an int64 row of
version indices.  Rows from a Dataset or a sampler are not checked again;
fit checks any other records once (check_rows).

The acquisition score for a candidate is the expected improvement

    1 / (prior + ratio * (1 - prior))

where ratio is the bad/good density ratio at the candidate and prior is the
estimated probability that a fresh uniform sample builds.  The score is
computed in log space so that long factor products cannot underflow.

FactorLayout says where a row's cells sit in a side's flat vectors.  A log
density (_log_densities) is one gather of every factor's log weight through
FactorLayout.cells, a line per factor (per block of rows), whose lines are
then added in factor order: a sum over the lines' axis would let numpy add
pairwise, which for a single row of eight or more factors can differ in the
last bit.  The expected improvement gathers both sides' lines at once, so
each side's log densities equal those of its table alone.

There is one model class, FactorModel: the counts and log weights of
each side of R runs, as arrays.  fit and load_model make a model of one
run; the sampler's lockstep runs share one, which a step refits in place.
It scores rows under each run's model in one call, a row's run choosing
its tables, and FactorSide reads one side of a one-run model.

Over a fixed candidate matrix, a RatioIndex gives every row's log ratio
under each run's model at each selection without summing each factor of
each row again.  Rows that agree on their first packages share that
prefix's partial sum in a prefix trie; below the trie each row keeps one
code per package into a table of that package's terms.  Both are summed
afresh from the model's tables at each selection, so an observation
changes the model alone.  The score falls strictly as the ratio grows, so
the best open row is the one with the least log ratio, and no step
exponentiates every row: a step rescores only the near-tie bands that can
hold unequal exact scores, all runs' in one call.  The sampler's crowd
selection sums each run's crowd logs through the same prefix sums, in
package order.

Selection returns tie sets only.  The score of each selection is computed
on first read of a run's scores, by selection_scores, which rebuilds each
step's tables from the run's history and scores every selected row under
its own step's tables in one call.
"""
from __future__ import annotations

import math
import sys
from typing import Iterable, Sequence

import numpy as np

from .configspace import DependencyGraph, GraphError, _read_json, _write_json, check_rows
from .dataset import BuildRecord, Dataset

__all__ = [
    "FactorLayout",
    "FactorModel",
    "RatioIndex",
    "RunError",
    "crowd_score_many",
    "expected_improvement_many",
    "fit",
    "load_model",
    "save_model",
    "selection_scores",
]

# exp() overflows float64 just above 709; +/-700 keeps the ratio finite.
_LOG_RATIO_CLAMP = 700.0

# The density sums and RatioIndex take at most this many rows' cells and logs
# at once, so that their temporaries stay small when a band or index spans a
# space.
_DENSITY_BLOCK = 4096

# selection_scores rebuilds the tables of a block of steps at a time, at most
# this many cells of each side.
_STEP_CELLS = 1 << 14

# RatioIndex.best rescores from scratch every open row whose indexed score
# is within this relative distance of the best.  Indexed log ratios differ
# from a from-scratch sum by float rounding only, from adding the same terms
# in another order (far below 1e-9), and the score's relative change never
# exceeds the log ratio's change, so every exact maximum is rescored.
# best() turns the band into a limit on the log ratio at twice this width,
# so that the rounding of that conversion cannot leave out a row the band
# holds.
_NEAR_TIE = 1e-9


class FactorLayout:
    """Where each factor's cells sit in one flat vector: packages in order, then edges.

    Package i's version v is cell offsets[i] + v; edge (p, c)'s pair (u, w)
    is cell offsets[f] + u * m_c + w, m_c being the child's domain size.
    """

    def __init__(self, sizes: tuple[int, ...], edges: tuple[tuple[int, int], ...]):
        self.shapes = (*((m,) for m in sizes), *((sizes[p], sizes[c]) for p, c in edges))
        self.factor_sizes = np.array([math.prod(s) for s in self.shapes], dtype=np.int64)
        self.largest_factor = int(self.factor_sizes.max())
        self.offsets = np.concatenate(([0], np.cumsum(self.factor_sizes)))
        self.size = int(self.offsets[-1])
        self.cell_sizes = np.repeat(self.factor_sizes, self.factor_sizes)
        self.cell_starts = np.repeat(self.offsets[:-1], self.factor_sizes)
        self.n_nodes = len(sizes)
        self._parents = np.array([p for p, _ in edges], dtype=np.intp)
        self._children = np.array([c for _, c in edges], dtype=np.intp)
        self._strides = np.array([sizes[c] for _, c in edges], dtype=np.intp)[:, None]

    def cells(self, rows: np.ndarray) -> np.ndarray:
        """Flat cell of each row of the int matrix rows in each factor, as an
        intp matrix with a line per factor and a column per row of rows;
        np.take would convert any other index type at every call."""
        k = self.n_nodes
        cells = np.empty((self.factor_sizes.size, rows.shape[0]), dtype=np.intp)
        by_package = cells[:k]
        by_package[...] = rows.T
        edges = cells[k:]
        np.multiply(by_package[self._parents], self._strides, out=edges)
        edges += by_package[self._children]
        edges += self.offsets[k:-1, None]
        by_package += self.offsets[:k, None]
        return cells

    def views(self, flat: np.ndarray) -> tuple[np.ndarray, ...]:
        """Every factor's cells in flat, as views shaped like the factor."""
        return tuple(flat[a:b].reshape(shape) for a, b, shape
                     in zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist(), self.shapes))


class RunError(ValueError):
    """A ValueError of one of several runs, such as the runs of a
    FactorModel: run is its index among them."""

    def __init__(self, run: int, message: str):
        super().__init__(message)
        self.run = run


def _check_weights(n: np.ndarray, smoothing: float, layout: FactorLayout) -> None:
    """RunError for the first run, a column of n (its record count on each
    side, good first), whose smoothing over a side's records rounds the
    least factor weight, that of an unseen cell of the largest factor, to 0.

    A tiny smoothing over many records rounds the weight to 0, and a huge
    one overflows its normalizer; the check computes in Python floats,
    which neither warn nor raise where the arrays would warn.
    """
    for run, counts in enumerate(n.T.tolist()):
        for count in counts:
            if not smoothing / (count + smoothing * layout.largest_factor) > 0:
                raise RunError(run, f"smoothing {smoothing!r} over {count} records "
                                    "rounds a factor weight to 0")


def _smoothed(counts: np.ndarray, n, smoothing: float, layout: FactorLayout) -> np.ndarray:
    """Smoothed frequencies of counts, a flat vector over layout (or one
    per side and run) of n records (a number, or a column of them)."""
    return (counts + smoothing) / (n + smoothing * layout.cell_sizes)


def _success_prior(n_good: int, n_bad: int) -> float:
    """Rule-of-succession estimate of the uniform-sample success rate."""
    return (n_good + 1) / (n_good + n_bad + 2)


def _check_smoothing(smoothing, what: str = "smoothing") -> None:
    """Raise ValueError unless smoothing is a finite float-range number > 0.

    Tables are built from counts without a positivity scan, so every path
    that brings in a smoothing value checks it here.
    """
    try:
        ok = math.isfinite(smoothing) and smoothing > 0
    except OverflowError:  # an int beyond float range
        ok = False
    if not ok:
        raise ValueError(f"{what} must be finite and positive, got {smoothing!r}")


class FactorModel:
    """The good-side and bad-side factor tables of R runs over one graph, as arrays.

    Side 0 is the good side and side 1 the bad one: counts[s, r] and log[s, r]
    are run r's raw counts and log factor weights, flat vectors over the
    layout, and n[s, r] its record count, derived from the counts, since each
    record holds one version of the first package.  Weights are the counts'
    additive-smoothed normalized frequencies.  A fitted or loaded model has
    one run, whose sides good and bad read (good_stats and bad_stats are the
    same views); the sampler's lockstep runs share one model, which a step
    refits in place (fold).
    """

    def __init__(self, graph: DependencyGraph, smoothing: float, counts: np.ndarray,
                 layout: FactorLayout | None = None):
        """The model whose tables are smoothed from counts, an int64 array
        (side, run, cell) over layout (by default, graph's); RunError when
        a run's side would round a weight to 0, run by run, good side first."""
        self.graph, self.smoothing = graph, smoothing
        self.layout = layout = layout or FactorLayout(graph.domain_sizes, graph.edges)
        self.counts = counts
        self.n = counts[..., :layout.offsets[1]].sum(axis=2)
        _check_weights(self.n, smoothing, layout)
        self.log = np.log(_smoothed(counts, self.n[..., None], smoothing, layout))
        self.runs = np.arange(counts.shape[1])
        self.priors = list(map(_success_prior, *self.n.tolist()))

    def _one_run(self) -> None:
        if self.runs.size != 1:
            raise ValueError(f"a model of {self.runs.size} runs has no single side or prior")

    good = good_stats = property(lambda self: FactorSide(self, 0))
    bad = bad_stats = property(lambda self: FactorSide(self, 1))

    @property
    def success_prior(self) -> float:
        """Rule-of-succession estimate of the uniform-sample success rate."""
        self._one_run()
        return self.priors[0]

    def fold(self, cells: np.ndarray, sides: np.ndarray) -> None:
        """Add a record to each run, on its side in sides (0 for a build, 1
        for a failure); cells holds the records' rows as layout.cells gives
        them, a line per factor and a column per run.  The counts' new
        smoothed logs are bit for bit those of a model built from them.
        RunError, before any change, when a run's new side would round a
        weight to 0."""
        runs = self.runs
        n = self.n[sides, runs] + 1
        _check_weights(n[None], self.smoothing, self.layout)
        self.counts[sides, runs, cells] += 1  # a run's cells lie in distinct factors
        self.n[sides, runs] = n
        self.log[sides, runs] = np.log(_smoothed(self.counts[sides, runs], n[:, None],
                                                 self.smoothing, self.layout))
        self.priors = list(map(_success_prior, *self.n.tolist()))

    def expected_improvement(self, matrix: np.ndarray, runs: np.ndarray | None = None,
                             picks: np.ndarray | None = None,
                             out: np.ndarray | None = None) -> np.ndarray:
        """Expected improvement of each row of matrix, or of its rows at the
        indices picks, under the model of its run, given by runs (by default,
        run 0 for every row), into the first entries of out if given.  The
        rows go a block at a time, so that no other array spans them.  Both
        sides' logs are gathered at once and summed in factor order, so each
        log density equals that of its side's table alone bit for bit."""
        n = matrix.shape[0] if picks is None else picks.size
        out = np.empty(n) if out is None else out[:n]
        one = runs is None or self.runs.size == 1  # one table: no offsets, one prior
        step = _DENSITY_BLOCK // 2  # rows whose logs fill a block
        for start in range(0, n, step):
            part = slice(start, start + step)
            rows = matrix[part] if picks is None else matrix[picks[part]]
            good, bad = _log_densities(self.layout, self.log.reshape(2, -1), rows,
                                       None if one else runs[part])
            ratio = np.exp(np.clip(bad - good, -_LOG_RATIO_CLAMP, _LOG_RATIO_CLAMP))
            out[part] = _ei(ratio, self.priors[0] if one else np.take(self.priors, runs[part]))
        return out

    def crowd_logs(self) -> np.ndarray:
        """Each run's log good-side frequency, count / n, of each package's
        versions, a line per run over the layout's package cells: -inf
        throughout for a run with no good record, whose every product is 0."""
        k, n = self.layout.n_nodes, self.n[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            logs = np.log(self.counts[0, :, :self.layout.offsets[k]] / n[:, None])
        logs[n == 0] = -np.inf
        return logs

    def crowd(self, columns: np.ndarray, runs=0) -> np.ndarray:
        """Crowd score of every row whose versions columns holds, a line per
        package (a contiguous line gathers fastest), from the good-side counts
        of its run: runs is one run for every row, or a run per row.  A row's
        logs are summed in package order."""
        logs = self.crowd_logs()
        if np.ndim(runs):  # a run per row: its run's offset joins each version
            logs, columns = logs.ravel(), columns + runs * logs.shape[1]
        else:
            logs = logs[runs]
        # Package by package, each version indexing the logs from its
        # package's first cell on: one gather of every package's cells at
        # once is slower over thousands of rows.
        starts = self.layout.offsets[:self.layout.n_nodes].tolist()
        total = np.take(logs, columns[0])
        for i in range(1, len(starts)):
            total += np.take(logs[starts[i]:], columns[i])
        return np.exp(total)


class FactorSide:
    """One side of a model of one run, read-only: its record count n, its
    counts and log weights over the layout (views of the model's arrays as
    they are), and its smoothed weights.  node_counts[i][v] counts records
    with package i at version v, edge_counts[j][u, w] those with edge j's
    pair (u, w); node_weights and edge_weights shape the weights alike."""

    def __init__(self, model: FactorModel, side: int):
        model._one_run()
        self.layout = layout = model.layout
        self.n = int(model.n[side, 0])
        self.counts, self.log = model.counts[side, 0], model.log[side, 0]
        self.weights = _smoothed(self.counts, self.n, model.smoothing, layout)
        for array in (self.counts, self.log, self.weights):
            array.flags.writeable = False
        k, weights = layout.n_nodes, layout.views(self.weights)
        self.factors = layout.views(self.counts)  # packages in order, then edges
        self.node_counts, self.edge_counts = self.factors[:k], self.factors[k:]
        self.node_weights, self.edge_weights = weights[:k], weights[k:]


def _tally(layout: FactorLayout, cells: np.ndarray, sides: np.ndarray, runs=0,
           n_runs: int = 1) -> np.ndarray:
    """The counts (side, run, cell) over layout of records whose rows' cells
    layout.cells gives, a column per record, on sides (0 for a build, 1 for
    a failure) and of runs (an index per record, or one for all of them)."""
    where = (sides * n_runs + runs) * layout.size + cells
    return np.bincount(where.ravel(), minlength=2 * n_runs * layout.size).reshape(
        2, n_runs, layout.size)


def _fitted(graph: DependencyGraph, smoothing: float, rows: np.ndarray, built: np.ndarray,
            runs=0, n_runs: int = 1) -> FactorModel:
    """The model of n_runs runs fitted to the records of the int matrix rows
    (valid version indices, not checked) and their outcomes built, of runs
    (an index per row, or one for all of them)."""
    layout = FactorLayout(graph.domain_sizes, graph.edges)
    sides = (~built).astype(np.intp)
    return FactorModel(graph, smoothing, _tally(layout, layout.cells(rows), sides, runs, n_runs),
                       layout)


def fit(
    history: Dataset | Iterable[BuildRecord], graph: DependencyGraph, smoothing: float = 1.0
) -> FactorModel:
    """Fit both factor tables from scratch.

    A Dataset's rows and outcomes, checked when it was made, are read as
    they are; it must be over graph (GraphError otherwise).  Any other
    records are checked once, by check_rows.  An empty history yields
    uniform factors on both sides and a success prior of one half.
    """
    _check_smoothing(smoothing)
    if isinstance(history, Dataset):
        if history.graph != graph:
            raise GraphError("the dataset is over another graph")
        return _fitted(graph, smoothing, history.rows, history.built)
    records = list(history)
    rows = check_rows(graph, [record.config for record in records])
    built = np.array([bool(record.outcome) for record in records], dtype=bool)
    return _fitted(graph, smoothing, rows, built)


def refit_incremental(model: FactorModel, row: np.ndarray, built: bool) -> FactorModel:
    """A copy of a one-run model with row, an int vector of valid version
    indices (not checked), and its outcome folded in; the model is left as
    it was.  The result is cell-for-cell identical to a full refit on the
    extended history.  The sampler folds its model in place instead; this
    copying form is the reference its tests compare against."""
    updated = FactorModel(model.graph, model.smoothing, model.counts.copy(), model.layout)
    updated.fold(model.layout.cells(row[None]), np.array([0 if built else 1]))
    return updated


def _log_densities(layout: FactorLayout, logs: np.ndarray, rows: np.ndarray,
                   tables: np.ndarray | None = None) -> np.ndarray:
    """Log of the unnormalized factor product of each of rows (valid version
    indices, check_rows) under each line of logs, a stack of log tables over
    layout: one line of row sums per table.  A line may hold several tables
    end to end; tables then gives each row the index of the one it is summed
    under (by default, the first)."""
    cells = layout.cells(rows)
    if tables is not None:
        cells += tables * layout.size
    # np.take gathers from a flat vector faster than indexing it does.
    lines = np.take(logs, cells, axis=1)
    # Factor by factor, not a sum over the factors' axis: see the module docstring.
    total = lines[:, 0].copy()
    for factor in range(1, lines.shape[1]):
        total += lines[:, factor]
    return total


def _ei(ratio, prior):
    """Expected improvement for a float or an array of bad/good density ratios.

    Equals 1/prior at ratio 0, 1 at ratio 1, and decreases strictly as the
    ratio grows.
    """
    return 1.0 / (prior + ratio * (1.0 - prior))


def expected_improvement_many(model: FactorModel, matrix: np.ndarray) -> np.ndarray:
    """Expected improvement of each row of matrix, from its bad/good density
    ratio; ValueError for a model of several runs."""
    model._one_run()
    return model.expected_improvement(matrix)


def crowd_score_many(model: FactorModel, matrix: np.ndarray) -> np.ndarray:
    """Product of raw good-side per-package frequencies for each row.

    Frequencies are unsmoothed; with no good observations (or a version
    never seen good) the product is zero.  The rows of matrix must hold
    valid version indices (check_rows).  ValueError for a model of several
    runs.
    """
    model._one_run()
    return model.crowd(matrix.T)


def selection_scores(history: Dataset, start: int, strategy: str,
                     smoothing: float) -> np.ndarray:
    """The score under strategy, "bayesian" or "crowd", of each record of
    history from start on, under the model of the records before it: the
    scores of a run's selections, start being its bootstrap size.

    A step's tables are the counts of the first start records plus a
    cumulative sum of the selected rows' cells, smoothed and logged as
    FactorModel.fold does, so each score is bit for bit the one the run's
    step would have computed.  A block of W = max(1, _STEP_CELLS //
    layout.size) steps is one FactorModel, whose run i is step i's model,
    and its rows are scored in one call, row i under run i; the blocks keep
    the rebuilt tables small.
    """
    graph, rows = history.graph, history.rows
    layout = FactorLayout(graph.domain_sizes, graph.edges)
    sides = (~history.built).astype(np.intp)  # 0 for a build, 1 for a failure
    cells = layout.cells(rows)
    counts = _tally(layout, cells[:, :start], sides[:start])
    scores = np.empty(rows.shape[0] - start)
    width = max(1, _STEP_CELLS // layout.size)
    for a in range(start, rows.shape[0], width):
        steps = np.arange(min(width, rows.shape[0] - a))
        b = a + steps.size
        # Each step's record on its side, summed along the steps: the counts
        # after each step, less its own record: those before it.
        added = _tally(layout, cells[:, a:b], sides[a:b], steps, steps.size)
        after = np.cumsum(added, axis=1)
        after += counts
        model = FactorModel(graph, smoothing, np.subtract(after, added, out=added), layout)
        if strategy == "bayesian":
            scores[a - start:b - start] = model.expected_improvement(rows[a:b], steps)
        else:
            scores[a - start:b - start] = model.crowd(rows[a:b].T, steps)
        counts = after[:, -1:]
    return scores


def _flat(layout: FactorLayout, log: np.ndarray) -> np.ndarray:
    """Whether every factor of both sides of each run's logs, a model's log
    array, has one log weight for all its cells: a bool per run."""
    return (log == log.take(layout.cell_starts, axis=2)).all(axis=(0, 2))


class _PrefixSums:
    """Each row's sum, over a fixed matrix of distinct rows, of the values
    of its cells in some factors, under each line of a values matrix (flat
    vectors over the factors' cells), with the packages' terms added in a
    given order.

    A package's level adds its own cell plus, when it has parents, its
    first parent's edge cell, through one code into a level table of their
    sums, and the edge cell of each further parent through one flat-cell
    code into the table's copy of the values.  Rows that agree on the first
    packages share a node of a prefix trie (Fredkin 1960) over the order,
    whose sum is its parent node's plus its level's codes.  A level joins
    the trie while it has at most half as many nodes as there are rows, and
    while the pairs (node above, version) it ranks span at most four per
    row, which only domains of more than eight versions can break: a trie of
    every level ran about three times slower a step on 31,186 random rows of
    61 packages.  The rows are distinct, so the last level never joins: a
    dense space leaves that one out, a sparse replay most of them.  Each
    level below the trie keeps each row's codes, whose terms a sum adds to
    that of the row's node on the trie's last level, level by level.
    """

    def __init__(self, rows: np.ndarray, sizes: Sequence[int], offsets: Sequence[int],
                 order: Sequence[int], into: Sequence[Sequence[tuple[int, int]]], runs: int):
        """Sum over rows, an int matrix of distinct rows of valid version
        indices, for runs lines of values at once.  Package i's version v is
        cell offsets[i] + v of the values, and into[c] lists (edge factor,
        parent) of each of c's parents, edge f's pair (u, v) being cell
        offsets[f] + u * sizes[c] + v; offsets ends with the values' length."""
        n = rows.shape[0]
        # The table: each level's package cell plus its first parent's edge
        # cell, for the packages with parents (the first `edged` entries),
        # then each other package's cell, then the values as they are, for
        # the flat-cell codes.
        cells, edge_cells, bases = [], [], {}
        for c in sorted(order, key=lambda c: not into[c]):
            m, bases[c] = sizes[c], len(cells)
            if into[c]:
                f, p = into[c][0]
                cells += [offsets[c] + w for _ in range(sizes[p]) for w in range(m)]
                edge_cells += range(offsets[f], offsets[f + 1])
            else:
                cells += range(offsets[c], offsets[c] + m)
        flat = len(cells)
        self._cells = np.array([*cells, *range(offsets[-1])], dtype=np.intp)
        self._edge_cells = np.array(edge_cells, dtype=np.intp)
        self._table = np.empty((runs, self._cells.size))
        self._edged = self._table[:, :len(edge_cells)]
        # Level by level, a row's node is the rank of (its node above, its
        # version) among the pairs present, so nodes stay in prefix order.
        # Each row's pair is made twice rather than held, which would raise
        # the build's peak memory.
        node, count, levels = np.zeros(n, dtype=np.intp), 1, []
        for c in order:
            m = sizes[c]
            if count * m > 4 * n:
                break
            present = np.zeros(count * m, dtype=bool)
            present[node * m + rows[:, c]] = True
            count = int(np.count_nonzero(present))
            if count > n / 2:
                break
            node = (np.cumsum(present) - 1)[node * m + rows[:, c]]
            pairs = np.flatnonzero(present)
            codes = []
            for f, p in into[c]:
                # Each node's pair in edge f, from its version of p in any row it holds.
                cell = np.empty(count, dtype=np.intp)
                cell[node] = rows[:, p]
                cell *= m
                cell += pairs % m
                # The first parent's pair indexes the level table, a further
                # parent's the values' copy.
                cell += offsets[f] + flat if codes else bases[c]
                codes.append(cell)
            if not codes:
                codes.append(pairs % m + bases[c])
            levels.append((pairs // m, codes, count))
        self._leaf = node
        below = order[len(levels):]
        self._codes = np.empty((sum(max(1, len(into[c])) for c in below), n), dtype=np.intp)
        lines = iter(self._codes)
        for c in below:
            if not into[c]:
                np.add(rows[:, c], bases[c], out=next(lines))
            for i, (f, p) in enumerate(into[c]):
                line = next(lines)
                np.multiply(rows[:, p], sizes[c], out=line)
                line += rows[:, c]
                line += offsets[f] + flat if i else bases[c]
        # Each level's sums, and one buffer for every gather, viewed in its shape.
        self._root = np.zeros((runs, 1))
        gathered = np.empty(runs * max([n if below else 0, *(level[2] for level in levels)]))
        self._levels = [(parent, codes, np.empty((runs, count)),
                         gathered[:runs * count].reshape(runs, count))
                        for parent, codes, count in levels]
        self._gathered = gathered[:runs * n].reshape(runs, n) if below else None

    def sums(self, values: np.ndarray, out: np.ndarray) -> np.ndarray:
        """Write each row's sum under each of the runs lines of values into
        out, a C-contiguous float array with a line of rows per line of
        values; return out.  From 0.0, a row's sum adds package by package
        in the order its level table entry (the package's cell plus its
        first parent's edge cell, summed first) and then each further
        parent's edge cell: with no edge factors, its terms one by one."""
        # mode="clip" lets take write into out without a buffer.
        table = values.take(self._cells, axis=1, out=self._table, mode="clip")
        self._edged += values.take(self._edge_cells, axis=1)
        above = self._root
        for parent, codes, sums, gathered in self._levels:
            above.take(parent, axis=1, out=sums, mode="clip")
            for code in codes:
                sums += table.take(code, axis=1, out=gathered, mode="clip")
            above = sums
        above.take(self._leaf, axis=1, out=out, mode="clip")
        # Level by level over all rows: blocks of rows that stay in cache
        # ran slower, from the calls they add.
        for code in self._codes:
            out += table.take(code, axis=1, out=self._gathered, mode="clip")
        return out


def _crowd_prefixes(layout: FactorLayout, rows: np.ndarray) -> _PrefixSums:
    """Prefix sums over rows of one run's FactorModel.crowd_logs at a time:
    the packages in their order, their node cells only, so that each sum
    makes FactorModel.crowd's additions in its order, bit for bit."""
    k = layout.n_nodes
    return _PrefixSums(rows, layout.factor_sizes[:k].tolist(), layout.offsets[:k + 1].tolist(),
                       range(k), [()] * k, 1)


class RatioIndex:
    """Bad/good log density ratio of each row of a fixed matrix under each
    run of a FactorModel, for selection.

    A row's log ratio sums, package by package in a topological order, the
    bad-side logs less the good-side ones of the package's cell and of the
    edge cells from its parents, through prefix sums over the rows
    (_PrefixSums), summed afresh from the model's tables at each selection,
    all runs at once.  An observation changes the model alone.  The rows,
    the trie and the codes below it are the runs' common part.

    The rows closed to a run are those set in its line of closed, a bool
    array that its owner writes and the index reads as it stands at each
    call: a closed row's log ratio is +inf, so a run's open rows are those
    of finite log ratio, and its best open row is the one with the least:
    the score falls as the ratio grows.  best() turns each run's near-tie
    band of scores into a limit on the log ratio once per step, and settles
    the open rows within it: only a band that can hold rows of unequal exact
    scores is rescored, every run's such band in one call.  Selection needs
    the tie set alone; the score of a selection is computed when a run's
    scores are read (selection_scores).
    """

    def __init__(self, model: FactorModel, rows: np.ndarray, closed: np.ndarray):
        """Index rows, an int matrix of distinct rows of valid version
        indices, under each run of model, a run's rows closed where its line
        of closed is set."""
        layout, graph = model.layout, model.graph
        into = [[] for _ in graph.packages]  # (edge factor, parent) of each package
        for e, (parent, child) in enumerate(graph.edges):
            into[child].append((layout.n_nodes + e, parent))
        self.rows, self.closed = rows, closed
        self._prefixes = _PrefixSums(rows, graph.domain_sizes, layout.offsets.tolist(),
                                     graph.topological_order, into, closed.shape[0])
        self._log_ratio = np.empty(closed.shape)
        self._mask = np.empty(closed.shape, dtype=bool)

    def log_ratio(self, model: FactorModel) -> np.ndarray:
        """Each run's log ratio of each row under model, and +inf for a
        closed row: a line per run, up to float rounding the bad side's
        _log_densities less the good side's.  The array is a buffer that the
        next call overwrites."""
        self._prefixes.sums(model.log[1] - model.log[0], self._log_ratio)
        np.copyto(self._log_ratio, np.inf, where=self.closed)
        return self._log_ratio

    def near(self, model: FactorModel) -> np.ndarray:
        """Each run's open rows whose indexed score is within a relative
        _NEAR_TIE of its best, that of its open row with the least log ratio,
        as a mask with a line per run; the band is one limit on a run's log
        ratio, so a few more rows may pass.  The mask is a buffer that the
        next call overwrites."""
        log_ratio = self.log_ratio(model)
        limits = []
        for least, prior in zip(log_ratio.min(axis=1).tolist(), model.priors):
            top = _ei(math.exp(min(max(least, -_LOG_RATIO_CLAMP), _LOG_RATIO_CLAMP)), prior)
            # score >= top * (1 - tol)  <=>  ratio <= (1 / (top * (1 - tol)) - prior) / (1 - prior).
            # The limit exceeds the least ratio, so it lies above the lower
            # clamp and every row clipped there passes; past the upper clamp
            # every open row clips to at most the limit, and the largest
            # float passes every open row.
            limit = math.log((1.0 / (top * (1.0 - 2.0 * _NEAR_TIE)) - prior) / (1.0 - prior))
            limits.append(limit if limit < _LOG_RATIO_CLAMP else sys.float_info.max)
        return np.less_equal(log_ratio, np.array(limits)[:, None], out=self._mask)

    def best(self, model: FactorModel) -> list[np.ndarray]:
        """Each run's open rows with the highest expected improvement, ascending.

        Every run needs an open row.  A run's band, its line of near(),
        holds every exact maximum, so a band of one row is its tie set.
        When every factor of both sides of a run's model weighs its cells
        alike, each open row sums the same logs in the same order and so
        scores exactly the same: the band holds every open row, and is the
        tie set too.  The other bands are rescored in one call, all runs'
        rows at once, and each is cut back to its exact maxima.
        """
        bands = [np.flatnonzero(line) for line in self.near(model)]
        rescored = [band.size > 1 for band in bands]
        if any(rescored):
            rescored = ~_flat(model.layout, model.log) & rescored
        if any(rescored):
            runs = np.flatnonzero(rescored).tolist()
            sizes = [bands[run].size for run in runs]
            # The rescored bands are held once, as the picks, and the scores
            # go to the log ratios' buffer, spent once near() has read it.
            picks = np.concatenate([bands[run] for run in runs])
            bands = [None if rescore else band for band, rescore in zip(bands, rescored)]
            exact = model.expected_improvement(self.rows, np.repeat(runs, sizes), picks,
                                               self._log_ratio.ravel())
            for run, size in zip(runs, sizes):
                band, picks = picks[:size], picks[size:]
                scores, exact = exact[:size], exact[size:]
                bands[run] = band[scores == scores.max()]
        return bands


def save_model(model: FactorModel, path: str) -> None:
    """Serialize counts, smoothing, and the graph; tables rebuild on load."""
    def side_payload(stats: FactorSide) -> dict:
        return {
            "n": stats.n,
            "nodes": [c.tolist() for c in stats.node_counts],
            "edges": [
                {
                    "parent": model.graph.packages[p],
                    "child": model.graph.packages[c],
                    "counts": counts.tolist(),
                }
                for (p, c), counts in zip(model.graph.edges, stats.edge_counts)
            ],
        }

    payload = {
        "format": 1,
        "smoothing": model.smoothing,
        "success_prior": model.success_prior,
        "graph": model.graph.to_dict(),
        "good": side_payload(model.good_stats),
        "bad": side_payload(model.bad_stats),
    }
    _write_json(path, payload)


def _field(data, key: str, kind, what: str, where: str = ""):
    """data[key], which must hold a JSON value of the given kind."""
    value = data.get(key) if isinstance(data, dict) else None
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ValueError(f"model field {where}{key} is missing or not {what}")
    return value


def _counts(value, shape: tuple[int, ...], n: int, where: str) -> np.ndarray:
    """A saved count array: integral, nonnegative, of the factor's shape, summing to n."""
    try:
        counts = np.asarray(value)
    except (ValueError, OverflowError):  # ragged or out of int64 range
        counts = None
    if counts is None or counts.dtype.kind != "i" or counts.shape != shape:
        raise ValueError(f"model {where} must be an integer array of shape {shape}")
    if counts.min() < 0:
        raise ValueError(f"model {where} has a negative count")
    total = counts.sum(dtype=object)  # exact: int64 sums may wrap
    if total != n:
        raise ValueError(f"model {where} sums to {total}, not the side's n = {n}")
    return counts.astype(np.int64)


def load_model(path: str) -> FactorModel:
    """Read a saved model, checking every field; raise ValueError on a bad one."""
    payload = _read_json(path, ValueError)
    version = payload.get("format") if isinstance(payload, dict) else None
    if type(version) is not int or version != 1:  # JSON true and 1.0 equal 1
        raise ValueError(f"unsupported model format {version!r}")
    graph = DependencyGraph.from_dict(_field(payload, "graph", dict, "an object"))
    smoothing = _field(payload, "smoothing", (int, float), "a number")
    _check_smoothing(smoothing, "model smoothing")
    smoothing = float(smoothing)
    sizes = graph.domain_sizes

    def side_counts(side: str) -> np.ndarray:
        data = _field(payload, side, dict, "an object")
        where = f"{side}."
        n = _field(data, "n", int, "an integer", where)
        if n >= 2**63:  # the model's record counts are int64 sums
            raise ValueError(f"model {side}.n {n} is beyond int64 range")
        nodes = _field(data, "nodes", list, "a list", where)
        if len(nodes) != graph.n_packages:
            raise ValueError(
                f"model {side}.nodes has {len(nodes)} factors, not {graph.n_packages}"
            )
        node_counts = tuple(
            _counts(counts, (size,), n, f"{side}.nodes[{i}]")
            for i, (counts, size) in enumerate(zip(nodes, sizes))
        )
        names = [(graph.packages[p], graph.packages[c]) for p, c in graph.edges]
        by_edge = {}
        for entry in _field(data, "edges", list, "a list", where):
            key = (_field(entry, "parent", str, "a string", f"{side}.edges[]."),
                   _field(entry, "child", str, "a string", f"{side}.edges[]."))
            if key not in names:
                raise ValueError(f"model {side}.edges has counts for {key}, not a graph edge")
            if key in by_edge:
                raise ValueError(f"model {side}.edges lists edge {key} twice")
            by_edge[key] = entry
        edges = []
        for (p, c), key in zip(graph.edges, names):
            if key not in by_edge:
                raise ValueError(f"model is missing counts for edge {key}")
            counts = _field(by_edge[key], "counts", list, "a list", f"{side}.edges[].")
            edges.append(_counts(counts, (sizes[p], sizes[c]), n, f"{side} edge {key}"))
        return np.concatenate([c.ravel() for c in (*node_counts, *edges)])

    model = FactorModel(graph, smoothing, np.array([[side_counts("good")], [side_counts("bad")]]))
    prior = _field(payload, "success_prior", (int, float), "a number")
    if prior != model.success_prior:
        raise ValueError(
            f"model success_prior {prior!r} differs from {model.success_prior!r}, "
            "the value its counts give"
        )
    return model
