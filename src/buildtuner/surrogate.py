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

Over a fixed candidate matrix, a RatioIndex gives every row's log ratio at
each selection without summing each factor of each row again.  Rows that
agree on their first packages share that prefix's partial sum in a prefix
trie, summed afresh from the tables level by level; the factors below the
trie keep each row's sum, updated in place by each observation.  The score
falls strictly as the ratio grows, so the best open row is the one with the
least log ratio, and no step exponentiates every row.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable

import numpy as np

from .configspace import DependencyGraph, GraphError, _read_json, _write_json, check_rows
from .dataset import BuildRecord, Dataset

__all__ = [
    "FactorLayout",
    "FactorModel",
    "FactorTable",
    "RatioIndex",
    "SideStats",
    "crowd_score_many",
    "expected_improvement_many",
    "fit",
    "load_model",
    "refit_incremental",
    "save_model",
]

# exp() overflows float64 just above 709; +/-700 keeps the ratio finite.
_LOG_RATIO_CLAMP = 700.0

# The density sums and RatioIndex take at most this many rows' cells and logs
# at once, so that their temporaries stay small when a band or index spans a
# space.
_DENSITY_BLOCK = 4096

# RatioIndex.best rescores from scratch every open row whose indexed score
# is within this relative distance of the best.  Indexed log ratios differ
# from a from-scratch sum by float rounding only, the trie's from summing in
# another order and the suffix's from its in-place updates (far below 1e-9
# over any run), and the score's relative change never exceeds the log
# ratio's change, so every exact maximum is rescored.  best() turns the band
# into a limit on the log ratio at twice this width, so that the rounding of
# that conversion cannot leave out a row the band holds.
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


@dataclass(frozen=True, eq=False)
class SideStats:
    """Raw observation counts for one outcome side, one flat vector over the layout.

    node_counts[i][v] counts records with package i at version v;
    edge_counts[(p, c)][u, w] counts records with the pair (u, w) active.
    Both are views of counts.
    """

    n: int
    counts: np.ndarray
    layout: FactorLayout

    @classmethod
    def empty(cls, layout: FactorLayout) -> "SideStats":
        return cls(n=0, counts=np.zeros(layout.size, dtype=np.int64), layout=layout)

    @cached_property
    def factors(self) -> tuple[np.ndarray, ...]:
        """Every factor's counts: packages in order, then edges."""
        return self.layout.views(self.counts)

    @property
    def node_counts(self) -> tuple[np.ndarray, ...]:
        return self.factors[:self.layout.n_nodes]

    @property
    def edge_counts(self) -> tuple[np.ndarray, ...]:
        return self.factors[self.layout.n_nodes:]

    def add(self, rows: np.ndarray) -> "SideStats":
        """These counts plus one record per row of the int matrix rows, in a new buffer."""
        added = np.bincount(self.layout.cells(rows).ravel(), minlength=self.layout.size)
        return SideStats(n=self.n + rows.shape[0], counts=self.counts + added,
                         layout=self.layout)


@dataclass(frozen=True, eq=False)
class FactorTable:
    """Per-package and per-edge factor weights, with cached logarithms.

    weights and log are flat vectors over the layout; node_weights and
    edge_weights are views of weights shaped like the factors.  Fitted
    tables are normalized (every factor sums to 1); the density operations
    only require strictly positive weights.
    """

    weights: np.ndarray
    log: np.ndarray
    layout: FactorLayout

    @cached_property
    def _weight_factors(self) -> tuple[np.ndarray, ...]:
        return self.layout.views(self.weights)

    @property
    def node_weights(self) -> tuple[np.ndarray, ...]:
        return self._weight_factors[:self.layout.n_nodes]

    @property
    def edge_weights(self) -> tuple[np.ndarray, ...]:
        return self._weight_factors[self.layout.n_nodes:]

    @classmethod
    def from_counts(cls, stats: SideStats, smoothing: float) -> "FactorTable":
        """Smoothed frequencies; raise ValueError unless every one is positive.

        The smallest is that of an unseen cell of the largest factor.  A
        tiny smoothing over many records rounds it to 0, and a huge one
        overflows its normalizer.  It is checked first, on Python floats,
        which neither warn nor raise where the arrays would warn.
        """
        if not smoothing / (stats.n + smoothing * stats.layout.largest_factor) > 0:
            raise ValueError(
                f"smoothing {smoothing!r} over {stats.n} records rounds a factor weight to 0")
        weights = (stats.counts + smoothing) / (stats.n + smoothing * stats.layout.cell_sizes)
        return cls(weights=weights, log=np.log(weights), layout=stats.layout)


@dataclass(frozen=True, eq=False)
class FactorModel:
    """Good-side and bad-side factor tables plus the build success prior."""

    graph: DependencyGraph
    smoothing: float
    good_stats: SideStats
    bad_stats: SideStats
    good: FactorTable
    bad: FactorTable

    @property
    def n_good(self) -> int:
        return self.good_stats.n

    @property
    def n_bad(self) -> int:
        return self.bad_stats.n

    @property
    def success_prior(self) -> float:
        """Rule-of-succession estimate of the uniform-sample success rate."""
        return (self.n_good + 1) / (self.n_good + self.n_bad + 2)


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
        rows, built = history.rows, history.built
    else:
        records = list(history)
        rows = check_rows(graph, [record.config for record in records])
        built = np.array([bool(record.outcome) for record in records], dtype=bool)
    empty = SideStats.empty(FactorLayout(graph.domain_sizes, graph.edges))
    return _from_counts(graph, smoothing, empty.add(rows[built]), empty.add(rows[~built]))


def _from_counts(graph: DependencyGraph, smoothing: float, good: SideStats,
                 bad: SideStats) -> FactorModel:
    """The model whose tables are smoothed from the counts good and bad."""
    return FactorModel(
        graph=graph,
        smoothing=smoothing,
        good_stats=good,
        bad_stats=bad,
        good=FactorTable.from_counts(good, smoothing),
        bad=FactorTable.from_counts(bad, smoothing),
    )


def refit_incremental(model: FactorModel, row: np.ndarray, built: bool) -> FactorModel:
    """Fold row, an int vector of valid version indices (not checked), and
    its outcome into the model.  Only the table on the outcome's side
    changes; the result is cell-for-cell identical to a full refit on the
    extended history."""
    side = "good" if built else "bad"
    stats = getattr(model, f"{side}_stats").add(row[None])
    table = FactorTable.from_counts(stats, model.smoothing)
    return replace(model, **{f"{side}_stats": stats, side: table})


def _log_densities(layout: FactorLayout, logs: np.ndarray, matrix: np.ndarray) -> np.ndarray:
    """Log of the unnormalized factor product of each row of matrix (valid
    version indices, check_rows) under each line of logs, a stack of log
    tables over layout: one line of row sums per table."""
    out = np.empty((logs.shape[0], matrix.shape[0]))
    step = _DENSITY_BLOCK // logs.shape[0]  # rows whose logs fill a block
    for start in range(0, matrix.shape[0], step):
        # np.take gathers from a flat vector faster than indexing it does.
        lines = np.take(logs, layout.cells(matrix[start:start + step]), axis=1)
        block = out[:, start:start + step]
        # Factor by factor, not a sum over the factors' axis: see the module docstring.
        block[:] = lines[:, 0]
        for factor in range(1, lines.shape[1]):
            block += lines[:, factor]
    return out


def _ei(ratio, prior: float):
    """Expected improvement for a float or an array of bad/good density ratios.

    Equals 1/prior at ratio 0, 1 at ratio 1, and decreases strictly as the
    ratio grows.
    """
    return 1.0 / (prior + ratio * (1.0 - prior))


def expected_improvement_many(model: FactorModel, matrix: np.ndarray) -> np.ndarray:
    """Expected improvement of each row of matrix, from its bad/good density
    ratio; both sides' logs are gathered at once and summed in factor order,
    so each log density equals that of its side's table alone bit for bit."""
    good, bad = _log_densities(model.good.layout, np.stack((model.good.log, model.bad.log)),
                               matrix)
    ratio = np.exp(np.clip(bad - good, -_LOG_RATIO_CLAMP, _LOG_RATIO_CLAMP))
    return _ei(ratio, model.success_prior)


def _flat(table: FactorTable) -> bool:
    """Whether every factor of table has one log weight for all its cells."""
    starts = table.layout.offsets[:-1]
    return bool(np.array_equal(np.minimum.reduceat(table.log, starts),
                               np.maximum.reduceat(table.log, starts)))


class RatioIndex:
    """Bad/good log density ratio of each row of a fixed matrix, for selection.

    Packages go in a topological order.  The level of package c carries c's
    factor and those of the edges from its parents.  Rows that agree on the
    first packages share a node of a prefix trie (Fredkin 1960) over that
    order.  A node holds one code into its level's table, which adds c's
    cells to those of its first parent's edge, plus one flat cell for each
    further parent.  Its sum is its parent node's plus those, so the trie is
    summed from the model's tables at each selection, level by level.

    A level joins the trie while it has at most half as many nodes as there
    are rows, and while the pairs (node above, version) it ranks span at most
    four per row, which only domains of more than eight versions can break.
    Past that, summing a level at every selection costs more than keeping
    its rows' sums: a trie of every level ran about three times slower a
    step on 31,186 random rows of 61 packages.  The rows are distinct, so
    the last level never joins: a dense space leaves that one out, a sparse
    replay most of them.  The factors of the levels
    left out, the suffix, keep each row's sum up to date.  A new row gives
    one cell per factor a count, whose change goes to the rows holding that
    cell, found through an inverted index over the suffix's cells; the shift
    of every cell's normalizer is one amount for all rows, held at the
    trie's root.

    A closed row's suffix sum is +inf, so the best open row is the one with
    the least log ratio: the score falls as the ratio grows.  best() turns
    the near-tie band of scores into a limit on the log ratio once per
    step, and settles the open rows within it on exact scores.
    """

    def __init__(self, model: FactorModel, rows: np.ndarray, open_rows: np.ndarray):
        """Index rows, an int matrix of distinct rows of valid version
        indices, under model; the rows not set in open_rows start closed."""
        layout, graph = model.good_stats.layout, model.graph
        self.rows = rows
        self.n_open = int(np.count_nonzero(open_rows))
        self._shift = 0.0  # the suffix's normalizer changes, held by the root
        self._root = np.zeros(1)
        self._gap = np.zeros(layout.size + 1)  # the last cell stands for no parent
        into = [[] for _ in graph.packages]  # (edge factor, parent) of each package
        for e, (parent, child) in enumerate(graph.edges):
            into[child].append((layout.n_nodes + e, parent))
        order = graph.topological_order
        # Each part in its own method, so that its temporaries are gone
        # before the next part allocates.
        self._index_prefixes(layout, graph, rows, order, into)
        self._index_suffix(model, rows, order[len(self._levels):], into)
        self._suffix[~open_rows] = np.inf
        self._log_ratio = np.empty(rows.shape[0])
        self._mask = np.empty(rows.shape[0], dtype=bool)

    def _index_prefixes(self, layout, graph, rows, order, into) -> None:
        """The trie's levels, each a node's parent node, its code into the
        level table and its further parents' cells, with a buffer for its
        sums; each row's node on the last level; the level tables' cells."""
        sizes, offsets, n = graph.domain_sizes, layout.offsets.tolist(), rows.shape[0]
        # Level by level, a row's node is the rank of (its node above, its
        # version) among the pairs present, so nodes stay in prefix order.
        # Each row's pair is made twice rather than held, which would raise
        # the build's peak memory.
        node, count = np.zeros(n, dtype=np.intp), 1
        self._levels, node_cells, edge_cells = [], [], []
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
            extra = []
            for f, p in into[c]:
                # Each node's cell in edge f, from its version of p in any row it holds.
                cells = np.empty(count, dtype=np.intp)
                cells[node] = rows[:, p]
                extra.append(offsets[f] + cells * m + pairs % m)
            if extra:  # the first parent's edge joins c's cells in the level table
                f, p = into[c][0]
                code = extra.pop(0) + (len(node_cells) - offsets[f])
                node_cells += [offsets[c] + w for _ in range(sizes[p]) for w in range(m)]
                edge_cells += range(offsets[f], offsets[f + 1])
            else:
                code = pairs % m + len(node_cells)
                node_cells += range(offsets[c], offsets[c] + m)
                edge_cells += [layout.size] * m
            self._levels.append((pairs // m, code, extra, np.empty(count)))
        self._leaf = node
        self._node_cells = np.array(node_cells, dtype=np.intp)
        self._edge_cells = np.array(edge_cells, dtype=np.intp)
        self._scratch = np.empty(max([0, *(level[3].size for level in self._levels)]))

    def _index_suffix(self, model, rows, packages, into) -> None:
        """The suffix factors, those of packages, in flat order; each row's
        sum over them; the inverted index over their cells: the rows holding
        flat cell v are order[bounds[v]:bounds[v + 1]].

        A factor goes through one line of local cells, filled a block of
        rows at a time along with the sums, which then serves the counts and
        its stable argsort.  No temporary spans the rows, which would raise
        the peak memory of runs over a whole space.
        """
        layout, graph = model.good_stats.layout, model.graph
        sizes, offsets, n = graph.domain_sizes, layout.offsets.tolist(), rows.shape[0]
        k = layout.n_nodes
        self._factors = np.array(sorted(f for c in packages
                                        for f in (c, *(f for f, _ in into[c]))), dtype=np.intp)
        gap = model.bad.log - model.good.log
        self._suffix = np.zeros(n)
        self._order = np.empty(self._factors.size * n, dtype=np.int32)
        per_cell = np.zeros(layout.size, dtype=np.int64)
        for at, f in enumerate(self._factors.tolist()):
            a, b = offsets[f], offsets[f + 1]
            local = np.empty(n, dtype=np.min_scalar_type(b - a - 1))
            for start in range(0, n, _DENSITY_BLOCK):
                block = rows[start:start + _DENSITY_BLOCK]
                if f < k:
                    cells = block[:, f]
                else:
                    parent, child = graph.edges[f - k]
                    cells = block[:, parent] * sizes[child] + block[:, child]
                local[start:start + _DENSITY_BLOCK] = cells
                self._suffix[start:start + _DENSITY_BLOCK] += gap[a:b][cells]
            per_cell[a:b] = np.bincount(local, minlength=b - a)
            # A stable sort of 8- or 16-bit keys is a radix sort.
            self._order[at * n:(at + 1) * n] = np.argsort(local, kind="stable")
        self._bounds = [0, *np.cumsum(per_cell).tolist()]

    def close(self, row: int) -> None:
        """Close the open row at index row: it is no longer selected."""
        self._suffix[row] = np.inf
        self.n_open -= 1

    def add(self, model: FactorModel, row: np.ndarray, built: bool) -> None:
        """Fold in row, an int vector of valid version indices (not checked),
        and its outcome, given the model these ratios agree with before it."""
        stats = model.good_stats if built else model.bad_stats
        sign = -1.0 if built else 1.0  # the good side is the denominator
        smoothing = model.smoothing
        cells = stats.layout.cells(row[None])[self._factors, 0]
        total = stats.n + smoothing * stats.layout.factor_sizes[self._factors]
        self._shift -= sign * float(np.sum(np.log(total + 1.0) - np.log(total)))
        held = stats.counts[cells] + smoothing
        deltas = sign * (np.log(held + 1.0) - np.log(held))
        for cell, delta in zip(cells.tolist(), deltas.tolist()):
            np.add.at(self._suffix, self._order[self._bounds[cell]:self._bounds[cell + 1]],
                      delta)

    def log_ratio(self, model: FactorModel) -> np.ndarray:
        """Each row's log ratio under model, the one the adds have brought
        the index to, and +inf for a closed row; up to float rounding, the
        bad side's _log_densities less the good side's.  The vector is a
        buffer that the next call overwrites."""
        gap = self._gap
        np.subtract(model.bad.log, model.good.log, out=gap[:-1])
        table = gap[self._node_cells] + gap[self._edge_cells]
        above = self._root
        above[0] = self._shift
        # mode="clip" lets take write into out without a buffer.
        for parent, code, extra, values in self._levels:
            scratch = self._scratch[:values.size]
            above.take(parent, out=values, mode="clip")
            values += table.take(code, out=scratch, mode="clip")
            for cells in extra:
                values += gap.take(cells, out=scratch, mode="clip")
            above = values
        above.take(self._leaf, out=self._log_ratio, mode="clip")
        self._log_ratio += self._suffix
        return self._log_ratio

    def near(self, model: FactorModel) -> np.ndarray:
        """Open rows, ascending, whose indexed score is within a relative
        _NEAR_TIE of the best, that of the open row with the least log ratio;
        the band is one limit on the log ratio, so a few more rows may pass."""
        prior = model.success_prior
        log_ratio = self.log_ratio(model)
        least = float(log_ratio.min())
        top = _ei(math.exp(min(max(least, -_LOG_RATIO_CLAMP), _LOG_RATIO_CLAMP)), prior)
        # score >= top * (1 - tol)  <=>  ratio <= (1 / (top * (1 - tol)) - prior) / (1 - prior).
        # The limit exceeds the least ratio, so it lies above the lower clamp
        # and every row clipped there passes; past the upper clamp every open
        # row clips to at most the limit.
        limit = math.log((1.0 / (top * (1.0 - 2.0 * _NEAR_TIE)) - prior) / (1.0 - prior))
        if limit >= _LOG_RATIO_CLAMP:  # every open row
            return np.flatnonzero(np.less(log_ratio, np.inf, out=self._mask))
        return np.flatnonzero(np.less_equal(log_ratio, limit, out=self._mask))

    def best(self, model: FactorModel) -> tuple[np.ndarray, float]:
        """Open rows with the highest expected improvement, ascending, and that score.

        At least one row must be open.  The near() rows are rescored with
        expected_improvement_many, and only its exact maxima are returned,
        with its exact score.  When every factor of both sides weighs its
        cells alike, every row sums the same logs in the same order and so
        scores exactly the same: one is rescored.
        """
        near = self.near(model)
        if (near.size > 1 and near.size == self.n_open
                and _flat(model.good) and _flat(model.bad)):
            return near, float(expected_improvement_many(model, self.rows[near[:1]])[0])
        exact = expected_improvement_many(model, self.rows[near])
        top = exact.max()
        return near[exact == top], float(top)


def crowd_score_many(model: FactorModel, matrix: np.ndarray) -> np.ndarray:
    """Product of raw good-side per-package frequencies for each row.

    Frequencies are unsmoothed; with no good observations (or a version
    never seen good) the product is zero.  The rows of matrix must hold
    valid version indices (check_rows).
    """
    layout, n = model.good_stats.layout, model.good_stats.n
    k = layout.n_nodes
    node_counts = model.good_stats.counts[:layout.offsets[k]]
    with np.errstate(divide="ignore"):
        logs = np.log(node_counts / n) if n > 0 else np.full(node_counts.size, -np.inf)
    # Package by package, each version indexing the logs from its package's
    # first cell on: one gather of every package's cells at once is slower
    # over thousands of rows.
    starts = layout.offsets[:k].tolist()
    total = logs[matrix[:, 0]]
    for i in range(1, k):
        total += logs[starts[i]:][matrix[:, i]]
    return np.exp(total)


def save_model(model: FactorModel, path: str) -> None:
    """Serialize counts, smoothing, and the graph; tables rebuild on load."""
    def side_payload(stats: SideStats) -> dict:
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
    layout = FactorLayout(sizes, graph.edges)

    def side_stats(side: str) -> SideStats:
        data = _field(payload, side, dict, "an object")
        where = f"{side}."
        n = _field(data, "n", int, "an integer", where)
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
        counts = np.concatenate([c.ravel() for c in (*node_counts, *edges)])
        return SideStats(n=n, counts=counts, layout=layout)

    model = _from_counts(graph, smoothing, side_stats("good"), side_stats("bad"))
    prior = _field(payload, "success_prior", (int, float), "a number")
    if prior != model.success_prior:
        raise ValueError(
            f"model success_prior {prior!r} differs from {model.success_prior!r}, "
            "the value its counts give"
        )
    return model
