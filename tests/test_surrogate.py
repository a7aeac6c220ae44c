"""Factorized surrogate: fitting, densities, acquisition scores, persistence.

Frozen constants below were computed by hand (counts / smoothed fractions)
or with an independent direct-product density implemented inside this file.
"""
from __future__ import annotations

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buildtuner import (
    BuildRecord,
    Dataset,
    DependencyGraph,
    crowd_score_many,
    expected_improvement_many,
    fit,
    load_model,
    save_model,
)
from buildtuner.configspace import (
    GraphError,
    first_occurrences,
    full_space_matrix,
)
from buildtuner.surrogate import (FactorModel, FactorSide, RatioIndex, RunError, _crowd_prefixes,
                                  refit_incremental)
from helpers import (all_configurations, chain_graph, distinct_records, log_density_many,
                     two_package_graph, wide_graph)


def direct_log_density(table: FactorSide, graph, config) -> float:
    """Independent oracle: plain-Python product over node and edge factors."""
    total = 0.0
    for pkg, version in enumerate(config):
        total += math.log(table.node_weights[pkg][version])
    for e, (parent, child) in enumerate(graph.edges):
        total += math.log(table.edge_weights[e][config[parent], config[child]])
    return total


def ei_of_ratio(ratio, prior):
    """Expected improvement, written out: 1 / (prior + ratio * (1 - prior))."""
    return 1.0 / (prior + ratio * (1.0 - prior))


def _history(graph, records):
    return [BuildRecord(tuple(c), o) for c, o in records]


class TestFitCounts:
    """Hand-checked smoothed factors on a 2-package, 2-version graph."""

    def _model(self):
        graph = two_package_graph()
        # 4 good records: A picks v1 three times, v2 once.
        good = [((0, 0), True), ((0, 1), True), ((0, 1), False), ((1, 0), True), ((1, 1), True)]
        history = _history(graph, good)
        return fit(history, graph, smoothing=1.0)

    def test_node_factor_fractions(self):
        model = self._model()
        # Good side: A counts [2, 2] over n=4 -> (2+1)/(4+2) = 0.5 each.
        np.testing.assert_allclose(model.good.node_weights[0], [0.5, 0.5])
        # Bad side: single record (0, 1) -> A counts [1, 0] -> [(1+1)/3, (0+1)/3].
        np.testing.assert_allclose(model.bad.node_weights[0], [2 / 3, 1 / 3])


def test_frozen_node_fraction_values():
    """counts [3, 1] with smoothing 1 over n=4 -> exactly (4/6, 2/6)."""
    graph = two_package_graph()
    history = _history(
        graph,
        [((0, 0), True), ((0, 0), True), ((0, 1), True), ((1, 0), True)],
    )
    model = fit(history, graph, smoothing=1.0)
    assert model.good.node_weights[0].tolist() == [4 / 6, 2 / 6]
    # Each factor normalizes to one.
    assert model.good.node_weights[0].sum() == pytest.approx(1.0, abs=1e-12)
    assert model.good.edge_weights[0].sum() == pytest.approx(1.0, abs=1e-12)


def test_success_prior_laplace():
    """5 good / 15 bad -> (5+1)/(20+2) = 6/22."""
    graph = chain_graph(2, 5)
    rng = np.random.default_rng(0)
    records = distinct_records(graph, 20, rng, lambda c: False)
    history = [BuildRecord(r.config, i < 5) for i, r in enumerate(records)]
    model = fit(history, graph, smoothing=1.0)
    assert model.n.tolist() == [[5], [15]]
    assert model.success_prior == pytest.approx(6 / 22, abs=0)


def test_fit_reads_a_dataset_as_its_records():
    """A Dataset's rows and outcomes fit the model its records fit, bit for
    bit, and one over another graph is refused."""
    graph = chain_graph(3, 3)
    records = distinct_records(graph, 15, np.random.default_rng(8), lambda c: c[0] != c[1])
    from_rows, from_records = fit(Dataset(graph, records), graph), fit(records, graph)
    for side in ("good_stats", "bad_stats", "good", "bad"):
        a, b = getattr(from_rows, side), getattr(from_records, side)
        for field in ("counts", "weights", "log"):
            if hasattr(a, field):
                assert np.array_equal(getattr(a, field), getattr(b, field))
    with pytest.raises(GraphError, match="another graph"):
        fit(Dataset(graph, records), chain_graph(3, 4))


def test_empty_history_uniform_and_half_prior():
    g = two_package_graph()
    model = fit([], g, smoothing=1.0)
    assert model.success_prior == 0.5
    for side in (model.good, model.bad):
        np.testing.assert_allclose(side.node_weights[0], [0.5, 0.5])
        np.testing.assert_allclose(side.edge_weights[0], np.full((2, 2), 0.25))
    # log p of any config under uniform factors: log(.5) + log(.5) + log(.25).
    value = log_density_many(model.good, np.asarray([(0, 0)]))[0]
    assert value == pytest.approx(-2.772588722239781, abs=1e-15)


class TestLogDensity:
    def test_matches_direct_product_oracle(self):
        graph = chain_graph(4, 3)
        rng = np.random.default_rng(7)
        history = distinct_records(graph, 25, rng, lambda c: sum(c) % 2 == 0)
        model = fit(history, graph, smoothing=0.7)
        matrix = full_space_matrix(graph)
        for side in (model.good, model.bad):
            many = log_density_many(side, matrix)
            for row, config in zip(many, all_configurations(graph)):
                assert row == pytest.approx(direct_log_density(side, graph, config), abs=1e-12)

    @pytest.mark.parametrize("graph", [chain_graph(3, 2), wide_graph(10, 2)],
                             ids=["chain", "wide"])
    def test_scalar_agrees_with_vectorized(self, graph):
        rng = np.random.default_rng(3)
        model = fit(distinct_records(graph, 6, rng, lambda c: c[0] == 0), graph)
        matrix = full_space_matrix(graph)
        many = log_density_many(model.good, matrix)
        for row, config in zip(many, all_configurations(graph)):
            assert log_density_many(model.good, np.asarray([config]))[0] == row


class TestExpectedImprovement:
    def test_frozen_ratio_values(self):
        assert ei_of_ratio(0.0, 0.25) == pytest.approx(4.0, abs=0)
        assert ei_of_ratio(1.0, 0.25) == pytest.approx(1.0, abs=0)
        assert ei_of_ratio(3.0, 0.25) == pytest.approx(0.4, abs=1e-15)

    def test_range_and_monotonicity(self):
        prior = 0.3
        ratios = np.linspace(0.0, 50.0, 200)
        values = [ei_of_ratio(r, prior) for r in ratios]
        assert values[0] == pytest.approx(1 / prior)
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(0.0 < v <= 1 / prior for v in values)

    def test_score_kind_and_consistency(self):
        graph = chain_graph(3, 2)
        rng = np.random.default_rng(8)
        model = fit(distinct_records(graph, 7, rng, lambda c: c[1] == 0), graph)
        matrix = full_space_matrix(graph)
        many = expected_improvement_many(model, matrix)
        for row, config in zip(many, all_configurations(graph)):
            score = expected_improvement_many(model, np.asarray([config]))[0]
            assert score == pytest.approx(row, abs=1e-15)
            # Direct recomputation from the two log densities.
            lg = log_density_many(model.good, np.asarray([config]))[0]
            lb = log_density_many(model.bad, np.asarray([config]))[0]
            expected = ei_of_ratio(math.exp(lb - lg), model.success_prior)
            assert score == pytest.approx(expected, rel=1e-12)

    def test_per_factor_scale_invariance(self):
        """Scaling any single factor table on both sides leaves EI ranking intact.

        EI depends on the bad/good density ratio; a factor rescaled on one
        side only shifts every config's ratio by the same constant, so the
        induced ordering over configurations must not change.
        """
        graph = chain_graph(3, 2)
        rng = np.random.default_rng(21)
        model = fit(distinct_records(graph, 8, rng, lambda c: c[2] == 1), graph)
        matrix = full_space_matrix(graph)
        base = expected_improvement_many(model, matrix)

        cells = slice(model.layout.offsets[1], model.layout.offsets[2])
        scaled_model = FactorModel(graph, model.smoothing, model.counts.copy())
        scaled_model.log[0, 0, cells] = np.log(model.good.weights[cells] * 3.0)
        scaled = expected_improvement_many(scaled_model, matrix)
        assert np.argsort(-base, kind="stable").tolist() == np.argsort(-scaled, kind="stable").tolist()

    def test_extreme_ratio_clamped(self):
        # Enormous log gap should saturate, not overflow.
        assert ei_of_ratio(math.exp(700), 0.5) > 0.0
        # Uniform empty-history model: good and bad densities agree, so the
        # ratio is one and the score is exactly one regardless of the prior.
        graph = two_package_graph()
        model = fit([], graph)
        assert expected_improvement_many(model, np.asarray([(0, 0)]))[0] == pytest.approx(1.0)


class TestCrowdScore:
    def test_frozen_product(self):
        graph = two_package_graph()
        history = _history(
            graph,
            [
                ((0, 0), True), ((0, 0), True), ((0, 1), True),
                ((1, 0), True), ((1, 1), True), ((1, 1), False),
            ],
        )
        model = fit(history, graph)
        # 5 good records; A good counts [3, 2] and B good counts [3, 2],
        # so crowd((0, 0)) = (3/5) * (3/5) = 0.36 with no smoothing.
        score = crowd_score_many(model, np.asarray([(0, 0)]))[0]
        assert score == pytest.approx(0.36, abs=1e-15)

    def test_frozen_products_more(self):
        graph = two_package_graph()
        history = _history(
            graph,
            [((0, 0), True), ((0, 1), True), ((0, 0), True), ((1, 1), True), ((1, 0), True)],
        )
        model = fit(history, graph)
        # A good counts [3, 2], B good counts [3, 2]: crowd((1, 0)) = 0.4 * 0.6.
        assert crowd_score_many(model, np.asarray([(1, 0)]))[0] == pytest.approx(0.24, abs=1e-15)
        history = _history(
            graph,
            [((0, 0), True), ((0, 1), True), ((0, 0), True), ((0, 1), True),
             ((1, 0), True), ((0, 0), False)],
        )
        model = fit(history, graph)
        # A good counts [4, 1], B good counts [3, 2]: crowd((0, 0)) = 0.8 * 0.6.
        expected = (4 / 5) * (3 / 5)
        assert crowd_score_many(model, np.asarray([(0, 0)]))[0] == pytest.approx(expected, abs=1e-15)

    def test_unseen_version_scores_zero(self):
        graph = two_package_graph()
        model = fit(_history(graph, [((0, 0), True), ((0, 1), True)]), graph)
        assert crowd_score_many(model, np.asarray([(1, 0)]))[0] == 0.0

    def test_empty_good_side_scores_zero(self):
        graph = two_package_graph()
        model = fit(_history(graph, [((0, 0), False)]), graph)
        matrix = full_space_matrix(graph)
        assert crowd_score_many(model, matrix).tolist() == [0.0, 0.0, 0.0, 0.0]

    @pytest.mark.parametrize("graph, size", [(chain_graph(3, 3), 12), (wide_graph(10, 2), 60)],
                             ids=["chain", "wide"])
    def test_vectorized_matches_scalar(self, graph, size):
        rng = np.random.default_rng(17)
        model = fit(distinct_records(graph, size, rng, lambda c: c[0] != 2), graph)
        matrix = full_space_matrix(graph)
        many = crowd_score_many(model, matrix)
        assert np.count_nonzero(many) > 0
        for row, config in zip(many, all_configurations(graph)):
            assert crowd_score_many(model, np.asarray([config]))[0] == row


def _factor_loop_log_density(table, graph, matrix):
    """log_density_many as one fancy index per factor, nodes then edges,
    each added into a running sum that starts at zero."""
    layout = table.layout
    logs = layout.views(table.log)
    out = np.zeros(matrix.shape[0], dtype=float)
    for i in range(layout.n_nodes):
        out += logs[i][matrix[:, i]]
    for f, (p, c) in enumerate(graph.edges, start=layout.n_nodes):
        out += logs[f][matrix[:, p], matrix[:, c]]
    return out


def _package_loop_crowd_score(model, matrix):
    """crowd_score_many as a log of each package's frequencies in turn."""
    n_good = model.good_stats.n
    total = np.zeros(matrix.shape[0], dtype=float)
    for i, counts in enumerate(model.good_stats.node_counts):
        freq = counts / n_good if n_good > 0 else np.zeros(counts.size)
        with np.errstate(divide="ignore"):
            total += np.log(freq)[matrix[:, i]]
    return np.exp(total)


@st.composite
def _scored_matrices(draw):
    """A DAG of 1-9 packages with 1-4 versions each and 0 to 36 edges, or a
    root with 6-12 two-version dependencies; a model fitted on random
    records; and 1 to 40 random rows to score, a single row a third of the
    time."""
    if draw(st.booleans()):
        graph = wide_graph(draw(st.integers(6, 12)), 2)
    else:
        n = draw(st.integers(1, 9))
        sizes = [draw(st.integers(1, 4)) for _ in range(n)]
        edges = sorted((p, c) for c in range(1, n)
                       for p in draw(st.sets(st.integers(0, c - 1), min_size=1)))
        graph = DependencyGraph(
            packages=tuple(f"p{i}" for i in range(n)),
            domains=tuple(tuple(f"v{j}" for j in range(m)) for m in sizes),
            edges=tuple(edges),
            root=0,
        )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sizes = np.array(graph.domain_sizes)
    history = rng.integers(0, sizes, size=(draw(st.integers(0, 40)), sizes.size))
    records = [BuildRecord(tuple(row), bool(built))
               for row, built in zip(history.tolist(), rng.random(len(history)) < 0.6)]
    model = fit(records, graph, draw(st.sampled_from([1.0, 0.5, 1e-30])))
    n_rows = draw(st.one_of(st.just(1), st.integers(1, 40)))
    return model, rng.integers(0, sizes, size=(n_rows, sizes.size))


class TestOneScoringPath:
    """The gathered sums equal the per-factor loops they replaced, bit for bit.

    numpy sums a line axis pairwise once it holds eight or more terms, so a
    one-row matrix over that many factors catches a sum over the lines in
    place of adding them in factor order.
    """

    @settings(max_examples=200, deadline=None)
    @given(_scored_matrices())
    def test_property_sums_match_the_factor_loops(self, scored):
        model, matrix = scored
        for table in (model.good, model.bad):
            np.testing.assert_array_equal(log_density_many(table, matrix),
                                          _factor_loop_log_density(table, model.graph, matrix))
        np.testing.assert_array_equal(crowd_score_many(model, matrix),
                                      _package_loop_crowd_score(model, matrix))
        # Both sides gathered at once sum each side as the loops do.
        log_ratio = (_factor_loop_log_density(model.bad, model.graph, matrix)
                     - _factor_loop_log_density(model.good, model.graph, matrix))
        np.testing.assert_array_equal(
            expected_improvement_many(model, matrix),
            ei_of_ratio(np.exp(np.clip(log_ratio, -700.0, 700.0)), model.success_prior))

    def test_matrix_of_several_blocks(self):
        """8,193 rows: log_density_many gathers two full blocks of rows and one
        of a single row."""
        graph = wide_graph(12, 2)
        records = distinct_records(graph, 30, np.random.default_rng(5), lambda c: c[1] == c[2])
        model = fit(records, graph)
        space = full_space_matrix(graph)
        matrix = np.vstack([space, space[-1:]])
        for table in (model.good, model.bad):
            np.testing.assert_array_equal(log_density_many(table, matrix),
                                          _factor_loop_log_density(table, graph, matrix))

    def test_picked_rows_score_as_the_rows_gathered(self):
        """5,000 rows picked by index, in blocks gathered one at a time,
        score under their runs' models as the same rows gathered first."""
        graph = wide_graph(12, 2)
        records = distinct_records(graph, 30, np.random.default_rng(5), lambda c: c[1] == c[2])
        model = FactorModel(graph, 1.0, np.concatenate(
            [fit(records, graph).counts, fit(records[:10], graph).counts], axis=1))
        space = full_space_matrix(graph).astype(np.int64)
        picks = np.random.default_rng(6).integers(space.shape[0], size=5000)
        runs = picks % 2
        np.testing.assert_array_equal(model.expected_improvement(space, runs, picks),
                                      model.expected_improvement(space[picks], runs))


class TestModelArrays:
    """One model class holds the counts and logs of R runs; a side is read
    through a view of a one-run model."""

    @staticmethod
    def _two_runs():
        """A model whose run 0 is fitted to 6 records and run 1 to the first 3."""
        graph = chain_graph(3, 2)
        records = distinct_records(graph, 6, np.random.default_rng(5), lambda c: c[0] == 0)
        counts = np.concatenate([fit(records, graph).counts, fit(records[:3], graph).counts],
                                axis=1)
        return records, FactorModel(graph, 1.0, counts)

    @pytest.mark.parametrize("name", ["good", "bad", "good_stats", "bad_stats",
                                      "success_prior"])
    def test_a_side_of_several_runs_raises(self, name):
        _, model = self._two_runs()
        with pytest.raises(ValueError, match="a model of 2 runs"):
            getattr(model, name)

    @pytest.mark.parametrize("score", [expected_improvement_many, crowd_score_many])
    def test_scoring_a_model_of_several_runs_raises(self, score):
        records, model = self._two_runs()
        rows = np.array([r.config for r in records], dtype=np.int64)
        with pytest.raises(ValueError, match="a model of 2 runs"):
            score(model, rows)

    def test_n_is_derived_from_the_counts(self):
        records, model = self._two_runs()
        good = [sum(r.outcome for r in records), sum(r.outcome for r in records[:3])]
        assert model.n.tolist() == [good, [6 - good[0], 3 - good[1]]]
        assert model.priors == [(good[0] + 1) / 8, (good[1] + 1) / 5]

    def test_a_side_is_read_only(self):
        _, model = self._two_runs()
        one = FactorModel(model.graph, 1.0, model.counts[:, [0]])
        side = one.good
        for array in (side.counts, side.log, side.weights, side.node_counts[0],
                      side.edge_weights[0]):
            with pytest.raises(ValueError, match="read-only"):
                array[0] += 1
        assert one.counts.flags.writeable and one.log.flags.writeable

    def test_weight_check_names_the_first_run_and_the_good_side_first(self):
        """Smoothing 1e-322 over 100 or more records rounds an unseen cell's
        weight to 0: run 1's good side (200 records) is named before its bad
        side (100) and before run 2."""
        graph = chain_graph(2, 2)
        counts = np.zeros((2, 3, 8), dtype=np.int64)
        for side, run, n in ((0, 1, 200), (1, 1, 100), (0, 2, 300)):
            counts[side, run, [0, 2, 4]] = n  # A at v1, B at v1, the edge's (v1, v1)
        with pytest.raises(RunError, match="over 200 records") as caught:
            FactorModel(graph, 1e-322, counts)
        assert caught.value.run == 1


class TestIncrementalRefit:
    def test_matches_full_refit_exactly(self):
        graph = chain_graph(3, 2)
        rng = np.random.default_rng(4)
        records = distinct_records(graph, 8, rng, lambda c: c[0] == 0)
        model = fit(records[:-1], graph, smoothing=1.0)
        updated = refit_incremental(model, np.array(records[-1].config), records[-1].outcome)
        full = fit(records, graph, smoothing=1.0)
        for side_a, side_b in ((updated.good, full.good), (updated.bad, full.bad)):
            for a, b in zip(side_a.node_weights, side_b.node_weights):
                np.testing.assert_array_equal(a, b)
            for a, b in zip(side_a.edge_weights, side_b.edge_weights):
                np.testing.assert_array_equal(a, b)
        assert updated.success_prior == full.success_prior

    def test_prior_update_frozen(self):
        """Adding one good record to 5/15 moves the prior from 6/22 to 7/23."""
        graph = chain_graph(2, 5)
        records = distinct_records(graph, 20, np.random.default_rng(12), lambda c: False)
        history = [BuildRecord(r.config, i < 5) for i, r in enumerate(records)]
        model = fit(history, graph)
        assert model.success_prior == pytest.approx(6 / 22)
        extra = distinct_records(graph, 21, np.random.default_rng(12), lambda c: False)[-1]
        updated = refit_incremental(model, np.array(extra.config), True)
        assert updated.success_prior == pytest.approx(7 / 23)

    def test_good_update_leaves_bad_side_untouched(self):
        graph = chain_graph(3, 2)
        rng = np.random.default_rng(14)
        records = distinct_records(graph, 6, rng, lambda c: c[1] == 1)
        model = fit(records[:-1], graph)
        before = [a.copy() for a in (model.counts, model.n, model.log)]
        updated = refit_incremental(model, np.array(records[-1].config), True)
        assert all(np.array_equal(a, b)
                   for a, b in zip((model.counts, model.n, model.log), before))
        assert np.array_equal(updated.log[1], model.log[1])
        assert not np.array_equal(updated.log[0], model.log[0])

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 1), st.integers(0, 1), st.integers(0, 1),
                              st.booleans()), min_size=0, max_size=12))
    def test_property_incremental_equals_batch(self, rows):
        graph = chain_graph(3, 2)
        seen = set()
        records = []
        for a, b, c, outcome in rows:
            if (a, b, c) in seen:
                continue
            seen.add((a, b, c))
            records.append(BuildRecord((a, b, c), outcome))
        model = fit([], graph)
        for record in records:
            model = refit_incremental(model, np.array(record.config), record.outcome)
        full = fit(records, graph)
        for side_a, side_b in ((model.good, full.good), (model.bad, full.bad)):
            for a, b in zip(side_a.node_weights, side_b.node_weights):
                np.testing.assert_array_equal(a, b)
            for a, b in zip(side_a.edge_weights, side_b.edge_weights):
                np.testing.assert_array_equal(a, b)


def _dag(draw, sizes, shared_child=False):
    """A DAG over len(sizes) packages, each after the first with a nonempty
    set of parents among the earlier ones; with shared_child the third
    package has two, the first and the second."""
    n = len(sizes)
    edges = sorted((p, c) for c in range(1, n)
                   for p in draw(st.sets(st.integers(0, c - 1),
                                         min_size=2 if shared_child and c == 2 else 1)))
    return DependencyGraph(
        packages=tuple(f"p{i}" for i in range(n)),
        domains=tuple(tuple(f"v{j}" for j in range(m)) for m in sizes),
        edges=tuple(edges),
        root=0,
    )


_SHAPES = ("space", "listed", "one-package", "two-parents", "sparse")


@st.composite
def _observed_spaces(draw):
    """A graph, the distinct rows to index, distinct records over the graph
    in random order, how many of them seed the model, and a smoothing.

    The rows are the whole space of a DAG of 1-4 packages with 2-4
    versions, in order, or shuffled as a listed replay may hold them; the
    space of one package; that of a DAG whose third package has two
    parents, in the trie when a fourth package follows it; or 30-200
    random rows of a 6-9 package space, most of whose levels fall outside
    the trie.  The records are drawn from the rows."""
    shape = draw(st.sampled_from(_SHAPES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "sparse":
        sizes = [draw(st.integers(3, 4)) for _ in range(draw(st.integers(6, 9)))]
    elif shape == "one-package":
        sizes = [draw(st.integers(2, 6))]
    else:
        least = 3 if shape == "two-parents" else 1
        sizes = [draw(st.integers(2, 4)) for _ in range(draw(st.integers(least, 4)))]
    graph = _dag(draw, sizes, shared_child=shape == "two-parents")
    if shape == "sparse":
        drawn = rng.integers(0, sizes, size=(draw(st.integers(30, 200)), len(sizes)))
        rows = drawn[first_occurrences(drawn)]
    else:
        rows = full_space_matrix(graph).astype(np.int64)
        if shape == "listed":
            rows = rows[rng.permutation(rows.shape[0])]
    outcomes = draw(st.lists(st.booleans(), min_size=1, max_size=min(rows.shape[0], 30)))
    records = [BuildRecord(tuple(rows[i].tolist()), built)
               for i, built in zip(rng.permutation(rows.shape[0]).tolist(), outcomes)]
    start = draw(st.integers(0, len(records) - 1))
    smoothing = draw(st.sampled_from([1.0, 0.5, 3.0, 1e-30]))
    return graph, rows, records, start, smoothing


@st.composite
def _selection_states(draw):
    """A graph, rows, records in random order, how many seed the model, a
    smoothing of 1 or 1e-30, and a seed for an open mask.  Half the graphs
    are a root with 6-11 dependencies, where smoothing 1e-30 puts log
    ratios past the +/-700 clamp and saturates many rows at the score
    1/prior."""
    if draw(st.booleans()):
        graph, rows, records, start, _ = draw(_observed_spaces())
    else:
        graph = wide_graph(draw(st.integers(6, 11)), 2)
        rows = full_space_matrix(graph).astype(np.int64)
        picks = draw(st.lists(st.integers(0, rows.shape[0] - 1), min_size=1, max_size=30,
                              unique=True))
        records = [BuildRecord(tuple(rows[i].tolist()), draw(st.booleans())) for i in picks]
        start = draw(st.integers(0, len(records) - 1))
    smoothing = draw(st.sampled_from([1.0, 1e-30]))
    return graph, rows, records, start, smoothing, draw(st.integers(0, 2**32 - 1))


def _indexed(graph, rows, records, start, smoothing, open_rows=None):
    """A RatioIndex over rows for one run, the ones open_rows leaves out
    closed (none by default), fitted on records[:start] and then updated one
    record at a time, with the model it agrees with."""
    model = fit(records[:start], graph, smoothing)
    if open_rows is None:
        open_rows = np.ones(rows.shape[0], dtype=bool)
    index = RatioIndex(model, rows, ~open_rows[None])
    for record in records[start:]:
        _fold(model, record.config, record.outcome)
    return index, model


def _fold(model, config, built):
    """Fold one record into a one-run model, as run does."""
    cells = model.layout.cells(np.array([config], dtype=np.int64))
    model.fold(cells, np.array([0 if built else 1]))


def _lockstep(graph, rows, histories, start, smoothing, open_rows):
    """A RatioIndex over rows for one run per history, the rows each run's
    line of open_rows leaves out closed, fitted on each history's first
    start records and then folded a record per run at a time, with the
    model of all runs it agrees with."""
    counts = [fit(history[:start], graph, smoothing).counts for history in histories]
    model = FactorModel(graph, smoothing, np.concatenate(counts, axis=1))
    index = RatioIndex(model, rows, ~open_rows)
    for step in zip(*(history[start:] for history in histories)):
        cells = model.layout.cells(np.array([record.config for record in step], dtype=np.int64))
        model.fold(cells, np.array([0 if record.outcome else 1 for record in step]))
    return index, model


def _counted_scoring(monkeypatch):
    """Record the rows of each FactorModel.expected_improvement call: picks
    when given, else the matrix's row count."""
    calls = []
    score = FactorModel.expected_improvement

    def counted(model, matrix, runs=None, picks=None, out=None):
        calls.append(matrix.shape[0] if picks is None else picks.size)
        return score(model, matrix, runs, picks, out)

    monkeypatch.setattr(FactorModel, "expected_improvement", counted)
    return calls


def _from_scratch(model, rows):
    return log_density_many(model.bad, rows) - log_density_many(model.good, rows)


def _rebuilt(model):
    """A model built afresh from model's counts: its logs do not depend on
    the ones fold wrote into model."""
    return FactorModel(model.graph, model.smoothing, model.counts.copy(), model.layout)


def _ei_band(index, model, open_rows, tol=1e-9):
    """Open rows whose incremental score is within tol of the best, computed
    as scores over every row: the band that RatioIndex.near must hold."""
    (prior,) = model.priors
    ratio = np.exp(np.clip(index.log_ratio(model)[0], -700.0, 700.0))
    approx = np.where(open_rows, 1.0 / (prior + ratio * (1.0 - prior)), 0.0)
    return np.flatnonzero(approx >= approx.max() * (1.0 - tol))


def _assert_best_is_exact(index, model, open_rows):
    """best() is the tie set of the from-scratch maximum over the open rows,
    in ascending order (the tie-break indexes into it), and near() holds the
    whole score band of open rows; return the tie set.  The score of a
    selection is checked by the sampler's on-read scoring tests."""
    np.testing.assert_array_equal(index.log_ratio(model)[0] == np.inf, ~open_rows)
    scratch = expected_improvement_many(_rebuilt(model), index.rows)
    top = scratch[open_rows].max()
    (tied,) = index.best(model)
    np.testing.assert_array_equal(tied, np.flatnonzero(open_rows & (scratch == top)))
    assert (np.diff(tied) > 0).all()
    near = np.flatnonzero(index.near(model)[0])
    assert open_rows[near].all()
    assert np.isin(_ei_band(index, model, open_rows), near).all()
    return tied


def _trie_reference(graph, rows):
    """How many packages lead the trie: in the index's package order (here
    the graphs' own), a level joins while its distinct prefixes number at
    most half the rows and the keys of the level above times its versions
    at most four times the rows."""
    n, width = rows.shape[0], 1
    for depth, m in enumerate(graph.domain_sizes):
        prefixes = np.unique(rows[:, :depth + 1], axis=0).shape[0]
        if width * m > 4 * n or prefixes > n / 2:
            return depth
        width = prefixes
    return graph.n_packages


class TestRatioIndex:
    @settings(max_examples=150, deadline=None)
    @given(_selection_states(), st.sampled_from([1.0, 0.5, 0.02]))
    def test_property_best_is_the_exact_maximum(self, state, share_open):
        """Rows closed when the index is built and rows closed after the
        updates both drop out of the selection."""
        graph, rows, records, start, smoothing, seed = state
        rng = np.random.default_rng(seed)
        open_rows = rng.random(rows.shape[0]) < share_open
        open_rows[rng.integers(open_rows.size)] = True
        later = ~open_rows & (rng.random(rows.shape[0]) < 0.5)
        index, model = _indexed(graph, rows, records, start, smoothing, open_rows | later)
        index.closed[0, later] = True
        _assert_best_is_exact(index, model, open_rows)

    @pytest.mark.parametrize("which", ["all", "past-lower-clamp", "saturated",
                                       "past-upper-clamp"])
    def test_best_at_the_clamps_and_saturation(self, which):
        # Smoothing 1e-30 adds about -69 per factor to a row seen only good
        # and +69 per factor to one seen only bad: 25 factors pass +/-700.
        graph = wide_graph(12, 2)
        records = [BuildRecord((0,) * 13, True), BuildRecord((1,) * 13, False),
                   BuildRecord((0,) * 12 + (1,), True)]
        rows = full_space_matrix(graph).astype(np.int64)
        index, model = _indexed(graph, rows, records, 1, 1e-30)
        log_ratio = index.log_ratio(model)[0].copy()
        assert log_ratio.min() < -700 and log_ratio.max() > 700
        open_rows = {
            "all": np.ones(log_ratio.size, dtype=bool),
            "past-lower-clamp": log_ratio < -700,
            "saturated": (log_ratio > -700) & (log_ratio < -100),
            "past-upper-clamp": log_ratio > 710,  # where exp() overflows, too
        }[which]
        index.closed[0] = ~open_rows
        tied = _assert_best_is_exact(index, model, open_rows)
        if which != "all":
            # Every open row scores the same: the clamp or 1/prior in floats.
            assert tied.size == np.count_nonzero(open_rows) > 1

    @staticmethod
    def _lockstep_case(bands, runs):
        """An index of runs lockstep runs, each with its own history and
        open rows, and its model.  Narrow: 3^6 rows and smoothing 1e-2,
        whose bands together hold fewer rows than the matrix.  Wide: 2^13
        rows, smoothing 1e-12 and four failures a run, so that nearly every
        row holds a cell never seen bad and each band holds most open rows:
        the rows of two such cells or more tie at 1/prior, and those of one
        score a little below it, inside the band."""
        rng = np.random.default_rng(runs)
        if bands == "narrow":
            graph, smoothing, built, size = chain_graph(6, 3), 1e-2, lambda c: c[0] != c[1], 8
        else:
            graph, smoothing, built, size = wide_graph(12, 2), 1e-12, lambda c: False, 4
        rows = full_space_matrix(graph).astype(np.int64)
        histories = [distinct_records(graph, size, rng, built) for _ in range(runs)]
        open_rows = rng.random((runs, rows.shape[0])) < 0.9
        for history, line in zip(histories, open_rows):
            line[[rows.tolist().index(list(record.config)) for record in history]] = False
        index, model = _lockstep(graph, rows, histories, size // 2, smoothing, open_rows)
        return index, model, open_rows

    @pytest.mark.parametrize("runs", [2, 3])
    @pytest.mark.parametrize("bands", ["narrow", "wide"])
    def test_lockstep_best_is_each_runs_own(self, bands, runs, monkeypatch):
        """Each run's tie set is the one a one-run index over its own model
        gives, and the from-scratch maximum over its open rows, whether the
        runs' bands together hold fewer rows than the matrix or more; the
        bands wider than a row are rescored in one call."""
        index, model, open_rows = self._lockstep_case(bands, runs)
        widths = np.count_nonzero(index.near(model), axis=1)
        assert (widths.sum() < index.rows.shape[0]) == (bands == "narrow")
        calls = _counted_scoring(monkeypatch)
        tied = index.best(model)
        assert calls == ([int(widths[widths > 1].sum())] if (widths > 1).any() else [])
        assert len(tied) == runs
        for run, (line, mine) in enumerate(zip(open_rows, tied)):
            one = FactorModel(model.graph, model.smoothing, model.counts[:, [run]].copy())
            (alone,) = RatioIndex(one, index.rows, ~line[None]).best(one)
            scratch = expected_improvement_many(one, index.rows)
            np.testing.assert_array_equal(mine, alone)
            np.testing.assert_array_equal(
                mine, np.flatnonzero(line & (scratch == scratch[line].max())))

    @pytest.mark.parametrize("runs", [1, 3])
    @pytest.mark.parametrize("bands", ["flat", "one-row"])
    def test_bands_not_rescored(self, bands, runs, monkeypatch):
        """A step makes no expected_improvement call when every band wider
        than a row is a flat model's, smoothing 1e20 swamping every count,
        whose band and tie set are all the open rows; nor when every band
        holds one row, as over 500 random rows of 3^12 each run's does."""
        rng = np.random.default_rng(5)
        graph = chain_graph(12, 3)
        drawn = rng.integers(0, 3, size=(500, 12))
        rows = drawn[first_occurrences(drawn)]
        histories = [[BuildRecord(tuple(row), bool(built)) for row, built
                      in zip(rows[rng.permutation(rows.shape[0])[:20]].tolist(),
                             rng.random(20) < 0.4)] for _ in range(runs)]
        open_rows = np.ones((runs, rows.shape[0]), dtype=bool)
        smoothing = 1e20 if bands == "flat" else 1.0
        index, model = _lockstep(graph, rows, histories, 12, smoothing, open_rows)
        closes = np.array([rng.choice(rows.shape[0], 30, replace=False) for _ in range(runs)])
        index.closed[np.arange(runs)[:, None], closes] = True
        open_rows[np.arange(runs)[:, None], closes] = False
        widths = np.count_nonzero(index.near(model), axis=1)
        calls = _counted_scoring(monkeypatch)
        tied = index.best(model)
        assert calls == []
        if bands == "flat":
            assert (widths == np.count_nonzero(open_rows, axis=1)).all()
            for line, mine in zip(open_rows, tied):
                np.testing.assert_array_equal(mine, np.flatnonzero(line))
        else:
            assert (widths == 1).all()
            for line, mine in zip(index.near(model), tied):
                np.testing.assert_array_equal(mine, np.flatnonzero(line))

    def test_wide_rescored_bands_memory(self, monkeypatch):
        """Over the 3^10 space, four failures a run and smoothing 1e-12 leave
        each of 10 runs a band of nearly every row and a model that is not
        flat, so one call rescores some 585,000 rows.  best() holds each band
        row's pick and run while the call runs, and its pick and tie set
        after it: 16 bytes a row.  The scores go to a buffer of the index,
        and the call's gathers take a block of rows at a time, under 2 MiB."""
        graph = chain_graph(10, 3)
        rows = full_space_matrix(graph).astype(np.int64)
        rng = np.random.default_rng(1)
        counts = [fit(distinct_records(graph, 4, rng, lambda c: False), graph, 1e-12).counts
                  for _ in range(10)]
        model = FactorModel(graph, 1e-12, np.concatenate(counts, axis=1))
        index = RatioIndex(model, rows, np.zeros((10, rows.shape[0]), dtype=bool))
        widths = np.count_nonzero(index.near(model), axis=1)
        assert (widths > 0.98 * rows.shape[0]).all()
        calls = _counted_scoring(monkeypatch)
        index.best(model)  # numpy's first calls may cache
        assert calls == [int(widths.sum())]
        tracemalloc.start()
        try:
            tied = index.best(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 16 * widths.sum() + (2 << 20)
        for run in (0, 9):
            scratch = expected_improvement_many(
                FactorModel(graph, 1e-12, model.counts[:, [run]].copy()), rows)
            np.testing.assert_array_equal(tied[run], np.flatnonzero(scratch == scratch.max()))

    @pytest.mark.parametrize("space", ["dense", "dag", "sparse", "wide-domain"])
    def test_trie_takes_the_levels_of_at_most_half_the_rows(self, space):
        """The whole 3^9 space leaves its last level out of the trie, and so
        does a 3^6 DAG, which has a package of two parents on either side;
        500 random rows of a 12-package space leave most levels out; a
        300-version package of which the rows hold 5 versions stops the trie
        by the span of its keys, not by its prefixes."""
        rng = np.random.default_rng(8)
        if space == "dense":
            graph = chain_graph(9, 3)
            rows = full_space_matrix(graph).astype(np.int64)
        elif space == "dag":
            graph = DependencyGraph(
                packages=tuple(f"p{i}" for i in range(6)),
                domains=(("v0", "v1", "v2"),) * 6,
                edges=((0, 1), (0, 2), (1, 2), (1, 4), (2, 3), (3, 5), (4, 5)), root=0)
            rows = full_space_matrix(graph).astype(np.int64)
        else:
            sizes = (3, 3, 300, 3, 3) if space == "wide-domain" else (3,) * 12
            graph = DependencyGraph(
                packages=tuple(f"p{i}" for i in range(len(sizes))),
                domains=tuple(tuple(f"v{j}" for j in range(m)) for m in sizes),
                edges=tuple((i // 2, i) for i in range(1, len(sizes))), root=0)
            drawn = rng.integers(0, np.minimum(sizes, 5), size=(500, len(sizes)))
            rows = drawn[first_occurrences(drawn)]
        records = [BuildRecord(tuple(row), bool(b))
                   for row, b in zip(rows[:30].tolist(), rng.random(30) < 0.3)]
        index, model = _indexed(graph, rows, records, 10, 1.0)
        depth = _trie_reference(graph, rows)
        assert len(index._prefixes._levels) == depth == {"dense": 8, "dag": 5, "sparse": 5,
                                               "wide-domain": 2}[space]
        np.testing.assert_allclose(index.log_ratio(model)[0],
                                   _from_scratch(_rebuilt(model), rows), rtol=0, atol=1e-9)

    def test_build_holds_one_copy_of_the_index(self):
        """Building the index over a 3^9-row space traces at most what it
        holds plus one temporary of 8 bytes a row, less than an int32
        inverted index over every factor would hold alone.  It holds, a
        row, 8 bytes of log ratio, 8 of suffix sums, 1 of mask, 8 of leaf
        node, 4 for each of the 2 suffix factors' inverted index, 12 for
        the trie's N/2 nodes at 24 bytes each and 8/3 for their scratch."""
        graph = chain_graph(9, 3)
        rows = full_space_matrix(graph).astype(np.int64)
        records = distinct_records(graph, 40, np.random.default_rng(3),
                                   lambda c: c[0] == c[1])
        model = fit(records, graph)
        n_rows, n_factors = rows.shape[0], graph.n_packages + len(graph.edges)
        closed = np.zeros((1, n_rows), dtype=bool)
        tracemalloc.start()
        try:
            RatioIndex(model, rows, closed)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        held = (8 + 8 + 1 + 8 + 2 * 4 + 12 + 8 / 3) * n_rows
        assert peak < held + 8 * n_rows < n_factors * n_rows * 4 + 9 * n_rows

    def test_selection_allocates_nothing_proportional_to_the_rows(self):
        """Steps over the 3^11 space (177,147 rows) of summing, selecting,
        closing and updating trace less than a byte per row."""
        graph = chain_graph(11, 3)
        rows = full_space_matrix(graph).astype(np.int64)
        records = distinct_records(graph, 30, np.random.default_rng(4),
                                   lambda c: c[2] != c[3])
        model = fit(records[:20], graph)
        index = RatioIndex(model, rows, np.zeros((1, rows.shape[0]), dtype=bool))
        index.best(model)  # numpy's first calls may cache
        tracemalloc.start()
        try:
            for record in records[20:]:
                (tied,) = index.best(model)
                index.closed[0, tied[0]] = True
                _fold(model, record.config, record.outcome)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < rows.shape[0]

    @settings(max_examples=100, deadline=None)
    @given(_observed_spaces())
    def test_property_updates_match_full_fit(self, space):
        """After every update each open row's log ratio is the from-scratch
        one, and each row closed along the way reads +inf."""
        graph, rows, records, start, smoothing = space
        index, model = _indexed(graph, rows, records[:start], start, smoothing)
        closed = np.zeros(rows.shape[0], dtype=bool)
        for i in range(start, len(records)):
            _fold(model, records[i].config, records[i].outcome)
            full = fit(records[:i + 1], graph, smoothing)
            if i % 2 and not closed.all():
                shut = int(np.flatnonzero(~closed)[0])
                index.closed[0, shut] = True
                closed[shut] = True
            log_ratio = index.log_ratio(model)[0]
            np.testing.assert_allclose(log_ratio[~closed], _from_scratch(full, rows)[~closed],
                                       rtol=0, atol=1e-9)
            assert (log_ratio[closed] == np.inf).all()

    @pytest.mark.parametrize("runs", [1, 3])
    def test_folded_index_reads_as_a_fresh_index(self, runs):
        """An index that has seen k records folded into its model, and rows
        closed along the way, reads bit for bit what an index built afresh
        over the same model and closed rows reads: it holds no sums of its
        own between calls."""
        rng = np.random.default_rng(runs)
        graph = chain_graph(8, 3)
        rows = full_space_matrix(graph).astype(np.int64)
        histories = [distinct_records(graph, 30, rng, lambda c: c[0] != c[1])
                     for _ in range(runs)]
        open_rows = np.ones((runs, rows.shape[0]), dtype=bool)
        index, model = _lockstep(graph, rows, histories, 10, 1.0, open_rows)
        index.log_ratio(model)  # sums the model of the first 10 records
        for step in zip(*(history[10:] for history in histories)):
            cells = model.layout.cells(np.array([r.config for r in step], dtype=np.int64))
            model.fold(cells, np.array([0 if r.outcome else 1 for r in step]))
            index.closed[np.arange(runs), rng.integers(rows.shape[0], size=runs)] = True
            index.log_ratio(model)
        fresh = RatioIndex(model, rows, index.closed.copy())
        np.testing.assert_array_equal(index.log_ratio(model), fresh.log_ratio(model))
        assert index.closed.any(axis=1).all()


def _topological_not_package_order():
    """Five packages whose only root is the last: no topological order is
    the package order."""
    return DependencyGraph(
        packages=tuple(f"p{i}" for i in range(5)),
        domains=(("a", "b", "c"),) * 5,
        edges=((4, 0), (4, 2), (0, 1), (2, 3), (1, 3)),
        root=4)


class TestCrowdPrefixes:
    """Crowd scores summed through the prefix sums, as the sampler sums each
    stale run's, equal FactorModel.crowd's bit for bit."""

    @staticmethod
    def _assert_crowd_equal(model, rows):
        """Each run's scores through the prefix sums, one run a call, equal
        FactorModel.crowd over the rows' columns; return the prefix sums."""
        prefixes = _crowd_prefixes(model.layout, rows)
        logs = model.crowd_logs()
        columns = np.ascontiguousarray(rows.T)
        for run in range(model.runs.size):
            line = np.empty((1, rows.shape[0]))
            np.exp(prefixes.sums(logs[run:run + 1], line), out=line)
            np.testing.assert_array_equal(line[0], model.crowd(columns, run))
        return prefixes

    @staticmethod
    def _model(graph, histories):
        return FactorModel(graph, 1.0, np.concatenate(
            [fit(history, graph).counts for history in histories], axis=1))

    def test_whole_space(self):
        """The 3^8 space: seven levels in the trie and the last below it."""
        graph = chain_graph(8, 3)
        rng = np.random.default_rng(1)
        rows = full_space_matrix(graph).astype(np.int64)
        model = self._model(graph, [distinct_records(graph, 60, rng, lambda c: c[0] != c[1])
                                    for _ in range(2)])
        assert len(self._assert_crowd_equal(model, rows)._levels) == 7

    def test_sparse_rows_cut_early(self):
        """500 random rows of 3^12: five levels in the trie, seven below."""
        graph = chain_graph(12, 3)
        rng = np.random.default_rng(2)
        drawn = rng.integers(0, 3, size=(500, 12))
        rows = drawn[first_occurrences(drawn)]
        model = self._model(graph, [distinct_records(graph, 80, rng, lambda c: c[2] != c[3])])
        assert len(self._assert_crowd_equal(model, rows)._levels) == 5

    def test_topological_order_is_not_package_order(self):
        """Crowd sums in package order whatever the graph's order, and the
        ratio index, which sums in a topological order, still agrees with
        the from-scratch sums."""
        graph = _topological_not_package_order()
        assert list(graph.topological_order) != list(range(5))
        rng = np.random.default_rng(3)
        rows = full_space_matrix(graph).astype(np.int64)
        records = distinct_records(graph, 40, rng, lambda c: c[4] != c[0])
        model = self._model(graph, [records])
        self._assert_crowd_equal(model, rows)
        index = RatioIndex(model, rows, np.zeros((1, rows.shape[0]), dtype=bool))
        np.testing.assert_allclose(index.log_ratio(model)[0], _from_scratch(model, rows),
                                   rtol=0, atol=1e-9)

    def test_run_without_a_good_record_and_versions_never_seen_good(self):
        """A run with no good record scores every row 0; another's good
        records never hold version 2 of the first package, so the rows that
        do score 0 and the others do not."""
        graph = chain_graph(6, 3)
        rng = np.random.default_rng(4)
        rows = full_space_matrix(graph).astype(np.int64)
        bad = distinct_records(graph, 20, rng, lambda c: False)
        good = distinct_records(graph, 60, rng, lambda c: c[0] != 2)
        model = self._model(graph, [bad, good])
        self._assert_crowd_equal(model, rows)
        assert (model.crowd(rows.T, 0) == 0).all()
        scores = model.crowd(rows.T, 1)
        assert (scores[rows[:, 0] == 2] == 0).all() and (scores[rows[:, 0] != 2] > 0).any()


# Unequal domains (3, 2, 4) so an edge table's row and column sizes differ.
_UNEVEN = DependencyGraph(
    packages=("A", "B", "C"),
    domains=(("a1", "a2", "a3"), ("b1", "b2"), ("c1", "c2", "c3", "c4")),
    edges=((0, 1), (0, 2), (1, 2)),
    root=0,
)


def _counted_by_hand(graph, records, outcome):
    """Per-record counts of one side: n, node count lists, edge count lists."""
    side = [r.config for r in records if r.outcome == outcome]
    nodes = [[sum(1 for c in side if c[i] == v) for v in range(len(domain))]
             for i, domain in enumerate(graph.domains)]
    edges = [[[sum(1 for c in side if c[p] == u and c[q] == w)
               for w in range(len(graph.domains[q]))]
              for u in range(len(graph.domains[p]))]
             for p, q in graph.edges]
    return len(side), nodes, edges


_UNEVEN_CONFIGS = st.tuples(st.integers(0, 2), st.integers(0, 1), st.integers(0, 3))


def _state_of(model):
    """Copies of both sides' n, counts, weights and logs, factor by factor."""
    return [np.array(a) for side in ("good", "bad")
            for table in (getattr(model, side),)
            for a in (getattr(model, f"{side}_stats").n,
                      *getattr(model, f"{side}_stats").factors,
                      *table.node_weights, *table.edge_weights,
                      *table.layout.views(table.log))]


def _counts_of(stats):
    return (stats.n, [c.tolist() for c in stats.node_counts],
            [c.tolist() for c in stats.edge_counts])


class TestCounting:
    @pytest.mark.parametrize("smoothing", [0.0, -0.5, math.nan, math.inf, 10**400],
                             ids=["zero", "negative", "nan", "inf", "beyond-float"])
    def test_fit_rejects_smoothing_not_finite_and_positive(self, smoothing):
        graph = two_package_graph()
        with pytest.raises(ValueError, match="smoothing must be finite and positive"):
            fit(_history(graph, [((0, 1), True)]), graph, smoothing=smoothing)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(_UNEVEN_CONFIGS, max_size=25),
           st.lists(st.booleans(), min_size=25, max_size=25),
           st.sampled_from(["mixed", "all good", "all bad"]),
           st.lists(st.tuples(_UNEVEN_CONFIGS, st.booleans()), min_size=1, max_size=8),
           st.sampled_from([1.0, 0.5, 1e-30]))
    def test_property_fit_counts_each_record(self, configs, flips, mode, chain, smoothing):
        outcomes = {"mixed": flips, "all good": [True] * 25, "all bad": [False] * 25}[mode]
        records = [BuildRecord(c, o) for c, o in zip(configs, outcomes)]
        model = fit(records, _UNEVEN, smoothing)
        for stats, outcome in ((model.good_stats, True), (model.bad_stats, False)):
            assert _counts_of(stats) == _counted_by_hand(_UNEVEN, records, outcome)
            assert all(c.dtype == np.int64 for c in (*stats.node_counts, *stats.edge_counts))
        # Each refit in a chain equals a full fit bit for bit, and leaves the
        # model it started from as it was.
        for config, outcome in chain:
            before = _state_of(model)
            updated = refit_incremental(model, np.array(config), outcome)
            assert all(np.array_equal(a, b) for a, b in zip(_state_of(model), before))
            records.append(BuildRecord(config, outcome))
            refitted = fit(records, _UNEVEN, smoothing)
            assert all(np.array_equal(a, b)
                       for a, b in zip(_state_of(updated), _state_of(refitted)))
            # The per-factor formula that the flat buffers replaced.
            for side in ("good", "bad"):
                stats, table = getattr(updated, f"{side}_stats"), getattr(updated, side)
                for counts, weights, logs in zip(
                        stats.factors, (*table.node_weights, *table.edge_weights),
                        table.layout.views(table.log)):
                    expected = (counts + smoothing) / (stats.n + smoothing * counts.size)
                    assert np.array_equal(weights, expected)
                    assert np.array_equal(logs, np.log(expected))
            model = updated
        for stats, outcome in ((model.good_stats, True), (model.bad_stats, False)):
            assert _counts_of(stats) == _counted_by_hand(_UNEVEN, records, outcome)


class TestPersistence:
    def test_round_trip_exact(self, tmp_path):
        graph = chain_graph(4, 3)
        rng = np.random.default_rng(9)
        records = distinct_records(graph, 30, rng, lambda c: c[3] == 0)
        model = fit(records, graph, smoothing=0.5)
        path = str(tmp_path / "model.json")
        save_model(model, path)
        loaded = load_model(path)
        assert loaded.graph == model.graph
        assert loaded.smoothing == model.smoothing
        assert np.array_equal(loaded.n, model.n)
        matrix = full_space_matrix(graph)
        np.testing.assert_array_equal(
            expected_improvement_many(loaded, matrix), expected_improvement_many(model, matrix)
        )
        np.testing.assert_array_equal(
            crowd_score_many(loaded, matrix), crowd_score_many(model, matrix)
        )

    def test_rejects_bad_payload(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text("{\"smoothing\": 1.0}\n")
        with pytest.raises(ValueError):
            load_model(str(path))

    @pytest.mark.parametrize("version", [True, 1.0, "1", 2])
    def test_rejects_format_other_than_integer_one(self, tmp_path, version):
        with pytest.raises(ValueError, match=f"unsupported model format {version!r}"):
            self._load_edited(tmp_path, lambda p: p.update(format=version))

    @staticmethod
    def _load_edited(tmp_path, edit):
        """Save a fitted model, apply edit to its JSON payload, and load it."""
        graph = chain_graph(3, 2)
        records = distinct_records(graph, 6, np.random.default_rng(2), lambda c: c[0] == 0)
        path = tmp_path / "model.json"
        save_model(fit(records, graph), str(path))
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
        return load_model(str(path))

    def test_rejects_missing_field(self, tmp_path):
        with pytest.raises(ValueError, match="good.n is missing"):
            self._load_edited(tmp_path, lambda p: p["good"].pop("n"))

    def test_rejects_ill_typed_field(self, tmp_path):
        def edit(payload):
            payload["bad"]["n"] = str(payload["bad"]["n"])
        with pytest.raises(ValueError, match="bad.n is missing or not an integer"):
            self._load_edited(tmp_path, edit)

    @pytest.mark.parametrize("smoothing", [0.0, -0.5, math.nan, math.inf, 10**400],
                             ids=["zero", "negative", "nan", "inf", "beyond-float"])
    def test_rejects_smoothing_not_finite_and_positive(self, tmp_path, smoothing):
        with pytest.raises(ValueError, match="smoothing must be finite and positive"):
            self._load_edited(tmp_path, lambda p: p.update(smoothing=smoothing))

    def test_rejects_fractional_count(self, tmp_path):
        def edit(payload):
            payload["good"]["nodes"][0][0] += 0.5
        with pytest.raises(ValueError, match=r"good.nodes\[0\] must be an integer array"):
            self._load_edited(tmp_path, edit)

    def test_rejects_count_beyond_int64(self, tmp_path):
        def edit(payload):
            # numpy reads an all-[2**63, 2**64) list as uint64.
            payload["good"]["nodes"][0] = [2**63, 2**63]
        with pytest.raises(ValueError, match=r"good.nodes\[0\] must be an integer array"):
            self._load_edited(tmp_path, edit)

    def test_rejects_counts_whose_int64_sum_wraps_to_n(self, tmp_path):
        def edit(payload):
            # Four cells of 2**62 more each: the true sum is n + 2**64.
            entry = payload["bad"]["edges"][0]
            entry["counts"] = [[x + 2**62 for x in row] for row in entry["counts"]]
        with pytest.raises(ValueError, match=r"bad edge \('A', 'B'\) sums to"):
            self._load_edited(tmp_path, edit)

    def test_rejects_negative_count(self, tmp_path):
        def edit(payload):
            # Still sums to n, so only the sign is wrong.
            payload["good"]["nodes"][1] = [payload["good"]["n"] + 1, -1]
        with pytest.raises(ValueError, match=r"good.nodes\[1\] has a negative count"):
            self._load_edited(tmp_path, edit)

    def test_rejects_wrong_shape(self, tmp_path):
        def edit(payload):
            payload["bad"]["edges"][0]["counts"].pop()
        with pytest.raises(ValueError, match=r"must be an integer array of shape \(2, 2\)"):
            self._load_edited(tmp_path, edit)

    def test_rejects_counts_not_summing_to_n(self, tmp_path):
        def edit(payload):
            payload["good"]["n"] += 1
        with pytest.raises(ValueError, match="not the side's n"):
            self._load_edited(tmp_path, edit)

    def test_rejects_a_side_of_2_63_records(self, tmp_path):
        """Counts that each fit int64 but sum to 2**63 would wrap the int64
        record count that the model derives from them."""
        graph = chain_graph(3, 2)
        records = [BuildRecord(c, True) for c in ((0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0))]
        path = tmp_path / "model.json"
        save_model(fit(records, graph), str(path))
        payload = json.loads(path.read_text())
        good = payload["good"]
        good["n"] *= 2**61
        for counts in [*good["nodes"], *(row for edge in good["edges"] for row in edge["counts"])]:
            counts[:] = [c * 2**61 for c in counts]
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match=f"good.n {2**63} is beyond int64 range"):
            load_model(str(path))

    def test_rejects_counts_for_an_edge_the_graph_lacks(self, tmp_path):
        def edit(payload):
            payload["good"]["edges"].append(
                {"parent": "A", "child": "C", "counts": [[0, 0], [0, 0]]})
        with pytest.raises(ValueError, match=r"\('A', 'C'\), not a graph edge"):
            self._load_edited(tmp_path, edit)

    def test_rejects_an_edge_listed_twice(self, tmp_path):
        def edit(payload):
            payload["bad"]["edges"].append(dict(payload["bad"]["edges"][0]))
        with pytest.raises(ValueError, match=r"bad.edges lists edge \('A', 'B'\) twice"):
            self._load_edited(tmp_path, edit)

    def test_rejects_inconsistent_success_prior(self, tmp_path):
        with pytest.raises(ValueError, match="success_prior 0.99 differs"):
            self._load_edited(tmp_path, lambda p: p.update(success_prior=0.99))


def test_argmax_agrees_with_bruteforce_selection():
    """The vectorized scorer must rank exactly like per-config recomputation."""
    graph = chain_graph(3, 3)
    rng = np.random.default_rng(23)
    records = distinct_records(graph, 15, rng, lambda c: (c[0] + c[2]) % 3 != 0)
    model = fit(records, graph)
    matrix = full_space_matrix(graph)
    many = expected_improvement_many(model, matrix)
    brute = np.array([
        expected_improvement_many(model, np.asarray([config]))[0]
        for config in all_configurations(graph)
    ])
    assert int(np.argmax(many)) == int(np.argmax(brute))
    np.testing.assert_allclose(many, brute, atol=1e-15)

