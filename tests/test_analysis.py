"""Divergence, importance ranking, compatibility tables, constraint mining."""
from __future__ import annotations

import math

import numpy as np
import pytest

from buildtuner import (
    BuildRecord,
    SyntheticOracle,
    extract_constraints,
    fit,
    generate_benchmark,
    importance_ranking,
    js_divergence,
    pair_compatibility,
)
from helpers import all_configurations, chain_graph, distinct_records, two_package_graph


def plain_js(p, q):
    """Independent oracle: scalar-loop Jensen-Shannon divergence."""
    mid = [(a + b) / 2 for a, b in zip(p, q)]
    total = 0.0
    for dist in (p, q):
        for x, m in zip(dist, mid):
            if x > 0:
                total += 0.5 * x * math.log(x / m)
    return total


class TestJsDivergence:
    def test_identical_distributions(self):
        assert js_divergence([0.2, 0.3, 0.5], [0.2, 0.3, 0.5]) == 0.0

    def test_disjoint_support_reaches_log_two(self):
        assert js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(
            math.log(2), abs=1e-15
        )

    def test_frozen_value(self):
        assert js_divergence([0.5, 0.5], [0.9, 0.1]) == pytest.approx(
            0.10174922507919676, abs=1e-15
        )

    def test_symmetry(self):
        a, b = [0.5, 0.5], [0.9, 0.1]
        assert js_divergence(a, b) == pytest.approx(js_divergence(b, a), abs=0)

    def test_matches_plain_oracle_on_random_pairs(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            n = int(rng.integers(2, 8))
            p = rng.dirichlet(np.ones(n))
            q = rng.dirichlet(np.ones(n))
            value = js_divergence(p, q)
            assert value == pytest.approx(plain_js(p.tolist(), q.tolist()),
                                          abs=1e-12)
            assert 0.0 <= value <= math.log(2) + 1e-12

    def test_zero_entries_contribute_nothing(self):
        assert js_divergence([0.5, 0.5, 0.0], [0.5, 0.0, 0.5]) == pytest.approx(
            plain_js([0.5, 0.5, 0.0], [0.5, 0.0, 0.5]), abs=1e-15
        )

    def test_validation(self):
        with pytest.raises(ValueError, match="support mismatch"):
            js_divergence([0.5, 0.5], [1.0])
        with pytest.raises(ValueError, match="negative"):
            js_divergence([-0.1, 1.1], [0.5, 0.5])
        with pytest.raises(ValueError, match="sums to"):
            js_divergence([0.5, 0.4], [0.5, 0.5])
        # NaN compares false, so each check must be written to fail on it.
        with pytest.raises(ValueError, match="p has negative or NaN entries"):
            js_divergence([math.nan, 1.0], [0.5, 0.5])
        with pytest.raises(ValueError, match="q has negative or NaN entries"):
            js_divergence([0.5, 0.5], [1.0, math.nan])
        with pytest.raises(ValueError, match="p sums to inf"):
            js_divergence([math.inf, 0.0], [0.5, 0.5])


def _planted_model():
    """A -> B -> C, two versions each; A=v2 with B=v1 always fails."""
    graph = chain_graph(3, 2)
    records = [
        BuildRecord(c, not (c[0] == 1 and c[1] == 0))
        for c in all_configurations(graph)
    ]
    return fit(records, graph)


class TestImportance:
    def test_planted_edge_ranks_first(self):
        ranking = importance_ranking(_planted_model())
        assert ranking[0].target == "A+B"
        targets = [e.target for e in ranking]
        assert targets.index("A+B") < targets.index("B+C")
        assert targets.index("A+B") < targets.index("C")

    def test_covers_every_package_and_edge(self):
        ranking = importance_ranking(_planted_model())
        assert sorted(e.target for e in ranking) == ["A", "A+B", "B", "B+C", "C"]

    def test_uninvolved_package_scores_zero(self):
        ranking = {e.target: e.score for e in importance_ranking(_planted_model())}
        assert ranking["C"] == pytest.approx(0.0, abs=1e-12)
        assert ranking["A+B"] > ranking["B+C"] > 0.0

    def test_ties_break_by_name(self):
        # A and B play symmetric roles in the planted rule and tie exactly.
        ranking = importance_ranking(_planted_model())
        scores = {e.target: e.score for e in ranking}
        assert scores["A"] == scores["B"]
        targets = [e.target for e in ranking]
        assert targets.index("A") < targets.index("B")

    def test_top_k(self):
        ranking = importance_ranking(_planted_model(), top_k=2)
        assert len(ranking) == 2
        assert ranking[0].target == "A+B"
        assert importance_ranking(_planted_model(), top_k=0) == []
        with pytest.raises(ValueError, match="top_k"):
            importance_ranking(_planted_model(), top_k=-1)

    def test_empty_history_scores_all_zero(self):
        model = fit([], two_package_graph())
        assert all(e.score == 0.0 for e in importance_ranking(model))


def _xor_model():
    """Two packages; matching versions build, mismatched versions fail."""
    graph = two_package_graph()
    records = [
        BuildRecord((0, 0), True), BuildRecord((1, 1), True),
        BuildRecord((0, 1), False), BuildRecord((1, 0), False),
    ]
    return fit(records, graph, smoothing=1.0)


class TestPairCompatibility:
    def test_frozen_cells(self):
        """2 good / 2 bad records -> prior 1/2; seen cells 2/6, unseen 1/6.

        Diagonal ratio 1/2 -> 1 / (0.5 + 0.25) = 4/3; off-diagonal ratio 2
        -> 1 / (0.5 + 1.0) = 2/3.
        """
        model = _xor_model()
        assert model.success_prior == pytest.approx(0.5)
        matrix = pair_compatibility(model, ("A", "B"))
        np.testing.assert_allclose(
            matrix.cells, [[4 / 3, 2 / 3], [2 / 3, 4 / 3]], atol=1e-15
        )
        assert matrix.parent == "A" and matrix.child == "B"
        assert matrix.parent_versions == ("v1", "v2")

    def test_to_rows_layout(self):
        rows = pair_compatibility(_xor_model(), ("A", "B")).to_rows()
        assert rows[0] == ["", "v1", "v2"]
        assert rows[1][0] == "v1"
        assert rows[1][1] == pytest.approx(4 / 3)

    def test_matches_per_cell_expected_improvement(self):
        graph, rules = generate_benchmark(10, 3, 0.5, 0.2, seed=4)
        oracle = SyntheticOracle(graph, rules)
        records = distinct_records(graph, 300, np.random.default_rng(8), oracle.evaluate)
        model = fit(records, graph)
        for j, (p, c) in enumerate(graph.edges):
            good, bad = model.good.edge_weights[j], model.bad.edge_weights[j]
            prior = model.success_prior
            expected = [[1.0 / (prior + bad[u, w] / good[u, w] * (1.0 - prior))
                         for w in range(good.shape[1])] for u in range(good.shape[0])]
            cells = pair_compatibility(model, (graph.packages[p], graph.packages[c])).cells
            np.testing.assert_array_equal(cells, expected)

    def test_unknown_edge(self):
        with pytest.raises(ValueError, match="no edge 'B' -> 'A'"):
            pair_compatibility(_xor_model(), ("B", "A"))

    def test_unknown_package(self):
        with pytest.raises(ValueError):
            pair_compatibility(_xor_model(), ("A", "Z"))


class TestExtractConstraints:
    def test_threshold_zero_extracts_nothing(self):
        matrix = pair_compatibility(_xor_model(), ("A", "B"))
        assert extract_constraints(matrix, threshold=0.0) == []

    def test_flags_low_cells(self):
        matrix = pair_compatibility(_xor_model(), ("A", "B"))
        pairs = extract_constraints(matrix, threshold=0.6)
        assert [(p.parent_version, p.child_version) for p in pairs] == [
            ("v1", "v2"), ("v2", "v1")
        ]
        for pair in pairs:
            assert pair.ei == pytest.approx(2 / 3)
            assert pair.parent == "A" and pair.child == "B"
            assert pair.to_dict()["ei"] == pair.ei

    def test_best_cell_never_flagged(self):
        matrix = pair_compatibility(_xor_model(), ("A", "B"))
        pairs = extract_constraints(matrix, threshold=1.0)
        flagged = {(p.parent_version, p.child_version) for p in pairs}
        assert ("v1", "v1") not in flagged and ("v2", "v2") not in flagged

    def test_threshold_validation(self):
        matrix = pair_compatibility(_xor_model(), ("A", "B"))
        with pytest.raises(ValueError, match="outside"):
            extract_constraints(matrix, threshold=1.5)
        with pytest.raises(ValueError, match="outside"):
            extract_constraints(matrix, threshold=-0.1)

    def test_orders_by_score_then_versions(self):
        graph = chain_graph(2, 3)
        records = []
        for config in all_configurations(graph):
            # v3 parents fail with everything; v2 parents fail with v1 child.
            good = not (config[0] == 2 or (config[0] == 1 and config[1] == 0))
            records.append(BuildRecord(config, good))
        model = fit(records, graph)
        pairs = extract_constraints(pair_compatibility(model, ("A", "B")), 0.9)
        scores = [p.ei for p in pairs]
        assert scores == sorted(scores)
