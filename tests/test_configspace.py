"""Graph validation, space enumeration, and canonical digests."""
from __future__ import annotations

import hashlib
import heapq
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buildtuner import (
    DependencyGraph,
    GraphError,
    config_digest,
    load_graph,
    random_configuration,
    save_graph,
    space_size,
    validate_graph,
)
from buildtuner.configspace import (
    check_configuration,
    check_rows,
    config_from_labels,
    first_occurrences,
    full_space_matrix,
    random_configurations,
)
from helpers import all_configurations, chain_graph, two_package_graph


def test_valid_chain_passes():
    validate_graph(chain_graph(4, 3))


@pytest.mark.parametrize(
    "edges, message",
    [
        (((0, 0),), "self-edge at package 0"),
        (((0, 1), (1, 0)), "cycle"),
        (((0, 5),), "dangling edge"),
    ],
)
def test_bad_edges_rejected(edges, message):
    graph = DependencyGraph(
        packages=("A", "B"),
        domains=(("v1",), ("v1",)),
        edges=edges,
        root=0,
    )
    with pytest.raises(GraphError, match=message):
        validate_graph(graph)


def test_empty_domain_rejected():
    graph = DependencyGraph(
        packages=("A", "B"), domains=(("v1",), ()), edges=((0, 1),), root=0
    )
    with pytest.raises(GraphError, match="empty domain at package 1"):
        validate_graph(graph)


def test_duplicate_version_rejected():
    graph = DependencyGraph(
        packages=("A", "B"), domains=(("v1", "v1"), ("v1",)), edges=((0, 1),), root=0
    )
    with pytest.raises(GraphError, match="duplicate version label at package 0"):
        validate_graph(graph)


def test_duplicate_package_name_rejected():
    """Two packages of one name are refused by validate_graph itself, not
    only when read from a dict: index_of would resolve both to the later."""
    graph = DependencyGraph(
        packages=("A", "A"), domains=(("v1",), ("v1",)), edges=((0, 1),), root=0
    )
    with pytest.raises(GraphError, match="duplicate package names"):
        validate_graph(graph)
    payload = {"root": "A", "edges": [["A", "B"]],
               "packages": [{"name": name, "versions": ["v1"]} for name in ("A", "B", "A")]}
    with pytest.raises(GraphError, match="duplicate package names"):
        DependencyGraph.from_dict(payload)


def test_unreachable_package_rejected():
    graph = DependencyGraph(
        packages=("A", "B", "C"),
        domains=(("v1",), ("v1",), ("v1",)),
        edges=((0, 1),),
        root=0,
    )
    with pytest.raises(GraphError, match="package 2 .* unreachable"):
        validate_graph(graph)


def test_bad_root_rejected():
    graph = DependencyGraph(
        packages=("A",), domains=(("v1",),), edges=(), root=3
    )
    with pytest.raises(GraphError, match="root index 3"):
        validate_graph(graph)


def test_space_size_is_domain_product():
    graph = chain_graph(3, 2)
    assert space_size(graph) == 8
    # Unbounded integers: 40 packages with 10 versions each.
    big = DependencyGraph(
        packages=tuple(f"p{i}" for i in range(40)),
        domains=tuple(tuple(f"v{j}" for j in range(10)) for _ in range(40)),
        edges=tuple((0, i) for i in range(1, 40)),
        root=0,
    )
    validate_graph(big)
    assert space_size(big) == 10**40


def test_enumeration_matches_space_size():
    graph = chain_graph(3, 3)
    configs = list(all_configurations(graph))
    assert len(configs) == space_size(graph) == 27
    assert len(set(configs)) == 27
    matrix = full_space_matrix(graph)
    assert matrix.shape == (27, 3)
    assert [tuple(int(v) for v in row) for row in matrix] == configs


def test_random_configuration_valid_and_deterministic():
    graph = chain_graph(5, 4)
    rng = np.random.default_rng(7)
    configs = [random_configuration(graph, rng) for _ in range(50)]
    for config in configs:
        check_configuration(graph, config)
    rng2 = np.random.default_rng(7)
    assert configs == [random_configuration(graph, rng2) for _ in range(50)]


def _graph_of_sizes(sizes) -> DependencyGraph:
    graph = DependencyGraph(
        packages=tuple(f"p{i}" for i in range(len(sizes))),
        domains=tuple(tuple(f"v{j}" for j in range(size)) for size in sizes),
        edges=tuple((0, i) for i in range(1, len(sizes))),
        root=0,
    )
    validate_graph(graph)
    return graph


@pytest.mark.parametrize("sizes", [(1,), (3, 1, 70_000, 2), (2,) * 10, (70_000, 1, 1)])
@pytest.mark.parametrize("n", [0, 1, 7, 500])
def test_random_configurations_equal_one_draw_at_a_time(sizes, n):
    graph = _graph_of_sizes(sizes)
    one_by_one, batched = np.random.default_rng(31), np.random.default_rng(31)
    reference = [random_configuration(graph, one_by_one) for _ in range(n)]
    rows = random_configurations(graph, batched, n)
    assert rows.dtype == np.int64 and rows.shape == (n, len(sizes))
    assert list(map(tuple, rows.tolist())) == reference
    assert batched.bit_generator.state == one_by_one.bit_generator.state
    assert batched.integers(2**62) == one_by_one.integers(2**62)


@pytest.mark.parametrize("entry", [1.5, np.float64(1.0), "a", None, [1]])
@pytest.mark.parametrize("check", [
    check_configuration, lambda graph, config: check_rows(graph, [(0, 0), config]),
], ids=["check_configuration", "check_rows"])
def test_non_integer_version_index_rejected(check, entry):
    with pytest.raises(GraphError, match="not an integer"):
        check(two_package_graph(), (0, entry))


@pytest.mark.parametrize("configs, match", [
    ([(0, 0), (0, 2)], "out of range"),
    ([(0, 0), (-1, 0)], "out of range"),
    ([(0, 0), (0, 0, 0)], "length 3"),
    ([(0, 1, 1)], "length 3"),
])
def test_check_rows_rejects_what_check_configuration_rejects(configs, match):
    with pytest.raises(GraphError, match=match):
        check_configuration(two_package_graph(), configs[-1])
    with pytest.raises(GraphError, match=match):
        check_rows(two_package_graph(), configs)


def test_check_rows_returns_a_new_int64_matrix():
    graph = two_package_graph()
    source = np.array([[0, 1], [1, 0]], dtype=np.uint8)
    rows = check_rows(graph, source)
    assert rows.dtype == np.int64 and rows.tolist() == [[0, 1], [1, 0]]
    assert not np.shares_memory(rows, source)
    assert check_rows(graph, []).shape == (0, 2)


@given(st.lists(st.lists(st.one_of(st.integers(-1, 2), st.floats(0, 1), st.text(max_size=1),
                                   st.booleans()), min_size=1, max_size=3), max_size=6))
@settings(max_examples=200, deadline=None)
def test_check_rows_agrees_with_check_configuration(configs):
    graph = two_package_graph()
    try:
        for config in configs:
            check_configuration(graph, config)
    except GraphError:
        with pytest.raises(GraphError):
            check_rows(graph, configs)
    else:
        assert check_rows(graph, configs).tolist() == [[int(v) for v in c] for c in configs]


def test_cycle_below_an_acyclic_prefix_names_its_lowest_package():
    graph = DependencyGraph(
        packages=("R", "A", "B", "C"),
        domains=(("v1",),) * 4,
        edges=((0, 1), (1, 2), (2, 3), (3, 2)),
        root=0,
    )
    with pytest.raises(GraphError) as raised:
        validate_graph(graph)
    assert str(raised.value) == "cycle through package 2 ('B')"
    assert graph.topological_order == (0, 1)


def test_cycle_message_names_a_package_on_the_cycle_not_one_below_it():
    """L is left out of the order only because C, on the cycle, depends on it."""
    graph = DependencyGraph(
        packages=("R", "L", "B", "C"),
        domains=(("v1",),) * 4,
        edges=((0, 2), (2, 3), (3, 1), (3, 2)),
        root=0,
    )
    with pytest.raises(GraphError) as raised:
        validate_graph(graph)
    assert str(raised.value) == "cycle through package 2 ('B')"
    assert graph.topological_order == (0,)


def _reference_topological_order(graph):
    """Kahn's sort over a heap of ready packages, written out as the
    reference for DependencyGraph.topological_order."""
    waiting = [0] * graph.n_packages
    for _, child in graph.edges:
        waiting[child] += 1
    ready = [i for i, count in enumerate(waiting) if count == 0]
    order = []
    while ready:
        package = heapq.heappop(ready)
        order.append(package)
        for child in graph.children_map[package]:
            waiting[child] -= 1
            if waiting[child] == 0:
                heapq.heappush(ready, child)
    return order


@st.composite
def _digraphs(draw, acyclic: bool):
    """A graph of up to 9 one-version packages and its edges; acyclic ones
    point down a drawn ranking of the packages, so a parent may have any index."""
    n = draw(st.integers(1, 9))
    rank = draw(st.permutations(range(n)))
    pairs = draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                         .filter(lambda pair: pair[0] != pair[1]), max_size=3 * n))
    if acyclic:
        pairs = {(rank[min(a, b)], rank[max(a, b)]) for a, b in pairs}
    return DependencyGraph(packages=tuple(f"p{i}" for i in range(n)), domains=(("v1",),) * n,
                           edges=tuple(sorted(pairs)), root=rank[0])


@given(_digraphs(acyclic=True))
@settings(max_examples=150, deadline=None)
def test_topological_order_puts_parents_first_and_equals_the_reference(graph):
    order = graph.topological_order
    assert sorted(order) == list(range(graph.n_packages))
    place = {package: at for at, package in enumerate(order)}
    assert all(place[parent] < place[child] for parent, child in graph.edges)
    assert list(order) == _reference_topological_order(graph)


def _reference_cycle_package(graph, left_out):
    """From the lowest package left out, step to its lowest parent left out
    until a package comes round again; the lowest package of that round."""
    path = [min(left_out)]
    while path.count(path[-1]) == 1:
        path.append(min(p for p, c in graph.edges if c == path[-1] and p in left_out))
    return min(path[path.index(path[-1]):-1])


def _descendants(graph, package):
    """Every package reached from package along one or more edges."""
    seen, stack = set(), list(graph.children_map[package])
    while stack:
        node = stack.pop()
        if node not in seen:
            seen.add(node)
            stack.extend(graph.children_map[node])
    return seen


@given(_digraphs(acyclic=False))
@settings(max_examples=150, deadline=None)
def test_cycle_message_names_a_package_that_reaches_itself(graph):
    left_out = set(range(graph.n_packages)).difference(_reference_topological_order(graph))
    unreachable = set(range(graph.n_packages)) - {graph.root} - _descendants(graph, graph.root)
    try:
        validate_graph(graph)
    except GraphError as exc:
        if left_out:
            cyclic = _reference_cycle_package(graph, left_out)
            assert cyclic in _descendants(graph, cyclic)
            assert str(exc) == f"cycle through package {cyclic} ({graph.packages[cyclic]!r})"
        else:
            assert "cycle" not in str(exc)
            assert unreachable and str(exc).endswith("unreachable from root")
    else:
        assert not left_out and not unreachable


@given(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 1)), max_size=30))
@settings(max_examples=60, deadline=None)
def test_first_occurrences_keeps_each_rows_first_copy(configs):
    rows = np.asarray(configs, dtype=np.int64).reshape(-1, 2)
    kept = [tuple(row) for row in rows[first_occurrences(rows)].tolist()]
    assert kept == list(dict.fromkeys(configs))


def test_random_configuration_uniform_within_3_sigma():
    graph = DependencyGraph(
        packages=("A",), domains=(("v1", "v2", "v3", "v4"),), edges=(), root=0
    )
    rng = np.random.default_rng(123)
    draws = 10_000
    counts = np.zeros(4)
    for _ in range(draws):
        counts[random_configuration(graph, rng)[0]] += 1
    expected = draws / 4
    sigma = np.sqrt(draws * 0.25 * 0.75)
    assert np.all(np.abs(counts - expected) <= 3 * sigma)


class TestDigest:
    def test_digest_is_stable_and_hex(self):
        graph = two_package_graph()
        d1 = config_digest(graph, (0, 1))
        d2 = config_digest(graph, (0, 1))
        assert d1 == d2
        assert len(d1) == 64
        int(d1, 16)

    def test_distinct_configs_distinct_digests(self):
        graph = chain_graph(3, 3)
        digests = {config_digest(graph, c) for c in all_configurations(graph)}
        assert len(digests) == space_size(graph)

    def test_single_version_change_changes_digest(self):
        graph = chain_graph(3, 2)
        assert config_digest(graph, (0, 0, 0)) != config_digest(graph, (0, 0, 1))

    def test_declaration_order_permutation_preserves_digest(self):
        graph = two_package_graph()
        flipped = DependencyGraph(
            packages=("B", "A"),
            domains=(("v1", "v2"), ("v1", "v2")),
            edges=((1, 0),),
            root=1,
        )
        validate_graph(flipped)
        original = config_from_labels(graph, {"A": "v1", "B": "v2"})
        permuted = config_from_labels(flipped, {"A": "v1", "B": "v2"})
        assert config_digest(graph, original) == config_digest(flipped, permuted)

    def test_out_of_range_config_rejected(self):
        graph = two_package_graph()
        with pytest.raises(GraphError, match="out of range"):
            config_digest(graph, (0, 5))
        with pytest.raises(GraphError, match="length"):
            config_digest(graph, (0,))


def _documented_digest(graph, config) -> str:
    """sha256 over each package name, in sorted order, and its version label,
    each as UTF-8 behind its 4-byte big-endian length."""
    h = hashlib.sha256()
    for name in sorted(graph.packages):
        i = graph.packages.index(name)
        for text in (name, graph.domains[i][config[i]]):
            raw = text.encode("utf-8")
            h.update(len(raw).to_bytes(4, "big") + raw)
    return h.hexdigest()


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_digest_equals_the_documented_formula(data):
    names = data.draw(st.lists(st.text(max_size=4), min_size=1, max_size=6, unique=True))
    domains = [data.draw(st.lists(st.text(max_size=4), min_size=1, max_size=4, unique=True))
               for _ in names]
    graph = DependencyGraph(packages=tuple(names), domains=tuple(map(tuple, domains)),
                            edges=tuple((0, i) for i in range(1, len(names))), root=0)
    validate_graph(graph)
    config = tuple(data.draw(st.integers(0, len(d) - 1)) for d in domains)
    as_numpy = data.draw(st.booleans())
    digest = config_digest(graph, np.array(config) if as_numpy else config)
    assert digest == _documented_digest(graph, config)


def test_labels_round_trip():
    graph = chain_graph(3, 2)
    assert config_from_labels(graph, {"A": "v2", "B": "v1", "C": "v2"}) == (1, 0, 1)


def test_config_from_labels_errors():
    graph = two_package_graph()
    with pytest.raises(GraphError, match="unknown package"):
        config_from_labels(graph, {"A": "v1", "B": "v1", "Z": "v1"})
    with pytest.raises(GraphError, match="missing version for package"):
        config_from_labels(graph, {"A": "v1"})
    with pytest.raises(GraphError, match="unknown version"):
        config_from_labels(graph, {"A": "v1", "B": "v9"})


@pytest.mark.parametrize("versions, message", [
    ({"A": [], "B": "v9"}, "unknown version [] for package 'A'"),
    ({"A": "v1", "B": {}}, "unknown version {} for package 'B'"),
    ({"A": None, "B": []}, "unknown version None for package 'A'"),
    ({"A": "v3", "B": None}, "unknown version 'v3' for package 'A'"),
])
def test_config_from_labels_names_the_first_bad_package(versions, message):
    """An unknown or unhashable label is a GraphError naming the first such
    package in declaration order."""
    graph = two_package_graph()
    with pytest.raises(GraphError) as info:
        config_from_labels(graph, versions)
    assert str(info.value) == message


def test_version_index_rejects_an_unhashable_label():
    with pytest.raises(GraphError, match=r"unknown version \[\] for package 'A'"):
        two_package_graph().version_index(0, [])


def test_graph_json_round_trip(tmp_path):
    graph = chain_graph(4, 3)
    path = tmp_path / "graph.json"
    save_graph(graph, str(path))
    assert load_graph(str(path)) == graph


def test_graph_file_uses_names(tmp_path):
    graph = two_package_graph()
    path = tmp_path / "graph.json"
    save_graph(graph, str(path))
    payload = json.loads(path.read_text())
    assert payload["root"] == "A"
    assert payload["edges"] == [["A", "B"]]
    assert payload["packages"][0] == {"name": "A", "versions": ["v1", "v2"]}


def test_load_graph_rejects_bad_payloads(tmp_path):
    path = tmp_path / "graph.json"
    path.write_text("not json")
    with pytest.raises(GraphError, match="invalid JSON"):
        load_graph(str(path))
    path.write_text(json.dumps({"root": "A", "packages": [], "edges": []}))
    with pytest.raises(GraphError, match="root 'A' is not a declared package"):
        load_graph(str(path))
    path.write_text(json.dumps({
        "root": "A",
        "packages": [{"name": "A", "versions": ["v1"]}],
        "edges": [["A", "Z"]],
    }))
    with pytest.raises(GraphError, match="unknown package"):
        load_graph(str(path))
    for edge in ([["A"], "B"], ["A"]):
        path.write_text(json.dumps({
            "root": "A",
            "packages": [{"name": "A", "versions": ["v1"]}, {"name": "B", "versions": ["v1"]}],
            "edges": [edge],
        }))
        with pytest.raises(GraphError, match="edge must be a list of two package names"):
            load_graph(str(path))
    path.write_text(json.dumps({
        "root": "A", "packages": [{"name": "A", "versions": ["v1"]}], "edges": None,
    }))
    with pytest.raises(GraphError, match="edges must be a list"):
        load_graph(str(path))
    for payload, match in [
        ({"root": ["A"], "packages": [{"name": "A", "versions": ["v1"]}], "edges": []},
         "root must be a package name"),
        ({"root": "A", "packages": [{"name": "A", "versions": "v12"}], "edges": []},
         "must be a list of strings"),
        ({"root": "A", "packages": [{"name": "A", "versions": ["v1", 2]}], "edges": []},
         "must be a list of strings"),
        ({"root": "None", "packages": [{"name": None, "versions": ["v1"]}], "edges": []},
         "package name must be a string"),
    ]:
        path.write_text(json.dumps(payload))
        with pytest.raises(GraphError, match=match):
            load_graph(str(path))


def test_full_space_matrix_refuses_huge_spaces():
    graph = DependencyGraph(
        packages=tuple(f"p{i}" for i in range(21)),
        domains=tuple(tuple(f"v{j}" for j in range(2)) for _ in range(21)),
        edges=tuple((0, i) for i in range(1, 21)),
        root=0,
    )
    validate_graph(graph)
    with pytest.raises(GraphError, match="exceeds the exhaustive limit"):
        full_space_matrix(graph)


@st.composite
def tree_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=6))
    sizes = [draw(st.integers(min_value=1, max_value=4)) for _ in range(n)]
    parents = [draw(st.integers(min_value=0, max_value=i - 1)) for i in range(1, n)]
    graph = DependencyGraph(
        packages=tuple(f"p{i}" for i in range(n)),
        domains=tuple(tuple(f"v{j}" for j in range(m)) for m in sizes),
        edges=tuple(sorted((p, i + 1) for i, p in enumerate(parents))),
        root=0,
    )
    return graph


@given(tree_graphs(), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_random_trees_validate_and_sample(graph, seed):
    validate_graph(graph)
    config = random_configuration(graph, np.random.default_rng(seed))
    check_configuration(graph, config)
    assert len(set(config_digest(graph, c) for c in all_configurations(graph))) \
        == space_size(graph)
