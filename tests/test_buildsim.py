"""Deduplicated build DAGs, the farmer-worker simulator, synthetic oracles."""
from __future__ import annotations

import dataclasses
import hashlib
import heapq
import json
import math
import tracemalloc
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from buildtuner import (
    BuildDag,
    NodeStatus,
    PlantedRuleSet,
    SyntheticOracle,
    build_dag,
    generate_benchmark,
    simulate,
    space_size,
)
from buildtuner import buildsim
from buildtuner.buildsim import (
    BenchmarkError,
    SimReport,
    RulesError,
    enumerate_records,
    load_rules,
    planted_outcome,
    save_rules,
)
from buildtuner.configspace import (
    DependencyGraph,
    GraphError,
    check_configuration,
    full_space_matrix,
    random_configurations,
    validate_graph,
)
from buildtuner.rng import derive_seed
from helpers import all_configurations, chain_graph, diamond_graph, two_package_graph


def _always(dag: BuildDag) -> list[bool]:
    return [True] * dag.node_count


def _unit_names(dag: BuildDag, graph: DependencyGraph) -> list[tuple[str, str]]:
    """Each unit's package and version name, by digest rank."""
    return [(graph.packages[p], graph.domains[p][v])
            for p, v in zip(dag.package.tolist(), dag.version.tolist())]


def _unit_view(dag: BuildDag, graph: DependencyGraph) -> dict[str, tuple[str, str, tuple]]:
    """The digest-keyed view of a DAG: each unit's package, version and
    sorted dependency digests."""
    deps = defaultdict(list)
    for unit, dep in zip(*(side.tolist() for side in dag.edges)):
        deps[unit].append(dag.digests[dep])
    return {digest: (package, version, tuple(sorted(deps[i])))
            for i, (digest, (package, version)) in enumerate(zip(dag.digests,
                                                                 _unit_names(dag, graph)))}


def _units_per_package(dag: BuildDag, graph: DependencyGraph) -> Counter:
    return Counter(package for package, _ in _unit_names(dag, graph))


# SimReport.codes holds each status as its place in NodeStatus.
_STATUS = tuple(NodeStatus)


def _statuses(report: SimReport) -> dict[str, NodeStatus]:
    """The digest-keyed view of a report's status codes."""
    return dict(zip(report.digests, map(_STATUS.__getitem__, report.codes.tolist())))


def _events(report: SimReport) -> list[tuple[int, int, float, float]]:
    """Each attempt's (rank, worker, start, end), from the event columns."""
    columns = (report.event_rank, report.event_worker, report.event_start, report.event_end)
    return list(zip(*(column.tolist() for column in columns)))


def _same_report(a: SimReport, b: SimReport) -> bool:
    return (a.digests == b.digests and _events(a) == _events(b)
            and a.codes.tolist() == b.codes.tolist()
            and (a.attempted, a.succeeded, a.failed, a.skipped, a.makespan)
            == (b.attempted, b.succeeded, b.failed, b.skipped, b.makespan))


class TestDagConstruction:
    def test_shared_subtree_deduplicates(self):
        """Two configs differing only in the root produce 4 units, not 6."""
        graph = chain_graph(3, 2)
        dag = build_dag([(0, 0, 0), (1, 0, 0)], graph)
        assert dag.node_count == 4
        assert _units_per_package(dag, graph) == {"A": 2, "B": 1, "C": 1}

    def test_identical_configs_collapse(self):
        graph = chain_graph(3, 2)
        dag = build_dag([(0, 0, 0), (0, 0, 0)], graph)
        assert dag.node_count == 3
        assert len(dag.origins) == 1

    def test_same_version_different_subtree_distinct(self):
        """A root version atop different child versions is a distinct unit."""
        graph = chain_graph(2, 2)
        dag = build_dag([(0, 0), (0, 1)], graph)
        assert _units_per_package(dag, graph) == {"A": 2, "B": 2}

    def test_origin_maps_config_to_root_unit(self):
        graph = chain_graph(3, 2)
        config = (1, 0, 1)
        dag = build_dag([config], graph)
        root = dag.digests.index(dag.origins[config])
        assert _unit_names(dag, graph)[root] == ("A", "v2")

    def test_diamond_shared_leaf(self):
        graph = diamond_graph()
        dag = build_dag([(0, 0, 0, 0)], graph)
        assert dag.node_count == 4
        view = _unit_view(dag, graph)
        leaf = [d for d, (package, _, _) in view.items() if package == "L"]
        assert len(leaf) == 1
        mids = [deps for package, _, deps in view.values() if package in ("M1", "M2")]
        assert mids == [(leaf[0],)] * 2

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            build_dag([(0, 9)], two_package_graph())


def _unit_digest(package: str, version: str, dep_digests) -> str:
    """A unit's digest from scratch: sha256 over the length-prefixed package,
    version and sorted dependency digests."""
    h = hashlib.sha256()
    for text in (package, version, *sorted(dep_digests)):
        raw = text.encode("utf-8")
        h.update(len(raw).to_bytes(4, "big"))
        h.update(raw)
    return h.hexdigest()


def _reference_build_dag(configs, graph):
    """The per-configuration loop build_dag replaces: one digest per
    configuration per package.  Returns the origins and the units keyed by
    digest, each as its package, version and sorted dependency digests (the
    view _unit_view derives from the rank vectors)."""
    order, visited = [], set()

    def visit(node):
        if node not in visited:
            visited.add(node)
            for child in graph.children_map[node]:
                visit(child)
            order.append(node)

    visit(graph.root)
    units, origins = {}, {}
    for config in configs:
        check_configuration(graph, config)
        unit_of = {}
        for node in order:
            package, version = graph.packages[node], graph.domains[node][config[node]]
            deps = tuple(sorted(unit_of[c] for c in graph.children_map[node]))
            unit_of[node] = digest = _unit_digest(package, version, deps)
            units.setdefault(digest, (package, version, deps))
        origins[tuple(config)] = unit_of[graph.root]
    return units, origins


def _wide_diamond_graph() -> DependencyGraph:
    """R -> M1, M2, M3; every M -> L and M3 -> M2: shared, non-tree children."""
    graph = DependencyGraph(
        packages=("R", "M1", "M2", "M3", "L"),
        domains=(("r1", "r2"), ("a", "b", "c"), ("x", "y"), ("p", "q"), ("l1", "l2", "l3")),
        edges=((0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 2), (3, 4)),
        root=0,
    )
    validate_graph(graph)
    return graph


def _assert_same_dag(configs, graph):
    """build_dag's rank vectors give the reference's units and origins."""
    dag = build_dag(configs, graph)
    units, origins = _reference_build_dag(configs, graph)
    assert dag.digests == sorted(units)
    assert all(v.dtype == np.intp and v.shape == (dag.node_count,)
               for v in (dag.package, dag.version))
    assert _unit_view(dag, graph) == units
    assert _edge_pairs(dag) == _rank_pairs(units)
    assert dag.origins == origins
    assert all(type(k) is tuple and all(type(v) is int for v in k) for k in dag.origins)
    return dag


class TestDagAgainstReference:
    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_generated_trees(self, seed):
        graph, _ = generate_benchmark(7, [2, 3, 4, 1, 3, 2, 5], 0.3, 0.5, seed=seed)
        configs = random_configurations(graph, np.random.default_rng(seed), 400)
        dag = _assert_same_dag(configs, graph)
        assert dag.node_count < 400 * graph.n_packages

    def test_diamond_dags(self):
        _assert_same_dag([(0, 0, 0, 0)], diamond_graph())
        graph = _wide_diamond_graph()
        _assert_same_dag(list(all_configurations(graph)), graph)

    def test_duplicated_configurations(self):
        graph = _wide_diamond_graph()
        configs = random_configurations(graph, np.random.default_rng(4), 60)
        dag = _assert_same_dag(np.concatenate([configs, configs[::-1], configs[:5]]), graph)
        assert len(dag.origins) == len(set(map(tuple, configs.tolist())))

    def test_empty_input(self):
        dag = _assert_same_dag([], chain_graph(3, 2))
        assert dag.node_count == 0 and dag.origins == {}

    def test_generator_input(self):
        graph = chain_graph(4, 3)
        configs = list(all_configurations(graph))
        dag = build_dag(iter(configs), graph)
        assert (_unit_view(dag, graph), dag.origins) == _reference_build_dag(configs, graph)

    @pytest.mark.parametrize("bad", [(0, 9), (0, -1), (0, 1.5), (0, "1"), (0, 1, 0), (0,)])
    def test_malformed_configuration_raises_the_same_error(self, bad):
        graph = two_package_graph()
        configs = [(0, 0), (1, 1), bad, (1, 0)]
        with pytest.raises(GraphError) as expected:
            _reference_build_dag(configs, graph)
        with pytest.raises(GraphError) as raised:
            build_dag(configs, graph)
        assert str(raised.value) == str(expected.value)


@st.composite
def _dag_cases(draw):
    """A graph of 2-6 packages, a tree or with shared children, and rows
    over it, some repeated."""
    n = draw(st.integers(2, 6))
    sizes = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
    # Each package after the root gets an earlier parent, so all are reachable
    # and the graph stays acyclic; extra forward edges share children.
    edges = {(draw(st.integers(0, i - 1)), i) for i in range(1, n)}
    extra = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=4))
    edges |= {(p, c) for p, c in extra if p < c}
    graph = DependencyGraph(
        packages=tuple(f"p{i}" for i in range(n)),
        domains=tuple(tuple(f"v{j}" for j in range(m)) for m in sizes),
        edges=tuple(sorted(edges)),
        root=0,
    )
    validate_graph(graph)
    rows = draw(st.lists(st.tuples(*(st.integers(0, m - 1) for m in sizes)), max_size=40))
    if rows:
        rows += draw(st.lists(st.sampled_from(rows), max_size=10))
    return graph, rows


def _edge_pairs(dag: BuildDag) -> list[tuple[int, int]]:
    return sorted(zip(*(side.tolist() for side in dag.edges)))


def _rank_pairs(units: dict[str, tuple[str, str, tuple]]) -> list[tuple[int, int]]:
    """Every (unit, dependency) pair by rank in the sorted digests of units."""
    rank = {digest: i for i, digest in enumerate(sorted(units))}
    return sorted((rank[digest], rank[dep]) for digest, (_, _, deps) in units.items()
                  for dep in deps)


class TestRankedDag:
    @settings(max_examples=120, deadline=None)
    @given(_dag_cases())
    def test_property_matches_the_reference(self, case):
        """Units and origins equal the per-configuration reference; digests
        are the units' sorted digests, and edges every dependency by rank."""
        graph, rows = case
        dag = _assert_same_dag(rows, graph)
        assert all(side.dtype == np.intp for side in dag.edges)

    def test_dense_row_keys_give_the_same_dag(self, monkeypatch):
        """With no room in the key, every fold makes it dense first."""
        monkeypatch.setattr(buildsim, "_KEY_LIMIT", 0)
        graph = _wide_diamond_graph()
        _assert_same_dag(random_configurations(graph, np.random.default_rng(5), 200), graph)
        graph, _ = generate_benchmark(7, [2, 3, 4, 1, 3, 2, 5], 0.3, 0.5, seed=2)
        _assert_same_dag(random_configurations(graph, np.random.default_rng(6), 300), graph)

    @pytest.mark.parametrize("span, key_limit, uses_unique", [
        (0, buildsim._KEY_LIMIT, True),
        (0, 0, True),
        (10**9, 0, False),
    ], ids=["unique", "unique-dense-keys", "presence"])
    def test_each_key_path_gives_the_same_dag(self, monkeypatch, span, key_limit, uses_unique):
        """Unit ids from np.unique alone, or from presence vectors alone (the
        keys made dense before each fold keep those vectors small), give the
        reference's DAG."""
        graph = _wide_diamond_graph()
        cases = [(graph, random_configurations(graph, np.random.default_rng(5), 200)),
                 (graph, full_space_matrix(graph))]
        graph, _ = generate_benchmark(7, [2, 3, 4, 1, 3, 2, 5], 0.3, 0.5, seed=2)
        cases.append((graph, random_configurations(graph, np.random.default_rng(6), 300)))
        monkeypatch.setattr(buildsim, "_DENSE_SPAN", span)
        monkeypatch.setattr(buildsim, "_KEY_LIMIT", key_limit)
        calls = []
        unique = np.unique

        def counted(*args, **kwargs):
            calls.append(1)
            return unique(*args, **kwargs)

        monkeypatch.setattr(buildsim.np, "unique", counted)
        for graph, rows in cases:
            calls.clear()
            _assert_same_dag(rows, graph)
            # Each package's ids come from np.unique at least once, or never.
            assert len(calls) >= graph.n_packages if uses_unique else calls == []

    @pytest.mark.parametrize("block", [1, 3])
    def test_hash_blocks_give_the_same_dag(self, monkeypatch, block):
        monkeypatch.setattr(buildsim, "_HASH_BLOCK", block)
        graph = _wide_diamond_graph()
        _assert_same_dag(list(all_configurations(graph)), graph)
        graph, _ = generate_benchmark(7, [2, 3, 4, 1, 3, 2, 5], 0.3, 0.5, seed=3)
        _assert_same_dag(random_configurations(graph, np.random.default_rng(7), 100), graph)

    def test_dependency_digests_are_hashed_in_sorted_order(self):
        """A unit with four children hashes their digests in sorted order,
        which for most root units is not the order of its children."""
        graph = DependencyGraph(
            packages=("R", "A", "B", "C", "D"),
            domains=(("r1", "r2"),) + (("v1", "v2", "v3"),) * 4,
            edges=((0, 1), (0, 2), (0, 3), (0, 4)),
            root=0,
        )
        validate_graph(graph)
        dag = _assert_same_dag(list(all_configurations(graph)), graph)
        by_child = defaultdict(list)  # root unit rank -> dependency digests, in child order
        unit, dep = (side.tolist() for side in dag.edges)
        for u, d in sorted(zip(unit, dep), key=lambda pair: dag.package[pair[1]]):
            by_child[u].append(dag.digests[d])
        assert len(by_child) == 2 * 3**4
        assert sum(deps != sorted(deps) for deps in by_child.values()) > len(by_child) // 2

    def test_origins_are_built_on_first_read(self):
        graph = chain_graph(3, 2)
        dag = build_dag([(1, 0, 1), (0, 0, 0), (1, 0, 1)], graph)
        assert "origins" not in vars(dag)
        assert list(dag.origins) == [(1, 0, 1), (0, 0, 0)]
        assert vars(dag)["origins"] is dag.origins


def _reference_simulate(units, builds, workers=1, latencies=None):
    """The digest-keyed scheduler simulate replaces: statuses, waiting counts
    and dependents in dicts keyed by digest, the ready queue a list popped
    from the front, and every failure's dependents marked skipped at once.
    units is a digest-keyed view (see _unit_view); builds and latencies are
    read at each digest's rank in the sorted digests.  Its passing states
    (pending, ready, building) are plain strings.  Returns the statuses by
    digest, the events as (digest, worker, start, end, built) in the order
    they ended, and the makespan."""
    if workers < 1:
        raise ValueError("workers must be at least 1")
    rank = {digest: i for i, digest in enumerate(sorted(units))}

    status = {d: "pending" for d in units}
    dependents = {d: [] for d in units}
    for digest, (_, _, deps) in units.items():
        for dep in deps:
            dependents[dep].append(digest)
    waiting_on = {d: len(deps) for d, (_, _, deps) in units.items()}

    ready = sorted(d for d, n in waiting_on.items() if n == 0)
    for d in ready:
        status[d] = "ready"
    free_workers = list(range(workers))
    heapq.heapify(free_workers)
    building = []  # (end, digest, worker, start)
    events = []
    now = 0.0
    makespan = 0.0

    def start_ready():
        while ready and free_workers:
            digest = ready.pop(0)
            worker = heapq.heappop(free_workers)
            latency = 1.0 if latencies is None else float(latencies[rank[digest]])
            if not 0.0 <= latency < math.inf:
                raise ValueError(f"latency {latency} of unit {digest} is not finite and >= 0")
            status[digest] = "building"
            heapq.heappush(building, (now + latency, digest, worker, now))

    def mark_skipped(root):
        stack = [root]
        while stack:
            for dep in dependents[stack.pop()]:
                if status[dep] == "pending":
                    status[dep] = NodeStatus.SKIPPED
                    stack.append(dep)

    start_ready()
    while building:
        end, digest, worker, start = heapq.heappop(building)
        now = end
        makespan = max(makespan, end)
        ok = bool(builds[rank[digest]])
        events.append((digest, worker, start, end, ok))
        heapq.heappush(free_workers, worker)
        if ok:
            status[digest] = NodeStatus.SUCCEEDED
            newly_ready = []
            for dep in dependents[digest]:
                if status[dep] != "pending":
                    continue
                waiting_on[dep] -= 1
                if waiting_on[dep] == 0:
                    status[dep] = "ready"
                    newly_ready.append(dep)
            ready.extend(sorted(newly_ready))
        else:
            status[digest] = NodeStatus.FAILED
            mark_skipped(digest)
        start_ready()

    assert all(s in (NodeStatus.SUCCEEDED, NodeStatus.FAILED, NodeStatus.SKIPPED)
               for s in status.values())
    return status, events, makespan


def _assert_same_schedule(dag, graph, builds, workers, latencies=None):
    """simulate's codes and event columns equal the digest-keyed reference's
    statuses and events, converted to ranks once."""
    report = simulate(dag, builds, workers=workers, latencies=latencies)
    status, events, makespan = _reference_simulate(_unit_view(dag, graph), builds,
                                                   workers=workers, latencies=latencies)
    rank = {digest: i for i, digest in enumerate(dag.digests)}
    assert report.digests == dag.digests
    assert report.codes.dtype == np.int8 and report.codes.shape == (dag.node_count,)
    assert report.codes.tolist() == [_STATUS.index(status[d]) for d in dag.digests]
    assert all(c.dtype == np.intp for c in (report.event_rank, report.event_worker))
    assert _events(report) == [(rank[d], worker, start, end)
                               for d, worker, start, end, _ in events]
    assert np.asarray(builds, dtype=bool)[report.event_rank].tolist() == [e[4] for e in events]
    assert report.makespan == makespan
    counts = Counter(status.values())
    assert ((report.attempted, report.succeeded, report.failed, report.skipped)
            == (counts[NodeStatus.SUCCEEDED] + counts[NodeStatus.FAILED],
                counts[NodeStatus.SUCCEEDED], counts[NodeStatus.FAILED],
                counts[NodeStatus.SKIPPED]))
    return report


# Latencies with many exact ties, 0.1 + 0.2 and 0.3 among them.
_TIED_LATENCIES = (0.0, 0.5, 1.0, 0.1 + 0.2, 0.3, 2.0)


def _tied_by_digest(digest: str) -> float:
    return 0.5 + (digest.encode()[0] % 3) / 4


class TestSimulateAgainstReference:
    @settings(max_examples=120, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=_dag_cases(), workers=st.sampled_from([1, 2, 3, 1000]), data=st.data())
    def test_property_same_schedule(self, case, workers, data):
        graph, rows = case
        dag = build_dag(rows, graph)
        n = dag.node_count
        failing = set(data.draw(st.lists(st.integers(0, n - 1), max_size=3))) if n else set()
        builds = [i not in failing for i in range(n)]
        latencies = None  # every end time of a wave ties
        if data.draw(st.booleans()):
            latencies = data.draw(st.lists(st.sampled_from(_TIED_LATENCIES),
                                           min_size=n, max_size=n))
        _assert_same_schedule(dag, graph, builds, workers, latencies)

    @pytest.mark.parametrize("workers", [1, 3, 1000])
    @pytest.mark.parametrize("latency_of", [None, _tied_by_digest],
                             ids=["unit", "tied-by-digest"])
    def test_failures_skip_subtrees(self, workers, latency_of):
        graph = _wide_diamond_graph()
        dag = build_dag(list(all_configurations(graph)), graph)
        assert dag.node_count < 1000
        builds = [unit not in {("L", "l2"), ("M2", "y")} for unit in _unit_names(dag, graph)]
        latencies = None if latency_of is None else np.array(list(map(latency_of, dag.digests)))
        report = _assert_same_schedule(dag, graph, np.array(builds), workers, latencies)
        assert report.failed and report.skipped and report.succeeded

    def test_workers_past_the_unit_count_change_nothing(self):
        graph = chain_graph(3, 3)
        dag = build_dag(list(all_configurations(graph)), graph)
        reports = [simulate(dag, _always(dag), workers=w) for w in (dag.node_count, 10**20)]
        assert _same_report(*reports)
        assert reports[0].event_worker.max() < dag.node_count


def _report_text(report: SimReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True) + "\n"


class TestStreamedReport:
    @pytest.mark.parametrize("makespan", [0.0, 0.1 + 0.2, 1e-7, 1e16, 3.0, 12345.678])
    def test_equals_json_dumps(self, makespan):
        graph = chain_graph(3, 3)
        dag = build_dag(list(all_configurations(graph)), graph)
        report = simulate(dag, dag.version != 1, workers=2)
        end = report.event_end.copy()
        end[-1] = makespan
        report = dataclasses.replace(report, event_end=end)
        assert report.makespan == makespan
        assert "".join(report.json_chunks()) == _report_text(report)

    def test_empty_dag(self):
        dag = build_dag([], chain_graph(3, 2))
        report = simulate(dag, _always(dag), workers=4)
        assert report.digests == [] and report.codes.size == report.event_rank.size == 0
        assert "".join(report.json_chunks()) == _report_text(report)

    @staticmethod
    def _report(statuses: dict[str, NodeStatus]) -> SimReport:
        no_event = np.empty(0, dtype=np.intp)
        return SimReport(digests=list(statuses),
                         codes=np.array([_STATUS.index(s) for s in statuses.values()],
                                        dtype=np.int8),
                         event_rank=no_event, event_worker=no_event,
                         event_start=np.empty(0), event_end=np.empty(0))

    def test_counts_are_read_from_the_codes(self):
        """A report states no count of its own: each is read from the codes,
        and the makespan from the last event, 0.0 with none."""
        report = self._report({"a": NodeStatus.SUCCEEDED, "b": NodeStatus.FAILED,
                               "c": NodeStatus.SKIPPED, "d": NodeStatus.FAILED})
        counts = {key: report.to_dict()[key] for key in
                  ("nodes", "attempted", "succeeded", "failed", "skipped", "failed_or_skipped",
                   "makespan")}
        assert counts == {"nodes": 4, "attempted": 3, "succeeded": 1, "failed": 2,
                          "skipped": 1, "failed_or_skipped": 3, "makespan": 0.0}

    def test_many_chunks_unsorted_and_escaped_keys(self, monkeypatch):
        """Keys given out of order are written in sorted order, though their
        escaped forms sort otherwise; a report out of order is refused."""
        monkeypatch.setattr(buildsim, "_REPORT_CHUNK", 3)
        statuses = {key: status for key, status in zip(
            ["zz", "a\"b", "\u00e9t\u00e9", "tab\t", "0", "m", "b\\"],
            [NodeStatus.SUCCEEDED, NodeStatus.FAILED, NodeStatus.SKIPPED] * 3)}
        report = self._report(dict(sorted(statuses.items())))
        assert _statuses(report) == statuses
        chunks = list(report.json_chunks())
        assert len(chunks) == 5  # head, three chunks of status lines, tail
        assert "".join(chunks) == _report_text(report)
        with pytest.raises(ValueError, match="ascending"):
            self._report(statuses)

    def test_status_lines_hash_no_member(self, monkeypatch):
        """Status lines look nothing up by NodeStatus member, whose hash runs
        Python-level enum code."""
        graph = chain_graph(3, 3)
        dag = build_dag(list(all_configurations(graph)), graph)
        report = simulate(dag, dag.version != 1, workers=2)
        expected = _report_text(report)

        def refuse(member):
            raise AssertionError("a NodeStatus member was hashed")

        monkeypatch.setattr(NodeStatus, "__hash__", refuse)
        assert "".join(report.json_chunks()) == expected


# Bytes: this code peaks at 1.33 MB on the case below, the code before it at
# 1.38-1.47 MB, and the digest-keyed code before that at 1.90-2.15 MB
# (Python 3.11, numpy 2.4).
_PEAK_BOUND = 1_600_000


def test_build_and_simulate_peak_memory():
    """Peak traced memory of build_dag and then simulate on 5,000 rows of a
    3^7 space stays just above this code's own."""
    graph, rules = generate_benchmark(7, 3, 0.5, 0.3, seed=4)
    configs = random_configurations(graph, np.random.default_rng(4), 5000)
    tracemalloc.start()
    try:
        dag = build_dag(configs, graph)
        report = simulate(dag, planted_outcome(dag, rules, graph), workers=4)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.attempted + report.skipped == dag.node_count
    assert peak < _PEAK_BOUND


class TestSimulate:
    def test_all_succeed_accounting(self):
        graph = chain_graph(3, 2)
        dag = build_dag(list(all_configurations(graph)), graph)
        report = simulate(dag, _always(dag), workers=3)
        assert report.attempted == dag.node_count
        assert report.succeeded == dag.node_count
        assert report.failed == report.skipped == 0
        assert report.attempted + report.skipped == dag.node_count

    def test_failure_skips_transitive_dependents(self):
        """C -> B -> A chain: B fails, so A is skipped and never attempted."""
        graph = chain_graph(3, 2)
        dag = build_dag([(0, 0, 0)], graph)
        report = simulate(dag, dag.package != graph.index_of("B"))
        by_status = {package: _STATUS[code]
                     for code, (package, _) in zip(report.codes, _unit_names(dag, graph))}
        assert by_status == {
            "C": NodeStatus.SUCCEEDED,
            "B": NodeStatus.FAILED,
            "A": NodeStatus.SKIPPED,
        }
        assert report.attempted == 2
        assert report.failed == 1 and report.skipped == 1

    def test_accounting_identity_with_failures(self):
        graph = chain_graph(4, 2)
        dag = build_dag(list(all_configurations(graph)), graph)
        report = simulate(dag, dag.version == 0, workers=2)
        assert report.attempted + report.skipped == dag.node_count
        assert report.attempted == report.succeeded + report.failed
        assert report.to_dict()["failed_or_skipped"] == report.failed + report.skipped

    def test_diamond_makespans(self):
        """Unit latencies: the two middle units run in parallel with 2 workers."""
        dag = build_dag([(0, 0, 0, 0)], diamond_graph())
        assert simulate(dag, _always(dag), workers=2).makespan == pytest.approx(3.0)
        assert simulate(dag, _always(dag), workers=1).makespan == pytest.approx(4.0)

    def test_single_worker_makespan_is_total_latency(self):
        graph = chain_graph(3, 2)
        dag = build_dag(list(all_configurations(graph)), graph)
        latencies = [0.5 + (d.encode()[0] % 7) / 8 for d in dag.digests]
        report = simulate(dag, _always(dag), workers=1, latencies=latencies)
        assert report.makespan == pytest.approx(sum(latencies))

    def test_makespan_monotone_in_workers(self):
        graph = chain_graph(4, 2)
        dag = build_dag(list(all_configurations(graph)), graph)
        spans = [
            simulate(dag, _always(dag), workers=w).makespan for w in (1, 2, 4, 8, 32)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(spans, spans[1:]))

    def test_schedule_is_valid(self):
        """Events respect dependency order and workers never overlap."""
        graph = chain_graph(4, 2)
        dag = build_dag(list(all_configurations(graph)), graph)
        latencies = [1.0 + (d.encode()[1] % 5) / 4 for d in dag.digests]
        report = simulate(dag, dag.version == 0, workers=3, latencies=latencies)
        view = _unit_view(dag, graph)
        end_of = {dag.digests[i]: end for i, _, _, end in _events(report)}
        for i, _, start, _ in _events(report):
            for dep in view[dag.digests[i]][2]:
                assert dep in end_of, "dependency was never attempted"
                assert start >= end_of[dep] - 1e-12
        by_worker = defaultdict(list)
        for _, worker, start, end in _events(report):
            by_worker[worker].append((start, end))
        for intervals in by_worker.values():
            intervals.sort()
            for (s1, e1), (s2, e2) in zip(intervals, intervals[1:]):
                assert s2 >= e1 - 1e-12

    def test_deterministic_schedule(self):
        graph = chain_graph(3, 3)
        dag = build_dag(list(all_configurations(graph)), graph)
        a = simulate(dag, _always(dag), workers=2)
        b = simulate(dag, _always(dag), workers=2)
        assert _events(a) == _events(b)
        assert a.makespan == b.makespan

    def test_worker_validation(self):
        dag = build_dag([(0, 0)], two_package_graph())
        with pytest.raises(ValueError, match="workers"):
            simulate(dag, _always(dag), workers=0)

    def test_negative_latency_rejected(self):
        dag = build_dag([(0, 0)], two_package_graph())
        with pytest.raises(ValueError, match="latency"):
            simulate(dag, _always(dag), latencies=[-1.0] * dag.node_count)

    @pytest.mark.parametrize("latency", [math.nan, math.inf])
    def test_latency_not_finite_rejected(self, latency):
        dag = build_dag([(0, 0)], two_package_graph())
        with pytest.raises(ValueError, match="is not finite and >= 0"):
            simulate(dag, _always(dag), latencies=[latency] * dag.node_count)

    @pytest.mark.parametrize("latency", [-1.0, math.nan, math.inf])
    def test_bad_latency_names_the_attempted_unit(self, latency):
        """Only the root's latency is bad: the error names the root's digest,
        once its leaf has built."""
        graph = two_package_graph()
        dag = build_dag([(1, 0)], graph)
        root = dag.digests.index(dag.origins[(1, 0)])
        latencies = [2.0] * dag.node_count
        latencies[root] = latency
        with pytest.raises(ValueError) as raised:
            simulate(dag, _always(dag), latencies=latencies)
        assert str(raised.value) == (
            f"latency {latency} of unit {dag.digests[root]} is not finite and >= 0")

    def test_bad_latency_of_a_skipped_unit_is_never_read(self):
        graph = two_package_graph()
        dag = build_dag([(1, 0)], graph)
        root = dag.digests.index(dag.origins[(1, 0)])
        latencies = [2.0] * dag.node_count
        latencies[root] = math.nan
        builds = [i == root for i in range(dag.node_count)]  # the leaf fails
        report = simulate(dag, builds, latencies=latencies)
        assert (report.attempted, report.failed, report.skipped) == (1, 1, 1)
        assert _STATUS[report.codes[root]] is NodeStatus.SKIPPED

    @pytest.mark.parametrize("argument", ["builds", "latencies"])
    @pytest.mark.parametrize("shape", [(1,), (3,), (0,), (2, 1)], ids=str)
    def test_vector_of_the_wrong_shape_rejected(self, argument, shape):
        dag = build_dag([(0, 0)], two_package_graph())
        assert dag.node_count == 2
        vectors = {"builds": np.ones(2, dtype=bool), "latencies": np.ones(2)}
        vectors[argument] = np.ones(shape, dtype=vectors[argument].dtype)
        with pytest.raises(ValueError, match=f"^{argument} has shape .* each of 2 units$"):
            simulate(dag, vectors["builds"], latencies=vectors["latencies"])

    def test_vectors_are_read_by_rank(self):
        """A list and an array of the same entries give the same report."""
        graph = chain_graph(3, 3)
        dag = build_dag(list(all_configurations(graph)), graph)
        builds = dag.version != 2
        latencies = np.linspace(0.5, 2.0, dag.node_count)
        assert _same_report(simulate(dag, builds, workers=3, latencies=latencies),
                            simulate(dag, builds.tolist(), workers=3,
                                     latencies=latencies.tolist()))


class TestPlantedRules:
    def test_noise_bounds(self):
        with pytest.raises(ValueError, match="noise"):
            PlantedRuleSet(forbidden=frozenset(), noise=1.0)
        with pytest.raises(ValueError, match="noise"):
            PlantedRuleSet(forbidden=frozenset(), noise=-0.1)

    def test_round_trip(self, tmp_path):
        rules = PlantedRuleSet(
            forbidden=frozenset({("A", "v1", "B", "v2"), ("B", "v2", "C", "v1")}),
            noise=0.05,
        )
        path = str(tmp_path / "rules.json")
        save_rules(rules, path)
        assert load_rules(path) == rules

    @pytest.mark.parametrize("noise", ["0.05", False, None, [0.05], float("nan"), 10**400])
    def test_noise_must_be_a_number_in_range(self, tmp_path, noise):
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"forbidden": [], "noise": noise}))
        with pytest.raises(RulesError, match="noise"):
            load_rules(str(path))

    @pytest.mark.parametrize("field", ["parent", "parent_version", "child", "child_version"])
    @pytest.mark.parametrize("value", [1, None, ["v1"]])
    def test_rule_fields_must_be_strings(self, tmp_path, field, value):
        rule = {"parent": "A", "parent_version": "v1", "child": "B", "child_version": "v2"}
        rule[field] = value
        path = tmp_path / "rules.json"
        path.write_text(json.dumps({"forbidden": [rule], "noise": 0.0}))
        with pytest.raises(RulesError, match="as strings"):
            load_rules(str(path))

    @pytest.mark.parametrize("text", ["", "{", "[]", '{"noise": 0.0}', '{"forbidden": {}}',
                                      '{"forbidden": [["A", "v1", "B", "v2"]]}'])
    def test_malformed_rules_file(self, tmp_path, text):
        path = tmp_path / "rules.json"
        path.write_text(text)
        with pytest.raises(RulesError):
            load_rules(str(path))

    def test_check_against_gives_indices_in_name_order(self):
        rules = PlantedRuleSet(forbidden=frozenset({("B", "v1", "C", "v2"), ("A", "v2", "B", "v1"),
                                                    ("A", "v1", "B", "v2")}))
        assert rules.check_against(chain_graph(3, 2)) == (
            (0, 0, 1, 1), (0, 1, 1, 0), (1, 0, 2, 1))
        assert PlantedRuleSet(forbidden=frozenset()).check_against(chain_graph(3, 2)) == ()

    def test_check_against_unknown_names(self):
        rules = PlantedRuleSet(forbidden=frozenset({("A", "v1", "Z", "v1")}))
        with pytest.raises(RulesError, match="unknown package 'Z'"):
            rules.check_against(two_package_graph())

    def test_check_against_non_edge(self):
        rules = PlantedRuleSet(forbidden=frozenset({("B", "v1", "A", "v1")}))
        with pytest.raises(RulesError, match="missing edge 'B' -> 'A'"):
            rules.check_against(two_package_graph())

    @pytest.mark.parametrize("rule, message", [
        (("Z", "v1", "B", "v1"), "unknown package 'Z'"),
        (("A", "v9", "B", "v1"), "unknown version 'v9' for package 'A'"),
        (("A", "v1", "B", "v3"), "unknown version 'v3' for package 'B'"),
        (("B", "v1", "A", "v1"), "missing edge 'B' -> 'A'"),
    ], ids=["parent", "parent-version", "child-version", "edge"])
    def test_oracle_refuses_rules_outside_the_graph(self, rule, message):
        rules = PlantedRuleSet(forbidden=frozenset({("A", "v1", "B", "v2"), rule}))
        with pytest.raises(RulesError, match=message):
            rules.check_against(two_package_graph())
        with pytest.raises(RulesError, match=message):
            SyntheticOracle(two_package_graph(), rules)


def _mutated_rules(data, payload):
    """One of: drop or retype a field, swap a version label, duplicate a
    rule, or cut the JSON text short."""
    kind = data.draw(st.sampled_from(["drop", "retype", "label", "duplicate", "truncate"]))
    rules = payload["forbidden"]
    if kind == "truncate":
        text = json.dumps(payload)
        return text[:data.draw(st.integers(0, len(text) - 1))]
    if kind == "duplicate":
        rules.insert(0, dict(rules[data.draw(st.integers(0, len(rules) - 1))]))
        return json.dumps(payload)
    target = data.draw(st.sampled_from([payload, *rules]))
    if kind == "label":
        rule = data.draw(st.sampled_from(rules))
        field = data.draw(st.sampled_from(["parent_version", "child_version"]))
        rule[field] = data.draw(st.sampled_from(["v1", "v2", "v3", "v9", ""]))
    elif kind == "drop":
        del target[data.draw(st.sampled_from(sorted(target)))]
    else:
        field = data.draw(st.sampled_from(sorted(target)))
        target[field] = data.draw(st.sampled_from(
            [v for v in [None, 7, 0.5, "x", [], {}, True] if type(v) is not type(target[field])]))
    return json.dumps(payload)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_fuzzed_rules_load_valid_or_raise_rules_error(tmp_path_factory, data):
    rules = PlantedRuleSet(forbidden=frozenset({("A", "v1", "B", "v2"), ("B", "v2", "C", "v1")}),
                           noise=0.05)
    path = tmp_path_factory.mktemp("fuzz") / "rules.json"
    path.write_text(_mutated_rules(data, rules.to_dict()))
    try:
        loaded = load_rules(str(path))
    except RulesError:
        return
    assert all(len(rule) == 4 and all(isinstance(name, str) for name in rule)
               for rule in loaded.forbidden)
    assert type(loaded.noise) is float and 0.0 <= loaded.noise < 1.0


class TestSyntheticOracle:
    def _oracle(self, noise=0.0, seed=0):
        graph = chain_graph(3, 2)
        rules = PlantedRuleSet(
            forbidden=frozenset({("A", "v1", "B", "v2")}), noise=noise
        )
        return SyntheticOracle(graph, rules, seed=seed)

    def test_six_of_eight_good(self):
        oracle = self._oracle()
        space = enumerate_records(oracle)
        assert space.good_count == 6
        assert space.good_count / len(space) == pytest.approx(0.75)
        assert oracle.evaluate((0, 1, 0)) is False
        assert oracle.evaluate((0, 0, 0)) is True

    def test_good_mask_matches_evaluate(self):
        """The rule mask that outcomes applies matches evaluate row by row."""
        oracle = self._oracle()
        matrix = full_space_matrix(oracle.graph)
        built = oracle.outcomes(matrix)
        assert built.dtype == bool and built.shape == (matrix.shape[0],)
        for row, flag in zip(matrix.tolist(), built.tolist()):
            assert oracle.evaluate(tuple(row)) == flag

    def test_noise_is_deterministic(self):
        a = self._oracle(noise=0.4, seed=9)
        b = self._oracle(noise=0.4, seed=9)
        configs = list(all_configurations(a.graph))
        assert [a.evaluate(c) for c in configs] == [b.evaluate(c) for c in configs]
        c = self._oracle(noise=0.4, seed=10)
        assert [a.evaluate(x) for x in configs] != [c.evaluate(x) for x in configs]

    def test_noise_only_removes_good(self):
        clean = self._oracle()
        noisy = self._oracle(noise=0.4, seed=3)
        for config in all_configurations(clean.graph):
            if not clean.evaluate(config):
                assert not noisy.evaluate(config)

    def test_enumerate_good_consistent(self):
        """The good rows of enumerate_records are what evaluate builds."""
        oracle = self._oracle(noise=0.3, seed=5)
        space = enumerate_records(oracle)
        good = set(map(tuple, space.rows[space.built].tolist()))
        assert len(good) == space.good_count
        for config in all_configurations(oracle.graph):
            assert (config in good) == oracle.evaluate(config)

    def test_enumerate_records_labels_whole_space(self):
        oracle = self._oracle()
        records = enumerate_records(oracle)
        assert len(records) == space_size(oracle.graph)
        assert sum(r.outcome for r in records) == 6

    def test_enumerate_records_equals_evaluate_with_noise(self):
        graph, rules = generate_benchmark(6, 3, 0.5, 0.3, seed=11)
        oracle = SyntheticOracle(graph, PlantedRuleSet(rules.forbidden, noise=0.05), seed=3)
        space = enumerate_records(oracle)
        configs = list(all_configurations(graph))
        assert [r.config for r in space] == configs
        assert [r.outcome for r in space] == [oracle.evaluate(c) for c in configs]
        # The noise hash turned some rule-abiding configurations bad.
        assert space.good_count < enumerate_records(SyntheticOracle(graph, rules)).good_count

    def test_candidates_are_generative(self):
        assert self._oracle().candidate_configurations() is None


def _reference_planted_outcome(units, rules, seed=0):
    """The name-keyed closure planted_outcome replaces, over a digest-keyed
    view (see _unit_view): a unit fails when a dependency, looked up by
    digest, forms a forbidden pair with it, or by the noise hash of its
    digest."""
    by_parent = {}
    for parent, pv, child, cv in rules.forbidden:
        by_parent.setdefault((parent, pv), set()).add((child, cv))

    def outcome(digest):
        package, version, deps = units[digest]
        bad_children = by_parent.get((package, version))
        if bad_children:
            for dep_digest in deps:
                dep_package, dep_version, _ = units[dep_digest]
                if (dep_package, dep_version) in bad_children:
                    return False
        if rules.noise > 0.0:
            if derive_seed(seed, digest) / 2**64 < rules.noise:
                return False
        return True

    return outcome


@st.composite
def _planted_cases(draw):
    """A _dag_cases graph and rows, plus up to six rules on its edges."""
    graph, rows = draw(_dag_cases())
    rules = draw(st.lists(st.sampled_from(graph.edges).flatmap(
        lambda edge: st.tuples(
            st.just(graph.packages[edge[0]]), st.sampled_from(graph.domains[edge[0]]),
            st.just(graph.packages[edge[1]]), st.sampled_from(graph.domains[edge[1]]))),
        max_size=6))
    return graph, rows, frozenset(rules)


class TestPlantedOutcome:
    def test_agrees_with_config_oracle(self):
        """Root-unit success in the DAG must equal the config-level verdict."""
        graph = chain_graph(3, 2)
        rules = PlantedRuleSet(forbidden=frozenset({("A", "v1", "B", "v2"),
                                                    ("B", "v1", "C", "v2")}))
        oracle = SyntheticOracle(graph, rules)
        configs = list(all_configurations(graph))
        dag = build_dag(configs, graph)
        statuses = _statuses(simulate(dag, planted_outcome(dag, rules, graph), workers=4))
        for config in configs:
            root = dag.origins[config]
            built = statuses[root] == NodeStatus.SUCCEEDED
            assert built == oracle.evaluate(config)

    @settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=_planted_cases(), noise=st.sampled_from([0.0, 0.3, 0.7]),
           seed=st.integers(0, 2**32))
    def test_property_matches_the_reference(self, case, noise, seed):
        """Every rank's verdict equals the name-keyed closure's for its digest."""
        graph, rows, forbidden = case
        rules = PlantedRuleSet(forbidden=forbidden, noise=noise)
        dag = build_dag(rows, graph)
        built = planted_outcome(dag, rules, graph, seed=seed)
        assert built.dtype == bool and built.shape == (dag.node_count,)
        reference = _reference_planted_outcome(_unit_view(dag, graph), rules, seed)
        assert built.tolist() == [reference(d) for d in dag.digests]

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(case=_planted_cases(), workers=st.sampled_from([1, 3]))
    def test_property_root_status_agrees_with_the_oracle(self, case, workers):
        """Without noise, each sampled configuration's root unit succeeds
        exactly when SyntheticOracle.evaluate builds it; with noise, a root
        unit succeeds only where the rules pass."""
        graph, rows, forbidden = case
        dag = build_dag(rows, graph)
        oracle = SyntheticOracle(graph, PlantedRuleSet(forbidden))
        for noise in (0.0, 0.3):
            rules = PlantedRuleSet(forbidden, noise=noise)
            statuses = _statuses(simulate(dag, planted_outcome(dag, rules, graph, seed=7),
                                          workers=workers))
            for config in rows:
                built = statuses[dag.origins[tuple(config)]] is NodeStatus.SUCCEEDED
                if noise == 0.0:
                    assert built == oracle.evaluate(config)
                else:
                    assert not built or oracle.evaluate(config)

    def test_wide_domains(self):
        """Rule keys grow with the domains summed, not multiplied."""
        graph = DependencyGraph(
            packages=("A", "B"),
            domains=(tuple(f"a{i}" for i in range(40_000)), tuple(f"b{i}" for i in range(30_000))),
            edges=((0, 1),), root=0)
        validate_graph(graph)
        configs = [(39_999, 29_999), (39_999, 0), (0, 29_999), (17, 23)]
        rules = PlantedRuleSet(forbidden=frozenset({("A", "a39999", "B", "b29999"),
                                                    ("A", "a17", "B", "b23")}))
        dag = build_dag(configs, graph)
        built = planted_outcome(dag, rules, graph)
        roots = [dag.digests.index(dag.origins[c]) for c in configs]
        assert built[roots].tolist() == [False, True, True, False]
        assert built.sum() == dag.node_count - 2

    def test_unknown_rule_rejected(self):
        graph = two_package_graph()
        dag = build_dag([(0, 0)], graph)
        rules = PlantedRuleSet(forbidden=frozenset({("A", "v1", "Z", "v1")}))
        with pytest.raises(RulesError, match="unknown package 'Z'"):
            planted_outcome(dag, rules, graph)


class TestGenerateBenchmark:
    def test_rate_within_band(self):
        graph, rules = generate_benchmark(4, 3, rule_density=0.5,
                                          target_rate=0.3, seed=7)
        space = enumerate_records(SyntheticOracle(graph, rules))
        rate = space.good_count / len(space)
        assert 0.3 * 0.8 <= rate <= 0.3 * 1.2

    def test_deterministic(self):
        a = generate_benchmark(4, 2, 0.5, 0.4, seed=11)
        b = generate_benchmark(4, 2, 0.5, 0.4, seed=11)
        assert a[0] == b[0]
        assert a[1] == b[1]

    def test_target_one_means_no_rules(self):
        graph, rules = generate_benchmark(3, 2, 0.5, 1.0, seed=2)
        assert rules.forbidden == frozenset()
        space = enumerate_records(SyntheticOracle(graph, rules))
        assert space.good_count == len(space) == space_size(graph)

    def test_tree_shape(self):
        graph, _ = generate_benchmark(6, 2, 0.3, 0.5, seed=3)
        assert graph.n_packages == 6
        assert len(graph.edges) == 5  # a tree over six packages
        assert graph.packages[0] == "root"

    def test_per_package_domain_sizes(self):
        graph, _ = generate_benchmark(4, [2, 3, 4, 5], 0.5, 0.5, seed=4)
        assert graph.domain_sizes == (2, 3, 4, 5)

    def test_infeasible_raises(self):
        # Density zero permits no rules, so low targets are unreachable.
        with pytest.raises(BenchmarkError):
            generate_benchmark(3, 2, rule_density=0.0, target_rate=0.05, seed=1)

    @pytest.mark.parametrize("density", [0.0, 0.013])
    def test_density_zero_plants_no_rule(self, density):
        """A target below 1 needs a rule, which a density under half a pair
        never plants: 0.013 of a 5-package tree's 36 pairs rounds to 0
        rules, where 0.014 rounds to 1."""
        with pytest.raises(BenchmarkError):
            generate_benchmark(5, 3, rule_density=density, target_rate=0.8, seed=1)
        graph, rules = generate_benchmark(5, 3, rule_density=density, target_rate=1.0, seed=1)
        assert rules.forbidden == frozenset()
        graph, rules = generate_benchmark(5, 3, rule_density=0.014, target_rate=0.8, seed=1)
        assert len(graph.edges) * 9 == 36 and len(rules.forbidden) == 1

    def test_argument_validation(self):
        with pytest.raises(ValueError, match="at least two"):
            generate_benchmark(1, 2, 0.5, 0.5, seed=0)
        with pytest.raises(ValueError, match="target rate"):
            generate_benchmark(3, 2, 0.5, 0.0, seed=0)
        with pytest.raises(ValueError, match="rule density"):
            generate_benchmark(3, 2, 1.5, 0.5, seed=0)
        with pytest.raises(ValueError, match="domain"):
            generate_benchmark(3, [2, 2], 0.5, 0.5, seed=0)
