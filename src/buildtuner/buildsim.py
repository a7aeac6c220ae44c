"""Build campaign simulation over deduplicated dependency DAGs.

A set of configurations is compiled into one DAG whose nodes are unique
(package, version, dependency-subtree) units, so configurations sharing a
subtree share its nodes.  A farmer hands ready units to a bounded pool of
workers; a unit is ready once all of its dependency units succeeded, and a
failure marks every transitive dependent as skipped.  The campaign works on
columns from the DAG to the report: a unit is its digest rank, and vectors
indexed by rank give its package, version, outcome, latency and status.
Unit digests appear as strings only in BuildDag.digests, origins and the
report's text.

The module also provides synthetic ground truth: oracles that fail a
configuration exactly when it activates a planted forbidden version pair,
and a benchmark generator that plants rules until a target success rate is
met.
"""
from __future__ import annotations

import hashlib
import heapq
import json
import math
import operator
from collections import deque
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import Iterable, Iterator, Sequence

import numpy as np

from .configspace import (
    EXHAUSTIVE_LIMIT,
    Configuration,
    DependencyGraph,
    GraphError,
    _digest,
    _read_json,
    _write_json,
    check_configuration,
    check_rows,
    full_space_matrix,
    space_size,
    validate_graph,
)
from .dataset import Dataset
from .rng import derive_seed, substream

__all__ = [
    "BenchmarkError",
    "BuildDag",
    "NodeStatus",
    "PlantedRuleSet",
    "RulesError",
    "SimReport",
    "SyntheticOracle",
    "build_dag",
    "enumerate_records",
    "generate_benchmark",
    "load_rules",
    "planted_outcome",
    "save_rules",
    "simulate",
    "synthetic_oracle",
]


class BenchmarkError(ValueError):
    """The benchmark generator could not satisfy the requested target."""


class RulesError(ValueError):
    """A planted rule set or rules file is malformed."""


class NodeStatus(Enum):
    """How a unit ended a simulated campaign."""

    SUCCEEDED = "succeeded"
    FAILED = "failed"
    SKIPPED = "skipped"


class BuildDag:
    """Deduplicated build units plus the origin of every input configuration.

    A unit is known by its digest rank: its place in ``digests``, which
    lists every unit digest in sorted order, so ranks compare exactly as
    digests do.  ``package`` and ``version`` give each rank's package index
    and version index, and ``edges`` gives every (unit, dependency) pair by
    rank, both intp vectors.  ``origins`` maps each distinct input
    configuration to the digest of its root unit, and is built from
    ``origin_rows``, the input rows and their roots' ranks, on first read.
    Only build_dag makes one.
    """

    def __init__(self, digests: list[str], package: np.ndarray, version: np.ndarray,
                 edges: tuple[np.ndarray, np.ndarray], origin_rows):
        self.digests, self.package, self.version, self.edges = digests, package, version, edges
        self._origin_rows = origin_rows

    @cached_property
    def origins(self) -> dict[Configuration, str]:
        rows, root_ranks = self._origin_rows
        return dict(zip(map(tuple, rows.tolist()),
                        map(self.digests.__getitem__, root_ranks.tolist())))

    @property
    def node_count(self) -> int:
        return len(self.digests)


# Every dependency digest is 64 hex characters, so each one is hashed behind
# the same 4-byte length prefix; build_dag keeps each unit's digest with that
# prefix as one S68 item, so sorting items sorts the digests.
_DIGEST_PREFIX = (64).to_bytes(4, "big").decode("ascii")
_ITEM = np.dtype("S68")

# build_dag folds each child's unit id into an int64 row key; a key that
# could pass this bound is first made dense, below len(rows).
_KEY_LIMIT = 2**62
# Row keys below this many times the row count get their unit ids from a
# presence vector; larger ones from np.unique, which sorts.
_DENSE_SPAN = 4
# Units hashed per block: only a block's dependency items and payloads exist
# at once.
_HASH_BLOCK = 512


def _unit_ids(key: np.ndarray, bound: int) -> tuple[np.ndarray, int]:
    """Each row's unit id, dense and ascending in its key (every key below
    bound), and the number of units."""
    if 0 < bound <= _DENSE_SPAN * len(key):
        present = np.zeros(bound, dtype=bool)
        present[key] = True
        ids = np.cumsum(present) - 1
        return ids[key], int(ids[-1]) + 1
    values, ids = np.unique(key, return_inverse=True)
    return ids, len(values)


def _unit_digests(version_bytes: Sequence[bytes], versions: list[int],
                  deps: list[np.ndarray]) -> list[str]:
    """Each unit's digest: sha256 over its version's _version_bytes entry,
    the bytes a configuration digest hashes too, then its sorted dependency
    items.  deps holds one column of prefixed dependency items per child;
    the units are hashed a block at a time, by mapping the hasher's methods,
    from a copy of a hasher seeded with their version's bytes."""
    prefixes = list(map(hashlib.sha256, version_bytes))
    hasher = type(prefixes[0])
    if not deps:
        return list(map(hasher.hexdigest, map(prefixes.__getitem__, versions)))
    payload = np.dtype((np.void, _ITEM.itemsize * len(deps)))
    made: list[str] = []
    for at in range(0, len(versions), _HASH_BLOCK):
        block = np.column_stack([column[at:at + _HASH_BLOCK] for column in deps])
        block.sort(axis=1)  # hex digits sort by byte as they do by character
        hashers = list(map(hasher.copy, map(prefixes.__getitem__, versions[at:at + _HASH_BLOCK])))
        deque(map(hasher.update, hashers, block.view(payload).ravel().tolist()), maxlen=0)
        made += map(hasher.hexdigest, hashers)
    return made


def build_dag(configs: Iterable[Configuration], graph: DependencyGraph) -> BuildDag:
    """Merge the given configurations into one deduplicated build DAG.

    Each package's units get dense integer ids first, children first: rows
    share a unit exactly when they share its version and its children's
    units, so a row's key is its version with each child's unit id folded
    in.  Only then is each distinct unit digested, once, in blocks (see
    _unit_digests), its dependency digests gathered from its children's
    digest columns.  One argsort of all digests gives the ranks, and every
    vector of the result is indexed by digest rank.
    """
    if not isinstance(configs, np.ndarray):
        configs = list(configs)
    rows = check_rows(graph, configs)
    # Children first, so each unit's dependency digests already exist.
    order = graph.topological_order[::-1]
    names: list[str] = []  # every unit's digest, in the order made
    ids: dict[int, np.ndarray] = {}  # package -> unit id of each row
    items: dict[int, np.ndarray] = {}  # package -> prefixed digest of each unit id
    start: dict[int, int] = {}  # package -> place in names of its unit id 0
    packages: list[np.ndarray] = []  # each made unit's package and version index
    versions: list[np.ndarray] = []
    pairs: list[tuple[np.ndarray, np.ndarray]] = []  # (unit, dependency) places
    for node in order:
        children = graph.children_map[node]
        key, bound = rows[:, node], graph.domain_sizes[node]
        for child in children:
            count = len(items[child])
            if bound * count > _KEY_LIMIT:
                key, bound = _unit_ids(key, bound)
            key, bound = key * count + ids[child], bound * count
        ids[node], count = _unit_ids(key, bound)
        # Any row of a unit gives its version and its children's units.
        row_of = np.empty(count, dtype=np.intp)
        row_of[ids[node]] = np.arange(len(rows))
        child_ids = [ids[child][row_of] for child in children]
        made_versions = rows[row_of, node]
        made = _unit_digests(graph._version_bytes[node], made_versions.tolist(),
                             [items[child][i] for child, i in zip(children, child_ids)])
        start[node] = len(names)
        new_places = np.arange(len(names), len(names) + count)
        pairs += [(new_places, start[child] + i) for child, i in zip(children, child_ids)]
        packages.append(np.full(count, node, dtype=np.intp))
        versions.append(made_versions)
        items[node] = np.frombuffer(_DIGEST_PREFIX.join(["", *made]).encode("ascii"), dtype=_ITEM)
        names += made
    # The one sort of all digests: ranks replace places in every vector.
    by_digest = np.argsort(np.concatenate([items[node] for node in order]))
    rank = np.empty(len(names), dtype=np.intp)
    rank[by_digest] = np.arange(len(names))
    no_pair = [np.empty(0, dtype=np.intp)]
    edges = (rank[np.concatenate(no_pair + [unit for unit, _ in pairs])],
             rank[np.concatenate(no_pair + [dep for _, dep in pairs])])
    return BuildDag(list(map(names.__getitem__, by_digest.tolist())),
                    np.concatenate(packages)[by_digest],
                    np.concatenate(versions).astype(np.intp)[by_digest], edges,
                    (rows, rank[start[graph.root] + ids[graph.root]]))


# Status codes of SimReport.codes: each status's place in NodeStatus.
_STATUSES = tuple(NodeStatus)
_SUCCEEDED, _FAILED, _SKIPPED = (_STATUSES.index(s) for s in
                                 (NodeStatus.SUCCEEDED, NodeStatus.FAILED, NodeStatus.SKIPPED))


@dataclass(frozen=True, eq=False)
class SimReport:
    """The end of a simulated campaign, by digest rank.

    ``digests`` lists every unit digest in ascending order, as
    ``BuildDag.digests`` does, and ``codes[i]`` is the status of the unit
    ranked i as its place in ``NodeStatus`` (succeeded 0, failed 1,
    skipped 2).  Each attempt is one entry of the event columns, in the
    order attempts ended: the unit's rank, the worker, the start and the end
    time; whether it built is ``codes[event_rank] == 0``.  The counts are
    read from the codes, so a report cannot state counts its codes
    contradict, and the makespan is the last attempt's end, 0.0 with no
    attempt.  Units are named by digest only in to_dict and json_chunks.
    Reports compare by identity; compare their fields.
    """

    digests: Sequence[str]
    codes: np.ndarray
    event_rank: np.ndarray
    event_worker: np.ndarray
    event_start: np.ndarray
    event_end: np.ndarray

    def __post_init__(self):
        # json_chunks writes the units in this order, the order sort_keys gives.
        if sorted(self.digests) != list(self.digests):
            raise ValueError("report digests must be in ascending order")

    succeeded = property(lambda self: int(np.count_nonzero(self.codes == _SUCCEEDED)))
    failed = property(lambda self: int(np.count_nonzero(self.codes == _FAILED)))
    skipped = property(lambda self: int(np.count_nonzero(self.codes == _SKIPPED)))
    attempted = property(lambda self: self.succeeded + self.failed)
    makespan = property(lambda self: float(self.event_end[-1]) if self.event_end.size else 0.0)

    def _counts(self) -> dict:
        return {
            "nodes": len(self.digests),
            "attempted": self.attempted,
            "succeeded": self.succeeded,
            "failed": self.failed,
            "skipped": self.skipped,
            "failed_or_skipped": self.failed + self.skipped,  # no artifact, whatever the reason
            "makespan": self.makespan,
        }

    def to_dict(self) -> dict:
        values = [s.value for s in _STATUSES]
        return {**self._counts(), "statuses": dict(zip(
            self.digests, map(values.__getitem__, self.codes.tolist())))}

    def json_chunks(self) -> Iterator[str]:
        """The text of json.dumps(self.to_dict(), indent=2, sort_keys=True)
        plus a newline, in chunks.

        The counts go through json.dumps; each status is one pre-encoded
        line, written a few thousand at a time in rank order, which is the
        sorted key order, so the report never passes through the
        pure-Python indenting encoder nor exists as one string.
        """
        text = json.dumps({**self._counts(), "statuses": None}, indent=2, sort_keys=True)
        head, _, tail = text.partition('"statuses": null')
        if not self.digests:
            yield f'{head}"statuses": {{}}{tail}\n'
            return
        yield f'{head}"statuses": {{\n'
        # Each line is its indent, its encoded digest and one of these.
        values = [f": {json.dumps(s.value)}" for s in _STATUSES]
        for at in range(0, len(self.digests), _REPORT_CHUNK):
            lines = map(operator.add, map(_json_string, self.digests[at:at + _REPORT_CHUNK]),
                        map(values.__getitem__, self.codes[at:at + _REPORT_CHUNK].tolist()))
            yield ("    " if at == 0 else ",\n    ") + ",\n    ".join(lines)
        yield f"\n  }}{tail}\n"


# Status lines per chunk of SimReport.json_chunks.
_REPORT_CHUNK = 4096
# The string encoder json.dumps uses with its default ensure_ascii=True.
_json_string = json.encoder.encode_basestring_ascii


def simulate(
    dag: BuildDag,
    builds: Sequence[bool] | np.ndarray,
    workers: int = 1,
    latencies: Sequence[float] | np.ndarray | None = None,
) -> SimReport:
    """Run the farmer-worker protocol to completion.

    The unit ranked i in ``dag.digests`` builds iff ``builds[i]``, after
    ``latencies[i]`` (default 1.0), which must be finite and >= 0 once the
    unit is attempted.  Units are scheduled by rank over ``dag.edges``, so
    every order is the digest order: ready units enter a FIFO queue in rank
    order within each wave and go to the lowest-numbered free worker, and
    equal end times finish in rank order.  Each unit's count of dependencies
    not yet built is one int vector; a unit that builds decrements its
    dependents' counts in one step.  The schedule is a pure function of the
    inputs, returned as status codes and event columns by rank.  Every unit
    ends succeeded, failed, or skipped, and attempted + skipped equals the
    node count.
    """
    if workers < 1:
        raise ValueError("workers must be at least 1")
    digests, (unit_rank, dep_rank) = dag.digests, dag.edges
    n = len(digests)
    builds = np.asarray(builds, dtype=bool)
    latencies = np.ones(n) if latencies is None else np.asarray(latencies, dtype=float)
    for name, vector in (("builds", builds), ("latencies", latencies)):
        if vector.shape != (n,):
            raise ValueError(f"{name} has shape {vector.shape}, not one entry for each of {n} units")
    built, latency_of = builds.tolist(), latencies.tolist()
    waiting_on = np.bincount(unit_rank, minlength=n)
    # The dependents of the unit ranked i, ascending, are
    # dependents[bounds[i]:bounds[i + 1]].
    dependents = unit_rank[np.argsort(dep_rank * n + unit_rank)]
    bounds = [0, *np.cumsum(np.bincount(dep_rank, minlength=n)).tolist()]

    ready = deque(np.flatnonzero(waiting_on == 0).tolist())
    # The lowest free worker is always taken and at most n units run at once,
    # so no worker numbered n or above is ever used.
    free_workers = list(range(min(workers, n)))  # sorted, so already a heap
    building: list[tuple[float, int, int, float]] = []  # (end, rank, worker, start)
    ended: list[tuple[float, int, int, float]] = []  # the same, as attempts end
    now = 0.0

    def start_ready() -> None:
        while ready and free_workers:
            i = ready.popleft()
            worker = heapq.heappop(free_workers)
            latency = latency_of[i]
            if not 0.0 <= latency < math.inf:
                raise ValueError(
                    f"latency {latency} of unit {digests[i]} is not finite and >= 0")
            heapq.heappush(building, (now + latency, i, worker, now))

    start_ready()
    while building:
        attempt = heapq.heappop(building)
        ended.append(attempt)
        now, i, worker, _ = attempt
        heapq.heappush(free_workers, worker)
        if built[i]:
            waiting = dependents[bounds[i]:bounds[i + 1]]
            waiting_on[waiting] -= 1
            ready.extend(waiting[waiting_on[waiting] == 0].tolist())
        start_ready()

    # A unit never attempted is skipped: it waits on a dependency that
    # failed, or that waits in turn on one that failed.
    end, rank, worker, begin = np.array(ended, dtype=float).reshape(-1, 4).T
    rank = rank.astype(np.intp)
    codes = np.full(n, _SKIPPED, dtype=np.int8)
    codes[rank] = np.where(builds[rank], _SUCCEEDED, _FAILED)
    return SimReport(digests=digests, codes=codes, event_rank=rank,
                     event_worker=worker.astype(np.intp), event_start=begin, event_end=end)


_RULE_FIELDS = ("parent", "parent_version", "child", "child_version")


@dataclass(frozen=True)
class PlantedRuleSet:
    """Forbidden (parent version, child version) pairs plus noise rate.

    Rules are stored by name: (parent, parent_version, child, child_version).
    """

    forbidden: frozenset[tuple[str, str, str, str]]
    noise: float = 0.0

    def __post_init__(self):
        noise = self.noise
        if isinstance(noise, bool) or not isinstance(noise, (int, float)):
            raise RulesError(f"noise must be a number, got {noise!r}")
        if not (0.0 <= noise < 1.0):
            raise RulesError(f"noise {noise} outside [0, 1)")
        object.__setattr__(self, "noise", float(noise))

    def to_dict(self) -> dict:
        return {
            "forbidden": [dict(zip(_RULE_FIELDS, rule)) for rule in sorted(self.forbidden)],
            "noise": self.noise,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "PlantedRuleSet":
        if not (isinstance(payload, dict) and isinstance(payload.get("forbidden"), list)):
            raise RulesError("rules must be an object with a 'forbidden' list")
        rules = set()
        for entry in payload["forbidden"]:
            if not (isinstance(entry, dict)
                    and all(isinstance(entry.get(field), str) for field in _RULE_FIELDS)):
                raise RulesError(
                    f"a rule must give {', '.join(_RULE_FIELDS)} as strings: {entry!r}")
            rules.add(tuple(entry[field] for field in _RULE_FIELDS))
        return cls(forbidden=frozenset(rules), noise=payload.get("noise", 0.0))

    def check_against(self, graph: DependencyGraph) -> tuple[tuple[int, int, int, int], ...]:
        """The rules as (parent, parent_version, child, child_version) indices,
        in name order; RulesError for a rule whose package, version or edge
        is not in the graph."""
        edges = set(graph.edges)
        out = []
        for parent, pv, child, cv in sorted(self.forbidden):
            try:
                p, c = graph.index_of(parent), graph.index_of(child)
                out.append((p, graph.version_index(p, pv), c, graph.version_index(c, cv)))
            except GraphError as exc:
                raise RulesError(f"rule {parent} {pv} -> {child} {cv}: {exc}") from None
            if (p, c) not in edges:
                raise RulesError(f"rule references missing edge {parent!r} -> {child!r}")
        return tuple(out)


def load_rules(path: str) -> PlantedRuleSet:
    return PlantedRuleSet.from_dict(_read_json(path, RulesError))


def save_rules(rules: PlantedRuleSet, path: str) -> None:
    _write_json(path, rules.to_dict())


def _noise_fails(seed: int, digest: str, noise: float) -> bool:
    """Whether noise fails the configuration or unit named by digest: a
    uniform draw on [0, 1), hashed from seed and digest, falls below noise."""
    return derive_seed(seed, digest) / 2**64 < noise


class SyntheticOracle:
    """Ground-truth oracle: a configuration builds iff no planted rule fires.

    With a positive noise rate a configuration may also fail spontaneously;
    the noise decision is a deterministic hash of the config digest, so
    repeated queries agree.
    """

    def __init__(self, graph: DependencyGraph, rules: PlantedRuleSet, seed: int = 0):
        validate_graph(graph)
        self.graph = graph
        self.rules = rules
        self.seed = seed
        self._forbidden = rules.check_against(graph)

    def candidate_configurations(self) -> None:
        return None

    def evaluate(self, config: Configuration) -> bool:
        check_configuration(self.graph, config)
        for p, pv, c, cv in self._forbidden:
            if config[p] == pv and config[c] == cv:
                return False
        return not (self.rules.noise > 0.0
                    and _noise_fails(self.seed, _digest(self.graph, config), self.rules.noise))

    def outcomes(self, rows: np.ndarray) -> np.ndarray:
        """What evaluate returns for each of the rows, which must already be
        checked: the rules on every row, then the noise hash only on the
        rows that pass them."""
        bad = np.zeros(rows.shape[0], dtype=bool)
        for p, pv, c, cv in self._forbidden:
            bad |= (rows[:, p] == pv) & (rows[:, c] == cv)
        built = ~bad
        if self.rules.noise > 0.0:
            for i in np.flatnonzero(built).tolist():
                built[i] = not _noise_fails(self.seed, _digest(self.graph, rows[i].tolist()),
                                            self.rules.noise)
        return built


def synthetic_oracle(
    graph: DependencyGraph, rules: PlantedRuleSet, seed: int = 0
) -> SyntheticOracle:
    return SyntheticOracle(graph, rules, seed)


def planted_outcome(
    dag: BuildDag, rules: PlantedRuleSet, graph: DependencyGraph, seed: int = 0
) -> np.ndarray:
    """Whether each unit builds, by digest rank, matching the config-level oracle.

    A unit fails when one of its direct dependency units activates a
    forbidden pair with it, or (with noise) by a deterministic hash of the
    digest of a unit that passes the rules.  A configuration's root unit
    then succeeds exactly when the configuration satisfies every rule.
    """
    forbidden = rules.check_against(graph)
    # Each (package, version) gets one flat id below total, the domain sizes
    # summed, and each edge one int64 key below total**2 from its two ends.
    offset = np.cumsum([0, *graph.domain_sizes], dtype=np.int64)
    flat = offset[dag.package] + dag.version
    total = int(offset[-1])
    unit, dep = dag.edges
    keys = [(int(offset[p]) + pv) * total + int(offset[c]) + cv for p, pv, c, cv in forbidden]
    built = np.ones(dag.node_count, dtype=bool)
    built[unit[np.isin(flat[unit] * total + flat[dep], keys)]] = False
    if rules.noise > 0.0:
        for i in np.flatnonzero(built).tolist():
            built[i] = not _noise_fails(seed, dag.digests[i], rules.noise)
    return built


def enumerate_records(oracle: SyntheticOracle) -> Dataset:
    """The whole space labeled by the oracle, as a dataset in
    full_space_matrix order; for spaces within the enumeration limit."""
    rows = full_space_matrix(oracle.graph).astype(np.int64)
    return Dataset._checked(oracle.graph, rows, oracle.outcomes(rows))


def _random_tree_graph(
    n_packages: int,
    domain_sizes: Sequence[int],
    rng: np.random.Generator,
) -> DependencyGraph:
    names = ["root"] + [f"dep{i:02d}" for i in range(1, n_packages)]
    domains = tuple(
        tuple(f"v{j + 1}" for j in range(size)) for size in domain_sizes
    )
    edges = tuple(
        sorted((int(rng.integers(i)), i) for i in range(1, n_packages))
    )
    graph = DependencyGraph(
        packages=tuple(names), domains=domains, edges=edges, root=0
    )
    validate_graph(graph)
    return graph


def _resolve_domain_sizes(n_packages: int, domain_sizes: int | Sequence[int]) -> list[int]:
    if isinstance(domain_sizes, int):
        sizes = [domain_sizes] * n_packages
    else:
        sizes = [int(s) for s in domain_sizes]
        if len(sizes) != n_packages:
            raise ValueError(
                f"{len(sizes)} domain sizes given for {n_packages} packages"
            )
    if any(s < 1 for s in sizes):
        raise ValueError("domain sizes must be positive")
    return sizes


# generate_benchmark tries this many fresh graphs, and accepts a success
# rate within this relative distance of the target.
_BENCHMARK_ATTEMPTS = 25
_RATE_TOLERANCE = 0.2


def generate_benchmark(
    n_packages: int,
    domain_sizes: int | Sequence[int],
    rule_density: float,
    target_rate: float,
    seed: int,
) -> tuple[DependencyGraph, PlantedRuleSet]:
    """Generate a random tree graph plus rules hitting a target success rate.

    Rules are planted one at a time from a shuffled pool of version pairs
    until the measured rate falls within the relative tolerance band around
    the target; a pair that would overshoot the band is put back.  The rule
    count is capped at rule_density times the pool size, rounded half to
    even (Python's round): a density under half a pair plants no rule.  Raises
    BenchmarkError when (graph, pool, cap) cannot reach the band after
    _BENCHMARK_ATTEMPTS fresh graphs.
    """
    if n_packages < 2:
        raise ValueError("a benchmark needs at least two packages")
    if not (0.0 < target_rate <= 1.0):
        raise ValueError(f"target rate {target_rate} outside (0, 1]")
    if not (0.0 <= rule_density <= 1.0):
        raise ValueError(f"rule density {rule_density} outside [0, 1]")
    sizes = _resolve_domain_sizes(n_packages, domain_sizes)
    rng = substream(seed, "benchmark")
    lo = target_rate * (1.0 - _RATE_TOLERANCE)
    hi = min(1.0, target_rate * (1.0 + _RATE_TOLERANCE))

    for _ in range(_BENCHMARK_ATTEMPTS):
        graph = _random_tree_graph(n_packages, sizes, rng)
        if target_rate == 1.0:
            return graph, PlantedRuleSet(forbidden=frozenset())
        matrix = _rate_matrix(graph, rng)
        pool = [
            (j, u, w)
            for j, (p, c) in enumerate(graph.edges)
            for u in range(sizes[p])
            for w in range(sizes[c])
        ]
        order = rng.permutation(len(pool))
        cap = round(rule_density * len(pool))
        bad = np.zeros(matrix.shape[0], dtype=bool)
        chosen: list[tuple[str, str, str, str]] = []
        rate = 1.0
        for k in order:
            if rate <= hi or len(chosen) >= cap:
                break
            j, u, w = pool[int(k)]
            p, c = graph.edges[j]
            new_bad = bad | ((matrix[:, p] == u) & (matrix[:, c] == w))
            new_rate = 1.0 - float(new_bad.mean())
            if new_rate < lo:
                continue
            bad = new_bad
            rate = new_rate
            chosen.append(
                (
                    graph.packages[p],
                    graph.domains[p][u],
                    graph.packages[c],
                    graph.domains[c][w],
                )
            )
        if lo <= rate <= hi:
            return graph, PlantedRuleSet(forbidden=frozenset(chosen))
    raise BenchmarkError(
        f"could not reach a success rate of {target_rate} (+/-{_RATE_TOLERANCE:.0%}) "
        f"after {_BENCHMARK_ATTEMPTS} attempts; adjust rule_density or the space"
    )


def _rate_matrix(graph: DependencyGraph, rng: np.random.Generator) -> np.ndarray:
    """Rows used to measure the success rate: the space, or a large sample."""
    if space_size(graph) <= EXHAUSTIVE_LIMIT:
        return full_space_matrix(graph)
    return np.column_stack(
        [rng.integers(m, size=20000) for m in graph.domain_sizes]
    ).astype(np.int32)
