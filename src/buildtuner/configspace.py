"""Dependency graphs, version assignments, and canonical config digests.

A configuration space is a rooted DAG of packages, each with a finite domain
of version labels.  A configuration assigns one version index to every
package, the root included.  The engine holds it as an int64 row, keyed
by that row's bytes (_row_key), an oracle takes it as a tuple, and files
and traces name it, across runs and machines, by a canonical content digest.

A graph caches, on first use, the tables its boundaries read: a
{label: index} dict per package, through which labels become version
indices; the length-prefixed bytes of each (package, version), the one
encoding that configuration digests and build-unit digests both hash; and
its one topological order.
"""
from __future__ import annotations

import hashlib
import heapq
import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "Configuration",
    "DependencyGraph",
    "GraphError",
    "check_configuration",
    "check_rows",
    "config_digest",
    "config_from_labels",
    "first_occurrences",
    "full_space_matrix",
    "load_graph",
    "random_configuration",
    "random_configurations",
    "save_graph",
    "space_size",
    "validate_graph",
]

# A configuration is one version index per package, aligned with
# DependencyGraph.packages.
Configuration = tuple[int, ...]

EXHAUSTIVE_LIMIT = 10**6


class GraphError(ValueError):
    """A dependency graph or configuration violates a structural invariant."""


@dataclass(frozen=True)
class DependencyGraph:
    """A rooted DAG of packages with per-package version domains.

    Edges are directed parent -> child, meaning the parent package depends
    on the child; topological_order puts every parent before its children.
    """

    packages: tuple[str, ...]
    domains: tuple[tuple[str, ...], ...]
    edges: tuple[tuple[int, int], ...]
    root: int

    @cached_property
    def _name_index(self) -> dict[str, int]:
        return {name: i for i, name in enumerate(self.packages)}

    @cached_property
    def _label_index(self) -> tuple[dict[str, int], ...]:
        """Each package's {version label: version index}."""
        return tuple({label: v for v, label in enumerate(domain)} for domain in self.domains)

    @cached_property
    def _version_bytes(self) -> tuple[tuple[bytes, ...], ...]:
        """The hashed bytes of each (package, version), by package index: the
        package name and the version label, each as UTF-8 behind its 4-byte
        big-endian length."""
        return tuple(tuple(prefix + _length_prefixed(label) for label in domain)
                     for prefix, domain in zip(map(_length_prefixed, self.packages), self.domains))

    @cached_property
    def _digest_pieces(self) -> tuple[tuple[int, tuple[bytes, ...]], ...]:
        """(package index, _version_bytes of the package) in sorted-name order."""
        order = sorted(range(self.n_packages), key=self.packages.__getitem__)
        return tuple((i, self._version_bytes[i]) for i in order)

    @cached_property
    def children_map(self) -> tuple[tuple[int, ...], ...]:
        out: list[list[int]] = [[] for _ in self.packages]
        for parent, child in self.edges:
            out[parent].append(child)
        return tuple(tuple(sorted(cs)) for cs in out)

    @cached_property
    def topological_order(self) -> tuple[int, ...]:
        """Each edge's parent before its child, the lowest ready index first
        (Kahn 1962, over a heap); packages on or below a cycle are left out."""
        waiting = [0] * self.n_packages
        for _, child in self.edges:
            waiting[child] += 1
        ready = [i for i, count in enumerate(waiting) if count == 0]
        order = []
        while ready:
            package = heapq.heappop(ready)
            order.append(package)
            for child in self.children_map[package]:
                waiting[child] -= 1
                if waiting[child] == 0:
                    heapq.heappush(ready, child)
        return tuple(order)

    @property
    def n_packages(self) -> int:
        return len(self.packages)

    @property
    def domain_sizes(self) -> tuple[int, ...]:
        return tuple(len(d) for d in self.domains)

    def index_of(self, name: str) -> int:
        try:
            return self._name_index[name]
        except KeyError:
            raise GraphError(f"unknown package {name!r}") from None

    def version_index(self, package: int, label: str) -> int:
        try:
            return self._label_index[package][label]
        except (KeyError, TypeError):  # TypeError: an unhashable label
            raise GraphError(
                f"unknown version {label!r} for package {self.packages[package]!r}"
            ) from None

    def to_dict(self) -> dict:
        return {
            "root": self.packages[self.root],
            "packages": [
                {"name": name, "versions": list(domain)}
                for name, domain in zip(self.packages, self.domains)
            ],
            "edges": [
                [self.packages[p], self.packages[c]] for p, c in self.edges
            ],
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "DependencyGraph":
        try:
            entries = payload["packages"]
            names = tuple(e["name"] for e in entries)
            domains = tuple(e["versions"] for e in entries)
            root_name = payload["root"]
            raw_edges = payload["edges"]
        except (KeyError, TypeError) as exc:
            raise GraphError(f"malformed graph payload: {exc}") from exc
        for name, labels in zip(names, domains):
            if not isinstance(name, str):
                raise GraphError(f"package name must be a string, got {name!r}")
            if not (isinstance(labels, list) and all(isinstance(v, str) for v in labels)):
                raise GraphError(
                    f"versions of package {name!r} must be a list of strings, got {labels!r}"
                )
        if not isinstance(root_name, str):
            raise GraphError(f"root must be a package name, got {root_name!r}")
        index = {name: i for i, name in enumerate(names)}
        if root_name not in index:
            raise GraphError(f"root {root_name!r} is not a declared package")
        if not isinstance(raw_edges, list):
            raise GraphError(f"edges must be a list, got {raw_edges!r}")
        edges = []
        for pair in raw_edges:
            if not (isinstance(pair, list) and len(pair) == 2
                    and all(isinstance(name, str) for name in pair)):
                raise GraphError(f"edge must be a list of two package names: {pair!r}")
            parent, child = pair
            if parent not in index or child not in index:
                raise GraphError(f"edge references unknown package: {pair!r}")
            edges.append((index[parent], index[child]))
        graph = cls(
            packages=names,
            domains=tuple(map(tuple, domains)),
            edges=tuple(sorted(edges)),
            root=index[root_name],
        )
        validate_graph(graph)
        return graph


def validate_graph(graph: DependencyGraph) -> None:
    """Check all structural invariants; raise GraphError at the first failure.

    Checks run in a fixed order: packages present, root index, domain
    count, package names (duplicates), domains (empty, duplicates), edges
    (dangling, self-edge), acyclicity (naming a cycle's lowest package),
    reachability from the root (naming the lowest orphan).
    """
    n = graph.n_packages
    if n == 0:
        raise GraphError("graph has no packages")
    if not (0 <= graph.root < n):
        raise GraphError(f"root index {graph.root} out of range")
    if len(graph.domains) != n:
        raise GraphError("domain list length does not match package count")
    if len(set(graph.packages)) != n:
        raise GraphError("duplicate package names")
    for i, domain in enumerate(graph.domains):
        if len(domain) == 0:
            raise GraphError(f"empty domain at package {i} ({graph.packages[i]!r})")
        if len(set(domain)) != len(domain):
            raise GraphError(
                f"duplicate version label at package {i} ({graph.packages[i]!r})"
            )
    for parent, child in graph.edges:
        if not (0 <= parent < n and 0 <= child < n):
            raise GraphError(f"dangling edge ({parent}, {child})")
        if parent == child:
            raise GraphError(f"self-edge at package {parent}")
    left_out = set(range(n)).difference(graph.topological_order)
    if left_out:
        # Each package left out has a parent left out: walking up meets a cycle.
        walk, package = [], min(left_out)
        while package not in walk:
            walk.append(package)
            package = min(p for p, c in graph.edges if c == package and p in left_out)
        cyclic = min(walk[walk.index(package):])
        raise GraphError(f"cycle through package {cyclic} ({graph.packages[cyclic]!r})")
    # Acyclic: the root reaches every package unless another has no parent.
    orphans = set(range(n)).difference([graph.root], (c for _, c in graph.edges))
    if orphans:
        missing = min(orphans)
        raise GraphError(
            f"package {missing} ({graph.packages[missing]!r}) unreachable from root"
        )


def check_configuration(graph: DependencyGraph, config: Configuration) -> None:
    """Raise GraphError unless config holds one integer version index in
    range per package; a float or a string is not a version index."""
    if len(config) != graph.n_packages:
        raise GraphError(
            f"configuration length {len(config)} does not match "
            f"{graph.n_packages} packages"
        )
    for i, v in enumerate(config):
        # type() first: a plain int, the common case, skips the slower isinstance.
        if type(v) is not int and not isinstance(v, (int, np.integer)):
            raise GraphError(f"version index {v!r} for package {i} is not an integer")
        if not (0 <= v < len(graph.domains[i])):
            raise GraphError(
                f"version index {v} out of range for package {i} "
                f"({graph.packages[i]!r})"
            )


def check_rows(graph: DependencyGraph, configs) -> np.ndarray:
    """A sequence of configurations as a new int64 matrix, one row each.

    Integer rows in range pass in a few vector operations; any other input
    goes row by row through check_configuration, which raises GraphError.
    """
    sizes = np.asarray(graph.domain_sizes)
    try:
        rows = np.asarray(configs)
    except ValueError:  # rows of different lengths
        rows = None
    if (rows is not None and rows.dtype.kind in "iu" and rows.shape[1:] == sizes.shape
            and not ((rows < 0) | (rows >= sizes)).any()):
        return rows.astype(np.int64)
    for config in configs:
        check_configuration(graph, config)
    return np.array(configs, dtype=np.int64).reshape(-1, sizes.size)


def first_occurrences(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows that equal no earlier row."""
    order = np.lexsort(rows.T)  # stable, so equal rows stay in row order
    ranked = rows[order]
    first = np.ones(rows.shape[0], dtype=bool)
    first[order[1:][(ranked[1:] == ranked[:-1]).all(axis=1)]] = False
    return first


def space_size(graph: DependencyGraph) -> int:
    """Number of distinct configurations, as an exact (unbounded) integer."""
    size = 1
    for domain in graph.domains:
        size *= len(domain)
    return size


def random_configuration(graph: DependencyGraph, rng: np.random.Generator) -> Configuration:
    """Draw each package's version index independently and uniformly.

    Draw order is package index ascending, so the result is fully
    determined by the generator state.
    """
    return tuple(int(rng.integers(len(domain))) for domain in graph.domains)


def random_configurations(graph: DependencyGraph, rng: np.random.Generator,
                          n: int) -> np.ndarray:
    """n configurations drawn in one batch, as an int64 matrix, one row each.

    Row i equals the i-th of n random_configuration calls on the same
    generator, which is left in the same state.
    """
    return rng.integers(0, graph.domain_sizes, size=(n, graph.n_packages))


def full_space_matrix(graph: DependencyGraph) -> np.ndarray:
    """The whole space as an int32 matrix, one row per configuration, the
    last package's version varying fastest (itertools.product order).
    Refuses spaces larger than EXHAUSTIVE_LIMIT.
    """
    return _space_columns(graph, np.int32).T.copy()


def _space_columns(graph: DependencyGraph, dtype) -> np.ndarray:
    """The transpose of full_space_matrix in dtype: a line per package,
    holding its version in every configuration.  Refuses spaces larger
    than EXHAUSTIVE_LIMIT."""
    size = space_size(graph)
    if size > EXHAUSTIVE_LIMIT:
        raise GraphError(
            f"space of {size} configurations exceeds the exhaustive limit "
            f"of {EXHAUSTIVE_LIMIT}"
        )
    sizes = graph.domain_sizes
    columns = np.empty((len(sizes), size), dtype=dtype)
    for i, m in enumerate(sizes):  # (packages before i, version of i, packages after i)
        columns[i].reshape(math.prod(sizes[:i]), m, -1)[...] = np.arange(m)[:, None]
    return columns


def _row_key(row) -> bytes:
    """The engine's key of one configuration, a sequence of ints: its int64 bytes."""
    return np.asarray(row, dtype=np.int64).tobytes()


def _row_keys(rows) -> list[bytes]:
    """The _row_key of each row of an int matrix, through one void view."""
    rows = np.ascontiguousarray(rows, dtype=np.int64)
    return rows.view(np.dtype((np.void, rows.itemsize * rows.shape[-1]))).ravel().tolist()


def _length_prefixed(text: str) -> bytes:
    raw = text.encode("utf-8")
    return len(raw).to_bytes(4, "big") + raw


def config_digest(graph: DependencyGraph, config: Configuration) -> str:
    """Canonical 256-bit digest of a configuration.

    Package names are visited in sorted order, each paired with its assigned
    version label, both encoded as length-prefixed UTF-8.  The digest is
    therefore invariant under permutation of the package declaration order.
    The configuration is checked, then hashed by _digest.
    """
    check_configuration(graph, config)
    return _digest(graph, config)


def _digest(graph: DependencyGraph, config) -> str:
    """config_digest of a configuration already checked: one sha256 over the
    joined bytes that graph caches for each (package, version)."""
    return hashlib.sha256(b"".join(
        [by_version[config[i]] for i, by_version in graph._digest_pieces])).hexdigest()


def config_from_labels(graph: DependencyGraph, versions: dict[str, str]) -> Configuration:
    """Build a configuration from a {package name: version label} mapping.

    Every label is looked up in its package's cached {label: index} dict at
    once; an unknown or unhashable label falls back to one package at a
    time, so the error names the first such package in declaration order.
    """
    if not isinstance(versions, dict):
        raise GraphError(f"versions must map package names to labels, got {versions!r}")
    if versions.keys() != graph._name_index.keys():
        extra = sorted(set(versions) - set(graph.packages))
        missing = sorted(set(graph.packages) - set(versions))
        if extra:
            raise GraphError(f"unknown package {extra[0]!r}")
        raise GraphError(f"missing version for package {missing[0]!r}")
    try:
        return tuple(map(dict.__getitem__, graph._label_index,
                         map(versions.__getitem__, graph.packages)))
    except (KeyError, TypeError):
        return tuple(
            graph.version_index(i, versions[name]) for i, name in enumerate(graph.packages)
        )


def _read_json(path: str, error: type[ValueError]):
    """The JSON value in the file at path; error, naming path, if it is not UTF-8 JSON."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise error(f"{path}: invalid JSON: {exc}") from exc
        except UnicodeDecodeError as exc:
            raise error(f"{path}: not UTF-8: {exc}") from exc


def _write_json(path: str, payload) -> None:
    """Write payload to path as JSON, indented, keys sorted, and a newline."""
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_graph(path: str) -> DependencyGraph:
    return DependencyGraph.from_dict(_read_json(path, GraphError))


def save_graph(graph: DependencyGraph, path: str) -> None:
    _write_json(path, graph.to_dict())
