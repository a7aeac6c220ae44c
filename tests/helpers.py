"""Shared fixtures for the test suite: small graphs and record builders."""
from __future__ import annotations

import itertools
import json
import os

from buildtuner import (
    BuildRecord,
    Dataset,
    DatasetError,
    DependencyGraph,
    config_digest,
    load_graph,
    random_configuration,
    validate_graph,
)
from buildtuner.surrogate import FactorSide, _log_densities


def all_configurations(graph: DependencyGraph):
    """Every configuration as a tuple, the last package varying fastest: the
    reference order of configspace.full_space_matrix."""
    return itertools.product(*(range(len(domain)) for domain in graph.domains))


def log_density_many(table: FactorSide, matrix):
    """Log of the unnormalized factor product of each row of matrix under one
    side's table alone, summed as every score sums it (_log_densities)."""
    return _log_densities(table.layout, table.log[None], matrix)[0]


def chain_graph(n: int = 3, versions: int = 2) -> DependencyGraph:
    """A -> B -> C ... with identical version domains."""
    names = tuple(chr(ord("A") + i) for i in range(n))
    graph = DependencyGraph(
        packages=names,
        domains=tuple(tuple(f"v{j + 1}" for j in range(versions)) for _ in range(n)),
        edges=tuple((i, i + 1) for i in range(n - 1)),
        root=0,
    )
    validate_graph(graph)
    return graph


def two_package_graph() -> DependencyGraph:
    return chain_graph(2, 2)


def diamond_graph() -> DependencyGraph:
    """R depends on M1 and M2, both of which depend on L."""
    graph = DependencyGraph(
        packages=("R", "M1", "M2", "L"),
        domains=(("v1",), ("v1",), ("v1",), ("v1",)),
        edges=((0, 1), (0, 2), (1, 3), (2, 3)),
        root=0,
    )
    validate_graph(graph)
    return graph


def distinct_records(graph, count, rng, outcome_fn) -> list[BuildRecord]:
    """Draw distinct random configurations labeled by outcome_fn."""
    seen: set[str] = set()
    records: list[BuildRecord] = []
    attempts = 0
    while len(records) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise AssertionError(
                f"could not draw {count} distinct configurations; space too small?"
            )
        config = random_configuration(graph, rng)
        digest = config_digest(graph, config)
        if digest in seen:
            continue
        seen.add(digest)
        records.append(BuildRecord(config=config, outcome=bool(outcome_fn(config))))
    return records


def wide_graph(n_deps: int, versions: int = 2) -> DependencyGraph:
    """One root with n_deps direct dependencies."""
    names = ("root",) + tuple(f"dep{i:02d}" for i in range(1, n_deps + 1))
    graph = DependencyGraph(
        packages=names,
        domains=tuple(tuple(f"v{j + 1}" for j in range(versions)) for _ in names),
        edges=tuple((0, i) for i in range(1, n_deps + 1)),
        root=0,
    )
    validate_graph(graph)
    return graph


def reference_load_dataset(path: str, graph: DependencyGraph | None = None) -> Dataset:
    """load_dataset as a plain per-line loop, the slow reference for its
    label lookups: each label is found by tuple.index, one package at a
    time, and the Dataset is built by its checking constructor.  Lines split
    on "\n" only, as the loader's file format says."""
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    if not text:
        raise DatasetError("empty dataset file", line=1)
    lines = text.split("\n")
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DatasetError(f"invalid JSON in header: {exc}", line=1) from exc
    if not isinstance(header, dict) or not isinstance(header.get("graph"), str):
        raise DatasetError("header must be an object naming the graph file", line=1)
    if header.get("format") != 1:
        raise DatasetError(f"unsupported format {header.get('format')!r}, expected 1", line=1)
    if graph is None:
        graph = load_graph(os.path.join(os.path.dirname(os.path.abspath(path)), header["graph"]))
    records: list[BuildRecord] = []
    seen: set = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"invalid JSON: {exc}", line=lineno) from exc
        if not isinstance(payload, dict) or "versions" not in payload or "built" not in payload:
            raise DatasetError("record needs 'versions' and 'built' fields", line=lineno)
        versions = payload["versions"]
        if not isinstance(versions, dict):
            raise DatasetError(
                f"versions must map package names to labels, got {versions!r}", line=lineno)
        if set(versions) != set(graph.packages):
            extra = sorted(set(versions) - set(graph.packages))
            missing = sorted(set(graph.packages) - set(versions))
            message = (f"unknown package {extra[0]!r}" if extra
                       else f"missing version for package {missing[0]!r}")
            raise DatasetError(message, line=lineno)
        config = []
        for name, domain in zip(graph.packages, graph.domains):
            try:
                config.append(domain.index(versions[name]))
            except ValueError:
                raise DatasetError(f"unknown version {versions[name]!r} for package {name!r}",
                                   line=lineno) from None
        config = tuple(config)
        if config in seen:
            raise DatasetError(f"duplicate configuration with digest "
                               f"{config_digest(graph, config)}", line=lineno)
        seen.add(config)
        if not isinstance(payload["built"], bool):
            raise DatasetError(f"'built' must be true or false, not {payload['built']!r}",
                               line=lineno)
        records.append(BuildRecord(config, payload["built"]))
    return Dataset(graph, records)
