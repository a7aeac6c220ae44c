"""Labeled build outcome datasets.

A dataset pairs a dependency graph with a list of (configuration, outcome)
records, each configuration at most once.  In memory a configuration is its
tuple; digests identify configurations only in files, traces and messages.
On disk a dataset is JSONL: the first line is a header naming the graph
file, each following line is one record keyed by version labels.
"""
from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .configspace import (
    Configuration,
    DependencyGraph,
    GraphError,
    check_configuration,
    config_digest,
    config_from_labels,
    labels_of,
    load_graph,
)

__all__ = [
    "BuildRecord",
    "Dataset",
    "DatasetError",
    "DatasetOracle",
    "DatasetSummary",
    "FORMAT_VERSION",
    "load_dataset",
    "save_dataset",
    "split_train_test",
    "summarize",
]

FORMAT_VERSION = 1


class DatasetError(ValueError):
    """A dataset file or record set is malformed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


@dataclass(frozen=True)
class BuildRecord:
    """One evaluated configuration and whether it built successfully."""

    config: Configuration
    outcome: bool


@dataclass(frozen=True)
class DatasetSummary:
    configs: int
    good: int
    deps: int

    def to_dict(self) -> dict:
        return {"configs": self.configs, "good": self.good, "deps": self.deps}


class Dataset:
    """An immutable set of build records over one graph, unique by configuration.

    Records are keyed by their configuration tuples; ``digests`` derives the
    canonical digests that name the same configurations in files and traces.
    """

    def __init__(self, graph: DependencyGraph, records: list[BuildRecord] | tuple):
        self.graph = graph
        self.records: tuple[BuildRecord, ...] = tuple(records)
        seen: set[Configuration] = set()
        for record in self.records:
            check_configuration(graph, record.config)
            if record.config in seen:
                raise DatasetError(_duplicate(graph, record.config))
            seen.add(record.config)

    @property
    def digests(self) -> tuple[str, ...]:
        """Canonical digest of each record's configuration, in record order."""
        return tuple(config_digest(self.graph, r.config) for r in self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self):
        return iter(self.records)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dataset)
            and self.graph == other.graph
            and self.records == other.records
        )

    @property
    def good_count(self) -> int:
        return sum(1 for r in self.records if r.outcome)


def _duplicate(graph: DependencyGraph, config: Configuration) -> str:
    return f"duplicate configuration with digest {config_digest(graph, config)}"


def summarize(dataset: Dataset) -> DatasetSummary:
    """Counts of records, good records, and dependencies (packages minus root)."""
    return DatasetSummary(
        configs=len(dataset),
        good=dataset.good_count,
        deps=dataset.graph.n_packages - 1,
    )


def load_dataset(path: str, graph: DependencyGraph | None = None) -> Dataset:
    """Load a JSONL dataset; the header's graph file resolves relative to it."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if not lines:
        raise DatasetError("empty dataset file", line=1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DatasetError(f"invalid JSON in header: {exc}", line=1) from exc
    if not isinstance(header, dict) or "graph" not in header:
        raise DatasetError("header must be an object naming the graph file", line=1)
    if header.get("format") != FORMAT_VERSION:
        raise DatasetError(
            f"unsupported format {header.get('format')!r}, expected {FORMAT_VERSION}",
            line=1,
        )
    if graph is None:
        graph_path = os.path.join(os.path.dirname(os.path.abspath(path)), header["graph"])
        graph = load_graph(graph_path)
    records = []
    seen: set[Configuration] = set()
    for lineno, raw in enumerate(lines[1:], start=2):
        if not raw.strip():
            continue
        try:
            payload = json.loads(raw)
        except json.JSONDecodeError as exc:
            raise DatasetError(f"invalid JSON: {exc}", line=lineno) from exc
        if not isinstance(payload, dict) or "versions" not in payload or "built" not in payload:
            raise DatasetError("record needs 'versions' and 'built' fields", line=lineno)
        try:
            config = config_from_labels(graph, payload["versions"])
        except GraphError as exc:
            raise DatasetError(str(exc), line=lineno) from exc
        if config in seen:
            raise DatasetError(_duplicate(graph, config), line=lineno)
        seen.add(config)
        built = payload["built"]
        if not isinstance(built, bool):
            raise DatasetError(f"'built' must be true or false, not {built!r}",
                               line=lineno)
        records.append(BuildRecord(config=config, outcome=built))
    return Dataset(graph, records)


def save_dataset(dataset: Dataset, path: str, graph_filename: str) -> None:
    """Write JSONL with a header pointing at graph_filename (relative to path)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": FORMAT_VERSION, "graph": graph_filename},
                            sort_keys=True))
        fh.write("\n")
        for record in dataset.records:
            fh.write(json.dumps(
                {"versions": labels_of(dataset.graph, record.config),
                 "built": record.outcome},
                sort_keys=True,
            ))
            fh.write("\n")


def split_train_test(
    dataset: Dataset, train_fraction: float, rng: np.random.Generator
) -> tuple[Dataset, Dataset]:
    """Disjoint split with |train| = round-half-up(fraction * N).

    The partition is a seeded permutation; record order within each half
    follows the original dataset order.
    """
    if not (0.0 <= train_fraction <= 1.0):
        raise ValueError(f"train_fraction {train_fraction} outside [0, 1]")
    n = len(dataset)
    n_train = int(math.floor(train_fraction * n + 0.5))
    order = rng.permutation(n)
    train_idx = sorted(int(i) for i in order[:n_train])
    test_idx = sorted(int(i) for i in order[n_train:])
    train = Dataset(dataset.graph, [dataset.records[i] for i in train_idx])
    test = Dataset(dataset.graph, [dataset.records[i] for i in test_idx])
    return train, test


class DatasetOracle:
    """Replay oracle: evaluates only configurations present in the dataset."""

    def __init__(self, dataset: Dataset):
        self._dataset = dataset
        self._outcomes = {record.config: record.outcome for record in dataset.records}

    @property
    def graph(self) -> DependencyGraph:
        return self._dataset.graph

    def candidate_configurations(self) -> tuple[Configuration, ...]:
        return tuple(r.config for r in self._dataset.records)

    def evaluate(self, config: Configuration) -> bool:
        try:
            return self._outcomes[tuple(config)]
        except KeyError:
            digest = config_digest(self._dataset.graph, config)
            raise ValueError(
                f"configuration {digest} not present in the replay dataset"
            ) from None
