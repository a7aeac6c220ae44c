"""Labeled build outcome datasets.

A dataset pairs a dependency graph with (configuration, outcome) records,
each configuration at most once.  In memory it is one matrix of version
indices, a row per configuration, and one outcome vector, checked once when
constructed or loaded.  A split takes rows of it, and a replay run lists
them as its candidates, without a second check.  Digests identify
configurations only in files, traces and messages.  On disk a dataset is
JSONL: a header naming the graph file, then one record per line keyed by
version labels.  save_dataset writes each line as joined entries of a few
string tables built once.  load_dataset reads lines in that form back
through the writer's own fragments, one dict lookup a part; it parses any
other line as JSON and checks it on its own, mapping labels through the
graph's per-package indexes.
"""
from __future__ import annotations

import itertools
import json
import os
import struct
from array import array
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable

import numpy as np

from .configspace import (
    Configuration,
    DependencyGraph,
    GraphError,
    _row_keys,
    check_configuration,
    check_rows,
    config_digest,
    config_from_labels,
    first_occurrences,
    load_graph,
)

__all__ = [
    "BuildRecord",
    "Dataset",
    "DatasetError",
    "DatasetOracle",
    "FORMAT_VERSION",
    "load_dataset",
    "save_dataset",
    "split_train_test",
]

FORMAT_VERSION = 1

# save_dataset tabulates a group of consecutive line pieces while the table,
# the product of their sizes, has at most this many strings, and never more
# strings than the dataset has rows.
_TABLE_LIMIT = 4096


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


class Dataset:
    """An immutable set of build records over one graph, unique by configuration.

    It is one read-only int64 matrix ``rows``, a configuration per row, and
    one read-only bool vector ``built``, checked once by the constructor.
    ``records`` is derived from them.
    """

    def __init__(self, graph: DependencyGraph, records: Iterable[BuildRecord]):
        records = tuple(records)
        rows = check_rows(graph, [r.config for r in records])
        outcomes = [r.outcome for r in records]
        for outcome in outcomes:
            if not isinstance(outcome, (bool, np.bool_)):
                raise DatasetError(f"outcome must be true or false, not {outcome!r}")
        first = first_occurrences(rows)
        if not first.all():
            raise DatasetError(_duplicate(graph, tuple(rows[np.argmin(first)].tolist())))
        built = np.array(outcomes, dtype=bool)
        rows.flags.writeable = built.flags.writeable = False
        self.graph, self.rows, self.built = graph, rows, built

    @classmethod
    def _checked(cls, graph: DependencyGraph, rows: np.ndarray, built: np.ndarray) -> "Dataset":
        """A dataset over rows and outcomes already known valid and distinct."""
        dataset = cls.__new__(cls)
        rows.flags.writeable = built.flags.writeable = False
        dataset.graph, dataset.rows, dataset.built = graph, rows, built
        return dataset

    @cached_property
    def records(self) -> tuple[BuildRecord, ...]:
        """The records in row order, with int tuples and bool outcomes."""
        return tuple(BuildRecord(tuple(config), outcome)
                     for config, outcome in zip(self.rows.tolist(), self.built.tolist()))

    def __len__(self) -> int:
        return self.rows.shape[0]

    def __iter__(self):
        return iter(self.records)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Dataset)
            and self.graph == other.graph
            and np.array_equal(self.rows, other.rows)
            and np.array_equal(self.built, other.built)
        )

    @property
    def good_count(self) -> int:
        return int(np.count_nonzero(self.built))


def _duplicate(graph: DependencyGraph, config: Configuration) -> str:
    return f"duplicate configuration with digest {config_digest(graph, config)}"


def _line_parts(graph: DependencyGraph) -> tuple[list[int], list[list[str]]]:
    """The package order and the parts of a record line as save_dataset
    writes it, the bytes of json.dumps(record, sort_keys=True).

    A line is one part of each position joined by ", ": '{"built": false'
    or '{"built": true' (indexed by the outcome), then one '"name": "label"'
    fragment per package in sorted-name order (indexed by the version), the
    first behind '"versions": {' and the last followed by '}}'.
    """
    order = sorted(range(graph.n_packages), key=graph.packages.__getitem__)
    parts = [[f'{{"built": {json.dumps(built)}' for built in (False, True)]]
    parts += [[f"{json.dumps(graph.packages[i])}: {json.dumps(label)}"
               for label in graph.domains[i]] for i in order]
    parts[1] = ['"versions": {' + text for text in parts[1]]
    parts[-1] = [text + "}}" for text in parts[-1]]
    return order, parts


def _read_written(graph: DependencyGraph, lines: list[str]) -> Dataset | None:
    """The dataset of record lines all in the form save_dataset writes,
    without a repeated configuration; None otherwise.

    Each line splits at ", " into one part per position, each looked up in
    that position's {part: index} dict.  A line that holds no other text
    decodes, as JSON, to the record whose parts it joins.
    """
    order, parts = _line_parts(graph)
    lookups = [{text: code for code, text in enumerate(texts)} for texts in parts]
    width = len(lookups)
    # A byte a code when every index fits one, an eighth of an int64 buffer.
    codes = array("B" if max(graph.domain_sizes) <= 256 else "q")
    try:
        for line in lines:
            fields = line.split(", ")
            if len(fields) != width:
                return None
            codes.extend(map(dict.__getitem__, lookups, fields))
    except KeyError:
        return None
    table = np.frombuffer(codes, dtype=codes.typecode).reshape(-1, width)
    rows = np.empty((len(table), graph.n_packages), dtype=np.int64)
    rows[:, order] = table[:, 1:]
    if not first_occurrences(rows).all():
        return None
    return Dataset._checked(graph, rows, table[:, 0].astype(bool))


def load_dataset(path: str, graph: DependencyGraph | None = None) -> Dataset:
    """Load a JSONL dataset; the header's graph file resolves relative to it.

    Lines split on "\n" only (reading turns "\r\n" into "\n"), since JSON
    strings may hold other line separators such as U+2028.  When every
    record line is in the form save_dataset writes, without a repeated
    configuration, the lines are read through the writer's fragments
    (_read_written).  Otherwise each record is parsed and checked on its
    own line, so an error names that line, and its labels map to version
    indices through the graph's per-package indexes (config_from_labels).
    """
    with open(path, "r", encoding="utf-8") as fh:
        try:
            lines = fh.read().split("\n")
        except UnicodeDecodeError as exc:
            raise DatasetError(f"{path}: not UTF-8: {exc}") from exc
    if lines == [""]:
        raise DatasetError("empty dataset file", line=1)
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise DatasetError(f"invalid JSON in header: {exc}", line=1) from exc
    if not isinstance(header, dict) or not isinstance(header.get("graph"), str):
        raise DatasetError("header must be an object naming the graph file", line=1)
    version = header.get("format")
    if type(version) is not int or version != FORMAT_VERSION:  # JSON true and 1.0 equal 1
        raise DatasetError(f"unsupported format {version!r}, expected {FORMAT_VERSION}", line=1)
    if graph is None:
        graph_path = os.path.join(os.path.dirname(os.path.abspath(path)), header["graph"])
        graph = load_graph(graph_path)
    # The final newline leaves an empty last line, which holds no record.
    written = _read_written(graph, lines[1:-1] if lines[-1] == "" else lines[1:])
    if written is not None:
        return written
    records: dict[Configuration, bool] = {}  # in line order
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
        if config in records:
            raise DatasetError(_duplicate(graph, config), line=lineno)
        built = payload["built"]
        if not isinstance(built, bool):
            raise DatasetError(f"'built' must be true or false, not {built!r}",
                               line=lineno)
        records[config] = built
    # Each line was checked above: labels name valid versions, no repeats.
    rows = np.array(list(records), dtype=np.int64).reshape(-1, graph.n_packages)
    return Dataset._checked(graph, rows, np.fromiter(records.values(), bool, len(records)))


def save_dataset(dataset: Dataset, path: str, graph_filename: str) -> None:
    """Write JSONL with a header pointing at graph_filename (relative to path).

    Each record line is the bytes of json.dumps(..., sort_keys=True): its
    parts (_line_parts, the outcome's, then each package's in sorted-name
    order) joined by ", ", then the newline.  A piece is a part with the
    separator before it, or the newline after the last.  Consecutive
    pieces form groups whose joined strings are tabulated once, so a line
    joins one table entry per group, looked up by a mixed-radix code that
    numpy computes for every row at once.
    """
    graph = dataset.graph
    order, parts = _line_parts(graph)
    pieces = [parts[0]] + [[", " + text for text in texts] for texts in parts[1:]]
    pieces[-1] = [fragment + "\n" for fragment in pieces[-1]]
    indices = np.column_stack([dataset.built.astype(np.int64), dataset.rows[:, order]])
    limit = min(_TABLE_LIMIT, len(dataset))
    groups, size = [[0]], len(pieces[0])
    for k in range(1, len(pieces)):
        if size * len(pieces[k]) <= limit:
            groups[-1].append(k)
            size *= len(pieces[k])
        else:
            groups.append([k])
            size = len(pieces[k])
    columns = []
    for group in groups:
        table = list(map("".join, itertools.product(*(pieces[k] for k in group))))
        codes = np.zeros(len(dataset), dtype=np.int64)
        for k in group:  # itertools.product varies the last piece fastest
            codes = codes * len(pieces[k]) + indices[:, k]
        columns.append(list(map(table.__getitem__, codes.tolist())))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps({"format": FORMAT_VERSION, "graph": graph_filename},
                            sort_keys=True))
        fh.write("\n")
        fh.writelines(map("".join, zip(*columns)))


def split_train_test(dataset: Dataset, rng: np.random.Generator) -> tuple[Dataset, Dataset]:
    """Disjoint split into halves, |train| = (N + 1) // 2.

    The partition is a seeded permutation; record order within each half
    follows the original dataset order.
    """
    n = len(dataset)
    order = rng.permutation(n)
    train, test = np.sort(order[:(n + 1) // 2]), np.sort(order[(n + 1) // 2:])
    graph, rows, built = dataset.graph, dataset.rows, dataset.built
    return (Dataset._checked(graph, rows[train], built[train]),
            Dataset._checked(graph, rows[test], built[test]))


class DatasetOracle:
    """Replay oracle: evaluates only configurations present in the dataset,
    looked up by their row keys (configspace._row_keys) in one dict.  A
    checked configuration's key is packed by struct, the same native int64
    bytes without building an array."""

    def __init__(self, dataset: Dataset):
        self._dataset = dataset
        self._built = dict(zip(_row_keys(dataset.rows), dataset.built.tolist()))
        self._key = struct.Struct(f"{dataset.graph.n_packages}q").pack

    def candidate_configurations(self) -> Dataset:
        """The dataset itself: its rows are the candidates, already checked."""
        return self._dataset

    def evaluate(self, config: Configuration) -> bool:
        check_configuration(self._dataset.graph, config)
        try:
            return self._built[self._key(*config)]
        except KeyError:
            digest = config_digest(self._dataset.graph, config)
            raise ValueError(f"configuration {digest} not present in the replay dataset") from None
