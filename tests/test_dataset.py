"""Dataset parsing, persistence, and splitting."""
from __future__ import annotations

import itertools
import json
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from buildtuner import (
    BuildRecord,
    Dataset,
    DependencyGraph,
    DatasetError,
    DatasetOracle,
    GraphError,
    config_digest,
    load_dataset,
    save_dataset,
    space_size,
    split_train_test,
)
from buildtuner import dataset as dataset_module
from buildtuner.configspace import first_occurrences, full_space_matrix, save_graph, validate_graph
from helpers import (
    all_configurations,
    chain_graph,
    distinct_records,
    reference_load_dataset,
    wide_graph,
)


def _write(tmp_path, lines):
    path = tmp_path / "data.jsonl"
    path.write_text("".join(line + "\n" for line in lines))
    return str(path)


def _header(graph_file="graph.json"):
    return json.dumps({"format": 1, "graph": graph_file})


def _prepared(tmp_path, record_lines):
    save_graph(chain_graph(2, 2), str(tmp_path / "graph.json"))
    return _write(tmp_path, [_header()] + record_lines)


def test_round_trip(tmp_path):
    graph = chain_graph(3, 4)
    rng = np.random.default_rng(5)
    records = distinct_records(graph, 30, rng, lambda c: c[0] == 0)
    dataset = Dataset(graph, records)
    save_graph(graph, str(tmp_path / "graph.json"))
    save_dataset(dataset, str(tmp_path / "data.jsonl"), "graph.json")
    assert load_dataset(str(tmp_path / "data.jsonl")) == dataset


def test_explicit_graph_override(tmp_path):
    graph = chain_graph(2, 2)
    dataset = Dataset(graph, [BuildRecord((0, 0), True)])
    save_dataset(dataset, str(tmp_path / "data.jsonl"), "missing.json")
    # No graph file on disk, but an in-memory graph skips resolution.
    assert load_dataset(str(tmp_path / "data.jsonl"), graph=graph) == dataset


def test_empty_file_rejected(tmp_path):
    path = tmp_path / "data.jsonl"
    path.write_text("")
    with pytest.raises(DatasetError, match="line 1: empty dataset"):
        load_dataset(str(path))


def test_labels_holding_line_separators_load(tmp_path):
    # JSON strings may hold U+2028, U+2029 and U+0085 unescaped, as
    # json.dumps(..., ensure_ascii=False) writes them; only "\n" ends a line.
    graph = _star_graph(["root", "dep\u2029"], [["a\u2028b", "\u0085"], ["\u2028", "c"]])
    save_graph(graph, str(tmp_path / "graph.json"))
    dataset = _labeled_space(graph, iter([True, False, False, True]))
    lines = [_header()] + [
        json.dumps({"built": r.outcome, "versions": {
            name: domain[v] for name, domain, v in zip(graph.packages, graph.domains, r.config)}},
            ensure_ascii=False) for r in dataset]
    path = _write(tmp_path, lines)
    assert "\u2028" in (tmp_path / "data.jsonl").read_text(encoding="utf-8")
    assert load_dataset(path) == dataset


def test_header_errors(tmp_path):
    with pytest.raises(DatasetError, match="line 1: invalid JSON"):
        load_dataset(_write(tmp_path, ["{oops"]))
    with pytest.raises(DatasetError, match="line 1: header"):
        load_dataset(_write(tmp_path, [json.dumps({"format": 1})]))
    with pytest.raises(DatasetError, match="unsupported format"):
        load_dataset(_write(tmp_path, [json.dumps({"format": 99, "graph": "g.json"})]))


@pytest.mark.parametrize("version", [True, 1.0])
def test_format_must_be_the_integer_version(tmp_path, version):
    """JSON true and 1.0 compare equal to 1, yet neither is format 1."""
    with pytest.raises(DatasetError, match=rf"line 1: unsupported format {version!r}, expected 1"):
        load_dataset(_write(tmp_path, [json.dumps({"format": version, "graph": "g.json"})]))


def test_record_parse_errors_carry_line_numbers(tmp_path):
    path = _prepared(tmp_path, [
        json.dumps({"versions": {"A": "v1", "B": "v1"}, "built": True}),
        "{broken",
    ])
    with pytest.raises(DatasetError, match="line 3: invalid JSON"):
        load_dataset(path)

    path = _prepared(tmp_path, [json.dumps({"versions": {"A": "v1"}})])
    with pytest.raises(DatasetError, match="line 2: record needs"):
        load_dataset(path)


def test_unknown_package_and_version(tmp_path):
    path = _prepared(tmp_path, [
        json.dumps({"versions": {"A": "v1", "Z": "v1"}, "built": True}),
    ])
    with pytest.raises(DatasetError, match="line 2: unknown package 'Z'"):
        load_dataset(path)

    path = _prepared(tmp_path, [
        json.dumps({"versions": {"A": "v1", "B": "v7"}, "built": True}),
    ])
    with pytest.raises(DatasetError, match="line 2: unknown version 'v7'"):
        load_dataset(path)


@pytest.mark.parametrize("built", ["false", "true", 0, 1, None])
def test_built_must_be_a_json_boolean(tmp_path, built):
    path = _prepared(tmp_path, [
        json.dumps({"versions": {"A": "v1", "B": "v1"}, "built": True}),
        json.dumps({"versions": {"A": "v2", "B": "v1"}, "built": built}),
    ])
    with pytest.raises(DatasetError, match="line 3: 'built' must be true or false"):
        load_dataset(path)


def test_duplicate_configuration_rejected(tmp_path):
    record = json.dumps({"versions": {"A": "v1", "B": "v1"}, "built": True})
    path = _prepared(tmp_path, [record, record])
    with pytest.raises(DatasetError, match="line 3: duplicate configuration"):
        load_dataset(path)


def test_dataset_constructor_rejects_duplicates():
    graph = chain_graph(2, 2)
    with pytest.raises(DatasetError, match="duplicate configuration"):
        Dataset(graph, [BuildRecord((0, 0), True), BuildRecord((0, 0), False)])


@pytest.mark.parametrize("entry", [1.5, np.float64(1.0), "a", None])
def test_dataset_rejects_non_integer_version_index(entry):
    with pytest.raises(GraphError, match="not an integer"):
        Dataset(chain_graph(2, 2), [BuildRecord((0, 0), True), BuildRecord((0, entry), True)])


@pytest.mark.parametrize("outcome", [1, 0, 1.0, "true", None])
def test_dataset_outcome_must_be_a_bool(outcome):
    with pytest.raises(DatasetError, match="outcome must be true or false"):
        Dataset(chain_graph(2, 2), [BuildRecord((0, 0), True), BuildRecord((0, 1), outcome)])


def test_numpy_values_round_trip_as_json_booleans(tmp_path):
    graph = chain_graph(2, 2)
    dataset = Dataset(graph, [BuildRecord((np.int64(0), 0), np.True_),
                              BuildRecord((1, np.int32(1)), np.False_)])
    assert dataset.records == (BuildRecord((0, 0), True), BuildRecord((1, 1), False))
    for record in dataset.records:
        assert type(record.outcome) is bool and {type(v) for v in record.config} == {int}
    save_graph(graph, str(tmp_path / "graph.json"))
    save_dataset(dataset, str(tmp_path / "data.jsonl"), "graph.json")
    lines = (tmp_path / "data.jsonl").read_text().splitlines()
    assert [json.loads(line)["built"] for line in lines[1:]] == [True, False]
    assert load_dataset(str(tmp_path / "data.jsonl")) == dataset


def test_rows_and_outcomes_are_read_only():
    dataset = Dataset(chain_graph(2, 2), [BuildRecord((0, 1), True), BuildRecord((1, 0), False)])
    assert dataset.rows.dtype == np.int64 and dataset.built.dtype == bool
    assert dataset.rows.tolist() == [[0, 1], [1, 0]] and dataset.built.tolist() == [True, False]
    with pytest.raises(ValueError):
        dataset.rows[0, 0] = 1
    with pytest.raises(ValueError):
        dataset.built[0] = False


def _reference_dataset_bytes(dataset: Dataset, graph_filename: str) -> bytes:
    """One json.dumps(..., sort_keys=True) per record, as save_dataset once wrote."""
    graph = dataset.graph
    lines = [json.dumps({"format": 1, "graph": graph_filename}, sort_keys=True)]
    for record in dataset:
        versions = {name: domain[v]
                    for name, domain, v in zip(graph.packages, graph.domains, record.config)}
        lines.append(json.dumps({"versions": versions, "built": record.outcome}, sort_keys=True))
    return "".join(line + "\n" for line in lines).encode("utf-8")


def _star_graph(names, domains) -> DependencyGraph:
    graph = DependencyGraph(packages=tuple(names), domains=tuple(map(tuple, domains)),
                            edges=tuple((0, i) for i in range(1, len(names))), root=0)
    validate_graph(graph)
    return graph


def _labeled_space(graph, outcomes) -> Dataset:
    configs = list(all_configurations(graph))
    return Dataset(graph, [BuildRecord(c, next(outcomes)) for c in configs])


def test_saved_lines_equal_json_dumps_of_each_record(tmp_path):
    # Declared out of sorted order; names and labels that JSON must escape.
    graph = _star_graph(
        ["zeta", 'q"uote', "back\\slash", "na\u00efve", "\u00c9mile", "a b", "\U0001f4e6"],
        [["1.0", 'v"2'], ["\\3"], ["x", "\u00fc"], ["\t", "\n", ""], ["\u4e2d"],
         ["\"\\"], ["\U0001f600", "\x7f"]])
    dataset = _labeled_space(graph, iter([True, False, False] * 32))
    path = tmp_path / "data.jsonl"
    save_dataset(dataset, str(path), "g\u00e9 \"raph\".json")
    assert path.read_bytes() == _reference_dataset_bytes(dataset, "g\u00e9 \"raph\".json")
    assert load_dataset(str(path), graph=graph) == dataset


_LABELS = st.lists(st.text(max_size=4), min_size=1, max_size=3, unique=True)


@given(st.lists(st.text(max_size=5), min_size=1, max_size=4, unique=True).flatmap(
    lambda names: st.tuples(st.just(names), st.lists(_LABELS, min_size=len(names),
                                                     max_size=len(names)))),
       st.lists(st.booleans(), min_size=1))
@settings(max_examples=200, deadline=None)
def test_saved_bytes_equal_reference_on_any_labels(tmp_path_factory, space, outcomes):
    graph = _star_graph(*space)
    dataset = _labeled_space(graph, iter(outcomes * space_size(graph)))
    path = tmp_path_factory.mktemp("save") / "data.jsonl"
    save_dataset(dataset, str(path), "graph.json")
    assert path.read_bytes() == _reference_dataset_bytes(dataset, "graph.json")
    assert load_dataset(str(path), graph=graph) == dataset


_EXOTIC_NAMES = ["zeta", 'q"uote', "back\\slash", "na\u00efve", "\u00c9mile", "a b", "\U0001f4e6"]
_EXOTIC_LABELS = ["1.0", 'v"2', "\\3", "x", "\u00fc", "\t", "\n", "", "\u4e2d", "\"\\",
                  "\U0001f600", "\x7f", "\u2028"]


def _saved_equals_reference(tmp_path, graph, rows, outcomes):
    dataset = Dataset(graph, [BuildRecord(tuple(row), bool(built))
                              for row, built in zip(rows.tolist(), outcomes.tolist())])
    path = tmp_path / "data.jsonl"
    save_dataset(dataset, str(path), "graph.json")
    assert path.read_bytes() == _reference_dataset_bytes(dataset, "graph.json")


@given(st.data())
@settings(max_examples=150, deadline=None)
def test_saved_bytes_equal_reference_on_shuffled_rows(tmp_path_factory, data):
    """0, 1 or many rows of a space, shuffled, with domain sizes that split
    the line pieces into groups at several places."""
    names = data.draw(st.lists(st.sampled_from(_EXOTIC_NAMES) | st.text(max_size=4),
                               min_size=1, max_size=5, unique=True))
    domains = [data.draw(st.lists(st.sampled_from(_EXOTIC_LABELS) | st.text(max_size=3),
                                  min_size=1, max_size=7, unique=True)) for _ in names]
    graph = _star_graph(names, domains)
    size = space_size(graph)
    n = data.draw(st.sampled_from([0, 1, min(2, size), size]) | st.integers(0, min(size, 400)))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    rows = full_space_matrix(graph)[rng.permutation(size)[:n]]
    _saved_equals_reference(tmp_path_factory.mktemp("save"), graph, rows, rng.random(n) < 0.3)


@pytest.mark.parametrize("sizes", [(3,) * 8, (5000, 2), (2, 4097)],
                         ids=["6561 rows", "a piece over the table limit", "4097 versions"])
def test_saved_bytes_equal_reference_beyond_the_table_limit(tmp_path, sizes):
    graph = _star_graph([f"p{i}" for i in range(len(sizes))],
                        [[f"v{j}" for j in range(m)] for m in sizes])
    rng = np.random.default_rng(len(sizes))
    rows = full_space_matrix(graph)[rng.permutation(space_size(graph))]
    _saved_equals_reference(tmp_path, graph, rows, rng.random(rows.shape[0]) < 0.5)


class TestSplit:
    def _dataset(self, n=40):
        graph = chain_graph(4, 3)
        rng = np.random.default_rng(2)
        return Dataset(graph, distinct_records(graph, n, rng, lambda c: c[0] == 0))

    def test_sizes_round_half_up(self):
        dataset = self._dataset(5)
        train, test = split_train_test(dataset, np.random.default_rng(0))
        assert (len(train), len(test)) == (3, 2)
        one = Dataset(dataset.graph, dataset.records[:1])
        train, test = split_train_test(one, np.random.default_rng(0))
        assert (len(train), len(test)) == (1, 0)

    def test_partition_is_disjoint_and_complete(self):
        dataset = self._dataset()
        train, test = split_train_test(dataset, np.random.default_rng(3))
        assert len(train) + len(test) == len(dataset)
        def digests(part):
            return {config_digest(part.graph, r.config) for r in part}
        assert digests(train).isdisjoint(digests(test))
        assert digests(train) | digests(test) == digests(dataset)

    def test_same_seed_same_split(self):
        dataset = self._dataset()
        a = split_train_test(dataset, np.random.default_rng(9))
        b = split_train_test(dataset, np.random.default_rng(9))
        assert a[0] == b[0] and a[1] == b[1]

    def test_different_seeds_differ(self):
        dataset = self._dataset()
        a = split_train_test(dataset, np.random.default_rng(1))
        b = split_train_test(dataset, np.random.default_rng(2))
        assert a[0] != b[0]

    def test_halves_are_row_takes_equal_to_datasets_built_from_scratch(self, monkeypatch):
        dataset = self._dataset()
        order = np.random.default_rng(4).permutation(len(dataset))
        fresh = [Dataset(dataset.graph, [dataset.records[i] for i in sorted(part)])
                 for part in (order[:20], order[20:])]

        def checked_again(*args):
            raise AssertionError("a split half was checked again")

        monkeypatch.setattr(Dataset, "__init__", checked_again)
        halves = split_train_test(dataset, np.random.default_rng(4))
        assert list(halves) == fresh
        assert [half.records for half in halves] == [half.records for half in fresh]


def test_dataset_oracle_replays_outcomes():
    graph = chain_graph(2, 2)
    dataset = Dataset(graph, [BuildRecord((0, 0), True), BuildRecord((1, 1), False)])
    oracle = DatasetOracle(dataset)
    assert oracle.evaluate((0, 0)) is True
    assert oracle.evaluate((1, 1)) is False
    assert tuple(r.config for r in oracle.candidate_configurations()) == ((0, 0), (1, 1))
    with pytest.raises(ValueError, match="not present in the replay dataset"):
        oracle.evaluate((0, 1))


@pytest.mark.parametrize("graph", [chain_graph(4, 3), wide_graph(60, 3)],
                         ids=["small-space", "space-beyond-int64"])
def test_dataset_oracle_finds_each_row_and_only_those(graph):
    rng = np.random.default_rng(8)
    records = distinct_records(graph, 40, rng, lambda config: sum(config) % 3 == 0)
    present, absent = records[:30], records[30:]
    oracle = DatasetOracle(Dataset(graph, present[::-1]))
    for record in present:
        assert oracle.evaluate(record.config) is record.outcome
        assert oracle.evaluate(tuple(map(np.int64, record.config))) is record.outcome
    for record in absent:
        digest = config_digest(graph, record.config)
        with pytest.raises(ValueError, match=f"configuration {digest} not present"):
            oracle.evaluate(record.config)


@pytest.mark.parametrize("config", [(0, 2), (2, 0), (-1, 1), (0, 1.5), (0,), (0, 0, 0)])
def test_dataset_oracle_rejects_malformed_configuration(config):
    graph = chain_graph(2, 2)
    oracle = DatasetOracle(Dataset(graph, [BuildRecord((1, 0), True), BuildRecord((0, 1), False)]))
    with pytest.raises(GraphError):
        oracle.evaluate(config)


_FIELD_VALUES = [None, 7, 1.5, "v9", [], {}, True]


def _mutated(data, lines):
    """One of: drop or retype a field, swap a version label, duplicate a
    line, or cut a line short."""
    index = data.draw(st.integers(0, len(lines) - 1))
    kind = data.draw(st.sampled_from(["drop", "retype", "label", "duplicate", "truncate"]))
    if kind == "duplicate":
        return lines[:index + 1] + lines[index:]
    if kind == "truncate":
        return lines[:index] + [lines[index][:data.draw(st.integers(0, len(lines[index]) - 1))]]
    payload = json.loads(lines[index])
    target = payload
    if kind == "label" or (index > 0 and data.draw(st.booleans())):
        if index == 0:
            return lines
        target = payload["versions"]
    field = data.draw(st.sampled_from(sorted(target)))
    if kind == "drop":
        del target[field]
    elif kind == "retype":
        target[field] = data.draw(st.sampled_from(
            [v for v in _FIELD_VALUES if type(v) is not type(target[field])]))
    else:
        target[field] = data.draw(st.sampled_from(["v1", "v2", "v3", "v4", ""]))
    return lines[:index] + [json.dumps(payload, sort_keys=True)] + lines[index + 1:]


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_fuzzed_dataset_loads_valid_or_raises_typed_error(tmp_path_factory, data):
    graph = chain_graph(3, 3)
    folder = tmp_path_factory.mktemp("fuzz")
    save_graph(graph, str(folder / "graph.json"))
    records = distinct_records(graph, 8, np.random.default_rng(1), lambda c: c[0] == 0)
    path = str(folder / "data.jsonl")
    save_dataset(Dataset(graph, records), path, "graph.json")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in _mutated(data, lines)))
    try:
        loaded = load_dataset(path)
    except (DatasetError, GraphError):
        return
    rows, built = loaded.rows, loaded.built
    assert rows.dtype == np.int64 and rows.shape == (len(loaded), graph.n_packages)
    assert ((rows >= 0) & (rows < np.asarray(graph.domain_sizes))).all()
    assert first_occurrences(rows).all()
    assert built.dtype == bool and built.shape == (len(loaded),)


def _load_outcome(loader, path):
    try:
        return loader(path)
    except (DatasetError, GraphError) as exc:
        return type(exc), str(exc), getattr(exc, "line", None)


@given(st.data())
@settings(max_examples=300, deadline=None)
def test_fuzzed_dataset_loads_as_the_reference_loader(tmp_path_factory, data):
    """The same Dataset, or the same error for the same line, as a per-line
    loop that looks each label up by tuple.index."""
    # Declared out of sorted order, so an error naming the first bad package
    # tells declaration order from key order.
    graph = _star_graph(["zlib", "cmake", "openssl", "bzip2"], [["v1", "v2", "v3"]] * 4)
    folder = tmp_path_factory.mktemp("fuzz")
    save_graph(graph, str(folder / "graph.json"))
    records = distinct_records(graph, 8, np.random.default_rng(2), lambda c: c[1] == 0)
    path = str(folder / "data.jsonl")
    save_dataset(Dataset(graph, records), path, "graph.json")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().split("\n")[:-1]
    lines = _mutated(data, lines)
    index = data.draw(st.integers(1, len(lines)))
    extra = data.draw(st.sampled_from(["none", "blank", "relabel"]))
    if extra == "blank":
        lines.insert(index, data.draw(st.sampled_from(["", " ", "\t"])))
    elif extra == "relabel" and index < len(lines):
        # Several labels at once: known, unknown, unhashable and non-string.
        try:
            payload = json.loads(lines[index])
            versions = dict(payload["versions"])
        except (ValueError, KeyError, TypeError):
            versions = None
        if isinstance(versions, dict):
            for name in versions:
                versions[name] = data.draw(st.sampled_from(["v1", "v3", "v9", [], {}, None, 2]))
            payload["versions"] = versions
            lines[index] = json.dumps(payload, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("".join(line + "\n" for line in lines))
    assert _load_outcome(load_dataset, path) == _load_outcome(reference_load_dataset, path)


def _dumped_lines(dataset, versions_first=False, **options) -> list[str]:
    """The header and one json.dumps(record, **options) line per record,
    labels in declaration order."""
    graph = dataset.graph
    lines = [json.dumps({"format": 1, "graph": "graph.json"}, sort_keys=True)]
    for config, built in zip(dataset.rows.tolist(), dataset.built.tolist()):
        versions = {graph.packages[i]: graph.domains[i][v] for i, v in enumerate(config)}
        record = {"versions": versions, "built": built} if versions_first else \
            {"built": built, "versions": versions}
        lines.append(json.dumps(record, **options))
    return lines


def _saved_lines(dataset) -> list[str]:
    """The lines save_dataset writes, the final newline's empty line left out."""
    return _dumped_lines(dataset, sort_keys=True)


# Declared out of sorted order, so key order differs from declaration order.
_PLAIN = _star_graph(["zlib", "cmake", "openssl"], [["v1", "v2"], ["3.1", "3.2", "4.0"], ["1"]])

_VARIANTS = {
    "compact": (_PLAIN, lambda d: _dumped_lines(d, sort_keys=True, separators=(",", ":"))),
    "keys-out-of-order": (_PLAIN, lambda d: _dumped_lines(d, versions_first=True)),
    "raw-non-ascii": (_star_graph(["zlib", "\u00e9tude"], [["1.0-\u00df", "2"], ["\u4e2d"]]),
                      lambda d: _dumped_lines(d, sort_keys=True, ensure_ascii=False)),
    "label-with-comma": (_star_graph(["zlib", "cmake"], [["1, lts", "2"], ["a", "b, c"]]),
                         _saved_lines),
    "name-with-comma": (_star_graph(["zlib", "gcc, g++"], [["1", "2"], ["a", "b"]]),
                        _saved_lines),
    "braces": (_star_graph(["zlib", "x}}"], [["1}}", "2"], ["}}", "b"]]), _saved_lines),
    "one-package": (_star_graph(["solo"], [["v1", "v2", "v3"]]), _saved_lines),
    "300-versions": (_star_graph(["zlib", "cmake"], [["1", "2"], [f"v{i}" for i in range(300)]]),
                     _saved_lines),
    "no-final-newline": (_PLAIN, _saved_lines),
    "crlf": (_PLAIN, lambda d: [line + "\r" for line in _saved_lines(d)]),
    "header-only": (_PLAIN, lambda d: _saved_lines(d)[:1]),
    "repeated-row": (_PLAIN, lambda d: _saved_lines(d)[:5] + _saved_lines(d)[3:]),
}


@pytest.mark.parametrize("variant", list(_VARIANTS))
def test_any_line_form_loads_as_the_reference_loader(tmp_path, variant):
    """Lines in another form than save_dataset's, and written lines with a
    repeated row, load as the per-line JSON loop loads them: the same
    Dataset, or the same error for the same line."""
    graph, lines = _VARIANTS[variant]
    save_graph(graph, str(tmp_path / "graph.json"))
    dataset = _labeled_space(graph, itertools.cycle([True, False, False]))
    text = "".join(line + "\n" for line in lines(dataset))
    if variant == "no-final-newline":
        text = text[:-1]
    path = tmp_path / "data.jsonl"
    path.write_bytes(text.encode("utf-8"))
    outcome = _load_outcome(load_dataset, str(path))
    assert outcome == _load_outcome(reference_load_dataset, str(path))
    if variant == "repeated-row":
        assert outcome[0] is DatasetError and outcome[2] == 6
    elif variant != "header-only":
        assert outcome == dataset


def test_lines_written_as_sorted_json_dumps_skip_the_json_parser(tmp_path, monkeypatch):
    """Records written by json.dumps(record, sort_keys=True), as the replay
    benchmark writes them, load with one json.loads call: the header's."""
    graph = _star_graph(["zlib", "cmake", "openssl", "bzip2"], [["v1", "v2", "v3"]] * 4)
    save_graph(graph, str(tmp_path / "graph.json"))
    dataset = _labeled_space(graph, itertools.cycle([True, False]))
    path = tmp_path / "data.jsonl"
    path.write_text("".join(line + "\n" for line in _saved_lines(dataset)), encoding="utf-8")
    calls = []

    def loads(text):
        calls.append(text)
        return json.loads(text)

    monkeypatch.setattr(dataset_module, "json", types.SimpleNamespace(
        loads=loads, dumps=json.dumps, JSONDecodeError=json.JSONDecodeError))
    assert load_dataset(str(path)) == dataset
    assert calls == [_saved_lines(dataset)[0]]
