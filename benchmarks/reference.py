"""Independent references for the benchmark's correctness checks.

Nothing here imports buildtuner.  Each function recomputes, from the graph
and rules JSON alone, what the program should have produced, so that every
check compares two independent derivations.
"""
from __future__ import annotations

import hashlib
from typing import Sequence

import numpy as np


def _length_prefixed_sha256(texts: Sequence[str]) -> str:
    h = hashlib.sha256()
    for text in texts:
        raw = text.encode("utf-8")
        h.update(len(raw).to_bytes(4, "big"))
        h.update(raw)
    return h.hexdigest()


class PlantedTruth:
    """Ground truth of a planted-rule space, read from its graph and rules JSON.

    Configurations are version-index tuples in the graph file's package
    order.  A configuration builds exactly when it activates no forbidden
    (parent version, child version) pair.  Rules with noise are refused:
    the benchmark only generates noise-free spaces.
    """

    def __init__(self, graph_json: dict, rules_json: dict):
        if float(rules_json.get("noise", 0.0)) != 0.0:
            raise ValueError("the reference covers noise-free rules only")
        self.names = [str(p["name"]) for p in graph_json["packages"]]
        self.versions = [[str(v) for v in p["versions"]] for p in graph_json["packages"]]
        index = {name: i for i, name in enumerate(self.names)}
        self.root = index[graph_json["root"]]
        self.edges = [(index[p], index[c]) for p, c in graph_json["edges"]]
        self.children: list[list[int]] = [[] for _ in self.names]
        for p, c in self.edges:
            self.children[p].append(c)
        self.rules = []
        for rule in rules_json["forbidden"]:
            p = index[rule["parent"]]
            c = index[rule["child"]]
            self.rules.append((p, self.versions[p].index(rule["parent_version"]),
                               c, self.versions[c].index(rule["child_version"])))

    @property
    def sizes(self) -> list[int]:
        return [len(v) for v in self.versions]

    def builds(self, config: Sequence[int]) -> bool:
        return not any(config[p] == pv and config[c] == cv for p, pv, c, cv in self.rules)

    def builds_many(self, matrix: np.ndarray) -> np.ndarray:
        bad = np.zeros(matrix.shape[0], dtype=bool)
        for p, pv, c, cv in self.rules:
            bad |= (matrix[:, p] == pv) & (matrix[:, c] == cv)
        return ~bad

    def space(self) -> np.ndarray:
        """Every configuration, last package varying fastest."""
        grid = np.indices(self.sizes, dtype=np.int64)
        return grid.reshape(len(self.sizes), -1).T

    def space_index(self, matrix: np.ndarray) -> np.ndarray:
        """Row number of each configuration in space()."""
        index = np.zeros(matrix.shape[0], dtype=np.int64)
        for i, size in enumerate(self.sizes):
            index = index * size + matrix[:, i]
        return index

    def good_count(self) -> int:
        """Exact number of building configurations, by dynamic programming.

        Valid for trees (every package but the root has one parent), which is
        what the generator produces; the count is exact for any space size.
        """
        parents = [0] * len(self.names)
        for _, c in self.edges:
            parents[c] += 1
        if any(n != (i != self.root) for i, n in enumerate(parents)):
            raise ValueError("good_count needs a tree-shaped graph")
        forbidden = {(p, pv, c, cv) for p, pv, c, cv in self.rules}

        def ways(node: int) -> list[int]:
            out = [1] * self.sizes[node]
            for child in self.children[node]:
                below = ways(child)
                for v in range(self.sizes[node]):
                    out[v] *= sum(n for w, n in enumerate(below)
                                  if (node, v, child, w) not in forbidden)
            return out

        return sum(ways(self.root))

    def space_size(self) -> int:
        size = 1
        for s in self.sizes:
            size *= s
        return size

    def config_digest(self, config: Sequence[int]) -> str:
        """Canonical digest: sorted package names, each with its version label."""
        texts = []
        for i in sorted(range(len(self.names)), key=lambda i: self.names[i]):
            texts += [self.names[i], self.versions[i][config[i]]]
        return _length_prefixed_sha256(texts)

    def labels(self, config: Sequence[int]) -> dict[str, str]:
        return {name: self.versions[i][config[i]] for i, name in enumerate(self.names)}

    def root_unit_digest(self, config: Sequence[int]) -> str:
        """Digest of the configuration's root build unit in a deduplicated DAG.

        A unit is keyed by its package, its version and the sorted digests
        of its dependency units.
        """
        def unit(node: int) -> str:
            deps = sorted(unit(child) for child in self.children[node])
            return _length_prefixed_sha256(
                [self.names[node], self.versions[node][config[node]], *deps])

        return unit(self.root)


def side_counts(truth: PlantedTruth, configs: np.ndarray):
    """Per-package and per-edge version counts over the rows of configs."""
    nodes = [np.bincount(configs[:, i], minlength=s) for i, s in enumerate(truth.sizes)]
    edges = []
    for p, c in sorted(truth.edges):
        table = np.zeros((truth.sizes[p], truth.sizes[c]), dtype=np.int64)
        np.add.at(table, (configs[:, p], configs[:, c]), 1)
        edges.append(table)
    return nodes, edges
