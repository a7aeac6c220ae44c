"""Post-hoc analysis of a fitted model: divergence, importance, compatibility.

Which packages and dependency edges drive build failure?  Comparing the
good-side and bad-side factor tables answers this: a large divergence
between the two fitted distributions for the same factor means the factor
separates outcomes.  Per-edge score tables expose which version pairs look
incompatible, and pairs far below the best cell can be extracted as
candidate constraints.
"""
from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .surrogate import FactorModel, _ei

__all__ = [
    "CompatibilityMatrix",
    "ForbiddenPair",
    "ImportanceEntry",
    "extract_constraints",
    "importance_ranking",
    "js_divergence",
    "pair_compatibility",
]

_NORMALIZATION_TOLERANCE = 1e-9

EDGE_SEPARATOR = "+"


def js_divergence(p: Sequence[float], q: Sequence[float]) -> float:
    """Jensen-Shannon divergence of two categorical distributions.

    Natural logarithm, so the value lies in [0, ln 2]; it is symmetric and
    zero exactly when the distributions coincide.  Zero-probability entries
    contribute nothing.
    """
    pa = np.asarray(p, dtype=float)
    qa = np.asarray(q, dtype=float)
    if pa.shape != qa.shape or pa.ndim != 1:
        raise ValueError(
            f"support mismatch: {pa.shape} versus {qa.shape}"
        )
    for name, arr in (("p", pa), ("q", qa)):
        # Written so that NaN fails each check.
        if not np.all(arr >= 0):
            raise ValueError(f"{name} has negative or NaN entries")
        if not abs(float(arr.sum()) - 1.0) <= _NORMALIZATION_TOLERANCE:
            raise ValueError(f"{name} sums to {arr.sum()}, not 1")
    mid = 0.5 * (pa + qa)

    def half_divergence(a: np.ndarray) -> float:
        mask = a > 0
        return float(np.sum(a[mask] * np.log(a[mask] / mid[mask])))

    return 0.5 * half_divergence(pa) + 0.5 * half_divergence(qa)


@dataclass(frozen=True)
class ImportanceEntry:
    """A package or edge and how strongly it separates good from bad."""

    target: str
    score: float

    def to_dict(self) -> dict:
        return asdict(self)


def importance_ranking(
    model: FactorModel, top_k: int | None = None
) -> list[ImportanceEntry]:
    """Rank packages and edges by good-versus-bad factor divergence.

    Node factors are compared directly; edge factors are flattened to
    categorical distributions over version pairs.  Ties order by target
    name.
    """
    graph, good, bad = model.graph, model.good, model.bad
    entries: list[ImportanceEntry] = []
    for i, name in enumerate(graph.packages):
        score = js_divergence(good.node_weights[i], bad.node_weights[i])
        entries.append(ImportanceEntry(target=name, score=score))
    for j, (p, c) in enumerate(graph.edges):
        score = js_divergence(good.edge_weights[j].ravel(), bad.edge_weights[j].ravel())
        target = f"{graph.packages[p]}{EDGE_SEPARATOR}{graph.packages[c]}"
        entries.append(ImportanceEntry(target=target, score=score))
    entries.sort(key=lambda e: (-e.score, e.target))
    if top_k is not None:
        if top_k < 0:
            raise ValueError("top_k must be nonnegative")
        entries = entries[:top_k]
    return entries


@dataclass(frozen=True, eq=False)
class CompatibilityMatrix:
    """Per-version-pair expected improvement for one dependency edge."""

    parent: str
    child: str
    parent_versions: tuple[str, ...]
    child_versions: tuple[str, ...]
    cells: np.ndarray

    def to_rows(self) -> list[list]:
        header = ["", *self.child_versions]
        rows: list[list] = [header]
        for u, label in enumerate(self.parent_versions):
            rows.append([label, *(float(v) for v in self.cells[u])])
        return rows


def pair_compatibility(model: FactorModel, edge: tuple[str, str]) -> CompatibilityMatrix:
    """Score every version pair of one edge with the edge factors alone."""
    graph = model.graph
    parent_name, child_name = edge
    p = graph.index_of(parent_name)
    c = graph.index_of(child_name)
    try:
        j = graph.edges.index((p, c))
    except ValueError:
        raise ValueError(
            f"no edge {parent_name!r} -> {child_name!r} in the graph"
        ) from None
    ratio = model.bad.edge_weights[j] / model.good.edge_weights[j]
    cells = _ei(ratio, model.success_prior)
    return CompatibilityMatrix(
        parent=parent_name,
        child=child_name,
        parent_versions=graph.domains[p],
        child_versions=graph.domains[c],
        cells=cells,
    )


@dataclass(frozen=True)
class ForbiddenPair:
    """A version pair whose score sits far below the edge's best cell."""

    parent: str
    parent_version: str
    child: str
    child_version: str
    ei: float

    def to_dict(self) -> dict:
        return asdict(self)


def extract_constraints(
    matrix: CompatibilityMatrix, threshold: float = 0.25
) -> list[ForbiddenPair]:
    """Version pairs scoring strictly below threshold times the best cell.

    A threshold of zero extracts nothing; thresholds approaching one flag
    everything but the best cell.
    """
    if not (0.0 <= threshold <= 1.0):
        raise ValueError(f"threshold {threshold} outside [0, 1]")
    cutoff = threshold * float(matrix.cells.max())
    pairs = []
    for u, parent_version in enumerate(matrix.parent_versions):
        for w, child_version in enumerate(matrix.child_versions):
            value = float(matrix.cells[u, w])
            if value < cutoff:
                pairs.append(
                    ForbiddenPair(
                        parent=matrix.parent,
                        parent_version=parent_version,
                        child=matrix.child,
                        child_version=child_version,
                        ei=value,
                    )
                )
    pairs.sort(key=lambda fp: (fp.ei, fp.parent_version, fp.child_version))
    return pairs
