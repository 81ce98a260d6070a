"""Gallai partitions: extraction, validation, quotient graphs.

Every complete graph on at least two vertices whose coloring has no rainbow
triangle splits into at least two parts such that at most two colors appear
between parts and each pair of parts is joined monochromatically.  The
extractor below searches candidate between-color sets S of size one or two:
vertices connected by edges colored outside S must share a part, and parts
joined by more than one color must merge.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from .graphs import ColoredCompleteGraph
from .patterns import WitnessEmbedding, find_rainbow_triangle


class RainbowTrianglePresent(Exception):
    """The input coloring is not rainbow-triangle-free; carries the witness."""

    def __init__(self, witness: WitnessEmbedding):
        self.witness = witness
        super().__init__(f"rainbow triangle on vertices {list(witness.vertices)}")


class InternalExhaustion(RuntimeError):
    """No candidate color set produced a valid partition; indicates a bug,
    since rainbow-free inputs always admit one."""


@dataclass(frozen=True, eq=False)
class GallaiPartition:
    """Parts in ascending order of their smallest vertex, and the read-only
    m-by-m quotient matrix whose entry (i, j) is the color joining parts i
    and j, zero on the diagonal."""

    parts: tuple[tuple[int, ...], ...]
    quotient: np.ndarray

    @property
    def between_colors(self) -> frozenset:
        """The colors used between parts: the quotient's off-diagonal values."""
        iu, iv = np.triu_indices(len(self.quotient), 1)
        return frozenset(np.unique(self.quotient[iu, iv]).tolist())

    def to_json_dict(self) -> dict:
        q = self.quotient.tolist()
        return {
            "parts": [list(p) for p in self.parts],
            "quotient": [
                {"i": i, "j": j, "color": q[i][j]} for i, j in combinations(range(len(self.parts)), 2)
            ],
            "between_colors": sorted(self.between_colors),
        }


def _components_outside(square: np.ndarray, color_set: tuple[int, ...]) -> tuple[np.ndarray, int]:
    adj = ~np.isin(square, color_set)
    np.fill_diagonal(adj, False)
    count, labels = connected_components(csr_matrix(adj), directed=False)
    return labels, int(count)


def _merge_bichromatic(square: np.ndarray, labels: np.ndarray, count: int) -> tuple[np.ndarray, int]:
    """Merge parts until every pair is joined by a single color.

    Merging is forced and monotone (a bichromatic pair stays bichromatic when
    either side grows), so the fixpoint does not depend on merge order; each
    round merges the components of the graph of all offending part pairs.
    """
    n = square.shape[0]
    iu, iv = np.triu_indices(n, 1)
    edge_colors = square[iu, iv].astype(np.int64)
    while count > 1:
        li = labels[iu]
        lj = labels[iv]
        cross = li != lj
        lo = np.minimum(li, lj)[cross]
        hi = np.maximum(li, lj)[cross]
        pair_id = lo * count + hi
        colors = edge_colors[cross]
        cmin = np.full(count * count, np.iinfo(np.int64).max, dtype=np.int64)
        cmax = np.zeros(count * count, dtype=np.int64)
        np.minimum.at(cmin, pair_id, colors)
        np.maximum.at(cmax, pair_id, colors)
        offending = np.nonzero(cmin < cmax)[0]
        if offending.size == 0:
            break
        joins = csr_matrix((np.ones(offending.size, dtype=bool), divmod(offending, count)), shape=(count, count))
        count, merged = connected_components(joins, directed=False)
        labels = merged[labels]
    return labels, int(count)


def _package(square: np.ndarray, labels: np.ndarray) -> GallaiPartition:
    members = np.split(np.argsort(labels, kind="stable"), np.cumsum(np.bincount(labels))[:-1])
    members.sort(key=lambda ix: int(ix[0]))
    reps = [int(ix[0]) for ix in members]
    quotient = square[np.ix_(reps, reps)]
    quotient.setflags(write=False)
    parts = tuple(tuple(ix.tolist()) for ix in members)
    return GallaiPartition(parts, quotient)


def gallai_partition(graph: ColoredCompleteGraph) -> GallaiPartition:
    """Extract a partition certificate for a rainbow-triangle-free coloring.

    Candidate between-color sets are tried singletons first, then pairs, each
    group in ascending lexicographic order; the first candidate yielding at
    least two parts wins.  Raises RainbowTrianglePresent (with the triangle)
    on inputs outside the precondition and InternalExhaustion if no candidate
    works, which a correct implementation never hits.
    """
    if graph.n < 2:
        raise ValueError(f"need n >= 2, got {graph.n}")
    rainbow = find_rainbow_triangle(graph)
    if rainbow is not None:
        raise RainbowTrianglePresent(rainbow)
    square = graph.as_square()
    # a color with no edges leaves K_n connected alone and adds nothing to a pair
    used = np.unique(graph.edge_colors()).tolist()
    for color_set in [(c,) for c in used] + list(combinations(used, 2)):
        labels, count = _components_outside(square, color_set)
        if count < 2:
            continue
        labels, count = _merge_bichromatic(square, labels, count)
        if count < 2:
            continue
        partition = _package(square, labels)
        ok, why = validate_partition(graph, partition)
        if not ok:
            raise InternalExhaustion(f"extracted partition fails validation: {why}")
        return partition
    raise InternalExhaustion("no candidate color set produced two or more parts")


def validate_partition(graph: ColoredCompleteGraph, partition: GallaiPartition) -> tuple[bool, str | None]:
    """Re-check every partition invariant; returns (ok, first violation)."""
    parts = partition.parts
    m = len(parts)
    if m < 2:
        return False, f"{m} part(s), need at least 2"
    labels = np.full(graph.n, -1, dtype=np.intp)
    for index, part in enumerate(parts):
        if len(part) == 0:
            return False, f"part {index} is empty"
        for v in part:
            if not 0 <= v < graph.n:
                return False, f"part {index} contains out-of-range vertex {v}"
            if labels[v] >= 0:
                return False, f"vertex {v} appears in more than one part"
            labels[v] = index
    if (labels < 0).any():
        return False, f"vertex {int(np.argmax(labels < 0))} is not covered"
    q = partition.quotient
    if q.shape != (m, m) or (q != q.T).any() or np.diagonal(q).any():
        return False, f"quotient must be a symmetric {m}x{m} matrix with a zero diagonal"
    # every cross-part entry once, u in the lower-numbered part, row-major
    square = graph.as_square()
    wrong = (square != q[labels][:, labels]) & (labels[:, None] < labels[None, :])
    if wrong.any():
        u, v = (int(x) for x in np.unravel_index(np.argmax(wrong), wrong.shape))
        i, j = int(labels[u]), int(labels[v])
        return False, (
            f"edge {{{u}, {v}}} between parts {i} and {j} has color "
            f"{int(square[u, v])}, quotient says {int(q[i, j])}"
        )
    between = partition.between_colors
    if len(between) > 2:
        return False, f"{len(between)} colors between parts, at most 2 allowed"
    return True, None


def reduced_graph(graph: ColoredCompleteGraph, partition: GallaiPartition) -> ColoredCompleteGraph:
    """Complete graph on the parts, each pair colored by its joining color.
    Declares the same color count as the input."""
    ok, why = validate_partition(graph, partition)
    if not ok:
        raise ValueError(f"not a valid partition of the graph: {why}")
    return ColoredCompleteGraph.from_square(len(partition.parts), graph.k, partition.quotient)
