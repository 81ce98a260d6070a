"""Gallai partitions: extraction, validation, quotient graphs.

Every complete graph on at least two vertices whose coloring has no rainbow
triangle splits into at least two parts such that at most two colors appear
between parts and each pair of parts is joined monochromatically.  The
extractor below searches candidate between-color sets S of size one or two:
vertices connected by edges colored outside S must share a part, and parts
joined by more than one color must merge.  The components outside S come
from a search over per-color neighbor bitmasks, packed once per call; most
candidates leave K_n connected, and the search stops as soon as its first
component has reached every vertex.  The same search finds which parts
merge.  The rainbow check reads the graph's triangle census, so a graph
whose detectors have run is not counted again.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .graphs import ColoredCompleteGraph, _row_masks, iter_bits
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


def _components(rows: list[list[int]], n: int) -> tuple[np.ndarray, int]:
    """Label the components of the graph on vertices 0..n-1 that joins u
    and v unless bit u is set in some ``rows[i][v]``.

    A popped vertex v reaches every unseen vertex outside the OR of its
    rows.  When the first component reaches every vertex, often after a few
    pops, the search returns at once with all labels 0.
    """
    labels = np.zeros(n, dtype=np.intp)
    unseen = (1 << n) - 1
    count = 0
    while unseen:
        frontier = component = unseen & -unseen
        unseen ^= frontier
        while frontier and unseen:
            low = frontier & -frontier
            frontier ^= low
            v = low.bit_length() - 1
            reached = unseen
            for row in rows:
                reached &= ~row[v]
            unseen ^= reached
            frontier |= reached
            component |= reached
        if count == 0 and not unseen:
            return labels, 1
        labels[list(iter_bits(component))] = count
        count += 1
    return labels, count


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
        joins = [0] * count
        for i, j in zip(*(x.tolist() for x in divmod(offending, count))):
            joins[i] |= 1 << j
            joins[j] |= 1 << i
        # the join graph is K_count without the pairs that are not joined
        merged, count = _components([[~j for j in joins]], count)
        labels = merged[labels]
    return labels, count


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
    used = graph.used_colors().tolist()
    # packed per call, not cached through graph.color_masks, so they die on return
    masks = {c: _row_masks(square == c) for c in used}
    for color_set in [(c,) for c in used] + list(combinations(used, 2)):
        # the components of K_n without the edges colored in the set
        labels, count = _components([masks[c] for c in color_set], graph.n)
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
