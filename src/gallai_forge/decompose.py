"""Gallai partitions: extraction, validation, quotient graphs.

Every complete graph on at least two vertices whose coloring has no rainbow
triangle splits into at least two parts such that at most two colors appear
between parts and each pair of parts is joined monochromatically.  The
extractor tries candidate between-color sets S of one or two colors and
takes as parts the components of the edges colored outside S, from the
first S that leaves two or more.  They need no merging: a vertex y outside a
component C sees C only in colors of S, and for an edge pq of C the
triangle ypq is rainbow unless yp and yq share a color, so y sees all of C
in one color; validating the result checks this at run time.  A candidate's
cut matrix is a used color's packed rows or the OR of two; the search over
it turns a row into an int only when it pops the row's vertex, and stops
once its first component reaches every vertex.  The rainbow check reads the
graph's triangle census, which is counted once per graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, combinations

import numpy as np

from .graphs import ColoredCompleteGraph, iter_bits
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
        q = self.quotient
        values = np.sort(q[~np.eye(len(q), dtype=bool)])
        # the first value and each one unlike its predecessor; one sort beats
        # np.unique's hash table on these long runs of few colors
        return frozenset(values[:1].tolist() + values[1:][values[1:] != values[:-1]].tolist())

    def to_json_dict(self) -> dict:
        q = self.quotient.tolist()
        return {
            "parts": [list(p) for p in self.parts],
            "quotient": [
                {"i": i, "j": j, "color": q[i][j]} for i, j in combinations(range(len(self.parts)), 2)
            ],
            "between_colors": sorted(self.between_colors),
        }


def _components(packed: np.ndarray) -> tuple[np.ndarray, int]:
    """Label the components of the graph on vertices 0..n-1 that joins u
    and v unless bit u is set in row v of ``packed``, an n-row matrix from
    ``np.packbits(..., axis=1, bitorder="little")``.

    A popped vertex v reaches every unseen vertex outside its row, which
    becomes an int only then, read from one ``tobytes`` buffer of the whole
    matrix.  When the first component reaches every vertex, often after a
    few pops, the search returns at once with all labels 0.  Otherwise each
    component grows from the least unseen vertex, so the labels number the
    components in ascending order of their least vertex.
    """
    n, width = packed.shape
    # one buffer sliced by row: a row view's tobytes costs more than a slice
    buf = packed.tobytes()
    unseen = (1 << n) - 1
    found = []
    while unseen:
        frontier = component = unseen & -unseen
        unseen ^= frontier
        while frontier and unseen:
            low = frontier & -frontier
            frontier ^= low
            v = low.bit_length() - 1
            reached = unseen & ~int.from_bytes(buf[v * width : (v + 1) * width], "little")
            unseen ^= reached
            frontier |= reached
            component |= reached
        if not found and not unseen:
            return np.zeros(n, dtype=np.intp), 1
        found.append(component)
    labels = [0] * n
    for count, component in enumerate(found):
        for v in iter_bits(component):
            labels[v] = count
    return np.array(labels, dtype=np.intp), len(found)


def _package(square: np.ndarray, labels: np.ndarray) -> GallaiPartition:
    order = np.argsort(labels, kind="stable").tolist()
    ends = np.cumsum(np.bincount(labels)).tolist()
    parts = [tuple(order[a:b]) for a, b in zip([0] + ends, ends)]
    reps = [part[0] for part in parts]
    quotient = square[reps][:, reps]
    quotient.setflags(write=False)
    return GallaiPartition(tuple(parts), quotient)


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
    packed = {c: np.packbits(square == c, axis=1, bitorder="little") for c in used}
    cuts = chain(packed.values(), (packed[a] | packed[b] for a, b in combinations(used, 2)))
    for cut in cuts:
        # the components of K_n without the edges colored in the candidate set
        labels, count = _components(cut)
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
    labels, why = _cover(graph.n, parts)
    if why is not None:
        return False, why
    q = partition.quotient
    if not isinstance(q, np.ndarray) or q.shape != (m, m) or (q != q.T).any() or np.diagonal(q).any():
        return False, f"quotient must be a symmetric {m}x{m} matrix with a zero diagonal"
    # every cross-part entry once, u in the lower-numbered part, row-major
    square = graph.as_square()
    wrong = square != q[labels][:, labels]
    # an edge inside a part meets q's zero diagonal and always differs;
    # any further difference is a wrong cross-part entry
    if np.count_nonzero(wrong) > (np.bincount(labels) ** 2).sum() - graph.n:
        wrong &= labels[:, None] < labels[None, :]
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


def _cover(n: int, parts) -> tuple[np.ndarray, str | None]:
    """Each vertex's part index, and the first fault if the parts do not
    cover 0..n-1 exactly once.

    One check over the flat vertex array decides: n integer vertices in
    range, each counted once, and no empty part.  Only when it fails does a
    scan, part by part and vertex by vertex, name the first fault."""
    sizes = [len(part) for part in parts]
    try:
        flat = np.array(list(chain.from_iterable(parts)))
    except ValueError:  # sequences of unequal lengths among the vertices
        flat = np.array([])
    if (
        flat.dtype.kind == "i"
        and flat.shape == (n,)
        and min(sizes) > 0
        and flat.min() >= 0
        and flat.max() < n
        and (np.bincount(flat, minlength=n) == 1).all()
    ):
        labels = np.empty(n, dtype=np.intp)
        labels[flat] = np.repeat(np.arange(len(parts)), sizes)
        return labels, None
    labels = np.full(n, -1, dtype=np.intp)
    for index, part in enumerate(parts):
        if len(part) == 0:
            return labels, f"part {index} is empty"
        for v in part:
            if not isinstance(v, (int, np.integer)):
                return labels, f"part {index} contains non-integer vertex {v!r}"
            v = int(v)  # a bool would index labels as a mask
            if not 0 <= v < n:
                return labels, f"part {index} contains out-of-range vertex {v}"
            if labels[v] >= 0:
                return labels, f"vertex {v} appears in more than one part"
            labels[v] = index
    if (labels < 0).any():
        return labels, f"vertex {int(np.argmax(labels < 0))} is not covered"
    return labels, None


def reduced_graph(graph: ColoredCompleteGraph, partition: GallaiPartition) -> ColoredCompleteGraph:
    """Complete graph on the parts, each pair colored by its joining color.
    Declares the same color count as the input."""
    ok, why = validate_partition(graph, partition)
    if not ok:
        raise ValueError(f"not a valid partition of the graph: {why}")
    return ColoredCompleteGraph.from_square(len(partition.parts), graph.k, partition.quotient)
