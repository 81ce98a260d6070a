"""Detection of rainbow triangles and small monochromatic subgraphs.

Two detection routes exist on purpose.  find_rainbow_triangle and
contains_pattern are the fast path, built on per-color neighbor bitmasks;
every monochromatic embedding, here and in the search, goes through one
plan builder (_plan) and one walker (_walk), except the star-plus scan.
brute_force_find enumerates vertex subsets and role assignments straight
from the definitions and is kept independent so the two can be checked
against each other.

find_rainbow_triangle counts, then locates.  In a complete graph the number
of rainbow triangles follows from per-color degrees and the number of
monochromatic triangles (_rainbow_count), which packed bitsets give in
O(n^3/64) word operations; only a coloring whose count is positive pays for
the O(n^3) scan that finds the lexicographically first witness.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from .graphs import ColoredCompleteGraph, iter_bits

PATTERN_KINDS = ("star-plus", "path-plus", "cycle", "path", "star", "clique")

# Smallest sensible vertex count per kind; the triangle-augmented kinds need
# their triangle to exist.
_MIN_SIZE = {"star-plus": 3, "path-plus": 3, "cycle": 3, "path": 1, "star": 1, "clique": 1}


@dataclass(frozen=True)
class Pattern:
    """A target subgraph shape together with its vertex count.

    Canonical role order of the vertices:
      star-plus: center, the two adjacent leaves, remaining leaves
      path-plus: path order; the extra edge joins positions 0 and 2
      cycle:     cyclic order
      path:      path order
      star:      center, then leaves
      clique:    any order
    """

    kind: str
    size: int

    def __post_init__(self):
        if self.kind not in PATTERN_KINDS:
            raise ValueError(f"unknown pattern kind {self.kind!r}")
        if self.size < _MIN_SIZE[self.kind]:
            raise ValueError(f"{self.kind} needs at least {_MIN_SIZE[self.kind]} vertices, got {self.size}")

    @classmethod
    def star_plus(cls, t: int) -> "Pattern":
        return cls("star-plus", t)

    @classmethod
    def path_plus(cls, t: int) -> "Pattern":
        return cls("path-plus", t)

    @classmethod
    def cycle(cls, m: int) -> "Pattern":
        return cls("cycle", m)

    @classmethod
    def path(cls, t: int) -> "Pattern":
        return cls("path", t)

    @classmethod
    def star(cls, t: int) -> "Pattern":
        return cls("star", t)

    @classmethod
    def clique(cls, s: int) -> "Pattern":
        return cls("clique", s)

    def edges(self) -> tuple[tuple[int, int], ...]:
        """Edges over the canonical role positions 0..size-1."""
        t = self.size
        if self.kind == "star-plus":
            return tuple((0, i) for i in range(1, t)) + ((1, 2),)
        if self.kind == "path-plus":
            return tuple((i, i + 1) for i in range(t - 1)) + ((0, 2),)
        if self.kind == "cycle":
            return tuple((i, i + 1) for i in range(t - 1)) + ((t - 1, 0),)
        if self.kind == "path":
            return tuple((i, i + 1) for i in range(t - 1))
        if self.kind == "star":
            return tuple((0, i) for i in range(1, t))
        return tuple(itertools.combinations(range(t), 2))


@dataclass(frozen=True)
class WitnessEmbedding:
    """Concrete vertices realizing a pattern; color None marks a rainbow hit."""

    pattern: Pattern
    color: int | None
    vertices: tuple[int, ...]

    def to_json_dict(self) -> dict:
        return {
            "pattern": self.pattern.kind,
            "t_or_m": self.pattern.size,
            "color": "rainbow" if self.color is None else self.color,
            "vertices": list(self.vertices),
        }


def verify_witness(graph: ColoredCompleteGraph, witness: WitnessEmbedding) -> bool:
    """Re-check a witness edge by edge against the graph."""
    vs = witness.vertices
    if len(vs) != witness.pattern.size or len(set(vs)) != len(vs):
        return False
    if any(not 0 <= v < graph.n for v in vs):
        return False
    if witness.color is None:
        if witness.pattern != Pattern.clique(3):
            return False
        a, b, c = vs
        return len({graph.color_of(a, b), graph.color_of(a, c), graph.color_of(b, c)}) == 3
    if not 1 <= witness.color <= graph.k:
        return False
    return all(graph.color_of(vs[i], vs[j]) == witness.color for i, j in witness.pattern.edges())


def _color_range(graph: ColoredCompleteGraph, c: int | None) -> range | tuple[int, ...]:
    if c is None:
        return range(1, graph.k + 1)
    if not 1 <= c <= graph.k:
        raise ValueError(f"color {c} out of range 1..{graph.k}")
    return (c,)


# _rainbow_count gathers bitset rows a block of edges at a time; a block's
# rows take about this many bytes at most (one row of edges when n is huge).
_COUNT_BLOCK_BYTES = 1 << 22


def _rainbow_count(graph: ColoredCompleteGraph) -> int:
    """Number of rainbow triangles, without enumerating triangles.

    Every pair of edges at a vertex closes a triangle, so counting the
    same-colored pairs (cherries) at each vertex counts each monochromatic
    triangle three times, each two-colored one once and each rainbow one
    never (Goodman's argument):
        rainbow = C(n, 3) - sum_v sum_c C(d_c(v), 2) + 2 * monochromatic.
    Monochromatic triangles are sum over c-colored edges uw of
    |N_c(u) & N_c(w)|, divided by 3, read off packed neighbor rows.
    """
    n = graph.n
    used = np.unique(graph.edge_colors())
    if used.size < 3:
        return 0
    square = graph.as_square()
    row_bytes = -(-n // 64) * 8  # whole 64-bit words per row
    step = max(1, _COUNT_BLOCK_BYTES // (n * row_bytes))
    cherries = mono = 0
    for c in used:
        hits = square == c
        deg = np.count_nonzero(hits, axis=1)
        cherries += int((deg * (deg - 1)).sum()) // 2
        rows = np.zeros((n, row_bytes), dtype=np.uint8)
        rows[:, : -(-n // 8)] = np.packbits(hits, axis=1)
        words = rows.view(np.uint64)
        # the c-colored edges u < w, a bounded block of rows u at a time
        for u0 in range(0, n, step):
            iu, iw = np.nonzero(np.triu(hits[u0 : u0 + step], u0 + 1))
            common = words[iu + u0]
            common &= words[iw]
            mono += int(np.bitwise_count(common).sum(dtype=np.int64))
    return n * (n - 1) * (n - 2) // 6 - cherries + 2 * (mono // 3)


def find_rainbow_triangle(graph: ColoredCompleteGraph) -> WitnessEmbedding | None:
    """First triangle with three pairwise distinct edge colors, scanning
    ordered triples u < v < w lexicographically.

    Deciding and locating are separate steps: _rainbow_count settles whether
    any rainbow triangle exists, and only then does the row-by-row scan run
    to return the first one."""
    if _rainbow_count(graph) == 0:
        return None
    n = graph.n
    m = graph.as_square()
    for u in range(n - 2):
        a = m[u, u + 1 :]
        sub = m[u + 1 :, u + 1 :]
        bad = (a[:, None] != a[None, :]) & (sub != a[:, None]) & (sub != a[None, :])
        iv, iw = np.nonzero(np.triu(bad, 1))
        if iv.size:
            return WitnessEmbedding(
                Pattern.clique(3), None, (u, int(iv[0]) + u + 1, int(iw[0]) + u + 1)
            )
    return None


@functools.cache
def _plan(p: Pattern, seeds: tuple[int, ...] = ()) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """Order in which the walker places the roles not in ``seeds``: next is
    the lowest-numbered unplaced role with a placed pattern neighbor (role 0
    first when nothing is seeded).  Each step is (role, its placed pattern
    neighbors, its latest-placed twin or -1).  Twins are roles with the same
    pattern neighbors apart from each other; swapping two is an automorphism,
    so the walker may put a later twin above an earlier one without losing
    any copy.  Seeds take no part in twin ordering."""
    nbrs: list[list[int]] = [[] for _ in range(p.size)]
    for i, j in p.edges():
        nbrs[i].append(j)
        nbrs[j].append(i)
    placed = list(seeds)
    steps = []
    while len(placed) < p.size:
        q = next(
            q for q in range(p.size) if q not in placed and (not placed or any(r in placed for r in nbrs[q]))
        )
        walked = placed[len(seeds) :]
        twin = next((r for r in reversed(walked) if set(nbrs[q]) - {r} == set(nbrs[r]) - {q}), -1)
        steps.append((q, tuple(r for r in nbrs[q] if r in placed), twin))
        placed.append(q)
    return tuple(steps)


def _walk(steps, d: int, assign, used: int, adj: list[int]) -> bool:
    """Place the roles of steps[d:] depth-first, lowest vertex first, on the
    color whose neighbor masks are ``adj``.  ``assign`` maps the placed roles
    to vertices and is left holding the first completion found."""
    if d == len(steps):
        return True
    pos, prevs, twin = steps[d]
    cand = adj[assign[prevs[0]]]
    for q in prevs[1:]:
        cand &= adj[assign[q]]
    cand &= ~used
    if twin >= 0:
        cand &= -(2 << assign[twin])
    while cand:
        low = cand & -cand
        assign[pos] = low.bit_length() - 1
        if _walk(steps, d + 1, assign, used | low, adj):
            return True
        cand ^= low
    return False


def _star_plus_scan(graph: ColoredCompleteGraph, p: Pattern, colors) -> WitnessEmbedding | None:
    # a center with >= t-1 same-colored neighbors, two of them adjacent in
    # that color; much faster than the walker on large clean inputs
    need = p.size - 1
    for cc in colors:
        masks = graph.color_masks(cc)
        for v in range(graph.n):
            mv = masks[v]
            if mv.bit_count() < need:
                continue
            for u in iter_bits(mv):
                common = masks[u] & mv
                if common:
                    w = (common & -common).bit_length() - 1
                    leaves = [u, w]
                    for x in iter_bits(mv):
                        if len(leaves) == need:
                            break
                        if x != u and x != w:
                            leaves.append(x)
                    return WitnessEmbedding(p, cc, (v, *leaves))
    return None


def contains_pattern(graph: ColoredCompleteGraph, p: Pattern, c: int | None = None) -> WitnessEmbedding | None:
    """First monochromatic copy of ``p``, in color ``c`` or, with c=None, in
    colors 1..k tried in ascending order.  The witness is the
    lexicographically first embedding (v_0, ..., v_{size-1}) in the canonical
    role order of Pattern within the first color that has one."""
    colors = _color_range(graph, c)
    if p.kind == "star-plus":
        return _star_plus_scan(graph, p, colors)
    if p.size > graph.n:
        return None
    # the canonical role order is the plan order, so the depth-first walk
    # meets embeddings in lexicographic order
    steps = _plan(p)
    need = sum(0 in prevs for _, prevs, _ in steps)  # role 0's pattern degree
    for cc in colors:
        masks = graph.color_masks(cc)
        for v in range(graph.n):
            if masks[v].bit_count() >= need:
                assign = [v] * p.size
                if _walk(steps, 1, assign, 1 << v, masks):
                    return WitnessEmbedding(p, cc, tuple(assign))
    return None


# ---------------------------------------------------------------------------
# Definitional oracle.  Uses color_of only; shares nothing with the fast path.

ORACLE_MAX_PATTERN = 10
ORACLE_MAX_HOST = 12


def _roles_clique(colorof, subset, cc):
    return subset if all(colorof(a, b) == cc for a, b in itertools.combinations(subset, 2)) else None


def _roles_star(colorof, subset, cc):
    for center in subset:
        others = tuple(x for x in subset if x != center)
        if all(colorof(center, x) == cc for x in others):
            return (center, *others)
    return None


def _roles_star_plus(colorof, subset, cc):
    for center in subset:
        others = tuple(x for x in subset if x != center)
        if not all(colorof(center, x) == cc for x in others):
            continue
        for a, b in itertools.combinations(others, 2):
            if colorof(a, b) == cc:
                rest = tuple(x for x in others if x != a and x != b)
                return (center, a, b, *rest)
    return None


def _roles_path(colorof, subset, cc):
    if len(subset) == 1:
        return subset
    for perm in itertools.permutations(subset):
        if perm[0] > perm[-1]:  # a path reads the same backwards
            continue
        if all(colorof(perm[i], perm[i + 1]) == cc for i in range(len(perm) - 1)):
            return perm
    return None


def _roles_path_plus(colorof, subset, cc):
    for perm in itertools.permutations(subset):
        if perm[0] > perm[1]:  # the two triangle ends off the tail are interchangeable
            continue
        if colorof(perm[0], perm[2]) == cc and all(
            colorof(perm[i], perm[i + 1]) == cc for i in range(len(perm) - 1)
        ):
            return perm
    return None


def _roles_cycle(colorof, subset, cc):
    first = subset[0]  # the cycle can be rotated to start at its minimum
    for perm in itertools.permutations(subset[1:]):
        if perm[0] > perm[-1]:  # and reflected
            continue
        cyc = (first, *perm)
        if colorof(cyc[-1], first) == cc and all(
            colorof(cyc[i], cyc[i + 1]) == cc for i in range(len(cyc) - 1)
        ):
            return cyc
    return None


_ROLE_FINDERS = {
    "clique": _roles_clique,
    "star": _roles_star,
    "star-plus": _roles_star_plus,
    "path": _roles_path,
    "path-plus": _roles_path_plus,
    "cycle": _roles_cycle,
}


def brute_force_find(graph: ColoredCompleteGraph, p: Pattern, c: int | None = None) -> WitnessEmbedding | None:
    """Exhaustive reference detector: every vertex subset of size |p|, every
    role assignment.  Guarded to small instances; intended for cross-checks."""
    if p.size > ORACLE_MAX_PATTERN:
        raise ValueError(f"oracle guard: pattern order {p.size} exceeds {ORACLE_MAX_PATTERN}")
    if graph.n > ORACLE_MAX_HOST:
        raise ValueError(f"oracle guard: host order {graph.n} exceeds {ORACLE_MAX_HOST}")
    colors = _color_range(graph, c)
    if p.size > graph.n:
        return None
    colorof = graph.color_of
    roles = _ROLE_FINDERS[p.kind]
    for cc in colors:
        for subset in itertools.combinations(range(graph.n), p.size):
            found = roles(colorof, subset, cc)
            if found is not None:
                return WitnessEmbedding(p, cc, tuple(found))
    return None
