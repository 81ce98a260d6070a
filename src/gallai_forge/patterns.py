"""Detection of rainbow triangles and small monochromatic subgraphs.

Two detection routes exist on purpose.  find_rainbow_triangle and
contains_pattern are the fast path, built on per-color neighbor bitmasks.
contains_pattern embeds every pattern kind through one plan builder
(_plan) and one walker (_walk), which the search's generic checker shares,
and tries only the colors that some edge has.  brute_force_find enumerates
vertex subsets and role assignments straight from the definitions and is
kept independent so the two can be checked against each other.

find_rainbow_triangle and the detectors for patterns with a triangle
through role 0 (star-plus, path-plus) read one per-vertex triangle census
(_census), counted once per graph from packed neighbor bitsets in
O(n^3/64) word operations and kept on the graph.  For each color c with a
monochromatic triangle it holds d_c(v) and T_c(v), the number of
c-triangles through v; for every vertex it holds r(v), the number of
rainbow triangles through v, which follows from the per-color degrees,
c-paths and T_c by Goodman's cherry argument.  A coloring with r = 0 is
rainbow-free; otherwise the first witness starts at the least v with
r(v) > 0, and only that row is scanned.  The detectors start only from
vertices with T_c(v) > 0 and skip a color with no triangle.
"""

from __future__ import annotations

import functools
import heapq
import itertools
from dataclasses import dataclass

import numpy as np

from .graphs import ColoredCompleteGraph

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


# The census packs neighbor rows a block of colors at a time and gathers
# them a block of edges at a time; each block takes about this many bytes at
# most (one color, or one row of edges, when n is huge).
_COUNT_BLOCK_BYTES = 1 << 22


@dataclass(frozen=True, eq=False)
class _Census:
    """Per-vertex triangle counts.  For each color c that has a monochromatic
    triangle, ``degree[c][v]`` is d_c(v) and ``triangles[c][v]`` is T_c(v),
    the number of c-colored triangles through v; ``rainbow[v]`` is r(v), the
    number of rainbow triangles through v."""

    degree: dict[int, np.ndarray]
    triangles: dict[int, np.ndarray]
    rainbow: np.ndarray

    def starts(self, c: int, need: int) -> np.ndarray:
        """Vertices on a c-colored triangle with c-degree at least ``need``."""
        return np.flatnonzero((self.triangles[c] > 0) & (self.degree[c] >= need))


def _census(graph: ColoredCompleteGraph) -> _Census:
    """The graph's census, counted on first use and kept on the graph.

    Packed neighbor rows give, per c-colored edge uw, the number
    |N_c(u) & N_c(w)| of c-triangles on it; added onto both endpoints, these
    sum to 2 T_c(v) at v.  Of the C(n-1, 2) triangles through v, the ones
    with two or three edges of color c number
        C(d_c(v), 2) + sum_{x in N_c(v)} d_c(x) - d_c(v) - 2 T_c(v)
    (two c-edges at v, or a c-path v-x-y; a c-triangle is met three times),
    and a triangle is rainbow iff it has no such color, so r(v) is what the
    colors leave of C(n-1, 2).
    """
    census = graph._census
    if census is not None:
        return census
    n = graph.n
    tri = graph.edge_colors()
    square = graph.as_square()
    used = graph.used_colors()
    row_bytes = -(-n // 64) * 8  # whole 64-bit words per row
    ones = np.ones(row_bytes // 8, dtype=np.float32)  # sums a row of word popcounts
    step = max(1, _COUNT_BLOCK_BYTES // (n * row_bytes))  # colors, or rows of edges, per block
    degree, triangles = {}, {}
    lost = np.zeros(n)  # triangles through each vertex with a repeated color
    for c0 in range(0, used.size, step):
        colors = used[c0 : c0 + step]
        # rows[i, v]: v's neighbors in colors[i], packed into 64-bit words
        rows = np.zeros((colors.size, n, row_bytes), dtype=np.uint8)
        for i, c in enumerate(colors):
            rows[i, :, : -(-n // 8)] = np.packbits(square == c, axis=1)
        words = rows.view(np.uint64).reshape(colors.size * n, -1)  # row ci * n + v
        deg = np.bitwise_count(words).sum(axis=1, dtype=np.int64)
        ends = np.zeros(colors.size * n)  # 2 T_c(v): |N_c(u) & N_c(w)| over the c-edges uw at v
        paths = np.zeros(colors.size * n)  # c-paths v-x-y with y != v, from each v
        for u0 in range(1, n, step):
            # the edges u > w of rows u0.., in flat order, with a color here
            us = np.arange(u0, min(n, u0 + step))
            u = np.repeat(us, us)
            first = u0 * (u0 - 1) // 2
            w = np.arange(first, first + u.size) - u * (u - 1) // 2
            ci = np.searchsorted(used, tri[first : first + u.size]) - c0
            if colors.size < used.size:  # keep the edges whose color is in this block
                here = (ci >= 0) & (ci < colors.size)
                u, w, ci = u[here], w[here], ci[here]
            at_u, at_w = ci * n + u, ci * n + w
            del u, w, ci  # the gathers below need only the rows of the flat view
            common = words.take(at_u, axis=0)
            common &= words.take(at_w, axis=0)
            on_edge = np.bitwise_count(common).astype(np.float32) @ ones
            ends += np.bincount(at_u, on_edge, ends.size) + np.bincount(at_w, on_edge, ends.size)
            paths += np.bincount(at_u, deg.take(at_w) - 1, paths.size)
            paths += np.bincount(at_w, deg.take(at_u) - 1, paths.size)
        deg, ends = deg.reshape(colors.size, n), ends.reshape(colors.size, n)
        lost += (deg * (deg - 1) / 2 + paths.reshape(colors.size, n) - ends).sum(axis=0)
        for c, d, e in zip(colors.tolist(), deg, ends):
            if e.any():
                degree[c], triangles[c] = d, e.astype(np.int64) // 2
    rainbow = (n - 1) * (n - 2) // 2 - lost.astype(np.int64)
    census = graph._census = _Census(degree, triangles, rainbow)
    return census


def _rainbow_count(graph: ColoredCompleteGraph) -> int:
    """Number of rainbow triangles: each lies on three vertices."""
    return int(_census(graph).rainbow.sum()) // 3


def find_rainbow_triangle(graph: ColoredCompleteGraph) -> WitnessEmbedding | None:
    """First triangle with three pairwise distinct edge colors, scanning
    ordered triples u < v < w lexicographically.

    The census decides: the first vertex of the first witness is the least
    v with r(v) > 0, so only that vertex's row is scanned.  A coloring with
    fewer than three colors is rainbow-free without one."""
    if graph.used_colors().size < 3:
        return None
    hit = np.flatnonzero(_census(graph).rainbow)
    if hit.size == 0:
        return None
    u = int(hit[0])
    m = graph.as_square()
    a = m[u, u + 1 :]
    sub = m[u + 1 :, u + 1 :]
    bad = (a[:, None] != a[None, :]) & (sub != a[:, None]) & (sub != a[None, :])
    iv, iw = np.nonzero(np.triu(bad, 1))
    return WitnessEmbedding(Pattern.clique(3), None, (u, int(iv[0]) + u + 1, int(iw[0]) + u + 1))


@functools.cache
def _plan(p: Pattern, seeds: tuple[int, ...] = ()) -> tuple[tuple[int, tuple[int, ...], int], ...]:
    """Order in which the walker places the roles not in ``seeds``: next is
    the lowest-numbered unplaced role with a placed pattern neighbor (role 0
    first when nothing is seeded).  Each step is (role, its placed pattern
    neighbors, its latest-placed twin or -1).  Twins are roles with equal
    open or equal closed neighborhoods; swapping two is an automorphism, so
    the walker may put a later twin above an earlier one without losing any
    copy.  Seeds take no part in twin ordering.  O(edges log size)."""
    nbrs: list[list[int]] = [[] for _ in range(p.size)]
    for i, j in p.edges():
        nbrs[i].append(j)
        nbrs[j].append(i)
    placed = set(seeds)
    frontier = sorted({q for r in seeds for q in nbrs[r]} - placed) if seeds else [0]
    latest: dict[tuple[bool, frozenset[int]], tuple[int, int]] = {}  # neighborhood -> (step, role)
    steps = []
    while frontier:
        q = heapq.heappop(frontier)
        if q in placed:
            continue
        around = frozenset(nbrs[q])
        keys = ((False, around), (True, around | {q}))
        twin = max((latest.get(key, (-1, -1)) for key in keys))[1]
        steps.append((q, tuple(r for r in nbrs[q] if r in placed), twin))
        placed.add(q)
        latest.update(dict.fromkeys(keys, (len(steps), q)))
        for r in nbrs[q]:
            heapq.heappush(frontier, r)  # popped and skipped if placed by then
    return tuple(steps)


def _walk(steps, d: int, assign, used: int, adj: list[int]) -> bool:
    """Place the roles of steps[d:] depth-first, lowest vertex first, on the
    color whose neighbor masks are ``adj``.  ``assign`` maps the placed roles
    to vertices and is left holding the first completion found.  The walk
    keeps its own stack, so a pattern of any size fits."""
    stack = []  # (candidates left, vertices used) for each depth being tried above d
    end = len(steps)
    while d < end:
        _, prevs, twin = steps[d]
        cand = ~used
        for q in prevs:
            cand &= adj[assign[q]]
        if twin >= 0:
            cand &= -(2 << assign[twin])
        while not cand:
            if not stack:
                return False
            cand, used = stack.pop()
            d -= 1
        low = cand & -cand
        assign[steps[d][0]] = low.bit_length() - 1
        stack.append((cand ^ low, used))
        used |= low
        d += 1
    return True


@functools.cache
def _role_zero_on_triangle(p: Pattern) -> bool:
    """Whether role 0 lies on a triangle of the pattern, so that a copy can
    start only from a vertex on a monochromatic triangle."""
    nbrs = {j for i, j in p.edges() if i == 0} | {i for i, j in p.edges() if j == 0}
    return any({i, j} <= nbrs for i, j in p.edges())


def contains_pattern(graph: ColoredCompleteGraph, p: Pattern, c: int | None = None) -> WitnessEmbedding | None:
    """First monochromatic copy of ``p``, in color ``c`` or, with c=None, in
    colors 1..k tried in ascending order.  The witness is the
    lexicographically first embedding (v_0, ..., v_{size-1}) in the canonical
    role order of Pattern within the first color that has one.

    A copy with an edge needs a color that some edge has, so only those
    colors are tried.  When role 0 lies on the pattern's triangle
    (star-plus, path-plus, and cliques and cycles on three vertices), the
    search starts only from the vertices that the census puts on a triangle
    of the color, and skips a color with no triangle; otherwise it starts
    from the vertices with role 0's degree in the color."""
    colors = _color_range(graph, c)
    if p.size > graph.n:
        return None
    if p.size == 1:
        return WitnessEmbedding(p, colors[0], (0,))
    census = _census(graph) if _role_zero_on_triangle(p) else None
    need = sum(0 in edge for edge in p.edges())  # role 0's pattern degree
    steps = None  # planned at the first start
    for cc in graph.used_colors().tolist():
        if cc not in colors or (census is not None and cc not in census.triangles):
            continue
        if census is None:
            masks = graph.color_masks(cc)
            starts = (v for v in range(graph.n) if masks[v].bit_count() >= need)
        else:
            starts = census.starts(cc, need).tolist()
            masks = graph.color_masks(cc) if starts else None
        for v in starts:
            # the canonical role order is the plan order, so the depth-first
            # walk meets embeddings in lexicographic order
            steps = steps or _plan(p)
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
    if c is None and p.size > 1:
        # a copy with an edge has a color that some edge has; a single vertex is a copy in color 1
        colors = sorted({colorof(u, v) for u, v in itertools.combinations(range(graph.n), 2)})
    roles = _ROLE_FINDERS[p.kind]
    for cc in colors:
        for subset in itertools.combinations(range(graph.n), p.size):
            found = roles(colorof, subset, cc)
            if found is not None:
                return WitnessEmbedding(p, cc, tuple(found))
    return None
