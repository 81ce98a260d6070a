"""Exhaustive two-color Ramsey search with incremental pruning.

Edges of K_n are assigned in a fixed order (all edges into vertex v before
vertex v+1, lower endpoint ascending), depth-first, color 1 before color 2.
A branch is cut as soon as the partial coloring contains the first target in
color 1 or the second in color 2; only copies through the newest edge can be
new, so each node tests only those instead of scanning the whole coloring.
Triangles and star-plus get bitmask tests.  Every other target anchors the
new edge on one ordered pattern edge (arc) per orbit of the target's
automorphism group and walks the remaining roles from there: one arc for
cycles and cliques, two for stars, 2t - 3 for path-plus on t vertices.  An
arc is walked only when both endpoints of the new edge have at least the
pattern degree of the roles placed on them.
When both targets coincide the first edge is fixed to color 1 (color swap).

Parallel runs split the tree at a fixed depth into prefix subtrees and
process them in prefix order, wave by wave.  Results are folded in prefix
order and counting stops at the first witness-bearing subtree, so verdict,
witness, and node/prune counters match the single-job run exactly.
"""

from __future__ import annotations

import functools
import time
from concurrent.futures import ProcessPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass

from .formulas import _check_family, linear_claim, size_three_divergence
from .graphs import ColoredCompleteGraph
from .patterns import Pattern, _plan, _walk, contains_pattern

# edges fixed before the tree is cut into prefix subtrees
SPLIT_DEPTH = 6


@dataclass(frozen=True)
class SearchBudget:
    """Caps for a search run; None means unlimited."""

    max_nodes: int | None = None
    max_time: float | None = None

    def __post_init__(self):
        if self.max_nodes is not None and self.max_nodes < 1:
            raise ValueError(f"max_nodes must be positive, got {self.max_nodes}")
        # not > 0 also refuses NaN, whose deadline would never pass
        if self.max_time is not None and not self.max_time > 0:
            raise ValueError(f"max_time must be positive, got {self.max_time}")


@dataclass(frozen=True)
class SearchOutcome:
    verdict: str  # "witness" | "exhausted"
    witness: ColoredCompleteGraph | None
    nodes: int
    prunes: int


class BudgetExhausted(Exception):
    """The node or time cap was hit before the tree was covered.  Distinct
    from an exhausted search, which is a completed verdict."""

    def __init__(self, reason: str, nodes: int):
        self.reason = reason
        self.nodes = nodes
        super().__init__(f"search budget exhausted ({reason}) after {nodes} nodes")


class NotFoundBelowCap(Exception):
    """No order up to the cap produced an exhausted verdict."""


@dataclass(frozen=True)
class RamseyCertificate:
    """Exact value with both certificates: an extremal coloring one below the
    value and the exhausted search at the value."""

    value: int
    witness: ColoredCompleteGraph
    witness_outcome: SearchOutcome | None
    exhausted_outcome: SearchOutcome


@functools.cache
def _arc_orbits(p: Pattern) -> tuple[tuple[int, int], ...]:
    """One ordered pattern edge (arc) per orbit of Aut(p), the first of each
    orbit in edge order, forward before reverse.  An arc is dropped when the
    walker, run on p's own adjacency, embeds p in itself with an earlier
    representative on that arc: an injective self-map that keeps every edge
    is an automorphism."""
    masks = [0] * p.size
    for i, j in p.edges():
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    reps: list[tuple[int, int]] = []
    for i, j in p.edges():
        for a, b in ((i, j), (j, i)):
            pair = (1 << a) | (1 << b)
            if not any(_walk(_plan(p, (x, y)), 0, {x: a, y: b}, pair, masks) for x, y in reps):
                reps.append((a, b))
    return tuple(reps)


def _make_checker(p: Pattern, adj: list, deg: list):
    """Build hit(u, v): does a copy of ``p`` through the just-assigned edge
    {u, v} exist in the color whose adjacency ``adj``/``deg`` describe?"""
    kind, size = p.kind, p.size
    if size == 3 and kind in ("clique", "star-plus", "path-plus"):
        # all three degenerate to the triangle

        def hit_triangle(u: int, v: int) -> bool:
            return (adj[u] & adj[v]) != 0

        return hit_triangle

    if kind == "star-plus" or (kind == "path-plus" and size == 4):
        # path-plus on 4 vertices is the same graph as star-plus on 4.
        # The new edge is either center-to-leaf (center u or v: enough degree
        # plus any edge inside the neighborhood) or leaf-to-leaf (any common
        # neighbor with enough degree is a center).
        need = size - 1

        def hit_star_plus(u: int, v: int) -> bool:
            au = adj[u]
            av = adj[v]
            common = au & av
            while common:
                low = common & -common
                if deg[low.bit_length() - 1] >= need:
                    return True
                common ^= low
            if deg[u] >= need:
                rest = au
                while rest:
                    low = rest & -rest
                    if adj[low.bit_length() - 1] & au:
                        return True
                    rest ^= low
            if deg[v] >= need:
                rest = av
                while rest:
                    low = rest & -rest
                    if adj[low.bit_length() - 1] & av:
                        return True
                    rest ^= low
            return False

        return hit_star_plus

    # anchor {u, v} on one arc per orbit: a copy that puts any arc of an
    # orbit on (u, v) can be moved by an automorphism onto its representative
    pdeg = [sum(r in e for e in p.edges()) for r in range(size)]
    anchors = [(a, b, pdeg[a], pdeg[b], _plan(p, (a, b))) for a, b in _arc_orbits(p)]

    def hit_generic(u: int, v: int) -> bool:
        pair = (1 << u) | (1 << v)
        du = deg[u]
        dv = deg[v]
        for a, b, need_a, need_b, steps in anchors:
            # roles a and b cannot land on u and v without their pattern degree
            if du >= need_a and dv >= need_b and _walk(steps, 0, {a: u, b: v}, pair, adj):
                return True
        return False

    return hit_generic


def _explore(n, p_red, p_blue, prefix, depth_stop, first_only, cap, deadline):
    """Iterative DFS from a fixed valid prefix up to ``depth_stop`` edges.

    Returns (results, nodes, prunes, truncated) where results holds complete
    assignments of the explored range (all of them, or just the first when
    ``first_only``) and truncated is None, "nodes", or "time".
    """
    total = n * (n - 1) // 2
    eu = []
    ev = []
    for v in range(1, n):
        for u in range(v):
            eu.append(u)
            ev.append(v)
    # per-color state, indexed by color 1 or 2
    adj = (None, [0] * n, [0] * n)
    deg = (None, [0] * n, [0] * n)
    hit = (None, _make_checker(p_red, adj[1], deg[1]), _make_checker(p_blue, adj[2], deg[2]))
    col = [0] * total
    for e, c in enumerate(prefix):
        u, v = eu[e], ev[e]
        col[e] = c
        adj[c][u] |= 1 << v
        adj[c][v] |= 1 << u
        deg[c][u] += 1
        deg[c][v] += 1
    base = len(prefix)
    symmetric = p_red == p_blue
    nxt = [1] * (depth_stop + 1)
    results = []
    nodes = 0
    prunes = 0
    truncated = None
    level = base
    check_time = deadline is not None
    clock = time.monotonic
    while True:
        if level == depth_stop:
            results.append(tuple(col[:depth_stop]))
            if first_only:
                break
        else:
            c = nxt[level]
            if c <= (2 if level or not symmetric else 1):
                nxt[level] = c + 1
                nodes += 1
                if nodes > cap:
                    truncated = "nodes"
                    break
                if check_time and (nodes & 8191) == 0 and clock() > deadline:
                    truncated = "time"
                    break
                u = eu[level]
                v = ev[level]
                col[level] = c
                a = adj[c]
                d = deg[c]
                a[u] |= 1 << v
                a[v] |= 1 << u
                d[u] += 1
                d[v] += 1
                level += 1
                if not hit[c](u, v):
                    continue
                prunes += 1
                # the backtrack below takes the pruned edge off again
            else:
                nxt[level] = 1
        # backtrack: take the edge at level - 1 off
        level -= 1
        if level < base:
            break
        u = eu[level]
        v = ev[level]
        c = col[level]
        a = adj[c]
        d = deg[c]
        a[u] ^= 1 << v
        a[v] ^= 1 << u
        d[u] -= 1
        d[v] -= 1
    return results, nodes, prunes, truncated


def _subtree_task(args):
    n, p_red, p_blue, prefix, cap, deadline = args
    results, nodes, prunes, truncated = _explore(n, p_red, p_blue, prefix, n * (n - 1) // 2, True, cap, deadline)
    return (results[0] if results else None, nodes, prunes, truncated)


def _check_target(p: Pattern) -> None:
    if p.size < 2:
        raise ValueError(f"search targets need at least one edge, got {p.kind} on {p.size} vertex")


def search_two_color(
    n: int,
    p_red: Pattern,
    p_blue: Pattern,
    budget: SearchBudget | None = None,
    jobs: int = 1,
) -> SearchOutcome:
    """Decide whether some 2-coloring of K_n avoids ``p_red`` in color 1 and
    ``p_blue`` in color 2.  Returns a witness coloring (re-validated by the
    full detectors) or an exhausted verdict; raises BudgetExhausted when the
    budget runs out first.  Verdict, witness, and counters do not depend on
    ``jobs``."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    _check_target(p_red)
    _check_target(p_blue)
    cap = budget.max_nodes if budget is not None and budget.max_nodes is not None else float("inf")
    deadline = (
        time.monotonic() + budget.max_time if budget is not None and budget.max_time is not None else None
    )
    total = n * (n - 1) // 2
    if total == 0:
        witness = ColoredCompleteGraph(1, 2, [])
        return SearchOutcome("witness", witness, 0, 0)

    depth = min(SPLIT_DEPTH, total - 1) if total > 1 else 0
    prefixes, acc_nodes, acc_prunes, truncated = _explore(n, p_red, p_blue, (), depth, False, cap, deadline)
    if truncated is not None:
        raise BudgetExhausted(truncated, cap if truncated == "nodes" else acc_nodes)

    witness_colors = None
    pooled = jobs > 1 and len(prefixes) > 1
    with ProcessPoolExecutor(max_workers=jobs) if pooled else nullcontext() as pool:
        for wave_start in range(0, len(prefixes), jobs):
            wave = prefixes[wave_start : wave_start + jobs]
            # every task in a wave gets the full remaining cap; the in-order
            # fold below restores exact sequential accounting
            tasks = [(n, p_red, p_blue, prefix, cap - acc_nodes, deadline) for prefix in wave]
            for found, nodes, prunes, truncated in (pool.map if len(wave) > 1 else map)(_subtree_task, tasks):
                acc_nodes += nodes
                acc_prunes += prunes
                if truncated == "time":
                    raise BudgetExhausted("time", acc_nodes)
                if acc_nodes > cap:
                    raise BudgetExhausted("nodes", cap)
                if found is not None:
                    witness_colors = found
                    break
            if witness_colors is not None:
                break

    if witness_colors is None:
        return SearchOutcome("exhausted", None, acc_nodes, acc_prunes)
    witness = ColoredCompleteGraph(n, 2, witness_colors)
    for p, color in ((p_red, 1), (p_blue, 2)):
        if contains_pattern(witness, p, color) is not None:
            raise RuntimeError("internal: witness coloring failed detector re-validation")
    return SearchOutcome("witness", witness, acc_nodes, acc_prunes)


def ramsey_number(
    p_a: Pattern,
    p_b: Pattern,
    n_max: int,
    budget: SearchBudget | None = None,
    jobs: int = 1,
) -> RamseyCertificate:
    """Smallest n <= n_max whose search is exhausted, certified by the
    extremal witness at n - 1.  Each order gets the full budget."""
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    previous: SearchOutcome | None = None
    for n in range(2, n_max + 1):
        outcome = search_two_color(n, p_a, p_b, budget=budget, jobs=jobs)
        if outcome.verdict == "exhausted":
            # search_two_color already re-validated the witness it returned
            witness = previous.witness if previous is not None else ColoredCompleteGraph(1, 2, [])
            return RamseyCertificate(n, witness, previous, outcome)
        previous = outcome
    raise NotFoundBelowCap(f"every order up to {n_max} still admits a valid coloring")


@dataclass(frozen=True)
class ClaimReport:
    """A certified value held against the linear claim 2*max(s, t) - 1."""

    expected: int
    certificate: RamseyCertificate
    divergence: str | None

    @property
    def value(self) -> int:
        return self.certificate.value

    @property
    def matches(self) -> bool:
        return self.value == self.expected

    def to_json_dict(self) -> dict:
        exhausted = self.certificate.exhausted_outcome
        return {
            "value": self.value,
            "expected": self.expected,
            "match": self.matches,
            "witness_order": self.certificate.witness.n,
            "exhaustion": {"order": self.value, "nodes": exhausted.nodes, "prunes": exhausted.prunes},
            "divergence": self.divergence,
        }


def certify_claim(
    family: str,
    s: int,
    t: int,
    n_max: int | None = None,
    budget: SearchBudget | None = None,
    jobs: int = 1,
) -> ClaimReport:
    """Certify by search the two-color value for the family's targets on s
    and t vertices and hold it against 2*max(s, t) - 1, trying orders up to
    ``n_max`` (default: two above the claim).  Size 3 is allowed with
    triangle semantics; its true value 6 comes with a divergence note."""
    _check_family(family)
    if min(s, t) < 3:
        raise ValueError("pattern sizes below 3 are not meaningful targets here")
    expected, cap = linear_claim(s, t)
    certificate = ramsey_number(
        Pattern(family, s),
        Pattern(family, t),
        n_max=cap if n_max is None else n_max,
        budget=budget,
        jobs=jobs,
    )
    return ClaimReport(expected, certificate, size_three_divergence(s, t, certificate.value))
