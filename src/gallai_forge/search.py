"""Exhaustive two-color Ramsey search with incremental pruning.

Edges of K_n are assigned in a fixed order (all edges into vertex v before
vertex v+1, lower endpoint ascending), depth-first, color 1 before color 2.
A branch is cut as soon as the partial coloring would contain the first
target in color 1 or the second in color 2.  Each color is tested on the next
edge before the edge is placed: only copies through that edge can be new, so
each node tests only those instead of scanning the whole coloring, and a
pruned color never touches the coloring.  Star-plus from 4 vertices gets a
bitmask test.  Every other target anchors the new edge on one ordered
pattern edge (arc) per orbit of the target's automorphism group and walks
the remaining roles from there: one arc for cycles and cliques, two for
stars, 2t - 3 for path-plus on t vertices.  Every target is connected, so no
arc is walked unless the new edge's component in that color, the union of its
endpoints' components, has at least as many vertices as the target; an arc
is walked only when both endpoints of the new edge, counting it, have at
least the pattern degree of the roles placed on them.  The search keeps the
placed colors, the row rule's ties and, per color, adjacency rows (degrees
are their popcounts) and the triangle count, which placing an edge raises by
its endpoints' common neighbors in its color and taking it off lowers again.
A target with a triangle (any on 3 vertices, path-plus from 5, cliques from
4) has no copy in a color that has no triangle and gains none with the new
edge, so there the generic checker answers before its component test.
When both targets coincide the first edge is fixed to color 1 (color swap).

Relabeling the vertices of a valid coloring gives a valid coloring, so the
search breaks that symmetry too, with a lex-leader predicate for the swap
of every two vertices i < j (Crawford, Ginsberg, Luks and Roy, KR 1996):
row i of the color matrix, outside entries i and j, stays lexicographically
at most row j, read in ascending column order.  Swapping i and j changes
the edge sequence first at the entries {x, i} and {x, j}, x not i or j, in
ascending x, so the rule holds exactly when the coloring is no greater than
its image under the swap.  The least coloring of each class keeps every
such rule and the color-swap rule, so each class is still met and verdicts
stand.  The plain DFS returns the least valid coloring, which is least in
its class and never cut, so the witness is the same byte for byte.
``reference=True`` runs the plain DFS, the oracle for this rule.

A time budget's clock is read about every 10 ms of search: the stride between
reads adapts to the observed node rate, from 1 to 8192 nodes, since a node
on a dense prefix can cost milliseconds.  The node cap is exact.

One job walks the whole tree in one DFS that stops at the first witness.
Edges into vertex v come before those into v + 1, so the order-n tree is the
top C(n, 2) levels of the order-m tree for every m > n, and there the deeper
walk visits the same nodes in the same order: the row rule and the checkers
read only placed edges.  So ``ramsey_number`` carries the DFS from order to
order: order n + 1 resumes the walk at order n's witness leaf and places the
edges into vertex n from there.  No node is walked twice, and each order
still counts, finds and stops at the node cap as a fresh search would.  For
the same reason parallel runs cut the order-n tree at the colorings of its
first min(n, SPLIT_ORDER) vertices, reached at the same counters as in the
one DFS.  The subtrees below them stream through one worker pool, a lone
subtree in this process, and one loop folds their counters onto those marks
in prefix order, so verdict, witness, node and prune counters, and the node
cap's stop match the single-job DFS exactly.  ``ramsey_number`` starts at
most one worker pool for all of its orders; each pooled order starts its
walk afresh.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import nullcontext
from dataclasses import dataclass

from .formulas import _check_family, linear_claim, size_three_divergence
from .graphs import ColoredCompleteGraph
from .patterns import Pattern, _plan, _role_zero_on_triangle, _walk, contains_pattern

# the order whose colorings are the prefixes the tree is cut into
SPLIT_ORDER = 4


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
def _anchors(p: Pattern) -> tuple[tuple[int, int, int, int, tuple], ...]:
    """One ordered pattern edge (arc) per orbit of Aut(p), the first of each
    orbit in edge order, forward before reverse, as (a, b, the degrees roles
    a and b need before the new edge, the walk plan from a and b).  An arc
    is dropped when the walker, run on p's own adjacency, embeds p in itself
    with an earlier representative on that arc: an injective self-map that
    keeps every edge is an automorphism."""
    masks = [0] * p.size
    for i, j in p.edges():
        masks[i] |= 1 << j
        masks[j] |= 1 << i
    reps: list[tuple[int, int, int, int, tuple]] = []
    for i, j in p.edges():
        for a, b in ((i, j), (j, i)):
            pair = (1 << a) | (1 << b)
            if not any(_walk(steps, 0, {x: a, y: b}, pair, masks) for x, y, _, _, steps in reps):
                reps.append((a, b, masks[a].bit_count() - 1, masks[b].bit_count() - 1, _plan(p, (a, b))))
    return tuple(reps)


def _make_checker(p: Pattern, adj: list, tri: list):
    """Build hit(u, v): would giving {u, v} the color whose adjacency rows
    ``adj`` describe create a copy of ``p`` through it?  The rows do not
    hold {u, v} yet, so the search tests each edge before placing it.  The
    answer does not assume that the rows are free of ``p``.

    Star-plus from 4 vertices (path-plus on 4 is the same graph) gets a
    bitmask checker, every other target the generic one.  ``tri[0]`` is the
    number of triangles the rows hold.  When ``p`` has a triangle, the
    generic checker answers no at once if that number is 0 and u and v have
    no common neighbor: the color stays triangle-free with {u, v}, so it
    holds no copy, and neither the reach search nor any walk runs.  The
    star-plus checker has no such gate: without a common neighbor it only
    scans the rows of u and v, and the gate saved no measurable time
    there."""
    kind, size = p.kind, p.size
    if size > 3 and (kind == "star-plus" or (kind == "path-plus" and size == 4)):
        # path-plus on 4 vertices is the same graph as star-plus on 4; on 3
        # the scans of N(u) below would report triangles that miss {u, v}.
        # The new edge is either leaf-to-leaf (any common neighbor with
        # enough degree is a center) or center-to-leaf: the center u (or v)
        # reaches enough degree with the new edge, and N(u) + v holds an
        # edge, which is a common neighbor or an edge inside N(u).
        need = size - 1
        need_before = need - 1  # degree a center needs before the new edge

        def hit_star_plus(u: int, v: int) -> bool:
            au = adj[u]
            av = adj[v]
            u_center = au.bit_count() >= need_before
            v_center = av.bit_count() >= need_before
            common = au & av
            if common and (u_center or v_center):
                return True
            while common:
                low = common & -common
                if adj[low.bit_length() - 1].bit_count() >= need:
                    return True
                common ^= low
            if u_center:
                rest = au
                while rest:
                    low = rest & -rest
                    if adj[low.bit_length() - 1] & au:
                        return True
                    rest ^= low
            if v_center:
                rest = av
                while rest:
                    low = rest & -rest
                    if adj[low.bit_length() - 1] & av:
                        return True
                    rest ^= low
            return False

        return hit_star_plus

    # anchor {u, v} on one arc per orbit: a copy that puts any arc of an
    # orbit on (u, v) can be moved by an automorphism onto its representative.
    # The walk never reads {u, v} itself: u and v start out used.
    anchors = _anchors(p)
    assign = [0] * size
    gated = _role_zero_on_triangle(p)  # the kinds with a triangle all have one at role 0

    def hit_generic(u: int, v: int) -> bool:
        if gated and not tri[0] and not adj[u] & adj[v]:
            return False
        # every pattern is connected, so a copy through {u, v} lies in the
        # component the new edge makes of theirs: it needs ``size`` vertices
        pair = reach = frontier = (1 << u) | (1 << v)
        while reach.bit_count() < size:
            grown = reach
            while frontier:
                low = frontier & -frontier
                grown |= adj[low.bit_length() - 1]
                frontier ^= low
            if grown == reach:
                return False
            frontier = grown ^ reach
            reach = grown
        du = adj[u].bit_count()
        dv = adj[v].bit_count()
        for a, b, need_a, need_b, steps in anchors:
            # roles a and b cannot land on u and v without their pattern
            # degree, the new edge included
            if du >= need_a and dv >= need_b:
                assign[a] = u
                assign[b] = v
                if _walk(steps, 0, assign, pair, adj):
                    return True
        return False

    return hit_generic


# a time budget's clock is read about once per CLOCK_TICK seconds of search
# and at least every MAX_STRIDE nodes: a fixed stride would overshoot the
# deadline by seconds where nodes cost milliseconds
CLOCK_TICK = 0.01
MAX_STRIDE = 8192


def _explore(n, p_red, p_blue, prefix, cap, deadline, reference=False):
    """Iterative DFS of the order-n tree from a fixed valid prefix, as a
    generator.  Each color is tested on an edge before it is placed, so
    a pruned node leaves the coloring untouched.  Its state is each color's
    rows ``adj`` and triangle count ``tri``, each level's color ``col``, and
    ``tie`` and ``saved`` for the row rule.  A level's next color is
    ``floor`` of it on arrival and one above its color after a backtrack.

    Unless ``reference``, the row rule holds: for i < j, row i outside
    entries i and j is lexicographically at most row j.  Edge (u, v) is
    entry u of row v and entry v of row u, so it decides the rows tied with
    row v at column u and those tied with row u at column v; where color 1
    would make such a row greater than its partner, the edge starts at
    color 2.  Color 1 there would make the swap of the two rows' vertices
    lower the coloring at its first changed edge, so no completion is least
    in its class; it is skipped, not tried, and counts as neither node nor
    prune.  The least valid coloring, the plain DFS's witness, is least in
    its class and is still found first.  ``tie`` is rebuilt while the
    prefix is replayed, so counters do not depend on where the tree is
    split.

    Yields (leaf, nodes, prunes, None) at each coloring of K_n, with the
    counters at which it was reached, and last (None, nodes, prunes,
    truncated), truncated being None, "nodes" or "time".  Sending
    (m, deadline) at a leaf of a walk from the empty prefix deepens it to
    order m > n: the walk goes on to place the edges into vertices n to
    m - 1, under the new deadline, a fresh clock stride and the same cap.
    """
    # per-color state, indexed by color 1 or 2
    adj = (None, [], [])
    tri = (None, [0], [0])  # tri[c][0]: the triangles in color c
    edges = []
    col = []
    # tie[j]: the i < j whose rows still agree with row j, outside entries i
    # and j, on the edges placed so far (all of them before column j);
    # saved[e]: (tie[u], tie[v]) from before edge e = (u, v) was placed
    tie = []
    saved = []
    blue = adj[2]

    def grow(m):
        # vertices len(tie) to m - 1, whose edges come after all others
        for v in range(len(tie), m):
            edges.extend((u, v, 1 << u, 1 << v) for u in range(v))
            for c in (1, 2):
                adj[c].append(0)
            tie.append((1 << v) - 1)
        added = len(edges) - len(col)
        col.extend([0] * added)
        saved.extend([None] * added)

    grow(n)
    leaf_level = len(edges)
    hit = (None, _make_checker(p_red, adj[1], tri[1]), _make_checker(p_blue, adj[2], tri[2]))
    # when both targets coincide the first edge is fixed to color 1 (color swap)
    swap = 0 if p_red == p_blue else -1

    def floor(e):
        # the first color level e may take, once edges 0..e - 1 are placed:
        # color 1 at (u, v) would let a row i tied with row v exceed it at
        # column u, or a row i tied with row u exceed it at column v; tie[v]
        # holds u too, but blue[u] lacks bit u, the entry that pair skips
        if reference or e == leaf_level:
            return 1
        u, v, _, _ = edges[e]
        return 2 if (tie[v] & blue[u]) or (tie[u] & blue[v]) else 1

    def place(e, c):
        u, v, bu, bv = edges[e]
        col[e] = c
        a = adj[c]
        # the triangles {u, v} closes: the common neighbors in color c
        tri[c][0] += (a[u] & a[v]).bit_count()
        a[u] |= bv
        a[v] |= bu
        if not reference:
            # rows that differ at the new entry are no longer tied
            saved[e] = tie[u], tie[v]
            tie[v] &= a[u] | bu
            tie[u] &= a[v]

    for e, c in enumerate(prefix):
        place(e, c)
    base = len(prefix)
    c = floor(base)  # the next color to try at ``level``
    nodes = 0
    prunes = 0
    truncated = None
    clock = time.monotonic
    stride = 1
    seen = (0, clock())  # (nodes, time) at the last clock read

    def checkpoint(nodes):
        # run at node ``check_at``: tests the cap, then the clock, and returns
        # (why the search stops or None, the node to run at next)
        nonlocal stride, seen
        if nodes > cap:
            return "nodes", 0
        step = sys.maxsize
        if deadline is not None:
            now = clock()
            if now > deadline:
                return "time", 0
            done, elapsed = nodes - seen[0], now - seen[1]
            # aim at one read per CLOCK_TICK, growing the stride at most
            # twofold per read in case nodes grow dearer
            rate_stride = int(done * CLOCK_TICK / elapsed) if elapsed > 0 else MAX_STRIDE
            stride = step = max(1, min(MAX_STRIDE, 2 * stride, rate_stride))
            seen = (nodes, now)
        return None, min(nodes + step, cap + 1)

    check_at = 1
    level = base
    while True:
        if level < leaf_level:
            u, v, bu, bv = edges[level]
            last = 1 if level == swap else 2
            while c <= last:
                nodes += 1
                if nodes >= check_at:
                    truncated, check_at = checkpoint(nodes)
                    if truncated is not None:
                        break
                if not hit[c](u, v):
                    break
                prunes += 1
                c += 1
            if truncated is not None:
                break
            if c <= last:
                place(level, c)
                level += 1
                c = floor(level)
                continue
        else:
            deeper = yield tuple(col), nodes, prunes, None
            if deeper is not None:
                # the leaf becomes an inner node of the order-m tree; the
                # cap stays, and the clock is read at the next node
                m, deadline = deeper
                grow(m)
                leaf_level = len(edges)
                c = floor(level)
                stride, seen, check_at = 1, (nodes, clock()), nodes + 1
                continue
        # backtrack: take the edge at level - 1 off
        level -= 1
        if level < base:
            break
        u, v, bu, bv = edges[level]
        c = col[level]
        a = adj[c]
        a[u] ^= bv
        a[v] ^= bu
        tri[c][0] -= (a[u] & a[v]).bit_count()
        if not reference:
            tie[u], tie[v] = saved[level]
        c += 1
    yield None, nodes, prunes, truncated


def _subtree_task(args):
    # the subtree's first leaf, or its end
    return next(_explore(*args))


class _Run:
    """What a search keeps from one order to the next: the one-job walker,
    paused at the last witness leaf, and the worker processes for the
    subtrees.  These start at the first ``map`` of two or more tasks, no
    more of them than an order has prefixes, so ``ramsey_number`` starts at
    most one pool for all of its orders and small orders start none; on
    exit, subtrees still queued are dropped."""

    def __init__(self, jobs: int):
        self.jobs = jobs
        self.walker = None
        self.executor = None

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        if self.executor is not None:
            self.executor.shutdown(cancel_futures=True)

    def map(self, fn, tasks):
        if len(tasks) <= 1:  # a worker would only add its round trip
            return map(fn, tasks)
        if self.executor is None:
            # imported here: only pooled runs pay for multiprocessing
            from concurrent.futures import ProcessPoolExecutor

            prefixes = 2 ** (SPLIT_ORDER * (SPLIT_ORDER - 1) // 2)
            self.executor = ProcessPoolExecutor(max_workers=min(self.jobs, prefixes))
        return self.executor.map(fn, tasks)


def _check_target(p: Pattern) -> None:
    if p.size < 2:
        raise ValueError(f"search targets need at least one edge, got {p.kind} on {p.size} vertex")


def search_two_color(
    n: int,
    p_red: Pattern,
    p_blue: Pattern,
    budget: SearchBudget | None = None,
    jobs: int = 1,
    reference: bool = False,
    *,
    _run: _Run | None = None,
) -> SearchOutcome:
    """Decide whether some 2-coloring of K_n avoids ``p_red`` in color 1 and
    ``p_blue`` in color 2.  Returns a witness coloring (re-validated by the
    full detectors) or an exhausted verdict; raises BudgetExhausted when the
    budget runs out first.  Verdict, witness, counters and budget stops do
    not depend on ``jobs``.  ``reference`` runs the plain DFS, without the
    row rule: same verdict and witness, larger counters.  ``_run`` is the
    ``_Run`` that ``ramsey_number`` carries across its orders; alone, a
    search opens its own."""
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if jobs < 1:
        raise ValueError(f"need jobs >= 1, got {jobs}")
    _check_target(p_red)
    _check_target(p_blue)
    budget = budget or SearchBudget()
    cap = budget.max_nodes if budget.max_nodes is not None else float("inf")
    deadline = time.monotonic() + budget.max_time if budget.max_time is not None else None
    run = _run if _run is not None else _Run(jobs)

    if jobs == 1:
        # one DFS over the whole tree, up to its first leaf, resumed from the
        # run's last witness leaf if it holds one
        walker, run.walker = run.walker, None
        if walker is not None:
            found, nodes, prunes, truncated = walker.send((n, deadline))
        else:
            walker = _explore(n, p_red, p_blue, (), cap, deadline, reference)
            found, nodes, prunes, truncated = next(walker)
        if truncated is not None:
            raise BudgetExhausted(truncated, cap if truncated == "nodes" else nodes)
        if found is not None:
            run.walker = walker
    else:
        # the pool gets the subtrees below the colorings of the first
        # SPLIT_ORDER vertices; this phase, at most 126 nodes, runs uncapped,
        # and the fold judges the cap
        prefixes, marks = [], []
        for prefix, prefix_nodes, prefix_prunes, truncated in _explore(
            min(n, SPLIT_ORDER), p_red, p_blue, (), float("inf"), deadline, reference
        ):
            if prefix is not None:
                prefixes.append(prefix)
                marks.append((prefix_nodes, prefix_prunes))
        if truncated is not None:
            raise BudgetExhausted(truncated, prefix_nodes)

        # The sequential DFS reaches prefix i after marks[i] prefix nodes and
        # the subtrees before it, so folding the subtrees in prefix order
        # gives its counters, and its node cap trips at the same subtree.
        # Each subtree may walk up to the cap less its mark; the fold judges
        # the cap exactly.
        found = None
        sub_nodes = sub_prunes = 0  # over the subtrees folded so far
        tasks = [
            (n, p_red, p_blue, prefix, cap - mark[0], deadline, reference) for prefix, mark in zip(prefixes, marks)
        ]
        with run if _run is None else nullcontext():
            for mark, (found, nodes, prunes, truncated) in zip(marks, run.map(_subtree_task, tasks)):
                sub_nodes += nodes
                sub_prunes += prunes
                if mark[0] + sub_nodes > cap:
                    raise BudgetExhausted("nodes", cap)
                if truncated == "time":
                    raise BudgetExhausted("time", mark[0] + sub_nodes)
                if found is not None:
                    # the DFS stops here, before the rest of the prefix phase
                    prefix_nodes, prefix_prunes = mark
                    break
        nodes, prunes = prefix_nodes + sub_nodes, prefix_prunes + sub_prunes
        if found is None and nodes > cap:
            raise BudgetExhausted("nodes", cap)
    if found is None:
        return SearchOutcome("exhausted", None, nodes, prunes)
    witness = ColoredCompleteGraph(n, 2, found)
    for p, color in ((p_red, 1), (p_blue, 2)):
        if contains_pattern(witness, p, color) is not None:
            raise RuntimeError("internal: witness coloring failed detector re-validation")
    return SearchOutcome("witness", witness, nodes, prunes)


def ramsey_number(
    p_a: Pattern,
    p_b: Pattern,
    n_max: int,
    budget: SearchBudget | None = None,
    jobs: int = 1,
    reference: bool = False,
) -> RamseyCertificate:
    """Smallest n <= n_max whose search is exhausted, certified by the
    extremal witness at n - 1.  Each order is one ``search_two_color``
    call with the full budget: its node cap against its own counters, and
    a fresh deadline.  ``reference`` runs every order with the plain DFS.
    The orders share one ``_Run``, so one job walks no node twice and a
    pooled run starts at most one pool."""
    if n_max < 2:
        raise ValueError(f"need n_max >= 2, got {n_max}")
    previous: SearchOutcome | None = None
    with _Run(jobs) as run:
        for n in range(2, n_max + 1):
            outcome = search_two_color(n, p_a, p_b, budget=budget, jobs=jobs, reference=reference, _run=run)
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
