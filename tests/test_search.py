from __future__ import annotations

import concurrent.futures
import hashlib
import itertools
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gallai_forge import search
from gallai_forge.graphs import ColoredCompleteGraph, encode
from gallai_forge.patterns import _MIN_SIZE, PATTERN_KINDS, Pattern, brute_force_find, contains_pattern
from gallai_forge.search import (
    BudgetExhausted,
    NotFoundBelowCap,
    SearchBudget,
    certify_claim,
    ramsey_number,
    search_two_color,
)

TRI = Pattern.clique(3)
SP4 = Pattern.star_plus(4)
PP4 = Pattern.path_plus(4)


def _enum_has_avoider(n: int, pa: Pattern, pb: Pattern) -> bool:
    edges = n * (n - 1) // 2
    for bits in range(1 << edges):
        tri = [1 + ((bits >> i) & 1) for i in range(edges)]
        g = ColoredCompleteGraph(n, 2, tri)
        if contains_pattern(g, pa, 1) is None and contains_pattern(g, pb, 2) is None:
            return True
    return False


@pytest.mark.parametrize(
    "n,pa,pb",
    [
        (3, TRI, TRI),
        (4, TRI, TRI),
        (5, TRI, TRI),
        (5, SP4, SP4),
        (4, Pattern.cycle(4), Pattern.cycle(4)),
        (4, Pattern.path(4), Pattern.path(4)),
        (5, Pattern.path(4), Pattern.path(4)),
        (4, Pattern.star(4), Pattern.star(4)),
        (5, TRI, SP4),
        (5, Pattern.cycle(4), TRI),
    ],
)
def test_verdict_matches_full_enumeration(n, pa, pb):
    out = search_two_color(n, pa, pb)
    assert (out.verdict == "witness") == _enum_has_avoider(n, pa, pb)
    if out.verdict == "witness":
        w = out.witness
        assert contains_pattern(w, pa, 1) is None
        assert brute_force_find(w, pb, 2) is None


def _edges_and_rows(rows):
    """The edges {a, b}, a < b, that ``rows`` hold, and the rows they give."""
    n = len(rows)
    edges = {(a, b) for b in range(n) for a in range(b) if rows[b] >> a & 1}
    rebuilt = [0] * n
    for a, b in edges:
        rebuilt[a] |= 1 << b
        rebuilt[b] |= 1 << a
    return edges, rebuilt


def test_every_prune_is_justified(monkeypatch):
    make_checker = search._make_checker

    def checked(p, adj, deg):
        hit = make_checker(p, adj, deg)
        states.append((adj, deg))  # the search builds color 1's checker, then color 2's

        def hit_and_check(u, v):
            # the colors hold exactly the search's edges before {u, v}, each
            # once, with symmetric rows and their degrees; a pruned edge left
            # in place or a stale backtrack breaks this
            n = len(adj)
            order = [(a, b) for b in range(1, n) for a in range(b)]
            (red, red_rows), (blue, blue_rows) = (_edges_and_rows(rows) for rows, _ in states[-2:])
            assert red | blue == set(order[: order.index((u, v))]) and not red & blue
            assert [red_rows, blue_rows] == [rows for rows, _ in states[-2:]]
            assert all(d == [row.bit_count() for row in rows] for rows, d in states[-2:])
            if not hit(u, v):
                return False
            # {u, v} and the edges in this checker's color become color 1,
            # all others color 2
            g = ColoredCompleteGraph(
                n, 2, [1 if adj[a] >> b & 1 or (b, a) == (u, v) else 2 for a in range(1, n) for b in range(a)]
            )
            hits.append(brute_force_find(g, p, 1) is not None)
            return True

        return hit_and_check

    monkeypatch.setattr(search, "_make_checker", checked)
    for n, pa, pb in [(6, SP4, PP4), (7, SP4, SP4)]:
        states = []  # (adjacency rows, degrees) of each checker built
        hits = []  # whether brute force finds the target, per hit
        out = search_two_color(n, pa, pb)
        assert all(hits)
        assert len(hits) == out.prunes > 0


def _copy_through_edge(p, color_of, n, u, v, c):
    # some injective placement of p's roles whose edges all have color c and
    # one of which lands on {u, v}; nothing shared with the search's checkers
    edges = p.edges()
    for vs in itertools.permutations(range(n), p.size):
        placed = [{vs[i], vs[j]} for i, j in edges]
        if {u, v} in placed and all(color_of[frozenset(e)] == c for e in placed):
            return True
    return False


def _assert_checker_matches_oracle(p, n, data, palette):
    # a partial 2-coloring (0 = not yet assigned) about to give {u, v} color
    # c: the checker's rows omit {u, v}, the oracle's coloring has it in c;
    # the other pairs draw their colors from ``palette(c)``
    c = data.draw(st.sampled_from((1, 2)))
    pairs = list(itertools.combinations(range(n), 2))
    colors = data.draw(st.lists(st.sampled_from(palette(c)), min_size=len(pairs), max_size=len(pairs)))
    u, v = data.draw(st.sampled_from(pairs))
    color_of = {frozenset(e): col for e, col in zip(pairs, colors)}
    color_of[frozenset((u, v))] = c
    adj = [0] * n
    deg = [0] * n
    for e, col in color_of.items():
        if col == c and e != {u, v}:
            a, b = e
            adj[a] |= 1 << b
            adj[b] |= 1 << a
            deg[a] += 1
            deg[b] += 1
    hit = search._make_checker(p, adj, deg)
    expected = _copy_through_edge(p, color_of, n, u, v, c)
    assert hit(u, v) == expected
    assert hit(v, u) == expected


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    p=st.builds(Pattern, st.sampled_from(PATTERN_KINDS), st.integers(3, 5)),
    n=st.integers(2, 7),
    data=st.data(),
)
def test_checker_matches_permutation_oracle(p, n, data):
    # c is drawn more often than the rest so that copies occur
    _assert_checker_matches_oracle(p, n, data, lambda c: (c, c, c, 3 - c, 0))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    p=st.builds(Pattern, st.sampled_from(PATTERN_KINDS), st.integers(3, 5)),
    n=st.integers(5, 9),
    data=st.data(),
)
def test_checker_matches_permutation_oracle_on_sparse_colors(p, n, data):
    # color c is sparse, so it often falls apart into components too small
    # for p, where the generic checker answers before it walks an arc
    _assert_checker_matches_oracle(p, n, data, lambda c: (c, 3 - c, 0, 0))


# the sha256 of each pinned pair's witness GCG bytes: the default search and
# the plain DFS (reference=True) find the same witness
WITNESS_SHA256 = {
    "C5-C5": "e880e915434c343207180fd1512aae75163ff8441abe8769c112874d6781b57c",
    "P5-P5": "c22839c614192022780b0b6e4e7ab8efc65d8501ca010715ebf79180d0a3c179",
    "P4-P5": "f96c3a1d544f7589c1ce64b305e030982874126f89bef6c672b08aad488ab909",
    "K3-K3": "a7cee0e59b8778d2b0af78cdedc017920ce2fc0179978f5513474828b21cab09",
    "S4-S4": "52b191a7c883e1202e5c2b1fec05e0ee9a1745042ac8cb1327c7b2bd80b5f3de",
    "S5-S5": "c22839c614192022780b0b6e4e7ab8efc65d8501ca010715ebf79180d0a3c179",
    "S4-S6": "2f18e90387cc0b198a629e27c00239761c60ed85329a5c504359f6f96c5c0b66",
}


def _sha256(witness):
    return hashlib.sha256(encode(witness).encode("ascii")).hexdigest()


PINNED_PAIRS = {
    "C5-C5": (Pattern.cycle(5), Pattern.cycle(5), 9),
    "P5-P5": (Pattern.path_plus(5), Pattern.path_plus(5), 9),
    "P4-P5": (PP4, Pattern.path_plus(5), 9),
    "K3-K3": (TRI, TRI, 6),
    "S4-S4": (SP4, SP4, 7),
    "S5-S5": (Pattern.star_plus(5), Pattern.star_plus(5), 9),
    "S4-S6": (SP4, Pattern.star_plus(6), 11),
}


def _assert_pinned(name, witness_counts, exhausted_counts, reference, jobs=1, targets=None):
    # ``targets`` replaces the pair's own targets with ones that must search alike
    pa, pb, value = PINNED_PAIRS[name]
    if targets is not None:
        pa, pb = targets
    cert = ramsey_number(pa, pb, n_max=value, jobs=jobs, reference=reference)
    assert cert.value == value
    assert (cert.witness_outcome.nodes, cert.witness_outcome.prunes) == witness_counts
    assert (cert.exhausted_outcome.nodes, cert.exhausted_outcome.prunes) == exhausted_counts
    assert _sha256(cert.witness) == WITNESS_SHA256[name]


def _pins(rows):
    return pytest.mark.parametrize("name, witness_counts, exhausted_counts", rows, ids=[row[0] for row in rows])


# the plain DFS's (nodes, prunes) at the witness and exhausted orders, for
# pairs the generic checker serves
@_pins([
    ("C5-C5", (285, 136), (57181, 28591)),
    ("P5-P5", (44, 16), (3463, 1732)),
    ("P4-P5", (80, 32), (2768, 1385)),
])
def test_generic_checker_counters_are_pinned(name, witness_counts, exhausted_counts):
    _assert_pinned(name, witness_counts, exhausted_counts, reference=True)


# the same, for pairs the triangle and star-plus checkers serve
@_pins([
    ("K3-K3", (47, 21), (325, 163)),
    ("S4-S4", (24, 9), (539, 270)),
    ("S5-S5", (44, 16), (19837, 9919)),
    ("S4-S6", (163, 69), (636336, 318169)),
])
def test_bitmask_checker_counters_are_pinned(name, witness_counts, exhausted_counts):
    _assert_pinned(name, witness_counts, exhausted_counts, reference=True)


# the default search's counters on the same pairs: the row rule shrinks
# every tree and leaves every witness as it was
@_pins([
    ("C5-C5", (107, 28), (769, 229)),
    ("P5-P5", (29, 1), (274, 89)),
    ("P4-P5", (53, 7), (156, 50)),
    ("K3-K3", (27, 7), (51, 18)),
    ("S4-S4", (16, 1), (95, 31)),
    ("S5-S5", (29, 1), (513, 163)),
    ("S4-S6", (86, 10), (1509, 467)),
])
def test_symmetry_pruned_counters_are_pinned(name, witness_counts, exhausted_counts):
    _assert_pinned(name, witness_counts, exhausted_counts, reference=False)


# the clique, cycle, star-plus and path-plus on three vertices are all the
# triangle, so each searches as K3-K3 does, in both modes and at any job count
@pytest.mark.parametrize("kind", ["clique", "cycle", "star-plus", "path-plus"])
@pytest.mark.parametrize("jobs", [1, 2])
@pytest.mark.parametrize(
    "reference, witness_counts, exhausted_counts",
    [(False, (27, 7), (51, 18)), (True, (47, 21), (325, 163))],
    ids=["default", "reference"],
)
def test_size_three_kinds_search_as_the_triangle(kind, jobs, reference, witness_counts, exhausted_counts):
    target = Pattern(kind, 3)
    _assert_pinned("K3-K3", witness_counts, exhausted_counts, reference, jobs=jobs, targets=(target, target))


# every kind on 2 to 5 vertices, where the kind allows it
TARGETS = st.sampled_from(PATTERN_KINDS).flatmap(
    lambda kind: st.builds(Pattern, st.just(kind), st.integers(max(2, _MIN_SIZE[kind]), 5))
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(pa=TARGETS, pb=TARGETS, n=st.integers(2, 8))
def test_symmetry_pruning_keeps_the_plain_dfs_answers(pa, pb, n):
    try:
        ref = search_two_color(n, pa, pb, budget=SearchBudget(max_nodes=20_000), reference=True)
    except BudgetExhausted:
        return
    out = search_two_color(n, pa, pb)
    assert out.verdict == ref.verdict
    if ref.witness is not None:
        assert encode(out.witness) == encode(ref.witness)
    # the pruned tree is a subtree of the plain one, walked in the same order
    # up to the same first leaf
    assert out.nodes <= ref.nodes and out.prunes <= ref.prunes


def _rows_ascend(n, colors):
    # for all i < j, row i lexicographically at most row j outside entries i
    # and j, read in ascending column order
    m = [[0] * n for _ in range(n)]
    for (u, v), c in zip([(u, v) for v in range(1, n) for u in range(v)], colors):
        m[u][v] = m[v][u] = c
    return all(
        [m[i][x] for x in range(n) if x not in (i, j)] <= [m[j][x] for x in range(n) if x not in (i, j)]
        for j in range(n)
        for i in range(j)
    )


def _every_leaf(n, pa, pb, reference):
    walk = search._explore(n, pa, pb, (), float("inf"), None, reference)
    return [leaf for leaf, _, _, _ in walk if leaf is not None]


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(pa=TARGETS, pb=TARGETS, n=st.integers(2, 6))
def test_symmetry_pruning_keeps_exactly_the_ascending_colorings(pa, pb, n):
    # every valid coloring, in search order: the rule drops those whose
    # rows do not ascend and no other
    assert _every_leaf(n, pa, pb, False) == [x for x in _every_leaf(n, pa, pb, True) if _rows_ascend(n, x)]


def _orbit(n, colors, swap):
    # the coloring under every relabeling of the vertices, and under the
    # color swap too when ``swap``
    order = [(u, v) for v in range(1, n) for u in range(v)]
    col = dict(zip(order, colors))
    orbit = set()
    for perm in itertools.permutations(range(n)):
        image = tuple(col[min(perm[u], perm[v]), max(perm[u], perm[v])] for u, v in order)
        orbit.add(image)
        if swap:
            orbit.add(tuple(3 - c for c in image))
    return orbit


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(pa=TARGETS, pb=TARGETS, n=st.integers(2, 5))
def test_symmetry_pruning_keeps_the_least_of_every_class(pa, pb, n):
    # brute force over the symmetry group, sharing no code with the rule:
    # each class of valid colorings keeps its least member
    pruned = set(_every_leaf(n, pa, pb, False))
    seen = set()
    for leaf in _every_leaf(n, pa, pb, True):
        if leaf not in seen:
            orbit = _orbit(n, leaf, pa == pb)
            assert min(orbit) in pruned
            seen |= orbit


def _summary(n, out):
    return (n, out.verdict, out.nodes, out.prunes, out.witness and encode(out.witness))


def _fresh_orders(pa, pb, n_max, budget, reference):
    # ramsey_number's ascent as a loop of fresh searches: each order tried,
    # then how the ascent stopped
    tried = []
    for n in range(2, n_max + 1):
        try:
            out = search_two_color(n, pa, pb, budget=budget, reference=reference)
        except BudgetExhausted as exc:
            return tried + [(n, "budget", exc.reason, exc.nodes)]
        tried.append(_summary(n, out))
        if out.verdict == "exhausted":
            return tried + [("value", n)]
    return tried + [("not found",)]


def _deepened_orders(pa, pb, n_max, budget, reference, jobs=1):
    # the same from ramsey_number itself, its calls to search_two_color
    # wrapped as perfbench wraps them
    tried = []
    original = search.search_two_color

    def recorded(n, *args, **kwargs):
        try:
            out = original(n, *args, **kwargs)
        except BudgetExhausted as exc:
            tried.append((n, "budget", exc.reason, exc.nodes))
            raise
        tried.append(_summary(n, out))
        return out

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "search_two_color", recorded)
        try:
            cert = ramsey_number(pa, pb, n_max, budget=budget, jobs=jobs, reference=reference)
        except BudgetExhausted:
            return tried
        except NotFoundBelowCap:
            return tried + [("not found",)]
    assert [_summary(cert.value, cert.exhausted_outcome)] == tried[-1:]
    assert encode(cert.witness) == (tried[-2][4] if cert.value > 2 else encode(ColoredCompleteGraph(1, 2, [])))
    return tried + [("value", cert.value)]


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(pa=TARGETS, pb=TARGETS, reference=st.booleans())
def test_ramsey_number_deepens_as_fresh_searches_count(pa, pb, reference):
    # one DFS carried from order to order must report, at every order, what
    # a fresh search of that order reports, and try each order once
    budget = SearchBudget(max_nodes=5_000)
    tried = _deepened_orders(pa, pb, 8, budget, reference)
    assert [row[0] for row in tried[:-1]] == list(range(2, len(tried) + 1))
    assert tried == _fresh_orders(pa, pb, 8, budget, reference)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    name=st.sampled_from(["K3-K3", "S4-S4", "P4-P5", "P5-P5"]),
    reference=st.booleans(),
    jobs=st.sampled_from([1, 2]),
    data=st.data(),
)
def test_ramsey_number_node_cap_stops_as_fresh_searches_do(name, reference, jobs, data):
    # a cap up to the exhausted order's count stops the deepened DFS, or the
    # pooled run's stream of subtrees, at the order, and the node, where a
    # loop of fresh one-job searches stops
    pa, pb, value = PINNED_PAIRS[name]
    exhausted = search_two_color(value, pa, pb, reference=reference).nodes
    budget = SearchBudget(max_nodes=data.draw(st.integers(1, exhausted)))
    assert _deepened_orders(pa, pb, value, budget, reference, jobs) == _fresh_orders(
        pa, pb, value, budget, reference
    )


def test_path_plus_seven_certifies_thirteen():
    cert = ramsey_number(Pattern.path_plus(7), Pattern.path_plus(7), n_max=14)
    assert cert.value == 13
    assert (cert.exhausted_outcome.nodes, cert.exhausted_outcome.prunes) == (4477, 1418)


def test_star_plus_six_exhausts_eleven():
    sp6 = Pattern.star_plus(6)
    out = search_two_color(11, sp6, sp6)
    assert (out.verdict, out.nodes, out.prunes) == ("exhausted", 15651, 5520)


def test_single_vertex_search():
    out = search_two_color(1, TRI, TRI)
    assert out.verdict == "witness"
    assert out.witness.n == 1
    assert out.nodes == 0


def test_two_vertices_with_edge_targets():
    p2 = Pattern.path(2)
    out = search_two_color(2, p2, p2)
    assert out.verdict == "exhausted"
    assert out.nodes == 1  # the single edge, color 1 only by symmetry


def test_argument_validation():
    with pytest.raises(ValueError):
        search_two_color(0, TRI, TRI)
    with pytest.raises(ValueError):
        search_two_color(4, TRI, TRI, jobs=0)
    with pytest.raises(ValueError):
        search_two_color(4, Pattern.star(1), TRI)


def test_budget_validation():
    with pytest.raises(ValueError):
        SearchBudget(max_nodes=0)
    with pytest.raises(ValueError):
        SearchBudget(max_time=-1.0)
    with pytest.raises(ValueError):  # a NaN deadline would never pass
        SearchBudget(max_time=float("nan"))
    SearchBudget()  # unlimited is fine
    SearchBudget(max_time=float("inf"))


def test_node_budget_is_exact_and_job_independent():
    # the search of order 7 exhausts after 95 nodes
    for jobs in (1, 2):
        with pytest.raises(BudgetExhausted) as exc:
            search_two_color(7, SP4, SP4, budget=SearchBudget(max_nodes=80), jobs=jobs)
        assert exc.value.reason == "nodes"
        assert exc.value.nodes == 80


@pytest.mark.parametrize("jobs", [1, 2])
def test_node_cap_one_short_of_exhaustion_stops_the_search(jobs):
    # S4-S4 exhausts order 7 after 95 nodes and K3-K3 order 6 after 51; the
    # pooled prefix phase walks one node past its last prefix (23 and 19),
    # so only the check after the fold can trip
    for pa, pb, n, cap in [(SP4, SP4, 7, 94), (TRI, TRI, 6, 50)]:
        with pytest.raises(BudgetExhausted) as exc:
            search_two_color(n, pa, pb, budget=SearchBudget(max_nodes=cap), jobs=jobs)
        assert (exc.value.reason, exc.value.nodes) == ("nodes", cap)


def test_pooled_time_budget_stops_the_prefix_phase(monkeypatch):
    # the deadline has passed before the first node: no subtree is handed out
    monkeypatch.setattr(search._Run, "map", lambda *args: pytest.fail("a subtree was handed out"))
    with pytest.raises(BudgetExhausted) as exc:
        search_two_color(7, SP4, SP4, budget=SearchBudget(max_time=1e-9), jobs=2)
    assert exc.value.reason == "time"


def test_pooled_time_budget_stops_a_subtree(monkeypatch):
    # order 13 of (S_7^+, S_7^+) takes seconds, its prefix phase milliseconds
    handed_out = []
    pooled_map = search._Run.map

    def counting_map(run, fn, tasks):
        handed_out.append(len(tasks))
        return pooled_map(run, fn, tasks)

    monkeypatch.setattr(search._Run, "map", counting_map)
    sp7 = Pattern.star_plus(7)
    with pytest.raises(BudgetExhausted) as exc:
        search_two_color(13, sp7, sp7, budget=SearchBudget(max_time=0.3), jobs=2)
    assert exc.value.reason == "time"
    assert handed_out and handed_out[0] > 1


def test_generous_node_budget_completes():
    out = search_two_color(7, SP4, SP4, budget=SearchBudget(max_nodes=10**6))
    assert out.verdict == "exhausted"
    assert out.nodes == 95


def test_time_budget_reports():
    # order 13 of (S_7^+, S_7^+) takes seconds
    sp7 = Pattern.star_plus(7)
    with pytest.raises(BudgetExhausted) as exc:
        ramsey_number(sp7, sp7, n_max=14, budget=SearchBudget(max_time=0.25))
    assert exc.value.reason == "time"
    assert exc.value.nodes > 0


@pytest.mark.parametrize("target", [Pattern.path_plus(9), Pattern.cycle(9)], ids=["P9-P9", "C9-C9"])
def test_time_budget_stops_soon_where_nodes_are_costly(target):
    # nodes on these dense prefixes cost milliseconds each, so the clock is
    # read within a few nodes, not thousands, of the deadline
    start = time.monotonic()
    with pytest.raises(BudgetExhausted) as exc:
        search_two_color(17, target, target, budget=SearchBudget(max_time=0.5))
    assert exc.value.reason == "time"
    assert time.monotonic() - start < 3.0


def test_split_depth_does_not_change_answers(monkeypatch):
    # every split and worker count folds onto the one DFS's counters, at
    # witness orders too (split at order 4 and 6 the witness lies below a
    # later prefix than the first), for a pair the triangle checker serves
    # and one the generic checker serves: (pair, order, verdict, nodes,
    # prunes, the witness's sha256).  Split orders 2, 3, 4 and 6 fix 1, 3,
    # 6 and 15 edges; at the larger ones the prefix phase reaches every leaf
    # of orders up to 4, and order 1 has no edge.
    for name, n, verdict, nodes, prunes, sha in [
        ("K3-K3", 1, "witness", 0, 0, "e28dd495befc0be2009b7a63105fb50ace7ee7b7d7317a8453a859139cc60a7a"),
        ("K3-K3", 2, "witness", 1, 0, "4c0d784ed1533514ed377d5b4b4b4d099c945df3136a53b5ff32c45a49663d6f"),
        ("K3-K3", 3, "witness", 4, 1, "bc8e9d54e1af22f5c71f6036f05854a7a11a27c4a3ba200491f00eb8cfcf579e"),
        ("K3-K3", 4, "witness", 10, 2, "0f17c0abd4cca077904ac51a21e59639260903963677c445ab74c22ae03e2b2b"),
        ("K3-K3", 5, "witness", 27, 7, WITNESS_SHA256["K3-K3"]),
        ("K3-K3", 6, "exhausted", 51, 18, None),
        ("P4-P5", 4, "witness", 7, 1, "b7d9e70873c77c8b8e5440dd47be36c48e396ce99abf497ea4a2b82f43c2a3af"),
        ("P4-P5", 8, "witness", 53, 7, WITNESS_SHA256["P4-P5"]),
        ("P4-P5", 9, "exhausted", 156, 50, None),
    ]:
        pa, pb, _ = PINNED_PAIRS[name]
        for order in (2, 3, 4, 6):
            monkeypatch.setattr(search, "SPLIT_ORDER", order)
            for jobs in (1, 2):
                out = search_two_color(n, pa, pb, jobs=jobs)
                got = (out.verdict, out.nodes, out.prunes, out.witness and _sha256(out.witness))
                assert got == (verdict, nodes, prunes, sha)


@pytest.mark.parametrize("jobs", [1, 2])
def test_node_budget_stops_where_the_single_job_search_does(jobs):
    # order 8 of P4-P5 has a witness after 53 nodes, below the second of its
    # 8 prefixes, and order 5 of S4-S4 one after 11 nodes, below the first
    # of its prefixes: a cap one short stops every run, the count and above
    # let it finish
    for name, n, nodes, prunes in [("P4-P5", 8, 53, 7), ("S4-S4", 5, 11, 1)]:
        pa, pb, _ = PINNED_PAIRS[name]
        with pytest.raises(BudgetExhausted) as exc:
            search_two_color(n, pa, pb, budget=SearchBudget(max_nodes=nodes - 1), jobs=jobs)
        assert (exc.value.reason, exc.value.nodes) == ("nodes", nodes - 1)
        for cap in (nodes, nodes + 1):
            out = search_two_color(n, pa, pb, budget=SearchBudget(max_nodes=cap), jobs=jobs)
            assert (out.verdict, out.nodes, out.prunes) == ("witness", nodes, prunes)


def test_jobs_do_not_change_outcome():
    solo = search_two_color(7, SP4, SP4, jobs=1)
    multi = search_two_color(7, SP4, SP4, jobs=4)
    assert (solo.verdict, solo.nodes, solo.prunes) == (multi.verdict, multi.nodes, multi.prunes)
    ws = search_two_color(6, SP4, SP4, jobs=1)
    wm = search_two_color(6, SP4, SP4, jobs=3)
    assert encode(ws.witness) == encode(wm.witness)
    assert (ws.nodes, ws.prunes) == (wm.nodes, wm.prunes)


def test_pooled_runs_keep_the_reference_mode():
    # the subtrees run in worker processes must drop the rule too
    for jobs in (1, 2):
        out = search_two_color(7, SP4, SP4, jobs=jobs, reference=True)
        assert (out.verdict, out.nodes, out.prunes) == ("exhausted", 539, 270)


def test_ramsey_number_starts_one_pool_for_all_orders(monkeypatch):
    # orders with fewer than two prefixes start none
    started = []

    class Counted(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            started.append(kwargs["max_workers"])
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counted)
    assert ramsey_number(Pattern.path(2), Pattern.path(2), n_max=4, jobs=2).value == 2
    assert started == []
    assert ramsey_number(SP4, SP4, n_max=8, jobs=2).value == 7
    assert started == [2]


def test_pool_starts_no_more_workers_than_an_order_has_prefixes(monkeypatch):
    # no order has more than 2 ** C(SPLIT_ORDER, 2) = 64 subtrees; the fake
    # runs them in this process, so no worker process starts
    started = []

    class Fake:
        def __init__(self, max_workers):
            started.append(max_workers)

        def map(self, fn, tasks):
            return map(fn, tasks)

        def shutdown(self, cancel_futures=False):
            pass

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Fake)
    assert ramsey_number(SP4, SP4, n_max=8, jobs=10_000).value == 7
    assert started == [64]


def test_asymmetric_targets_search_both_color_orders():
    # swapping asymmetric targets must keep the verdict at each order
    a = ramsey_number(TRI, SP4, n_max=9)
    b = ramsey_number(SP4, TRI, n_max=9)
    assert a.value == b.value


def test_ramsey_triangle_certificate():
    cert = ramsey_number(TRI, TRI, n_max=7)
    assert cert.value == 6
    assert cert.witness.n == 5
    for v in range(5):
        for c in (1, 2):
            assert cert.witness.degree_in_color(v, c) == 2
    assert cert.witness_outcome is not None
    assert cert.witness_outcome.verdict == "witness"
    assert cert.exhausted_outcome.verdict == "exhausted"


def test_ramsey_star_plus_and_path_plus():
    for p in (SP4, PP4):
        cert = ramsey_number(p, p, n_max=8)
        assert cert.value == 7
        assert cert.witness.n == 6
        assert contains_pattern(cert.witness, p, 1) is None
        assert contains_pattern(cert.witness, p, 2) is None


def test_ramsey_trivial_target():
    p2 = Pattern.path(2)
    cert = ramsey_number(p2, p2, n_max=4)
    assert cert.value == 2
    assert cert.witness.n == 1


def test_ramsey_not_found_below_cap():
    with pytest.raises(NotFoundBelowCap):
        ramsey_number(TRI, TRI, n_max=5)
    with pytest.raises(ValueError):
        ramsey_number(TRI, TRI, n_max=1)


# the CLI's `ramsey` result keys, less the witness path it adds
CLAIM_KEYS = {"value", "expected", "match", "witness_order", "exhaustion", "divergence"}


@pytest.mark.parametrize(
    "family, s, t, value",
    [("star-plus", 4, 4, 7), ("path-plus", 4, 5, 9)],
)
def test_certify_claim_match(family, s, t, value):
    report = certify_claim(family, s, t)
    assert report.value == value and report.expected == value
    assert report.matches and report.divergence is None
    d = report.to_json_dict()
    assert set(d) == CLAIM_KEYS
    assert d["value"] == value and d["witness_order"] == value - 1
    assert d["exhaustion"]["order"] == value
    assert d["divergence"] is None


def test_certify_claim_divergence_at_three():
    report = certify_claim("path-plus", 3, 3)
    assert report.value == 6 and report.expected == 5
    assert not report.matches
    assert report.divergence is not None
    assert report.to_json_dict()["divergence"] == report.divergence


def test_certify_claim_validation():
    with pytest.raises(ValueError):
        certify_claim("star-plus", 2, 2)
    with pytest.raises(ValueError):
        certify_claim("clique", 4, 4)
