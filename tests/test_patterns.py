from __future__ import annotations

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import colorings, rainbow_triples, recolored_gallai
from gallai_forge import patterns
from gallai_forge.constructions import pentagon_k5, random_gallai, two_clique_example
from gallai_forge.graphs import MAX_COLOR, ColoredCompleteGraph, decode, encode, iter_bits, new_uniform
from gallai_forge.patterns import (
    ORACLE_MAX_HOST,
    ORACLE_MAX_PATTERN,
    PATTERN_KINDS,
    Pattern,
    WitnessEmbedding,
    _census,
    _rainbow_count,
    brute_force_find,
    contains_pattern,
    find_rainbow_triangle,
    verify_witness,
)


def _random_coloring(n, k, rng):
    tri = [rng.randint(1, k) for _ in range(n * (n - 1) // 2)]
    return ColoredCompleteGraph(n, k, tri)


# --- pattern shapes -------------------------------------------------------


def test_canonical_edges():
    assert Pattern.star_plus(4).edges() == ((0, 1), (0, 2), (0, 3), (1, 2))
    assert Pattern.path_plus(5).edges() == ((0, 1), (1, 2), (2, 3), (3, 4), (0, 2))
    assert Pattern.cycle(4).edges() == ((0, 1), (1, 2), (2, 3), (3, 0))
    assert Pattern.path(3).edges() == ((0, 1), (1, 2))
    assert Pattern.star(4).edges() == ((0, 1), (0, 2), (0, 3))
    assert Pattern.clique(3).edges() == ((0, 1), (0, 2), (1, 2))


def test_size_three_kinds_are_all_the_triangle():
    want = {frozenset(e) for e in Pattern.clique(3).edges()}
    for p in (Pattern.star_plus(3), Pattern.path_plus(3), Pattern.cycle(3)):
        assert {frozenset(e) for e in p.edges()} == want


def test_pattern_validation():
    with pytest.raises(ValueError):
        Pattern("triangle", 3)  # unknown kind
    with pytest.raises(ValueError):
        Pattern.star_plus(2)
    with pytest.raises(ValueError):
        Pattern.path_plus(2)
    with pytest.raises(ValueError):
        Pattern.cycle(2)
    with pytest.raises(ValueError):
        Pattern.path(0)


def test_witness_json_shape():
    w = WitnessEmbedding(Pattern.star_plus(4), 2, (5, 1, 3, 0))
    assert w.to_json_dict() == {
        "pattern": "star-plus",
        "t_or_m": 4,
        "color": 2,
        "vertices": [5, 1, 3, 0],
    }
    rb = WitnessEmbedding(Pattern.clique(3), None, (0, 1, 2))
    assert rb.to_json_dict()["color"] == "rainbow"


def test_verify_witness():
    g = new_uniform(5, 1, 2)
    assert verify_witness(g, WitnessEmbedding(Pattern.star_plus(4), 1, (0, 1, 2, 3)))
    assert not verify_witness(g, WitnessEmbedding(Pattern.star_plus(4), 2, (0, 1, 2, 3)))
    assert not verify_witness(g, WitnessEmbedding(Pattern.star_plus(4), 1, (0, 1, 1, 3)))
    assert not verify_witness(g, WitnessEmbedding(Pattern.star_plus(4), 1, (0, 1, 2, 9)))
    assert not verify_witness(g, WitnessEmbedding(Pattern.star_plus(4), 3, (0, 1, 2, 3)))
    # rainbow witnesses must be triangles with three distinct colors
    rb = ColoredCompleteGraph(3, 3, [1, 2, 3])
    assert verify_witness(rb, WitnessEmbedding(Pattern.clique(3), None, (0, 1, 2)))
    assert not verify_witness(g, WitnessEmbedding(Pattern.clique(3), None, (0, 1, 2)))
    assert not verify_witness(rb, WitnessEmbedding(Pattern.clique(4), None, (0, 1, 2)))


# --- rainbow triangles ----------------------------------------------------


def test_rainbow_none_when_under_three_colors():
    g = _random_coloring(8, 2, random.Random(3))
    assert find_rainbow_triangle(g) is None
    wide = ColoredCompleteGraph(4, 9, [1, 2, 1, 2, 1, 2])  # declares 9, uses 2
    assert find_rainbow_triangle(wide) is None


def test_rainbow_planted_and_first_in_order():
    # only the triangle {1, 2, 3} is rainbow
    g = ColoredCompleteGraph(4, 3, [1, 1, 2, 1, 3, 1])
    w = find_rainbow_triangle(g)
    assert w is not None and w.vertices == (1, 2, 3)
    assert verify_witness(g, w)
    # two rainbow triangles: the lexicographically first one wins
    h = ColoredCompleteGraph(4, 3, [1, 2, 3, 3, 2, 1])
    first = find_rainbow_triangle(h)
    assert first is not None and first.vertices == (0, 1, 2)


@st.composite
def widened(draw, base):
    # relabels the colors into 1..MAX_COLOR and declares many more than are used
    g = draw(base)
    labels = draw(st.lists(st.integers(1, MAX_COLOR), min_size=g.k, max_size=g.k, unique=True))
    k = draw(st.integers(max(labels), MAX_COLOR))
    return ColoredCompleteGraph(g.n, k, np.array(labels, dtype=np.uint16)[g.edge_colors() - 1])


GALLAI_RECOLORED = recolored_gallai(12, st.integers(0, 2)).map(lambda pair: pair[0])


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(
    g=st.one_of(
        colorings(12),
        GALLAI_RECOLORED,
        widened(st.one_of(colorings(12), GALLAI_RECOLORED)),
    )
)
def test_pentagon_blowups_stay_rainbow_free(g):
    fast = find_rainbow_triangle(g)
    triples = rainbow_triples(g)
    slow = triples[0] if triples else None
    assert (fast is None) == (slow is None)
    if fast is not None:
        assert fast.vertices == slow
    # a count that is positive on a rainbow-free input would still give the
    # right witness, but only after a full scan
    assert _rainbow_count(g) == len(triples)


@pytest.mark.parametrize("block_bytes", [1, 200])
def test_rainbow_count_in_small_blocks(monkeypatch, block_bytes):
    # real inputs fit one block below a few thousand vertices; shrink the
    # block so that the per-block edge offsets are exercised too
    monkeypatch.setattr(patterns, "_COUNT_BLOCK_BYTES", block_bytes)
    rng = random.Random(17)
    graphs = [_random_coloring(n, k, rng) for n, k in ((20, 3), (25, 4), (9, 5))]
    graphs += [random_gallai(n, 5, seed) for n, seed in ((30, 1), (40, 2))]
    for g in graphs:
        assert _rainbow_count(g) == len(rainbow_triples(g))


@st.composite
def planted(draw, max_n: int) -> ColoredCompleteGraph:
    """A uniform random coloring with a few monochromatic triangles planted."""
    g = draw(colorings(max_n, 5))
    tri = g.edge_colors().copy()
    for _ in range(draw(st.integers(0, 3)) if g.n >= 3 else 0):
        a, b, c = draw(st.lists(st.integers(0, g.n - 1), min_size=3, max_size=3, unique=True))
        color = draw(st.integers(1, g.k))
        for u, v in ((a, b), (a, c), (b, c)):
            tri[max(u, v) * (max(u, v) - 1) // 2 + min(u, v)] = color
    return ColoredCompleteGraph(g.n, g.k, tri)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(g=planted(12))
def test_census_counts_match_brute_force(g):
    census = _census(g)
    n = g.n
    mono = np.zeros((g.k + 1, n), dtype=np.int64)
    rainbow = np.zeros(n, dtype=np.int64)
    for a, b, c in itertools.combinations(range(n), 3):
        ab, ac, bc = g.color_of(a, b), g.color_of(a, c), g.color_of(b, c)
        for v in (a, b, c):
            if ab == ac == bc:
                mono[ab, v] += 1
            rainbow[v] += len({ab, ac, bc}) == 3
    assert census.rainbow.tolist() == rainbow.tolist()
    assert _rainbow_count(g) == int(rainbow.sum()) // 3
    assert sorted(census.triangles) == [c for c in range(1, g.k + 1) if mono[c].any()]
    for c, counts in census.triangles.items():
        assert counts.tolist() == mono[c].tolist()
        assert census.degree[c].tolist() == [g.degree_in_color(v, c) for v in range(n)]


def _first_star_plus_scanning_every_vertex(g, t, c):
    """Reference: the star-plus scan before the census, from every vertex."""
    masks = g.color_masks(c)
    for v in range(g.n):
        mv = masks[v]
        if mv.bit_count() < t - 1:
            continue
        for u in iter_bits(mv):
            common = masks[u] & mv
            if common:
                w = (common & -common).bit_length() - 1
                rest = [x for x in iter_bits(mv) if x != u and x != w][: t - 3]
                return (v, u, w, *rest)
    return None


def _first_path_plus_from_every_vertex(g, t, c):
    """Reference: the walker before the census, started at every vertex."""
    steps = patterns._plan(Pattern.path_plus(t))
    masks = g.color_masks(c)
    for v in range(g.n):
        assign = [v] * t
        if patterns._walk(steps, 1, assign, 1 << v, masks):
            return tuple(assign)
    return None


@st.composite
def late_centers(draw, max_n: int) -> ColoredCompleteGraph:
    """Color 1 is bipartite (so triangle-free) apart from triangles planted
    among the last vertices, so its first center comes late; colors 2..k
    take the other edges at random."""
    n = draw(st.integers(6, max_n))
    k = draw(st.integers(2, 4))
    side = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    tri = []
    for u in range(1, n):
        for v in range(u):
            cross = side[u] != side[v] and draw(st.booleans())
            tri.append(1 if cross else draw(st.integers(2, k)))
    late = range(n - 1 - n // 3, n)
    for _ in range(draw(st.integers(0, 3))):
        trio = draw(st.lists(st.sampled_from(late), min_size=3, max_size=3, unique=True))
        for u, v in itertools.combinations(sorted(trio), 2):
            tri[v * (v - 1) // 2 + u] = 1
    return ColoredCompleteGraph(n, k, tri)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(g=late_centers(40))
def test_gated_detectors_keep_the_first_witness(g):
    for t in (3, 4, 5):
        for c in range(1, g.k + 1):
            star = contains_pattern(g, Pattern.star_plus(t), c)
            assert (star and star.vertices) == _first_star_plus_scanning_every_vertex(g, t, c), (t, c)
            path = contains_pattern(g, Pattern.path_plus(t), c)
            assert (path and path.vertices) == _first_path_plus_from_every_vertex(g, t, c), (t, c)
            if g.n <= ORACLE_MAX_HOST:
                for p, w in ((Pattern.star_plus(t), star), (Pattern.path_plus(t), path)):
                    assert (w is None) == (brute_force_find(g, p, c) is None), (p, c)
                    assert w is None or verify_witness(g, w)


# --- monochromatic detectors ----------------------------------------------


def test_star_plus_in_uniform():
    g = new_uniform(6, 2, 3)
    w = contains_pattern(g, Pattern.star_plus(4))
    assert w is not None and w.color == 2
    assert verify_witness(g, w)
    assert contains_pattern(g, Pattern.star_plus(4), 1) is None
    assert contains_pattern(g, Pattern.star_plus(7)) is None  # needs degree 6 on 6 vertices


def test_star_plus_rejects_small_t():
    # t < 3 has no pendant-plus-edge shape; the pattern itself refuses it,
    # so no star-plus search is ever asked for one
    with pytest.raises(ValueError):
        Pattern.star_plus(2)
    with pytest.raises(ValueError):
        Pattern("star-plus", 1)


def test_two_clique_avoids_order_four_targets():
    g = two_clique_example(4, 1, 2)
    for c in (1, 2):
        assert contains_pattern(g, Pattern.star_plus(4), c) is None
        assert contains_pattern(g, Pattern.path_plus(4), c) is None
    # order-3 targets (triangles) exist inside the cliques
    assert contains_pattern(g, Pattern.star_plus(3), 1) is not None
    assert contains_pattern(g, Pattern.star_plus(3), 2) is None


def test_two_clique_order_five():
    g = two_clique_example(5, 1, 2)
    assert contains_pattern(g, Pattern.star_plus(5)) is None
    assert contains_pattern(g, Pattern.path_plus(5)) is None


def test_path_plus_in_uniform():
    g = new_uniform(5, 1, 1)
    w = contains_pattern(g, Pattern.path_plus(5))
    assert w is not None and verify_witness(g, w)


def test_path_plus_needs_a_triangle():
    # color 1 is the 5-cycle: has paths of any length but no triangle
    g = pentagon_k5(1, 2)
    assert contains_pattern(g, Pattern.path_plus(3), 1) is None
    assert contains_pattern(g, Pattern.path_plus(4), 1) is None


def test_cycles_of_the_pentagon():
    g = pentagon_k5(1, 2)
    for c in (1, 2):
        w = contains_pattern(g, Pattern.cycle(5), c)
        assert w is not None and verify_witness(g, w)
        assert contains_pattern(g, Pattern.cycle(4), c) is None
        assert contains_pattern(g, Pattern.cycle(3), c) is None
    assert contains_pattern(g, Pattern.cycle(6)) is None  # longer than the host


def test_contains_pattern_dispatch():
    g = new_uniform(6, 1, 2)
    for kind, size in [
        ("star-plus", 4),
        ("path-plus", 4),
        ("cycle", 6),
        ("path", 6),
        ("star", 6),
        ("clique", 6),
    ]:
        w = contains_pattern(g, Pattern(kind, size))
        assert w is not None and w.color == 1
        assert verify_witness(g, w)
        assert contains_pattern(g, Pattern(kind, size), 2) is None


def test_contains_pattern_rejects_bad_color():
    g = new_uniform(4, 1, 2)
    with pytest.raises(ValueError):
        contains_pattern(g, Pattern.star(3), 3)
    with pytest.raises(ValueError):  # single-vertex patterns check the color too
        contains_pattern(new_uniform(3, 1, 2), Pattern.path(1), 99)


def test_single_vertex_patterns_hold_vacuously():
    g = new_uniform(2, 1, 1)
    for kind in ("path", "star", "clique"):
        w = contains_pattern(g, Pattern(kind, 1))
        assert w is not None and len(w.vertices) == 1
        assert verify_witness(g, w)


def test_detectors_pack_masks_only_for_used_colors():
    g = random_gallai(100, 2, 3)
    # relabel 1, 2 to MAX_COLOR - 1, MAX_COLOR inside a declared k of MAX_COLOR
    wide = ColoredCompleteGraph(g.n, MAX_COLOR, g.edge_colors().astype(np.int64) + MAX_COLOR - 2)
    for kind in PATTERN_KINDS:
        for size in range(1, 7):
            try:
                p = Pattern(kind, size)
            except ValueError:
                continue  # below the kind's smallest size
            w, narrow = contains_pattern(wide, p), contains_pattern(g, p)
            shift = 0 if size == 1 else MAX_COLOR - 2  # a single vertex is a copy in color 1
            assert (w.color, w.vertices) == (narrow.color + shift, narrow.vertices), p
    assert wide.used_colors().tolist() == [MAX_COLOR - 1, MAX_COLOR]
    assert set(wide._masks) <= {MAX_COLOR - 1, MAX_COLOR}


def test_plan_orders_roles_and_their_twins():
    # the two triangle leaves are adjacent twins, the plain leaves open twins
    assert patterns._plan(Pattern.star_plus(5)) == (
        (0, (), -1), (1, (0,), -1), (2, (0, 1), 1), (3, (0,), -1), (4, (0,), 3)
    )
    # seeds are placed already and take no part in twin ordering
    assert patterns._plan(Pattern.path_plus(4), (0, 2)) == ((1, (0, 2), -1), (3, (2,), -1))


@pytest.mark.parametrize("kind", ["star-plus", "path-plus", "cycle", "path", "star"])
def test_patterns_as_large_as_the_host(kind):
    # the walk is as deep as the pattern is large; one color holds every copy
    w = contains_pattern(new_uniform(1100, 1, 1), Pattern(kind, 1100))
    assert w.vertices == tuple(range(1100))


def test_colors_without_a_start_build_no_plan():
    # color 1 joins the two halves (triangle-free), color 2 fills them, so
    # no vertex has the degree of a spanning star in either color
    n = 1000
    u = np.repeat(np.arange(n), np.arange(n))
    w = np.arange(u.size) - u * (u - 1) // 2
    g = ColoredCompleteGraph(n, 2, np.where((u < n // 2) != (w < n // 2), 1, 2))
    patterns._plan.cache_clear()
    for kind in ("star-plus", "star"):
        assert contains_pattern(g, Pattern(kind, n)) is None
    assert patterns._plan.cache_info().currsize == 0


def test_detectors_are_deterministic():
    g = _random_coloring(8, 3, random.Random(123))
    h = decode(encode(g))
    for kind in PATTERN_KINDS:
        p = Pattern(kind, 4)
        a = contains_pattern(g, p)
        b = contains_pattern(h, p)
        assert (a is None) == (b is None)
        if a is not None:
            assert a == b


# --- definitional oracle ---------------------------------------------------


def test_oracle_guards():
    big = new_uniform(ORACLE_MAX_HOST + 1, 1, 1)
    with pytest.raises(ValueError):
        brute_force_find(big, Pattern.clique(3))
    small = new_uniform(4, 1, 1)
    with pytest.raises(ValueError):
        brute_force_find(small, Pattern.path(ORACLE_MAX_PATTERN + 1))
    with pytest.raises(ValueError):
        brute_force_find(new_uniform(3, 1, 2), Pattern.path(1), 99)


def test_oracle_tries_only_used_colors(monkeypatch):
    g = pentagon_k5(1, 2)
    wide = ColoredCompleteGraph(g.n, MAX_COLOR, g.edge_colors().astype(np.int64) + MAX_COLOR - 2)
    calls = 0
    color_of = ColoredCompleteGraph.color_of

    def counting_color_of(self, u, v):
        nonlocal calls
        calls += 1
        return color_of(self, u, v)

    monkeypatch.setattr(ColoredCompleteGraph, "color_of", counting_color_of)
    assert brute_force_find(wide, Pattern.cycle(4)) is None  # each color class is a 5-cycle
    assert calls < 1000  # trying every declared color makes millions
    assert brute_force_find(wide, Pattern.cycle(5)).color == MAX_COLOR - 1
    assert brute_force_find(wide, Pattern.path(1)).color == 1  # a single vertex is a copy in color 1


def test_oracle_handles_oversized_patterns():
    g = new_uniform(3, 1, 1)
    assert brute_force_find(g, Pattern.clique(4)) is None


def test_detectors_match_oracle_seeded_sweep():
    rng = random.Random(902)
    sizes = {
        "star-plus": (3, 4, 5),
        "path-plus": (3, 4, 5),
        "cycle": (3, 4, 5),
        "path": (2, 3, 5),
        "star": (2, 4, 5),
        "clique": (2, 3, 4),
    }
    for _ in range(150):
        n = rng.randint(3, 7)
        k = rng.randint(1, 3)
        g = _random_coloring(n, k, rng)
        for kind, ts in sizes.items():
            for t in ts:
                p = Pattern(kind, t)
                fast = contains_pattern(g, p)
                slow = brute_force_find(g, p)
                assert (fast is None) == (slow is None), (kind, t, encode(g))
                if fast is not None:
                    assert verify_witness(g, fast)
                if slow is not None:
                    assert verify_witness(g, slow)
                color = rng.randint(1, k)
                fast_c = contains_pattern(g, p, color)
                slow_c = brute_force_find(g, p, color)
                assert (fast_c is None) == (slow_c is None), (kind, t, color, encode(g))
