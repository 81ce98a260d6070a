from __future__ import annotations

import hashlib
import json
import random
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import colorings, rainbow_triples, recolored_gallai
from gallai_forge import decompose
from gallai_forge.constructions import (
    blow_up_5,
    lower_bound_construction,
    pentagon_k5,
    random_gallai,
    two_clique_example,
)
from gallai_forge.decompose import (
    GallaiPartition,
    RainbowTrianglePresent,
    _components,
    gallai_partition,
    reduced_graph,
    validate_partition,
)
from gallai_forge.graphs import ColoredCompleteGraph, new_uniform
from gallai_forge.patterns import find_rainbow_triangle, verify_witness


def test_two_clique_splits_into_the_cliques():
    g = two_clique_example(4, 1, 2)
    p = gallai_partition(g)
    assert p.parts == ((0, 1, 2), (3, 4, 5))
    assert p.between_colors == frozenset({2})
    assert p.quotient.tolist() == [[0, 2], [2, 0]]
    assert not p.quotient.flags.writeable


def test_pentagon_splits_into_singletons():
    g = pentagon_k5(1, 2)
    p = gallai_partition(g)
    assert p.parts == ((0,), (1,), (2,), (3,), (4,))
    assert p.between_colors == frozenset({1, 2})


def test_blow_up_splits_into_copies():
    base = new_uniform(3, 1, 1)
    g = blow_up_5(base, 2, 3)
    p = gallai_partition(g)
    assert p.parts == ((0, 1, 2), (3, 4, 5), (6, 7, 8), (9, 10, 11), (12, 13, 14))
    assert p.between_colors == frozenset({2, 3})
    # quotient colors follow the pentagon pattern of the blow-up
    assert p.quotient[0, 1] == 2
    assert p.quotient[0, 2] == 3


def test_blow_up_with_low_cross_colors():
    base = new_uniform(3, 3, 3)
    g = blow_up_5(base, 1, 2)
    p = gallai_partition(g)
    assert len(p.parts) == 5
    assert all(len(part) == 3 for part in p.parts)
    assert p.between_colors == frozenset({1, 2})


def test_uniform_graph_partitions():
    g = new_uniform(5, 2, 2)
    p = gallai_partition(g)
    ok, why = validate_partition(g, p)
    assert ok, why
    assert p.between_colors == frozenset({2})


def test_two_vertex_graph():
    g = new_uniform(2, 1, 1)
    p = gallai_partition(g)
    assert p.parts == ((0,), (1,))


@pytest.mark.parametrize("seed", [2, 4, 5])  # won by color 1, by color 2, by the pair
def test_unused_declared_colors_do_not_change_the_partition(seed):
    g = random_gallai(40, 2, seed)
    p = gallai_partition(g)
    # relabel 1, 2 to 65534, 65535 inside a declared k of 65535
    wide = ColoredCompleteGraph(g.n, 65535, g.edge_colors().astype(np.int64) + 65533)
    q = gallai_partition(wide)
    assert q.parts == p.parts
    assert q.quotient.tolist() == np.where(p.quotient > 0, p.quotient + 65533, 0).tolist()


def test_rejects_single_vertex():
    with pytest.raises(ValueError):
        gallai_partition(new_uniform(1, 1, 1))


def test_rainbow_input_raises_with_witness():
    g = ColoredCompleteGraph(3, 3, [1, 2, 3])
    with pytest.raises(RainbowTrianglePresent) as exc:
        gallai_partition(g)
    assert verify_witness(g, exc.value.witness)
    assert exc.value.witness.color is None


def test_partition_json_shape():
    g = two_clique_example(4, 1, 2)
    d = gallai_partition(g).to_json_dict()
    assert d == {
        "parts": [[0, 1, 2], [3, 4, 5]],
        "quotient": [{"i": 0, "j": 1, "color": 2}],
        "between_colors": [2],
    }


def _q(m: int, colors: dict) -> np.ndarray:
    """m-by-m quotient matrix from {(i, j): color} for i < j."""
    q = np.zeros((m, m), dtype=np.int64)
    for (i, j), color in colors.items():
        q[i, j] = q[j, i] = color
    return q


def test_validation_catches_tampering():
    g = two_clique_example(4, 1, 2)
    good = gallai_partition(g)

    single = GallaiPartition(((0, 1, 2, 3, 4, 5),), _q(1, {}))
    ok, why = validate_partition(g, single)
    assert not ok and "at least 2" in why

    overlap = GallaiPartition(((0, 1, 2), (2, 3, 4, 5)), _q(2, {(0, 1): 2}))
    ok, why = validate_partition(g, overlap)
    assert not ok and "more than one part" in why

    missing = GallaiPartition(((0, 1, 2), (3, 4)), _q(2, {(0, 1): 2}))
    ok, why = validate_partition(g, missing)
    assert not ok and "not covered" in why

    wrong_color = GallaiPartition(good.parts, _q(2, {(0, 1): 1}))
    ok, why = validate_partition(g, wrong_color)
    assert not ok and "quotient says 1" in why

    # a color that uint16 storage would wrap to the right one
    wide_color = GallaiPartition(good.parts, _q(2, {(0, 1): 2 + 2**16}))
    ok, why = validate_partition(g, wide_color)
    assert not ok and "quotient says 65538" in why

    # a split that cuts a clique makes a bichromatic pair
    split = GallaiPartition(((0, 1), (2,), (3, 4, 5)), _q(3, {(0, 1): 1, (0, 2): 2, (1, 2): 2}))
    ok, why = validate_partition(g, split)
    assert ok, why  # this one is actually still valid: cliques may split


@pytest.mark.parametrize(
    "quotient",
    [
        np.array([[0, 2], [1, 0]]),  # asymmetric
        np.array([[2, 2], [2, 0]]),  # non-zero diagonal
        np.array([[0, 2, 2], [2, 0, 2], [2, 2, 0]]),  # 3x3 for two parts
        np.array([0, 2]),  # not a matrix
    ],
    ids=["asymmetric", "diagonal", "shape", "flat"],
)
def test_validation_rejects_malformed_quotient(quotient):
    g = two_clique_example(4, 1, 2)
    p = GallaiPartition(gallai_partition(g).parts, quotient)
    ok, why = validate_partition(g, p)
    assert not ok and "symmetric 2x2 matrix with a zero diagonal" in why
    with pytest.raises(ValueError):
        reduced_graph(g, p)


@pytest.mark.parametrize(
    "parts,quotient,why",
    [
        (((0, 1, 2.0), (3, 4, 5)), None, "part 0 contains non-integer vertex 2.0"),
        (((0, 1, 2), (3, "4", 5)), None, "part 1 contains non-integer vertex '4'"),
        (((0, 1, 2), (3, (4, 5))), None, "part 1 contains non-integer vertex (4, 5)"),
        ((((0, 1), (2, 3)), ((4, 5),)), None, "part 0 contains non-integer vertex (0, 1)"),
        (None, [[0, 2], [2, 0]], "quotient must be a symmetric 2x2 matrix with a zero diagonal"),
    ],
    ids=["float vertex", "string vertex", "nested tuple", "nested pairs", "list quotient"],
)
def test_validation_answers_malformed_input(parts, quotient, why):
    g = two_clique_example(4, 1, 2)
    good = gallai_partition(g)
    p = GallaiPartition(parts or good.parts, good.quotient if quotient is None else quotient)
    assert validate_partition(g, p) == (False, why)
    with pytest.raises(ValueError, match="not a valid partition"):
        reduced_graph(g, p)


def test_validation_rejects_nonuniform_block():
    tri = [1, 2, 2, 2, 2, 1]  # K4: edges (1,0)=1, (2,0)=2, (2,1)=2, (3,0)=2, (3,1)=2, (3,2)=1
    g = ColoredCompleteGraph(4, 2, tri)
    forced = GallaiPartition(((0, 3), (1, 2)), _q(2, {(0, 1): 2}))
    ok, why = validate_partition(g, forced)
    assert not ok and "between parts" in why


def test_more_than_two_between_colors_rejected():
    # three parts pairwise joined by three different colors would be rainbow;
    # craft the partition record directly to make sure validation catches it
    g = ColoredCompleteGraph(3, 3, [1, 2, 3])
    p = GallaiPartition(((0,), (1,), (2,)), _q(3, {(0, 1): 1, (0, 2): 2, (1, 2): 3}))
    assert p.between_colors == frozenset({1, 2, 3})
    ok, why = validate_partition(g, p)
    assert not ok and "at most 2" in why


def test_reduced_graph_of_two_clique():
    g = two_clique_example(5, 2, 1)
    p = gallai_partition(g)
    red = reduced_graph(g, p)
    assert red.n == 2
    assert red.color_of(0, 1) == 1


def test_reduced_graph_of_blow_up():
    base = new_uniform(2, 1, 1)
    g = blow_up_5(base, 2, 3)
    p = gallai_partition(g)
    red = reduced_graph(g, p)
    assert red.n == 5
    # the reduced graph is the two-colored pentagon used by the blow-up
    for i in range(5):
        for j in range(i):
            want = 2 if (i - j) % 5 in (1, 4) else 3
            assert red.color_of(i, j) == want


def test_reduced_graph_rejects_invalid_partition():
    g = two_clique_example(4, 1, 2)
    bogus = GallaiPartition(((0, 1, 2, 3, 4, 5),), _q(1, {}))
    with pytest.raises(ValueError):
        reduced_graph(g, bogus)


def test_random_sweep_validates():
    rng = random.Random(4242)
    for _ in range(60):
        n = rng.randint(2, 80)
        k = rng.randint(1, 6)
        g = random_gallai(n, k, rng.randrange(2**31))
        p = gallai_partition(g)
        ok, why = validate_partition(g, p)
        assert ok, (n, k, why)
        red = reduced_graph(g, p)
        assert red.n == len(p.parts)
        quotient = p.to_json_dict()["quotient"]
        assert [(e["i"], e["j"], e["color"]) for e in quotient] == [
            (i, j, red.color_of(i, j)) for i in range(red.n) for j in range(i + 1, red.n)
        ]
        assert p.between_colors == {e["color"] for e in quotient}
        assert p.to_json_dict()["between_colors"] == sorted(set(red.edge_colors().tolist()))
        # reduced graph re-partitions (or is a single edge) without rainbow
        if red.n >= 2:
            q = gallai_partition(red)
            ok, why = validate_partition(red, q)
            assert ok, why


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=recolored_gallai(16, st.integers(0, 1)))
def test_partition_valid_or_refused_with_first_rainbow(case):
    g, edits = case
    try:
        p = gallai_partition(g)
    except RainbowTrianglePresent as exc:
        assert edits == 1  # random_gallai itself is rainbow-free
        assert verify_witness(g, exc.witness)
        assert exc.witness.vertices == rainbow_triples(g)[0]
    else:
        ok, why = validate_partition(g, p)
        assert ok, why


def _dense_components(square: np.ndarray, color_set: tuple[int, ...]) -> tuple[np.ndarray, int]:
    """Reference: scipy components of the dense graph of edges colored outside the set."""
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    adj = ~np.isin(square, color_set)
    np.fill_diagonal(adj, False)
    count, labels = connected_components(csr_matrix(adj), directed=False)
    return labels, int(count)


def _blocks(labels: np.ndarray) -> set[frozenset[int]]:
    return {frozenset(np.flatnonzero(labels == x).tolist()) for x in np.unique(labels)}


# every edge colored 1: one component without color 2, 40 singletons without color 1
@example(g=new_uniform(40, 1, 2))
@example(g=random_gallai(40, 2, 3))
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(
    g=st.one_of(
        colorings(40, 5),
        st.builds(random_gallai, st.integers(1, 40), st.integers(1, 5), st.integers(0, 2**32 - 1)),
    )
)
def test_components_outside_match_the_dense_oracle(g):
    pytest.importorskip("scipy")
    square = g.as_square()
    colors = range(1, g.k + 1)
    packed = {c: np.packbits(square == c, axis=1, bitorder="little") for c in colors}
    for color_set in [(c,) for c in colors] + list(combinations(colors, 2)):
        labels, count = _components(np.bitwise_or.reduce([packed[c] for c in color_set]))
        want, want_count = _dense_components(square, color_set)
        assert count == want_count, color_set
        assert sorted(set(labels.tolist())) == list(range(count))
        # numbered by least vertex, the order _package keeps
        assert (np.diff(np.unique(labels, return_index=True)[1]) > 0).all()
        assert _blocks(labels) == _blocks(want), color_set


def test_every_candidate_cut_matches_the_dense_oracle():
    pytest.importorskip("scipy")
    # only the last pair of colors splits this coloring, so the extractor
    # tries every singleton and pair, each once, in order
    g = lower_bound_construction(4, 5)
    with mock.patch.object(decompose, "_components", wraps=decompose._components) as spy:
        gallai_partition(g)
    used = g.used_colors().tolist()
    candidates = [(c,) for c in used] + list(combinations(used, 2))
    cuts = [call.args[0] for call in spy.call_args_list]
    assert len(cuts) == len(candidates) == 15
    square = g.as_square()
    for cut, color_set in zip(cuts, candidates):
        labels, count = _components(cut)
        want, want_count = _dense_components(square, color_set)
        assert count == want_count, color_set
        assert _blocks(labels) == _blocks(want), color_set


def _component_joins(g: ColoredCompleteGraph) -> tuple[int, int]:
    """Over every candidate set S of one or two used colors whose outside
    edges leave two or more components: how many candidates split, and how
    many pairs of components are not joined by exactly one color of S."""
    square = g.as_square()
    used = g.used_colors().tolist()
    splits = failures = 0
    for color_set in [(c,) for c in used] + list(combinations(used, 2)):
        labels, count = _components(np.packbits(np.isin(square, color_set), axis=1, bitorder="little"))
        if count < 2:
            continue
        splits += 1
        members = [np.flatnonzero(labels == x) for x in range(count)]
        for a, b in combinations(members, 2):
            joins = np.unique(square[np.ix_(a, b)])
            failures += len(joins) != 1 or int(joins[0]) not in color_set
    return splits, failures


_CONSTRUCTIONS = (
    two_clique_example(4, 1, 2),
    pentagon_k5(1, 2),
    blow_up_5(new_uniform(3, 1, 1), 2, 3),
    lower_bound_construction(4, 3),
    lower_bound_construction(5, 3),
)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    g=st.one_of(
        recolored_gallai(16, st.integers(0, 2)).map(lambda case: case[0]).filter(lambda g: find_rainbow_triangle(g) is None),
        st.builds(random_gallai, st.integers(2, 40), st.integers(1, 5), st.integers(0, 2**32 - 1)),
        st.sampled_from(_CONSTRUCTIONS),
    )
)
def test_components_outside_a_candidate_are_joined_by_one_of_its_colors(g):
    # the reason gallai_partition needs no merge step: without a rainbow
    # triangle, a vertex outside a component sees all of it in one color
    splits, failures = _component_joins(g)
    assert splits >= 1  # some candidate splits every rainbow-free K_n, n >= 2
    assert failures == 0


def test_a_rainbow_triangle_breaks_the_component_lemma():
    # each pair of colors leaves one edge outside: two components joined by the pair
    assert _component_joins(ColoredCompleteGraph(3, 3, [1, 2, 3])) == (3, 3)


def test_partition_bytes_are_pinned():
    # the digest was read from the dense scipy component search, before the bitset search
    graphs = [random_gallai(2 + 118 * i // 99, 1 + i % 6, i) for i in range(100)]
    graphs += [lower_bound_construction(4, 3), lower_bound_construction(5, 3)]
    digest = hashlib.sha256()
    for g in graphs:
        digest.update(json.dumps(gallai_partition(g).to_json_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == "48ec5d4ec14ee0f91ccd468bbff20c10bdc2175fec2e024f651273f58860500b"


def _validate_by_loop(graph: ColoredCompleteGraph, partition: GallaiPartition) -> tuple[bool, str | None]:
    """Reference: validation that labels the vertices one at a time and reads
    the between-colors from the upper triangle."""
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
    square = graph.as_square()
    wrong = (square != q[labels][:, labels]) & (labels[:, None] < labels[None, :])
    if wrong.any():
        u, v = (int(x) for x in np.unravel_index(np.argmax(wrong), wrong.shape))
        i, j = int(labels[u]), int(labels[v])
        return False, (
            f"edge {{{u}, {v}}} between parts {i} and {j} has color "
            f"{int(square[u, v])}, quotient says {int(q[i, j])}"
        )
    iu, iv = np.triu_indices(m, 1)
    between = set(q[iu, iv].tolist())
    if len(between) > 2:
        return False, f"{len(between)} colors between parts, at most 2 allowed"
    return True, None


_TAMPERS = (
    "empty part",
    "duplicate",
    "out of range",
    "drop",
    "swap parts",
    "recolor",
    "asymmetric",
    "shape",
    "diagonal",
    "singletons",
    "single part",
)


@st.composite
def _tampered_partitions(draw) -> tuple[ColoredCompleteGraph, GallaiPartition]:
    """A partition from gallai_partition (the singletons when the coloring
    has a rainbow triangle) with one to three tampers applied in turn."""
    g = draw(
        st.one_of(
            colorings(16, 4),
            st.builds(random_gallai, st.integers(2, 40), st.integers(1, 5), st.integers(0, 2**32 - 1)),
        )
    )
    singletons = [[v] for v in range(g.n)]
    try:
        p = gallai_partition(g)
        parts, q = [list(part) for part in p.parts], p.quotient.astype(np.int64)
    except (RainbowTrianglePresent, ValueError):  # ValueError: a single vertex
        parts, q = singletons, g.as_square().astype(np.int64)
    for tamper in draw(st.lists(st.sampled_from(_TAMPERS), min_size=1, max_size=3)):
        part = parts[draw(st.integers(0, len(parts) - 1))] if parts else None
        square_q = q.ndim == 2 and q.shape[0] == q.shape[1] >= 2
        if tamper == "empty part":
            parts.insert(draw(st.integers(0, len(parts))), [])
        elif tamper == "duplicate" and part:
            v = draw(st.integers(0, g.n - 1))
            if draw(st.booleans()):
                part[draw(st.integers(0, len(part) - 1))] = v  # keeps the vertex count
            else:
                part.insert(draw(st.integers(0, len(part))), v)
        elif tamper == "out of range" and part is not None:
            part.insert(draw(st.integers(0, len(part))), draw(st.sampled_from([-1, g.n, g.n + 7])))
        elif tamper == "drop" and part:
            del part[draw(st.integers(0, len(part) - 1))]
            if not part:
                parts.remove(part)
        elif tamper == "swap parts" and len(parts) >= 2:
            i, j = draw(st.lists(st.integers(0, len(parts) - 1), min_size=2, max_size=2, unique=True))
            parts[i], parts[j] = parts[j], parts[i]
        elif tamper in ("recolor", "asymmetric") and square_q:
            i, j = draw(st.lists(st.integers(0, q.shape[0] - 1), min_size=2, max_size=2, unique=True))
            q[i, j] = draw(st.integers(1, g.k + 1))
            if tamper == "recolor":
                q[j, i] = q[i, j]
        elif tamper == "shape" and q.ndim == 2:
            q = draw(st.sampled_from([np.pad(q, 1)[1:, 1:], q[:-1], q.ravel()]))
        elif tamper == "diagonal" and square_q:
            i = draw(st.integers(0, q.shape[0] - 1))
            q[i, i] = draw(st.integers(1, g.k))
        elif tamper == "singletons":
            parts, q = singletons, g.as_square().astype(np.int64)
        elif tamper == "single part":
            parts, q = [list(range(g.n))], np.zeros((1, 1), dtype=np.int64)
    return g, GallaiPartition(tuple(tuple(part) for part in parts), q)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=_tampered_partitions())
def test_validation_matches_the_vertex_loop(case):
    g, p = case
    assert validate_partition(g, p) == _validate_by_loop(g, p)
