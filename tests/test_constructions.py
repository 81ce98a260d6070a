from __future__ import annotations

import hashlib
import random

import pytest

from gallai_forge.constructions import (
    BlowUp5Recipe,
    TwoCliqueRecipe,
    UniformRecipe,
    blow_up_5,
    lower_bound_construction,
    lower_bound_recipe,
    pentagon_k5,
    random_gallai,
    two_clique_example,
)
from gallai_forge.formulas import gr_value
from gallai_forge.graphs import ColoredCompleteGraph, decode, encode, new_uniform
from gallai_forge.patterns import (
    contains_pattern,
    Pattern,
    find_rainbow_triangle,
)


def test_two_clique_structure():
    g = two_clique_example(4, 1, 2)
    assert g.n == 6
    for u in range(6):
        for v in range(u):
            same_side = (u < 3) == (v < 3)
            assert g.color_of(u, v) == (1 if same_side else 2)


def test_two_clique_validation():
    with pytest.raises(ValueError):
        two_clique_example(2, 1, 2)
    with pytest.raises(ValueError):
        two_clique_example(4, 1, 1)  # colors must differ


def test_pentagon_structure():
    g = pentagon_k5(3, 4)
    assert g.n == 5 and g.k == 4
    for i in range(5):
        for j in range(i):
            want = 3 if (i - j) % 5 in (1, 4) else 4
            assert g.color_of(i, j) == want
    with pytest.raises(ValueError):
        pentagon_k5(2, 2)


def test_blow_up_multiplies_order():
    base = new_uniform(3, 1, 1)
    g = blow_up_5(base, 2, 3)
    assert g.n == 15 and g.k == 3
    # copy j occupies vertices [3j, 3j+3); inside edges keep the base colors
    for j in range(5):
        lo = 3 * j
        assert g.color_of(lo, lo + 1) == 1
    # cross edges follow the two-colored pentagon pattern
    assert g.color_of(0, 3) == 2  # copies 0-1 adjacent
    assert g.color_of(0, 6) == 3  # copies 0-2 non-adjacent
    # the pentagon's own checks: two distinct 1-based colors
    for c_a, c_b in ((2, 2), (0, 3)):
        with pytest.raises(ValueError):
            blow_up_5(base, c_a, c_b)


def test_blow_up_preserves_rainbow_freeness():
    rng = random.Random(31)
    for _ in range(15):
        child = random_gallai(rng.randint(1, 8), rng.randint(1, 3), rng.randrange(2**31))
        assert find_rainbow_triangle(child) is None
        g = blow_up_5(child, child.k + 1, child.k + 2)
        assert find_rainbow_triangle(g) is None


def _sha256(graph):
    return hashlib.sha256(encode(graph).encode("ascii")).hexdigest()


# the sha256 of the GCG bytes of lower_bound_construction(t, k)
CONSTRUCTION_SHA256 = {
    (4, 1): "ef0e1234212de8acdbb1b24fffaec0567a286ee8113ad69f015938401952d7e3",
    (4, 2): "52b191a7c883e1202e5c2b1fec05e0ee9a1745042ac8cb1327c7b2bd80b5f3de",
    (4, 3): "cdbc3013a73b8ef9aeca05ee931e3a01d84b2ae7d43096461c23be6a75fdb2b7",
    (4, 4): "d7f8141daa2f69ed4353895eb26d42224b6b7cc89234395f7661cf53f68ca3dd",
    (4, 5): "4dd6842c542f766892489b7ccf5c78a10c8cee27c6639c969caade25654c8155",
    (4, 6): "b4790d3a1922d7bdbd00f6ffcb2c2d7c8d43020e40c919916b75be71284baac4",
    (4, 7): "b794f8cff622c09c5a158d1f0dba40b2bc175efc962f495640fb2a20e816de9a",
    (5, 5): "f89c2cf685e5ed6f7e520b3ae874300157f1a7f67ae10e431ad5ac91b666fc45",
    (6, 4): "8bb3ee6d01350e9fce3fdf23fdc3f329fb9546c1a0ee3f9c99414f540a105b65",
}


@pytest.mark.parametrize("t,k", list(CONSTRUCTION_SHA256))
def test_lower_bound_bytes_are_pinned(t, k):
    assert _sha256(lower_bound_construction(t, k)) == CONSTRUCTION_SHA256[t, k]


def test_blow_up_bytes_are_pinned():
    child = random_gallai(7, 3, 2024)
    assert _sha256(blow_up_5(child, 4, 5)) == "8bca6b49a6714c75b14ff2a910525a741a651b38aae95c4151e2f0833c292fb5"


def test_recipes_build_and_describe():
    cases = [
        (UniformRecipe(3, 1), 3, "uniform(3,1)"),
        (TwoCliqueRecipe(4, 1, 2), 6, "twoclique(4,1,2)"),
        (BlowUp5Recipe(UniformRecipe(3, 1), 2, 3), 15, "blowup5(uniform(3,1),2,3)"),
    ]
    for recipe, order, text in cases:
        assert recipe.text() == text
        assert recipe.build().n == order


@pytest.mark.parametrize(
    "t,k,order",
    [
        (4, 1, 3),
        (4, 2, 6),
        (4, 3, 15),
        (4, 4, 30),
        (4, 5, 75),
        (5, 4, 40),
        (6, 5, 125),
    ],
)
def test_lower_bound_orders(t, k, order):
    g = lower_bound_construction(t, k)
    assert g.n == order
    assert g.n == gr_value("star-plus", t, k) - 1


def test_lower_bound_uses_exactly_k_colors():
    for t in (4, 5):
        for k in range(1, 6):
            g = lower_bound_construction(t, k)
            assert g.k == k
            assert set(int(c) for c in g.edge_colors()) == set(range(1, k + 1))


def test_lower_bound_rejects_small_t():
    with pytest.raises(ValueError):
        lower_bound_construction(3, 2)
    with pytest.raises(ValueError):
        lower_bound_recipe(2, 1)


def test_lower_bound_avoids_both_targets():
    for t in (4, 5):
        for k in (1, 2, 3):
            g = lower_bound_construction(t, k)
            assert find_rainbow_triangle(g) is None, (t, k)
            assert contains_pattern(g, Pattern.star_plus(t)) is None, (t, k)
            assert contains_pattern(g, Pattern.path_plus(t)) is None, (t, k)


def test_lower_bound_roundtrips_through_text():
    for t, k in [(4, 3), (4, 5)]:
        g = lower_bound_construction(t, k)
        assert decode(encode(g)) == g


def test_random_gallai_departs_from_seed_only():
    a = random_gallai(60, 4, 12345)
    b = random_gallai(60, 4, 12345)
    assert a == b
    c = random_gallai(60, 4, 12346)
    assert a != c


def test_random_gallai_is_rainbow_free_and_in_palette():
    rng = random.Random(9)
    for _ in range(40):
        n = rng.randint(1, 60)
        k = rng.randint(1, 6)
        g = random_gallai(n, k, rng.randrange(2**31))
        assert g.n == n and g.k == k
        assert find_rainbow_triangle(g) is None
        if n > 1:
            assert max(int(c) for c in g.edge_colors()) <= k


def test_random_gallai_single_vertex():
    g = random_gallai(1, 3, 0)
    assert g.n == 1


def test_random_gallai_hits_targets_at_threshold():
    # at the threshold order every rainbow-free coloring must contain the target
    found = 0
    for seed in range(200):
        g = random_gallai(16, 3, seed)
        if contains_pattern(g, Pattern.star_plus(4)) is not None:
            found += 1
    assert found == 200
