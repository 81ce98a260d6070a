from __future__ import annotations

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


def test_blow_up_preserves_rainbow_freeness():
    rng = random.Random(31)
    for _ in range(15):
        child = random_gallai(rng.randint(1, 8), rng.randint(1, 3), rng.randrange(2**31))
        assert find_rainbow_triangle(child) is None
        g = blow_up_5(child, child.k + 1, child.k + 2)
        assert find_rainbow_triangle(g) is None


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
