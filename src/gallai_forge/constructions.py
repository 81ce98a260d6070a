"""Extremal and randomized rainbow-triangle-free colorings.

The lower-bound family starts from a one- or two-clique seed and repeatedly
substitutes the whole coloring into the five corners of ``pentagon_k5``, the
2-colored K_5 whose color classes are both 5-cycles: each copy's block of the
blown-up color matrix is the child's, and every other block is filled with
the pentagon's color between the two corners.  Each step multiplies the
order by 5 and spends two fresh colors, which is what makes the closed-form
orders sharp.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass
from typing import Union

import numpy as np

from .formulas import _largest_k, gr_value
from .graphs import ColoredCompleteGraph, new_uniform

# the most uint16 edge colors that one numpy array can hold
_MAX_EDGES = np.iinfo(np.intp).max // np.dtype(np.uint16).itemsize


def two_clique_example(t: int, c_in: int, c_between: int) -> ColoredCompleteGraph:
    """Two disjoint copies of K_{t-1} in c_in, all cross edges in c_between."""
    if t < 3:
        raise ValueError(f"need t >= 3, got {t}")
    if c_in == c_between:
        raise ValueError("the clique color and the cross color must differ")
    if min(c_in, c_between) < 1:
        raise ValueError("colors are 1-based")
    m = t - 1
    sq = np.full((2 * m, 2 * m), c_between, dtype=np.uint16)
    sq[:m, :m] = c_in
    sq[m:, m:] = c_in
    return ColoredCompleteGraph.from_square(2 * m, max(c_in, c_between), sq)


def pentagon_k5(c_a: int, c_b: int) -> ColoredCompleteGraph:
    """2-colored K_5 with both color classes 5-cycles: edges {i, i+-1 mod 5}
    get c_a and {i, i+-2 mod 5} get c_b.  Neither color contains a triangle."""
    if c_a == c_b:
        raise ValueError("the two colors must differ")
    if min(c_a, c_b) < 1:
        raise ValueError("colors are 1-based")
    sq = np.zeros((5, 5), dtype=np.uint16)
    for i in range(5):
        for j in range(5):
            if i != j:
                sq[i, j] = c_a if (j - i) % 5 in (1, 4) else c_b
    return ColoredCompleteGraph.from_square(5, max(c_a, c_b), sq)


def blow_up_5(graph: ColoredCompleteGraph, c_a: int, c_b: int) -> ColoredCompleteGraph:
    """Substitute ``graph`` into all five corners of ``pentagon_k5(c_a, c_b)``.

    Copy j occupies vertices [j*|G|, (j+1)*|G|), and the edges between copies
    i and j take the pentagon's color of {i, j}.  Preserves rainbow-freeness:
    a triangle across two copies repeats its between-copy color, and across
    three copies it uses at most two colors.
    """
    pentagon = pentagon_k5(c_a, c_b)
    m = graph.n
    sq = pentagon.as_square().repeat(m, axis=0).repeat(m, axis=1)
    for j in range(5):
        sq[j * m : (j + 1) * m, j * m : (j + 1) * m] = graph.as_square()
    return ColoredCompleteGraph.from_square(5 * m, max(graph.k, pentagon.k), sq)


@dataclass(frozen=True)
class UniformRecipe:
    n: int
    c: int

    def build(self) -> ColoredCompleteGraph:
        return new_uniform(self.n, self.c, self.c)

    def text(self) -> str:
        return f"uniform({self.n},{self.c})"


@dataclass(frozen=True)
class TwoCliqueRecipe:
    t: int
    c_in: int
    c_between: int

    def build(self) -> ColoredCompleteGraph:
        return two_clique_example(self.t, self.c_in, self.c_between)

    def text(self) -> str:
        return f"twoclique({self.t},{self.c_in},{self.c_between})"


@dataclass(frozen=True)
class BlowUp5Recipe:
    child: "ConstructionRecipe"
    c_a: int
    c_b: int

    def build(self) -> ColoredCompleteGraph:
        return blow_up_5(self.child.build(), self.c_a, self.c_b)

    def text(self) -> str:
        return f"blowup5({self.child.text()},{self.c_a},{self.c_b})"


ConstructionRecipe = Union[UniformRecipe, TwoCliqueRecipe, BlowUp5Recipe]


def lower_bound_recipe(t: int, k: int) -> ConstructionRecipe:
    """Recipe for the largest known k-coloring of a complete graph with no
    rainbow triangle and no monochromatic star-plus/path-plus target on t
    vertices.  Orders: (t-1)*5^((k-1)/2) for odd k, 2(t-1)*5^((k-2)/2) for
    even k.  The closed forms start at t = 4; the triangle case t = 3 obeys
    a different value and is rejected here.  A (t, k) whose order has
    more edges than one array holds is refused before any recipe is made:
    neither its build nor its text could finish."""
    if t < 4:
        raise ValueError(f"need t >= 4, got {t}; the t = 3 target degenerates to the triangle")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    # decided from k: the order of a large k takes minutes to compute
    if k > _largest_k("star-plus", t, lambda value: (value - 1) * (value - 2) // 2 <= _MAX_EDGES):
        raise ValueError(
            f"t = {t}, k = {k} gives a construction of more than {_MAX_EDGES} edges, more than one array holds"
        )
    if k % 2:
        recipe: ConstructionRecipe = UniformRecipe(t - 1, 1)
        pairs = [(2 * i, 2 * i + 1) for i in range(1, (k - 1) // 2 + 1)]
    else:
        recipe = TwoCliqueRecipe(t, 1, 2)
        pairs = [(2 * i + 1, 2 * i + 2) for i in range(1, (k - 2) // 2 + 1)]
    for c_a, c_b in pairs:
        recipe = BlowUp5Recipe(recipe, c_a, c_b)
    return recipe


def _peak_bytes(order: int, k: int) -> int:
    """Peak memory of building a k-coloring of K_order, by
    ``lower_bound_construction`` or ``random_gallai``, and encoding it as
    GCG text."""
    # bytes per entry of the order-by-order color matrix: the construct
    # command's traced peak is 5.12 while every color has one digit
    # (k <= 9), 12.2 at k = 10, where the general writer's int64 offsets
    # run, and 13.5 once every color has two; the random command's is 5.0
    # at k = 3; resident memory ran up to a tenth above the traced peak
    per_entry = 6 if k < 10 else 15
    return per_entry * order * order


def _physical_memory() -> int | None:
    """Bytes of physical memory, or None where the platform does not say."""
    if "SC_PHYS_PAGES" not in getattr(os, "sysconf_names", {}):
        return None
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


def _refuse_beyond_memory(order: int, k: int, request: str) -> None:
    """Raise MemoryError, naming ``request``, when building a k-coloring of
    K_order and encoding it would need more than physical memory, rather
    than being killed by the kernel part way."""
    need, memory = _peak_bytes(order, k), _physical_memory()
    if memory is not None and need > memory:
        raise MemoryError(
            f"{request} about {need / 2**30:.1f} GiB to build and encode, "
            f"more than the {memory / 2**30:.1f} GiB of physical memory"
        )


def lower_bound_construction(t: int, k: int) -> ColoredCompleteGraph:
    """Build ``lower_bound_recipe(t, k)``.  A (t, k) whose build and GCG
    encoding would need more than the machine's physical memory is refused
    with MemoryError before anything is built."""
    recipe = lower_bound_recipe(t, k)
    _refuse_beyond_memory(gr_value("star-plus", t, k) - 1, k, f"t = {t}, k = {k} needs")
    return recipe.build()


def _fill_random(sq: np.ndarray, lo: int, hi: int, k: int, rng: random.Random) -> None:
    # fills only the entries below the diagonal, the ones from_square reads;
    # called on two or more vertices
    size = hi - lo
    parts = rng.randint(2, min(8, size))
    cuts = sorted(rng.sample(range(1, size), parts - 1))
    bounds = [lo] + [lo + c for c in cuts] + [hi]
    if k >= 2:
        c1, c2 = rng.sample(range(1, k + 1), 2)
    else:
        c1 = c2 = 1
    for i in range(parts):
        for j in range(i + 1, parts):
            sq[bounds[j] : bounds[j + 1], bounds[i] : bounds[i + 1]] = c1 if rng.random() < 0.5 else c2
    for i in range(parts):
        if bounds[i + 1] - bounds[i] > 1:
            _fill_random(sq, bounds[i], bounds[i + 1], k, rng)


def random_gallai(n: int, k: int, seed: int) -> ColoredCompleteGraph:
    """Seed-deterministic rainbow-triangle-free coloring of K_n.

    Recursive substitution: split the vertex range into 2..8 parts (sizes by
    uniform composition), color each part pair with one of two colors drawn
    from 1..k, recurse into the parts.  Any 2-coloring of the quotient is
    rainbow-free, and substitution preserves that, so no rejection step is
    needed.  Monochromatic triangles are allowed and common.  An (n, k)
    whose build and GCG encoding would need more than the machine's
    physical memory is refused with MemoryError before anything is
    allocated.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if k < 1:
        raise ValueError(f"need k >= 1, got {k}")
    _refuse_beyond_memory(n, k, f"n = {n}, k = {k} would allocate")
    rng = random.Random(seed)
    sq = np.zeros((n, n), dtype=np.uint16)
    if n > 1:
        _fill_random(sq, 0, n, k, rng)
    return ColoredCompleteGraph.from_square(n, k, sq)
