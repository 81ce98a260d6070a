"""Collects the acceptance-criterion result lines and echoes them in the
terminal summary so they are visible even when capture is on.  Also holds
the definitional rainbow-triangle oracle and the Hypothesis strategies for
colorings that several test modules share."""

import itertools

import numpy as np
from hypothesis import strategies as st

from gallai_forge.constructions import random_gallai
from gallai_forge.graphs import MAX_COLOR, ColoredCompleteGraph

ACCEPTANCE_LINES: list[str] = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def rainbow_triples(graph: ColoredCompleteGraph) -> list[tuple[int, int, int]]:
    """Every rainbow triangle (a, b, c), a < b < c, in lexicographic order,
    straight from the definition through color_of."""
    return [
        (a, b, c)
        for a, b, c in itertools.combinations(range(graph.n), 3)
        if len({graph.color_of(a, b), graph.color_of(a, c), graph.color_of(b, c)}) == 3
    ]


@st.composite
def colorings(draw, max_n: int, max_k: int = 6) -> ColoredCompleteGraph:
    """Every edge colored uniformly from 1..k, n in 1..max_n, k in 1..max_k."""
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(1, max_k))
    size = n * (n - 1) // 2
    return ColoredCompleteGraph(n, k, draw(st.lists(st.integers(1, k), min_size=size, max_size=size)))


@st.composite
def wide_colorings(draw, max_n: int, max_k: int = 6) -> ColoredCompleteGraph:
    """A coloring from ``colorings`` with its colors relabeled into colors
    of one to five digits, declared up to MAX_COLOR; labels may repeat."""
    g = draw(colorings(max_n, max_k))
    k = draw(st.sampled_from([g.k, 9, 10, 99, 100, 1000, 12345, MAX_COLOR]).filter(lambda k: k >= g.k))
    labels = draw(st.lists(st.integers(1, k), min_size=g.k, max_size=g.k))
    return ColoredCompleteGraph(g.n, k, np.array(labels, dtype=np.uint16)[g.edge_colors() - 1])


@st.composite
def recolored_gallai(draw, max_n: int, edits: st.SearchStrategy[int]) -> tuple[ColoredCompleteGraph, int]:
    """A random_gallai coloring with ``edits`` edges given a color drawn from
    1..k (possibly the old one); returns the graph and the edit count."""
    n = draw(st.integers(2, max_n))
    k = draw(st.integers(1, 6))
    tri = random_gallai(n, k, draw(st.integers(0, 2**32 - 1))).edge_colors().copy()
    count = draw(edits)
    for _ in range(count):
        tri[draw(st.integers(0, tri.size - 1))] = draw(st.integers(1, k))
    return ColoredCompleteGraph(n, k, tri), count
