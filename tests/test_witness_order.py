"""contains_pattern returns the lexicographically first embedding.

The reference enumerates itertools.permutations against Pattern.edges(), so
it shares nothing with the detectors or with the brute-force oracle, which
must agree with the detectors on the least color holding a copy.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import colorings, wide_colorings
from gallai_forge.patterns import PATTERN_KINDS, Pattern, brute_force_find, contains_pattern


def _least_embedding(graph, p, color):
    edges = p.edges()
    for vs in itertools.permutations(range(graph.n), p.size):  # lexicographic order
        if all(graph.color_of(vs[i], vs[j]) == color for i, j in edges):
            return vs
    return None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(graph=st.one_of(colorings(7, 3), wide_colorings(7, 3)))
def test_witness_is_least_embedding(graph):
    # the colors on some edge, and the least and the greatest on none; a copy
    # of a pattern with an edge has a color on some edge, and a single vertex
    # is a copy in every color, so color 1 leads among the rest
    used = set(graph.edge_colors().tolist())
    unused = [c for c in range(1, graph.k + 1) if c not in used]
    colors = sorted({1, *used, *unused[:1], *unused[-1:]})
    for kind in PATTERN_KINDS:
        for size in range(1, 6):
            try:
                p = Pattern(kind, size)
            except ValueError:
                continue  # below the kind's smallest size
            least = {c: _least_embedding(graph, p, c) for c in colors}
            for c in colors:
                w = contains_pattern(graph, p, c)
                assert (None if w is None else (w.color, w.vertices)) == (
                    None if least[c] is None else (c, least[c])
                ), (kind, size, c)
            first = next(((c, vs) for c, vs in least.items() if vs is not None), None)
            w = contains_pattern(graph, p)
            assert (None if w is None else (w.color, w.vertices)) == first, (kind, size)
            oracle = brute_force_find(graph, p)
            # the oracle agrees on whether a copy exists and on its least color
            assert (None if oracle is None else oracle.color) == (
                None if w is None else w.color
            ), (kind, size)
