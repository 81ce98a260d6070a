"""contains_pattern returns the lexicographically first embedding.

The reference enumerates itertools.permutations against Pattern.edges(), so
it shares nothing with the detectors or with the brute-force oracle.
"""

from __future__ import annotations

import itertools

from hypothesis import given, settings

from conftest import colorings
from gallai_forge.patterns import PATTERN_KINDS, Pattern, contains_pattern


def _least_embedding(graph, p, color):
    edges = p.edges()
    for vs in itertools.permutations(range(graph.n), p.size):  # lexicographic order
        if all(graph.color_of(vs[i], vs[j]) == color for i, j in edges):
            return vs
    return None


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(colorings(7, 3))
def test_witness_is_least_embedding(graph):
    for kind in PATTERN_KINDS:
        for size in range(1, 6):
            try:
                p = Pattern(kind, size)
            except ValueError:
                continue  # below the kind's smallest size
            least = {c: _least_embedding(graph, p, c) for c in range(1, graph.k + 1)}
            for c in range(1, graph.k + 1):
                w = contains_pattern(graph, p, c)
                assert (None if w is None else (w.color, w.vertices)) == (
                    None if least[c] is None else (c, least[c])
                ), (kind, size, c)
            first = next(((c, vs) for c, vs in least.items() if vs is not None), None)
            w = contains_pattern(graph, p)
            assert (None if w is None else (w.color, w.vertices)) == first, (kind, size)
