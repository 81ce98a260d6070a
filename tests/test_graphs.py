from __future__ import annotations

import itertools
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import colorings, wide_colorings
from gallai_forge.constructions import lower_bound_recipe
from gallai_forge.graphs import (
    MAX_COLOR,
    ColoredCompleteGraph,
    GcgFormatError,
    _decode_canonical,
    _decode_tokens,
    _tokenize,
    decode,
    encode,
    iter_bits,
    new_uniform,
    tri_index,
    tri_unindex,
)


def test_tri_index_roundtrip():
    i = 0
    for u in range(1, 40):
        for v in range(u):
            assert tri_index(u, v) == i
            assert tri_index(v, u) == i  # order-insensitive
            assert tri_unindex(i) == (u, v)
            i += 1


def test_tri_unindex_inverts_tri_index():
    # math.isqrt is exact, so the row needs no correction however large i is;
    # row u starts at u(u-1)/2, which is near 2^62 for u near 3037000500
    starts = [u * (u - 1) // 2 for u in range(3037000497, 3037000504)]
    near = {i for start in starts for i in range(start - 2, start + 3)}
    for i in itertools.chain(range(10**5), range(2**62 - 100, 2**62 + 100), sorted(near)):
        u, v = tri_unindex(i)
        assert 0 <= v < u
        assert tri_index(u, v) == i


def test_iter_bits():
    assert list(iter_bits(0)) == []
    assert list(iter_bits(0b101101)) == [0, 2, 3, 5]
    assert list(iter_bits(1 << 200)) == [200]


def test_basic_construction_and_color_of():
    g = ColoredCompleteGraph(4, 3, [1, 2, 3, 1, 2, 3])
    assert g.n == 4 and g.k == 3
    assert g.color_of(1, 0) == 1
    assert g.color_of(0, 1) == 1
    assert g.color_of(3, 2) == 3
    assert tuple(g.edge_colors()) == (1, 2, 3, 1, 2, 3)


def test_construction_validation():
    with pytest.raises(ValueError):
        ColoredCompleteGraph(0, 1, [])
    with pytest.raises(ValueError):
        ColoredCompleteGraph(3, 0, [1, 1, 1])
    with pytest.raises(ValueError):
        ColoredCompleteGraph(3, 1, [1, 1])  # wrong length
    with pytest.raises(ValueError) as exc:
        ColoredCompleteGraph(3, 2, [1, 3, 1])  # color out of range
    assert "3" in str(exc.value)
    with pytest.raises(ValueError):
        ColoredCompleteGraph(3, 2, [1, 0, 1])
    # colors outside uint16, in a list or an array, are refused, not wrapped
    for colors in ([1, 2, 70000], [1, -1, 1], np.array([1, 2, 65538])):
        with pytest.raises(ValueError, match=r"^edge \{\d, \d\} has color (70000|-1|65538), valid range is 1\.\.5$"):
            ColoredCompleteGraph(3, 5, colors)
    with pytest.raises(ValueError, match=r"^edge \{1, 0\} has color 65537, valid range is 1\.\.5$"):
        ColoredCompleteGraph.from_square(2, 5, np.array([[0, 65537], [65537, 0]]))
    # a non-integer dtype is refused, not truncated
    for colors in ([1, 1.5, 1], np.array([1.0, 2.0, 1.0])):
        with pytest.raises(ValueError, match=r"^edge \{1, 0\} has color 1\.0, valid range is 1\.\.5$"):
            ColoredCompleteGraph(3, 5, colors)
    assert ColoredCompleteGraph(1, 1, []).n == 1


def test_construction_copies_the_callers_array():
    colors = np.array([1, 2, 1], dtype=np.uint16)
    g = ColoredCompleteGraph(3, 2, colors)
    assert colors.flags.writeable
    colors[0] = 2
    assert g.color_of(1, 0) == 1
    assert not g.edge_colors().flags.writeable


def test_color_of_rejects_bad_pairs():
    g = new_uniform(5, 1, 2)
    with pytest.raises(ValueError):
        g.color_of(2, 2)
    with pytest.raises(ValueError):
        g.color_of(0, 5)


def test_as_square_symmetry():
    rng = random.Random(11)
    for _ in range(20):
        n = rng.randint(1, 12)
        k = rng.randint(1, 4)
        tri = [rng.randint(1, k) for _ in range(n * (n - 1) // 2)]
        g = ColoredCompleteGraph(n, k, tri)
        sq = g.as_square()
        assert sq.shape == (n, n)
        assert (sq == sq.T).all()
        assert (np.diag(sq) == 0).all()
        for u in range(n):
            for v in range(u):
                assert sq[u, v] == g.color_of(u, v)


def test_from_square_roundtrip():
    g = ColoredCompleteGraph(5, 3, [1, 2, 3, 1, 2, 3, 1, 2, 3, 1])
    h = ColoredCompleteGraph.from_square(5, 3, g.as_square())
    assert g == h


@st.composite
def _square_cases(draw) -> ColoredCompleteGraph:
    """n at the byte and word edges of a packed row or up to 200; colors up to MAX_COLOR."""
    n = draw(st.sampled_from([1, 2, 3, 63, 64, 65]) | st.integers(1, 200))
    k = draw(st.sampled_from([1, 2, 255, 256, MAX_COLOR]) | st.integers(1, MAX_COLOR))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return ColoredCompleteGraph(n, k, rng.integers(1, k + 1, n * (n - 1) // 2))


@example(g=new_uniform(65, MAX_COLOR, MAX_COLOR))
@example(g=ColoredCompleteGraph(1, 1, []))
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(g=_square_cases())
def test_square_views_match_the_index_reference(g):
    n = g.n
    rows, cols = np.tril_indices(n, -1)
    want = np.zeros((n, n), dtype=np.uint16)
    want[rows, cols] = want[cols, rows] = g.edge_colors()
    sq = g.as_square()
    assert sq.dtype == want.dtype
    assert sq.tobytes() == want.tobytes()
    assert ColoredCompleteGraph.from_square(n, g.k, sq) == g
    # only the entries below the diagonal are read: the zeros above would be refused
    assert ColoredCompleteGraph.from_square(n, g.k, np.tril(want, -1)) == g


def test_used_colors_are_ascending_read_only_and_cached():
    g = ColoredCompleteGraph(4, MAX_COLOR, [MAX_COLOR, 7, 7, 300, MAX_COLOR, 7])
    used = g.used_colors()
    assert used.tolist() == [7, 300, MAX_COLOR]
    assert not used.flags.writeable
    assert g.used_colors() is used
    assert ColoredCompleteGraph(1, 3, []).used_colors().tolist() == []


def test_color_masks_and_degrees():
    g = ColoredCompleteGraph(4, 2, [1, 1, 2, 2, 1, 2])
    m1 = g.color_masks(1)
    # vertex 0 sees color 1 on edges to 1 and 2
    assert m1[0] == 0b110
    assert g.neighbors_in_color(0, 1) == 0b110
    assert g.degree_in_color(0, 1) == 2
    assert g.degree_in_color(0, 2) == 1
    for c in (1, 2):
        masks = g.color_masks(c)
        for u in range(4):
            assert not (masks[u] >> u) & 1  # no self loop
            for v in range(4):
                if u != v:
                    assert ((masks[u] >> v) & 1) == (g.color_of(u, v) == c)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(g=colorings(40))
def test_encode_decode_roundtrip_random(g):
    assert decode(encode(g)) == g


@settings(max_examples=500, deadline=None, derandomize=True, database=None)
@given(g=colorings(8), edit=st.sampled_from(["replace", "insert", "delete"]), data=st.data())
def test_decode_mutated_text_fails_only_with_a_position(g, edit, data):
    raw = encode(g).encode("ascii")
    at = data.draw(st.integers(0, len(raw) - (edit != "insert")))
    byte = bytes([data.draw(st.integers(0, 255))])
    tail = raw[at + (edit != "insert") :]
    mutated = (raw[:at] + (b"" if edit == "delete" else byte) + tail).decode("latin-1")
    try:
        out = decode(mutated)
    except GcgFormatError as exc:
        assert exc.line >= 1 and exc.column >= 1
        assert f"line {exc.line}, column {exc.column}:" in str(exc)
    else:
        assert isinstance(out, ColoredCompleteGraph)


def test_encode_exact_bytes():
    g = ColoredCompleteGraph(3, 2, [1, 2, 1])
    assert encode(g) == "gcg 1\n3 2\n1\n2 1\n"


def test_decode_tolerates_comments_and_blanks():
    text = "# leading comment\ngcg 1\n\n3 2   # dims\n1\n\n2 1  # last row\n# trailing\n"
    g = decode(text)
    assert g.n == 3 and g.k == 2
    assert tuple(g.edge_colors()) == (1, 2, 1)


def test_decode_single_vertex():
    g = decode("gcg 1\n1 1\n")
    assert g.n == 1 and g.k == 1


@pytest.mark.parametrize(
    "text,line,needle",
    [
        ("", 1, "header"),
        ("gcg 2\n3 1\n1\n1 1\n", 1, "header"),
        ("gcg 1\n", 2, "dimensions"),
        ("gcg 1\n3\n1\n1 1\n", 2, "<n> <k>"),
        ("gcg 1\nx 1\n", 2, "integer"),
        ("gcg 1\n0 1\n", 2, "vertex count"),
        ("gcg 1\n2 0\n1\n", 2, "color count"),
        ("gcg 1\n3 1\n1\n", 4, "row"),
        ("gcg 1\n3 1\n1 1\n1 1\n", 3, "row 1"),
        ("gcg 1\n3 1\n1\n1 2\n", 4, "range"),
        ("gcg 1\n2 1\n1\nextra\n", 4, "unexpected data"),
        ("gcg 1\n2 2\n\u00b2\n", 3, "integer"),
        ("gcg 1\n2 70000\n1\n", 2, "color count"),
        ("gcg 1\n1000000000 2\n1\n", 4, "unexpected end of input"),
        # tokens longer than Python's limit on integer text
        ("gcg 1\n" + "1" * 4400 + " 2\n", 2, "column 1: integer too long (4400 digits)"),
        ("gcg 1\n2 " + "1" * 4400 + "\n1\n", 2, "column 3: integer too long"),
        ("gcg 1\n2 2\n" + "1" * 4400 + "\n", 3, "column 1: integer too long"),
        ("gcg 1\n3 2\n1\n1 " + "0" * 4400 + "1\n", 4, "column 3: integer too long (4401 digits)"),
    ],
)
def test_decode_errors_carry_position(text, line, needle):
    with pytest.raises(GcgFormatError) as exc:
        decode(text)
    assert exc.value.line == line
    assert needle in str(exc.value)
    assert f"line {line}" in str(exc.value)


def test_decode_error_column_points_at_token():
    with pytest.raises(GcgFormatError) as exc:
        decode("gcg 1\n3 2\n1\n1 9\n")
    assert exc.value.line == 4
    assert exc.value.column == 3


@pytest.mark.parametrize(
    "row,column",
    [
        ("1\t9", 3),  # a tab is one column
        ("1 9# x", 3),  # a comment glued to a token is not part of it
        ("x#9", 1),
        ("1\u30009", 3),  # a non-ASCII space separates tokens
        ("\xa01 9", 4),
    ],
)
def test_decode_error_column_after_tabs_comments_and_unicode_spaces(row, column):
    with pytest.raises(GcgFormatError) as exc:
        decode(f"gcg 1\n3 2\n1\n{row}\n")
    assert (exc.value.line, exc.value.column) == (4, column)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(line=st.text(alphabet="09x# \t\x0b\x0c\x1c\x85\xa0\u2000\u2028\u3000\u00b2\u200b", max_size=20))
def test_tokenize_matches_isspace_oracle(line):
    body = line.split("#", 1)[0]
    tokens, start = [], None
    for i, ch in enumerate(body + " "):
        if ch.isspace() and start is not None:
            tokens.append((body[start:i], start + 1))
            start = None
        elif not ch.isspace() and start is None:
            start = i
    assert _tokenize(line) == tokens


def _encode_by_rows(g) -> str:
    """Reference: the row-by-row join that encode replaced."""
    tri = g.edge_colors().tolist()
    rows = [" ".join(map(str, tri[i * (i - 1) // 2 : i * (i + 1) // 2])) for i in range(1, g.n)]
    return "\n".join(["gcg 1", f"{g.n} {g.k}", *rows]) + "\n"


# one digit per color, declared with k >= 10: the fixed-width path
ONE_DIGIT_WIDE_K = ColoredCompleteGraph(5, 12, np.arange(10) % 9 + 1)
# only the last edge has two digits: the general path
LAST_EDGE_TWO_DIGITS = ColoredCompleteGraph(4, 10, [1, 9, 2, 8, 3, 10])


@example(g=ONE_DIGIT_WIDE_K)
@example(g=LAST_EDGE_TWO_DIGITS)
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(g=wide_colorings(12))
def test_encode_matches_the_row_join(g):
    assert encode(g) == _encode_by_rows(g)
    assert _decode_canonical(encode(g)) == g


def _outcome(parse, text):
    try:
        return parse(text)
    except GcgFormatError as exc:
        return (exc.line, exc.column, exc.message)


def _edit(draw, text: str) -> str:
    """One of the departures from canonical text that the tokenizer must
    judge: a mutated byte, a line break of any kind, CRLF, a tab, a double
    space, a leading zero, a non-ASCII digit, a huge declared n or a row end
    swapped with a space, which keeps every count of the text."""
    edits = ["none", "replace", "insert", "delete", "break", "crlf", "tab", "double", "zero", "unicode", "huge", "swap"]
    edit = draw(st.sampled_from(edits))
    if edit == "none":
        return text
    if edit in ("replace", "insert", "delete", "break"):
        at = draw(st.integers(0, len(text) - (edit in ("replace", "delete"))))
        chars = "0123456789 \n\t\r#x\x0b\x1c\x85\xa0\u00b2\u0661\u3000"
        if edit == "break":  # str.splitlines splits at each of these
            chars = "\n\r\x0b\x0c\x1c\x1d\x1e\x85\u2028\u2029"
        char = "" if edit == "delete" else draw(st.sampled_from(chars))
        return text[:at] + char + text[at + (edit in ("replace", "delete")) :]
    if edit == "crlf":
        return text.replace("\n", "\r\n")
    if edit == "huge":
        lines = text.split("\n")
        lines[1] = f"{draw(st.sampled_from([10**9, 10**17, 10**30]))} {lines[1].split()[1]}"
        return "\n".join(lines)
    if edit == "swap":
        header_end = text.index("\n", text.index("\n") + 1)
        ends = [i for i, ch in enumerate(text) if i > header_end and ch == "\n"]
        spaces = [i for i, ch in enumerate(text) if i > header_end and ch == " "]
        if not (ends and spaces):
            return text
        at, to = draw(st.sampled_from(ends)), draw(st.sampled_from(spaces))
        chars = list(text)
        chars[at], chars[to] = chars[to], chars[at]
        return "".join(chars)
    # a space (tab, double) or a digit (zero, unicode) past the header line
    spots = [i for i, ch in enumerate(text) if i > 5 and (ch == " " if edit in ("tab", "double") else ch.isdigit())]
    if not spots:
        return text
    at = draw(st.sampled_from(spots))
    swap = {"tab": "\t", "double": "  ", "zero": "0" + text[at], "unicode": "\u0661"}[edit]
    return text[:at] + swap + text[at + 1 :]


class _Draws:
    """Stands in for ``st.data()`` in an explicit example: returns the given
    values in turn, whatever the strategy."""

    def __init__(self, *values):
        self.values = iter(values)

    def draw(self, strategy):
        return next(self.values)


# the newline after row 1 (text offset 12) made a digit: the body keeps its length
@example(g=ONE_DIGIT_WIDE_K, recipe=True, data=_Draws("replace", 12, "7"))
# "1 12\n1\n": the counts of colors and row ends are right, a row end is not
@example(g=ColoredCompleteGraph(3, 12, [1, 12, 1]), recipe=False, data=_Draws("swap", 12, 15))
@example(g=LAST_EDGE_TWO_DIGITS, recipe=False, data=_Draws("none"))
@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(g=wide_colorings(9), recipe=st.booleans(), data=st.data())
def test_fast_decode_agrees_with_the_tokenizer(g, recipe, data):
    text = encode(g)
    if recipe:  # what construct writes after the rows
        text += f"# recipe: {lower_bound_recipe(4, 1 + g.n % 3).text()}\n"
    assert _decode_canonical(text) == g
    text = _edit(data.draw, text)
    want = _outcome(_decode_tokens, text)
    fast = _decode_canonical(text)
    assert fast is None or fast == want
    got = _outcome(decode, text)
    assert got == want


def test_fast_decode_takes_the_construct_file_and_one_vertex():
    recipe = lower_bound_recipe(4, 3)
    g = recipe.build()
    assert _decode_canonical(encode(g) + f"# recipe: {recipe.text()}\n") == g
    assert _decode_canonical("gcg 1\n1 1\n") == decode("gcg 1\n1 1\n")
    # data after a comment, also past a line break other than "\n": the
    # tokenizer reports it
    for tail in ("# x\n1\n", "# x\x0b1\n", "# x\r1"):
        text = "gcg 1\n2 1\n1\n" + tail
        assert _decode_canonical(text) is None
        assert _outcome(decode, text) == (5, 1, "unexpected data after row 1")


def test_huge_declared_order_allocates_by_the_text():
    # the header is untrusted: neither parser may size an array by its n
    text = "gcg 1\n10000000 2\n1\n2 1\n"
    tracemalloc.start()
    try:
        assert _decode_canonical(text) is None
        canonical_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        with pytest.raises(GcgFormatError) as exc:
            decode(text)
        decode_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (exc.value.line, exc.value.column) == (5, 1)
    assert "expected row 3" in exc.value.message
    assert canonical_peak < 1 << 20 and decode_peak < 1 << 20


def test_new_uniform():
    g = new_uniform(6, 2, 3)
    assert g.n == 6 and g.k == 3
    assert set(g.edge_colors()) == {2}
    with pytest.raises(ValueError):
        new_uniform(3, 4, 3)
