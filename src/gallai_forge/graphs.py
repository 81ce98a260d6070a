"""Edge-colored complete graphs: storage and text format.

Vertices are 0-based, colors are 1-based.  A complete graph on n vertices
stores its edge colors in a flat lower-triangular array indexed by
(max(u, v), min(u, v)), so row i of the text format is exactly the slice
[i(i-1)/2, i(i+1)/2) of that array.
"""

from __future__ import annotations

import math
import re
from typing import Iterator

import numpy as np

GCG_MAGIC = "gcg 1"

# uint16 storage bounds the declared color count; well above the 64 we promise.
MAX_COLOR = 65535


def tri_index(u: int, v: int) -> int:
    """Flat index of edge {u, v}; order of endpoints does not matter."""
    if u < v:
        u, v = v, u
    return u * (u - 1) // 2 + v


def tri_unindex(i: int) -> tuple[int, int]:
    """Inverse of tri_index: (larger endpoint, smaller endpoint)."""
    u = (1 + math.isqrt(1 + 8 * i)) // 2
    return u, i - u * (u - 1) // 2


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _row_masks(hits: np.ndarray) -> list[int]:
    """Row i of a boolean matrix as an int whose bit j is ``hits[i, j]``.

    Only ``ColoredCompleteGraph.color_masks`` turns every row into an int;
    the Gallai-partition search keeps its rows packed and unpacks one row
    when it reaches that row's vertex."""
    packed = np.packbits(hits, axis=1, bitorder="little")
    # one buffer sliced by row: a row view's tobytes costs more than a slice
    width = packed.shape[1]
    buf = packed.tobytes()
    return [int.from_bytes(buf[i * width : (i + 1) * width], "little") for i in range(len(packed))]


class GcgFormatError(ValueError):
    """Malformed GCG text; carries the 1-based line and column of the fault."""

    def __init__(self, line: int, column: int, message: str):
        self.line = line
        self.column = column
        self.message = message
        super().__init__(f"line {line}, column {column}: {message}")


class ColoredCompleteGraph:
    """Immutable complete graph on ``n`` vertices with ``k``-colored edges.

    ``k`` is declared, not inferred: a coloring may use fewer colors than it
    declares.  Instances never change after construction, so the colors in
    use, per-color adjacency bitmasks, the square color matrix and the
    per-vertex triangle census of ``patterns`` are cached on first use and
    are safe to share across concurrent readers.
    """

    __slots__ = ("n", "k", "_tri", "_used", "_masks", "_square", "_census")

    def __init__(self, n: int, k: int, colors) -> None:
        if n < 1:
            raise ValueError(f"vertex count must be at least 1, got {n}")
        if not 1 <= k <= MAX_COLOR:
            raise ValueError(f"color count must be in 1..{MAX_COLOR}, got {k}")
        # checked before the cast, which would wrap a color outside uint16 and truncate a fraction
        given = np.asarray(colors)
        want = n * (n - 1) // 2
        if given.shape != (want,):
            raise ValueError(f"expected {want} edge colors for n={n}, got shape {given.shape}")
        if want:
            # no color of a non-integer dtype is valid; the first edge is named
            bad = (given < 1) | (given > k) if given.dtype.kind in "iu" else np.ones(want, dtype=bool)
            if bad.any():
                i = int(np.argmax(bad))
                u, v = tri_unindex(i)
                raise ValueError(f"edge {{{u}, {v}}} has color {given[i]}, valid range is 1..{k}")
        tri = np.array(given, dtype=np.uint16)  # a copy: freezing it leaves the caller's array alone
        tri.setflags(write=False)
        self.n = n
        self.k = k
        self._tri = tri
        self._used = None
        self._masks: dict[int, list[int]] = {}
        self._square = None
        self._census = None

    @classmethod
    def from_square(cls, n: int, k: int, square) -> "ColoredCompleteGraph":
        """Build from an n-by-n symmetric color matrix.  Only the entries
        below the diagonal are read."""
        sq = np.asarray(square)
        if sq.shape != (n, n):
            raise ValueError(f"expected a {n}x{n} matrix, got shape {sq.shape}")
        # the True entries of the strict lower triangle, row-major, are the flat edge order
        return cls(n, k, sq[np.tri(n, n, -1, dtype=bool)])

    def color_of(self, u: int, v: int) -> int:
        if u == v:
            raise ValueError(f"no edge from vertex {u} to itself")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise ValueError(f"edge {{{u}, {v}}} out of range for n={self.n}")
        return int(self._tri[tri_index(u, v)])

    def as_square(self) -> np.ndarray:
        """Symmetric n-by-n color matrix with a zero diagonal (read-only)."""
        if self._square is None:
            sq = np.zeros((self.n, self.n), dtype=np.uint16)
            # the True entries of the strict lower triangle, row-major, are the flat edge order
            below = np.tri(self.n, self.n, -1, dtype=bool)
            sq[below] = self._tri
            sq.T[below] = self._tri
            sq.setflags(write=False)
            self._square = sq
        return self._square

    def color_masks(self, c: int) -> list[int]:
        """Per-vertex neighbor bitmasks for color ``c`` (cached)."""
        if not 1 <= c <= self.k:
            raise ValueError(f"color {c} out of range 1..{self.k}")
        masks = self._masks.get(c)
        if masks is None:
            masks = self._masks[c] = _row_masks(self.as_square() == c)
        return masks

    def neighbors_in_color(self, v: int, c: int) -> int:
        """Bitmask of the vertices joined to ``v`` by an edge of color ``c``.

        Bit u is set iff color_of(u, v) == c.  Use iter_bits() to walk the
        members in ascending order; ``mask >> u & 1`` tests membership.
        """
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range for n={self.n}")
        return self.color_masks(c)[v]

    def degree_in_color(self, v: int, c: int) -> int:
        return self.neighbors_in_color(v, c).bit_count()

    def edge_colors(self) -> np.ndarray:
        """The flat lower-triangular color array (read-only view)."""
        return self._tri

    def used_colors(self) -> np.ndarray:
        """The colors on some edge, ascending (read-only, cached)."""
        if self._used is None:
            present = np.zeros(self.k + 1, dtype=bool)
            present[self._tri] = True
            used = np.flatnonzero(present)
            used.setflags(write=False)
            self._used = used
        return self._used

    def __eq__(self, other) -> bool:
        if not isinstance(other, ColoredCompleteGraph):
            return NotImplemented
        return self.n == other.n and self.k == other.k and bool(np.array_equal(self._tri, other._tri))

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"ColoredCompleteGraph(n={self.n}, k={self.k})"


def new_uniform(n: int, c: int, k: int) -> ColoredCompleteGraph:
    """Complete graph with every edge colored ``c``; declares ``k`` colors."""
    if not 1 <= c <= k:
        raise ValueError(f"color {c} out of declared range 1..{k}")
    tri = np.full(n * (n - 1) // 2, c, dtype=np.uint16)
    return ColoredCompleteGraph(n, k, tri)


def encode(graph: ColoredCompleteGraph) -> str:
    """Serialize to GCG text.  The output is canonical: decode(encode(g)) == g
    and equal graphs encode to identical bytes.

    When every color is below 10 the text is fixed-width, digits at even
    offsets of the body and separators at odd ones, and is written by
    strided stores.  Colors of two or more digits shift every later offset,
    so only the general writer, which places each color by a running sum of
    widths, handles them."""
    tri = graph._tri
    rows = np.arange(1, graph.n, dtype=np.int64)
    if tri.max(initial=0) < 10:
        body = np.full(2 * tri.size, ord(" "), dtype=np.uint8)
        np.add(tri, ord("0"), out=body[::2], casting="unsafe")
        body[rows * (rows + 1) - 1] = ord("\n")  # after the last color of row i
    else:
        # each color is its digits and one separator: a space, or a newline
        # after the last color of a row
        width = np.ones(tri.size, dtype=np.uint8)
        for power in (10, 100, 1000, 10000):
            width += tri >= power
        ends = np.cumsum(width + 1, dtype=np.int64)
        body = np.full(int(ends[-1]), ord(" "), dtype=np.uint8)
        body[ends[rows * (rows + 1) // 2 - 1] - 1] = ord("\n")
        ends -= 2  # now each color's last digit
        rest = tri
        for place in range(int(width.max())):
            live = width > place
            body[ends[live] - place] = ord("0") + rest[live] % 10
            rest = rest // 10
    return f"{GCG_MAGIC}\n{graph.n} {graph.k}\n" + body.tobytes().decode("ascii")


def _tokenize(line: str) -> list[tuple[str, int]]:
    # (token, 1-based column); a '#' starts a comment running to end of line
    return [(m.group(), m.start() + 1) for m in re.finditer(r"\S+", line.partition("#")[0])]


def decode(text: str) -> ColoredCompleteGraph:
    """Parse GCG text; raises GcgFormatError with line/column on any fault."""
    graph = _decode_canonical(text)
    return graph if graph is not None else _decode_tokens(text)


# Canonical text: the header, "<n> <k>", then row i of exactly i colors in
# 1..k for i = 1..n-1, digits and single spaces ending in "\n", then at most
# some lines that each start with "#" (construct appends its recipe so).
_CANONICAL_HEAD = re.compile(rb"gcg 1\n([0-9]{1,18}) ([0-9]{1,5})\n")
_MAX_DIGITS = 5  # of a color: MAX_COLOR has five
_BODY_BYTES = np.zeros(256, dtype=bool)
_BODY_BYTES[[ord(" "), ord("\n"), *range(ord("0"), ord("9") + 1)]] = True
_COMMENT_BYTES = np.zeros(256, dtype=bool)
_COMMENT_BYTES[[ord("\n"), *range(0x20, 0x7F)]] = True


def _decode_canonical(text: str) -> ColoredCompleteGraph | None:
    """The graph of canonical text, parsed with whole-array operations, or
    None for any other text, valid or not, which the tokenizer then reads
    and, on a fault, locates.

    A body (the text after the header, less any comment tail) of exactly
    n(n - 1) bytes is canonical only if every color is one digit, so it is
    checked as fixed-width text: digits at even offsets, separators at odd
    ones.  Any other length goes to the general parser, which finds each
    color's width from its separators; only it reads colors of two or more
    digits."""
    if not text.isascii():
        return None
    raw = text.encode("ascii")
    head = _CANONICAL_HEAD.match(raw)
    if head is None:
        return None
    n, k = int(head[1]), int(head[2])
    if n < 1 or not 1 <= k <= MAX_COLOR:
        return None
    start = head.end()
    stop = raw.find(b"#", start)
    if stop < 0:
        stop = len(raw)
    else:
        # only comment lines after the rows, and no byte that splits lines but "\n"
        tail = np.frombuffer(raw, dtype=np.uint8, offset=stop)
        if raw[stop - 1] != ord("\n") or not _COMMENT_BYTES[tail].all():
            return None
        if (tail[np.flatnonzero(tail[:-1] == ord("\n")) + 1] != ord("#")).any():
            return None
    body = np.frombuffer(raw, dtype=np.uint8, count=stop - start, offset=start)
    # the header is untrusted: compare lengths before sizing any array by n
    if body.size == n * (n - 1):
        rows = np.arange(1, n, dtype=np.int64)
        sep = body[1::2]
        ends = rows * (rows + 1) // 2 - 1  # each row's last color
        if (sep[ends] != ord("\n")).any() or np.count_nonzero(sep == ord(" ")) != sep.size - ends.size:
            return None
        tri = body[::2] - ord("0")
        # uint8 wraps: "0" and every byte that is not a digit land at 9 or above
        if (tri - 1).max(initial=0) >= min(k, 9):
            return None
        return ColoredCompleteGraph(n, k, tri)
    if body.size == 0:
        return None
    if not _BODY_BYTES[body].all() or body[0] < ord("0") or body[-1] != ord("\n"):
        return None
    sep = body <= ord(" ")  # a space or a newline ends each color
    if (sep[1:] & sep[:-1]).any():  # a double space or an empty row
        return None
    seps = np.flatnonzero(sep)
    lines = np.flatnonzero(body[seps] == ord("\n"))  # each row's last color
    if lines.size != n - 1 or seps.size != n * (n - 1) // 2:
        return None
    rows = np.arange(1, n, dtype=np.int64)
    if (lines != rows * (rows + 1) // 2 - 1).any():
        return None
    width = np.diff(seps, prepend=-1) - 1
    longest = int(width.max())
    if longest > _MAX_DIGITS:
        return None
    starts = seps - width
    tri = body[starts].astype(np.uint32) - ord("0")
    for place in range(1, longest):
        live = width > place
        tri[live] = tri[live] * 10 + body[starts[live] + place] - ord("0")
    if (tri < 1).any() or (tri > k).any():
        return None
    return ColoredCompleteGraph(n, k, tri)


def _parse_int(tok: str, line_no: int, col: int, what: str) -> int:
    # str.isdigit alone also accepts non-ASCII digits such as U+00B2, which int() rejects
    if not (tok.isascii() and tok.isdigit()):
        raise GcgFormatError(line_no, col, f"expected {what}, got {tok!r}")
    try:
        return int(tok)
    except ValueError:  # longer than Python's limit on integer text
        raise GcgFormatError(line_no, col, f"integer too long ({len(tok)} digits)") from None


def _decode_tokens(text: str) -> ColoredCompleteGraph:
    """Parse any GCG text token by token; every fault raises GcgFormatError
    at its line and column."""
    lines = text.splitlines()
    significant = []  # (line_no, tokens)
    for line_no, line in enumerate(lines, start=1):
        tokens = _tokenize(line)
        if tokens:
            significant.append((line_no, tokens))
    last_line = len(lines) + 1

    def need(index: int, what: str):
        if index >= len(significant):
            raise GcgFormatError(last_line, 1, f"unexpected end of input, expected {what}")
        return significant[index]

    line_no, tokens = need(0, "header")
    if [t for t, _ in tokens] != GCG_MAGIC.split():
        raise GcgFormatError(line_no, tokens[0][1], f"bad header, expected '{GCG_MAGIC}'")

    line_no, tokens = need(1, "graph dimensions")
    if len(tokens) != 2:
        raise GcgFormatError(line_no, tokens[0][1], "expected '<n> <k>'")
    n, k = (_parse_int(tok, line_no, col, "an integer") for tok, col in tokens)
    if n < 1:
        raise GcgFormatError(line_no, tokens[0][1], f"vertex count must be at least 1, got {n}")
    if not 1 <= k <= MAX_COLOR:
        raise GcgFormatError(line_no, tokens[1][1], f"color count must be in 1..{MAX_COLOR}, got {k}")

    # the header is untrusted: allocate no more entries than there are color
    # tokens, so a huge declared n fails at the first missing row instead
    present = sum(len(tokens) for _, tokens in significant[2:])
    tri = np.empty(min(n * (n - 1) // 2, present), dtype=np.uint16)
    at = 0
    for i in range(1, n):
        line_no, tokens = need(1 + i, f"row {i}")
        if len(tokens) != i:
            raise GcgFormatError(line_no, tokens[0][1], f"row {i} has {len(tokens)} colors, expected {i}")
        for tok, col in tokens:
            value = _parse_int(tok, line_no, col, "an integer color")
            if not 1 <= value <= k:
                raise GcgFormatError(line_no, col, f"color {value} out of range 1..{k}")
            tri[at] = value
            at += 1
    if len(significant) > n + 1:
        line_no, tokens = significant[n + 1]
        raise GcgFormatError(line_no, tokens[0][1], f"unexpected data after row {n - 1}")
    return ColoredCompleteGraph(n, k, tri)
