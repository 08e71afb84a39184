"""Edge colorings of complete graphs.

A coloring assigns a color id to every edge of ``K_n`` and must be surjective
onto ``0..c-1``: the number of colors is the quantity all the bounds in this
library talk about, so unused ids are not allowed.  Colors are stored as a
flat tuple indexed by the lexicographic edge rank.

The text reader, the writer and ``EdgeColoring.color_matrix`` share one
layout of K_n's edge order per host size, ``_layout(n)``: the rank of every
ordered vertex pair, one gather per host row and the text body with a slot
per edge line.  It is built on first use, never at import, and an LRU cache
keeps the layouts of the ``_LAYOUTS_KEPT`` most recent host sizes; each
takes O(n^2) memory.

The reader tries the writer's own layout first: it takes every third field
as a color and accepts the text only if writing those colors again gives
back exactly the same text, so every line is ``u v col`` in rank order.
Any other text, and every error, goes to the per-line reader, which accepts
every layout the format allows and is the only source of error messages.
Both paths ask for a layout only once the edge count equals C(n,2), so a
header alone never sizes a table by its n.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations
from math import comb
from operator import itemgetter

_LAYOUTS_KEPT = 16


def edge_index(n: int, u: int, v: int) -> int:
    """Rank of edge ``(u, v)`` in the lexicographic order of K_n's edges."""
    if u > v:
        u, v = v, u
    if not (0 <= u < v < n):
        raise ValueError(f"({u},{v}) is not an edge of K_{n}")
    # rows 0..u-1 hold n-1, n-2, ..., n-u edges; then offset within row u
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def all_edges(n: int) -> list[tuple[int, int]]:
    """Edges of K_n in lexicographic order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


@lru_cache(maxsize=_LAYOUTS_KEPT)
def _layout(n: int) -> tuple[list[int], tuple[itemgetter, ...], str]:
    """K_n's edge order three ways: ``(rank, rows, body)``.

    * ``rank[u * n + v]`` is the rank of edge ``{u, v}`` for either order of
      its ends, and ``C(n,2)`` on the diagonal ``u == v``;
    * ``rows[u]`` gathers row u of the color matrix from ``(*colors, -1)``:
      it reads index ``rank[u * n + v]`` for each v, so the diagonal reads
      the trailing -1 (for n == 1 it returns that -1 alone, not a tuple);
    * ``body`` is the text of every edge line, ``"u v %d\\n"`` in rank order.
    """
    m = comb(n, 2)
    rank = [m] * (n * n)
    for r, (u, v) in enumerate(combinations(range(n), 2)):
        rank[u * n + v] = rank[v * n + u] = r
    rows = tuple(itemgetter(*rank[u * n:u * n + n]) for u in range(n))
    body = "".join(f"{u} {v} %d\n" for u, v in combinations(range(n), 2))
    return rank, rows, body


@dataclass(frozen=True)
class EdgeColoring:
    """A surjective coloring of the edges of ``K_n`` by ids ``0..c-1``."""

    n: int
    colors: tuple[int, ...]

    def __post_init__(self):
        m = comb(self.n, 2)
        if len(self.colors) != m:
            raise ValueError(
                f"need {m} colors for K_{self.n}, got {len(self.colors)}"
            )
        if m:
            # distinct ints all >= 0 with the largest one less than their
            # count are exactly 0..c-1
            used = set(self.colors)
            if min(used) < 0 or max(used) != len(used) - 1:
                raise ValueError("color ids must be exactly 0..c-1, all used")

    @cached_property
    def num_colors(self) -> int:
        return max(self.colors) + 1 if self.colors else 0

    def color(self, u: int, v: int) -> int:
        return self.colors[edge_index(self.n, u, v)]

    def color_matrix(self) -> list[list[int]]:
        """Dense n-by-n lookup (diagonal entries are -1)."""
        if self.n < 2:  # a one-index gather returns a scalar, not a row
            return [[-1] for _ in range(self.n)]
        cols = (*self.colors, -1)
        return [list(row(cols)) for row in _layout(self.n)[1]]


# ---------------------------------------------------------------------------
# Coloring text format
# ---------------------------------------------------------------------------
#
# First line "n c", then C(n,2) lines "u v color" covering every edge exactly
# once, colors in 0..c-1 and surjective.

def parse_coloring(text: str) -> EdgeColoring:
    try:
        coloring = _parse_written(text)
    except (IndexError, ValueError):  # no header, a bad field, or no coloring
        coloring = None
    return _parse_lines(text) if coloring is None else coloring


def _parse_written(text: str) -> EdgeColoring | None:
    """The coloring if ``text`` is exactly what ``serialize_coloring`` writes
    for it, else None (or an IndexError or ValueError on the way).

    Equality with the writer's output fixes every line to ``u v col`` in rank
    order, so the per-line reader would read exactly these colors.  Every
    color is in 0..c-1 once ``EdgeColoring`` finds them surjective onto
    0..k-1 and k equals the header's c."""
    fields = text.split()
    n, c = int(fields[0]), int(fields[1])
    colors = tuple(map(int, fields[4::3]))
    if len(colors) != comb(n, 2):  # comb raises ValueError on a negative n
        return None
    if text != f"{n} {c}\n" + _layout(n)[2] % colors:
        return None
    coloring = EdgeColoring(n, colors)
    return coloring if coloring.num_colors == c else None


def _parse_lines(text: str) -> EdgeColoring:
    """The reader for every layout the format allows, and for every error."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty coloring text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad header line {lines[0]!r}, expected 'n c'")
    try:
        n, c = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"bad header line {lines[0]!r}, expected integers") from None
    m = comb(n, 2)
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise ValueError(f"expected {m} edge lines, found {len(body)}")
    rank = _layout(n)[0]
    colors = [-1] * m
    for ln in body:
        try:
            u, v, col = map(int, ln.split())
        except ValueError:  # a field that is no integer, or not three fields
            raise ValueError(f"bad coloring line {ln!r}") from None
        if not 0 <= col < c:
            raise ValueError(f"color {col} outside 0..{c - 1}")
        idx = rank[u * n + v] if 0 <= u < n and 0 <= v < n else m
        if idx == m:  # a loop, or an end outside 0..n-1
            raise ValueError(f"({min(u, v)},{max(u, v)}) is not an edge of K_{n}")
        if colors[idx] >= 0:
            raise ValueError(f"edge ({u},{v}) colored twice")
        colors[idx] = col
    coloring = EdgeColoring(n, tuple(colors))
    if coloring.num_colors != c:
        raise ValueError(f"header says {c} colors, coloring uses {coloring.num_colors}")
    return coloring


def serialize_coloring(coloring: EdgeColoring) -> str:
    body = _layout(coloring.n)[2]
    return f"{coloring.n} {coloring.num_colors}\n" + body % tuple(coloring.colors)
