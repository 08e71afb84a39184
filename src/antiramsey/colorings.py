"""Edge colorings of complete graphs.

A coloring assigns a color id to every edge of ``K_n`` and must be surjective
onto ``0..c-1``: the number of colors is the quantity all the bounds in this
library talk about, so unused ids are not allowed.  Colors are stored as a
flat tuple indexed by the lexicographic edge rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from math import comb


def edge_index(n: int, u: int, v: int) -> int:
    """Rank of edge ``(u, v)`` in the lexicographic order of K_n's edges."""
    if u > v:
        u, v = v, u
    if not (0 <= u < v < n):
        raise ValueError(f"({u},{v}) is not an edge of K_{n}")
    # edges (0,*),(1,*),... precede row u; then offset within row u
    return comb(n, 2) - comb(n - u, 2) + (v - u - 1)


def all_edges(n: int) -> list[tuple[int, int]]:
    """Edges of K_n in lexicographic order."""
    return [(u, v) for u in range(n) for v in range(u + 1, n)]


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
            used = set(self.colors)
            c = max(used) + 1
            if min(used) < 0 or used != set(range(c)):
                raise ValueError("color ids must be exactly 0..c-1, all used")

    @cached_property
    def num_colors(self) -> int:
        return max(self.colors) + 1 if self.colors else 0

    def color(self, u: int, v: int) -> int:
        return self.colors[edge_index(self.n, u, v)]

    def color_matrix(self) -> list[list[int]]:
        """Dense n-by-n lookup (diagonal entries are -1)."""
        n = self.n
        mat = [[-1] * n for _ in range(n)]
        cols = iter(self.colors)  # row-major upper triangle: edge rank order
        for u in range(n):
            row = mat[u]
            for v in range(u + 1, n):
                row[v] = mat[v][u] = next(cols)
        return mat


# ---------------------------------------------------------------------------
# Coloring text format
# ---------------------------------------------------------------------------
#
# First line "n c", then C(n,2) lines "u v color" covering every edge exactly
# once, colors in 0..c-1 and surjective.

def parse_coloring(text: str) -> EdgeColoring:
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
    colors: list[int | None] = [None] * m
    for ln in body:
        fields = ln.split()
        if len(fields) != 3:
            raise ValueError(f"bad coloring line {ln!r}")
        try:
            u, v, col = (int(f) for f in fields)
        except ValueError:
            raise ValueError(f"bad coloring line {ln!r}") from None
        if not (0 <= col < c):
            raise ValueError(f"color {col} outside 0..{c - 1}")
        idx = edge_index(n, u, v)
        if colors[idx] is not None:
            raise ValueError(f"edge ({u},{v}) colored twice")
        colors[idx] = col
    coloring = EdgeColoring(n, tuple(colors))  # type: ignore[arg-type]
    if coloring.num_colors != c:
        raise ValueError(f"header says {c} colors, coloring uses {coloring.num_colors}")
    return coloring


def serialize_coloring(coloring: EdgeColoring) -> str:
    lines = [f"{coloring.n} {coloring.num_colors}"]
    for idx, (u, v) in enumerate(all_edges(coloring.n)):
        lines.append(f"{u} {v} {coloring.colors[idx]}")
    return "\n".join(lines) + "\n"
