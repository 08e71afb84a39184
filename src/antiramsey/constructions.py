"""Deterministic generators for the extremal (rainbow-free) colorings.

Both constructions fix their distinguished vertex set to a prefix of
``0..n-1`` and assign color ids in the global lexicographic edge order, so
emitted files are byte-reproducible.  Host symmetry makes the prefix choice
immaterial (relabeling hosts preserves rainbow-freeness).
"""

from __future__ import annotations

from itertools import cycle, islice
from math import comb

from .colorings import EdgeColoring, all_edges


def cover_coloring(n: int, cover_size: int, inner_colors: int) -> EdgeColoring:
    """Two-zone coloring: fresh colors on every edge meeting ``0..cover_size-1``,
    ``inner_colors`` colors round-robined over the rest.

    Uses exactly ``cover_size * (n - (cover_size+1)/2) + inner_colors``
    colors.  Whenever every ``cover_size``-set of a pattern's vertices misses
    more than ``inner_colors`` of its edges, the result has no rainbow copy
    of that pattern: a copy would squeeze all but at most ``inner_colors``
    of its (distinct) colors out of the inner zone, which only has
    ``inner_colors`` colors to give.

    The shared ids are ``0..inner_colors-1``; fresh ids follow, assigned in
    fixed edge order.
    """
    r1, s = cover_size, inner_colors
    if r1 < 0:
        raise ValueError("cover size must be nonnegative")
    if s < 1:
        raise ValueError("need at least one inner color")
    if n < r1:
        raise ValueError(f"n={n} smaller than cover size {r1}")
    if comb(n - r1, 2) < s:
        raise ValueError(
            f"inner zone has only {comb(n - r1, 2)} edges, cannot use {s} colors")
    # rows 0..r1-1 are a prefix of the edge order: the fresh colors in
    # order, then 0..s-1 round-robin over the inner zone
    fresh = r1 * (2 * n - r1 - 1) // 2
    inner = islice(cycle(range(s)), comb(n - r1, 2))
    return EdgeColoring(n, (*range(s, s + fresh), *inner))


def clique_coloring(n: int, clique_size: int) -> EdgeColoring:
    """All edges among ``0..clique_size-1`` distinctly colored, every other
    edge in one shared color.

    Uses ``C(clique_size, 2) + 1`` colors (one fewer when ``clique_size == n``
    and the shared class is empty).  With ``clique_size = 3k - 2`` this has
    no rainbow copy of k disjoint two-edge paths: at most one path edge can
    carry the shared color, and the clique cannot host enough disjoint
    structure for the rest.
    """
    m = clique_size
    if m < 2:
        raise ValueError("clique needs at least 2 vertices")
    if m > n:
        raise ValueError(f"clique size {m} exceeds n={n}")
    shared = comb(m, 2)
    colors = []
    next_id = 0
    for _u, v in all_edges(n):
        if v < m:
            colors.append(next_id)
            next_id += 1
        else:
            colors.append(shared)
    return EdgeColoring(n, tuple(colors))
