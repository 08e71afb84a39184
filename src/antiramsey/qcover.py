"""The cover parameter q_j: minimum vertices incident with all but <= j edges.

``q_cover(pattern, j)`` finds the smallest vertex set R such that at most j
edges of the pattern G avoid R entirely, together with the lexicographically
smallest optimal witness.  This is the quantity that drives every lower-bound
construction in the library: if q_j(G) exceeds r, the two-zone coloring with
a distinguished r-set admits no rainbow copy of G.  ``find_rainbow``'s
color-count certificate (see ``rainbow``) proves the same q_j > r argument
on the coloring itself: on paths, cycles and their disjoint unions its
per-component capped degrees give exactly the fewest edges r vertices leave
uncovered, so it settles those colorings without search.

The default strategy enumerates subsets in ascending cardinality (bitmask
incidence, first hit in ``itertools.combinations`` order is the lex-smallest
witness), starting at the fewest t whose t largest capped degrees
(``graphs._capped_degrees``) sum to at least m - j: t vertices cover at most
that many of the m edges, so no smaller set leaves at most j uncovered.
Each capped entry is at most the largest degree, so this start is never
below ``ceil((m - j) / max_deg)``, and on paths, cycles and their disjoint
unions it is q_j itself: the scan opens at the answer's size.  When a
cardinality has too many subsets to scan, a depth-first search visits the
same sets in the same order, one stack frame per pick, and cuts a branch
once its picks left cannot reach the edges still needed or more than j
edges join two passed-over vertices; its first hit is the lex-smallest
witness directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate, combinations
from math import comb

from .graphs import Graph, PatternSpec, _capped_degrees, build_pattern

# Max number of subsets to scan per cardinality before switching to the
# pick-by-pick search, ``_lex_cover``.
_ENUM_LIMIT = 2_000_000


@dataclass(frozen=True)
class QResult:
    """Value of q_j with its witness set (edges avoiding it number <= j)."""

    j: int
    value: int
    witness: tuple[int, ...]


def _incidence_masks(g: Graph) -> list[int]:
    """Per-vertex bitmask over edge indices."""
    masks = [0] * g.n
    for idx, (u, v) in enumerate(g.edge_list):
        masks[u] |= 1 << idx
        masks[v] |= 1 << idx
    return masks


def _lex_cover(active, masks, m, j, size) -> tuple[int, ...] | None:
    """Lexicographically smallest set of ``size`` active vertices leaving at
    most j edges uncovered, or None.

    A depth-first search with one stack frame per pick; each frame tries the
    next pick ``active[k]`` in ascending k, so sets come in
    ``itertools.combinations`` order.  A frame gives up once ``left`` picks of
    at most the largest degree among ``active[k:]`` cannot cover the edges
    still needed, or once more than j edges join two passed-over vertices:
    both only worsen as k rises.  ``passed`` is the edge mask of the
    passed-over vertices.
    """
    top = [0] * (len(active) + 1)  # top[k]: largest degree among active[k:]
    for k in range(len(active) - 1, -1, -1):
        top[k] = max(top[k + 1], int.bit_count(masks[active[k]]))
    frames = []  # per pick: (k, covered, passed, lost) as they were before it
    k = covered = passed = lost = 0
    while True:
        left = size - len(frames)
        need = m - j - int.bit_count(covered)
        if left == 0 and need <= 0:
            return tuple(active[f[0]] for f in frames)
        if lost <= j and 0 < left <= len(active) - k and left * top[k] >= need:
            frames.append((k, covered, passed, lost))
            covered |= masks[active[k]]
            k += 1
        elif frames:
            # pass over the last pick: its edges to earlier passed-over
            # vertices are lost
            k, covered, passed, lost = frames.pop()
            lost += int.bit_count(masks[active[k]] & passed)
            passed |= masks[active[k]]
            k += 1
        else:
            return None


def q_cover(pattern: PatternSpec, j: int) -> QResult:
    """Exact minimum size of a vertex set incident with all but <= j edges.

    The pattern is realized by ``build_pattern``.  The witness is the
    lexicographically smallest optimal set.  Isolated vertices never help and
    are pruned up front.  ``j >= |E|`` gives 0 with an empty witness.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    g = build_pattern(pattern)
    m = g.num_edges
    if m <= j:
        return QResult(j, 0, ())
    masks = _incidence_masks(g)
    active = [v for v in range(g.n) if masks[v]]
    # the capped entries sum to m >= m - j, so some prefix reaches it
    lower = next(t for t, covered in enumerate(accumulate(_capped_degrees(g)), 1)
                 if covered >= m - j)
    # the loop always returns: all active vertices together cover every edge
    for size in range(lower, len(active) + 1):
        if comb(len(active), size) <= _ENUM_LIMIT:
            for combo in combinations(active, size):
                covered = 0
                for v in combo:
                    covered |= masks[v]
                if m - int.bit_count(covered) <= j:
                    return QResult(j, size, tuple(combo))
        else:
            witness = _lex_cover(active, masks, m, j, size)
            if witness is not None:
                return QResult(j, size, witness)

