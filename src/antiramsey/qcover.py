"""The cover parameter q_j: minimum vertices incident with all but <= j edges.

``q_cover(g, j)`` finds the smallest vertex set R such that at most j edges
of g avoid R entirely, together with the lexicographically smallest optimal
witness.  This is the quantity that drives every lower-bound construction in
the library: if q_j(G) exceeds r, the two-zone coloring with a distinguished
r-set admits no rainbow copy of G.

The default strategy enumerates subsets in ascending cardinality (bitmask
incidence, first hit in ``itertools.combinations`` order is the lex-smallest
witness), starting at ``ceil((m - j) / max_deg)``: one vertex covers at most
max_deg of the m edges.  Pattern graphs here are small with tiny optimal
covers, so that is usually instant; a branch-and-bound fallback (branching on
the first uncovered edge, or writing it off against the slack) guards larger
custom inputs, with the witness rebuilt lexicographically afterwards.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from math import comb

from .graphs import Graph

# Max number of subsets to scan per cardinality before switching to
# branch-and-bound.
_ENUM_LIMIT = 2_000_000


@dataclass(frozen=True)
class QResult:
    """Value of q_j with its witness set (edges avoiding it number <= j)."""

    j: int
    value: int
    witness: tuple[int, ...]

    def to_json(self) -> dict:
        return {"j": self.j, "value": self.value, "witness": list(self.witness)}


def _incidence_masks(g: Graph) -> list[int]:
    """Per-vertex bitmask over edge indices."""
    masks = [0] * g.n
    for idx, (u, v) in enumerate(g.edge_list):
        masks[u] |= 1 << idx
        masks[v] |= 1 << idx
    return masks


def _exists_cover(edges, masks, covered, ignored, budget, slack, chosen_limit) -> bool:
    """Is there a set of <= budget allowed vertices leaving <= slack edges?

    ``chosen_limit`` masks the vertices still allowed to enter the cover.
    Branches on the first edge neither covered nor written off, trying each
    endpoint and, slack permitting, leaving the edge uncovered.
    """
    target = None
    for idx, (u, v) in enumerate(edges):
        bit = 1 << idx
        if not (covered & bit) and not (ignored & bit):
            target = (idx, u, v)
            break
    if target is None:
        return True
    if budget == 0 and slack == 0:
        return False
    idx, u, v = target
    if budget > 0:
        for w in (u, v):
            if (chosen_limit >> w) & 1 and _exists_cover(
                    edges, masks, covered | masks[w], ignored,
                    budget - 1, slack, chosen_limit):
                return True
    if slack > 0 and _exists_cover(edges, masks, covered, ignored | (1 << idx),
                                   budget, slack - 1, chosen_limit):
        return True
    return False


def _lex_witness(g: Graph, active, masks, m, j, size) -> tuple[int, ...]:
    """Lexicographically smallest feasible set of exactly ``size`` vertices."""
    edges = g.edge_list
    chosen: list[int] = []
    covered = 0
    allowed = 0
    for v in active:
        allowed |= 1 << v
    for v in active:
        if len(chosen) == size:
            break
        trial_allowed = allowed & ~((1 << (v + 1)) - 1)  # only vertices > v may follow
        if _exists_cover(edges, masks, covered | masks[v], 0,
                         size - len(chosen) - 1, j, trial_allowed):
            chosen.append(v)
            covered |= masks[v]
        else:
            allowed &= ~(1 << v)
    if m - int.bit_count(covered) > j:
        raise AssertionError("witness reconstruction failed")
    return tuple(chosen)


def q_cover(g: Graph, j: int) -> QResult:
    """Exact minimum size of a vertex set incident with all but <= j edges.

    The witness is the lexicographically smallest optimal set.  Isolated
    vertices never help and are pruned up front.  ``j >= |E|`` gives 0 with
    an empty witness.
    """
    if j < 0:
        raise ValueError("j must be nonnegative")
    m = g.num_edges
    if m <= j:
        return QResult(j, 0, ())
    masks = _incidence_masks(g)
    active = [v for v in range(g.n) if masks[v]]
    max_deg = max(int.bit_count(masks[v]) for v in active)
    lower = max(0, -(-(m - j) // max_deg))
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
            allowed = 0
            for v in active:
                allowed |= 1 << v
            if _exists_cover(g.edge_list, masks, 0, 0, size, j, allowed):
                return QResult(j, size, _lex_witness(g, active, masks, m, j, size))

