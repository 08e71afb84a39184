"""Exact small-n anti-Ramsey values by exhaustive search over colorings.

``max_rainbow_free(n, G)`` maximizes the number of colors over all surjective
edge-colorings of K_n containing no rainbow copy of G; the anti-Ramsey value
is that maximum plus one.

Colorings are enumerated in restricted-growth normal form (edge i, in the
fixed lexicographic edge order, may reuse any color already open or open the
next fresh id), which quotients out color renamings; every leaf is therefore
automatically surjective.  Depth-first branch and bound:

* an uncolored edge e is *blocked* when some placement of the pattern
  through e has every other edge colored and rainbow: a fresh color on e
  would complete a rainbow copy, so e can only repeat a color.  A branch is
  cut when (colors open so far) + (uncolored edges that are not blocked)
  cannot beat the incumbent.  Coloring more edges only blocks more, so the
  bound is sound and never rises along a branch;
* a branch is cut as soon as the partially colored host contains a rainbow
  copy of the pattern, since later edges only add colors and an existing
  rainbow copy survives;
* fresh color first, then existing ids in ascending order - strong
  incumbents appear early, which is what makes the bound bite.

Every piece of search state is a set of placements.  All placements of the
pattern are enumerated once and numbered by their sorted edge-rank tuples,
the descending order of one int key each (``_placement_index``); a set of
them is a bit mask over those numbers.  A frame carries four things: the
edge i it colors, the number of colors open, the bit mask of blocked edges
and the placements whose colored edges carry distinct colors (``alive``);
each color id keeps the placements holding it (``tinted``).
The rainbow check is one mask test: coloring edge i with c completes a
rainbow copy exactly when some live placement has largest rank i (it
*closes* on i) and holds no edge of color c.  Blocking is tracked
incrementally: coloring edge i leaves the placements whose second-largest
rank is i with one uncolored edge e, and e becomes blocked when one of them
is alive in the child.  So edge i is blocked exactly when some placement
closes on it, and that decides whether a fresh color is tried; a one-edge
placement closes on its edge from the start, so a one-edge pattern never
opens a color.

Which edges a color try blocks depends only on the child's live placements
among those whose second-largest rank is i (``reach[i]``), and those sets
repeat: C4 at n = 7 (10,903 nodes) looks up 851 distinct depth and set
pairs 6,771 times.  Each call therefore keeps one memo per depth, from that
set to the edges it blocks.  A memo holds at most ``_MEMO_CAP`` entries, and
a miss on a full one empties it first, so the tables' memory is bounded
whatever the search does.

The packing bound tightens the blocked-edge bound by one for each placement
in a greedy packing (the "disjoint inconsistent subsets" bound of Max-SAT
branch and bound).  A placement qualifies when its colored edges carry
distinct colors and it has two or more uncolored edges, none of them
blocked.  Fresh ids differ from each other and from every open color, so if
each uncolored edge of such a placement took a fresh color the copy would be
rainbow: at least one of them repeats a color.  Placements whose uncolored
edge sets are pairwise disjoint therefore each cost a fresh color, and a
branch is cut when (colors open) + (unblocked uncolored edges) - (packing
size) cannot beat the incumbent.  Each packed placement uses two unblocked
uncolored edges, so with slack = (colors open) + (unblocked uncolored
edges) - (incumbent) the scan runs only where 2 * slack <= (unblocked
uncolored edges), and stops once the packing reaches the slack.  Its
candidates are the live placements, less those through a blocked uncolored
edge.  Each has two or more uncolored edges: a live placement with one
uncolored edge blocks it, and a fully colored live one would be a rainbow
copy, which no frame keeps.  (A one-edge pattern, whose placements block
nothing, never opens a color and so never reaches the scan.)  The scan
packs the candidates with exactly two uncolored edges first (``pair``),
since each uses up the fewest uncolored edges, then the rest, each time the
first in placement order.  Any packing is sound, so the order moves node
counts only: C8 on K8 settles in 1,220,644 nodes, where placement order
alone stays inconclusive at 20 M.
Both bounds run in the parent, at the color try, before a child frame
opens: a child they cut costs one counted node and no call.

Both counts are derived from the blocked-edge mask, not handed down.  The
unblocked uncolored edges at edge i are m - i less the blocked bits at i
and above, the same count the parent found for its own bound.  The
placements through a blocked uncolored edge are the union of ``through``
over the child's blocked edges above i: a child's blocked edges are its
parent's uncolored blocked edges plus those the parent's coloring blocks,
less edge i itself, and those newly blocked all lie above i.
After a placement is packed the scan drops every candidate sharing one of
its uncolored edges, the union of ``through`` over them.  Each of these
unions - over a packed placement's uncolored edges, over a child's blocked
uncolored edges - depends only on its edge mask, so each call caches them
by that mask (``spans``), and a cached union is exact.

A color try is also cut when it leaves an uncolored edge with no color it
can take (forward checking, Haralick and Elliott, Artif. Intell. 14, 1980).
At edge e the closers are the child's live placements whose largest rank is
e and whose other edges are all colored, ``last[e] & kid & upto[i]`` with
``upto[i]`` the placements whose second-largest rank is at most i.  Each
closer's colored edges carry distinct colors, so a fresh id at e, or an
open id that some closer lacks, completes a rainbow copy.  When no open id
lies on every closer, the subtree holds no leaf, and the child is cut like a
bounded one: one counted node, no frame.  Only edges that were blocked
before the try and that it closes on again are tested.  An edge the try
blocks for the first time has closers from ``reach[i]`` alone, each holding
edge i in color c, so c is left to it; and on a branch an edge's closers
only die until a try closes on it again, while each id's placements only
grow, so an id left to an edge stays left.  The try's own id is tested
first, then the open ids.

Host-vertex symmetry is broken on vertex 0's star, the edges (0, 1) ..
(0, n - 1), which come first in the edge order (a lex-leader constraint in
the sense of Crawford, Ginsberg, Luks and Roy, KR 1996).  The star's colors
must be in canonical form: a run of fresh ids, then reused ids in
nondecreasing order, with star class sizes nonincreasing.  So a fresh id is
tried at a star edge only while no star edge has reused a color, and a reuse
of c only when c is at least the last reused star id and c's star class,
with this edge, stays no larger than that of c - 1 (``_star_tries``).  A
star edge therefore tries at most {fresh, 0} before the first reuse and at
most {r, r + 1} after it, r the previous star edge's color; an id the rule
skips is not tried and not counted as a node.

The rule goes on along vertex 1's row, the edges (1, 2) .. (1, n - 1): the
first row of the sb_l constraints of Codish, Miller, Prosser and Stuckey
(Constraints 24, 2019).  At edge (1, w), take each u with 2 <= u < w whose
star edges (0, u) and (0, w) share a color and whose edge (1, u) reused an
id a, one open before (1, u).  The edge then tries only reused ids c, with
c at least every such a and open before the first such (1, u)
(``_row_window``); an id the rule skips is not tried and not counted.
Swapping u and w fixes vertex 0's star and every edge before (1, u), so a
coloring and its swapped image agree before (1, u).  There the image reads
c, or the fresh id if c first opened at or after (1, u), against a, so the
image comes earlier in the order below exactly when it reads fresh or
c < a: the ids the rule skips.  Edges past vertex 1's row are searched as
before; the same rule on every row cut only 1.5% more nodes on C4 at n = 7
and cost more time than it saved.

The rules leave the maximum and the witness unchanged:

* the search visits complete restricted-growth colorings in lexicographic
  order under the key "fresh < 0 < 1 < ...", and the reported witness L*
  is the first coloring attaining the maximum in that order.  Relabeling
  the host's vertices (and renaming colors back into normal form) maps
  optimal colorings to optimal ones, so L* is the least of its orbit;
* the relabelings that fix vertex 0 permute the star edges among
  themselves, and the least arrangement of a star's colors in that order
  is exactly the canonical form above (``TestStarRule`` checks this on
  every star of up to 6 edges).  So L*'s star is canonical and every
  ancestor of L* passes the rule;
* L* comes no later than its image under the swap of u and w, so it passes
  vertex 1's row rule too (``TestRowRule`` checks, on every coloring of
  K5, that each one the row rule rejects has a strictly earlier swapped
  image);
* before L* the incumbent is below the maximum, so no bound cuts L*'s path
  either, and the dead-edge cut removes only subtrees with no complete
  coloring.  The rules only remove colorings that come after a relabeled
  copy of themselves.

The reported witness is the first incumbent attaining the final maximum in
the fixed search order: pruning only cuts subtrees whose bound cannot beat
the incumbent, and the incumbent changes only on a strict improvement, so a
tighter sound bound leaves the witness unchanged.  Every call runs under a
node budget, ``DEFAULT_BUDGET`` unless one is given, and is inconclusive if
it runs out.  Hosts with n <= 6 settle well within it: K5 has 10 edges, and
every pattern on at most 6 vertices settles on K6 in at most 124,704 nodes.
On K7, C3-C6, P3-P7, 2P2, 3P2, 2P3, C3+P2, P3+P2, P3+2P2, P4+P2, C4+P2,
P5+P2, C3+2P2 and P4+P3 all settle, C3+2P2 the largest at 297,662 nodes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate, chain, combinations, permutations
from operator import or_

from .colorings import EdgeColoring, all_edges
from .formulas import ar_family, integer_bounds
from .graphs import Graph, PatternSpec, _components, build_pattern

HARD_CEILING = 7
DEFAULT_BUDGET = 30_000_000


class InfeasibleHost(ValueError):
    """A host above ``HARD_CEILING``, which the exhaustive search refuses."""


@dataclass(frozen=True)
class OracleResult:
    n: int
    pattern: PatternSpec
    max_rainbow_free_colors: int
    ar_exact: int | None
    witness: EdgeColoring | None
    nodes_explored: int
    elapsed: float
    conclusive: bool


def _placement_index(n: int, g: Graph) -> tuple[list[int], list[int],
                                                 list[int], list, list[int],
                                                 list[int]]:
    """Every placement of g into K_n, numbered once; sets of them as bit masks.

    Placements are numbered in lexicographic order of their sorted edge-rank
    tuples, and a set of placements is the bit mask over those numbers.
    Returns ``(masks, through, last, near, reach, pair)``:

    * ``masks[p]``: placement p's edge bit mask;
    * ``through[e]``: the placements through edge e;
    * ``last[e]``: the placements whose largest rank is e.  When edge e is
      next to color every other edge of these is colored;
    * ``near[i]``: ``(1 << e, set)`` pairs, the placements whose
      second-largest rank is i grouped by their largest rank e, in the
      order of each e's first placement.  Once edge i is colored each has
      one uncolored edge left, e;
    * ``reach[i]``: the placements whose second-largest rank is i, the
      union of near[i]'s sets.  Of a child's live placements, those within
      reach[i] decide which edges coloring i blocks;
    * ``pair[i]``: the placements with exactly two edges above i, so once
      edge i is colored each has two uncolored edges left.  The packing
      bound packs these first.

    A one-edge placement is in no ``near`` or ``reach`` set: its empty rest
    is rainbow, so it closes on its edge at every frame and the search
    never opens a color.

    A placement is one int key, the sum of its edges' keys (``_host``): a
    top shared by all, the edge mask with its ranks reversed, the mask.
    Where two sorted rank tuples of g's size first differ, the smaller rank
    is the highest bit where the reversed masks differ, so descending key
    order is the numbering.  ``bin`` of each key has one width and reads
    ranks 0 .. m - 1 left to right; joined in ascending order, the column
    of rank e is one string slice, whose ``int(..., 2)`` is ``through[e]``.
    One pass down the ranks keeps the placements with at least one, two and
    three edges above e, which give ``last[e]``, ``reach[e]`` and
    ``pair[e]``; a group of
    ``near[e]`` is ``reach[e] & last[f]``, f its first placement's last rank.

    A connected component on c vertices has local placements: the distinct
    edge sets of its copies on host vertices 0 .. c - 1, found once from
    its c! vertex maps.  Components with equal local placement sets are
    copies of one kind.  The increasing map j -> S[j] carries the local
    placements onto each block S of c host vertices.  The k copies of a
    kind take pairwise disjoint blocks in increasing order of smallest
    vertex v, each leaving at least c unused vertices above v per copy
    still to come, so no choice is a dead end; partial placements on the
    same vertices (and the same last v within a kind) grow together.  An
    edge set arises once: its components are connected and pairwise
    disjoint, so their vertex sets, ordered by smallest vertex within each
    kind, are the blocks, and the edges on a block fix the local placement.
    Vertices of degree zero are ignored (they never constrain a copy when
    the host is large enough, which the caller checks).
    """
    m = n * (n - 1) // 2
    full = (1 << m) - 1
    edges, edge_key = _host(n)[:2]
    # kind of component, by its local placements' keys -> [vertices, copies]
    kinds: dict[frozenset[int], list[int]] = {}
    for comp in _components(g):
        cedges = [(comp.index(u), comp.index(v)) for u, v in g.edge_list
                  if u in comp]
        key = frozenset(sum([edge_key[p[a]][p[b]] for a, b in cedges])
                        for p in permutations(range(len(comp))))
        kinds.setdefault(key, [len(comp), 0])[1] += 1
    # (used vertices, smallest vertex of the kind's last block or -1) -> keys
    states = {(0, -1): [0]}
    for key, (c, k) in kinds.items():
        # per block s, the keys of the local placements carried by j -> s[j]:
        # one column per local edge (a, b) over the blocks after 0 .. c - 1
        blocks = list(combinations(range(n), c))
        parts = [tuple(key)]
        if c < n:
            cols = {r: [edge_key[s[a]][s[b]] for s in blocks[1:]]
                    for r, (a, b) in enumerate(edges) if b < c}
            parts += zip(*[map(sum, zip(*[col for r, col in cols.items()
                                          if x >> r & 1])) for x in key])
        if len(kinds) == k == 1:  # one component: these are g's placements
            keys = list(chain.from_iterable(parts))
            break
        carried = dict(zip(blocks, zip(map(sum, combinations(
            [1 << x for x in range(n)], c)), parts)))
        # j copies still to place; the else places the last kind's last one
        for j in range(k, 1 if key is next(reversed(kinds)) else 0, -1):
            grown: dict[tuple[int, int], list[int]] = {}
            for (used, low), ks in states.items():
                left = [x for x in range(low + 1, n) if not used >> x & 1]
                stop = left[-j * c]  # the last v with j * c unused from v up
                for s in combinations(left, c):
                    if s[0] > stop:
                        break
                    block, ps = carried[s]
                    grown.setdefault((used | block, s[0] if j > 1 else -1),
                                     []).extend([x + y for x in ks for y in ps])
            states = grown
    else:  # any c unused vertices above low take the last copy
        keys = [a + b for (used, low), ks in states.items()
                for s in combinations([x for x in range(low + 1, n)
                                       if not used >> x & 1], c)
                for b in carried[s][1] for a in ks]
    keys.sort(reverse=True)
    width = len(bin(keys[0]))
    # row q is placement P - 1 - q, so bit p of a column's int is placement p
    table = "".join(map(bin, reversed(keys)))
    masks = [x & full for x in keys]
    through, last, reach, pair, near = [0] * m, [0] * m, [0] * m, [0] * m, []
    one = two = three = 0  # the placements with at least 1, 2, 3 edges above e
    for e in range(m - 1, -1, -1):
        t = through[e] = int(table[width - 2 * m + e::width], 2)
        last[e] = t & ~one
        r = reach[e] = t & one & ~two
        pair[e] = two & ~three
        pairs = []
        while r:  # the group of r's first placement, named by its last rank
            f = masks[(r & -r).bit_length() - 1].bit_length() - 1
            pairs.append((1 << f, r & last[f]))
            r &= ~last[f]
        near.append(pairs)
        three |= t & two
        two |= t & one
        one |= t
    near.reverse()
    return masks, through, last, near, reach, pair


@lru_cache(maxsize=16)
def _host(n: int) -> tuple[tuple, tuple, tuple, tuple]:
    """K_n's tables that depend on n alone: ``(edges, key, orders, reuses)``.

    ``edges[r]`` is the edge of rank r in the lexicographic edge order and
    ``key[u][v]`` is edge {u, v}'s ``1 << 2m | 1 << (2m - 1 - r) | 1 << r``,
    r its rank (0 on the diagonal).  ``orders[c]`` and ``reuses[c]`` are the
    color ids a frame with c colors open tries: the fresh id c, then the
    open ids in ascending order, and the open ids alone.  Built on first
    use, never at import, and kept for the 16 most recent host sizes.
    """
    m = n * (n - 1) // 2
    edges = all_edges(n)
    key = [[0] * n for _ in range(n)]
    for r, (u, v) in enumerate(edges):
        key[u][v] = key[v][u] = 1 << 2 * m | 1 << (2 * m - 1 - r) | 1 << r
    return (tuple(edges), tuple(map(tuple, key)),
            tuple((c, *range(c)) for c in range(m + 1)),
            tuple(tuple(range(c)) for c in range(m + 1)))


def _star_tries(star: list[int]) -> tuple[int, ...]:
    """The color ids that keep vertex 0's star canonical at its next edge.

    ``star`` holds the colors of the star edges (0, 1), (0, 2), ... colored
    so far, in restricted-growth form.  A canonical star is a run of fresh
    ids, then reused ids in nondecreasing order with star class sizes
    nonincreasing: a fresh id is allowed only while no star edge has
    reused a color, and a reuse of c only when c is at least the last
    reused id and c's class stays no larger than c - 1's.  Returned in
    search order, the fresh id first.
    """
    if not star or star[-1] == len(star) - 1:  # every star edge opened a color
        return (len(star), 0) if star else (0,)
    r = star[-1]
    tries = (r,) if not r or star.count(r) < star.count(r - 1) else ()
    return tries + (r + 1,) if r < max(star) else tries


def _row_window(colors: list[int], n: int) -> tuple[int, int] | None:
    """The color ids vertex 1's row may take at its next edge, as a range.

    ``colors`` holds the colors of the edges before (1, w), vertex 0's star
    and (1, 2) .. (1, w - 1), in restricted-growth form.  Each u with
    2 <= u < w whose star edges (0, u) and (0, w) share a color, and whose
    edge (1, u) reused an id a, asks for a reused id c >= a that is open
    before (1, u): otherwise swapping u and w gives an earlier coloring.
    Returns ``(lo, hi)``, the ids lo <= c < hi allowed, with lo the largest
    such a and hi the number of ids open before the first such (1, u).  In
    restricted-growth form those are the ids up to the largest one seen
    before it, so hi never exceeds the ids open now and the fresh id is
    never allowed.  None when no u asks anything.
    """
    w = len(colors) - n + 3
    lo = 0
    hi = None
    for u in range(2, w):
        if colors[u - 1] == colors[w - 1]:
            p = n + u - 3  # the rank of edge (1, u)
            opened = max(colors[:p]) + 1
            if colors[p] < opened:
                lo = max(lo, colors[p])
                if hi is None:
                    hi = opened
    return None if hi is None else (lo, hi)


PROGRESS_INTERVAL = 1_000_000
# entries per depth in the blocking memo of max_rainbow_free; a miss empties
# a full table
_MEMO_CAP = 4096


def _check_budget(node_budget: int | None) -> None:
    if node_budget is None:
        return
    if isinstance(node_budget, bool) or not isinstance(node_budget, int):
        raise ValueError(f"node budget must be an integer, got {node_budget!r}")
    if node_budget < 1:
        raise ValueError(f"node budget must be at least 1, got {node_budget}")


def max_rainbow_free(n: int, pattern: PatternSpec,
                     node_budget: int | None = None,
                     on_progress=None) -> OracleResult:
    """Maximum color count over rainbow-free colorings of K_n, with witness.

    Checks, in this order: a node budget that is not an int of at least 1
    (a bool is not) raises ValueError; a host above ``HARD_CEILING`` raises
    ``InfeasibleHost``, a ValueError; a pattern with no edge, or with more
    vertices than the host, raises ValueError.  The search stops after
    ``node_budget`` nodes, ``DEFAULT_BUDGET`` if None; the result is then
    returned with ``conclusive=False`` and ``ar_exact=None``, the color
    count is only a lower bound, and ``nodes_explored`` equals the budget.
    ``on_progress(nodes, best)`` is called every PROGRESS_INTERVAL nodes so
    callers can log progress without touching the result.
    """
    _check_budget(node_budget)
    if n > HARD_CEILING:
        raise InfeasibleHost(
            f"n={n} beyond the exhaustive-search ceiling ({HARD_CEILING})")
    g = build_pattern(pattern)
    if g.num_edges == 0:
        raise ValueError("pattern needs at least one edge")
    if g.n > n:
        raise ValueError(f"pattern has {g.n} vertices, host only {n}")

    m = n * (n - 1) // 2
    masks, through, last, near, reach, pair = _placement_index(n, g)
    # upto[i]: the placements whose second-largest rank is at most i, so
    # every edge but the largest one is colored once edge i is
    upto = list(accumulate(reach, or_))
    # per depth i: a child's live placements within reach[i] -> the edges
    # that coloring i blocks in it; a miss empties a full table
    blocks: list[dict[int, int]] = [{} for _ in range(m)]
    # keyed by an edge mask: the union of through over its edges, filled by
    # span only.  Read for a child's blocked uncolored edges and for the
    # uncolored edges of each placement the packing packs
    spans: dict[int, int] = {}
    # per color id: the placements with a colored edge of that color
    tinted = [0] * (m + 1)
    # color ids tried at a node with cmax colors open: fresh first, then
    # reuse; a blocked edge only reuses
    orders, reuses = _host(n)[2:]
    limit = DEFAULT_BUDGET if node_budget is None else node_budget
    # a node count rec stops at, before counting the next node: the budget
    # or the count before the next progress report, whichever comes first
    report = limit if on_progress is None else PROGRESS_INTERVAL - 1
    mark = min(limit, report)
    color = [0] * m
    star = n - 1  # edges 0 .. n - 2 are (0, 1) .. (0, n - 1)
    row = 2 * n - 3  # edges star .. row - 1 are (1, 2) .. (1, n - 1)
    best = 0
    best_colors: list[int] | None = None
    nodes = 0
    budget_hit = False
    start = time.perf_counter()

    def span(edges: int) -> int:
        # the placements through an edge of the edge mask, cached by the mask
        out = spans.get(edges)
        if out is None:
            out = 0
            bits = edges
            while bits:
                b = bits & -bits
                out |= through[b.bit_length() - 1]
                bits ^= b
            spans[edges] = out
        return out

    def rec(i: int, cmax: int, blocked: int, alive: int) -> None:
        # a frame colors edge i with cmax colors open.  blocked: bit mask of
        # the blocked edges (bits below i are stale); alive: the placements
        # whose colored edges carry distinct colors.  The caller has run both
        # bounds, the packing one included, so the frame only tries colors
        nonlocal best, best_colors, nodes, budget_hit, report, mark
        if i == m:  # reached only when cmax > best
            best = cmax
            best_colors = color.copy()
            return
        # the unblocked uncolored edges; the caller's kid_free
        free = m - i - (blocked >> i).bit_count()
        # the placements that coloring edge i completes: each has a rainbow
        # rest, and a color outside the rest's colors makes it a rainbow copy.
        # closing is nonzero exactly when edge i is blocked.  A placement
        # dies only when one of its edges is colored, so one that blocked i
        # (its other edges all colored) is still alive here, and each live
        # one with two or more edges blocked i when its second-largest rank
        # was colored.  A one-edge placement always closes, so such a
        # pattern never opens a color.  A blocked edge only reuses a color
        # and is not counted in free
        closing = last[i] & alive
        if closing:
            own = 0
            cs = reuses[cmax]
        else:
            own = 1
            cs = orders[cmax]
        # edge (0, i + 1) of vertex 0's star takes only the ids that keep
        # the star canonical, and a closing one still no fresh id; edge
        # (1, i - n + 3) of vertex 1's row only the reused ids that no swap
        # of two vertices puts earlier
        if i < row:
            if i < star:
                cs = [c for c in _star_tries(color[:i]) if c < cmax + own]
            else:
                window = _row_window(color[:i], n)
                if window:
                    cs = range(*window)
        thr = through[i]
        near_i = near[i]
        reach_i = reach[i]
        pair_i = pair[i]
        memo = blocks[i]
        high = -2 << i  # the child's uncolored edges
        rest = m - i - 1
        nxt = -1
        for c in cs:
            if c == cmax:  # fresh id, tried first: the caller ran its bound
                nxt = cmax + 1
            elif nxt != cmax:  # first reused id, after the fresh subtree ran
                if cmax + free - own <= best:
                    return
                nxt = cmax
            if nodes == mark:
                if nodes == limit:
                    budget_hit = True
                    return
                on_progress(nodes + 1, best)
                report += PROGRESS_INTERVAL
                mark = min(limit, report)
            nodes += 1
            was = tinted[c]
            if closing & was != closing:
                continue  # rainbow copy completed: prune
            # placements through edge i with another edge of color c die;
            # each placement now left with one uncolored edge e and a
            # rainbow rest blocks e.  Which edges those are depends only on
            # the child's live placements within reach[i]: memoized on them
            kid = alive ^ (alive & was & thr)
            key = kid & reach_i
            newly = memo.get(key)
            if newly is None:
                if len(memo) >= _MEMO_CAP:
                    memo.clear()
                newly = 0
                for bit, group in near_i:
                    if group & key:
                        newly |= bit
                memo[key] = newly
            blk = blocked | newly
            kid_free = rest - (blk & high).bit_count()
            slack = nxt + kid_free - best
            if slack <= 0:
                continue
            # packing bound: each placement packed costs one fresh color, and
            # each uses two unblocked uncolored edges, so a packing can close
            # the slack only when 2 * slack <= kid_free.  Candidates: the
            # child's live placements with no blocked uncolored edge.  One
            # left with a single uncolored edge and a rainbow rest blocks
            # that edge, and a fully colored one repeats a color (a rainbow
            # copy is never kept), so each has two or more uncolored edges.
            # Greedy in placement order, those with exactly two uncolored
            # edges first (pair[i]): pack the first such candidate, else the
            # first candidate, and drop those through its uncolored edges,
            # until the slack is packed
            if 2 * slack <= kid_free:
                cand = kid ^ (kid & span(blk & high))
                duo = cand & pair_i
                while cand:
                    slack -= 1  # the first of duo, else of cand, is packed
                    if not slack:
                        break
                    p = duo or cand
                    gone = span(masks[(p & -p).bit_length() - 1] & high)
                    cand ^= cand & gone
                    duo ^= duo & gone
                if not slack:
                    continue
            # dead-edge cut: an edge closed on again in the child must keep
            # a color that every placement closing on it holds, or any color
            # there completes a rainbow copy.  Only edges blocked before
            # need the test: a first batch of closers all hold edge i in c
            now = was | thr  # the placements holding c in the child
            dead = newly & blocked
            if dead:
                ready = kid & upto[i]  # live, every edge but the last colored
                while dead:
                    b = dead & -dead
                    cl = last[b.bit_length() - 1] & ready
                    if cl & now != cl and cl not in map(cl.__and__, tinted[:nxt]):
                        break
                    dead ^= b
                if dead:
                    continue
            color[i] = c
            tinted[c] = now
            rec(i + 1, nxt, blk, kid)
            tinted[c] = was

    rec(0, 0, 0, (1 << len(masks)) - 1)
    # rec reaches itself through its closure cell; break that cycle so the
    # per-call tables go when this call returns, not at the next collection
    del rec
    elapsed = time.perf_counter() - start
    conclusive = not budget_hit
    witness = None if best_colors is None else EdgeColoring(n, tuple(best_colors))
    return OracleResult(
        n=n, pattern=pattern,
        max_rainbow_free_colors=best,
        ar_exact=best + 1 if conclusive else None,
        witness=witness,
        nodes_explored=nodes,
        elapsed=elapsed,
        conclusive=conclusive,
    )


# ---------------------------------------------------------------------------
# Cross-validation against the closed forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RangeRow:
    n: int
    status: str  # ok | skipped-small | skipped-infeasible | inconclusive
    ar_oracle: int | None
    formula_exact: int | None
    formula_valid: bool | None
    match: bool | None


@dataclass(frozen=True)
class RangeReport:
    family: PatternSpec
    n_from: int
    n_to: int
    rows: tuple[RangeRow, ...]
    # n where the oracle broke a bound flagged valid: the exact value, or
    # the ceiling of the lower or the floor of the upper (must be empty)
    mismatches: tuple[int, ...]


def verify_range(spec: PatternSpec, n_from: int, n_to: int,
                 node_budget: int | None = None) -> RangeReport:
    """Compare the oracle against the closed form for each n in the range.

    Any n where the oracle breaks a bound the formula flags valid is
    flagged in ``mismatches`` (the library's core soundness check: this list
    must stay empty): an exact value it disagrees with, a lower bound whose
    ceiling it is below, or an upper bound whose floor it is above.  Values
    outside validity windows are recorded as data.
    Hosts the oracle refuses as ``InfeasibleHost`` are reported as
    ``skipped-infeasible``, with no formula fields.  A
    reversed range (``n_from > n_to``) and a negative host (``n_from < 0``)
    are input errors, not an empty pass.
    """
    _check_budget(node_budget)
    if n_from > n_to:
        raise ValueError(f"empty range: n_from={n_from} > n_to={n_to}")
    if n_from < 0:
        raise ValueError(f"negative host: n_from={n_from}")
    g = build_pattern(spec)
    rows = []
    mismatches = []
    for n in range(n_from, n_to + 1):
        if n < g.n:
            rows.append(RangeRow(n, "skipped-small", None, None, None, None))
            continue
        try:
            result = max_rainbow_free(n, spec, node_budget)
        except InfeasibleHost:
            rows.append(RangeRow(n, "skipped-infeasible", None, None, None, None))
            continue
        formula_exact = None
        formula_valid = None
        lo = hi = None  # the integer bounds flagged valid
        try:
            rep = ar_family(n, spec)
            formula_exact = rep.exact
            if rep.exact is not None:
                formula_valid = bool(rep.valid.get("exact", False))
            lo, hi = integer_bounds(rep)
            lo = lo if rep.valid.get("lower") else None
            hi = hi if rep.valid.get("upper") else None
        except ValueError:
            pass
        if not result.conclusive:
            rows.append(RangeRow(n, "inconclusive",
                                 None, formula_exact, formula_valid, None))
            continue
        ar = result.ar_exact
        match = None if formula_exact is None else ar == formula_exact
        if (formula_valid and not match or lo is not None and ar < lo
                or hi is not None and ar > hi):
            mismatches.append(n)
        rows.append(RangeRow(n, "ok", ar, formula_exact, formula_valid, match))
    return RangeReport(spec, n_from, n_to, tuple(rows), tuple(mismatches))
