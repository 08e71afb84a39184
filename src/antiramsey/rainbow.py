"""Complete search for rainbow (all edges distinctly colored) pattern copies.

``find_rainbow`` is a decision procedure, not a heuristic: if it returns
``None`` there is no injective placement of the pattern into the colored
complete host whose edge images carry pairwise distinct colors.

Search organization:

* a color-count certificate runs before any search.  Take the pattern's
  edge count E and its degrees capped per component: each component's
  degrees, largest first, while their running sum stays within its edge
  count, the last one cut down to fit.  Merged in descending order they
  read c1 >= c2 >= ... and sum to E (``graphs._capped_degrees``, which
  also sets ``q_cover``'s start size).  A t-set of pattern vertices covers at
  most min(E_C, its largest degrees in C) edges of each component C; each
  component's capped list only shrinks, so the best split of t is the t
  largest merged entries, and c1 + ... + ct bounds the edges it covers.
  For t = 0, 1, ... remove the t hosts of highest color degree (ties to the
  lower index) and let k_t be the number of colors left on the remaining
  host edges.  A copy has at most c1 + ... + ct edges at a removed host,
  and its other edges need distinct colors among the k_t left, so
  c1 + ... + ct + k_t < E proves that no rainbow copy exists.  Step t = 0
  is the pigeonhole exit (fewer colors than pattern edges) and runs before
  the color matrix is built.  On paths, cycles and their disjoint unions
  E - (c1 + ... + ct) is exactly the fewest edges t pattern vertices leave
  uncovered, min{j : q_j <= t}.  The two-zone cover coloring with r cover
  hosts and s inner colors gives its cover hosts the highest color degrees
  and the lowest indices, so they go first and step t = r fires exactly
  when q_s > r: on those patterns the paper's lower-bound lemma is decided
  without search, however many inner colors there are;
* pattern components are embedded largest-first; within a component vertices
  are placed in BFS order so every new vertex attaches to a placed one and
  color clashes surface as early as possible;
* host candidates are tried in ascending vertex order, so the returned
  witness is deterministic;
* a host vertex is skipped when its color degree (number of distinct colors
  on incident edges) is below the pattern vertex's degree;
* structurally identical components must use increasing root hosts, and of
  any set of currently unused, interchangeable host vertices (vertices whose
  transposition maps the coloring onto itself up to renaming colors) only the
  smallest is tried.  Both prunings preserve completeness: any embedding can
  be rewritten into one the restricted search still visits.  Twin classes
  take one pass over the hosts in ascending order: each host gets the full
  twin test only against one representative per class, the smallest member
  of each class met so far with its sorted color counts (every twin pair
  has equal ones), and the first hit names its class;
* twin classes are built only at the first dead end, a subtree that fails.
  Until then every host is its own class and its label is its own id; at
  the first dead end the frame that met it builds the real classes in
  place and the search carries on from there.  This is exact.  Before the
  first dead end every tried host is on the current path or clashed, and
  twins clash together, because their swap fixes every used color (those
  lie on edges away from both twins) and maps the new edge colors
  bijectively.  So a search without a dead end walks the path of a search
  with twin classes to the same witness, and most "yes" answers never pay
  for the partition or for the per-row color counts it reads.  After a
  failed subtree a frame records the failed host's label, which after the
  switch is its real class, so frames open at the switch keep their
  pruning.  The skip relies on one invariant: a label is a member of its
  own class (its smallest one).  A host h is skipped only when its label
  is already in its frame's set, recorded either as a host id before the
  switch or as a label after it; either way a twin of h was tried under
  the same placed prefix and clashed or failed a complete subtree, so h's
  subtree holds no copy and the first copy found is unchanged;
* the slot plan depends on the pattern alone and is cached per pattern.

Colors couple across components, so per-component results are never cached;
components are re-driven lazily under the shared used-color set.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache

from .colorings import EdgeColoring
from .graphs import (Graph, PatternSpec, _capped_degrees, _components,
                     build_pattern)


@dataclass(frozen=True)
class Embedding:
    """Injective map from pattern vertices to host vertices."""

    map: tuple[int, ...]


def check_embedding(coloring: EdgeColoring, pattern: PatternSpec,
                    emb: Embedding) -> bool:
    """True iff the map is injective into the host and the images of the
    pattern edges have pairwise distinct colors."""
    g = build_pattern(pattern)
    m = emb.map
    if len(m) != g.n:
        return False
    if any(not (0 <= h < coloring.n) for h in m):
        return False
    if len(set(m)) != len(m):
        return False
    seen = set()
    for u, v in g.edge_list:
        c = coloring.color(m[u], m[v])
        if c in seen:
            return False
        seen.add(c)
    return True


# ---------------------------------------------------------------------------
# Host twin classes
# ---------------------------------------------------------------------------

def _twin_partition(mat: list[list[int]], class_size: list[int]) -> list[int]:
    """Partition host vertices into interchangeability classes.

    u and v land in one class when swapping them maps every color class of
    the coloring onto a color class (possibly another one), so any embedding
    using v can be rewritten to use u.  The relation is transitive by
    conjugation: (u w) = (u v)(v w)(u v), and a composite of maps that carry
    color classes onto color classes is again one.  ``mat`` is
    ``color_matrix()`` and ``class_size[c]`` the number of host edges of
    color c.  A twin swap comes with a color bijection that carries row u
    onto row v entry by entry, so twins have equal sorted color counts;
    pairs whose counts differ are never tested.
    Hosts come in ascending order, and each is tested against the smallest
    member of each class already in its count group.  As the relation is
    an equivalence, the first hit is its class and a miss on all of them
    starts a new one, so every label is the host's smallest twin.
    """
    n = len(mat)
    inc = [Counter(row) for row in mat]

    def appears_elsewhere(c: int, u: int, v: int) -> bool:
        # the caller never passes mat[u][v], which sigma fixes, so edge uv
        # is not subtracted twice
        return class_size[c] - inc[u][c] - inc[v][c] > 0

    def is_twin(u: int, v: int) -> bool:
        cuv = mat[u][v]
        sigma = {cuv: cuv}
        for x in range(n):
            if x == u or x == v:
                continue
            a, b = mat[u][x], mat[v][x]
            for p, q in ((a, b), (b, a)):
                prev = sigma.get(p)
                if prev is None:
                    sigma[p] = q
                elif prev != q:
                    return False
        for p, q in sigma.items():
            if p != q and appears_elsewhere(p, u, v):
                return False
        return True

    label: list[int] = []
    reps: dict[tuple[int, ...], list[int]] = {}  # sorted counts -> class minima
    for v in range(n):
        group = reps.setdefault(tuple(sorted(inc[v].values())), [])
        label.append(next((u for u in group if is_twin(u, v)), v))
        if label[v] == v:
            group.append(v)
    return label


# ---------------------------------------------------------------------------
# Color-count certificate
# ---------------------------------------------------------------------------

def _colors_run_out(mat: list[list[int]], class_size: list[int],
                    color_degree: list[int], capped: tuple[int, ...]) -> bool:
    """Steps t >= 1 of the color-count certificate (module docstring).

    ``capped`` is ``graphs._capped_degrees`` of the pattern: its t largest
    entries bound the pattern edges at the t removed hosts.  True proves
    that no rainbow copy of the pattern exists; False decides nothing.  Step
    t = 0 (pigeonhole) is the caller's.
    """
    need = sum(capped)        # E - (c1 + ... + ct)
    kept = len(class_size)    # k_t
    left = class_size[:]
    # sort stability keeps the lower index first among equal color degrees
    hosts = sorted(range(len(mat)), key=color_degree.__getitem__, reverse=True)
    for t, d in enumerate(capped):
        need -= d
        if need <= 0:
            return False
        row = mat[hosts[t]]
        for v in hosts[t + 1:]:  # the hosts not yet removed
            c = row[v]
            left[c] -= 1
            if not left[c]:
                kept -= 1
        if kept < need:
            return True
    return False


# ---------------------------------------------------------------------------
# Search plan
# ---------------------------------------------------------------------------

@lru_cache
def _build_plan(g: Graph):
    """Slot order plus per-slot constraints for the backtracking search.

    It depends on the pattern alone, so it is cached by the ``Graph``'s
    value (a frozen dataclass, hashed by ``(n, edges)``), and it returns
    tuples because every call with that pattern shares them.
    """
    # each non-isolated vertex's BFS index within its component
    pos = {v: i for order in _components(g) for i, v in enumerate(order)}
    # each vertex's neighbours with a lower BFS index
    before: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edge_list:  # lexicographic, so every list ascends
        a, b = (u, v) if pos[u] < pos[v] else (v, u)
        before[b].append(a)
    comps = []
    for order in _components(g):
        edges = tuple(sorted((pos[u], i) for i, v in enumerate(order)
                             for u in before[v]))
        comps.append((-len(edges), -len(order), (len(order), edges), order))
    # largest-first; identical shapes adjacent so root ordering can bite
    comps.sort()

    slots = []  # (pattern_vertex, placed_neighbor_tuple, prev_identical_root or -1)
    prev_shape = prev_root = None
    for _, _, shape, order in comps:
        slots.append((order[0], (), prev_root if shape == prev_shape else -1))
        slots += [(v, tuple(before[v]), -1) for v in order[1:]]
        prev_shape, prev_root = shape, order[0]
    return tuple(slots), tuple(v for v in range(g.n) if v not in pos)


# ---------------------------------------------------------------------------
# Search
# ---------------------------------------------------------------------------

def find_rainbow(coloring: EdgeColoring,
                 pattern: PatternSpec) -> Embedding | None:
    """First rainbow embedding in the deterministic search order, or None.

    ``None`` certifies that no rainbow copy exists (complete search).
    """
    g = build_pattern(pattern)
    n = coloring.n
    if g.n > n:
        raise ValueError(f"pattern has {g.n} vertices, host only {n}")
    if g.num_edges == 0:
        return Embedding(tuple(range(g.n)))
    if g.num_edges > coloring.num_colors:
        return None  # certificate step t = 0: a copy needs a color per edge

    mat = coloring.color_matrix()
    color_degree = [len(set(row)) - 1 for row in mat]  # less the diagonal -1
    class_size = [0] * coloring.num_colors
    for c in coloring.colors:
        class_size[c] += 1
    if _colors_run_out(mat, class_size, color_degree, _capped_degrees(g)):
        return None
    pdeg = g.degrees()
    slots, isolated = _build_plan(g)

    twin = range(n)  # every host its own class until the first dead end
    assignment = [-1] * g.n
    used_host = [False] * n
    used_color = bytearray(coloring.num_colors)

    def place(si: int) -> bool:
        nonlocal twin
        if si == len(slots):
            return True
        v, nbrs, prev_root = slots[si]
        lo = assignment[prev_root] + 1 if prev_root >= 0 else 0
        need = pdeg[v]
        tried_classes = set()
        for h in range(lo, n):
            if used_host[h] or color_degree[h] < need or twin[h] in tried_classes:
                continue
            tried_classes.add(twin[h])
            new_colors = []
            ok = True
            for u in nbrs:
                c = mat[assignment[u]][h]
                if used_color[c] or c in new_colors:
                    ok = False
                    break
                new_colors.append(c)
            if not ok:
                continue
            assignment[v] = h
            used_host[h] = True
            for c in new_colors:
                used_color[c] = 1
            if place(si + 1):
                return True
            if isinstance(twin, range):  # the first dead end
                twin = _twin_partition(mat, class_size)
            tried_classes.add(twin[h])  # h's real class, once classes exist
            for c in new_colors:
                used_color[c] = 0
            used_host[h] = False
            assignment[v] = -1
        return False

    if not place(0):
        return None
    free = iter(h for h in range(n) if not used_host[h])
    for v in isolated:
        assignment[v] = next(free)
    return Embedding(tuple(assignment))
