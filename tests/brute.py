"""Brute-force reference implementations the tests check the library against.

Everything here is deliberately naive and independent of the library's search
code: plain nested loops over injective maps, subsets, set-partition strings
and vertex transpositions.  The one exception is ``first_rainbow``, which
walks the library's slot plan unpruned, because the witness a search must
return is defined by that plan's order.  The small fixtures only the tests need live here
too: the one-color and all-distinct colorings, host relabeling, and the
edge-list text writer.  The coloring text reader and writer, the color
matrix and the cover coloring are kept here in their plain per-edge form,
as references for the library's table-driven ones.
"""

from __future__ import annotations

import random
from functools import lru_cache
from itertools import combinations, permutations, product
from math import comb

from antiramsey import EdgeColoring, Graph
from antiramsey.colorings import all_edges, edge_index
from antiramsey.rainbow import _build_plan


def naive_has_rainbow(coloring: EdgeColoring, g: Graph) -> bool:
    """Scan every injective vertex map for an all-distinct-colors copy."""
    n = coloring.n
    if g.n > n:
        return False
    for image in permutations(range(n), g.n):
        seen = set()
        ok = True
        for u, v in g.edge_list:
            c = coloring.color(image[u], image[v])
            if c in seen:
                ok = False
                break
            seen.add(c)
        if ok:
            return True
    return False


def placement_index(n: int, g: Graph) -> tuple[list[int], list[int], list[int],
                                                list, list[int], list[int]]:
    """The oracle's placement index, built from every injective vertex map.

    Maps g's non-isolated vertices into K_n in every way, dedups the edge
    sets they give and numbers them by sorted edge-rank tuple.  Each table
    of ``(masks, through, last, near, reach, pair)`` is then built straight
    from its definition in ``oracle._placement_index``, as the set of
    placements that pass its own test:

    * ``through[e]``: the placements containing edge e;
    * ``last[e]``: those whose largest rank is e;
    * ``reach[i]``: those whose second-largest rank is i;
    * ``near[i]``: reach[i] split by largest rank e, one ``(1 << e, set)``
      pair per e, in the order of each e's first placement;
    * ``pair[i]``: those with exactly two ranks above i.
    """
    pverts = [v for v in range(g.n) if any(v in e for e in g.edges)]
    pos = {v: i for i, v in enumerate(pverts)}
    pedges = [(pos[u], pos[v]) for u, v in g.edge_list]
    placements = sorted({tuple(sorted(edge_index(n, image[a], image[b])
                                      for a, b in pedges))
                         for image in permutations(range(n), len(pverts))})
    m = n * (n - 1) // 2

    def having(test) -> int:
        return sum(1 << p for p, ranks in enumerate(placements) if test(ranks))

    # ranks[-2:-1] holds the second-largest rank, and is empty for a
    # one-edge placement
    masks = [sum(1 << r for r in ranks) for ranks in placements]
    through = [having(lambda ranks: e in ranks) for e in range(m)]
    last = [having(lambda ranks: ranks[-1] == e) for e in range(m)]
    reach = [having(lambda ranks: ranks[-2:-1] == (i,)) for i in range(m)]
    near = [[(1 << e, having(lambda ranks: ranks[-2:] == (i, e)))
             for e in dict.fromkeys(ranks[-1] for ranks in placements
                                    if ranks[-2:-1] == (i,))]
            for i in range(m)]
    pair = [having(lambda ranks: sum(r > i for r in ranks) == 2)
            for i in range(m)]
    return masks, through, last, near, reach, pair


def first_rainbow(coloring: EdgeColoring, g: Graph) -> tuple[int, ...] | None:
    """The first rainbow copy in ``find_rainbow``'s search order, unpruned.

    A plain DFS over the slots of the library's ``_build_plan``: hosts in
    ascending order, identical components on increasing root hosts, and no
    other cut.  Pruning that keeps completeness must keep this first hit,
    so it is the witness ``find_rainbow`` has to return.  Isolated pattern
    vertices take the smallest hosts left.
    """
    slots, isolated = _build_plan(g)
    image = [-1] * g.n

    def dfs(si: int, used: frozenset) -> bool:
        if si == len(slots):
            return True
        v, nbrs, prev_root = slots[si]
        for h in range(image[prev_root] + 1 if prev_root >= 0 else 0, coloring.n):
            if h in image:
                continue
            colors = {coloring.color(image[u], h) for u in nbrs}
            if len(colors) < len(nbrs) or colors & used:
                continue
            image[v] = h
            if dfs(si + 1, used | colors):
                return True
            image[v] = -1
        return False

    if not dfs(0, frozenset()):
        return None
    free = [h for h in range(coloring.n) if h not in image]
    for v, h in zip(isolated, free):
        image[v] = h
    return tuple(image)


def brute_q(g: Graph, j: int) -> tuple[int, tuple[int, ...]]:
    """Smallest vertex set leaving at most j edges uncovered, by subset scan.

    Returns (size, lexicographically smallest witness).
    """
    edges = g.edge_list
    for size in range(g.n + 1):
        for combo in combinations(range(g.n), size):
            chosen = set(combo)
            uncovered = sum(1 for u, v in edges if u not in chosen and v not in chosen)
            if uncovered <= j:
                return size, combo
    raise AssertionError("unreachable: the full vertex set always covers")


def fewest_uncovered(g: Graph, size: int) -> int:
    """Fewest edges avoiding a set of ``size`` vertices, over every such set."""
    return min(sum(1 for u, v in g.edge_list if u not in chosen and v not in chosen)
               for chosen in map(set, combinations(range(g.n), size)))


def rg_strings(length: int):
    """All restricted-growth strings of the given length.

    Each string is a canonical set partition: position i may reuse any value
    seen so far or introduce max+1.
    """
    def rec(prefix: list[int], cmax: int):
        if len(prefix) == length:
            yield tuple(prefix)
            return
        for c in range(cmax + 1):
            prefix.append(c)
            yield from rec(prefix, cmax + 1 if c == cmax else cmax)
            prefix.pop()

    yield from rec([], 0)


def random_surjective_coloring(rng: random.Random, n: int,
                               max_colors: int) -> EdgeColoring:
    """Uniform random color per edge, then ids renamed to 0..c-1."""
    m = comb(n, 2)
    cols = [rng.randrange(max_colors) for _ in range(m)]
    relabel = {c: i for i, c in enumerate(sorted(set(cols)))}
    return EdgeColoring(n, tuple(relabel[c] for c in cols))


@lru_cache
def iso_classes(num_vertices: int, max_edges: int) -> list[Graph]:
    """One representative per isomorphism class of graphs on exactly
    ``num_vertices`` labeled vertices with 1..max_edges edges.

    The class key is the smallest relabeled edge list over the relabelings
    that list vertices by descending degree.  Isomorphic graphs have the
    same such relabelings, so the key is exact, and the first edge set of
    each class in ``combinations`` order is its representative.  Cached, as
    several test modules scan the same classes; callers must not mutate the
    returned list.
    """
    universe = list(combinations(range(num_vertices), 2))
    seen: dict[tuple, Graph] = {}
    for m in range(1, max_edges + 1):
        for es in combinations(universe, m):
            deg = [0] * num_vertices
            for u, v in es:
                deg[u] += 1
                deg[v] += 1
            groups = [[v for v in range(num_vertices) if deg[v] == d]
                      for d in sorted(set(deg), reverse=True)]
            key = None
            for choice in product(*(permutations(grp) for grp in groups)):
                label = [0] * num_vertices
                for i, v in enumerate(w for grp in choice for w in grp):
                    label[v] = i
                cand = tuple(sorted(tuple(sorted((label[u], label[v])))
                                    for u, v in es))
                if key is None or cand < key:
                    key = cand
            if key not in seen:
                seen[key] = Graph(num_vertices, es)
    return list(seen.values())


def cover_by_counting(g: Graph, size: int, slack: int) -> bool:
    """Counting guarantee: if ``C(|V| - size, 2) <= slack`` then every set of
    ``size`` vertices leaves at most ``slack`` edges, so q_slack(g) <= size."""
    if size < 0 or slack < 0:
        raise ValueError("size and slack must be nonnegative")
    return comb(max(g.n - size, 0), 2) <= slack


def monochromatic(n: int) -> EdgeColoring:
    """Every edge of K_n in one color."""
    return EdgeColoring(n, (0,) * comb(n, 2))


def all_distinct(n: int) -> EdgeColoring:
    """Every edge of K_n its own color."""
    return EdgeColoring(n, tuple(range(comb(n, 2))))


def relabel(coloring: EdgeColoring, perm: list[int]) -> EdgeColoring:
    """The coloring obtained by renaming host vertex ``v`` to ``perm[v]``."""
    inv = [0] * coloring.n
    for v, w in enumerate(perm):
        inv[w] = v
    return EdgeColoring(coloring.n, tuple(
        coloring.color(inv[a], inv[b]) for a, b in combinations(range(coloring.n), 2)))


def twin_partition(coloring: EdgeColoring) -> list[int]:
    """Label each host vertex with its smallest twin, by trying every swap.

    u and v are twins when the coloring with u and v swapped is a color
    renaming of the original: one color map, injective, carries every
    edge's color to the color of its image edge.
    """
    n = coloring.n

    def swap_is_renaming(u: int, v: int) -> bool:
        swap = list(range(n))
        swap[u], swap[v] = v, u
        forward: dict[int, int] = {}
        for a, b in combinations(range(n), 2):
            c = coloring.color(a, b)
            image = coloring.color(swap[a], swap[b])
            if forward.setdefault(c, image) != image:
                return False
        return len(set(forward.values())) == len(forward)

    return [next(u for u in range(v + 1) if u == v or swap_is_renaming(u, v))
            for v in range(n)]


def serialize_graph(g: Graph) -> str:
    """``g`` in the edge-list text format that ``parse_graph`` reads."""
    lines = [f"{g.n} {g.num_edges}"]
    lines += [f"{u} {v}" for u, v in g.edge_list]
    return "\n".join(lines) + "\n"


def naive_serialize_coloring(coloring: EdgeColoring) -> str:
    """The coloring text, one f-string per edge line."""
    lines = [f"{coloring.n} {coloring.num_colors}"]
    for idx, (u, v) in enumerate(all_edges(coloring.n)):
        lines.append(f"{u} {v} {coloring.colors[idx]}")
    return "\n".join(lines) + "\n"


def naive_parse_coloring(text: str) -> EdgeColoring:
    """The coloring text reader, one ``edge_index`` call per line, with the
    library's checks in the library's order and with its messages."""
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


def naive_color_matrix(coloring: EdgeColoring) -> list[list[int]]:
    """The dense n-by-n color lookup, filled edge by edge in rank order."""
    n = coloring.n
    mat = [[-1] * n for _ in range(n)]
    cols = iter(coloring.colors)  # row-major upper triangle: edge rank order
    for u in range(n):
        row = mat[u]
        for v in range(u + 1, n):
            row[v] = mat[v][u] = next(cols)
    return mat


def naive_cover_coloring(n: int, r1: int, s: int) -> EdgeColoring:
    """The two-zone coloring, edge by edge: a fresh color on each edge that
    meets ``0..r1-1``, the inner colors round-robin on the rest."""
    colors = []
    inner_seen = 0
    fresh = s
    for u, _v in all_edges(n):
        if u >= r1:
            colors.append(inner_seen % s)
            inner_seen += 1
        else:
            colors.append(fresh)
            fresh += 1
    return EdgeColoring(n, tuple(colors))
