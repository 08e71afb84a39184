#!/usr/bin/env python3
"""Why the lower bounds hold: cover numbers and rainbow-free colorings.

The lower-bound engine is a single construction.  Pick a small vertex set R
and give every edge touching R its own fresh color; color the remaining
clique with s shared colors.  A rainbow copy of G could keep at most s of
its edges inside the shared zone, so if every |R|-sized vertex set of G
misses more than s edges (q_s(G) > |R|), no rainbow copy fits and the
coloring's color count is a certified lower bound for AR - 1.

This script computes the cover parameter q, builds the colorings, and lets
``find_rainbow`` confirm every certificate.  It settles the cover coloring
with its color-count certificate, the same q_s > |R| argument run on the
coloring itself, without search; the clique colorings go to its complete
backtracking search.
"""

from antiramsey import (
    Matching,
    Path,
    TriplePath,
    Union,
    build_pattern,
    clique_coloring,
    cover_coloring,
    cover_lower_bound,
    find_rainbow,
    q_cover,
    serialize_coloring,
)


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


banner("The cover parameter q_j")
for spec, j in [(Matching(2), 1), (Path(5), 1), (TriplePath(3), 1),
                (Union(Matching(1), TriplePath(2)), 2)]:
    g = build_pattern(spec)
    res = q_cover(g, j)
    print(f"  q_{j} of {spec}: {res.value}  witness {list(res.witness)}")

banner("Spare matching edges reduce to a smaller cover computation")
direct = q_cover(build_pattern(Union(TriplePath(1), Matching(3))), 1).value
# q_1(P3 + 3P2): each of the two spare edges is bought into the cover (one
# vertex) or written off against the slack, leaving q_{1-i}(P3 + P2)
base = build_pattern(Union(TriplePath(1), Matching(1)))
reduced = min(2 - i + q_cover(base, 1 - i).value for i in range(2))
print(f"  q_1(P3 + 3P2) directly: {direct}, via the reduction: {reduced}")

banner("A certified lower-bound coloring")
n, r1, s = 11, 1, 1
pattern = TriplePath(2)
g = build_pattern(pattern)
print(f"  target pattern: two disjoint 2-edge paths, q_{s} = {q_cover(g, s).value} > {r1}")
coloring = cover_coloring(n, r1, s)
print(f"  cover_coloring(n={n}, cover={r1}, inner={s}) uses "
      f"{coloring.num_colors} colors "
      f"(= formula value {cover_lower_bound(n, r1, s)})")
print(f"  find_rainbow finds a rainbow copy: {find_rainbow(coloring, pattern)}")
print(f"  so AR({n}, 2P3) >= {coloring.num_colors + 1}")

banner("The small-host construction for disjoint triples")
# distinctly color a clique on 3k-2 vertices, one shared color elsewhere:
# k disjoint 2-edge paths cannot fit enough disjoint structure in the clique
for k, n in [(2, 10), (3, 12)]:
    coloring = clique_coloring(n, 3 * k - 2)
    free = find_rainbow(coloring, TriplePath(k)) is None
    print(f"  k={k}, n={n}: {coloring.num_colors} colors, "
          f"rainbow-free for {k}P3: {free}")

banner("Colorings serialize to a reproducible text format")
print(serialize_coloring(cover_coloring(5, 1, 2)))
