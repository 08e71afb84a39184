#!/usr/bin/env python3
"""Exact anti-Ramsey values for small hosts, cross-checked against formulas.

For hosts up to K6 (and K7 under a node budget) the library maximizes the
number of colors over ALL rainbow-free edge-colorings by branch and bound
over canonical set partitions of the edge set.  The maximum plus one is the
exact anti-Ramsey value - an independent check on every closed form, and the
only source of truth below the formulas' validity windows.
"""

from antiramsey import (
    Cycle,
    Matching,
    TriplePath,
    find_rainbow,
    max_rainbow_free,
    serialize_coloring,
    verify_range,
)


def banner(title):
    print()
    print("=" * 64)
    print(title)
    print("=" * 64)


banner("Exact values on small hosts")
result = max_rainbow_free(5, Cycle(3))
print(f"  K5 vs triangle: {result.max_rainbow_free_colors} colors max, "
      f"AR = {result.ar_exact} ({result.nodes_explored} nodes)")
print("  the witness coloring, certified rainbow-free:")
print("   ", serialize_coloring(result.witness).replace("\n", "\n    ").rstrip())
assert find_rainbow(result.witness, Cycle(3)) is None
assert result.witness.num_colors == result.max_rainbow_free_colors

banner("Search vs closed form over a range")
report = verify_range(Cycle(3), 3, 6)
for row in report.rows:
    print(f"  n={row.n}: search {row.ar_oracle}, formula {row.formula_exact}, "
          f"match: {row.match}")
print(f"  mismatches inside validity windows: {list(report.mismatches)} (must be empty)")

banner("Below a validity window the search is the only truth")
report = verify_range(TriplePath(2), 6, 6)
for row in report.rows:
    print(f"  n={row.n} [{row.status}]: search {row.ar_oracle}, "
          f"formula value {row.formula_exact} (valid: {row.formula_valid})")
print("  the linear formula undershoots here; its window starts at n = 12")
k7 = max_rainbow_free(7, TriplePath(2))
print("  (K7 hosts run the same way under a default node budget; 2P3 on K7")
print(f"  settles AR = {k7.ar_exact} in {k7.nodes_explored:,} nodes)")

banner("Values no formula covers")
print(f"  AR(4, 2P2) = {max_rainbow_free(4, Matching(2)).ar_exact}  "
      "(perfect matching on 4 vertices: outside every closed form)")

banner("Budgeted search degrades explicitly, never silently")
capped = max_rainbow_free(6, Cycle(3), node_budget=100)
print(f"  100-node budget on K6 vs triangle: conclusive={capped.conclusive}, "
      f"best lower bound {capped.max_rainbow_free_colors} colors")
full = max_rainbow_free(6, Cycle(3))
print(f"  full run: AR = {full.ar_exact} ({full.nodes_explored} nodes)")
