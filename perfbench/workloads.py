"""The four workloads: inputs made from the seed, the library calls of one
case, and the checks of its answer.

Each workload is a fixed case list.  ``make_inputs`` turns the seed into
plain data (family strings, ints, color tuples) without touching the
library; ``run`` makes the case's library calls through the recorder, one
named span per public call; ``check`` verifies the answer with the code in
``reference`` and returns the key that goes into the answer digest.
"""

from __future__ import annotations

import json
from collections import Counter
from math import comb
from pathlib import Path

from reference import (CheckFailed, QProfiles, count_placements, edge_rank, family_edges,
                       has_rainbow_copy, is_rainbow_copy, relabel, require, uncovered)

HERE = Path(__file__).resolve().parent

HOST_CAP = 11          # rainbow-certify hosts run from |V| up to this n
FIND_QUERIES = 2000    # rainbow-find queries per pass
PIGEONHOLE_CASES = 48  # rainbow-certify random colorings with too few colors

# Acceptance criterion 5's cover instances: (family, cover size r1, inner colors s).
COVER_INSTANCES = (
    [(f"{t}P2", t - 2, 1) for t in range(2, 7)]
    + [(f"P3+{t}P2", t - 1, 1) for t in range(2, 5)]
    + [(f"P4+{t}P2", t, 1) for t in range(1, 5)]
    + [(f"P{k + 1}" + (f"+{t}P2" if t else ""), t + (k + 1) // 2 - 2, 1)
       for k in range(4, 12) for t in range(0, (11 - k) // 2 + 1)]
    + [(f"C3+{t}P2", t, 1) for t in range(1, 5)]
    + [(f"C{k}" + (f"+{t}P2" if t else ""), t + (k + 1) // 2 - 2, 1)
       for k in range(4, 13) for t in range(0, (12 - k) // 2 + 1)]
    + [(f"{k}P3", k - 1, 1) for k in range(2, 5)]
    + [(f"P{t + 1}+{k}P3", t // 2 + k - 1, 1 + t % 2)
       for t in range(3, 9) for k in range(1, (11 - t) // 3 + 1)]
    + [(f"P2+{k}P3", k - 1, 2) for k in range(1, 4)]
    + [(f"{t}P2+{k}P3", t + k - 2, 1)
       for t in range(1, 4) for k in range(2, (12 - 2 * t) // 3 + 1)]
)

# Patterns on at most 7 vertices on hosts K7..K8 keep each pigeonhole case
# under ~6 ms, well below the fixed cover cases that set case_p95_ms, so the
# seeded colorings do not move that percentile.
PIGEONHOLE_PATTERNS = ("P5", "C5", "2P3", "P6", "C3+2P2", "C4+1P2")
FIND_PATTERNS = ("P4", "P5", "P6", "C3", "C4", "C5", "3P2", "2P3", "3P3",
                 "C3+2P2", "P4+P3+P2")

# Disjoint unions with 20-40 vertices and the slacks j to run on each.  The
# seed code's subset scan takes 0.1-1.3 s on each of the big ones; larger
# slacks of P10+6P3+5P2 (7 s at j=1, 20 s at j=2) are left out to keep a
# pass short.
LARGE_UNIONS = (
    ("P10+6P3+5P2", (0,)),
    ("P8+5P3+4P2", (2,)),
    ("C9+3P3+3P2", (1,)),
    ("P7+6P3", (0, 1, 2, 3)),
    ("C8+5P3+2P2", (0, 1, 2)),
    ("P9+3P3+4P2", (0, 1)),
    ("C7+4P3+2P2", (2, 3)),
    ("P5+P6+P7+2P3+2P2", (0, 1)),
    ("C10+2P3+5P2", (0, 1)),
)


def load_oracle_table() -> dict:
    with open(HERE / "oracle_expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def random_coloring(rng, n: int, c: int, fixed=None) -> tuple[int, ...]:
    """Random surjective coloring of K_n onto 0..c-1.  ``fixed`` maps edge
    ranks to preset colors; the colors it leaves out go to random free
    edges, one each, and every other free edge gets a uniform color."""
    fixed = fixed or {}
    colors = [0] * comb(n, 2)
    for rank, col in fixed.items():
        colors[rank] = col
    missing = sorted(set(range(c)) - set(fixed.values()))
    free = [r for r in range(len(colors)) if r not in fixed]
    rng.shuffle(free)
    for i, rank in enumerate(free):
        colors[rank] = missing[i] if i < len(missing) else rng.randrange(c)
    return tuple(colors)


def _pattern(rec, lib, family):
    spec = rec.call("graphs.parse_family", lib.parse_family, family)
    return spec, rec.call("graphs.build_pattern", lib.build_pattern, spec)


def _check_pattern(g, family) -> tuple:
    v, edges = family_edges(family)
    require(g.n == v and tuple(g.edge_list) == edges,
            f"build_pattern({family}) disagrees with the family grammar")
    return edges


class Workload:
    """One workload bound to the library module it calls."""

    name = ""

    def __init__(self, lib):
        self.lib = lib
        self.profiles = QProfiles()

    def input_counts(self, inputs) -> Counter:
        """Untimed properties of the inputs, computed by the bench's own code."""
        return Counter()


class OracleExact(Workload):
    name = "oracle-exact"

    @staticmethod
    def make_inputs(rng, small=False):
        cases = []
        for row in load_oracle_table()["rows"]:
            if small and row["n"] > 5:
                continue
            v, edges = family_edges(row["family"])
            perm = rng.sample(range(v), v)
            cases.append((row, v, relabel(edges, perm)))
        rng.shuffle(cases)
        return cases

    def input_counts(self, inputs) -> Counter:
        return Counter({"oracle.placements": sum(
            count_placements(row["n"], v, edges) for row, v, edges in inputs)})

    def run(self, rec, case):
        lib = self.lib
        row, v, edges = case
        n = row["n"]
        spec, g = _pattern(rec, lib, row["family"])
        host_pattern = rec.call("graphs.Graph", lib.Graph, v, edges)
        report = rec.call("formulas.ar_family", lib.ar_family, n, spec)
        result = rec.call("oracle.max_rainbow_free", lib.max_rainbow_free,
                          n, host_pattern, row.get("budget"))
        text = rec.call("colorings.serialize_coloring", lib.serialize_coloring,
                        result.witness)
        return g, report, result, text

    def check(self, case, answer, tally):
        row, v, edges = case
        family, n = row["family"], row["n"]
        g, report, result, text = answer
        _check_pattern(g, family)
        where = f"{family} at n={n}"
        w = result.witness
        k = result.max_rainbow_free_colors
        require(w is not None and w.n == n and len(w.colors) == comb(n, 2),
                f"oracle witness missing or wrong size for {where}")
        require(sorted(set(w.colors)) == list(range(k)),
                f"oracle witness for {where} does not use exactly {k} colors")
        require(not has_rainbow_copy(n, w.colors, v, edges),
                f"oracle witness for {where} contains a rainbow copy")
        require(text.split("\n", 1)[0] == f"{n} {k}",
                f"serialized witness header wrong for {where}")
        if result.conclusive:
            require(result.ar_exact == k + 1, f"ar_exact is not max + 1 for {where}")
            if row["ar"] is not None:
                require(result.ar_exact == row["ar"],
                        f"oracle gives {result.ar_exact} for {where}, expected {row['ar']}")
            else:
                require(result.ar_exact >= row["ar_at_least"],
                        f"oracle gives {result.ar_exact} for {where}, "
                        f"below the known {row['ar_at_least']}")
        else:
            require(row.get("budget") is not None and result.ar_exact is None,
                    f"unbudgeted oracle run for {where} came back inconclusive")
            require(row["ar"] is None or k + 1 <= row["ar"],
                    f"lower bound {k + 1} exceeds the known value for {where}")
            tally["oracle.inconclusive"] += 1
        if (result.conclusive and report.exact is not None
                and report.valid.get("exact") and report.exact != result.ar_exact):
            tally["formulas.mismatches"] += 1
        tally["oracle.nodes"] += result.nodes_explored
        tally["colorings.bytes"] += len(text.encode())
        return (family, n, k, result.conclusive, result.nodes_explored, w.colors)


class RainbowCertify(Workload):
    name = "rainbow-certify"

    @staticmethod
    def make_inputs(rng, small=False):
        cap = 8 if small else HOST_CAP
        cases = []
        for family, r1, s in COVER_INSTANCES:
            v, _ = family_edges(family)
            cases += [("cover", family, n, (r1, s)) for n in range(v, cap + 1)]
        for k in (2, 3):
            cases += [("clique", f"{k}P3", n, 3 * k - 2) for n in range(3 * k, cap + 1)]
        for i in range(6 if small else PIGEONHOLE_CASES):
            family = PIGEONHOLE_PATTERNS[i % len(PIGEONHOLE_PATTERNS)]
            v, edges = family_edges(family)
            n = rng.randint(7, 8)
            c = rng.randint(max(1, len(edges) - 2), len(edges) - 1)
            cases.append(("pigeonhole", family, n, random_coloring(rng, n, c)))
        rng.shuffle(cases)
        return cases

    def run(self, rec, case):
        lib = self.lib
        kind, family, n, extra = case
        _, g = _pattern(rec, lib, family)
        q = count = text = None
        if kind == "cover":
            r1, s = extra
            q = rec.call("qcover.q_cover", lib.q_cover, g, s)
            coloring = rec.call("constructions.cover_coloring", lib.cover_coloring, n, r1, s)
            count = rec.call("formulas.cover_lower_bound", lib.cover_lower_bound, n, r1, s)
        elif kind == "clique":
            coloring = rec.call("constructions.clique_coloring", lib.clique_coloring, n, extra)
        else:
            coloring = rec.call("colorings.EdgeColoring", lib.EdgeColoring, n, extra)
        host = coloring
        if kind != "pigeonhole":
            text = rec.call("colorings.serialize_coloring", lib.serialize_coloring, coloring)
            host = rec.call("colorings.parse_coloring", lib.parse_coloring, text)
        emb = rec.call("rainbow.find_rainbow", lib.find_rainbow, host, g)
        return g, q, coloring, count, text, host, emb

    def check(self, case, answer, tally):
        kind, family, n, extra = case
        g, q, coloring, count, text, host, emb = answer
        edges = _check_pattern(g, family)
        where = f"{kind} coloring of K_{n} against {family}"
        if emb is not None:
            real = is_rainbow_copy(n, host.colors, edges, emb.map)
            raise CheckFailed(f"find_rainbow found a copy in the {where} "
                              f"({'a real rainbow copy' if real else 'not even rainbow'})")
        if kind == "cover":
            r1, s = extra
            require(q.value == self.profiles.q(edges, s),
                    f"q_{s}({family}) = {q.value} disagrees with the component convolution")
            require(len(set(q.witness)) == q.value and uncovered(edges, q.witness) <= s,
                    f"q_{s}({family}) witness {q.witness} is not a valid cover")
            require(q.value > r1, f"bench instance {family}: q_{s} <= r1, not a certificate")
            require(count == r1 * (2 * n - r1 - 1) // 2 + s,
                    f"cover_lower_bound({n}, {r1}, {s}) = {count} is wrong")
            require(host.num_colors == count, f"{where} uses {host.num_colors} colors, not {count}")
        elif kind == "clique":
            require(host.num_colors == comb(extra, 2) + 1,
                    f"{where} uses {host.num_colors} colors")
        else:
            c = max(extra) + 1
            require(c < len(edges) and host.colors == extra and host.num_colors == c,
                    f"{where}: EdgeColoring does not hold the generated colors")
        if text is not None:
            require(host.colors == coloring.colors and host.n == n,
                    f"{where}: text round trip changed the coloring")
            tally["colorings.bytes"] += len(text.encode())
        return (kind, family, n, None if q is None else (q.value, q.witness), host.num_colors)


class RainbowFind(Workload):
    name = "rainbow-find"

    @staticmethod
    def make_inputs(rng, small=False):
        cases = []
        for i in range(110 if small else FIND_QUERIES):
            family = FIND_PATTERNS[i % len(FIND_PATTERNS)]
            v, edges = family_edges(family)
            n = rng.randint(10, 18)
            c = rng.randint(len(edges), 3 * len(edges))
            # plant one rainbow copy so that "no" would be a wrong answer
            image = rng.sample(range(n), v)
            planted = dict(zip((edge_rank(n, image[a], image[b]) for a, b in edges),
                               rng.sample(range(c), len(edges))))
            cases.append((family, n, random_coloring(rng, n, c, planted)))
        return cases

    def run(self, rec, case):
        lib = self.lib
        family, n, colors = case
        _, g = _pattern(rec, lib, family)
        coloring = rec.call("colorings.EdgeColoring", lib.EdgeColoring, n, colors)
        return g, coloring, rec.call("rainbow.find_rainbow", lib.find_rainbow, coloring, g)

    def check(self, case, answer, tally):
        family, n, colors = case
        g, coloring, emb = answer
        edges = _check_pattern(g, family)
        where = f"{family} in a {max(colors) + 1}-coloring of K_{n}"
        require(coloring.colors == colors, f"EdgeColoring changed the colors of {where}")
        require(emb is not None, f"find_rainbow missed the planted copy of {where}")
        require(is_rainbow_copy(n, colors, edges, emb.map)
                and self.lib.check_embedding(coloring, g, emb),
                f"find_rainbow returned a non-rainbow map {emb.map} for {where}")
        return (family, n, emb.map)


class QcoverUnions(Workload):
    name = "qcover-unions"

    @staticmethod
    def make_inputs(rng, small=False):
        families = sorted({family for family, _, _ in COVER_INSTANCES})
        cases = [(family, j) for family in families for j in range(4)]
        if not small:
            cases += [(family, j) for family, slacks in LARGE_UNIONS for j in slacks]
        rng.shuffle(cases)
        return cases

    def run(self, rec, case):
        lib = self.lib
        family, j = case
        _, g = _pattern(rec, lib, family)
        return g, rec.call("qcover.q_cover", lib.q_cover, g, j)

    def check(self, case, answer, tally):
        family, j = case
        g, q = answer
        edges = _check_pattern(g, family)
        require(q.j == j and q.value == self.profiles.q(edges, j),
                f"q_{j}({family}) = {q.value} disagrees with the component convolution")
        require(len(set(q.witness)) == q.value and all(0 <= x < g.n for x in q.witness)
                and uncovered(edges, q.witness) <= j,
                f"q_{j}({family}) witness {q.witness} is not a valid cover")
        return (family, j, q.value, q.witness)


WORKLOADS = {w.name: w for w in (OracleExact, RainbowCertify, RainbowFind, QcoverUnions)}
