"""Exhaustive color-maximization search: values, witnesses, consistency."""

import gc
import hashlib
import random
from fractions import Fraction
from functools import cache
from itertools import permutations
from math import factorial

import pytest

from antiramsey import (
    BoundReport,
    Cycle,
    EdgeColoring,
    Graph,
    Matching,
    Path,
    TriplePath,
    Union,
    all_edges,
    ar_cycle,
    build_pattern,
    cover_coloring,
    find_rainbow,
    max_rainbow_free,
    oracle,
    parse_family,
    q_cover,
    verify_range,
)
from antiramsey.cli import _plain

import repin
from brute import iso_classes, naive_has_rainbow, placement_index, rg_strings


class TestKnownValues:
    def test_two_edge_matching(self):
        r = max_rainbow_free(5, Matching(2))
        assert r.max_rainbow_free_colors == 1
        assert r.ar_exact == 2

    @pytest.mark.parametrize("n,expected", [(3, 3), (4, 4), (5, 5)])
    def test_triangle_small(self, n, expected):
        assert max_rainbow_free(n, Cycle(3)).ar_exact == expected

    def test_triangle_matches_closed_form(self):
        from antiramsey import ar_cycle
        for n in (4, 5):
            assert max_rainbow_free(n, Cycle(3)).ar_exact == ar_cycle(n, 3).exact

    def test_single_edge_degenerate(self):
        # the one placement per edge closes on it at every frame, so no
        # color opens and the search visits no node
        for spec in (Matching(1), Graph(3, [(0, 2)])):
            for n in range(build_pattern(spec).n, 8):
                r = max_rainbow_free(n, spec)
                assert r.conclusive, (spec, n)
                assert r.nodes_explored == 0, (spec, n)
                assert r.max_rainbow_free_colors == 0, (spec, n)
                assert r.ar_exact == 1, (spec, n)
                assert r.witness is None, (spec, n)

    def test_perfect_matching_on_four_vertices(self):
        # the one perfect-matching case outside every closed form
        assert max_rainbow_free(4, Matching(2)).ar_exact == 4


@cache
def _naive_rainbow_free(family: str, n: int, witness: str) -> bool:
    colors = tuple(int(ch, 36) for ch in witness)
    return not naive_has_rainbow(EdgeColoring(n, colors), build_pattern(parse_family(family)))


def _pinned(ids, where):
    """One test over the non-ci pin rows whose n and budget satisfy
    ``where``: repin.observed's checks, and no rainbow copy in the witness by
    the naive enumerator.  Rows past the given ids get their labels as ids."""
    rows = [row for row in repin.load() if not row["ci"] and where(row["n"], row["budget"])]

    def test(self, row):
        assert repin.observed(row) == row
        assert _naive_rainbow_free(row["family"], row["n"], row["witness"])
    return pytest.mark.parametrize(
        "row", rows, ids=[*ids, *map(repin.label, rows[len(ids):])])(test)


class TestWitness:
    @pytest.mark.parametrize("n,spec", [
        (4, Cycle(3)), (5, Matching(2)), (5, Path(3)), (5, Cycle(4)),
    ])
    def test_witness_attains_maximum_and_has_no_rainbow_copy(self, n, spec):
        r = max_rainbow_free(n, spec)
        assert r.witness is not None
        assert r.witness.num_colors == r.max_rainbow_free_colors
        assert find_rainbow(r.witness, spec) is None

    # The pin rows run under the names and ids of the tests they replaced,
    # some holding node counts of earlier versions, so that every id that
    # passed before still passes; they move to one test with ids family-n a
    # few at a time.  The n <= 6, n = 7 and n >= 8 bindings partition the
    # rows; the n <= 6 rows come under two names, and repin.run runs each
    # case once
    test_node_count_with_packing_pinned_at_n6 = _pinned(
        ["spec0-375", "spec1-17295", "spec2-1281", "spec3-2388", "spec4-445",
         "spec5-10416"], lambda n, budget: n <= 6)
    test_witness_pinned_at_n6 = _pinned(
        ["spec0-012340000111223", "spec1-012345555555555", "spec2-012300000450600",
         "spec3-012000034500006", "spec4-012345555555555", "spec5-012345555555555"],
        lambda n, budget: n <= 6)
    test_conclusive_at_n7_within_250k_nodes = _pinned(
        ["spec0-9-55962", "spec1-8-14250", "spec2-11-102419", "spec3-8-160208",
         "spec4-8-188068", "spec5-13-76429"], lambda n, budget: n == 7 and budget == 250_000)
    test_node_count_and_witness_pinned_at_n7 = _pinned(
        ["spec0-5822-012345000001111222334", "spec1-1097-010000000000000000000",
         "spec2-4181-012345666666666666666", "spec3-983-000000000000000000000",
         "spec4-4561-010000000000000000000"], lambda n, budget: n == 7 and budget != 250_000)

    def test_c4_at_n7_equals_closed_form(self):
        # the value pinned above for C4 is the cycle formula's
        assert ar_cycle(7, 4).exact == 9

    def test_deterministic_across_runs(self):
        a = max_rainbow_free(5, Path(3))
        b = max_rainbow_free(5, Path(3))
        assert a.witness == b.witness
        assert a.nodes_explored == b.nodes_explored


class TestHostK8:
    # the first four witnesses predate vertex 0's star rule and the next five
    # the dead-edge cut, so those rules moved no witness; C8's is the first found
    test_settled_at_n8 = _pinned(
        ["C3-8-0123456000000111112222333445", "P4-3-0100000000000000000000000000",
         "2P3-9-0123456777777777777777777777", "C4-10-0123400000056722001100100008",
         "3P2-9", "C3+1P2-9", "P3+2P2-9", "P4+1P2-9", "P4+1P3-12", "C8-23"],
        lambda n, budget: n >= 8)


def _renormalize(seq):
    ids = {}
    return tuple(ids.setdefault(c, len(ids)) for c in seq)


def _search_key(seq):
    # the oracle tries the fresh id first, then the open ids in ascending
    # order; in a restricted-growth string the fresh id is max + 1
    key = []
    fresh = 0
    for c in seq:
        key.append(-1 if c == fresh else c)
        fresh = max(fresh, c + 1)
    return tuple(key)


class TestStarRule:
    @pytest.mark.parametrize("length", range(1, 7))
    def test_rule_holds_exactly_on_search_order_minima(self, length):
        # a star coloring passes the rule at every edge exactly when no
        # relabeling of the star's leaves puts it earlier in the search
        # order, so the rule keeps one star of each orbit: the first one
        for seq in rg_strings(length):
            canonical = all(seq[i] in oracle._star_tries(list(seq[:i]))
                            for i in range(length))
            least = min((_renormalize(seq[j] for j in perm)
                         for perm in permutations(range(length))),
                        key=_search_key)
            assert canonical == (seq == least), seq


def _swap(seq, n, u, w):
    # the coloring with host vertices u and w exchanged, in normal form
    edges = all_edges(n)
    rank = {e: r for r, e in enumerate(edges)}
    to = {u: w, w: u}
    return _renormalize(seq[rank[tuple(sorted((to.get(a, a), to.get(b, b))))]]
                        for a, b in edges)


class TestRowRule:
    def test_every_rejected_k5_coloring_has_an_earlier_swap(self):
        # at edge (1, w), each u in 2 .. w - 1 whose star edges (0, u) and
        # (0, w) share a color, and whose edge (1, u) reused an id a, allows
        # the ids c with a <= c that are open before (1, u); the rule allows
        # what every such u allows.  Each u that rejects a coloring must
        # map it, by the swap of u and w, to a strictly earlier one
        n = 5
        rejected = 0
        for seq in rg_strings(10):
            for i in range(n - 1, 2 * n - 3):  # the edges (1, 2) .. (1, n - 1)
                w = i - n + 3
                window = oracle._row_window(list(seq[:i]), n)
                kept = window is None or window[0] <= seq[i] < window[1]
                rejecters = []
                for u in range(2, w):
                    a, before = seq[n + u - 3], seq[:n + u - 3]  # at (1, u)
                    if seq[u - 1] == seq[w - 1] and a in before \
                            and not (a <= seq[i] and seq[i] in before):
                        rejecters.append(u)
                assert kept == (not rejecters), (seq, i)
                for u in rejecters:
                    assert _search_key(_swap(seq, n, u, w)) < _search_key(seq), \
                        (seq, i, u)
                if not kept:
                    rejected += 1
                    break
        assert rejected == 18_659


class TestWitnessWithOneEntryMemo(TestWitness):
    """Every pin of TestWitness, the rows with n <= 7, again with the blocking
    memo capped at one entry: each miss empties its table, and the search must
    not notice."""

    @pytest.fixture(autouse=True)
    def one_entry_memo(self, monkeypatch):
        monkeypatch.setattr(oracle, "_MEMO_CAP", 1)


class TestPerCallState:
    @pytest.mark.parametrize("n,spec", [
        (7, Cycle(4)), (7, TriplePath(2)), (6, Cycle(5)),
        (6, Union(Cycle(3), Matching(1))),
    ])
    def test_no_reference_cycle_left(self, n, spec):
        # the search closure reaches itself through its own cell; left in
        # place, that cycle keeps every per-call table alive until the next
        # full collection
        gc.collect()
        gc.disable()
        try:
            max_rainbow_free(n, spec, node_budget=250_000)
            assert gc.collect() == 0
        finally:
            gc.enable()


@cache
def _five_vertex_patterns():
    return [g for g in iso_classes(5, 7)
            if g.num_edges >= 5 and min(g.degrees()) > 0]


class TestPackingSoundness:
    # maxima on K6 recorded before the packing bound, in iso_classes order;
    # an unsound packing cuts the subtree of a better coloring and lowers one
    MAXIMA = [7, 7, 6, 7, 8, 8, 10, 8, 8, 9, 10, 10, 10, 9]

    def test_grid_has_every_pattern(self):
        assert len(_five_vertex_patterns()) == len(self.MAXIMA)

    @pytest.mark.parametrize("k,maximum", enumerate(MAXIMA))
    def test_five_vertex_pattern_on_k6(self, k, maximum):
        g = _five_vertex_patterns()[k]
        r = max_rainbow_free(6, g)
        assert r.conclusive
        assert r.max_rainbow_free_colors == maximum
        assert r.witness.num_colors == maximum
        assert not naive_has_rainbow(r.witness, g)


class TestClassSweep:
    # every pattern class on up to 6 vertices that K6 settles quickly, on
    # each host from its own size to K6.  The run count, a digest of
    # (edges, n, maximum, witness), the total node count and a digest of
    # the node counts are pinned.  A new pruning rule moves the node pins
    # only: the witness digest is the one the search had before vertex 0's
    # star was made canonical, and a sound rule keeps it
    GRID = ((2, 1), (3, 3), (4, 6), (5, 6), (6, 4))  # (vertices, max edges)
    WITNESSES = "2ae9393493e62943a054acdaad6c39a36e15e9e3cb1411d0a17a7dbc3a8fb463"
    NODES = "e4a59b56ba4077e3a6b1d45149f9fee10105bfaaf49e9d34211af83b913f0397"

    def test_sweep_pinned(self):
        rows = []
        nodes = []
        for v, max_edges in self.GRID:
            for g in iso_classes(v, max_edges):
                for n in range(v, 7):
                    r = max_rainbow_free(n, g)
                    assert r.conclusive
                    rows.append((g.edge_list, n, r.max_rainbow_free_colors,
                                 None if r.witness is None else r.witness.colors))
                    nodes.append(r.nodes_explored)
        assert len(rows) == 114
        assert hashlib.sha256(repr(rows).encode()).hexdigest() == self.WITNESSES
        assert sum(nodes) == 119_469
        assert hashlib.sha256(repr(nodes).encode()).hexdigest() == self.NODES


class TestDefaultBudget:
    # the one default budget is safe below the ceiling: every host with
    # n <= 5 has at most 10 edges, and every pattern class on at most 6
    # vertices settles on K6 far inside it
    def test_every_class_on_six_vertices_settles_on_k6(self):
        classes = iso_classes(6, 15)
        assert len(classes) == 155
        nodes = []
        for g in classes:
            r = max_rainbow_free(6, g)
            assert r.conclusive, g
            assert r.witness is None or not naive_has_rainbow(r.witness, g), g
            nodes.append(r.nodes_explored)
        assert max(nodes) == 124_704 < oracle.DEFAULT_BUDGET
        worst = classes[nodes.index(max(nodes))]
        assert worst.edge_list == ((0, 1), (0, 2), (0, 3), (0, 4), (0, 5),
                                   (1, 2), (1, 3))


def _relabeled(g: Graph, rng: random.Random) -> Graph:
    perm = list(range(g.n))
    rng.shuffle(perm)
    return Graph(g.n, [(perm[a], perm[b]) for a, b in g.edge_list])


def _partitions(sets, whole: int) -> bool:
    """Whether the bit masks are pairwise disjoint with union ``whole``."""
    union = 0
    for s in sets:
        union |= s
    return union == whole and sum(s.bit_count() for s in sets) == whole.bit_count()


class TestPlacementIndex:
    # the component-by-component index against the injective vertex map walk
    # of brute.placement_index.  iso_classes representatives are the first
    # edge sets of their class in combinations order, so each pattern is
    # also relabeled at random: identical components must be recognized by
    # their placements, not by their labeled edge lists
    GRID = TestClassSweep.GRID + ((7, 3),)

    @pytest.mark.parametrize("v,max_edges", GRID)
    def test_equals_map_walk_under_relabeling(self, v, max_edges):
        rng = random.Random(v * 10 + max_edges)
        for g in iso_classes(v, max_edges):
            for _ in range(2):
                h = _relabeled(g, rng)
                for n in range(v, 8):
                    assert oracle._placement_index(n, h) \
                        == placement_index(n, h), (h, n)

    @pytest.mark.parametrize("v,max_edges", GRID)
    def test_tables_partition_the_placements(self, v, max_edges):
        # each placement has one largest rank, one second-largest rank if it
        # has two or more edges, and one through set per edge; near[i]'s
        # groups split reach[i] by largest rank, in order of first placement
        for g in iso_classes(v, max_edges):
            for n in range(v, 8):
                masks, through, last, near, reach, pair = oracle._placement_index(n, g)
                every = (1 << len(masks)) - 1
                assert _partitions(last, every), (g, n)
                assert _partitions(reach, every if g.num_edges > 1 else 0), (g, n)
                assert sum(t.bit_count() for t in through) \
                    == g.num_edges * len(masks), (g, n)
                for i, pairs in enumerate(near):
                    groups = [group for _, group in pairs]
                    assert _partitions(groups, reach[i]), (g, n, i)
                    assert groups == sorted(groups, key=lambda s: s & -s)
                    assert all(group & last[bit.bit_length() - 1] == group
                               for bit, group in pairs), (g, n, i)

    # unions of two kinds, or of several copies of one, on a host with room
    # to spare, so copies of a kind compete for the same vertex blocks
    @pytest.mark.parametrize("family,n", [
        ("P4+1P3", 8), ("C3+2P2", 8), ("1P3+2P2", 8), ("4P2", 8),
        ("3P2", 9), ("C3+1P2", 9),
    ])
    def test_unions_equal_map_walk_under_relabeling(self, family, n):
        g = _relabeled(build_pattern(parse_family(family)), random.Random(family))
        assert oracle._placement_index(n, g) == placement_index(n, g)

    def test_two_p3_with_different_labels(self):
        # the two P3s have different labeled edge lists; counted as two
        # kinds of component they would give 1,260 placements
        g = Graph(6, [(0, 1), (1, 2), (3, 4), (3, 5)])
        assert len(oracle._placement_index(7, g)[0]) == 630

    @pytest.mark.parametrize("family", ["2P3", "3P2", "C3+1P2", "C4"])
    def test_equals_map_walk_at_n8(self, family):
        g = build_pattern(parse_family(family))
        assert oracle._placement_index(8, g) == placement_index(8, g)

    # n! / ((n - v)! |Aut G|) placements, past the ceiling: C3+P2 on K9 is
    # settled in CI, and 4P2+P3 on K11 would take the map walk 11! maps
    @pytest.mark.parametrize("family,n,automorphisms,count", [
        ("2P3", 9, 8, 7_560),
        ("3P2", 9, 48, 1_260),
        ("C3+1P2", 9, 12, 1_260),
        ("4P2+1P3", 11, 768, 51_975),
    ])
    def test_count_beyond_ceiling(self, family, n, automorphisms, count):
        g = build_pattern(parse_family(family))
        assert factorial(n) // factorial(n - g.n) // automorphisms == count
        assert len(oracle._placement_index(n, g)[0]) == count


class TestValidation:
    def test_host_too_small(self):
        with pytest.raises(ValueError):
            max_rainbow_free(4, Matching(3))

    def test_host_too_large(self):
        with pytest.raises(ValueError):
            max_rainbow_free(8, Cycle(3))

    def test_edgeless_pattern_rejected(self):
        with pytest.raises(ValueError):
            max_rainbow_free(4, Graph(3))


class TestRefusalOrder:
    # max_rainbow_free alone decides the limits: the budget first, then the
    # host ceiling, then the pattern
    def test_budget_then_ceiling_then_pattern(self):
        big = Graph(10, [(0, 9)])
        with pytest.raises(ValueError, match=r"^node budget must be at least 1, got 0$"):
            max_rainbow_free(9, big, node_budget=0)
        with pytest.raises(oracle.InfeasibleHost,
                           match=r"^n=9 beyond the exhaustive-search ceiling \(7\)$"):
            max_rainbow_free(9, big)
        with pytest.raises(ValueError, match=r"^pattern has 10 vertices, host only 7$"):
            max_rainbow_free(7, big)

    def test_verify_skips_a_refused_host_without_formula_fields(self, monkeypatch):
        monkeypatch.setattr(oracle, "HARD_CEILING", 4)
        report = verify_range(Cycle(3), 4, 5)
        assert report.rows[0].status == "ok"
        assert report.rows[1] == oracle.RangeRow(5, "skipped-infeasible",
                                                 None, None, None, None)

    def test_verify_raises_other_oracle_errors(self):
        # only a refused host is a skipped row; a bad pattern is an input error
        with pytest.raises(ValueError, match=r"^pattern needs at least one edge$"):
            verify_range(Graph(3), 3, 3)


class TestBudget:
    def test_inconclusive_result_carries_lower_bound(self):
        budget = repin.pinned("C3-6")["nodes"] - 1
        r = max_rainbow_free(6, Cycle(3), node_budget=budget)
        assert not r.conclusive
        assert r.ar_exact is None
        assert r.nodes_explored == budget
        if r.witness is not None:
            assert find_rainbow(r.witness, Cycle(3)) is None
            assert r.witness.num_colors == r.max_rainbow_free_colors

    # the budget must be an int: the node count never equals 100.5, and a
    # bool is no count
    @pytest.mark.parametrize("budget", [0, -1, 100.5, 2.0, True])
    def test_budget_below_one_rejected(self, budget):
        with pytest.raises(ValueError, match="budget"):
            max_rainbow_free(5, Cycle(3), node_budget=budget)


class TestNormalFormCompleteness:
    def test_branch_and_bound_matches_full_enumeration_spot(self):
        # independent side: test every canonical set partition of K4's edges
        strings = list(rg_strings(6))
        assert len(strings) == 203
        for spec in (Cycle(3), Matching(2), Path(3)):
            g = build_pattern(spec)
            best = 0
            for colors in strings:
                coloring = EdgeColoring(4, colors)
                if not naive_has_rainbow(coloring, g):
                    best = max(best, coloring.num_colors)
            assert max_rainbow_free(4, spec).max_rainbow_free_colors == best


class TestConsistency:
    def test_construction_never_beats_the_search(self):
        # whenever the cover hypothesis holds, the two-zone coloring is a
        # feasible point of the maximization
        cases = [
            (Matching(2), 0, 1, 5),
            (Matching(3), 1, 1, 6),
            (TriplePath(2), 1, 1, 6),
            (Path(4), 1, 1, 5),
        ]
        for spec, r1, s, n in cases:
            assert q_cover(build_pattern(spec), s).value > r1
            feasible = cover_coloring(n, r1, s).num_colors
            assert max_rainbow_free(n, spec).max_rainbow_free_colors >= feasible

    def test_subgraph_monotone(self):
        # nested edge sets on a fixed host: values never decrease
        chain = [
            Graph(5, [(0, 1)]),
            Graph(5, [(0, 1), (2, 3)]),
            Graph(5, [(0, 1), (1, 2), (2, 3)]),
            Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
        ]
        values = [max_rainbow_free(5, g).ar_exact for g in chain]
        assert values == sorted(values)


class TestVerifyRange:
    def test_triangle_range_matches(self):
        report = verify_range(Cycle(3), 3, 5)
        assert report.mismatches == ()
        assert [row.status for row in report.rows] == ["ok"] * 3
        assert all(row.match for row in report.rows)

    def test_matching_fixture(self):
        report = verify_range(Matching(2), 5, 6)
        assert report.mismatches == ()
        assert [row.ar_oracle for row in report.rows] == [2, 2]

    def test_small_hosts_skipped(self):
        report = verify_range(TriplePath(2), 4, 6)
        statuses = [row.status for row in report.rows]
        assert statuses[:2] == ["skipped-small", "skipped-small"]
        assert statuses[2] == "ok"
        # below the equality window: the value is data, not a claim
        row = report.rows[2]
        assert row.ar_oracle == 8
        assert row.formula_exact == 7 and row.formula_valid is False
        assert row.match is False
        assert report.mismatches == ()

    # AR(K4, C3) = 4: a lower bound with ceiling 5 or an upper bound with
    # floor 3 is broken, one with ceiling or floor 4 holds
    @pytest.mark.parametrize("bound,value,broken", [
        ("lower", Fraction(9, 2), True),
        ("upper", Fraction(7, 2), True),
        ("lower", Fraction(7, 2), False),
        ("upper", Fraction(9, 2), False),
    ])
    @pytest.mark.parametrize("valid", [True, False])
    def test_broken_valid_bound_is_a_mismatch(self, bound, value, broken,
                                              valid, monkeypatch):
        monkeypatch.setattr(oracle, "ar_family", lambda n, spec: BoundReport(
            spec, n, **{bound: value}, valid={bound: valid}))
        report = verify_range(Cycle(3), 4, 4)
        assert report.rows[0].ar_oracle == 4
        assert report.mismatches == ((4,) if broken and valid else ())

    # every n from |V| to the ceiling settles under the default budget, and
    # no bound flagged valid is broken
    @pytest.mark.parametrize("family", [
        "C3", "C4", "C5", "C6", "P3", "P4", "P5", "P6", "P7", "2P2", "3P2",
        "2P3", "C3+P2", "P3+P2", "P3+2P2", "P4+P2", "C4+P2", "P5+P2",
        "C3+2P2", "P4+P3",
    ])
    def test_no_valid_bound_broken_up_to_the_ceiling(self, family):
        spec = parse_family(family)
        report = verify_range(spec, build_pattern(spec).n, oracle.HARD_CEILING)
        assert report.mismatches == ()
        assert {row.status for row in report.rows} == {"ok"}

    def test_infeasible_hosts_skipped(self):
        report = verify_range(Cycle(3), 8, 9)
        assert [row.status for row in report.rows] \
            == ["skipped-infeasible", "skipped-infeasible"]

    def test_reversed_range_rejected(self):
        with pytest.raises(ValueError, match="n_from=6 > n_to=3"):
            verify_range(Cycle(3), 6, 3)

    @pytest.mark.parametrize("n_from,n_to", [(-3, 2), (-1, -1), (-1, 5)])
    def test_negative_host_rejected(self, n_from, n_to):
        with pytest.raises(ValueError, match=f"negative host: n_from={n_from}"):
            verify_range(Cycle(3), n_from, n_to)

    def test_json_shape(self):
        js = _plain(verify_range(Matching(2), 5, 5))
        assert js["family"] == "2P2"
        assert js["rows"][0]["ar_oracle"] == 2
