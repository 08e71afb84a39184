"""Closed forms, windows, and threshold constants."""

import re
from fractions import Fraction as F
from math import comb

import pytest

from antiramsey import (
    Cycle,
    Graph,
    Matching,
    Path,
    TransferParams,
    TriplePath,
    Union,
    UnrecognizedFamilyError,
    ar_cycle,
    ar_family,
    ar_matching,
    ar_path,
    build_pattern,
    clique_coloring,
    cover_coloring,
    cover_lower_bound,
    cycle_matching_bounds,
    family_name,
    find_rainbow,
    integer_bounds,
    linear_form,
    matching_step_threshold,
    parse_family,
    path_matching_bounds,
    q_cover,
    transfer_upper_bound,
    triples_step_threshold,
)
from antiramsey.cli import _plain
from antiramsey.formulas import _as_int

import repin


class TestPath:
    @pytest.mark.parametrize("n,k,expected", [
        (20, 5, 22),
        (20, 4, 21),
        (10, 2, 2),
        (6, 4, 7),
        (5, 3, 3),
    ])
    def test_values(self, n, k, expected):
        # from k = 4 on the closed form is asymptotic: no checked window
        rep = ar_path(n, k)
        assert rep.exact == expected
        assert rep.valid["exact"] == (k < 4)
        assert rep.valid["lower"] and ("upper" in rep.valid) == (k < 4)

    @pytest.mark.parametrize("n,k,lower", [
        (8, 7, 17), (10, 9, 30), (11, 10, 38), (12, 11, 47), (13, 11, 47),
        (13, 12, 57),
    ])
    def test_clique_lower_bound_where_it_beats_the_formula(self, n, k, lower):
        # clique_coloring(n, k - 1) has C(k-1, 2) + 1 colors and no rainbow
        # path with k edges, above the closed form on these hosts
        rep = ar_path(n, k)
        assert rep.exact < lower == comb(k - 1, 2) + 2
        assert rep.lower == lower and rep.valid == {"lower": True, "exact": False}
        assert "path-clique-lower" in rep.provenance

    def test_three_edge_path_on_k4_not_valid(self):
        # K4's three perfect matchings in three colors have no rainbow P4,
        # so AR(4, P4) = 4 and the value 3 is only a lower bound there
        rep = ar_path(4, 3)
        assert rep.exact == 3
        assert not rep.valid["exact"]
        assert rep.valid["lower"]

    def test_lower_bound_beats_the_clique_coloring(self):
        # the lower bound flagged valid sits above a coloring that
        # find_rainbow certifies, on every path and host up to 13 vertices
        for k in range(4, 13):
            g = build_pattern(Path(k))
            for n in range(k + 1, 14):
                coloring = clique_coloring(n, k - 1)
                assert find_rainbow(coloring, g) is None, (k, n)
                rep = ar_path(n, k)
                assert rep.valid["lower"] and rep.lower > coloring.num_colors, (k, n)

    def test_caveat_tag_for_long_paths(self):
        assert "large-n-window-unverified" in ar_path(20, 5).provenance
        assert "large-n-window-unverified" in ar_path(20, 4).provenance
        assert "large-n-window-unverified" not in ar_path(20, 3).provenance
        assert "large-n-window-unverified" not in ar_path(20, 2).provenance
        # the clique bound's tag only where it beats the closed form
        assert "path-clique-lower" not in ar_path(14, 11).provenance
        assert ar_path(14, 11).lower == ar_path(14, 11).exact == 49

    def test_errors(self):
        with pytest.raises(ValueError):
            ar_path(5, 1)
        with pytest.raises(ValueError):
            ar_path(4, 4)


class TestCycle:
    @pytest.mark.parametrize("n,k,expected", [
        (6, 3, 6),
        (10, 4, 13),
        (7, 4, 9),
        (3, 3, 3),
        (4, 3, 4),
        (5, 3, 5),
        (6, 4, 8),
    ])
    def test_values(self, n, k, expected):
        rep = ar_cycle(n, k)
        assert rep.exact == expected
        assert rep.valid["exact"]

    def test_errors(self):
        with pytest.raises(ValueError):
            ar_cycle(3, 4)
        with pytest.raises(ValueError):
            ar_cycle(5, 2)


class TestMatching:
    @pytest.mark.parametrize("n,t,expected", [
        (8, 3, 9),
        (14, 7, 58),   # perfect matching, large case
        (12, 6, 40),   # perfect matching, small case
        (6, 3, 7),
        (5, 2, 2),
    ])
    def test_values(self, n, t, expected):
        assert ar_matching(n, t).exact == expected

    def test_constant_regime(self):
        # t=10: crossover at n = 43/2 = 21.5, so n=21 sits in the constant regime
        assert ar_matching(21, 10).exact == (10 - 2) * (2 * 10 - 3) + 2
        assert "matching-constant-regime" in ar_matching(21, 10).provenance

    def test_branch_agreement_at_crossover(self):
        # both branch expressions coincide whenever 2n = 5t - 7
        for t in range(3, 41):
            if (5 * t - 7) % 2 == 0:
                n = (5 * t - 7) // 2
                constant = F((t - 2) * (2 * t - 3) + 2)
                linear = linear_form(t - 2, n) + 2
                assert constant == linear, (t, n)
        # the pinned instance: t=5 crossover at n=9, both give 23
        assert linear_form(3, 9) + 2 == 23

    def test_perfect_matching_t2_has_no_closed_form(self):
        with pytest.raises(ValueError):
            ar_matching(4, 2)

    def test_errors(self):
        with pytest.raises(ValueError):
            ar_matching(5, 3)
        with pytest.raises(ValueError):
            ar_matching(10, 1)


class TestFamilyDispatch:
    def test_p3_plus_matching(self):
        rep = ar_family(18, Union(Path(2), Matching(2)))
        assert rep.exact == 19
        assert rep.valid["exact"]  # 18 > (5/2)*2 + 12 = 17

    def test_p3_plus_matching_below_window(self):
        rep = ar_family(17, Union(Path(2), Matching(2)))
        assert rep.exact == 18
        assert not rep.valid["exact"]
        assert rep.valid["lower"] and rep.lower == 18

    def test_union_order_is_normalized(self):
        a = ar_family(18, Union(Path(2), Matching(2)))
        b = ar_family(18, Union(Matching(2), TriplePath(1)))
        assert a.exact == b.exact and a.valid == b.valid

    def test_cycle_plus_single_edge_pair(self):
        rep = ar_family(11, Union(Cycle(4), Matching(1)))
        assert rep.lower == 12
        assert rep.upper == F(70, 3)
        assert rep.exact is None
        assert rep.valid == {"lower": True, "upper": True}
        assert integer_bounds(rep) == (12, 23)

    def test_cycle_pair_upper_matches_transfer_route(self):
        # same bound through the generic transfer step with the fractional slope
        k, t, n = 4, 1, 11
        x = F(k, 2) + F(1, k - 1)
        params = TransferParams(k, k, 0, x - 1, x * (x - 1) / 2 - 1, k)
        tb = transfer_upper_bound(n, t, params, "P2")
        assert tb.value == F(70, 3)
        rep = cycle_matching_bounds(n, k, t)
        assert rep.upper == tb.value

    @pytest.mark.parametrize("fn, n, k, t, message", [
        (path_matching_bounds, 10, 3, 0,
         "need path edges >= 4 and a nonnegative matching part"),
        (path_matching_bounds, 10, 4, -1,
         "need path edges >= 4 and a nonnegative matching part"),
        (path_matching_bounds, 6, 4, 1, "n=6 below pattern vertex count 7"),
        (cycle_matching_bounds, 10, 3, 0,
         "need cycle length >= 4 and a nonnegative matching part"),
        (cycle_matching_bounds, 10, 4, -1,
         "need cycle length >= 4 and a nonnegative matching part"),
        (cycle_matching_bounds, 5, 4, 1, "n=5 below pattern vertex count 6"),
    ])
    def test_matching_pair_errors(self, fn, n, k, t, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            fn(n, k, t)

    def test_triples(self):
        rep = ar_family(12, TriplePath(2))
        assert rep.exact == 13
        assert rep.valid["exact"]  # 12 > 5*2+1

    def test_triples_small_host_lower(self):
        rep = ar_family(10, TriplePath(3))
        assert rep.lower == 23  # beats the linear value 2*(10-3/2)+2 = 19
        assert rep.exact == 19 and not rep.valid["exact"]
        assert "small-host-clique-lower" in rep.provenance

    def test_single_edge(self):
        assert ar_family(5, Matching(1)).exact == 1
        assert ar_family(7, Path(1)).exact == 1

    def test_two_edge_path(self):
        rep = ar_family(3, TriplePath(1))
        assert rep.exact == 2 and rep.valid["exact"]

    def test_p4_plus_matching(self):
        # t=1: threshold is n >= (5/2)+12 = 14.5, i.e. n >= 15 for integers
        assert not ar_family(14, Union(Path(3), Matching(1))).valid["exact"]
        rep = ar_family(15, Union(Path(3), Matching(1)))
        assert rep.valid["exact"]
        assert rep.exact == cover_lower_bound(15, 1, 1) + 1

    def test_c3_plus_matching(self):
        rep = ar_family(20, Union(Cycle(3), Matching(2)))
        assert rep.exact == 2 * (20 - F(3, 2)) + 2 == 39
        assert rep.valid["exact"]  # 20 > 5+6

    def test_edge_plus_triples(self):
        rep = ar_family(40, Union(Matching(1), TriplePath(2)))
        assert rep.exact == 1 * (40 - 1) + 3 == 42
        assert rep.valid["exact"]  # 40 > 10+27

    def test_matching_plus_triples(self):
        # t=2, k=3: window min(15+13+8, 5+28.5+7) = 36
        rep = ar_family(37, Union(Matching(2), TriplePath(3)))
        assert rep.exact == cover_lower_bound(37, 3, 1) + 1
        assert rep.valid["exact"]
        assert not ar_family(36, Union(Matching(2), TriplePath(3))).valid["exact"]

    def test_path_plus_triples(self):
        # t=4, k=1: coefficient k + floor(t/2) - 1 = 2, tail 2
        rep = ar_family(60, Union(Path(4), TriplePath(1)))
        assert rep.exact == int(linear_form(2, 60)) + 2
        assert "large-n-window-unverified" in rep.provenance

    def test_p2_p3_union(self):
        # k=1 instance of the edge-plus-triples equality: value 3, window n > 32
        rep = ar_family(9, Union(Matching(1), TriplePath(1)))
        assert rep.exact == 3 and not rep.valid["exact"]
        assert rep.lower == 3 and rep.valid["lower"]
        assert ar_family(33, Union(Matching(1), TriplePath(1))).valid["exact"]

    def test_n_below_pattern_errors(self):
        with pytest.raises(ValueError):
            ar_family(5, TriplePath(2))

    @pytest.mark.parametrize("spec", [
        Union(Path(4), Cycle(3)),
        Union(Cycle(3), TriplePath(1), Matching(1)),
        Union(Path(4), Path(5)),
        Graph(4, [(0, 1), (2, 3)]),
        Union(Path(4), TriplePath(1), Matching(1)),
        Union(Cycle(4), TriplePath(1)),
    ])
    def test_unrecognized(self, spec):
        with pytest.raises(UnrecognizedFamilyError):
            ar_family(30, spec)

    @pytest.mark.parametrize("short_paths, canonical", [
        (Union(Path(1), Path(1)), Matching(2)),
        (Union(Cycle(3), Path(1)), Union(Cycle(3), Matching(1))),
        (Union(Path(5), Path(2)), Union(Path(5), TriplePath(1))),
        (Union(Path(1), Path(2), Path(2)), Union(Matching(1), TriplePath(2))),
    ], ids=["2P2", "C3+P2", "P6+P3", "P2+2P3"])
    def test_short_paths_count_as_edges_and_triples(self, short_paths, canonical):
        def outcome(spec, n):
            try:
                rep = ar_family(n, spec)
            except ValueError as exc:
                return type(exc), str(exc)
            return rep.exact, rep.lower, rep.upper, rep.valid, rep.provenance

        for n in range(build_pattern(canonical).n, 80):
            assert outcome(short_paths, n) == outcome(canonical, n), n

    def test_report_json_shape(self):
        js = _plain(ar_family(11, Union(Cycle(4), Matching(1))))
        assert js["family"] == "C4+P2"
        assert js["lower"] == "12"
        assert js["upper"] == "70/3"
        assert js["exact"] is None
        assert set(js) == {"family", "n", "lower", "upper", "exact", "valid", "provenance"}

    @pytest.mark.parametrize("spec", [
        Matching(1), Matching(3), TriplePath(1), TriplePath(3),
        Union(Matching(1), TriplePath(2)), Union(TriplePath(1), Matching(3)),
        Union(Matching(2), TriplePath(3)),
        Cycle(5), Union(Cycle(3), Matching(2)), Union(Cycle(4), Matching(1)),
        Path(4), Union(Path(5), TriplePath(1)), Union(Path(3), Matching(1)),
        Union(Path(5), Matching(2)),
    ], ids=family_name)
    def test_report_family_is_the_given_spec(self, spec):
        # one spec per dispatch branch, as given and as a one-part union
        n = build_pattern(spec).n + 2
        for given in (spec, Union(spec)):
            assert ar_family(n, given).family == given


class TestThresholdConstants:
    def test_known_constants(self):
        cases = [
            ("P2", TransferParams(3, 2, 2, F(-1), F(1), 7), F(12)),
            ("P2", TransferParams(0, 0, 2, F(-2), F(1), 5), F(3, 2)),
            ("P2", TransferParams(3, 3, 1, F(0), F(1), 6), F(6)),
            ("P3", TransferParams(2, 1, 1, F(-1), F(2), 5), F(27)),
            ("P3", TransferParams(0, 0, 2, F(-1), F(1), 7), F(1)),
            ("P3", TransferParams(0, 0, 1, F(-1), F(1), 3), F(3)),
        ]
        for step, params, expected in cases:
            fn = matching_step_threshold if step == "P2" else triples_step_threshold
            assert fn(params) == expected, (step, params)

    def test_p4_matching_constant(self):
        # n > (5/2)t + 23/2 is the integer-equivalent of n >= (5/2)t + 12
        assert matching_step_threshold(TransferParams(4, 3, 1, F(0), F(1), 6)) == F(23, 2)

    def test_cycle_threshold_dominated_by_stated_window(self):
        # computed constants never exceed the displayed (9/4)k - 5/4 window
        for k in range(4, 13):
            x = F(k, 2) + F(1, k - 1)
            params = TransferParams(k, k, 0, x - 1, x * (x - 1) / 2 - 1, k)
            assert matching_step_threshold(params) <= F(9, 4) * k - F(5, 4), k

    def test_matching_fixed_route_dominated(self):
        # appending triples to a fixed matching: computed constant stays under
        # the displayed (13/2)t + 8
        for t in range(2, 11):
            n0 = (5 * t + 26) // 2  # floor((5/2)t + 13)
            params = TransferParams(2 * t, t, 1, F(t - 2), F(1), n0)
            assert triples_step_threshold(params) <= F(13, 2) * t + 8, t

    def test_triples_fixed_route_dominated(self):
        # appending edges to fixed triples: computed constant under (19/2)k + 7
        for k in range(2, 11):
            params = TransferParams(3 * k, 2 * k, 2, F(k - 2), F(1), 5 * k + 22)
            assert matching_step_threshold(params) <= F(19, 2) * k + 7, k

    def test_degenerate_slope_guard(self):
        with pytest.raises(ValueError):
            matching_step_threshold(TransferParams(0, 0, 1, F(-2), F(1), 5))
        with pytest.raises(ValueError):
            triples_step_threshold(TransferParams(0, 0, 0, F(-1), F(1), 3))

    def test_base_min_n_guard(self):
        with pytest.raises(ValueError):
            matching_step_threshold(TransferParams(3, 2, 2, F(-1), F(1), 6))
        # P2 plus one P3 has 5 vertices, above a base_min_n of 4
        with pytest.raises(ValueError,
                           match="^base_min_n below the base family's vertex count$"):
            triples_step_threshold(TransferParams(2, 1, 1, F(-1), F(2), 4))


class TestTransferBound:
    def test_example_values(self):
        p = TransferParams(3, 2, 2, F(-1), F(1), 7)
        tb = transfer_upper_bound(30, 4, p, "P2")
        assert tb.value == 86 and tb.valid

        p = TransferParams(0, 0, 2, F(-1), F(1), 7)
        tb = transfer_upper_bound(12, 2, p, "P3")
        assert tb.value == 13 and tb.valid  # base case itself

    def test_cross_check_against_matching_triples_form(self):
        # fixed part = 2 disjoint edges, appending triples; the transferred
        # value must equal the direct closed form for 2P2+3P3
        p = TransferParams(4, 2, 1, F(0), F(1), 18)
        tb = transfer_upper_bound(40, 3, p, "P3")
        assert tb.value == 116
        assert tb.value == ar_family(40, Union(Matching(2), TriplePath(3))).exact

    def test_invalid_window_still_returns_value(self):
        p = TransferParams(3, 2, 2, F(-1), F(1), 7)
        tb = transfer_upper_bound(14, 4, p, "P2")  # needs n > 22
        assert tb.value == 3 * (14 - 2) + 2
        assert not tb.valid

    def test_count_below_base_errors(self):
        p = TransferParams(3, 2, 2, F(-1), F(1), 7)
        with pytest.raises(ValueError):
            transfer_upper_bound(30, 1, p, "P2")

    def test_bad_step_errors(self):
        p = TransferParams(0, 0, 2, F(-1), F(1), 7)
        with pytest.raises(ValueError):
            transfer_upper_bound(30, 3, p, "P4")


class TestCoverLowerBound:
    @pytest.mark.parametrize("n,r1,s,expected", [
        (11, 1, 1, 11),
        (9, 0, 2, 2),
        (12, 2, 1, 22),
    ])
    def test_values(self, n, r1, s, expected):
        assert cover_lower_bound(n, r1, s) == expected

    def test_always_integer(self):
        for r1 in range(0, 8):
            for n in range(r1, r1 + 20):
                assert isinstance(cover_lower_bound(n, r1, 3), int)

    def test_errors(self):
        with pytest.raises(ValueError, match=r"^n=3 smaller than cover size 5$"):
            cover_lower_bound(3, 5, 1)
        for r1, s in [(-1, 1), (1, -1), (-2, -2)]:
            with pytest.raises(ValueError,
                               match=r"^cover size and color count must be nonnegative$"):
                cover_lower_bound(5, r1, s)

    def test_grid_equals_linear_form_and_cover_coloring(self):
        # the int count against the rational closed form everywhere, and
        # against the coloring it counts wherever that coloring exists
        built = 0
        for n in range(41):
            for r1 in range(n + 1):
                for s in range(5):
                    count = cover_lower_bound(n, r1, s)
                    assert count == _as_int(linear_form(r1, n)) + s, (n, r1, s)
                    if 1 <= s <= comb(n - r1, 2):
                        assert count == cover_coloring(n, r1, s).num_colors, (n, r1, s)
                        built += 1
        # s = 1..4 on the 703 pairs with n - r1 >= 4, s = 1..3 on the 38 with
        # n - r1 == 3, s = 1 on the 39 with n - r1 == 2
        assert built == 4 * 703 + 3 * 38 + 39


class TestOrderingInvariants:
    def test_sandwich_where_multiple_bounds_apply(self):
        # wherever lower/upper/exact coexist and are valid: lower <= exact <= upper
        specs = [
            Matching(3), Matching(5), TriplePath(2), TriplePath(4),
            Union(Path(2), Matching(3)), Union(Path(3), Matching(2)),
            Union(Cycle(3), Matching(2)), Union(Matching(2), TriplePath(2)),
            Union(Matching(1), TriplePath(2)), Union(Path(4), TriplePath(1)),
            Union(Path(5), Matching(2)), Union(Cycle(5), Matching(2)),
        ]
        from antiramsey import build_pattern
        for spec in specs:
            size = build_pattern(spec).n
            for n in range(size, 201):
                rep = ar_family(n, spec)
                if rep.lower is not None and rep.upper is not None \
                        and rep.valid.get("lower") and rep.valid.get("upper"):
                    assert rep.lower <= rep.upper, (spec, n)
                if rep.exact is not None and rep.valid.get("exact"):
                    assert rep.lower <= rep.exact <= rep.upper, (spec, n)

    def test_cycle_upper_dominates_cycle_closed_form(self):
        # the fractional upper bound at t=0 sits above the exact cycle value
        for k in range(4, 13):
            for n in range(k, 101):
                exact = ar_cycle(n, k).exact
                upper = cycle_matching_bounds(n, k, 0).upper
                assert exact <= upper, (k, n)

    def test_path_pair_odd_gap_is_one(self):
        for k in (5, 7, 9):
            for t in (0, 1, 4):
                for n in range(2 * t + k + 1, 120):
                    rep = path_matching_bounds(n, k, t)
                    assert rep.upper - rep.lower == 1, (k, t, n)


def _family_shapes(max_vertices: int):
    """Every pattern on at most ``max_vertices`` vertices of the shape
    ``ar_family`` dispatches on: one optional longer path or cycle, t single
    edges, k two-edge paths.  Not every one is recognized."""
    bigs = [None, *map(Path, range(3, max_vertices)),
            *map(Cycle, range(3, max_vertices + 1))]
    for big in bigs:
        for t in range(max_vertices // 2 + 1):
            for k in range(max_vertices // 3 + 1):
                parts = [big] if big else []
                parts += [Matching(t)] if t else []
                parts += [TriplePath(k)] if k else []
                if not parts:
                    continue
                spec = parts[0] if len(parts) == 1 else Union(*parts)
                if build_pattern(spec).n <= max_vertices:
                    yield spec


class TestValidFlagsAgainstConstructions:
    def test_no_certified_coloring_beats_a_valid_exact_or_upper(self):
        # a coloring with c colors and no rainbow copy proves AR >= c + 1:
        # the cover colorings at r = q_s - 1, and on paths the clique coloring
        # on k - 1 hosts, each certified by find_rainbow, at |V| <= n <= 13
        broken, checked = [], 0
        for spec in _family_shapes(13):
            g = build_pattern(spec)
            q = {s: q_cover(g, s).value for s in (1, 2, 3)}
            for n in range(g.n, 14):
                try:
                    rep = ar_family(n, spec)
                except ValueError:  # unrecognized, or no closed form at n
                    continue
                caps = [rep.exact] if rep.valid.get("exact") else []
                if rep.valid.get("upper"):
                    caps.append(integer_bounds(rep)[1])
                if not caps:
                    continue
                colorings = [cover_coloring(n, q[s] - 1, s) for s in q
                             if q[s] >= 1 and comb(n - q[s] + 1, 2) >= s]
                if isinstance(spec, Path):
                    colorings.append(clique_coloring(n, spec.k - 1))
                for coloring in colorings:
                    assert find_rainbow(coloring, g) is None, (spec, n)
                    checked += 1
                    if coloring.num_colors + 1 > min(caps):
                        broken.append(f"{family_name(spec)}@{n}")
        assert checked > 300
        assert broken == []


class TestPinnedOracleValues:
    # every row of the oracle pin table, the n = 8 and 9 rows included, with
    # no oracle call: verify_range's mismatches rule, a bound flagged valid
    # must hold at the pinned AR
    @pytest.mark.parametrize("row", repin.load(), ids=repin.label)
    def test_valid_bounds_hold_at_the_pinned_value(self, row):
        try:
            rep = ar_family(row["n"], parse_family(row["family"]))
        except UnrecognizedFamilyError:
            pytest.skip("no closed form for this family")
        lo, hi = integer_bounds(rep)
        ar = row["ar"]
        assert not rep.valid.get("exact") or rep.exact == ar
        assert not rep.valid.get("lower") or lo <= ar
        assert not rep.valid.get("upper") or hi >= ar

    # the flags at the hosts where CI settles the oracle, the ci rows and C8;
    # the test above holds each valid exact to the row's AR
    @pytest.mark.parametrize("family,n,exact", [
        ("C3+P2", 9, True), ("3P2", 9, True), ("C8", 8, True), ("P2+2P3", 8, False)])
    def test_flags_at_the_ci_hosts(self, family, n, exact):
        rep = ar_family(n, parse_family(family))
        assert rep.valid["exact"] == exact and rep.valid["lower"]
        if not exact:
            assert integer_bounds(rep)[0] == 10
