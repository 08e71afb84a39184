"""Acceptance suite: one test per go/no-go criterion, exact tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion.  Everything asserts exact equality (integer or rational); there
are no float tolerances anywhere.
"""

import random
from fractions import Fraction as F

from antiramsey import (
    Cycle,
    EdgeColoring,
    Matching,
    Path,
    TransferParams,
    TriplePath,
    Union,
    ar_cycle,
    ar_family,
    build_pattern,
    cover_coloring,
    cover_lower_bound,
    cycle_matching_bounds,
    find_rainbow,
    matching_step_threshold,
    max_rainbow_free,
    path_matching_bounds,
    q_cover,
    triples_step_threshold,
)

from brute import iso_classes, naive_has_rainbow, random_surjective_coloring, rg_strings


def _report(num: int, name: str) -> None:
    print(f"ACCEPTANCE {num} ({name}): PASS")


def test_criterion_1_oracle_matches_cycle_closed_form():
    for n, expected in [(3, 3), (4, 4), (5, 5), (6, 6)]:
        assert ar_cycle(n, 3).exact == expected
        assert max_rainbow_free(n, Cycle(3)).ar_exact == expected, n
    _report(1, "exhaustive search equals the cycle closed form, n=3..6")


def test_criterion_2_oracle_matches_two_edge_fixture():
    for n in (5, 6):
        assert max_rainbow_free(n, Matching(2)).ar_exact == 2, n
    _report(2, "exhaustive search gives 2 for two disjoint edges, n=5..6")


def test_criterion_3_threshold_constants():
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
        assert fn(params) == expected, (step, params, expected)
    _report(3, "window constants 12, 3/2, 6, 27, 1, 3 reproduced exactly")


def test_criterion_4_cover_closed_forms():
    def q(spec, j):
        return q_cover(build_pattern(spec), j).value

    assert q(Matching(2), 1) == 1 and q(Matching(2), 0) == 2
    assert q(Union(TriplePath(1), Matching(1)), 1) == 1
    assert q(Union(TriplePath(1), Matching(1)), 0) == 2
    assert q(Path(3), 1) == 1 and q(Path(3), 0) == 2
    assert q(Cycle(3), 1) == 1 and q(Cycle(3), 0) == 2
    for k in range(1, 11):
        assert q(Path(k), 1) == k // 2, k
        assert q(Path(k), 0) == (k + 1) // 2, k
    for k in range(3, 11):
        assert q(Cycle(k), 1) == k // 2, k
        assert q(Cycle(k), 0) == (k + 1) // 2, k
    for k in range(1, 6):
        assert q(TriplePath(k), 1) == k, k
    for k in range(1, 5):
        assert q(Union(Matching(1), TriplePath(k)), 2) == k, k
    # path plus triples: the slack-2 value is ceil(t/2)+k-1 for every t.
    # The slack-1 value is floor(t/2)+k: that is ceil(t/2)+k for even t, one
    # less for odd t (one slack unit hides a path-end edge, so the quoted
    # ceil form only holds when the path length is even).
    for t in range(1, 8):
        for k in range(1, 4):
            spec = Union(Path(t), TriplePath(k)) if t > 1 \
                else Union(Matching(1), TriplePath(k))
            assert q(spec, 2) == (t + 1) // 2 + k - 1, (t, k)
            assert q(spec, 1) == t // 2 + k, (t, k)
            if t % 2 == 0:
                assert q(spec, 1) == (t + 1) // 2 + k, (t, k)
    _report(4, "every quoted cover value reproduced (slack-1 odd-path form corrected)")


def _cover_instances():
    """(pattern spec, cover size, inner colors) for every equality or bound
    family instance whose pattern fits a 12-vertex host."""
    out = []
    for t in range(2, 7):                      # matchings
        out.append((Matching(t), t - 2, 1))
    for t in range(2, 5):                      # P3 + t edges
        out.append((Union(TriplePath(1), Matching(t)), t - 1, 1))
    for t in range(1, 5):                      # P4 + t edges
        out.append((Union(Path(3), Matching(t)), t, 1))
    for k in range(4, 12):                     # longer path + t edges
        for t in range(0, (11 - k) // 2 + 1):
            spec = Path(k) if t == 0 else Union(Path(k), Matching(t))
            out.append((spec, t + (k + 1) // 2 - 2, 1))
    for t in range(1, 5):                      # triangle + t edges
        out.append((Union(Cycle(3), Matching(t)), t, 1))
    for k in range(4, 13):                     # longer cycle + t edges
        for t in range(0, (12 - k) // 2 + 1):
            spec = Cycle(k) if t == 0 else Union(Cycle(k), Matching(t))
            out.append((spec, t + (k + 1) // 2 - 2, 1))
    for k in range(2, 5):                      # disjoint triples
        out.append((TriplePath(k), k - 1, 1))
    for t in range(3, 9):                      # path + k triples
        for k in range(1, (11 - t) // 3 + 1):
            out.append((Union(Path(t), TriplePath(k)), t // 2 + k - 1, 1 + t % 2))
    for k in range(1, 4):                      # single edge + k triples
        out.append((Union(Matching(1), TriplePath(k)), k - 1, 2))
    for t in range(1, 4):                      # t edges + k triples
        for k in range(2, (12 - 2 * t) // 3 + 1):
            out.append((Union(Matching(t), TriplePath(k)), t + k - 2, 1))
    return out


def test_criterion_5_cover_colorings_are_rainbow_free():
    checked = 0
    for spec, r1, s in _cover_instances():
        g = build_pattern(spec)
        assert q_cover(g, s).value > r1, (spec, r1, s)  # construction hypothesis
        for n in range(g.n, 13):
            coloring = cover_coloring(n, r1, s)
            assert coloring.num_colors == cover_lower_bound(n, r1, s), (spec, n)
            assert find_rainbow(coloring, g) is None, (spec, r1, s, n)
            checked += 1
    assert checked > 250
    _report(5, f"{checked} extremal colorings verified rainbow-free by complete search")


def test_criterion_6_tightness_sandwich():
    families = []
    for t in range(2, 9):
        families.append((Matching(t), t - 2, 1,
                         lambda n, t=t: n > F(5 * t + 3, 2)))
    for t in range(2, 9):
        families.append((Union(TriplePath(1), Matching(t)), t - 1, 1,
                         lambda n, t=t: n > F(5, 2) * t + 12))
    for t in range(1, 9):
        families.append((Union(Path(3), Matching(t)), t, 1,
                         lambda n, t=t: n > F(5, 2) * t + F(23, 2)))
    for t in range(1, 9):
        families.append((Union(Cycle(3), Matching(t)), t, 1,
                         lambda n, t=t: n > F(5, 2) * t + 6))
    for k in range(2, 9):
        families.append((TriplePath(k), k - 1, 1,
                         lambda n, k=k: n > 5 * k + 1))
    # the window constant of each path, P4 .. P8, as a literal, so the check
    # does not lean on triples_step_threshold
    gamma = {3: 41, 4: 21, 5: 31, 6: 26, 7: 35}
    for t in range(3, 8):
        for k in range(1, 5):
            families.append((Union(Path(t), TriplePath(k)), t // 2 + k - 1, 1 + t % 2,
                             lambda n, t=t, k=k: n > 5 * k + gamma[t]))
    for k in range(1, 9):
        families.append((Union(Matching(1), TriplePath(k)), k - 1, 2,
                         lambda n, k=k: n > 5 * k + 27))
    for t in range(2, 7):
        for k in range(2, 7):
            window = min(5 * k + F(13, 2) * t + 8, F(5, 2) * t + F(19, 2) * k + 7)
            families.append((Union(Matching(t), TriplePath(k)), k + t - 2, 1,
                             lambda n, w=window: n > w))
    checked = 0
    for spec, r1, s, in_window in families:
        size = build_pattern(spec).n
        for n in range(size, 101):
            if not in_window(n):
                continue
            rep = ar_family(n, spec)
            assert rep.valid["exact"], (spec, n)
            assert rep.exact == cover_lower_bound(n, r1, s) + 1, (spec, n)
            checked += 1
    assert checked > 1000
    _report(6, f"construction count + 1 equals the closed form at {checked} grid points")


def test_criterion_7_bound_pair_ordering():
    pairs_checked = 0
    for k in range(4, 13):
        for t in range(0, 11):
            for n in range(k + 1 + 2 * t, 201):
                rep = path_matching_bounds(n, k, t)
                if rep.valid["lower"] and rep.valid["upper"]:
                    assert rep.lower <= rep.upper, ("path", k, t, n)
                    if k % 2 == 1:
                        assert rep.upper - rep.lower == 1, ("path-gap", k, t, n)
                    pairs_checked += 1
            for n in range(k + 2 * t, 201):
                rep = cycle_matching_bounds(n, k, t)
                if rep.valid["lower"] and rep.valid["upper"]:
                    assert rep.lower <= rep.upper, ("cycle", k, t, n)
                    pairs_checked += 1
    assert pairs_checked > 10_000
    _report(7, f"lower <= upper at {pairs_checked} points; odd-path gap exactly 1")


def test_criterion_8_search_equals_naive_enumeration_on_k5():
    rng = random.Random(20250810)
    patterns = iso_classes(5, 4)
    assert len(patterns) == 13  # every isomorphism class with 1..4 edges
    agreements = 0
    for _ in range(500):
        coloring = random_surjective_coloring(rng, 5, rng.randrange(1, 11))
        for g in patterns:
            found = find_rainbow(coloring, g)
            assert (found is not None) == naive_has_rainbow(coloring, g), \
                (coloring.colors, g)
            agreements += 1
    assert agreements == 500 * len(patterns)
    _report(8, f"search agreed with naive enumeration on {agreements} instances")


def test_criterion_9_branch_and_bound_matches_full_enumeration_on_k4():
    strings = list(rg_strings(6))
    assert len(strings) == 203  # all canonical partitions of K4's six edges
    colorings = [EdgeColoring(4, s) for s in strings]
    for g in iso_classes(4, 4):
        enum_best = 0
        for coloring in colorings:
            if not naive_has_rainbow(coloring, g):
                enum_best = max(enum_best, coloring.num_colors)
        result = max_rainbow_free(4, g)
        assert result.max_rainbow_free_colors == enum_best, g
    _report(9, "branch and bound equals full normal-form enumeration on K4")


def test_criterion_9_branch_and_bound_matches_full_enumeration_on_k5():
    by_count: dict[int, list[EdgeColoring]] = {}
    for s in rg_strings(10):
        by_count.setdefault(max(s) + 1, []).append(EdgeColoring(5, s))
    assert sum(len(v) for v in by_count.values()) == 115_975  # Bell number B10
    patterns = iso_classes(5, 4)
    assert len(patterns) == 13
    for g in patterns:
        # the first rainbow-free coloring in descending color count is a
        # maximum; a single edge is rainbow in every coloring (maximum 0)
        enum_best = next((k for k in sorted(by_count, reverse=True)
                          if any(not naive_has_rainbow(coloring, g)
                                 for coloring in by_count[k])), 0)
        result = max_rainbow_free(5, g)
        assert result.max_rainbow_free_colors == enum_best, g
    _report(9, "branch and bound equals full normal-form enumeration on K5")
