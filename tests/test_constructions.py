"""Extremal coloring generators: counts, determinism, rainbow-freeness."""

from math import comb

import pytest

from antiramsey import (
    Cycle,
    Matching,
    Path,
    TriplePath,
    Union,
    build_pattern,
    clique_coloring,
    cover_coloring,
    cover_lower_bound,
    disjoint_union,
    find_rainbow,
    q_cover,
    serialize_coloring,
)

from brute import naive_cover_coloring


class TestCoverColoring:
    def test_pinned_color_counts(self):
        assert cover_coloring(11, 1, 1).num_colors == 11
        assert cover_coloring(5, 0, 3).num_colors == 3
        assert cover_coloring(12, 2, 1).num_colors == 22

    def test_count_matches_formula_on_grid(self):
        for r1 in range(0, 7):
            for s in range(1, 6):
                for n in range(r1 + 1, 31):
                    if (n - r1) * (n - r1 - 1) // 2 < s:
                        continue
                    got = cover_coloring(n, r1, s).num_colors
                    assert got == cover_lower_bound(n, r1, s), (n, r1, s)

    def test_all_inner_colors_used(self):
        coloring = cover_coloring(9, 2, 4)
        inner = {coloring.color(u, v) for u in range(2, 9) for v in range(u + 1, 9)}
        assert inner == {0, 1, 2, 3}

    def test_covered_edges_all_fresh(self):
        coloring = cover_coloring(9, 2, 4)
        covered = [coloring.color(u, v)
                   for u in range(2) for v in range(u + 1, 9)]
        assert len(set(covered)) == len(covered)
        assert min(covered) == 4

    def test_byte_reproducible(self):
        a = serialize_coloring(cover_coloring(10, 2, 3))
        b = serialize_coloring(cover_coloring(10, 2, 3))
        assert a == b
        assert a.startswith("10 20\n0 1 3\n0 2 4\n")

    def test_monochromatic_degenerate(self):
        assert cover_coloring(5, 0, 1).num_colors == 1

    def test_matches_per_edge_reference(self):
        for n in range(15):
            for r1 in range(n + 1):
                for s in range(1, comb(n - r1, 2) + 1):
                    assert cover_coloring(n, r1, s) == naive_cover_coloring(n, r1, s), (n, r1, s)

    def test_errors(self):
        with pytest.raises(ValueError):
            cover_coloring(5, 6, 1)  # cover larger than host
        with pytest.raises(ValueError):
            cover_coloring(5, 4, 1)  # inner zone has no edges
        with pytest.raises(ValueError):
            cover_coloring(5, 0, 11)  # more colors than inner edges
        with pytest.raises(ValueError):
            cover_coloring(5, 0, 0)
        with pytest.raises(ValueError):
            cover_coloring(5, -1, 1)


class TestCliqueColoring:
    def test_pinned_color_counts(self):
        assert clique_coloring(10, 4).num_colors == 7
        assert clique_coloring(10, 2).num_colors == 2

    def test_full_clique_drops_empty_shared_class(self):
        assert clique_coloring(5, 5).num_colors == 10

    def test_shared_color_on_every_outside_edge(self):
        coloring = clique_coloring(8, 4)
        shared = coloring.color(0, 7)
        for u in range(8):
            for v in range(u + 1, 8):
                if v >= 4:
                    assert coloring.color(u, v) == shared
                else:
                    assert coloring.color(u, v) != shared

    def test_errors(self):
        with pytest.raises(ValueError):
            clique_coloring(5, 6)
        with pytest.raises(ValueError):
            clique_coloring(5, 1)


class TestRainbowFreeness:
    def test_cover_coloring_blocks_matching(self):
        coloring = cover_coloring(12, 2, 1)
        assert q_cover(build_pattern(Matching(4)), 1).value == 3  # > 2
        assert find_rainbow(coloring, Matching(4)) is None

    @pytest.mark.parametrize("k,n", [(2, 8), (2, 10), (3, 11)])
    def test_cover_coloring_blocks_triples(self, k, n):
        coloring = cover_coloring(n, k - 1, 1)
        assert q_cover(build_pattern(TriplePath(k)), 1).value == k
        assert find_rainbow(coloring, TriplePath(k)) is None

    @pytest.mark.parametrize("k,n", [(2, 6), (2, 10), (3, 9), (3, 12)])
    def test_clique_coloring_blocks_triples(self, k, n):
        assert find_rainbow(clique_coloring(n, 3 * k - 2), TriplePath(k)) is None

    def test_appended_matching_instantiation(self):
        # fixed part plus t extra edges, cover size t + shift: the hypothesis
        # q_{s-i}(L + t2 edges) > t2 + shift + i certifies rainbow-freeness
        cases = [
            # (fixed part, t2, shift, s, family builder)
            (None, 2, -2, 1, lambda t: Matching(t)),
            (Path(2), 1, -1, 1, lambda t: Union(Path(2), Matching(t))),
            (Path(3), 0, 0, 1, lambda t: Union(Path(3), Matching(t))),
            (Cycle(3), 0, 0, 1, lambda t: Union(Cycle(3), Matching(t))),
        ]
        for fixed, t2, shift, s, make in cases:
            base = build_pattern(Matching(t2)) if fixed is None else (
                disjoint_union(build_pattern(fixed), build_pattern(Matching(t2)))
                if t2 else build_pattern(fixed))
            for i in range(s + 1):
                assert q_cover(base, s - i).value > t2 + shift + i, (fixed, i)
            for t in range(max(t2, 1), 4):
                spec = make(t)
                g = build_pattern(spec)
                for n in range(g.n, 11):
                    coloring = cover_coloring(n, t + shift, s)
                    assert find_rainbow(coloring, spec) is None, (spec, n)
