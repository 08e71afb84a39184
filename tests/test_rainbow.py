"""Rainbow-copy search: soundness, completeness, and symmetry."""

import random
import sys
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from antiramsey import (
    Cycle,
    EdgeColoring,
    Embedding,
    Graph,
    Matching,
    Path,
    TriplePath,
    Union,
    build_pattern,
    check_embedding,
    clique_coloring,
    cover_coloring,
    find_rainbow,
    q_cover,
)
from antiramsey import rainbow as rainbow_module

from brute import (
    all_distinct,
    fewest_uncovered,
    first_rainbow,
    iso_classes,
    monochromatic,
    naive_color_matrix,
    naive_has_rainbow,
    random_surjective_coloring,
    relabel,
    twin_partition,
)
from test_acceptance import _cover_instances

PATTERNS = [
    Matching(1), Matching(2), TriplePath(1), Path(3), Path(4),
    Cycle(3), Cycle(4), Union(TriplePath(1), Matching(1)),
    Union(Cycle(3), Matching(1)),
]


class TestBasics:
    def test_all_distinct_host_has_everything(self):
        emb = find_rainbow(all_distinct(5), Matching(2))
        assert emb is not None
        assert check_embedding(all_distinct(5), Matching(2), emb)

    def test_monochromatic_host_has_no_two_edges(self):
        assert find_rainbow(monochromatic(5), Matching(2)) is None
        assert find_rainbow(monochromatic(6), TriplePath(1)) is None

    def test_single_edge_always_found(self):
        assert find_rainbow(monochromatic(4), Matching(1)) is not None

    def test_all_distinct_triangle(self):
        assert find_rainbow(all_distinct(6), Cycle(3)) is not None

    def test_cover_coloring_blocks_two_triples(self):
        assert find_rainbow(cover_coloring(11, 1, 1), TriplePath(2)) is None

    def test_clique_coloring_blocks_triples(self):
        assert find_rainbow(clique_coloring(12, 4), TriplePath(2)) is None
        assert find_rainbow(clique_coloring(12, 4), TriplePath(3)) is None
        assert find_rainbow(clique_coloring(12, 7), TriplePath(3)) is None

    def test_pattern_larger_than_host(self):
        with pytest.raises(ValueError):
            find_rainbow(monochromatic(4), Matching(3))

    def test_edgeless_pattern_trivially_embeds(self):
        emb = find_rainbow(monochromatic(4), Graph(3))
        assert emb == Embedding((0, 1, 2))


class TestCheckEmbedding:
    def test_identity_into_all_distinct(self):
        assert check_embedding(all_distinct(3), TriplePath(1), Embedding((0, 1, 2)))

    def test_monochromatic_two_edges_fail(self):
        assert not check_embedding(monochromatic(4), TriplePath(1), Embedding((0, 1, 2)))

    def test_repeated_target_fails(self):
        assert not check_embedding(all_distinct(4), TriplePath(1), Embedding((0, 1, 0)))

    def test_wrong_length_fails(self):
        assert not check_embedding(all_distinct(4), TriplePath(1), Embedding((0, 1)))

    def test_out_of_range_fails(self):
        assert not check_embedding(all_distinct(4), TriplePath(1), Embedding((0, 1, 9)))


class TestOracleEquivalence:
    def test_matches_naive_enumeration_on_random_hosts(self):
        rng = random.Random(2718)
        checked = 0
        for _ in range(120):
            n = rng.choice([4, 5, 6])
            coloring = random_surjective_coloring(rng, n, rng.randrange(1, n * (n - 1) // 2 + 1))
            for spec in PATTERNS:
                g = build_pattern(spec)
                if g.n > n:
                    continue
                emb = find_rainbow(coloring, spec)
                assert (emb is not None) == naive_has_rainbow(coloring, g), (spec, coloring)
                if emb is not None:
                    assert check_embedding(coloring, spec, emb)
                checked += 1
        assert checked > 500

    def test_matches_naive_on_structured_colorings(self):
        colorings = [
            cover_coloring(7, 1, 1), cover_coloring(7, 2, 2),
            cover_coloring(6, 0, 3), clique_coloring(7, 4), clique_coloring(6, 3),
        ]
        for coloring in colorings:
            for spec in PATTERNS:
                g = build_pattern(spec)
                if g.n > coloring.n:
                    continue
                assert (find_rainbow(coloring, spec) is not None) \
                    == naive_has_rainbow(coloring, g), (spec, coloring.colors)


class TestPigeonhole:
    def test_fewer_colors_than_edges_settles_at_once(self):
        # 3P3 has 6 edges; without the pigeonhole exit the complete search on
        # this host runs for about a minute
        coloring = random_surjective_coloring(random.Random(18), 18, 5)
        assert coloring.num_colors == 5
        assert find_rainbow(coloring, TriplePath(3)) is None

    def test_agrees_with_naive_enumeration(self):
        rng = random.Random(1618)
        checked = 0
        for n in (5, 6):
            for spec in PATTERNS:
                g = build_pattern(spec)
                for colors in range(1, g.num_edges):
                    coloring = random_surjective_coloring(rng, n, colors)
                    assert find_rainbow(coloring, g) is None
                    assert not naive_has_rainbow(coloring, g), (spec, coloring.colors)
                    checked += 1
        assert checked > 20


class TestRefinementMonotonicity:
    def test_splitting_a_color_class_keeps_the_witness(self):
        rng = random.Random(1618)
        for _ in range(80):
            n = rng.choice([5, 6])
            coloring = random_surjective_coloring(rng, n, 4)
            for spec in PATTERNS:
                g = build_pattern(spec)
                if g.n > n:
                    continue
                emb = find_rainbow(coloring, spec)
                if emb is None:
                    continue
                # split the largest color class: recolor half of it fresh
                cols = list(coloring.colors)
                largest = max(set(cols), key=cols.count)
                members = [i for i, c in enumerate(cols) if c == largest]
                if len(members) < 2:
                    continue
                fresh = coloring.num_colors
                for idx in members[: len(members) // 2]:
                    cols[idx] = fresh
                refined = EdgeColoring(n, tuple(cols))
                assert check_embedding(refined, spec, emb)

    def test_refinement_never_destroys_existence(self):
        # a rainbow copy in the coarse coloring is still rainbow after the split
        coloring = cover_coloring(8, 1, 2)
        for spec in PATTERNS:
            g = build_pattern(spec)
            if g.n > 8:
                continue
            if find_rainbow(coloring, spec) is not None:
                finer = all_distinct(8)  # the finest refinement of anything
                assert find_rainbow(finer, spec) is not None


class TestHostSymmetry:
    def test_relabeling_preserves_the_verdict(self):
        rng = random.Random(777)
        for _ in range(60):
            n = rng.choice([5, 6])
            coloring = random_surjective_coloring(rng, n, rng.randrange(1, 8))
            perm = list(range(n))
            rng.shuffle(perm)
            relabeled = relabel(coloring, perm)
            for spec in PATTERNS:
                if build_pattern(spec).n > n:
                    continue
                assert (find_rainbow(coloring, spec) is None) \
                    == (find_rainbow(relabeled, spec) is None), (perm, spec)

    def test_determinism(self):
        coloring = cover_coloring(9, 2, 2)
        runs = [find_rainbow(coloring, Union(TriplePath(1), Matching(1)))
                for _ in range(3)]
        assert runs[0] == runs[1] == runs[2]


class TestColorMatrix:
    def test_entries_are_edge_colors(self):
        rng = random.Random(99)
        hosts = [monochromatic(n) for n in range(25)] + [all_distinct(n) for n in range(25)]
        hosts += [random_surjective_coloring(rng, n, rng.randrange(1, 12))
                  for n in range(25) for _ in range(5)]
        for coloring in hosts:
            mat = coloring.color_matrix()
            assert mat == naive_color_matrix(coloring)
            assert len(mat) == coloring.n
            for u in range(coloring.n):
                assert len(mat[u]) == coloring.n
                assert mat[u][u] == -1
                for v in range(coloring.n):
                    if v != u:
                        assert mat[u][v] == coloring.color(u, v), (coloring, u, v)


def _library_twins(coloring):
    """``_twin_partition`` fed as ``find_rainbow`` feeds it."""
    mat = coloring.color_matrix()
    class_size = [coloring.colors.count(c) for c in range(coloring.num_colors)]
    return rainbow_module._twin_partition(mat, class_size)


def _planted_twin_colorings():
    """Seeded colorings made of vertex types: an edge's color depends only on
    the types of its ends, except for edges recolored at random, so vertices
    of one type are twins until noise separates them."""
    rng = random.Random(4242)
    out = []
    for _ in range(120):
        n = rng.randint(3, 10)
        kinds = rng.randint(1, n)
        kind = [rng.randrange(kinds) for _ in range(n)]
        palette = rng.randint(1, 6)
        table = {}
        cols = []
        for u, v in combinations(range(n), 2):
            key = tuple(sorted((kind[u], kind[v])))
            if rng.random() < 0.1:
                cols.append(palette + len(cols))  # a fresh color
            else:
                cols.append(table.setdefault(key, rng.randrange(palette)))
        ids = {c: i for i, c in enumerate(sorted(set(cols)))}
        out.append(EdgeColoring(n, tuple(ids[c] for c in cols)))
    return out


def _twin_test_colorings():
    rng = random.Random(31)
    structured = [cover_coloring(n, r1, s)
                  for n in range(2, 11) for r1 in range(4) for s in range(1, 4)
                  if r1 < n and s <= comb(n - r1, 2)]
    structured += [clique_coloring(n, k) for n in range(2, 11) for k in range(2, n + 1)]
    relabeled = []
    for coloring in structured:
        perm = list(range(coloring.n))
        rng.shuffle(perm)
        relabeled.append(relabel(coloring, perm))
    return structured + relabeled + _planted_twin_colorings()


class TestTwinPartition:
    def test_matches_swap_enumeration(self):
        colorings = _twin_test_colorings()
        with_twins = 0
        for coloring in colorings:
            naive = twin_partition(coloring)
            assert _library_twins(coloring) == naive, coloring
            with_twins += len(set(naive)) < coloring.n
        assert with_twins > 300

    def test_twins_have_equal_color_count_profiles(self):
        # the soundness condition of the pre-filter, on the naive relation
        pairs = 0
        for coloring in _twin_test_colorings():
            naive = twin_partition(coloring)
            profile = [sorted(Counter(coloring.color(u, x) for x in range(coloring.n)
                                      if x != u).values())
                       for u in range(coloring.n)]
            for u, v in combinations(range(coloring.n), 2):
                if naive[u] == naive[v]:
                    assert profile[u] == profile[v], (coloring, u, v)
                    pairs += 1
        assert pairs > 1000


_TWELVE_VERTEX_COVERS = [
    (Path(11), 4),
    (Cycle(12), 4),
    (Matching(6), 4),
    (TriplePath(4), 3),
    (Union(Path(7), Matching(2)), 3),
]


class TestLargeRainbowFreeInstances:
    # adversarial inputs: on rainbow-free hosts every "no" must be proved
    @pytest.mark.parametrize("pattern,cover_size", _TWELVE_VERTEX_COVERS)
    def test_twelve_vertex_hosts_complete_quickly(self, pattern, cover_size):
        coloring = cover_coloring(12, cover_size, 1)
        assert find_rainbow(coloring, pattern) is None

    @pytest.mark.parametrize("pattern,cover_size", _TWELVE_VERTEX_COVERS)
    def test_twin_classes_alone_keep_the_search_quick(self, pattern, cover_size,
                                                      monkeypatch):
        # the color-count certificate settles every case above; without it
        # the search must still finish, because the inner hosts are twins
        monkeypatch.setattr(rainbow_module, "_colors_run_out",
                            lambda *_args: False)
        coloring = cover_coloring(12, cover_size, 1)
        assert find_rainbow(coloring, pattern) is None


class _Searched(Exception):
    """Raised in place of the search's set-up, to see which calls reach it."""


def _refuse(*_args):
    raise _Searched


def _cover_hosts(max_n):
    """(pattern, host, inner colors) for every instance of acceptance
    criterion 5, on hosts up to K_max_n."""
    out = []
    for spec, r1, s in _cover_instances():
        g = build_pattern(spec)
        out += [(g, cover_coloring(n, r1, s), s) for n in range(g.n, max_n + 1)]
    return out


def _two_inner_color_instances(max_n):
    """(pattern, host) for every instance of acceptance criterion 5 with two
    inner colors, on hosts up to K_max_n."""
    return [(g, coloring) for g, coloring, s in _cover_hosts(max_n) if s == 2]


def _uncapped_certificate(coloring, g):
    """The color-count certificate with the bound d1 + ... + dt on the edges
    at t removed hosts, the t largest raw degrees, capped at E only over the
    whole pattern rather than per component."""
    mat = coloring.color_matrix()
    color_degree = [len(set(row)) - 1 for row in mat]
    class_size = [coloring.colors.count(c) for c in range(coloring.num_colors)]
    room, raw = g.num_edges, []
    for d in sorted(g.degrees(), reverse=True):
        raw.append(min(d, room))
        room -= raw[-1]
    return rainbow_module._colors_run_out(mat, class_size, color_degree, tuple(raw))


def _six_vertex_patterns():
    """Every class of ``iso_classes(6, 6)``, as listed and with its vertex
    labels reversed, so the high-degree vertices come first in one copy and
    last in the other."""
    classes = iso_classes(6, 6)
    flipped = [Graph(6, [(5 - u, 5 - v) for u, v in g.edges]) for g in classes]
    return classes + flipped


def _few_color_hosts():
    rng = random.Random(3141)
    hosts = [cover_coloring(n, r1, s)
             for n in (6, 7) for r1 in range(3) for s in range(1, 4)]
    hosts += [clique_coloring(n, k) for n in (6, 7) for k in range(2, n + 1)]
    hosts += [random_surjective_coloring(rng, n, rng.randrange(2, 8))
              for n in (6, 7) for _ in range(12)]
    return hosts


class TestColorCountCertificate:
    def test_never_fires_where_a_copy_exists(self, monkeypatch):
        # a call that returns without reaching the search was settled by the
        # certificate; each such "no" past pigeonhole is checked by full
        # enumeration
        monkeypatch.setattr(rainbow_module, "_build_plan", _refuse)
        patterns = _six_vertex_patterns()
        assert len(patterns) == 2 * 53  # every isomorphism class with 1..6 edges
        fired = past_pigeonhole = 0
        for coloring in _few_color_hosts():
            for g in patterns:
                try:
                    verdict = find_rainbow(coloring, g)
                except _Searched:
                    continue
                assert verdict is None
                fired += 1
                if g.num_edges <= coloring.num_colors:  # beyond pigeonhole
                    assert not naive_has_rainbow(coloring, g), (g, coloring.colors)
                    past_pigeonhole += 1
        assert fired >= 2864
        assert past_pigeonhole >= 244

    def test_two_inner_color_covers_settle_without_search(self, monkeypatch):
        monkeypatch.setattr(rainbow_module, "_twin_partition", _refuse)
        monkeypatch.setattr(rainbow_module, "_build_plan", _refuse)
        cases = _two_inner_color_instances(12)
        assert len(cases) == 31
        cases += [(Union(Matching(1), TriplePath(2)), cover_coloring(n, 1, 2))
                  for n in range(11, 26)]
        for pattern, coloring in cases:
            assert find_rainbow(coloring, pattern) is None, (pattern, coloring.n)

    def test_every_cover_coloring_settles_without_search(self, monkeypatch):
        cases = _cover_hosts(14)
        assert len(cases) == 463
        assert {s for _, _, s in cases} == {1, 2}
        # with uncapped degrees 73 of them, from 16 one-inner-color families
        # such as C3+4P2, C7+2P2, P4+3P2 and P8+2P2, reach the search
        assert sum(g.num_edges <= c.num_colors and not _uncapped_certificate(c, g)
                   for g, c, _ in cases) == 73
        monkeypatch.setattr(rainbow_module, "_twin_partition", _refuse)
        monkeypatch.setattr(rainbow_module, "_build_plan", _refuse)
        for g, coloring, _ in cases:
            assert find_rainbow(coloring, g) is None, (g, coloring.n)

    def test_backtracking_alone_still_proves_absence(self, monkeypatch):
        cases = _two_inner_color_instances(9)
        # six of the eleven have enough colors to get past pigeonhole
        assert sum(g.num_edges <= c.num_colors for g, c in cases) == 6
        # the one-inner-color instances that only the capped degrees settle
        uncapped_left = [(g, c) for g, c, s in _cover_hosts(9)
                         if s == 1 and g.num_edges <= c.num_colors
                         and not _uncapped_certificate(c, g)]
        assert len(uncapped_left) == 7
        monkeypatch.setattr(rainbow_module, "_colors_run_out",
                            lambda *_args: False)
        for g, coloring in cases + uncapped_left:
            assert find_rainbow(coloring, g) is None, (g, coloring.n)

    def test_capped_degrees_bound_the_uncovered_edges(self):
        # for every t: E - (t largest raw degrees) <= E - (t largest capped
        # entries) <= the fewest edges any t pattern vertices leave uncovered
        classes = iso_classes(6, 15)
        assert len(classes) == 155  # every graph on at most six vertices
        flipped = [Graph(6, [(5 - u, 5 - v) for u, v in g.edges]) for g in classes]
        tighter = 0
        for g in classes + flipped:
            capped = rainbow_module._capped_degrees(g)
            raw = sorted(g.degrees(), reverse=True)
            e = g.num_edges
            assert list(capped) == sorted(capped, reverse=True) and sum(capped) == e
            for t in range(g.n + 1):
                uncapped_bound, bound = e - sum(raw[:t]), e - sum(capped[:t])
                assert uncapped_bound <= bound <= fewest_uncovered(g, t), (g, t)
                tighter += max(uncapped_bound, 0) < bound
        assert tighter == 10

    def test_capped_degrees_are_exact_on_cover_families(self):
        # min{j : q_j(G) <= t}, the fewest edges t vertices leave uncovered
        for spec, _, _ in _cover_instances():
            g = build_pattern(spec)
            capped = rainbow_module._capped_degrees(g)
            q = [q_cover(g, j).value for j in range(g.num_edges + 1)]
            for t in range(g.n + 1):
                fewest = min(j for j, value in enumerate(q) if value <= t)
                assert g.num_edges - sum(capped[:t]) == fewest, (spec, t)


_FIRST_HIT_PATTERNS = [
    TriplePath(1), Path(3), Cycle(3), Matching(2), Matching(3), TriplePath(2),
    Cycle(4), Union(TriplePath(1), Matching(1)), Union(Cycle(3), Matching(1)),
    Path(4), Union(Matching(2), TriplePath(1)),
]


class TestLazyTwinClasses:
    # twin classes are built at the first failed subtree, by the `place`
    # frame that met it, and the search carries on from that frame under
    # them; neither the search before the switch nor the one after it may
    # change which copy comes first
    def test_witness_is_the_unpruned_first_hit(self, monkeypatch):
        _twin_partition = rainbow_module._twin_partition
        partitions = []  # per built partition: does it have a twin pair?
        open_frames = []  # per built partition: `place` frames on the stack

        def recorded(*args):
            frame, depth = sys._getframe(1), 0
            while frame is not None:
                code = frame.f_code
                depth += (code.co_name == "place"
                          and code.co_filename == rainbow_module.__file__)
                frame = frame.f_back
            open_frames.append(depth)
            label = _twin_partition(*args)
            partitions.append(len(set(label)) < len(label))
            return label

        monkeypatch.setattr(rainbow_module, "_twin_partition", recorded)
        pairs = found = found_after_build = with_twins = none_after_build = 0
        for coloring in _twin_test_colorings():
            for spec in _FIRST_HIT_PATTERNS:
                g = build_pattern(spec)
                if g.n > coloring.n:
                    continue
                before = len(partitions)
                emb = find_rainbow(coloring, g)
                got = None if emb is None else emb.map
                assert got == first_rainbow(coloring, g), (g, coloring)
                pairs += 1
                built = len(partitions) > before
                if emb is None:
                    none_after_build += built
                else:
                    found += 1
                    if built:
                        found_after_build += 1
                        with_twins += partitions[-1]
        assert (pairs, found, found_after_build, with_twins) == (3411, 2623, 393, 358)
        assert none_after_build == 104  # of the 3411 - 2623 = 788 "no" answers
        # every build happens inside the search, in a frame past slot 0
        assert len(open_frames) == 497
        assert min(open_frames) >= 2

    def test_no_dead_end_builds_no_partition(self, monkeypatch):
        monkeypatch.setattr(rainbow_module, "_twin_partition", _refuse)
        for n in range(6, 13):
            coloring = all_distinct(n)
            for spec in PATTERNS:
                g = build_pattern(spec)
                if g.n <= n:
                    emb = find_rainbow(coloring, g)
                    assert check_embedding(coloring, g, emb), (g, n)


def _relabeled_2c3_p4():
    """2C3+P4 with its vertices renamed, so the plan meets the path first
    although the layout puts it last."""
    perm = [7, 2, 9, 0, 5, 3, 8, 1, 6, 4]
    g = build_pattern(Union(Cycle(3), Cycle(3), Path(3)))
    return Graph(g.n, [(perm[u], perm[v]) for u, v in g.edges])


_PINNED_PATTERNS = {
    "3P3": TriplePath(3),
    "C3+2P2": Union(Cycle(3), Matching(2)),
    "P4+P3+P2": Union(Path(3), TriplePath(1), Matching(1)),
    "2C3+P4 relabeled": _relabeled_2c3_p4(),
}


class TestPinnedWitnesses:
    # K13 hosts with one color more than the pattern has edges; a changed
    # witness means the slot order or the host order changed
    @pytest.mark.parametrize("name, seed, witness", [
        ("3P3", 1, (0, 1, 2, 3, 4, 7, 5, 8, 6)),
        ("3P3", 2, (0, 1, 2, 3, 4, 5, 6, 11, 10)),
        ("3P3", 3, (0, 1, 2, 3, 4, 5, 6, 9, 8)),
        ("3P3", 4, (0, 1, 2, 3, 9, 4, 5, 10, 6)),
        ("C3+2P2", 1, (0, 1, 2, 3, 4, 5, 6)),
        ("C3+2P2", 2, (0, 1, 4, 2, 3, 5, 6)),
        ("C3+2P2", 3, (0, 1, 2, 3, 4, 5, 7)),
        ("C3+2P2", 4, (0, 1, 5, 2, 3, 4, 7)),
        ("P4+P3+P2", 1, (0, 1, 2, 3, 4, 7, 9, 5, 10)),
        ("P4+P3+P2", 2, (0, 1, 2, 3, 4, 5, 8, 6, 12)),
        ("P4+P3+P2", 3, (0, 1, 2, 3, 4, 5, 6, 8, 9)),
        ("P4+P3+P2", 4, (0, 1, 2, 3, 4, 7, 9, 5, 10)),
        ("2C3+P4 relabeled", 1, (4, 0, 9, 5, 3, 6, 1, 10, 2, 12)),
        ("2C3+P4 relabeled", 2, (4, 0, 8, 5, 3, 7, 1, 11, 2, 12)),
        ("2C3+P4 relabeled", 3, (4, 0, 7, 9, 3, 12, 1, 10, 2, 11)),
        ("2C3+P4 relabeled", 4, (4, 0, 7, 6, 8, 10, 1, 11, 2, 12)),
    ])
    def test_seeded_host_witness(self, name, seed, witness):
        pattern = _PINNED_PATTERNS[name]
        colors = build_pattern(pattern).num_edges + 1
        coloring = random_surjective_coloring(random.Random(seed), 13, colors)
        assert coloring.num_colors == colors
        emb = find_rainbow(coloring, pattern)
        assert emb.map == witness
        assert check_embedding(coloring, pattern, emb)
