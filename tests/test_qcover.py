"""The cover parameter q_j against brute force and its closed forms."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from antiramsey import (
    Cycle,
    Graph,
    Matching,
    Path,
    TriplePath,
    Union,
    build_pattern,
    disjoint_union,
    parse_family,
    q_cover,
)
from antiramsey import qcover as qcover_module

from brute import brute_q, cover_by_counting, iso_classes
from test_acceptance import _cover_instances


def pat(spec) -> Graph:
    return build_pattern(spec)


class TestClosedForms:
    def test_two_edge_matching(self):
        assert q_cover(pat(Matching(2)), 1).value == 1
        assert q_cover(pat(Matching(2)), 0).value == 2

    @pytest.mark.parametrize("k", range(4, 11))
    def test_paths(self, k):
        assert q_cover(pat(Path(k)), 1).value == k // 2
        assert q_cover(pat(Path(k)), 0).value == (k + 1) // 2

    @pytest.mark.parametrize("k", range(4, 11))
    def test_cycles(self, k):
        assert q_cover(pat(Cycle(k)), 1).value == k // 2
        assert q_cover(pat(Cycle(k)), 0).value == (k + 1) // 2

    def test_large_slack_gives_zero(self):
        g = pat(Union(Cycle(4), Matching(2)))
        assert q_cover(g, g.num_edges) == qcover_module.QResult(g.num_edges, 0, ())
        assert q_cover(g, g.num_edges + 5).value == 0

    @pytest.mark.parametrize("k", (1, 2, 3))
    def test_edge_plus_triples(self, k):
        g = pat(Union(Matching(1), TriplePath(k)))
        assert q_cover(g, 2).value == k

    @pytest.mark.parametrize("k", range(1, 6))
    def test_triples(self, k):
        assert q_cover(pat(TriplePath(k)), 1).value == k


class TestWitness:
    def test_witness_is_valid_and_lex_smallest(self):
        rng = random.Random(7)
        for _ in range(150):
            n = rng.randrange(2, 8)
            universe = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = rng.sample(universe, rng.randrange(0, len(universe) + 1))
            g = Graph(n, edges)
            j = rng.randrange(0, 4)
            res = q_cover(g, j)
            size, witness = brute_q(g, j)
            assert res.value == size
            assert res.witness == witness
            chosen = set(res.witness)
            uncovered = sum(1 for u, v in g.edge_list
                            if u not in chosen and v not in chosen)
            assert uncovered <= j

    def test_isolated_vertices_never_in_witness(self):
        g = Graph(8, [(3, 4), (5, 6)])
        res = q_cover(g, 0)
        assert set(res.witness) <= {3, 4, 5, 6}

    @pytest.mark.parametrize("spec", [
        Path(3), Cycle(5), Matching(4), TriplePath(2),
        Union(Cycle(3), Matching(2)), Union(Path(4), TriplePath(1), Matching(1)),
    ])
    def test_takes_a_pattern_spec(self, spec):
        for j in range(3):
            assert q_cover(spec, j) == q_cover(build_pattern(spec), j)

    def test_negative_slack_rejected(self):
        with pytest.raises(ValueError):
            q_cover(pat(Path(3)), -1)


class TestExhaustiveSmall:
    def test_monotone_in_slack_and_under_edge_addition(self):
        # all graphs on 6 labeled vertices: q_j nonincreasing in j, and adding
        # an edge never decreases any q_j
        n = 6
        universe = [(u, v) for u in range(n) for v in range(u + 1, n)]
        m_all = len(universe)
        vertex_masks = [0] * n
        for idx, (u, v) in enumerate(universe):
            vertex_masks[u] |= 1 << idx
            vertex_masks[v] |= 1 << idx
        max_j = 3

        def q_vector(edge_mask: int) -> tuple[int, ...]:
            # scan every vertex subset once, recording the best size per slack
            best = [n] * (max_j + 1)
            for subset in range(1 << n):
                covered = 0
                size = 0
                s = subset
                v = 0
                while s:
                    if s & 1:
                        covered |= vertex_masks[v]
                        size += 1
                    s >>= 1
                    v += 1
                uncovered = int.bit_count(edge_mask & ~covered)
                if uncovered <= max_j:
                    for j in range(uncovered, max_j + 1):
                        if size < best[j]:
                            best[j] = size
            return tuple(best)

        cache: dict[int, tuple[int, ...]] = {}
        for edge_mask in range(1 << m_all):
            cache[edge_mask] = q_vector(edge_mask)
        for edge_mask, qv in cache.items():
            for j in range(max_j):
                assert qv[j] >= qv[j + 1], (edge_mask, qv)
            for idx in range(m_all):
                bit = 1 << idx
                if not (edge_mask & bit):
                    bigger = cache[edge_mask | bit]
                    assert all(a <= b for a, b in zip(qv, bigger)), (edge_mask, idx)

    def test_q_vector_spot_check_against_library(self):
        rng = random.Random(99)
        n = 6
        universe = [(u, v) for u in range(n) for v in range(u + 1, n)]
        for _ in range(50):
            edges = rng.sample(universe, rng.randrange(0, 16))
            g = Graph(n, edges)
            for j in range(4):
                assert q_cover(g, j).value == brute_q(g, j)[0]


@st.composite
def random_graph(draw):
    n = draw(st.integers(min_value=1, max_value=7))
    universe = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(universe), unique=True,
                          max_size=len(universe))) if universe else []
    return Graph(n, edges)


class TestProperties:
    @settings(max_examples=150, deadline=None)
    @given(random_graph(), random_graph(), st.integers(min_value=0, max_value=4))
    def test_disjoint_union_convolution(self, g1, g2, j):
        combined = disjoint_union(g1, g2)
        direct = q_cover(combined, j).value
        convolved = min(q_cover(g1, i).value + q_cover(g2, j - i).value
                        for i in range(j + 1))
        assert direct == convolved

    @settings(max_examples=150, deadline=None)
    @given(random_graph(), st.integers(min_value=0, max_value=6),
           st.integers(min_value=0, max_value=4))
    def test_counting_bound_implies_cover(self, g, size, slack):
        if cover_by_counting(g, size, slack):
            assert q_cover(g, slack).value <= size


def reduced_q(l_graph: Graph, t: int, t_reduced: int, j: int) -> int:
    """q_j(L + tP2) from q_cover on the smaller union L + t_reduced P2:

        min over 0 <= i <= min(j, t - t_reduced) of
            (t - t_reduced) - i + q_{j-i}(L + t_reduced P2).

    Each spare matching edge is either bought into the cover (one vertex) or
    written off against the slack.
    """
    base = disjoint_union(l_graph, pat(Matching(t_reduced))) if t_reduced else l_graph
    spare = t - t_reduced
    return min(spare - i + q_cover(base, j - i).value
               for i in range(min(j, spare) + 1))


class TestUnionMatchingReduction:
    def test_pinned_example(self):
        assert reduced_q(pat(Path(2)), 3, 1, 1) == 3
        assert q_cover(pat(Union(Path(2), Matching(3))), 1).value == 3

    def test_identity_when_nothing_reduced(self):
        l_graph = pat(Cycle(3))
        full = pat(Union(Cycle(3), Matching(2)))
        for j in range(3):
            assert reduced_q(l_graph, 2, 2, j) == q_cover(full, j).value

    def test_empty_fixed_part(self):
        assert reduced_q(Graph(0), 2, 2, 0) == 2  # two disjoint edges, no slack

    def test_agrees_with_direct_computation(self):
        rng = random.Random(4242)
        fixed_parts = [Graph(0), pat(Path(2)), pat(Path(3)), pat(Cycle(3)),
                       pat(TriplePath(1)), pat(Union(Path(2), Path(1)))]
        for _ in range(60):
            l_graph = rng.choice(fixed_parts)
            t = rng.randrange(0, 5)
            t2 = rng.randrange(0, t + 1)
            j = rng.randrange(0, 4)
            direct = q_cover(disjoint_union(l_graph, pat(Matching(t))) if t
                             else l_graph, j).value
            assert reduced_q(l_graph, t, t2, j) == direct


class TestBranchAndBoundFallback:
    def test_matches_enumeration_when_forced(self, monkeypatch):
        rng = random.Random(31337)
        cases = []
        for _ in range(40):
            n = rng.randrange(3, 9)
            universe = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = rng.sample(universe, rng.randrange(1, len(universe) + 1))
            cases.append((Graph(n, edges), rng.randrange(0, 3)))
        expected = [q_cover(g, j) for g, j in cases]
        monkeypatch.setattr(qcover_module, "_ENUM_LIMIT", 0)
        forced = [q_cover(g, j) for g, j in cases]
        assert forced == expected
        for _ in range(300):
            n = rng.randrange(1, 10)
            universe = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = Graph(n, rng.sample(universe, rng.randrange(0, len(universe) + 1)))
            j = rng.randrange(0, 5)
            res = q_cover(g, j)
            assert (res.value, res.witness) == brute_q(g, j), (g.edge_list, j)


class TestLargeCovers:
    """Inputs past the subset scan's limit, each answered by the pick search."""

    def test_pinned_unions_and_deep_inputs(self):
        w15 = (0, 2, 4, 6, 8, 11, 14, 17, 20, 23, 26, 28, 30, 32, 34)
        w20 = (0, 2, 4, 6, 8, 10, 13, 16, 19, 22, 25, 28, 31, 34, 36, 38, 40,
               42, 44, 46)
        cases = [
            ("P10+6P3+5P2", 1, 15, w15),
            ("P10+6P3+5P2", 2, 14, w15[:-1]),
            ("P12+8P3+6P2", 0, 20, w20),
            ("P12+8P3+6P2", 1, 19, w20[:-1]),
        ]
        for family, j, value, witness in cases:
            assert q_cover(parse_family(family), j) == qcover_module.QResult(
                j, value, witness), (family, j)
        deep = [
            (Matching(600), 600, tuple(range(0, 1200, 2))),
            (Path(1200), 600, tuple(range(1, 1200, 2))),
            (Cycle(1100), 550, tuple(range(0, 1100, 2))),
            (Matching(1000), 1000, tuple(range(0, 2000, 2))),
            (Path(2400), 1200, tuple(range(1, 2400, 2))),
            (Cycle(2100), 1050, tuple(range(0, 2100, 2))),
        ]
        for spec, value, witness in deep:
            assert q_cover(spec, 0) == qcover_module.QResult(0, value, witness), spec


# The benchmark's 20-40-vertex disjoint unions (qcover-unions workload).
LARGE_UNIONS = ("P10+6P3+5P2", "P8+5P3+4P2", "C9+3P3+3P2", "P7+6P3",
                "C8+5P3+2P2", "P9+3P3+4P2", "C7+4P3+2P2", "P5+P6+P7+2P3+2P2",
                "C10+2P3+5P2")


@pytest.fixture
def sizes_tried(monkeypatch):
    """Every set size that q_cover's subset scan or pick search is asked for,
    in order."""
    tried = []
    lex_cover = qcover_module._lex_cover

    def scan(items, size):
        tried.append(size)
        return itertools.combinations(items, size)

    def pick(active, masks, m, j, size):
        tried.append(size)
        return lex_cover(active, masks, m, j, size)

    monkeypatch.setattr(qcover_module, "combinations", scan)
    monkeypatch.setattr(qcover_module, "_lex_cover", pick)
    return tried


class TestStartSize:
    """The scan starts at the fewest t whose t largest capped degrees reach
    m - j: never below ceil((m - j) / max_deg), never above q_j."""

    def test_start_lies_between_the_old_start_and_q(self, sizes_tried):
        classes = iso_classes(6, 15)
        assert len(classes) == 155  # every graph on at most six vertices
        flipped = [Graph(6, [(5 - u, 5 - v) for u, v in g.edges]) for g in classes]
        raised = 0
        for g in classes + flipped:
            m, max_deg = g.num_edges, max(g.degrees())
            for j in range(m):
                sizes_tried.clear()
                res = q_cover(g, j)
                old = -(-(m - j) // max_deg)
                assert old <= sizes_tried[0] <= brute_q(g, j)[0] == res.value, (g, j)
                raised += old < sizes_tried[0]
        assert raised > 0

    def test_scan_opens_at_q_on_path_and_cycle_unions(self, sizes_tried):
        # exact on paths, cycles and their unions: no size below q_j is tried
        specs = [spec for spec, _, _ in _cover_instances()]
        specs += map(parse_family, LARGE_UNIONS)
        for spec in specs:
            g = build_pattern(spec)
            for j in range(min(4, g.num_edges)):
                sizes_tried.clear()
                res = q_cover(g, j)
                assert sizes_tried == [res.value], (spec, j, sizes_tried)


def _components(spec):
    """The connected components of a parsed family, one spec each."""
    for part in spec.parts if isinstance(spec, Union) else (spec,):
        if isinstance(part, Matching):
            yield from [Matching(1)] * part.t
        elif isinstance(part, TriplePath):
            yield from [TriplePath(1)] * part.k
        else:
            yield part


def convolved_q(spec, j: int) -> int:
    """q_j of a disjoint union as the min-plus convolution of its
    components' brute-force q profiles."""
    best = [0] * (j + 1)  # the empty union
    for comp in _components(spec):
        g = build_pattern(comp)
        prof = [brute_q(g, i)[0] for i in range(j + 1)]
        best = [min(best[i - a] + prof[a] for a in range(i + 1)) for i in range(j + 1)]
    return best[j]


class TestScanRegimeUnions:
    """Unions whose sizes below q_j were most of the subset scan's cost:
    C9+3P3+3P2 at j = 1 walked all 1,307,504 9-sets before its first
    10-set.  Values and witnesses are pinned; each value is also the
    convolution of the components' brute-force profiles."""

    def test_pinned_values_and_witnesses(self):
        c9 = (0, 1, 3, 5, 7, 10, 13, 16, 18, 20, 22)
        p7_odd = (1, 3, 5, 8, 11, 14, 17, 20, 23)
        p7_even = (0, 2, 4, 8, 11, 14, 17, 20, 23)
        cases = [
            ("C9+3P3+3P2", 0, c9),
            ("C9+3P3+3P2", 1, c9[:10]),
            ("C9+3P3+3P2", 2, c9[:9]),
            ("C9+3P3+3P2", 3, c9[:8]),
            ("P7+6P3", 0, p7_odd),
            ("P7+6P3", 1, p7_even),
            ("P7+6P3", 2, p7_odd[:8]),
            ("P7+6P3", 3, p7_even[:8]),
            ("C7+4P3+2P2", 2, (0, 1, 3, 5, 8, 11, 14, 17)),
            ("C7+4P3+2P2", 3, (0, 2, 4, 8, 11, 14, 17)),
        ]
        for family, j, witness in cases:
            spec = parse_family(family)
            assert q_cover(spec, j) == qcover_module.QResult(
                j, len(witness), witness), (family, j)
            assert convolved_q(spec, j) == len(witness), (family, j)

