"""Graphs, pattern construction, and the edge-list text format."""

import random
import re

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
    UnrecognizedFamilyError,
    ar_family,
    build_pattern,
    family_name,
    parse_family,
    parse_graph,
    verify_range,
)
from antiramsey.cli import _plain
from antiramsey.graphs import _components

from brute import iso_classes, serialize_graph


class TestBuildPattern:
    def test_path(self):
        g = build_pattern(Path(2))
        assert g.n == 3
        assert g.edges == {(0, 1), (1, 2)}

    def test_matching(self):
        g = build_pattern(Matching(3))
        assert g.n == 6
        assert g.edges == {(0, 1), (2, 3), (4, 5)}

    def test_union_layout(self):
        g = build_pattern(Union(Cycle(3), Matching(2)))
        assert g.n == 7
        assert g.num_edges == 5
        assert {(0, 1), (0, 2), (1, 2)} <= g.edges  # triangle on the first block

    def test_triple_path(self):
        g = build_pattern(TriplePath(2))
        assert g.n == 6
        assert g.edges == {(0, 1), (1, 2), (3, 4), (4, 5)}

    def test_cycle(self):
        g = build_pattern(Cycle(4))
        assert g.n == 4
        assert g.edges == {(0, 1), (1, 2), (2, 3), (0, 3)}

    def test_custom_passthrough(self):
        g = Graph(5, [(0, 3)])
        assert build_pattern(g) is g

    # every entry point that coerces a pattern takes a bare Graph
    @pytest.mark.parametrize("entry, expected", [
        (lambda g: build_pattern(g) is g, True),
        (family_name, "custom(n=3,m=2)"),
        (lambda g: family_name(Union(g, Matching(1))), "custom(n=3,m=2)+P2"),
        (lambda g: build_pattern(Union(g, Matching(1))),
         Graph(5, [(0, 1), (1, 2), (3, 4)])),
        (lambda g: pytest.raises(UnrecognizedFamilyError, ar_family, 5, g).type,
         UnrecognizedFamilyError),
        (lambda g: _plain(verify_range(g, 3, 4))["family"], "custom(n=3,m=2)"),
    ], ids=["build_pattern", "family_name", "union_name", "union_build",
            "ar_family", "verify_range"])
    def test_bare_graph_is_a_pattern(self, entry, expected):
        assert entry(Graph(3, [(0, 1), (1, 2)])) == expected

    @pytest.mark.parametrize("bad", [
        lambda: Cycle(2), lambda: Path(0), lambda: Matching(0), lambda: TriplePath(0),
    ])
    def test_parameter_validation(self, bad):
        with pytest.raises(ValueError):
            bad()

    def test_nested_unions_flatten(self):
        u = Union(Union(Path(3), Matching(1)), Cycle(3))
        assert len(u.parts) == 3


class TestDegreeProfile:
    def test_path(self):
        assert build_pattern(Path(2)).degrees() == [1, 2, 1]

    def test_cycle(self):
        assert build_pattern(Cycle(4)).degrees() == [2, 2, 2, 2]

    def test_empty(self):
        assert Graph(3).degrees() == [0, 0, 0]

    def test_sum_is_twice_edges(self):
        g = build_pattern(Union(Path(4), Cycle(5), Matching(2)))
        assert sum(g.degrees()) == 2 * g.num_edges


def _union_find_split(g: Graph) -> list[set[int]]:
    """g's components with an edge, as vertex sets, by union-find."""
    parent = list(range(g.n))

    def find(x: int) -> int:
        while parent[x] != x:
            x = parent[x]
        return x

    for u, v in g.edges:
        parent[find(u)] = find(v)
    split: dict[int, set[int]] = {}
    for u, v in g.edges:
        split.setdefault(find(u), set()).update((u, v))
    return sorted(split.values(), key=min)


def _relabeled(g: Graph, n: int, rng: random.Random) -> Graph:
    # g's edges under a random injection into 0 .. n - 1, so the vertices
    # left over are isolated
    image = rng.sample(range(n), g.n)
    return Graph(n, [(image[u], image[v]) for u, v in g.edges])


class TestComponents:
    # a breadth-first order from the smallest vertex, neighbours in
    # ascending order, is the order by (position of the first neighbour
    # listed, vertex): each vertex is found by its first-listed neighbour,
    # and a vertex's neighbours are found in ascending order
    @staticmethod
    def _check(g: Graph) -> None:
        comps = _components(g)
        assert [set(order) for order in comps] == _union_find_split(g), g
        assert [order[0] for order in comps] == sorted(map(min, comps)), g
        degree = g.degrees()
        for order in comps:
            assert len(set(order)) == len(order), g
            assert order[0] == min(order), g
            assert all(degree[v] for v in order), g
            pos = {v: i for i, v in enumerate(order)}
            found = [(min(pos[u] for e in g.edges if v in e for u in e
                          if u != v), v) for v in order[1:]]
            assert found == sorted(found), g
            assert all(p < i for i, (p, _) in enumerate(found, 1)), g

    def test_every_class_on_six_vertices(self):
        for g in iso_classes(6, 15):
            self._check(g)

    @pytest.mark.parametrize("family", ["C3+2P2", "P4+P3+P2", "3P3", "4P2+P3",
                                        "C5+P4+2P3", "P2"])
    def test_unions_under_relabeling(self, family):
        g = build_pattern(parse_family(family))
        rng = random.Random(family)
        for extra in range(4):
            for _ in range(10):
                self._check(_relabeled(g, g.n + extra, rng))

    def test_example(self):
        # 0's neighbours 3 and 5 come before 3's neighbour 1; 4 is isolated
        g = Graph(7, [(0, 3), (1, 3), (0, 5), (2, 6)])
        assert _components(g) == ((0, 3, 5, 1), (2, 6))

    def test_edgeless_graph_has_no_component(self):
        assert _components(Graph(4)) == ()


class TestGraphValidation:
    def test_loop_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_edges_normalized(self):
        g = Graph(4, [(3, 1)])
        assert g.edges == {(1, 3)}

    def test_negative_vertex_count_rejected(self):
        with pytest.raises(ValueError, match=r"^vertex count must be nonnegative, got -1$"):
            Graph(-1)

    def test_empty_union_rejected(self):
        with pytest.raises(ValueError, match=r"^union of nothing$"):
            Union()

    @pytest.mark.parametrize("fn", [build_pattern, family_name])
    def test_non_spec_is_a_type_error(self, fn):
        spec = object()
        with pytest.raises(TypeError, match=f"^{re.escape(f'not a pattern spec: {spec!r}')}$"):
            fn(spec)


class TestTextFormat:
    def test_parse_example(self):
        g = parse_graph("3 2\n0 1\n1 2\n")
        assert g == build_pattern(Path(2))

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            parse_graph("2 1\n0 0\n")

    def test_endpoint_out_of_range(self):
        with pytest.raises(ValueError):
            parse_graph("2 1\n0 2\n")

    def test_unnormalized_edge_rejected(self):
        with pytest.raises(ValueError):
            parse_graph("3 1\n2 1\n")

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_graph("3 2\n0 1\n0 1\n")

    def test_malformed_header(self):
        with pytest.raises(ValueError):
            parse_graph("3\n")

    def test_malformed_line(self):
        with pytest.raises(ValueError):
            parse_graph("3 1\n0 x\n")

    @pytest.mark.parametrize("text, message", [
        ("", "empty graph text"),
        ("3 x", "bad header line '3 x', expected integers"),
        ("3 2\n0 1", "expected 2 edge lines, found 1"),
        ("3 1\n0 1 2", "bad edge line '0 1 2'"),
    ])
    def test_each_error_has_its_message(self, text, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            parse_graph(text)

    def test_isolated_vertices_round_trip(self):
        g = Graph(6, [(0, 1)])
        assert parse_graph(serialize_graph(g)) == g


@st.composite
def small_graphs(draw):
    n = draw(st.integers(min_value=0, max_value=10))
    universe = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(universe), unique=True, max_size=len(universe))) \
        if universe else []
    return Graph(n, edges)


class TestProperties:
    @settings(max_examples=200, deadline=None)
    @given(small_graphs())
    def test_round_trip_identity(self, g):
        assert parse_graph(serialize_graph(g)) == g

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.sampled_from(
        [Path(2), Path(4), Cycle(3), Cycle(5), Matching(2), TriplePath(2)]),
        min_size=1, max_size=4))
    def test_union_counts_and_no_cross_edges(self, parts):
        u = Union(*parts)
        g = build_pattern(u)
        pieces = [build_pattern(p) for p in parts]
        assert g.n == sum(p.n for p in pieces)
        assert g.num_edges == sum(p.num_edges for p in pieces)
        # every edge stays inside one consecutive block
        offsets = []
        acc = 0
        for p in pieces:
            offsets.append((acc, acc + p.n))
            acc += p.n
        for u_, v_ in g.edges:
            assert any(lo <= u_ < hi and lo <= v_ < hi for lo, hi in offsets)


class TestFamilyGrammar:
    @pytest.mark.parametrize("text,expected", [
        ("P5", Path(4)),
        ("C4", Cycle(4)),
        ("3P2", Matching(3)),
        ("2P3", TriplePath(2)),
        ("P2", Matching(1)),
        ("P3", TriplePath(1)),
    ])
    def test_single_terms(self, text, expected):
        assert parse_family(text) == expected

    def test_union_term(self):
        spec = parse_family("C3+2P2")
        assert isinstance(spec, Union)
        assert spec.parts == (Cycle(3), Matching(2))

    def test_repeated_long_paths(self):
        spec = parse_family("2P4")
        assert spec == Union(Path(3), Path(3))

    @pytest.mark.parametrize("bad", ["P1", "X3", "0P2", "", "C", "P", "1.5P2"])
    def test_rejects_garbage(self, bad):
        with pytest.raises(ValueError):
            parse_family(bad)

    @pytest.mark.parametrize("text", ["P5", "C4", "3P2", "2P3", "C3+2P2", "P4+P2"])
    def test_name_round_trip(self, text):
        spec = parse_family(text)
        assert parse_family(family_name(spec)) == spec
