"""Graphs, pattern construction, and the edge-list text format."""

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

from brute import serialize_graph


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
