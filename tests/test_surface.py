"""The package's public names: a checked-in list, so the surface only
changes by a deliberate edit here."""

import antiramsey

PUBLIC = [
    "BoundReport", "Cycle", "EdgeColoring", "Embedding", "Graph",
    "Matching", "OracleResult", "Path", "PatternSpec", "QResult",
    "RangeReport", "RangeRow", "TransferBound", "TransferParams",
    "TriplePath", "Union", "UnrecognizedFamilyError",
    "all_edges", "ar_cycle", "ar_family", "ar_matching", "ar_path",
    "build_pattern", "check_embedding", "clique_coloring", "cover_coloring",
    "cover_lower_bound", "cycle_matching_bounds", "disjoint_union",
    "edge_index", "family_name", "find_rainbow", "integer_bounds",
    "linear_form", "matching_step_threshold", "max_rainbow_free",
    "parse_coloring", "parse_family", "parse_graph", "path_matching_bounds",
    "q_cover", "serialize_coloring", "transfer_upper_bound",
    "triples_step_threshold", "verify_range",
]

# wrappers around max_rainbow_free and q_cover, helpers only the tests use,
# which brute.py holds, and triples_gamma, an alias of triples_step_threshold
# on the path's transfer inputs
REMOVED = ["exact_ar", "OracleInconclusive", "q_union_matching",
           "all_distinct", "monochromatic", "serialize_graph", "triples_gamma"]


def test_public_names_are_pinned():
    assert len(PUBLIC) == 45
    assert len(set(PUBLIC)) == len(PUBLIC)
    assert sorted(antiramsey.__all__) == sorted(PUBLIC)
    assert len(set(antiramsey.__all__)) == len(antiramsey.__all__)
    for name in PUBLIC:
        assert getattr(antiramsey, name) is not None, name
    for name in REMOVED:
        assert not hasattr(antiramsey, name), name
    assert not hasattr(antiramsey.EdgeColoring, "relabel")
