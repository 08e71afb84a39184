"""Anti-Ramsey numbers for graphs with small components.

Closed-form values and bounds (exact rationals), the q_j cover parameter,
the extremal rainbow-free colorings, a complete rainbow-copy search, and an
exhaustive small-n oracle - each cross-validating the others.
"""

from .colorings import (
    EdgeColoring,
    all_edges,
    edge_index,
    parse_coloring,
    serialize_coloring,
)
from .constructions import clique_coloring, cover_coloring
from .formulas import (
    BoundReport,
    TransferBound,
    TransferParams,
    UnrecognizedFamilyError,
    ar_cycle,
    ar_family,
    ar_matching,
    ar_path,
    cover_lower_bound,
    cycle_matching_bounds,
    integer_bounds,
    linear_form,
    matching_step_threshold,
    path_matching_bounds,
    transfer_upper_bound,
    triples_step_threshold,
)
from .graphs import (
    Cycle,
    Graph,
    Matching,
    Path,
    PatternSpec,
    TriplePath,
    Union,
    build_pattern,
    disjoint_union,
    family_name,
    parse_family,
    parse_graph,
)
from .oracle import (
    OracleResult,
    RangeReport,
    RangeRow,
    max_rainbow_free,
    verify_range,
)
from .qcover import QResult, q_cover
from .rainbow import Embedding, check_embedding, find_rainbow

__version__ = "0.1.0"

__all__ = [
    "BoundReport", "Cycle", "EdgeColoring", "Embedding", "Graph",
    "Matching", "OracleResult", "Path", "PatternSpec",
    "QResult", "RangeReport", "RangeRow", "TransferBound", "TransferParams",
    "TriplePath", "Union", "UnrecognizedFamilyError",
    "all_edges", "ar_cycle", "ar_family", "ar_matching",
    "ar_path", "build_pattern", "check_embedding", "clique_coloring",
    "cover_coloring", "cover_lower_bound", "cycle_matching_bounds",
    "disjoint_union", "edge_index",
    "family_name", "find_rainbow", "integer_bounds",
    "linear_form", "matching_step_threshold",
    "max_rainbow_free", "parse_coloring", "parse_family",
    "parse_graph", "path_matching_bounds", "q_cover",
    "serialize_coloring", "transfer_upper_bound",
    "triples_step_threshold", "verify_range",
]
