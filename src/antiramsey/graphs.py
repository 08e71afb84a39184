"""Small labeled graphs and the pattern families the rest of the library works on.

Vertices are ``0..n-1``.  Edges are stored normalized as pairs ``(u, v)`` with
``u < v`` and iterated in lexicographic order; that fixed order is the global
tie-break used by the rainbow search and by the exhaustive color search, so
everything downstream is deterministic.

Isolated vertices are first class: the closed-form bounds depend on the vertex
count of a pattern, not only on its edges, so ``Graph.n`` may exceed the span
of the edge set and the text format records ``n`` explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache


@dataclass(frozen=True)
class Graph:
    """A simple labeled graph on vertices ``0..n-1``."""

    n: int
    edges: frozenset[tuple[int, int]]

    def __init__(self, n: int, edges=()):
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        normalized = set()
        for u, v in edges:
            if u == v:
                raise ValueError(f"loop at vertex {u}")
            if u > v:
                u, v = v, u
            if not (0 <= u and v < n):
                raise ValueError(f"edge ({u},{v}) out of range for n={n}")
            normalized.add((u, v))
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", frozenset(normalized))

    @cached_property
    def edge_list(self) -> tuple[tuple[int, int], ...]:
        """Edges in lexicographic order (the canonical global edge order)."""
        return tuple(sorted(self.edges))

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def degrees(self) -> list[int]:
        degs = [0] * self.n
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return degs

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


def disjoint_union(a: Graph, b: Graph) -> Graph:
    """Place ``b`` after ``a`` on consecutive vertex blocks."""
    shifted = {(u + a.n, v + a.n) for u, v in b.edges}
    return Graph(a.n + b.n, a.edges | shifted)


@lru_cache
def _components(g: Graph) -> tuple[tuple[int, ...], ...]:
    """g's components that have an edge, in order of smallest vertex.

    Each is a tuple of its vertices in breadth-first order from its
    smallest one, neighbours taken in ascending order.  Cached by the
    ``Graph``'s value: ``_capped_degrees``, ``rainbow._build_plan`` and
    ``oracle._placement_index`` all start from this split.
    """
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in g.edge_list:  # lexicographic, so every adj list ascends
        adj[u].append(v)
        adj[v].append(u)
    seen = [False] * g.n
    comps = []
    for start in range(g.n):
        if seen[start] or not adj[start]:
            continue
        seen[start] = True
        comp = [start]
        for x in comp:  # BFS: the loop reaches the vertices it appends
            for y in adj[x]:
                if not seen[y]:
                    seen[y] = True
                    comp.append(y)
        comps.append(tuple(comp))
    return tuple(comps)


@lru_cache
def _capped_degrees(g: Graph) -> tuple[int, ...]:
    """The pattern degrees, capped within each component, in descending order.

    A component's degrees are taken largest first while their running sum
    stays within its edge count, the last one cut down to fit, so the list
    sums to E.  Vertices in one component of E_C edges cover at most E_C of
    them, and each component's list only shrinks from one entry to the next,
    so the t largest entries bound the edges any t pattern vertices cover.
    Cached by the ``Graph``'s value, as ``_components`` is.  The
    color-count certificate in ``rainbow`` and ``q_cover``'s start size both
    rest on this bound.
    """
    deg = g.degrees()
    capped = []
    for comp in _components(g):
        degs = sorted((deg[x] for x in comp), reverse=True)
        room = sum(degs) // 2  # the component's edge count
        for d in degs:
            if not room:
                break
            capped.append(min(d, room))
            room -= capped[-1]
    return tuple(sorted(capped, reverse=True))


# ---------------------------------------------------------------------------
# Pattern families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Path:
    """Path with ``k`` edges (``k + 1`` vertices)."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"path needs at least 1 edge, got {self.k}")


@dataclass(frozen=True)
class Cycle:
    """Cycle with ``k`` edges and ``k`` vertices."""

    k: int

    def __post_init__(self):
        if self.k < 3:
            raise ValueError(f"cycle needs at least 3 edges, got {self.k}")


@dataclass(frozen=True)
class Matching:
    """``t`` pairwise disjoint edges."""

    t: int

    def __post_init__(self):
        if self.t < 1:
            raise ValueError(f"matching needs at least 1 edge, got {self.t}")


@dataclass(frozen=True)
class TriplePath:
    """``k`` disjoint two-edge paths (three vertices each)."""

    k: int

    def __post_init__(self):
        if self.k < 1:
            raise ValueError(f"need at least 1 component, got {self.k}")


@dataclass(frozen=True, init=False)
class Union:
    """Disjoint union of patterns, realized on consecutive vertex blocks."""

    parts: tuple

    def __init__(self, *parts):
        if not parts:
            raise ValueError("union of nothing")
        flat = []
        for p in parts:
            if isinstance(p, Union):
                flat.extend(p.parts)
            else:
                flat.append(p)
        object.__setattr__(self, "parts", tuple(flat))


PatternSpec = Graph | Path | Cycle | Matching | TriplePath | Union


def build_pattern(spec: PatternSpec) -> Graph:
    """Canonical labeled realization of a pattern.

    Union components are laid out in listed order on consecutive vertex
    blocks, so realizations (and hence witnesses found against them) are
    reproducible.  A Graph is returned unchanged.
    """
    if isinstance(spec, Graph):
        return spec
    if isinstance(spec, Path):
        return Graph(spec.k + 1, [(i, i + 1) for i in range(spec.k)])
    if isinstance(spec, Cycle):
        edges = [(i, i + 1) for i in range(spec.k - 1)] + [(0, spec.k - 1)]
        return Graph(spec.k, edges)
    if isinstance(spec, Matching):
        return Graph(2 * spec.t, [(2 * i, 2 * i + 1) for i in range(spec.t)])
    if isinstance(spec, TriplePath):
        edges = []
        for i in range(spec.k):
            edges += [(3 * i, 3 * i + 1), (3 * i + 1, 3 * i + 2)]
        return Graph(3 * spec.k, edges)
    if isinstance(spec, Union):
        g = Graph(0)
        for part in spec.parts:
            g = disjoint_union(g, build_pattern(part))
        return g
    raise TypeError(f"not a pattern spec: {spec!r}")


def family_name(spec: PatternSpec) -> str:
    """Compact text form, e.g. ``P5``, ``3P2``, ``C3+2P2``, ``custom(n=3,m=2)``."""
    if isinstance(spec, Graph):
        return f"custom(n={spec.n},m={spec.num_edges})"
    if isinstance(spec, Path):
        return f"P{spec.k + 1}"
    if isinstance(spec, Cycle):
        return f"C{spec.k}"
    if isinstance(spec, Matching):
        return f"{spec.t}P2" if spec.t > 1 else "P2"
    if isinstance(spec, TriplePath):
        return f"{spec.k}P3" if spec.k > 1 else "P3"
    if isinstance(spec, Union):
        return "+".join(family_name(p) for p in spec.parts)
    raise TypeError(f"not a pattern spec: {spec!r}")


def parse_family(text: str) -> PatternSpec:
    """Parse the family mini-grammar.

    A term is ``[mult]P<v>`` or ``[mult]C<k>`` where ``P<v>`` is the path on
    ``v`` vertices and ``C<k>`` the cycle on ``k`` vertices; ``mult`` repeats
    the term as disjoint copies.  Terms are joined with ``+``: ``C3+2P2`` is a
    triangle plus two disjoint edges.
    """
    parts: list[PatternSpec] = []
    for token in text.split("+"):
        token = token.strip()
        if not token:
            raise ValueError(f"empty term in family {text!r}")
        head = token[0].upper()
        mult = 1
        rest = token
        if head.isdigit():
            i = 0
            while i < len(token) and token[i].isdigit():
                i += 1
            mult = int(token[:i])
            rest = token[i:]
            if mult < 1:
                raise ValueError(f"multiplicity must be >= 1 in {token!r}")
        if not rest or rest[0].upper() not in "PC" or not rest[1:].isdigit():
            raise ValueError(f"bad family term {token!r}")
        size = int(rest[1:])
        if rest[0].upper() == "P":
            if size < 2:
                raise ValueError(f"P{size} has no edges")
            if size == 2:
                parts.append(Matching(mult))
            elif size == 3:
                parts.append(TriplePath(mult))
            else:
                parts.extend([Path(size - 1)] * mult)
        else:
            parts.extend([Cycle(size)] * mult)
    if len(parts) == 1:
        return parts[0]
    return Union(*parts)


# ---------------------------------------------------------------------------
# Edge-list text format
# ---------------------------------------------------------------------------
#
# First line "n m", then m lines "u v" with 0 <= u < v < n.  UTF-8, LF.

def parse_graph(text: str) -> Graph:
    lines = [ln for ln in text.splitlines()]
    if not lines:
        raise ValueError("empty graph text")
    header = lines[0].split()
    if len(header) != 2:
        raise ValueError(f"bad header line {lines[0]!r}, expected 'n m'")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise ValueError(f"bad header line {lines[0]!r}, expected integers") from None
    body = [ln for ln in lines[1:] if ln.strip()]
    if len(body) != m:
        raise ValueError(f"expected {m} edge lines, found {len(body)}")
    edges = set()
    for ln in body:
        fields = ln.split()
        if len(fields) != 2:
            raise ValueError(f"bad edge line {ln!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"bad edge line {ln!r}") from None
        if u == v:
            raise ValueError(f"loop at vertex {u}")
        if not (0 <= u < v < n):
            raise ValueError(f"edge ({u},{v}) not in range 0 <= u < v < {n}")
        if (u, v) in edges:
            raise ValueError(f"duplicate edge ({u},{v})")
        edges.add((u, v))
    return Graph(n, edges)
