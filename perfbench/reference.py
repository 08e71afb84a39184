"""The benchmark's own reference code, independent of the library under test.

Everything the correctness gate trusts lives here: an edge-list maker for
the family mini-grammar, a witness checker for rainbow copies, a brute-force
q_j with a min-plus convolution over components, and a placement counter.
It is plain loops over small objects and never imports ``antiramsey``.
"""

from __future__ import annotations

from itertools import combinations, permutations


class CheckFailed(AssertionError):
    """The library returned a wrong answer (or a bench input is invalid)."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def family_edges(text: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Vertex count and sorted edges of a family like ``P4+2P3`` or ``C3+1P2``.

    Terms are laid out in order on consecutive vertex blocks: ``P<v>`` is the
    path on v vertices, ``C<k>`` the cycle on k vertices, a leading count
    repeats the term.  This is the layout the library documents for
    ``build_pattern(parse_family(text))``, rebuilt here from the grammar.
    """
    n = 0
    edges = []
    for term in text.split("+"):
        digits = len(term) - len(term.lstrip("0123456789"))
        mult = int(term[:digits]) if digits else 1
        kind, size = term[digits], int(term[digits + 1:])
        for _ in range(mult):
            edges += [(n + i, n + i + 1) for i in range(size - 1)]
            if kind == "C":
                edges.append((n, n + size - 1))
            n += size
    return n, tuple(sorted(edges))


def relabel(edges, perm) -> tuple[tuple[int, int], ...]:
    """Edges renamed by ``v -> perm[v]``, normalized and sorted."""
    return tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))


def edge_rank(n: int, u: int, v: int) -> int:
    """Rank of edge {u, v} in the lexicographic edge order of K_n."""
    if u > v:
        u, v = v, u
    return u * (2 * n - u - 1) // 2 + (v - u - 1)


def is_rainbow_copy(n: int, colors, edges, image) -> bool:
    """Is ``image`` an injective map into K_n under which ``edges`` get
    pairwise distinct colors?"""
    if len(set(image)) != len(image) or not all(0 <= h < n for h in image):
        return False
    seen = {colors[edge_rank(n, image[u], image[v])] for u, v in edges}
    return len(seen) == len(edges)


def has_rainbow_copy(n: int, colors, num_vertices: int, edges) -> bool:
    """Scan every injective map of the pattern into K_n."""
    return any(is_rainbow_copy(n, colors, edges, image)
               for image in permutations(range(n), num_vertices))


def count_placements(n: int, num_vertices: int, edges) -> int:
    """Distinct edge sets of copies of the pattern in K_n (the oracle's
    per-node rainbow tests draw from these)."""
    touched = sorted({v for e in edges for v in e})
    pos = {v: i for i, v in enumerate(touched)}
    return len({frozenset(edge_rank(n, image[pos[u]], image[pos[v]]) for u, v in edges)
                for image in permutations(range(n), len(touched))})


def uncovered(edges, cover) -> int:
    chosen = set(cover)
    return sum(1 for u, v in edges if u not in chosen and v not in chosen)


def _components(edges) -> list[tuple[tuple[int, int], ...]]:
    """Edge sets of the connected components, each relabeled onto 0..k-1."""
    parent: dict[int, int] = {}

    def find(x):
        while parent.setdefault(x, x) != x:
            x = parent[x]
        return x

    for u, v in edges:
        parent[find(u)] = find(v)
    groups: dict[int, list] = {}
    for e in edges:
        groups.setdefault(find(e[0]), []).append(e)
    out = []
    for comp in groups.values():
        verts = sorted({v for e in comp for v in e})
        pos = {v: i for i, v in enumerate(verts)}
        out.append(relabel(comp, pos))
    return out


class QProfiles:
    """q_j of a graph as the min-plus convolution of per-component profiles.

    A component's profile ``p[j]`` (smallest cover leaving <= j of its edges
    uncovered) is found by scanning every vertex subset, so components must
    stay small; profiles are cached by component shape.
    """

    def __init__(self):
        self._cache: dict[tuple, list[int]] = {}

    def _profile(self, comp) -> list[int]:
        prof = self._cache.get(comp)
        if prof is None:
            k = 1 + max(v for e in comp for v in e)
            best = [k] * (len(comp) + 1)  # best[u]: smallest set leaving exactly u
            for size in range(k + 1):
                for subset in combinations(range(k), size):
                    u = uncovered(comp, subset)
                    best[u] = min(best[u], size)
            prof = [min(best[:j + 1]) for j in range(len(comp) + 1)]
            self._cache[comp] = prof
        return prof

    def q(self, edges, j: int) -> int:
        """q_j of the graph with these edges (isolated vertices never help)."""
        total = [0] * (j + 1)  # total[s]: best cover of the components so far with slack s
        for comp in _components(edges):
            prof = self._profile(comp)
            total = [min(total[s - t] + prof[min(t, len(prof) - 1)] for t in range(s + 1))
                     for s in range(j + 1)]
        return total[j]
