"""Closed-form anti-Ramsey values and bounds, evaluated in exact rationals.

``AR(n, G)`` is the least r such that every edge-coloring of K_n with at
least r colors contains a rainbow copy of G.  For paths, cycles, matchings,
disjoint unions of short paths, and several mixed families there are exact
linear-in-n formulas, valid once n clears a family-specific threshold; below
the threshold some families still have one-sided bounds.

Everything here is pure integer/rational arithmetic (``fractions.Fraction``);
no floats.  Values are reported together with per-bound validity flags rather
than raising outside a validity window, because the raw formula value is
often wanted as data even where it is not a theorem.

The recurring shape is the "linear form"

    value(c, n) = c * (n - (c + 1) / 2)

where the coefficient c is a small function of the family parameters.  The
upper-bound transfer machinery (``transfer_upper_bound``) extends a known
bound for a family with few unit components (single edges or two-edge paths)
to any larger number of components, at the price of a computable threshold on
n (``matching_step_threshold`` / ``triples_step_threshold``).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fractions import Fraction
from math import ceil, comb, floor

from .graphs import (
    Cycle,
    Matching,
    Path,
    PatternSpec,
    TriplePath,
    Union,
    build_pattern,
    family_name,
)


class UnrecognizedFamilyError(ValueError):
    """The pattern is outside the families with known closed forms."""


def linear_form(coeff, n: int) -> Fraction:
    """``coeff * (n - (coeff + 1) / 2)`` as an exact rational."""
    c = Fraction(coeff)
    return c * (Fraction(2 * n) - c - 1) / 2


def _as_int(x: Fraction) -> int:
    if x.denominator != 1:
        raise AssertionError(f"expected an integer value, got {x}")
    return x.numerator


def cover_lower_bound(n: int, cover_size: int, inner_colors: int) -> int:
    """Color count of the two-zone extremal coloring: ``r1*(n-(r1+1)/2) + s``.

    With ``cover_size`` vertices whose incident edges all get fresh colors and
    ``inner_colors`` colors on the remaining clique.  Whenever every vertex
    set of size ``cover_size`` misses more than ``inner_colors`` edges of G
    (see ``qcover``), AR(n, G) exceeds this count by at least one.
    """
    if cover_size < 0 or inner_colors < 0:
        raise ValueError("cover size and color count must be nonnegative")
    if n < cover_size:
        raise ValueError(f"n={n} smaller than cover size {cover_size}")
    # the edges meeting the cover, in ints: C(n,2) - C(n-r1,2) = r1(2n-r1-1)/2
    return comb(n, 2) - comb(n - cover_size, 2) + inner_colors


# ---------------------------------------------------------------------------
# Bound reports
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BoundReport:
    """Lower/upper/exact values for one family at one n.

    ``valid`` flags each present bound: True means n is inside the window
    where the bound is a theorem; False means the value is carried as data
    only.  When ``exact`` is present and valid, ``lower == upper == exact``.
    """

    family: PatternSpec
    n: int
    lower: Fraction | None = None
    upper: Fraction | None = None
    exact: int | None = None
    valid: dict = field(default_factory=dict)
    provenance: tuple[str, ...] = ()


def integer_bounds(report: BoundReport) -> tuple[int | None, int | None]:
    """Best integer bounds for display: ceil the lower, floor the upper."""
    lo = None if report.lower is None else ceil(report.lower)
    hi = None if report.upper is None else floor(report.upper)
    return lo, hi


def _exact_report(spec, n, value: Fraction, window_ok: bool, tags,
                  extra_lower: Fraction | None = None) -> BoundReport:
    v = _as_int(value)
    if window_ok:
        if extra_lower is not None and extra_lower > value:
            raise AssertionError("side lower bound exceeds an in-window exact value")
        return BoundReport(spec, n, lower=value, upper=value, exact=v,
                           valid={"lower": True, "upper": True, "exact": True},
                           provenance=tuple(tags))
    lower = value if extra_lower is None else max(value, extra_lower)
    return BoundReport(spec, n, lower=lower, upper=None, exact=v,
                       valid={"lower": True, "exact": False},
                       provenance=tuple(tags))


# ---------------------------------------------------------------------------
# Single-family closed forms
# ---------------------------------------------------------------------------

def ar_path(n: int, k: int) -> BoundReport:
    """Exact value for the path with ``k >= 2`` edges.

    ``(floor(k/2) - 1) * (n - floor(k/2)/2) + 2 + (k mod 2)``.  For k >= 4
    this is an asymptotic result whose exact small-n cutoff is not pinned
    down, so the report carries a caveat tag and flags neither ``exact`` nor
    ``upper`` valid; the exhaustive oracle is the ground truth at small n.
    Its lower bound is flagged valid at every n: the formula, because the
    cover coloring with floor(k/2) - 1 cover hosts and 1 + (k mod 2) inner
    colors has one color fewer and q_{1 + (k mod 2)}(P) = floor(k/2); and
    ``C(k-1, 2) + 2``, because ``clique_coloring(n, k - 1)`` has one color
    fewer and no rainbow copy: a copy has two vertices off the clique, each
    on its own path edge of the shared color.  That second bound is larger
    on a window of small n (AR(8, P8) >= 17 against the formula's 16), and
    the report then carries the ``path-clique-lower`` tag.  For k = 2 the
    value 2 is elementary.

    For k = 3 the value 3 holds for n >= 5 only.  Two colors never give a
    rainbow 3-edge path.  Three colors force one: if xyz is a rainbow
    triangle, each outside vertex w must have c(wx) = c(yz), c(wy) = c(zx),
    c(wz) = c(xy), and then no color is left for an edge between two outside
    vertices; otherwise a rainbow 2-edge path x-y-z with colors a, b confines
    every edge at x or z to {a, b}, and an edge of a third color, at y or
    between two outside vertices, closes a rainbow 3-edge path.  At n = 4
    the three perfect matchings of K4 in three colors contain no rainbow
    3-edge path, so AR(4, P4) = 4 and the report is not valid.
    """
    if k < 2:
        raise ValueError("need a path with at least 2 edges (single edges are trivial)")
    if n < k + 1:
        raise ValueError(f"n={n} below path vertex count {k + 1}")
    half = k // 2
    value = (half - 1) * (Fraction(2 * n) - half) / 2 + 2 + k % 2
    tags = ["path-closed-form"]
    if k < 4:
        return _exact_report(Path(k), n, value, k != 3 or n >= 5, tags)
    tags.append("large-n-window-unverified")
    clique_lower = Fraction(comb(k - 1, 2) + 2)
    if clique_lower > value:
        tags.append("path-clique-lower")
    return _exact_report(Path(k), n, value, False, tags, extra_lower=clique_lower)


def ar_cycle(n: int, k: int) -> BoundReport:
    """Exact value for the cycle with ``k`` edges, any ``n >= k >= 3``."""
    if k < 3:
        raise ValueError("cycles need at least 3 edges")
    if n < k:
        raise ValueError(f"n={n} below cycle length {k}")
    q, rem = divmod(n, k - 1)
    value = comb(k - 1, 2) * q + (q if rem == 0 else q + 1) + comb(rem, 2)
    return _exact_report(Cycle(k), n, Fraction(value), True, ["cycle-closed-form"])


def ar_matching(n: int, t: int) -> BoundReport:
    """Exact value for ``t >= 2`` disjoint edges, any ``n >= 2t``.

    Two regimes for n >= 2t+1 (constant for small hosts, linear beyond the
    crossover at n = (5t-7)/2, where both expressions agree), and a separate
    pair of cases for perfect matchings (n = 2t).  The perfect-matching value
    is only known for t >= 3.
    """
    if t < 2:
        raise ValueError("need a matching with at least 2 edges")
    if n < 2 * t:
        raise ValueError(f"n={n} below matching vertex count {2 * t}")
    if n == 2 * t:
        if t == 2:
            raise ValueError("no closed form for a perfect matching on 4 vertices")
        if t <= 6:
            value = Fraction((t - 2) * (3 * t + 1), 2) + 2
            tag = "perfect-matching-small"
        else:
            value = Fraction((t - 2) * (2 * t - 3) + 3)
            tag = "perfect-matching-large"
    elif 2 * n <= 5 * t - 7:
        value = Fraction((t - 2) * (2 * t - 3) + 2)
        tag = "matching-constant-regime"
    else:
        value = linear_form(t - 2, n) + 2
        tag = "matching-linear-regime"
    return _exact_report(Matching(t), n, value, True, [tag])


# ---------------------------------------------------------------------------
# Upper-bound transfer machinery
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TransferParams:
    """Inputs of the bound-transfer step.

    The assumed base case: for every ``n >= base_min_n``,

        AR(n, fixed part + base_count units)
            <= (base_count + slope_shift) * (n - (base_count + slope_shift + 1)/2)
               + tail + 1

    where a unit is a single edge (P2 step) or a two-edge path (P3 step).
    The fixed part has ``fixed_vertices`` vertices and ``fixed_edges`` edges.
    """

    fixed_vertices: int
    fixed_edges: int
    base_count: int
    slope_shift: Fraction
    tail: Fraction
    base_min_n: int


def matching_step_threshold(params: TransferParams) -> Fraction:
    """Additive constant g such that the transferred bound holds for
    ``n > (5/2) * count + g`` when appending single-edge units."""
    ell = Fraction(params.fixed_vertices)
    r = Fraction(params.slope_shift)
    s = Fraction(params.tail)
    if params.base_min_n < params.fixed_vertices + 2 * params.base_count:
        raise ValueError("base_min_n below the base family's vertex count")
    denom = params.base_count + 1 + r
    if denom <= 0:
        raise ValueError("degenerate slope: base_count + 1 + slope_shift <= 0")
    floor_term = Fraction(params.base_min_n - 1) - Fraction(5, 2) * params.base_count
    excess = (ell - 1) ** 2 - 3 * (ell - 1) * r + 2 * r * r \
        - params.fixed_edges - s - 1
    if excess >= 0:
        candidate = 3 * ell - Fraction(3, 2) * r - Fraction(5, 2) + excess / denom
    else:
        candidate = Fraction(ceil(6 * ell - 3 * r - 6), 2)
    return max(floor_term, candidate)


def triples_step_threshold(params: TransferParams) -> Fraction:
    """Additive constant g such that the transferred bound holds for
    ``n > 5 * count + g`` when appending two-edge-path units."""
    ell = Fraction(params.fixed_vertices)
    r = Fraction(params.slope_shift)
    s = Fraction(params.tail)
    if params.base_min_n < params.fixed_vertices + 3 * params.base_count:
        raise ValueError("base_min_n below the base family's vertex count")
    denom = params.base_count + r + Fraction(1, 2)
    if denom <= 0:
        raise ValueError("degenerate slope: base_count + slope_shift + 1/2 <= 0")
    floor_term = Fraction(params.base_min_n - 1 - 5 * params.base_count)
    excess = Fraction(1, 2) * (ell - 3 * r - Fraction(1, 2)) ** 2 \
        + ell * ell - params.fixed_edges - s - Fraction(9, 8)
    if excess >= 0:
        candidate = Fraction(floor(3 * ell - 4 * r - 3 + excess / denom))
    else:
        candidate = Fraction(ceil(3 * ell - 4 * r - 4))
    return max(floor_term, candidate)


@dataclass(frozen=True)
class TransferBound:
    value: Fraction
    valid: bool
    threshold: Fraction  # claimed for n strictly above this


def transfer_upper_bound(n: int, count: int, params: TransferParams,
                         step: str = "P2") -> TransferBound:
    """Upper bound ``(count + shift) * (n - (count + shift + 1)/2) + tail + 1``.

    ``step`` selects the unit being appended: "P2" (single edges, threshold
    ``(5/2) * count + g2``) or "P3" (two-edge paths, ``5 * count + g3``).
    Outside the window the value is still returned with ``valid=False``.
    """
    if count < params.base_count:
        raise ValueError(f"count={count} below base_count={params.base_count}")
    if step == "P2":
        threshold = Fraction(5, 2) * count + matching_step_threshold(params)
    elif step == "P3":
        threshold = 5 * count + triples_step_threshold(params)
    else:
        raise ValueError(f"step must be 'P2' or 'P3', got {step!r}")
    value = linear_form(count + params.slope_shift, n) + params.tail + 1
    return TransferBound(value, n > threshold, threshold)


# ---------------------------------------------------------------------------
# Mixed families: recognition and dispatch
# ---------------------------------------------------------------------------

def _path_params(k: int) -> TransferParams:
    """Transfer inputs with the path on ``k`` edges as the fixed part."""
    return TransferParams(k + 1, k, 0, Fraction(k // 2 - 1), Fraction(1 + k % 2), k + 1)


def path_matching_bounds(n: int, k: int, t: int) -> BoundReport:
    """Bound pair for a path with ``k >= 4`` edges plus ``t >= 0`` extra edges.

    Lower: ``(t + ceil(k/2) - 2) * (n - (t + ceil(k/2) - 1)/2) + 2`` for any
    ``n >= 2t + k + 1``.  Upper: the path bound transferred along the P2
    step.  For odd k the two differ by exactly 1.
    """
    if k < 4 or t < 0:
        raise ValueError("need path edges >= 4 and a nonnegative matching part")
    if n < k + 1 + 2 * t:
        raise ValueError(f"n={n} below pattern vertex count {k + 1 + 2 * t}")
    lower = linear_form(t + (k + 1) // 2 - 2, n) + 2
    ub = transfer_upper_bound(n, t, _path_params(k), "P2")
    spec = Union(Path(k), Matching(t)) if t else Path(k)
    return BoundReport(spec, n, lower=lower, upper=ub.value, exact=None,
                       valid={"lower": True, "upper": ub.valid},
                       provenance=("path+matching-pair", "large-n-window-unverified"))


def cycle_matching_bounds(n: int, k: int, t: int) -> BoundReport:
    """Bound pair for a cycle of length ``k >= 4`` plus ``t >= 0`` extra edges.

    Lower as for paths (window ``n >= 2t + k``); upper with the fractional
    coefficient ``t + k/2 + 1/(k-1) - 1``, valid for
    ``n > (5/2) t + (9/4) k - 5/4``.  The upper bound is genuinely
    non-integral; use ``integer_bounds`` for display.
    """
    if k < 4 or t < 0:
        raise ValueError("need cycle length >= 4 and a nonnegative matching part")
    if n < k + 2 * t:
        raise ValueError(f"n={n} below pattern vertex count {k + 2 * t}")
    lower = linear_form(t + (k + 1) // 2 - 2, n) + 2
    x = Fraction(k, 2) + Fraction(1, k - 1)
    upper = linear_form(t + x - 1, n) + x * (x - 1) / 2
    threshold = Fraction(5, 2) * t + Fraction(9, 4) * k - Fraction(5, 4)
    spec = Union(Cycle(k), Matching(t)) if t else Cycle(k)
    return BoundReport(spec, n, lower=lower, upper=upper, exact=None,
                       valid={"lower": True, "upper": n > threshold},
                       provenance=("cycle+matching-pair",))


def ar_family(n: int, spec: PatternSpec) -> BoundReport:
    """Evaluate the recognized family closed form or bound pair at n.

    The pattern is normalized first: single edges (``Matching`` parts and
    ``Path(1)``) count toward the matching part ``t``, two-edge paths
    (``TriplePath`` parts and ``Path(2)``) toward the triple part ``k``, so
    e.g. ``P3 + 2P2`` and ``2P2 + 1P3`` dispatch the same way.  At most one
    longer path or cycle may join them.

    Exact values are flagged valid only when n clears the family's stated
    threshold; the one-sided lower bound from the covering construction is
    valid for every ``n >= |V(pattern)|`` and is always reported.  The
    report's ``family`` is ``spec`` itself on every branch.
    """
    return replace(_family_report(n, spec), family=spec)


def _family_report(n: int, spec: PatternSpec) -> BoundReport:
    """``ar_family``'s dispatch; a branch that delegates to a one-family
    helper keeps that helper's ``family``."""
    g = build_pattern(spec)
    if n < g.n:
        raise ValueError(f"n={n} below pattern vertex count {g.n}")
    unrecognized = UnrecognizedFamilyError(f"no closed form for family {family_name(spec)}")
    t = k = 0
    big = None  # the one path with >= 3 edges or cycle, if any
    for p in spec.parts if isinstance(spec, Union) else (spec,):
        if isinstance(p, Matching):
            t += p.t
        elif isinstance(p, TriplePath):
            k += p.k
        elif p == Path(1):
            t += 1
        elif p == Path(2):
            k += 1
        elif isinstance(p, (Path, Cycle)) and big is None:
            big = p
        else:
            raise unrecognized

    if big is None:
        if k == 0:
            if t == 1:
                return _exact_report(spec, n, Fraction(1), True, ["single-edge-trivial"])
            return ar_matching(n, t)
        if t == 0:
            if k == 1:
                return _exact_report(spec, n, Fraction(2), True, ["two-edge-path-trivial"])
            value = linear_form(k - 1, n) + 2
            clique_lower = (k - 1) * (Fraction(9, 2) * k - 3) + 2
            tags = ["triples-equality"]
            if clique_lower > value:
                tags.append("small-host-clique-lower")
            return _exact_report(spec, n, value, n > 5 * k + 1, tags,
                                 extra_lower=clique_lower if clique_lower > value else None)
        if t == 1:
            return _exact_report(spec, n, linear_form(k - 1, n) + 3, n > 5 * k + 27,
                                 ["edge+triples-equality"])
        if k == 1:
            return _exact_report(spec, n, linear_form(t - 1, n) + 2,
                                 n > Fraction(5, 2) * t + 12, ["p3+matching-equality"])
        threshold = min(5 * k + Fraction(13, 2) * t + 8,
                        Fraction(5, 2) * t + Fraction(19, 2) * k + 7)
        return _exact_report(spec, n, linear_form(k + t - 2, n) + 2,
                             n > threshold, ["matching+triples-equality"])

    if isinstance(big, Cycle):
        if k:
            raise unrecognized
        if t == 0:
            return ar_cycle(n, big.k)
        if big.k == 3:
            return _exact_report(spec, n, linear_form(t, n) + 2,
                                 n > Fraction(5, 2) * t + 6, ["c3+matching-equality"])
        return cycle_matching_bounds(n, big.k, t)

    if k:
        if t:
            raise unrecognized
        ub = transfer_upper_bound(n, k, _path_params(big.k), "P3")
        return _exact_report(spec, n, ub.value, ub.valid,
                             ["path+triples-equality", "large-n-window-unverified"])
    if t == 0:
        return ar_path(n, big.k)
    if big.k == 3:
        return _exact_report(spec, n, linear_form(t, n) + 2,
                             n > Fraction(5, 2) * t + Fraction(23, 2), ["p4+matching-equality"])
    return path_matching_bounds(n, big.k, t)
