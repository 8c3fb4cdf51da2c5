"""Generators for the universe of Delzant polygons.

Hirzebruch trapezoids, corner chopping, seeded random sampling, genericity
perturbation, and the exhaustive parallel-pair census.  Every polygon that
leaves this module is Delzant-valid.
"""

from __future__ import annotations

import random
from fractions import Fraction
from operator import mul
from typing import NamedTuple

from .errors import BudgetExceededError, ChopError, _with_values
from .geometry import Polygon, polygon_from_halfplanes
from .reconstruct import _genericity, _structural_twins, is_generic
from .vectors import Vec2, as_scalar, integer_frame, is_exact


class ChopSpec(NamedTuple):
    """Where and how deep to cut a corner.

    ``depth`` is the lattice length of the new edge; it must be strictly
    smaller than the lattice lengths of both edges at the vertex.
    """

    vertex_index: int
    depth: Fraction


class ZooCensus(NamedTuple):
    """Histogram of parallel-pair counts over a bounded enumeration."""

    edge_count: int
    histogram: dict[int, int]
    total: int


def hirzebruch(m: int, w, h) -> Polygon:
    """The trapezoid (0,0), (w,0), (w,h), (0,h+m*w); a rectangle for m = 0.

    Delzant for every nonnegative integer slope parameter m and positive
    rational width and height.
    """
    _int_at_least(m, 0, "slope parameter m must be a nonnegative integer")
    w = as_scalar(w)
    h = as_scalar(h)
    if w <= 0 or h <= 0:
        raise ValueError("width and height must be positive")
    return Polygon(((0, 0), (w, 0), (w, h), (0, h + m * w)))


def chop(polygon: Polygon, spec: ChopSpec) -> Polygon:
    """Cut the corner at a vertex, at lattice depth ``spec.depth`` along both
    incident edges.

    The new edge has lattice length ``depth`` and its outward normal is the
    sum of the two adjacent outward normals; chopping a Delzant polygon at
    an admissible depth always yields a Delzant polygon.
    """
    d = polygon.edge_count
    i = spec.vertex_index
    if not is_exact(i, int):
        raise ValueError(f"vertex index must be an int, got {type(i).__name__}")
    if not 0 <= i < d:
        raise ChopError(_with_values(
            lambda: f"vertex index {i} out of range for a {d}-gon",
            f"vertex index out of range for a {d}-gon",
        ))
    depth = as_scalar(spec.depth)
    if depth <= 0:
        raise ChopError("chop depth must be positive")
    incoming = polygon.edges[(i - 1) % d]
    outgoing = polygon.edges[i]
    for edge, where in ((incoming, f"edge {(i - 1) % d} into vertex {i}"), (outgoing, f"edge {i} out of vertex {i}")):
        if depth >= edge.lattice_length:
            raise ChopError(_with_values(
                lambda: f"depth {depth} is not below the lattice length {edge.lattice_length} of {where}",
                f"depth is not below the lattice length of {where}",
            ))
    v = polygon.vertices[i]
    a = v - incoming.direction * depth
    b = v + outgoing.direction * depth
    return Polygon(polygon.vertices[:i] + (a, b) + polygon.vertices[i + 1:])


def _random_unimodular(rng: random.Random, bound: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """A small random SL(2, Z) matrix built from one or two shears."""
    bound = max(1, min(bound, 3))
    mat = ((1, 0), (0, 1))
    for _ in range(rng.randint(1, 2)):
        k = rng.randint(-bound, bound)
        if rng.random() < 0.5:
            shear = ((1, k), (0, 1))
        else:
            shear = ((1, 0), (k, 1))
        mat = (
            (mat[0][0] * shear[0][0] + mat[0][1] * shear[1][0],
             mat[0][0] * shear[0][1] + mat[0][1] * shear[1][1]),
            (mat[1][0] * shear[0][0] + mat[1][1] * shear[1][0],
             mat[1][0] * shear[0][1] + mat[1][1] * shear[1][1]),
        )
    return mat


def _int_at_least(value, low: int, what: str) -> int:
    if not is_exact(value, int) or value < low:
        raise ValueError(_with_values(lambda: f"{what}, got {value!r}", what))
    return value


def random_delzant(d: int, seed: int, param_bound: int = 5, twist: bool = False) -> Polygon:
    """A seeded random Delzant d-gon.

    Triangles are bounded unimodular images of a scaled standard simplex;
    quadrilaterals are Hirzebruch trapezoids; anything larger is a
    trapezoid with d - 4 random admissible chops.  Deterministic for a
    fixed argument tuple.  ``twist`` applies an extra random unimodular
    map (off by default to keep coordinates small).

    The result is Delzant by construction: the scaled standard simplex and
    every Hirzebruch trapezoid are, an SL(2, Z) map keeps every vertex
    determinant, and each chop cuts at a proper fraction of the shorter
    edge at its vertex, an admissible depth (see :func:`chop`).
    """
    _int_at_least(d, 3, "a polygon needs at least 3 edges: d must be an integer >= 3")
    if not is_exact(seed, int):
        raise ValueError(f"seed must be an integer, got {seed!r}")
    bound = _int_at_least(param_bound, 1, "parameter bound must be a positive integer")
    rng = random.Random(seed)
    if d == 3:
        k = Fraction(rng.randint(1, bound))
        polygon = Polygon(((0, 0), (k, 0), (0, k))).transform(_random_unimodular(rng, bound))
    else:
        polygon = hirzebruch(rng.randint(0, bound), rng.randint(1, bound), rng.randint(1, bound))
        for _ in range(d - 4):
            i = rng.randrange(polygon.edge_count)
            shortest = min(
                polygon.edges[(i - 1) % polygon.edge_count].lattice_length,
                polygon.edges[i].lattice_length,
            )
            denom = rng.randint(2, 4)
            depth = shortest * Fraction(rng.randint(1, denom - 1), denom)
            polygon = chop(polygon, ChopSpec(i, depth))
        if twist:
            polygon = polygon.transform(_random_unimodular(rng, bound))
    return polygon


_PERTURB_BASE = Fraction(1, 64)


def _lattice_lengths(normals: list[Vec2], offsets: list) -> list:
    """Per edge ``i`` of the lines ``x . normals[i] = offsets[i]`` (the
    normals of a convex polygon, counterclockwise), its signed lattice
    length times ``a b``, where ``a = n[i-1] x n[i] > 0`` and ``b = n[i] x
    n[i+1] > 0``.  Edge ``i`` runs along line ``i`` from line ``i - 1`` to
    line ``i + 1``, so this is ``c[i+1] a + c[i-1] b - c[i] (n[i-1] x
    n[i+1])``.  The half-planes bound a polygon with these normals exactly
    when every entry is positive; on a smooth fan (a = b = 1) the entries
    are the lattice lengths."""
    d = len(normals)
    return [
        offsets[(i + 1) % d] * normals[i - 1].cross(normals[i])
        + offsets[i - 1] * normals[i].cross(normals[(i + 1) % d])
        - offsets[i] * normals[i - 1].cross(normals[(i + 1) % d])
        for i in range(d)
    ]


def perturb_generic(polygon: Polygon, budget: int = 24) -> Polygon:
    """Shift the support offsets by small rationals until the polygon is
    generic, keeping the normal fan (hence the parallel-pair count) intact.

    Already-generic input is returned unchanged.  The step size starts at
    1/64 and halves on every retry, with deterministic pseudo-random
    multipliers per edge, so results are reproducible.

    An attempt is settled in integers first, without building its polygon.
    Its edges' lattice lengths are linear in the shifted offsets through
    the fan (:func:`_lattice_lengths`); when one is not positive, the
    half-planes bound no polygon with this fan and the attempt is skipped.
    A source with two or three parallel pairs may have structural twins
    (:func:`reconstruct._structural_twins`): emitting branches that meet
    the area of every polygon with this fan.  Where enough of them have
    strictly admissible splits, a linear test on the lengths, the attempt
    is not generic and is skipped.  Only the other attempts build their
    polygon and run :func:`is_generic`.  Every skip is exact, so the
    result, or the error and its ``partial`` (the polygon of the last
    attempt that bounds one), is the same as with a full test per attempt.
    """
    _int_at_least(budget, 0, "budget must be a nonnegative integer")
    report, branches = _genericity(polygon)
    if report:
        return polygon
    d = polygon.edge_count
    normals = [e.normal for e in polygon.edges]
    common, frame = integer_frame([normals[i].dot(polygon.vertices[i]) for i in range(d)])
    need, twins = _structural_twins(polygon, branches)

    def build(cs: list[int], attempt: int) -> Polygon:
        step_den = common * (_PERTURB_BASE.denominator << attempt)
        return polygon_from_halfplanes(normals, [Fraction(c, step_den) for c in cs])

    # The last attempt that bounds a polygon, and that polygon once built.
    last = candidate = None
    for attempt in range(budget):
        rng = random.Random(attempt)
        moves = [rng.randint(0, 7) for _ in range(d)]
        # The shifted offsets times common / step.
        cs = [c * (_PERTURB_BASE.denominator << attempt) + k * common for c, k in zip(frame, moves)]
        lengths = _lattice_lengths(normals, cs)
        if min(lengths) <= 0:
            # polygon_from_halfplanes raises StructuralPolygonError here.
            continue
        last, candidate = (cs, attempt), None
        # Twins exist only on a smooth fan, where these are the lattice lengths
        # times common / step, and their forms are homogeneous.
        if sum(weight for weight, forms in twins if all(sum(map(mul, f, lengths)) > 0 for f in forms)) >= need:
            continue
        candidate = build(cs, attempt)
        if is_generic(candidate):
            return candidate
    if candidate is None and last is not None:
        candidate = build(*last)
    raise BudgetExceededError(f"no generic perturbation found in {budget} attempts", partial=candidate)


def parallel_pair_census(d: int, param_bound: int, max_instances: int = 5_000_000) -> ZooCensus:
    """Exhaustive census of bounded-parameter chopped trapezoids with d edges.

    Enumerates every Hirzebruch base with integer slope 0..bound and integer
    sides 1..bound, then every sequence of d - 4 corner chops at integer
    depths 1..bound (strictly below both incident lattice lengths), and
    histograms the number of parallel pairs.  Each parametrized instance
    counts once; the reported fractions are relative to this grid, not to
    any continuous measure.

    The count runs over states (normals, lattice lengths), memoized per base,
    with the last chop counted per corner.  A subtree that would cross
    ``max_instances`` is walked leaf by leaf, so the ``partial`` is exact.
    """
    _int_at_least(d, 4, "the census starts at quadrilaterals: d must be an integer >= 4")
    _int_at_least(max_instances, 0, "max_instances must be a nonnegative integer")
    bound = _int_at_least(param_bound, 1, "parameter bound must be a positive integer")
    histogram: dict[int, int] = {}
    total = 0
    memo: dict[tuple, dict[int, int]] = {}

    def merge(into: dict, sub: dict, shift: int):
        for added, n in sub.items():
            into[shift + added] = into.get(shift + added, 0) + n

    def corners(normals: tuple, lengths: tuple):
        """Each choppable corner: index, new normal, pairs up?, deepest chop."""
        for i in range(len(normals)):
            deepest = min(lengths[i - 1], lengths[i], bound + 1) - 1
            if deepest:
                n_new = (normals[i - 1][0] + normals[i][0], normals[i - 1][1] + normals[i][1])
                # A chop removes no edge; its new normal pairs up exactly
                # when the opposite normal is already there.
                yield i, n_new, (-n_new[0], -n_new[1]) in normals, deepest

    def children(normals: tuple, lengths: tuple):
        for i, n_new, paired, deepest in corners(normals, lengths):
            new_normals = normals[:i] + (n_new,) + normals[i:]
            for t in range(1, deepest + 1):
                # Shorten both incident edges, insert the new one at i.
                new_lengths = list(lengths)
                new_lengths[i - 1] -= t
                new_lengths[i] -= t
                new_lengths.insert(i, t)
                yield new_normals, tuple(new_lengths), paired

    def below(normals: tuple, lengths: tuple, remaining: int) -> dict[int, int]:
        """Leaf counts by pairs added below a state, in first-leaf order."""
        if remaining == 1:
            sub: dict[int, int] = {}
            for _, _, paired, deepest in corners(normals, lengths):
                sub[paired] = sub.get(paired, 0) + deepest
            return sub
        sub = memo.get((normals, lengths))
        if sub is None:
            sub = memo[normals, lengths] = {}
            for child_normals, child_lengths, paired in children(normals, lengths):
                merge(sub, below(child_normals, child_lengths, remaining - 1), paired)
        return sub

    def add(normals: tuple, lengths: tuple, remaining: int, pairs: int):
        nonlocal total
        sub = below(normals, lengths, remaining) if remaining else {0: 1}
        size = sum(sub.values())
        if remaining and total + size > max_instances:
            for child_normals, child_lengths, paired in children(normals, lengths):
                add(child_normals, child_lengths, remaining - 1, pairs + paired)
            return
        merge(histogram, sub, pairs)
        total += size
        if total > max_instances:
            raise BudgetExceededError(
                f"census exceeded {max_instances} instances",
                partial=ZooCensus(d, dict(histogram), total),
            )

    for m in range(0, bound + 1):
        for w in range(1, bound + 1):
            for h in range(1, bound + 1):
                memo.clear()  # states almost never repeat across bases
                base_normals = ((0, -1), (1, 0), (m, 1), (-1, 0))
                base_lengths = (w, h, w, h + m * w)
                add(base_normals, base_lengths, d - 4, 2 if m == 0 else 1)
    return ZooCensus(edge_count=d, histogram=dict(sorted(histogram.items())), total=total)
