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


def _last_two_chops(normals: tuple, lengths: tuple, cap: int) -> dict[int, int]:
    """Leaf counts by pairs added by the last two chops below a census
    state, in first-leaf order.

    ``normals`` are integer codes (see :func:`parallel_pair_census`),
    ``lengths`` the lattice lengths of the edges, and a corner whose edges
    have lengths ``a`` and ``b`` can be chopped to depths 1..``min(a, b,
    cap) - 1``.  Only the live corners, those of depth at least 1, get a
    new normal, a pairing flag and an entry in ``corner_of``; a state with
    none has no leaves.  Lengths only shrink below a state, so a dead
    corner is dead in every child too: it adds no leaf, and its flag, read
    only where its depth weighs or gates it, never counts.  A chop at
    corner ``i`` changes four corners of its child: ``i - 1`` and ``i +
    1``, whose edges it shortens, and the two new corners that replace
    ``i``.  Every other corner keeps its depth, and its flag turns on only
    if its new normal is minus the chop's.  So with the depth totals by
    flag, each (corner, depth) is counted in O(1).
    """
    k = len(normals)
    # A depth min(a, b, cap) - 1 is at least 1 exactly when a, b > 1 (cap >= 2).
    live = [j for j in range(k) if lengths[j - 1] > 1 < lengths[j]]
    if not live:
        return {}
    capped = [n if n < cap else cap for n in lengths]
    present = set(normals)
    depth = [0] * k
    flag = [False] * k
    new = []
    all_leaves = paired_leaves = 0
    for j in live:
        a, b = capped[j - 1], capped[j]
        leaves = depth[j] = (a if a < b else b) - 1
        all_leaves += leaves
        c = normals[j - 1] + normals[j]
        new.append(c)
        if -c in present:
            flag[j] = True
            paired_leaves += leaves
    # Each corner's new normal differs from the others' (they lie strictly
    # between the corner's two edge normals), so at most one pairs with -c.
    corner_of = dict(zip(new, live))
    sub: dict[int, int] = {}
    for i, c in zip(live, new):
        deepest = depth[i]
        h, j = (i - 1) % k, (i + 1) % k
        p = flag[i]
        match = corner_of.get(-c)
        fh = flag[h] or match == h
        fj = flag[j] or match == j
        fa = -(normals[i - 1] + c) in present
        fb = -(c + normals[i]) in present
        # Leaves, and paired leaves, of the corners the chop leaves alone.
        rest = all_leaves - depth[h] - deepest - depth[j]
        rest1 = paired_leaves - flag[h] * depth[h] - p * deepest - flag[j] * depth[j]
        if match is not None and match not in (h, j) and not flag[match]:
            rest1 += depth[match]
        l_in, l_out = lengths[h], lengths[i]
        top_h, top_j = capped[h - 1], capped[j]
        for t in range(1, deepest + 1):
            l_a, l_b = l_in - t, l_out - t
            dh = (l_a if l_a < top_h else top_h) - 1
            da = (l_a if l_a < t else t) - 1
            db = (l_b if l_b < t else t) - 1
            dj = (l_b if l_b < top_j else top_j) - 1
            n1 = rest1 + fh * dh + fa * da + fb * db + fj * dj
            n0 = rest + dh + da + db + dj - n1
            if n0 and n1 and p not in sub and p + 1 not in sub:
                # Both keys are new: the child's first corner with a leaf
                # decides which goes in first.
                child = [(depth[x], flag[x] or x == match) for x in range(k)]
                child[h], child[j] = (dh, fh), (dj, fj)
                child[i:i + 1] = [(da, fa), (db, fb)]
                first = next(f for leaves, f in child if leaves)
                if first:
                    sub[p + 1], sub[p] = n1, n0
                else:
                    sub[p], sub[p + 1] = n0, n1
            else:
                if n0:
                    sub[p] = sub.get(p, 0) + n0
                if n1:
                    sub[p + 1] = sub.get(p + 1, 0) + n1
    return sub


def parallel_pair_census(d: int, param_bound: int, max_instances: int = 5_000_000) -> ZooCensus:
    """Exhaustive census of bounded-parameter chopped trapezoids with d edges.

    Enumerates every Hirzebruch base with integer slope 0..bound and integer
    sides 1..bound, then every sequence of d - 4 corner chops at integer
    depths 1..bound (strictly below both incident lattice lengths), and
    histograms the number of parallel pairs.  Each parametrized instance
    counts once; the reported fractions are relative to this grid, not to
    any continuous measure.

    The count runs over states (normals, lattice lengths), memoized per base.
    A normal ``(x, y)`` is carried as the integer ``x * K + y`` with ``K =
    (bound + 1) << (d - 2)``, so sums and negatives of normals are sums and
    negatives of codes.  Each chop adds two existing normals, so no normal
    formed or tested has a coordinate above ``bound * 2**(d - 4)`` in size,
    and ``K`` is more than twice that: the code is one-to-one.  A state two
    chops above the leaves is counted from its live corners, in O(1) per
    (corner, depth) of its first chop (:func:`_last_two_chops`); a state
    one chop above them, per corner.  Every state's histogram lists its
    keys in the order a leaf-by-leaf walk first reaches them, so a budget's
    ``partial`` has that order too; the returned histogram is sorted.

    A base is counted once per mirror orbit of its corners.  The lattice
    reflection ``(x, y) -> (x, h + m*w - m*x - y)`` of the trapezoid swaps
    its bottom and slanted edges, so it maps corner 3 to corner 0 and
    corner 2 to corner 1, depths and pairing flags included; on a
    rectangle ``(x, y) -> (w - x, y)`` also maps corner 1 to corner 0.  A
    mirrored first chop's subtree has the pair counts of its twin's, so the
    base's histogram is that of the first chops at corners 0 and 1 (at
    corner 0 on a rectangle) times 2 (times 4).  A twin's subtree has the
    keys of the corner it mirrors and is merged after it, so it adds no
    key: the key order is that of all four corners.  On (9, 5) this cuts the calls of
    ``_last_two_chops`` from 6768 to 6253.  With live corners only there,
    the benchmark's grid (d = 6..9, bound 3..5) runs in 0.59 times the time
    of a census that chops every corner of a base and tables every corner
    of a state (best of 15 in process, 144 against 245 ms; Intel Xeon,
    Python 3.11.7).

    A subtree that would cross ``max_instances`` is walked leaf by leaf, all
    four corners of a base included, so the ``partial`` is exact.  The
    budget bounds the instances counted, not the work: a base's whole
    subtree is counted before the budget is compared, so a large ``d`` or
    bound can run long under a small budget.
    """
    _int_at_least(d, 4, "the census starts at quadrilaterals: d must be an integer >= 4")
    _int_at_least(max_instances, 0, "max_instances must be a nonnegative integer")
    bound = _int_at_least(param_bound, 1, "parameter bound must be a positive integer")
    cap = bound + 1
    K = cap << (d - 2)
    histogram: dict[int, int] = {}
    total = 0
    memo: dict[tuple, dict[int, int]] = {}

    def merge(into: dict, sub: dict, shift: int):
        for added, n in sub.items():
            into[shift + added] = into.get(shift + added, 0) + n

    def children(normals: tuple, lengths: tuple, corners: int):
        """The chops at corners ``0 .. corners - 1``, in enumeration order."""
        for i in range(corners):
            deepest = min(lengths[i - 1], lengths[i], cap) - 1
            if deepest:
                n_new = normals[i - 1] + normals[i]
                new_normals = normals[:i] + (n_new,) + normals[i:]
                # A chop removes no edge; its new normal pairs up exactly
                # when the opposite normal is already there.
                paired = -n_new in normals
                for t in range(1, deepest + 1):
                    # Shorten both incident edges, insert the new one at i.
                    new_lengths = list(lengths)
                    new_lengths[i - 1] -= t
                    new_lengths[i] -= t
                    new_lengths.insert(i, t)
                    yield new_normals, tuple(new_lengths), paired

    def below(normals: tuple, lengths: tuple, remaining: int) -> dict[int, int]:
        """Leaf counts by pairs added below a state, in first-leaf order."""
        if remaining < 2:
            if not remaining:
                return {0: 1}
            sub: dict[int, int] = {}
            for i in range(len(normals)):
                deepest = min(lengths[i - 1], lengths[i], cap) - 1
                if deepest:
                    paired = -(normals[i - 1] + normals[i]) in normals
                    sub[paired] = sub.get(paired, 0) + deepest
            return sub
        sub = memo.get((normals, lengths))
        if sub is None:
            if remaining == 2:
                sub = memo[normals, lengths] = _last_two_chops(normals, lengths, cap)
            else:
                sub = memo[normals, lengths] = {}
                for child_normals, child_lengths, paired in children(normals, lengths, len(normals)):
                    merge(sub, below(child_normals, child_lengths, remaining - 1), paired)
        return sub

    def add(normals: tuple, lengths: tuple, remaining: int, pairs: int, sub: dict[int, int]):
        """Count ``sub``, the histogram below a state, or walk the state's
        children if it would cross the budget."""
        nonlocal total
        size = sum(sub.values())
        if remaining and total + size > max_instances:
            for child_normals, child_lengths, paired in children(normals, lengths, len(normals)):
                below_child = below(child_normals, child_lengths, remaining - 1)
                add(child_normals, child_lengths, remaining - 1, pairs + paired, below_child)
            return
        merge(histogram, sub, pairs)
        total += size
        if total > max_instances:
            raise BudgetExceededError(
                f"census exceeded {max_instances} instances",
                partial=ZooCensus(d, dict(histogram), total),
            )

    for m in range(0, bound + 1):
        # Corners 0 and 3 of a base are mirror images, as are corners 1 and
        # 2; on a rectangle, so are corners 0 and 1.
        twins = 4 if m == 0 else 2
        for w in range(1, bound + 1):
            for h in range(1, bound + 1):
                memo.clear()  # states almost never repeat across bases
                # The normals (0, -1), (1, 0), (m, 1), (-1, 0).
                base_normals = (-1, K, m * K + 1, -K)
                base_lengths = (w, h, w, h + m * w)
                sub = {0: 1}
                if d > 4:
                    sub = {}
                    for child_normals, child_lengths, paired in children(base_normals, base_lengths, 4 // twins):
                        merge(sub, below(child_normals, child_lengths, d - 5), paired)
                    sub = {added: twins * n for added, n in sub.items()}
                add(base_normals, base_lengths, d - 4, 2 if m == 0 else 1, sub)
    return ZooCensus(edge_count=d, histogram=dict(sorted(histogram.items())), total=total)
