"""The inverse map: finite candidate sets from hearable data, and exact
half-space rebuilds.

Reconstruction is exact.  From spectral data it enumerates which normal
classes are doubled, the signs of the class representatives, and the
length splits inside each parallel pair.  Each branch is decided in a fixed
order: integer closure (a small linear system; with three pairs a
one-parameter family is left, whose area is an integer quadratic summed
along the branch's normal fan and solved exactly against the data's area),
then the signed normal fan (convex and smooth, by integer determinants),
then the area of the chained edges, and only then verification of the one
polygon it can bound, which must be Delzant and reproduce the input data
exactly.
:func:`build_most_obtuse` is the paper's per-branch builder; the tests use
it as the reference for the enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import gcd, isqrt, lcm
from typing import NamedTuple, Sequence, Union

from .errors import (
    DegenerateFamilyError,
    InconsistentSystemError,
    ReconstructionInfeasibleError,
    StructuralPolygonError,
    UnsupportedAmbiguityError,
)
from .geometry import Polygon, detect_subpolygons, polygon_from_halfplanes, validate_delzant
from .polytope3 import Polytope3
from .spectral import HalfSpaceSystem, SpectralData, spectral_data
from .vectors import Vec2, Vec3, canonical_unsigned, is_primitive_integer


@dataclass(frozen=True)
class SignedEdgeList:
    """Edge vectors known to bound a convex polygon, with an anchor side.

    ``edges[0]`` is the starting edge and ``anchor_normal`` the side of it
    that must face outward.
    """

    edges: tuple[Vec2, ...]
    anchor_normal: Vec2

    def __post_init__(self):
        if len(self.edges) < 3:
            raise ReconstructionInfeasibleError("need at least three edges")
        total = Vec2(0, 0)
        for e in self.edges:
            if e.is_zero():
                raise ReconstructionInfeasibleError("zero edge vector")
            total = total + e
        if not total.is_zero():
            raise ReconstructionInfeasibleError("edge vectors do not close up")
        if self.anchor_normal.is_zero() or self.anchor_normal.dot(self.edges[0]) != 0:
            raise ReconstructionInfeasibleError("anchor normal must be nonzero and orthogonal to the first edge")


def _chain_polygon(ordered: Sequence[Vec2]) -> Polygon:
    vertices = [Vec2(Fraction(0), Fraction(0))]
    for e in ordered[:-1]:
        vertices.append(vertices[-1] + e)
    try:
        return Polygon(vertices)
    except StructuralPolygonError as exc:
        raise ReconstructionInfeasibleError(f"edges admit no convex ordering: {exc}") from exc


def build_most_obtuse(edge_list: SignedEdgeList) -> Polygon:
    """Greedy most-obtuse-angle construction of the unique convex polygon.

    Starting from the anchored first edge, repeatedly append the unused edge
    in the forward half-plane whose interior angle with the previous edge is
    most obtuse, i.e. whose direction turns the least.  Comparisons are
    exact cross products, so edges of wildly different lengths are handled
    uniformly.  This is the reference builder: :func:`enumerate_candidates`
    reaches the same outcome for every traced branch without calling it.
    """
    e1 = edge_list.edges[0]
    # The CCW outward normal of e1 is its -90 degree rotation; if the anchor
    # sits on the other side the traversal runs clockwise instead.
    side = e1.perp_cw().cross(edge_list.anchor_normal)
    if side != 0:
        raise ReconstructionInfeasibleError("anchor normal is not perpendicular to the first edge")
    orient = 1 if e1.perp_cw().dot(edge_list.anchor_normal) > 0 else -1
    pool = list(edge_list.edges[1:])
    ordered = [e1]
    prev = e1
    while pool:
        best = None
        for e in pool:
            if orient * prev.cross(e) <= 0:
                continue
            if best is None:
                best = e
            else:
                turn = orient * e.cross(best)
                if turn == 0:
                    raise ReconstructionInfeasibleError("two edges share a direction; not strictly convex")
                if turn > 0:
                    best = e
        if best is None:
            raise ReconstructionInfeasibleError("no admissible next edge; vectors do not bound a convex polygon")
        ordered.append(best)
        pool.remove(best)
        prev = best
    return _chain_polygon(ordered)


def angle_sort_oracle(edge_list: SignedEdgeList) -> Polygon:
    """Independent construction by polar-angle sort, for cross-checking.

    Sorts all edges by angle starting from the first edge's direction, in
    the orientation chosen by the anchor normal, then chains them.
    """
    e1 = edge_list.edges[0]
    orient = 1 if e1.perp_cw().dot(edge_list.anchor_normal) > 0 else -1

    def bucket(v: Vec2) -> int:
        c = orient * e1.cross(v)
        if c > 0:
            return 1
        if c < 0:
            return 3
        return 0 if e1.dot(v) > 0 else 2

    def compare(a: Vec2, b: Vec2) -> int:
        ba, bb = bucket(a), bucket(b)
        if ba != bb:
            return -1 if ba < bb else 1
        if ba in (0, 2):
            if a.cross(b) == 0:
                raise ReconstructionInfeasibleError("two edges share a direction; not strictly convex")
            return 0
        c = orient * a.cross(b)
        if c == 0:
            raise ReconstructionInfeasibleError("two edges share a direction; not strictly convex")
        return -1 if c > 0 else 1

    ordered = sorted(edge_list.edges, key=cmp_to_key(compare))
    return _chain_polygon(ordered)


class AssignmentRecord(NamedTuple):
    """One explored branch of the candidate enumeration."""

    doubled: tuple[tuple[int, int], ...]          # unsigned normals of the doubled classes
    signs: tuple[int, ...]                        # sign per class representative
    splits: tuple[tuple[Fraction, Fraction], ...]  # (length+, length-) per doubled class
    parameter: Fraction | None                    # three-pair parameter, when used
    anchor: int                                   # +1 / -1; 0 when the branch died earlier
    outcome: str
    candidate_index: int | None


@dataclass(frozen=True)
class CandidateSet:
    """Canonical-form candidates together with the full assignment trace."""

    candidates: tuple[Polygon, ...]
    trace: tuple[AssignmentRecord, ...]

    def __len__(self) -> int:
        return len(self.candidates)

    def __iter__(self):
        return iter(self.candidates)

    def __contains__(self, polygon: Polygon) -> bool:
        key = polygon.canonical_key()
        return any(c.canonical_key() == key for c in self.candidates)


def _rational_sqrt(value: Fraction) -> Fraction | None:
    if value < 0:
        return None
    num, den = value.numerator, value.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def _quadratic_roots(b2, b1, b0) -> list[Fraction]:
    """Rational roots of b2 x^2 + b1 x + b0 = 0, ascending (empty if none);
    the coefficients are ``int`` or ``Fraction``."""
    if b2 == 0:
        if b1 == 0:
            return []
        return [Fraction(-b0, b1)]
    disc = b1 * b1 - 4 * b2 * b0
    root = _rational_sqrt(disc)
    if root is None:
        return []
    if root == 0:
        return [Fraction(-b1, 2 * b2)]
    return sorted([Fraction(-b1 - root, 2 * b2), Fraction(-b1 + root, 2 * b2)])


def _angle_order(directions: Sequence[Vec2]) -> list[int]:
    """Indices sorted counterclockwise by direction angle, from (1, 0)."""
    ref = Vec2(1, 0)

    def bucket(v: Vec2) -> int:
        c = ref.cross(v)
        if c == 0:
            return 0 if v.x > 0 else 2
        return 1 if c > 0 else 3

    def compare(i: int, j: int) -> int:
        a, b = directions[i], directions[j]
        ba, bb = bucket(a), bucket(b)
        if ba != bb:
            return -1 if ba < bb else 1
        c = a.cross(b)
        if c == 0:
            return 0
        return -1 if c > 0 else 1

    return sorted(range(len(directions)), key=cmp_to_key(compare))


def _chain(edges: Sequence[Vec2]) -> tuple[list[tuple], Fraction | int]:
    """Vertices 0, e0, e0+e1, ... of a chain of edges, with twice its
    signed shoelace area (no validity check)."""
    points = []
    x = y = twice = 0
    for e in edges:
        points.append((x, y))
        nx, ny = x + e.x, y + e.y
        twice += x * ny - nx * y
        x, y = nx, ny
    return points, twice


@dataclass(frozen=True)
class ThreePairFamily:
    """The one-parameter family of a three-parallel-pair configuration.

    Edge directions stay fixed along the family; only the length splits
    inside the doubled classes move, as ``delta(t) = base_splits + t *
    kernel``, where the kernel spans the unique linear relation among the
    three doubled directions.  The area along the family is the quadratic
    ``base_area + A t + B t^2`` with ``(A, B) = area_coefficients``.
    """

    directions: tuple[Vec2, Vec2, Vec2]    # doubled-class edge directions
    sums: tuple[Fraction, Fraction, Fraction]
    base_splits: tuple[Fraction, Fraction, Fraction]   # split differences at t = 0
    kernel: tuple[int, int, int]
    fixed_edges: tuple[Vec2, ...]          # signed single-class edges
    base_area: Fraction
    area_coefficients: tuple[Fraction, Fraction]       # (A, B)
    admissible_interval: tuple[Fraction, Fraction]     # open interval for t

    def splits_at(self, t) -> tuple[Fraction, Fraction, Fraction]:
        t = Fraction(t)
        return tuple(d + t * a for d, a in zip(self.base_splits, self.kernel))

    def edge_multiset(self, t) -> tuple[Vec2, ...]:
        edges = list(self.fixed_edges)
        for w, s, delta in zip(self.directions, self.sums, self.splits_at(t)):
            edges.append(w * ((s + delta) / 2))
            edges.append(w * (-(s - delta) / 2))
        return tuple(edges)

    def polygon_at(self, t) -> Polygon:
        """The family member at parameter ``t`` (must be admissible)."""
        edges = self.edge_multiset(t)
        order = _angle_order([e for e in edges])
        return _chain_polygon([edges[i] for i in order])

    def predicted_area(self, t) -> Fraction:
        t = Fraction(t)
        a, b = self.area_coefficients
        return self.base_area + a * t + b * t * t


def _family_kernel(w1: Vec2, w2: Vec2, w3: Vec2) -> tuple[int, int, int]:
    """The primitive relation ``alpha`` with ``sum alpha_k w_k = 0``, first
    entry positive.  The directions are pairwise non-parallel, so no entry
    is zero."""
    raw = (w2.cross(w3), w3.cross(w1), w1.cross(w2))
    g = gcd(*raw) if raw[0] > 0 else -gcd(*raw)
    return (raw[0] // g, raw[1] // g, raw[2] // g)


def _family_quadratic(
    dirs: Sequence[Vec2],
    ring: Sequence[tuple[int, int]],
    int_sums: Sequence[int],
    m: int,
    base: dict[int, int],
    kernel: dict[int, int],
) -> tuple[int, int, int]:
    """Twice the area along a three-pair family, times ``(2q)^2``, as the
    integer quadratic ``K0 + K1 u + K2 u^2`` in ``u = q t``.

    The edges are read along ``ring``, the (class, sign) pairs of the
    polygon in angular order, each edge ``w (c + u a) / (2q)`` with
    ``w = dirs[i]``.  A doubled class ``i`` (a key of ``base`` and
    ``kernel``) has ``c = s S m + base[i]`` and ``a = kernel[i]`` for both
    signs ``s``; a single class has ``c = 2 s S m`` and ``a = 0``, where
    ``S m = int_sums[i] * m`` is the class sum times ``q``.  The edges close
    up for every ``u``, so twice the area is ``sum_{x<y} e_x x e_y``.
    """
    k0 = k1 = k2 = 0
    cx = cy = ax = ay = 0  # sum of w c and of w a over the edges so far
    for i, s in ring:
        w = dirs[i]
        if i in base:
            c, a = s * int_sums[i] * m + base[i], kernel[i]
        else:
            c, a = 2 * s * int_sums[i] * m, 0
        pc = cx * w.y - cy * w.x
        pa = ax * w.y - ay * w.x
        k0 += pc * c
        k1 += pc * a + pa * c
        k2 += pa * a
        cx += w.x * c
        cy += w.y * c
        ax += w.x * a
        ay += w.y * a
    return k0, k1, k2


def _family(
    directions: tuple[Vec2, Vec2, Vec2],
    sums: tuple[Fraction, Fraction, Fraction],
    base_splits: tuple[Fraction, Fraction, Fraction],
    kernel: tuple[int, int, int],
    fixed_edges: tuple[Vec2, ...],
    q: int,
    quadratic: tuple[int, int, int],
) -> ThreePairFamily | None:
    """The family whose area is ``quadratic`` (from :func:`_family_quadratic`,
    in ``u = q t``); None when no parameter value is admissible."""
    lo, hi = None, None
    for delta, alpha, s in zip(base_splits, kernel, sums):
        # |delta + t alpha| < s
        bounds = sorted(((-s - delta) / alpha, (s - delta) / alpha))
        lo = bounds[0] if lo is None else max(lo, bounds[0])
        hi = bounds[1] if hi is None else min(hi, bounds[1])
    if lo >= hi:
        return None
    k0, k1, k2 = quadratic
    return ThreePairFamily(
        directions=directions,
        sums=sums,
        base_splits=base_splits,
        kernel=kernel,
        fixed_edges=fixed_edges,
        base_area=Fraction(k0, 8 * q * q),
        area_coefficients=(Fraction(k1, 8 * q), Fraction(k2, 8)),
        admissible_interval=(lo, hi),
    )


def three_pair_family(polygon: Polygon) -> ThreePairFamily:
    """The family through a polygon with exactly three parallel pairs."""
    data = spectral_data(polygon)
    if data.parallel_pairs != 3:
        raise ValueError(f"polygon has {data.parallel_pairs} parallel pairs, need exactly 3")
    classes = data.classes
    dirs = [c.normal.perp_ccw() for c in classes]
    signed = {}
    for i, w in enumerate(dirs):
        signed[w], signed[-w] = (i, 1), (i, -1)
    # Keyed by (class, sign) in the polygon's counterclockwise order, the ring.
    edges = {signed[e.direction]: e for e in polygon.edges}
    choice = [i for i, c in enumerate(classes) if c.edge_count == 2]
    splits = tuple(edges[i, 1].lattice_length - edges[i, -1].lattice_length for i in choice)
    q = lcm(*(c.length_sum.denominator for c in classes), *(x.denominator for x in splits))
    kernel = _family_kernel(*(dirs[i] for i in choice))
    quadratic = _family_quadratic(
        dirs,
        list(edges),
        [int(c.length_sum * q) for c in classes],
        1,
        {i: int(x * q) for i, x in zip(choice, splits)},
        dict(zip(choice, kernel)),
    )
    family = _family(
        tuple(dirs[i] for i in choice),
        tuple(classes[i].length_sum for i in choice),
        splits,
        kernel,
        tuple(edges[key].vector for key in sorted(edges) if key[0] not in choice),
        q,
        quadratic,
    )
    if family is None:
        raise ReconstructionInfeasibleError("polygon's own splits are not admissible")
    if family.base_area != polygon.area:
        raise AssertionError("family anchor does not reproduce the source polygon's area")
    return family


def solve_three_pair_parameter(family: ThreePairFamily, target_area) -> tuple[Fraction, ...]:
    """Admissible parameters where the family's area equals ``target_area``.

    For a family anchored at a polygon of the target area this is {0} plus
    at most one further root.  When the area is constant along the family
    and equal to the target, every parameter works and a
    :class:`DegenerateFamilyError` carrying the interval is raised.
    """
    target = Fraction(target_area)
    coeff_a, coeff_b = family.area_coefficients
    lo, hi = family.admissible_interval
    if coeff_a == 0 and coeff_b == 0:
        if family.base_area == target:
            raise DegenerateFamilyError(
                "area is constant along the family; every parameter matches", interval=(lo, hi)
            )
        return ()
    roots = _quadratic_roots(coeff_b, coeff_a, family.base_area - target)
    return tuple(t for t in roots if lo < t < hi)


def _fan_chain(edges: Sequence[Vec2], den: int, twice_area: Fraction) -> tuple[tuple, tuple] | None:
    """Canonical keys of the polygon chained along ``edges`` and of its point
    reflection; None when the polygon does not have the area ``twice_area / 2``.

    ``edges`` are integer vectors in counterclockwise order, counted over
    ``den``.  A key is the vertex list from the lex-min vertex, translated to
    the origin, written as ``(denominator, x0, y0, x1, y1, ...)`` in lowest
    terms, so two polygons are translates of each other exactly when their
    keys agree.
    """
    points, twice = _chain(edges)
    if twice * twice_area.denominator != twice_area.numerator * den * den:
        return None
    n = len(points)
    keys = []
    # The reflection -P starts at the image of P's lex-max vertex.
    for sign, start in ((1, points.index(min(points))), (-1, points.index(max(points)))):
        x0, y0 = points[start]
        flat = []
        for k in range(start, start + n):
            x, y = points[k % n]
            flat.append(sign * (x - x0))
            flat.append(sign * (y - y0))
        g = gcd(den, *flat)
        keys.append((den // g,) + tuple(v // g for v in flat))
    return keys[0], keys[1]


def enumerate_candidates(
    data: SpectralData,
    max_parallel_pairs: int = 3,
    trust_counts: bool = False,
) -> CandidateSet:
    """All translation classes of Delzant polygons with the given data.

    Enumerates doubled-class assignments (all of them by default; the
    stored per-class counts are only used when ``trust_counts`` is set) and
    signs of the class representatives.  Each branch is then decided in
    this order, in integers up to the last step:

    1. closure: the length splits solve a small exact linear system, and
       three-pair branches are pinned against the area by the integer
       quadratic of :func:`_family_quadratic` (``no_closure``); a
       split that is not positive on both sides is ``inadmissible_split``;
    2. fan: the branch's signed edge directions, in angular order, must
       turn strictly left at every vertex (``no_convex_ordering``) with
       determinant 1 (``dropped_invalid``);
    3. area: the edges chained in that order must enclose the data's area
       (``dropped_mismatch``);
    4. verification: the surviving polygon is built once, in canonical
       form, and emitted only if it validates Delzant and reproduces
       ``data`` exactly.

    Every branch that reaches step 2 is recorded twice, once per
    ``anchor`` of :func:`build_most_obtuse`, the reference builder: anchor
    ``a`` on a branch whose first class has sign ``s`` builds the chained
    polygon when ``a * s > 0`` and its point reflection otherwise, and both
    share one outcome.
    """
    r = len(data.classes)
    d = data.vertex_count
    p = d - r
    if d < 3 or p < 0 or data.area <= 0:
        raise ReconstructionInfeasibleError(f"inconsistent data: {d} vertices, {r} normal classes")
    if p > min(max_parallel_pairs, 3):
        raise UnsupportedAmbiguityError(
            f"{p} parallel pairs admit no finite reconstruction (supported: up to {min(max_parallel_pairs, 3)})"
        )
    if trust_counts and not data.counts_known:
        raise ValueError("data carries no per-class edge counts to trust")
    if data.counts_known and sum(c.edge_count for c in data.classes) != d:
        raise ReconstructionInfeasibleError("per-class edge counts do not sum to the vertex count")
    if trust_counts and any(c.edge_count not in (1, 2) for c in data.classes):
        raise ReconstructionInfeasibleError("per-class edge counts must be 1 or 2")
    normals = [c.normal for c in data.classes]
    # Only distinct canonical primitive normals and positive sums can ever
    # match the data of a polygon; the integer steps below rely on both.
    if len(set(normals)) != r or any(
        c.length_sum <= 0 or not is_primitive_integer(c.normal) or canonical_unsigned(c.normal) != c.normal
        for c in data.classes
    ):
        raise ReconstructionInfeasibleError(
            "normal classes need distinct canonical primitive normals and positive length sums"
        )

    dirs = [Vec2(-int(n.y), int(n.x)) for n in normals]
    sums = [Fraction(c.length_sum) for c in data.classes]
    scale = lcm(*(s.denominator for s in sums))
    int_sums = [s.numerator * (scale // s.denominator) for s in sums]
    twice_area = 2 * Fraction(data.area)
    # Every branch's fan is a subsequence of this one angular order.
    signed = [(i, s) for i in range(r) for s in (1, -1)]
    fan = [signed[k] for k in _angle_order([dirs[i] * s for i, s in signed])]
    if trust_counts:
        choices = [tuple(i for i, c in enumerate(data.classes) if c.edge_count == 2)]
    else:
        choices = list(combinations(range(r), p))

    records: list[tuple] = []
    verdicts: dict[tuple, str] = {}
    emitted: dict[tuple, Polygon] = {}

    def verify(key: tuple) -> str:
        if key not in verdicts:
            den = key[0]
            polygon = Polygon(
                [Vec2(Fraction(key[k], den), Fraction(key[k + 1], den)) for k in range(1, len(key), 2)]
            )
            if not validate_delzant(polygon):
                verdicts[key] = "dropped_invalid"
            elif not spectral_data(polygon).matches(data, with_counts=trust_counts):
                verdicts[key] = "dropped_mismatch"
            else:
                verdicts[key] = "emitted"
                emitted[key] = polygon
        return verdicts[key]

    for choice in choices:
        chosen = set(choice)
        singles = [i for i in range(r) if i not in chosen]
        doubled_normals = tuple(tuple(normals[i]) for i in choice)
        if p == 3:
            kernel = dict(zip(choice, _family_kernel(*(dirs[i] for i in choice))))
        for bits in range(1 << len(singles)):
            signs = [1] * r
            for b, i in enumerate(singles):
                if bits >> b & 1:
                    signs[i] = -1
            # (rx, ry) / scale is what the doubled-class split differences
            # must sum to.  A solution lists those differences as integer
            # numerators over a common denominator q, a multiple of scale.
            rx = ry = 0
            for i in singles:
                rx -= dirs[i].x * signs[i] * int_sums[i]
                ry -= dirs[i].y * signs[i] * int_sums[i]
            solutions: list[tuple[tuple[int, ...], int, Fraction | None]] = []
            ring = degenerate = None
            if p == 0:
                if rx == 0 and ry == 0:
                    solutions.append(((), scale, None))
            elif p == 1:
                w = dirs[choice[0]]
                if rx * w.y == ry * w.x:
                    # w is primitive, so the multiple of w is an integer.
                    solutions.append((((rx // w.x) if w.x != 0 else (ry // w.y),), scale, None))
            else:
                # Solve with the first two doubled directions (Cramer's rule).
                w1, w2 = dirs[choice[0]], dirs[choice[1]]
                det = w1.cross(w2)
                sign = 1 if det > 0 else -1
                pair = (sign * (rx * w2.y - ry * w2.x), sign * (w1.x * ry - w1.y * rx))
                q = scale * abs(det)
            if p == 2:
                solutions.append((pair, q, None))
            elif p == 3:
                # The third split is free: numerators base + u kernel over q,
                # where u = q t.  Pin u against the area, in integers.
                m = q // scale
                base = dict(zip(choice, pair + (0,)))
                ring = [(i, s) for i, s in fan if s == signs[i] or i in chosen]
                k0, k1, k2 = _family_quadratic(dirs, ring, int_sums, m, base, kernel)
                # With twice_area = N / D the area condition is
                # D (K0 + K1 u + K2 u^2) = N (2q)^2.
                den = twice_area.denominator
                target = twice_area.numerator * 4 * q * q
                if k1 == 0 and k2 == 0:
                    if k0 * den == target:
                        degenerate = _family(
                            tuple(dirs[i] for i in choice),
                            tuple(sums[i] for i in choice),
                            tuple(Fraction(base[i], q) for i in choice),
                            tuple(kernel.values()),
                            tuple(dirs[i] * (signs[i] * sums[i]) for i in singles),
                            q,
                            (k0, k1, k2),
                        )
                else:
                    for u in _quadratic_roots(den * k2, den * k1, den * k0 - target):
                        un, ud = u.numerator, u.denominator
                        numerators = tuple(base[i] * ud + un * kernel[i] for i in choice)
                        if all(abs(n) < int_sums[i] * m * ud for i, n in zip(choice, numerators)):
                            solutions.append((numerators, q * ud, u / q))
            if degenerate is not None:
                # Constant area along the family only matters if its members
                # actually are Delzant polygons with this data; validity is
                # constant along the family (the directions never change), so
                # one probe at the midpoint decides.
                lo, hi = degenerate.admissible_interval
                try:
                    probe = degenerate.polygon_at((lo + hi) / 2)
                except ReconstructionInfeasibleError:
                    probe = None
                if (
                    probe is not None
                    and validate_delzant(probe)
                    and spectral_data(probe).matches(data, with_counts=trust_counts)
                ):
                    raise DegenerateFamilyError(
                        "a three-pair branch matches the data along a whole interval; "
                        "the candidate set is not finite",
                        interval=(lo, hi),
                    )
                records.append((doubled_normals, tuple(signs), (), None, 0, "degenerate_dead", None))
                continue
            if not solutions:
                records.append((doubled_normals, tuple(signs), (), None, 0, "no_closure", None))
                continue
            turns = None
            for numerators, q, parameter in solutions:
                m = q // scale
                delta = dict(zip(choice, numerators))
                splits = tuple(
                    (Fraction(int_sums[i] * m + n, 2 * q), Fraction(int_sums[i] * m - n, 2 * q))
                    for i, n in delta.items()
                )
                head = (doubled_normals, tuple(signs), splits, parameter)
                if any(abs(n) >= int_sums[i] * m for i, n in delta.items()):
                    records.append(head + (0, "inadmissible_split", None))
                    continue
                if turns is None:
                    if ring is None:
                        ring = [(i, s) for i, s in fan if s == signs[i] or i in chosen]
                    turns = [
                        s * t * dirs[i].cross(dirs[j])
                        for (i, s), (j, t) in zip(ring, ring[1:] + ring[:1])
                    ]
                keys = None
                if min(turns) <= 0:
                    outcome = "no_convex_ordering"
                elif any(t != 1 for t in turns):
                    outcome = "dropped_invalid"
                else:
                    # Lengths over 2q: a doubled class with integer sum S and
                    # numerator n has S m + n forward and S m - n back.
                    keys = _fan_chain(
                        [
                            dirs[i] * (s * int_sums[i] * m + delta[i] if i in delta else 2 * s * m * int_sums[i])
                            for i, s in ring
                        ],
                        2 * q,
                        twice_area,
                    )
                    outcome = "dropped_mismatch"
                for anchor in (1, -1):
                    if keys is None:
                        records.append(head + (anchor, outcome, None))
                        continue
                    key = keys[0] if anchor * signs[0] > 0 else keys[1]
                    verdict = verify(key)
                    records.append(head + (anchor, verdict, key if verdict == "emitted" else None))

    if not emitted:
        raise ReconstructionInfeasibleError("no Delzant polygon is consistent with the data")
    ordered_keys = sorted(emitted, key=lambda key: emitted[key].vertices)
    index_of = {key: i for i, key in enumerate(ordered_keys)}
    trace = tuple(AssignmentRecord(*rec[:6], candidate_index=index_of.get(rec[6])) for rec in records)
    return CandidateSet(candidates=tuple(emitted[key] for key in ordered_keys), trace=trace)


@dataclass(frozen=True)
class GenericityReport:
    """Outcome of the genericity test, with what broke it when it fails."""

    generic: bool
    rectangle: bool
    subpolygons: tuple[tuple[int, ...], ...]
    emitting_assignments: tuple[tuple[tuple[int, int], ...], ...]
    candidate_count: int | None

    def __bool__(self) -> bool:
        return self.generic


def is_generic(polygon: Polygon, max_parallel_pairs: int = 3) -> GenericityReport:
    """Whether the data of this polygon pins it down to the minimal set.

    Generic means: no subpolygons, a unique doubled-class assignment
    produces candidates, and the candidate set collapses to at most two
    polygons (four with three parallel pairs).  Rectangles are generic by
    definition: four vertices with exactly two normal directions leave no
    freedom at all.
    """
    data = spectral_data(polygon)
    p = data.parallel_pairs
    if p > min(max_parallel_pairs, 3):
        raise UnsupportedAmbiguityError(f"{p} parallel pairs are not supported by the genericity test")
    if data.vertex_count == 4 and len(data.classes) == 2:
        return GenericityReport(
            generic=True,
            rectangle=True,
            subpolygons=(),
            emitting_assignments=(tuple(tuple(c.normal) for c in data.classes),),
            candidate_count=None,
        )
    subs = detect_subpolygons(polygon).subsets
    try:
        candidates = enumerate_candidates(data, max_parallel_pairs=max_parallel_pairs)
    except DegenerateFamilyError:
        return GenericityReport(False, False, subs, (), None)
    assignments = tuple(sorted({rec.doubled for rec in candidates.trace if rec.outcome == "emitted"}))
    bound = 2 if p <= 2 else 4
    generic = not subs and len(assignments) == 1 and len(candidates) <= bound
    return GenericityReport(
        generic=generic,
        rectangle=False,
        subpolygons=subs,
        emitting_assignments=assignments,
        candidate_count=len(candidates),
    )


def bundle_reconstruct(system: HalfSpaceSystem) -> Union[Polygon, Polytope3]:
    """Rebuild the polytope from per-facet half-space data, exactly.

    The offsets are absolute, so there is no translation ambiguity; the
    result must reproduce every entry (normal, offset and facet volume) or
    an inconsistency is raised.
    """
    if system.dim == 2:
        return _reconstruct_polygon(system)
    if system.dim == 3:
        return _reconstruct_polytope(system)
    raise ValueError(f"unsupported dimension {system.dim}")


def _reconstruct_polygon(system: HalfSpaceSystem) -> Polygon:
    entries = list(system.entries)
    if len(entries) < 3:
        raise ReconstructionInfeasibleError("a bounded polygon needs at least three half-planes")
    normals = [Vec2(*e.normal) for e in entries]
    if len(set(e.normal for e in entries)) != len(entries):
        raise InconsistentSystemError("normals must be pairwise distinct")
    for n in normals:
        if not is_primitive_integer(n):
            raise InconsistentSystemError(f"normal {tuple(n)} is not a primitive integer vector")
    order = _angle_order(normals)
    sorted_normals = [normals[i] for i in order]
    sorted_entries = [entries[i] for i in order]
    m = len(order)
    for i in range(m):
        if sorted_normals[i].cross(sorted_normals[(i + 1) % m]) <= 0:
            raise ReconstructionInfeasibleError("normals fit in a half-plane; the intersection is unbounded")
    try:
        polygon = polygon_from_halfplanes(sorted_normals, [e.offset for e in sorted_entries])
    except StructuralPolygonError as exc:
        raise InconsistentSystemError(f"half-planes do not bound a polygon: {exc}") from exc
    for i, (edge, entry) in enumerate(zip(polygon.edges, sorted_entries)):
        if tuple(edge.normal) != tuple(sorted_normals[i]):
            raise InconsistentSystemError(f"half-space {entry.normal} is redundant")
        if edge.lattice_length != entry.volume:
            raise InconsistentSystemError(
                f"facet {entry.normal} has lattice length {edge.lattice_length}, data says {entry.volume}"
            )
    for v in polygon.vertices:
        for entry, n in zip(sorted_entries, sorted_normals):
            if v.dot(n) > entry.offset:
                raise ReconstructionInfeasibleError("half-space system is infeasible")
    return polygon


def _reconstruct_polytope(system: HalfSpaceSystem) -> Polytope3:
    entries = list(system.entries)
    if len(entries) < 4:
        raise ReconstructionInfeasibleError("a bounded 3-polytope needs at least four half-spaces")
    if len(set(e.normal for e in entries)) != len(entries):
        raise InconsistentSystemError("normals must be pairwise distinct")
    normals = [Vec3(*e.normal) for e in entries]
    for n in normals:
        if not is_primitive_integer(n):
            raise InconsistentSystemError(f"normal {tuple(n)} is not a primitive integer vector")
    offsets = [Fraction(e.offset) for e in entries]
    points: list[Vec3] = []
    for i, j, k in combinations(range(len(entries)), 3):
        det = Fraction(normals[i].dot(normals[j].cross(normals[k])))
        if det == 0:
            continue
        combo = (
            normals[j].cross(normals[k]) * offsets[i]
            + normals[k].cross(normals[i]) * offsets[j]
            + normals[i].cross(normals[j]) * offsets[k]
        )
        x = Vec3(Fraction(combo.x) / det, Fraction(combo.y) / det, Fraction(combo.z) / det)
        if any(x.dot(n) > c for n, c in zip(normals, offsets)):
            continue
        if x not in points:
            points.append(x)
    if len(points) < 4:
        raise ReconstructionInfeasibleError("half-space system has an empty or degenerate intersection")
    try:
        polytope = Polytope3(points)
    except StructuralPolygonError as exc:
        raise ReconstructionInfeasibleError(f"intersection is not a 3-polytope: {exc}") from exc
    derived = {(tuple(f.normal), f.offset): f.lattice_area for f in polytope.facets}
    given = {(e.normal, Fraction(e.offset)): Fraction(e.volume) for e in entries}
    for key in derived:
        if key not in given:
            raise ReconstructionInfeasibleError(
                f"intersection is unbounded: extreme points span a facet {key[0]} absent from the data"
            )
    for key, volume in given.items():
        if key not in derived:
            raise InconsistentSystemError(f"half-space {key[0]} is redundant (no facet)")
        if derived[key] != volume:
            raise InconsistentSystemError(
                f"facet {key[0]} has lattice area {derived[key]}, data says {volume}"
            )
    return polytope
