"""Exact lattice-polygon core.

Convex rational polygons with derived lattice data (primitive edge
directions, lattice lengths, primitive outward normals), the Delzant
vertex condition, exact area, canonical translation forms, unimodular
equivalence, and subpolygon detection.  Everything here is pure exact
arithmetic; no floats.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import BudgetExceededError, StructuralPolygonError
from .vectors import Vec2, as_scalar, exact_points, integer_frame, primitive_part

# Integer 2x2 matrices travel as ((a, b), (c, d)), acting as rows on columns.
IntMatrix = tuple[tuple[int, int], tuple[int, int]]

# The most edges (or vertices of spectral data) a search over 2^d subsets takes.
EDGE_BUDGET = 16


def primitive_outward_normal(edge_vector: Vec2) -> Vec2:
    """Primitive integer normal of a CCW-traversed edge, pointing outward.

    Convention: for edge vector (a, b) the outward side is (b, -a); e.g. the
    bottom edge (1, 0) of a CCW square has normal (0, -1).
    """
    if edge_vector.is_zero():
        raise StructuralPolygonError("zero edge vector has no outward normal")
    return primitive_part(edge_vector.perp_cw())


class Edge(NamedTuple):
    """One polygon edge together with its derived lattice data."""

    vector: Vec2          # endpoint minus start point
    direction: Vec2       # primitive integer vector along the edge
    lattice_length: Fraction
    normal: Vec2          # primitive integer outward normal


class VertexCheck(NamedTuple):
    vertex_index: int
    determinant: int


class ValidationReport(NamedTuple):
    """Outcome of the Delzant vertex test; ``failures`` lists bad vertices."""

    valid: bool
    failures: tuple[VertexCheck, ...]

    def __bool__(self) -> bool:
        return self.valid


class SubpolygonReport(NamedTuple):
    """Proper edge subsets (size >= 3, complement >= 3) summing to zero."""

    subsets: tuple[tuple[int, ...], ...]

    def __bool__(self) -> bool:
        return bool(self.subsets)


def _convex_frame(xs: list[int], ys: list[int]) -> tuple[list[int], list[int], int, bool]:
    """The edge vectors ``(dxs, dys)`` of the closed chain through the integer
    points ``(xs[i], ys[i])``, counterclockwise, with twice its area and
    whether the points ran clockwise (they are then reversed in place).

    Raises :class:`StructuralPolygonError` unless the chain bounds a
    strictly convex polygon: a repeated vertex, collinear edges, a turn
    against the others, or a star that winds around more than once.
    """
    d = len(xs)
    dxs = [xs[(i + 1) % d] - xs[i] for i in range(d)]
    dys = [ys[(i + 1) % d] - ys[i] for i in range(d)]
    for i in range(d):
        if dxs[i] == 0 and dys[i] == 0:
            raise StructuralPolygonError(f"repeated vertex at index {i}")
    crosses = [dxs[i] * dys[(i + 1) % d] - dys[i] * dxs[(i + 1) % d] for i in range(d)]
    if any(c == 0 for c in crosses):
        bad = crosses.index(0)
        raise StructuralPolygonError(f"collinear edges around vertex {(bad + 1) % d}")
    flipped = all(c < 0 for c in crosses)
    if flipped:
        # Reversal negates every turn, so a clockwise chain turns left after it.
        xs.reverse()
        ys.reverse()
        dxs = [xs[(i + 1) % d] - xs[i] for i in range(d)]
        dys = [ys[(i + 1) % d] - ys[i] for i in range(d)]
    elif any(c < 0 for c in crosses):
        raise StructuralPolygonError("vertices do not bound a convex polygon")
    # Every turn is left and below pi, so none steps over the open lower arc
    # (pi, 2 pi): the directions leave the closed upper one once per winding.
    upper = [dy >= 0 for dy in dys]
    if sum(upper[i - 1] and not upper[i] for i in range(d)) != 1:
        raise StructuralPolygonError("vertices wind around more than once")
    twice = sum(xs[i - 1] * ys[i] - ys[i - 1] * xs[i] for i in range(d))
    return dxs, dys, twice, flipped


def _translation_key(points: Sequence[tuple[int, int]], den: int, sign: int = 1) -> tuple:
    """The canonical key of the closed chain through the integer points
    ``points`` over ``den`` (with ``sign`` -1, of its point reflection): the
    vertices from the lex-min one, translated to the origin, as ``(denominator,
    x0, y0, x1, y1, ...)`` in lowest terms.  Translates have equal keys."""
    start = points.index(min(points) if sign > 0 else max(points))
    x0, y0 = points[start]
    flat = []
    for x, y in points[start:] + points[:start]:
        flat.append(sign * (x - x0))
        flat.append(sign * (y - y0))
    g = math.gcd(den, *flat)
    return (den // g,) + tuple(v // g for v in flat)


class Polygon:
    """A strictly convex polygon with exact rational vertices, stored CCW.

    The constructor accepts vertices in either orientation (clockwise input
    is reversed) and raises :class:`StructuralPolygonError` for anything
    that is not a strictly convex polygon: fewer than three vertices,
    repeated vertices, collinear triples, a non-convex chain, or a star
    that turns one way throughout but winds around more than once.
    """

    __slots__ = ("vertices", "edges", "_area", "_frame")

    def __init__(self, vertices: Iterable[Sequence]):
        pts = exact_points(vertices, Vec2)
        if len(pts) < 3:
            raise StructuralPolygonError("a polygon needs at least 3 vertices")
        # One integer frame: every coordinate times the common denominator L.
        # L > 0, so every sign in the frame is the sign of the rational expression.
        common, flat = integer_frame([c for v in pts for c in v])
        self._fill(pts, common, flat[0::2], flat[1::2])

    @classmethod
    def _from_frame(cls, common: int, xs: Sequence[int], ys: Sequence[int]) -> "Polygon":
        """The polygon with vertices ``(xs[i] / common, ys[i] / common)``, as
        ``Polygon`` builds it from those ``Fraction`` vertices."""
        polygon = cls.__new__(cls)
        pts = [Vec2(Fraction(x, common), Fraction(y, common)) for x, y in zip(xs, ys)]
        polygon._fill(pts, common, list(xs), list(ys))
        return polygon

    def _fill(self, pts: list[Vec2], common: int, xs: list[int], ys: list[int]) -> None:
        d = len(pts)
        dxs, dys, twice, flipped = _convex_frame(xs, ys)
        if flipped:
            pts.reverse()
        self.vertices: tuple[Vec2, ...] = tuple(pts)
        # The common denominator and the edge vectors, for detect_subpolygons,
        # canonical_key and spectral_data.
        self._frame = (common, dxs, dys)
        edges = []
        for i in range(d):
            a, b, dx, dy = pts[i], pts[(i + 1) % d], dxs[i], dys[i]
            # An edge vector keeps the exact type of its endpoints' difference:
            # int from two ints, Fraction otherwise.
            vec = Vec2(
                dx // common if isinstance(a.x, int) and isinstance(b.x, int) else Fraction(dx, common),
                dy // common if isinstance(a.y, int) and isinstance(b.y, int) else Fraction(dy, common),
            )
            g = math.gcd(dx, dy)
            direction = Vec2(dx // g, dy // g)
            edges.append(Edge(vec, direction, Fraction(g, common), direction.perp_cw()))
        self.edges: tuple[Edge, ...] = tuple(edges)
        self._area = Fraction(twice, 2 * common * common)

    @property
    def edge_count(self) -> int:
        return len(self.vertices)

    @property
    def area(self) -> Fraction:
        return self._area

    def translate(self, offset: Vec2) -> "Polygon":
        return Polygon(tuple(v + offset for v in self.vertices))

    def __neg__(self) -> "Polygon":
        # Point reflection; preserves orientation, so no reversal happens.
        return Polygon(tuple(-v for v in self.vertices))

    def transform(self, matrix: IntMatrix) -> "Polygon":
        (a, b), (c, d) = matrix
        return Polygon(tuple(Vec2(a * v.x + b * v.y, c * v.x + d * v.y) for v in self.vertices))

    def canonical_key(self) -> tuple:
        """The key of :func:`_translation_key`: equal exactly for translates."""
        common, dxs, dys = self._frame
        # The frame's vertices, translated so that the first is the origin.
        return _translation_key(list(zip(accumulate(dxs[:-1], initial=0), accumulate(dys[:-1], initial=0))), common)

    def canonical(self) -> "Polygon":
        """The polygon of :meth:`canonical_key`: its lex-min vertex first, at
        the origin.  Equal exactly for translates, and idempotent."""
        key = self.canonical_key()
        return Polygon._from_frame(key[0], key[1::2], key[2::2])

    def __eq__(self, other) -> bool:
        return isinstance(other, Polygon) and self.vertices == other.vertices

    def __hash__(self) -> int:
        return hash(self.vertices)

    def __repr__(self) -> str:
        coords = ", ".join(f"({v.x}, {v.y})" for v in self.vertices)
        return f"Polygon[{coords}]"


def area(polygon: Polygon) -> Fraction:
    """Exact shoelace area (always positive)."""
    return polygon.area


def normalize_translation(polygon: Polygon) -> Polygon:
    """Canonical representative of the polygon's translation class."""
    return polygon.canonical()


def validate_delzant(polygon: Polygon) -> ValidationReport:
    """Check the vertex condition: adjacent primitive edge directions must
    have determinant 1 (equivalently the adjacent normals form a Z^2 basis).

    Structural problems (non-convexity etc.) surface earlier, when the
    Polygon itself is constructed.
    """
    dirs = [e.direction for e in polygon.edges]
    turns = [u.cross(v) for u, v in zip(dirs[-1:] + dirs[:-1], dirs)]
    failures = [VertexCheck(vertex_index=i, determinant=det) for i, det in enumerate(turns) if det != 1]
    return ValidationReport(valid=not failures, failures=tuple(failures))


def sl2z_equivalent(p: Polygon, q: Polygon) -> Optional[tuple]:
    """Search for A in SL(2, Z) and a translation v with A.p + v == q.

    Candidate matrices are read off by mapping an adjacent pair of primitive
    edge directions of ``p`` onto each adjacent pair of ``q``; a candidate
    that is not integral or not of det 1 (possible only when ``p`` or ``q``
    is not Delzant) is skipped.  Returns ``(matrix, translation)`` or ``None``.
    """
    d = p.edge_count
    if d != q.edge_count:
        return None
    pd = [e.direction for e in p.edges]
    qd = [e.direction for e in q.edges]
    det_p = pd[0].cross(pd[1])
    q_key = q.canonical_key()
    # A maps the points of p's key to those of its image's, over the same denominator.
    key = p.canonical_key()
    points = list(zip(key[1::2], key[2::2]))
    for j in range(d):
        f1, f2 = qd[j], qd[(j + 1) % d]
        # A = F . D^{-1} with D, F the column matrices of the direction pairs.
        inv = ((pd[1].y, -pd[1].x), (-pd[0].y, pd[0].x))  # D^{-1} * det_p
        a11 = f1.x * inv[0][0] + f2.x * inv[1][0]
        a12 = f1.x * inv[0][1] + f2.x * inv[1][1]
        a21 = f1.y * inv[0][0] + f2.y * inv[1][0]
        a22 = f1.y * inv[0][1] + f2.y * inv[1][1]
        if any(v % det_p for v in (a11, a12, a21, a22)):  # never for det_p = 1
            continue
        a11, a12, a21, a22 = (v // det_p for v in (a11, a12, a21, a22))
        matrix = ((a11, a12), (a21, a22))
        if a11 * a22 - a12 * a21 != 1:
            continue
        if _translation_key([(a11 * x + a12 * y, a21 * x + a22 * y) for x, y in points], key[0]) == q_key:
            return matrix, min(q.vertices) - min(Vec2(a11 * v.x + a12 * v.y, a21 * v.x + a22 * v.y) for v in p.vertices)
    return None


def _table(start: tuple[int, int], steps) -> tuple[list[int], list[int]]:
    """The two coordinates of ``start`` plus each subset sum of the integer
    vectors ``steps``, by mask: ``steps[j]`` is added where bit ``j`` of the
    mask is set.  The table doubles once per step, so each entry costs one
    addition per coordinate."""
    us, vs = [start[0]], [start[1]]
    for du, dv in steps:
        us += [u + du for u in us]
        vs += [v + dv for v in vs]
    return us, vs


def detect_subpolygons(polygon: Polygon) -> SubpolygonReport:
    """Exhaustively find edge subsets of size >= 3 (complement >= 3) whose
    vectors sum to zero, in ascending order of their bit masks.  Enumeration
    is over all 2^d subsets, so polygons with more than ``EDGE_BUDGET``
    edges are rejected up front.
    """
    d = polygon.edge_count
    if d > EDGE_BUDGET:
        raise BudgetExceededError(f"subpolygon enumeration needs 2^{d} subsets; budget is 2^{EDGE_BUDGET}")
    # The edge vectors in Polygon's integer frame: mask sums are pure int work.
    _, xs, ys = polygon._frame
    sums_x, sums_y = _table((0, 0), zip(xs, ys))
    return SubpolygonReport(subsets=tuple(
        tuple(i for i in range(d) if mask >> i & 1)
        for mask, sx in enumerate(sums_x)
        if sx == 0 and sums_y[mask] == 0 and 3 <= mask.bit_count() <= d - 3
    ))


def polygon_from_halfplanes(normals: Sequence[Vec2], offsets: Sequence) -> Polygon:
    """Build the polygon bounded by lines x . n_i = c_i, one edge per line.

    The normals must already be in counterclockwise cyclic order; the vertex
    starting edge ``i`` is the intersection of lines ``i-1`` and ``i``.  A
    polygon is returned only if its edge ``i`` lies on line ``i`` with its
    outward normal along ``n_i``, so it satisfies every half-plane
    x . n_i <= c_i and has exactly the fan of the normals.  Otherwise, and
    when consecutive lines are parallel or the vertices do not bound a
    convex polygon, :class:`StructuralPolygonError` is raised.

    The vertices are solved in one integer frame, reduced to its least
    common denominator, and the polygon is built from it by
    :meth:`Polygon._from_frame`.
    """
    d = len(normals)
    if d < 3 or d != len(offsets):
        raise StructuralPolygonError("need at least three half-planes with matching offsets")
    common, ks = integer_frame([as_scalar(c) for c in offsets])
    # Scaling every normal and offset by the normals' common denominator q
    # keeps every line: line i is a x + b y = k q / common, a and b integers.
    q, ab = integer_frame([as_scalar(c) for n in normals for c in (n.x, n.y)])
    lines = list(zip(ab[0::2], ab[1::2], [k * q for k in ks]))
    # Vertex i meets lines i-1 and i at (xs[i], ys[i]) / (common * dets[i]).
    xs, ys, dets = [], [], []
    for i, ((a0, b0, k0), (a1, b1, k1)) in enumerate(zip(lines[-1:] + lines[:-1], lines)):
        det = a0 * b1 - b0 * a1
        if det == 0:
            raise StructuralPolygonError(f"consecutive half-planes {(i - 1) % d} and {i} are parallel")
        xs.append(k0 * b1 - k1 * b0)
        ys.append(k1 * a0 - k0 * a1)
        dets.append(det)
    # Over common * lcm(dets), then in lowest terms: Polygon's own frame.
    lcm = math.lcm(*dets)
    den = common * lcm
    xs = [x * (lcm // det) for x, det in zip(xs, dets)]
    ys = [y * (lcm // det) for y, det in zip(ys, dets)]
    g = math.gcd(den, *xs, *ys)
    polygon = Polygon._from_frame(den // g, [x // g for x in xs], [y // g for y in ys])
    # Polygon reverses a clockwise chain, which puts the last vertex first.
    if polygon.vertices[0] != (Fraction(xs[0], den), Fraction(ys[0], den)) or any(
        e.normal.dot(n) <= 0 for e, n in zip(polygon.edges, normals)
    ):
        raise StructuralPolygonError("edges do not face along the normals of their half-planes")
    return polygon
