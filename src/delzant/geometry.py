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
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import BudgetExceededError, StructuralPolygonError
from .vectors import Vec2, as_scalar, primitive_part

# Integer 2x2 matrices travel as ((a, b), (c, d)), acting as rows on columns.
IntMatrix = tuple[tuple[int, int], tuple[int, int]]


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


class Polygon:
    """A strictly convex polygon with exact rational vertices, stored CCW.

    The constructor accepts vertices in either orientation (clockwise input
    is reversed) and raises :class:`StructuralPolygonError` for anything
    that is not a strictly convex polygon: fewer than three vertices,
    repeated vertices, collinear triples, a non-convex chain, or a star
    that turns one way throughout but winds around more than once.
    """

    __slots__ = ("vertices", "edges", "_area", "_steps")

    def __init__(self, vertices: Iterable[Sequence]):
        pts: list[Vec2] = []
        try:
            # extend keeps the points read before a bad vertex, so its index is len(pts).
            pts.extend(Vec2(as_scalar(x), as_scalar(y)) for x, y in vertices)
        except ValueError:
            raise TypeError(f"vertex {len(pts)} does not have 2 coordinates") from None
        if len(pts) < 3:
            raise StructuralPolygonError("a polygon needs at least 3 vertices")
        d = len(pts)
        # One integer frame: every coordinate times the common denominator L.
        # L > 0, so every sign below is the sign of the rational expression.
        common = math.lcm(*(c.denominator for v in pts for c in v))
        xs = [v.x.numerator * (common // v.x.denominator) for v in pts]
        ys = [v.y.numerator * (common // v.y.denominator) for v in pts]
        dxs = [xs[(i + 1) % d] - xs[i] for i in range(d)]
        dys = [ys[(i + 1) % d] - ys[i] for i in range(d)]
        for i in range(d):
            if dxs[i] == 0 and dys[i] == 0:
                raise StructuralPolygonError(f"repeated vertex at index {i}")
        crosses = [dxs[i] * dys[(i + 1) % d] - dys[i] * dxs[(i + 1) % d] for i in range(d)]
        if any(c == 0 for c in crosses):
            bad = crosses.index(0)
            raise StructuralPolygonError(f"collinear edges around vertex {(bad + 1) % d}")
        if all(c < 0 for c in crosses):
            # Reversal negates every turn, so a clockwise chain turns left after it.
            pts.reverse()
            xs.reverse()
            ys.reverse()
            dxs = [xs[(i + 1) % d] - xs[i] for i in range(d)]
            dys = [ys[(i + 1) % d] - ys[i] for i in range(d)]
        elif any(c < 0 for c in crosses):
            raise StructuralPolygonError("vertices do not bound a convex polygon")
        # Every turn is left and below pi, so the edge directions pass from
        # the upper half-plane to the lower once per winding.
        upper = [dy > 0 or (dy == 0 and dx > 0) for dx, dy in zip(dxs, dys)]
        if sum(upper[i - 1] and not upper[i] for i in range(d)) != 1:
            raise StructuralPolygonError("vertices wind around more than once")
        self.vertices: tuple[Vec2, ...] = tuple(pts)
        # The edge vectors in the integer frame, for detect_subpolygons.
        self._steps = (dxs, dys)
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
        twice = sum(xs[i - 1] * ys[i] - ys[i - 1] * xs[i] for i in range(d))
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

    def canonical(self) -> "Polygon":
        """Translate the lex-min vertex to the origin and start the list there.

        Two polygons are translates of each other iff their canonical forms
        compare equal; the map is idempotent.
        """
        anchor = min(self.vertices)
        idx = self.vertices.index(anchor)
        rotated = self.vertices[idx:] + self.vertices[:idx]
        return Polygon(tuple(v - anchor for v in rotated))

    def canonical_key(self) -> tuple:
        return tuple(self.canonical().vertices)

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
    d = polygon.edge_count
    failures = []
    for i in range(d):
        incoming = polygon.edges[(i - 1) % d].direction
        outgoing = polygon.edges[i].direction
        det = int(incoming.cross(outgoing))
        if det != 1:
            failures.append(VertexCheck(vertex_index=i, determinant=det))
    return ValidationReport(valid=not failures, failures=tuple(failures))


def sl2z_equivalent(p: Polygon, q: Polygon) -> Optional[tuple]:
    """Search for A in SL(2, Z) and a translation v with A.p + v == q.

    Candidate matrices are read off by mapping an adjacent pair of primitive
    edge directions of ``p`` onto each adjacent pair of ``q``; Delzant
    validity of ``p`` guarantees every candidate is integral with det 1.
    Returns ``(matrix, translation)`` or ``None``.
    """
    d = p.edge_count
    if d != q.edge_count:
        return None
    pd = [e.direction for e in p.edges]
    qd = [e.direction for e in q.edges]
    det_p = int(pd[0].cross(pd[1]))
    q_key = q.canonical_key()
    q_anchor = min(q.vertices)
    for j in range(d):
        f1, f2 = qd[j], qd[(j + 1) % d]
        # A = F . D^{-1} with D, F the column matrices of the direction pairs.
        inv = ((pd[1].y, -pd[1].x), (-pd[0].y, pd[0].x))  # D^{-1} * det_p
        a11 = f1.x * inv[0][0] + f2.x * inv[1][0]
        a12 = f1.x * inv[0][1] + f2.x * inv[1][1]
        a21 = f1.y * inv[0][0] + f2.y * inv[1][0]
        a22 = f1.y * inv[0][1] + f2.y * inv[1][1]
        if det_p != 1:
            if any(v % det_p for v in (a11, a12, a21, a22)):
                continue
            a11, a12, a21, a22 = (v // det_p for v in (a11, a12, a21, a22))
        matrix = ((int(a11), int(a12)), (int(a21), int(a22)))
        if matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0] != 1:
            continue
        image = p.transform(matrix)
        if image.canonical_key() == q_key:
            translation = q_anchor - min(image.vertices)
            return matrix, translation
    return None


def detect_subpolygons(polygon: Polygon) -> SubpolygonReport:
    """Exhaustively find edge subsets of size >= 3 (complement >= 3) whose
    vectors sum to zero.  Enumeration is over all 2^d subsets, so polygons
    with more than 16 edges are rejected up front.
    """
    d = polygon.edge_count
    if d > 16:
        raise BudgetExceededError(f"subpolygon enumeration needs 2^{d} subsets; budget is 2^16")
    # The edge vectors in Polygon's integer frame: mask sums are pure int work.
    xs, ys = polygon._steps
    found = []
    for mask in range(1, 1 << d):
        k = mask.bit_count()
        if k < 3 or d - k < 3:
            continue
        sx = sy = 0
        m = mask
        while m:
            low = m & -m
            i = low.bit_length() - 1
            sx += xs[i]
            sy += ys[i]
            m ^= low
        if sx == 0 and sy == 0:
            found.append(tuple(i for i in range(d) if mask >> i & 1))
    return SubpolygonReport(subsets=tuple(found))


def polygon_from_halfplanes(normals: Sequence[Vec2], offsets: Sequence) -> Polygon:
    """Build the polygon bounded by lines x . n_i = c_i, one edge per line.

    The normals must already be in counterclockwise cyclic order; the vertex
    starting edge ``i`` is the intersection of lines ``i-1`` and ``i``.  A
    polygon is returned only if its edge ``i`` lies on line ``i`` with its
    outward normal along ``n_i``, so it satisfies every half-plane
    x . n_i <= c_i and has exactly the fan of the normals.  Otherwise, and
    when consecutive lines are parallel or the vertices do not bound a
    convex polygon, :class:`StructuralPolygonError` is raised.
    """
    d = len(normals)
    if d < 3 or d != len(offsets):
        raise StructuralPolygonError("need at least three half-planes with matching offsets")
    cs = [as_scalar(c) for c in offsets]
    vertices = []
    for i in range(d):
        u, v = normals[(i - 1) % d], normals[i]
        cu, cv = cs[(i - 1) % d], cs[i]
        det = u.cross(v)
        if det == 0:
            raise StructuralPolygonError(f"consecutive half-planes {(i - 1) % d} and {i} are parallel")
        x = Fraction(cu * v.y - cv * u.y, 1) / det
        y = Fraction(cv * u.x - cu * v.x, 1) / det
        vertices.append(Vec2(x, y))
    polygon = Polygon(vertices)
    # Polygon reverses a clockwise chain, which puts the last vertex first.
    if polygon.vertices[0] != vertices[0] or any(e.normal.dot(n) <= 0 for e, n in zip(polygon.edges, normals)):
        raise StructuralPolygonError("edges do not face along the normals of their half-planes")
    return polygon
