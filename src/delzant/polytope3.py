"""Minimal exact 3D polytope support for the line-bundle half-space pipeline.

Only what the facet-data / reconstruction round trip needs: build the facial
structure of a convex-position vertex set, with primitive integer outward
normals, support offsets, and lattice facet areas, all in exact arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import StructuralPolygonError
from .vectors import Vec2, Vec3, angle_order, exact_points, integer_frame


class Facet(NamedTuple):
    normal: Vec3                      # primitive integer outward normal
    offset: Fraction                  # x . normal on the facet (= support value)
    vertex_indices: tuple[int, ...]   # cyclic order around the facet
    lattice_area: Fraction            # Euclidean area divided by |normal|


# A facet before its vertices are ordered: normal, offset, vertex indices ascending.
_Plane = tuple[Vec3, Fraction, list[int]]


class Polytope3:
    """A convex 3-polytope given by its vertices, with derived facets.

    The input must consist of the vertices of a convex polytope (no interior
    or redundant points); the constructor enumerates supporting planes from
    vertex triples (:func:`_supporting`). A triple's vertices are read only
    until one lies on each side of its plane, and a triple on a facet plane
    already found is skipped, so each facet plane is found once, and the
    scan's incidence masks give each facet's vertices.

    A half-space rebuild already knows its facets: the scan that found its
    vertices marked which half-spaces each lies on. It passes them as
    ``_planes``, one ``(normal, offset, vertex indices)`` per facet, and
    the vertex scan is skipped; both routes order the facets the same way
    and make the same checks.
    """

    __slots__ = ("vertices", "facets")

    def __init__(self, vertices: Iterable[Sequence], *, _planes: Sequence[_Plane] | None = None):
        pts = exact_points(vertices, Vec3)
        if len(set(pts)) != len(pts):
            i = next(i for i, p in enumerate(pts) if p in pts[:i])
            raise StructuralPolygonError(f"repeated vertex at index {i}")
        if len(pts) < 4:
            raise StructuralPolygonError("a 3D polytope needs at least 4 distinct vertices")
        self.vertices: tuple[Vec3, ...] = tuple(pts)
        if _planes is None:
            self.facets: tuple[Facet, ...] = self._derive_facets()
        else:
            self.facets = _cycled_facets(*_frame(self.vertices), _planes)
        on_count = [0] * len(self.vertices)
        for facet in self.facets:
            for i in facet.vertex_indices:
                on_count[i] += 1
        if any(c < 3 for c in on_count):  # < 4 facets too: 4+ vertices on 3 each are collinear; no scan yields that
            raise StructuralPolygonError("points are not the vertex set of a convex 3-polytope")

    def _derive_facets(self) -> tuple[Facet, ...]:
        # One integer frame: every coordinate times the common denominator L,
        # so point P is on the plane (n, t) when n . P + t L = 0.
        common, pts = _frame(self.vertices)
        kept, on = _supporting([(p, common) for p in pts])
        planes = []
        for f, (n, t) in enumerate(kept):
            g = math.gcd(*n)
            members = [i for i, mask in enumerate(on) if mask >> f & 1]
            planes.append((Vec3(*(c // g for c in n)), Fraction(-t * common // g, common), members))
        return _cycled_facets(common, pts, planes)

    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polytope3) and self.vertex_set() == other.vertex_set()

    def __hash__(self) -> int:
        return hash(self.vertex_set())

    def __repr__(self) -> str:
        return f"Polytope3[{len(self.vertices)} vertices, {len(self.facets)} facets]"


def _supporting(rows: Sequence[tuple[Vec3, int]]) -> tuple[list[tuple[Vec3, int]], list[int]]:
    """Over each triple of integer rows ``(u, p)``, in ``combinations``
    order, the nonzero ``(n, t)`` with ``n . u + t p = 0`` on all three
    (signed 3x3 minors), kept when every row gives ``<= 0`` and negated
    when ``>= 0``. Returns the kept vectors, in the order found, and one
    bitmask per row: bit f is set when the row lies on the f-th kept
    hyperplane.

    The sides are read only until one row is positive and another negative.
    A triple whose three rows all lie on a hyperplane kept before is
    skipped, which loses nothing: three rows of that 3-space are dependent
    or span it, so the triple would give nothing or a multiple of the kept
    vector. So each hyperplane is kept once, by the first triple that
    gives it. A vector is negated only when some row is positive, so when
    every row lies on its hyperplane it is kept as the minors give it.

    On vertex rows ``(P, L)`` a kept hyperplane is a facet plane, and the
    rows whose mask has bit f are the vertices of facet f. On half-space
    rows ``(normal, -offset L)`` a kept ``(y, w)`` with ``w > 0`` is the
    vertex ``y / (w L)``, and the mask of row m lists the vertices on its
    plane: when every kept ``w`` is positive, row m is a facet exactly when
    that is at least 3 of them.
    """
    flat = [(*u, p) for u, p in rows]
    on = [0] * len(flat)
    kept: list[tuple[Vec3, int]] = []
    for i, (u0, u1, u2, p) in enumerate(flat):
        for j in range(i + 1, len(flat)):
            v0, v1, v2, q = flat[j]
            # n = w x a + r b and t = -w . b for the third row (w, r).
            a0, a1, a2 = q * u0 - p * v0, q * u1 - p * v1, q * u2 - p * v2
            b0, b1, b2 = u1 * v2 - u2 * v1, u2 * v0 - u0 * v2, u0 * v1 - u1 * v0
            both = on[i] & on[j]
            for k in range(j + 1, len(flat)):
                if both & on[k]:
                    continue
                w0, w1, w2, r = flat[k]
                n0 = w1 * a2 - w2 * a1 + r * b0
                n1 = w2 * a0 - w0 * a2 + r * b1
                n2 = w0 * a1 - w1 * a0 + r * b2
                t = -(w0 * b0 + w1 * b1 + w2 * b2)
                if not (n0 or n1 or n2 or t):
                    continue
                above = below = False
                for x0, x1, x2, x3 in flat:
                    side = n0 * x0 + n1 * x1 + n2 * x2 + t * x3
                    if side > 0:
                        if below:
                            break
                        above = True
                    elif side < 0:
                        if above:
                            break
                        below = True
                else:
                    bit = 1 << len(kept)
                    for m, (x0, x1, x2, x3) in enumerate(flat):
                        if n0 * x0 + n1 * x1 + n2 * x2 + t * x3 == 0:
                            on[m] |= bit
                    both |= bit
                    kept.append((Vec3(-n0, -n1, -n2), -t) if above else (Vec3(n0, n1, n2), t))
    return kept, on


def _frame(vertices: Sequence[Vec3]) -> tuple[int, list[Vec3]]:
    """The common denominator ``L`` of the vertices and each vertex times ``L``."""
    common, flat = integer_frame([c for p in vertices for c in p])
    return common, [Vec3(*flat[k:k + 3]) for k in range(0, len(flat), 3)]


def _cycled_facets(common: int, pts: list[Vec3], planes: Sequence[_Plane]) -> tuple[Facet, ...]:
    """The facets of ``planes``, sorted by normal, each with its vertices
    in cyclic order (:func:`_order_facet_cycle` on the integer points
    ``pts``)."""
    facets = []
    for u, offset, members in sorted(planes):
        ordered, area = _order_facet_cycle([pts[i] for i in members], u, common)
        facets.append(Facet(u, offset, tuple(members[i] for i in ordered), area))
    return tuple(facets)


def _order_facet_cycle(points: list[Vec3], normal: Vec3, common: int) -> tuple[list[int], Fraction]:
    """Indices of ``points`` (integer, over the denominator ``common``) in
    cyclic order, counterclockwise seen from outside, and the lattice area
    of the facet they span.

    The vector area ("spin") of the facet is parallel to the primitive
    normal; its component along the normal, halved, measures area in
    multiples of the fundamental cell of the plane lattice.
    """
    drop = max(range(3), key=lambda a: abs(normal[a]))
    keep = [a for a in range(3) if a != drop]
    flat = [Vec2(p[keep[0]], p[keep[1]]) for p in points]
    # Directions from the centroid times len(flat) > 0: the same angles.
    total = sum(flat, Vec2(0, 0))
    order = angle_order([q * len(flat) - total for q in flat])
    cycle = [points[i] for i in order]
    spin = Vec3(0, 0, 0)
    for i in range(1, len(cycle) - 1):
        spin = spin + (cycle[i] - cycle[0]).cross(cycle[i + 1] - cycle[0])
    along = spin.dot(normal)
    if along < 0:
        order.reverse()
    return order, Fraction(abs(along), 2 * normal.dot(normal) * common * common)
