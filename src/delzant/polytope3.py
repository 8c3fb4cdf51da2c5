"""Minimal exact 3D polytope support for the line-bundle half-space pipeline.

Only what the facet-data / reconstruction round trip needs: build the facial
structure of a convex-position vertex set, with primitive integer outward
normals, support offsets, and lattice facet areas, all in exact arithmetic.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import StructuralPolygonError
from .vectors import Vec2, Vec3, angle_order, exact_points, integer_frame


class Facet(NamedTuple):
    normal: Vec3                      # primitive integer outward normal
    offset: Fraction                  # x . normal on the facet (= support value)
    vertex_indices: tuple[int, ...]   # cyclic order around the facet
    lattice_area: Fraction            # Euclidean area divided by |normal|


class Polytope3:
    """A convex 3-polytope given by its vertices, with derived facets.

    The input must consist of the vertices of a convex polytope (no interior
    or redundant points); the constructor enumerates supporting planes from
    vertex triples, which is plenty for the small polytopes this package
    works with.
    """

    __slots__ = ("vertices", "facets")

    def __init__(self, vertices: Iterable[Sequence]):
        pts = exact_points(vertices, Vec3)
        if len(set(pts)) != len(pts):
            i = next(i for i, p in enumerate(pts) if p in pts[:i])
            raise StructuralPolygonError(f"repeated vertex at index {i}")
        if len(pts) < 4:
            raise StructuralPolygonError("a 3D polytope needs at least 4 distinct vertices")
        self.vertices: tuple[Vec3, ...] = tuple(pts)
        self.facets: tuple[Facet, ...] = self._derive_facets()
        on_count = [0] * len(self.vertices)
        for facet in self.facets:
            for i in facet.vertex_indices:
                on_count[i] += 1
        if len(self.facets) < 4 or any(c < 3 for c in on_count):
            raise StructuralPolygonError("points are not the vertex set of a convex 3-polytope")

    def _derive_facets(self) -> tuple[Facet, ...]:
        # One integer frame: every coordinate times the common denominator L,
        # so point P is on the plane (n, t) when n . P + t L = 0.
        common, flat = integer_frame([c for p in self.vertices for c in p])
        pts = [Vec3(*flat[k:k + 3]) for k in range(0, len(flat), 3)]
        planes: dict[Vec3, int] = {}
        for n, t in _supporting([(p, common) for p in pts]):
            g = math.gcd(*n)
            planes.setdefault(Vec3(*(c // g for c in n)), -t * common // g)
        facets = []
        for u, c in sorted(planes.items()):
            members = [i for i, p in enumerate(pts) if u.dot(p) == c]
            ordered, area = _order_facet_cycle([pts[i] for i in members], u, common)
            facets.append(Facet(u, Fraction(c, common), tuple(members[i] for i in ordered), area))
        return tuple(facets)

    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polytope3) and self.vertex_set() == other.vertex_set()

    def __hash__(self) -> int:
        return hash(self.vertex_set())

    def __repr__(self) -> str:
        return f"Polytope3[{len(self.vertices)} vertices, {len(self.facets)} facets]"


def _supporting(rows: Sequence[tuple[Vec3, int]]) -> Iterator[tuple[Vec3, int]]:
    """For each triple of integer rows ``(u, p)``, in ``combinations`` order,
    the nonzero ``(n, t)`` with ``n . u + t p = 0`` on all three (signed 3x3
    minors), kept when every row gives ``<= 0`` and negated when ``>= 0``."""
    for (u, p), (v, q), (w, r) in combinations(rows, 3):
        vw = v.cross(w)
        n, t = vw * p + w.cross(u) * q + u.cross(v) * r, -u.dot(vw)
        if t == 0 and n.is_zero():
            continue
        sides = [n.dot(a) + t * b for a, b in rows]
        if max(sides) <= 0:
            yield n, t
        elif min(sides) >= 0:
            yield -n, -t


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
