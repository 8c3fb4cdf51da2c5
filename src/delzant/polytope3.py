"""Minimal exact 3D polytope support for the line-bundle half-space pipeline.

Only what the facet-data / reconstruction round trip needs: build the facial
structure of a convex-position vertex set, with primitive integer outward
normals, support offsets, and lattice facet areas, all in exact arithmetic.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations
from typing import Iterable, NamedTuple, Sequence

from .errors import StructuralPolygonError
from .vectors import Vec2, Vec3, angle_order, as_scalar, primitive_part


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
        pts = [Vec3(as_scalar(v[0]), as_scalar(v[1]), as_scalar(v[2])) for v in vertices]
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
        pts = self.vertices
        planes: dict[tuple, tuple[Vec3, Fraction]] = {}
        for i, j, k in combinations(range(len(pts)), 3):
            n = (pts[j] - pts[i]).cross(pts[k] - pts[i])
            if n.is_zero():
                continue
            sides = [n.dot(p - pts[i]) for p in pts]
            if all(s <= 0 for s in sides):
                outward = n
            elif all(s >= 0 for s in sides):
                outward = -n
            else:
                continue
            u = primitive_part(outward)
            c = Fraction(u.dot(pts[i]))
            planes.setdefault((tuple(u), c), (u, c))
        facets = []
        for u, c in sorted(planes.values(), key=lambda pair: (tuple(pair[0]), pair[1])):
            members = [i for i, p in enumerate(pts) if u.dot(p) == c]
            ordered, area = _order_facet_cycle([pts[i] for i in members], u)
            facets.append(Facet(u, c, tuple(members[i] for i in ordered), area))
        return tuple(facets)

    def vertex_set(self) -> frozenset:
        return frozenset(self.vertices)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polytope3) and self.vertex_set() == other.vertex_set()

    def __hash__(self) -> int:
        return hash(self.vertex_set())

    def __repr__(self) -> str:
        return f"Polytope3[{len(self.vertices)} vertices, {len(self.facets)} facets]"


def _order_facet_cycle(points: list[Vec3], normal: Vec3) -> tuple[list[int], Fraction]:
    """Indices of ``points`` in cyclic order, counterclockwise seen from
    outside, and the lattice area of the facet they span.

    The vector area ("spin") of the facet is parallel to the primitive
    normal; its component along the normal, halved, measures area in
    multiples of the fundamental cell of the plane lattice.
    """
    drop = max(range(3), key=lambda a: abs(normal[a]))
    keep = [a for a in range(3) if a != drop]
    flat = [(Fraction(p[keep[0]]), Fraction(p[keep[1]])) for p in points]
    n = len(flat)
    cx = sum(q[0] for q in flat) / n
    cy = sum(q[1] for q in flat) / n
    order = angle_order([Vec2(q[0] - cx, q[1] - cy) for q in flat])
    cycle = [points[i] for i in order]
    spin = Vec3(0, 0, 0)
    for i in range(1, len(cycle) - 1):
        spin = spin + (cycle[i] - cycle[0]).cross(cycle[i + 1] - cycle[0])
    along = Fraction(spin.dot(normal))
    if along < 0:
        order.reverse()
    return order, abs(along) / (2 * normal.dot(normal))
