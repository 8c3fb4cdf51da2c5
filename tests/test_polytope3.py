"""Facial structure of small exact 3-polytopes."""

import json
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from delzant import (
    Polytope3,
    ReconstructionInfeasibleError,
    StructuralPolygonError,
    bundle_facet_data,
    bundle_reconstruct,
    random_delzant,
    reconstruct,
)
from delzant.polytope3 import Facet, _supporting
from delzant.serialize import polytope_to_json
from delzant.spectral import HalfSpaceEntry, HalfSpaceSystem
from delzant.vectors import Vec2, Vec3, angle_order, primitive_part


def test_cube_facets(unit_cube):
    assert len(unit_cube.facets) == 6
    for facet in unit_cube.facets:
        assert facet.lattice_area == 1
        assert len(facet.vertex_indices) == 4
    normals = {facet.normal for facet in unit_cube.facets}
    assert normals == {
        (1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1),
    }


def test_simplex_facets(unit_simplex3):
    assert len(unit_simplex3.facets) == 4
    by_normal = {facet.normal: facet for facet in unit_simplex3.facets}
    assert by_normal[(1, 1, 1)].offset == 1
    # Every facet is half a fundamental cell of its plane lattice.
    assert all(facet.lattice_area == Fraction(1, 2) for facet in unit_simplex3.facets)


def test_triangular_prism():
    prism = Polytope3(
        [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)]
    )
    assert len(prism.facets) == 5
    areas = sorted(facet.lattice_area for facet in prism.facets)
    assert areas == [Fraction(1, 2), Fraction(1, 2), 1, 1, 1]


def test_chopped_cube():
    cube2 = [(2 * x, 2 * y, 2 * z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]
    points = [p for p in cube2 if p != (0, 0, 0)] + [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    chopped = Polytope3(points)
    assert len(chopped.facets) == 7
    diag = next(f for f in chopped.facets if f.normal == (-1, -1, -1))
    assert diag.offset == -1
    assert diag.lattice_area == Fraction(1, 2)


def test_vertex_set_equality(unit_cube):
    shuffled = Polytope3(list(reversed(unit_cube.vertices)))
    assert shuffled == unit_cube


def test_rejects_flat_input():
    with pytest.raises(StructuralPolygonError):
        Polytope3([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])


def test_rejects_too_few_points():
    with pytest.raises(StructuralPolygonError):
        Polytope3([(0, 0, 0), (1, 0, 0), (0, 1, 0)])


def test_rejects_repeated_point(unit_simplex3):
    points = list(unit_simplex3.vertices) + [(Fraction(1), 0, 0)]
    with pytest.raises(StructuralPolygonError, match="repeated vertex at index 4"):
        Polytope3(points)


def _prism(polygon, height):
    return [(v.x, v.y, z) for v in polygon.vertices for z in (0, height)]


CUBE2 = [(2 * x, 2 * y, 2 * z) for x in (0, 1) for y in (0, 1) for z in (0, 1)]


@pytest.mark.parametrize("points", [
    [(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)],
    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (0, 1, 1)],
    [p for p in CUBE2 if p != (0, 0, 0)] + [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
] + [
    _prism(random_delzant(5, seed, twist=twist), Fraction(seed + 1, 2))
    for seed in range(4) for twist in (False, True)
])
def test_facet_cycles_turn_left_about_the_outward_normal(points):
    polytope = Polytope3(points)
    for facet in polytope.facets:
        n = facet.normal
        cycle = [polytope.vertices[i] for i in facet.vertex_indices]
        following = cycle[1:] + cycle[:1]
        spin = Vec3(0, 0, 0)
        for a, b in zip(cycle, following):
            spin = spin + a.cross(b)
        assert spin.dot(n) > 0
        for a, b, c in zip(cycle, following, following[1:] + following[:1]):
            assert (b - a).cross(c - b).dot(n) > 0
        assert facet.lattice_area == Fraction(spin.dot(n), 2 * n.dot(n))


def test_rejects_extra_coordinates():
    with pytest.raises(TypeError, match="vertex 3 does not have 3 coordinates"):
        Polytope3([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1, 5)])


def test_supporting_keeps_the_unflipped_vector_of_a_flat_triple():
    # Every row lies on the hyperplane of the first triple, so every side is 0.
    rows = [(Vec3(0, 0, 0), 1), (Vec3(1, 0, 0), 1), (Vec3(0, 1, 0), 1), (Vec3(1, 1, 0), 1)]
    assert next(_supporting(rows)) == (Vec3(0, 0, 1), 0)


# -- the Fraction construction both 3D paths used before the integer scan ----


def _reference_derive_facets(self):
    pts = self.vertices
    planes = {}
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
        points = [pts[i] for i in members]
        keep = [a for a in range(3) if a != max(range(3), key=lambda a: abs(u[a]))]
        flat = [(Fraction(p[keep[0]]), Fraction(p[keep[1]])) for p in points]
        cx = sum(q[0] for q in flat) / len(flat)
        cy = sum(q[1] for q in flat) / len(flat)
        order = angle_order([Vec2(q[0] - cx, q[1] - cy) for q in flat])
        cycle = [points[i] for i in order]
        spin = Vec3(0, 0, 0)
        for i in range(1, len(cycle) - 1):
            spin = spin + (cycle[i] - cycle[0]).cross(cycle[i + 1] - cycle[0])
        along = Fraction(spin.dot(u))
        if along < 0:
            order.reverse()
        area = abs(along) / (2 * u.dot(u))
        facets.append(Facet(u, c, tuple(members[i] for i in order), area))
    return tuple(facets)


def _reference_reconstruct_polytope(entries):
    normals = [Vec3(*e.normal) for e in entries]
    offsets = [Fraction(e.offset) for e in entries]
    points = []
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
        return Polytope3(points)
    except StructuralPolygonError as exc:
        raise ReconstructionInfeasibleError(f"intersection is not a 3-polytope: {exc}") from exc


def _box(a, b, c):
    return [(x, y, z) for x in (0, a) for y in (0, b) for z in (0, c)]


def _solids():
    solids = [_box(1, 1, 1), _box(2, 1, Fraction(3, 2)), _box(3, 2, 1)]
    for depth in (Fraction(1, 2), Fraction(3, 2)):
        solids.append([p for p in CUBE2 if p != (0, 0, 0)] + [(depth, 0, 0), (0, depth, 0), (0, 0, depth)])
    for d in range(3, 7):
        for twist in (False, True):
            solids.append(_prism(random_delzant(d, d, 3, twist=twist), Fraction(d + 1, 3)))
    solids.append([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    return solids


def _clouds():
    rng = random.Random(3)
    clouds = []
    for i in range(24):
        pts = {tuple(Fraction(rng.randint(0, 4), rng.choice((1, 2))) for _ in range(3)) for _ in range(rng.randint(4, 7))}
        if i % 4 == 0:
            pts = {(x, y, 0) for x, y, _ in pts}
        elif i % 4 == 1:
            pts = {(x, y, 2 - x - y) for x, y, _ in pts}
        clouds.append(sorted(pts))
    return clouds


def _systems(solids):
    """Each solid's half-space system, and versions of it where each entry
    in turn is dropped, has its offset shifted by 1/3, or negated."""
    systems = []
    for points in solids:
        entries = list(bundle_facet_data(Polytope3(points)).entries)
        systems.append(entries)
        for i, e in enumerate(entries):
            # By i mod 3: dropped, shifted by 1/3, negated.
            changed = [(), (e._replace(offset=e.offset + Fraction(1, 3)),), (e._replace(offset=-e.offset),)]
            systems.append(entries[:i] + list(changed[i % 3]) + entries[i + 1:])
    rng = random.Random(5)
    normals = [n for n in product(range(-2, 3), repeat=3) if math.gcd(*n) == 1]
    for _ in range(60):
        systems.append([
            HalfSpaceEntry(n, Fraction(rng.randint(-2, 6), rng.randint(1, 3)), Fraction(rng.randint(1, 4), 2))
            for n in rng.sample(normals, rng.randint(4, 7))
        ])
    apex = Vec3(Fraction(1, 2), 1, Fraction(-1, 3))
    cone = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1), (1, 1, 0)]
    systems.append([HalfSpaceEntry(n, apex.dot(Vec3(*n)), Fraction(1)) for n in cone])
    return [HalfSpaceSystem(3, tuple(entries)) for entries in systems]


def _outcome(make):
    try:
        polytope = make()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return f"{type(exc).__name__}: {exc}"
    return f"{polytope.vertices!r} | {polytope.facets!r} | {json.dumps(polytope_to_json(polytope))}"


class TestIntegerFrame:
    """Facets and rebuilt vertices come from one integer supporting-plane
    scan; they must agree with the Fraction construction on values, types,
    order and errors."""

    def test_matches_fraction_reference(self, monkeypatch):
        solids = _solids()
        systems = _systems(solids)
        cases = [lambda p=p: Polytope3(p) for p in solids + _clouds()]
        cases += [lambda s=s: bundle_reconstruct(s) for s in systems]
        got = [_outcome(make) for make in cases]
        monkeypatch.setattr(Polytope3, "_derive_facets", _reference_derive_facets)
        monkeypatch.setattr(reconstruct, "_reconstruct_polytope", _reference_reconstruct_polytope)
        expected = [_outcome(make) for make in cases]
        assert got == expected
        kinds = {line.split(":")[0] for line in got if not line.startswith("(")}
        assert kinds == {"StructuralPolygonError", "ReconstructionInfeasibleError", "InconsistentSystemError"}
