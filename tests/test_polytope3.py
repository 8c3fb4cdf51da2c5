"""Facial structure of small exact 3-polytopes."""

from fractions import Fraction

import pytest

from delzant import Polytope3, StructuralPolygonError, random_delzant
from delzant.vectors import Vec3


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
