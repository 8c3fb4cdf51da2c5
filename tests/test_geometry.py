"""Geometry core: construction, validation, area, canonical forms,
unimodular equivalence, subpolygons."""

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delzant import (
    Polygon,
    StructuralPolygonError,
    Vec2,
    area,
    detect_subpolygons,
    normalize_translation,
    polygon_from_halfplanes,
    primitive_outward_normal,
    random_delzant,
    sl2z_equivalent,
    validate_delzant,
)
from delzant.errors import BudgetExceededError
from delzant.geometry import Edge
from delzant.vectors import as_scalar, format_rational, primitive_part

rational = st.fractions(min_value=-50, max_value=50, max_denominator=12)


class TestPolygonConstruction:
    def test_reverses_clockwise_input(self):
        cw = Polygon(((0, 0), (0, 1), (1, 1), (1, 0)))
        assert cw.area == 1
        crosses = [
            cw.edges[i].vector.cross(cw.edges[(i + 1) % 4].vector) for i in range(4)
        ]
        assert all(c > 0 for c in crosses)

    def test_rejects_degenerate_input(self):
        with pytest.raises(StructuralPolygonError):
            Polygon(((0, 0), (1, 0)))
        with pytest.raises(StructuralPolygonError):
            Polygon(((0, 0), (1, 0), (1, 0), (0, 1)))
        with pytest.raises(StructuralPolygonError):
            Polygon(((0, 0), (1, 0), (2, 0), (0, 1)))  # collinear triple
        with pytest.raises(StructuralPolygonError):
            Polygon(((0, 0), (2, 0), (1, 1), (2, 2), (0, 2)))  # reflex vertex
        with pytest.raises(StructuralPolygonError, match="more than once"):
            Polygon(((0, 0), (1, 0), (-1, 2), (-1, -1), (1, 1), (-1, 1)))  # hexagram
        with pytest.raises(StructuralPolygonError, match="more than once"):
            Polygon(((0, 0), (3, 2), (-1, 2), (2, 0), (1, 3)))  # pentagram

    def test_rejects_floats(self):
        with pytest.raises(TypeError):
            Polygon(((0, 0), (1.5, 0), (0, 1)))
        with pytest.raises(TypeError):
            Polygon(((0, 0), ("3/2", 0), (0, 1)))  # readers parse strings, constructors do not

    def test_rejects_extra_coordinates(self):
        with pytest.raises(TypeError, match="vertex 0 does not have 2 coordinates"):
            Polygon([(0, 0, 9), (1, 0, 9), (0, 1, 9)])
        with pytest.raises(TypeError, match="vertex 2 does not have 2 coordinates"):
            Polygon(iter([(0, 0), (1, 0), (0, 1, 0)]))

    def test_edge_factorization(self, hirzebruch_111):
        for edge in hirzebruch_111.edges:
            assert edge.vector == edge.direction * edge.lattice_length
            assert edge.lattice_length > 0


def _reference_polygon(vertices):
    """Polygon's construction before its integer frame, all in Fraction,
    kept only as the reference the frame is checked against, with stars
    told apart by the convex hull.  Returns ``(vertices, edges, area)`` or
    raises what the constructor raises."""
    pts = [Vec2(as_scalar(v[0]), as_scalar(v[1])) for v in vertices]
    if len(pts) < 3:
        raise StructuralPolygonError("a polygon needs at least 3 vertices")
    d = len(pts)
    vecs = [pts[(i + 1) % d] - pts[i] for i in range(d)]
    for i, vec in enumerate(vecs):
        if vec.is_zero():
            raise StructuralPolygonError(f"repeated vertex at index {i}")
    crosses = [vecs[i].cross(vecs[(i + 1) % d]) for i in range(d)]
    if all(c < 0 for c in crosses):
        pts.reverse()
        vecs = [pts[(i + 1) % d] - pts[i] for i in range(d)]
        crosses = [vecs[i].cross(vecs[(i + 1) % d]) for i in range(d)]
    if any(c == 0 for c in crosses):
        bad = crosses.index(0)
        raise StructuralPolygonError(f"collinear edges around vertex {(bad + 1) % d}")
    if any(c < 0 for c in crosses):
        raise StructuralPolygonError("vertices do not bound a convex polygon")
    # A cycle that turns left throughout is a convex polygon only if, read
    # from its lex-min vertex, it is the convex hull read from there.
    start = pts.index(min(pts))
    if pts[start:] + pts[:start] != _convex_hull(pts):
        raise StructuralPolygonError("vertices wind around more than once")
    edges = []
    for vec in vecs:
        direction = primitive_part(vec)
        k = 0 if direction.x != 0 else 1
        edges.append(Edge(vec, direction, Fraction(vec[k]) / Fraction(direction[k]), direction.perp_cw()))
    total = sum((pts[i].cross(pts[(i + 1) % d]) for i in range(d)), start=Fraction(0))
    return tuple(pts), tuple(edges), Fraction(total) / 2


def _types(value):
    """The Python type of every scalar in a nest of tuples."""
    if isinstance(value, tuple):
        return tuple(_types(v) for v in value)
    return type(value)


def _convex_hull(points):
    """Strictly convex hull, counterclockwise (Andrew's monotone chain)."""
    pts = sorted(set(Vec2(Fraction(x), Fraction(y)) for x, y in points))

    def half(seq):
        chain = []
        for p in seq:
            while len(chain) >= 2 and (chain[-1] - chain[-2]).cross(p - chain[-1]) <= 0:
                chain.pop()
            chain.append(p)
        return chain[:-1]

    return half(pts) + half(pts[::-1])


frame_coords = st.one_of(st.integers(-6, 6), st.fractions(-6, 6, max_denominator=12))


@st.composite
def vertex_lists(draw):
    """3-9 points: random lists, and convex hulls as they are, clockwise, or
    with a repeated point, a collinear midpoint or a reflex centroid put in.
    Integral coordinates come as int or as Fraction."""
    points = draw(st.lists(st.tuples(frame_coords, frame_coords), min_size=3, max_size=8))
    hull = _convex_hull(points)
    if len(hull) >= 3 and draw(st.booleans()):
        points = [tuple(v) for v in hull]
        i = draw(st.integers(0, len(points) - 1))
        a, b = points[i], points[(i + 1) % len(points)]
        kind = draw(st.sampled_from(["ccw", "cw", "repeat", "collinear", "reflex"]))
        if kind == "cw":
            points.reverse()
        elif kind == "repeat":
            points.insert(draw(st.integers(0, len(points))), a)
        elif kind == "collinear":
            points.insert(i + 1, ((a[0] + b[0]) / 2, (a[1] + b[1]) / 2))
        elif kind == "reflex":
            n = len(points)
            points.insert(i + 1, (sum(p[0] for p in points) / n, sum(p[1] for p in points) / n))
    return [
        tuple(int(c) if c.denominator == 1 and draw(st.booleans()) else c for c in p)
        for p in points
    ]


class TestIntegerFrame:
    """Polygon derives its lattice data in one integer frame; it must agree
    with the Fraction construction on values, types and errors."""

    @given(vertex_lists())
    @settings(max_examples=250, deadline=None, derandomize=True)
    def test_matches_fraction_reference(self, points):
        try:
            expected = _reference_polygon(points)
        except StructuralPolygonError as exc:
            with pytest.raises(StructuralPolygonError) as caught:
                Polygon(points)
            assert str(caught.value) == str(exc)
            return
        polygon = Polygon(points)
        got = (polygon.vertices, polygon.edges, polygon.area)
        assert got == expected
        assert _types(got) == _types(expected)

    @given(st.one_of(st.integers(), st.booleans(), st.fractions()))
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_format_rational_matches_fraction_string(self, value):
        frac = Fraction(value)
        assert format_rational(value) == f"{frac.numerator}/{frac.denominator}"


class TestPrimitiveOutwardNormal:
    def test_bottom_edge_of_square(self):
        assert primitive_outward_normal(Vec2(1, 0)) == Vec2(0, -1)

    def test_projective_hypotenuse(self):
        assert primitive_outward_normal(Vec2(Fraction(-1, 2), Fraction(1, 2))) == Vec2(1, 1)

    def test_non_primitive_input(self):
        assert primitive_outward_normal(Vec2(-2, 4)) == Vec2(2, 1)

    def test_zero_vector_rejected(self):
        with pytest.raises(StructuralPolygonError):
            primitive_outward_normal(Vec2(0, 0))

    @given(x=rational, y=rational)
    @settings(max_examples=60, deadline=None)
    def test_orthogonal_primitive_outward(self, x, y):
        if x == 0 and y == 0:
            return
        e = Vec2(x, y)
        n = primitive_outward_normal(e)
        assert n.dot(e) == 0
        assert math.gcd(int(n.x), int(n.y)) == 1
        # Outward for CCW traversal means the normal sits clockwise of the edge.
        assert e.cross(n) < 0


class TestValidateDelzant:
    def test_projective_triangle_valid(self, projective_triangle):
        assert validate_delzant(projective_triangle).valid

    def test_unit_square_valid(self, unit_square):
        assert validate_delzant(unit_square).valid

    def test_weighted_triangle_invalid(self):
        report = validate_delzant(Polygon(((0, 0), (2, 0), (0, 3))))
        assert not report.valid
        failing = {f.vertex_index: f.determinant for f in report.failures}
        assert abs(failing[1]) == 3


class TestArea:
    def test_unit_square(self, unit_square):
        assert area(unit_square) == 1

    def test_projective_triangle(self, projective_triangle):
        assert area(projective_triangle) == Fraction(1, 8)

    def test_hirzebruch(self, hirzebruch_111):
        assert area(hirzebruch_111) == Fraction(3, 2)

    @given(seed=st.integers(0, 10**6), d=st.integers(3, 8))
    @settings(max_examples=40, deadline=None)
    def test_sl2z_invariance(self, seed, d):
        p = random_delzant(d, seed, 4)
        sheared = p.transform(((1, 2), (1, 3)))  # det 1
        assert sheared.area == p.area

    @given(seed=st.integers(0, 10**6), d=st.integers(3, 8))
    @settings(max_examples=40, deadline=None)
    def test_edge_vectors_sum_to_zero(self, seed, d):
        p = random_delzant(d, seed, 4)
        total = Vec2(0, 0)
        for e in p.edges:
            total = total + e.vector
        assert total.is_zero()


class TestNormalizeTranslation:
    def test_square_to_origin(self):
        shifted = Polygon(((3, 5), (4, 5), (4, 6), (3, 6)))
        assert normalize_translation(shifted).vertices == Polygon(
            ((0, 0), (1, 0), (1, 1), (0, 1))
        ).vertices

    def test_idempotent(self, projective_triangle):
        once = normalize_translation(projective_triangle)
        assert normalize_translation(once) == once

    @given(seed=st.integers(0, 10**6), dx=rational, dy=rational)
    @settings(max_examples=40, deadline=None)
    def test_constant_on_translation_orbits(self, seed, dx, dy):
        p = random_delzant(5, seed, 4)
        moved = p.translate(Vec2(dx, dy))
        assert normalize_translation(moved) == normalize_translation(p)


class TestSl2zEquivalent:
    def test_identity(self, unit_square):
        matrix, translation = sl2z_equivalent(unit_square, unit_square)
        assert matrix == ((1, 0), (0, 1))
        assert translation == Vec2(0, 0)

    def test_rotated_square(self, unit_square):
        rotated = unit_square.transform(((0, -1), (1, 0)))
        found = sl2z_equivalent(unit_square, rotated)
        assert found is not None
        matrix, translation = found
        assert matrix[0][0] * matrix[1][1] - matrix[0][1] * matrix[1][0] == 1
        image = unit_square.transform(matrix).translate(translation)
        assert set(image.vertices) == set(rotated.vertices)

    def test_recovers_shear(self, unit_triangle):
        shear = ((1, 1), (0, 1))
        image = unit_triangle.transform(shear)
        found = sl2z_equivalent(unit_triangle, image)
        assert found is not None
        matrix, translation = found
        moved = unit_triangle.transform(matrix).translate(translation)
        assert set(moved.vertices) == set(image.vertices)

    def test_inequivalent_pair(self, unit_square, unit_triangle):
        assert sl2z_equivalent(unit_square, unit_triangle) is None
        assert sl2z_equivalent(unit_square, Polygon(((0, 0), (2, 0), (2, 1), (0, 1)))) is None

    @given(
        seed=st.integers(0, 10**6),
        d=st.integers(3, 7),
        a=st.integers(-2, 2),
        c=st.integers(-2, 2),
        flip=st.booleans(),
        dx=rational,
        dy=rational,
    )
    @settings(max_examples=50, deadline=None)
    def test_recovers_random_unimodular_map(self, seed, d, a, c, flip, dx, dy):
        p = random_delzant(d, seed, 3)
        matrix = ((1, a), (0, 1)) if flip else ((1, 0), (c, 1))
        image = p.transform(matrix).translate(Vec2(dx, dy))
        found = sl2z_equivalent(p, image)
        assert found is not None
        recovered, translation = found
        assert recovered[0][0] * recovered[1][1] - recovered[0][1] * recovered[1][0] == 1
        moved = p.transform(recovered).translate(translation)
        assert set(moved.vertices) == set(image.vertices)


class TestDetectSubpolygons:
    def test_square_has_none(self, unit_square):
        assert detect_subpolygons(unit_square).subsets == ()

    def test_hexagon_triples(self, subpolygon_hexagon):
        report = detect_subpolygons(subpolygon_hexagon)
        assert (0, 2, 4) in report.subsets
        assert (1, 3, 5) in report.subsets
        for subset in report.subsets:
            total = Vec2(0, 0)
            for i in subset:
                total = total + subpolygon_hexagon.edges[i].vector
            assert total.is_zero()

    def test_generic_pentagon_empty(self):
        assert detect_subpolygons(random_delzant(5, 7, 4)).subsets == ()

    def test_budget(self):
        with pytest.raises(BudgetExceededError, match=r"2\^17 subsets; budget is 2\^16"):
            detect_subpolygons(random_delzant(17, 0, 5))


class TestPolygonFromHalfplanes:
    """A polygon comes back only with edge i on line i, facing n_i."""

    NORMALS = (Vec2(0, -1), Vec2(1, 0), Vec2(0, 1), Vec2(-1, 0))

    @pytest.mark.parametrize("offsets", [
        (-1, 0, 0, -1),  # y >= 1, x <= 0, y <= 0, x >= 1: the unit square, facing inward
        (-2, -1, -2, 2),  # y >= 2, x <= -1, y <= -2, x >= -2: a clockwise rectangle
    ])
    def test_rejects_empty_system(self, offsets):
        with pytest.raises(StructuralPolygonError, match="do not face along"):
            polygon_from_halfplanes(self.NORMALS, offsets)
