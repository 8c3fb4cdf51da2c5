"""The forward map: spectral data, strata, heat terms, Euler characteristic,
and per-facet bundle data."""

import math
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delzant import (
    HeatLeadingTerm,
    NormalClass,
    PoleError,
    Polygon,
    ReconstructionInfeasibleError,
    SpectralData,
    Stratum,
    UnsupportedError,
    Vec2,
    bundle_facet_data,
    donnelly_leading_term,
    euler_characteristic,
    evaluate_leading_coefficient,
    fixed_point_strata,
    random_delzant,
    spectral_data,
    vertex_count,
)
from delzant.vectors import canonical_unsigned

rational = st.fractions(min_value=-20, max_value=20, max_denominator=8)


class TestSpectralData:
    def test_unit_square(self, unit_square):
        data = spectral_data(unit_square)
        assert data.vertex_count == 4
        assert data.area == 1
        classes = {tuple(c.normal): (c.length_sum, c.edge_count) for c in data.classes}
        assert classes == {(0, 1): (2, 2), (1, 0): (2, 2)}

    def test_unit_triangle(self, unit_triangle):
        data = spectral_data(unit_triangle)
        assert data.vertex_count == 3
        assert data.area == Fraction(1, 2)
        classes = {tuple(c.normal): c.length_sum for c in data.classes}
        assert classes == {(0, 1): 1, (1, 0): 1, (1, 1): 1}

    def test_hirzebruch(self, hirzebruch_111):
        data = spectral_data(hirzebruch_111)
        classes = {tuple(c.normal): (c.length_sum, c.edge_count) for c in data.classes}
        assert classes == {(1, 0): (3, 2), (0, 1): (1, 1), (1, 1): (1, 1)}
        assert data.area == Fraction(3, 2)

    def test_counts_decide_only_a_match_with_counts(self, hirzebruch_111):
        data = spectral_data(hirzebruch_111)
        uncounted = SpectralData(data.vertex_count, [c._replace(edge_count=None) for c in data.classes], data.area)
        assert data.matches(uncounted) and uncounted.matches(data)
        assert not data.matches(uncounted, with_counts=True)

    @given(seed=st.integers(0, 10**6), d=st.integers(3, 8), dx=rational, dy=rational)
    @settings(max_examples=40, deadline=None)
    def test_translation_invariant(self, seed, d, dx, dy):
        p = random_delzant(d, seed, 4)
        assert spectral_data(p.translate(Vec2(dx, dy))).matches(spectral_data(p), with_counts=True)

    @pytest.mark.parametrize("normals, sums", [
        (((0, 1), (1, 0), (0, 1)), (1, 1, 1)),
        (((0, 1), (1, 0), (1, 1)), (1, 0, 1)),
    ], ids=["repeated_normal", "zero_length_sum"])
    def test_rejects_a_repeated_normal(self, normals, sums):
        classes = [NormalClass(Vec2(*n), Fraction(s), None) for n, s in zip(normals, sums)]
        with pytest.raises(
            ReconstructionInfeasibleError,
            match="^normal classes need distinct canonical primitive normals and positive length sums$",
        ):
            SpectralData(3, classes, Fraction(1, 2))


class TestFixedPointStrata:
    def test_zero_direction(self, unit_square):
        assert fixed_point_strata(unit_square, Vec2(0, 0)) == (
            ("polygon", None, 0),
        )

    def test_facet_normal_direction(self, unit_square):
        strata = fixed_point_strata(unit_square, Vec2(1, 0))
        edges = [s for s in strata if s.kind == "edge"]
        vertices = [s for s in strata if s.kind == "vertex"]
        assert {s.index for s in edges} == {1, 3}  # right and left edge
        assert all(s.codimension == 1 for s in edges)
        assert len(vertices) == 4 and all(s.codimension == 2 for s in vertices)

    def test_generic_direction(self, unit_square):
        strata = fixed_point_strata(unit_square, Vec2(1, 2))
        assert all(s.kind == "vertex" for s in strata)
        assert len(strata) == 4

    @pytest.mark.parametrize("x", [1.0, True, Fraction(1, 2)])
    def test_rejects_non_int_direction(self, unit_square, x):
        with pytest.raises(ValueError, match=f"^{re.escape(f'direction ({x!r}, 0)')} must have int coordinates$"):
            fixed_point_strata(unit_square, Vec2(x, 0))

    def test_non_primitive_direction(self, unit_square):
        assert fixed_point_strata(unit_square, Vec2(2, 0)) == fixed_point_strata(unit_square, Vec2(1, 0))

    @given(seed=st.integers(0, 10**6), a=st.integers(-5, 5), b=st.integers(-5, 5))
    @settings(max_examples=40, deadline=None)
    def test_vertices_always_fixed(self, seed, a, b):
        if a == 0 and b == 0:
            return
        p = random_delzant(5, seed, 4)
        strata = fixed_point_strata(p, Vec2(a, b))
        assert sum(1 for s in strata if s.kind == "vertex") == p.edge_count


class TestDonnellyLeadingTerm:
    def test_zero_direction_volume_term(self, unit_square):
        (term,) = donnelly_leading_term(unit_square, Vec2(0, 0))
        assert term.codimension == 0
        assert term.t_exponent == -2
        assert term.two_pi_exponent == 2
        assert term.lattice_volume == 1
        value = evaluate_leading_coefficient(term, 0.7)
        assert value == pytest.approx((2 * math.pi) ** 2, rel=1e-12)

    def test_normal_direction_edge_terms(self, unit_square):
        terms = donnelly_leading_term(unit_square, Vec2(1, 0))
        edge_terms = [t for t in terms if t.codimension == 1]
        vertex_terms = [t for t in terms if t.codimension == 2]
        assert len(edge_terms) == 2 and len(vertex_terms) == 4
        for t in edge_terms:
            assert t.weights == (1,)
            assert t.t_exponent == -1
            assert t.lattice_volume == 1

    def test_rejects_non_primitive(self, unit_square):
        with pytest.raises(ValueError):
            donnelly_leading_term(unit_square, Vec2(2, 0))

    def test_evaluation_at_pi(self, unit_square):
        term = next(
            t for t in donnelly_leading_term(unit_square, Vec2(1, 0)) if t.codimension == 1
        )
        # 2 - 2cos(pi) = 4, so the coefficient is 2*pi/4.
        assert evaluate_leading_coefficient(term, math.pi) == pytest.approx(
            2 * math.pi / 4, rel=1e-12
        )
        assert evaluate_leading_coefficient(term, math.pi / 2) == pytest.approx(
            math.pi, rel=1e-12
        )

    def test_pole_raises(self, unit_square):
        term = next(
            t for t in donnelly_leading_term(unit_square, Vec2(1, 0)) if t.codimension == 1
        )
        with pytest.raises(PoleError):
            evaluate_leading_coefficient(term, 0.0)
        with pytest.raises(PoleError):
            evaluate_leading_coefficient(term, 1e-10)

    @pytest.mark.parametrize("stratum, volume, direction, weights, s, message", [
        (Stratum("vertex", 1, 2), 1, None, (1, 10**400), 0.5, "vertex 1: a weight"),
        (Stratum("vertex", 1, 2), 1, None, (1, -(10**300)), 1e10, "vertex 1: a weight times the parameter"),
        (Stratum("polygon", None, 0), Fraction(10**400, 3), None, (), 0.5, "polygon: the lattice volume"),
        (Stratum("edge", 2, 1), 1, Vec2(1, 10**400), (1,), 0.5, "edge 2: the direction"),
    ], ids=["weight", "weight_times_parameter", "lattice_volume", "direction"])
    def test_past_the_float_range_is_unsupported(self, stratum, volume, direction, weights, s, message):
        codim = stratum.codimension
        term = HeatLeadingTerm(stratum, codim, codim - 2, 2 - codim, Fraction(volume), direction, weights)
        with pytest.raises(UnsupportedError, match=f"^{message} is past the float range$"):
            evaluate_leading_coefficient(term, s)

    @given(seed=st.integers(0, 10**6), s=st.floats(0.3, 2.8), factor=st.integers(2, 5))
    @settings(max_examples=40, deadline=None)
    def test_weight_scaling_identity(self, seed, s, factor):
        p = random_delzant(5, seed, 4)
        terms = [t for t in donnelly_leading_term(p, Vec2(1, 2)) if t.codimension == 2]
        for term in terms:
            scaled = term._replace(weights=tuple(w * factor for w in term.weights))
            try:
                lhs = evaluate_leading_coefficient(term, factor * s)
                rhs = evaluate_leading_coefficient(scaled, s)
            except PoleError:
                continue
            assert lhs == pytest.approx(rhs, rel=1e-9)

    @given(seed=st.integers(0, 10**6), d=st.integers(3, 8))
    @settings(max_examples=30, deadline=None)
    def test_edge_volume_factor_matches_euclidean_length(self, seed, d):
        p = random_delzant(d, seed, 4)
        for i, edge in enumerate(p.edges):
            theta = edge.normal
            term = next(
                t
                for t in donnelly_leading_term(p, theta)
                if t.codimension == 1 and t.stratum.index == i
            )
            assert term.lattice_volume == edge.lattice_length
            start = p.vertices[i]
            end = p.vertices[(i + 1) % d]
            euclidean = math.dist(
                (float(start.x), float(start.y)), (float(end.x), float(end.y))
            )
            symbolic = float(term.lattice_volume) * term.direction.norm_float()
            assert symbolic == pytest.approx(euclidean, rel=1e-12)


def test_one_term_per_stratum():
    """The heat terms follow the strata one for one, with exponents fixed by
    the codimension, over zero, generic and edge-normal directions."""
    for d in range(3, 10):
        for seed in range(3):
            p = random_delzant(d, seed, 4, twist=seed == 2)
            thetas = [Vec2(a, b) for a in range(-2, 3) for b in range(-2, 3) if math.gcd(a, b) <= 1]
            thetas += [e.normal for e in p.edges] + [-e.normal for e in p.edges]
            for theta in thetas:
                terms = donnelly_leading_term(p, theta)
                assert [t.stratum for t in terms] == list(fixed_point_strata(p, theta))
                for t in terms:
                    codim = t.stratum.codimension
                    assert t.codimension == codim
                    assert (t.t_exponent, t.two_pi_exponent) == (codim - 2, 2 - codim)


def _lattice_parts(terms) -> dict:
    """The exact lattice part of the aggregated heat coefficient at each
    power of t: the lattice volumes of the terms with that exponent."""
    parts = {}
    for t in terms:
        parts[t.t_exponent] = parts.get(t.t_exponent, 0) + t.lattice_volume
    return parts


@pytest.mark.parametrize("twist", [False, True], ids=["plain", "twisted"])
@pytest.mark.parametrize("d", range(3, 10))
def test_heat_terms_expose_the_spectral_data(d, twist):
    """The hearable data is what the heat terms expose: theta = 0 gives the
    area at t^-2, a class normal (either sign) gives its summed lattice
    lengths at t^-1, the vertex count comes from the real manifold's Euler
    characteristic, and no other primitive theta fixes an edge."""
    for seed in range(4):
        p = random_delzant(d, seed, 4, twist=twist)
        area = _lattice_parts(donnelly_leading_term(p, Vec2(0, 0)))[-2]
        sums = {}
        for theta in [e.normal for e in p.edges] + [-e.normal for e in p.edges]:
            length_sum = _lattice_parts(donnelly_leading_term(p, theta))[-1]
            assert sums.setdefault(canonical_unsigned(theta), length_sum) == length_sum
        heard = SpectralData(
            vertex_count=vertex_count(euler_characteristic(p.edge_count)),
            classes=tuple(NormalClass(normal, sums[normal], None) for normal in sorted(sums)),
            area=area,
        )
        data = spectral_data(p)
        assert heard == SpectralData(data.vertex_count, tuple(c._replace(edge_count=None) for c in data.classes), data.area)
        others = [
            Vec2(a, b) for a in range(-3, 4) for b in range(-3, 4)
            if math.gcd(a, b) == 1 and canonical_unsigned(Vec2(a, b)) not in sums
        ]
        assert others
        for theta in others:
            parts = _lattice_parts(donnelly_leading_term(p, theta))
            assert set(parts) == {0} and parts[0] == p.edge_count


class TestEulerCharacteristic:
    def test_values(self):
        assert euler_characteristic(3) == 1
        assert euler_characteristic(4) == 0
        assert euler_characteristic(7) == -3

    def test_inverse(self):
        assert vertex_count(1) == 3
        assert vertex_count(-3) == 7

    def test_domain(self):
        with pytest.raises(ValueError):
            euler_characteristic(2)
        with pytest.raises(ValueError):
            vertex_count(2)
        with pytest.raises(ValueError, match="^vertex count must be an int, got float$"):
            euler_characteristic(3.5)

    @given(d=st.integers(3, 40))
    @settings(max_examples=30, deadline=None)
    def test_round_trip(self, d):
        assert vertex_count(euler_characteristic(d)) == d


class TestBundleFacetData:
    def test_unit_triangle(self, unit_triangle):
        system = bundle_facet_data(unit_triangle)
        assert system.dim == 2
        entries = {e.normal: (e.offset, e.volume) for e in system.entries}
        assert entries == {(0, -1): (0, 1), (-1, 0): (0, 1), (1, 1): (1, 1)}

    def test_hirzebruch(self, hirzebruch_111):
        entries = {e.normal: (e.offset, e.volume) for e in bundle_facet_data(hirzebruch_111).entries}
        assert entries == {(0, -1): (0, 1), (1, 0): (1, 1), (1, 1): (2, 1), (-1, 0): (0, 2)}

    def test_cube(self, unit_cube):
        system = bundle_facet_data(unit_cube)
        assert system.dim == 3
        assert len(system.entries) == 6
        assert all(e.volume == 1 for e in system.entries)
        assert {e.offset for e in system.entries} == {0, 1}

    def test_offsets_are_support_values(self, hirzebruch_111):
        for entry in bundle_facet_data(hirzebruch_111).entries:
            normal = Vec2(*entry.normal)
            assert entry.offset == max(Fraction(v.dot(normal)) for v in hirzebruch_111.vertices)

    def test_halfspace_description_is_exact(self, three_pair_hexagon):
        system = bundle_facet_data(three_pair_hexagon)
        for v in three_pair_hexagon.vertices:
            assert all(v.dot(Vec2(*e.normal)) <= e.offset for e in system.entries)

    @pytest.mark.parametrize("value", [Vec2(0, 0), [(0, 0), (1, 0), (0, 1)], None])
    def test_rejects_a_non_polytope(self, value):
        with pytest.raises(TypeError, match=f"^expected Polygon or Polytope3, got {type(value).__name__}$"):
            bundle_facet_data(value)

    def test_integrality_flag(self, projective_triangle):
        bundle_facet_data(projective_triangle)  # rational vertices accepted by default
        with pytest.raises(ValueError, match=r"^vertex 1 \(1/2, 0\) is not integral$"):
            bundle_facet_data(projective_triangle, require_integral=True)

    def test_integrality_message_past_the_digit_limit(self):
        limit = sys.get_int_max_str_digits()
        a = Fraction(10 ** limit + 1, 2)
        with pytest.raises(ValueError, match=rf"^vertex 1 is not integral \(a value in it has more than {limit} digits\)$"):
            bundle_facet_data(Polygon([(0, 0), (a, 0), (0, a)]), require_integral=True)
