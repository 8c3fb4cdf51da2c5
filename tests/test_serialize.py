"""JSON round trips and parse failure modes."""

import json
from fractions import Fraction

import pytest

from delzant import OrientationWarning, ParseError, Polygon, random_delzant, spectral_data
from delzant import bundle_facet_data, enumerate_candidates, parallel_pair_census
from delzant.serialize import (
    candidates_from_json,
    candidates_to_json,
    census_to_json,
    halfspace_from_json,
    halfspace_to_json,
    parse_polygon,
    parse_polytope,
    polytope_to_json,
    serialize_polygon,
    spectral_from_json,
    spectral_to_json,
)
from delzant.vectors import parse_rational

TRIANGLE_DOC = '{"dim":2,"vertices":[["0/1","0/1"],["1/1","0/1"],["0/1","1/1"]]}'


class TestPolygonFormat:
    def test_parse_unit_triangle(self):
        polygon = parse_polygon(TRIANGLE_DOC)
        assert polygon == Polygon(((0, 0), (1, 0), (0, 1)))

    def test_parse_accepts_bytes(self):
        assert parse_polygon(TRIANGLE_DOC.encode()).area == Fraction(1, 2)

    def test_clockwise_warns_and_reverses(self):
        doc = '{"dim":2,"vertices":[["0/1","0/1"],["0/1","1/1"],["1/1","1/1"],["1/1","0/1"]]}'
        with pytest.warns(OrientationWarning):
            polygon = parse_polygon(doc)
        assert polygon.area == 1

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_polygon('{"dim":2,"vertices":[["1/0","0/1"],["1/1","0/1"],["0/1","1/1"]]}')

    def test_malformed_rational(self):
        with pytest.raises(ParseError, match="malformed rational '1/2/3'"):
            parse_rational("1/2/3")

    @pytest.mark.parametrize("text,value", [
        ("2", 2), ("-3/1", -3), ("1/-2", Fraction(-1, 2)), (" +4/6 ", Fraction(2, 3)),
    ])
    def test_rational_sign_and_surrounding_whitespace(self, text, value):
        assert parse_rational(text) == value

    @pytest.mark.parametrize("text", ["1_0", "1_000/3", "1 / 3", "\uff11/\uff12", "\u0663", "1/", "+", ""])
    def test_rational_accepts_only_ascii_digits(self, text):
        with pytest.raises(ParseError, match="malformed rational"):
            parse_rational(text)

    def test_repeated_vertex(self):
        with pytest.raises(ParseError, match="repeated"):
            parse_polygon(
                '{"dim":2,"vertices":[["0/1","0/1"],["1/1","0/1"],["0/1","0/1"],["0/1","1/1"]]}'
            )

    def test_non_convex(self):
        doc = json.dumps(
            {"dim": 2, "vertices": [["0/1", "0/1"], ["2/1", "0/1"], ["1/1", "1/1"],
                                     ["2/1", "2/1"], ["0/1", "2/1"]]}
        )
        with pytest.raises(ParseError):
            parse_polygon(doc)

    def test_malformed_json(self):
        with pytest.raises(ParseError):
            parse_polygon("{nope")
        with pytest.raises(ParseError):
            parse_polygon('{"dim":3,"vertices":[]}')

    def test_bare_integer_rationals_accepted(self):
        polygon = parse_polygon('{"dim":2,"vertices":[["0","0"],["2","0"],["0","2"]]}')
        assert polygon.area == 2

    def test_round_trip_is_identity_on_canonical_forms(self):
        for seed in range(8):
            polygon = random_delzant(6, seed, 4).canonical()
            text = serialize_polygon(polygon)
            assert serialize_polygon(parse_polygon(text)) == text


class TestSpectralFormat:
    def test_round_trip(self, hirzebruch_111):
        data = spectral_data(hirzebruch_111)
        doc = spectral_to_json(data)
        assert doc["d"] == 4
        assert doc["area"] == "3/2"
        assert spectral_from_json(doc) == data

    def test_counts_optional(self):
        doc = {
            "d": 3,
            "classes": [
                {"normal": [0, 1], "lengthSum": "1/1"},
                {"normal": [1, 0], "lengthSum": "1/1"},
                {"normal": [1, 1], "lengthSum": "1/1"},
            ],
            "area": "1/2",
        }
        data = spectral_from_json(doc)
        assert not data.counts_known
        assert len(enumerate_candidates(data)) == 2

    def test_bad_count(self):
        doc = {
            "d": 3,
            "classes": [{"normal": [0, 1], "lengthSum": "1/1", "count": 3}],
            "area": "1/2",
        }
        with pytest.raises(ParseError):
            spectral_from_json(doc)

    def test_duplicate_classes_rejected(self):
        doc = {
            "d": 4,
            "classes": [
                {"normal": [0, 1], "lengthSum": "1/1"},
                {"normal": [0, 1], "lengthSum": "2/1"},
            ],
            "area": "1/1",
        }
        with pytest.raises(ParseError):
            spectral_from_json(doc)


class TestHalfSpaceFormat:
    def test_round_trip_2d(self, unit_triangle):
        system = bundle_facet_data(unit_triangle)
        assert halfspace_from_json(halfspace_to_json(system)) == system

    def test_round_trip_3d(self, unit_cube):
        system = bundle_facet_data(unit_cube)
        doc = halfspace_to_json(system)
        assert doc["dim"] == 3
        assert halfspace_from_json(doc) == system

    def test_dimension_mismatch(self):
        doc = {"dim": 3, "entries": [{"normal": [0, 1], "offset": "0/1", "volume": "1/1"}]}
        with pytest.raises(ParseError):
            halfspace_from_json(doc)


class TestPolytopeFormat:
    def test_3d_round_trip(self, unit_simplex3):
        doc = polytope_to_json(unit_simplex3)
        assert parse_polytope(json.dumps(doc)) == unit_simplex3

    def test_2d_dispatch(self, unit_triangle):
        doc = polytope_to_json(unit_triangle)
        assert parse_polytope(json.dumps(doc)) == unit_triangle


class TestCandidateFormat:
    def test_round_trip(self, hirzebruch_111):
        candidates = enumerate_candidates(spectral_data(hirzebruch_111))
        doc = candidates_to_json(candidates)
        rebuilt = candidates_from_json(doc)
        assert [p.vertices for p in rebuilt.candidates] == [
            p.vertices for p in candidates.candidates
        ]
        assert rebuilt.trace == candidates.trace

    @pytest.mark.parametrize("d", range(3, 10))
    def test_library_traces_read_back(self, d):
        # Every outcome the library writes, three-pair parameters included,
        # passes the reader's consistency checks and reads back unchanged.
        for seed in range(4):
            candidates = enumerate_candidates(spectral_data(random_delzant(d, seed, 4, twist=seed % 2 == 1)))
            rebuilt = candidates_from_json(json.loads(json.dumps(candidates_to_json(candidates))))
            assert rebuilt.trace == candidates.trace
            assert rebuilt.candidates == candidates.candidates


def test_census_payload_shape():
    census = parallel_pair_census(5, 2)
    doc = census_to_json(census)
    assert doc["d"] == 5
    assert doc["total"] == sum(doc["histogram"].values())
    assert all(isinstance(k, str) for k in doc["histogram"])
