"""The inverse map: builder, candidate enumeration, three-pair families,
genericity, and half-space reconstruction."""

import importlib
import json
import sys
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delzant import (
    ChopSpec,
    HalfSpaceEntry,
    HalfSpaceSystem,
    InconsistentSystemError,
    Polygon,
    Polytope3,
    ReconstructionInfeasibleError,
    SignedEdgeList,
    UnsupportedAmbiguityError,
    Vec2,
    angle_sort_oracle,
    build_most_obtuse,
    bundle_facet_data,
    bundle_reconstruct,
    chop,
    enumerate_candidates,
    hirzebruch,
    is_generic,
    parallel_pair_count,
    random_delzant,
    solve_three_pair_parameter,
    spectral_data,
    three_pair_family,
    validate_delzant,
)
from delzant.serialize import parse_spectral, spectral_to_json
from delzant.spectral import NormalClass, SpectralData
from delzant.vectors import angle_order

SQUARE_EDGES = (Vec2(1, 0), Vec2(0, 1), Vec2(-1, 0), Vec2(0, -1))


class TestBuildMostObtuse:
    def test_square_ccw(self):
        polygon = build_most_obtuse(SignedEdgeList(SQUARE_EDGES, Vec2(0, -1)))
        assert set(polygon.vertices) == {Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 1)}

    def test_square_reflected_anchor(self):
        polygon = build_most_obtuse(SignedEdgeList(SQUARE_EDGES, Vec2(0, 1)))
        assert set(polygon.vertices) == {Vec2(0, 0), Vec2(1, 0), Vec2(1, -1), Vec2(0, -1)}

    def test_triangle(self):
        edges = (Vec2(1, 0), Vec2(0, 1), Vec2(-1, -1))
        polygon = build_most_obtuse(SignedEdgeList(edges, Vec2(0, -1)))
        assert set(polygon.vertices) == {Vec2(0, 0), Vec2(1, 0), Vec2(1, 1)}

    def test_mixed_length_edges(self):
        # The short (1, 1/10) comes directly after (1, 0) even though the
        # long (10, 30) has a much larger raw inner product with it.
        edges = (
            Vec2(1, 0),
            Vec2(10, 30),
            Vec2(Fraction(-12), Fraction(-301, 10)),
            Vec2(1, Fraction(1, 10)),
        )
        polygon = build_most_obtuse(SignedEdgeList(edges, Vec2(0, -1)))
        assert polygon.vertices[2] == Vec2(2, Fraction(1, 10))

    def test_rejects_non_closing(self):
        with pytest.raises(ReconstructionInfeasibleError):
            SignedEdgeList((Vec2(1, 0), Vec2(0, 1), Vec2(-1, -2)), Vec2(0, -1))

    def test_rejects_bad_anchor(self):
        with pytest.raises(ReconstructionInfeasibleError):
            SignedEdgeList(SQUARE_EDGES, Vec2(1, 1))
        with pytest.raises(ReconstructionInfeasibleError, match="^anchor normal must be nonzero"):
            SignedEdgeList(SQUARE_EDGES, Vec2(0, 0))

    def test_rejects_duplicate_directions(self):
        edges = (Vec2(1, 0), Vec2(1, 0), Vec2(-1, 1), Vec2(-1, -1))
        with pytest.raises(ReconstructionInfeasibleError):
            build_most_obtuse(SignedEdgeList(edges, Vec2(0, -1)))

    @pytest.mark.parametrize("edges, message", [
        ((Vec2(1, 0), Vec2(-1, 0)), "need at least three edges"),
        ((Vec2(1, 0), Vec2(0, 0), Vec2(-1, 0)), "zero edge vector"),
    ])
    def test_edge_list_rejects(self, edges, message):
        with pytest.raises(ReconstructionInfeasibleError, match=f"^{message}$"):
            SignedEdgeList(edges, Vec2(0, -1))

    @pytest.mark.parametrize("builder, edges, message", [
        # Two edges turn left of (1, 0) by the same angle.
        (build_most_obtuse, (Vec2(1, 0), Vec2(0, 1), Vec2(0, 1), Vec2(-1, -2)), "two edges share a direction"),
        # Every edge left after (1, 0) is parallel to it.
        (build_most_obtuse, (Vec2(1, 0), Vec2(-2, 0), Vec2(1, 0)), "no admissible next edge"),
        # Two edges along (1, 0).
        (angle_sort_oracle, (Vec2(1, 0), Vec2(1, 0), Vec2(-1, 1), Vec2(-1, -1)), "two edges share a direction"),
        # Two equal edges left of (1, 0).
        (angle_sort_oracle, (Vec2(1, 0), Vec2(0, 1), Vec2(0, 1), Vec2(-1, -2)), "two edges share a direction"),
    ])
    def test_builders_reject(self, builder, edges, message):
        with pytest.raises(ReconstructionInfeasibleError, match=f"^{message}"):
            builder(SignedEdgeList(edges, Vec2(0, -1)))

    @given(seed=st.integers(0, 10**6), d=st.integers(3, 10), rotate=st.integers(0, 9),
           flip=st.booleans(), anchor_flip=st.booleans())
    @settings(max_examples=80, deadline=None)
    def test_agrees_with_angle_sort_oracle(self, seed, d, rotate, flip, anchor_flip):
        p = random_delzant(d, seed, 4)
        edges = [e.vector for e in p.edges]
        normal = p.edges[rotate % d].normal
        edges = edges[rotate % d:] + edges[:rotate % d]
        if flip:
            edges = [-e for e in edges]
        sel = SignedEdgeList(tuple(edges), normal * (-1 if anchor_flip else 1))
        assert build_most_obtuse(sel) == angle_sort_oracle(sel)


class TestFourDCollapse:
    @given(seed=st.integers(0, 10**6), d=st.integers(3, 8))
    @settings(max_examples=30, deadline=None)
    def test_all_4d_builds_collapse(self, seed, d):
        p = random_delzant(d, seed, 4)
        expected = {p.canonical_key(), (-p).canonical_key()}
        produced = set()
        for l in range(d):
            for sign in (1, -1):
                edges = [e.vector * sign for e in p.edges]
                edges = edges[l:] + edges[:l]
                for anchor in (1, -1):
                    built = build_most_obtuse(
                        SignedEdgeList(tuple(edges), p.edges[l].normal * anchor)
                    )
                    produced.add(built.canonical_key())
        assert produced == expected


class TestEnumerateCandidates:
    def test_triangle_exactly_two(self, unit_triangle):
        candidates = enumerate_candidates(spectral_data(unit_triangle))
        assert len(candidates) == 2
        assert unit_triangle in candidates
        assert (-unit_triangle) in candidates

    def test_square_collapses_to_one(self, unit_square):
        candidates = enumerate_candidates(spectral_data(unit_square))
        assert len(candidates) == 1
        assert unit_square in candidates
        # Containment is up to translation.
        assert unit_square.translate(Vec2(Fraction(5, 3), -7)) in candidates

    def test_hirzebruch_two(self, hirzebruch_111):
        candidates = enumerate_candidates(spectral_data(hirzebruch_111))
        assert len(candidates) == 2
        assert hirzebruch_111 in candidates

    def test_candidates_reproduce_data(self, hirzebruch_111):
        data = spectral_data(hirzebruch_111)
        for candidate in enumerate_candidates(data):
            assert validate_delzant(candidate).valid
            assert spectral_data(candidate).matches(data)

    def test_trust_counts_mode(self, hirzebruch_111):
        data = spectral_data(hirzebruch_111)
        candidates = enumerate_candidates(data, trust_counts=True)
        assert len(candidates) == 2
        trusted_assignments = {
            rec.doubled for rec in candidates.trace if rec.outcome == "emitted"
        }
        assert trusted_assignments == {((1, 0),)}

    def test_counts_suppressed_data(self, hirzebruch_111):
        data = spectral_data(hirzebruch_111)
        stripped = SpectralData(
            vertex_count=data.vertex_count,
            classes=tuple(NormalClass(c.normal, c.length_sum, None) for c in data.classes),
            area=data.area,
        )
        candidates = enumerate_candidates(stripped)
        assert hirzebruch_111 in candidates
        with pytest.raises(ValueError):
            enumerate_candidates(stripped, trust_counts=True)

    def test_too_many_pairs_rejected(self):
        classes = tuple(
            NormalClass(Vec2(*n), Fraction(4), 2)
            for n in ((0, 1), (1, 0), (1, 1), (1, -1))
        )
        data = SpectralData(vertex_count=8, classes=classes, area=Fraction(10))
        with pytest.raises(UnsupportedAmbiguityError):
            enumerate_candidates(data)

    def test_infeasible_data(self):
        classes = (
            NormalClass(Vec2(0, 1), Fraction(1), 1),
            NormalClass(Vec2(1, 0), Fraction(1), 1),
            NormalClass(Vec2(1, 1), Fraction(5), 1),
        )
        data = SpectralData(vertex_count=3, classes=classes, area=Fraction(1, 2))
        with pytest.raises(ReconstructionInfeasibleError):
            enumerate_candidates(data)

    @pytest.mark.parametrize("order", [1, -1])
    @pytest.mark.parametrize("vertices", [((0, 0), (2, 0), (0, 2)), ((0, 0), (1, 0), (0, 1))])
    def test_a_one_pair_split_at_either_end_is_inadmissible(self, vertices, order):
        """A triangle's classes read as a 4-gon's: each doubled class closes
        with the split 0 | sum, and its mirror pattern with sum | 0, the two
        ends of the open interval.  Both are inadmissible, so nothing is
        emitted; taking either end in would emit degenerate 4-gons.  Only
        the patterns below half are decided, and which end they meet
        depends on the class order, so both orders are given."""
        data = spectral_data(Polygon(vertices))
        classes = tuple(c._replace(edge_count=None) for c in data.classes)[::order]
        data = replace(data, vertex_count=4, classes=classes)
        with pytest.raises(ReconstructionInfeasibleError, match="^no Delzant polygon"):
            enumerate_candidates(data)

    @pytest.mark.parametrize("normals, counts", [
        (((1, 0), (2, 0)), (2, 2)),
        (((0, 1), (-1, 0)), (2, 2)),
        (((0, 1), (1, 0), (1, 1)), (3, 1, 0)),
    ])
    def test_rejects_classes_no_polygon_can_have(self, normals, counts):
        # The datum is built inside pytest.raises: a non-primitive or
        # non-canonical normal is rejected by SpectralData itself, counts
        # of 3 and 0 by the enumeration.
        classes = tuple(NormalClass(Vec2(*n), Fraction(2), k) for n, k in zip(normals, counts))
        with pytest.raises(ReconstructionInfeasibleError):
            enumerate_candidates(SpectralData(vertex_count=4, classes=classes, area=Fraction(1)), trust_counts=True)

    def test_counts_must_sum_to_vertex_count(self, hirzebruch_111):
        data = spectral_data(hirzebruch_111)
        data = replace(data, classes=tuple(c._replace(edge_count=1) for c in data.classes))
        with pytest.raises(ReconstructionInfeasibleError, match="do not sum to the vertex count"):
            enumerate_candidates(data)

    def test_needs_three_vertices(self):
        classes = (NormalClass(Vec2(0, 1), Fraction(1), None), NormalClass(Vec2(1, 0), Fraction(1), None))
        data = SpectralData(vertex_count=2, classes=classes, area=Fraction(1))
        with pytest.raises(ReconstructionInfeasibleError, match="inconsistent data: 2 vertices"):
            enumerate_candidates(data)

    @pytest.mark.parametrize("normals, area", [
        # More classes than vertices, with counts unknown.
        (((0, 1), (1, 0), (1, 1), (1, -1)), Fraction(1)),
        (((0, 1), (1, 0), (1, 1)), Fraction(0)),
        (((0, 1), (1, 0), (1, 1)), Fraction(-1, 2)),
    ])
    def test_needs_no_more_classes_than_vertices_and_a_positive_area(self, normals, area):
        classes = tuple(NormalClass(Vec2(*n), Fraction(1), None) for n in normals)
        data = SpectralData(vertex_count=3, classes=classes, area=area)
        with pytest.raises(ReconstructionInfeasibleError, match=f"^inconsistent data: 3 vertices, {len(normals)} normal"):
            enumerate_candidates(data)

    @pytest.mark.parametrize("d", range(3, 10))
    def test_area_no_smooth_chain_matches(self, d):
        """Every branch that closes and is smooth is dropped on its area."""
        for seed in range(10):
            for twist in (False, True):
                data = spectral_data(random_delzant(d, seed, twist=twist))
                if data.parallel_pairs > 3:
                    continue
                for nudge in (Fraction(1, 7), Fraction(5, 2)):
                    for trust_counts in (False, True):
                        with pytest.raises(ReconstructionInfeasibleError, match="no Delzant polygon"):
                            enumerate_candidates(replace(data, area=data.area + nudge), trust_counts=trust_counts)

    # The seed-3 pentagon's data: area 55/8, class sums 7/2, 13/2 and 1/2;
    # class 0 has normal (0, 1) and two edges.
    @pytest.mark.parametrize("field, value", [
        ("area", 6.875),
        ("area", True),
        ("length_sum", 3.5),
        ("length_sum", 0.1),
        ("length_sum", True),
        ("vertex_count", 5.0),
        ("vertex_count", True),
        ("edge_count", 2.0),
        ("edge_count", True),
        ("normal", Vec2(Fraction(0), Fraction(1))),
        ("normal", Vec2(False, True)),
    ])
    def test_rejects_inexact_input_naming_the_field(self, field, value):
        # The bad datum is built inside pytest.raises: SpectralData rejects
        # it when it is built, before any enumeration.
        data = spectral_data(random_delzant(5, 3, 4))
        with pytest.raises(ValueError, match=f"^{field.replace('_', ' ')}.* must be an int"):
            if field in ("length_sum", "edge_count", "normal"):
                replace(data, classes=(data.classes[0]._replace(**{field: value}),) + data.classes[1:])
            else:
                replace(data, **{field: value})

    @pytest.mark.parametrize("trust_counts", [False, True])
    def test_int_area_and_sums_are_exact_input(self, unit_square, subpolygon_hexagon, trust_counts):
        for polygon in (unit_square, subpolygon_hexagon):
            data = spectral_data(polygon)
            ints = replace(
                data,
                area=int(data.area),
                classes=tuple(c._replace(length_sum=int(c.length_sum)) for c in data.classes),
            )
            assert ints.area == data.area and type(ints.area) is int
            assert enumerate_candidates(ints, trust_counts) == enumerate_candidates(data, trust_counts)

    @given(seed=st.integers(0, 10**6), d=st.integers(3, 7))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_contains_source(self, seed, d):
        p = random_delzant(d, seed, 3)
        data = spectral_data(p)
        if data.parallel_pairs > 3:
            return
        assert p in enumerate_candidates(data)


class TestCheckedOnce:
    """A SpectralData is checked where it is built, once; the enumeration
    checks only what the type cannot."""

    @pytest.mark.parametrize("data", [None, (4, (), Fraction(1)), {"vertex_count": 4}], ids=["none", "tuple", "dict"])
    def test_rejects_what_is_not_spectral_data(self, data):
        with pytest.raises(TypeError, match=f"^expected SpectralData, got {type(data).__name__}$"):
            enumerate_candidates(data)

    def test_enumerating_built_or_parsed_data_runs_no_field_check(self, monkeypatch):
        """A work counter, free of timing noise: enumerating the data of a
        polygon, or the data parsed back from its JSON, calls none of the
        exactness and primitivity tests that SpectralData's own checks make
        (looked up in the modules that build and enumerate the datum)."""
        spectral = importlib.import_module("delzant.spectral")
        module = importlib.import_module("delzant.reconstruct")
        inputs = []
        for d in range(3, 10):
            for seed in range(4):
                for twist in (False, True):
                    polygon = random_delzant(d, seed, twist=twist)
                    data = spectral_data(polygon)
                    if data.parallel_pairs <= 3:
                        inputs.append((polygon, json.dumps(spectral_to_json(data))))
        calls = []
        for target, name in ((spectral, "is_exact"), (spectral, "is_primitive_integer"),
                             (module, "is_primitive_integer")):
            real = getattr(target, name)
            monkeypatch.setattr(target, name, lambda *args, real=real, name=name: calls.append(name) or real(*args))
        for polygon, text in inputs:
            parsed = parse_spectral(text)
            for data in (spectral_data(polygon), parsed):
                monkeypatch.setattr(module, "_last", None)
                enumerate_candidates(data)
        assert len(inputs) > 40
        assert calls == []
        # The spies do see the checks of a datum built the public way.
        SpectralData(parsed.vertex_count, parsed.classes, parsed.area)
        assert "is_exact" in calls and "is_primitive_integer" in calls


def test_fan_is_the_angular_order_of_every_signed_direction():
    """The fan from one half-turn and its negatives is the angular order of
    all 2r signed class directions from (1, 0), on every datum of d =
    3..10, seeds 0-15, plain and twisted."""
    fan = importlib.import_module("delzant.reconstruct")._fan
    checked = 0
    for d in range(3, 11):
        for seed in range(16):
            for twist in (False, True):
                data = spectral_data(random_delzant(d, seed, twist=twist))
                dirs = [Vec2(-y, x) for x, y in (c.normal for c in data.classes)]
                signed = [(i, s) for i in range(len(dirs)) for s in (1, -1)]
                assert fan(dirs) == [signed[k] for k in angle_order([dirs[i] * s for i, s in signed])], (d, seed, twist)
                checked += 1
    assert checked == 256


def _reference_outcome(data, record, trust_counts):
    """Decide one traced branch the slow way: rebuild its edge multiset and
    run the per-branch most-obtuse builder with the record's anchor."""
    splits = dict(zip(record.doubled, record.splits))
    edges = []
    for c, sign in zip(data.classes, record.signs):
        w = c.normal.perp_ccw()
        if tuple(c.normal) in splits:
            lam, mu = splits[tuple(c.normal)]
            edges += [w * lam, w * -mu]
        else:
            edges.append(w * (sign * c.length_sum))
    try:
        polygon = build_most_obtuse(SignedEdgeList(tuple(edges), data.classes[0].normal * record.anchor))
    except ReconstructionInfeasibleError:
        return "no_convex_ordering", None
    if not validate_delzant(polygon):
        return "dropped_invalid", None
    if not spectral_data(polygon).matches(data, with_counts=trust_counts):
        return "dropped_mismatch", None
    return "emitted", polygon.canonical()


class TestTraceOracle:
    """The builder behind every anchored trace record reproduces its outcome
    and, when emitted, its candidate."""

    @pytest.mark.parametrize("d", range(3, 9))
    @pytest.mark.parametrize("trust_counts", [False, True])
    def test_anchored_records_match_build_most_obtuse(self, d, trust_counts):
        checked = 0
        for seed in range(8):
            data = spectral_data(random_delzant(d, seed, 4, twist=seed % 2 == 1))
            if data.parallel_pairs > 3:
                continue
            candidates = enumerate_candidates(data, trust_counts=trust_counts)
            for record in candidates.trace:
                if record.anchor == 0:
                    continue
                outcome, polygon = _reference_outcome(data, record, trust_counts)
                assert record.outcome == outcome
                if outcome == "emitted":
                    assert candidates.candidates[record.candidate_index] == polygon
                checked += 1
        assert checked > 0

    @pytest.mark.parametrize("d", range(3, 10))
    @pytest.mark.parametrize("trust_counts", [False, True])
    def test_each_branch_is_one_unanchored_record_or_an_anchor_pair(self, d, trust_counts):
        unanchored = {"no_closure", "inadmissible_split"}
        for seed in range(8):
            data = spectral_data(random_delzant(d, seed, 4, twist=seed % 2 == 1))
            if data.parallel_pairs > 3:
                continue
            trace = enumerate_candidates(data, trust_counts=trust_counts).trace
            i = 0
            while i < len(trace):
                record = trace[i]
                if record.anchor == 0:
                    assert record.outcome in unanchored
                    if record.outcome == "no_closure":
                        assert (record.splits, record.parameter) == ((), None)
                    i += 1
                    continue
                twin = trace[i + 1]
                assert (record.anchor, twin.anchor) == (1, -1) and record.outcome not in unanchored
                assert record[:4] + (record.outcome,) == twin[:4] + (twin.outcome,)
                i += 2

    @pytest.mark.parametrize("d", range(3, 10))
    @pytest.mark.parametrize("twist", [False, True])
    @pytest.mark.parametrize("trust_counts", [False, True])
    def test_unanchored_records_match_a_fraction_reference(self, d, twist, trust_counts):
        """Every doubled choice is traced with every sign pattern of its
        single classes, the first single flipping fastest.  A branch that
        dies at closure has no solution of it (no_closure), or its splits
        are the solution and one of them is not positive
        (inadmissible_split); both are checked in Fraction."""
        checked = 0
        for seed in range(4):
            data = spectral_data(random_delzant(d, seed, 4, twist=twist))
            p, r = data.parallel_pairs, len(data.classes)
            if p > 3:
                continue
            trace = enumerate_candidates(data, trust_counts=trust_counts).trace
            if trust_counts:
                choices = [tuple(i for i, c in enumerate(data.classes) if c.edge_count == 2)]
            else:
                choices = list(combinations(range(r), p))
            expected = []
            for choice in choices:
                singles = [i for i in range(r) if i not in choice]
                for bits in range(1 << len(singles)):
                    flipped = {i for b, i in enumerate(singles) if bits >> b & 1}
                    signs = tuple(-1 if i in flipped else 1 for i in range(r))
                    expected.append((tuple(tuple(data.classes[i].normal) for i in choice), signs))
            # A branch's records are adjacent, and two adjacent branches differ.
            traced = []
            for record in trace:
                if not traced or traced[-1] != (record.doubled, record.signs):
                    traced.append((record.doubled, record.signs))
            assert traced == expected
            for record in trace:
                if record.anchor == 0:
                    assert _closure_dies(data, record)
                    checked += 1
        assert checked > 0

    def test_every_way_to_die_at_closure_is_written(self):
        """A branch dies at closure with no solution (no_closure: with no,
        one or three pairs) or with a split that is not positive
        (inadmissible_split: with one or two pairs).  This sweep meets every
        one of these, and each record's outcome holds in Fraction."""
        seen = set()
        for d in range(3, 8):
            for seed in range(65):
                data = spectral_data(random_delzant(d, seed, 4))
                if data.parallel_pairs > 3:
                    continue
                for record in enumerate_candidates(data).trace:
                    if record.anchor == 0:
                        assert _closure_dies(data, record)
                        seen.add((len(record.doubled), record.outcome))
        assert seen == {
            (0, "no_closure"),
            (1, "no_closure"),
            (1, "inadmissible_split"),
            (2, "inadmissible_split"),
            (3, "no_closure"),
        }


def _closure_dies(data, record):
    """Whether an unanchored record's outcome holds, decided in Fraction."""
    fixed = Vec2(0, 0)
    doubled = {}
    for c, sign in zip(data.classes, record.signs):
        w = c.normal.perp_ccw()
        if tuple(c.normal) in record.doubled:
            doubled[tuple(c.normal)] = (w, c.length_sum)
        else:
            fixed = fixed + w * (sign * c.length_sum)
    p = len(record.doubled)
    if record.outcome == "no_closure":
        if p == 0:
            return not fixed.is_zero()
        if p == 1:
            (w, _), = doubled.values()
            return fixed.cross(w) != 0
        # Two pairs always solve; three are pinned against the area.
        assert p == 3
        reference = _reference_family(data, record.doubled, record.signs)
        if reference is None:
            return True
        _, _, _, (lo, hi), area = reference
        a0, a1, a2 = area(0), (area(1) - area(-1)) / 2, (area(1) + area(-1)) / 2 - area(0)
        disc = a1 * a1 - 4 * a2 * (a0 - data.area)
        if disc < 0 or isqrt(disc.numerator) ** 2 != disc.numerator or isqrt(disc.denominator) ** 2 != disc.denominator:
            return True
        root = Fraction(isqrt(disc.numerator), isqrt(disc.denominator))
        return not any(lo < (-a1 + sign * root) / (2 * a2) < hi for sign in (1, -1))
    assert record.outcome == "inadmissible_split" and record.parameter is None and p in (1, 2)
    total = fixed
    for (w, length_sum), (plus, minus) in zip(doubled.values(), record.splits):
        assert plus + minus == length_sum
        total = total + w * (plus - minus)
    return total.is_zero() and min(min(pair) for pair in record.splits) <= 0


def _reference_family(data, doubled, signs):
    """One three-pair branch built the slow way, all in Fraction: the split
    differences solve the closure with the third one 0, the edge order is
    read off at the midpoint of the admissible interval, and the area is the
    chained shoelace in that order.  Returns (kernel, base splits, sums,
    interval, area) or None when no parameter is admissible."""
    ws = [Vec2(*n).perp_ccw() for n in doubled]
    sums = [next(c.length_sum for c in data.classes if tuple(c.normal) == n) for n in doubled]
    fixed = [
        c.normal.perp_ccw() * (s * c.length_sum)
        for c, s in zip(data.classes, signs)
        if tuple(c.normal) not in doubled
    ]
    r = -sum(fixed, Vec2(0, 0))
    det = ws[0].cross(ws[1])
    base = (Fraction(r.cross(ws[1]), det), Fraction(ws[0].cross(r), det), Fraction(0))
    raw = (ws[1].cross(ws[2]), ws[2].cross(ws[0]), ws[0].cross(ws[1]))
    g = gcd(*raw)
    kernel = tuple(a // g if raw[0] > 0 else -a // g for a in raw)
    lo = max(min((-s - b) / a, (s - b) / a) for s, b, a in zip(sums, base, kernel))
    hi = min(max((-s - b) / a, (s - b) / a) for s, b, a in zip(sums, base, kernel))
    if lo >= hi:
        return None

    def multiset(t):
        edges = list(fixed)
        for w, s, b, a in zip(ws, sums, base, kernel):
            delta = b + t * a
            edges += [w * ((s + delta) / 2), w * (-(s - delta) / 2)]
        return edges

    order = angle_order(multiset((lo + hi) / 2))

    def area(t):
        edges = multiset(Fraction(t))
        x = y = twice = 0
        for e in (edges[i] for i in order):
            twice += x * (y + e.y) - (x + e.x) * y
            x, y = x + e.x, y + e.y
        return twice / 2

    return kernel, base, sums, (lo, hi), area


class TestThreePairOracle:
    """Every three-pair branch against the Fraction construction it replaced:
    the integer area quadratic agrees with the chained area at t = -1, 0, 1,
    and every pinned parameter gives the family's splits and the data's area."""

    @pytest.mark.parametrize("d", range(6, 10))
    @pytest.mark.parametrize("twist", [False, True])
    def test_branches_match_fraction_reference(self, d, twist, monkeypatch):
        module = importlib.import_module("delzant.reconstruct")
        calls = []

        def spy(*args):
            calls.append((args, real(*args)))
            return calls[-1][1]

        real = module._family_quadratic
        monkeypatch.setattr(module, "_family_quadratic", spy)
        polygons = branches = pinned = 0
        for seed in range(200):
            data = spectral_data(random_delzant(d, seed, 4, twist=twist))
            if data.parallel_pairs != 3:
                continue
            polygons += 1
            calls.clear()
            candidates = enumerate_candidates(data)
            scale = lcm(*(c.length_sum.denominator for c in data.classes))
            for (dirs, ring, int_sums, m, base, kernel), (k0, k1, k2) in calls:
                # The area is never constant along a family: |K2| = 2 |alpha_a alpha_b (w_a x w_b)|.
                (a, alpha_a), (b, alpha_b) = list(kernel.items())[:2]
                assert abs(k2) == 2 * abs(alpha_a * alpha_b * dirs[a].cross(dirs[b]))
                doubled = tuple(tuple(data.classes[i].normal) for i in base)
                signs = [1] * len(data.classes)
                for i, s in ring:
                    if i not in base:
                        signs[i] = s
                reference = _reference_family(data, doubled, signs)
                if reference is None:
                    continue
                ref_kernel, ref_base, _, _, area = reference
                q = m * scale
                assert tuple(kernel.values()) == ref_kernel
                assert tuple(Fraction(n, q) for n in base.values()) == ref_base
                for t in (-1, 0, 1):
                    assert area(t) == Fraction(k0 + k1 * q * t + k2 * q * q * t * t, 8 * q * q)
                branches += 1
            for record in candidates.trace:
                if record.parameter is None:
                    continue
                t = record.parameter
                kernel, base, sums, (lo, hi), area = _reference_family(data, record.doubled, record.signs)
                assert lo < t < hi
                deltas = [b + t * a for b, a in zip(base, kernel)]
                assert record.splits == tuple(((s + x) / 2, (s - x) / 2) for s, x in zip(sums, deltas))
                assert area(t) == data.area
                pinned += 1
            if polygons == 3:
                break
        assert polygons == 3 and branches > 0 and pinned > 0


class TestThreePairFamily:
    def test_anchor_is_always_a_root(self, three_pair_hexagon):
        three_pair = [random_delzant(d, seed, 4, twist=twist) for d in range(6, 10) for seed in range(16)
                      for twist in (False, True)]
        polygons = [three_pair_hexagon] + [p for p in three_pair if parallel_pair_count(p) == 3]
        for polygon in polygons:
            family = three_pair_family(polygon)
            assert family.base_area == polygon.area, polygon
            assert Fraction(0) in solve_three_pair_parameter(family, polygon.area), polygon
        assert len(polygons) > 10

    def test_two_roots_and_both_polygons_match(self, three_pair_hexagon):
        family = three_pair_family(three_pair_hexagon)
        roots = solve_three_pair_parameter(family, three_pair_hexagon.area)
        assert len(roots) == 2
        data = spectral_data(three_pair_hexagon)
        for t in roots:
            polygon = family.polygon_at(t)
            assert polygon.area == three_pair_hexagon.area
            assert spectral_data(polygon).matches(data)

    def test_quadratic_matches_shoelace_everywhere(self, three_pair_hexagon):
        family = three_pair_family(three_pair_hexagon)
        lo, hi = family.admissible_interval
        for k in range(1, 11):
            t = lo + (hi - lo) * Fraction(k, 11)
            assert family.polygon_at(t).area == family.predicted_area(t)

    def test_kernel_is_a_relation(self, three_pair_hexagon):
        family = three_pair_family(three_pair_hexagon)
        total = Vec2(0, 0)
        for alpha, w in zip(family.kernel, family.directions):
            total = total + w * alpha
        assert total.is_zero()

    def test_needs_exactly_three_pairs(self, unit_square):
        with pytest.raises(ValueError):
            three_pair_family(unit_square)

    def test_degenerate_family_contract(self, three_pair_hexagon):
        from dataclasses import replace

        from delzant import DegenerateFamilyError

        family = three_pair_family(three_pair_hexagon)
        flat = replace(family, area_coefficients=(Fraction(0), Fraction(0)))
        with pytest.raises(DegenerateFamilyError) as info:
            solve_three_pair_parameter(flat, flat.base_area)
        assert info.value.interval == family.admissible_interval
        # A target the constant family can never reach yields no roots.
        assert solve_three_pair_parameter(flat, flat.base_area + 1) == ()

    def test_linear_area_family(self, three_pair_hexagon):
        family = three_pair_family(three_pair_hexagon)
        lo, hi = family.admissible_interval
        for slope in (3, -3):
            linear = replace(family, area_coefficients=(Fraction(slope), Fraction(0)))
            for t0, roots in ((lo + (hi - lo) * Fraction(2, 5), 1), (hi + 1, 0), (lo - Fraction(1, 3), 0)):
                assert solve_three_pair_parameter(linear, linear.base_area + slope * t0) == (t0,) * roots

    def test_root_on_an_end_of_the_interval_is_not_admissible(self, three_pair_hexagon):
        """The interval is open: the t = 0 root, put on either end of it,
        has a zero-length edge and is not returned."""
        family = three_pair_family(three_pair_hexagon)
        lo, hi = family.admissible_interval
        roots = solve_three_pair_parameter(family, family.base_area)
        assert Fraction(0) in roots
        for interval in ((Fraction(0), hi), (lo, Fraction(0))):
            ended = replace(family, admissible_interval=interval)
            expected = tuple(t for t in roots if interval[0] < t < interval[1])
            assert solve_three_pair_parameter(ended, ended.base_area) == expected

    def test_shifted_target_roots(self, three_pair_hexagon):
        family = three_pair_family(three_pair_hexagon)
        lo, hi = family.admissible_interval
        probe = lo + (hi - lo) * Fraction(2, 5)
        target = family.predicted_area(probe)
        roots = solve_three_pair_parameter(family, target)
        assert probe in roots
        for t in roots:
            assert family.polygon_at(t).area == target
        # The same probe on the family turned upside down, where B > 0.
        a, b = family.area_coefficients
        upturned = replace(family, area_coefficients=(-a, -b))
        assert probe in solve_three_pair_parameter(upturned, upturned.predicted_area(probe))

    def test_hexagon_candidates_at_most_four(self, three_pair_hexagon):
        candidates = enumerate_candidates(spectral_data(three_pair_hexagon))
        assert 1 <= len(candidates) <= 4
        assert three_pair_hexagon in candidates


class TestIsGeneric:
    def test_random_pentagon(self):
        report = is_generic(random_delzant(5, 7, 4))
        assert report.generic

    def test_structural_sign_ambiguity_is_not_generic(self):
        """Some two-pair polygons admit a second sign solution whose area
        agrees identically (as a polynomial in the class sums), so four
        distinct polygons share their data.  They are non-generic, every
        candidate still reproduces the data, and no offset perturbation can
        separate them."""
        from delzant import BudgetExceededError, perturb_generic

        p = random_delzant(6, 42, 4)
        data = spectral_data(p)
        assert data.parallel_pairs == 2
        report = is_generic(p)
        assert not report.generic
        assert report.subpolygons == ()  # not a subpolygon obstruction
        assert len(report.emitting_assignments) == 1  # nor an assignment one
        candidates = enumerate_candidates(data)
        assert len(candidates) == 4
        assert p in candidates
        for candidate in candidates:
            assert validate_delzant(candidate).valid
            assert spectral_data(candidate).matches(data, with_counts=True)
        with pytest.raises(BudgetExceededError, match="no generic perturbation found in 24 attempts"):
            perturb_generic(p)

    def test_subpolygon_hexagon_diagnosed(self, subpolygon_hexagon):
        report = is_generic(subpolygon_hexagon)
        assert not report.generic
        assert (0, 2, 4) in report.subpolygons

    def test_rectangle_special_case(self, unit_square):
        report = is_generic(unit_square)
        assert report.generic and report.rectangle
        assert report.candidate_count == 1
        assert report.emitting_assignments == (((0, 1), (1, 0)),)
        assert not is_generic(hirzebruch(1, 1, 1)).rectangle

    @pytest.mark.parametrize("twist", [False, True], ids=["plain", "twisted"])
    def test_two_emitting_assignments_are_not_generic(self, twist):
        """Three pairs allow four candidates, so two assignments that emit
        two each break genericity on their own."""
        report = is_generic(random_delzant(7, 8, 2, twist=twist))
        assert (report.candidate_count, len(report.emitting_assignments), report.subpolygons) == (4, 2, ())
        assert not report.generic

    def test_non_delzant_source_raises(self, non_delzant_heptagon):
        """Also one whose data has candidates, none of them the source."""
        for polygon, vertex in ((Polygon(((0, 0), (2, 0), (3, 2), (1, 2))), 0), (non_delzant_heptagon, 1)):
            with pytest.raises(ReconstructionInfeasibleError, match=f"^polygon is not Delzant: vertex {vertex} has determinant 2$"):
                is_generic(polygon)

    def test_too_many_pairs(self):
        base = Polygon(((0, 0), (4, 0), (4, 4), (0, 4)))
        octagon = base
        for corner in (0, 1, 2, 3):
            idx = octagon.vertices.index(Polygon(((0, 0), (4, 0), (4, 4), (0, 4))).vertices[corner])
            octagon = chop(octagon, ChopSpec(idx, Fraction(1)))
        from delzant import parallel_pair_count

        assert parallel_pair_count(octagon) == 4
        with pytest.raises(UnsupportedAmbiguityError, match="^4 parallel pairs are not supported by the genericity test$"):
            is_generic(octagon)


# Past the interpreter's digit limit when written out.
FAR = 10**5000


class TestBundleReconstruct:
    def test_triangle_round_trip(self, unit_triangle):
        rebuilt = bundle_reconstruct(bundle_facet_data(unit_triangle))
        assert set(rebuilt.vertices) == set(unit_triangle.vertices)

    def test_cube_round_trip(self, unit_cube):
        assert bundle_reconstruct(bundle_facet_data(unit_cube)) == unit_cube

    def test_simplex_round_trip(self, unit_simplex3):
        assert bundle_reconstruct(bundle_facet_data(unit_simplex3)) == unit_simplex3

    def test_no_translation_ambiguity(self, unit_triangle):
        moved = unit_triangle.translate(Vec2(Fraction(7, 3), -2))
        rebuilt = bundle_reconstruct(bundle_facet_data(moved))
        assert set(rebuilt.vertices) == set(moved.vertices)

    @pytest.mark.parametrize("normals", [
        ((1, 0), (0, 1), (1, 1)),
        # Angle-adjacent normals that are opposite: a zero cross product.
        ((1, 0), (0, 1), (-1, 0)),
    ], ids=["acute", "opposite"])
    def test_unbounded_system(self, normals):
        entries = tuple(HalfSpaceEntry(n, Fraction(1), Fraction(1)) for n in normals)
        with pytest.raises(ReconstructionInfeasibleError, match="^normals fit in a half-plane"):
            bundle_reconstruct(HalfSpaceSystem(2, entries))

    def test_redundant_halfplane_does_not_bound_a_polygon(self, unit_square):
        # polygon_from_halfplanes refuses it before any facet is matched.
        system = bundle_facet_data(unit_square)
        entries = system.entries + (HalfSpaceEntry((1, 1), Fraction(5), Fraction(1)),)
        message = "half-planes do not bound a polygon: vertices do not bound a convex polygon"
        with pytest.raises(InconsistentSystemError, match=f"^{message}$"):
            bundle_reconstruct(HalfSpaceSystem(2, entries))

    def test_wrong_volume(self, unit_square):
        system = bundle_facet_data(unit_square)
        entries = tuple(
            e._replace(volume=Fraction(2)) if e.normal == (1, 0) else e
            for e in system.entries
        )
        with pytest.raises(InconsistentSystemError):
            bundle_reconstruct(HalfSpaceSystem(2, entries))

    def test_empty_intersection_3d(self):
        entries = (
            HalfSpaceEntry((1, 0, 0), Fraction(0), Fraction(1)),
            HalfSpaceEntry((-1, 0, 0), Fraction(-1), Fraction(1)),  # x >= 1
            HalfSpaceEntry((0, 1, 0), Fraction(1), Fraction(1)),
            HalfSpaceEntry((0, -1, 0), Fraction(0), Fraction(1)),
            HalfSpaceEntry((0, 0, 1), Fraction(1), Fraction(1)),
            HalfSpaceEntry((0, 0, -1), Fraction(0), Fraction(1)),
        )
        with pytest.raises(ReconstructionInfeasibleError):
            bundle_reconstruct(HalfSpaceSystem(3, entries))

    @pytest.mark.parametrize("rows, error, message", [
        # The unit square in the plane z = 0.
        ([((0, 0, 1), 0), ((0, 0, -1), 0), ((1, 0, 0), 1), ((-1, 0, 0), 0), ((0, 1, 0), 1), ((0, -1, 0), 0)],
         ReconstructionInfeasibleError, "not a 3-polytope"),
        # x, y, z >= 0, x + y + z >= 1, x <= 3: four vertices, unbounded in y and z.
        ([((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((-1, -1, -1), -1), ((1, 0, 0), 3)],
         ReconstructionInfeasibleError, "unbounded"),
        # The unit cube and x + y + z <= 5.
        ([((1, 0, 0), 1), ((-1, 0, 0), 0), ((0, 1, 0), 1), ((0, -1, 0), 0), ((0, 0, 1), 1), ((0, 0, -1), 0),
          ((1, 1, 1), 5)],
         InconsistentSystemError, "redundant"),
        # The box [0, 1] x [0, 1] x [0, 2], whose side facets have lattice area 2.
        ([((1, 0, 0), 1), ((-1, 0, 0), 0), ((0, 1, 0), 1), ((0, -1, 0), 0), ((0, 0, 1), 2), ((0, 0, -1), 0)],
         InconsistentSystemError, "lattice volume 2, data says 1"),
    ])
    def test_3d_outcomes_after_vertex_search(self, rows, error, message):
        entries = tuple(HalfSpaceEntry(n, Fraction(c), Fraction(1)) for n, c in rows)
        with pytest.raises(ReconstructionInfeasibleError, match=message) as info:
            bundle_reconstruct(HalfSpaceSystem(3, entries))
        assert type(info.value) is error

    @pytest.mark.parametrize("source, message", [
        # The edges (-2, 1) and (0, -1) meet at (0, 1) with determinant 2.
        (Polygon([(0, 0), (2, 0), (0, 1)]),
         r"rebuilt polygon is not Delzant: vertex 1 \(0/1, 1/1\) has determinant 2"),
        # Four facets meet at every vertex of the octahedron.
        (Polytope3([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]),
         r"rebuilt polytope is not Delzant: vertex 0 \(-1/1, 0/1, 0/1\) lies on 4 facets, not 3"),
        # Simple, but the normals (-1, 0, 0), (0, -1, 0), (1, 2, 2) at (0, 0, 1) have determinant 2.
        (Polytope3([(0, 0, 0), (2, 0, 0), (0, 1, 0), (0, 0, 1)]),
         r"rebuilt polytope is not Delzant: vertex 1 \(0/1, 0/1, 1/1\) has determinant 2"),
    ])
    def test_refuses_a_rebuild_that_is_not_delzant(self, source, message):
        # The forward map takes any lattice polytope; the theorem needs a Delzant one.
        system = bundle_facet_data(source)
        with pytest.raises(ReconstructionInfeasibleError, match=f"^{message}$") as info:
            bundle_reconstruct(system)
        assert type(info.value) is ReconstructionInfeasibleError

    @pytest.mark.parametrize("source, message", [
        (Polygon([(FAR, 0), (FAR + 2, 0), (FAR, 1)]),
         "rebuilt polygon is not Delzant: vertex 1 has a determinant other than 1 or -1"),
        (Polytope3([(FAR + s * x, s * y, s * z) for x, y, z in ((1, 0, 0), (0, 1, 0), (0, 0, 1)) for s in (1, -1)]),
         "rebuilt polytope is not Delzant: vertex 0 lies on 4 facets, not 3"),
    ])
    def test_refusal_past_the_digit_limit_still_names_the_vertex(self, source, message):
        with pytest.raises(ReconstructionInfeasibleError) as info:
            bundle_reconstruct(bundle_facet_data(source))
        assert str(info.value) == f"{message} (a value in it has more than {sys.get_int_max_str_digits()} digits)"

    @pytest.mark.parametrize("extra, message", [
        (HalfSpaceEntry((1, 0), Fraction(2), Fraction(1)), "normals must be pairwise distinct"),
        (HalfSpaceEntry((2, 2), Fraction(5), Fraction(1)), r"normal \(2, 2\) is not a primitive"),
        # A non-integer coordinate fails before the gcd is taken.
        (HalfSpaceEntry((Fraction(1, 2), 1), Fraction(5), Fraction(1)), r"normal \(Fraction\(1, 2\), 1\) is not a primitive"),
    ])
    def test_rejects_malformed_normals(self, unit_square, extra, message):
        entries = bundle_facet_data(unit_square).entries + (extra,)
        with pytest.raises(InconsistentSystemError, match=message):
            bundle_reconstruct(HalfSpaceSystem(2, entries))

    def test_rejects_other_dimensions(self):
        entries = tuple(HalfSpaceEntry(n, Fraction(1), Fraction(1)) for n in ((1, 0, 0, 0), (0, 1, 0, 0)))
        with pytest.raises(ValueError, match="unsupported dimension 4"):
            bundle_reconstruct(HalfSpaceSystem(4, entries))

    @pytest.mark.parametrize("dim, extra, message", [
        # A float dimension equal to 2 is not coerced to it.
        (2.0, None, r"unsupported dimension 2\.0: dim must be the int 2 or 3"),
        (2, ((-1, -1, 0), 1, 1), r"^entry 3: normal \(-1, -1, 0\) has 3 coordinates, not 2$"),
        (3, ((1, 1), 1, 1), r"^entry 6: normal \(1, 1\) has 2 coordinates, not 3$"),
    ])
    def test_rejects_a_dim_or_normal_length_before_any_rebuild(self, unit_cube, dim, extra, message):
        source = Polygon([(0, 0), (1, 0), (0, 1)]) if dim == 2 else unit_cube
        entries = bundle_facet_data(source).entries + ((HalfSpaceEntry(*extra),) if extra else ())
        with pytest.raises(ValueError, match=message):
            bundle_reconstruct(HalfSpaceSystem(dim, entries))

    @given(seed=st.integers(0, 10**6), d=st.integers(3, 8))
    @settings(max_examples=40, deadline=None)
    def test_zoo_round_trip(self, seed, d):
        p = random_delzant(d, seed, 4)
        rebuilt = bundle_reconstruct(bundle_facet_data(p))
        assert set(rebuilt.vertices) == set(p.vertices)
