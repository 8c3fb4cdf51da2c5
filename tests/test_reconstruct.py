"""The inverse map: builder, candidate enumeration, three-pair families,
genericity, and half-space reconstruction."""

import importlib
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from delzant import (
    ChopSpec,
    HalfSpaceEntry,
    HalfSpaceSystem,
    InconsistentSystemError,
    Polygon,
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
    random_delzant,
    solve_three_pair_parameter,
    spectral_data,
    three_pair_family,
    validate_delzant,
)
from delzant.reconstruct import _angle_order
from delzant.spectral import NormalClass, SpectralData

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

    def test_rejects_duplicate_directions(self):
        edges = (Vec2(1, 0), Vec2(1, 0), Vec2(-1, 1), Vec2(-1, -1))
        with pytest.raises(ReconstructionInfeasibleError):
            build_most_obtuse(SignedEdgeList(edges, Vec2(0, -1)))

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

    def test_max_pairs_cap(self, unit_square):
        with pytest.raises(UnsupportedAmbiguityError):
            enumerate_candidates(spectral_data(unit_square), max_parallel_pairs=1)

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

    @pytest.mark.parametrize("normals, counts", [
        (((1, 0), (2, 0)), (2, 2)),
        (((0, 1), (-1, 0)), (2, 2)),
        (((0, 1), (1, 0), (1, 1)), (3, 1, 0)),
    ])
    def test_rejects_classes_no_polygon_can_have(self, normals, counts):
        classes = tuple(NormalClass(Vec2(*n), Fraction(2), k) for n, k in zip(normals, counts))
        data = SpectralData(vertex_count=4, classes=classes, area=Fraction(1))
        with pytest.raises(ReconstructionInfeasibleError):
            enumerate_candidates(data, trust_counts=True)

    @given(seed=st.integers(0, 10**6), d=st.integers(3, 7))
    @settings(max_examples=30, deadline=None)
    def test_round_trip_contains_source(self, seed, d):
        p = random_delzant(d, seed, 3)
        data = spectral_data(p)
        if data.parallel_pairs > 3:
            return
        assert p in enumerate_candidates(data)


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

    order = _angle_order(multiset((lo + hi) / 2))

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
        family = three_pair_family(three_pair_hexagon)
        roots = solve_three_pair_parameter(family, three_pair_hexagon.area)
        assert Fraction(0) in roots

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

    def test_shifted_target_roots(self, three_pair_hexagon):
        family = three_pair_family(three_pair_hexagon)
        lo, hi = family.admissible_interval
        probe = lo + (hi - lo) * Fraction(2, 5)
        target = family.predicted_area(probe)
        roots = solve_three_pair_parameter(family, target)
        assert probe in roots
        for t in roots:
            assert family.polygon_at(t).area == target

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
        with pytest.raises(BudgetExceededError):
            perturb_generic(p, budget=6)

    def test_subpolygon_hexagon_diagnosed(self, subpolygon_hexagon):
        report = is_generic(subpolygon_hexagon)
        assert not report.generic
        assert (0, 2, 4) in report.subpolygons

    def test_rectangle_special_case(self, unit_square):
        report = is_generic(unit_square)
        assert report.generic and report.rectangle

    def test_too_many_pairs(self):
        base = Polygon(((0, 0), (4, 0), (4, 4), (0, 4)))
        octagon = base
        for corner in (0, 1, 2, 3):
            idx = octagon.vertices.index(Polygon(((0, 0), (4, 0), (4, 4), (0, 4))).vertices[corner])
            octagon = chop(octagon, ChopSpec(idx, Fraction(1)))
        from delzant import parallel_pair_count

        assert parallel_pair_count(octagon) == 4
        with pytest.raises(UnsupportedAmbiguityError):
            is_generic(octagon)


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

    def test_unbounded_system(self):
        entries = tuple(
            HalfSpaceEntry(n, Fraction(1), Fraction(1))
            for n in ((1, 0), (0, 1), (1, 1))
        )
        with pytest.raises(ReconstructionInfeasibleError):
            bundle_reconstruct(HalfSpaceSystem(2, entries))

    def test_redundant_halfspace(self, unit_square):
        system = bundle_facet_data(unit_square)
        entries = system.entries + (HalfSpaceEntry((1, 1), Fraction(5), Fraction(1)),)
        with pytest.raises(InconsistentSystemError):
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

    @given(seed=st.integers(0, 10**6), d=st.integers(3, 8))
    @settings(max_examples=40, deadline=None)
    def test_zoo_round_trip(self, seed, d):
        p = random_delzant(d, seed, 4)
        rebuilt = bundle_reconstruct(bundle_facet_data(p))
        assert set(rebuilt.vertices) == set(p.vertices)
