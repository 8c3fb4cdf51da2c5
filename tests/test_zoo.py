"""Generators: Hirzebruch trapezoids, chopping, sampling, perturbation, census."""

import inspect
import itertools
import random
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import delzant.reconstruct as reconstruct
import delzant.zoo as zoo
from delzant import (
    BudgetExceededError,
    ChopError,
    ChopSpec,
    Polygon,
    ReconstructionInfeasibleError,
    StructuralPolygonError,
    Vec2,
    ZooCensus,
    chop,
    detect_subpolygons,
    hirzebruch,
    is_generic,
    parallel_pair_census,
    parallel_pair_count,
    perturb_generic,
    polygon_from_halfplanes,
    primitive_outward_normal,
    random_delzant,
    spectral_data,
    validate_delzant,
)


class TestHirzebruch:
    def test_zero_slope_is_rectangle(self):
        assert hirzebruch(0, 1, 1).vertices == Polygon(((0, 0), (1, 0), (1, 1), (0, 1))).vertices

    def test_unit_trapezoid(self):
        trap = hirzebruch(1, 1, 1)
        assert trap.vertices == (Vec2(0, 0), Vec2(1, 0), Vec2(1, 1), Vec2(0, 2))
        assert validate_delzant(trap).valid

    def test_slant_direction_and_pairs(self):
        trap = hirzebruch(2, 1, 1)
        slant = trap.edges[2]
        assert slant.direction == Vec2(-1, 2)
        assert parallel_pair_count(trap) == 1

    @given(m=st.integers(0, 6), w=st.integers(1, 5), h=st.integers(1, 5))
    @settings(max_examples=40, deadline=None)
    def test_always_delzant(self, m, w, h):
        assert validate_delzant(hirzebruch(m, w, h)).valid

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            hirzebruch(-1, 1, 1)
        with pytest.raises(ValueError):
            hirzebruch(0, 0, 1)
        with pytest.raises(ValueError, match="^width and height must be positive$"):
            hirzebruch(0, 1, 0)

    @pytest.mark.parametrize("m", [-1, True, False, 1.0, Fraction(1), "1", None])
    def test_rejects_a_slope_that_is_not_a_nonnegative_int(self, m):
        with pytest.raises(ValueError, match="slope parameter m must be a nonnegative integer"):
            hirzebruch(m, 1, 1)

    def test_rejects_a_slope_past_the_digit_limit_by_name(self):
        with pytest.raises(ValueError, match="^slope parameter m must be a nonnegative integer .*digits"):
            hirzebruch(-10**5000, 1, 1)


class TestChop:
    def test_square_corner(self, unit_square):
        pent = chop(unit_square, ChopSpec(0, Fraction(1, 3)))
        assert Vec2(Fraction(1, 3), Fraction(0)) in pent.vertices
        assert Vec2(Fraction(0), Fraction(1, 3)) in pent.vertices
        new_edge = next(e for e in pent.edges if e.normal == Vec2(-1, -1))
        assert new_edge.lattice_length == Fraction(1, 3)

    def test_triangle_normal_sum(self, unit_triangle):
        quad = chop(unit_triangle, ChopSpec(1, Fraction(1, 4)))
        assert validate_delzant(quad).valid
        # Normals at the chopped vertex were (0,-1) and (1,1); their sum (1,0)
        # must re-derive from the new edge vector itself.
        new_edge = next(e for e in quad.edges if e.lattice_length == Fraction(1, 4))
        assert new_edge.normal == Vec2(1, 0)
        assert primitive_outward_normal(new_edge.vector) == Vec2(1, 0)

    def test_repeated_chops_stay_delzant(self, unit_square):
        once = chop(unit_square, ChopSpec(0, Fraction(1, 3)))
        # Chop one of the freshly created vertices again.
        idx = once.vertices.index(Vec2(Fraction(1, 3), Fraction(0)))
        twice = chop(once, ChopSpec(idx, Fraction(1, 9)))
        assert validate_delzant(twice).valid
        assert twice.edge_count == 6

    def test_area_drop_is_half_depth_squared(self, unit_square):
        t = Fraction(2, 7)
        assert unit_square.area - chop(unit_square, ChopSpec(2, t)).area == t * t / 2

    def test_inadmissible_depth(self, unit_square):
        with pytest.raises(ChopError):
            chop(unit_square, ChopSpec(0, Fraction(1)))
        with pytest.raises(ChopError):
            chop(unit_square, ChopSpec(0, Fraction(3, 2)))
        with pytest.raises(ChopError):
            chop(unit_square, ChopSpec(0, Fraction(0)))
        with pytest.raises(ChopError):
            chop(unit_square, ChopSpec(9, Fraction(1, 3)))

    @pytest.mark.parametrize("index", [True, False, 1.0, Fraction(1), "1", None])
    def test_rejects_a_vertex_index_that_is_not_an_int(self, unit_square, index):
        with pytest.raises(ValueError, match="vertex index must be an int"):
            chop(unit_square, ChopSpec(index, Fraction(1, 3)))

    @pytest.mark.parametrize("index", [-1, 4])
    def test_out_of_range_vertex_index_is_a_chop_error(self, unit_square, index):
        with pytest.raises(ChopError, match=f"vertex index {index} out of range for a 4-gon"):
            chop(unit_square, ChopSpec(index, Fraction(1, 3)))
        with pytest.raises(ChopError, match="^vertex index out of range for a 4-gon .*digits"):
            chop(unit_square, ChopSpec(index * 10**5000, Fraction(1, 3)))


class TestRandomDelzant:
    @given(seed=st.integers(0, 10**9), d=st.integers(3, 9), twist=st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_valid_with_requested_edges(self, seed, d, twist):
        p = random_delzant(d, seed, 4, twist=twist)
        assert p.edge_count == d
        assert validate_delzant(p).valid

    def test_deterministic(self):
        assert random_delzant(6, 42, 5) == random_delzant(6, 42, 5)
        assert random_delzant(7, 1, 5, twist=True) == random_delzant(7, 1, 5, twist=True)

    def test_quadrilaterals_are_trapezoids(self):
        for seed in range(10):
            p = random_delzant(4, seed, 5)
            assert parallel_pair_count(p) in (1, 2)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            random_delzant(2, 0, 5)

    @pytest.mark.parametrize("bound", [0, -3, 2.5, True, "4"])
    def test_rejects_bad_param_bound(self, bound):
        with pytest.raises(ValueError, match="parameter bound must be a positive integer"):
            random_delzant(5, 0, bound)

    @pytest.mark.parametrize("d", [2, -1, 3.0, 5.0, True, "5", None])
    def test_rejects_bad_edge_count(self, d):
        with pytest.raises(ValueError, match="d must be an integer >= 3"):
            random_delzant(d, 0)

    @pytest.mark.parametrize("seed", [True, False, 1.5, 2.0, "4", None])
    def test_rejects_bad_seed(self, seed):
        with pytest.raises(ValueError, match="seed must be an integer"):
            random_delzant(4, seed)


class TestPerturbGeneric:
    def test_generic_input_unchanged(self):
        p = random_delzant(5, 7, 4)
        if is_generic(p):
            assert perturb_generic(p) is p

    def test_fixes_subpolygon_hexagon(self, subpolygon_hexagon):
        assert not is_generic(subpolygon_hexagon)
        fixed = perturb_generic(subpolygon_hexagon)
        assert is_generic(fixed)
        assert detect_subpolygons(fixed).subsets == ()
        assert validate_delzant(fixed).valid
        # The normal fan, and hence the pair count, is untouched.
        assert [e.normal for e in fixed.edges] == [e.normal for e in subpolygon_hexagon.edges]
        assert parallel_pair_count(fixed) == parallel_pair_count(subpolygon_hexagon)

    def test_budget_error_carries_attempt(self, subpolygon_hexagon):
        with pytest.raises(BudgetExceededError) as info:
            perturb_generic(subpolygon_hexagon, budget=0)
        assert str(info.value) == "no generic perturbation found in 0 attempts"
        assert info.value.partial is None
        p = random_delzant(6, 42, 4)
        with pytest.raises(BudgetExceededError) as info:
            perturb_generic(p)
        assert str(info.value) == "no generic perturbation found in 24 attempts"
        partial = info.value.partial
        assert validate_delzant(partial).valid
        assert [e.normal for e in partial.edges] == [e.normal for e in p.edges]
        assert partial != p

    def test_structural_twin_settles_every_attempt_in_integers(self, monkeypatch):
        """A two-pair polygon with a structural twin exhausts the budget with
        the same partial as a full test per attempt, building only that
        partial and enumerating nothing: its own genericity test reads the
        enumeration its caller's test just made."""
        p = random_delzant(6, 42, 4)
        calls = {"polygon_from_halfplanes": 0, "_reconstruct": 0}

        def counted(module, name):
            original = getattr(module, name)

            def spy(*args):
                calls[name] += 1
                return original(*args)

            monkeypatch.setattr(module, name, spy)

        counted(zoo, "polygon_from_halfplanes")
        counted(reconstruct, "_reconstruct")
        monkeypatch.setattr(reconstruct, "_last", None)
        reconstruct._genericity(p)
        assert calls["_reconstruct"] == 1
        calls["_reconstruct"] = 0
        with pytest.raises(BudgetExceededError) as info:
            perturb_generic(p)
        assert str(info.value) == "no generic perturbation found in 24 attempts"
        assert repr(info.value.partial) == (
            "Polygon[(-3/268435456, 100663297/268435456), (201326589/536870912, -1/536870912), "
            "(268435455/536870912, -1/536870912), (134217729/134217728, 67108865/134217728), "
            "(134217729/134217728, 805306371/268435456), (-3/268435456, 805306371/268435456)]"
        )
        assert calls["polygon_from_halfplanes"] == 1
        assert calls["_reconstruct"] == 0

    def test_structural_twins_skip_a_pattern_whose_area_form_differs(self):
        """A sign pattern of another doubled-class choice whose area form is
        not the source's is no twin: it adds no entry.  The source is the
        first two-pair stubborn source of generic_sample seed 1, its own
        branches with every sign pattern of the other 5 choices added."""
        p = Polygon([(0, 0), (3, 0), (3, 2), (Fraction(9, 4), Fraction(11, 4)), (Fraction(27, 16), Fraction(11, 4)),
                     (0, Fraction(17, 16))])
        _, branches = reconstruct._genericity(p)
        classes = spectral_data(p).classes
        own, r = tuple(k for k, c in enumerate(classes) if c.edge_count == 2), len(classes)
        others = []
        for choice in itertools.combinations(range(r), 2):
            if choice != own:
                singles = [k for k in range(r) if k not in choice]
                patterns = {}
                for flips in itertools.product((1, -1), repeat=len(singles)):
                    signs = dict(zip(singles, flips))
                    patterns[tuple(signs.get(k, 1) for k in range(r))] = None
                others.append((choice, patterns))
        # The line of the skip, counted by a line tracer on _structural_twins.
        source, first = inspect.getsourcelines(reconstruct._structural_twins)
        test = next(i for i, line in enumerate(source) if "v[0] * own_m * own_m != t * m * m" in line)
        assert source[test + 1].strip() == "continue"
        skip, code, hits = first + test + 1, reconstruct._structural_twins.__code__, []
        # A tracer already installed (a coverage run's) keeps seeing every frame.
        previous = sys.gettrace()

        def trace(frame, event, arg):
            outer = previous(frame, event, arg) if previous else None
            if frame.f_code is not code:
                return outer

            def line(frame, event, arg):
                nonlocal outer
                if event == "line" and frame.f_lineno == skip:
                    hits.append(skip)
                if outer is not None:
                    outer = outer(frame, event, arg)
                return line

            return line

        sys.settrace(trace)
        try:
            widened = reconstruct._structural_twins(p, branches + tuple(others))
        finally:
            sys.settrace(previous)
        assert sum(len(patterns) for _, patterns in others) == 20
        assert len(hits) == 20
        assert widened == reconstruct._structural_twins(p, branches)

    @pytest.mark.parametrize("twist", [False, True], ids=["plain", "twisted"])
    def test_structural_twins_need_a_rational_parameter(self, twist):
        """A pattern whose discriminant in the three-pair parameter, a
        quadratic form in the class sums, is not the square of a rational
        linear form has no rational root, so no twin.  On this source two
        patterns have such a discriminant: only the source's own two roots
        are entries."""
        p = random_delzant(7, 20, 4, twist=twist)
        _, branches = reconstruct._genericity(p)
        need, entries = reconstruct._structural_twins(p, branches)
        assert (need, [weight for weight, _ in entries]) == (2, [1, 1])

    def test_structural_twins_need_two_or_three_pairs(self, unit_triangle, subpolygon_hexagon):
        """A source with fewer than two parallel pairs has no twins, nor has
        one whose every class is doubled: its own pattern is the only one."""
        _, branches = reconstruct._genericity(unit_triangle)
        assert reconstruct._structural_twins(unit_triangle, branches) == (1, ())
        _, branches = reconstruct._genericity(subpolygon_hexagon)
        assert reconstruct._structural_twins(subpolygon_hexagon, branches) == (2, ())

    @pytest.mark.parametrize("source, need, weights", [
        # Twins of the own doubled classes, each counted once with its
        # reflection and weighing 1, with two pairs and with three.
        (random_delzant(6, 42, 4), 1, [1]),
        (random_delzant(8, 3, 4), 2, [1, 1, 1, 1, 1]),
    ], ids=["two_pairs", "three_pairs"])
    def test_structural_twins_weigh_each_twin_once(self, source, need, weights):
        _, branches = reconstruct._genericity(source)
        found, entries = reconstruct._structural_twins(source, branches)
        assert (found, [weight for weight, _ in entries]) == (need, weights)

    def test_lengths_decide_which_attempts_bound_a_polygon(self):
        """An attempt is skipped in integers exactly when the half-planes
        bound no polygon with the source's fan, on fans with determinants
        other than 1 too."""
        fans = [random_delzant(d, seed, 4, twist=True) for d in (4, 6, 8) for seed in range(4)]
        fans.append(Polygon(((0, 0), (2, 0), (0, 1))))  # a non-Delzant triangle
        for polygon in fans:
            normals = [e.normal for e in polygon.edges]
            d = len(normals)
            rng = random.Random(d)
            for _ in range(40):
                offsets = [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d)]
                try:
                    polygon_from_halfplanes(normals, offsets)
                    bounded = True
                except StructuralPolygonError:
                    bounded = False
                assert (min(zoo._lattice_lengths(normals, offsets)) > 0) == bounded

    @pytest.mark.parametrize("source, scale, found", [
        # Attempt 1 gives an edge of lattice length 0: it bounds no polygon
        # with the fan and is skipped before any build.
        ((7, 20), 64, "Polygon[(-1/1024, 47/1024), (17/1024, 11/1024), (29/1024, -1/1024), (27/512, -1/1024), "
                      "(27/512, 7/1024), (49/1024, 17/1024), (-1/1024, 67/1024)]"),
        # At attempt 3 a twin's form is 0: its split is not strictly
        # admissible, so it emits nothing, and the attempt is generic.
        ((7, 4), 128, "Polygon[(-7/512, 5/256), (5/512, -1/256), (17/512, -1/256), (17/512, -1/512), "
                      "(1/32, 1/512), (5/512, 3/128), (-7/512, 3/128)]"),
    ], ids=["zero_length", "zero_twin_form"])
    def test_an_attempt_on_a_boundary(self, source, scale, found):
        p = random_delzant(*source, 4)
        assert repr(perturb_generic(Polygon([(Fraction(x, scale), Fraction(y, scale)) for x, y in p.vertices]))) == found

    def test_rejects_a_non_delzant_source(self, non_delzant_heptagon):
        """Its genericity test raises, so it is never returned unchanged."""
        with pytest.raises(ReconstructionInfeasibleError, match="^polygon is not Delzant: vertex 1 has determinant 2$"):
            perturb_generic(non_delzant_heptagon)

    @pytest.mark.parametrize("budget", [-1, True, False, 2.5, "24"])
    def test_rejects_bad_budget(self, subpolygon_hexagon, budget):
        with pytest.raises(ValueError, match="budget must be a nonnegative integer"):
            perturb_generic(subpolygon_hexagon, budget=budget)

    def test_matches_full_test_per_attempt(self, subpolygon_hexagon, monkeypatch):
        """Settling attempts in integers gives the result (or error and
        partial) of a full genericity test per attempt, and every attempt it
        settles is indeed not generic."""
        # Short edges: some attempts on the last two shift an edge to a
        # non-positive length, and the last exhausts its budget on the 23
        # attempts that bound a polygon.
        polygons = [subpolygon_hexagon, random_delzant(8, 79, 1), random_delzant(7, 46, 1)]
        for d in range(6, 9):
            for seed in range(0, 60, 2):
                for twist in (False, True):
                    p = random_delzant(d, seed, 4, twist=twist)
                    if parallel_pair_count(p) <= 3 and not is_generic(p):
                        polygons.append(p)
        tested = []
        full_test = zoo.is_generic

        def spy(candidate):
            report = full_test(candidate)
            tested.append(candidate)
            return report

        monkeypatch.setattr(zoo, "is_generic", spy)
        exhausted = 0
        for polygon in polygons:
            tested.clear()
            reports = []
            expected = _outcome(_reference_perturb, polygon, reports)
            assert _outcome(perturb_generic, polygon) == expected
            # Every attempt that bounds a polygon is either tested in full,
            # in order, or settled in integers; both stop at the same one.
            full = iter(tested)
            pending = next(full, None)
            settled = 0
            for candidate, generic in reports:
                if candidate == pending:
                    pending = next(full, None)
                else:
                    assert not generic
                    settled += 1
            assert pending is None
            if expected.startswith("BudgetExceededError"):
                # An exhausting source settles each attempt that bounds a polygon.
                exhausted += 1
                assert settled == len(reports), polygon
        assert exhausted >= 10


def _reference_perturb(polygon, reports, budget=24):
    """perturb_generic with a full genericity test per attempt; appends each
    attempt's polygon and verdict to ``reports``."""
    if is_generic(polygon):
        return polygon
    normals = [e.normal for e in polygon.edges]
    offsets = [Fraction(n.dot(v)) for n, v in zip(normals, polygon.vertices)]
    last = None
    for attempt in range(budget):
        rng = random.Random(attempt)
        step = Fraction(1, 64 << attempt)
        try:
            candidate = polygon_from_halfplanes(normals, [c + step * rng.randint(0, 7) for c in offsets])
        except StructuralPolygonError:
            continue
        last = candidate
        generic = is_generic(candidate).generic
        reports.append((candidate, generic))
        if generic:
            return candidate
    raise BudgetExceededError(f"no generic perturbation found in {budget} attempts", partial=last)


def _outcome(run, *args):
    """The result's repr, or the budget error with its partial."""
    try:
        return repr(run(*args))
    except BudgetExceededError as exc:
        return f"BudgetExceededError: {exc} partial={exc.partial!r}"


def _census_outcome(run, *args) -> tuple:
    """``(message, census)``: the budget error's message and partial, or
    None and the finished census."""
    try:
        return None, run(*args)
    except BudgetExceededError as exc:
        return str(exc), exc.partial


@pytest.fixture
def handed(monkeypatch) -> list:
    """The states, as (normals, lengths), that the census hands to
    ``_last_two_chops`` from here on."""
    states = []
    original = zoo._last_two_chops

    def spy(normals: tuple, lengths: tuple, cap: int):
        states.append((normals, lengths))
        return original(normals, lengths, cap)

    monkeypatch.setattr(zoo, "_last_two_chops", spy)
    return states


class TestCensus:
    def test_quadrilaterals(self):
        census = parallel_pair_census(4, 3)
        assert set(census.histogram) == {1, 2}
        assert census.histogram[2] == 9  # the m = 0 rectangles
        assert census.total == sum(census.histogram.values())

    def test_pentagon_census_both_kinds(self):
        census = parallel_pair_census(5, 3)
        assert census.histogram.get(1, 0) > 0
        assert sum(v for k, v in census.histogram.items() if k >= 2) > 0

    def test_four_pairs_need_eight_edges(self):
        # Seven edges split into at most three 2-edge classes.
        assert max(parallel_pair_census(7, 3).histogram) <= 3
        assert 4 in parallel_pair_census(8, 3).histogram

    def test_octagon_census_regression(self):
        # Validated once against an oracle that builds every polygon on the
        # same grid; pinned so enumeration semantics cannot drift silently.
        census = parallel_pair_census(8, 3)
        assert census.histogram == {1: 24, 2: 72, 3: 90, 4: 90}
        assert census.total == 276

    def test_matches_direct_construction(self):
        """The fast combinatorial census agrees with actually building and
        classifying every polygon on the same parameter grid."""
        for d, bound in ((6, 2), (7, 2)):
            histogram = {}
            total = 0

            def recurse(poly, remaining):
                nonlocal total
                if remaining == 0:
                    pairs = parallel_pair_count(poly)
                    histogram[pairs] = histogram.get(pairs, 0) + 1
                    total += 1
                    return
                k = poly.edge_count
                for i in range(k):
                    shortest = min(
                        poly.edges[(i - 1) % k].lattice_length,
                        poly.edges[i].lattice_length,
                    )
                    t = 1
                    while t < shortest and t <= bound:
                        recurse(chop(poly, ChopSpec(i, Fraction(t))), remaining - 1)
                        t += 1

            for m in range(0, bound + 1):
                for w in range(1, bound + 1):
                    for h in range(1, bound + 1):
                        recurse(hirzebruch(m, w, h), d - 4)
            census = parallel_pair_census(d, bound)
            assert census.histogram == histogram
            assert census.total == total

    def test_budget_error_carries_partial(self):
        with pytest.raises(BudgetExceededError) as info:
            parallel_pair_census(6, 3, max_instances=10)
        assert info.value.partial == ZooCensus(edge_count=6, histogram={3: 7, 2: 4}, total=11)

    def test_a_subtree_that_meets_the_budget_is_counted_whole(self, handed):
        """A budget equal to the count is not crossed: the census returns
        after the 47 ``_last_two_chops`` calls of an unbounded one.  One
        instance fewer is crossed at the last leaf."""
        full = parallel_pair_census(7, 3)
        assert (full.total, len(handed)) == (348, 47)
        handed.clear()
        assert parallel_pair_census(7, 3, max_instances=348) == full
        assert len(handed) == 47
        with pytest.raises(BudgetExceededError) as info:
            parallel_pair_census(7, 3, max_instances=347)
        assert (str(info.value), info.value.partial) == ("census exceeded 347 instances", full)

    def test_rejects_triangles(self):
        with pytest.raises(ValueError):
            parallel_pair_census(3, 3)

    @pytest.mark.parametrize("bound", [0, -1, 3.0, True])
    def test_rejects_bad_param_bound(self, bound):
        with pytest.raises(ValueError, match="parameter bound must be a positive integer"):
            parallel_pair_census(5, bound)

    @pytest.mark.parametrize("d", [3, -1, 4.0, 5.0, True, "5", None])
    def test_rejects_bad_edge_count(self, d):
        with pytest.raises(ValueError, match="d must be an integer >= 4"):
            parallel_pair_census(d, 2)

    @pytest.mark.parametrize("budget", [-1, True, False, 2.5, 10.0, "10", None])
    def test_rejects_bad_max_instances(self, budget):
        with pytest.raises(ValueError, match="max_instances must be a nonnegative integer"):
            parallel_pair_census(5, 2, max_instances=budget)

    @pytest.mark.parametrize("d, bound, total, histogram", [
        (6, 3, 282, {1: 128, 2: 98, 3: 56}),
        (6, 4, 1580, {1: 928, 2: 446, 3: 206}),
        (6, 5, 5574, {1: 3710, 2: 1314, 3: 550}),
        (7, 3, 348, {1: 90, 2: 114, 3: 144}),
        (7, 4, 4624, {1: 2156, 2: 1142, 3: 1326}),
        (7, 5, 25194, {1: 14478, 2: 5178, 3: 5538}),
        (8, 3, 276, {1: 24, 2: 72, 3: 90, 4: 90}),
        (8, 4, 9142, {1: 2940, 2: 2292, 3: 2830, 4: 1080}),
        (8, 5, 85840, {1: 40700, 2: 17188, 3: 21928, 4: 6024}),
        (9, 3, 0, {}),
        (9, 4, 8360, {1: 1260, 2: 2080, 3: 2740, 4: 2280}),
        (9, 5, 198060, {1: 71740, 2: 41540, 3: 47180, 4: 37600}),
    ])
    def test_benchmark_grid_pinned(self, d, bound, total, histogram):
        """The census_bundle grid, with the benchmark's pinned values."""
        census = parallel_pair_census(d, bound)
        assert (census.edge_count, census.total, census.histogram) == (d, total, histogram)
        assert list(census.histogram) == sorted(histogram)

    @pytest.mark.parametrize("d, bound", [
        (6, 3), (6, 4), (6, 5), (7, 3), (7, 4), (7, 5), (8, 3), (8, 4), (8, 5),
        (9, 4), (4, 2), (5, 3), (10, 4),
    ])
    def test_budget_hits_match_leaf_walk(self, d, bound):
        """Every budget raises at the same leaf, with the same message and
        the same partial, as a walk that counts leaf by leaf; the census's
        histogram, finished or partial, lists its keys ascending."""
        leaves = _reference_leaves(d, bound)
        total = len(leaves)
        budgets = {0, 1, 7, 10, 50, total // 3, total - 1, total, total + 1}
        # Crossing points inside a base's subtree, away from round numbers.
        budgets |= {total // 2 + 1, total * 5 // 7 + 3, total * 2 // 3 - 2, 123, 1001}
        for budget in sorted(b for b in budgets if b >= 0):
            message, census = _census_outcome(parallel_pair_census, d, bound, budget)
            expected, reference = _census_outcome(_reference_census, d, leaves, budget)
            assert (message, census.edge_count, census.total, census.histogram) == (
                expected, reference.edge_count, reference.total, reference.histogram), budget
            assert list(census.histogram) == sorted(census.histogram), budget

    def test_seven_chops_budget_partial_pinned(self):
        """Seven chops, the longest chains pinned here; the partial's counts
        were taken from the census that carried normals as vectors, and its
        keys are ascending."""
        assert _outcome(parallel_pair_census, 11, 5, 100000) == (
            "BudgetExceededError: census exceeded 100000 instances partial="
            "ZooCensus(edge_count=11, histogram={2: 2082, 3: 18145, 4: 46790, 5: 32984}, total=100001)"
        )

    def test_last_two_chops_match_leaf_walk(self):
        """The closed-form count of the last two chops gives every
        second-to-last state the leaf counts, by pairs added, of a
        leaf-by-leaf walk."""
        checked = 0
        for d, bound in ((6, 3), (6, 4), (6, 5), (7, 3), (7, 4), (7, 5), (8, 4)):
            code_scale = (bound + 1) << (d - 2)
            seen = set()

            def check(normals: tuple, lengths: tuple, pairs: int):
                nonlocal checked
                if (normals, lengths) in seen:
                    return
                seen.add((normals, lengths))
                expected = [0, 0, 0]
                for child_normals, child_lengths, paired in _reference_children(normals, lengths, bound):
                    for _, _, last_paired in _reference_children(child_normals, child_lengths, bound):
                        expected[paired + last_paired] += 1
                codes = tuple(x * code_scale + y for x, y in normals)
                counted = zoo._last_two_chops(codes, lengths, bound + 1)
                assert counted == expected, (d, bound, normals, lengths)
                checked += 1

            _reference_walk(d, bound, 2, check)
        assert checked == 2104

    @pytest.mark.parametrize("normals, lengths, bound", [
        (((0, -1), (1, 0), (0, 1), (-1, 0)), (9, 9, 9, 9), 3),
        (((0, -1), (1, 0), (0, 1), (-1, 0)), (12, 7, 12, 7), 2),
        (((0, -1), (1, 0), (1, 1), (0, 1), (-1, 0), (-1, -1)), (8, 7, 6, 8, 7, 6), 3),
    ])
    def test_last_two_chops_cap_long_neighbours(self, normals, lengths, bound):
        """A state off the census grid, with every two adjacent edges longer
        than ``bound + 1``: after a first chop the corners beside it keep an
        outer edge longer than the cap, so their depths must be capped on
        both sides.  Checked against the two-chop leaf walk's counts by
        pairs added."""
        expected = [0, 0, 0]
        for child_normals, child_lengths, paired in _reference_children(normals, lengths, bound):
            for _, _, last_paired in _reference_children(child_normals, child_lengths, bound):
                expected[paired + last_paired] += 1
        codes = tuple(x * (1 << 16) + y for x, y in normals)
        counted = zoo._last_two_chops(codes, lengths, bound + 1)
        assert counted == expected
        assert sum(counted) > 0

    @pytest.mark.parametrize("d, bound", [(7, 4), (8, 4)])
    def test_mirror_twin_chops_have_equal_subtrees(self, d, bound):
        """The census counts a base's first chops at corners 0 and 1 only
        (corner 0 only on a rectangle) and takes copies for the rest.  On
        vector normals, with no census code: below every base, the leaf
        pair counts under the first chop (3, t) are those under (0, t), and
        (2, t) matches (1, t); on a rectangle (1, t) also matches (0, t).
        Off the rectangles corner 1 is not corner 0's twin, so two copies,
        not four, are right there."""
        unlike = 0
        for m in range(0, bound + 1):
            for w in range(1, bound + 1):
                for h in range(1, bound + 1):
                    base_normals = ((0, -1), (1, 0), (m, 1), (-1, 0))
                    subtrees = {}
                    for normals, lengths, paired in _reference_children(base_normals, (w, h, w, h + m * w), bound):
                        i = next(x for x in range(4) if normals[x] != base_normals[x])
                        leaves = []
                        _reference_walk_below(normals, lengths, d - 5, paired, bound, 0,
                                              lambda normals, lengths, pairs: leaves.append(pairs))
                        subtrees[i, lengths[i]] = sorted(leaves)
                    twin = (0, 0, 0, 0) if m == 0 else (0, 1, 1, 0)
                    for (i, t), leaves in subtrees.items():
                        assert leaves == subtrees[twin[i], t], (m, w, h, i, t)
                    if m:
                        unlike += any(leaves != subtrees.get((1, t)) for (i, t), leaves in subtrees.items() if i == 0)
        assert unlike

    def test_last_two_chops_calls_pinned(self, handed):
        """The work saved, as counts: the census calls ``_last_two_chops``
        6253 times on (9, 5) and 2464 times on (8, 5), against 6768 and
        3220 when every corner of a base was chopped first."""
        counted = {}
        for d, bound in ((9, 5), (8, 5)):
            handed.clear()
            parallel_pair_census(d, bound)
            counted[d, bound] = len(handed)
        assert counted == {(9, 5): 6253, (8, 5): 2464}

    def test_every_normal_fits_the_code_scale(self, handed):
        """The census codes ``(x, y)`` as ``x * K + y`` with ``K = (bound +
        1) << (d - 2)``, one-to-one while every normal formed or tested has
        coordinates of size at most ``bound * 2**(d - 4)``, which ``K`` is
        more than twice.  Checked over every state of the reference walk
        at least two chops above the leaves: each corner's new normal ``c =
        a + b`` and, two chops above them, the grandchild sums ``a + c`` and
        ``c + b`` (``_last_two_chops`` tests their negatives); a state one
        chop above forms only normals its parent did.  The states the census
        hands to ``_last_two_chops`` are reference states coded with this
        ``K``, so a census with another scale fails here."""
        for d, bound in ((7, 5), (8, 4), (9, 4)):
            limit = bound << (d - 4)
            code_scale = (bound + 1) << (d - 2)
            assert code_scale > 2 * limit
            formed = set()
            coded = set()

            def visit(normals: tuple, lengths: tuple, remaining: int):
                for (ax, ay), (bx, by) in zip(normals[-1:] + normals[:-1], normals):
                    cx, cy = ax + bx, ay + by
                    formed.add((cx, cy))
                    if remaining == 2:
                        formed.add((ax + cx, ay + cy))
                        formed.add((cx + bx, cy + by))
                if remaining == 2:
                    coded.add((tuple(x * code_scale + y for x, y in normals), lengths))
                elif remaining > 2:
                    for child_normals, child_lengths, _ in _reference_children(normals, lengths, bound):
                        visit(child_normals, child_lengths, remaining - 1)

            _reference_walk(d, bound, d - 4, lambda normals, lengths, pairs: visit(normals, lengths, d - 4))
            assert max(abs(x) for n in formed for x in n) <= limit, (d, bound)
            handed.clear()
            parallel_pair_census(d, bound)
            assert handed and set(handed) <= coded, (d, bound)


def _reference_children(normals: tuple, lengths: tuple, bound: int):
    """Each child of a census state, with whether its new normal pairs up,
    in enumeration order; normals are vectors, not codes."""
    k = len(normals)
    for i in range(k):
        len_in = lengths[(i - 1) % k]
        len_out = lengths[i]
        n_new = (
            normals[(i - 1) % k][0] + normals[i][0],
            normals[(i - 1) % k][1] + normals[i][1],
        )
        paired = (-n_new[0], -n_new[1]) in normals
        for t in range(1, min(len_in, len_out, bound + 1)):
            new_normals = normals[:i] + (n_new,) + normals[i:]
            new_lengths = list(lengths)
            new_lengths[(i - 1) % k] = len_in - t
            new_lengths[i] = len_out - t
            new_lengths.insert(i, t)
            yield new_normals, tuple(new_lengths), paired


def _reference_walk(d: int, bound: int, stop: int, visit_state) -> None:
    """Call ``visit_state(normals, lengths, pairs)`` on every state with
    ``stop`` chops to go, in enumeration order."""
    for m in range(0, bound + 1):
        for w in range(1, bound + 1):
            for h in range(1, bound + 1):
                base_normals = ((0, -1), (1, 0), (m, 1), (-1, 0))
                base_lengths = (w, h, w, h + m * w)
                _reference_walk_below(base_normals, base_lengths, d - 4, 2 if m == 0 else 1, bound, stop, visit_state)


def _reference_walk_below(normals: tuple, lengths: tuple, remaining: int, pairs: int, bound: int, stop: int,
                          visit_state) -> None:
    """:func:`_reference_walk` below one state with ``remaining`` chops to
    go and ``pairs`` parallel pairs."""
    if remaining == stop:
        visit_state(normals, lengths, pairs)
        return
    for child_normals, child_lengths, paired in _reference_children(normals, lengths, bound):
        _reference_walk_below(child_normals, child_lengths, remaining - 1, pairs + paired, bound, stop, visit_state)


def _reference_leaves(d: int, bound: int) -> tuple:
    """Pair counts of the census leaves in enumeration order, walked one
    leaf at a time (the census before it counted by states)."""
    leaves = []
    _reference_walk(d, bound, 0, lambda normals, lengths, pairs: leaves.append(pairs))
    return tuple(leaves)


def _reference_census(d: int, leaves: tuple, max_instances: int) -> ZooCensus:
    """The leaf-by-leaf census's histogram and budget check over ``leaves``."""
    histogram: dict[int, int] = {}
    total = 0
    for pairs in leaves:
        histogram[pairs] = histogram.get(pairs, 0) + 1
        total += 1
        if total > max_instances:
            raise BudgetExceededError(
                f"census exceeded {max_instances} instances",
                partial=ZooCensus(d, dict(histogram), total),
            )
    return ZooCensus(edge_count=d, histogram=dict(sorted(histogram.items())), total=total)


@given(seed=st.integers(0, 10**6), d=st.integers(3, 8))
@settings(max_examples=40, deadline=None)
def test_every_generator_output_is_heard_consistently(seed, d):
    p = random_delzant(d, seed, 4)
    data = spectral_data(p)
    assert data.vertex_count == d
    assert sum(c.edge_count for c in data.classes) == d
