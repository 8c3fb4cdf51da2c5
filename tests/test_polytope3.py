"""Facial structure of small exact 3-polytopes."""

import json
import math
import random
from fractions import Fraction
from itertools import combinations, product

import pytest

from delzant import (
    InconsistentSystemError,
    Polytope3,
    ReconstructionInfeasibleError,
    StructuralPolygonError,
    bundle_facet_data,
    bundle_reconstruct,
    polytope3,
    random_delzant,
    reconstruct,
)
from delzant.polytope3 import Facet, _supporting
from delzant.serialize import polytope_to_json
from delzant.spectral import HalfSpaceEntry, HalfSpaceSystem
from delzant.vectors import Vec2, Vec3, angle_order, as_scalar, integer_frame, is_primitive_integer, primitive_part


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


def test_vertex_set_equality(unit_cube, unit_simplex3):
    shuffled = Polytope3(list(reversed(unit_cube.vertices)))
    assert shuffled == unit_cube
    assert unit_cube != unit_simplex3
    assert unit_cube != unit_cube.vertex_set()


def test_hash_and_repr(unit_cube):
    points = list(unit_cube.vertices)
    random.Random(7).shuffle(points)
    assert hash(Polytope3(points)) == hash(unit_cube)
    assert repr(unit_cube) == "Polytope3[8 vertices, 6 facets]"


def test_rejects_flat_input():
    with pytest.raises(StructuralPolygonError):
        Polytope3([(0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)])


def test_rejects_too_few_points():
    with pytest.raises(StructuralPolygonError, match="^a 3D polytope needs at least 4 distinct vertices$"):
        Polytope3([(0, 0, 0), (1, 0, 0), (0, 1, 0)])


@pytest.mark.parametrize("extra", [(Fraction(1, 2),) * 3, (Fraction(1, 2), 0, 0)], ids=["interior", "on_an_edge"])
def test_rejects_a_point_that_is_not_a_vertex(unit_cube, extra):
    with pytest.raises(StructuralPolygonError, match="^points are not the vertex set of a convex 3-polytope$"):
        Polytope3(list(unit_cube.vertices) + [extra])


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
    assert _supporting(rows) == ([(Vec3(0, 0, 1), 0)], [1, 1, 1, 1])


# -- the Fraction construction both 3D paths used before the integer scan ----


def _reference_derive_facets(self):
    pts = self.vertices
    planes = {}
    # The planes found so far through each point, when some point is off them.
    on = [set() for _ in pts]
    # The last point seen on each side of a plane: read first, as the next
    # triple's plane is often near the last one.
    seen = {}
    for i, j, k in combinations(range(len(pts)), 3):
        # Three points on a found plane P with a point off it are collinear,
        # or give a multiple of P's outward normal whose sides flip it back
        # to P: nothing new, so skip them.
        if on[i] & on[j] & on[k]:
            continue
        n = (pts[j] - pts[i]).cross(pts[k] - pts[i])
        if n.is_zero():
            continue
        level = n.dot(pts[i])
        # The sides of the plane that hold points, read until both do.
        sides = {0}
        for p in [*seen.values(), *pts]:
            x = n.dot(p)
            side = (x > level) - (x < level)
            sides.add(side)
            seen[side] = p
            if len(sides) == 3:
                break
        if len(sides) == 3:
            continue
        outward = -n if 1 in sides else n
        u = primitive_part(outward)
        c = Fraction(u.dot(pts[i]))
        if (tuple(u), c) not in planes:
            planes[tuple(u), c] = (u, c)
            members = [m for m, p in enumerate(pts) if u.dot(p) == c]
            if len(members) < len(pts):
                for m in members:
                    on[m].add((tuple(u), c))
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


# Not simple: four facets meet at each octahedron vertex and at the apex.
OCTAHEDRON = [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
SQUARE_PYRAMID = [(0, 0, 0), (2, 0, 0), (0, 2, 0), (2, 2, 0), (1, 1, 1)]


def _solids():
    solids = [_box(1, 1, 1), _box(2, 1, Fraction(3, 2)), _box(3, 2, 1)]
    for depth in (Fraction(1, 2), Fraction(3, 2)):
        solids.append([p for p in CUBE2 if p != (0, 0, 0)] + [(depth, 0, 0), (0, depth, 0), (0, 0, depth)])
    for d in range(3, 7):
        for twist in (False, True):
            solids.append(_prism(random_delzant(d, d, 3, twist=twist), Fraction(d + 1, 3)))
    solids.append([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
    solids += [OCTAHEDRON, SQUARE_PYRAMID]
    for d in (10, 12):
        solids.append(_prism(random_delzant(d, d, 3), Fraction(d + 1, 3)))
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
    # A cube plus a point on a facet, or on an edge: not a vertex set.
    cube = _box(1, 1, 1)
    clouds.append(cube + [(Fraction(1, 2), Fraction(1, 2), 1)])
    clouds.append(cube + [(Fraction(1, 2), 0, 1)])
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
        # One reference result per vertex tuple: several systems rebuild the same one.
        shared = {}

        def reference_facets(polytope):
            if polytope.vertices not in shared:
                shared[polytope.vertices] = _reference_derive_facets(polytope)
            return shared[polytope.vertices]

        monkeypatch.setattr(Polytope3, "_derive_facets", reference_facets)
        monkeypatch.setattr(reconstruct, "_reconstruct_polytope", _reference_reconstruct_polytope)
        expected = [_outcome(make) for make in cases]
        assert got == expected
        kinds = {line.split(":")[0] for line in got if not line.startswith("(")}
        assert kinds == {"StructuralPolygonError", "ReconstructionInfeasibleError", "InconsistentSystemError"}


# -- bundle_reconstruct matches the entries to the rebuilt facets by normal ---


def _reference_bundle_reconstruct(system):
    """bundle_reconstruct as it was when it matched the entries to the
    rebuilt facets on (normal, Fraction offset) keys."""
    dim = system.dim
    if not isinstance(dim, int) or isinstance(dim, bool) or dim not in (2, 3):
        raise ValueError(f"unsupported dimension {dim!r}: dim must be the int 2 or 3")
    entries = list(system.entries)
    if len(entries) <= dim:
        raise ReconstructionInfeasibleError(f"a bounded {dim}-polytope needs at least {dim + 1} half-spaces")
    if len(set(e.normal for e in entries)) != len(entries):
        raise InconsistentSystemError("normals must be pairwise distinct")
    for index, e in enumerate(entries):
        if len(e.normal) != dim:
            raise ValueError(f"entry {index}: normal {tuple(e.normal)} has {len(e.normal)} coordinates, not {dim}")
        if not is_primitive_integer(e.normal):
            raise InconsistentSystemError(f"normal {tuple(e.normal)} is not a primitive integer vector")
    given = {(e.normal, as_scalar(e.offset)): as_scalar(e.volume) for e in entries}
    rebuilt = (reconstruct._reconstruct_polygon if dim == 2 else reconstruct._reconstruct_polytope)(entries)
    derived = {(e.normal, e.offset): e.volume for e in bundle_facet_data(rebuilt).entries}
    for key in derived:
        if key not in given:
            raise ReconstructionInfeasibleError(
                f"intersection is unbounded: extreme points span a facet {key[0]} absent from the data"
            )
    for key, volume in given.items():
        if key not in derived:
            raise InconsistentSystemError(f"half-space {key[0]} is redundant (no facet)")
        if derived[key] != volume:
            raise InconsistentSystemError(f"facet {key[0]} has lattice volume {derived[key]}, data says {volume}")
    reconstruct._require_delzant(rebuilt)
    return rebuilt


def _planar_systems():
    """2D round trips of random Delzant polygons, plain and twisted, and
    versions where each entry in turn has its offset shifted by 1/3 or
    negated, or its volume raised by 1."""
    systems = []
    for d in range(3, 10):
        for seed in range(30):
            for twist in (False, True):
                entries = list(bundle_facet_data(random_delzant(d, seed, 4, twist=twist)).entries)
                systems.append(entries)
                for i, e in enumerate(entries):
                    # By i mod 3: shifted by 1/3, negated, wrong volume.
                    changed = [e._replace(offset=e.offset + Fraction(1, 3)), e._replace(offset=-e.offset),
                               e._replace(volume=e.volume + 1)]
                    systems.append(entries[:i] + [changed[i % 3]] + entries[i + 1:])
    return [HalfSpaceSystem(2, tuple(entries)) for entries in systems]


def _rebuilt(make):
    try:
        rebuilt = make()
    except Exception as exc:  # noqa: BLE001 - the error is the outcome
        return f"{type(exc).__name__}: {exc}"
    return repr(rebuilt.vertices)


def test_entries_are_matched_by_normal_as_on_offset_keys():
    systems = _systems(_solids()) + _planar_systems()
    got = [_rebuilt(lambda s=s: bundle_reconstruct(s)) for s in systems]
    assert got == [_rebuilt(lambda s=s: _reference_bundle_reconstruct(s)) for s in systems]
    # Each refusal of the matching step is among them.
    for message in ("absent from the data", "is redundant (no facet)", "has lattice volume"):
        assert any(message in line for line in got), message


@pytest.mark.parametrize("points", _solids() + [_prism(random_delzant(16, 1, 5), 1)])
def test_vertex_scan_yields_one_plane_per_facet(points):
    polytope = Polytope3(points)
    common, flat = integer_frame([c for p in polytope.vertices for c in p])
    rows = [(Vec3(*flat[k:k + 3]), common) for k in range(0, len(flat), 3)]
    kept, on = _supporting(rows)
    assert len(kept) == len(polytope.facets)
    # Each kept plane's rows are the vertices of one facet.
    planes = sorted([i for i, mask in enumerate(on) if mask >> f & 1] for f in range(len(kept)))
    assert planes == sorted(sorted(facet.vertex_indices) for facet in polytope.facets)


# -- the half-space rebuild takes its facets from the scan's incidences -------


def _rebuild_solids():
    """The census_bundle solid kinds, and prisms over random Delzant polygons."""
    t = Fraction(3, 2)
    solids = [_box(3, 1, 4), [p for p in _box(3, 4, 5) if p != (0, 0, 0)] + [(t, 0, 0), (0, t, 0), (0, 0, t)]]
    solids += [_prism(random_delzant(5, seed, 5), 2) for seed in (1, 2)]
    solids += [
        _prism(random_delzant(d, d, 4, twist=twist), Fraction(d + 1, 2))
        for d in range(3, 11) for twist in (False, True)
    ]
    return solids


@pytest.fixture
def supporting_runs(monkeypatch):
    runs = []

    def counted(rows):
        runs.append(len(rows))
        return _supporting(rows)

    monkeypatch.setattr(polytope3, "_supporting", counted)
    monkeypatch.setattr(reconstruct, "_supporting", counted)
    return runs


@pytest.mark.parametrize("points", _rebuild_solids())
def test_round_trip_scans_once(points, supporting_runs):
    data = bundle_facet_data(Polytope3(points))
    del supporting_runs[:]
    rebuilt = bundle_reconstruct(data)
    # One scan, over the half-space rows: no vertex-side scan of the rebuilt vertices.
    assert supporting_runs == [len(data.entries)]
    assert set(rebuilt.vertices) == {Vec3(*map(Fraction, p)) for p in points}


@pytest.mark.parametrize("points", _rebuild_solids() + [OCTAHEDRON, SQUARE_PYRAMID])
def test_rebuild_matches_the_vertex_constructor(points, supporting_runs):
    # The rebuild itself, not bundle_reconstruct, which refuses the non-simple solids.
    data = bundle_facet_data(Polytope3(points))
    del supporting_runs[:]
    rebuilt = reconstruct._reconstruct_polytope(data.entries)
    assert supporting_runs == [len(data.entries)]
    assert set(rebuilt.vertices) == {Vec3(*map(Fraction, p)) for p in points}
    assert repr(rebuilt.facets) == repr(Polytope3(list(rebuilt.vertices)).facets)


def test_unbounded_rebuild_names_its_facet_from_a_vertex_scan(supporting_runs):
    # x, y, z >= 0, x + y + z >= 1, x <= 3: four vertices and rays to infinity.
    rows = [((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((-1, -1, -1), -1), ((1, 0, 0), 3)]
    system = HalfSpaceSystem(3, tuple(HalfSpaceEntry(n, Fraction(c), Fraction(1)) for n, c in rows))
    with pytest.raises(ReconstructionInfeasibleError, match=r"extreme points span a facet \(1, 3, 3\) absent"):
        bundle_reconstruct(system)
    assert supporting_runs == [5, 4]
