"""The inverse map: finite candidate sets from hearable data, and exact
half-space rebuilds.

Reconstruction is exact.  From spectral data it enumerates which normal
classes are doubled, the signs of the class representatives, and the
length splits inside each parallel pair.  Each branch is decided in a fixed
order: integer closure (a small linear system; with three pairs a
one-parameter family is left, whose area is an integer quadratic summed
along the branch's normal fan and solved exactly against the data's area),
then the signed normal fan (smooth, by integer determinants; positive
lengths already make it convex), then the area of the chained edges.  The
one polygon a surviving branch bounds is then Delzant with exactly the
input data; :func:`enumerate_candidates` proves this from the steps before
it, so nothing re-checks it at run time.
:func:`build_most_obtuse` is the paper's per-branch builder; the tests use
it as the reference for the enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import gcd, isqrt, lcm
from typing import NamedTuple, Sequence, Union

from .errors import (
    BudgetExceededError,
    DegenerateFamilyError,
    InconsistentSystemError,
    ReconstructionInfeasibleError,
    StructuralPolygonError,
    UnsupportedAmbiguityError,
    _with_values,
)
from .geometry import (
    EDGE_BUDGET, Polygon, _table, _translation_key, detect_subpolygons, polygon_from_halfplanes, validate_delzant,
)
from .polytope3 import Polytope3, _supporting
from .spectral import HalfSpaceEntry, HalfSpaceSystem, SpectralData, spectral_data
from .vectors import (
    Vec2, Vec3, angle_order, as_flag, as_scalar, canonical_unsigned, format_rational, integer_frame, is_exact,
    is_primitive_integer,
)


@dataclass(frozen=True)
class SignedEdgeList:
    """Edge vectors known to bound a convex polygon, with an anchor side.

    ``edges[0]`` is the starting edge and ``anchor_normal`` the side of it
    that must face outward.
    """

    edges: tuple[Vec2, ...]
    anchor_normal: Vec2

    def __post_init__(self):
        if len(self.edges) < 3:
            raise ReconstructionInfeasibleError("need at least three edges")
        total = Vec2(0, 0)
        for e in self.edges:
            if e.is_zero():
                raise ReconstructionInfeasibleError("zero edge vector")
            total = total + e
        if not total.is_zero():
            raise ReconstructionInfeasibleError("edge vectors do not close up")
        if self.anchor_normal.is_zero() or self.anchor_normal.dot(self.edges[0]) != 0:
            raise ReconstructionInfeasibleError("anchor normal must be nonzero and orthogonal to the first edge")


def _chain_polygon(ordered: Sequence[Vec2]) -> Polygon:
    vertices = [Vec2(Fraction(0), Fraction(0))]
    for e in ordered[:-1]:
        vertices.append(vertices[-1] + e)
    try:
        return Polygon(vertices)
    except StructuralPolygonError as exc:
        raise ReconstructionInfeasibleError(f"edges admit no convex ordering: {exc}") from exc


def build_most_obtuse(edge_list: SignedEdgeList) -> Polygon:
    """Greedy most-obtuse-angle construction of the unique convex polygon.

    Starting from the anchored first edge, repeatedly append the unused edge
    in the forward half-plane whose interior angle with the previous edge is
    most obtuse, i.e. whose direction turns the least.  Comparisons are
    exact cross products, so edges of wildly different lengths are handled
    uniformly.  This is the reference builder: :func:`enumerate_candidates`
    reaches the same outcome for every traced branch without calling it.
    """
    e1 = edge_list.edges[0]
    # The CCW outward normal of e1 is its -90 degree rotation; if the anchor
    # sits on the other side the traversal runs clockwise instead.
    orient = 1 if e1.perp_cw().dot(edge_list.anchor_normal) > 0 else -1
    pool = list(edge_list.edges[1:])
    ordered = [e1]
    prev = e1
    while pool:
        best = None
        for e in pool:
            if orient * prev.cross(e) <= 0:
                continue
            if best is None:
                best = e
            else:
                turn = orient * e.cross(best)
                if turn == 0:
                    raise ReconstructionInfeasibleError("two edges share a direction; not strictly convex")
                if turn > 0:
                    best = e
        if best is None:
            raise ReconstructionInfeasibleError("no admissible next edge; vectors do not bound a convex polygon")
        ordered.append(best)
        pool.remove(best)
        prev = best
    return _chain_polygon(ordered)


def angle_sort_oracle(edge_list: SignedEdgeList) -> Polygon:
    """Independent construction by polar-angle sort, for cross-checking.

    Sorts all edges by angle starting from the first edge's direction, in
    the orientation chosen by the anchor normal, then chains them.
    """
    e1 = edge_list.edges[0]
    orient = 1 if e1.perp_cw().dot(edge_list.anchor_normal) > 0 else -1

    def bucket(v: Vec2) -> int:
        c = orient * e1.cross(v)
        if c > 0:
            return 1
        if c < 0:
            return 3
        return 0 if e1.dot(v) > 0 else 2

    def compare(a: Vec2, b: Vec2) -> int:
        ba, bb = bucket(a), bucket(b)
        if ba != bb:
            return -1 if ba < bb else 1
        c = orient * a.cross(b)  # 0 in bucket 0 or 2, where both are multiples of e1
        if c == 0:
            raise ReconstructionInfeasibleError("two edges share a direction; not strictly convex")
        return -1 if c > 0 else 1

    ordered = sorted(edge_list.edges, key=cmp_to_key(compare))
    return _chain_polygon(ordered)


class AssignmentRecord(NamedTuple):
    """One explored branch of the candidate enumeration."""

    doubled: tuple[tuple[int, int], ...]          # unsigned normals of the doubled classes
    signs: tuple[int, ...]                        # sign per class representative
    splits: tuple[tuple[Fraction, Fraction], ...]  # (length+, length-) per doubled class
    parameter: Fraction | None                    # three-pair parameter, when used
    anchor: int                                   # +1 / -1; 0 when the branch died earlier
    outcome: str                                  # one of TRACE_OUTCOMES
    candidate_index: int | None


class CandidateSet:
    """Canonical-form candidates together with the full assignment trace.

    :func:`enumerate_candidates` hands over the emitted canonical keys and
    its integer branch blocks.  The polygons are built from the keys alone
    on the first read of the candidates, and the trace is expanded from the
    blocks on its first read (also by ``==``, ``hash`` and ``repr``).  The
    integer form is kept for the set's whole life: ``len`` and ``in`` read
    it, equal integer forms compare equal unbuilt, and
    ``serialize.candidates_to_json`` writes from it, read or not.  A set
    built by hand has none.  The branches that emitted are kept apart.
    """

    __slots__ = ("_candidates", "_trace", "_integer", "_emitting")

    def __init__(self, candidates: tuple[Polygon, ...], trace: tuple[AssignmentRecord, ...]):
        self._candidates = candidates
        self._trace = trace
        self._integer = None

    @classmethod
    def _from_keys(cls, blocks: list[tuple], keys: list[tuple], emitting: dict) -> "CandidateSet":
        """The set of :func:`_reconstruct`'s ``blocks``, emitted ``keys``
        and ``emitting`` branches, none of which it changes."""
        lazy = cls.__new__(cls)
        lazy._candidates = lazy._trace = None
        lazy._integer = (blocks, keys)
        lazy._emitting = emitting
        return lazy

    def _build(self) -> None:
        """The candidate polygons, from the emitted keys."""
        keys = self._integer[1]
        self._candidates = tuple(Polygon._from_frame(key[0], key[1::2], key[2::2]) for key in _candidate_index(keys))

    def _expand(self) -> None:
        """The trace, from the branch blocks."""
        blocks, keys = self._integer
        index_of = _candidate_index(keys)
        trace = []
        for doubled, signs, start, stop, dead, records in _branches(blocks):
            if records is None and dead is None:
                trace += [AssignmentRecord(doubled, tuple(s), (), None, 0, "no_closure", None) for s in signs[start:stop]]
            elif records is None:
                b1, b2, den, us, vs = dead
                trace += [
                    AssignmentRecord(
                        doubled,
                        tuple(s),
                        ((Fraction(b1 + u, den), Fraction(b1 - u, den)), (Fraction(b2 + v, den), Fraction(b2 - v, den))),
                        None, 0, "inadmissible_split", None,
                    )
                    for s, u, v in zip(signs[start:stop], us[start:stop], vs[start:stop])
                ]
            else:
                signs = tuple(signs[start])
                for (den, raw), parameter, ends in records:
                    splits = tuple((Fraction(a, den), Fraction(b, den)) for a, b in raw)
                    if parameter is not None:
                        parameter = Fraction(*parameter)
                    for anchor, outcome, key in ends:
                        trace.append(AssignmentRecord(doubled, signs, splits, parameter, anchor, outcome, index_of.get(key)))
        self._trace = tuple(trace)

    @property
    def candidates(self) -> tuple[Polygon, ...]:
        if self._candidates is None:
            self._build()
        return self._candidates

    @property
    def trace(self) -> tuple[AssignmentRecord, ...]:
        if self._trace is None:
            self._expand()
        return self._trace

    def __len__(self) -> int:
        return len(self._candidates) if self._integer is None else len(self._integer[1])

    def __iter__(self):
        return iter(self.candidates)

    def __contains__(self, polygon: Polygon) -> bool:
        key = polygon.canonical_key()
        if self._integer is not None:
            return key in self._integer[1]
        return any(c.canonical_key() == key for c in self._candidates)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        # Equal integer forms make equal sets, so two sets that have them
        # need no build (a None form equals no tuple).
        if other._integer is not None and self._integer == other._integer:
            return True
        return (self.candidates, self.trace) == (other.candidates, other.trace)

    def __hash__(self) -> int:
        return hash((self.candidates, self.trace))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}(candidates={self.candidates!r}, trace={self.trace!r})"


def _quadratic_roots(b2: int, b1: int, b0: int) -> list[tuple[int, int]]:
    """Rational roots of b2 x^2 + b1 x + b0 = 0 on integer coefficients,
    ascending, as (numerator, denominator) in lowest terms with a positive
    denominator (empty if none).  Never b2 = b1 = 0: :func:`_reconstruct`
    passes b2 = D K2 != 0, and :func:`solve_three_pair_parameter` returns
    before the call when both area coefficients are 0."""
    if b2 == 0:
        roots, den = [-b0 if b1 > 0 else b0], abs(b1)
    else:
        disc = b1 * b1 - 4 * b2 * b0
        root = isqrt(max(disc, 0))
        if root * root != disc:
            return []
        # (-b1 -+ root) / (2 b2), with the sign of b2 moved to the numerator.
        mid, den = (-b1 if b2 > 0 else b1), 2 * abs(b2)
        roots = [mid] if root == 0 else [mid - root, mid + root]
    return [(n // gcd(n, den), den // gcd(n, den)) for n in roots]


@dataclass(frozen=True)
class ThreePairFamily:
    """The one-parameter family of a three-parallel-pair configuration.

    Edge directions stay fixed along the family; only the length splits
    inside the doubled classes move, as ``delta(t) = base_splits + t *
    kernel``, where the kernel spans the unique linear relation among the
    three doubled directions.  The area along the family is the quadratic
    ``base_area + A t + B t^2`` with ``(A, B) = area_coefficients``.
    """

    directions: tuple[Vec2, Vec2, Vec2]    # doubled-class edge directions
    sums: tuple[Fraction, Fraction, Fraction]
    base_splits: tuple[Fraction, Fraction, Fraction]   # split differences at t = 0
    kernel: tuple[int, int, int]
    fixed_edges: tuple[Vec2, ...]          # signed single-class edges
    base_area: Fraction
    area_coefficients: tuple[Fraction, Fraction]       # (A, B)
    admissible_interval: tuple[Fraction, Fraction]     # open interval for t

    def splits_at(self, t) -> tuple[Fraction, Fraction, Fraction]:
        """The split differences at ``t``, an int or a Fraction; anything
        else raises TypeError, as it does for every method that takes one."""
        t = Fraction(as_scalar(t))
        return tuple(d + t * a for d, a in zip(self.base_splits, self.kernel))

    def edge_multiset(self, t) -> tuple[Vec2, ...]:
        edges = list(self.fixed_edges)
        for w, s, delta in zip(self.directions, self.sums, self.splits_at(t)):
            edges.append(w * ((s + delta) / 2))
            edges.append(w * (-(s - delta) / 2))
        return tuple(edges)

    def polygon_at(self, t) -> Polygon:
        """The family member at parameter ``t`` (must be admissible)."""
        edges = self.edge_multiset(t)
        order = angle_order(edges)
        return _chain_polygon([edges[i] for i in order])

    def predicted_area(self, t) -> Fraction:
        t = Fraction(as_scalar(t))
        a, b = self.area_coefficients
        return self.base_area + a * t + b * t * t


def _family_kernel(w1: Vec2, w2: Vec2, w3: Vec2) -> tuple[int, int, int]:
    """The primitive relation ``alpha`` with ``sum alpha_k w_k = 0``, first
    entry positive.  The directions are pairwise non-parallel, so no entry
    is zero."""
    raw = (w2.cross(w3), w3.cross(w1), w1.cross(w2))
    g = gcd(*raw) if raw[0] > 0 else -gcd(*raw)
    return (raw[0] // g, raw[1] // g, raw[2] // g)


def _family_quadratic(
    dirs: Sequence[Vec2],
    ring: Sequence[tuple[int, int]],
    int_sums: Sequence[int],
    m: int,
    base: dict[int, int],
    kernel: dict[int, int],
) -> tuple[int, int, int]:
    """Twice the area along a three-pair family, times ``(2q)^2``, as the
    integer quadratic ``K0 + K1 u + K2 u^2`` in ``u = q t``.

    The edges are read along ``ring``, the (class, sign) pairs of the
    polygon in angular order, each edge ``w (c + u a) / (2q)`` with
    ``w = dirs[i]``.  A doubled class ``i`` (a key of ``base`` and
    ``kernel``) has ``c = s S m + base[i]`` and ``a = kernel[i]`` for both
    signs ``s``; a single class has ``c = 2 s S m`` and ``a = 0``, where
    ``S m = int_sums[i] * m`` is the class sum times ``q``.  The edges close
    up for every ``u``, so twice the area is ``sum_{x<y} e_x x e_y``.
    """
    k0 = k1 = k2 = 0
    cx = cy = ax = ay = 0  # sum of w c and of w a over the edges so far
    for i, s in ring:
        w = dirs[i]
        if i in base:
            c, a = s * int_sums[i] * m + base[i], kernel[i]
        else:
            c, a = 2 * s * int_sums[i] * m, 0
        pc = cx * w.y - cy * w.x
        pa = ax * w.y - ay * w.x
        k0 += pc * c
        k1 += pc * a + pa * c
        k2 += pa * a
        cx += w.x * c
        cy += w.y * c
        ax += w.x * a
        ay += w.y * a
    return k0, k1, k2


def three_pair_family(polygon: Polygon) -> ThreePairFamily:
    """The family through a polygon with exactly three parallel pairs.

    Its ``base_area`` is the polygon's area: at ``t = 0`` the family's edges
    are the polygon's own, read in its counterclockwise order, so ``K0 /
    (2q)^2`` of :func:`_family_quadratic` is twice that area.
    """
    data = spectral_data(polygon)
    if data.parallel_pairs != 3:
        raise ValueError(f"polygon has {data.parallel_pairs} parallel pairs, need exactly 3")
    classes = data.classes
    dirs = [c.normal.perp_ccw() for c in classes]
    signed = {}
    for i, w in enumerate(dirs):
        signed[w], signed[-w] = (i, 1), (i, -1)
    # Keyed by (class, sign) in the polygon's counterclockwise order, the ring.
    edges = {signed[e.direction]: e for e in polygon.edges}
    choice = [i for i, c in enumerate(classes) if c.edge_count == 2]
    splits = tuple(edges[i, 1].lattice_length - edges[i, -1].lattice_length for i in choice)
    sums = tuple(classes[i].length_sum for i in choice)
    q, frame = integer_frame([c.length_sum for c in classes] + list(splits))
    kernel = _family_kernel(*(dirs[i] for i in choice))
    k0, k1, k2 = _family_quadratic(
        dirs,
        list(edges),
        frame[:len(classes)],
        1,
        dict(zip(choice, frame[len(classes):])),
        dict(zip(choice, kernel)),
    )
    # t is admissible when |delta + t alpha| < s for every doubled class;
    # the polygon's own lengths are positive, so t = 0 always is.
    bounds = [sorted(((-s - x) / a, (s - x) / a)) for x, a, s in zip(splits, kernel, sums)]
    lo, hi = max(b[0] for b in bounds), min(b[1] for b in bounds)
    return ThreePairFamily(
        directions=tuple(dirs[i] for i in choice),
        sums=sums,
        base_splits=splits,
        kernel=kernel,
        fixed_edges=tuple(edges[key].vector for key in sorted(edges) if key[0] not in choice),
        base_area=Fraction(k0, 8 * q * q),
        area_coefficients=(Fraction(k1, 8 * q), Fraction(k2, 8)),
        admissible_interval=(lo, hi),
    )


def solve_three_pair_parameter(family: ThreePairFamily, target_area) -> tuple[Fraction, ...]:
    """Admissible parameters where the family's area equals ``target_area``.

    For a family anchored at a polygon of the target area this is {0} plus
    at most one further root.  When the area is constant along the family
    and equal to the target, every parameter works and a
    :class:`DegenerateFamilyError` carrying the interval is raised.  No
    family from :func:`three_pair_family` is constant (its ``u^2``
    coefficient never vanishes, see :func:`enumerate_candidates`), so only a
    hand-built :class:`ThreePairFamily` can raise it.  ``target_area`` must
    be an int or a Fraction; anything else raises TypeError.
    """
    target = as_scalar(target_area)
    coeff_a, coeff_b = family.area_coefficients
    lo, hi = family.admissible_interval
    if coeff_a == 0 and coeff_b == 0:
        if family.base_area == target:
            raise DegenerateFamilyError(
                "area is constant along the family; every parameter matches", interval=(lo, hi)
            )
        return ()
    _, coeffs = integer_frame([Fraction(c) for c in (coeff_b, coeff_a, family.base_area - target)])
    roots = _quadratic_roots(*coeffs)
    return tuple(t for t in (Fraction(n, d) for n, d in roots) if lo < t < hi)


def _fan_chain(edges: Sequence[Vec2], den: int, twice_area: Fraction) -> tuple[tuple, tuple] | None:
    """Canonical keys (see :meth:`Polygon.canonical_key`) of the polygon
    chained along ``edges`` and of its point reflection; None when the
    polygon does not have the area ``twice_area / 2``.  ``edges`` are
    integer vectors in counterclockwise order, counted over ``den``.
    """
    # The vertices 0, e0, e0+e1, ... with twice the signed shoelace area.
    points = []
    x = y = twice = 0
    for e in edges:
        points.append((x, y))
        nx, ny = x + e.x, y + e.y
        twice += x * ny - nx * y
        x, y = nx, ny
    if twice * twice_area.denominator != twice_area.numerator * den * den:
        return None
    return _translation_key(points, den), _translation_key(points, den, -1)


# Every outcome enumerate_candidates writes into its trace; only
# "emitted" records name a candidate.
TRACE_OUTCOMES = frozenset(
    {"no_closure", "inadmissible_split", "dropped_invalid", "dropped_mismatch", "emitted"}
)


def _candidate_index(keys: Sequence[tuple]) -> dict[tuple, int]:
    """Each emitted canonical key's candidate index, in candidate order.

    Candidates are sorted by their vertices, as ``Polygon`` compares them;
    :meth:`Polygon._from_frame` keeps a key's vertex order, so that is the
    order of the keys' coordinates scaled to one common denominator.
    """
    common = lcm(*(key[0] for key in keys))
    ordered = sorted(keys, key=lambda key: tuple(v * (common // key[0]) for v in key[1:]))
    return {key: i for i, key in enumerate(ordered)}


# enumerate_candidates' one-entry memo: the last successful enumeration, as
# ``(datum, blocks, keys, emitting)``.  It is replaced whole, never changed.
_last = None


def enumerate_candidates(data: SpectralData, trust_counts: bool = False) -> CandidateSet:
    """All translation classes of Delzant polygons with the given data.

    Enumerates doubled-class choices (all of them by default; the stored
    per-class counts are only used when ``trust_counts`` is set) and, for
    each, every sign pattern of the single classes' representatives.  Each
    branch, one choice with one pattern, is then decided in this order, in
    integers up to the last step:

    1. closure: the length splits solve a small exact linear system, and
       three-pair branches are pinned against the area by the integer
       quadratic of :func:`_family_quadratic` (``no_closure``); a
       split that is not positive on both sides is ``inadmissible_split``.
       What the splits must solve for is linear in the signs, so one
       integer table per choice gives every pattern its residual or
       numerators, and one comprehension over it decides closure (with two
       pairs, admissibility) for every pattern; only the patterns it keeps
       get a sign tuple and go on (:func:`_reconstruct`).  The pattern with
       every single class flipped is the point-reflected branch, so only
       half of the patterns are decided and the rest written from them;
    2. fan: the branch's signed edge directions, in angular order, must
       turn with determinant 1 at every vertex (``dropped_invalid``);
    3. area: the edges chained in that order must enclose the data's area
       (``dropped_mismatch``);
    4. the surviving polygon's canonical key is emitted, and the polygon
       itself is built when the returned set is first read.  It is Delzant
       with exactly ``data`` (with the counts too, when they are trusted),
       clause by clause:

       - vertex count: the branch's ring lists each single class once, with
         its sign, and each doubled class twice, so it has ``r + p = d``
         entries, one edge and one vertex each;
       - convex, one turn round: admissible splits make every edge a
         positive multiple of its signed direction, and step 2 found
         determinant 1, so every turn is positive; the ring is a
         subsequence of one angular revolution of all signed directions,
         so the closed chain is strictly convex, winds once and has no
         two edges on one line;
       - closure and the class sums: the splits solve closure (step 1); a
         single class's edge has the class sum as its lattice length and a
         doubled class's two edges add up to it, and each edge's normal is
         its class normal or its negative, so the polygon has exactly the
         data's classes and sums;
       - counts: each class has 1 edge, or 2 when the choice doubles it;
         with ``trust_counts`` the one choice is the classes counted 2,
         and every count was checked to be 1 or 2;
       - determinants and area: step 2 tested determinant 1 for the
         primitive edge directions at every vertex, step 3 the area.

       The point reflection, emitted with it, has the same data: ``-1`` is
       in SL(2, Z) and maps each class to itself.

    Every branch that reaches step 2 is recorded twice, once per
    ``anchor`` of :func:`build_most_obtuse`, the reference builder: anchor
    ``a`` on a branch whose first class has sign ``s`` builds the chained
    polygon when ``a * s > 0`` and its point reflection otherwise, and both
    share one outcome.

    The last successful enumeration is kept.  A call whose data and
    ``trust_counts`` equal it, once the checks below have passed, returns a
    new set around the same integer result without enumerating again, so a
    caller that tests ``is_generic(p)`` and then enumerates
    ``spectral_data(p)`` pays once.  Nothing can tell such a call from a
    fresh one: every scalar of a :class:`SpectralData` is an ``int`` or a
    ``Fraction``, which compare equal exactly when their values do, and the
    enumeration reads values only; the integer result is never changed, and
    every call gets a set of its own, so what one caller reads builds
    nothing another one sees.  Only a success is kept: infeasible data
    raises on every call.

    Where each check lives: :class:`SpectralData` checks its fields and
    classes once, when it is built.  This call checks only what the type
    cannot: three vertices or more, no more classes than vertices, a
    positive area, at most three pairs, at most ``EDGE_BUDGET`` vertices,
    the counts against the vertex count and ``trust_counts``.  Anything
    other than a :class:`SpectralData` raises TypeError, and a
    ``trust_counts`` other than ``True`` or ``False`` ValueError.
    """
    global _last
    if not isinstance(data, SpectralData):
        raise TypeError(f"expected SpectralData, got {type(data).__name__}")
    as_flag(trust_counts, "trust_counts")
    r = len(data.classes)
    d = data.vertex_count
    p = d - r
    if d < 3 or p < 0 or data.area <= 0:
        raise ReconstructionInfeasibleError(f"inconsistent data: {d} vertices, {r} normal classes")
    if p > 3:
        raise UnsupportedAmbiguityError(f"{p} parallel pairs admit no finite reconstruction (supported: up to 3)")
    if d > EDGE_BUDGET:
        raise BudgetExceededError(f"enumeration over {d} vertices is past the budget of {EDGE_BUDGET} vertices")
    if trust_counts and not data.counts_known:
        raise ValueError("data carries no per-class edge counts to trust")
    if data.counts_known and sum(c.edge_count for c in data.classes) != d:
        raise ReconstructionInfeasibleError("per-class edge counts do not sum to the vertex count")
    if trust_counts and any(c.edge_count not in (1, 2) for c in data.classes):
        raise ReconstructionInfeasibleError("per-class edge counts must be 1 or 2")
    datum = (trust_counts, d, data.area, data.classes)
    last = _last
    if last is not None and last[0] == datum:
        return CandidateSet._from_keys(*last[1:])
    if trust_counts:
        choices = [tuple(i for i, c in enumerate(data.classes) if c.edge_count == 2)]
    else:
        choices = list(combinations(range(r), p))
    blocks, keys, emitting = _reconstruct(data, choices)
    if not keys:
        raise ReconstructionInfeasibleError("no Delzant polygon is consistent with the data")
    _last = (datum, blocks, keys, emitting)
    return CandidateSet._from_keys(blocks, keys, emitting)


def _fan(dirs: Sequence[Vec2]) -> list[tuple[int, int]]:
    """Every (class, sign) of the pairwise non-parallel class directions
    ``dirs`` in angular order from (1, 0); the ring of every branch is a
    subsequence of it.  Each w is a canonical normal n turned a quarter, so
    w.y = n.x >= 0, and w.y = 0 only at w = (-1, 0): one of w, -w lies in
    [0, pi), and the other half-turn holds the negatives in the same order."""
    half = [(i, 1 if w.y > 0 else -1) for i, w in enumerate(dirs)]
    first = [half[k] for k in angle_order([dirs[i] * s for i, s in half])]
    return first + [(i, -s) for i, s in first]


def _residual(edges: Sequence[Vec2], singles, signs) -> tuple[int, int]:
    """Minus the sum of ``signs[i] edges[i]`` over the single classes,
    where ``edges[i]`` is class ``i``'s direction times its sum: what the
    doubled classes' split differences must sum to."""
    return -sum(signs[i] * edges[i].x for i in singles), -sum(signs[i] * edges[i].y for i in singles)


def _cramer(w1: Vec2, w2: Vec2, vectors) -> tuple[list[tuple[int, int]], int]:
    """Cramer's rule on every ``(rx, ry)`` of ``vectors``: the numerator
    pairs ``(n1, n2)`` with ``(n1 w1 + n2 w2) / m = (rx, ry)``, and ``m =
    |w1 x w2|``: how :func:`_reconstruct` solves the closure of a choice
    with two or three doubled classes, all of its vectors in one call."""
    (x1, y1), (x2, y2) = w1, w2
    det = x1 * y2 - y1 * x2
    sign, m = (1, det) if det > 0 else (-1, -det)
    return [(sign * (x * y2 - y * x2), sign * (x1 * y - y1 * x)) for x, y in vectors], m


# The ends of a one-pair branch whose split is inadmissible, as its record lists them.
_INADMISSIBLE = ((0, "inadmissible_split", None),)


def _sign_table(r: int, singles: Sequence[int]) -> list[list[int]]:
    """Every sign pattern of a choice with single classes ``singles``, by
    pattern index: pattern ``k`` flips ``singles[j]`` to -1 for each bit
    ``j`` set in ``k``.  The table doubles once per single class."""
    table = [[1] * r]
    for i in singles:
        flipped = [signs.copy() for signs in table]
        for signs in flipped:
            signs[i] = -1
        table += flipped
    return table


def _reconstruct(data: SpectralData, choices) -> tuple[list[tuple], list[tuple], dict]:
    """Decide every sign pattern of each doubled-class choice in ``choices``
    on ``data`` as :func:`enumerate_candidates` describes, in the given order.

    The single classes of a choice run through all sign patterns, the first
    one flipping fastest, and the doubled ones keep +1.  What the doubled
    classes' split differences must sum to, the residual, is linear in the
    signs: flipping single class ``i`` from +1 to -1 adds twice its edge
    vector.  So one table, doubled once per single class from the all-plus
    pattern, gives every pattern of a choice its residual (with two or three
    doubled classes, its Cramer numerators, which are linear in the
    residual).  One comprehension over the table keeps the patterns that
    pass closure (no pairs or one pair) or admissibility (two pairs); with
    three pairs it keeps every pattern, and each solves its own quadratic
    along its ring, dying at closure when no root is admissible.  Only the
    kept patterns get a sign tuple and go on to the fan, area and key steps;
    most patterns die in the comprehension.

    Pattern ``top - k`` (``top = 2^len(singles) - 1``) flips every single
    class of pattern ``k``: it is the point-reflected branch.  Its residual
    and numerators are pattern ``k``'s negated, so it closes and is
    admissible exactly when pattern ``k`` is; its ring is pattern ``k``'s
    turned half round, with the same determinants; and it chains the
    reflection of pattern ``k``'s polygons, of the same area.  Every edge
    negates, which swaps each split pair end for end and, with three pairs,
    negates the root u (K1 negates, K0 and K2 do not), so the records run in
    reverse.  So only the patterns below half are decided, and each kept
    one's mirror is written from it.

    Returns one block per choice, the emitted canonical keys in first-seen
    order, and the decided branches that emitted (a mirror emits exactly
    when its pattern does): each choice's sign tuples, in trace order.  A
    block is ``(doubled, singles, dead, opened)``, all in
    integers:

    - ``doubled``, the doubled classes' normals, and ``singles``, the single
      classes' indices: pattern ``k`` has the signs ``_sign_table(r,
      singles)[k]``, which flip ``singles[j]`` for each bit ``j`` set in ``k``;
    - ``dead``, how a dropped pattern reads, one the comprehension dropped
      or a three-pair one with no admissible root: its one trace entry has
      anchor 0 and, when ``dead`` is None, outcome ``no_closure``
      and no splits; otherwise the choice has two pairs, ``dead = (b1, b2,
      den, us, vs)`` carries its table, and the entry is an
      ``inadmissible_split`` with splits ``(b1 + u, b1 - u), (b2 + v, b2 -
      v)`` over ``den``, where ``(u, v) = (us[k], vs[k])``;
    - ``opened``, the index of each kept pattern that is not dropped mapped
      to its records, in pattern order; one record per decided solution,
      ``(splits, parameter, ends)``.  ``splits`` is
      ``(den, ((length+, length-) numerators, ...))``; ``parameter`` is
      ``(numerator, denominator)`` or None; ``ends`` lists the ``(anchor,
      outcome, key)`` of each trace entry the record adds, in trace order,
      naming an emitted candidate by its key and any other by None.  The
      ``inadmissible_split`` record of a one-pair pattern has one end with
      anchor 0, any other record two, with anchors 1 and -1 and one
      outcome.

    The trace lists the blocks in order, and in each its patterns by index,
    a kept pattern by its records.  ``data`` must pass the checks of
    :func:`enumerate_candidates`; a choice is decided the same way whichever
    other choices are listed with it.  Every emitted key names a Delzant
    polygon with exactly ``data``, by the proof in step 4 of
    :func:`enumerate_candidates`; it is not rebuilt to check.
    """
    r = len(data.classes)
    p = data.vertex_count - r
    normals = [tuple(c.normal) for c in data.classes]
    # Each class's direction: its normal turned a quarter counterclockwise.
    dirs = [Vec2(-y, x) for x, y in normals]
    scale, int_sums = integer_frame([c.length_sum for c in data.classes])
    twice_area = 2 * data.area
    fan = _fan(dirs)
    # Each class's edge vector, its direction times its sum, by component.
    ex = [w.x * s for w, s in zip(dirs, int_sums)]
    ey = [w.y * s for w, s in zip(dirs, int_sums)]
    total_x, total_y = sum(ex), sum(ey)

    blocks: list[tuple] = []
    emitted: dict[tuple, None] = {}
    emitting: dict[tuple, dict[tuple, None]] = {}

    for choice in choices:
        chosen = set(choice)
        singles = [i for i in range(r) if i not in chosen]
        doubled_normals = tuple(normals[i] for i in choice)
        # The residual (rx, ry) / scale is what the doubled-class split
        # differences must sum to; a solution lists them as integer
        # numerators over a common denominator, a multiple of scale.  With
        # two or more pairs the table holds the Cramer numerators of the
        # first two doubled directions instead, over q = scale m.  The
        # all-plus residual is minus the single classes' edges: the doubled
        # classes' edges minus all of them.
        start = (sum([ex[i] for i in choice]) - total_x, sum([ey[i] for i in choice]) - total_y)
        steps = [(2 * ex[i], 2 * ey[i]) for i in singles]
        if p >= 2:
            (start, *steps), m = _cramer(dirs[choice[0]], dirs[choice[1]], [start, *steps])
            q = scale * m
        # Pattern k has the residual or numerators (us[k], vs[k]): start plus
        # steps[j] for each bit j of k.  Only the patterns k <= top // 2,
        # whose last single class keeps +1, are decided; pattern top - k
        # mirrors pattern k (below).  Two pairs keep the whole table, which
        # their dead entries read; the others stop at half (a whole one
        # would only decide patterns their mirrors rewrite unchanged).
        top = (1 << len(singles)) - 1
        us, vs = _table(start, steps if p == 2 else steps[:-1])
        dead = None
        if p == 0:
            kept = [k for k, u in enumerate(us) if u == 0 and vs[k] == 0]
        elif p == 1:
            wx, wy = dirs[choice[0]]
            b1 = int_sums[choice[0]]
            kept = [k for k, u in enumerate(us) if u * wy == vs[k] * wx]
        elif p == 2:
            b1, b2 = int_sums[choice[0]] * m, int_sums[choice[1]] * m
            kept = [k for k in range(top // 2 + 1) if -b1 < us[k] < b1 and -b2 < vs[k] < b2]
            dead = (b1, b2, 2 * q, us, vs)
        else:
            kernel = dict(zip(choice, _family_kernel(*(dirs[i] for i in choice))))
            kept = range(len(us))
        # Pattern k flips class i where it has the bit bits[i].
        bits = [0] * r
        for j, i in enumerate(singles):
            bits[i] = 1 << j
        opened: dict[int, list] = {}
        for k in kept:
            u, v = us[k], vs[k]
            signs = tuple([-1 if k & b else 1 for b in bits])
            # A kept branch lists its solutions (numerators, q, parameter),
            # or writes its record when its one split is inadmissible.
            if p == 0:
                solutions = [((), scale, None)]
            elif p == 1:
                # w is primitive, so the multiple of w is an integer.
                n = u // wx if wx != 0 else v // wy
                if not -b1 < n < b1:
                    opened[k] = [((2 * scale, ((b1 + n, b1 - n),)), None, _INADMISSIBLE)]
                    continue
                solutions = [((n,), scale, None)]
            elif p == 2:
                solutions = [((u, v), q, None)]
            ring = [(i, s) for i, s in fan if s == signs[i] or i in chosen]
            if p == 3:
                # The third split is free: numerators base + u kernel over q,
                # where u = q t.  Pin u against the area, in integers.
                base = dict(zip(choice, (u, v, 0)))
                k0, k1, k2 = _family_quadratic(dirs, ring, int_sums, m, base, kernel)
                # K2 != 0, so the area is never constant along a family:
                # along the ring the u-parts of the doubled edges are
                # v_a, v_b, v_c, v_a, v_b, v_c (v_k = kernel[k] w_k; single
                # edges have none), and v_a + v_b + v_c = 0 gives
                # K2 = sum_{x<y} v_x x v_y = 2 v_a x v_b
                #    = 2 kernel[a] kernel[b] (w_a x w_b), with no factor 0.
                # With twice_area = N / D the area condition is
                # D (K0 + K1 u + K2 u^2) = N (2q)^2.
                den = twice_area.denominator
                target = twice_area.numerator * 4 * q * q
                solutions = []
                for un, ud in _quadratic_roots(den * k2, den * k1, den * k0 - target):
                    numerators = tuple(base[i] * ud + un * kernel[i] for i in choice)
                    if all(abs(n) < int_sums[i] * m * ud for i, n in zip(choice, numerators)):
                        # The parameter t = u / q, as (numerator, denominator).
                        solutions.append((numerators, q * ud, (un, q * ud)))
                if not solutions:
                    # Dropped: it reads as the block's dead patterns do.
                    continue
            # The fan is convex: admissible splits make every length
            # positive, so the ring's directions sum to zero with positive
            # weights.  They lie on at least two lines (a choice exists only
            # when r >= 2), so no gap between angular neighbours reaches pi
            # and every turn is positive.  Only the determinant is left to
            # test.
            smooth = all(s * t * dirs[i].cross(dirs[j]) == 1 for (i, s), (j, t) in zip(ring, ring[1:] + ring[:1]))
            records = opened[k] = []
            for numerators, q_sol, parameter in solutions:
                m_sol = q_sol // scale
                delta = dict(zip(choice, numerators))
                splits = (2 * q_sol, tuple((int_sums[i] * m_sol + n, int_sums[i] * m_sol - n) for i, n in delta.items()))
                keys = None
                if smooth:
                    # Lengths over 2 q_sol: a doubled class with integer sum S
                    # and numerator n has S m_sol + n forward and S m_sol - n
                    # back.
                    keys = _fan_chain(
                        [
                            dirs[i] * (s * int_sums[i] * m_sol + delta[i] if i in delta else 2 * s * m_sol * int_sums[i])
                            for i, s in ring
                        ],
                        2 * q_sol,
                        twice_area,
                    )
                if keys is not None:
                    # Anchor a builds the chained polygon when a * signs[0] > 0.
                    plus, minus = keys if signs[0] > 0 else keys[::-1]
                    emitted[plus] = None
                    emitted[minus] = None
                    emitting.setdefault(choice, {})[signs] = None
                    ends = ((1, "emitted", plus), (-1, "emitted", minus))
                elif smooth:
                    ends = ((1, "dropped_mismatch", None), (-1, "dropped_mismatch", None))
                else:
                    ends = ((1, "dropped_invalid", None), (-1, "dropped_invalid", None))
                records.append((splits, parameter, ends))
        # Each kept pattern's mirror, in pattern order (see the docstring).
        # Its anchors build the same polygons when class 0 is single, whose
        # sign flips with the chain, and swap them when it is doubled.  With
        # no single class the one pattern is its own mirror, rewritten
        # unchanged: its residual is 0, so its splits are symmetric and its
        # polygon its own reflection, or, with three pairs, its roots pair
        # up as +-u, each record the other's mirror.
        swap = 0 in chosen
        for k in reversed([*opened]):
            opened[top - k] = [(
                (den, tuple(pair[::-1] for pair in pairs)), None if parameter is None else (-parameter[0], parameter[1]),
                tuple((a, o, key) for (a, o, _), (_, _, key) in zip(ends, ends[::-1])) if swap else ends,
            ) for (den, pairs), parameter, ends in reversed(opened[k])]
        blocks.append((doubled_normals, singles, dead, opened))
    return blocks, list(emitted), emitting


def _branches(blocks: Sequence[tuple]):
    """Every branch of :func:`_reconstruct`'s ``blocks`` in trace order, a
    run at a time, as ``(doubled, signs, start, stop, dead, records)``: the
    one walk of the block format, which :meth:`CandidateSet._expand` and
    ``serialize.candidates_to_json`` both consume.  ``signs`` is the block's
    :func:`_sign_table`, built once per block, and ``dead`` its dead outcome.
    ``records`` is None for a run of dropped patterns ``start`` to ``stop -
    1``, each of which reads as ``dead`` says; for a kept pattern ``start``
    (``stop = start + 1``) it is that pattern's records.  A block's items
    share its ``doubled`` tuple."""
    for doubled, singles, dead, opened in blocks:
        signs = _sign_table(len(doubled) + len(singles), singles)
        start = 0
        for k, records in opened.items():
            if start < k:
                yield doubled, signs, start, k, dead, None
            yield doubled, signs, k, k + 1, dead, records
            start = k + 1
        if start < len(signs):
            yield doubled, signs, start, len(signs), dead, None


@dataclass(frozen=True)
class GenericityReport:
    """Outcome of the genericity test, with what broke it when it fails."""

    generic: bool
    rectangle: bool
    subpolygons: tuple[tuple[int, ...], ...]
    emitting_assignments: tuple[tuple[tuple[int, int], ...], ...]
    candidate_count: int

    def __bool__(self) -> bool:
        return self.generic


# The most candidates generic data may have, by parallel-pair count.
_GENERIC_BOUND = (2, 2, 2, 4)


def is_generic(polygon: Polygon) -> GenericityReport:
    """Whether the data of this polygon pins it down to the minimal set.

    Generic means: no subpolygons, a unique doubled-class assignment
    produces candidates, and the candidate set collapses to at most two
    polygons (four with three parallel pairs).  Parallelograms (four
    vertices, two normal directions) take the same test, and are generic
    with one candidate.  A polygon that is not Delzant raises
    :class:`ReconstructionInfeasibleError`, naming a vertex.
    """
    return _genericity(polygon)[0]


def _genericity(polygon: Polygon) -> tuple[GenericityReport, tuple]:
    """:func:`is_generic`'s report, with the branches that emitted, one of
    each mirror pair, as ``(doubled classes, sign tuples)``, in trace order."""
    data = spectral_data(polygon)
    p = data.parallel_pairs
    if p > 3:
        raise UnsupportedAmbiguityError(f"{p} parallel pairs are not supported by the genericity test")
    bad = validate_delzant(polygon).failures
    if bad:
        raise ReconstructionInfeasibleError(
            f"polygon is not Delzant: vertex {bad[0].vertex_index} has determinant {bad[0].determinant}")
    subs = detect_subpolygons(polygon).subsets
    candidates = enumerate_candidates(data)
    normals = [tuple(c.normal) for c in data.classes]
    assignments = tuple(sorted(tuple(normals[i] for i in choice) for choice in candidates._emitting))
    report = GenericityReport(
        generic=not subs and len(assignments) == 1 and len(candidates) <= _GENERIC_BOUND[p],
        rectangle=len(data.classes) == 2,  # a triangle has three classes
        subpolygons=subs,
        emitting_assignments=assignments,
        candidate_count=len(candidates),
    )
    return report, tuple(candidates._emitting.items())


def _structural_twins(polygon: Polygon, branches) -> tuple[int, tuple[tuple[int, tuple], ...]]:
    """Emitting branches that keep emitting on every polygon with this fan
    where their splits are strictly admissible, as linear forms in the
    edges' lattice lengths.

    ``branches`` are :func:`_genericity`'s: one pattern of each mirror pair,
    so a twin and its reflection count once.  A sign pattern's splits solve
    its closure by Cramer's rule, as in :func:`_reconstruct`, so they are
    linear in the class sums (and, with three pairs, in the family
    parameter u), and twice its area is the integer quadratic of
    :func:`_family_quadratic` in them.  With two pairs, a twin is an
    emitting pattern, other than the polygon's own and its reflection,
    whose quadratic equals the own one's coefficient for coefficient: it
    meets the area of every polygon with this fan.  With three pairs, the
    area of a polygon with this fan is the own quadratic at the class sums
    and its own u, and a twin is a pattern whose equation for u against it
    has a discriminant that is the square of a linear form in both: its
    roots are then linear in the lengths, and so is the own equation's
    other root.  A twin's fan is smooth, so wherever its splits are
    strictly admissible at a root it emits a polygon and its reflection.

    Returns ``(need, entries)``: each entry is ``(weight, forms)``, one
    pattern at one root, whose integer forms in the lattice lengths of
    ``polygon.edges`` are all positive exactly when it emits a polygon other
    than the one shifted and the other entries' ones.  A twin with other
    doubled classes weighs ``need``: it emits for a second assignment.
    Others weigh 1: ``need`` of them emit the candidates past the bound.  A
    polygon with this fan where the weights of such entries reach ``need``
    is not generic.  No entries unless the polygon has two or three
    parallel pairs and its own pattern emits, which makes its fan smooth.
    """
    data = spectral_data(polygon)
    normals = [c.normal for c in data.classes]
    own_choice = tuple(k for k, c in enumerate(data.classes) if c.edge_count == 2)
    p = len(own_choice)
    need = _GENERIC_BOUND[p] // 2
    r = len(normals)
    # With every class doubled the own pattern is the only one.  Any other
    # source emits its own: it is Delzant (_genericity refuses the rest).
    if p not in (2, 3) or p == r:
        return need, ()
    dirs = [n.perp_ccw() for n in normals]
    index = {n: k for k, n in enumerate(normals)}
    classes = [index[canonical_unsigned(e.normal)] for e in polygon.edges]
    # Each edge runs along its class direction (+1) or against it (-1).
    sides = [1 if e.normal == normals[k] else -1 for e, k in zip(polygon.edges, classes)]
    own = tuple(1 if k in own_choice else sides[classes.index(k)] for k in range(r))
    fan = _fan(dirs)
    # The variables: the class sums and, with three pairs, the own u.  A
    # quadratic form is fixed by its values at every e_k and e_k + e_l.
    n = r + p - 2
    units = [[int(k == j) for j in range(n)] for k in range(n)]
    points = units + [[a + b for a, b in zip(units[k], units[l])] for k in range(n) for l in range(k + 1, n)]

    def family(choice, signs) -> tuple[dict, int, list[tuple]]:
        """The pattern's kernel, m, and (K0, K1, K2) and split numerators
        at the class sums of each point."""
        singles = [i for i in range(r) if i not in choice]
        ring = [(i, s) for i, s in fan if s == signs[i] or i in choice]
        kernel = dict(zip(choice, _family_kernel(*(dirs[i] for i in choice)) if p == 3 else (0, 0)))
        residuals = [_residual([w * s for w, s in zip(dirs, z)], singles, signs) for z in points]
        pairs, m = _cramer(dirs[choice[0]], dirs[choice[1]], residuals)
        values = []
        for z, pair in zip(points, pairs):
            base = dict(zip(choice, pair + (0,)))
            values.append((_family_quadratic(dirs, ring, z[:r], m, base, kernel), base))
        return kernel, m, values

    def edges(coefficients) -> list[int]:
        """A linear form in the variables as one in the edge lengths."""
        return [coefficients[k] for k in classes]

    own_kernel, own_m, own_values = family(own_choice, own)
    # Twice the own area at each point, times (2 own_m)^2 (K1 = K2 = 0 with two pairs).
    target = [k0 + k1 * z[-1] + k2 * z[-1] ** 2 for z, ((k0, k1, k2), _) in zip(points, own_values)]
    if p == 3:
        # The shifted polygon's own u is N / a: its third doubled class c has
        # kernel entry a and split numerator N = m (length along - against).
        c = own_choice[2]
        a = own_kernel[c]
        big_n = [own_m * side * (k == c) for k, side in zip(classes, sides)]
        k1 = edges([own_values[k][0][1] for k in range(r)])
        k2 = own_values[0][0][2]
        # The own equation's other root is -(K1 a + K2 N) / (K2 a), another
        # polygon unless 2 K2 N + K1 a = 0.
        apart = [2 * k2 * y + x * a for x, y in zip(k1, big_n)]
        roots = [(k2 * a, [-(x * a + k2 * y) for x, y in zip(k1, big_n)], apart)]
    else:
        roots = []

    def emitting(weight, choice, kernel, m, values, at_roots) -> list[tuple[int, tuple]]:
        """The entries of one pattern at the roots ``at_roots``, each
        ``(scale, U, apart)`` with u = U / scale.  An ``apart`` form tells
        the root from the other one where it is nonzero; the root then gets
        an entry for each of its signs, so a double root counts once."""
        splits = {i: edges([base[i] for _, base in values[:r]]) for i in choice}
        entries = []
        for scale, big_u, apart in at_roots:
            # |base_i + u kernel_i| < m sum_i, times |scale|.
            forms = tuple(
                tuple(abs(scale) * m * (k == i) - sign * (scale * b + kernel[i] * v) for k, b, v in zip(classes, splits[i], big_u))
                for i in choice
                for sign in (1, -1)
            )
            if apart is None:
                entries.append((weight, forms))
            else:
                entries += [(weight, forms + (tuple(apart),)), (weight, forms + (tuple(-x for x in apart),))]
        return entries

    entries = emitting(1, own_choice, own_kernel, own_m, own_values, roots)
    own_pair = {own, tuple(s if k in own_choice else -s for k, s in enumerate(own))}
    for choice, patterns in branches:
        for signs in patterns:
            if choice == own_choice and signs in own_pair:
                continue
            kernel, m, values = family(choice, signs)
            if p == 2:
                if any(v[0] * own_m * own_m != t * m * m for (v, _), t in zip(values, target)):
                    continue
                at_roots = [(1, [0] * len(classes), None)]
            else:
                # m_own^2 F(u) = m^2 F_own: A u^2 + B u + C = 0, with the
                # discriminant B^2 - 4 A C = (W / s)^2 / 4 when it is a square.
                big_a = own_m * own_m * values[0][0][2]
                disc = [
                    (own_m * own_m * k1) ** 2 - 4 * big_a * (own_m * own_m * k0 - m * m * t)
                    for ((k0, k1, _), _), t in zip(values, target)
                ]
                # 4 x the discriminant's symmetric matrix: the diagonal here, the rest below.
                quad = [[4 * disc[k]] * n for k in range(n)]
                pair_at = iter(disc[n:])
                for k in range(n):
                    for l in range(k + 1, n):
                        quad[k][l] = quad[l][k] = 2 * (next(pair_at) - disc[k] - disc[l])
                # A pivot exists: at u = 1 and zero class sums K0 = K1 = 0 and
                # the own area is K2_own, so the u diagonal, 4 disc, is 16 (own_m
                # m)^2 K2 K2_own, and K2 != 0 on every pattern (_reconstruct).
                pivot = next(k for k in range(n) if quad[k][k])
                root, w = isqrt(max(quad[pivot][pivot], 0)), quad[pivot]
                if root * root != quad[pivot][pivot] or any(
                    quad[k][l] * quad[pivot][pivot] != w[k] * w[l] for k in range(n) for l in range(n)
                ):
                    continue
                # u = (-2 root B +- W) / (4 root A), with u_own = N / a in W.
                big_b = edges([own_m * own_m * values[k][0][1] for k in range(r)])
                root_w = [a * x + w[r] * y for x, y in zip(edges(w), big_n)]
                at_roots = [
                    (4 * root * big_a * a, [-2 * root * a * x + sign * y for x, y in zip(big_b, root_w)], apart)
                    for sign, apart in ((1, None), (-1, root_w))
                ]
            entries += emitting(1 if choice == own_choice else need, choice, kernel, m, values, at_roots)
    return need, tuple(entries)


def bundle_reconstruct(system: HalfSpaceSystem) -> Union[Polygon, Polytope3]:
    """Rebuild the polytope from per-facet half-space data, exactly.

    The offsets are absolute, so there is no translation ambiguity; the
    result must reproduce every entry (normal, offset and facet volume) or
    an inconsistency is raised, and it must be Delzant, the hypothesis of
    the paper's theorem (:func:`_require_delzant`).  An offset or volume
    that is not an ``int`` or a ``Fraction`` raises TypeError; a ``dim``
    other than the int 2 or 3, or a normal without ``dim`` coordinates,
    ValueError.
    """
    dim = system.dim
    if not is_exact(dim, int) or dim not in (2, 3):
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
    given = {e.normal: (as_scalar(e.offset), as_scalar(e.volume)) for e in entries}
    rebuilt = _reconstruct_polygon(entries) if dim == 2 else _reconstruct_polytope(entries)
    # Volumes by normal.  No offset is compared: each rebuild puts a facet with an entry's normal on its plane.
    derived = ({tuple(e.normal): e.lattice_length for e in rebuilt.edges} if dim == 2
               else {tuple(f.normal): f.lattice_area for f in rebuilt.facets})
    for normal in derived:
        if normal not in given:
            raise ReconstructionInfeasibleError(
                f"intersection is unbounded: extreme points span a facet {normal} absent from the data"
            )
    for normal, (_, volume) in given.items():
        if normal not in derived:
            raise InconsistentSystemError(f"half-space {normal} is redundant (no facet)")
        if derived[normal] != volume:
            raise InconsistentSystemError(_with_values(
                lambda: f"facet {normal} has lattice volume {derived[normal]}, data says {volume}",
                f"facet {normal} has a lattice volume other than the data's",
            ))
    _require_delzant(rebuilt)
    return rebuilt


def _require_delzant(rebuilt: Union[Polygon, Polytope3]) -> None:
    """Refuse a rebuilt polytope that is not Delzant: at some vertex the
    primitive normals of the facets through it are not a basis of the
    integer lattice.  In 2D that is the first failure of
    :func:`validate_delzant`; in 3D the first vertex, read off
    ``rebuilt.facets``, that does not lie on exactly 3 facets whose normals
    have determinant 1 or -1."""
    if isinstance(rebuilt, Polygon):
        failures = validate_delzant(rebuilt).failures
        if not failures:
            return
        kind, i, det = "polygon", failures[0].vertex_index, failures[0].determinant
    else:
        through: list[list[Vec3]] = [[] for _ in rebuilt.vertices]
        for facet in rebuilt.facets:
            for k in facet.vertex_indices:
                through[k].append(facet.normal)
        for i, normals in enumerate(through):
            det = normals[0].dot(normals[1].cross(normals[2])) if len(normals) == 3 else None
            if det not in (1, -1):
                break
        else:
            return
        kind = "polytope"
    at = f"rebuilt {kind} is not Delzant: vertex {i}"

    def point() -> str:
        return f"{at} ({', '.join(map(format_rational, rebuilt.vertices[i]))})"

    if det is None:
        what = f"lies on {len(through[i])} facets, not 3"
        message = _with_values(lambda: f"{point()} {what}", f"{at} {what}")
    else:
        message = _with_values(lambda: f"{point()} has determinant {det}", f"{at} has a determinant other than 1 or -1")
    raise ReconstructionInfeasibleError(message)


def _reconstruct_polygon(entries: Sequence[HalfSpaceEntry]) -> Polygon:
    normals = [Vec2(*e.normal) for e in entries]
    order = angle_order(normals)
    for i, j in zip(order, order[1:] + order[:1]):
        if normals[i].cross(normals[j]) <= 0:
            raise ReconstructionInfeasibleError("normals fit in a half-plane; the intersection is unbounded")
    try:
        return polygon_from_halfplanes([normals[i] for i in order], [entries[i].offset for i in order])
    except StructuralPolygonError as exc:
        raise InconsistentSystemError(f"half-planes do not bound a polygon: {exc}") from exc


def _reconstruct_polytope(entries: Sequence[HalfSpaceEntry]) -> Polytope3:
    common, offsets = integer_frame([e.offset for e in entries])
    rows = [(Vec3(*e.normal), -c) for e, c in zip(entries, offsets)]
    kept, on = _supporting(rows)
    # A kept (y, w) has n . y <= c D w on every row; for w > 0, y / (D w) is a vertex.
    points = [Vec3(*(Fraction(v, common * w) for v in y)) for y, w in kept if w > 0]
    if len(points) < 4:
        raise ReconstructionInfeasibleError("half-space system has an empty or degenerate intersection")
    # With every kept w > 0 the intersection is bounded, and the rows through
    # 3 or more of its vertices are its facets.  Otherwise it is unbounded, and
    # the vertex scan of Polytope3(points) finds a facet missing from the data;
    # a facet it finds with an entry's normal spans that entry's 2-face.
    planes = None
    if len(points) == len(kept):
        planes = [
            (Vec3(*e.normal), Fraction(e.offset), [i for i in range(len(kept)) if mask >> i & 1])
            for e, mask in zip(entries, on) if mask.bit_count() >= 3
        ]
    try:
        return Polytope3(points, _planes=planes)
    except StructuralPolygonError as exc:
        raise ReconstructionInfeasibleError(f"intersection is not a 3-polytope: {exc}") from exc
