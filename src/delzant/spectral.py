"""The forward map: everything the equivariant and real spectra determine.

Computed symbolically from the polygon: the hearable data (edge count,
unsigned normal classes with summed lattice lengths, area), fixed-point
strata of torus directions, leading heat-trace terms with their exact
volume factors, the Euler characteristic bridge, and the per-facet
half-space data of the line-bundle pipeline.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple, Union

from .errors import PoleError, ReconstructionInfeasibleError, UnsupportedError, _with_values
from .geometry import Polygon
from .polytope3 import Polytope3
from .vectors import Vec2, as_flag, canonical_unsigned, is_exact, is_primitive_integer


class NormalClass(NamedTuple):
    """Edges grouped by unsigned normal direction.

    ``edge_count`` is 1 or 2 (strict convexity forbids three parallel
    edges); it is ``None`` for data deserialized without counts.
    """

    normal: Vec2                  # canonical unsigned primitive normal
    length_sum: Fraction          # summed lattice lengths of the class
    edge_count: int | None


@dataclass(frozen=True)
class SpectralData:
    """The hearable data: vertex count, normal classes, exact area.

    Checked once, when built (by ``dataclasses.replace`` too): a field that
    is not exact raises ValueError naming it, and classes no polygon has (a
    repeated, non-primitive or non-canonical normal, a sum that is not
    positive) raise ReconstructionInfeasibleError.  ``classes`` is kept as a
    tuple.
    """

    vertex_count: int
    classes: tuple[NormalClass, ...]
    area: Fraction

    def __post_init__(self):
        if not is_exact(self.vertex_count, int):
            raise ValueError(f"vertex count must be an int, got {type(self.vertex_count).__name__}")
        if not is_exact(self.area):
            raise ValueError(f"area must be an int or a Fraction, got {type(self.area).__name__}")
        classes = tuple(self.classes)
        object.__setattr__(self, "classes", classes)
        for k, c in enumerate(classes):
            if not is_exact(c.length_sum):
                raise ValueError(f"length sum of class {k} must be an int or a Fraction, got {type(c.length_sum).__name__}")
            if c.edge_count is not None and not is_exact(c.edge_count, int):
                raise ValueError(f"edge count of class {k} must be an int or None, got {type(c.edge_count).__name__}")
            for x in c.normal:
                if not is_exact(x, int):
                    raise ValueError(f"normal of class {k} must be an int vector, got a {type(x).__name__} coordinate")
        if len({c.normal for c in classes}) != len(classes) or any(
            c.length_sum <= 0 or not is_primitive_integer(c.normal) or canonical_unsigned(c.normal) != c.normal
            for c in classes
        ):
            raise ReconstructionInfeasibleError(
                "normal classes need distinct canonical primitive normals and positive length sums"
            )

    @classmethod
    def _unchecked(cls, vertex_count: int, classes: tuple[NormalClass, ...], area: Fraction) -> "SpectralData":
        """The datum, built without the checks: for fields that already pass them."""
        data = cls.__new__(cls)
        data.__dict__.update(vertex_count=vertex_count, classes=classes, area=area)
        return data

    @property
    def counts_known(self) -> bool:
        return all(c.edge_count is not None for c in self.classes)

    @property
    def parallel_pairs(self) -> int:
        return self.vertex_count - len(self.classes)

    def key(self, with_counts: bool = False) -> tuple:
        classes = tuple(
            (tuple(c.normal), c.length_sum) + ((c.edge_count,) if with_counts else ())
            for c in sorted(self.classes, key=lambda c: tuple(c.normal))
        )
        return (self.vertex_count, self.area, classes)

    def matches(self, other: "SpectralData", with_counts: bool = False) -> bool:
        return self.key(with_counts) == other.key(with_counts)


def _class_sums(dxs, dys) -> dict[Vec2, list[int]]:
    """The nonzero integer edge vectors grouped by canonical unsigned
    primitive normal: per class, its summed lattice lengths (times the
    frame's common denominator) and its edge count."""
    sums: dict[Vec2, list[int]] = {}
    for dx, dy in zip(dxs, dys):
        g = math.gcd(dx, dy)
        entry = sums.setdefault(canonical_unsigned(Vec2(dy // g, -dx // g)), [0, 0])
        entry[0] += g
        entry[1] += 1
    return sums


def spectral_data(polygon: Polygon) -> SpectralData:
    """Group the polygon's edges into unsigned-normal classes.

    Built unchecked, as every field holds: the vertex count is an ``int``;
    each normal is an integer edge vector turned a quarter and divided by
    its gcd (primitive), made canonical, and a dict's key (distinct); each
    sum is a ``Fraction`` of positive gcds and each count an ``int``; the
    area is a counterclockwise polygon's ``Fraction``, so positive.
    """
    common, dxs, dys = polygon._frame
    classes = tuple(
        NormalClass(normal=normal, length_sum=Fraction(total, common), edge_count=count)
        for normal, (total, count) in sorted(_class_sums(dxs, dys).items())
    )
    return SpectralData._unchecked(polygon.edge_count, classes, polygon.area)


def parallel_pair_count(polygon: Polygon) -> int:
    """Number of unsigned-normal classes containing two edges."""
    return spectral_data(polygon).parallel_pairs


class Stratum(NamedTuple):
    """One piece of the fixed locus, labelled as seen on the polygon."""

    kind: str                 # "polygon" | "edge" | "vertex"
    index: int | None         # edge or vertex index; None for the whole polygon
    codimension: int


def fixed_point_strata(polygon: Polygon, theta: Vec2) -> tuple[Stratum, ...]:
    """The faces whose moment-map pre-images are fixed by the direction.

    Zero direction fixes everything; a direction parallel to an edge normal
    fixes the matching edges plus every vertex; any other direction fixes
    the vertices only.  A coordinate of ``theta`` that is not an ``int``
    raises ValueError.
    """
    if not all(is_exact(c, int) for c in theta):
        raise ValueError(f"direction {tuple(theta)} must have int coordinates")
    if theta.is_zero():
        return (Stratum("polygon", None, 0),)
    strata = [
        Stratum("edge", i, 1)
        for i, edge in enumerate(polygon.edges)
        if theta.cross(edge.normal) == 0
    ]
    strata.extend(Stratum("vertex", i, 2) for i in range(polygon.edge_count))
    return tuple(strata)


class HeatLeadingTerm(NamedTuple):
    """Leading contribution of one fixed stratum to the equivariant heat trace.

    The pre-image volume factor is kept symbolic as
    ``(2*pi) ** two_pi_exponent * lattice_volume * |direction|``
    (with ``|direction|`` read as 1 when ``direction`` is None), so the
    lattice part stays exact and only the Euclidean norm is numeric.

    A zero weight can appear on a vertex lying on a fixed edge: that vertex
    is absorbed into the edge stratum and its term is purely structural.
    """

    stratum: Stratum
    codimension: int
    t_exponent: int           # always -(2 - codimension) in the surface case
    two_pi_exponent: int      # 2 - codimension
    lattice_volume: Fraction
    direction: Vec2 | None    # primitive direction whose norm completes the volume
    weights: tuple[int, ...]


def donnelly_leading_term(polygon: Polygon, theta: Vec2) -> tuple[HeatLeadingTerm, ...]:
    """Leading heat-trace terms for the isometry generated by ``theta``, one
    per stratum of :func:`fixed_point_strata` and in its order.

    The whole polygon gives the classical volume term; a fixed edge gives
    its lattice length and primitive direction with unit weight; a vertex
    gives lattice volume 1 and the pairings of ``theta`` with its outgoing
    and reversed incoming edge directions.  ``theta`` must have ``int``
    coordinates and be zero or primitive, or ValueError is raised.
    """
    strata = fixed_point_strata(polygon, theta)
    if not theta.is_zero() and not is_primitive_integer(theta):
        raise ValueError(f"direction {tuple(theta)} must be primitive; divide by the gcd first")
    terms = []
    for stratum in strata:
        volume, direction, weights = polygon.area, None, ()
        if stratum.kind == "edge":
            edge = polygon.edges[stratum.index]
            volume, direction, weights = edge.lattice_length, edge.direction, (1,)
        elif stratum.kind == "vertex":
            outgoing = polygon.edges[stratum.index].direction
            incoming = polygon.edges[stratum.index - 1].direction
            volume, weights = Fraction(1), (theta.dot(outgoing), theta.dot(-incoming))
        terms.append(
            HeatLeadingTerm(
                stratum=stratum,
                codimension=stratum.codimension,
                t_exponent=stratum.codimension - 2,
                two_pi_exponent=2 - stratum.codimension,
                lattice_volume=volume,
                direction=direction,
                weights=weights,
            )
        )
    return tuple(terms)


_POLE_TOLERANCE = 1e-12


def evaluate_leading_coefficient(term: HeatLeadingTerm, s: float) -> float:
    """Numeric value of the term's coefficient at parameter ``s``.

    Raises :class:`PoleError` when any rotation factor 2 - 2cos(w*s) is
    within 1e-12 of zero (which is always the case for a zero weight),
    :class:`UnsupportedError` naming a weight (or a weight times ``s``), the
    lattice volume or the direction past the float range, and ValueError
    when ``s`` is not finite.
    """
    if not math.isfinite(s):
        raise ValueError(f"evaluation parameter must be finite, got {s}")
    denominator = 1.0
    name = "a weight"
    try:
        for w in term.weights:
            angle = w * s
            if math.isinf(angle):
                name = "a weight times the parameter"
                raise OverflowError(name)
            factor = 2.0 - 2.0 * math.cos(angle)
            if abs(factor) < _POLE_TOLERANCE:
                raise PoleError(f"2 - 2cos({w} * {s}) vanishes; coefficient has a pole")
            denominator *= factor
        name = "the lattice volume"
        volume = float(term.lattice_volume)
        if term.direction is not None:
            name = "the direction"
            volume *= term.direction.norm_float()
    except OverflowError as exc:
        where = term.stratum.kind if term.stratum.index is None else f"{term.stratum.kind} {term.stratum.index}"
        raise UnsupportedError(f"{where}: {name} is past the float range") from exc
    return (2.0 * math.pi) ** term.two_pi_exponent * volume / denominator


def euler_characteristic(d: int) -> int:
    """Euler characteristic of the real manifold of a d-gon: 4 - d.  A
    ``d`` that is not an ``int`` raises ValueError."""
    if not is_exact(d, int):
        raise ValueError(f"vertex count must be an int, got {type(d).__name__}")
    if d < 3:
        raise ValueError("a polygon has at least 3 edges")
    return 4 - d


def vertex_count(chi: int) -> int:
    """Inverse of :func:`euler_characteristic`.  A ``chi`` that is not an
    ``int`` raises ValueError."""
    if not is_exact(chi, int):
        raise ValueError(f"Euler characteristic must be an int, got {type(chi).__name__}")
    if chi > 1:
        raise ValueError("Euler characteristic of the real surface is at most 1")
    return 4 - chi


class HalfSpaceEntry(NamedTuple):
    normal: tuple[int, ...]   # signed primitive outward normal
    offset: Fraction          # support value: max of x . normal
    volume: Fraction          # lattice length (2D) or lattice area (3D)


@dataclass(frozen=True)
class HalfSpaceSystem:
    """Per-facet data recovered from the line-bundle spectrum."""

    dim: int
    entries: tuple[HalfSpaceEntry, ...]


def bundle_facet_data(polytope: Union[Polygon, Polytope3], require_integral: bool = False) -> HalfSpaceSystem:
    """One (normal, offset, facet volume) entry per facet.

    ``require_integral`` enforces integer vertices, mirroring the
    integrality hypothesis on the manifold side; by default rational
    polytopes are accepted as-is.
    """
    if as_flag(require_integral, "require_integral"):
        for i, v in enumerate(polytope.vertices):
            if any(c.denominator != 1 for c in v):
                raise ValueError(_with_values(
                    lambda: f"vertex {i} ({', '.join(map(str, v))}) is not integral",
                    f"vertex {i} is not integral",
                ))
    if isinstance(polytope, Polygon):
        # Edge i starts at vertex i; walk the vertices in the polygon's
        # integer frame, (x, y) being vertex i times the common denominator.
        common, dxs, dys = polytope._frame
        first = polytope.vertices[0]
        x = first.x.numerator * (common // first.x.denominator)
        y = first.y.numerator * (common // first.y.denominator)
        entries = []
        for e, dx, dy in zip(polytope.edges, dxs, dys):
            nx, ny = e.normal
            entries.append(HalfSpaceEntry(normal=(nx, ny), offset=Fraction(nx * x + ny * y, common), volume=e.lattice_length))
            x += dx
            y += dy
        dim = 2
    elif isinstance(polytope, Polytope3):
        entries = [
            HalfSpaceEntry(
                normal=tuple(f.normal),
                offset=f.offset,
                volume=f.lattice_area,
            )
            for f in polytope.facets
        ]
        dim = 3
    else:
        raise TypeError(f"expected Polygon or Polytope3, got {type(polytope).__name__}")
    entries.sort(key=lambda e: (e.normal, e.offset))
    return HalfSpaceSystem(dim=dim, entries=tuple(entries))
