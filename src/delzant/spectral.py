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

from .errors import PoleError
from .geometry import Polygon
from .polytope3 import Polytope3
from .vectors import Vec2, canonical_unsigned, is_primitive_integer


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
    """The hearable data: vertex count, normal classes, exact area."""

    vertex_count: int
    classes: tuple[NormalClass, ...]
    area: Fraction

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


def spectral_data(polygon: Polygon) -> SpectralData:
    """Group the polygon's edges into unsigned-normal classes."""
    groups: dict[Vec2, list] = {}
    for edge in polygon.edges:
        groups.setdefault(canonical_unsigned(edge.normal), []).append(edge)
    classes = []
    for normal in sorted(groups, key=tuple):
        edges = groups[normal]
        classes.append(
            NormalClass(
                normal=normal,
                length_sum=sum((e.lattice_length for e in edges), start=Fraction(0)),
                edge_count=len(edges),
            )
        )
    return SpectralData(vertex_count=polygon.edge_count, classes=tuple(classes), area=polygon.area)


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
    the vertices only.
    """
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
    """Leading heat-trace terms for the isometry generated by ``theta``.

    The zero direction gives the classical volume term; a primitive
    direction normal to an edge gives one codimension-1 term per matching
    edge (unit weight) plus the structural vertex terms; any other primitive
    direction gives vertex terms only.
    """
    if theta.is_zero():
        return (
            HeatLeadingTerm(
                stratum=Stratum("polygon", None, 0),
                codimension=0,
                t_exponent=-2,
                two_pi_exponent=2,
                lattice_volume=polygon.area,
                direction=None,
                weights=(),
            ),
        )
    if not is_primitive_integer(theta):
        raise ValueError(f"direction {tuple(theta)} must be primitive; divide by the gcd first")
    terms = []
    for i, edge in enumerate(polygon.edges):
        if theta.cross(edge.normal) == 0:
            terms.append(
                HeatLeadingTerm(
                    stratum=Stratum("edge", i, 1),
                    codimension=1,
                    t_exponent=-1,
                    two_pi_exponent=1,
                    lattice_volume=edge.lattice_length,
                    direction=edge.direction,
                    weights=(1,),
                )
            )
    d = polygon.edge_count
    for i in range(d):
        outgoing = polygon.edges[i].direction
        incoming = polygon.edges[(i - 1) % d].direction
        terms.append(
            HeatLeadingTerm(
                stratum=Stratum("vertex", i, 2),
                codimension=2,
                t_exponent=0,
                two_pi_exponent=0,
                lattice_volume=Fraction(1),
                direction=None,
                weights=(int(theta.dot(outgoing)), int(theta.dot(-incoming))),
            )
        )
    return tuple(terms)


_POLE_TOLERANCE = 1e-12


def evaluate_leading_coefficient(term: HeatLeadingTerm, s: float) -> float:
    """Numeric value of the term's coefficient at parameter ``s``.

    Raises :class:`PoleError` when any rotation factor 2 - 2cos(w*s) is
    within 1e-12 of zero (which is always the case for a zero weight), and
    ValueError when ``s`` is not finite.
    """
    if not math.isfinite(s):
        raise ValueError(f"evaluation parameter must be finite, got {s}")
    denominator = 1.0
    for w in term.weights:
        factor = 2.0 - 2.0 * math.cos(w * s)
        if abs(factor) < _POLE_TOLERANCE:
            raise PoleError(f"2 - 2cos({w} * {s}) vanishes; coefficient has a pole")
        denominator *= factor
    volume = float(term.lattice_volume)
    if term.direction is not None:
        volume *= term.direction.norm_float()
    return (2.0 * math.pi) ** term.two_pi_exponent * volume / denominator


def euler_characteristic(d: int) -> int:
    """Euler characteristic of the real manifold of a d-gon: 4 - d."""
    if d < 3:
        raise ValueError("a polygon has at least 3 edges")
    return 4 - d


def vertex_count(chi: int) -> int:
    """Inverse of :func:`euler_characteristic`."""
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
    if require_integral:
        for v in polytope.vertices:
            if any(Fraction(c).denominator != 1 for c in v):
                raise ValueError(f"vertex {tuple(v)} is not integral")
    if isinstance(polytope, Polygon):
        entries = [
            HalfSpaceEntry(
                normal=(int(e.normal.x), int(e.normal.y)),
                offset=Fraction(e.normal.dot(polytope.vertices[i])),
                volume=e.lattice_length,
            )
            for i, e in enumerate(polytope.edges)
        ]
        dim = 2
    elif isinstance(polytope, Polytope3):
        entries = [
            HalfSpaceEntry(
                normal=tuple(int(c) for c in f.normal),
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
