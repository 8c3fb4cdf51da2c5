"""Bit-exact JSON encodings for every interchange format.

Rationals travel as "p/q" strings so that parse -> serialize -> parse is
the identity; vertex order, class order, and entry order are deterministic.
"""

from __future__ import annotations

import json
import warnings
from fractions import Fraction
from typing import Union

from .errors import OrientationWarning, ParseError, StructuralPolygonError
from .geometry import Polygon
from .polytope3 import Polytope3
from .reconstruct import AssignmentRecord, CandidateSet
from .spectral import HalfSpaceEntry, HalfSpaceSystem, NormalClass, SpectralData
from .vectors import Vec2, canonical_unsigned, format_rational, is_primitive_integer, parse_rational
from .zoo import ZooCensus


def _load_document(data: Union[bytes, str]) -> dict:
    if isinstance(data, bytes):
        data = data.decode("utf-8")
    try:
        doc = json.loads(data)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object at the top level")
    return doc


def _signed_area_is_negative(points) -> bool:
    total = Fraction(0)
    for i, p in enumerate(points):
        q = points[(i + 1) % len(points)]
        total += p[0] * q[1] - q[0] * p[1]
    return total < 0


def polygon_to_json(polygon: Polygon) -> dict:
    return {
        "dim": 2,
        "vertices": [[format_rational(v.x), format_rational(v.y)] for v in polygon.vertices],
    }


def polygon_from_json(doc: dict) -> Polygon:
    if doc.get("dim") != 2:
        raise ParseError(f"expected dim 2, got {doc.get('dim')!r}")
    raw = doc.get("vertices")
    if not isinstance(raw, list) or len(raw) < 3:
        raise ParseError("'vertices' must be a list of at least 3 coordinate pairs")
    points = []
    for index, pair in enumerate(raw):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ParseError(f"vertex {index} is not a coordinate pair")
        try:
            points.append(Vec2(parse_rational(str(pair[0])), parse_rational(str(pair[1]))))
        except ParseError as exc:
            raise ParseError(f"vertex {index}: {exc}") from exc
    if len(set(points)) != len(points):
        dup = next(p for i, p in enumerate(points) if p in points[:i])
        raise ParseError(f"repeated vertex ({dup.x}, {dup.y})")
    if _signed_area_is_negative(points):
        warnings.warn("vertices were clockwise; reversing to CCW", OrientationWarning, stacklevel=2)
    try:
        return Polygon(points)
    except StructuralPolygonError as exc:
        raise ParseError(str(exc)) from exc


def parse_polygon(data: Union[bytes, str]) -> Polygon:
    """Parse the polygon interchange format; CW input is reversed with an
    :class:`OrientationWarning`."""
    return polygon_from_json(_load_document(data))


def serialize_polygon(polygon: Polygon) -> str:
    return json.dumps(polygon_to_json(polygon))


def polytope_to_json(polytope: Union[Polygon, Polytope3]) -> dict:
    if isinstance(polytope, Polygon):
        return polygon_to_json(polytope)
    return {
        "dim": 3,
        "vertices": [[format_rational(c) for c in v] for v in polytope.vertices],
    }


def polytope_from_json(doc: dict) -> Union[Polygon, Polytope3]:
    dim = doc.get("dim")
    if dim == 2:
        return polygon_from_json(doc)
    if dim != 3:
        raise ParseError(f"expected dim 2 or 3, got {dim!r}")
    raw = doc.get("vertices")
    if not isinstance(raw, list) or len(raw) < 4:
        raise ParseError("'vertices' must list at least 4 points for a 3-polytope")
    points = []
    for index, triple in enumerate(raw):
        if not isinstance(triple, (list, tuple)) or len(triple) != 3:
            raise ParseError(f"vertex {index} is not a coordinate triple")
        try:
            points.append(tuple(parse_rational(str(c)) for c in triple))
        except ParseError as exc:
            raise ParseError(f"vertex {index}: {exc}") from exc
    try:
        return Polytope3(points)
    except StructuralPolygonError as exc:
        raise ParseError(str(exc)) from exc


def parse_polytope(data: Union[bytes, str]) -> Union[Polygon, Polytope3]:
    return polytope_from_json(_load_document(data))


def spectral_to_json(data: SpectralData) -> dict:
    classes = []
    for c in data.classes:
        entry = {"normal": [int(c.normal.x), int(c.normal.y)], "lengthSum": format_rational(c.length_sum)}
        if c.edge_count is not None:
            entry["count"] = c.edge_count
        classes.append(entry)
    return {"d": data.vertex_count, "classes": classes, "area": format_rational(data.area)}


def spectral_from_json(doc: dict) -> SpectralData:
    try:
        d = int(doc["d"])
        raw_classes = doc["classes"]
        area = parse_rational(str(doc["area"]))
    except (KeyError, ValueError, TypeError) as exc:
        raise ParseError(f"spectral data needs 'd', 'classes' and 'area': {exc}") from exc
    classes = []
    for index, entry in enumerate(raw_classes):
        try:
            normal = Vec2(int(entry["normal"][0]), int(entry["normal"][1]))
            length_sum = parse_rational(str(entry["lengthSum"]))
            count = entry.get("count")
            if count is not None:
                count = int(count)
                if count not in (1, 2):
                    raise ParseError(f"class {index}: count must be 1 or 2")
        except (KeyError, ValueError, TypeError, IndexError) as exc:
            raise ParseError(f"class {index} is malformed: {exc}") from exc
        if not is_primitive_integer(normal) or canonical_unsigned(normal) != normal:
            raise ParseError(
                f"class {index}: normal {list(normal)} must be primitive with its first nonzero coordinate positive"
            )
        if length_sum <= 0:
            raise ParseError(f"class {index}: length sum must be positive")
        classes.append(NormalClass(normal=normal, length_sum=length_sum, edge_count=count))
    if len({tuple(c.normal) for c in classes}) != len(classes):
        raise ParseError("normal classes must be pairwise distinct")
    if area <= 0:
        raise ParseError("area must be positive")
    return SpectralData(vertex_count=d, classes=tuple(sorted(classes, key=lambda c: tuple(c.normal))), area=area)


def parse_spectral(data: Union[bytes, str]) -> SpectralData:
    return spectral_from_json(_load_document(data))


def halfspace_to_json(system: HalfSpaceSystem) -> dict:
    return {
        "dim": system.dim,
        "entries": [
            {
                "normal": list(e.normal),
                "offset": format_rational(e.offset),
                "volume": format_rational(e.volume),
            }
            for e in system.entries
        ],
    }


def halfspace_from_json(doc: dict) -> HalfSpaceSystem:
    dim = doc.get("dim")
    if dim not in (2, 3):
        raise ParseError(f"expected dim 2 or 3, got {dim!r}")
    raw = doc.get("entries")
    if not isinstance(raw, list):
        raise ParseError("'entries' must be a list")
    entries = []
    for index, entry in enumerate(raw):
        try:
            normal = tuple(int(c) for c in entry["normal"])
            offset = parse_rational(str(entry["offset"]))
            volume = parse_rational(str(entry["volume"]))
        except (KeyError, ValueError, TypeError) as exc:
            raise ParseError(f"entry {index} is malformed: {exc}") from exc
        if len(normal) != dim:
            raise ParseError(f"entry {index}: normal has {len(normal)} coordinates, expected {dim}")
        entries.append(HalfSpaceEntry(normal=normal, offset=offset, volume=volume))
    return HalfSpaceSystem(dim=dim, entries=tuple(entries))


def parse_halfspaces(data: Union[bytes, str]) -> HalfSpaceSystem:
    return halfspace_from_json(_load_document(data))


def _record_to_json(record: AssignmentRecord) -> dict:
    return {
        "doubled": [list(n) for n in record.doubled],
        "signs": list(record.signs),
        "splits": [[format_rational(a), format_rational(b)] for a, b in record.splits],
        "parameter": None if record.parameter is None else format_rational(record.parameter),
        "anchor": record.anchor,
        "outcome": record.outcome,
        "candidate": record.candidate_index,
    }


def candidates_to_json(candidates: CandidateSet) -> dict:
    return {
        "candidates": [polygon_to_json(p) for p in candidates.candidates],
        "assignmentTrace": [_record_to_json(r) for r in candidates.trace],
    }


def candidates_from_json(doc: dict) -> CandidateSet:
    raw = doc.get("candidates")
    if not isinstance(raw, list):
        raise ParseError("'candidates' must be a list of polygons")
    polygons = tuple(polygon_from_json(entry) for entry in raw)
    trace = []
    for entry in doc.get("assignmentTrace", []):
        trace.append(
            AssignmentRecord(
                doubled=tuple(tuple(int(c) for c in n) for n in entry.get("doubled", [])),
                signs=tuple(int(s) for s in entry.get("signs", [])),
                splits=tuple(
                    (parse_rational(str(a)), parse_rational(str(b))) for a, b in entry.get("splits", [])
                ),
                parameter=None if entry.get("parameter") is None else parse_rational(str(entry["parameter"])),
                anchor=int(entry.get("anchor", 0)),
                outcome=str(entry.get("outcome", "")),
                candidate_index=entry.get("candidate"),
            )
        )
    return CandidateSet(candidates=polygons, trace=tuple(trace))


def census_to_json(census: ZooCensus) -> dict:
    return {
        "d": census.edge_count,
        "histogram": {str(k): v for k, v in sorted(census.histogram.items())},
        "total": census.total,
    }
