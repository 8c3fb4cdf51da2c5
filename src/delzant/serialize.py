"""Bit-exact JSON encodings for every interchange format.

Rationals travel as "p/q" strings so that parse -> serialize -> parse is
the identity; vertex order, class order, and entry order are deterministic.
"""

from __future__ import annotations

import json
import sys
import warnings
from math import gcd
from typing import Union

from .errors import OrientationWarning, ParseError, StructuralPolygonError, UnsupportedError
from .geometry import Polygon
from .polytope3 import Polytope3
from .reconstruct import TRACE_OUTCOMES, AssignmentRecord, CandidateSet, _branches, _candidate_index
from .spectral import HalfSpaceEntry, HalfSpaceSystem, NormalClass, SpectralData
from .vectors import Vec2, canonical_unsigned, format_rational, is_exact, is_primitive_integer, parse_rational
from .zoo import ZooCensus


def _load_document(data: Union[bytes, str]) -> dict:
    """The top-level object of a JSON document given as UTF-8 bytes or text.

    Every way the document can fail to decode is a :class:`ParseError`:
    invalid UTF-8, invalid JSON, nesting deeper than the decoder recurses
    and an integer literal past the interpreter's digit limit (a bare
    ``ValueError``, whose text would point at an interpreter setting).
    """
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise ParseError(f"invalid JSON: {exc}") from exc
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise ParseError(f"invalid JSON: an integer literal has more than {limit} digits") from exc
    if not isinstance(doc, dict):
        raise ParseError("expected a JSON object at the top level")
    return doc


def _too_long(what: str) -> UnsupportedError:
    """The error for writing ``what`` when ``str`` cannot write an integer
    in it: past the interpreter's digit limit it raises ``ValueError``."""
    return UnsupportedError(
        f"cannot write {what}: an integer in it has more than {sys.get_int_max_str_digits()} digits"
    )


def _decimal(n: int) -> int:
    """``n`` once ``str`` has written it, so that a writer meets the digit
    limit where it knows which field it is writing."""
    str(n)
    return n


def _each(what: str, items, write) -> list:
    """``write`` of every item, naming ``what`` and the item's index when
    an integer in it is past the digit limit."""
    written = []
    for index, item in enumerate(items):
        try:
            written.append(write(item))
        except ValueError as exc:
            raise _too_long(f"{what} {index}") from exc
    return written


def _rational(value, what: str) -> str:
    """``format_rational(value)``, naming ``what`` past the digit limit."""
    try:
        return format_rational(value)
    except ValueError as exc:
        raise _too_long(what) from exc


def _read_int(value, what: str) -> int:
    """A JSON integer as it is: floats, booleans and strings are rejected,
    never coerced."""
    if not is_exact(value, int):
        raise ParseError(f"{what} must be an integer, got {json.dumps(value)}")
    return value


def _read_list(value, what: str) -> list:
    if not isinstance(value, list):
        raise ParseError(f"{what} must be a list, got {json.dumps(value)}")
    return value


def _read_object(value, what: str) -> dict:
    if not isinstance(value, dict):
        raise ParseError(f"{what} must be an object, got {json.dumps(value)}")
    return value


def _read_ints(value, count: int, what: str) -> tuple[int, ...]:
    """A JSON list of exactly ``count`` integers, read as :func:`_read_int` does."""
    if not isinstance(value, list) or len(value) != count or not all(is_exact(c, int) for c in value):
        raise ParseError(f"{what} must be a list of {count} integers, got {json.dumps(value)}")
    return tuple(value)


def _read_one_of(value, allowed: tuple[int, ...], what: str) -> int:
    """A JSON integer, read as :func:`_read_int` does, that is one of ``allowed``."""
    if _read_int(value, what) not in allowed:
        raise ParseError(f"{what} must be one of {list(allowed)}, got {value}")
    return value


def _canonical_normal(normal: tuple[int, ...], what: str) -> tuple[int, ...]:
    """``normal`` when it is primitive with its first nonzero coordinate positive."""
    if not is_primitive_integer(normal) or canonical_unsigned(Vec2(*normal)) != normal:
        raise ParseError(f"{what} {list(normal)} must be primitive with its first nonzero coordinate positive")
    return normal


def _read_points(raw, dim: int, too_few: str) -> list[tuple]:
    """The coordinates of ``raw``, a JSON list of at least ``dim + 1`` vertices
    of ``dim`` rationals each; ``too_few`` is the error when it is not that."""
    if not isinstance(raw, list) or len(raw) <= dim:
        raise ParseError(too_few)
    points = []
    for index, point in enumerate(raw):
        if not isinstance(point, (list, tuple)) or len(point) != dim:
            raise ParseError(f"vertex {index} is not a coordinate {'pair' if dim == 2 else 'triple'}")
        try:
            points.append(tuple(parse_rational(str(c)) for c in point))
        except ParseError as exc:
            raise ParseError(f"vertex {index}: {exc}") from exc
    return points


def _point(v) -> list[str]:
    return [format_rational(v.x), format_rational(v.y)]


def polygon_to_json(polygon: Polygon) -> dict:
    return {"dim": 2, "vertices": _each("vertex", polygon.vertices, _point)}


def polygon_from_json(doc: dict) -> Polygon:
    dim = doc.get("dim")
    if not is_exact(dim, int) or dim != 2:
        raise ParseError(f"expected dim 2, got {dim!r}")
    too_few = "'vertices' must be a list of at least 3 coordinate pairs"
    points = [Vec2(*point) for point in _read_points(doc.get("vertices"), 2, too_few)]
    if len(set(points)) != len(points):
        dup = next(p for i, p in enumerate(points) if p in points[:i])
        raise ParseError(f"repeated vertex ({dup.x}, {dup.y})")
    try:
        polygon = Polygon(points)
    except StructuralPolygonError as exc:
        raise ParseError(str(exc)) from exc
    # Polygon reverses the points exactly when every turn is clockwise.
    if polygon.vertices != tuple(points):
        warnings.warn("vertices were clockwise; reversing to CCW", OrientationWarning, stacklevel=2)
    return polygon


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
        "vertices": _each("vertex", polytope.vertices, lambda v: [format_rational(c) for c in v]),
    }


def polytope_from_json(doc: dict) -> Union[Polygon, Polytope3]:
    dim = doc.get("dim")
    if not is_exact(dim, int) or dim not in (2, 3):
        raise ParseError(f"expected dim 2 or 3, got {dim!r}")
    if dim == 2:
        return polygon_from_json(doc)
    points = _read_points(doc.get("vertices"), 3, "'vertices' must list at least 4 points for a 3-polytope")
    try:
        return Polytope3(points)
    except StructuralPolygonError as exc:
        raise ParseError(str(exc)) from exc


def parse_polytope(data: Union[bytes, str]) -> Union[Polygon, Polytope3]:
    return polytope_from_json(_load_document(data))


def spectral_to_json(data: SpectralData) -> dict:
    def write(c: NormalClass) -> dict:
        entry = {
            "normal": [_decimal(int(c.normal.x)), _decimal(int(c.normal.y))],
            "lengthSum": format_rational(c.length_sum),
        }
        if c.edge_count is not None:
            entry["count"] = c.edge_count
        return entry

    return {"d": data.vertex_count, "classes": _each("class", data.classes, write), "area": _rational(data.area, "area")}


def spectral_from_json(doc: dict) -> SpectralData:
    try:
        d = _read_int(doc["d"], "'d'")
        raw_classes = doc["classes"]
        area = parse_rational(str(doc["area"]))
    except KeyError as exc:
        raise ParseError(f"spectral data needs 'd', 'classes' and 'area': {exc}") from exc
    classes = []
    for index, entry in enumerate(_read_list(raw_classes, "'classes'")):
        _read_object(entry, f"class {index}")
        try:
            normal = Vec2(*_read_ints(entry["normal"], 2, f"class {index}: normal"))
            length_sum = parse_rational(str(entry["lengthSum"]))
        except KeyError as exc:
            raise ParseError(f"class {index} is malformed: {exc}") from exc
        count = entry.get("count")
        if count is not None and _read_int(count, f"class {index}: count") not in (1, 2):
            raise ParseError(f"class {index}: count must be 1 or 2")
        _canonical_normal(normal, f"class {index}: normal")
        if length_sum <= 0:
            raise ParseError(f"class {index}: length sum must be positive")
        classes.append(NormalClass(normal=normal, length_sum=length_sum, edge_count=count))
    if len({tuple(c.normal) for c in classes}) != len(classes):
        raise ParseError("normal classes must be pairwise distinct")
    if area <= 0:
        raise ParseError("area must be positive")
    # The checks above cover every field SpectralData checks, so it is built unchecked.
    return SpectralData._unchecked(d, tuple(sorted(classes, key=lambda c: tuple(c.normal))), area)


def parse_spectral(data: Union[bytes, str]) -> SpectralData:
    return spectral_from_json(_load_document(data))


def halfspace_to_json(system: HalfSpaceSystem) -> dict:
    return {
        "dim": system.dim,
        "entries": _each("entry", system.entries, lambda e: {
            "normal": [_decimal(c) for c in e.normal],
            "offset": format_rational(e.offset),
            "volume": format_rational(e.volume),
        }),
    }


def halfspace_from_json(doc: dict) -> HalfSpaceSystem:
    dim = doc.get("dim")
    if not is_exact(dim, int) or dim not in (2, 3):
        raise ParseError(f"expected dim 2 or 3, got {dim!r}")
    entries = []
    for index, entry in enumerate(_read_list(doc.get("entries"), "'entries'")):
        _read_object(entry, f"entry {index}")
        try:
            normal = _read_ints(entry["normal"], dim, f"entry {index}: normal")
            offset = parse_rational(str(entry["offset"]))
            volume = parse_rational(str(entry["volume"]))
        except KeyError as exc:
            raise ParseError(f"entry {index} is malformed: {exc}") from exc
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


def _ratio(n: int, d: int) -> str:
    """``format_rational(Fraction(n, d))`` for ``d > 0``."""
    g = gcd(n, d)
    return f"{n // g}/{d // g}"


def candidates_to_json(candidates: CandidateSet) -> dict:
    """The candidates JSON document.

    An enumerated set, read or not, is written straight from its keys and
    the branches of its blocks (``reconstruct._branches``), building no
    polygon, no trace record and no ``Fraction``; the entries of one
    branch then share their ``signs`` and ``splits`` lists, and those of
    one doubled-class choice their ``doubled`` list.
    """
    if candidates._integer is None:
        return {
            "candidates": _each("candidate", candidates.candidates, lambda p: {
                "dim": 2, "vertices": [_point(v) for v in p.vertices],
            }),
            "assignmentTrace": _each("trace record", candidates.trace, _record_to_json),
        }
    blocks, keys = candidates._integer
    index_of = _candidate_index(keys)
    polygons = _each("candidate", index_of, lambda key: {
        "dim": 2, "vertices": [[_ratio(x, key[0]), _ratio(y, key[0])] for x, y in zip(key[1::2], key[2::2])],
    })
    trace = []
    # Most branches are dropped patterns without splits; this loop runs once
    # per branch, so it binds its two calls and skips the empty comprehension.
    append, candidate = trace.append, index_of.get
    last = None
    try:
        for doubled, signs, (den, raw), parameter, ends in _branches(blocks):
            if doubled is not last:
                last, doubled_list = doubled, [list(n) for n in doubled]
            signs = list(signs)
            splits = [[_ratio(a, den), _ratio(b, den)] for a, b in raw] if raw else []
            if parameter is not None:
                parameter = _ratio(*parameter)
            for anchor, outcome, key in ends:
                append({
                    "doubled": doubled_list,
                    "signs": signs,
                    "splits": splits,
                    "parameter": parameter,
                    "anchor": anchor,
                    "outcome": outcome,
                    "candidate": candidate(key),
                })
    except ValueError as exc:
        # Only _ratio raises it, past the digit limit, before its entry is added.
        raise _too_long(f"trace record {len(trace)}") from exc
    return {"candidates": polygons, "assignmentTrace": trace}


def _record_from_json(entry, index: int, candidate_count: int) -> AssignmentRecord:
    what = f"trace record {index}"
    _read_object(entry, what)
    doubled = _read_list(entry.get("doubled", []), f"{what}: doubled")
    signs = _read_list(entry.get("signs", []), f"{what}: signs")
    splits = _read_list(entry.get("splits", []), f"{what}: splits")
    if any(not isinstance(pair, list) or len(pair) != 2 for pair in splits):
        raise ParseError(f"{what}: splits must be pairs of rationals, got {json.dumps(splits)}")
    parameter, outcome, candidate = entry.get("parameter"), entry.get("outcome", ""), entry.get("candidate")
    if not isinstance(outcome, str) or outcome not in TRACE_OUTCOMES:
        raise ParseError(f"{what}: outcome must be one of {sorted(TRACE_OUTCOMES)}, got {json.dumps(outcome)}")
    if outcome == "emitted" and candidate is None:
        raise ParseError(f"{what}: an emitted record needs a candidate index")
    if outcome != "emitted" and candidate is not None:
        raise ParseError(f"{what}: only an emitted record names a candidate, got {json.dumps(candidate)}")
    if candidate is not None and not 0 <= _read_int(candidate, f"{what}: candidate") < candidate_count:
        raise ParseError(f"{what}: candidate {candidate} is not among the {candidate_count} candidates")
    return AssignmentRecord(
        doubled=tuple(
            _canonical_normal(_read_ints(n, 2, f"{what}: doubled normal"), f"{what}: doubled normal") for n in doubled
        ),
        signs=tuple(_read_one_of(x, (1, -1), f"{what}: sign") for x in signs),
        splits=tuple((parse_rational(str(a)), parse_rational(str(b))) for a, b in splits),
        parameter=None if parameter is None else parse_rational(str(parameter)),
        anchor=_read_one_of(entry.get("anchor", 0), (-1, 0, 1), f"{what}: anchor"),
        outcome=outcome,
        candidate_index=candidate,
    )


def candidates_from_json(doc: dict) -> CandidateSet:
    polygons = tuple(
        polygon_from_json(_read_object(entry, f"candidate {index}"))
        for index, entry in enumerate(_read_list(doc.get("candidates"), "'candidates'"))
    )
    raw_trace = _read_list(doc.get("assignmentTrace", []), "'assignmentTrace'")
    trace = tuple(_record_from_json(entry, index, len(polygons)) for index, entry in enumerate(raw_trace))
    return CandidateSet(candidates=polygons, trace=trace)


def parse_candidates(data: Union[bytes, str]) -> CandidateSet:
    return candidates_from_json(_load_document(data))


def census_to_json(census: ZooCensus) -> dict:
    return {
        "d": census.edge_count,
        "histogram": {str(k): v for k, v in sorted(census.histogram.items())},
        "total": census.total,
    }
