"""Bit-exact JSON encodings for every interchange format.

Rationals travel as "p/q" strings so that parse -> serialize -> parse is
the identity; vertex order, class order, and entry order are deterministic.
"""

from __future__ import annotations

import json
import sys
import warnings
from fractions import Fraction
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


def _read_rational(value, what: str) -> Fraction:
    """The JSON rational in field ``what``: a "p/q" string read by
    ``parse_rational``, or an integer.  Anything else is rejected in its
    JSON spelling; every error names the field."""
    try:
        if isinstance(value, str):
            return parse_rational(value)
        if is_exact(value, int):
            return Fraction(value)
        raise ParseError(f"malformed rational {json.dumps(value)}")
    except ParseError as exc:
        raise ParseError(f"{what}: {exc}") from exc


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


def _canonical_normal(normal: tuple[int, int], what: str) -> Vec2:
    """``normal`` as a Vec2 when it is primitive with its first nonzero
    coordinate positive."""
    vector = Vec2(*normal)
    if not is_primitive_integer(vector) or canonical_unsigned(vector) != vector:
        raise ParseError(f"{what} {list(normal)} must be primitive with its first nonzero coordinate positive")
    return vector


def _read_points(raw, dim: int, too_few: str) -> list[tuple]:
    """The coordinates of ``raw``, a JSON list of at least ``dim + 1`` vertices
    of ``dim`` rationals each; ``too_few`` is the error when it is not that."""
    if not isinstance(raw, list) or len(raw) <= dim:
        raise ParseError(too_few)
    points = []
    for index, point in enumerate(raw):
        if not isinstance(point, (list, tuple)) or len(point) != dim:
            raise ParseError(f"vertex {index} is not a coordinate {'pair' if dim == 2 else 'triple'}")
        points.append(tuple(_read_rational(c, f"vertex {index}") for c in point))
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
            "normal": [_decimal(c.normal.x), _decimal(c.normal.y)],
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
        area = _read_rational(doc["area"], "'area'")
    except KeyError as exc:
        raise ParseError(f"spectral data needs 'd', 'classes' and 'area': {exc}") from exc
    classes = []
    for index, entry in enumerate(_read_list(raw_classes, "'classes'")):
        _read_object(entry, f"class {index}")
        normal_field = f"class {index}: normal"
        try:
            normal = _read_ints(entry["normal"], 2, normal_field)
            length_sum = _read_rational(entry["lengthSum"], f"class {index}: lengthSum")
        except KeyError as exc:
            raise ParseError(f"class {index} is malformed: {exc}") from exc
        count = entry.get("count")
        if count is not None and _read_int(count, f"class {index}: count") not in (1, 2):
            raise ParseError(f"class {index}: count must be 1 or 2")
        normal = _canonical_normal(normal, normal_field)
        if length_sum.numerator <= 0:
            raise ParseError(f"class {index}: length sum must be positive")
        classes.append(NormalClass(normal, length_sum, count))
    if len({c.normal for c in classes}) != len(classes):
        raise ParseError("normal classes must be pairwise distinct")
    if area.numerator <= 0:
        raise ParseError("area must be positive")
    # The checks above cover every field SpectralData checks, so it is built
    # unchecked.  The normals are distinct, so the classes sort by them.
    return SpectralData._unchecked(d, tuple(sorted(classes)), area)


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
            offset = _read_rational(entry["offset"], f"entry {index}: offset")
            volume = _read_rational(entry["volume"], f"entry {index}: volume")
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


def _pair(a: int, b: int, den: int) -> list[str]:
    """``[_ratio(a, den), _ratio(b, den)]``, inlined: the writer formats
    every vertex and split pair with it."""
    g, h = gcd(a, den), gcd(b, den)
    return [f"{a // g}/{den // g}", f"{b // h}/{den // h}"]


def _records_to_json(polygons: tuple[Polygon, ...], trace: tuple[AssignmentRecord, ...]) -> dict:
    """The candidates document of ``polygons`` and ``trace``, record by
    record, naming a record that holds an integer past the digit limit."""
    return {
        "candidates": _each("candidate", polygons, lambda p: {
            "dim": 2, "vertices": [_point(v) for v in p.vertices],
        }),
        "assignmentTrace": _each("trace record", trace, _record_to_json),
    }


def candidates_to_json(candidates: CandidateSet) -> dict:
    """The candidates JSON document.

    An enumerated set, read or not, is written straight from its keys and
    the runs of its blocks (``reconstruct._branches``), building no
    polygon, no trace record and no ``Fraction``.  A run of dropped
    patterns is written by one comprehension over copies of its block's
    template entry, so a block's dropped entries share its ``doubled``
    list and its ``no_closure`` entries share one ``[]``; the entries of a
    kept branch share their ``signs`` and ``splits`` lists.  Past the digit
    limit, :func:`_records_to_json` names the record on a fresh copy.
    """
    if candidates._integer is None:
        return _records_to_json(candidates.candidates, candidates.trace)
    blocks, keys = candidates._integer
    index_of = _candidate_index(keys)
    trace = []
    append, candidate = trace.append, index_of.get
    last = None
    try:
        polygons = [
            {"dim": 2, "vertices": [_pair(x, y, key[0]) for x, y in zip(key[1::2], key[2::2])]} for key in index_of
        ]
        for doubled, signs, start, stop, dead, records in _branches(blocks):
            if doubled is not last:
                last, doubled_list = doubled, [list(n) for n in doubled]
                template = {
                    "doubled": doubled_list,
                    "signs": None,
                    "splits": [],
                    "parameter": None,
                    "anchor": 0,
                    "outcome": "no_closure" if dead is None else "inadmissible_split",
                    "candidate": None,
                }
            if records is None:
                if dead is None:
                    trace += [dict(template, signs=s) for s in signs[start:stop]]
                else:
                    b1, b2, den, us, vs = dead
                    trace += [
                        dict(template, signs=s, splits=[_pair(b1 + u, b1 - u, den), _pair(b2 + v, b2 - v, den)])
                        for s, u, v in zip(signs[start:stop], us[start:stop], vs[start:stop])
                    ]
                continue
            signs = signs[start]
            for (den, raw), parameter, ends in records:
                splits = [_pair(a, b, den) for a, b in raw]
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
    except ValueError:
        # Only _pair and _ratio raise it, past the digit limit.  The copy
        # leaves the set unread; if it writes, the fault is here: re-raise.
        copy = CandidateSet._from_keys(blocks, keys, {})
        _records_to_json(copy.candidates, copy.trace)
        raise
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
            tuple(_canonical_normal(_read_ints(n, 2, f"{what}: doubled normal"), f"{what}: doubled normal"))
            for n in doubled
        ),
        signs=tuple(_read_one_of(x, (1, -1), f"{what}: sign") for x in signs),
        splits=tuple(tuple(_read_rational(x, f"{what}: splits") for x in pair) for pair in splits),
        parameter=None if parameter is None else _read_rational(parameter, f"{what}: parameter"),
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
