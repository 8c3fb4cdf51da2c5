"""Exact rational vectors in two and three dimensions.

Coordinates are ``int`` or ``fractions.Fraction`` throughout; floats are
rejected so that no operation ever leaves the rational field.
"""

from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import ParseError


def is_exact(value, types=(int, Fraction)) -> bool:
    """Whether ``value`` is an instance of ``types`` and not a ``bool``: the
    one test of an exact scalar (by default an int or a Fraction)."""
    return isinstance(value, types) and not isinstance(value, bool)


def as_scalar(value) -> Fraction | int:
    """The value itself when it is an int or a Fraction; anything else, a
    bool, a float or a string included, raises TypeError."""
    if is_exact(value):
        return value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def as_flag(value, name: str) -> bool:
    """The value itself when it is ``True`` or ``False``; anything else, ``0``,
    ``1`` and ``None`` included, raises ValueError naming the flag."""
    if value is True or value is False:
        return value
    raise ValueError(f"{name} must be True or False, got {type(value).__name__}")


def exact_points(vertices: Iterable[Sequence], point: type) -> list:
    """Each vertex as a ``point`` (Vec2 or Vec3) of exact scalars (see
    :func:`as_scalar`); one with another coordinate count raises TypeError."""
    points = []
    for vertex in vertices:
        coords = tuple(vertex)
        if len(coords) != len(point._fields):
            raise TypeError(f"vertex {len(points)} does not have {len(point._fields)} coordinates")
        points.append(point(*map(as_scalar, coords)))
    return points


def integer_frame(values: Sequence) -> tuple[int, list[int]]:
    """The least common denominator ``L`` of the exact rationals ``values``
    and their numerators over it, each ``value * L`` as an int."""
    common = math.lcm(*(v.denominator for v in values))
    return common, [v.numerator * (common // v.denominator) for v in values]


# An integer as every reader accepts it: an optional sign and ASCII digits.
_INT = r"[+-]?[0-9]+"
_INTEGER = re.compile(_INT)
_RATIONAL = re.compile(f"({_INT})(?:/({_INT}))?")


def _literal(digits: str) -> int:
    """The int of a literal that matched ``_INT``; past the interpreter's
    digit limit, where ``int`` raises ValueError, a ParseError naming it."""
    try:
        return int(digits)
    except ValueError as exc:
        raise ParseError(f"an integer literal has more than {sys.get_int_max_str_digits()} digits") from exc


def parse_integer(text: str) -> int:
    """Parse an integer string, surrounding whitespace stripped; unlike
    ``int()``, reject underscores and non-ASCII digits."""
    stripped = text.strip()
    if not _INTEGER.fullmatch(stripped):
        raise ParseError(f"malformed integer {text!r}")
    return _literal(stripped)


def parse_rational(text: str) -> Fraction:
    """Parse a 'p/q' (or bare 'p') string into a reduced Fraction; surrounding
    whitespace is stripped and p, q are read as :func:`parse_integer` does."""
    match = _RATIONAL.fullmatch(text.strip())
    if not match:
        raise ParseError(f"malformed rational {text!r}")
    num, den = match.groups()
    q = 1 if den is None else _literal(den)
    if q == 0:
        raise ParseError(f"zero denominator in rational {text!r}")
    return Fraction(_literal(num), q)


def format_rational(value) -> str:
    """Render an exact scalar as a 'p/q' string ('0/1', '1/2', '-3/1', ...)."""
    frac = value if type(value) is Fraction else Fraction(value)
    return f"{frac.numerator}/{frac.denominator}"


class Vec2(NamedTuple):
    """An exact vector in the plane."""

    x: Fraction | int
    y: Fraction | int

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __mul__(self, k) -> "Vec2":
        return Vec2(self.x * k, self.y * k)

    __rmul__ = __mul__

    def dot(self, other: "Vec2"):
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2"):
        return self.x * other.y - self.y * other.x

    def perp_cw(self) -> "Vec2":
        """Rotate by -90 degrees; the outward-normal side of a CCW edge."""
        return Vec2(self.y, -self.x)

    def perp_ccw(self) -> "Vec2":
        return Vec2(-self.y, self.x)

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0

    def norm_float(self) -> float:
        return math.hypot(float(self.x), float(self.y))


class Vec3(NamedTuple):
    """An exact vector in three-space."""

    x: Fraction | int
    y: Fraction | int
    z: Fraction | int

    def __add__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x + other.x, self.y + other.y, self.z + other.z)

    def __sub__(self, other: "Vec3") -> "Vec3":
        return Vec3(self.x - other.x, self.y - other.y, self.z - other.z)

    def __neg__(self) -> "Vec3":
        return Vec3(-self.x, -self.y, -self.z)

    def __mul__(self, k) -> "Vec3":
        return Vec3(self.x * k, self.y * k, self.z * k)

    __rmul__ = __mul__

    def dot(self, other: "Vec3"):
        return self.x * other.x + self.y * other.y + self.z * other.z

    def cross(self, other: "Vec3") -> "Vec3":
        return Vec3(
            self.y * other.z - self.z * other.y,
            self.z * other.x - self.x * other.z,
            self.x * other.y - self.y * other.x,
        )

    def is_zero(self) -> bool:
        return self.x == 0 and self.y == 0 and self.z == 0


def primitive_part(vector):
    """Primitive integer vector parallel to ``vector`` with the same orientation.

    Works for Vec2 and Vec3 with exact components (see :func:`as_scalar`);
    raises on zero input.
    """
    _, ints = integer_frame([as_scalar(c) for c in vector])
    if not any(ints):
        raise ValueError("zero vector has no primitive part")
    g = math.gcd(*ints)
    return type(vector)(*(v // g for v in ints))


def is_primitive_integer(vector) -> bool:
    coords = tuple(vector)
    if not all(is_exact(c) and c.denominator == 1 for c in coords):
        return False
    return math.gcd(*(c.numerator for c in coords)) == 1  # 0 for zeros


def canonical_unsigned(vector):
    """Flip sign so the first nonzero coordinate is positive."""
    for c in vector:
        if c > 0:
            return vector
        if c < 0:
            return -vector
    raise ValueError("zero vector has no unsigned representative")


class _AngleKey:
    """``angle_order``'s sort key.  ``<`` is "strictly earlier", all that
    ``sorted`` asks, so equal angles, earlier neither way, keep their order."""

    def __init__(self, v: Vec2):
        self.v = v
        self.bucket = (0 if v.x > 0 else 2) if v.y == 0 else (1 if v.y > 0 else 3)

    def __lt__(self, other: "_AngleKey") -> bool:
        if self.bucket != other.bucket:
            return self.bucket < other.bucket
        return self.v.cross(other.v) > 0


def angle_order(directions: Sequence[Vec2]) -> list[int]:
    """Indices sorted counterclockwise by direction angle, from (1, 0).

    Exact and stable: directions of equal angle keep their input order.
    """
    return sorted(range(len(directions)), key=lambda i: _AngleKey(directions[i]))
