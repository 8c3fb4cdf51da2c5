"""Exact rational vectors in two and three dimensions.

Coordinates are ``int`` or ``fractions.Fraction`` throughout; floats are
rejected so that no operation ever leaves the rational field.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import cmp_to_key
from typing import NamedTuple, Sequence

from .errors import ParseError


def as_scalar(value) -> Fraction | int:
    """The value itself when it is an int or a Fraction; anything else, a
    float or a string included, raises TypeError."""
    if isinstance(value, (int, Fraction)):
        return value
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


# An integer as every reader accepts it: an optional sign and ASCII digits.
_INT = r"[+-]?[0-9]+"
_INTEGER = re.compile(_INT)
_RATIONAL = re.compile(f"({_INT})(?:/({_INT}))?")


def parse_integer(text: str) -> int:
    """Parse an integer string, surrounding whitespace stripped; unlike
    ``int()``, reject underscores and non-ASCII digits."""
    try:
        if _INTEGER.fullmatch(text.strip()):
            return int(text)
    except ValueError as exc:
        raise ParseError(f"malformed integer {text!r}") from exc
    raise ParseError(f"malformed integer {text!r}")


def parse_rational(text: str) -> Fraction:
    """Parse a 'p/q' (or bare 'p') string into a reduced Fraction; surrounding
    whitespace is stripped and p, q are read as :func:`parse_integer` does."""
    match = _RATIONAL.fullmatch(text.strip())
    try:
        if match:
            num, den = match.groups()
            if den is None:
                return Fraction(int(num))
            if int(den) == 0:
                raise ParseError(f"zero denominator in rational {text!r}")
            return Fraction(int(num), int(den))
    except ValueError as exc:
        raise ParseError(f"malformed rational {text!r}") from exc
    raise ParseError(f"malformed rational {text!r}")


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

    Works for Vec2 and Vec3 with rational components; raises on zero input.
    """
    coords = tuple(Fraction(c) for c in vector)
    if all(c == 0 for c in coords):
        raise ValueError("zero vector has no primitive part")
    common = math.lcm(*(c.denominator for c in coords))
    ints = [int(c * common) for c in coords]
    g = math.gcd(*(abs(v) for v in ints))
    scaled = tuple(v // g for v in ints)
    return type(vector)(*scaled)


def is_primitive_integer(vector) -> bool:
    coords = tuple(vector)
    if not all(isinstance(c, int) or (isinstance(c, Fraction) and c.denominator == 1) for c in coords):
        return False
    ints = [abs(int(c)) for c in coords]
    return any(ints) and math.gcd(*ints) == 1


def canonical_unsigned(vector):
    """Flip sign so the first nonzero coordinate is positive."""
    for c in vector:
        if c > 0:
            return vector
        if c < 0:
            return -vector
    raise ValueError("zero vector has no unsigned representative")


def angle_order(directions: Sequence[Vec2]) -> list[int]:
    """Indices sorted counterclockwise by direction angle, from (1, 0).

    Exact and stable: directions of equal angle keep their input order.
    """

    def bucket(v: Vec2) -> int:
        if v.y == 0:
            return 0 if v.x > 0 else 2
        return 1 if v.y > 0 else 3

    def compare(i: int, j: int) -> int:
        a, b = directions[i], directions[j]
        ba, bb = bucket(a), bucket(b)
        if ba != bb:
            return -1 if ba < bb else 1
        c = a.cross(b)
        if c == 0:
            return 0
        return -1 if c > 0 else 1

    return sorted(range(len(directions)), key=cmp_to_key(compare))
