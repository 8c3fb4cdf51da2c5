"""Shared fixtures: the handful of polygons the examples keep coming back to."""

from fractions import Fraction

import pytest

from delzant import ChopSpec, Polygon, Polytope3, chop, hirzebruch


@pytest.fixture
def unit_square():
    return Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))


@pytest.fixture
def unit_triangle():
    return Polygon(((0, 0), (1, 0), (0, 1)))


@pytest.fixture
def projective_triangle():
    """The half-size simplex (0,0), (1/2,0), (0,1/2)."""
    return Polygon(((0, 0), (Fraction(1, 2), 0), (0, Fraction(1, 2))))


@pytest.fixture
def hirzebruch_111():
    return hirzebruch(1, 1, 1)


@pytest.fixture
def subpolygon_hexagon():
    """Hexagon whose opposite edge triples each sum to zero."""
    return Polygon(((1, 0), (2, 0), (2, 1), (1, 2), (0, 2), (0, 1)))


@pytest.fixture
def three_pair_hexagon():
    """5 x 4 rectangle with opposite corners chopped at different depths."""
    base = Polygon(((0, 0), (5, 0), (5, 4), (0, 4)))
    return chop(chop(base, ChopSpec(0, Fraction(1))), ChopSpec(3, Fraction(2)))


@pytest.fixture
def non_delzant_heptagon():
    """The data of random_delzant(7, 42, 4), not among its two candidates:
    determinant 2 at vertex 1."""
    return Polygon([
        (0, 0), (Fraction(11, 16), Fraction(-11, 16)), (1, Fraction(-3, 8)), (1, Fraction(17, 8)),
        (Fraction(13, 16), Fraction(37, 16)), (Fraction(3, 16), Fraction(37, 16)), (0, Fraction(17, 8)),
    ])


@pytest.fixture
def unit_cube():
    return Polytope3([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])


@pytest.fixture
def unit_simplex3():
    return Polytope3([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1)])
