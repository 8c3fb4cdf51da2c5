"""Exception hierarchy shared by every module in the package."""

import sys


def _with_values(write, without: str) -> str:
    """The message ``write()``, or ``without`` when ``str`` cannot write a
    value in it: past the interpreter's digit limit it raises ``ValueError``."""
    try:
        return write()
    except ValueError:
        return f"{without} (a value in it has more than {sys.get_int_max_str_digits()} digits)"


class DelzantError(Exception):
    """Base class for all toolkit errors."""


class StructuralPolygonError(DelzantError):
    """Input fails to be a strictly convex polygon / polytope.

    Distinct from a lattice (Delzant) validation failure: structurally bad
    input cannot even be represented, while a structurally fine polygon may
    simply fail the vertex determinant test.
    """


class ChopError(DelzantError):
    """A corner chop was requested at an inadmissible depth or vertex."""


class BudgetExceededError(DelzantError):
    """An enumeration or retry budget ran out.

    ``partial`` carries whatever partial result was computed before the
    budget was hit (a partial census, the last perturbation attempt, ...).
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class ReconstructionInfeasibleError(DelzantError):
    """No polygon or polytope is consistent with the given data."""


class InconsistentSystemError(ReconstructionInfeasibleError):
    """Half-space data contradicts itself (redundant facet, wrong volume)."""


class UnsupportedError(DelzantError):
    """The request is outside the supported scope of the toolkit."""


class UnsupportedAmbiguityError(UnsupportedError):
    """The data admits an infinite family of polygons (too many parallel pairs)."""


class DegenerateFamilyError(UnsupportedAmbiguityError):
    """A three-pair family whose area does not depend on the free parameter.

    ``interval`` is the open admissibility interval of the parameter; every
    value in it yields a polygon with the same spectral data.  Only
    ``solve_three_pair_parameter`` raises it, and only for a hand-built
    ``ThreePairFamily``: the area of every family the library builds is a
    proper quadratic in the parameter.
    """

    def __init__(self, message, interval=None):
        super().__init__(message)
        self.interval = interval


class PoleError(DelzantError):
    """A heat coefficient was evaluated at a singular parameter."""


class ParseError(DelzantError):
    """Malformed or inconsistent JSON input."""


class OrientationWarning(UserWarning):
    """Vertices were supplied clockwise and have been reversed."""
