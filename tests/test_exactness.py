"""No float enters a geometric predicate.

Every module of the package is read as source.  A float shows up as the
name ``float``, a float literal, or a ``math`` function other than the
exact integer ones.  Only the numeric heat-trace evaluation (with
``Vec2.norm_float`` and ``heat --eval``, which feed it), the SVG renderer
and the sampler's coin flip may use one.

Nor does one enter through an argument: every public entry point that
takes a scalar rejects a ``bool`` and a ``float`` with its documented
exception.

No module re-checks at run time what its construction proves: a proof is
written once, in a docstring, and tested in the suite, so the package has
no ``assert`` statement and no ``AssertionError``.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

import delzant
from delzant import (
    ChopSpec,
    InconsistentSystemError,
    Polygon,
    Polytope3,
    SpectralData,
    Vec2,
    bundle_facet_data,
    bundle_reconstruct,
    chop,
    donnelly_leading_term,
    enumerate_candidates,
    euler_characteristic,
    fixed_point_strata,
    hirzebruch,
    parallel_pair_census,
    perturb_generic,
    polygon_from_halfplanes,
    primitive_outward_normal,
    random_delzant,
    solve_three_pair_parameter,
    spectral_data,
    three_pair_family,
    vertex_count,
)

PACKAGE = Path(delzant.__file__).parent

EXACT_MATH = {"ceil", "comb", "factorial", "floor", "gcd", "isqrt", "lcm", "perm", "trunc"}

# (module, scope); a scope is a dotted path of classes, functions,
# module-level assignment targets and argparse option strings.
ALLOWED = {
    ("spectral", "evaluate_leading_coefficient"),
    ("spectral", "_POLE_TOLERANCE"),
    ("vectors", "Vec2.norm_float"),
    ("cli", "_build_parser.--eval"),
    ("zoo", "_random_unimodular"),
}
ALLOWED_MODULES = {"render"}


def _scope_name(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return node.name
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "add_argument":
        if node.args and isinstance(node.args[0], ast.Constant) and isinstance(node.args[0].value, str):
            return node.args[0].value
    return None


def _is_float_site(node):
    if isinstance(node, ast.Name) and node.id == "float":
        return True
    if isinstance(node, ast.Constant) and type(node.value) is float:
        return True
    if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "math":
        return node.attr not in EXACT_MATH
    if isinstance(node, ast.ImportFrom) and node.module == "math":
        return any(alias.name not in EXACT_MATH for alias in node.names)
    return False


def _float_sites(tree):
    """(scope, line) of every float site, scoped by its enclosing names."""
    sites = []

    def walk(node, scope):
        if _is_float_site(node):
            sites.append((".".join(scope), node.lineno))
        name = _scope_name(node)
        inner = scope + [name] if name else scope
        for child in ast.iter_child_nodes(node):
            walk(child, inner)

    for stmt in tree.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else []
        names = [t.id for t in targets if isinstance(t, ast.Name)]
        walk(stmt, names[:1])
    return sites


def _allowed_key(module, scope):
    for key in ALLOWED:
        if key[0] == module and (scope + ".").startswith(key[1] + "."):
            return key
    return None


def test_floats_only_at_allowed_sites():
    found = set()
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        if module in ALLOWED_MODULES:
            continue
        for scope, line in _float_sites(ast.parse(path.read_text(encoding="utf-8"))):
            key = _allowed_key(module, scope)
            if key is None:
                stray.append(f"{module}.py:{line} in {scope or '<module>'}")
            else:
                found.add(key)
    assert stray == [], "float outside the allowed sites: " + ", ".join(stray)
    # A site that no longer uses a float leaves the list.
    assert found == ALLOWED


def test_no_runtime_self_check():
    sites = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Assert) or isinstance(node, ast.Name) and node.id == "AssertionError":
                sites.append(f"{path.stem}.py:{node.lineno}")
    assert sites == [], "assert or AssertionError at " + ", ".join(sites)


SQUARE = Polygon(((0, 0), (1, 0), (1, 1), (0, 1)))
CUBE = Polytope3([(x, y, z) for x in (0, 1) for y in (0, 1) for z in (0, 1)])
DATA = spectral_data(hirzebruch(1, 1, 1))
# The family through a 5 x 4 rectangle with two opposite corners chopped.
FAMILY = three_pair_family(chop(chop(hirzebruch(0, 5, 4), ChopSpec(0, 1)), ChopSpec(3, 2)))


def _classes_with(**change):
    """``DATA``'s classes with the first one changed."""
    return (DATA.classes[0]._replace(**change),) + DATA.classes[1:]


def _with_class(**change):
    """``DATA`` with its first class changed."""
    return dataclasses.replace(DATA, classes=_classes_with(**change))


def _with_entry(polytope, **change):
    """The half-space system of ``polytope`` with its first entry changed."""
    system = bundle_facet_data(polytope)
    return dataclasses.replace(system, entries=(system.entries[0]._replace(**change),) + system.entries[1:])


# (entry point and argument, call with the value x, documented exception)
ENTRY_POINTS = [
    ("Polygon", lambda x: Polygon(((0, 0), (x, 0), (0, 1))), TypeError),
    ("Polytope3", lambda x: Polytope3([(0, 0, 0), (x, 0, 0), (0, 1, 0), (0, 0, 1)]), TypeError),
    ("primitive_outward_normal", lambda x: primitive_outward_normal(Vec2(1, x)), TypeError),
    ("polygon_from_halfplanes", lambda x: polygon_from_halfplanes([Vec2(0, -1), Vec2(1, 1), Vec2(-1, 0)], [0, x, 0]),
     TypeError),
    ("hirzebruch.m", lambda x: hirzebruch(x, 1, 1), ValueError),
    ("hirzebruch.w", lambda x: hirzebruch(0, x, 1), TypeError),
    ("chop.vertex_index", lambda x: chop(SQUARE, ChopSpec(x, 0)), ValueError),
    ("chop.depth", lambda x: chop(hirzebruch(0, 2, 2), ChopSpec(0, x)), TypeError),
    ("random_delzant.d", lambda x: random_delzant(x, 0), ValueError),
    ("random_delzant.seed", lambda x: random_delzant(5, x), ValueError),
    ("random_delzant.param_bound", lambda x: random_delzant(5, 0, x), ValueError),
    ("perturb_generic.budget", lambda x: perturb_generic(SQUARE, x), ValueError),
    ("parallel_pair_census.d", lambda x: parallel_pair_census(x, 2), ValueError),
    ("parallel_pair_census.param_bound", lambda x: parallel_pair_census(5, x), ValueError),
    ("parallel_pair_census.max_instances", lambda x: parallel_pair_census(5, 2, x), ValueError),
    ("enumerate_candidates.vertex_count", lambda x: enumerate_candidates(dataclasses.replace(DATA, vertex_count=x)),
     ValueError),
    ("enumerate_candidates.area", lambda x: enumerate_candidates(dataclasses.replace(DATA, area=x)), ValueError),
    ("enumerate_candidates.length_sum", lambda x: enumerate_candidates(_with_class(length_sum=x)), ValueError),
    ("enumerate_candidates.edge_count", lambda x: enumerate_candidates(_with_class(edge_count=x)), ValueError),
    ("enumerate_candidates.normal", lambda x: enumerate_candidates(_with_class(normal=Vec2(x, 0))), ValueError),
    ("bundle_reconstruct.2d.offset", lambda x: bundle_reconstruct(_with_entry(SQUARE, offset=x)), TypeError),
    ("bundle_reconstruct.2d.volume", lambda x: bundle_reconstruct(_with_entry(SQUARE, volume=x)), TypeError),
    ("bundle_reconstruct.3d.offset", lambda x: bundle_reconstruct(_with_entry(CUBE, offset=x)), TypeError),
    ("bundle_reconstruct.3d.volume", lambda x: bundle_reconstruct(_with_entry(CUBE, volume=x)), TypeError),
    # The normal (-1, 0) with its zero of the type of x: False or 0.0.
    ("bundle_reconstruct.normal", lambda x: bundle_reconstruct(_with_entry(SQUARE, normal=(-1, type(x)(0)))),
     InconsistentSystemError),
    ("ThreePairFamily.splits_at", FAMILY.splits_at, TypeError),
    ("ThreePairFamily.edge_multiset", FAMILY.edge_multiset, TypeError),
    ("ThreePairFamily.polygon_at", FAMILY.polygon_at, TypeError),
    ("ThreePairFamily.predicted_area", FAMILY.predicted_area, TypeError),
    ("solve_three_pair_parameter", lambda x: solve_three_pair_parameter(FAMILY, x), TypeError),
    ("fixed_point_strata", lambda x: fixed_point_strata(SQUARE, Vec2(x, 0)), ValueError),
    ("donnelly_leading_term", lambda x: donnelly_leading_term(SQUARE, Vec2(x, 0)), ValueError),
    ("euler_characteristic", euler_characteristic, ValueError),
    ("vertex_count", vertex_count, ValueError),
]


@pytest.mark.parametrize("value", [True, 0.5], ids=["bool", "float"])
@pytest.mark.parametrize("call, error", [row[1:] for row in ENTRY_POINTS], ids=[row[0] for row in ENTRY_POINTS])
def test_entry_points_reject_inexact_scalars(call, error, value):
    with pytest.raises(error):
        call(value)


# The rows above that pass a bad SpectralData field to enumerate_candidates,
# with the datum built by dataclasses.replace, then by SpectralData(...),
# and the message either raises, ``{}`` standing for the value's type name.
DATUM_FIELDS = {
    "enumerate_candidates.vertex_count": (
        lambda x: dataclasses.replace(DATA, vertex_count=x),
        lambda x: SpectralData(x, DATA.classes, DATA.area),
        "vertex count must be an int, got {}",
    ),
    "enumerate_candidates.area": (
        lambda x: dataclasses.replace(DATA, area=x),
        lambda x: SpectralData(DATA.vertex_count, DATA.classes, x),
        "area must be an int or a Fraction, got {}",
    ),
    "enumerate_candidates.length_sum": (
        lambda x: _with_class(length_sum=x),
        lambda x: SpectralData(DATA.vertex_count, _classes_with(length_sum=x), DATA.area),
        "length sum of class 0 must be an int or a Fraction, got {}",
    ),
    "enumerate_candidates.edge_count": (
        lambda x: _with_class(edge_count=x),
        lambda x: SpectralData(DATA.vertex_count, _classes_with(edge_count=x), DATA.area),
        "edge count of class 0 must be an int or None, got {}",
    ),
    "enumerate_candidates.normal": (
        lambda x: _with_class(normal=Vec2(x, 0)),
        lambda x: SpectralData(DATA.vertex_count, _classes_with(normal=Vec2(x, 0)), DATA.area),
        "normal of class 0 must be an int vector, got a {} coordinate",
    ),
}


def test_every_datum_row_is_listed():
    assert sorted(DATUM_FIELDS) == sorted(row[0] for row in ENTRY_POINTS if row[0].startswith("enumerate_candidates."))


@pytest.mark.parametrize("value", [True, 0.5], ids=["bool", "float"])
@pytest.mark.parametrize("field", sorted(DATUM_FIELDS))
def test_a_bad_field_raises_where_the_datum_is_built(field, value):
    """The datum of each enumerate_candidates row is rejected when it is
    built, by either constructor, with the message enumerate_candidates
    gave when it checked the fields itself."""
    message = DATUM_FIELDS[field][2].format(type(value).__name__)
    for build in DATUM_FIELDS[field][:2]:
        with pytest.raises(ValueError) as info:
            build(value)
        assert str(info.value) == message


# (entry point and flag, call with the value x): each flag takes True or
# False only, and anything else raises ValueError naming it.
FLAGS = [
    ("random_delzant", "twist", lambda x: random_delzant(5, 0, twist=x)),
    ("bundle_facet_data", "require_integral", lambda x: bundle_facet_data(SQUARE, require_integral=x)),
    ("enumerate_candidates", "trust_counts", lambda x: enumerate_candidates(DATA, trust_counts=x)),
]


@pytest.mark.parametrize("value", [0.5, 1, "yes", None], ids=["float", "int", "str", "none"])
@pytest.mark.parametrize("flag, call", [row[1:] for row in FLAGS], ids=[".".join(row[:2]) for row in FLAGS])
def test_flags_reject_non_bools(flag, call, value):
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{flag} must be True or False, got {type(value).__name__}"
