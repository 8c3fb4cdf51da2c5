"""No float enters a geometric predicate.

Every module of the package is read as source.  A float shows up as the
name ``float``, a float literal, or a ``math`` function other than the
exact integer ones.  Only the numeric heat-trace evaluation (with
``Vec2.norm_float`` and ``heat --eval``, which feed it), the SVG renderer
and the sampler's coin flip may use one.
"""

import ast
from pathlib import Path

import delzant

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
