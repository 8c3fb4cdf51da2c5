"""Mutation sweep of the conditionals in ``src/delzant``.

Each mutant changes one condition of one module, and the test suite is run
against it; a mutant that passes every test in ``tests/`` survives, which means
no test decides that condition.  Three operators:

``guard``
    every ``if`` whose body starts with ``raise`` or ``continue``: its test
    replaced by ``False``; when the test is an ``or``, also one mutant per
    clause with that clause removed (one clause left stands alone).
``branch``
    every other ``if`` (not the ``__main__`` guard) and every conditional
    expression: the test replaced by ``True``, then by ``False``; every clause
    of an ``and``: replaced by ``True``; every comprehension filter: removed.
``boundary``
    every ``<``, ``<=``, ``>``, ``>=``: flipped to its strict or non-strict
    partner, one op of a chain at a time; every clause of an ``or`` that is
    not the test of a guard (those are ``guard``'s): replaced by ``False``.

The sweep runs on copies extracted with ``git archive``, one per worker, in
which every module has been through ``ast.unparse`` (a mutant is written the
same way, so only the mutation differs).  The unmutated copy is tested first
and must pass.  A mutant runs ``pytest -x`` on its module's own test files,
then, if they pass, on all of ``tests/``, with ``PYTHONDONTWRITEBYTECODE=1``
(a stale ``.pyc`` could hide it) and a fixed hypothesis seed; a run that
takes longer than ``TIMEOUT_S`` counts as killed.  Stdlib only, apart from
pytest in the copy's tests::

    python3 tools/mutation_sweep.py --operator branch --scratch /tmp/sweep
    python3 tools/mutation_sweep.py --operator guard --commit HEAD~1 --scratch /tmp/sweep

``WORKERS`` copies run mutants side by side.  Survivors are printed as
``module.py:line  description`` and written, with every result, the
operator and the commit's full hash, to ``<scratch>/results.json``.
"""

from __future__ import annotations

import argparse
import ast
import io
import json
import os
import resource
import shutil
import subprocess
import sys
import tarfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
PACKAGE = Path("src/delzant")

# The test files that exercise a module most directly; they run first, so
# that ``pytest -x`` stops a killed mutant early.
OWNING_TESTS = {
    "geometry": ["tests/test_geometry.py"],
    "polytope3": ["tests/test_polytope3.py"],
    "reconstruct": ["tests/test_reconstruct.py", "tests/test_candidate_set.py"],
    "spectral": ["tests/test_spectral.py"],
    "serialize": ["tests/test_serialize.py", "tests/test_cli_fuzz.py"],
    "zoo": ["tests/test_zoo.py"],
    "cli": ["tests/test_cli.py", "tests/test_cli_fuzz.py"],
    "render": ["tests/test_render.py"],
    "vectors": ["tests/test_exactness.py"],
}

TIMEOUT_S = 900
MEMORY_BYTES = 2 << 30
WORKERS = 2


def _is_main_guard(test: ast.expr) -> bool:
    return (
        isinstance(test, ast.Compare)
        and isinstance(test.left, ast.Name)
        and test.left.id == "__name__"
    )


# Each ordering comparison and its strict or non-strict partner.
PARTNER = {ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt}
SYMBOL = {ast.Lt: "<", ast.LtE: "<=", ast.Gt: ">", ast.GtE: ">="}


def _is_guard(node: ast.If) -> bool:
    return isinstance(node.body[0], (ast.Raise, ast.Continue))


def _sites(tree: ast.AST, operator: str):
    """Yield ``(lineno, description, apply)`` for each mutant of ``tree``.

    ``apply()`` mutates ``tree`` in place.  The walk order is fixed, so the
    k-th site of a fresh parse of the same source is the same mutant.
    """
    if operator == "boundary":
        yield from _boundary_sites(tree)
        return
    for node in ast.walk(tree):
        if isinstance(node, ast.If):
            guard = _is_guard(node)
            if operator == "guard" and guard:
                yield node.lineno, "if False", _set(node, "test", False)
                if isinstance(node.test, ast.BoolOp) and isinstance(node.test.op, ast.Or):
                    for i, clause in enumerate(node.test.values):
                        text = ast.unparse(clause)
                        yield clause.lineno, f"without or-clause `{text}`", _drop_clause(node, i)
            elif operator == "branch" and not guard and not _is_main_guard(node.test):
                yield node.lineno, "if True", _set(node, "test", True)
                yield node.lineno, "if False", _set(node, "test", False)
        elif operator != "branch":
            continue
        elif isinstance(node, ast.IfExp):
            text = ast.unparse(node.test)
            yield node.lineno, f"`{text}` -> True in x if . else y", _set(node, "test", True)
            yield node.lineno, f"`{text}` -> False in x if . else y", _set(node, "test", False)
        elif isinstance(node, ast.BoolOp) and isinstance(node.op, ast.And):
            for i, clause in enumerate(node.values):
                text = ast.unparse(clause)
                yield clause.lineno, f"and-clause `{text}` -> True", _set_item(node.values, i, True)
        elif isinstance(node, ast.comprehension):
            for i, cond in enumerate(node.ifs):
                text = ast.unparse(cond)
                yield cond.lineno, f"without filter `if {text}`", _drop_item(node.ifs, i)


def _boundary_sites(tree: ast.AST):
    guard_tests = {id(node.test) for node in ast.walk(tree) if isinstance(node, ast.If) and _is_guard(node)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for i, op in enumerate(node.ops):
                if type(op) in PARTNER:
                    left = node.left if i == 0 else node.comparators[i - 1]
                    text = f"{ast.unparse(left)} {SYMBOL[type(op)]} {ast.unparse(node.comparators[i])}"
                    flipped = PARTNER[type(op)]
                    yield node.lineno, f"`{text}` -> `{SYMBOL[flipped]}`", _set_item(node.ops, i, flipped())
        elif isinstance(node, ast.BoolOp) and isinstance(node.op, ast.Or) and id(node) not in guard_tests:
            for i, clause in enumerate(node.values):
                text = ast.unparse(clause)
                yield clause.lineno, f"or-clause `{text}` -> False", _set_item(node.values, i, False)


def _set(node, field, value):
    return lambda: setattr(node, field, ast.Constant(value))


def _set_item(values, i, value):
    """Replace ``values[i]`` by ``value``: a constant or an ast node."""
    def apply():
        values[i] = value if isinstance(value, ast.AST) else ast.Constant(value)
    return apply


def _drop_item(values, i):
    return lambda: values.pop(i)


def _drop_clause(node, i):
    def apply():
        rest = node.test.values[:i] + node.test.values[i + 1:]
        node.test = rest[0] if len(rest) == 1 else ast.BoolOp(op=ast.Or(), values=rest)
    return apply


def mutants(originals: dict, operator: str):
    """All mutants of ``{module: source}`` as ``(module, index, lineno, text)``."""
    out = []
    for module in sorted(originals):
        tree = ast.parse(originals[module])
        for k, (lineno, text, _) in enumerate(_sites(tree, operator)):
            out.append((module, k, lineno, text))
    return out


def mutated_source(original: str, operator: str, index: int) -> str:
    tree = ast.parse(original)
    for k, (_, _, apply) in enumerate(_sites(tree, operator)):
        if k == index:
            apply()
            return ast.unparse(ast.fix_missing_locations(tree)) + "\n"
    raise IndexError(index)


def extract(commit: str, target: Path) -> None:
    """Write ``commit``'s tree to ``target`` with every module unparsed."""
    if target.exists():
        shutil.rmtree(target)
    target.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(REPO), "archive", commit], check=True, capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        # The archive is the repository's own; extraction filters exist
        # from Python 3.10.12 and 3.11.4 on.
        if hasattr(tarfile, "data_filter"):
            tar.extractall(target, filter="data")
        else:
            tar.extractall(target)
    for path in (target / PACKAGE).glob("*.py"):
        path.write_text(ast.unparse(ast.parse(path.read_text())) + "\n")


def _git(*args) -> str:
    return subprocess.run(["git", "-C", str(REPO), *args], check=True, capture_output=True, text=True).stdout


def run_tests(copy: Path, first) -> tuple[bool, str]:
    """Run ``tests/`` in ``copy`` with ``pytest -x``: the ``first`` test
    files alone, then, if they pass, the whole directory.  Collecting every
    test file costs more than most killed mutants take to fail."""
    for paths in ([*first], ["tests"]) if first else (["tests"],):
        survived, summary = _pytest(copy, paths)
        if not survived:
            break
    return survived, summary


def _pytest(copy: Path, paths) -> tuple[bool, str]:
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", "--hypothesis-seed=0", *paths]
    try:
        done = subprocess.run(
            cmd, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return False, "timeout"
    lines = done.stdout.strip().splitlines()
    if not lines:
        return False, done.stderr[-200:]
    # The first failing test, from pytest's short summary, and the counts.
    failed = [line.split(" - ")[0] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    return done.returncode == 0, " ".join(failed[:1] + lines[-1:])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--operator", choices=("guard", "branch", "boundary"), required=True)
    parser.add_argument("--commit", default="HEAD")
    parser.add_argument("--scratch", type=Path, required=True,
                        help="directory for the copies and results.json")
    args = parser.parse_args(argv)
    commit = _git("rev-parse", "--verify", f"{args.commit}^{{commit}}").strip()

    # Mutants are made from the commit's own source, not the work tree.
    names = _git("ls-tree", "--name-only", f"{commit}:{PACKAGE}").split()
    originals = {
        name[:-3]: _git("show", f"{commit}:{PACKAGE}/{name}")
        for name in names if name.endswith(".py")
    }
    todo = mutants(originals, args.operator)
    counts = {}
    for module, *_ in todo:
        counts[module] = counts.get(module, 0) + 1
    print(f"{len(todo)} mutants: " + ", ".join(f"{m} {n}" for m, n in sorted(counts.items())))
    # Set here, before any thread starts, so that every pytest child
    # inherits it: a preexec_fn is not safe in a threaded parent.
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))
    copies = [args.scratch / f"copy{w}" for w in range(WORKERS)]
    for copy in copies:
        extract(commit, copy)
    ok, summary = run_tests(copies[0], [])
    print(f"unmutated copy: {summary}", flush=True)
    if not ok:
        return 1

    free = list(copies)

    def one(mutant):
        module, k, lineno, text = mutant
        copy = free.pop()
        target = copy / PACKAGE / f"{module}.py"
        kept = target.read_text()
        try:
            target.write_text(mutated_source(originals[module], args.operator, k))
            survived, summary = run_tests(copy, OWNING_TESTS.get(module, []))
        finally:
            target.write_text(kept)
            free.append(copy)
        mark = "SURVIVED" if survived else "killed"
        print(f"{mark:8} {module}.py:{lineno}  {text}  [{summary}]", flush=True)
        return {"module": module, "index": k, "line": lineno, "mutant": text,
                "survived": survived, "summary": summary}

    with ThreadPoolExecutor(WORKERS) as pool:
        results = list(pool.map(one, todo))
    record = {"operator": args.operator, "commit": commit, "results": results}
    (args.scratch / "results.json").write_text(json.dumps(record, indent=1) + "\n")
    survivors = [r for r in results if r["survived"]]
    print(f"\n{len(survivors)} of {len(results)} mutants survived:")
    for r in survivors:
        print(f"{r['module']}.py:{r['line']}  {r['mutant']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
