"""Command-line surface: every pipeline stage as a subcommand with JSON I/O.

Exit codes: 0 success, 2 validation failure, 3 infeasible reconstruction,
4 unsupported request, 5 parse error.  Inputs default to stdin (''--in'')
and outputs to stdout (''--out''); ''--json'' switches to compact output.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import dataclass, field

from . import geometry, reconstruct, render, serialize, spectral, zoo
from .errors import (
    BudgetExceededError,
    ChopError,
    DelzantError,
    ParseError,
    PoleError,
    ReconstructionInfeasibleError,
    StructuralPolygonError,
    UnsupportedError,
)
from .vectors import Vec2, format_rational, parse_rational

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_UNSUPPORTED = 4
EXIT_PARSE = 5

_ERROR_CODES = (
    (ParseError, EXIT_PARSE),
    (BudgetExceededError, EXIT_UNSUPPORTED),
    (UnsupportedError, EXIT_UNSUPPORTED),
    (ReconstructionInfeasibleError, EXIT_INFEASIBLE),
    (ChopError, EXIT_VALIDATION),
    (PoleError, EXIT_VALIDATION),
    (StructuralPolygonError, EXIT_VALIDATION),
    (DelzantError, EXIT_VALIDATION),
    (ValueError, EXIT_VALIDATION),
)


@dataclass
class CommandResult:
    exit_code: int
    payload: "dict | None" = None
    raw: "bytes | None" = None
    diagnostics: list = field(default_factory=list)


def _read_input(args) -> str:
    if getattr(args, "infile", None):
        with open(args.infile, "r", encoding="utf-8") as handle:
            return handle.read()
    return sys.stdin.read()


def _read_polygon(args):
    return serialize.parse_polygon(_read_input(args))


def _parse_theta(text: str) -> Vec2:
    parts = text.split(",")
    if len(parts) != 2:
        raise ParseError(f"expected a direction like '1,0', got {text!r}")
    try:
        return Vec2(int(parts[0]), int(parts[1]))
    except ValueError as exc:
        raise ParseError(f"direction coordinates must be integers: {text!r}") from exc


def _bound(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _cmd_validate(args) -> CommandResult:
    polygon = _read_polygon(args)
    report = geometry.validate_delzant(polygon)
    payload = {
        "valid": report.valid,
        "failures": [
            {"vertexIndex": f.vertex_index, "determinant": f.determinant} for f in report.failures
        ],
    }
    if report.valid:
        return CommandResult(EXIT_OK, payload)
    diags = [f"vertex {f.vertex_index} has determinant {f.determinant}" for f in report.failures]
    return CommandResult(EXIT_VALIDATION, payload, diagnostics=diags)


def _cmd_info(args) -> CommandResult:
    polygon = _read_polygon(args)
    data = spectral.spectral_data(polygon)
    payload = {
        "d": polygon.edge_count,
        "area": format_rational(polygon.area),
        "delzant": geometry.validate_delzant(polygon).valid,
        "edges": [
            {
                "direction": [int(e.direction.x), int(e.direction.y)],
                "normal": [int(e.normal.x), int(e.normal.y)],
                "latticeLength": format_rational(e.lattice_length),
            }
            for e in polygon.edges
        ],
        "spectral": serialize.spectral_to_json(data),
    }
    return CommandResult(EXIT_OK, payload)


def _cmd_generate_hirzebruch(args) -> CommandResult:
    polygon = zoo.hirzebruch(args.m, parse_rational(args.w), parse_rational(args.h))
    payload = serialize.polygon_to_json(polygon)
    payload["params"] = {"m": args.m, "w": args.w, "h": args.h}
    return CommandResult(EXIT_OK, payload)


def _cmd_chop(args) -> CommandResult:
    polygon = _read_polygon(args)
    chopped = zoo.chop(polygon, zoo.ChopSpec(args.vertex, parse_rational(args.depth)))
    return CommandResult(EXIT_OK, serialize.polygon_to_json(chopped))


def _cmd_random(args) -> CommandResult:
    polygon = zoo.random_delzant(args.edges, args.seed, args.bound, twist=args.twist)
    payload = serialize.polygon_to_json(polygon)
    payload["seed"] = args.seed
    payload["bound"] = args.bound
    payload["edges"] = args.edges
    return CommandResult(EXIT_OK, payload)


def _cmd_spectral(args) -> CommandResult:
    polygon = _read_polygon(args)
    return CommandResult(EXIT_OK, serialize.spectral_to_json(spectral.spectral_data(polygon)))


def _cmd_strata(args) -> CommandResult:
    polygon = _read_polygon(args)
    theta = _parse_theta(args.theta)
    strata = spectral.fixed_point_strata(polygon, theta)
    payload = {
        "theta": [int(theta.x), int(theta.y)],
        "strata": [{"kind": s.kind, "index": s.index, "codimension": s.codimension} for s in strata],
    }
    return CommandResult(EXIT_OK, payload)


def _cmd_heat(args) -> CommandResult:
    polygon = _read_polygon(args)
    theta = _parse_theta(args.theta)
    terms = spectral.donnelly_leading_term(polygon, theta)
    diags = []
    rows = []
    for term in terms:
        row = {
            "stratum": {"kind": term.stratum.kind, "index": term.stratum.index},
            "codimension": term.codimension,
            "tExponent": term.t_exponent,
            "twoPiExponent": term.two_pi_exponent,
            "latticeVolume": format_rational(term.lattice_volume),
            "direction": None if term.direction is None else [int(term.direction.x), int(term.direction.y)],
            "weights": list(term.weights),
        }
        if args.eval_at is not None:
            try:
                row["value"] = spectral.evaluate_leading_coefficient(term, args.eval_at)
            except PoleError as exc:
                row["value"] = None
                diags.append(f"{term.stratum.kind} {term.stratum.index}: {exc}")
        rows.append(row)
    payload = {"theta": [int(theta.x), int(theta.y)], "terms": rows}
    if args.eval_at is not None:
        payload["evaluatedAt"] = args.eval_at
    return CommandResult(EXIT_OK, payload, diagnostics=diags)


def _cmd_reconstruct(args) -> CommandResult:
    data = serialize.parse_spectral(_read_input(args))
    candidates = reconstruct.enumerate_candidates(
        data, max_parallel_pairs=args.max_pairs, trust_counts=args.with_counts
    )
    return CommandResult(EXIT_OK, serialize.candidates_to_json(candidates))


def _cmd_roundtrip(args) -> CommandResult:
    results = []
    failures = 0
    for i in range(args.trials):
        seed = args.seed + i
        polygon = zoo.random_delzant(args.edges, seed, args.bound, twist=args.twist)
        data = spectral.spectral_data(polygon)
        row = {"seed": seed, "pairs": data.parallel_pairs}
        if data.parallel_pairs > 3:
            row["outcome"] = "skipped_too_many_pairs"
            results.append(row)
            continue
        probe = polygon
        # A budget hit fails this trial only: in the genericity test itself
        # (too many edges for the subpolygon search) or while perturbing.
        outcome = "genericity_budget"
        try:
            if not reconstruct.is_generic(probe):
                outcome = "perturbation_failed"
                probe = zoo.perturb_generic(probe)
                row["perturbed"] = True
        except BudgetExceededError:
            row["outcome"] = outcome
            failures += 1
            results.append(row)
            continue
        candidates = reconstruct.enumerate_candidates(spectral.spectral_data(probe))
        contained = probe in candidates
        row["candidates"] = len(candidates)
        row["outcome"] = "contained" if contained else "missing"
        if not contained:
            failures += 1
        results.append(row)
    payload = {
        "edges": args.edges,
        "seed": args.seed,
        "bound": args.bound,
        "trials": args.trials,
        "results": results,
        "failures": failures,
    }
    if failures:
        return CommandResult(EXIT_INFEASIBLE, payload, diagnostics=[f"{failures} trials failed"])
    return CommandResult(EXIT_OK, payload)


def _cmd_equiv(args) -> CommandResult:
    polygon = _read_polygon(args)
    with open(args.other, "r", encoding="utf-8") as handle:
        other = serialize.parse_polygon(handle.read())
    match = geometry.sl2z_equivalent(polygon, other)
    if match is None:
        return CommandResult(EXIT_OK, {"equivalent": False, "matrix": None, "translation": None})
    matrix, translation = match
    payload = {
        "equivalent": True,
        "matrix": [list(matrix[0]), list(matrix[1])],
        "translation": [format_rational(translation.x), format_rational(translation.y)],
    }
    return CommandResult(EXIT_OK, payload)


def _cmd_bundle_data(args) -> CommandResult:
    polytope = serialize.parse_polytope(_read_input(args))
    system = spectral.bundle_facet_data(polytope, require_integral=args.require_integral)
    return CommandResult(EXIT_OK, serialize.halfspace_to_json(system))


def _cmd_bundle_reconstruct(args) -> CommandResult:
    system = serialize.parse_halfspaces(_read_input(args))
    polytope = reconstruct.bundle_reconstruct(system)
    return CommandResult(EXIT_OK, serialize.polytope_to_json(polytope))


def _cmd_census(args) -> CommandResult:
    census = zoo.parallel_pair_census(args.edges, args.bound, max_instances=args.max_instances)
    payload = serialize.census_to_json(census)
    payload["bound"] = args.bound
    return CommandResult(EXIT_OK, payload)


def _cmd_render(args) -> CommandResult:
    polygon = _read_polygon(args)
    overlay = None
    if args.overlay:
        with open(args.overlay, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        overlay = serialize.candidates_from_json(doc).candidates
    return CommandResult(EXIT_OK, raw=render.render_svg(polygon, overlay))


def _add_io_arguments(parser, reads_stdin: bool = True):
    if reads_stdin:
        parser.add_argument("--in", dest="infile", metavar="FILE", help="input file (default: stdin)")
    parser.add_argument("--out", dest="outfile", metavar="FILE", help="output file (default: stdout)")
    parser.add_argument("--json", action="store_true", help="compact machine-readable output")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="delzant",
        description="Exact toolkit for Delzant polygons, their hearable data, and reconstruction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the Delzant vertex condition")
    _add_io_arguments(p)
    p.set_defaults(handler=_cmd_validate)

    p = sub.add_parser("info", help="area, edge data, and spectral data of a polygon")
    _add_io_arguments(p)
    p.set_defaults(handler=_cmd_info)

    p = sub.add_parser("generate", help="generate a named polygon family member")
    gen_sub = p.add_subparsers(dest="family", required=True)
    ph = gen_sub.add_parser("hirzebruch", help="trapezoid (0,0),(w,0),(w,h),(0,h+m*w)")
    ph.add_argument("--m", type=int, required=True)
    ph.add_argument("--w", required=True)
    ph.add_argument("--h", required=True)
    _add_io_arguments(ph, reads_stdin=False)
    ph.set_defaults(handler=_cmd_generate_hirzebruch)

    p = sub.add_parser("chop", help="cut a corner at a lattice depth")
    p.add_argument("--vertex", type=int, required=True)
    p.add_argument("--depth", required=True, help="lattice depth as p/q")
    _add_io_arguments(p)
    p.set_defaults(handler=_cmd_chop)

    p = sub.add_parser("random", help="seeded random Delzant polygon")
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--bound", type=_bound, default=5)
    p.add_argument("--twist", action="store_true", help="apply a random unimodular map")
    _add_io_arguments(p, reads_stdin=False)
    p.set_defaults(handler=_cmd_random)

    p = sub.add_parser("spectral", help="the hearable data of a polygon")
    _add_io_arguments(p)
    p.set_defaults(handler=_cmd_spectral)

    p = sub.add_parser("strata", help="fixed-point strata of a torus direction")
    p.add_argument("--theta", required=True, help="integer direction, e.g. '1,0'")
    _add_io_arguments(p)
    p.set_defaults(handler=_cmd_strata)

    p = sub.add_parser("heat", help="leading heat-trace terms for a direction")
    p.add_argument("--theta", required=True, help="integer direction, e.g. '1,0'")
    p.add_argument("--eval", dest="eval_at", type=float, help="evaluate coefficients at this parameter")
    _add_io_arguments(p)
    p.set_defaults(handler=_cmd_heat)

    p = sub.add_parser("reconstruct", help="candidate polygons from spectral data")
    p.add_argument("--with-counts", action="store_true", help="trust per-class edge counts in the data")
    p.add_argument("--max-pairs", type=int, default=3)
    _add_io_arguments(p)
    p.set_defaults(handler=_cmd_reconstruct)

    p = sub.add_parser("roundtrip", help="generate, hear, reconstruct, and check containment")
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--bound", type=_bound, default=4)
    p.add_argument("--twist", action="store_true")
    _add_io_arguments(p, reads_stdin=False)
    p.set_defaults(handler=_cmd_roundtrip)

    p = sub.add_parser("equiv", help="search for an SL(2,Z) map plus translation between two polygons")
    p.add_argument("--other", required=True, metavar="FILE")
    _add_io_arguments(p)
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("bundle-data", help="per-facet half-space data (2D or 3D)")
    p.add_argument("--require-integral", action="store_true")
    _add_io_arguments(p)
    p.set_defaults(handler=_cmd_bundle_data)

    p = sub.add_parser("bundle-reconstruct", help="rebuild the polytope from half-space data")
    _add_io_arguments(p)
    p.set_defaults(handler=_cmd_bundle_reconstruct)

    p = sub.add_parser("census", help="parallel-pair census over bounded parameters")
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--bound", type=_bound, required=True)
    p.add_argument("--max-instances", type=int, default=5_000_000)
    _add_io_arguments(p, reads_stdin=False)
    p.set_defaults(handler=_cmd_census)

    p = sub.add_parser("render", help="SVG picture of a polygon, optionally with candidates")
    p.add_argument("--overlay", metavar="FILE", help="CandidateSet JSON to overlay")
    _add_io_arguments(p)
    p.set_defaults(handler=_cmd_render)

    return parser


def _emit(result: CommandResult, args) -> None:
    if result.raw is not None:
        if getattr(args, "outfile", None):
            with open(args.outfile, "wb") as handle:
                handle.write(result.raw)
        else:
            sys.stdout.write(result.raw.decode("utf-8"))
            sys.stdout.write("\n")
        return
    if result.payload is None:
        return
    text = json.dumps(result.payload) if args.json else json.dumps(result.payload, indent=2)
    if getattr(args, "outfile", None):
        with open(args.outfile, "w", encoding="utf-8") as handle:
            handle.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            result = args.handler(args)
        diagnostics = [str(w.message) for w in caught]
    except Exception as exc:  # noqa: BLE001 - mapped to exit codes below
        for cls, code in _ERROR_CODES:
            if isinstance(exc, cls):
                print(f"error: {exc}", file=sys.stderr)
                return code
        raise
    diagnostics.extend(result.diagnostics)
    for line in diagnostics:
        print(line, file=sys.stderr)
    _emit(result, args)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
