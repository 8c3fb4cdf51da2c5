"""Closed-loop benchmark of the delzant toolkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src/``.
One client issues one item at a time, the next only after the previous one
returns.  The seed builds a pool of items with a fixed mix (see
``workloads.py``); the timed window runs whole passes over the pool until
``--seconds`` have passed.  Every output is checked afterwards, outside the
timed window.  Times are in reference seconds (see ``calibrate.py``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
untraced window, then one traced pass over the pool, and prints the
per-layer metrics; the spans go to ``perfbench/out/``.  The last line of
standard output is one JSON object; the exit code is 0 only when every
output was correct.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import calibrate

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
WORKLOAD_NAMES = ("hear_reconstruct", "generic_sample", "census_bundle")
# Set-up is timed this many times, each in a fresh interpreter but the first.
SETUP_SAMPLES = 3
SETUP_TIMEOUT_S = 150


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-sample", action="store_true",
        help="internal: time one set-up, print its reference seconds and exit",
    )
    return parser.parse_args(argv)


def setup(workload: str, seed: int):
    """Import delzant and build the inputs.

    Returns (workloads module, items, set-up in reference seconds).
    """
    with calibrate.SpeedSampler() as speed:
        mark = speed.mark()
        import workloads

        items = workloads.WORKLOADS[workload].inputs(seed)
        interval = speed.interval(mark)
    import delzant

    if SRC.resolve() not in Path(delzant.__file__).resolve().parents:
        raise ImportError(f"delzant was imported from {delzant.__file__}, not from {SRC}")
    return workloads, items, speed.reference(interval)


def setup_samples(workload: str, seed: int, first: float) -> list[float]:
    samples = [first]
    for _ in range(SETUP_SAMPLES - 1):
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--setup-sample"],
            capture_output=True, text=True, timeout=SETUP_TIMEOUT_S, check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return samples


class Unexpected(NamedTuple):
    """An exception the workload does not expect: always a wrong answer."""

    error: str
    message: str


def _call(run, item, span=None):
    try:
        return run(item) if span is None else run(item, span)
    except Exception as exc:
        return Unexpected(type(exc).__name__, str(exc))


def timed_window(run, items, seconds: float) -> dict:
    """Whole passes over ``items`` until ``seconds`` have passed.

    Keeps the first pass's outputs and counts later outputs that differ.
    """
    intervals = []
    first: list = []
    differs = [0] * len(items)
    passes = 0
    with calibrate.SpeedSampler() as speed:
        start = time.perf_counter()
        while True:
            for i, item in enumerate(items):
                mark = speed.mark()
                out = _call(run, item)
                intervals.append(speed.interval(mark))
                if passes == 0:
                    first.append(out)
                elif out != first[i]:
                    differs[i] += 1
            passes += 1
            if time.perf_counter() - start >= seconds:
                break
        elapsed = time.perf_counter() - start
    return {
        "elapsed": elapsed,
        "passes": passes,
        "wall": [busy for _, _, busy in intervals],
        "latencies": [speed.reference(interval) for interval in intervals],
        "kernel_median_s": statistics.median(speed.kernels),
        "outputs": first,
        "differs": differs,
    }


def oracle(check, items, outputs) -> list[bool]:
    """The oracle's verdict on each item's output."""
    verdicts = []
    for item, out in zip(items, outputs):
        try:
            verdicts.append(not isinstance(out, Unexpected) and bool(check(item, out)))
        except Exception:
            verdicts.append(False)
    return verdicts


def failures(verdicts, differs, passes: int) -> int:
    """Wrong answers among ``passes`` runs of every item.

    An item with a wrong first answer fails every time; otherwise each
    later answer that differs from the first fails.
    """
    return sum(later if ok else passes for ok, later in zip(verdicts, differs))


def traced_pass(tracing, run, items):
    """One pass with every traced boundary wrapped.

    Returns the tracer, the outputs, and per item its reference seconds and
    the factor that rescales its spans.
    """
    tracer = tracing.Tracer()
    outputs = []
    intervals = []
    with calibrate.SpeedSampler() as speed:
        tracer.install()
        try:
            for i, item in enumerate(items):
                tracer.item_id = i
                mark = speed.mark()
                with tracer.span("item"):
                    outputs.append(_call(run, item, tracer.span))
                intervals.append(speed.interval(mark))
        finally:
            tracer.uninstall()
    seconds = [speed.reference(interval) for interval in intervals]
    factors = [speed.factor(start, end) for start, end, _ in intervals]
    return tracer, outputs, seconds, factors


def per_layer_metrics(tracing, tracer, factors, written: int, overhead: float, probes: dict) -> dict:
    """Counts, ratios, and each layer's time as a share of the traced item
    time ``trace.item_s``; a layer a workload never calls has share 0."""
    stats = tracer.summary(factors)
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "errors": {}}

    def get(name):
        return stats.get(name, empty)

    item_s = get("item")["busy_s"]
    metrics = {}

    def put(name, value, unit):
        metrics[name] = {"value": value, "unit": unit}

    def share(seconds):
        return seconds / item_s if item_s else 0.0

    for name in ("reconstruct.enumerate_candidates", "reconstruct.is_generic", "zoo.perturb_generic"):
        put(f"{name}.calls", get(name)["calls"], "count")
        put(f"{name}.busy_frac", share(get(name)["busy_s"]), "frac")
        put(f"{name}.self_frac", share(get(name)["self_s"]), "frac")
    branches = {o: tracer.counters["branches." + o] for o in tracing.BRANCH_OUTCOMES}
    for outcome, count in branches.items():
        put(f"reconstruct.branches.{outcome}", count, "count")
    total_branches = sum(branches.values())
    put("reconstruct.emit_ratio", branches["emitted"] / total_branches if total_branches else 0.0, "ratio")
    put("reconstruct.build_most_obtuse.calls", get("reconstruct.build_most_obtuse")["calls"], "count")

    perturb = get("zoo.perturb_generic")
    put("zoo.perturb_generic.budget_exhausted", perturb["errors"].get("BudgetExceededError", 0), "count")
    # perturb_generic returns only generic polygons; every other call raised.
    useful = perturb["calls"] - sum(perturb["errors"].values())
    put("zoo.perturb_generic.useful_ratio", useful / perturb["calls"] if perturb["calls"] else 0.0, "ratio")
    nested = tracer.nested_calls("reconstruct.is_generic", "zoo.perturb_generic")
    put("zoo.is_generic_per_perturb", nested / perturb["calls"] if perturb["calls"] else 0.0, "ratio")

    for name, calls in (
        ("geometry.Polygon", True),
        ("geometry.validate_delzant", True),
        ("geometry.polygon_from_halfplanes", True),
        ("geometry.detect_subpolygons", True),
        ("spectral.spectral_data", True),
        ("spectral.bundle_facet_data", False),
        ("zoo.parallel_pair_census", True),
        ("polytope3.Polytope3", True),
        ("reconstruct.bundle_reconstruct", True),
        ("serialize.encode", False),
        ("serialize.decode", False),
    ):
        if calls:
            put(f"{name}.calls", get(name)["calls"], "count")
        put(f"{name}.busy_frac", share(get(name)["busy_s"]), "frac")
    put("zoo.parallel_pair_census.instances", tracer.counters["census.instances"], "count")
    put("serialize.bytes", written, "bytes")

    layer_self = dict.fromkeys(tracing.LAYERS, 0.0)
    for name, entry in stats.items():
        layer = name.split(".")[0]
        if layer in layer_self:
            layer_self[layer] += entry["self_s"]
    for layer, seconds in layer_self.items():
        put(f"{layer}.self_frac", share(seconds), "frac")
    put("trace.items", get("item")["calls"], "count")
    put("trace.item_s", item_s, "s")
    put("trace.accounted_frac", share(sum(layer_self.values())), "frac")
    put("trace.overhead_frac", overhead, "ratio")
    for name, ms in probes.items():
        put(name, ms, "ms")
    return metrics


def end_to_end_metrics(window: dict, failed: int, setup_s: float) -> dict:
    ms = [t * 1e3 for t in window["latencies"]]
    attempted = len(ms)
    return {
        "throughput_items_per_s": {"value": attempted / sum(window["latencies"]), "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(ms), "unit": "ms"},
        "latency_p90_ms": {"value": statistics.quantiles(ms, n=10, method="inclusive")[8], "unit": "ms"},
        "correct_frac": {"value": 1.0 - failed / attempted, "unit": "frac"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "delzant" / "__init__.py").is_file():
        print(f"error: no delzant sources under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workloads, items, first_setup = setup(args.workload, args.seed)
    if args.setup_sample:
        print(f"{first_setup!r}")
        return 0
    workload = workloads.WORKLOADS[args.workload]

    window = timed_window(workload.run, items, args.seconds)
    attempted = len(window["latencies"])
    verdicts = oracle(workload.check, items, window["outputs"])
    failed = failures(verdicts, window["differs"], window["passes"])
    wall_ms = sorted(t * 1e3 for t in window["wall"])
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "pool": len(items),
        "passes": window["passes"],
        "samples": attempted,
        "window_s": round(window["elapsed"], 3),
        "kernel_median_s": window["kernel_median_s"],
        "wall_throughput_items_per_s": attempted / sum(window["wall"]),
        "wall_latency_p50_ms": statistics.median(wall_ms),
    }

    if args.trace:
        import probes
        import tracing

        tracer, traced_outputs, traced_seconds, factors = traced_pass(tracing, workload.run, items)
        differs = [int(a != b) for a, b in zip(traced_outputs, window["outputs"])]
        failed += failures(verdicts, differs, 1)
        attempted += len(items)
        untraced_pass_s = sum(window["latencies"]) / window["passes"]
        traced_pass_s = sum(traced_seconds)
        OUT.mkdir(exist_ok=True)
        spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz"
        tracer.write(spans_path)
        written = sum(workload.written(out) for out in traced_outputs if not isinstance(out, Unexpected))
        metrics = per_layer_metrics(
            tracing, tracer, factors, written, traced_pass_s / untraced_pass_s - 1.0, probes.run_probes()
        )
        report.update(spans=str(spans_path.relative_to(HERE.parent)), spans_recorded=len(tracer.spans))
        report["probes_vs_roadmap_ms"] = {
            name: [round(metrics[name]["value"], 4), ms] for name, ms in probes.ROADMAP_MS.items()
        }
    else:
        samples = setup_samples(args.workload, args.seed, first_setup)
        report["setup_samples_s"] = [round(s, 4) for s in samples]
        metrics = end_to_end_metrics(window, failed, statistics.median(samples))

    report["failed"] = failed
    print(json.dumps(report), file=sys.stderr)
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
