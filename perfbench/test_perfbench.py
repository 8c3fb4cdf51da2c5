"""Tests of the benchmark itself: deterministic counters, oracle, tracer.

    python3 -m pytest perfbench -q

They use small pools so that they finish in well under a minute.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import delzant  # noqa: E402
import probes  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

SMALL_POOLS = {
    "hear_reconstruct": lambda seed: workloads.hear_inputs(
        seed, {(3, 0): 4, (5, 2): 4, (6, 3): 4, (8, 1): 4}
    ),
    "generic_sample": lambda seed: workloads.sample_inputs(
        seed, {(5, 1, "any"): 3, (6, 2, "generic"): 3, (6, 2, "stubborn"): 1}
    ),
    "census_bundle": lambda seed: workloads.census_inputs(
        seed, grid=((6, 3), (8, 3)), polygons_per_d={4: 2, 7: 2}, solids={"box": 1, "chopped_box": 1, "prism": 1}
    ),
}


def _counters(name: str, seed: int) -> dict:
    """Every deterministic per-layer count from one traced pass."""
    items = SMALL_POOLS[name](seed)
    workload = workloads.WORKLOADS[name]
    tracer, outputs, seconds, factors = run.traced_pass(tracing, workload.run, items)
    assert all(run.oracle(workload.check, items, outputs))
    written = sum(workload.written(out) for out in outputs)
    metrics = run.per_layer_metrics(tracing, tracer, factors, written, 0.0, {})
    return {key: m["value"] for key, m in metrics.items() if m["unit"] in ("count", "bytes")}


def test_deterministic_counters_repeat_for_a_fixed_seed():
    for name in SMALL_POOLS:
        first = _counters(name, 7)
        assert first == _counters(name, 7), name
        assert first["trace.items"] > 0


def test_counters_show_which_layers_each_workload_uses():
    hear = _counters("hear_reconstruct", 3)
    sample = _counters("generic_sample", 3)
    census = _counters("census_bundle", 3)
    assert hear["reconstruct.enumerate_candidates.calls"] == 16
    assert hear["reconstruct.branches.emitted"] > 0 and hear["serialize.bytes"] > 0
    assert sample["zoo.perturb_generic.budget_exhausted"] == 1
    assert sample["geometry.detect_subpolygons.calls"] > 0
    assert census["reconstruct.enumerate_candidates.calls"] == 0
    assert census["zoo.parallel_pair_census.instances"] == 282 + 276
    assert census["polytope3.Polytope3.calls"] >= 3


def test_metric_names_match_benchmark_json():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    items = SMALL_POOLS["census_bundle"](1)
    workload = workloads.WORKLOADS["census_bundle"]
    tracer, outputs, seconds, factors = run.traced_pass(tracing, workload.run, items)
    per_layer = run.per_layer_metrics(tracing, tracer, factors, 0, 0.0, dict.fromkeys(probes.ROADMAP_MS, 1.0))
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [(k, v["unit"]) for k, v in per_layer.items()]
    window = run.timed_window(workload.run, items, 0.0)
    end_to_end = run.end_to_end_metrics(window, 0, 1.0)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == [(k, v["unit"]) for k, v in end_to_end.items()]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_oracle_rejects_wrong_answers():
    hear = workloads.hear_inputs(5, {(4, 1): 4})
    plain = next(item for item in hear if not item.nudged)
    nudged = next(item for item in hear if item.nudged)
    good = workloads.hear_run(plain)
    assert workloads.hear_check(plain, good)
    assert not workloads.hear_check(plain, (workloads.INFEASIBLE, 0))
    assert workloads.hear_check(nudged, workloads.hear_run(nudged))
    assert not workloads.hear_check(nudged, good)  # candidates of the un-nudged data

    sample = workloads.sample_inputs(5, {(6, 2, "generic"): 1, (6, 2, "stubborn"): 1})
    generic = next(item for item in sample if item.kind == "generic")
    stubborn = next(item for item in sample if item.kind == "stubborn")
    assert workloads.sample_check(generic, workloads.sample_run(generic))
    assert not workloads.sample_check(generic, ("exhausted", None))
    assert workloads.sample_check(stubborn, workloads.sample_run(stubborn))
    assert not workloads.sample_check(stubborn, workloads.sample_run(generic))

    census = workloads.CensusItem(6, 3)
    result = workloads.census_run(census)
    assert workloads.census_check(census, result)
    assert not workloads.census_check(census, result._replace(total=result.total + 1))
    polygon = delzant.random_delzant(5, 1, 4)
    bundle = workloads.BundleItem(polygon)
    assert workloads.census_check(bundle, workloads.census_run(bundle))
    assert not workloads.census_check(bundle, delzant.random_delzant(5, 2, 4))


def test_unexpected_exception_counts_as_failure():
    items = SMALL_POOLS["census_bundle"](2)[:3]

    def broken(item, span=None):
        raise RuntimeError("boom")

    window = run.timed_window(broken, items, 0.0)
    verdicts = run.oracle(workloads.census_check, items, window["outputs"])
    assert run.failures(verdicts, window["differs"], window["passes"]) == 3
    assert run.failures([True, False], [1, 0], 4) == 1 + 4


def test_tracer_restores_every_binding():
    before = {
        "enumerate": delzant.reconstruct.enumerate_candidates,
        "package": delzant.enumerate_candidates,
        "zoo_is_generic": delzant.zoo.is_generic,
        "polygon_init": delzant.Polygon.__dict__["__init__"],
    }
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert delzant.reconstruct.enumerate_candidates is not before["enumerate"]
        assert delzant.zoo.is_generic is not before["zoo_is_generic"]
        delzant.is_generic(delzant.random_delzant(6, 1, 4))
    finally:
        tracer.uninstall()
    names = {span[0] for span in tracer.spans}
    assert {"reconstruct.is_generic", "reconstruct.enumerate_candidates", "geometry.Polygon"} <= names
    assert delzant.reconstruct.enumerate_candidates is before["enumerate"]
    assert delzant.enumerate_candidates is before["package"]
    assert delzant.zoo.is_generic is before["zoo_is_generic"]
    assert delzant.Polygon.__dict__["__init__"] is before["polygon_init"]


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "census_bundle", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert done.stdout == ""
