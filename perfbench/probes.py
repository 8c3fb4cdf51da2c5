"""Layer probes: single calls timed in isolation on fixed inputs, in
reference milliseconds (see ``calibrate.py``).

They mirror the per-layer rows of the baseline table in ROADMAP.md, so a
traced run reports each probe next to the value recorded there.  Inputs do
not depend on the benchmark seed, which keeps the probes comparable across
runs and commits.
"""

from __future__ import annotations

import statistics
import time

import calibrate
import delzant

# Probe name -> the single-run baseline in ROADMAP.md, in milliseconds.
ROADMAP_MS = {
    "probe.polygon8_ms": 0.27,
    "probe.spectral_data8_ms": 0.035,
    "probe.enumerate_triangle_ms": 2.3,
    "probe.enumerate_d5_ms": 3.8,
    "probe.enumerate_d8_3pairs_ms": 24.0,
    "probe.is_generic8_ms": 26.0,
    "probe.census_8_3_ms": 3.9,
    "probe.bundle_box_ms": 12.9,
}

MIN_SECONDS = 0.25
MIN_REPEATS = 5


def _intervals(call, speed) -> list:
    intervals = []
    start = time.perf_counter()
    while len(intervals) < MIN_REPEATS or time.perf_counter() - start < MIN_SECONDS:
        mark = speed.mark()
        call()
        intervals.append(speed.interval(mark))
    return intervals


def _first_with_pairs(d: int, pairs: int) -> delzant.Polygon:
    seed = 0
    while delzant.parallel_pair_count(delzant.random_delzant(d, seed, 4)) != pairs:
        seed += 1
    return delzant.random_delzant(d, seed, 4)


def run_probes() -> dict:
    """Median milliseconds per call for every probe in ``ROADMAP_MS``."""
    octagon = delzant.random_delzant(8, 0, 4)
    vertices = tuple(octagon.vertices)
    triangle = delzant.spectral_data(delzant.random_delzant(3, 0, 5))
    pentagon = delzant.spectral_data(delzant.random_delzant(5, 0, 4))
    three_pairs = delzant.spectral_data(_first_with_pairs(8, 3))
    box = delzant.Polytope3([(x, y, z) for x in (0, 2) for y in (0, 1) for z in (0, 1)])
    calls = {
        "probe.polygon8_ms": lambda: delzant.Polygon(vertices),
        "probe.spectral_data8_ms": lambda: delzant.spectral_data(octagon),
        "probe.enumerate_triangle_ms": lambda: delzant.enumerate_candidates(triangle),
        "probe.enumerate_d5_ms": lambda: delzant.enumerate_candidates(pentagon),
        "probe.enumerate_d8_3pairs_ms": lambda: delzant.enumerate_candidates(three_pairs),
        "probe.is_generic8_ms": lambda: delzant.is_generic(octagon),
        "probe.census_8_3_ms": lambda: delzant.parallel_pair_census(8, 3),
        "probe.bundle_box_ms": lambda: delzant.bundle_reconstruct(delzant.bundle_facet_data(box)),
    }
    with calibrate.SpeedSampler() as speed:
        timed = {name: _intervals(call, speed) for name, call in calls.items()}
    return {
        name: statistics.median(speed.reference(interval) for interval in intervals) * 1e3
        for name, intervals in timed.items()
    }
