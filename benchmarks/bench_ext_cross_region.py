"""Extension experiment `ext-cross-region` — budgeted corridors vs the global lane.

The engine's serialized global lane is the reference path for admissions
whose pinned tiles span regions: an unrestricted whole-platform mapping
under every region lock.  The inter-region planner replaces it with
per-region segments plus budgeted boundary corridors under a lock subset.
This benchmark replays one generated workload — per-region traffic plus a
25% cross-region arrival mix over a 4-region mesh — through both engines
and asserts the tentpole claim:

* the planner-backed engine drains measurably faster per admission
  (``CROSS_REGION_MIN_SPEEDUP``, default >= 1.3x drain throughput), and
* regional-worker utilisation improves: cross-region admissions settle in
  the multi-region lane under lock subsets instead of the serialized
  global lane, so the share of requests the global lane must own drops.

Decision *quality* is pinned elsewhere (the differential tests in
``tests/integration/test_interregion_differential.py``); here both engines
must merely stay decision-comparable on the same offered stream (equal
request counts, admission rates within a few points).

The resulting trajectory is written to ``BENCH_cross_region.json`` at the
repository root (override with ``$CROSS_REGION_JSON``), so the perf
trajectory is tracked across PRs.  ``$CROSS_REGION_HORIZON_NS`` and
``$CROSS_REGION_MIN_SPEEDUP`` let the CI smoke step run a shrunken,
assertion-relaxed version.
"""

import json
import os

import pytest

from repro.obs.metrics import pivot
from repro.platform.regions import GLOBAL_LANE, RegionPartition
from repro.runtime.engine import MULTI_REGION_LANE, SerialRegionExecutor, WorkloadEngine
from repro.runtime.manager import RuntimeResourceManager
from repro.spatialmapper.config import MapperConfig
from repro.workloads.arrivals import (
    PoissonArrivals,
    TrafficClass,
    cross_region_classes,
    generate_workload,
    offered_rate_per_s,
)
from repro.workloads.synthetic import SyntheticConfig, generate_region_mesh

REGIONS = 2   # 2x2 grid -> 4 regions
SPAN = 8      # routers per region edge (16x16 mesh)
SEED = 2008
HORIZON_NS = float(os.environ.get("CROSS_REGION_HORIZON_NS", 3e7))
MIN_SPEEDUP = float(os.environ.get("CROSS_REGION_MIN_SPEEDUP", 1.3))
CROSS_FRACTION = 0.25

#: Regional arrivals: light two-stage streams that stay inside their region.
REGIONAL_CONFIG = SyntheticConfig(stages=2, period_ns=100_000.0, tile_types=("GPP", "DSP"))
#: Cross-region arrivals: chip-spanning ten-stage pipelines (I/O to I/O) —
#: the deep receiver chains that actually need tiles from several regions.
CROSS_CONFIG = SyntheticConfig(stages=10, period_ns=100_000.0, tile_types=("GPP", "DSP"))

REGIONAL_RATE_PER_S = 1800.0  # aggregate over the four per-region classes
CROSS_RATE_PER_S = REGIONAL_RATE_PER_S * CROSS_FRACTION / (1.0 - CROSS_FRACTION)


def traffic_mix():
    """Four per-region classes plus cross-region pairs at a 25% arrival share."""
    classes = []
    for cx in range(REGIONS):
        for cy in range(REGIONS):
            io_tile = f"io_r{cx}_{cy}"
            classes.append(
                TrafficClass(
                    f"r{cx}_{cy}",
                    PoissonArrivals(rate_per_s=REGIONAL_RATE_PER_S / (REGIONS * REGIONS)),
                    config=REGIONAL_CONFIG,
                    source_tile=io_tile,
                    sink_tile=io_tile,
                    hold_range_ns=(4e6, 9e6),
                    admission_window_ns=6e6,
                )
            )
    classes.extend(
        cross_region_classes(
            REGIONS,
            CROSS_RATE_PER_S,
            config=CROSS_CONFIG,
            admission_window_ns=6e6,
            hold_range_ns=(4e6, 9e6),
        )
    )
    return classes


def run_config(workload, *, cross_region_planner):
    """Replay the workload on a fresh manager, with or without the planner."""
    platform = generate_region_mesh(REGIONS, SPAN, name="cross_region_mesh")
    partition = RegionPartition.grid(platform, REGIONS, REGIONS)
    manager = RuntimeResourceManager(
        platform,
        config=MapperConfig(analysis_iterations=2),
        partition=partition,
        cross_region_planner=cross_region_planner,
    )
    engine = WorkloadEngine(
        manager, executor=SerialRegionExecutor(), park_rejections=True
    )
    return engine.run(workload)


def lane_summary(outcome):
    """Per-lane settled counts of one run, from its metrics registry."""
    lanes = pivot(outcome.metrics["counters"], "engine.settled", "lane", "status")
    return {
        lane: {
            "admitted": int(statuses.get("admitted", 0)),
            "rejected": int(statuses.get("rejected", 0)),
            "expired": int(statuses.get("expired", 0)),
            "settled": int(
                sum(count for status, count in statuses.items() if status != "parked")
            ),
        }
        for lane, statuses in sorted(lanes.items())
    }


ROUNDS = int(os.environ.get("CROSS_REGION_ROUNDS", 3))


def test_ext_cross_region_corridors(benchmark):
    classes = traffic_mix()
    workload = generate_workload(SEED, HORIZON_NS, classes, name="cross-region-mix")
    results = {}

    def run_all():
        # Decisions are deterministic; wall clock is not.  Interleave the
        # configurations and keep each one's best round, so a scheduling
        # hiccup on a loaded CI machine cannot flip the verdict.
        for _ in range(ROUNDS):
            for label, planner in (("global", False), ("planner", True)):
                outcome = run_config(workload, cross_region_planner=planner)
                best = results.get(label)
                if best is None or outcome.drain_wall_s < best.drain_wall_s:
                    results[label] = outcome
        return results

    benchmark.pedantic(run_all, rounds=1, iterations=1)
    baseline, planner = results["global"], results["planner"]

    # Same offered stream, comparable decisions: the planner must not admit
    # a different workload to look fast.
    assert planner.decided == baseline.decided > 0
    assert abs(planner.admission_rate - baseline.admission_rate) <= 0.05, (
        planner.admission_rate,
        baseline.admission_rate,
    )

    comparison = {}
    for label, outcome in results.items():
        per_admission_ms = outcome.drain_wall_s / outcome.decided * 1e3
        comparison[label] = {
            "decided": outcome.decided,
            "admitted": len(outcome.admitted),
            "admission_rate": round(outcome.admission_rate, 4),
            "drain_wall_ms": round(outcome.drain_wall_s * 1e3, 3),
            "per_admission_wall_ms": round(per_admission_ms, 4),
            "drain_throughput_per_s": round(outcome.decided / outcome.drain_wall_s, 2),
            "lanes": lane_summary(outcome),
        }
    speedup = (
        comparison["planner"]["drain_throughput_per_s"]
        / comparison["global"]["drain_throughput_per_s"]
    )
    benchmark.extra_info["comparison"] = comparison
    benchmark.extra_info["drain_speedup"] = round(speedup, 3)
    benchmark.extra_info["regions"] = REGIONS * REGIONS
    benchmark.extra_info["cross_fraction"] = CROSS_FRACTION

    # The multi-region lane must actually carry the cross traffic...
    planner_lanes = comparison["planner"]["lanes"]
    baseline_lanes = comparison["global"]["lanes"]
    assert planner_lanes.get(MULTI_REGION_LANE, {}).get("admitted", 0) > 0, planner_lanes
    # ...and regional-worker utilisation improves: the serialized global
    # lane owns a strictly smaller share of the settled requests.
    global_share_baseline = baseline_lanes.get(GLOBAL_LANE, {}).get("settled", 0)
    global_share_planner = planner_lanes.get(GLOBAL_LANE, {}).get("settled", 0)
    assert global_share_planner < global_share_baseline, (
        global_share_planner,
        global_share_baseline,
    )

    # The tentpole target: >= 1.3x drain throughput at 4 regions with a 25%
    # cross-region arrival mix (relaxed via $CROSS_REGION_MIN_SPEEDUP for
    # the CI smoke run on shrunken horizons).
    assert speedup >= MIN_SPEEDUP, comparison

    payload = {
        "regions": REGIONS * REGIONS,
        "span": SPAN,
        "horizon_ns": HORIZON_NS,
        "offered_rate_per_s": round(offered_rate_per_s(classes), 1),
        "cross_fraction": CROSS_FRACTION,
        "drain_speedup": round(speedup, 3),
        "comparison": comparison,
    }
    # The trajectory is tracked across PRs at the repository root; shrunken
    # runs (smoke env overrides, no explicit redirect) must not overwrite it
    # with non-representative numbers.
    out_path = os.environ.get("CROSS_REGION_JSON")
    shrunken = bool(
        os.environ.get("CROSS_REGION_HORIZON_NS")
        or os.environ.get("CROSS_REGION_MIN_SPEEDUP")
    )
    if not out_path and not shrunken:
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        out_path = os.path.join(root, "BENCH_cross_region.json")
    if out_path:
        with open(out_path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")


if __name__ == "__main__":  # pragma: no cover - convenience entry point
    raise SystemExit(pytest.main([__file__, "-q"]))
