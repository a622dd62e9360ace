#!/usr/bin/env python3
"""Trace-export smoke: run a small traced workload, export it, validate it.

CI's observability gate: drives a generated two-region workload through the
engine's serial executor with tracing and metrics fully on (sample rate
1.0), writes the JSONL export, and validates every line against the schema
— span ids resolve and children nest inside their parents' windows.  Exits
non-zero on any problem, so a regression in trace propagation fails the
build; the export itself is uploaded as a CI artifact for inspection with
``python -m repro.obs.report``.

Run with:  python examples/trace_export_smoke.py [OUT.jsonl]
"""

import sys

from repro import MapperConfig, ObsConfig, RuntimeResourceManager, WorkloadEngine
from repro.obs import validate_export, write_export
from repro.platform.regions import RegionPartition
from repro.runtime import SerialRegionExecutor
from repro.workloads.arrivals import BurstyArrivals, PoissonArrivals, TrafficClass, generate_workload
from repro.workloads.synthetic import SyntheticConfig, generate_region_mesh

MILLISECOND = 1e6


def run_traced_workload():
    """One obs-on run over a 2x2-region mesh."""
    platform = generate_region_mesh(2, 3, name="trace_smoke")
    partition = RegionPartition.grid(platform, 2, 2)
    manager = RuntimeResourceManager(
        platform, config=MapperConfig(analysis_iterations=3), partition=partition
    )
    config = SyntheticConfig(stages=2, period_ns=100_000.0, tile_types=("GPP", "DSP"))
    classes = [
        TrafficClass(
            "steady",
            PoissonArrivals(rate_per_s=600.0),
            config=config,
            source_tile="io_r0_0",
            sink_tile="io_r0_0",
            hold_range_ns=(2 * MILLISECOND, 5 * MILLISECOND),
        ),
        TrafficClass(
            "bursty",
            BurstyArrivals(burst_rate_per_s=200.0, burst_size_range=(2, 4)),
            config=config,
            source_tile="io_r1_0",
            sink_tile="io_r1_0",
            hold_range_ns=(2 * MILLISECOND, 5 * MILLISECOND),
        ),
    ]
    workload = generate_workload(
        seed=2008, horizon_ns=10 * MILLISECOND, classes=classes, name="trace-smoke"
    )
    engine = WorkloadEngine(
        manager, executor=SerialRegionExecutor(), obs=ObsConfig(sample_rate=1.0)
    )
    return engine.run(workload)


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    out_path = argv[0] if argv else "trace_export_smoke.jsonl"
    outcome = run_traced_workload()
    lines = write_export(
        out_path, outcome.spans, metrics=outcome.metrics, workload=outcome.workload
    )
    print(
        f"{outcome.workload}: {len(outcome.records)} settled, "
        f"{len(outcome.spans)} spans, {lines} export lines -> {out_path}"
    )
    if not outcome.records:
        print("SMOKE FAILED: workload settled no requests", file=sys.stderr)
        return 1
    if not outcome.spans:
        print("SMOKE FAILED: the traced run recorded no spans", file=sys.stderr)
        return 1
    problems = validate_export(out_path)
    if problems:
        for problem in problems:
            print(f"INVALID: {problem}", file=sys.stderr)
        return 1
    print(f"{out_path}: valid ({lines} lines)")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
