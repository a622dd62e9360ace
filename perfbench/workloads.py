"""The benchmark's workloads: generated inputs, a timed set-up and one replay.

Every workload splits into three parts so the driver can time them apart:

* ``inputs(seed)`` generates everything the system is offered (untimed),
  and ``offered(inputs)`` names the requests in it;
* ``setup()`` builds the platform, partition, manager and engine — the
  ``setup_s`` metric;
* ``replay(system, inputs)`` offers the inputs to the system and returns a
  :class:`Replay`, whose ``wall_s`` is the timed part.

Replay happens in virtual time, so host speed never changes what the
system is offered: two replays of one seed make identical decisions.
Only the public API of ``repro.workloads``, ``repro.runtime``,
``repro.platform`` and ``repro.spatialmapper`` is used.
"""

from __future__ import annotations

import itertools
import random
import time
from collections import deque
from dataclasses import dataclass

from repro.platform import RegionPartition
from repro.runtime import (
    GovernorConfig,
    LoadSheddingGovernor,
    RequestStatus,
    RuntimeResourceManager,
    SerialRegionExecutor,
    WorkloadEngine,
)
from repro.runtime.events import StartEvent
from repro.spatialmapper import MapperConfig
from repro.workloads.arrivals import (
    PoissonArrivals,
    TrafficClass,
    cross_region_classes,
    generate_workload,
    priority_overload_mix,
)
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_application,
    generate_region_mesh,
)

REGIONS = 2  # every workload runs on a 2x2 grid of regions

ADMITTED = RequestStatus.ADMITTED.value
REJECTED = RequestStatus.REJECTED.value


@dataclass
class Replay:
    """What one replay of a workload's inputs produced."""

    #: ``(application, status, reason)`` per settled request, in settlement order.
    records: list[tuple[str, str, str]]
    #: Host seconds spent replaying (the timed part of a run).
    wall_s: float
    manager: RuntimeResourceManager
    #: Engine drains and parked retries it skipped (0 without an engine).
    drains: int = 0
    parked_skips: int = 0


@dataclass
class System:
    """The objects ``setup`` builds; ``engine`` is ``None`` for direct admission."""

    manager: RuntimeResourceManager
    engine: WorkloadEngine | None = None


def _engine_offered(scenario) -> list[str]:
    return [
        event.als.name for event in scenario.sorted_events() if isinstance(event, StartEvent)
    ]


def _engine_replay(system: System, scenario) -> Replay:
    started = time.perf_counter()
    outcome = system.engine.run(scenario)
    wall_s = time.perf_counter() - started
    return Replay(
        records=[(r.application, r.status.value, r.reason) for r in outcome.records],
        wall_s=wall_s,
        manager=system.manager,
        drains=outcome.drains,
        parked_skips=outcome.parked_retries_skipped,
    )


class RegionStream:
    """Region-sharded Poisson stream with cross-region traffic at 2x load."""

    name = "region_stream"
    span = 4  # 8x8 mesh
    load_factor = 2.0
    regional_rate_per_s = 400.0  # per region, before scaling
    cross_rate_per_s = 300.0  # all corner pairs together, before scaling
    horizon_ns = 55e6
    unit_seconds = 3.0

    def inputs(self, seed: int):
        config = SyntheticConfig(stages=3, period_ns=100_000.0, tile_types=("GPP", "DSP"))
        classes = [
            TrafficClass(
                f"r{cx}_{cy}",
                PoissonArrivals(rate_per_s=self.regional_rate_per_s),
                config=config,
                source_tile=f"io_r{cx}_{cy}",
                sink_tile=f"io_r{cx}_{cy}",
                hold_range_ns=(3e6, 8e6),
                admission_window_ns=5e6,
            )
            for cx in range(REGIONS)
            for cy in range(REGIONS)
        ]
        classes += cross_region_classes(
            REGIONS,
            self.cross_rate_per_s,
            config=config,
            hold_range_ns=(3e6, 8e6),
            admission_window_ns=5e6,
        )
        classes = [traffic.scaled(self.load_factor) for traffic in classes]
        return generate_workload(seed, self.horizon_ns, classes, name=self.name)

    def setup(self) -> System:
        platform = generate_region_mesh(REGIONS, self.span, name="region_stream_mesh")
        partition = RegionPartition.grid(platform, REGIONS, REGIONS)
        manager = RuntimeResourceManager(
            platform,
            config=MapperConfig(analysis_iterations=3),
            partition=partition,
            cross_region_planner=True,
        )
        engine = WorkloadEngine(
            manager, executor=SerialRegionExecutor(), park_rejections=True
        )
        return System(manager, engine)

    offered = staticmethod(_engine_offered)
    replay = staticmethod(_engine_replay)


class OverloadShed:
    """Two-tier priority mix at 8x load with the load-shedding governor on."""

    name = "overload_shed"
    span = 4  # 8x8 mesh
    load_factor = 8.0
    horizon_ns = 20e6
    unit_seconds = 1.2
    governor_config = GovernorConfig(
        rate_floor=0.5, resume_margin=0.1, window=32, min_samples=8
    )

    def inputs(self, seed: int):
        config = SyntheticConfig(stages=2, period_ns=100_000.0, tile_types=("GPP", "DSP"))
        classes = [
            traffic.scaled(self.load_factor)
            for traffic in priority_overload_mix(
                REGIONS,
                high_rate_per_s=100.0,
                low_rate_per_s=300.0,
                config=config,
                high_priority=2,
                admission_window_ns=5e6,
                hold_range_ns=(3e6, 8e6),
            )
        ]
        return generate_workload(seed, self.horizon_ns, classes, name=self.name)

    def setup(self) -> System:
        platform = generate_region_mesh(REGIONS, self.span, name="overload_mesh")
        partition = RegionPartition.grid(platform, REGIONS, REGIONS)
        manager = RuntimeResourceManager(
            platform, config=MapperConfig(analysis_iterations=3), partition=partition
        )
        engine = WorkloadEngine(
            manager,
            executor=SerialRegionExecutor(),
            park_rejections=True,
            governor=LoadSheddingGovernor(self.governor_config),
        )
        return System(manager, engine)

    offered = staticmethod(_engine_offered)
    replay = staticmethod(_engine_replay)


class PackingRescue:
    """Memory-tight multi-slot mesh under churn, rescue lane on, direct admission."""

    name = "packing_rescue"
    span = 3  # 6x6 mesh
    slots_per_tile = 4
    tile_memory_bytes = 16 * 1024
    stages = 3
    resident = 16  # churn keeps this many applications running
    arrivals = 70
    unit_seconds = 1.2

    def inputs(self, seed: int):
        rng = random.Random(f"{seed}:{self.name}")
        config = SyntheticConfig(
            stages=self.stages,
            period_ns=60_000.0,
            tokens_range=(8, 32),
            tile_types=("GPP", "DSP"),
            memory_choices=(2048, 4096, 8192, 12288),
        )
        cells = itertools.cycle([(0, 0), (1, 0), (0, 1), (1, 1)])
        return [
            generate_application(
                rng.randint(0, 2**31 - 1),
                config,
                name=f"pack_{index}",
                source_tile=f"io_r{cx}_{cy}",
                sink_tile=f"io_r{cx}_{cy}",
            )
            for index, (cx, cy) in zip(range(self.arrivals), cells)
        ]

    def setup(self) -> System:
        platform = generate_region_mesh(
            REGIONS,
            self.span,
            name="packing_mesh",
            max_processes_per_tile=self.slots_per_tile,
            tile_memory_bytes=self.tile_memory_bytes,
        )
        partition = RegionPartition.grid(platform, REGIONS, REGIONS)
        config = MapperConfig(analysis_iterations=3, rescue_searchers=6, rescue_attempts=4)
        # One region attempt and no global fallback: a request runs the
        # mapper (and at most one rescue) once, which bounds its cost.
        manager = RuntimeResourceManager(
            platform,
            config=config,
            partition=partition,
            max_region_attempts=1,
            region_fallback=False,
        )
        return System(manager)

    def replay(self, system: System, schedule) -> Replay:
        manager = system.manager
        running: deque[str] = deque()
        records = []
        started = time.perf_counter()
        for app in schedule:
            # Departures come before each arrival, so churn keeps flowing
            # through rejection streaks and the platform stays full.
            while len(running) >= self.resident:
                manager.stop(running.popleft())
            decision = manager.admit(app.als, library=app.library)
            if decision.admitted:
                running.append(app.als.name)
            records.append(
                (app.als.name, ADMITTED if decision.admitted else REJECTED, decision.reason)
            )
        wall_s = time.perf_counter() - started
        return Replay(records=records, wall_s=wall_s, manager=manager)

    @staticmethod
    def offered(schedule) -> list[str]:
        return [app.als.name for app in schedule]


WORKLOADS = {w.name: w for w in (RegionStream(), PackingRescue(), OverloadShed())}
