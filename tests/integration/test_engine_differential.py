"""Differential tests: engine vs legacy player, and replay determinism.

Two equivalences anchor the engine:

* :func:`run_scenario` (now a thin adapter over the engine in immediate
  drain mode) must be decision-for-decision — and energy-for-energy —
  identical to the legacy player that called the manager directly; the
  reference implementation is inlined here, frozen at its PR 2 behaviour.
* Two fresh engines replaying the same event stream must be
  decision-identical and end in bit-identical platform states, across
  generated workloads, with and without rejection parking, and with the
  rescue lane firing.
"""

import pytest

from repro.exceptions import AdmissionError
from repro.platform.regions import RegionPartition
from repro.runtime.accounting import EnergyAccount
from repro.runtime.engine import SerialRegionExecutor, WorkloadEngine
from repro.runtime.events import StartEvent, StopEvent
from repro.runtime.manager import RuntimeResourceManager
from repro.runtime.scenario import ScenarioOutcome, run_scenario
from repro.spatialmapper.config import MapperConfig
from repro.workloads.arrivals import (
    PoissonArrivals,
    TrafficClass,
    generate_workload,
    offered_rate_per_s,
)
from repro.workloads.synthetic import SyntheticConfig, generate_region_mesh
from tests.harness import (
    MILLISECOND,
    TWO_STAGE_CONFIG as CONFIG,
    make_manager,
    two_region_classes as workload_classes,
)


def legacy_run_scenario(manager, scenario):
    """The PR 2 scenario player, frozen as the differential reference."""
    outcome = ScenarioOutcome(scenario=scenario.name)
    for event in scenario.sorted_events():
        if isinstance(event, StartEvent):
            try:
                result = manager.start(
                    event.als, library=event.library, time_ns=event.time_ns
                )
            except AdmissionError as error:
                outcome.rejected.append((event.application, str(error)))
                continue
            outcome.admitted.append(event.application)
            outcome.energy.start(
                event.application,
                event.time_ns,
                result.energy_nj_per_iteration,
                event.als.period_ns,
            )
        elif isinstance(event, StopEvent):
            if manager.is_running(event.application):
                manager.stop(event.application)
                outcome.energy.stop(event.application, event.time_ns)
    outcome.end_time_ns = scenario.end_time_ns()
    outcome.energy.finish(outcome.end_time_ns)
    return outcome


class TestScenarioAdapterDifferential:
    @pytest.mark.parametrize("seed", [3, 21])
    def test_run_scenario_matches_legacy_player(self, seed):
        # No deadlines/priorities: the legacy player predates both.
        classes = [
            TrafficClass(
                "left",
                PoissonArrivals(rate_per_s=700.0),
                config=CONFIG,
                source_tile="io_l",
                sink_tile="io_l",
                hold_range_ns=(2 * MILLISECOND, 4 * MILLISECOND),
            ),
            TrafficClass(
                "right",
                PoissonArrivals(rate_per_s=700.0),
                config=CONFIG,
                source_tile="io_r",
                sink_tile="io_r",
                hold_range_ns=(2 * MILLISECOND, 4 * MILLISECOND),
            ),
        ]
        scenario = generate_workload(seed, 15 * MILLISECOND, classes, name="diff")

        legacy_manager = make_manager()
        legacy = legacy_run_scenario(legacy_manager, scenario)
        adapter_manager = make_manager()
        adapter = run_scenario(adapter_manager, scenario)

        assert adapter.admitted == legacy.admitted
        assert adapter.rejected == legacy.rejected
        assert adapter.admission_rate == pytest.approx(legacy.admission_rate)
        assert adapter.total_energy_nj == pytest.approx(legacy.total_energy_nj)
        assert adapter.end_time_ns == pytest.approx(legacy.end_time_ns)
        assert adapter_manager.decisions == legacy_manager.decisions
        assert sorted(adapter_manager.state.occupied_tiles()) == sorted(
            legacy_manager.state.occupied_tiles()
        )
        assert isinstance(adapter.energy, EnergyAccount)


def assert_same_run(first_manager, first, second_manager, second):
    """Two runs decided identically and ended in bit-identical states."""
    assert first.decision_log() == second.decision_log()
    assert first_manager.decisions == second_manager.decisions
    assert sorted(first_manager.state.occupied_tiles()) == sorted(
        second_manager.state.occupied_tiles()
    )
    assert first_manager.state.link_loads() == second_manager.state.link_loads()
    assert first_manager.state.fingerprint() == second_manager.state.fingerprint()
    assert first.energy.total_energy_nj == pytest.approx(second.energy.total_energy_nj)
    assert first.departures == second.departures


class TestParallelDrainDifferential:
    @pytest.mark.parametrize("seed", [5, 17])
    @pytest.mark.parametrize("park", [False, True])
    def test_fresh_serial_replays_are_decision_identical(self, seed, park):
        scenario = generate_workload(
            seed, 12 * MILLISECOND, workload_classes(), name="parallel-diff"
        )
        runs = []
        for _ in range(2):
            manager = make_manager()
            outcome = WorkloadEngine(
                manager, executor=SerialRegionExecutor(), park_rejections=park
            ).run(scenario)
            runs.append((manager, outcome))
        assert_same_run(*runs[0], *runs[1])

    @pytest.mark.parametrize("seed", [5, 17])
    def test_immediate_mode_replays_are_decision_identical(self, seed):
        # One drain per event: the serial phase sees every arrival alone.
        scenario = generate_workload(
            seed, 12 * MILLISECOND, workload_classes(), name="immediate-diff"
        )
        runs = []
        for _ in range(2):
            manager = make_manager()
            outcome = WorkloadEngine(
                manager, executor=SerialRegionExecutor(), drain_mode="immediate"
            ).run(scenario)
            runs.append((manager, outcome))
        assert_same_run(*runs[0], *runs[1])
        assert runs[0][1].drains >= len(runs[0][1].records)

    def test_parking_changes_work_not_decisions_visible_to_clients(self):
        # With parking on, hopeless requests are skipped between state
        # changes — admitted sets must match the non-parking engine run on
        # the same stream (rejections may differ in *when* they settle).
        scenario = generate_workload(
            9, 12 * MILLISECOND, workload_classes(), name="park-diff"
        )
        plain_manager = make_manager()
        plain = WorkloadEngine(plain_manager, park_rejections=False).run(scenario)
        parked_manager = make_manager()
        parked = WorkloadEngine(parked_manager, park_rejections=True).run(scenario)
        assert set(parked.admitted) <= set(plain.admitted) | set(
            r for r, _ in plain.rejected
        )
        assert parked.parked_retries_skipped >= 0
        assert plain.decided == parked.decided


class TestRescueLaneDifferential:
    """Replay determinism with the rescue lane enabled.

    The stochastic rescue lane must not cost replay determinism: its
    searcher seeds derive from the request fingerprints (never from global
    RNG state or the wall clock), so two fresh drains of one event stream
    must decide identically — down to bit-identical platform-state
    fingerprints — even while rescue adoptions are flipping rejections into
    admissions.  The platform is the packing regime (multi-slot tiles,
    tight memories) where the lane actually fires; a rescue-off run pins
    that it did.
    """

    RESCUE_CONFIG = MapperConfig(
        analysis_iterations=3, rescue_searchers=3, rescue_attempts=3
    )

    def make_rescue_manager(self, config):
        platform = generate_region_mesh(
            2, 2, max_processes_per_tile=3, tile_memory_bytes=12 * 1024
        )
        partition = RegionPartition.grid(platform, 2, 2)
        return RuntimeResourceManager(platform, config=config, partition=partition)

    def rescue_workload(self):
        app_config = SyntheticConfig(
            stages=4,
            period_ns=60_000.0,
            tokens_range=(16, 64),
            tile_types=("GPP", "DSP"),
            memory_choices=(2048, 4096, 8192, 12288),
        )
        classes = [
            TrafficClass(
                f"r{cx}_{cy}",
                PoissonArrivals(rate_per_s=900.0),
                config=app_config,
                source_tile=f"io_r{cx}_{cy}",
                sink_tile=f"io_r{cx}_{cy}",
                hold_range_ns=(3 * MILLISECOND, 8 * MILLISECOND),
            )
            for cx in range(2)
            for cy in range(2)
        ]
        return generate_workload(11, 7 * MILLISECOND, classes, name="rescue-diff")

    def run_one(self, config):
        manager = self.make_rescue_manager(config)
        outcome = WorkloadEngine(
            manager, executor=SerialRegionExecutor(), park_rejections=True
        ).run(self.rescue_workload())
        return manager, outcome

    @pytest.fixture(scope="class")
    def serial_rescue(self):
        """The reference drain, shared by both differential tests."""
        return self.run_one(self.RESCUE_CONFIG)

    def test_rescue_enabled_drains_are_decision_identical(self, serial_rescue):
        assert_same_run(*serial_rescue, *self.run_one(self.RESCUE_CONFIG))

    def test_rescue_actually_fired_on_this_stream(self, serial_rescue):
        """The differential must exercise the lane, not an idle code path:
        with rescue on, the same stream admits strictly more than with the
        lane disabled (every extra admission is a rescue adoption)."""
        _, without = self.run_one(MapperConfig(analysis_iterations=3))
        _, with_rescue = serial_rescue
        assert with_rescue.decided == without.decided
        assert len(with_rescue.admitted) > len(without.admitted)


class TestOfferedLoadCurve:
    def test_admission_rate_degrades_with_offered_load(self):
        rates = {}
        for factor in (0.25, 4.0):
            classes = [c.scaled(factor) for c in workload_classes()]
            scenario = generate_workload(
                31, 10 * MILLISECOND, classes, name=f"load-{factor}"
            )
            manager = make_manager()
            outcome = WorkloadEngine(manager, park_rejections=True).run(scenario)
            rates[factor] = outcome.admission_rate
            assert outcome.decided > 0
        assert offered_rate_per_s(
            [c.scaled(4.0) for c in workload_classes()]
        ) > offered_rate_per_s([c.scaled(0.25) for c in workload_classes()])
        # More offered load cannot improve the admission rate.
        assert rates[4.0] <= rates[0.25] + 1e-9
