"""The discrete-event workload engine and its region executor."""

from collections import Counter

import pytest

from repro.platform.regions import RegionPartition
from repro.runtime.engine import MULTI_REGION_LANE, SerialRegionExecutor, WorkloadEngine
from repro.runtime.events import ScenarioEvent, StartEvent, StopEvent
from repro.runtime.pipeline import AdmissionDecision
from repro.runtime.queue import RequestStatus
from repro.runtime.scenario import Scenario
from repro.workloads.synthetic import (
    SyntheticConfig,
    generate_application,
    generate_region_mesh,
)
from tests.harness import (
    MILLISECOND,
    TWO_STAGE_CONFIG,
    build_two_region_platform,
    make_app,
    make_manager,
    settled_counts,
    two_region_workload,
)

#: Applications for the 2x2-region planner mesh.
PLANNER_CONFIG = SyntheticConfig(stages=4, period_ns=100_000.0, tile_types=("GPP", "DSP"))


def _planner_platform():
    return generate_region_mesh(2, 4)


@pytest.fixture()
def platform():
    return build_two_region_platform()


@pytest.fixture()
def manager(platform):
    return make_manager(platform)


class TestEventLoop:
    def test_arrivals_admit_and_departures_free_resources(self, manager):
        first = make_app(1, "first", "io_l")
        second = make_app(2, "second", "io_l")
        scenario = (
            Scenario("lifecycle", duration_ns=4_000_000.0)
            .add(StartEvent(time_ns=0.0, als=first.als, library=first.library))
            .add(StopEvent(time_ns=1_000_000.0, application="first"))
            .add(StartEvent(time_ns=2_000_000.0, als=second.als, library=second.library))
        )
        outcome = WorkloadEngine(manager).run(scenario)
        assert outcome.admitted == ["first", "second"]
        assert outcome.departures == [(1_000_000.0, "first")]
        assert outcome.admission_rate == 1.0
        assert outcome.energy.total_energy_nj > 0
        assert manager.is_running("second") and not manager.is_running("first")

    def test_same_time_batch_runs_departures_before_arrivals(self, manager):
        # Batched mode treats same-timestamp events as concurrent, with the
        # DES convention that departures free resources before arrivals map.
        filler = [make_app(10 + i, f"filler{i}", "io_l") for i in range(2)]
        replacement = make_app(20, "replacement", "io_l")
        scenario = Scenario("handover", duration_ns=3_000_000.0)
        for app in filler:
            scenario.add(StartEvent(time_ns=0.0, als=app.als, library=app.library))
        scenario.add(StopEvent(time_ns=1_000_000.0, application="filler0"))
        scenario.add(StopEvent(time_ns=1_000_000.0, application="filler1"))
        scenario.add(
            StartEvent(time_ns=1_000_000.0, als=replacement.als, library=replacement.library)
        )
        outcome = WorkloadEngine(manager, drain_mode="batched").run(scenario)
        assert "replacement" in outcome.admitted

    def test_unknown_event_type_raises(self, manager):
        scenario = Scenario("bad").add(ScenarioEvent(time_ns=0.0))
        with pytest.raises(TypeError):
            WorkloadEngine(manager).run(scenario)

    def test_unknown_drain_mode_rejected(self, manager):
        with pytest.raises(ValueError):
            WorkloadEngine(manager, drain_mode="eager")

    def test_deadline_expires_in_engine(self, manager):
        blocker = make_app(30, "blocker", "io_l")
        hopeless = [make_app(31 + i, f"hopeless{i}", "io_l") for i in range(4)]
        scenario = Scenario("deadlines", duration_ns=10_000_000.0)
        scenario.add(StartEvent(time_ns=0.0, als=blocker.als, library=blocker.library))
        for app in hopeless:
            scenario.add(
                StartEvent(
                    time_ns=100.0,
                    als=app.als,
                    library=app.library,
                    deadline_ns=5_000.0,
                )
            )
        # A later event past every deadline forces an expiry sweep.
        scenario.add(StopEvent(time_ns=9_000_000.0, application="blocker"))
        engine = WorkloadEngine(manager, park_rejections=True)
        outcome = engine.run(scenario)
        assert "blocker" in outcome.admitted
        # Whatever was not admitted from the hopeless wave either expired at
        # the sweep or was finalised at the end; nothing is left pending.
        assert len(outcome.records) == 1 + len(hopeless)
        assert len(manager.state.applications()) == len(
            [a for a in manager.running_applications]
        )


class TestTwoPhaseDrain:
    def test_duplicate_names_in_one_batch_are_serialized(self, manager):
        # Two same-named arrivals in the same batch, pinned to different
        # regions: the region lanes may own at most one; the other must be
        # rejected as already running, never double-admitted.
        left = make_app(50, "twin", "io_l")
        right = make_app(51, "twin", "io_r")
        scenario = (
            Scenario("twins", duration_ns=1_000_000.0)
            .add(StartEvent(time_ns=0.0, als=left.als, library=left.library))
            .add(StartEvent(time_ns=0.0, als=right.als, library=right.library))
        )
        outcome = WorkloadEngine(manager).run(scenario)
        assert len(outcome.admitted) == 1
        assert len(outcome.rejected) == 1
        assert outcome.rejected[0][1] == "application is already running"
        assert len(manager.state.applications()) == 1

    def test_worker_error_unwinds_and_requeues(self, manager, monkeypatch):
        good = make_app(60, "good", "io_l")
        exploder = make_app(61, "exploder", "io_r")
        later = make_app(62, "later", "io_r")
        scenario = (
            Scenario("explosive", duration_ns=1_000_000.0)
            .add(StartEvent(time_ns=0.0, als=good.als, library=good.library))
            .add(StartEvent(time_ns=0.0, als=exploder.als, library=exploder.library))
            .add(StartEvent(time_ns=0.0, als=later.als, library=later.library))
        )
        original_decide = manager.pipeline.decide

        def exploding_decide(als, library=None, *, candidates=None, trace=None):
            if als.name == "exploder":
                raise RuntimeError("mapper exploded")
            return original_decide(als, library, candidates=candidates, trace=trace)

        monkeypatch.setattr(manager.pipeline, "decide", exploding_decide)
        engine = WorkloadEngine(manager)
        with pytest.raises(RuntimeError, match="mapper exploded"):
            engine.run(scenario)
        # The good lane's decision survived; the exploding request — and the
        # request queued behind it in the same lane, which the lane abort
        # left undecided — are back in the queue for a later drain instead
        # of being stranded in flight.
        assert manager.is_running("good")
        assert not manager.is_running("later")
        assert [r.application for r in engine.queue.pending] == ["exploder", "later"]
        assert all(r.status is RequestStatus.PENDING for r in engine.queue.pending)


class TestParkedRetries:
    def test_rejection_parks_until_fingerprint_changes(self, manager, monkeypatch):
        # Fill the left region, then submit one more left-pinned app: it is
        # rejected once, parks, and must not be re-mapped by later drains
        # while the region (and platform) state is unchanged.
        fillers = [make_app(70 + i, f"filler{i}", "io_l") for i in range(3)]
        straggler = make_app(80, "straggler", "io_l")
        scenario = Scenario("parked", duration_ns=10_000_000.0)
        for app in fillers:
            scenario.add(StartEvent(time_ns=0.0, als=app.als, library=app.library))
        scenario.add(
            StartEvent(time_ns=1_000.0, als=straggler.als, library=straggler.library)
        )
        # Idle drains: stop events for an application that never ran force
        # drain ticks without changing any fingerprint.
        for index in range(5):
            scenario.add(StopEvent(time_ns=2_000.0 + index, application="ghost"))

        decide_calls = []
        original_decide = manager.pipeline.decide

        def counting_decide(als, library=None, *, candidates=None, trace=None):
            decide_calls.append(als.name)
            return original_decide(als, library, candidates=candidates, trace=trace)

        monkeypatch.setattr(manager.pipeline, "decide", counting_decide)
        outcome = WorkloadEngine(manager, park_rejections=True).run(scenario)

        straggler_attempts = decide_calls.count("straggler")
        assert outcome.parked_retries_skipped > 0
        # One parked rejection = at most one in-region attempt plus one full
        # fallback pass; idle drains must not add more.
        assert straggler_attempts <= 2
        assert ("straggler", "rejected") in [
            (r.application, r.status.value) for r in outcome.records
        ]

    def test_parked_request_retries_after_departure(self, manager):
        fillers = [make_app(90 + i, f"filler{i}", "io_l") for i in range(3)]
        straggler = make_app(95, "straggler", "io_l")
        scenario = Scenario("retry", duration_ns=10_000_000.0)
        for app in fillers:
            scenario.add(StartEvent(time_ns=0.0, als=app.als, library=app.library))
        scenario.add(
            StartEvent(time_ns=1_000.0, als=straggler.als, library=straggler.library)
        )
        # Departures free the region: the changed fingerprint un-parks the
        # straggler, which is then admitted.
        for index, app in enumerate(fillers):
            scenario.add(
                StopEvent(time_ns=2_000_000.0 + index, application=app.als.name)
            )
        outcome = WorkloadEngine(manager, park_rejections=True).run(scenario)
        assert "straggler" in outcome.admitted


class TestOutcomeStatusIndex:
    """The lazily built per-status index behind EngineOutcome's accessors."""

    @staticmethod
    def _outcome(count):
        from repro.runtime.engine import EngineOutcome, EngineRecord

        statuses = [
            RequestStatus.ADMITTED,
            RequestStatus.REJECTED,
            RequestStatus.EXPIRED,
            RequestStatus.CANCELLED,
            RequestStatus.SHED,
        ]
        outcome = EngineOutcome(workload="index")
        for ticket in range(count):
            outcome.records.append(
                EngineRecord(
                    time_ns=float(ticket),
                    ticket=ticket,
                    application=f"app{ticket}",
                    status=statuses[ticket % len(statuses)],
                )
            )
        return outcome

    def test_index_matches_linear_scan_at_10k_records(self):
        outcome = self._outcome(10_000)
        for status, accessor in (
            (RequestStatus.ADMITTED, lambda o: o.admitted),
            (RequestStatus.EXPIRED, lambda o: o.expired),
            (RequestStatus.CANCELLED, lambda o: o.cancelled),
            (RequestStatus.SHED, lambda o: o.shed),
        ):
            expected = [r.application for r in outcome.records if r.status is status]
            assert accessor(outcome) == expected
        assert outcome.rejected == [
            (r.application, r.reason)
            for r in outcome.records
            if r.status is RequestStatus.REJECTED
        ]
        assert outcome.decided == 6_000  # admitted + rejected + expired

    def test_index_built_once_and_invalidated_by_append(self):
        from repro.runtime.engine import EngineRecord

        outcome = self._outcome(100)
        assert len(outcome.admitted) == 20
        first_cache = outcome._status_cache
        outcome.rejected, outcome.expired  # further accesses reuse the index
        assert outcome._status_cache is first_cache
        outcome.records.append(
            EngineRecord(
                time_ns=100.0, ticket=100, application="late", status=RequestStatus.ADMITTED
            )
        )
        assert outcome.admitted[-1] == "late"  # append invalidated the index
        assert outcome._status_cache is not first_cache

    def test_accessors_stay_linear_not_quadratic(self):
        # Reporting loops hit every accessor per record; with the index a
        # full sweep over 10k records is ~one scan, without it ~50k scans.
        # Pin behaviour (not wall-clock): count index rebuilds via the
        # cache key.
        outcome = self._outcome(10_000)
        for _ in range(100):
            outcome.admitted
            outcome.rejected
            outcome.shed
        assert outcome._status_cache[0] == 10_000


class _StubJob:
    """A region-lane job stand-in that logs when it runs."""

    def __init__(self, log, label, fail=False):
        self.log = log
        self.label = label
        self.fail = fail
        self.error = None

    def run(self, pipeline):
        self.log.append((self.label, pipeline))
        if self.fail:
            self.error = RuntimeError(self.label)


class TestSerialExecutor:
    def test_lanes_run_in_sorted_name_order(self):
        log = []
        lanes = {name: [_StubJob(log, name)] for name in ("r2", "r0", "r1")}
        SerialRegionExecutor().execute(lanes, "pipeline")
        assert [label for label, _ in log] == ["r0", "r1", "r2"]
        assert all(pipeline == "pipeline" for _, pipeline in log)

    def test_requests_keep_their_order_within_a_lane(self):
        log = []
        lanes = {"r0": [_StubJob(log, f"job{index}") for index in range(4)]}
        SerialRegionExecutor().execute(lanes, None)
        assert [label for label, _ in log] == ["job0", "job1", "job2", "job3"]

    def test_an_error_skips_only_the_rest_of_its_lane(self):
        log = []
        lanes = {
            "r0": [_StubJob(log, "a0"), _StubJob(log, "a1", fail=True), _StubJob(log, "a2")],
            "r1": [_StubJob(log, "b0"), _StubJob(log, "b1")],
        }
        SerialRegionExecutor().execute(lanes, None)
        assert [label for label, _ in log] == ["a0", "a1", "b0", "b1"]
        assert lanes["r0"][2].error is None

    def test_engine_defaults_to_the_serial_executor(self, manager):
        assert isinstance(WorkloadEngine(manager).executor, SerialRegionExecutor)


def _spanning_app(seed, name):
    """An application pinned to both halves: it can only take the global lane."""
    return generate_application(
        seed, TWO_STAGE_CONFIG, name=name, source_tile="io_l", sink_tile="io_r"
    )


def _log_pipeline_calls(manager, monkeypatch):
    """Record (phase, application) for every region-lane decide and full admit."""
    calls = []
    original_decide = manager.pipeline.decide
    original_admit = manager.admit

    def logging_decide(als, library=None, *, candidates=None, **kwargs):
        if candidates is not None:
            calls.append(("region", als.name))
        return original_decide(als, library, candidates=candidates, **kwargs)

    def logging_admit(als, **kwargs):
        calls.append(("serial", als.name))
        return original_admit(als, **kwargs)

    monkeypatch.setattr(manager.pipeline, "decide", logging_decide)
    monkeypatch.setattr(manager, "admit", logging_admit)
    return calls


class TestDrainOrder:
    def test_region_lanes_decide_before_the_serial_phase(self, manager, monkeypatch):
        spanning = _spanning_app(100, "spanning")
        left = make_app(101, "left", "io_l")
        right = make_app(102, "right", "io_r")
        scenario = Scenario("order", duration_ns=1_000_000.0)
        # The global-lane request arrives first, yet runs last.
        for app in (spanning, left, right):
            scenario.add(StartEvent(time_ns=0.0, als=app.als, library=app.library))
        calls = _log_pipeline_calls(manager, monkeypatch)
        outcome = WorkloadEngine(manager).run(scenario)
        assert calls[-1] == ("serial", "spanning")
        assert set(calls[:-1]) == {("region", "left"), ("region", "right")}
        assert outcome.records[-1].application == "spanning"

    def test_serial_phase_runs_in_arrival_order(self, manager, monkeypatch):
        apps = [_spanning_app(110 + index, f"spanning{index}") for index in range(3)]
        scenario = Scenario("serial-order", duration_ns=1_000_000.0)
        for app in reversed(apps):
            scenario.add(StartEvent(time_ns=0.0, als=app.als, library=app.library))
        calls = _log_pipeline_calls(manager, monkeypatch)
        outcome = WorkloadEngine(manager).run(scenario)
        arrival = [app.als.name for app in reversed(apps)]
        assert [name for phase, name in calls if phase == "serial"] == arrival
        assert [record.application for record in outcome.records] == arrival

    def test_lane_admissions_settle_in_arrival_order(self, manager):
        apps = [
            make_app(120, "r_first", "io_r"),
            make_app(121, "l_second", "io_l"),
            make_app(122, "r_third", "io_r"),
        ]
        scenario = Scenario("settle-order", duration_ns=1_000_000.0)
        for app in apps:
            scenario.add(StartEvent(time_ns=0.0, als=app.als, library=app.library))
        outcome = WorkloadEngine(manager).run(scenario)
        # Lane "left" runs before lane "right", but finalisation follows
        # arrival order.
        assert [record.application for record in outcome.records] == [
            "r_first",
            "l_second",
            "r_third",
        ]
        assert [record.ticket for record in outcome.records] == sorted(
            record.ticket for record in outcome.records
        )


class TestFailedDrainRecovery:
    def _explosive(self, manager, monkeypatch):
        good = make_app(130, "good", "io_l")
        exploder = make_app(131, "exploder", "io_r")
        scenario = (
            Scenario("explosive", duration_ns=1_000_000.0)
            .add(StartEvent(time_ns=0.0, als=good.als, library=good.library))
            .add(StartEvent(time_ns=0.0, als=exploder.als, library=exploder.library))
        )
        original_decide = manager.pipeline.decide

        def exploding_decide(als, library=None, *, candidates=None, trace=None):
            if als.name == "exploder":
                raise RuntimeError("mapper exploded")
            return original_decide(als, library, candidates=candidates, trace=trace)

        monkeypatch.setattr(manager.pipeline, "decide", exploding_decide)
        engine = WorkloadEngine(manager)
        with pytest.raises(RuntimeError, match="mapper exploded"):
            engine.run(scenario)
        monkeypatch.setattr(manager.pipeline, "decide", original_decide)
        return engine

    def test_failed_drain_leaves_nothing_in_flight(self, manager, monkeypatch):
        engine = self._explosive(manager, monkeypatch)
        exploder = engine.queue.pending[0]
        assert engine.queue.poll(exploder.ticket).status is RequestStatus.PENDING
        assert all(
            request.status is not RequestStatus.IN_FLIGHT
            for request in engine.queue.pending
        )

    def test_the_same_engine_runs_again_after_a_failed_drain(self, manager, monkeypatch):
        engine = self._explosive(manager, monkeypatch)
        newcomer = make_app(132, "newcomer", "io_l")
        scenario = Scenario("after", duration_ns=1_000_000.0).add(
            StartEvent(time_ns=0.0, als=newcomer.als, library=newcomer.library)
        )
        outcome = engine.run(scenario)
        # The requeued request is decided by the next run's first drain.
        assert sorted(outcome.admitted) == ["exploder", "newcomer"]
        assert len(engine.queue) == 0
        assert manager.is_running("good")

    def test_multi_region_lane_error_unwinds_and_requeues(self, monkeypatch):
        platform = _planner_platform()
        manager = make_manager(
            platform,
            partition=RegionPartition.grid(platform, 2, 2),
            cross_region_planner=True,
        )
        local = generate_application(
            140, PLANNER_CONFIG, name="local", source_tile="io_r0_0", sink_tile="io_r0_0"
        )
        spanning = generate_application(
            141, PLANNER_CONFIG, name="spanning", source_tile="io_r0_0", sink_tile="io_r1_1"
        )
        scenario = (
            Scenario("planner-explodes", duration_ns=1_000_000.0)
            .add(StartEvent(time_ns=0.0, als=local.als, library=local.library))
            .add(StartEvent(time_ns=0.0, als=spanning.als, library=spanning.library))
        )

        def exploding_plan(als, library=None, *, scope=None):
            raise RuntimeError("planner exploded")

        monkeypatch.setattr(manager.pipeline, "decide_interregion", exploding_plan)
        engine = WorkloadEngine(manager)
        with pytest.raises(RuntimeError, match="planner exploded"):
            engine.run(scenario)
        assert manager.is_running("local")
        assert [request.application for request in engine.queue.pending] == ["spanning"]
        assert engine.queue.pending[0].status is RequestStatus.PENDING


def _vetoed(als):
    """A planner rejection, as the multi-region lane would receive it."""
    return AdmissionDecision(als.name, False, "inter-region: test veto", origin="interregion")


class TestMultiRegionLane:
    @staticmethod
    def _planner_manager():
        platform = _planner_platform()
        return make_manager(
            platform,
            partition=RegionPartition.grid(platform, 2, 2),
            cross_region_planner=True,
        )

    @staticmethod
    def _scenario():
        local = generate_application(
            150, PLANNER_CONFIG, name="local", source_tile="io_r0_0", sink_tile="io_r0_0"
        )
        spanning = generate_application(
            151, PLANNER_CONFIG, name="spanning", source_tile="io_r0_0", sink_tile="io_r1_1"
        )
        scenario = (
            Scenario("multi", duration_ns=1_000_000.0)
            .add(StartEvent(time_ns=0.0, als=spanning.als, library=spanning.library))
            .add(StartEvent(time_ns=0.0, als=local.als, library=local.library))
        )
        return scenario, spanning

    def test_the_lane_plans_with_the_planner_scope(self, monkeypatch):
        manager = self._planner_manager()
        scenario, spanning = self._scenario()
        expected = manager.pipeline.interregion.scope_for(spanning.als)
        scopes = []
        original = manager.pipeline.decide_interregion

        def recording_plan(als, library=None, *, scope=None):
            scopes.append((als.name, scope))
            return original(als, library, scope=scope)

        monkeypatch.setattr(manager.pipeline, "decide_interregion", recording_plan)
        outcome = WorkloadEngine(manager).run(scenario)
        assert scopes == [("spanning", expected)]
        assert settled_counts(outcome)[MULTI_REGION_LANE] == {"admitted": 1.0}

    def test_the_lane_runs_between_region_lanes_and_serial_phase(self, monkeypatch):
        manager = self._planner_manager()
        scenario, _ = self._scenario()
        calls = _log_pipeline_calls(manager, monkeypatch)
        original = manager.pipeline.decide_interregion

        def rejecting_plan(als, library=None, *, scope=None):
            calls.append(("multi", als.name))
            original(als, library, scope=scope)
            return _vetoed(als)

        monkeypatch.setattr(manager.pipeline, "decide_interregion", rejecting_plan)
        WorkloadEngine(manager).run(scenario)
        # The spanning request arrived first but is planned after the
        # region lane; its planner rejection then joins the serial phase.
        assert calls == [
            ("region", "local"),
            ("multi", "spanning"),
            ("serial", "spanning"),
        ]

    def test_a_planner_rejection_is_not_replanned_in_the_serial_phase(
        self, monkeypatch
    ):
        manager = self._planner_manager()
        scenario, _ = self._scenario()
        serial_flags = []
        original_admit = manager.admit

        def recording_admit(als, **kwargs):
            serial_flags.append((als.name, kwargs.get("interregion", True)))
            return original_admit(als, **kwargs)

        def rejecting_plan(als, library=None, *, scope=None):
            return _vetoed(als)

        monkeypatch.setattr(manager, "admit", recording_admit)
        monkeypatch.setattr(manager.pipeline, "decide_interregion", rejecting_plan)
        outcome = WorkloadEngine(manager).run(scenario)
        assert serial_flags == [("spanning", False)]
        assert MULTI_REGION_LANE not in settled_counts(outcome)


class TestRunTelemetry:
    def _workload(self, seed, name):
        return two_region_workload(seed, 6 * MILLISECOND, name=name)

    def test_lane_counters_account_for_every_record(self, manager):
        outcome = WorkloadEngine(manager, park_rejections=True).run(
            self._workload(3, "lanes")
        )
        by_status = Counter()
        for statuses in settled_counts(outcome).values():
            by_status.update(statuses)
        # Parked retries are counted, but they are not settlements.
        assert by_status.pop("parked", 0) > 0, "the stream was expected to park"
        assert by_status == Counter(record.status.value for record in outcome.records)

    def test_analysis_telemetry_is_a_per_run_delta(self, manager):
        analysis = manager.pipeline.analysis
        start = analysis.snapshot()
        engine = WorkloadEngine(manager)
        first = engine.run(self._workload(4, "first")).metrics["counters"]
        second = engine.run(self._workload(5, "second")).metrics["counters"]
        end = analysis.snapshot()
        assert first["analysis.simulations_run"] > 0
        for key in end:
            name = f"analysis.{key}"
            assert first[name] + second[name] == end[key] - start[key]

    def test_each_run_counts_into_a_fresh_registry(self, manager):
        engine = WorkloadEngine(manager)
        first = engine.run(self._workload(4, "first"))
        first_registry = engine.metrics
        second = engine.run(self._workload(5, "second"))
        assert engine.metrics is not first_registry
        assert manager.pipeline.metrics is engine.metrics
        assert engine.queue.metrics is engine.metrics
        for outcome in (first, second):
            counters = outcome.metrics["counters"]
            assert counters["queue.submitted"] == len(outcome.records)
            decisions = counters.get("pipeline.decisions[admitted=True]", 0) + counters.get(
                "pipeline.decisions[admitted=False]", 0
            )
            assert outcome.metrics["histograms"]["pipeline.decide_s"]["count"] == decisions

    def test_drain_time_is_part_of_the_run_time(self, manager):
        outcome = WorkloadEngine(manager).run(self._workload(6, "walls"))
        assert outcome.drains > 0
        assert 0.0 < outcome.drain_wall_s <= outcome.wall_clock_s
