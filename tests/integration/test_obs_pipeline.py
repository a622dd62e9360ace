"""End-to-end acceptance of the unified tracing & metrics layer.

The observability layer's contract, pinned against real engine runs:

* **Decision-inert** — with tracing and metrics fully on (sample rate 1.0)
  the engine settles every request identically to an obs-off run.
* **One connected tree per request** — a sampled request's spans form a
  single tree rooted at the engine's ``request`` span, through ``decide``
  to the mapper steps, with every child inside its parent's window.
* **Exportable** — ``write_export`` + ``validate_export`` round-trips a
  real run with zero problems, and the report CLI renders it.
* **Analysis totals** — an obs-off run still reports the step-4 analysis
  counters.
* **Metrics match telemetry** — the run's registry counts exactly what the
  engine's telemetry accounts, lane by lane.
"""

from repro.obs import ObsConfig, validate_export, write_export
from repro.obs.report import main as report_main
from repro.platform.regions import RegionPartition
from repro.runtime.engine import MULTI_REGION_LANE, WorkloadEngine
from repro.runtime.manager import RuntimeResourceManager
from repro.spatialmapper.config import MapperConfig
from repro.workloads.arrivals import cross_region_classes, generate_workload
from repro.workloads.synthetic import SyntheticConfig, generate_region_mesh
from tests.harness import MILLISECOND, make_manager, two_region_workload


def _run(seed=7, *, obs=None):
    engine = WorkloadEngine(make_manager(), obs=obs)
    return engine.run(two_region_workload(seed, 12 * MILLISECOND, name="obs-accept"))


def _decision_log(outcome):
    return [
        (record.ticket, record.application, record.status.value, record.reason)
        for record in outcome.records
    ]


# --------------------------------------------------------------------------- #
# Decision inertness
# --------------------------------------------------------------------------- #
def test_obs_on_is_decision_inert():
    baseline = _run()
    traced = _run(obs=ObsConfig(sample_rate=1.0))
    assert _decision_log(traced) == _decision_log(baseline)
    # and the traced run actually traced: one root span per settled request
    roots = [span for span in traced.spans if span.parent_id is None]
    assert len(roots) == len(traced.records)


def test_partial_sampling_is_decision_inert_and_subsets():
    baseline = _run()
    sampled = _run(obs=ObsConfig(sample_rate=0.4, seed=3))
    assert _decision_log(sampled) == _decision_log(baseline)
    traced_ids = {span.trace_id for span in sampled.spans}
    all_ids = {f"obs-accept:{record.ticket}" for record in baseline.records}
    assert traced_ids < all_ids  # strict subset: some but not all at 0.4
    assert traced_ids


def test_obs_off_publishes_nothing_but_analysis_survives():
    outcome = _run()
    assert outcome.spans == []
    assert outcome.metrics is None
    # satellite: analysis counters are telemetry, not observability — they
    # must be populated with obs fully off.
    assert outcome.telemetry.analysis.get("simulations_run", 0) > 0


# --------------------------------------------------------------------------- #
# Span trees
# --------------------------------------------------------------------------- #
def test_run_produces_connected_nested_trees():
    outcome = _run(obs=ObsConfig(sample_rate=1.0))
    spans = outcome.spans
    by_id = {span.span_id: span for span in spans}

    # Every span's parent resolves within the same trace — one connected
    # tree per trace id, rooted at the engine's request span — and every
    # child lies inside its parent's window (the validator's slack applies
    # to stamping skew).
    slack = 1_000
    for span in spans:
        if span.parent_id is None:
            assert span.name == "request"
            continue
        parent = by_id[span.parent_id]
        assert parent.trace_id == span.trace_id
        assert span.start_ns >= parent.start_ns - slack
        assert span.end_ns <= parent.end_ns + slack

    # The mapper's staged pipeline shows up under the decides.
    names = {span.name for span in spans}
    assert {"decide", "queue_wait"} <= names
    assert any(name.startswith("mapper.step") for name in names)
    assert any(name.startswith("map:") for name in names)


def test_export_of_real_run_validates_and_reports(tmp_path, capsys):
    outcome = _run(obs=ObsConfig(sample_rate=1.0))
    path = str(tmp_path / "run.jsonl")
    write_export(path, outcome.spans, metrics=outcome.metrics, workload=outcome.workload)
    assert validate_export(path) == []
    assert report_main([path, "--validate"]) == 0
    out = capsys.readouterr().out
    assert "Per-stage latency breakdown" in out
    assert "slowest requests" in out


def test_run_metrics_cover_every_island():
    outcome = _run(obs=ObsConfig(sample_rate=1.0))
    counters = outcome.metrics["counters"]
    gauges = outcome.metrics["gauges"]
    histograms = outcome.metrics["histograms"]
    assert any(name.startswith("engine.settled[") for name in counters)
    assert any(name.startswith("analysis.") for name in counters)
    assert any(name.startswith("queue.") for name in counters)
    assert "governor.admission_rate" in gauges or not outcome.telemetry.governor
    assert "engine.request_latency_s" in histograms
    assert histograms["engine.request_latency_s"]["count"] == len(outcome.records)


def test_span_ids_are_unique_and_roots_name_their_tickets():
    outcome = _run(obs=ObsConfig(sample_rate=1.0))
    assert len({span.span_id for span in outcome.spans}) == len(outcome.spans)
    roots = [span for span in outcome.spans if span.parent_id is None]
    tickets = sorted(dict(root.attrs)["ticket"] for root in roots)
    assert tickets == sorted(record.ticket for record in outcome.records)
    for root in roots:
        assert root.trace_id == f"obs-accept:{dict(root.attrs)['ticket']}"


def test_multi_region_lane_plans_hang_off_their_requests():
    platform = generate_region_mesh(2, 4)
    manager = RuntimeResourceManager(
        platform,
        config=MapperConfig(analysis_iterations=3),
        partition=RegionPartition.grid(platform, 2, 2),
        cross_region_planner=True,
    )
    classes = cross_region_classes(
        2,
        400.0,
        config=SyntheticConfig(stages=4, period_ns=100_000.0, tile_types=("GPP", "DSP")),
        hold_range_ns=(3e6, 8e6),
    )
    workload = generate_workload(78, 6e6, classes, name="obs-multi")
    outcome = WorkloadEngine(manager, obs=ObsConfig(sample_rate=1.0)).run(workload)
    by_id = {span.span_id: span for span in outcome.spans}
    plans = [span for span in outcome.spans if span.name == "interregion_plan"]
    assert plans
    for plan in plans:
        parent = by_id[plan.parent_id]
        assert parent.name == "request" and parent.trace_id == plan.trace_id
    assert outcome.telemetry.lanes[MULTI_REGION_LANE].admitted > 0


def test_run_metrics_match_the_engine_telemetry():
    outcome = _run(obs=ObsConfig(sample_rate=1.0))
    counters = outcome.metrics["counters"]
    for lane, lane_counters in outcome.telemetry.lanes.items():
        for status in ("admitted", "rejected", "expired", "cancelled", "shed", "parked"):
            name = f"engine.settled[lane={lane},status={status}]"
            assert counters.get(name, 0.0) == getattr(lane_counters, status)
    for key, value in outcome.telemetry.analysis.items():
        assert counters.get(f"analysis.{key}", 0.0) == value
