"""End-to-end acceptance of the unified tracing & metrics layer.

The observability layer's contract, pinned against real engine runs:

* **Decision-inert** — with tracing and metrics fully on (sample rate 1.0)
  the engine settles every request identically to an obs-off run.
* **One connected tree per request** — a sampled request's spans form a
  single tree rooted at the engine's ``request`` span, through ``decide``
  to the mapper steps, with every child inside its parent's window.
* **Exportable** — ``write_export`` + ``validate_export`` round-trips a
  real run with zero problems, and the report CLI renders it.
* **One store** — every run, traced or not, counts into its metrics
  registry: an obs-off run reports the same counters as a fully traced
  one, and the registry accounts for every settled request.
"""

from repro.obs import ObsConfig, validate_export, write_export
from repro.obs.report import main as report_main
from repro.platform.regions import RegionPartition
from repro.runtime.engine import MULTI_REGION_LANE, WorkloadEngine
from repro.runtime.manager import RuntimeResourceManager
from repro.spatialmapper.config import MapperConfig
from repro.workloads.arrivals import cross_region_classes, generate_workload
from repro.workloads.synthetic import SyntheticConfig, generate_region_mesh
from tests.harness import MILLISECOND, make_manager, settled_counts, two_region_workload


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


def test_obs_off_records_no_spans_but_keeps_its_metrics():
    outcome = _run()
    assert outcome.spans == []
    counters = outcome.metrics["counters"]
    # The lane and analysis counters are the run's record, not tracing:
    # they are there with obs fully off.
    assert settled_counts(outcome)
    assert counters["analysis.simulations_run"] > 0
    assert "engine.request_latency_s" not in outcome.metrics["histograms"]


def test_obs_off_and_traced_runs_count_identically():
    untraced = _run()
    traced = _run(obs=ObsConfig(sample_rate=1.0))
    assert traced.metrics["counters"] == untraced.metrics["counters"]
    assert (
        traced.metrics["histograms"]["pipeline.decide_s"]["count"]
        == untraced.metrics["histograms"]["pipeline.decide_s"]["count"]
    )


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
    assert not any(name.startswith("governor.") for name in gauges)  # no governor
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
    assert settled_counts(outcome)[MULTI_REGION_LANE]["admitted"] > 0


def test_run_metrics_match_the_records_and_the_analysis_engine():
    manager = make_manager()
    start = manager.pipeline.analysis.snapshot()
    outcome = WorkloadEngine(manager, obs=ObsConfig(sample_rate=1.0)).run(
        two_region_workload(7, 12 * MILLISECOND, name="obs-accept")
    )
    end = manager.pipeline.analysis.snapshot()
    counters = outcome.metrics["counters"]
    for status in ("admitted", "rejected", "expired", "cancelled", "shed"):
        settled = sum(
            statuses.get(status, 0) for statuses in settled_counts(outcome).values()
        )
        assert settled == sum(
            1 for record in outcome.records if record.status.value == status
        )
    for key, value in end.items():
        assert counters[f"analysis.{key}"] == value - start[key]
