"""Unit tests of the observability layer: tracer, metrics, export, report.

These pin the obs package's own contracts — span identity, deterministic
sampling, the registry's instruments, export
round-trips and the validator's teeth — independently of the engine
integration (covered by ``tests/integration/test_obs_pipeline.py``).
"""

import io
import json
import threading

import pytest

from repro.obs import (
    NULL_TRACER,
    ObsConfig,
    SpanRecord,
    TraceContext,
    Tracer,
    read_export,
    validate_export,
    write_export,
)
from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS_S,
    Histogram,
    MetricsRegistry,
    pivot,
    split_name,
)
from repro.obs.report import main as report_main, slowest_requests, stage_breakdown


# --------------------------------------------------------------------------- #
# Tracer
# --------------------------------------------------------------------------- #
class TestTracer:
    def test_span_tree_identity(self):
        tracer = Tracer(ObsConfig())
        root_ctx = tracer.context_for("w:1")
        assert root_ctx is not None and root_ctx.parent_span_id is None
        root = tracer.start("request", root_ctx, start_ns=100)
        child = tracer.start("decide", root.context(), start_ns=110)
        tracer.end(child, end_ns=150)
        tracer.end(root, end_ns=200)
        spans = tracer.drain()
        assert [s.name for s in spans] == ["decide", "request"]
        decide, request = spans
        assert decide.parent_id == request.span_id
        assert request.parent_id is None
        assert decide.trace_id == request.trace_id == "w:1"
        assert request.span_id.startswith("engine:")

    def test_drain_clears_buffer(self):
        tracer = Tracer(ObsConfig())
        ctx = tracer.context_for("w:1")
        tracer.record("x", ctx, 0, 1)
        assert len(tracer) == 1
        assert len(tracer.drain()) == 1
        assert tracer.drain() == []

    def test_record_preserves_given_window_and_attrs(self):
        tracer = Tracer(ObsConfig(), process="worker-3")
        ctx = TraceContext("w:2", parent_span_id="engine:9")
        record = tracer.record("cache_lookup", ctx, 5, 9, attrs={"hit": True})
        assert (record.start_ns, record.end_ns) == (5, 9)
        assert record.parent_id == "engine:9"
        assert record.process == "worker-3"
        assert dict(record.attrs) == {"hit": True}
        assert record.duration_ns == 4

    def test_duration_never_negative(self):
        span = SpanRecord("t", "p:1", None, "x", "p", start_ns=10, end_ns=3)
        assert span.duration_ns == 0

    def test_sampling_deterministic_and_seeded(self):
        low = Tracer(ObsConfig(sample_rate=0.5, seed=1))
        twin = Tracer(ObsConfig(sample_rate=0.5, seed=1))
        other_seed = Tracer(ObsConfig(sample_rate=0.5, seed=2))
        ids = [f"w:{i}" for i in range(200)]
        verdicts = [low.sampled(t) for t in ids]
        assert verdicts == [twin.sampled(t) for t in ids]
        assert verdicts != [other_seed.sampled(t) for t in ids]
        # a 0.5 rate should sample *some* but not all of 200 ids
        assert 0 < sum(verdicts) < len(ids)

    def test_sample_rate_extremes(self):
        assert Tracer(ObsConfig(sample_rate=1.0)).sampled("anything")
        assert not Tracer(ObsConfig(sample_rate=0.0)).sampled("anything")
        assert Tracer(ObsConfig(sample_rate=0.0)).context_for("w:1") is None

    def test_null_tracer_disabled(self):
        assert not NULL_TRACER.enabled
        assert not NULL_TRACER.sampled("w:1")
        assert NULL_TRACER.context_for("w:1") is None

    def test_invalid_sample_rate_rejected(self):
        with pytest.raises(ValueError):
            ObsConfig(sample_rate=1.5)

    def test_context_child_reparents(self):
        ctx = TraceContext("w:7")
        child = ctx.child("engine:4")
        assert child.trace_id == "w:7"
        assert child.parent_span_id == "engine:4"
        assert ctx.parent_span_id is None  # original untouched


# --------------------------------------------------------------------------- #
# Metrics
# --------------------------------------------------------------------------- #
    def test_concurrent_recording_keeps_every_span_once(self):
        # Client threads and the engine thread may record into one tracer.
        tracer = Tracer(ObsConfig())
        barrier = threading.Barrier(4)

        def client(index):
            barrier.wait(timeout=5.0)
            context = tracer.context_for(f"w:{index}")
            for step in range(200):
                tracer.record("step", context, step, step + 1)

        threads = [threading.Thread(target=client, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        spans = tracer.drain()
        assert len(spans) == 800
        assert len({span.span_id for span in spans}) == 800
        assert {span.trace_id for span in spans} == {f"w:{i}" for i in range(4)}


class TestMetricsRegistry:
    def test_counter_accumulates(self):
        registry = MetricsRegistry()
        registry.count("a")
        registry.count("a", 2.0)
        assert registry.counter_value("a") == 3.0
        assert registry.counter_value("missing") == 0

    def test_concurrent_counts_and_observations_are_exact(self):
        registry = MetricsRegistry()
        barrier = threading.Barrier(4)

        def client():
            barrier.wait(timeout=5.0)
            for _ in range(500):
                registry.count("clients.calls")
                registry.observe("clients.latency_s", 0.001)

        threads = [threading.Thread(target=client) for _ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
        assert registry.counter_value("clients.calls") == 2000
        assert registry.histogram_for("clients.latency_s").count == 2000

    def test_snapshot_is_a_copy(self):
        registry = MetricsRegistry()
        registry.count("a")
        registry.gauge("depth", 4.0)
        registry.observe("lat", 0.002)
        snapshot = registry.snapshot()
        registry.count("a")
        registry.gauge("depth", 9.0)
        registry.observe("lat", 0.002)
        assert snapshot["counters"] == {"a": 1.0}
        assert snapshot["gauges"] == {"depth": 4.0}
        assert snapshot["histograms"]["lat"]["count"] == 1

    def test_pivot_tables_labelled_counters(self):
        counters = {
            "engine.settled[lane=r0,status=admitted]": 3.0,
            "engine.settled[lane=r0,status=parked]": 1.0,
            "engine.settled[lane=__global__,status=rejected]": 2.0,
            "engine.request_count": 7.0,
            "queue.claimed": 5.0,
        }
        assert pivot(counters, "engine.settled", "lane", "status") == {
            "r0": {"admitted": 3.0, "parked": 1.0},
            "__global__": {"rejected": 2.0},
        }
        assert pivot(counters, "queue.depth", "lane", "status") == {}

    def test_histogram_quantile(self):
        hist = Histogram()
        for _ in range(95):
            hist.observe(0.0002)
        for _ in range(5):
            hist.observe(0.3)
        assert hist.quantile(0.5) == 0.00025  # upper bound of the holding bucket
        assert hist.quantile(0.99) == 0.5
        assert Histogram().quantile(0.5) == 0.0

    def test_histogram_overflow_bucket(self):
        hist = Histogram()
        hist.observe(99.0)  # beyond the largest bound
        assert hist.buckets[-1] == 1
        assert len(hist.buckets) == len(DEFAULT_LATENCY_BUCKETS_S) + 1

    def test_split_name(self):
        assert split_name("a.b") == ("a.b", {})
        assert split_name("a.b[x=1,y=r0]") == ("a.b", {"x": "1", "y": "r0"})
        assert split_name("weird]") == ("weird]", {})


# --------------------------------------------------------------------------- #
# Export + validator
# --------------------------------------------------------------------------- #
def _tree_spans():
    root = SpanRecord("w:1", "engine:1", None, "request", "engine", 100, 900)
    decide = SpanRecord("w:1", "engine:2", "engine:1", "decide", "engine", 150, 800)
    step = SpanRecord("w:1", "engine:3", "engine:2", "mapper.step1", "engine", 160, 400)
    return [root, decide, step]


class TestExport:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        registry = MetricsRegistry()
        registry.count("jobs", 3)
        registry.gauge("depth", 2.0)
        registry.observe("lat", 0.001)
        lines = write_export(path, _tree_spans(), metrics=registry.snapshot(), workload="demo")
        meta, spans, metrics = read_export(path)
        assert lines == 1 + 3 + 3  # meta + spans + one line per instrument
        assert meta["workload"] == "demo"
        assert meta["span_count"] == 3 and meta["trace_count"] == 1
        assert spans == _tree_spans()
        assert {m["metric"] for m in metrics} == {"counter", "gauge", "histogram"}

    def test_valid_export_passes(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_export(path, _tree_spans())
        assert validate_export(path) == []

    def test_unresolvable_parent_flagged(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        orphan = SpanRecord("w:1", "engine:9", "engine:404", "x", "engine", 0, 1)
        write_export(path, _tree_spans() + [orphan])
        problems = validate_export(path)
        assert any("parent engine:404 not in export" in p for p in problems)

    def test_cross_trace_parent_flagged(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        stray = SpanRecord("w:2", "engine:9", "engine:1", "x", "engine", 100, 200)
        write_export(path, _tree_spans() + [stray])
        problems = validate_export(path)
        assert any("belongs to another trace" in p for p in problems)

    def test_escaping_child_flagged(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        # ends 1 ms after its parent — far beyond the nesting slack
        escapee = SpanRecord("w:1", "engine:9", "engine:1", "x", "engine", 100, 1_000_900)
        write_export(path, _tree_spans() + [escapee])
        problems = validate_export(path)
        assert any("escapes parent" in p for p in problems)

    def test_time_reversal_flagged(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        backwards = SpanRecord("w:2", "engine:9", None, "x", "engine", 500, 100)
        write_export(path, _tree_spans() + [backwards])
        problems = validate_export(path)
        assert any("end < start" in p for p in problems)

    def test_tampered_meta_count_flagged(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        write_export(path, _tree_spans())
        lines = open(path).read().splitlines()
        meta = json.loads(lines[0])
        meta["span_count"] = 99
        with open(path, "w") as handle:
            handle.write("\n".join([json.dumps(meta)] + lines[1:]) + "\n")
        assert any("span_count" in p for p in validate_export(path))

    def test_garbage_file_reported_not_raised(self, tmp_path):
        path = str(tmp_path / "junk.jsonl")
        with open(path, "w") as handle:
            handle.write("{not json\n")
        problems = validate_export(path)
        assert problems and "unparseable" in problems[0]

    def test_read_export_from_stream(self):
        buffer = io.StringIO()
        buffer.write(json.dumps({"kind": "meta", "schema": 1, "span_count": 0}) + "\n")
        buffer.seek(0)
        meta, spans, metrics = read_export(buffer)
        assert meta["span_count"] == 0 and spans == [] and metrics == []


# --------------------------------------------------------------------------- #
# Report
# --------------------------------------------------------------------------- #
class TestReport:
    def test_stage_breakdown_aggregates_by_name(self):
        spans = _tree_spans() + [
            SpanRecord("w:2", "engine:4", None, "request", "engine", 0, 1000),
        ]
        rows = stage_breakdown(spans)
        by_name = {row[0]: row for row in rows}
        assert by_name["request"][1] == 2  # two request spans aggregated
        # sorted by total descending
        totals = [row[2] for row in rows]
        assert totals == sorted(totals, reverse=True)

    def test_slowest_requests_picks_dominant_leaf(self):
        rows = slowest_requests(_tree_spans(), top=5)
        assert rows[0][0] == "w:1"
        assert rows[0][2] == "mapper.step1"  # the only leaf

    def test_cli_renders_and_validates(self, tmp_path, capsys):
        path = str(tmp_path / "trace.jsonl")
        write_export(path, _tree_spans(), workload="demo")
        assert report_main([path, "--validate"]) == 0
        out = capsys.readouterr().out
        assert "Per-stage latency breakdown" in out
        assert "valid" in out

    def test_cli_validate_fails_on_bad_export(self, tmp_path, capsys):
        path = str(tmp_path / "bad.jsonl")
        orphan = SpanRecord("w:1", "engine:9", "engine:404", "x", "engine", 0, 1)
        write_export(path, _tree_spans() + [orphan])
        assert report_main([path, "--validate"]) == 1
        assert "INVALID" in capsys.readouterr().err
