"""JSONL export of one run's spans and metrics, plus its validator.

The export is line-delimited JSON so it can be streamed, grepped and
tail-ed; every line carries ``kind`` and ``schema`` fields:

* ``{"kind": "meta", "schema": 1, "workload": ..., "process": "engine",
  "span_count": ..., "trace_count": ...}`` — exactly one, first line.
* ``{"kind": "span", "schema": 1, "trace_id": ..., "span_id": ...,
  "parent_id": ..., "name": ..., "process": ..., "start_ns": ...,
  "end_ns": ..., "attrs": {...}}`` — one per finished span.
* ``{"kind": "metric", "schema": 1, "metric": "counter"|"gauge"|
  "histogram", "name": ..., ...}`` — one per instrument.

:func:`validate_export` is the CI smoke's teeth: beyond JSON
well-formedness it checks referential integrity (every ``parent_id``
resolves to a span of the same trace), temporal sanity (``end >= start``),
and containment (every child span nests inside its parent's window).
"""

from __future__ import annotations

import json
from typing import IO, Iterable

from .trace import SpanRecord

__all__ = ["SCHEMA_VERSION", "write_export", "validate_export", "read_export"]

SCHEMA_VERSION = 1

#: Slack allowed when checking that a child span nests inside its parent.
#: Sub-microsecond skew arises legitimately: a stage span's window is
#: stamped by separate ``perf_counter_ns`` calls from the span that wraps
#: it.
_NEST_SLACK_NS = 1_000


def write_export(
    path: str,
    spans: Iterable[SpanRecord],
    *,
    metrics: dict[str, dict[str, object]] | None = None,
    workload: str | None = None,
) -> int:
    """Write one run's observability artifact; returns the line count."""
    span_list = list(spans)
    lines = 0
    with open(path, "w", encoding="utf-8") as handle:
        meta = {
            "kind": "meta",
            "schema": SCHEMA_VERSION,
            "workload": workload,
            "span_count": len(span_list),
            "trace_count": len({span.trace_id for span in span_list}),
        }
        handle.write(json.dumps(meta) + "\n")
        lines += 1
        for span in span_list:
            handle.write(json.dumps(_span_line(span)) + "\n")
            lines += 1
        if metrics is not None:
            for line in _metric_lines(metrics):
                handle.write(json.dumps(line) + "\n")
                lines += 1
    return lines


def _span_line(span: SpanRecord) -> dict[str, object]:
    return {
        "kind": "span",
        "schema": SCHEMA_VERSION,
        "trace_id": span.trace_id,
        "span_id": span.span_id,
        "parent_id": span.parent_id,
        "name": span.name,
        "process": span.process,
        "start_ns": span.start_ns,
        "end_ns": span.end_ns,
        "attrs": dict(span.attrs),
    }


def _metric_lines(
    metrics: dict[str, dict[str, object]],
) -> Iterable[dict[str, object]]:
    for name, value in sorted(metrics.get("counters", {}).items()):
        yield {
            "kind": "metric",
            "schema": SCHEMA_VERSION,
            "metric": "counter",
            "name": name,
            "value": value,
        }
    for name, value in sorted(metrics.get("gauges", {}).items()):
        yield {
            "kind": "metric",
            "schema": SCHEMA_VERSION,
            "metric": "gauge",
            "name": name,
            "value": value,
        }
    for name, data in sorted(metrics.get("histograms", {}).items()):
        yield {
            "kind": "metric",
            "schema": SCHEMA_VERSION,
            "metric": "histogram",
            "name": name,
            "bounds": data["bounds"],
            "buckets": data["buckets"],
            "sum": data["sum"],
            "count": data["count"],
        }


def read_export(
    source: str | IO[str],
) -> tuple[dict[str, object], list[SpanRecord], list[dict[str, object]]]:
    """Parse an export file into (meta, spans, metric lines)."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            return read_export(handle)
    meta: dict[str, object] = {}
    spans: list[SpanRecord] = []
    metrics: list[dict[str, object]] = []
    for line in source:
        line = line.strip()
        if not line:
            continue
        payload = json.loads(line)
        kind = payload.get("kind")
        if kind == "meta":
            meta = payload
        elif kind == "span":
            spans.append(
                SpanRecord(
                    trace_id=payload["trace_id"],
                    span_id=payload["span_id"],
                    parent_id=payload.get("parent_id"),
                    name=payload["name"],
                    process=payload["process"],
                    start_ns=payload["start_ns"],
                    end_ns=payload["end_ns"],
                    attrs=tuple(sorted(payload.get("attrs", {}).items())),
                )
            )
        elif kind == "metric":
            metrics.append(payload)
        else:
            raise ValueError(f"unknown export line kind: {kind!r}")
    return meta, spans, metrics


def validate_export(path: str) -> list[str]:
    """Validate an export file; returns a list of problems (empty = valid).

    Checks, per line: known ``kind`` and matching ``schema`` version; for
    spans: unique ids, resolvable parents within the same trace,
    ``end >= start``, and child windows nested inside their parent's
    window (within sub-microsecond stamp slack).  The meta line's counts
    must match the body.
    """
    problems: list[str] = []
    try:
        meta, spans, metrics = read_export(path)
    except (ValueError, KeyError, json.JSONDecodeError) as exc:
        return [f"unparseable export: {exc}"]

    if not meta:
        problems.append("missing meta line")
    elif meta.get("schema") != SCHEMA_VERSION:
        problems.append(
            f"meta schema {meta.get('schema')!r} != {SCHEMA_VERSION}"
        )
    if meta and meta.get("span_count") != len(spans):
        problems.append(
            f"meta span_count {meta.get('span_count')} != {len(spans)} spans"
        )
    if meta and meta.get("trace_count") != len({s.trace_id for s in spans}):
        problems.append("meta trace_count disagrees with span lines")

    by_id: dict[str, SpanRecord] = {}
    for span in spans:
        if span.span_id in by_id:
            problems.append(f"duplicate span_id {span.span_id}")
        by_id[span.span_id] = span
        if span.end_ns < span.start_ns:
            problems.append(f"span {span.span_id} ({span.name}): end < start")

    for span in spans:
        if span.parent_id is None:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            problems.append(
                f"span {span.span_id} ({span.name}): parent "
                f"{span.parent_id} not in export"
            )
            continue
        if parent.trace_id != span.trace_id:
            problems.append(
                f"span {span.span_id}: parent {span.parent_id} belongs to "
                f"another trace"
            )
            continue
        if (
            span.start_ns < parent.start_ns - _NEST_SLACK_NS
            or span.end_ns > parent.end_ns + _NEST_SLACK_NS
        ):
            problems.append(
                f"span {span.span_id} ({span.name}, {span.process}) escapes "
                f"parent {parent.span_id} ({parent.name}) window"
            )

    for line in metrics:
        if line.get("metric") not in ("counter", "gauge", "histogram"):
            problems.append(f"unknown metric kind {line.get('metric')!r}")
        elif line["metric"] == "histogram":
            if len(line.get("buckets", [])) != len(line.get("bounds", [])) + 1:
                problems.append(
                    f"histogram {line.get('name')!r}: bucket/bound mismatch"
                )
    return problems
