"""Unified observability: request-scoped tracing plus a metrics registry.

The admission path's one answer to "where did this request's 40 ms go?":

* :mod:`~repro.obs.trace` — per-request span trees with deterministic
  head-based sampling.
* :mod:`~repro.obs.metrics` — counters / gauges / fixed-bucket histograms:
  the one store of what an engine run did.
* :mod:`~repro.obs.export` — versioned JSONL export and its validator.
* :mod:`~repro.obs.report` — ``python -m repro.obs.report`` latency CLI.
"""

from .export import SCHEMA_VERSION, read_export, validate_export, write_export
from .metrics import DEFAULT_LATENCY_BUCKETS_S, Histogram, MetricsRegistry
from .trace import (
    NULL_TRACER,
    ObsConfig,
    Span,
    SpanRecord,
    TraceContext,
    Tracer,
)

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "Histogram",
    "MetricsRegistry",
    "NULL_TRACER",
    "ObsConfig",
    "SCHEMA_VERSION",
    "Span",
    "SpanRecord",
    "TraceContext",
    "Tracer",
    "read_export",
    "validate_export",
    "write_export",
]
