"""Request-scoped tracing for the admission path.

The run's metrics registry answers *aggregate* questions; it cannot
answer "where did *this* request's 40 ms go?".  This module is that
answer: a :class:`Tracer` produces per-request **span trees** keyed by a
stable trace id (workload + ticket), with one span per pipeline stage —
queue wait, governor check, region selection, cache lookup, the four mapper
steps (the paper's algorithm is explicitly staged, so stage-level spans map
1:1 onto it), commit and inter-region planning.

Design constraints, in order:

* **Decision-inert.**  The tracer only ever observes; it never feeds a
  decision.  Sampling is a pure hash of the trace id (no shared RNG
  state), so an obs-on run makes bit-identical decisions to an obs-off
  run — the differential suites pin this.
* **Near-zero cost when disabled.**  A disabled tracer short-circuits on
  :attr:`Tracer.enabled`; hot call sites guard on it (or on a ``None``
  trace context) before touching any span machinery.

Span timestamps are ``time.perf_counter_ns()`` values of the engine's
process.
"""

from __future__ import annotations

import threading
import time
import zlib
from dataclasses import dataclass, field

__all__ = [
    "ObsConfig",
    "SpanRecord",
    "Span",
    "TraceContext",
    "Tracer",
    "NULL_TRACER",
]


@dataclass(frozen=True)
class ObsConfig:
    """Tunables of the observability layer.

    Parameters
    ----------
    enabled:
        Master switch of tracing.  Disabled, every tracer operation is a
        guarded no-op and the engine records no spans.  The engine's
        per-run metrics registry does not depend on it.
    sample_rate:
        Head-based sampling probability in ``[0, 1]``.  The sampling
        decision is a pure hash of ``(seed, trace_id)`` — deterministic
        across runs, and made once when the request
        is submitted (children inherit it via the trace context).
    seed:
        Salt of the sampling hash; two runs with equal seeds sample the
        same trace ids.
    """

    enabled: bool = True
    sample_rate: float = 1.0
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.sample_rate <= 1.0:
            raise ValueError("sample_rate must be in [0, 1]")


@dataclass(frozen=True)
class SpanRecord:
    """One finished span — plain picklable data, the export unit.

    ``span_id`` / ``parent_id`` are strings of the form
    ``"<process>:<counter>"``, unique within a run.  ``start_ns`` /
    ``end_ns`` are ``perf_counter_ns`` values.
    """

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    process: str
    start_ns: int
    end_ns: int
    attrs: tuple[tuple[str, object], ...] = ()

    @property
    def duration_ns(self) -> int:
        """Span duration in nanoseconds (never negative)."""
        return max(0, self.end_ns - self.start_ns)


@dataclass(frozen=True)
class TraceContext:
    """The handle of one sampled request's trace.

    Spans recorded under a context parent onto :attr:`parent_span_id`.  An
    unsampled request has no context at all (``None`` travels instead),
    which is what keeps the disabled / unsampled path allocation-free.
    """

    trace_id: str
    parent_span_id: str | None = None

    def child(self, parent_span_id: str) -> "TraceContext":
        """The same trace, re-parented under ``parent_span_id``."""
        return TraceContext(self.trace_id, parent_span_id)


@dataclass
class Span:
    """One in-flight span; finished via :meth:`Tracer.end`."""

    trace_id: str
    span_id: str
    parent_id: str | None
    name: str
    process: str
    start_ns: int
    attrs: dict[str, object] = field(default_factory=dict)

    def context(self) -> TraceContext:
        """A trace context whose children parent onto this span."""
        return TraceContext(self.trace_id, self.span_id)


class Tracer:
    """Produces, collects and hands out the spans of one process.

    Thread-safe, like the :class:`~repro.obs.metrics.MetricsRegistry`
    beside it: the engine thread records while client threads submit,
    poll and cancel.  Finished spans accumulate in an internal buffer until
    :meth:`drain` hands them over; the engine drains once per run.
    """

    def __init__(self, config: ObsConfig | None = None, *, process: str = "engine") -> None:
        self.config = config or ObsConfig()
        self.process = process
        self._lock = threading.Lock()
        self._spans: list[SpanRecord] = []
        self._next_id = 0

    # ------------------------------------------------------------------ #
    @property
    def enabled(self) -> bool:
        """Whether this tracer records anything at all."""
        return self.config.enabled

    def sampled(self, trace_id: str) -> bool:
        """Head-based sampling verdict for one trace id.

        A pure, seeded hash — deterministic across runs, and independent
        of any decision-bearing RNG.  ``sample_rate=1.0``
        traces everything, ``0.0`` nothing.
        """
        if not self.config.enabled:
            return False
        rate = self.config.sample_rate
        if rate >= 1.0:
            return True
        if rate <= 0.0:
            return False
        digest = zlib.crc32(f"{self.config.seed}:{trace_id}".encode("utf-8"))
        return digest / 2**32 < rate

    def context_for(self, trace_id: str) -> TraceContext | None:
        """A root trace context for ``trace_id``, or ``None`` when unsampled."""
        if not self.sampled(trace_id):
            return None
        return TraceContext(trace_id)

    # ------------------------------------------------------------------ #
    def _span_id(self) -> str:
        with self._lock:
            self._next_id += 1
            return f"{self.process}:{self._next_id}"

    def start(
        self,
        name: str,
        trace: TraceContext,
        *,
        start_ns: int | None = None,
        attrs: dict[str, object] | None = None,
    ) -> Span:
        """Open a span under ``trace`` (caller guarantees the trace is sampled)."""
        return Span(
            trace_id=trace.trace_id,
            span_id=self._span_id(),
            parent_id=trace.parent_span_id,
            name=name,
            process=self.process,
            start_ns=start_ns if start_ns is not None else time.perf_counter_ns(),
            attrs=dict(attrs) if attrs else {},
        )

    def end(self, span: Span, *, end_ns: int | None = None) -> SpanRecord:
        """Finish a span and append it to the buffer."""
        record = SpanRecord(
            trace_id=span.trace_id,
            span_id=span.span_id,
            parent_id=span.parent_id,
            name=span.name,
            process=span.process,
            start_ns=span.start_ns,
            end_ns=end_ns if end_ns is not None else time.perf_counter_ns(),
            attrs=tuple(sorted(span.attrs.items())),
        )
        with self._lock:
            self._spans.append(record)
        return record

    def record(
        self,
        name: str,
        trace: TraceContext,
        start_ns: int,
        end_ns: int,
        *,
        attrs: dict[str, object] | None = None,
    ) -> SpanRecord:
        """Append an already-timed span (e.g. rebuilt from mapper timestamps)."""
        record = SpanRecord(
            trace_id=trace.trace_id,
            span_id=self._span_id(),
            parent_id=trace.parent_span_id,
            name=name,
            process=self.process,
            start_ns=start_ns,
            end_ns=end_ns,
            attrs=tuple(sorted(attrs.items())) if attrs else (),
        )
        with self._lock:
            self._spans.append(record)
        return record

    def drain(self) -> list[SpanRecord]:
        """Hand over (and clear) every span recorded since the last drain."""
        with self._lock:
            spans, self._spans = self._spans, []
        return spans

    def __len__(self) -> int:
        with self._lock:
            return len(self._spans)


#: The shared disabled tracer: every guarded call site short-circuits on
#: its :attr:`~Tracer.enabled` being ``False``.
NULL_TRACER = Tracer(ObsConfig(enabled=False))

