"""Wrappers that observe the program from outside: request timing and layer spans.

Nothing under ``src/`` knows about these probes.  They replace public
functions at the bindings their callers look them up through (a class
attribute for methods, the importing module's global for the step
functions) and put the originals back on exit, so an untraced replay runs
the unmodified program.

* :class:`RequestProbe` is installed in every run.  It times every
  ``AdmissionPipeline.decide`` / ``decide_interregion`` call per
  application, which is what ``request_ms_p50`` / ``request_ms_p95`` are
  made of.
* :class:`LayerTracer` is installed only in traced runs.  It opens a span
  around each wrapped call, keeps the spans in memory keyed by request,
  and charges every call's *self* time (its duration minus the time its
  wrapped children cover) to the call's layer.
"""

from __future__ import annotations

import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field

import repro.interregion.planner as planner_module
import repro.spatialmapper.mapper as mapper_module
import repro.spatialmapper.rescue as rescue_module
from repro.csdf.analysis import SelfTimedSimulator
from repro.interregion.planner import InterRegionPlanner
from repro.mapping.result import MappingStatus
from repro.obs import SpanRecord
from repro.platform import Platform, PlatformState
from repro.runtime import AdmissionPipeline, LoadSheddingGovernor, WorkloadEngine
from repro.spatialmapper import SpatialMapper

_clock = time.perf_counter_ns


class Patches:
    """Replaces attributes and restores the originals, last in first out."""

    def __init__(self) -> None:
        self._undo: list[tuple[object, str, object]] = []

    def wrap(self, owner, attr: str, make) -> None:
        """Replace ``owner.attr`` with ``make(original)``."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, make(original))
        self._undo.append((owner, attr, original))

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# --------------------------------------------------------------------------- #
# Request timing (every run)
# --------------------------------------------------------------------------- #
@dataclass
class RequestProbe:
    """Per-application decide time, decide count and admitted energy."""

    decide_ns: Counter = field(default_factory=Counter)
    decides: Counter = field(default_factory=Counter)
    admitted_decides: int = 0
    #: application -> energy (nJ/iteration) of the mapping it was admitted with.
    energy_nj: dict[str, float] = field(default_factory=dict)

    @contextmanager
    def installed(self):
        patches = Patches()
        for attr in ("decide", "decide_interregion"):
            patches.wrap(AdmissionPipeline, attr, self._timed)
        try:
            yield self
        finally:
            patches.restore()

    def _timed(self, original):
        def timed(pipeline, als, *args, **kwargs):
            start = _clock()
            decision = original(pipeline, als, *args, **kwargs)
            self.decide_ns[als.name] += _clock() - start
            self.decides[als.name] += 1
            if decision.admitted:
                self.admitted_decides += 1
                self.energy_nj[als.name] = decision.result.energy_nj_per_iteration
            return decision

        return timed


# --------------------------------------------------------------------------- #
# Layer spans (traced runs)
# --------------------------------------------------------------------------- #
#: Every wrapped function: (owner, attribute, span name, kind).  A span name
#: starts with its layer.  ``request`` spans open a trace keyed by the
#: application they serve; ``leaf`` calls are too frequent to record one by
#: one and are folded, as counts and nanoseconds, into the attributes of the
#: span around them.
PROBES = (
    (WorkloadEngine, "run", "engine.run", "span"),
    (LoadSheddingGovernor, "assess", "governor.assess", "span"),
    (AdmissionPipeline, "decide", "pipeline.decide", "request"),
    (AdmissionPipeline, "decide_interregion", "pipeline.decide_interregion", "request"),
    (AdmissionPipeline, "candidate_regions", "pipeline.candidate_regions", "span"),
    (AdmissionPipeline, "commit", "pipeline.commit", "span"),
    (AdmissionPipeline, "release", "pipeline.release", "request"),
    (InterRegionPlanner, "decide", "interregion.plan", "span"),
    (SpatialMapper, "map", "mapper.map", "span"),
    (mapper_module, "select_implementations", "mapper.step1", "span"),
    (mapper_module, "refine_tile_assignment", "mapper.step2", "span"),
    (mapper_module, "route_channels", "mapper.step3", "span"),
    (rescue_module, "route_channels", "mapper.step3", "span"),
    (mapper_module, "check_feasibility", "mapper.step4", "span"),
    (rescue_module, "check_feasibility", "mapper.step4", "span"),
    (planner_module, "check_feasibility", "mapper.step4", "span"),
    (mapper_module, "rescue_search", "rescue.search", "span"),
    (SelfTimedSimulator, "run", "analysis.simulate", "leaf"),
    (PlatformState, "fingerprint", "state.fingerprint", "leaf"),
    (Platform, "tiles_of_type", "platform.tiles_of_type", "leaf"),
)


@dataclass
class CallStats:
    """Calls and self nanoseconds of one span name."""

    calls: int = 0
    self_ns: int = 0


class _Frame:
    __slots__ = ("name", "trace_id", "span_id", "parent_id", "start", "child_ns", "attrs")

    def __init__(self, name, trace_id, span_id, parent_id, start):
        self.name = name
        self.trace_id = trace_id
        self.span_id = span_id
        self.parent_id = parent_id
        self.start = start
        self.child_ns = 0
        self.attrs: dict[str, object] = {}


class LayerTracer:
    """Spans around every function in :data:`PROBES`, with self-time accounting.

    ``prefix`` namespaces the trace ids of one replay (``"<workload>:u<n>"``),
    so the spans of several replays can share one export file.  The bottom
    of the frame stack is a sentinel whose ``child_ns`` is the time any
    wrapped call covered: the rest of the replay's wall time is
    ``unattributed``.
    """

    PROCESS = "bench"

    def __init__(self) -> None:
        self.stats: dict[str, CallStats] = {}
        self.counts: Counter = Counter()
        self.spans: list[SpanRecord] = []
        self._next_id = 0
        self._prefix = ""
        self._stack = [_Frame("<root>", None, None, None, 0)]

    @contextmanager
    def installed(self, prefix: str):
        """Wrap every probe for one replay; restores the originals on exit."""
        self._prefix = prefix
        sentinel = self._stack[0]
        sentinel.child_ns = 0
        patches = Patches()
        patches.wrap(PlatformState, "transaction", self._counted("state.transactions"))
        for owner, attr, name, kind in PROBES:
            patches.wrap(owner, attr, self._wrapper(name, kind))
        try:
            yield self
        finally:
            patches.restore()
            self._prefix = ""

    @property
    def covered_ns(self) -> int:
        """Nanoseconds covered by top-level wrapped calls of the current replay."""
        return self._stack[0].child_ns

    # ------------------------------------------------------------------ #
    def _counted(self, name: str):
        counts = self.counts

        def make(original):
            def counted(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return counted

        return make

    def _wrapper(self, name: str, kind: str):
        note = _NOTES.get(name)
        leaf = kind == "leaf"
        request = kind == "request"

        def make(original):
            def traced(*args, **kwargs):
                frame = self._enter(name, args, request)
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    self._exit(frame, leaf, None, None)
                    raise
                self._exit(frame, leaf, note, result)
                return result

            return traced

        return make

    def _enter(self, name: str, args: tuple, request: bool) -> _Frame:
        parent = self._stack[-1]
        if request:
            subject = args[1]
            trace_id = f"{self._prefix}:{getattr(subject, 'name', subject)}"
            parent_id = None
        elif parent.trace_id is not None:
            trace_id, parent_id = parent.trace_id, parent.span_id
        else:
            trace_id, parent_id = f"{self._prefix}:{name}", None
        self._next_id += 1
        frame = _Frame(name, trace_id, f"{self.PROCESS}:{self._next_id}", parent_id, 0)
        self._stack.append(frame)
        frame.start = _clock()
        return frame

    def _exit(self, frame: _Frame, leaf: bool, note, result) -> None:
        end = _clock()
        self._stack.pop()
        duration = end - frame.start
        stats = self.stats.get(frame.name)
        if stats is None:
            stats = self.stats[frame.name] = CallStats()
        stats.calls += 1
        stats.self_ns += duration - frame.child_ns
        self._stack[-1].child_ns += duration
        if note is not None and result is not None:
            note(self.counts, frame.attrs, result)
        if leaf:
            # Fold the call into the nearest recorded span around it.
            for outer in reversed(self._stack):
                if outer.trace_id is not None:
                    attrs = outer.attrs
                    attrs[f"{frame.name}.calls"] = attrs.get(f"{frame.name}.calls", 0) + 1
                    attrs[f"{frame.name}.ns"] = attrs.get(f"{frame.name}.ns", 0) + duration
                    break
            return
        self.spans.append(
            SpanRecord(
                trace_id=frame.trace_id,
                span_id=frame.span_id,
                parent_id=frame.parent_id,
                name=frame.name,
                process=self.PROCESS,
                start_ns=frame.start,
                end_ns=end,
                attrs=tuple(sorted(frame.attrs.items())),
            )
        )


# What each wrapped call's result adds to the exact work counters (and to
# its span's attributes).
def _note_decision(prefix: str):
    def note(counts, attrs, decision):
        attrs["admitted"] = decision.admitted
        if decision.admitted:
            counts[f"{prefix}.admitted"] += 1

    return note


def _note_map(counts, attrs, result):
    attrs["status"] = result.status.value
    if result.status is MappingStatus.FEASIBLE:
        counts["mapper.feasible"] += 1


def _note_rescue(counts, attrs, outcome):
    attrs["adopted"] = outcome.result is not None
    if outcome.result is not None:
        counts["rescue.adopted"] += 1


def _note_assess(counts, attrs, verdict):
    attrs["verdict"] = verdict


def _note_simulation(counts, attrs, result):
    counts["analysis.simulated_events"] += result.simulated_events


_NOTES = {
    "pipeline.decide": _note_decision("pipeline"),
    "pipeline.decide_interregion": _note_decision("pipeline"),
    "interregion.plan": _note_decision("interregion"),
    "mapper.map": _note_map,
    "rescue.search": _note_rescue,
    "governor.assess": _note_assess,
    "analysis.simulate": _note_simulation,
}
