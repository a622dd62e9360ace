"""The discrete-event workload engine: one event loop on one thread.

The paper's claim is that run-time spatial mapping is fast enough to make
admission decisions *online*.  Exercising that claim end to end needs a
driver that consumes timed arrival/departure events at scale.  This module
is that driver:

* :class:`WorkloadEngine` — a virtual-clock event loop.  It replays a
  :class:`~repro.runtime.scenario.Scenario` (or anything exposing
  ``sorted_events()`` / ``end_time_ns()``): departures stop running
  applications, arrivals are submitted to an
  :class:`~repro.runtime.queue.AdmissionQueue` (with their priorities and
  deadlines), and the queue is drained through a *region executor*.
* :class:`SerialRegionExecutor` — the drain back-end: region lanes one
  after another, requests in order within each lane.

Everything the engine does runs on the thread that calls
:meth:`WorkloadEngine.run`.  Client threads may still submit, poll and
cancel through the queue while a run is in progress; the queue arbitrates
those races under its own lock.

The drain discipline
--------------------

Each drain claims the ready requests and splits them into **region lanes**,
a **multi-region lane** and a **global lane**:

1. *Region lanes* — a request pinned to a single region lane is decided
   with the pipeline restricted to exactly that region (``candidates=
   (region,)``): mapping, routing and the transactional commit all stay
   inside the shard, so the order lanes run in does not change any
   decision.
2. *Multi-region lane* — with an inter-region planner attached, a request
   whose pinned tiles span several regions is planned over budgeted
   boundary corridors, restricted to the regions
   :meth:`~repro.interregion.planner.InterRegionPlanner.scope_for` names.
   A planner rejection falls through to phase 3.
3. *Serial phase* — requests no earlier lane can own (residual global-lane
   requests, duplicate application names, in-region rejections that
   deserve their cross-region fallback, planner rejections) run through
   the **full** pipeline, in arrival order.

Finalisation (audit trail, running registry, queue settlement, energy
accounting) happens in arrival order after the lanes ran.

Every run counts what it did into one per-run
:class:`~repro.obs.metrics.MetricsRegistry`, whose snapshot lands on
:attr:`EngineOutcome.metrics`: settlements per lane and status
(``engine.settled[lane=…,status=…]``), queue and pipeline counters, and the
run's share of the analysis engine's and the governor's lifetime counters.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.obs import (
    NULL_TRACER,
    MetricsRegistry,
    ObsConfig,
    Span,
    SpanRecord,
    TraceContext,
    Tracer,
)
from repro.platform.regions import GLOBAL_LANE, Region
from repro.runtime.accounting import EnergyAccount
from repro.runtime.admission_control import GovernorDecision, LoadSheddingGovernor
from repro.runtime.events import StartEvent, StopEvent
from repro.runtime.manager import RuntimeResourceManager
from repro.runtime.pipeline import AdmissionPipeline
from repro.runtime.queue import AdmissionQueue, QueuedRequest, RequestStatus

#: Lane label of the engine's multi-region (inter-region planner) lane.
MULTI_REGION_LANE = "__multi__"

__all__ = [
    "WorkloadEngine",
    "EngineOutcome",
    "EngineRecord",
    "MULTI_REGION_LANE",
    "SerialRegionExecutor",
]


# --------------------------------------------------------------------------- #
# Region executor
# --------------------------------------------------------------------------- #
@dataclass
class _RegionJob:
    """One region-lane work item: decide a request strictly inside its region."""

    request: QueuedRequest
    region: Region
    decision: object | None = None
    error: BaseException | None = None
    #: Trace context of the request's root span (``None`` when unsampled):
    #: the decide span tree hangs off it.
    trace: TraceContext | None = None

    def run(self, pipeline: AdmissionPipeline) -> None:
        """Run the region-restricted pipeline; failures are captured, not raised."""
        try:
            self.decision = pipeline.decide(
                self.request.als,
                self.request.library,
                candidates=(self.region,),
                trace=self.trace,
            )
        except Exception as error:  # surfaced (and re-raised) by the engine
            self.error = error


@dataclass
class _MultiRegionJob:
    """One multi-region lane work item: plan a spanning request over corridors.

    Runs between the region lanes and the serial phase, with the planner
    confined to ``scope``.
    """

    request: QueuedRequest
    scope: tuple[str, ...]
    decision: object | None = None
    error: BaseException | None = None
    #: Trace context of the request's root span (the engine wraps the
    #: planner attempt in an ``interregion_plan`` span when set).
    trace: TraceContext | None = None

    def run(self, pipeline: AdmissionPipeline) -> None:
        """Plan inside the job's region scope; failures are captured."""
        try:
            self.decision = pipeline.decide_interregion(
                self.request.als, self.request.library, scope=self.scope
            )
        except Exception as error:  # surfaced (and re-raised) by the engine
            self.error = error


class SerialRegionExecutor:
    """Drain lanes one after another on the calling thread.

    Lanes run in sorted-name order, requests in order within each lane.
    Because region-lane work is confined to its lane's region, the lane
    order does not change any decision.
    """

    def execute(
        self, lane_jobs: dict[str, list[_RegionJob]], pipeline: AdmissionPipeline
    ) -> None:
        """Run every lane's jobs; an error skips the rest of that lane only."""
        for lane in sorted(lane_jobs):
            for job in lane_jobs[lane]:
                job.run(pipeline)
                if job.error is not None:
                    break


# --------------------------------------------------------------------------- #
# Outcome bookkeeping
# --------------------------------------------------------------------------- #
@dataclass(frozen=True)
class EngineRecord:
    """Final outcome of one admission request driven through the engine."""

    time_ns: float
    ticket: int
    application: str
    status: RequestStatus
    reason: str = ""
    priority: int = 0


@dataclass
class EngineOutcome:
    """Everything a workload run decided, plus its accounting.

    ``records`` hold one entry per *settled* request in settlement order;
    ``departures`` the executed stop events.  Wall-clock fields separate
    total run time from time spent inside drains (the part the region
    executor owns), and ``mapping_runtime_s`` accumulates the pipeline's
    own per-attempt mapper time, so benchmarks can report per-admission
    cost at any granularity.
    """

    workload: str
    records: list[EngineRecord] = field(default_factory=list)
    departures: list[tuple[float, str]] = field(default_factory=list)
    energy: EnergyAccount = field(default_factory=EnergyAccount)
    end_time_ns: float = 0.0
    drains: int = 0
    wall_clock_s: float = 0.0
    drain_wall_s: float = 0.0
    mapping_runtime_s: float = 0.0
    parked_retries_skipped: int = 0
    #: Every span the run's tracer recorded, in buffer order; empty with
    #: observability off.
    spans: list[SpanRecord] = field(default_factory=list)
    #: Snapshot of the run's :class:`~repro.obs.metrics.MetricsRegistry`.
    metrics: dict = field(default_factory=dict)

    def _with_status(self, status: RequestStatus) -> list[EngineRecord]:
        """Records with one status, served from a lazily built index.

        The status properties (:attr:`admitted`, :attr:`rejected`, ...) are
        hot in reporting and differential loops; re-scanning ``records`` on
        every property access is quadratic over a run's settlement count.
        The index is keyed by ``len(records)``, so an append invalidates it
        and the next access rebuilds — records are append-only.
        """
        cache = getattr(self, "_status_cache", None)
        if cache is None or cache[0] != len(self.records):
            index: dict[RequestStatus, list[EngineRecord]] = {}
            for record in self.records:
                index.setdefault(record.status, []).append(record)
            cache = (len(self.records), index)
            self._status_cache = cache
        return cache[1].get(status, [])

    @property
    def admitted(self) -> list[str]:
        """Applications admitted, in settlement order."""
        return [r.application for r in self._with_status(RequestStatus.ADMITTED)]

    @property
    def rejected(self) -> list[tuple[str, str]]:
        """(application, reason) of requests rejected by the pipeline."""
        return [
            (r.application, r.reason) for r in self._with_status(RequestStatus.REJECTED)
        ]

    @property
    def expired(self) -> list[str]:
        """Applications whose requests expired past their deadline."""
        return [r.application for r in self._with_status(RequestStatus.EXPIRED)]

    @property
    def cancelled(self) -> list[str]:
        """Applications whose requests were cancelled."""
        return [r.application for r in self._with_status(RequestStatus.CANCELLED)]

    @property
    def shed(self) -> list[str]:
        """Applications the load governor shed before any mapping work."""
        return [r.application for r in self._with_status(RequestStatus.SHED)]

    @property
    def decided(self) -> int:
        """Requests that reached a terminal admit/reject/expire outcome."""
        return len(self.admitted) + len(self.rejected) + len(self.expired)

    @property
    def admission_rate(self) -> float:
        """Fraction of decided requests that were admitted (cancellations and
        governor sheds excluded — a shed request was never offered to the
        mapper, so counting it as a rejection would charge the pipeline for
        work the governor deliberately avoided)."""
        return len(self.admitted) / self.decided if self.decided else 0.0

    def priority_admission_rate(self, priority: int) -> float:
        """Admission rate of one priority class (admitted / decided).

        Decided covers admitted, rejected and expired records of the class;
        shed and cancelled requests are excluded, exactly as in
        :attr:`admission_rate`.
        """
        decided = [
            r
            for r in self.records
            if r.priority == priority
            and r.status
            in (RequestStatus.ADMITTED, RequestStatus.REJECTED, RequestStatus.EXPIRED)
        ]
        if not decided:
            return 0.0
        admitted = sum(1 for r in decided if r.status is RequestStatus.ADMITTED)
        return admitted / len(decided)

    def decision_log(self) -> list[tuple[str, str, str]]:
        """(application, status, reason) per settled request — the differential key."""
        return [(r.application, r.status.value, r.reason) for r in self.records]


# --------------------------------------------------------------------------- #
# The engine
# --------------------------------------------------------------------------- #
class WorkloadEngine:
    """Virtual-clock event loop feeding an admission queue and region executor.

    Parameters
    ----------
    manager:
        The resource manager whose pipeline decides admissions.
    queue:
        Optional pre-configured :class:`AdmissionQueue`; a fresh one is
        created when omitted (``park_rejections`` is forwarded to it).
    executor:
        Region-lane drain back-end; defaults to :class:`SerialRegionExecutor`.
    drain_mode:
        ``"batched"`` (default): all events at one timestamp are treated as
        concurrent — departures execute first, arrivals are enqueued, then
        one drain runs over all of them.
        ``"immediate"``: the queue is drained after every single arrival,
        reproducing the legacy scenario player's strict one-event-at-a-time
        semantics (this is what :func:`~repro.runtime.scenario.run_scenario`
        uses).
    park_rejections:
        Enable cache-aware rejection parking on the engine-created queue: a
        rejected request waits until its lane's fingerprint changes instead
        of being re-mapped on every drain.
    governor:
        Optional :class:`~repro.runtime.admission_control.LoadSheddingGovernor`.
        When attached (and enabled), every drain gates the claimed requests
        through it before any mapping work: under overload, low-priority
        arrivals are shed (terminal ``SHED`` status) or deferred back to
        the queue.  The governor observes every settled pipeline decision,
        so its windowed rate estimate follows the run it is governing.  A
        disabled governor (or none) is decision-inert.
    obs:
        Optional :class:`~repro.obs.trace.ObsConfig`.  When enabled, the
        engine owns a :class:`~repro.obs.trace.Tracer` (installed on the
        manager's pipeline) producing per-request span trees keyed by
        ``"<workload>:<ticket>"``; they land on :attr:`EngineOutcome.spans`.
        Tracing only ever observes: the differential suites pin that
        decisions are bit-identical with it on or off.  The per-run
        metrics registry does not depend on it.
    """

    def __init__(
        self,
        manager: RuntimeResourceManager,
        *,
        queue: AdmissionQueue | None = None,
        executor: SerialRegionExecutor | None = None,
        drain_mode: str = "batched",
        park_rejections: bool = False,
        governor: LoadSheddingGovernor | None = None,
        obs: ObsConfig | None = None,
    ) -> None:
        if drain_mode not in ("batched", "immediate"):
            raise ValueError(f"unknown drain mode {drain_mode!r}")
        self.manager = manager
        self.queue = queue or AdmissionQueue(manager, park_rejections=park_rejections)
        self.executor = executor or SerialRegionExecutor()
        self.drain_mode = drain_mode
        self.governor = governor
        self.tracer: Tracer = (
            Tracer(obs) if obs is not None and obs.enabled else NULL_TRACER
        )
        manager.pipeline.tracer = self.tracer
        #: The current (or last) run's metrics registry; each run installs a
        #: fresh one on the pipeline and the queue.
        self.metrics = MetricsRegistry()
        #: ticket -> open root ("request") span of every in-flight sampled
        #: request; closed (and popped) when the request settles terminally.
        self._roots: dict[int, Span] = {}
        #: Tickets whose ``queue_wait`` span was already recorded (a parked
        #: request is claimed repeatedly; only its first wait is the wait).
        self._queue_waited: set[int] = set()
        self._workload_name = "workload"

    # ------------------------------------------------------------------ #
    def run(self, workload) -> EngineOutcome:
        """Replay a workload's events against the manager and account outcomes.

        ``workload`` is anything with ``sorted_events()``, ``end_time_ns()``
        and a ``name`` — in practice a
        :class:`~repro.runtime.scenario.Scenario` (hand-written or produced
        by :mod:`repro.workloads.arrivals`).
        """
        started = time.perf_counter()
        baseline = self._lifetime_counters()
        outcome = EngineOutcome(workload=getattr(workload, "name", "workload"))
        self._workload_name = outcome.workload
        metrics = MetricsRegistry()
        self.metrics = self.manager.pipeline.metrics = self.queue.metrics = metrics
        events = workload.sorted_events()
        for event in events:
            if not isinstance(event, (StartEvent, StopEvent)):
                raise TypeError(f"unknown scenario event type {type(event)!r}")
        if self.drain_mode == "immediate":
            for event in events:
                if isinstance(event, StopEvent):
                    self._stop(event.application, event.time_ns, outcome)
                    # A departure may have un-parked a waiting request by
                    # changing the state fingerprint; give it its retry now
                    # instead of waiting for the next arrival.
                    if len(self.queue):
                        self._drain(event.time_ns, outcome)
                else:
                    self._submit(event)
                    self._drain(event.time_ns, outcome)
        else:
            index = 0
            while index < len(events):
                time_ns = events[index].time_ns
                batch = []
                while index < len(events) and events[index].time_ns == time_ns:
                    batch.append(events[index])
                    index += 1
                arrivals = 0
                for event in batch:
                    if isinstance(event, StopEvent):
                        self._stop(event.application, time_ns, outcome)
                for event in batch:
                    if isinstance(event, StartEvent):
                        self._submit(event)
                        arrivals += 1
                if arrivals or len(self.queue):
                    self._drain(time_ns, outcome)
        end_time_ns = workload.end_time_ns()
        if len(self.queue):
            # Parked requests get one last look at the final state...
            self._drain(end_time_ns, outcome)
        for request in self.queue.flush_pending(now_ns=end_time_ns):
            # ...and whatever still waits when the workload ends is settled
            # as rejected (it never received capacity).
            self._record(end_time_ns, request, outcome)
        outcome.end_time_ns = end_time_ns
        outcome.energy.finish(end_time_ns)
        outcome.wall_clock_s = time.perf_counter() - started
        self._publish_run_deltas(baseline)
        outcome.metrics = self.metrics.snapshot()
        if self.tracer.enabled:
            outcome.spans = self.tracer.drain()
        return outcome

    def _lifetime_counters(self) -> dict[str, int]:
        """Lifetime counters of the analysis engine and the governor, by metric name."""
        counters = {
            f"analysis.{key}": value
            for key, value in self.manager.pipeline.analysis.snapshot().items()
        }
        if self.governor is not None:
            snapshot = self.governor.snapshot()
            for key in ("shed", "deferred", "transitions"):
                counters[f"governor.{key}"] = snapshot[key]
        return counters

    def _publish_run_deltas(self, baseline: dict[str, int]) -> None:
        """Count this run's share of the lifetime counters, plus the governor gauges.

        The analysis engine and the governor outlive a run, so each run
        publishes the delta against the ``baseline`` taken when it started.
        """
        metrics = self.metrics
        for name, value in self._lifetime_counters().items():
            metrics.count(name, float(value - baseline[name]))
        if self.governor is not None:
            self.governor.publish_gauges(metrics)

    # ------------------------------------------------------------------ #
    def _submit(self, event: StartEvent) -> int:
        """Enqueue one arrival with its priority and admission deadline."""
        ticket = self.queue.submit(
            event.als,
            library=event.library,
            priority=event.priority,
            deadline_ns=event.deadline_ns,
            now_ns=event.time_ns,
        )
        if self.tracer.enabled:
            context = self.tracer.context_for(f"{self._workload_name}:{ticket}")
            if context is not None:
                # The root span opens at submission and closes at terminal
                # settlement, so queue wait is inside the request's window.
                self._roots[ticket] = self.tracer.start(
                    "request",
                    context,
                    attrs={
                        "application": event.als.name,
                        "priority": event.priority,
                        "ticket": ticket,
                    },
                )
        return ticket

    def _job_trace(self, request: QueuedRequest) -> TraceContext | None:
        """The request's root-child trace context (recording its queue wait
        once, on the first claim); ``None`` when unsampled."""
        root = self._roots.get(request.ticket)
        if root is None:
            return None
        if request.ticket not in self._queue_waited:
            self._queue_waited.add(request.ticket)
            self.tracer.record(
                "queue_wait",
                root.context(),
                root.start_ns,
                time.perf_counter_ns(),
                attrs={"lane": request.lane},
            )
        return root.context()

    def _stop(self, application: str, time_ns: float, outcome: EngineOutcome) -> None:
        """Execute one departure; departures of never-admitted apps are no-ops."""
        if not self.manager.is_running(application):
            return
        self.manager.stop(application)
        outcome.energy.stop(application, time_ns)
        outcome.departures.append((time_ns, application))

    def _drain(self, now_ns: float, outcome: EngineOutcome) -> None:
        """One two-phase drain of everything ready at the current virtual time."""
        drain_started = time.perf_counter()
        pending_before = len(self.queue)
        expired, ready = self.queue.take(now_ns=now_ns)
        outcome.drains += 1
        outcome.parked_retries_skipped += pending_before - len(ready) - len(expired)
        for request in expired:
            # An expired deadline is an admission the platform failed to
            # deliver — exactly the overload signal the governor watches.
            # Unless the governor itself deferred the request away from the
            # mapper: counting that expiry would let the governor's own
            # deferrals keep its window depressed (a self-reinforcing
            # shedding loop that never re-opens).
            if not (request.deferred_by_governor and request.attempts == 0):
                self._observe(request, False)
            self._record(now_ns, request, outcome)
        if self.governor is not None and self.governor.enabled:
            ready = self._govern(now_ns, ready, outcome)
        if not ready:
            outcome.drain_wall_s += time.perf_counter() - drain_started
            return

        partition = self.manager.partition
        running = {app.name for app in self.manager.running_applications}
        claimed: set[str] = set()
        lane_jobs: dict[str, list[_RegionJob]] = {}
        job_of: dict[int, _RegionJob | _MultiRegionJob] = {}
        for request in ready:
            name = request.application
            region = (
                partition.region(request.lane)
                if partition is not None and request.lane != GLOBAL_LANE
                else None
            )
            if region is None or name in running or name in claimed:
                # Global-lane work and duplicate names stay serialized: the
                # multi-region lane (spanning pins) or the serial phase
                # applies them in arrival order.
                continue
            claimed.add(name)
            job = _RegionJob(request, region, trace=self._job_trace(request))
            lane_jobs.setdefault(request.lane, []).append(job)
            job_of[request.ticket] = job

        self.executor.execute(lane_jobs, self.manager.pipeline)

        failed: list[_RegionJob | _MultiRegionJob] = [
            job
            for lane in sorted(lane_jobs)
            for job in lane_jobs[lane]
            if job.error is not None
        ]
        if failed:
            self._unwind_failed_drain(now_ns, ready, job_of, outcome)
            raise failed[0].error

        # Multi-region lane: spanning requests plan over budgeted corridors
        # after the region lanes, before the global fallback.  Claiming
        # follows arrival order like everything else.
        multi_jobs = self._claim_multi_region_jobs(ready, running, claimed, job_of)
        if multi_jobs:
            self._run_multi_region_lane(multi_jobs)
            failed = [job for job in multi_jobs if job.error is not None]
            if failed:
                self._unwind_failed_drain(now_ns, ready, job_of, outcome)
                raise failed[0].error

        # Finalisation and the serial phase, both in arrival order.
        serial_phase: list[QueuedRequest] = []
        planner_rejected: set[int] = set()
        for request in ready:
            job = job_of.get(request.ticket)
            if job is not None and job.decision is not None and job.decision.admitted:
                lane = (
                    MULTI_REGION_LANE
                    if isinstance(job, _MultiRegionJob)
                    else request.lane
                )
                self.manager.adopt_decision(request.als, job.decision, time_ns=now_ns)
                self.queue.finalize(request, job.decision, now_ns=now_ns)
                if request.status is not RequestStatus.CANCELLED:
                    # A raced cancellation rolled the admission back; an
                    # admission that never stood must not feed the window.
                    self._observe(request, True)
                self._record(now_ns, request, outcome, lane=lane)
            else:
                # In-region rejections retry with their cross-region
                # fallback and planner rejections with the unrestricted
                # global mapping; both join the serial pass.  The failed
                # attempt still cost mapper time and a pipeline trip —
                # account both, or the sharded configurations would
                # under-report their real per-admission work.
                if job is not None and job.decision is not None:
                    outcome.mapping_runtime_s += job.decision.mapping_runtime_s
                    request.attempts += 1
                    if isinstance(job, _MultiRegionJob):
                        planner_rejected.add(request.ticket)
                serial_phase.append(request)
        for request in serial_phase:
            decision = self.manager.admit(
                request.als,
                library=request.library,
                time_ns=now_ns,
                # The planner already rejected these this drain; it is
                # deterministic, so re-running it could only repeat itself.
                interregion=request.ticket not in planner_rejected,
                trace=self._job_trace(request),
            )
            self.queue.finalize(request, decision, now_ns=now_ns)
            if request.status is not RequestStatus.CANCELLED:
                self._observe(request, decision.admitted)
            # A spanning request the multi-region lane could not claim
            # (duplicate name in the drain) may still be admitted by the
            # planner stage inside the full pipeline — credit its lane.
            settled_lane = (
                MULTI_REGION_LANE
                if decision.admitted
                and getattr(decision, "origin", "pipeline") == "interregion"
                else GLOBAL_LANE
            )
            self._record(now_ns, request, outcome, lane=settled_lane)
            if not request.status.is_final:
                self.metrics.count(f"engine.settled[lane={request.lane},status=parked]")
        outcome.drain_wall_s += time.perf_counter() - drain_started

    def _observe(self, request: QueuedRequest, admitted: bool) -> None:
        """Feed one pipeline decision (or deadline expiry) to the governor.

        Observation happens at *decision* time — a parked rejection counts
        the moment it happens, not when the run's final flush settles it —
        so the governor's window follows the live run.  Cancellations and
        the governor's own sheds are never observed: neither measures the
        platform's ability to admit.
        """
        if self.governor is not None:
            self.governor.observe(request.priority, admitted)

    def _govern(
        self,
        now_ns: float,
        ready: list[QueuedRequest],
        outcome: EngineOutcome,
    ) -> list[QueuedRequest]:
        """Gate claimed requests through the load-shedding governor.

        Runs strictly before any mapping work: shed requests settle
        terminally, deferred requests go back to pending (a cancellation
        that raced the claim settles ``CANCELLED`` instead — the queue
        arbitrates, exactly once).  Returns the requests that proceed to
        the region lanes.
        """
        governor = self.governor
        tracer = self.tracer
        proceed: list[QueuedRequest] = []
        deferred: list[QueuedRequest] = []
        for request in ready:
            root = self._roots.get(request.ticket) if tracer.enabled else None
            check_start_ns = time.perf_counter_ns() if root is not None else 0
            verdict = governor.assess(request.priority)
            if root is not None:
                tracer.record(
                    "governor_check",
                    root.context(),
                    check_start_ns,
                    time.perf_counter_ns(),
                    attrs={"verdict": verdict},
                )
            if verdict == GovernorDecision.SHED:
                self.queue.shed(
                    request,
                    now_ns=now_ns,
                    reason=(
                        "shed by load governor (admission rate "
                        f"{governor.admission_rate():.2f} below floor "
                        f"{governor.config.rate_floor:.2f})"
                    ),
                )
                self._record(now_ns, request, outcome)
            elif verdict == GovernorDecision.DEFER:
                deferred.append(request)
            else:
                proceed.append(request)
        if deferred:
            for request in self.queue.defer(deferred, now_ns=now_ns):
                self._record(now_ns, request, outcome)
        return proceed

    def _claim_multi_region_jobs(
        self,
        ready: list[QueuedRequest],
        running: set[str],
        claimed: set[str],
        job_of: dict[int, "_RegionJob | _MultiRegionJob"],
    ) -> list[_MultiRegionJob]:
        """Claim global-lane requests whose pinned tiles span >= 2 regions."""
        planner = self.manager.pipeline.interregion
        if planner is None or self.manager.partition is None:
            return []
        jobs: list[_MultiRegionJob] = []
        for request in ready:
            if request.ticket in job_of:
                continue
            name = request.application
            if name in running or name in claimed:
                continue
            scope = planner.scope_for(request.als)
            if scope is None:
                continue
            claimed.add(name)
            job = _MultiRegionJob(request, scope, trace=self._job_trace(request))
            job_of[request.ticket] = job
            jobs.append(job)
        return jobs

    def _run_multi_region_lane(self, jobs: list[_MultiRegionJob]) -> None:
        """Run the planner jobs in claim order."""
        for job in jobs:
            plan_start_ns = (
                time.perf_counter_ns()
                if self.tracer.enabled and job.trace is not None
                else 0
            )
            job.run(self.manager.pipeline)
            if plan_start_ns:
                self.tracer.record(
                    "interregion_plan",
                    job.trace,
                    plan_start_ns,
                    time.perf_counter_ns(),
                    attrs={
                        "admitted": job.decision is not None
                        and job.decision.admitted
                    },
                )

    def _unwind_failed_drain(
        self,
        now_ns: float,
        ready: list[QueuedRequest],
        job_of: dict[int, "_RegionJob | _MultiRegionJob"],
        outcome: EngineOutcome,
    ) -> None:
        """Settle what the lanes decided, requeue the rest, before re-raising."""
        requeue: list[QueuedRequest] = []
        for request in ready:
            job = job_of.get(request.ticket)
            if job is not None and job.decision is not None and job.decision.admitted:
                lane = (
                    MULTI_REGION_LANE
                    if isinstance(job, _MultiRegionJob)
                    else request.lane
                )
                self.manager.adopt_decision(request.als, job.decision, time_ns=now_ns)
                self.queue.finalize(request, job.decision, now_ns=now_ns)
                self._record(now_ns, request, outcome, lane=lane)
            else:
                requeue.append(request)
        self.queue.requeue(requeue)

    def _record(
        self,
        time_ns: float,
        request: QueuedRequest,
        outcome: EngineOutcome,
        lane: str | None = None,
    ) -> None:
        """Append a settled request to the outcome (parked requests stay open).

        ``lane`` names the lane that settled the request for the
        ``engine.settled`` counter; it defaults to the request's home lane
        (expiries, end-of-workload flushes).
        """
        if not request.status.is_final:
            return  # parked rejection: still pending, not an outcome yet
        root = self._roots.pop(request.ticket, None)
        if root is not None:
            self._queue_waited.discard(request.ticket)
            root.attrs["status"] = request.status.value
            record = self.tracer.end(root)
            self.metrics.observe("engine.request_latency_s", record.duration_ns / 1e9)
        self.metrics.count(
            f"engine.settled[lane={lane if lane is not None else request.lane},"
            f"status={request.status.value}]"
        )
        outcome.records.append(
            EngineRecord(
                time_ns=time_ns,
                ticket=request.ticket,
                application=request.application,
                status=request.status,
                reason=request.reason,
                priority=request.priority,
            )
        )
        decision = request.decision
        if decision is not None:
            outcome.mapping_runtime_s += decision.mapping_runtime_s
        if request.status is RequestStatus.ADMITTED and decision is not None:
            assert decision.result is not None
            outcome.energy.start(
                request.application,
                time_ns,
                decision.result.energy_nj_per_iteration,
                request.als.period_ns,
            )
