"""One benchmark run: replay a workload's units, check every output, compute metrics.

A run replays ``units`` independent units of a workload (unit ``i`` uses
seed ``seed * 1000 + i``), each on a freshly set-up system.  The unit count
follows from ``--seconds`` alone, so the inputs of a run depend only on the
seed and the run length, never on host speed.

An untraced run reports the end-to-end metrics.  A traced run replays the
same units with :class:`~perfbench.probe.LayerTracer` installed and reports
the per-layer metrics; it first replays unit 0 untraced a few times, so the
tracing overhead is measured and the traced decisions and work counts are
checked against the untraced ones.
"""

from __future__ import annotations

import resource
import statistics
import time
import traceback
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path

from repro.obs import validate_export, write_export

from perfbench import checks
from perfbench.probe import LayerTracer, RequestProbe
from perfbench.workloads import ADMITTED, Replay

#: Set-ups timed before each unit; ``setup_s`` is the median of all of
#: them, so its samples spread over the whole run like the replays do.
SETUP_REPEATS = 3
#: Untraced replays of unit 0 in a traced run: the tracing overhead is the
#: traced replay's wall time over their median.
REFERENCE_REPLAYS = 3
#: A percentile is reported from at least this many requests.
PERCENTILE_SAMPLES = 200

END_TO_END_UNITS = {
    "requests_per_s": "1/s",
    "request_ms_p50": "ms",
    "request_ms_p95": "ms",
    "admission_rate": "ratio",
    "energy_nj_per_admitted": "nJ/iteration",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def units_for(workload, seconds: float) -> int:
    """How many units a run of ``seconds`` replays."""
    return max(1, round(seconds / workload.unit_seconds))


def unit_seeds(seed: int, units: int) -> list[int]:
    return [seed * 1000 + index for index in range(units)]


@dataclass
class Unit:
    """What one replayed unit leaves behind once its system is dropped."""

    offered: int
    settled: int
    wall_s: float
    #: Nanoseconds the layer tracer's wrapped calls covered (traced runs).
    covered_ns: int
    #: Decide nanoseconds of every request that reached the pipeline.
    request_ns: list[int]
    #: Energy (nJ/iteration) of every admitted request's mapping.
    energies: list[float]
    digests: dict[str, str]
    #: Exact work counts that need no tracing.
    counters: dict[str, int]

    @classmethod
    def summarise(cls, replay: Replay, probe: RequestProbe, offered: int, covered_ns: int):
        pipeline = replay.manager.pipeline
        analysis = pipeline.analysis.snapshot()
        cache = pipeline.cache.stats
        statuses = Counter(status for _, status, _ in replay.records)
        counters = {
            **{f"settled.{status}": count for status, count in sorted(statuses.items())},
            "decides": sum(probe.decides.values()),
            "admitted_decides": probe.admitted_decides,
            "requests_decided": len(probe.decides),
            "mapper_invocations": pipeline.mapper_invocations,
            "mapper_cache.hits": cache.hits,
            "mapper_cache.misses": cache.misses,
            "mapper_cache.evictions": cache.evictions,
            "analysis.simulations_run": analysis["simulations_run"],
            "analysis.simulated_events": analysis["simulated_events"],
            "analysis.cache_hits": analysis["cache_hits"],
            "engine.drains": replay.drains,
            "engine.parked_skips": replay.parked_skips,
        }
        return cls(
            offered=offered,
            settled=len(replay.records),
            wall_s=replay.wall_s,
            covered_ns=covered_ns,
            request_ns=list(probe.decide_ns.values()),
            energies=[
                probe.energy_nj[application]
                for application, status, _ in replay.records
                if status == ADMITTED
            ],
            digests={
                "decisions": checks.decision_digest(replay.records),
                "state": checks.state_digest(replay.manager.state),
            },
            counters=counters,
        )


@dataclass
class Outcome:
    """Everything one run measured and checked."""

    workload: str
    seed: int
    seconds: float
    units: int
    trace: bool
    attempted: int = 0
    failed: int = 0
    problems: dict[str, list[str]] = field(default_factory=dict)
    metrics: dict[str, dict[str, float | str]] = field(default_factory=dict)
    samples: dict[str, int] = field(default_factory=dict)
    counters: dict[str, int] = field(default_factory=dict)
    layer_counters: dict[str, int] = field(default_factory=dict)
    digests: dict[str, list[str]] = field(default_factory=dict)
    notes: list[str] = field(default_factory=list)
    recorded: bool = False
    trace_file: str | None = None

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not any(self.problems.values())

    def check(self, name: str, problems: list[str]) -> None:
        """Count one check as an operation; it failed when it found problems."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.setdefault(name, []).extend(problems)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = {"value": value, "unit": unit}


def _sum_counters(units: list[Unit]) -> dict[str, int]:
    totals: dict[str, int] = {}
    for unit in units:
        for key, value in unit.counters.items():
            totals[key] = totals.get(key, 0) + value
    return dict(sorted(totals.items()))


def _replay(workload, system, unit_input, offered, tracer: LayerTracer | None, prefix: str):
    """Replay one unit on a fresh ``system``; returns its summary and the replay."""
    probe = RequestProbe()
    with probe.installed(), tracer.installed(prefix) if tracer else nullcontext():
        replay = workload.replay(system, unit_input)
    unit = Unit.summarise(replay, probe, len(offered), tracer.covered_ns if tracer else 0)
    return unit, replay


def run(
    workload,
    seed: int,
    seconds: float,
    trace: bool,
    *,
    out_dir: Path | None = None,
    record: bool = False,
    ledger: Path = checks.LEDGER_PATH,
) -> Outcome:
    """Run one workload (an entry of ``WORKLOADS``) for one seed.

    ``out_dir`` receives the traced run's span export; ``ledger`` holds the
    recorded digests and counts the run is compared with (or, with
    ``record``, written to).
    """
    name = workload.name
    units = units_for(workload, seconds)
    outcome = Outcome(name, seed, seconds, units, trace)

    workload.setup()  # first-use costs of the interpreter are not set-up time
    setup_times: list[float] = []

    def fresh_system():
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            system = workload.setup()
            setup_times.append(time.perf_counter() - started)
        return system

    tracer = LayerTracer() if trace else None
    done: list[Unit] = []
    references: list[Unit] = []
    for index, unit_seed in enumerate(unit_seeds(seed, units)):
        # Inputs are made per unit, so only one unit's inputs are resident.
        unit_input = workload.inputs(unit_seed)
        offered = workload.offered(unit_input)
        outcome.attempted += len(offered)
        try:
            if trace and index == 0:
                references = [
                    _replay(workload, fresh_system(), unit_input, offered, None, "")[0]
                    for _ in range(REFERENCE_REPLAYS)
                ]
            unit, replay = _replay(
                workload, fresh_system(), unit_input, offered, tracer, f"{name}:u{index}"
            )
        except Exception:  # one failed unit is a counted failure, not a crash
            traceback.print_exc()
            outcome.failed += len(offered)
            outcome.problems.setdefault("exceptions", []).append(f"unit {index} raised")
            continue
        unsettled = checks.settles_once(offered, replay.records)
        outcome.failed += min(len(unsettled), len(offered))
        if unsettled:
            outcome.problems.setdefault("settles_once", []).extend(unsettled)
        outcome.check("capacity", checks.within_capacity(replay.manager.state))
        if trace and index == 0:
            outcome.check(
                "traced_equals_untraced",
                [
                    problem
                    for reference in references
                    for problem in checks.same("digests", reference.digests, unit.digests)
                    + checks.same("counters", reference.counters, unit.counters)
                ],
            )
        del replay
        done.append(unit)

    outcome.counters = _sum_counters(done)
    outcome.digests = {
        "decisions": [unit.digests["decisions"] for unit in done],
        "states": [unit.digests["state"] for unit in done],
    }
    if trace:
        _layer_metrics(outcome, done, references, tracer)
        if out_dir is not None and tracer.spans:
            path = out_dir / f"{name}-seed{seed}.trace.jsonl"
            write_export(str(path), tracer.spans, workload=name)
            outcome.trace_file = str(path)
            outcome.check("trace_export", validate_export(str(path)))
    else:
        _end_to_end_metrics(outcome, done, setup_times)

    if len(done) == units:
        _check_recorded(outcome, record, ledger)
    return outcome


def _check_recorded(outcome: Outcome, record: bool, ledger: Path) -> None:
    """Compare digests and exact counts with the ledger (or record them)."""
    entry = {**outcome.digests, "counters": outcome.counters}
    if outcome.trace:
        entry["layer_counters"] = outcome.layer_counters
    if record and outcome.correct:
        checks.record_run(outcome.workload, outcome.seed, outcome.units, entry, ledger)
        outcome.recorded = True
        return
    expected = checks.recorded_run(
        checks.load_ledger(ledger), outcome.workload, outcome.seed, outcome.units
    )
    if expected is None:
        return
    outcome.recorded = True
    problems = []
    for key, value in entry.items():
        if key in expected:
            problems += checks.same(key, expected[key], value)
    outcome.check("recorded", problems)


def _percentile(values: list[float], q: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def _end_to_end_metrics(outcome: Outcome, done: list[Unit], setup_times: list[float]) -> None:
    settled = sum(unit.settled for unit in done)
    offered = sum(unit.offered for unit in done)
    wall_s = sum(unit.wall_s for unit in done)
    request_ms = [ns / 1e6 for unit in done for ns in unit.request_ns]
    energies = [energy for unit in done for energy in unit.energies]
    values = {
        "requests_per_s": (settled / wall_s if wall_s else 0.0, settled),
        "request_ms_p50": (_percentile(request_ms, 50), len(request_ms)),
        "request_ms_p95": (_percentile(request_ms, 95), len(request_ms)),
        "admission_rate": (len(energies) / offered if offered else 0.0, offered),
        "energy_nj_per_admitted": (
            statistics.fmean(energies) if energies else 0.0, len(energies)),
        "setup_s": (statistics.median(setup_times), len(setup_times)),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, 1),
    }
    for name, (value, samples) in values.items():
        outcome.metric(name, value, END_TO_END_UNITS[name])
        outcome.samples[name] = samples
    if len(request_ms) < PERCENTILE_SAMPLES:
        outcome.notes.append(
            f"only {len(request_ms)} requests reached the pipeline; "
            f"p95 wants {PERCENTILE_SAMPLES}"
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _layer_metrics(
    outcome: Outcome, done: list[Unit], references: list[Unit], tracer: LayerTracer
) -> None:
    stats, counts, counters = tracer.stats, tracer.counts, outcome.counters

    def calls(name: str) -> int:
        return stats[name].calls if name in stats else 0

    def self_ms(*names: str) -> float:
        return sum(stats[name].self_ns for name in names if name in stats) / 1e6

    decide_calls = calls("pipeline.decide") + calls("pipeline.decide_interregion")
    plan_calls = calls("interregion.plan")
    map_calls = calls("mapper.map")
    rescue_calls = calls("rescue.search")
    simulations = calls("analysis.simulate")
    events = counts["analysis.simulated_events"]
    lookups = counters["mapper_cache.hits"] + counters["mapper_cache.misses"]
    analysis_lookups = counters["analysis.cache_hits"] + counters["analysis.simulations_run"]
    wall_ms = sum(unit.wall_s for unit in done) * 1e3
    covered_ms = sum(unit.covered_ns for unit in done) / 1e6

    layer = {
        "engine.self_ms": (self_ms("engine.run"), "ms"),
        "engine.drains": (counters["engine.drains"], "count"),
        "engine.parked_skips": (counters["engine.parked_skips"], "count"),
        "engine.decides_per_request": (
            _ratio(counters["decides"], counters["requests_decided"]), "ratio"),
        "governor.assess_calls": (calls("governor.assess"), "count"),
        "governor.shed": (counters.get("settled.shed", 0), "count"),
        "governor.self_ms": (self_ms("governor.assess"), "ms"),
        "pipeline.decide_calls": (decide_calls, "count"),
        "pipeline.decide_self_ms": (
            self_ms("pipeline.decide", "pipeline.decide_interregion"), "ms"),
        "pipeline.region_select_ms": (self_ms("pipeline.candidate_regions"), "ms"),
        "pipeline.commit_ms": (self_ms("pipeline.commit"), "ms"),
        "pipeline.release_ms": (self_ms("pipeline.release"), "ms"),
        "pipeline.admit_ratio": (_ratio(counts["pipeline.admitted"], decide_calls), "ratio"),
        "interregion.plan_calls": (plan_calls, "count"),
        "interregion.plan_self_ms": (self_ms("interregion.plan"), "ms"),
        "interregion.admit_ratio": (_ratio(counts["interregion.admitted"], plan_calls), "ratio"),
        "mapper.map_calls": (map_calls, "count"),
        "mapper.map_self_ms": (self_ms("mapper.map"), "ms"),
        "mapper.step1_ms": (self_ms("mapper.step1"), "ms"),
        "mapper.step2_ms": (self_ms("mapper.step2"), "ms"),
        "mapper.step3_ms": (self_ms("mapper.step3"), "ms"),
        "mapper.step4_self_ms": (self_ms("mapper.step4"), "ms"),
        "mapper.feasible_ratio": (_ratio(counts["mapper.feasible"], map_calls), "ratio"),
        "mapper_cache.lookups": (lookups, "count"),
        "mapper_cache.hit_ratio": (_ratio(counters["mapper_cache.hits"], lookups), "ratio"),
        "mapper_cache.evictions": (counters["mapper_cache.evictions"], "count"),
        "rescue.calls": (rescue_calls, "count"),
        "rescue.self_ms": (self_ms("rescue.search"), "ms"),
        "rescue.adoption_ratio": (_ratio(counts["rescue.adopted"], rescue_calls), "ratio"),
        "analysis.simulations": (simulations, "count"),
        "analysis.simulated_events": (events, "count"),
        "analysis.cache_hit_ratio": (
            _ratio(counters["analysis.cache_hits"], analysis_lookups), "ratio"),
        "analysis.simulate_ms": (self_ms("analysis.simulate"), "ms"),
        "analysis.ns_per_event": (
            _ratio(stats["analysis.simulate"].self_ns, events)
            if "analysis.simulate" in stats else 0.0, "ns"),
        "state.fingerprint_calls": (calls("state.fingerprint"), "count"),
        "state.fingerprint_ms": (self_ms("state.fingerprint"), "ms"),
        "state.transactions": (counts["state.transactions"], "count"),
        "platform.tiles_of_type_calls": (calls("platform.tiles_of_type"), "count"),
        "platform.tiles_of_type_ms": (self_ms("platform.tiles_of_type"), "ms"),
        "unattributed.self_ms": (wall_ms - covered_ms, "ms"),
        "trace.wall_ms": (wall_ms, "ms"),
        "trace.overhead_ratio": (
            _ratio(done[0].wall_s, statistics.median(unit.wall_s for unit in references))
            if done and references else 0.0, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    for name, (value, unit) in layer.items():
        outcome.metric(name, value, unit)
    outcome.layer_counters = {
        name: value for name, (value, unit) in layer.items()
        if unit == "count" and name != "trace.spans"
    }
    # Each span name's self time lands in exactly one ``*_ms`` row, so the
    # rows (``unattributed`` included) must add up to the traced wall time.
    rows_ms = sum(
        value for name, (value, unit) in layer.items()
        if unit == "ms" and not name.startswith("trace.")
    )
    outcome.check(
        "layers_add_up",
        []
        if abs(rows_ms - wall_ms) <= 1e-6 * max(1.0, wall_ms)
        else [f"layer rows add up to {rows_ms:.3f} ms, traced wall time is {wall_ms:.3f} ms"],
    )
