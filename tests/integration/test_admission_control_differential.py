"""Differential pins for adaptive admission control.

Three equivalences anchor the subsystem:

* the composite region scorer at its *neutral* policy (``fill_only``, no
  feedback memory) must order — and therefore decide — exactly like the
  historic least-filled-first selection stage;
* an engine with a *disabled* governor (and one with no governor at all)
  must be decision-inert: bit-identical outcomes to the pre-governor
  engine;
* with the full adaptive configuration (composite scoring, rejection
  feedback, governor shedding) two fresh replays of one workload must be
  decision- and state-identical — feedback updates and governor state are
  driven only by the settlement order, and this test is what keeps them
  that way.
"""

import pytest

from repro.runtime.admission_control import GovernorConfig, LoadSheddingGovernor
from repro.runtime.engine import WorkloadEngine
from repro.spatialmapper.region_score import RegionScorePolicy, RegionScorer
from tests.harness import make_manager, two_region_workload


def outcome_key(manager, outcome):
    """Everything a differential comparison should pin about one run."""
    return (
        outcome.decision_log(),
        manager.decisions,
        sorted(manager.state.occupied_tiles()),
        manager.state.link_loads(),
        outcome.departures,
        manager.state.fingerprint(),
    )


def run(seed, *, scorer=None, governor=None, park=True):
    manager = make_manager(region_scorer=scorer)
    engine = WorkloadEngine(manager, governor=governor, park_rejections=park)
    outcome = engine.run(two_region_workload(seed, name=f"acd-{seed}"))
    return manager, outcome


class TestNeutralScorerDifferential:
    @pytest.mark.parametrize("seed", [5, 17, 29])
    def test_fill_only_scorer_reproduces_fill_level_decisions(self, seed):
        baseline_manager, baseline = run(seed)
        scored_manager, scored = run(
            seed,
            scorer=RegionScorer(RegionScorePolicy.fill_only()),
            governor=LoadSheddingGovernor(enabled=False),
        )
        assert outcome_key(scored_manager, scored) == outcome_key(
            baseline_manager, baseline
        )
        assert scored.energy.total_energy_nj == pytest.approx(
            baseline.energy.total_energy_nj
        )

    def test_candidate_ordering_matches_historic_stage(self):
        from tests.harness import make_app

        baseline = make_manager()
        scored = make_manager(region_scorer=RegionScorer(RegionScorePolicy.fill_only()))
        # Partially fill to make fill levels diverge, identically on both.
        for manager in (baseline, scored):
            for index in range(2):
                app = make_app(60 + index, f"fill{index}", "io_l")
                manager.admit(app.als, library=app.library)
        probe = make_app(70, "probe", "io_r")
        names = lambda cs: [r.name if r is not None else None for r in cs]  # noqa: E731
        assert names(scored.pipeline.candidate_regions(probe.als, probe.library)) == names(
            baseline.pipeline.candidate_regions(probe.als, probe.library)
        )


class TestGovernorInertness:
    @pytest.mark.parametrize("seed", [7, 23])
    def test_disabled_governor_is_decision_inert(self, seed):
        baseline_manager, baseline = run(seed, governor=None)
        governed_manager, governed = run(
            seed,
            governor=LoadSheddingGovernor(
                GovernorConfig(rate_floor=0.9, resume_margin=0.05, min_samples=1),
                enabled=False,
            ),
        )
        assert outcome_key(governed_manager, governed) == outcome_key(
            baseline_manager, baseline
        )
        # The disabled governor still reports its metrics — inert in
        # decisions, not invisible.
        assert governed.metrics["counters"]["governor.shed"] == 0
        assert "governor.admission_rate" in governed.metrics["gauges"]


class TestAdaptiveExecutorIdentity:
    @pytest.mark.parametrize("seed", [11, 41])
    def test_full_adaptive_config_replays_identically(self, seed):
        def adaptive_run():
            return run(
                seed,
                scorer=RegionScorer.adaptive(),
                governor=LoadSheddingGovernor(
                    GovernorConfig(rate_floor=0.5, window=16, min_samples=4)
                ),
            )

        first_manager, first = adaptive_run()
        second_manager, second = adaptive_run()
        assert outcome_key(first_manager, first) == outcome_key(
            second_manager, second
        )
        for family in ("counters", "gauges"):
            assert first.metrics[family] == second.metrics[family]
