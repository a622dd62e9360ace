"""The inter-region planner: decomposition, commit atomicity, budgets, scope."""

import pytest

from repro.exceptions import PlatformError
from repro.interregion.budgets import CorridorBudgets
from repro.interregion.planner import CorridorScope, InterRegionPlanner
from repro.platform.regions import RegionPartition
from repro.runtime.manager import RuntimeResourceManager
from repro.runtime.pipeline import AdmissionPipeline
from repro.spatialmapper.config import MapperConfig
from repro.workloads.synthetic import SyntheticConfig, generate_application, generate_region_mesh

CONFIG = SyntheticConfig(stages=4, period_ns=100_000.0, tile_types=("GPP", "DSP"))


def make_manager(*, fraction=0.5, regions=2, span=4):
    platform = generate_region_mesh(regions, span)
    partition = RegionPartition.grid(platform, regions, regions)
    return RuntimeResourceManager(
        platform,
        config=MapperConfig(analysis_iterations=3),
        partition=partition,
        cross_region_planner=True,
        corridor_budget_fraction=fraction,
    )


def cross_app(seed, name, source="io_r0_0", sink="io_r1_1"):
    return generate_application(seed, CONFIG, name=name, source_tile=source, sink_tile=sink)


def regional_app(seed, name, io="io_r0_0"):
    return generate_application(seed, CONFIG, name=name, source_tile=io, sink_tile=io)


class TestApplicability:
    def test_single_region_app_is_out_of_scope(self):
        manager = make_manager()
        planner = manager.pipeline.interregion
        app = regional_app(1, "local")
        assert planner.scope_for(app.als) is None
        decision = planner.decide(app.als, app.library)
        assert not decision.admitted and "not applicable" in decision.reason

    def test_scope_covers_anchors_and_corridor_path(self):
        manager = make_manager()
        planner = manager.pipeline.interregion
        app = cross_app(2, "diag")
        scope = planner.scope_for(app.als)
        assert scope is not None
        assert {"r0_0", "r1_1"} <= set(scope)
        # Diagonal anchors need at least one intermediate region.
        assert len(scope) >= 3

    def test_planner_requires_a_partition(self):
        platform = generate_region_mesh(2, 4)
        pipeline = AdmissionPipeline(platform)
        with pytest.raises(PlatformError):
            InterRegionPlanner(pipeline)

    def test_manager_flag_requires_partition(self):
        platform = generate_region_mesh(2, 4)
        with pytest.raises(PlatformError):
            RuntimeResourceManager(platform, cross_region_planner=True)


class TestAdmission:
    def test_cross_region_admission_is_complete_and_committed(self):
        manager = make_manager()
        planner = manager.pipeline.interregion
        app = cross_app(7, "xapp")
        decision = manager.admit(app.als, library=app.library)
        assert decision.admitted, decision.reason
        result = decision.result
        assert result.mapping.is_complete(app.als)
        assert result.status.value == "feasible"
        # Only real application keys survive: the boundary pseudo-endpoints
        # and pseudo-channels of segment mapping never leak into the result.
        assert all(
            app.als.kpn.has_process(a.process) for a in result.mapping.assignments
        ), [a.process for a in result.mapping.assignments]
        assert all(
            app.als.kpn.has_channel(r.channel) for r in result.mapping.routes
        )
        # Allocations really landed in several regions, with a corridor.
        touched = manager.pipeline.regions_of("xapp")
        assert len(touched) >= 2
        reserved = [
            pair for pair in planner.budgets.pairs()
            if planner.budgets.reserved_bits_per_s(*pair) > 0
        ]
        assert reserved, "no corridor budget was reserved"
        # Every route connects its endpoint tiles contiguously over real links.
        noc = manager.platform.noc
        for route in result.mapping.routes:
            assert route.path[0] == manager.platform.tile(route.source_tile).position
            assert route.path[-1] == manager.platform.tile(route.target_tile).position
            for a, b in zip(route.path, route.path[1:]):
                assert noc.has_link(a, b)

    def test_stop_releases_allocations_and_budgets(self):
        manager = make_manager()
        planner = manager.pipeline.interregion
        empty = planner.budgets.fingerprint()
        app = cross_app(8, "ephemeral")
        assert manager.admit(app.als, library=app.library).admitted
        manager.stop("ephemeral")
        assert planner.budgets.fingerprint() == empty
        assert manager.state.occupied_tiles() == ()
        assert manager.state.link_loads() == {}

    def test_exhausted_budget_rejects_and_falls_back_globally(self):
        # A vanishingly small corridor budget: the planner cannot reserve,
        # but the admission still succeeds through the global fallback.
        manager = make_manager(fraction=1e-9)
        app = cross_app(9, "fallback")
        planned = manager.pipeline.interregion.decide(app.als, app.library)
        assert not planned.admitted
        assert "corridor" in planned.reason or "budget" in planned.reason
        decision = manager.admit(app.als, library=app.library)
        assert decision.admitted, decision.reason
        # The fallback committed nothing through the planner's budgets.
        assert manager.pipeline.interregion.budgets.applications() == ()

    def test_rejected_plan_leaves_state_untouched(self):
        manager = make_manager(fraction=1e-9)
        fingerprint = manager.state.fingerprint()
        app = cross_app(10, "spotless")
        decision = manager.pipeline.interregion.decide(app.als, app.library)
        assert not decision.admitted
        assert manager.state.fingerprint() == fingerprint
        assert manager.state.occupied_tiles() == ()

    def test_planner_decisions_are_deterministic(self):
        app = cross_app(11, "det")
        mappings = []
        for _ in range(2):
            manager = make_manager()
            decision = manager.pipeline.interregion.decide(app.als, app.library)
            assert decision.admitted
            mappings.append(
                (
                    tuple(
                        (a.process, a.tile) for a in decision.result.mapping.assignments
                    ),
                    tuple(
                        (r.channel, r.path) for r in decision.result.mapping.routes
                    ),
                )
            )
        assert mappings[0] == mappings[1]


class TestSharedJournal:
    """Corridor reservations roll back with the state transaction around them."""

    @staticmethod
    def hopeless_app():
        # A 10 ns period no mapping can sustain: the request is rejected.
        config = SyntheticConfig(stages=4, period_ns=10.0, tile_types=("GPP", "DSP"))
        return generate_application(
            3, config, name="hopeless", source_tile="io_r0_0", sink_tile="io_r0_0"
        )

    def test_all_or_nothing_rollback_releases_corridor_reservations(self):
        manager = make_manager()
        budgets = manager.pipeline.interregion.budgets
        empty = budgets.fingerprint()
        app = cross_app(7, "xapp")
        hopeless = self.hopeless_app()
        outcome = manager.start_many(
            [(app.als, app.library), (hopeless.als, hopeless.library)],
            all_or_nothing=True,
        )
        assert [d.admitted for d in outcome.decisions] == [False, False]
        assert outcome.decisions[0].reason.startswith("rolled back")
        assert manager.running_applications == ()
        assert manager.state.occupied_tiles() == ()
        assert budgets.applications() == ()
        assert budgets.fingerprint() == empty
        # Nothing leaked, so the same application is admitted again.
        assert manager.admit(app.als, library=app.library).admitted

    def test_release_under_a_rolled_back_transaction_keeps_the_reservations(self):
        manager = make_manager()
        budgets = manager.pipeline.interregion.budgets
        app = cross_app(7, "xapp")
        assert manager.admit(app.als, library=app.library).admitted
        state_before = manager.state.fingerprint()
        budgets_before = budgets.fingerprint()
        with manager.state.transaction() as txn:
            manager.pipeline.release("xapp")
            assert budgets.applications() == ()
            txn.rollback()
        assert manager.state.fingerprint() == state_before
        assert budgets.fingerprint() == budgets_before
        assert budgets.applications() == ("xapp",)

    def test_budgets_on_another_journal_are_refused(self):
        manager = make_manager()
        foreign = CorridorBudgets(manager.pipeline.partition)
        with pytest.raises(PlatformError, match="journal"):
            InterRegionPlanner(manager.pipeline, budgets=foreign)


class TestCorridorScope:
    def test_scope_covers_regions_and_boundary_links(self):
        manager = make_manager()
        partition = manager.partition
        regions = (partition.region("r0_0"), partition.region("r0_1"))
        boundary = manager.pipeline.interregion.budgets.links_between("r0_0", "r0_1")
        scope = CorridorScope(regions, frozenset(boundary[:1]))
        assert scope.covers_tile(regions[0].tile_names[0])
        assert scope.covers_link(regions[1].link_names[0])
        assert scope.covers_link(boundary[0])
        assert not scope.covers_link(boundary[1])
        outside = partition.region("r1_1")
        assert not scope.covers_tile(outside.tile_names[0])

    @staticmethod
    def _plan_digest(manager, decision):
        assert decision.admitted, decision.reason
        mapping = decision.result.mapping
        return (
            tuple((a.process, a.tile) for a in mapping.assignments),
            tuple((r.channel, r.path) for r in mapping.routes),
            manager.state.fingerprint(),
            manager.pipeline.interregion.budgets.fingerprint(),
        )

    @pytest.mark.parametrize("seed", [7, 11])
    def test_explicit_scope_decides_like_the_recomputed_one(self, seed):
        app = cross_app(seed, "scoped")
        explicit = make_manager()
        planner = explicit.pipeline.interregion
        scoped = planner.decide(app.als, app.library, scope=planner.scope_for(app.als))
        recomputed = make_manager()
        unscoped = recomputed.pipeline.interregion.decide(app.als, app.library)
        assert self._plan_digest(explicit, scoped) == self._plan_digest(
            recomputed, unscoped
        )

    @pytest.mark.parametrize("seed", [7, 11])
    def test_admitted_plan_stays_inside_its_scope(self, seed):
        manager = make_manager()
        planner = manager.pipeline.interregion
        partition = manager.partition
        app = cross_app(seed, "confined")
        scope = planner.scope_for(app.als)
        decision = planner.decide(app.als, app.library, scope=scope)
        assert decision.admitted, decision.reason
        regions = [partition.region(name) for name in scope]
        for tile in manager.state.occupied_tiles():
            assert any(region.covers_tile(tile) for region in regions), tile
        boundary = {
            link
            for source in scope
            for target in scope
            for link in planner.budgets.links_between(source, target)
        }
        for link in manager.state.link_loads():
            assert link in boundary or any(
                region.covers_link(link) for region in regions
            ), link
        for pair in planner.budgets.pairs():
            if planner.budgets.reserved_bits_per_s(*pair) > 0:
                assert set(pair) <= set(scope)

    def test_scope_without_a_connecting_path_rejects_cleanly(self):
        manager = make_manager()
        planner = manager.pipeline.interregion
        app = cross_app(12, "cut_off")
        state_before = manager.state.fingerprint()
        budgets_before = planner.budgets.fingerprint()
        # Diagonal anchors share no boundary: without an intermediate
        # region in scope there is no corridor to reserve.
        decision = planner.decide(app.als, app.library, scope=("r0_0", "r1_1"))
        assert not decision.admitted
        assert decision.reason.startswith("inter-region:")
        assert manager.state.fingerprint() == state_before
        assert planner.budgets.fingerprint() == budgets_before
        # The planner's own scope includes the intermediate region and admits.
        assert planner.decide(app.als, app.library).admitted
