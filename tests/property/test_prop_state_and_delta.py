"""Property tests of the incremental resource-accounting core.

Two invariants protect the O(1) fast paths introduced for run-time admission:

* the cached per-tile/per-link aggregates of :class:`PlatformState` must
  always equal the sums recomputed from the raw allocation lists, across
  arbitrary interleavings of allocate / release / transaction commit /
  transaction rollback;
* a rolled-back transaction must leave the state bit-identical to the
  snapshot taken before it opened;
* fingerprints are exact: a copy reproduces them, starting and releasing
  an application restores them, a region's fingerprint ignores the other
  regions, and equal digests mean equal fingerprints;
* the delta cost used by the step-2 local search must equal the full
  Manhattan-cost recompute for random move/swap sequences.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PlatformError
from repro.mapping.assignment import ProcessAssignment
from repro.mapping.cost import (
    incident_channels,
    manhattan_cost,
    manhattan_cost_delta,
)
from repro.mapping.mapping import Mapping
from repro.platform.regions import RegionPartition
from repro.platform.state import (
    LinkAllocation,
    PlatformState,
    ProcessAllocation,
    fingerprint_digest,
)
from repro.spatialmapper.step1_implementation import select_implementations
from repro.workloads.synthetic import SyntheticConfig, generate_application, generate_platform


def _recomputed_aggregates(state: PlatformState):
    """Ground-truth aggregates, re-summed from the raw allocation lists."""
    tiles = {}
    for name, allocations in state._tile_occupants.items():
        tiles[name] = (
            len(allocations),
            sum(a.memory_bytes for a in allocations),
            sum(a.compute_cycles_per_iteration for a in allocations),
        )
    links = {
        name: sum(a.bits_per_s for a in allocations)
        for name, allocations in state._link_allocations.items()
    }
    return tiles, links


def _assert_aggregates_consistent(state: PlatformState) -> None:
    tiles, links = _recomputed_aggregates(state)
    for name, (slots, memory, cycles) in tiles.items():
        assert state.used_process_slots(name) == slots
        assert state.used_memory_bytes(name) == memory
        assert state.used_compute_cycles_per_iteration(name) == cycles
    for name, load in links.items():
        assert state.link_load_bits_per_s(name) == load


def _snapshot(state: PlatformState):
    """Bit-exact snapshot of everything observable about the state."""
    return (
        {name: tuple(a) for name, a in state._tile_occupants.items()},
        {name: tuple(a) for name, a in state._link_allocations.items()},
        dict(state._used_slots),
        dict(state._used_memory),
        dict(state._used_cycles),
        dict(state._link_load),
    )


# One operation: (kind, seed material) drawn from small integer spaces so
# sequences revisit the same tiles/links/applications often.
operations = st.lists(
    st.tuples(
        st.sampled_from(["process", "link", "release", "txn_commit", "txn_rollback"]),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=3),
    ),
    min_size=1,
    max_size=40,
)


class TestStateAggregates:
    @given(operations)
    @settings(max_examples=60, deadline=None)
    def test_aggregates_match_recomputed_sums(self, ops):
        platform = generate_platform(seed=7, width=3, height=3)
        state = PlatformState(platform)
        processing = [t.name for t in platform.processing_tiles()]
        links = [link.name for link in platform.noc.links]

        def apply_ops(remaining, depth=0):
            counter = 0
            while remaining:
                kind, a, b = remaining.pop(0)
                counter += 1
                application = f"app{b}"
                if kind == "process":
                    tile = processing[a % len(processing)]
                    try:
                        state.allocate_process(
                            ProcessAllocation(
                                application,
                                f"p{depth}_{counter}",
                                tile,
                                memory_bytes=(a + 1) * 512,
                                compute_cycles_per_iteration=float(a) * 10.5,
                            )
                        )
                    except PlatformError:
                        pass
                elif kind == "link":
                    link = links[a % len(links)]
                    try:
                        state.allocate_link(
                            LinkAllocation(application, f"c{depth}_{counter}", link, (a + 1) * 1e6)
                        )
                    except PlatformError:
                        pass
                elif kind == "release":
                    state.release_application(application)
                elif kind in ("txn_commit", "txn_rollback") and depth < 3:
                    inner = remaining[: a + 1]
                    del remaining[: a + 1]
                    before = _snapshot(state)
                    with state.transaction() as txn:
                        apply_ops(inner, depth + 1)
                        if kind == "txn_rollback":
                            txn.rollback()
                    if kind == "txn_rollback":
                        assert _snapshot(state) == before
                _assert_aggregates_consistent(state)

        apply_ops(list(ops))
        _assert_aggregates_consistent(state)

    @given(operations)
    @settings(max_examples=40, deadline=None)
    def test_rollback_restores_state_bit_identically(self, ops):
        platform = generate_platform(seed=11, width=3, height=3)
        state = PlatformState(platform)
        processing = [t.name for t in platform.processing_tiles()]
        links = [link.name for link in platform.noc.links]

        # Seed some committed load so rollbacks restore non-trivial entries.
        state.allocate_process(ProcessAllocation("base", "p0", processing[0], memory_bytes=256))
        state.allocate_link(LinkAllocation("base", "c0", links[0], 1e6))

        before = _snapshot(state)
        with state.transaction() as txn:
            for index, (kind, a, b) in enumerate(ops):
                try:
                    if kind in ("process", "release", "txn_commit"):
                        state.allocate_process(
                            ProcessAllocation(
                                f"app{b}",
                                f"q{index}",
                                processing[a % len(processing)],
                                memory_bytes=a * 128,
                            )
                        )
                    elif kind == "link":
                        state.allocate_link(
                            LinkAllocation(f"app{b}", f"d{index}", links[a % len(links)], 5e5)
                        )
                    else:
                        state.release_application("base")
                except PlatformError:
                    pass
            txn.rollback()
        assert _snapshot(state) == before

    def test_exception_rolls_back_automatically(self):
        platform = generate_platform(seed=13, width=3, height=3)
        state = PlatformState(platform)
        tile = platform.processing_tiles()[0].name
        before = _snapshot(state)
        try:
            with state.transaction():
                state.allocate_process(ProcessAllocation("app", "p", tile))
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert _snapshot(state) == before

    def test_committed_inner_transaction_undone_by_outer_rollback(self):
        platform = generate_platform(seed=17, width=3, height=3)
        state = PlatformState(platform)
        tile = platform.processing_tiles()[0].name
        before = _snapshot(state)
        with state.transaction() as outer:
            with state.transaction():
                state.allocate_process(ProcessAllocation("app", "p", tile))
            assert state.used_process_slots(tile) == 1
            outer.rollback()
        assert _snapshot(state) == before


def _apply_flat(state, ops, processing, links, application=None):
    """Apply ``ops`` without transactions; infeasible allocations are skipped.

    With ``application`` set every allocation belongs to it and releases
    are skipped, so the ops only ever add that application's load.
    """
    for index, (kind, a, b) in enumerate(ops):
        name = application or f"app{b}"
        try:
            if kind in ("process", "txn_commit"):
                state.allocate_process(
                    ProcessAllocation(
                        name,
                        f"p{index}",
                        processing[a % len(processing)],
                        memory_bytes=(a + 1) * 256,
                        compute_cycles_per_iteration=float(a) * 10.5,
                    )
                )
            elif kind in ("link", "txn_rollback"):
                state.allocate_link(
                    LinkAllocation(name, f"c{index}", links[a % len(links)], (a + 1) * 1e6)
                )
            elif application is None:
                state.release_application(name)
        except PlatformError:
            pass


class TestFingerprints:
    @given(operations)
    @settings(max_examples=40, deadline=None)
    def test_copy_reproduces_fingerprint_and_digest(self, ops):
        platform = generate_platform(seed=19, width=3, height=3)
        state = PlatformState(platform)
        processing = [t.name for t in platform.processing_tiles()]
        links = [link.name for link in platform.noc.links]
        _apply_flat(state, ops, processing, links)
        clone = state.copy()
        assert clone.fingerprint() == state.fingerprint()
        assert fingerprint_digest(clone.fingerprint()) == fingerprint_digest(
            state.fingerprint()
        )
        assert _snapshot(clone) == _snapshot(state)
        # The copy is independent: mutating it leaves the original alone.
        before = _snapshot(state)
        clone.allocate_link(LinkAllocation("clone", "c", links[0], 1.0))
        assert _snapshot(state) == before

    @given(operations, operations)
    @settings(max_examples=40, deadline=None)
    def test_start_then_release_restores_fingerprint(self, base_ops, app_ops):
        platform = generate_platform(seed=23, width=3, height=3)
        state = PlatformState(platform)
        processing = [t.name for t in platform.processing_tiles()]
        links = [link.name for link in platform.noc.links]
        _apply_flat(state, base_ops, processing, links)
        before = state.fingerprint()
        _apply_flat(state, app_ops, processing, links, application="fresh")
        state.release_application("fresh")
        assert state.fingerprint() == before
        assert "fresh" not in state.applications()
        _assert_aggregates_consistent(state)

    @given(operations)
    @settings(max_examples=40, deadline=None)
    def test_region_fingerprint_ignores_the_other_region(self, ops):
        platform = generate_platform(seed=29, width=4, height=4)
        left, right = RegionPartition.grid(platform, 2, 1).regions
        state = PlatformState(platform)
        right_tile = right.processing_tile_names()[0]
        state.allocate_process(ProcessAllocation("base", "p", right_tile, memory_bytes=64))
        right_before = right.fingerprint(state)
        _apply_flat(
            state, ops, list(left.processing_tile_names()), list(left.link_names)
        )
        assert right.fingerprint(state) == right_before
        # Every per-region entry is also an entry of the global fingerprint.
        assert set(left.fingerprint(state)) | set(right.fingerprint(state)) <= set(
            state.fingerprint()
        )

    @given(operations, operations)
    @settings(max_examples=40, deadline=None)
    def test_equal_digests_mean_equal_fingerprints(self, first_ops, second_ops):
        platform = generate_platform(seed=31, width=3, height=3)
        processing = [t.name for t in platform.processing_tiles()]
        links = [link.name for link in platform.noc.links]
        first = PlatformState(platform)
        second = PlatformState(platform)
        _apply_flat(first, first_ops, processing, links)
        _apply_flat(second, second_ops, processing, links)
        same_digest = fingerprint_digest(first.fingerprint()) == fingerprint_digest(
            second.fingerprint()
        )
        assert same_digest == (first.fingerprint() == second.fingerprint())


class TestDeltaCost:
    @given(
        st.integers(min_value=0, max_value=30),
        st.lists(
            st.tuples(st.integers(min_value=0, max_value=7), st.integers(min_value=0, max_value=7)),
            min_size=1,
            max_size=12,
        ),
        st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_delta_equals_full_recompute_for_moves_and_swaps(self, seed, steps, weighted):
        app = generate_application(seed, config=SyntheticConfig(stages=5, period_ns=50_000.0))
        platform = generate_platform(seed + 500, width=4, height=4)
        step1 = select_implementations(app.als, platform, app.library)
        mapping = step1.mapping
        processes = [
            p.name
            for p in app.als.kpn.mappable_processes()
            if mapping.is_assigned(p.name) and mapping.assignment(p.name).implementation
        ]
        if not processes:
            return
        incident = incident_channels(app.als)
        tiles_by_type = {
            type_.name: [t.name for t in platform.tiles_of_type(type_.name) if t.is_processing]
            for type_ in platform.tile_types()
        }

        for a, b in steps:
            process_a = processes[a % len(processes)]
            process_b = processes[b % len(processes)]
            assignment_a = mapping.assignment(process_a)
            tile_type = assignment_a.implementation.tile_type
            same_type_tiles = tiles_by_type.get(tile_type, [])
            if process_a != process_b and (
                mapping.assignment(process_b).implementation.tile_type == tile_type
            ):
                # Swap the two processes.
                moves = {
                    process_a: mapping.tile_of(process_b),
                    process_b: mapping.tile_of(process_a),
                }
            elif same_type_tiles:
                moves = {process_a: same_type_tiles[b % len(same_type_tiles)]}
            else:
                continue

            before = manhattan_cost(mapping, app.als, platform, weighted_by_tokens=weighted)
            delta = manhattan_cost_delta(
                mapping, app.als, platform, moves, incident, weighted_by_tokens=weighted
            )
            for process_name, tile_name in moves.items():
                mapping.assign(mapping.assignment(process_name).moved_to(tile_name))
            after = manhattan_cost(mapping, app.als, platform, weighted_by_tokens=weighted)
            assert before + delta == after

    def test_delta_on_partial_mapping_skips_unplaced_endpoints(self):
        app = generate_application(3, config=SyntheticConfig(stages=4, period_ns=50_000.0))
        platform = generate_platform(503, width=4, height=4)
        step1 = select_implementations(app.als, platform, app.library)
        mapping = step1.mapping
        processes = [
            p.name
            for p in app.als.kpn.mappable_processes()
            if mapping.is_assigned(p.name) and mapping.assignment(p.name).implementation
        ]
        victim = processes[-1]
        mover = processes[0]
        partial = Mapping(app.als.name)
        for assignment in mapping.assignments:
            if assignment.process != victim:
                partial.assign(assignment)
        incident = incident_channels(app.als)
        tile_type = mapping.assignment(mover).implementation.tile_type
        target = [
            t.name
            for t in platform.tiles_of_type(tile_type)
            if t.is_processing and t.name != partial.tile_of(mover)
        ]
        if not target:
            return
        moves = {mover: target[0]}
        before = manhattan_cost(partial, app.als, platform)
        delta = manhattan_cost_delta(partial, app.als, platform, moves, incident)
        partial.assign(partial.assignment(mover).moved_to(target[0]))
        assert before + delta == manhattan_cost(partial, app.als, platform)


class TestStep2DeltaAgainstFullSearch:
    @given(st.integers(min_value=0, max_value=25))
    @settings(max_examples=15, deadline=None)
    def test_refinement_cost_matches_full_recompute(self, seed):
        """The cost step 2 reports after its delta-driven search must equal a
        from-scratch recompute on the refined mapping."""
        from repro.spatialmapper.step2_tile_assignment import refine_tile_assignment

        app = generate_application(seed, config=SyntheticConfig(stages=4, period_ns=50_000.0))
        platform = generate_platform(seed + 900, width=4, height=4)
        step1 = select_implementations(app.als, platform, app.library)
        result = refine_tile_assignment(step1.mapping, app.als, platform)
        assert result.final_cost == manhattan_cost(result.mapping, app.als, platform)

    @given(st.integers(min_value=0, max_value=25))
    @settings(max_examples=10, deadline=None)
    def test_step3_leaves_live_state_untouched(self, seed):
        """Routing journals its tentative reservations into the caller's state
        and must roll every one of them back."""
        from repro.spatialmapper.step3_routing import route_channels

        app = generate_application(seed, config=SyntheticConfig(stages=4, period_ns=50_000.0))
        platform = generate_platform(seed + 700, width=4, height=4)
        state = PlatformState(platform)
        tile = platform.processing_tiles()[0].name
        link = platform.noc.links[0].name
        state.allocate_process(ProcessAllocation("other", "p", tile, memory_bytes=64))
        state.allocate_link(LinkAllocation("other", "c", link, 2e6))
        step1 = select_implementations(app.als, platform, app.library, state=state)
        before = _snapshot(state)
        route_channels(step1.mapping, app.als, platform, state=state)
        assert _snapshot(state) == before
