"""Region partitions, per-region views and region-scoped transactions."""

import pytest

from repro.exceptions import PlatformError
from repro.platform.regions import Region, RegionPartition
from repro.platform.state import LinkAllocation, PlatformState, ProcessAllocation
from repro.workloads.synthetic import generate_platform


@pytest.fixture()
def platform():
    """A 4x4 synthetic mesh (io corners + random processing tiles)."""
    return generate_platform(seed=5, width=4, height=4)


@pytest.fixture()
def halves(platform):
    """The mesh split into a left and a right region."""
    return RegionPartition.grid(platform, 2, 1)


def _alloc(tile, application="app", process="p0"):
    return ProcessAllocation(
        application=application, process=process, tile=tile, memory_bytes=1024
    )


class TestRegionPartition:
    def test_grid_covers_every_tile_exactly_once(self, platform, halves):
        owners = {}
        for region in halves:
            for tile in region.tile_names:
                assert tile not in owners
                owners[tile] = region.name
        assert set(owners) == set(platform.tile_names)

    def test_region_of_tile_matches_membership(self, platform, halves):
        for tile in platform.tile_names:
            region = halves.region_of_tile(tile)
            assert tile in region
            assert halves.region_of_tile(tile) is region

    def test_internal_and_cross_links_partition_the_noc(self, platform, halves):
        internal = {name for region in halves for name in region.link_names}
        cross = set(halves.cross_link_names())
        every = {link.name for link in platform.noc.links}
        assert internal | cross == every
        assert internal & cross == set()
        assert cross  # a split mesh always has boundary links

    def test_single_partition_spans_everything(self, platform):
        partition = RegionPartition.single(platform)
        region = partition.regions[0]
        assert set(region.tile_names) == set(platform.tile_names)
        assert partition.cross_link_names() == ()

    def test_overlapping_regions_rejected(self, platform):
        a = Region("a", platform, platform.noc.positions)
        b = Region("b", platform, platform.noc.positions[:1])
        with pytest.raises(PlatformError):
            RegionPartition(platform, [a, b])

    def test_uncovered_tile_rejected(self, platform):
        some = Region("some", platform, platform.noc.positions[:1])
        with pytest.raises(PlatformError):
            RegionPartition(platform, [some])

    def test_grid_bounds_validated(self, platform):
        with pytest.raises(PlatformError):
            RegionPartition.grid(platform, 0, 1)
        with pytest.raises(PlatformError):
            RegionPartition.grid(platform, 5, 1)


class TestRegionView:
    def test_fill_level_tracks_allocations(self, platform, halves):
        state = PlatformState(platform)
        region = halves.regions[0]
        view = region.view(state)
        assert view.fill_level() == 0.0
        tile = region.processing_tile_names()[0]
        state.allocate_process(_alloc(tile))
        assert view.used_process_slots() == 1
        assert view.fill_level() > 0.0
        # The other region's view is untouched.
        assert halves.regions[1].view(state).used_process_slots() == 0

    def test_fingerprint_changes_and_restores(self, platform, halves):
        state = PlatformState(platform)
        region = halves.regions[0]
        other = halves.regions[1]
        empty = region.fingerprint(state)
        other_empty = other.fingerprint(state)
        tile = region.processing_tile_names()[0]
        state.allocate_process(_alloc(tile))
        assert region.fingerprint(state) != empty
        # Disjoint region: fingerprint untouched by the allocation.
        assert other.fingerprint(state) == other_empty
        state.release_application("app")
        assert region.fingerprint(state) == empty


class TestScopedTransactions:
    def test_sibling_region_scopes_keep_independent_journals(self, platform, halves):
        left, right = halves.regions
        state = PlatformState(platform)
        left_tile = left.processing_tile_names()[0]
        right_tile = right.processing_tile_names()[0]
        with state.transaction(left):
            state.allocate_process(_alloc(left_tile, application="l"))
            with state.transaction(right) as inner:
                state.allocate_process(_alloc(right_tile, application="r"))
                inner.rollback()
            # The right-region rollback must not disturb the left allocation.
            assert state.used_process_slots(left_tile) == 1
            assert state.used_process_slots(right_tile) == 0
        assert state.used_process_slots(left_tile) == 1

    def test_outer_region_rollback_spares_committed_sibling(self, platform, halves):
        left, right = halves.regions
        state = PlatformState(platform)
        left_tile = left.processing_tile_names()[0]
        right_tile = right.processing_tile_names()[0]
        with state.transaction(left) as outer:
            state.allocate_process(_alloc(left_tile, application="l"))
            with state.transaction(right):
                state.allocate_process(_alloc(right_tile, application="r"))
            outer.rollback()
        # Only the left-region mutation is undone; the committed right-region
        # admission survives — per-region commit isolation.
        assert state.used_process_slots(left_tile) == 0
        assert state.used_process_slots(right_tile) == 1

    def test_mutation_outside_every_open_scope_raises(self, platform, halves):
        left, right = halves.regions
        state = PlatformState(platform)
        right_tile = right.processing_tile_names()[0]
        with pytest.raises(PlatformError):
            with state.transaction(left):
                state.allocate_process(_alloc(right_tile))
        # The failed mutation never happened.
        assert state.used_process_slots(right_tile) == 0

    def test_enclosing_global_scope_catches_out_of_region_keys(self, platform, halves):
        left, right = halves.regions
        state = PlatformState(platform)
        right_tile = right.processing_tile_names()[0]
        with state.transaction() as outer:
            with state.transaction(left):
                # Outside `left`, but the enclosing global transaction covers it.
                state.allocate_process(_alloc(right_tile))
            outer.rollback()
        assert state.used_process_slots(right_tile) == 0

    def test_scoped_link_journal(self, platform, halves):
        left = halves.regions[0]
        state = PlatformState(platform)
        link_name = left.link_names[0]
        with state.transaction(left) as txn:
            state.allocate_link(
                LinkAllocation(
                    application="app", channel="c", link=link_name, bits_per_s=1e6
                )
            )
            txn.rollback()
        assert state.link_load_bits_per_s(link_name) == 0.0
        cross = halves.cross_link_names()[0]
        with pytest.raises(PlatformError):
            with state.transaction(left):
                state.allocate_link(
                    LinkAllocation(
                        application="app", channel="c", link=cross, bits_per_s=1e6
                    )
                )
        assert state.link_load_bits_per_s(cross) == 0.0


def _fill_region(state, region, application):
    """One process on every processing tile and 1 Mbit/s on every internal link."""
    for index, tile in enumerate(region.processing_tile_names()):
        state.allocate_process(_alloc(tile, application=application, process=f"p{index}"))
    for index, link in enumerate(region.link_names):
        state.allocate_link(
            LinkAllocation(
                application=application, channel=f"c{index}", link=link, bits_per_s=1e6
            )
        )


@pytest.mark.parametrize("side", [0, 1], ids=["left", "right"])
class TestRegionIsolation:
    def test_scoped_rollback_restores_the_state_bit_identically(
        self, platform, halves, side
    ):
        region = halves.regions[side]
        state = PlatformState(platform)
        _fill_region(state, halves.regions[0], "base_l")
        _fill_region(state, halves.regions[1], "base_r")
        before = state.fingerprint()
        with state.transaction(region) as txn:
            state.release_application("base_l" if side == 0 else "base_r")
            _fill_region(state, region, "tentative")
            txn.rollback()
        assert state.fingerprint() == before
        assert region.fingerprint(state) == state.fingerprint(
            region.tile_names, region.link_names
        )

    def test_scoped_commit_leaves_the_other_region_unmoved(self, platform, halves, side):
        region = halves.regions[side]
        other = halves.regions[1 - side]
        state = PlatformState(platform)
        _fill_region(state, other, "neighbour")
        other_before = other.fingerprint(state)
        own_before = region.fingerprint(state)
        with state.transaction(region):
            _fill_region(state, region, "admitted")
        assert other.fingerprint(state) == other_before
        assert region.fingerprint(state) != own_before

    def test_region_scope_inside_a_global_transaction_folds_into_it(
        self, platform, halves, side
    ):
        region = halves.regions[side]
        state = PlatformState(platform)
        before = state.fingerprint()
        with state.transaction() as outer:
            with state.transaction(region):
                _fill_region(state, region, "inner")
            assert state.fingerprint() != before
            outer.rollback()
        assert state.fingerprint() == before

    def test_scoped_commit_equals_the_unjournaled_mutation(self, platform, halves, side):
        region = halves.regions[side]
        journaled = PlatformState(platform)
        plain = PlatformState(platform)
        with journaled.transaction(region):
            _fill_region(journaled, region, "app")
        _fill_region(plain, region, "app")
        assert journaled.fingerprint() == plain.fingerprint()
        assert not journaled.in_transaction
