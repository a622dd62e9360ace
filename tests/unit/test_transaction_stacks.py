"""One transaction stack per store: nesting, folding and cleanup.

Three stores keep journaled, nestable transactions with the same
discipline: the platform state (:class:`PlatformState`), the rejection-
feedback memory (:class:`RejectionMemory`) and the corridor budgets
(:class:`CorridorBudgets`).  Each keeps exactly one stack of open scopes,
owned by the store rather than by the calling thread.  Every test here runs
against all three through a small adapter, so the stores cannot drift apart.
"""

import threading

import pytest

from repro.interregion.budgets import CorridorBudgets
from repro.platform.regions import RegionPartition
from repro.platform.state import LinkAllocation, PlatformState
from repro.spatialmapper.region_score import RejectionMemory
from repro.workloads.synthetic import generate_region_mesh


class StateStore:
    """Mutation ``i`` reserves 1 Mbit/s for channel ``c{i}`` on a NoC link."""

    def __init__(self):
        platform = generate_region_mesh(2, 2)
        self.store = PlatformState(platform)
        self._links = [link.name for link in platform.noc.links]

    def mutate(self, index):
        link = self._links[index % len(self._links)]
        self.store.allocate_link(LinkAllocation(f"app{index}", f"c{index}", link, 1e6))

    def fingerprint(self):
        return self.store.fingerprint()


class MemoryStore:
    """Mutation ``i`` records one rejection and advances the decay clock."""

    def __init__(self):
        self.store = RejectionMemory(decay=0.5)

    def mutate(self, index):
        self.store.record(f"r{index % 3}", ("shape", index))
        self.store.tick()

    def fingerprint(self):
        return self.store.fingerprint()


class BudgetStore:
    """Mutation ``i`` reserves 1 Mbit/s of corridor budget on one region pair."""

    def __init__(self):
        self.store = CorridorBudgets(
            RegionPartition.grid(generate_region_mesh(2, 4), 2, 2), fraction=0.5
        )
        self._pairs = self.store.pairs()

    def mutate(self, index):
        pair = self._pairs[index % len(self._pairs)]
        self.store.reserve(f"app{index}", *pair, 1e6)

    def fingerprint(self):
        return self.store.fingerprint()


@pytest.fixture(params=[StateStore, MemoryStore, BudgetStore], ids=["state", "memory", "budgets"])
def journaled(request):
    return request.param()


def stack_of(journaled):
    return journaled.store._transactions


class TestStackCleanup:
    def test_commit_leaves_the_stack_empty(self, journaled):
        with journaled.store.transaction():
            journaled.mutate(0)
            assert len(stack_of(journaled)) == 1
        assert stack_of(journaled) == []

    def test_explicit_rollback_leaves_the_stack_empty(self, journaled):
        before = journaled.fingerprint()
        with journaled.store.transaction() as txn:
            journaled.mutate(0)
            txn.rollback()
        assert stack_of(journaled) == []
        assert journaled.fingerprint() == before

    def test_exception_leaves_the_stack_empty(self, journaled):
        before = journaled.fingerprint()
        with pytest.raises(RuntimeError):
            with journaled.store.transaction():
                with journaled.store.transaction():
                    journaled.mutate(0)
                    raise RuntimeError("abort")
        assert stack_of(journaled) == []
        assert journaled.fingerprint() == before

    def test_a_fresh_transaction_after_an_abort_starts_clean(self, journaled):
        with pytest.raises(RuntimeError):
            with journaled.store.transaction():
                journaled.mutate(0)
                raise RuntimeError("abort")
        before = journaled.fingerprint()
        with journaled.store.transaction() as txn:
            journaled.mutate(1)
            assert stack_of(journaled) == [txn]
            txn.rollback()
        assert journaled.fingerprint() == before


class TestNesting:
    def test_three_level_commits_are_undone_by_the_outer_rollback(self, journaled):
        before = journaled.fingerprint()
        with journaled.store.transaction() as outer:
            journaled.mutate(0)
            with journaled.store.transaction():
                journaled.mutate(1)
                with journaled.store.transaction():
                    journaled.mutate(2)
            assert journaled.fingerprint() != before
            outer.rollback()
        assert journaled.fingerprint() == before

    def test_middle_rollback_keeps_the_outer_mutations(self, journaled):
        reference = type(journaled)()
        reference.mutate(0)
        with journaled.store.transaction():
            journaled.mutate(0)
            with journaled.store.transaction() as middle:
                with journaled.store.transaction():
                    journaled.mutate(1)
                journaled.mutate(2)
                middle.rollback()
        assert journaled.fingerprint() == reference.fingerprint()

    def test_rolled_back_sibling_spares_the_committed_one(self, journaled):
        reference = type(journaled)()
        reference.mutate(0)
        with journaled.store.transaction():
            with journaled.store.transaction():
                journaled.mutate(0)
            with journaled.store.transaction() as second:
                journaled.mutate(1)
                second.rollback()
        assert journaled.fingerprint() == reference.fingerprint()

    def test_mutation_after_an_explicit_inner_commit_belongs_to_the_outer(
        self, journaled
    ):
        before = journaled.fingerprint()
        with journaled.store.transaction() as outer:
            with journaled.store.transaction() as inner:
                journaled.mutate(0)
                inner.commit()
                # The inner scope is closed but still on the stack: this
                # mutation must journal into the outer scope.
                journaled.mutate(1)
            outer.rollback()
        assert journaled.fingerprint() == before

    def test_committed_nest_equals_unjournaled_mutations(self, journaled):
        reference = type(journaled)()
        for index in range(4):
            reference.mutate(index)
        with journaled.store.transaction():
            journaled.mutate(0)
            with journaled.store.transaction():
                journaled.mutate(1)
                with journaled.store.transaction():
                    journaled.mutate(2)
            journaled.mutate(3)
        assert journaled.fingerprint() == reference.fingerprint()

    def test_journal_is_first_touch_only_and_folds_into_the_parent(self, journaled):
        with journaled.store.transaction() as outer:
            with journaled.store.transaction() as inner:
                journaled.mutate(0)
                first_touch = len(inner._undo)
                journaled.mutate(0)
                journaled.mutate(0)
                # Only the innermost open scope journals, once per key.
                assert len(inner._undo) == first_touch > 0
                assert outer._undo == []
            assert len(outer._undo) == first_touch
            outer.rollback()


class TestOneStackPerStore:
    def test_a_transaction_covers_mutations_from_another_thread(self, journaled):
        # The stack belongs to the store, not to the thread that opened the
        # scope: a mutation made on a helper thread while the scope is open
        # is journaled into it and undone by its rollback.
        before = journaled.fingerprint()
        with journaled.store.transaction() as txn:
            helper = threading.Thread(target=journaled.mutate, args=(0,))
            helper.start()
            helper.join()
            assert journaled.fingerprint() != before
            txn.rollback()
        assert journaled.fingerprint() == before
