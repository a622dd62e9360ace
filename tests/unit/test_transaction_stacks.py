"""One journal for three stores: nesting, folding and cleanup.

Three stores change while the run-time manager admits an application: the
platform state (:class:`PlatformState`), the rejection-feedback memory
(:class:`RejectionMemory`) and the corridor budgets
(:class:`CorridorBudgets`).  All three record their undo entries in the
state's :class:`~repro.platform.journal.Journal`, which keeps exactly one
stack of open scopes, owned by the journal rather than by the calling
thread.  Every test here runs against each store through a small adapter
whose transactions are opened with ``state.transaction()`` on that shared
journal.
"""

import threading

import pytest

from repro.exceptions import PlatformError
from repro.interregion.budgets import CorridorBudgets
from repro.platform.regions import RegionPartition
from repro.platform.state import LinkAllocation, PlatformState
from repro.spatialmapper.region_score import RejectionMemory
from repro.workloads.synthetic import generate_region_mesh


class Stores:
    """A platform state with corridor budgets and a rejection memory on its journal."""

    def __init__(self):
        platform = generate_region_mesh(2, 4)
        self.state = PlatformState(platform)
        self.journal = self.state.journal
        self.budgets = CorridorBudgets(
            RegionPartition.grid(platform, 2, 2), fraction=0.5, journal=self.journal
        )
        self.memory = RejectionMemory(decay=0.5)
        self.memory.journal = self.journal
        self._links = [link.name for link in platform.noc.links]
        self._pairs = self.budgets.pairs()

    def transaction(self):
        return self.state.transaction()

    def mutate_state(self, index):
        """Reserve 1 Mbit/s for channel ``c{index}`` on a NoC link."""
        link = self._links[index % len(self._links)]
        self.state.allocate_link(LinkAllocation(f"app{index}", f"c{index}", link, 1e6))

    def mutate_memory(self, index):
        """Record one rejection and advance the decay clock."""
        self.memory.record(f"r{index % 3}", ("shape", index))
        self.memory.tick()

    def mutate_budgets(self, index):
        """Reserve 1 Mbit/s of corridor budget on one region pair."""
        pair = self._pairs[index % len(self._pairs)]
        self.budgets.reserve(f"app{index}", *pair, 1e6)


class StateStore(Stores):
    def mutate(self, index):
        self.mutate_state(index)

    def fingerprint(self):
        return self.state.fingerprint()


class MemoryStore(Stores):
    def mutate(self, index):
        self.mutate_memory(index)

    def fingerprint(self):
        return self.memory.fingerprint()


class BudgetStore(Stores):
    def mutate(self, index):
        self.mutate_budgets(index)

    def fingerprint(self):
        return self.budgets.fingerprint()


@pytest.fixture(params=[StateStore, MemoryStore, BudgetStore], ids=["state", "memory", "budgets"])
def journaled(request):
    return request.param()


def stack_of(journaled):
    return journaled.journal._stack


class TestStackCleanup:
    def test_commit_leaves_the_stack_empty(self, journaled):
        with journaled.transaction():
            journaled.mutate(0)
            assert len(stack_of(journaled)) == 1
        assert stack_of(journaled) == []

    def test_explicit_rollback_leaves_the_stack_empty(self, journaled):
        before = journaled.fingerprint()
        with journaled.transaction() as txn:
            journaled.mutate(0)
            txn.rollback()
        assert stack_of(journaled) == []
        assert journaled.fingerprint() == before

    def test_exception_leaves_the_stack_empty(self, journaled):
        before = journaled.fingerprint()
        with pytest.raises(RuntimeError):
            with journaled.transaction():
                with journaled.transaction():
                    journaled.mutate(0)
                    raise RuntimeError("abort")
        assert stack_of(journaled) == []
        assert journaled.fingerprint() == before

    def test_a_fresh_transaction_after_an_abort_starts_clean(self, journaled):
        with pytest.raises(RuntimeError):
            with journaled.transaction():
                journaled.mutate(0)
                raise RuntimeError("abort")
        before = journaled.fingerprint()
        with journaled.transaction() as txn:
            journaled.mutate(1)
            assert stack_of(journaled) == [txn]
            txn.rollback()
        assert journaled.fingerprint() == before


class TestNesting:
    def test_three_level_commits_are_undone_by_the_outer_rollback(self, journaled):
        before = journaled.fingerprint()
        with journaled.transaction() as outer:
            journaled.mutate(0)
            with journaled.transaction():
                journaled.mutate(1)
                with journaled.transaction():
                    journaled.mutate(2)
            assert journaled.fingerprint() != before
            outer.rollback()
        assert journaled.fingerprint() == before

    def test_middle_rollback_keeps_the_outer_mutations(self, journaled):
        reference = type(journaled)()
        reference.mutate(0)
        with journaled.transaction():
            journaled.mutate(0)
            with journaled.transaction() as middle:
                with journaled.transaction():
                    journaled.mutate(1)
                journaled.mutate(2)
                middle.rollback()
        assert journaled.fingerprint() == reference.fingerprint()

    def test_rolled_back_sibling_spares_the_committed_one(self, journaled):
        reference = type(journaled)()
        reference.mutate(0)
        with journaled.transaction():
            with journaled.transaction():
                journaled.mutate(0)
            with journaled.transaction() as second:
                journaled.mutate(1)
                second.rollback()
        assert journaled.fingerprint() == reference.fingerprint()

    def test_mutation_after_an_explicit_inner_commit_belongs_to_the_outer(
        self, journaled
    ):
        before = journaled.fingerprint()
        with journaled.transaction() as outer:
            with journaled.transaction() as inner:
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
        with journaled.transaction():
            journaled.mutate(0)
            with journaled.transaction():
                journaled.mutate(1)
                with journaled.transaction():
                    journaled.mutate(2)
            journaled.mutate(3)
        assert journaled.fingerprint() == reference.fingerprint()

    def test_journal_is_first_touch_only_and_folds_into_the_parent(self, journaled):
        with journaled.transaction() as outer:
            with journaled.transaction() as inner:
                journaled.mutate(0)
                first_touch = len(inner._undo)
                journaled.mutate(0)
                journaled.mutate(0)
                # Only the innermost open scope journals, once per key.
                assert len(inner._undo) == first_touch > 0
                assert outer._undo == []
            assert len(outer._undo) == first_touch
            outer.rollback()


    def test_closing_an_outer_scope_under_an_open_inner_one_raises(self, journaled):
        before = journaled.fingerprint()
        with journaled.transaction() as outer:
            journaled.mutate(0)
            with journaled.transaction():
                journaled.mutate(1)
                with pytest.raises(PlatformError, match="nested transaction is open"):
                    outer.rollback()
                with pytest.raises(PlatformError, match="nested transaction is open"):
                    outer.commit()
                assert not outer.closed
            outer.rollback()
        assert stack_of(journaled) == []
        assert journaled.fingerprint() == before


class TestOneStackPerStore:
    def test_a_transaction_covers_mutations_from_another_thread(self, journaled):
        # The stack belongs to the journal, not to the thread that opened the
        # scope: a mutation made on a helper thread while the scope is open
        # is journaled into it and undone by its rollback.
        before = journaled.fingerprint()
        with journaled.transaction() as txn:
            helper = threading.Thread(target=journaled.mutate, args=(0,))
            helper.start()
            helper.join()
            assert journaled.fingerprint() != before
            txn.rollback()
        assert journaled.fingerprint() == before


class TestOneJournal:
    def test_one_state_rollback_restores_all_three_stores(self):
        stores = Stores()
        stores.mutate_state(0)
        stores.mutate_memory(0)
        stores.mutate_budgets(0)
        before = (
            stores.state.fingerprint(),
            stores.memory.fingerprint(),
            stores.budgets.fingerprint(),
        )
        with stores.state.transaction() as txn:
            for index in range(1, 4):
                stores.mutate_state(index)
                stores.mutate_memory(index)
                stores.mutate_budgets(index)
            stores.budgets.release_application("app0")
            txn.rollback()
        after = (
            stores.state.fingerprint(),
            stores.memory.fingerprint(),
            stores.budgets.fingerprint(),
        )
        assert after == before

    def test_a_region_scope_covers_budget_and_memory_keys(self):
        stores = Stores()
        region = RegionPartition.grid(stores.state.platform, 2, 2).regions[0]
        before = (stores.memory.fingerprint(), stores.budgets.fingerprint())
        with stores.state.transaction(region) as txn:
            stores.mutate_memory(0)
            stores.mutate_budgets(0)
            txn.rollback()
        assert (stores.memory.fingerprint(), stores.budgets.fingerprint()) == before
