"""Property: corridor budget accounting is exactly reversible on rollback."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import PlatformError
from repro.interregion.budgets import CorridorBudgets
from repro.platform.regions import RegionPartition
from repro.workloads.synthetic import generate_region_mesh

_PLATFORM = generate_region_mesh(2, 4)
_PARTITION = RegionPartition.grid(_PLATFORM, 2, 2)
_PAIRS = tuple(CorridorBudgets(_PARTITION).pairs())

_APPS = st.sampled_from(["a", "b", "c"])
_OPS = st.lists(
    st.one_of(
        st.tuples(st.just("reserve"), _APPS, st.sampled_from(_PAIRS),
                  st.floats(min_value=1.0, max_value=5e9)),
        st.tuples(st.just("release"), _APPS),
    ),
    max_size=24,
)


def _apply(budgets: CorridorBudgets, ops) -> None:
    for op in ops:
        if op[0] == "reserve":
            _, app, pair, bits = op
            try:
                budgets.reserve(app, pair[0], pair[1], bits)
            except PlatformError:
                pass  # over budget: the failed reserve must change nothing
        else:
            budgets.release_application(op[1])


@settings(max_examples=60, deadline=None)
@given(prefix=_OPS, tentative=_OPS)
def test_rollback_restores_fingerprint(prefix, tentative):
    """Any journaled op sequence rolls back to the pre-transaction state."""
    budgets = CorridorBudgets(_PARTITION, fraction=0.5)
    _apply(budgets, prefix)
    before = budgets.fingerprint()
    with budgets.journal.transaction() as txn:
        _apply(budgets, tentative)
        txn.rollback()
    assert budgets.fingerprint() == before


@settings(max_examples=60, deadline=None)
@given(prefix=_OPS, inner=_OPS, outer=_OPS)
def test_nested_commit_folds_then_outer_rollback_restores(prefix, inner, outer):
    """An inner commit folds into the outer journal; outer rollback undoes both."""
    budgets = CorridorBudgets(_PARTITION, fraction=0.5)
    _apply(budgets, prefix)
    before = budgets.fingerprint()
    with budgets.journal.transaction() as txn:
        with budgets.journal.transaction():
            _apply(budgets, inner)
        _apply(budgets, outer)
        txn.rollback()
    assert budgets.fingerprint() == before


@settings(max_examples=60, deadline=None)
@given(ops=_OPS)
def test_committed_state_equals_unjournaled_replay(ops):
    """Committing a transaction leaves exactly the state of a plain replay."""
    journaled = CorridorBudgets(_PARTITION, fraction=0.5)
    with journaled.journal.transaction():
        _apply(journaled, ops)
    plain = CorridorBudgets(_PARTITION, fraction=0.5)
    _apply(plain, ops)
    assert journaled.fingerprint() == plain.fingerprint()
