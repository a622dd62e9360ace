"""One undo journal for every piece of run-time state.

The run-time manager commits or rolls back a new application's allocations
as one unit.  Three stores change while it does: the
:class:`~repro.platform.state.PlatformState` (tile occupants and link
loads), the :class:`~repro.interregion.budgets.CorridorBudgets` (corridor
reservations) and the :class:`~repro.spatialmapper.region_score.RejectionMemory`
(rejection feedback).  All three record their undo entries in one
:class:`Journal`, so one :meth:`PlatformState.transaction
<repro.platform.state.PlatformState.transaction>` covers all of them.

A journal keeps one stack of open :class:`Transaction` scopes, outermost
first.  A store calls :meth:`Journal.touch` *before* it mutates a key.  The
first touch of a ``(kind, key)`` inside the innermost open scope that covers
it saves the key's value together with the function that puts it back;
later touches of the same key in that scope save nothing, so the journal
stays O(touched keys).  :meth:`Transaction.rollback` replays the saved
values in reverse and restores every store bit-identically.
:meth:`Transaction.commit` folds the entries into the innermost enclosing
open scope that covers them, so an outer rollback undoes inner commits too.

A scope can be restricted to a region (anything with ``covers_tile(name)``
/ ``covers_link(name)``, e.g. a :class:`~repro.platform.regions.Region`).
The restriction applies to ``"tile"`` and ``"link"`` keys only; every other
key is covered by every open scope.  Touching a tile or link that no open
scope covers raises :class:`~repro.exceptions.PlatformError`.

One thread at a time (the engine's, in a workload run) mutates the stores,
so the journal has no locks.
"""

from __future__ import annotations

from collections.abc import Callable, Hashable, Iterator
from contextlib import contextmanager

from repro.exceptions import PlatformError


class Transaction:
    """One open scope of a :class:`Journal`.

    ``_undo`` holds ``(kind, key, saved, restore)`` entries in touch order;
    ``_seen`` holds the ``(kind, key)`` pairs already saved in this scope.
    """

    __slots__ = ("_journal", "_undo", "_seen", "scope", "closed", "rolled_back")

    def __init__(self, journal: "Journal", scope=None) -> None:
        self._journal = journal
        self._undo: list[tuple] = []
        self._seen: set[tuple] = set()
        #: Optional region scope; ``None`` covers every key.
        self.scope = scope
        self.closed = False
        self.rolled_back = False

    def covers(self, kind: str, key) -> bool:
        """Whether this scope protects the key (a region limits tiles and links only)."""
        scope = self.scope
        if scope is None:
            return True
        if kind == "tile":
            return scope.covers_tile(key)
        if kind == "link":
            return scope.covers_link(key)
        return True

    def _check_innermost(self) -> None:
        """Closing out of nesting order would corrupt the undo chains."""
        stack = self._journal._stack
        if self in stack:
            for txn in stack[stack.index(self) + 1 :]:
                if not txn.closed:
                    raise PlatformError(
                        "cannot close a transaction while a nested transaction is open"
                    )

    def commit(self) -> None:
        """Keep every mutation made inside the scope.

        The entries fold into the enclosing open scopes now, so an outer
        rollback undoes these mutations even if the scope later exits
        through an exception.  Each entry goes to the innermost enclosing
        scope that covers its key; an entry outside every enclosing scope is
        committed for good (that is what region isolation means).  A folded
        entry is at least as old as anything the target saved for the same
        key, so it is dropped when the target has already seen the key.
        """
        if self.closed:
            if self.rolled_back:
                raise PlatformError("transaction was already rolled back")
            return
        self._check_innermost()
        self.closed = True
        stack = self._journal._stack
        enclosing = stack[: stack.index(self)] if self in stack else stack
        open_enclosing = [txn for txn in reversed(enclosing) if not txn.closed]
        for entry in self._undo:
            kind, key = entry[0], entry[1]
            for txn in open_enclosing:
                if txn.covers(kind, key):
                    if (kind, key) not in txn._seen:
                        txn._seen.add((kind, key))
                        txn._undo.append(entry)
                    break
        self._undo = []

    def rollback(self) -> None:
        """Undo every mutation made inside the scope."""
        if self.closed:
            if self.rolled_back:
                return
            raise PlatformError("transaction was already committed")
        self._check_innermost()
        for _, key, saved, restore in reversed(self._undo):
            restore(key, saved)
        self._undo.clear()
        self.closed = True
        self.rolled_back = True


class Journal:
    """The stack of open transaction scopes shared by the run-time stores."""

    __slots__ = ("_stack",)

    def __init__(self) -> None:
        #: The open transaction scopes, outermost first.
        self._stack: list[Transaction] = []

    @contextmanager
    def transaction(self, scope=None) -> Iterator[Transaction]:
        """Open a journaled scope.

        On normal exit the scope commits (unless it was closed inside the
        block); on an exception it rolls back and re-raises.
        """
        txn = Transaction(self, scope)
        stack = self._stack
        stack.append(txn)
        try:
            yield txn
        except BaseException:
            if not txn.closed:
                txn.rollback()
            raise
        else:
            if not txn.closed:
                txn.commit()
        finally:
            stack.remove(txn)

    @property
    def in_transaction(self) -> bool:
        """Whether at least one scope is open."""
        return any(not txn.closed for txn in self._stack)

    def touch(self, kind: str, key: Hashable, save: Callable, restore: Callable) -> None:
        """Save ``(kind, key)`` into the innermost open scope that covers it.

        Call before mutating the key.  ``save(key)`` runs only on the first
        touch in that scope; a rollback calls ``restore(key, saved)``.
        Stores sharing a journal use distinct kinds.  Without an open scope
        nothing is saved; with open scopes of which none covers the key,
        this raises.
        """
        any_open = False
        for txn in reversed(self._stack):
            if txn.closed:
                continue
            any_open = True
            if not txn.covers(kind, key):
                continue
            seen = (kind, key)
            if seen not in txn._seen:
                txn._seen.add(seen)
                txn._undo.append((kind, key, save(key), restore))
            return
        if any_open:
            raise PlatformError(
                f"{kind} {key!r} is outside the scope of every open transaction; "
                "cross-region allocations need an enclosing transaction that covers them"
            )
