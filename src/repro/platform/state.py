"""Run-time allocation state of a platform.

The platform description (:class:`~repro.platform.platform.Platform`) is
immutable; everything that changes while applications start and stop lives in
a :class:`PlatformState`:

* which processes occupy which tile (and how much tile memory they use),
* how much guaranteed throughput is allocated on every NoC link.

The spatial mapper receives the *current* state when an application is
started (this is exactly the run-time information the paper argues a
design-time mapping cannot exploit) and returns the allocations of the new
application; the run-time resource manager then commits or rolls back those
allocations.

Two properties make the state cheap enough for run-time admission control:

* **O(1) aggregates** — used process slots, used memory and used compute
  cycles per tile, and the reserved throughput per link, are maintained
  incrementally on every allocate/release instead of being re-summed from the
  allocation lists on every query.  Admission cost therefore does not grow
  with the number (or allocation-list length) of already-running
  applications.
* **transactions** — :meth:`PlatformState.transaction` opens a journaled
  scope on the state's :class:`~repro.platform.journal.Journal`: every
  mutation records an undo snapshot, and a rollback restores the state
  bit-identically.  What-if exploration (tentative commits, batch
  admission, step-3 routing) uses transactions instead of copying the whole
  state.  Corridor budgets and rejection feedback record into the same
  journal, so one transaction covers them as well.

Transactions can be *region-scoped*: passing a scope object (anything with
``covers_tile(name)`` / ``covers_link(name)``, e.g. a
:class:`~repro.platform.regions.Region`) restricts which tiles and links the
scope protects.  A mutation is journaled into the innermost open transaction
whose scope covers the touched tile/link, so admissions into disjoint
regions can commit or roll back without touching each other.  Mutating a
tile or link no open transaction covers raises — a cross-region allocation
must be made under a scope that explicitly includes it (or under an
unscoped, global transaction).
"""

from __future__ import annotations

import hashlib
from contextlib import AbstractContextManager
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

from repro.exceptions import PlatformError
from repro.platform.journal import Journal, Transaction
from repro.platform.noc import Position
from repro.platform.platform import Platform


@dataclass(frozen=True)
class ProcessAllocation:
    """A process occupying a slot on a tile."""

    application: str
    process: str
    tile: str
    memory_bytes: int = 0
    compute_cycles_per_iteration: float = 0.0


@dataclass(frozen=True)
class LinkAllocation:
    """Guaranteed throughput reserved on a NoC link for one channel."""

    application: str
    channel: str
    link: str
    bits_per_s: float


def fingerprint_digest(fingerprint: tuple) -> bytes:
    """A compact (20-byte) exact digest of a state fingerprint tuple.

    Fingerprint tuples contain only primitives (names, counts, exact float
    aggregates), so their ``repr`` is a canonical serialisation — equal
    tuples digest equally in any process, regardless of object identity.
    """
    return hashlib.sha1(repr(fingerprint).encode("utf-8")).digest()


def _restore(target: dict, key: str, value) -> None:
    """Put a snapshot value back (``None`` means the key did not exist)."""
    if value is None:
        target.pop(key, None)
    else:
        target[key] = value


@dataclass
class PlatformState:
    """Mutable allocation bookkeeping on top of an immutable platform."""

    platform: Platform
    _tile_occupants: dict[str, list[ProcessAllocation]] = field(default_factory=dict)
    _link_allocations: dict[str, list[LinkAllocation]] = field(default_factory=dict)
    # Cached aggregates, kept in sync incrementally by every mutation.
    _used_slots: dict[str, int] = field(default_factory=dict, init=False, repr=False)
    _used_memory: dict[str, int] = field(default_factory=dict, init=False, repr=False)
    _used_cycles: dict[str, float] = field(default_factory=dict, init=False, repr=False)
    _link_load: dict[str, float] = field(default_factory=dict, init=False, repr=False)
    #: The undo journal of this state; corridor budgets and rejection
    #: feedback built on the same run record their undo entries in it too.
    journal: Journal = field(default_factory=Journal, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._rebuild_aggregates()

    def _rebuild_aggregates(self) -> None:
        """Recompute every cached aggregate from the allocation lists."""
        self._used_slots = {
            name: len(allocations) for name, allocations in self._tile_occupants.items()
        }
        self._used_memory = {
            name: sum(a.memory_bytes for a in allocations)
            for name, allocations in self._tile_occupants.items()
        }
        self._used_cycles = {
            name: sum(a.compute_cycles_per_iteration for a in allocations)
            for name, allocations in self._tile_occupants.items()
        }
        self._link_load = {
            name: sum(a.bits_per_s for a in allocations)
            for name, allocations in self._link_allocations.items()
        }

    # ------------------------------------------------------------------ #
    # Transactions
    # ------------------------------------------------------------------ #
    def transaction(self, scope=None) -> AbstractContextManager[Transaction]:
        """Open a journaled scope for tentative mutations.

        On normal exit the transaction commits (unless
        :meth:`~repro.platform.journal.Transaction.rollback` was called inside
        the block); on an exception it rolls back and re-raises.  Scopes
        nest: committing an inner transaction folds its journal into the
        enclosing one.  The scope is opened on :attr:`journal`, so it also
        covers corridor reservations and rejection feedback kept on it.

        ``scope`` optionally restricts the transaction to a region: any
        object with ``covers_tile(name)`` / ``covers_link(name)`` (e.g. a
        :class:`~repro.platform.regions.Region`).  Mutations of tiles and
        links the scope does not cover are journaled into an enclosing
        transaction that does cover them, or rejected when none does.
        """
        return self.journal.transaction(scope)

    @property
    def in_transaction(self) -> bool:
        """Whether at least one transaction scope is open."""
        return self.journal.in_transaction

    def _save_tile(self, tile_name: str) -> tuple:
        occupants = self._tile_occupants.get(tile_name)
        return (
            None if occupants is None else list(occupants),
            self._used_slots.get(tile_name),
            self._used_memory.get(tile_name),
            self._used_cycles.get(tile_name),
        )

    def _restore_tile(self, tile_name: str, saved: tuple) -> None:
        occupants, slots, memory, cycles = saved
        _restore(self._tile_occupants, tile_name, occupants)
        _restore(self._used_slots, tile_name, slots)
        _restore(self._used_memory, tile_name, memory)
        _restore(self._used_cycles, tile_name, cycles)

    def _save_link(self, link_name: str) -> tuple:
        allocations = self._link_allocations.get(link_name)
        return (
            None if allocations is None else list(allocations),
            self._link_load.get(link_name),
        )

    def _restore_link(self, link_name: str, saved: tuple) -> None:
        allocations, load = saved
        _restore(self._link_allocations, link_name, allocations)
        _restore(self._link_load, link_name, load)

    # ------------------------------------------------------------------ #
    # Tiles
    # ------------------------------------------------------------------ #
    def occupants(self, tile_name: str) -> tuple[ProcessAllocation, ...]:
        """Processes currently allocated on the tile."""
        self.platform.tile(tile_name)
        return tuple(self._tile_occupants.get(tile_name, ()))

    def used_process_slots(self, tile_name: str) -> int:
        """Number of occupied process slots on the tile (O(1))."""
        self.platform.tile(tile_name)
        return self._used_slots.get(tile_name, 0)

    def free_process_slots(self, tile_name: str) -> int:
        """Number of free process slots on the tile (O(1))."""
        tile = self.platform.tile(tile_name)
        return tile.resources.max_processes - self._used_slots.get(tile_name, 0)

    def used_memory_bytes(self, tile_name: str) -> int:
        """Memory already allocated on the tile (O(1))."""
        self.platform.tile(tile_name)
        return self._used_memory.get(tile_name, 0)

    def free_memory_bytes(self, tile_name: str) -> int:
        """Memory still available on the tile (O(1))."""
        tile = self.platform.tile(tile_name)
        return tile.resources.memory_bytes - self._used_memory.get(tile_name, 0)

    def used_compute_cycles_per_iteration(self, tile_name: str) -> float:
        """Compute cycles per iteration already claimed on the tile (O(1))."""
        self.platform.tile(tile_name)
        return self._used_cycles.get(tile_name, 0.0)

    def can_host(
        self,
        tile_name: str,
        memory_bytes: int = 0,
        compute_cycles_per_iteration: float = 0.0,
        period_cycles: float | None = None,
    ) -> bool:
        """Whether the tile can accept one more process with the given needs."""
        tile = self.platform.tile(tile_name)
        if not tile.is_processing:
            return False
        if tile.resources.max_processes - self._used_slots.get(tile_name, 0) < 1:
            return False
        if memory_bytes > tile.resources.memory_bytes - self._used_memory.get(tile_name, 0):
            return False
        budget = tile.resources.compute_cycles_per_period
        if budget is None:
            budget = period_cycles
        if budget is not None:
            used = self._used_cycles.get(tile_name, 0.0)
            if used + compute_cycles_per_iteration > budget + 1e-9:
                return False
        return True

    def allocate_process(self, allocation: ProcessAllocation) -> None:
        """Commit a process allocation; raises if the tile cannot host it."""
        if not self.can_host(
            allocation.tile,
            allocation.memory_bytes,
            allocation.compute_cycles_per_iteration,
        ):
            raise PlatformError(
                f"tile {allocation.tile!r} cannot host process {allocation.process!r} "
                f"of application {allocation.application!r}"
            )
        tile = allocation.tile
        self.journal.touch("tile", tile, self._save_tile, self._restore_tile)
        self._tile_occupants.setdefault(tile, []).append(allocation)
        self._used_slots[tile] = self._used_slots.get(tile, 0) + 1
        self._used_memory[tile] = self._used_memory.get(tile, 0) + allocation.memory_bytes
        self._used_cycles[tile] = (
            self._used_cycles.get(tile, 0.0) + allocation.compute_cycles_per_iteration
        )

    # ------------------------------------------------------------------ #
    # Links
    # ------------------------------------------------------------------ #
    def link_load_bits_per_s(self, link_name: str) -> float:
        """Throughput currently reserved on the link (O(1))."""
        return self._link_load.get(link_name, 0.0)

    def link_loads(self) -> dict[str, float]:
        """Current reservation per link name (only links with allocations)."""
        return {
            name: self._link_load.get(name, 0.0)
            for name, allocations in self._link_allocations.items()
            if allocations
        }

    def link_loads_view(self) -> Mapping[str, float]:
        """Read-only live view of the per-link reservations.

        Unlike :meth:`link_loads` this does not copy; the view tracks
        subsequent allocations, which is what step-3 routing wants while it
        reserves channels one by one inside a transaction.
        """
        return MappingProxyType(self._link_load)

    def residual_capacity_bits_per_s(self, source: Position, target: Position) -> float:
        """Residual capacity of the directed link ``source -> target``."""
        link = self.platform.noc.link(source, target)
        return link.capacity_bits_per_s - self._link_load.get(link.name, 0.0)

    def allocate_link(self, allocation: LinkAllocation) -> None:
        """Reserve throughput on a link; raises if the capacity would be exceeded."""
        link = self.platform.noc.link_by_name(allocation.link)
        residual = link.capacity_bits_per_s - self._link_load.get(link.name, 0.0)
        if allocation.bits_per_s > residual + 1e-9:
            raise PlatformError(
                f"link {link.name!r} has only {residual:.3g} bit/s left; "
                f"cannot reserve {allocation.bits_per_s:.3g} bit/s"
            )
        self.journal.touch("link", link.name, self._save_link, self._restore_link)
        self._link_allocations.setdefault(link.name, []).append(allocation)
        self._link_load[link.name] = self._link_load.get(link.name, 0.0) + allocation.bits_per_s

    # ------------------------------------------------------------------ #
    # Application-level operations
    # ------------------------------------------------------------------ #
    def applications(self) -> tuple[str, ...]:
        """Names of applications with at least one live allocation."""
        names: dict[str, None] = {}
        for allocations in self._tile_occupants.values():
            for allocation in allocations:
                names.setdefault(allocation.application)
        for allocations in self._link_allocations.values():
            for allocation in allocations:
                names.setdefault(allocation.application)
        return tuple(names.keys())

    def release_application(self, application: str) -> int:
        """Release every allocation of the application; returns how many were removed.

        The cached aggregates of every touched tile/link are re-summed from
        the surviving allocations, so incremental totals never drift from the
        ground truth even across long start/stop histories.
        """
        removed = 0
        for tile_name, allocations in list(self._tile_occupants.items()):
            kept = [a for a in allocations if a.application != application]
            if len(kept) == len(allocations):
                continue
            self.journal.touch("tile", tile_name, self._save_tile, self._restore_tile)
            removed += len(allocations) - len(kept)
            self._tile_occupants[tile_name] = kept
            self._used_slots[tile_name] = len(kept)
            self._used_memory[tile_name] = sum(a.memory_bytes for a in kept)
            self._used_cycles[tile_name] = sum(a.compute_cycles_per_iteration for a in kept)
        for link_name, allocations in list(self._link_allocations.items()):
            kept = [a for a in allocations if a.application != application]
            if len(kept) == len(allocations):
                continue
            self.journal.touch("link", link_name, self._save_link, self._restore_link)
            removed += len(allocations) - len(kept)
            self._link_allocations[link_name] = kept
            self._link_load[link_name] = sum(a.bits_per_s for a in kept)
        return removed

    def copy(self) -> "PlatformState":
        """A deep-enough copy for what-if exploration by mappers.

        Prefer :meth:`transaction` for what-if exploration on the live state;
        ``copy`` remains for callers that genuinely need an independent
        snapshot (e.g. replaying a scenario from a checkpoint).
        """
        return PlatformState(
            self.platform,
            {name: list(a) for name, a in self._tile_occupants.items()},
            {name: list(a) for name, a in self._link_allocations.items()},
        )

    # ------------------------------------------------------------------ #
    # Fingerprints
    # ------------------------------------------------------------------ #
    def fingerprint(
        self,
        tile_names: tuple[str, ...] | None = None,
        link_names: tuple[str, ...] | None = None,
    ) -> tuple:
        """A cheap, exact digest of the allocation state of a set of keys.

        Built purely from the O(1) cached aggregates: the per-tile
        (slots, memory, cycles) triples and per-link loads of every key with
        a non-zero aggregate, in the given (deterministic) key order.  Two
        states with equal fingerprints are indistinguishable to the mapper
        over those keys, which is what makes the fingerprint a sound
        memoisation key for :class:`~repro.spatialmapper.cache.MapperCache`.
        Cost is O(keys in scope): every tile and link name in scope is
        looked up, occupied or not; allocation-list lengths do not matter.

        ``None`` for either argument means all tiles / all links of the
        platform (the global fingerprint); a
        :class:`~repro.platform.regions.Region` supplies its own key subsets
        for per-region fingerprints.
        """
        slots = self._used_slots
        memory = self._used_memory
        cycles = self._used_cycles
        load = self._link_load
        parts: list[tuple] = []
        if tile_names is None:
            tile_names = self.platform.tile_names
        for name in tile_names:
            used = slots.get(name, 0)
            if used:
                parts.append((name, used, memory.get(name, 0), cycles.get(name, 0.0)))
        if link_names is None:
            for link in self.platform.noc.links:
                reserved = load.get(link.name, 0.0)
                if reserved:
                    parts.append((link.name, reserved))
        else:
            for name in link_names:
                reserved = load.get(name, 0.0)
                if reserved:
                    parts.append((name, reserved))
        return tuple(parts)

    # ------------------------------------------------------------------ #
    # Metrics
    # ------------------------------------------------------------------ #
    def tile_utilisation(self) -> dict[str, float]:
        """Fraction of process slots used per processing tile."""
        utilisation: dict[str, float] = {}
        for tile in self.platform.processing_tiles():
            capacity = tile.resources.max_processes
            utilisation[tile.name] = (
                self._used_slots.get(tile.name, 0) / capacity if capacity else 0.0
            )
        return utilisation

    def occupied_tiles(self) -> tuple[str, ...]:
        """Names of tiles with at least one allocated process."""
        return tuple(
            name for name, allocations in self._tile_occupants.items() if allocations
        )
