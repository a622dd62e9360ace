"""Boundary-link corridor budgets between region pairs.

A region-sharded platform keeps admissions inside their shard; what crosses
shards is the boundary links.  Treating those links as a free-for-all is what
forced cross-region admissions into the serialized global lane — nothing
bounded how much boundary capacity an admission could grab, so correctness
required excluding every other writer.  :class:`CorridorBudgets` turns the
boundary into a *planned, budgeted resource*:

* the **inventory** enumerates, per *ordered* region pair ``(a, b)``, the
  NoC links leaving ``a`` for ``b`` (derived from
  :meth:`~repro.platform.regions.RegionPartition.cross_link_names`);
* each pair carries a **reservable corridor budget** — a configurable
  fraction of the pair's aggregate boundary capacity that inter-region
  channels may claim.  Keeping the fraction below 1 leaves headroom for the
  global lane's unplanned routes, so the planner can never starve the
  fallback path;
* reservations are **journaled** in the
  :class:`~repro.platform.journal.Journal` the budgets are built on — the
  platform state's, in a planner.  A failed inter-region commit, or a
  rolled-back batch, therefore unwinds its budget claims together with its
  state allocations.

Reservations are recorded per application so a ``stop`` releases them all
(:meth:`CorridorBudgets.release_application`), mirroring
:meth:`~repro.platform.state.PlatformState.release_application`.
"""

from __future__ import annotations

from repro.exceptions import PlatformError
from repro.platform.journal import Journal
from repro.platform.regions import RegionPartition

#: An ordered region pair: (source region name, target region name).
PairKey = tuple[str, str]


class CorridorBudgets:
    """Reservable boundary-capacity budgets per ordered region pair.

    Parameters
    ----------
    partition:
        The region partition whose boundary links are inventoried.
    fraction:
        Fraction of each pair's aggregate boundary-link capacity that
        corridors may reserve (0 < fraction <= 1).
    journal:
        The undo journal reservations are recorded in; a fresh one when
        omitted.  The planner passes its pipeline state's journal.
    """

    def __init__(
        self,
        partition: RegionPartition,
        fraction: float = 0.5,
        *,
        journal: Journal | None = None,
    ) -> None:
        if not 0.0 < fraction <= 1.0:
            raise PlatformError("corridor budget fraction must be in (0, 1]")
        self.partition = partition
        self.fraction = fraction
        noc = partition.platform.noc
        links: dict[PairKey, list[str]] = {}
        capacity: dict[PairKey, float] = {}
        for link_name in partition.cross_link_names():
            link = noc.link_by_name(link_name)
            source = partition.region_of_position(link.source)
            target = partition.region_of_position(link.target)
            if source is None or target is None:
                # Links touching unassigned router positions stay outside
                # the budgeted inventory (global lane territory).
                continue
            pair = (source.name, target.name)
            links.setdefault(pair, []).append(link_name)
            capacity[pair] = capacity.get(pair, 0.0) + link.capacity_bits_per_s
        self._links: dict[PairKey, tuple[str, ...]] = {
            pair: tuple(names) for pair, names in sorted(links.items())
        }
        self._capacity: dict[PairKey, float] = {
            pair: fraction * capacity[pair] for pair in self._links
        }
        self._reserved: dict[PairKey, float] = {pair: 0.0 for pair in self._links}
        #: Per-application reservations: name -> [(pair, bits_per_s), ...].
        self._by_application: dict[str, list[tuple[PairKey, float]]] = {}
        self.journal = journal if journal is not None else Journal()

    # ------------------------------------------------------------------ #
    # Inventory
    # ------------------------------------------------------------------ #
    def pairs(self) -> tuple[PairKey, ...]:
        """Every ordered region pair with at least one boundary link."""
        return tuple(self._links)

    def links_between(self, source_region: str, target_region: str) -> tuple[str, ...]:
        """Boundary link names leaving ``source_region`` for ``target_region``."""
        return self._links.get((source_region, target_region), ())

    def capacity_bits_per_s(self, source_region: str, target_region: str) -> float:
        """Reservable corridor budget of the ordered pair."""
        return self._capacity.get((source_region, target_region), 0.0)

    def reserved_bits_per_s(self, source_region: str, target_region: str) -> float:
        """Currently reserved corridor throughput of the ordered pair."""
        return self._reserved.get((source_region, target_region), 0.0)

    def residual_bits_per_s(self, source_region: str, target_region: str) -> float:
        """Corridor budget still reservable on the ordered pair."""
        pair = (source_region, target_region)
        if pair not in self._capacity:
            return 0.0
        return self._capacity[pair] - self._reserved[pair]

    def pressure(self, source_region: str, target_region: str) -> float:
        """Fraction of the pair's corridor budget already reserved (0..1)."""
        pair = (source_region, target_region)
        capacity = self._capacity.get(pair, 0.0)
        if capacity <= 0.0:
            return 1.0
        return self._reserved[pair] / capacity

    # ------------------------------------------------------------------ #
    # Journal
    # ------------------------------------------------------------------ #
    def _restore_pair(self, pair: PairKey, reserved: float) -> None:
        self._reserved[pair] = reserved

    def _save_application(self, application: str):
        reservations = self._by_application.get(application)
        return None if reservations is None else list(reservations)

    def _restore_application(self, application: str, reservations) -> None:
        if reservations is None:
            self._by_application.pop(application, None)
        else:
            self._by_application[application] = reservations

    # ------------------------------------------------------------------ #
    # Reservation accounting
    # ------------------------------------------------------------------ #
    def reserve(
        self,
        application: str,
        source_region: str,
        target_region: str,
        bits_per_s: float,
    ) -> None:
        """Reserve corridor throughput on an ordered pair for an application.

        Raises :class:`~repro.exceptions.PlatformError` when the pair has no
        boundary links or the reservation would exceed the pair's budget.
        """
        if bits_per_s < 0:
            raise PlatformError("corridor reservations must be non-negative")
        pair = (source_region, target_region)
        if pair not in self._capacity:
            raise PlatformError(
                f"no boundary links from region {source_region!r} to {target_region!r}"
            )
        residual = self._capacity[pair] - self._reserved[pair]
        if bits_per_s > residual + 1e-9:
            raise PlatformError(
                f"corridor budget {source_region!r}->{target_region!r} has only "
                f"{residual:.3g} bit/s left; cannot reserve {bits_per_s:.3g} bit/s"
            )
        journal = self.journal
        journal.touch("corridor_pair", pair, self._reserved.get, self._restore_pair)
        journal.touch(
            "corridor_app", application, self._save_application, self._restore_application
        )
        self._reserved[pair] += bits_per_s
        self._by_application.setdefault(application, []).append((pair, bits_per_s))

    def release_application(self, application: str) -> float:
        """Release every corridor reservation of the application.

        Returns the total released throughput (0.0 when the application had
        no reservations).  Reserved totals of the touched pairs are restored
        by subtraction and can never drift below zero because every addition
        and removal goes through the same per-application record.
        """
        reservations = self._by_application.get(application)
        if not reservations:
            return 0.0
        journal = self.journal
        journal.touch(
            "corridor_app", application, self._save_application, self._restore_application
        )
        released = 0.0
        for pair, bits_per_s in reservations:
            journal.touch("corridor_pair", pair, self._reserved.get, self._restore_pair)
            self._reserved[pair] -= bits_per_s
            released += bits_per_s
        del self._by_application[application]
        return released

    def applications(self) -> tuple[str, ...]:
        """Applications currently holding corridor reservations."""
        return tuple(self._by_application)

    def fingerprint(self) -> tuple:
        """Exact digest of the reservation state (pairs with non-zero use)."""
        parts: list[tuple] = [
            (pair, reserved)
            for pair, reserved in self._reserved.items()
            if reserved
        ]
        parts.append(
            tuple(
                (name, tuple(entries))
                for name, entries in sorted(self._by_application.items())
            )
        )
        return tuple(parts)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CorridorBudgets(pairs={len(self._links)}, fraction={self.fraction}, "
            f"applications={len(self._by_application)})"
        )
