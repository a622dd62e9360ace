"""Output checks of one replay and the ledger of recorded digests and counts.

Each check returns a list of problems; an empty list means it passed.
"""

from __future__ import annotations

import hashlib
import json
from collections import Counter
from pathlib import Path

from repro.platform.state import fingerprint_digest

LEDGER_PATH = Path(__file__).resolve().parent / "ledger.json"

#: Slack for float capacity comparisons (bit/s and the like).
_EPS = 1e-6


def decision_digest(records) -> str:
    """SHA-256 of the ``(application, status, reason)`` decision log."""
    payload = json.dumps([list(record) for record in records], separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def state_digest(state) -> str:
    """Hex digest of the final ``PlatformState.fingerprint()``."""
    return fingerprint_digest(state.fingerprint()).hex()


def settles_once(offered, records) -> list[str]:
    """Every offered request settles exactly once, and nothing else settles."""
    settled = Counter(application for application, _, _ in records)
    problems = [
        f"{application} settled {settled[application]} times"
        for application in offered
        if settled[application] != 1
    ]
    unknown = set(settled) - set(offered)
    problems += [f"{application} settled but never offered" for application in sorted(unknown)]
    return problems


def within_capacity(state) -> list[str]:
    """No tile over its slots or memory, no link over capacity.

    The cached aggregates must also equal the sums recomputed from the
    allocations they summarise.
    """
    problems = []
    platform = state.platform
    for tile in platform.processing_tiles():
        occupants = state.occupants(tile.name)
        memory = sum(allocation.memory_bytes for allocation in occupants)
        if len(occupants) > tile.resources.max_processes:
            problems.append(
                f"tile {tile.name}: {len(occupants)} processes in "
                f"{tile.resources.max_processes} slots"
            )
        if memory > tile.resources.memory_bytes:
            problems.append(f"tile {tile.name}: {memory} B in {tile.resources.memory_bytes} B")
        if state.used_process_slots(tile.name) != len(occupants):
            problems.append(f"tile {tile.name}: slot aggregate disagrees with occupants")
        if state.used_memory_bytes(tile.name) != memory:
            problems.append(f"tile {tile.name}: memory aggregate disagrees with occupants")
    for name, load in state.link_loads().items():
        capacity = platform.noc.link_by_name(name).capacity_bits_per_s
        if load > capacity * (1 + _EPS):
            problems.append(f"link {name}: {load:.6g} bit/s over {capacity:.6g} bit/s")
    return problems


def same(label: str, expected, actual) -> list[str]:
    """One problem when ``actual`` differs from ``expected``."""
    if expected == actual:
        return []
    if isinstance(expected, dict) and isinstance(actual, dict):
        keys = expected.keys() | actual.keys()
        differing = sorted(k for k in keys if expected.get(k) != actual.get(k))
        return [f"{label} differ at {', '.join(differing)}"]
    if isinstance(expected, list) and isinstance(actual, list) and len(expected) == len(actual):
        differing = [str(i) for i, pair in enumerate(zip(expected, actual)) if pair[0] != pair[1]]
        return [f"{label} differ at units {', '.join(differing)}"]
    return [f"{label}: expected {expected!r}, got {actual!r}"]


def load_ledger(path: Path = LEDGER_PATH) -> dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def recorded_run(ledger: dict, workload: str, seed: int, units: int) -> dict | None:
    """The recorded digests and counts of one (workload, seed, units), if any."""
    return ledger["workloads"][workload].get("recorded", {}).get(f"seed={seed},units={units}")


def record_run(
    workload: str, seed: int, units: int, entry: dict, path: Path = LEDGER_PATH
) -> None:
    """Merge ``entry`` into the ledger's record for (workload, seed, units)."""
    ledger = load_ledger(path)
    recorded = ledger["workloads"][workload].setdefault("recorded", {})
    recorded.setdefault(f"seed={seed},units={units}", {}).update(entry)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(ledger, handle, indent=2)
        handle.write("\n")
