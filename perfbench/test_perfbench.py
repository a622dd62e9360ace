"""Fast smoke tests of the benchmark itself.

Run from the repository root with ``python -m pytest -q perfbench``.  They
replay shrunken copies of the workloads, so they check the benchmark's
plumbing, not the program's performance.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.obs import validate_export

from perfbench import bench, checks
from perfbench.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

#: Shrunken copies of every workload: one unit of a few dozen requests.
SMALL = {
    "region_stream": {"horizon_ns": 6e6, "unit_seconds": 1.0},
    "packing_rescue": {"arrivals": 24, "unit_seconds": 1.0},
    "overload_shed": {"horizon_ns": 6e6, "unit_seconds": 1.0},
}


def small(name: str):
    workload = copy.copy(WORKLOADS[name])
    for attr, value in SMALL[name].items():
        setattr(workload, attr, value)
    return workload


@pytest.fixture
def ledger(tmp_path):
    path = tmp_path / "ledger.json"
    path.write_text(json.dumps({"workloads": {name: {} for name in WORKLOADS}}))
    return path


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    meta = checks.load_ledger()["workloads"]
    for name in WORKLOADS:
        assert meta[name]["default_seed"] != meta[name]["holdout_seed"]
        assert meta[name]["exercises"] and meta[name]["bypasses"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_end_to_end_metric_names_and_units(name, ledger):
    outcome = bench.run(small(name), 3, 1, False, ledger=ledger)
    assert outcome.correct, outcome.problems
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in outcome.metrics.items()} == expected
    assert all(outcome.metrics[k]["value"] > 0 for k in expected)
    assert outcome.attempted >= 1 and outcome.failed == 0


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_traced_run_is_deterministic_and_adds_up(name, ledger, tmp_path):
    first = bench.run(small(name), 5, 1, True, out_dir=tmp_path, ledger=ledger)
    second = bench.run(small(name), 5, 1, True, ledger=ledger)
    assert first.correct, first.problems
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in first.metrics.items()} == expected
    # Exact work counts and decisions repeat between runs of one seed.
    assert first.counters == second.counters
    assert first.layer_counters == second.layer_counters
    assert first.digests == second.digests
    # Layer self times plus unattributed add up to the traced wall time.
    self_ms = sum(
        v["value"] for k, v in first.metrics.items()
        if v["unit"] == "ms" and not k.startswith("trace.")
    )
    assert self_ms == pytest.approx(first.metrics["trace.wall_ms"]["value"], rel=1e-6)
    assert validate_export(first.trace_file) == []


def test_recorded_digest_mismatch_fails_the_run(ledger):
    workload = small("overload_shed")
    recorded = bench.run(workload, 7, 1, False, record=True, ledger=ledger)
    assert recorded.correct and recorded.recorded
    assert bench.run(workload, 7, 1, False, ledger=ledger).correct

    data = json.loads(ledger.read_text())
    entry = next(iter(data["workloads"]["overload_shed"]["recorded"].values()))
    entry["decisions"][0] = "0" * 64
    ledger.write_text(json.dumps(data))
    corrupted = bench.run(workload, 7, 1, False, ledger=ledger)
    assert not corrupted.correct
    assert corrupted.failed >= 1
    assert "recorded" in corrupted.problems


def test_checks_catch_double_settlement_and_overbooking(monkeypatch):
    assert checks.settles_once(["a", "b"], [("a", "admitted", ""), ("b", "rejected", "")]) == []
    assert checks.settles_once(["a", "b"], [("a", "admitted", ""), ("a", "rejected", "")])
    state = small("packing_rescue").setup().manager.state
    assert checks.within_capacity(state) == []
    # An aggregate that disagrees with the allocations it sums is caught.
    monkeypatch.setattr(state, "used_process_slots", lambda tile_name: 99)
    assert checks.within_capacity(state)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "overload_shed",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
