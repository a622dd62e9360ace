"""Layered benchmark of the admission engine: one workload, one seed, one run.

Usage, from the repository root::

    python3 perfbench/run.py --workload region_stream --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced replay of the same inputs (and writes its spans in the
``repro.obs.export`` JSONL schema under ``perfbench/out/``).  Standard output
carries a table of every metric with its unit and sample count, one
``report`` JSON line (environment stamp, checks, exact work counts), and as
its last line the result object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--record`` stores the run's digests and counts in
``perfbench/ledger.json``; later runs of the same seed and length must
reproduce them.

Workloads and why they were chosen: ``perfbench/ledger.json``.  The
benchmark's own smoke tests: ``python -m pytest -q perfbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def stamp(args, units: int, wall_s: float) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "units": units,
        "trace": bool(args.trace),
        "run_wall_s": round(wall_s, 3),
        "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "os": platform.platform(),
        "git_commit": git_commit(ROOT),
    }


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store this run's digests and counts in the ledger")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    for path in (str(ROOT), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    started = time.perf_counter()
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    outcome = bench.run(
        WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace),
        out_dir=OUT_DIR, record=args.record,
    )
    wall_s = time.perf_counter() - started

    for name, metric in outcome.metrics.items():
        samples = outcome.samples.get(name)
        print(f"{name:32s} {metric['value']:>16.6f} {metric['unit']:<14s}"
              + (f" n={samples}" if samples is not None else ""))
    report = {
        "stamp": stamp(args, outcome.units, wall_s),
        "samples": outcome.samples,
        "problems": outcome.problems,
        "notes": outcome.notes,
        "recorded": outcome.recorded,
        "trace_file": outcome.trace_file,
        "digests": outcome.digests,
        "counters": outcome.counters,
        "layer_counters": outcome.layer_counters,
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"report": report, "metrics": outcome.metrics}, indent=2) + "\n"
    )
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": outcome.metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
