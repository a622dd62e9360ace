"""The run's metrics registry: counters, gauges and histograms.

A :class:`MetricsRegistry` holds three instrument kinds:

* **counters** — monotone sums;
* **gauges** — point-in-time levels (the last write wins);
* **histograms** — fixed-bucket latency distributions.

The workload engine builds one registry per run and every component counts
into it, so a run's snapshot is the one record of what that run did.
Snapshots are plain ``dict``s of primitives, JSON-able for the export
file.
"""

from __future__ import annotations

import threading
from bisect import bisect_right

__all__ = [
    "DEFAULT_LATENCY_BUCKETS_S",
    "Histogram",
    "MetricsRegistry",
]

#: Default latency buckets (seconds): 100 µs .. 10 s, roughly geometric.
#: Fixed buckets — never derived from observed data — so histograms of
#: different runs compare bucket to bucket.
DEFAULT_LATENCY_BUCKETS_S: tuple[float, ...] = (
    0.0001,
    0.00025,
    0.0005,
    0.001,
    0.0025,
    0.005,
    0.01,
    0.025,
    0.05,
    0.1,
    0.25,
    0.5,
    1.0,
    2.5,
    10.0,
)


class Histogram:
    """A fixed-bucket histogram (upper-bound buckets plus overflow)."""

    __slots__ = ("bounds", "buckets", "sum", "count")

    def __init__(self, bounds: tuple[float, ...] = DEFAULT_LATENCY_BUCKETS_S) -> None:
        self.bounds = tuple(bounds)
        self.buckets = [0] * (len(self.bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, value: float) -> None:
        self.buckets[bisect_right(self.bounds, value)] += 1
        self.sum += value
        self.count += 1

    def quantile(self, q: float) -> float:
        """Approximate quantile: the upper bound of the bucket holding rank q.

        Overflow observations report the largest finite bound — a floor on
        the true value, good enough for the latency breakdowns this feeds.
        """
        if self.count == 0:
            return 0.0
        rank = max(1, round(q * self.count))
        seen = 0
        for index, hits in enumerate(self.buckets):
            seen += hits
            if seen >= rank:
                return self.bounds[min(index, len(self.bounds) - 1)]
        return self.bounds[-1]

    def as_dict(self) -> dict[str, object]:
        return {
            "bounds": list(self.bounds),
            "buckets": list(self.buckets),
            "sum": self.sum,
            "count": self.count,
        }


class MetricsRegistry:
    """Counters, gauges and histograms; the workload engine builds one per run.

    Thread-safe: :meth:`AdmissionQueue.submit
    <repro.runtime.queue.AdmissionQueue.submit>` counts into the registry
    from client threads.  Label sets ride inside the metric name —
    ``"engine.lane.admitted[region=r0_0]"`` — keeping snapshots flat
    dicts; :func:`split_name` recovers the labels for reporting.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, float] = {}
        self._gauges: dict[str, float] = {}
        self._histograms: dict[str, Histogram] = {}

    # ------------------------------------------------------------------ #
    def count(self, name: str, value: float = 1.0) -> None:
        with self._lock:
            self._counters[name] = self._counters.get(name, 0) + value

    def gauge(self, name: str, value: float) -> None:
        with self._lock:
            self._gauges[name] = value

    def observe(self, name: str, value: float) -> None:
        with self._lock:
            histogram = self._histograms.get(name)
            if histogram is None:
                histogram = self._histograms[name] = Histogram()
            histogram.observe(value)

    # ------------------------------------------------------------------ #
    def counter_value(self, name: str) -> float:
        with self._lock:
            return self._counters.get(name, 0)

    def histogram_for(self, name: str) -> Histogram | None:
        with self._lock:
            return self._histograms.get(name)

    def snapshot(self) -> dict[str, dict[str, object]]:
        """A picklable/JSON-able copy of every instrument."""
        with self._lock:
            return {
                "counters": dict(self._counters),
                "gauges": dict(self._gauges),
                "histograms": {
                    name: histogram.as_dict()
                    for name, histogram in self._histograms.items()
                },
            }

    def __len__(self) -> int:
        with self._lock:
            return (
                len(self._counters) + len(self._gauges) + len(self._histograms)
            )


def split_name(name: str) -> tuple[str, dict[str, str]]:
    """Split ``"engine.lane.admitted[region=r0,lane=a]"`` into base + labels."""
    if not name.endswith("]") or "[" not in name:
        return name, {}
    base, _, label_part = name.partition("[")
    labels: dict[str, str] = {}
    for pair in label_part[:-1].split(","):
        if "=" in pair:
            key, _, value = pair.partition("=")
            labels[key] = value
    return base, labels


def pivot(
    counters: dict[str, float], base: str, row: str, column: str
) -> dict[str, dict[str, float]]:
    """Counters named ``base[row=…,column=…]`` as ``{row value: {column value: count}}``.

    ``pivot(counters, "engine.settled", "lane", "status")`` is a run's
    settlement table, lane by lane.
    """
    table: dict[str, dict[str, float]] = {}
    for name, value in counters.items():
        name_base, labels = split_name(name)
        if name_base == base:
            table.setdefault(labels[row], {})[labels[column]] = value
    return table
