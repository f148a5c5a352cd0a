"""Hierarchical metrics registry for the simulation stack.

Metric names are dot-separated paths (``controller.alias_rejects``,
``dram.bank.c0r0b3.row_hits``, ``llc.pins``) so related counters group
into a tree for reporting.  Three metric types:

``Counter``
    Monotonic count (``inc``).  Snapshots subtract cleanly (``delta``)
    and sum across cores/runs (``merge``).
``Gauge``
    Point-in-time value (``set``).  Merge takes the max, which is the
    right reduction for the high-water marks the simulator tracks
    (peak ECC entries, makespan).
``Histogram``
    Power-of-two bucketed distribution (``observe``) with deterministic
    percentile estimates — O(1) memory however many latencies land in it.

A :class:`MetricsRegistry` owns the metrics; :class:`NullRegistry` is the
default no-op implementation whose ``inc``/``set``/``observe`` do nothing,
so instrumented hot paths cost one no-op method call (or one ``enabled``
check) when observability is off.
"""

from __future__ import annotations

import math
from typing import Any, Mapping, Optional, Sequence, Union

__all__ = [
    "Counter",
    "DEFAULT_PERCENTILES",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "percentile_key",
    "render_tree",
]

#: Default percentile set reported by :meth:`Histogram.as_dict`.
DEFAULT_PERCENTILES = (50.0, 90.0, 99.0, 99.9)

#: Backwards-compatible alias (pre-p99.9 name).
_PERCENTILES = DEFAULT_PERCENTILES


def percentile_key(pct: float) -> str:
    """Snapshot key for a percentile: ``p50``, ``p99``, ``p99.9``."""
    return f"p{pct:g}"


class Counter:
    """Monotonic counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        self.value += amount


class Gauge:
    """Point-in-time value (merge keeps the max)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = value

    def max(self, value: float) -> None:
        if value > self.value:
            self.value = value


class Histogram:
    """Log2-bucketed histogram with deterministic percentile estimates.

    Buckets cover ``2**k`` for ``k`` in ``[_MIN_EXP, _MAX_EXP)``; values
    outside clamp to the edge buckets.  Percentiles return the geometric
    midpoint of the bucket holding the requested rank, so repeated runs of
    a deterministic simulation report identical numbers.

    The reported percentile set is configurable per histogram
    (``percentiles=(50, 95, 99.9)``); the default adds ``p99.9`` to the
    classic p50/p90/p99 trio.  Whatever the set, ``merge_dict`` stays
    lossless: merging folds the raw buckets, not the derived percentiles.
    """

    _MIN_EXP = -10  # ~1e-3: sub-ns latencies clamp here
    _MAX_EXP = 50  # ~1e15: covers any ns quantity a run produces

    __slots__ = ("name", "count", "total", "min", "max", "percentiles", "_buckets")

    def __init__(
        self, name: str, percentiles: Optional[Sequence[float]] = None
    ) -> None:
        self.name = name
        self.count = 0
        self.total = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.percentiles: tuple[float, ...] = (
            tuple(percentiles) if percentiles is not None else DEFAULT_PERCENTILES
        )
        self._buckets = [0] * (self._MAX_EXP - self._MIN_EXP)

    def _bucket_index(self, value: float) -> int:
        if value <= 0:
            return 0
        exp = int(math.floor(math.log2(value)))
        return min(max(exp - self._MIN_EXP, 0), len(self._buckets) - 1)

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        self._buckets[self._bucket_index(value)] += 1

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, pct: float) -> float:
        """Estimate the ``pct``-th percentile (bucket geometric midpoint)."""
        if not self.count:
            return 0.0
        rank = max(1, math.ceil(self.count * pct / 100.0))
        seen = 0
        for index, bucket_count in enumerate(self._buckets):
            seen += bucket_count
            if seen >= rank:
                low = 2.0 ** (index + self._MIN_EXP)
                return min(max(low * math.sqrt(2.0), self.min), self.max)
        return self.max

    def as_dict(self) -> dict[str, Any]:
        if not self.count:
            return {"count": 0}
        return {
            "count": self.count,
            "total": self.total,
            "sum": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            **{percentile_key(p): self.percentile(p) for p in self.percentiles},
            "buckets": {
                str(i + self._MIN_EXP): n
                for i, n in enumerate(self._buckets)
                if n
            },
        }

    def merge_dict(self, data: Mapping[str, Any]) -> None:
        """Fold a snapshot produced by :meth:`as_dict` into this histogram."""
        if not data.get("count"):
            return
        self.count += data["count"]
        self.total += data.get("total", data.get("sum", 0.0))
        self.min = min(self.min, data["min"])
        self.max = max(self.max, data["max"])
        for key, n in data.get("buckets", {}).items():
            index = int(key) - self._MIN_EXP
            self._buckets[min(max(index, 0), len(self._buckets) - 1)] += n


class MetricsRegistry:
    """Creates, stores, snapshots and merges hierarchically named metrics."""

    enabled = True

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- access / creation ---------------------------------------------------

    def counter(self, name: str) -> Counter:
        metric = self._counters.get(name)
        if metric is None:
            metric = self._counters[name] = Counter(name)
        return metric

    def gauge(self, name: str) -> Gauge:
        metric = self._gauges.get(name)
        if metric is None:
            metric = self._gauges[name] = Gauge(name)
        return metric

    def histogram(
        self, name: str, percentiles: Optional[Sequence[float]] = None
    ) -> Histogram:
        metric = self._histograms.get(name)
        if metric is None:
            metric = self._histograms[name] = Histogram(
                name, percentiles=percentiles
            )
        return metric

    # -- convenience mutators -----------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        self.counter(name).inc(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    def update_counters(self, prefix: str, values: Mapping[str, int]) -> None:
        """Set ``prefix.key`` counters to absolute values (idempotent).

        Components that keep their own stats dataclasses publish through
        this: the registry ends up holding the same totals however many
        times the stats are re-published during a run.
        """
        for key, value in values.items():
            counter = self.counter(f"{prefix}.{key}")
            counter.value = int(value)

    # -- snapshots -----------------------------------------------------------

    def snapshot(self) -> dict[str, Any]:
        """JSON-serialisable state of every metric."""
        return {
            "counters": {n: c.value for n, c in sorted(self._counters.items())},
            "gauges": {n: g.value for n, g in sorted(self._gauges.items())},
            "histograms": {
                n: h.as_dict() for n, h in sorted(self._histograms.items())
            },
        }

    @staticmethod
    def delta(before: Mapping[str, Any], after: Mapping[str, Any]) -> dict[str, Any]:
        """Counter differences between two snapshots (gauges: after wins)."""
        counters = {
            name: value - before.get("counters", {}).get(name, 0)
            for name, value in after.get("counters", {}).items()
        }
        return {
            "counters": counters,
            "gauges": dict(after.get("gauges", {})),
            "histograms": dict(after.get("histograms", {})),
        }

    def merge(
        self, other: Union["MetricsRegistry", Mapping[str, Any]]
    ) -> "MetricsRegistry":
        """Fold another registry (or snapshot) into this one.

        Counters add, gauges keep the max, histograms combine — the
        reduction used to collapse per-core registries into a system view.
        """
        snap = other.snapshot() if isinstance(other, MetricsRegistry) else other
        for name, value in snap.get("counters", {}).items():
            self.counter(name).inc(value)
        for name, value in snap.get("gauges", {}).items():
            self.gauge(name).max(value)
        for name, data in snap.get("histograms", {}).items():
            self.histogram(name).merge_dict(data)
        return self

    def clear(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._histograms.clear()

    def render_tree(self) -> str:
        return render_tree(self.snapshot())


class _NullCounter(Counter):
    __slots__ = ()

    def inc(self, amount: int = 1) -> None:  # pragma: no cover - trivial
        pass


class _NullGauge(Gauge):
    __slots__ = ()

    def set(self, value: float) -> None:
        pass

    def max(self, value: float) -> None:
        pass


class _NullHistogram(Histogram):
    __slots__ = ()

    def observe(self, value: float) -> None:
        pass


class NullRegistry(MetricsRegistry):
    """No-op registry: every lookup returns a shared do-nothing metric."""

    enabled = False

    def __init__(self) -> None:
        super().__init__()
        self._null_counter = _NullCounter("null")
        self._null_gauge = _NullGauge("null")
        self._null_histogram = _NullHistogram("null")

    def counter(self, name: str) -> Counter:
        return self._null_counter

    def gauge(self, name: str) -> Gauge:
        return self._null_gauge

    def histogram(
        self, name: str, percentiles: Optional[Sequence[float]] = None
    ) -> Histogram:
        return self._null_histogram

    def inc(self, name: str, amount: int = 1) -> None:
        pass

    def set_gauge(self, name: str, value: float) -> None:
        pass

    def observe(self, name: str, value: float) -> None:
        pass

    def update_counters(self, prefix: str, values: Mapping[str, int]) -> None:
        pass

    def snapshot(self) -> dict[str, Any]:
        return {"counters": {}, "gauges": {}, "histograms": {}}


#: Shared default — safe to hand to any number of components.
NULL_REGISTRY = NullRegistry()


def _tree_insert(tree: dict[str, Any], name: str, leaf: str) -> None:
    parts = name.split(".")
    node = tree
    for part in parts[:-1]:
        node = node.setdefault(part, {})
    node[parts[-1]] = leaf


def _format_value(value: Union[int, float]) -> str:
    if isinstance(value, float) and not value.is_integer():
        return f"{value:,.3f}"
    return f"{int(value):,}"


def render_tree(snapshot: Mapping[str, Any]) -> str:
    """Render a snapshot as an indented metrics tree.

    Example::

        controller
          reads ......... 1,204
          writes ........ 377
        dram
          row_hits ...... 903
    """
    tree: dict = {}
    for name, value in snapshot.get("counters", {}).items():
        _tree_insert(tree, name, _format_value(value))
    for name, value in snapshot.get("gauges", {}).items():
        _tree_insert(tree, name, _format_value(value))
    for name, data in snapshot.get("histograms", {}).items():
        if data.get("count"):
            # Custom-percentile histograms may not carry p50/p99; fall
            # back to min/max bounds rather than KeyError-ing the render.
            p50 = data.get("p50", data.get("min", 0.0))
            p99 = data.get("p99", data.get("max", 0.0))
            leaf = (
                f"n={data['count']:,} mean={data['mean']:,.1f} "
                f"p50={p50:,.1f} p99={p99:,.1f} "
                f"max={data['max']:,.1f}"
            )
        else:
            leaf = "n=0"
        _tree_insert(tree, name, leaf)
    if not tree:
        return "(no metrics recorded)"

    lines: list[str] = []

    def walk(node: dict[str, Any], depth: int) -> None:
        pad = "  " * depth
        width = max(
            (len(k) for k, v in node.items() if not isinstance(v, dict)),
            default=0,
        )
        for key in sorted(node):
            value = node[key]
            if isinstance(value, dict):
                lines.append(f"{pad}{key}")
                walk(value, depth + 1)
            else:
                dots = "." * (width - len(key) + 3)
                lines.append(f"{pad}{key} {dots} {value}")

    walk(tree, 0)
    return "\n".join(lines)
