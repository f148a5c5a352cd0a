"""Unified observability for the COP simulation stack.

One :class:`Observability` object bundles the two surfaces every layer
of the simulator shares:

* :mod:`repro.obs.metrics` — hierarchical Counter/Gauge/Histogram registry,
  the one place counts live;
* :mod:`repro.obs.trace` — sampled structured JSONL event tracing.

The module-level default (:data:`NULL_OBS`) is a no-op on every surface,
so instrumented components cost (at most) one ``enabled`` check per hot
operation until someone opts in — via :func:`Observability.create` or
the CLI's ``--obs``/``--trace`` flags.

Components receive the bundle at construction; code that cannot thread it
explicitly (the experiment harnesses) uses the process-wide current bundle
(:func:`get_obs`), which is whatever :func:`set_obs` installed, or
:data:`NULL_OBS`.  Every metric a simulation job publishes is a simulated
quantity, a pure function of the job, so job snapshots byte-compare
across runs, serial or parallel.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Any, Optional, Union

from repro.obs.metrics import (
    DEFAULT_PERCENTILES,
    NULL_REGISTRY,
    MetricsRegistry,
    NullRegistry,
    render_tree,
)
from repro.obs.perf import TimingStats, best_seconds, fingerprint, measure
from repro.obs.trace import (
    NULL_TRACER,
    EventTracer,
    NullTracer,
    TraceShardSpec,
    summarize_trace,
)

__all__ = [
    "Observability",
    "NULL_OBS",
    "get_obs",
    "set_obs",
    "DEFAULT_PERCENTILES",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "EventTracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceShardSpec",
    "TimingStats",
    "best_seconds",
    "fingerprint",
    "measure",
    "render_tree",
    "summarize_trace",
]


@dataclass
class Observability:
    """The bundle handed to every instrumented component."""

    metrics: MetricsRegistry = field(default_factory=lambda: NULL_REGISTRY)
    trace: EventTracer = field(default_factory=lambda: NULL_TRACER)

    @property
    def enabled(self) -> bool:
        """Is any surface live?  Hot paths gate their work on this."""
        return self.metrics.enabled or self.trace.enabled

    @classmethod
    def create(
        cls,
        trace_sink: Union[str, Path, IO[str], None] = None,
        sample_rate: float = 1.0,
        seed: int = 0,
    ) -> "Observability":
        """A live bundle: real registry, tracer if a sink is given."""
        tracer = (
            EventTracer(trace_sink, sample_rate=sample_rate, seed=seed)
            if trace_sink is not None
            else NULL_TRACER
        )
        return cls(metrics=MetricsRegistry(), trace=tracer)

    def snapshot(self) -> dict[str, Any]:
        """Metrics snapshot for embedding in results."""
        if not self.metrics.enabled:
            return {}
        return self.metrics.snapshot()

    def close(self) -> None:
        self.trace.close()


#: The do-nothing default every component starts with.
NULL_OBS = Observability()

_current: Optional[Observability] = None


def get_obs() -> Observability:
    """The process-wide bundle: the one installed, or :data:`NULL_OBS`."""
    return _current if _current is not None else NULL_OBS


def set_obs(obs: Optional[Observability]) -> None:
    """Install the process-wide bundle (None uninstalls it)."""
    global _current
    _current = obs
