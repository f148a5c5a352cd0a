"""The one simulation driver: every ``SimJob`` — rate mode or a mix — runs here."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional

from repro.core.config import COPConfig
from repro.core.controller import ProtectedMemory, ProtectionMode
from repro.experiments.common import Scale
from repro.obs import Observability, get_obs
from repro.reliability.parma import VulnerabilityReport, VulnerabilityTracker
from repro.simulation.config import SCALED_SYSTEM, SystemConfig
from repro.simulation.system import MultiCoreSystem, PerfResult
from repro.workloads.blocks import BlockSource
from repro.workloads.profiles import PROFILES, PARSEC, BenchmarkProfile
from repro.workloads.tracegen import EpochArrays, TraceGenerator

__all__ = ["SimOutcome", "run_benchmark", "epochs_for"]

#: Address-space stride separating the rate-mode copies of a benchmark.
_CORE_STRIDE = 1 << 40


@dataclass(frozen=True)
class SimOutcome:
    perf: PerfResult
    vulnerability: VulnerabilityReport
    memory: ProtectedMemory
    #: Metrics snapshot from this run (empty when observability is off).
    metrics: dict = field(default_factory=dict)


def epochs_for(scale: Scale) -> int:
    return scale.pick(smoke=60, small=600, full=6000)


@functools.lru_cache(maxsize=8)
def _trace_arrays(
    profile: BenchmarkProfile,
    seed: int,
    footprint_blocks: int,
    base_addr: int,
    epochs: int,
) -> EpochArrays:
    """One core's trace in array form, generated once and shared read-only.

    A trace is a pure function of its arguments, so the jobs that replay
    one benchmark under each protection mode reuse it.  The bound holds
    the cores of one or two benchmarks: a sweep's next benchmark evicts
    them, so no trace outlives the sweep that made it.
    """
    trace = TraceGenerator(
        profile, seed=seed, footprint_blocks=footprint_blocks, base_addr=base_addr
    ).epoch_arrays(epochs)
    for array in (trace.instructions, trace.starts, trace.addrs, trace.is_store):
        array.flags.writeable = False
    return trace


def run_benchmark(
    benchmark: str | BenchmarkProfile | tuple[str, ...],
    mode: ProtectionMode,
    scale: Scale = Scale.SMALL,
    cores: int = 4,
    cop_config: Optional[COPConfig] = None,
    system: SystemConfig = SCALED_SYSTEM,
    seed: int = 11,
    track: bool = True,
    obs: Optional[Observability] = None,
) -> SimOutcome:
    """Simulate one benchmark, or one mix, under one protection mode.

    SPEC benchmarks run in rate mode — ``cores`` copies with disjoint
    address spaces; PARSEC benchmarks run as ``cores`` threads sharing one
    footprint (the paper's 4-threaded native runs).  A tuple of names is
    a heterogeneous multiprogrammed mix, one program per core (``cores``
    is the tuple's length): each gets its own address space and content
    stream, and they contend for the shared LLC and DRAM.

    ``obs`` defaults to the process-wide observability bundle (a no-op
    unless one is installed with :func:`repro.obs.set_obs`).
    """
    if obs is None:
        obs = get_obs()
    memory = ProtectedMemory(mode, config=cop_config, obs=obs)
    mix = isinstance(benchmark, tuple)
    if mix:
        profiles = [PROFILES[name] for name in benchmark]
    else:
        profile = (
            PROFILES[benchmark] if isinstance(benchmark, str) else benchmark
        )
        profiles = [profile] * cores

    traces, sources, ipcs = [], [], []
    epoch_count = epochs_for(scale)
    for core, profile in enumerate(profiles):
        footprint_blocks = max(
            2048,
            profile.footprint_mb * (1 << 20) // 64 // system.footprint_divider,
        )
        trace_seed = seed * (100 if mix else 1000) + core
        shared_space = not mix and profile.suite == PARSEC
        base = 0 if shared_space else core * _CORE_STRIDE
        content_seed = seed if shared_space else trace_seed
        traces.append(
            _trace_arrays(profile, trace_seed, footprint_blocks, base, epoch_count)
        )
        sources.append(BlockSource(profile, seed=content_seed))
        ipcs.append(profile.perfect_ipc)

    tracker = VulnerabilityTracker() if track else None
    sim = MultiCoreSystem(
        memory, traces, sources, ipcs, system, tracker=tracker, obs=obs
    )
    perf = sim.run()
    report = (
        tracker.report()
        if tracker is not None
        else VulnerabilityReport(0.0, 0.0, 0, 0)
    )
    return SimOutcome(perf, report, memory, metrics=obs.snapshot())
