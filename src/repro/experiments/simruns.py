"""Shared simulation driver for the Fig. 10/11/12 experiments."""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Optional, Sequence

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

__all__ = ["SimOutcome", "run_benchmark", "run_mix", "epochs_for"]

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
    benchmark: str | BenchmarkProfile,
    mode: ProtectionMode,
    scale: Scale = Scale.SMALL,
    cores: int = 4,
    cop_config: Optional[COPConfig] = None,
    system: SystemConfig = SCALED_SYSTEM,
    seed: int = 11,
    track: bool = True,
    obs: Optional[Observability] = None,
) -> SimOutcome:
    """Simulate one benchmark under one protection mode.

    SPEC benchmarks run in rate mode — ``cores`` copies with disjoint
    address spaces; PARSEC benchmarks run as ``cores`` threads sharing one
    footprint (the paper's 4-threaded native runs).

    ``obs`` defaults to the process-wide observability bundle (a no-op
    unless enabled via :func:`repro.obs.set_obs` or the environment).
    """
    profile = (
        PROFILES[benchmark] if isinstance(benchmark, str) else benchmark
    )
    if obs is None:
        obs = get_obs()
    memory = ProtectedMemory(mode, config=cop_config, obs=obs)
    footprint_blocks = max(
        2048,
        profile.footprint_mb * (1 << 20) // 64 // system.footprint_divider,
    )
    shared_space = profile.suite == PARSEC

    traces, sources, ipcs = [], [], []
    epoch_count = epochs_for(scale)
    for core in range(cores):
        base = 0 if shared_space else core * _CORE_STRIDE
        content_seed = seed if shared_space else seed * 1000 + core
        traces.append(
            _trace_arrays(
                profile, seed * 1000 + core, footprint_blocks, base, epoch_count
            )
        )
        sources.append(BlockSource(profile, seed=content_seed))
        ipcs.append(profile.perfect_ipc)

    tracker = VulnerabilityTracker() if track else None
    sim = MultiCoreSystem(
        memory, traces, sources, ipcs, system, tracker=tracker, obs=obs
    )
    with obs.profile.phase(f"benchmark.{profile.name}"):
        perf = sim.run()
    report = (
        tracker.report()
        if tracker is not None
        else VulnerabilityReport(0.0, 0.0, 0, 0)
    )
    return SimOutcome(perf, report, memory, metrics=obs.snapshot())


def run_mix(
    benchmarks: Sequence[str],
    mode: ProtectionMode,
    scale: Scale = Scale.SMALL,
    system: SystemConfig = SCALED_SYSTEM,
    seed: int = 7,
    track: bool = True,
    obs: Optional[Observability] = None,
) -> SimOutcome:
    """Simulate a heterogeneous multiprogrammed mix, one benchmark per core.

    Each program gets its own address space (rate-mode strides) and its
    own content stream; they contend for the shared LLC and DRAM.  Used by
    the ``mixes`` experiment and expressible as a :class:`SimJob` with a
    tuple of benchmark names.
    """
    if obs is None:
        obs = get_obs()
    memory = ProtectedMemory(mode, obs=obs)
    traces, sources, ipcs = [], [], []
    for core, name in enumerate(benchmarks):
        profile = PROFILES[name]
        footprint = max(
            2048,
            profile.footprint_mb * (1 << 20) // 64 // system.footprint_divider,
        )
        traces.append(
            _trace_arrays(
                profile,
                seed * 100 + core,
                footprint,
                core * _CORE_STRIDE,
                epochs_for(scale),
            )
        )
        sources.append(BlockSource(profile, seed=seed * 100 + core))
        ipcs.append(profile.perfect_ipc)
    tracker = VulnerabilityTracker() if track else None
    sim = MultiCoreSystem(
        memory, traces, sources, ipcs, system, tracker=tracker, obs=obs
    )
    with obs.profile.phase(f"mix.{'+'.join(benchmarks)}"):
        perf = sim.run()
    report = (
        tracker.report()
        if tracker is not None
        else VulnerabilityReport(0.0, 0.0, 0, 0)
    )
    return SimOutcome(perf, report, memory, metrics=obs.snapshot())
