"""Scalar/batch parity for the batched epoch-replay engine.

The batch engine (:mod:`repro.simulation.batch`) is only allowed to be
fast — never different.  These tests drive the same traces through the
scalar ``MultiCoreSystem`` loop and through ``use_batch`` and require
bit-identical results on every observable surface: ``PerfResult``,
vulnerability report, controller / cache / DRAM stats, metrics snapshot
and the trace-event stream (wall-clock fields excluded — two runs of
*anything* disagree on those).
"""

import inspect
import io
import json
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.controller import ProtectedMemory, ProtectionMode
from repro.experiments import simruns
from repro.experiments.common import Scale
from repro.experiments.simruns import run_benchmark, run_mix
from repro.obs import Observability
from repro.reliability.parma import VulnerabilityTracker
from repro.simulation.config import SCALED_SYSTEM, SystemConfig
from repro.simulation.system import MultiCoreSystem
from repro.workloads.blocks import BlockSource
from repro.workloads.profiles import PROFILES
from repro.workloads.tracegen import Access, Epoch, EpochArrays, TraceGenerator

BATCH_SYSTEM = replace(SCALED_SYSTEM, use_batch=True)


def _strip_wall(obj):
    """Drop wall-clock keys (``*.seconds`` gauges) from a snapshot."""
    if isinstance(obj, dict):
        return {
            k: _strip_wall(v)
            for k, v in obj.items()
            if not (isinstance(k, str) and "seconds" in k)
        }
    return obj


def _events(text: str) -> list[str]:
    """Trace events normalised: wall-clock span durations removed."""
    out = []
    for line in text.splitlines():
        event = json.loads(line)
        event.pop("wall_ms", None)
        out.append(json.dumps(event, sort_keys=True))
    return out


def _outcome_surfaces(outcome):
    return (
        asdict(outcome.perf),
        outcome.vulnerability,
        outcome.memory.stats.as_dict(),
    )


class TestEpochArrays:
    def test_round_trip(self):
        generator = TraceGenerator(PROFILES["gcc"], seed=3)
        epochs = list(generator.epochs(40))
        arrays = EpochArrays.from_epochs(epochs)
        assert list(arrays.to_epochs()) == epochs
        assert len(arrays) == 40
        assert arrays.accesses == sum(len(e.accesses) for e in epochs)

    def test_epoch_slice(self):
        arrays = EpochArrays.from_epochs(
            [Epoch(7, (Access(0, False), Access(64, True))), Epoch(9, (Access(128, False),))]
        )
        assert arrays.epoch_slice(0) == (7, 0, 2)
        assert arrays.epoch_slice(1) == (9, 2, 3)

    def test_validation(self):
        ok = EpochArrays.from_epochs([Epoch(1, (Access(0, True),))])
        with pytest.raises(ValueError):
            EpochArrays(
                instructions=ok.instructions,
                starts=ok.starts[:-1],
                addrs=ok.addrs,
                is_store=ok.is_store,
            )
        with pytest.raises(ValueError):
            EpochArrays(
                instructions=ok.instructions,
                starts=ok.starts,
                addrs=ok.addrs,
                is_store=np.zeros(5, dtype=np.bool_),
            )

    @pytest.mark.parametrize("bench", ["gcc", "lbm", "canneal"])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_epoch_arrays_matches_epochs(self, bench, seed):
        """``epoch_arrays(n)`` is the same RNG draw sequence as
        ``epochs(n)`` — identical trace, identical generator state after."""
        profile = PROFILES[bench]
        via_epochs = TraceGenerator(profile, seed=seed, base_addr=1 << 40)
        direct = TraceGenerator(profile, seed=seed, base_addr=1 << 40)
        for count in (50, 25):  # second call: cursor/RNG state carried over
            a = EpochArrays.from_epochs(via_epochs.epochs(count))
            b = direct.epoch_arrays(count)
            for name in ("instructions", "starts", "addrs", "is_store"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
        assert via_epochs._cursor == direct._cursor


class TestBenchmarkParity:
    @pytest.mark.parametrize("mode", list(ProtectionMode))
    def test_every_mode(self, mode):
        scalar = run_benchmark("gcc", mode, scale=Scale.SMOKE, cores=2)
        batch = run_benchmark(
            "gcc", mode, scale=Scale.SMOKE, cores=2, system=BATCH_SYSTEM
        )
        assert _outcome_surfaces(scalar) == _outcome_surfaces(batch)

    @pytest.mark.parametrize("bench", ["lbm", "mcf", "omnetpp", "canneal"])
    def test_memory_intensive_benchmarks(self, bench):
        scalar = run_benchmark(bench, ProtectionMode.COP, scale=Scale.SMOKE, cores=2)
        batch = run_benchmark(
            bench, ProtectionMode.COP, scale=Scale.SMOKE, cores=2, system=BATCH_SYSTEM
        )
        assert _outcome_surfaces(scalar) == _outcome_surfaces(batch)

    def test_mix_parity(self):
        benches = ("gcc", "lbm")
        scalar = run_mix(benches, ProtectionMode.COP_ER, scale=Scale.SMOKE)
        batch = run_mix(
            benches, ProtectionMode.COP_ER, scale=Scale.SMOKE, system=BATCH_SYSTEM
        )
        assert _outcome_surfaces(scalar) == _outcome_surfaces(batch)

    def test_metrics_and_trace_events(self):
        """With observability live, the batch path emits the *same events
        in the same order* with the same fields (minus wall clock)."""

        def run(system):
            sink = io.StringIO()
            obs = Observability.create(trace_sink=sink)
            run_benchmark(
                "mcf",
                ProtectionMode.COP,
                scale=Scale.SMOKE,
                cores=2,
                system=system,
                obs=obs,
            )
            obs.trace.flush()
            return _strip_wall(obs.snapshot()), _events(sink.getvalue())

        scalar_metrics, scalar_events = run(SCALED_SYSTEM)
        batch_metrics, batch_events = run(BATCH_SYSTEM)
        assert scalar_metrics == batch_metrics
        assert scalar_events == batch_events


class TestTraceReuse:
    """The mode jobs of one benchmark share one read-only trace per core."""

    @pytest.fixture
    def captured(self, monkeypatch):
        """The trace lists ``run_benchmark`` hands the simulator."""
        seen = []
        real = simruns.MultiCoreSystem

        def capture(memory, traces, *args, **kwargs):
            seen.append(list(traces))
            return real(memory, traces, *args, **kwargs)

        monkeypatch.setattr(simruns, "MultiCoreSystem", capture)
        simruns._trace_arrays.cache_clear()
        return seen

    def test_modes_get_equal_traces(self, captured):
        for mode in (ProtectionMode.COP, ProtectionMode.ECC_REGION):
            run_benchmark(
                "mcf", mode, scale=Scale.SMOKE, cores=2, system=BATCH_SYSTEM
            )
        first, second = captured
        for a, b in zip(first, second):
            for name in ("instructions", "starts", "addrs", "is_store"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
        profile = PROFILES["mcf"]
        footprint = profile.footprint_mb * (1 << 20) // 64
        fresh = TraceGenerator(
            profile,
            seed=11 * 1000 + 1,
            footprint_blocks=max(2048, footprint // BATCH_SYSTEM.footprint_divider),
            base_addr=1 << 40,
        ).epoch_arrays(60)
        assert np.array_equal(second[1].addrs, fresh.addrs)

    def test_shared_arrays_are_read_only(self, captured):
        run_benchmark(
            "lbm", ProtectionMode.COP, scale=Scale.SMOKE, cores=1,
            system=BATCH_SYSTEM,
        )
        trace = captured[0][0]
        for name in ("instructions", "starts", "addrs", "is_store"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(trace, name)[0] = 1

    def test_cache_stays_within_its_bound(self, captured):
        bound = simruns._trace_arrays.cache_info().maxsize
        for seed in range(bound + 3):
            simruns._trace_arrays(PROFILES["gcc"], seed, 2048, 0, 5)
        assert simruns._trace_arrays.cache_info().currsize == bound

    def test_scalar_engine_streams_epochs(self, captured):
        run_benchmark("gcc", ProtectionMode.COP, scale=Scale.SMOKE, cores=2)
        assert all(inspect.isgenerator(trace) for trace in captured[0])
        assert simruns._trace_arrays.cache_info().currsize == 0


def _direct_pair(bench, mode, cores, epochs, seed):
    """Two identically seeded systems, scalar and batch, run to completion."""
    profile = PROFILES[bench]
    results = []
    for use_batch in (False, True):
        config = SystemConfig(
            llc_bytes=128 << 10, footprint_divider=16, use_batch=use_batch
        )
        memory = ProtectedMemory(mode)
        footprint = max(
            1024,
            profile.footprint_mb * (1 << 20) // 64 // config.footprint_divider,
        )
        traces, sources, ipcs = [], [], []
        for core in range(cores):
            generator = TraceGenerator(
                profile,
                seed=seed + core,
                footprint_blocks=footprint,
                base_addr=core << 40,
            )
            traces.append(
                generator.epoch_arrays(epochs)
                if use_batch
                else generator.epochs(epochs)
            )
            sources.append(BlockSource(profile, seed=seed + core))
            ipcs.append(profile.perfect_ipc)
        sim = MultiCoreSystem(
            memory,
            traces,
            sources,
            ipcs,
            config,
            tracker=VulnerabilityTracker(),
        )
        perf = sim.run()
        results.append(
            (
                asdict(perf),
                sim.tracker.report(),
                memory.stats.as_dict(),
                sim.llc.stats.as_dict(),
                sim.dram.stats.as_dict(),
            )
        )
    return results


@settings(max_examples=12, deadline=None)
@given(
    bench=st.sampled_from(["gcc", "lbm", "mcf", "omnetpp", "soplex"]),
    mode=st.sampled_from(list(ProtectionMode)),
    cores=st.integers(min_value=1, max_value=3),
    epochs=st.integers(min_value=5, max_value=40),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_differential_random_traces(bench, mode, cores, epochs, seed):
    """Hypothesis differential: random multi-core traces are byte-identical
    between the scalar loop and the batch engine across every stats
    surface (PerfResult, vulnerability, controller, LLC, DRAM)."""
    scalar, batch = _direct_pair(bench, mode, cores, epochs, seed)
    assert scalar == batch
