"""Tests for the interval performance simulator."""

import pytest

import numpy as np

from repro.cache.cache import CacheLine
from repro.core.controller import ProtectedMemory, ProtectionMode
from repro.experiments.common import Scale
from repro.experiments.simruns import run_benchmark
from repro.reliability.parma import VulnerabilityTracker
from repro.simulation.config import SCALED_SYSTEM, TABLE1_SYSTEM, SystemConfig
from repro.simulation.content import ContentOracle
from repro.simulation.system import MultiCoreSystem, PerfResult, _Wave
from repro.workloads.blocks import BlockSource
from repro.workloads.profiles import PROFILES
from repro.workloads.tracegen import Access, Epoch, EpochArrays, TraceGenerator


def build_system(
    mode=ProtectionMode.COP,
    bench="gcc",
    cores=2,
    epochs=150,
    seed=5,
    tracker=None,
    config=None,
):
    profile = PROFILES[bench]
    config = config or SystemConfig(llc_bytes=128 << 10, footprint_divider=16)
    memory = ProtectedMemory(mode)
    traces, sources, ipcs = [], [], []
    footprint = max(
        1024, profile.footprint_mb * (1 << 20) // 64 // config.footprint_divider
    )
    for core in range(cores):
        generator = TraceGenerator(
            profile,
            seed=seed + core,
            footprint_blocks=footprint,
            base_addr=core << 40,
        )
        traces.append(generator.epoch_arrays(epochs))
        sources.append(BlockSource(profile, seed=seed + core))
        ipcs.append(profile.perfect_ipc)
    return MultiCoreSystem(memory, traces, sources, ipcs, config, tracker=tracker)


class TestConfigs:
    def test_table1_matches_paper(self):
        assert TABLE1_SYSTEM.cpu_ghz == 3.2
        assert TABLE1_SYSTEM.cores == 4
        assert TABLE1_SYSTEM.llc_bytes == 4 << 20
        assert TABLE1_SYSTEM.llc_ways == 16

    def test_scaled_preserves_ratio_knob(self):
        assert SCALED_SYSTEM.footprint_divider == 8
        assert SCALED_SYSTEM.llc_bytes == TABLE1_SYSTEM.llc_bytes // 8

    def test_cycle_conversion(self):
        assert TABLE1_SYSTEM.cycle_ns == pytest.approx(1 / 3.2)
        assert TABLE1_SYSTEM.cycles(10.0) == pytest.approx(32.0)


class TestRunMechanics:
    def test_alignment_validation(self):
        with pytest.raises(ValueError):
            MultiCoreSystem(
                ProtectedMemory(ProtectionMode.COP),
                [iter(())],
                [],
                [],
                SCALED_SYSTEM,
            )

    def test_deterministic(self):
        a = build_system().run()
        b = build_system().run()
        assert a == b

    def test_perf_result_accounting(self):
        result = build_system().run()
        assert isinstance(result, PerfResult)
        assert result.instructions > 0
        assert result.total_cycles > 0
        assert 0 < result.ipc <= max(result.core_ipcs) * len(result.cores)
        for core in result.cores:
            assert core.epochs == 150
            assert core.stall_ns >= 0.0

    def test_ipc_bounded_by_perfect_ipc(self):
        result = build_system().run()
        for core_ipc in result.core_ipcs:
            assert core_ipc <= PROFILES["gcc"].perfect_ipc + 1e-9

    def test_llc_and_dram_activity(self):
        system = build_system()
        result = system.run()
        assert result.llc_misses > 0
        assert result.dram_reads >= result.llc_misses * 0 and result.dram_reads > 0
        assert 0.0 <= result.row_hit_rate <= 1.0


class TestModeOrdering:
    """The Fig. 11 shape must hold on any workload."""

    @pytest.fixture(scope="class")
    def ipcs(self):
        out = {}
        for mode in (
            ProtectionMode.UNPROTECTED,
            ProtectionMode.COP,
            ProtectionMode.COP_ER,
            ProtectionMode.ECC_REGION,
        ):
            out[mode] = build_system(mode=mode, bench="mcf", epochs=250).run().ipc
        return out

    def test_unprotected_is_fastest(self, ipcs):
        fastest = max(ipcs.values())
        assert ipcs[ProtectionMode.UNPROTECTED] == pytest.approx(fastest)

    def test_cop_costs_only_decompress_latency(self, ipcs):
        ratio = ipcs[ProtectionMode.COP] / ipcs[ProtectionMode.UNPROTECTED]
        assert 0.9 < ratio <= 1.0 + 1e-9

    def test_ecc_region_is_slowest(self, ipcs):
        assert ipcs[ProtectionMode.ECC_REGION] == pytest.approx(
            min(ipcs.values())
        )

    def test_coper_beats_ecc_region(self, ipcs):
        assert ipcs[ProtectionMode.COP_ER] > ipcs[ProtectionMode.ECC_REGION]


class TestEvictionChains:
    """Alias re-pins must not drop the dirty lines they displace."""

    ALIAS_ADDR = 0x80

    def _one_set_system(self):
        """A 2-way, single-set LLC so evictions are easy to force.

        Natural aliases (~2.4e-7 per block) never show up in a test run,
        so the classification is stubbed: ``ALIAS_ADDR`` holds an
        incompressible alias, every other block is compressible.
        """
        config = SystemConfig(llc_bytes=128, llc_ways=2)
        profile = PROFILES["gcc"]
        sim = MultiCoreSystem(
            ProtectedMemory(ProtectionMode.COP),
            [EpochArrays.from_epochs([])],
            [BlockSource(profile, seed=3)],
            [profile.perfect_ipc],
            config,
        )
        sim.oracle.kind = lambda core, addr, version: (
            (False, True) if addr == self.ALIAS_ADDR else (True, False)
        )
        return sim

    def test_alias_repin_eviction_writes_back_dirty_victim(self):
        """Regression: the victim returned by an alias re-pin was dropped,
        losing the displaced dirty line's data forever."""
        sim = self._one_set_system()
        dirty_addr, clean_addr = 0x0, 0x40

        # DRAM holds the stale version; the only up-to-date copy of
        # dirty_addr lives in the (full) LLC.
        assert sim.memory.write(dirty_addr, (True, False)).accepted
        assert sim.llc.insert(dirty_addr, bytes(64), dirty=True) is None
        assert sim.llc.insert(clean_addr, bytes(64)) is None

        # Evict an incompressible alias: its writeback is rejected, the
        # re-pin displaces the LRU line — the dirty one.
        wave = _Wave(0.0)
        victim = CacheLine(addr=self.ALIAS_ADDR, data=bytes(64), dirty=True)
        sim._handle_eviction(0, victim, wave)

        pinned = sim.llc.peek(self.ALIAS_ADDR)
        assert pinned is not None and pinned.alias
        assert sim.llc.peek(dirty_addr) is None
        # The displaced dirty line must have been written back to memory.
        assert sim.memory.stats.alias_rejects == 1
        assert sim.memory.stats.writes == 3
        assert wave.requests == [(dirty_addr, True)]

    def test_alias_repin_into_nonfull_set_is_quiet(self):
        """With a free way the re-pin displaces nothing and memory keeps
        whatever it had."""
        sim = self._one_set_system()
        wave = _Wave(0.0)
        victim = CacheLine(addr=self.ALIAS_ADDR, data=bytes(64), dirty=True)
        sim._handle_eviction(0, victim, wave)
        assert sim.llc.peek(self.ALIAS_ADDR).alias
        assert sim.memory.stats.reads == 0
        assert sim.memory.stats.alias_rejects == 1
        assert not sim.memory.contents
        assert wave.requests == []

    def test_chain_guard_trips_on_impossible_loops(self):
        """The associativity bound turns a broken invariant into a loud
        failure instead of an endless eviction loop."""
        sim = self._one_set_system()
        sim.oracle.kind = lambda core, addr, version: (False, True)

        class _EndlessCache:
            ways = 2

            def insert(self, addr, data, dirty=False, alias=False):
                return CacheLine(addr=addr + 0x40, data=data, dirty=True)

        sim.llc = _EndlessCache()
        victim = CacheLine(addr=0x0, data=bytes(64), dirty=True)
        with pytest.raises(RuntimeError, match="eviction chain"):
            sim._handle_eviction(0, victim, _Wave(0.0))


class TestFirstTouchPopulation:
    """Which blocks ``run`` stores up front and which wait for a miss."""

    @pytest.fixture
    def populated(self, monkeypatch):
        """Addresses stored by the per-miss first-touch path."""
        seen = []
        real = MultiCoreSystem._populate

        def spy(sim, core_index, addr, wave):
            seen.append(addr)
            return real(sim, core_index, addr, wave)

        monkeypatch.setattr(MultiCoreSystem, "_populate", spy)
        return seen

    @pytest.mark.parametrize(
        "mode",
        [mode for mode in ProtectionMode if mode is not ProtectionMode.COP_ER],
    )
    def test_only_cop_er_populates_per_miss(self, mode, populated):
        """Apart from COP-ER, only a data address that is also an ECC
        block of the job waits for its miss."""
        sim = build_system(mode=mode, epochs=80)
        sim.run()
        touched = set().union(*(core.epochs.addrs.tolist() for core in sim._cores))
        side = sim.memory.side_ecc_blocks(touched)
        assert set(populated) <= side
        # Such a block may be cached as metadata until the run ends.
        assert set(sim.memory.contents) <= touched
        assert touched - set(sim.memory.contents) <= side

    def test_cop_er_populates_every_block_at_its_first_miss(self, populated):
        sim = build_system(mode=ProtectionMode.COP_ER, epochs=80)
        sim.run()
        assert len(populated) == len(set(populated)) == len(sim.memory.contents)

    def test_cop_alias_waits_for_its_first_miss(self, populated, monkeypatch):
        """A first-touch alias is nudged to a storable version at its miss,
        which is where its ``alias_reject`` belongs."""
        sim = build_system(mode=ProtectionMode.COP, cores=1, epochs=40)
        alias_addr = int(sim._cores[0].epochs.addrs[5])
        real_kind = sim.oracle.kind
        sim.oracle.kind = lambda core, addr, version: (
            (False, True)
            if (addr, version) == (alias_addr, 0)
            else real_kind(core, addr, version)
        )
        sim.run()
        assert populated == [alias_addr]
        assert sim.memory.stats.alias_rejects >= 1
        assert sim._versions[alias_addr] >= 1

    def test_ecc_block_hit_before_its_first_miss_is_never_written(self, populated):
        """Under embedded ECC a data address can be its row's ECC block.
        When a miss in that row caches it as metadata first, its data
        access hits, so the block is never stored as data."""
        memory = ProtectedMemory(ProtectionMode.EMBEDDED_ECC)
        ecc_addr = memory.embedded_ecc_addr(0)
        trace = EpochArrays.from_epochs(
            [Epoch(10, (Access(0, False), Access(ecc_addr, True)))]
        )
        profile = PROFILES["gcc"]
        sim = MultiCoreSystem(
            memory, [trace], [BlockSource(profile, seed=3)], [1.0], SCALED_SYSTEM
        )
        sim.run()
        assert set(memory.contents) == {0}
        assert memory.stats.writes == 1
        assert sim.llc.peek(ecc_addr).dirty

    def test_addresses_two_content_streams_share_are_left_out(self):
        profile = PROFILES["gcc"]
        oracle = ContentOracle(
            [BlockSource(profile, seed=1), BlockSource(profile, seed=2)],
            ProtectedMemory(ProtectionMode.COP).codec,
            ProtectionMode.COP,
        )
        streams = oracle.prefetch(
            [np.array([0, 64, 128], dtype=np.int64), np.array([128, 192])]
        )
        assert streams == [(0, [0, 64]), (1, [192])]
        # Still classified, for its first touch at a miss.
        assert (128, 0) in oracle._stores[0] and (128, 0) in oracle._stores[1]

    def test_cores_sharing_a_stream_share_one_owner(self):
        profile = PROFILES["canneal"]
        source = BlockSource(profile, seed=1)
        oracle = ContentOracle(
            [source, BlockSource(profile, seed=1)],
            ProtectedMemory(ProtectionMode.COP).codec,
            ProtectionMode.COP,
        )
        streams = oracle.prefetch([np.array([64, 0]), np.array([0, 128])])
        assert streams == [(0, [0, 64, 128])]


@pytest.mark.xfail(
    strict=True,
    reason="modelling bug: rate-mode cores k>=1 sit at k * 2**40, above the "
    "default 8 GiB memory's region_base, so their data counts as ECC "
    "metadata and dirty evictions of it skip the controller",
)
@pytest.mark.parametrize("mode", [ProtectionMode.COP, ProtectionMode.ECC_REGION])
def test_rate_mode_data_is_never_metadata(mode):
    memory = run_benchmark("mcf", mode, scale=Scale.SMOKE, cores=2).memory
    assert not [addr for addr in memory.contents if memory.is_metadata_addr(addr)]


class TestVulnerabilityIntegration:
    def test_tracker_sees_reads_and_writes(self):
        tracker = VulnerabilityTracker()
        build_system(mode=ProtectionMode.COP, tracker=tracker, epochs=200).run()
        report = tracker.report()
        assert report.reads_protected + report.reads_unprotected > 0
        assert report.total_bit_ns > 0
        assert 0.0 <= report.error_rate_reduction <= 1.0

    def test_coper_protects_everything(self):
        tracker = VulnerabilityTracker()
        build_system(
            mode=ProtectionMode.COP_ER, tracker=tracker, epochs=200
        ).run()
        assert tracker.report().error_rate_reduction == pytest.approx(1.0)

    def test_unprotected_protects_nothing(self):
        tracker = VulnerabilityTracker()
        build_system(
            mode=ProtectionMode.UNPROTECTED, tracker=tracker, epochs=200
        ).run()
        assert tracker.report().error_rate_reduction == 0.0


class TestDegenerateTraces:
    """Zero-instruction / zero-access traces flow through the ratio
    properties instead of dividing by zero."""

    def test_perf_result_with_no_cores(self):
        perf = PerfResult(
            cores=(),
            cpu_ghz=3.2,
            llc_hits=0,
            llc_misses=0,
            dram_reads=0,
            dram_writes=0,
            row_hit_rate=0.0,
        )
        assert perf.total_cycles == 0.0
        assert perf.ipc == 0.0
        assert perf.core_ipcs == ()

    def test_idle_core_has_zero_ipc(self):
        from repro.simulation.system import CoreResult

        perf = PerfResult(
            cores=(CoreResult(), CoreResult(instructions=10, compute_ns=5.0)),
            cpu_ghz=3.2,
            llc_hits=0,
            llc_misses=0,
            dram_reads=0,
            dram_writes=0,
            row_hit_rate=0.0,
        )
        assert perf.core_ipcs[0] == 0.0
        assert perf.core_ipcs[1] > 0.0

    def test_empty_trace_run(self):
        """A system whose traces hold zero epochs completes with all
        ratios at 0.0."""
        profile = PROFILES["gcc"]
        config = SystemConfig(llc_bytes=128 << 10, footprint_divider=16)
        generator = TraceGenerator(profile, seed=1, footprint_blocks=2048)
        sim = MultiCoreSystem(
            ProtectedMemory(ProtectionMode.COP),
            [generator.epoch_arrays(0)],
            [BlockSource(profile, seed=1)],
            [profile.perfect_ipc],
            config,
        )
        perf = sim.run()
        assert perf.instructions == 0
        assert perf.ipc == 0.0
        assert perf.row_hit_rate == 0.0
        assert perf.core_ipcs == (0.0,)
