"""End-to-end integration tests across the whole stack.

These drive realistic multi-step scenarios through codec + controller +
LLC + DRAM + simulator together, checking the *functional* guarantees the
paper's hardware would provide: no data is ever silently lost on the
no-error path, aliases never reach DRAM, COP-ER reconstruction always
matches what was written, and errors injected mid-run are corrected.
"""

import random

import pytest

from repro.core.codec import COPCodec
from repro.core.config import COPConfig
from repro.core.controller import ProtectedMemory, ProtectionMode
from repro.simulation.config import SystemConfig
from repro.simulation.system import MultiCoreSystem
from repro.workloads.blocks import BlockSource
from repro.workloads.profiles import PROFILES
from repro.workloads.tracegen import TraceGenerator


class TestWriteReadStorm:
    """Random write/read/rewrite sequences against every mode."""

    @pytest.mark.parametrize(
        "mode",
        [
            ProtectionMode.UNPROTECTED,
            ProtectionMode.COP,
            ProtectionMode.COP_ER,
            ProtectionMode.ECC_REGION,
            ProtectionMode.ECC_DIMM,
        ],
    )
    def test_mode_storm(self, mode):
        memory = ProtectedMemory(mode)
        source = BlockSource(PROFILES["omnetpp"], seed=11)
        rng = random.Random(f"storm-{mode.value}")
        shadow: dict[int, bytes] = {}
        for step in range(600):
            addr = rng.randrange(200) * 4096
            if addr in shadow and rng.random() < 0.5:
                result = memory.read(addr)
                assert result.data == shadow[addr], (mode, step)
            else:
                data = source.block(addr, version=step)
                if memory.write(addr, data).accepted:
                    shadow[addr] = data
        # Final sweep: every accepted block reads back exactly.
        for addr, data in shadow.items():
            assert memory.read(addr).data == data

    def test_coper_storm_with_compressibility_changes(self):
        """Blocks oscillating compressible <-> incompressible reuse and
        free entries without ever corrupting data."""
        memory = ProtectedMemory(ProtectionMode.COP_ER)
        rng = random.Random("osc")
        compressible = bytes(64)
        shadow = {}
        for step in range(400):
            addr = rng.randrange(40) * 64
            data = compressible if rng.random() < 0.5 else rng.randbytes(64)
            if memory.write(addr, data).accepted:
                shadow[addr] = data
            assert memory.read(addr).data == shadow[addr]
        # Entry bookkeeping is exact: one live entry per currently
        # incompressible block.
        incompressible_now = sum(
            1 for a, d in shadow.items() if d != compressible
        )
        assert len(memory.region) == incompressible_now
        assert len(memory.entry_of) == incompressible_now


class TestErrorStorm:
    @pytest.mark.parametrize(
        "mode", [ProtectionMode.COP_ER, ProtectionMode.ECC_REGION,
                 ProtectionMode.ECC_DIMM]
    )
    def test_single_flips_never_corrupt_protected_modes(self, mode):
        memory = ProtectedMemory(mode)
        source = BlockSource(PROFILES["milc"], seed=13)
        golden = {}
        for i in range(100):
            addr = i * 4096
            data = source.block(addr)
            memory.write(addr, data)
            golden[addr] = data
        rng = random.Random("flips")
        for _ in range(300):
            addr = rng.choice(list(golden))
            pristine = memory.contents[addr]
            memory.flip_bit(addr, rng.randrange(512))
            assert memory.read(addr).data == golden[addr]
            memory.contents[addr] = pristine

    def test_cop_flips_in_compressed_blocks_corrected(self):
        memory = ProtectedMemory(ProtectionMode.COP)
        codec = COPCodec()
        source = BlockSource(PROFILES["perlbench"], seed=14)
        rng = random.Random("cop-flips")
        for i in range(100):
            addr = i * 4096
            data = source.block(addr)
            result = memory.write(addr, data)
            if not result.compressed:
                continue
            memory.flip_bit(addr, rng.randrange(512))
            readback = memory.read(addr)
            assert readback.data == data
            assert readback.corrected


class TestSimulatedMachine:
    def test_full_stack_parsec_shared_footprint(self):
        """4 PARSEC threads share one address space through one LLC."""
        profile = PROFILES["canneal"]
        config = SystemConfig(llc_bytes=128 << 10, footprint_divider=32)
        memory = ProtectedMemory(ProtectionMode.COP_ER)
        footprint = max(2048, profile.footprint_mb * (1 << 20) // 64 // 32)
        traces, sources, ipcs = [], [], []
        for core in range(4):
            generator = TraceGenerator(
                profile, seed=core, footprint_blocks=footprint
            )
            traces.append(generator.epoch_arrays(150))
            sources.append(BlockSource(profile, seed=0))  # shared contents
            ipcs.append(profile.perfect_ipc)
        system = MultiCoreSystem(memory, traces, sources, ipcs, config)
        result = system.run()
        assert result.instructions > 0
        assert memory.stats.reads > 0
        # Shared space: all cores touched the same footprint region.
        assert max(memory.contents) < footprint * 64 + memory.region_base

    def test_eight_byte_variant_end_to_end(self):
        profile = PROFILES["gcc"]
        config = SystemConfig(llc_bytes=64 << 10, footprint_divider=64)
        memory = ProtectedMemory(
            ProtectionMode.COP, config=COPConfig.eight_byte()
        )
        generator = TraceGenerator(profile, seed=1, footprint_blocks=4096)
        system = MultiCoreSystem(
            memory,
            [generator.epoch_arrays(150)],
            [BlockSource(profile, seed=1)],
            [profile.perfect_ipc],
            config,
        )
        system.run()
        assert memory.stats.compressed_writes > 0

    def test_alias_pinning_under_pressure(self):
        """Crafted aliases fill a tiny LLC set; the spill region holds."""
        codec = COPCodec()
        rng = random.Random("alias-pressure")

        def alias_block():
            words = [
                codec.code.encode(rng.getrandbits(120)) ^ mask
                for mask in codec.masks
            ]
            return b"".join(w.to_bytes(16, "little") for w in words)

        from repro.cache.cache import SetAssocCache

        cache = SetAssocCache(2 * 64, ways=2)  # one set, two ways
        memory = ProtectedMemory(ProtectionMode.COP)
        for i in range(4):
            write = memory.write(i * 64, alias_block())
            assert not write.accepted  # controller refuses aliases
            cache.insert(i * 64, dirty=True, alias=True)
        # All four aliases are still cached (two spilled).
        for i in range(4):
            assert cache.lookup(i * 64)
        assert cache.stats.overflow_spills == 2
        assert memory.stats.alias_rejects == 4
