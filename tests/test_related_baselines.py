"""Tests for the Section 2 related-work baselines: embedded ECC, MemZip."""

import random

import pytest

from repro.core.controller import ProtectedMemory, ProtectionMode


@pytest.fixture
def noise(rng):
    return rng.randbytes(64)


@pytest.fixture
def text_block():
    return b"compressible text payload for the related baselines ".ljust(64, b".")


class TestEmbeddedEcc:
    def test_roundtrip_and_correction(self, noise):
        memory = ProtectedMemory(ProtectionMode.EMBEDDED_ECC)
        memory.write(0, noise)
        assert memory.read(0).data == noise
        memory.flip_bit(0, 313)
        result = memory.read(0)
        assert result.data == noise and result.corrected

    def test_ecc_block_shares_the_dram_row(self):
        memory = ProtectedMemory(ProtectionMode.EMBEDDED_ECC)
        mapper = memory._mapper
        for addr in (0, 64, 4096, 1 << 22):
            data_loc = mapper.map(addr)
            ecc_loc = mapper.map(memory.embedded_ecc_addr(addr))
            assert (data_loc.channel, data_loc.rank, data_loc.bank,
                    data_loc.row) == (ecc_loc.channel, ecc_loc.rank,
                                      ecc_loc.bank, ecc_loc.row)
            assert ecc_loc.col == mapper.geometry.blocks_per_row - 1

    def test_every_access_touches_metadata(self, noise):
        memory = ProtectedMemory(ProtectionMode.EMBEDDED_ECC)
        write = memory.write(0, noise)
        assert len(write.ecc_writes) == 1
        read = memory.read(0)
        assert len(read.ecc_reads) == 1

    def test_metadata_addr_predicate(self):
        memory = ProtectedMemory(ProtectionMode.EMBEDDED_ECC)
        assert memory.is_metadata_addr(memory.embedded_ecc_addr(0))
        assert not memory.is_metadata_addr(0)

    def test_embedded_access_row_hits_after_data(self, noise):
        """The layout's point: the metadata access is a row hit."""
        from repro.memory.dram import DRAMSystem

        memory = ProtectedMemory(ProtectionMode.EMBEDDED_ECC)
        dram = DRAMSystem()
        memory.write(0, noise)
        data_timing = dram.access(0, False, 0.0)
        ecc_timing = dram.access(
            memory.embedded_ecc_addr(0), False, data_timing.complete_ns
        )
        assert ecc_timing.row_hit


class TestMemzip:
    def test_compressible_blocks_carry_inline_ecc(self, text_block):
        memory = ProtectedMemory(ProtectionMode.MEMZIP)
        write = memory.write(0, text_block)
        assert write.compressed and write.ecc_writes == ()
        read = memory.read(0)
        assert read.data == text_block
        assert read.compressed and read.ecc_reads == ()

    def test_incompressible_blocks_use_embedded_ecc(self, noise):
        memory = ProtectedMemory(ProtectionMode.MEMZIP)
        write = memory.write(0, noise)
        assert not write.compressed and len(write.ecc_writes) == 1
        read = memory.read(0)
        assert read.data == noise and len(read.ecc_reads) == 1

    def test_everything_protected(self, noise, text_block):
        memory = ProtectedMemory(ProtectionMode.MEMZIP)
        memory.write(0, text_block)
        memory.write(64, noise)
        memory.flip_bit(0, 99)
        memory.flip_bit(64, 499)
        assert memory.read(0).data == text_block
        assert memory.read(64).data == noise

    def test_explicit_metadata_is_the_point(self, text_block, noise):
        """MemZip tracks compression status in metadata; COP infers it.

        The `compressed_blocks` table is the dedicated storage the paper's
        COP avoids ("dedicated compression metadata is not required"):
        MemZip reads it on every access, COP decodes the stored image.
        """
        memory = ProtectedMemory(ProtectionMode.MEMZIP)
        memory.write(0, text_block)
        memory.write(64, noise)
        assert 0 in memory.compressed_blocks
        assert 64 not in memory.compressed_blocks
        # Status flips when data changes compressibility.
        memory.write(0, noise)
        assert 0 not in memory.compressed_blocks
        # The read trusts the metadata, not the image.
        memory.compressed_blocks.add(64)
        assert memory.read(64).compressed

    def test_storage_reserved_regardless(self, rng):
        """MemZip keeps the full ECC reservation even when everything
        compresses — the contrast with COP-ER's Fig. 12 result."""
        memory = ProtectedMemory(ProtectionMode.MEMZIP)
        for i in range(64):
            memory.write(i * 64, bytes(64))  # all compressible
        # One block per row is reserved for ECC: the overhead is
        # 1/blocks_per_row of memory no matter what was written.
        reserved_fraction = 1 / memory._mapper.geometry.blocks_per_row
        assert reserved_fraction > 0  # structural: space is always carved


class TestPerformanceOrdering:
    """The Section 2 story end-to-end: the baselines' extra accesses cost
    performance in the order the paper describes.  (The full sweep lives
    in benchmarks/bench_baseline_comparison.py.)"""

    def test_memzip_touches_less_metadata_than_embedded(self):
        from repro.workloads.blocks import BlockSource
        from repro.workloads.profiles import PROFILES

        source = BlockSource(PROFILES["gcc"], seed=41)
        traffic = {}
        for mode in (ProtectionMode.MEMZIP, ProtectionMode.EMBEDDED_ECC):
            memory = ProtectedMemory(mode)
            for i in range(400):
                memory.write(i * 4096, source.block(i * 4096))
            for i in range(400):
                memory.read(i * 4096)
            traffic[mode] = (
                memory.stats.ecc_block_reads + memory.stats.ecc_block_writes
            )
        # MemZip's compression removes the metadata access for ~90% of
        # gcc's blocks; embedded ECC touches it on every single access.
        assert traffic[ProtectionMode.MEMZIP] < traffic[
            ProtectionMode.EMBEDDED_ECC
        ] * 0.5
