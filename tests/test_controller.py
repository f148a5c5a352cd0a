"""Tests for the protection-mode memory controller."""

import random

import pytest
from strategies import pointer_alias_block

from repro.core.config import COPConfig
from repro.core.controller import (
    BlockNotWrittenError,
    ControllerStats,
    NoStoredImageError,
    ProtectedMemory,
    ProtectionMode,
)


@pytest.fixture
def text_block():
    return b"protect me from cosmic rays, please - thanks!".ljust(64, b".")


@pytest.fixture
def noise(rng):
    return rng.randbytes(64)


class TestValidation:
    def test_write_validates_size_and_alignment(self):
        memory = ProtectedMemory(ProtectionMode.COP)
        with pytest.raises(ValueError):
            memory.write(0, b"short")
        with pytest.raises(ValueError):
            memory.write(7, bytes(64))

    def test_read_unknown_address(self):
        with pytest.raises(KeyError):
            ProtectedMemory(ProtectionMode.COP).read(0)

    def test_flip_bit_validation(self, text_block):
        memory = ProtectedMemory(ProtectionMode.COP)
        memory.write(0, text_block)
        with pytest.raises(ValueError):
            memory.flip_bit(0, 512)
        with pytest.raises(KeyError):
            memory.flip_bit(64, 0)
        # A block written by classification has no image to corrupt.
        memory.write(64, (True, False))
        with pytest.raises(NoStoredImageError):
            memory.flip_bit(64, 0)


class TestSequenceWrite:
    """``write(addrs, [classification, ...])``: bulk first-touch population."""

    def test_coper_accepts_only_compressible_batches(self):
        """A COP-ER batch of compressible blocks takes no entry and is
        stored; one incompressible block refuses the whole write."""
        refused = ProtectedMemory(ProtectionMode.COP_ER)
        with pytest.raises(ValueError, match="COP-ER"):
            refused.write([0, 64, 128], [(True, False), (False, False), (True, False)])
        assert not refused.contents and refused.stats.writes == 0
        assert not refused.compressed_blocks and not refused.ever_incompressible

        accepted = ProtectedMemory(ProtectionMode.COP_ER)
        accepted.write([0, 64], [(True, False), (True, False)])
        assert set(accepted.contents) == accepted.compressed_blocks == {0, 64}
        assert accepted.stats.writes == accepted.stats.compressed_writes == 2
        assert not accepted.entry_of and len(accepted.region) == 0

    def test_coper_refuses_a_batch_over_a_held_entry(self, noise):
        """A compressible write frees the block's entry in write order, so
        a batch over an entry-holding block is refused too."""
        memory = ProtectedMemory(ProtectionMode.COP_ER)
        memory.write(64, noise)
        before = memory.stats.as_dict()
        with pytest.raises(ValueError, match="COP-ER"):
            memory.write([0, 64], [(True, False), (True, False)])
        assert set(memory.contents) == set(memory.entry_of) == {64}
        assert memory.stats.as_dict() == before

    def test_coper_bulk_write_equals_one_by_one(self, rng, noise):
        """Differential: the bulk write of compressible blocks leaves the
        controller exactly as writing them one at a time does, beside a
        block that already holds an entry."""
        addrs = [64 * rng.randrange(1 << 20) for _ in range(200)]
        kinds = [(True, False)] * len(addrs)
        bulk = ProtectedMemory(ProtectionMode.COP_ER)
        single = ProtectedMemory(ProtectionMode.COP_ER)
        for memory in (bulk, single):
            memory.write(1 << 30, noise)
        assert bulk.entry_of
        bulk.write(addrs, kinds)
        for addr, kind in zip(addrs, kinds):
            assert single.write(addr, kind).accepted
        assert bulk.stats == single.stats
        assert list(bulk.contents) == list(single.contents)
        assert bulk.compressed_blocks == single.compressed_blocks
        assert bulk.entry_of == single.entry_of
        assert bulk.ever_incompressible == single.ever_incompressible

    def test_cop_alias_is_refused_before_anything_is_stored(self):
        memory = ProtectedMemory(ProtectionMode.COP)
        with pytest.raises(ValueError, match="alias"):
            memory.write([0, 64], [(True, False), (False, True)])
        assert not memory.contents and memory.stats.writes == 0
        assert not memory.ever_incompressible

    def test_alias_flag_matters_only_under_cop(self):
        memory = ProtectedMemory(ProtectionMode.MEMZIP)
        memory.write([0], [(False, True)])
        assert memory.stats.raw_writes == memory.stats.ecc_block_writes == 1

    def test_validates_alignment_and_lengths(self):
        memory = ProtectedMemory(ProtectionMode.COP)
        with pytest.raises(ValueError, match="aligned"):
            memory.write([0, 7], [(True, False), (True, False)])
        with pytest.raises(ValueError, match="one classification"):
            memory.write([0, 64], [(True, False)])
        assert not memory.contents

    @pytest.mark.parametrize(
        "mode",
        [ProtectionMode.ECC_REGION, ProtectionMode.EMBEDDED_ECC, ProtectionMode.MEMZIP],
    )
    def test_side_ecc_blocks_match_the_per_access_addresses(self, mode):
        memory = ProtectedMemory(mode)
        rng = random.Random(9)
        addrs = {rng.randrange(3 << 40) // 64 * 64 for _ in range(300)}
        assert memory.side_ecc_blocks(addrs) == {
            memory._side_ecc_addr(addr) for addr in addrs
        }

    @pytest.mark.parametrize(
        "mode",
        [ProtectionMode.UNPROTECTED, ProtectionMode.COP, ProtectionMode.COP_ER],
    )
    def test_no_side_ecc_blocks_elsewhere(self, mode):
        assert ProtectedMemory(mode).side_ecc_blocks({0, 64}) == set()


class TestUnprotected:
    def test_flips_corrupt_silently(self, text_block):
        memory = ProtectedMemory(ProtectionMode.UNPROTECTED)
        memory.write(0, text_block)
        memory.flip_bit(0, 13)
        result = memory.read(0)
        assert result.data != text_block
        assert not result.corrected and not result.uncorrectable


class TestCOP:
    def test_compressible_roundtrip_and_stats(self, text_block):
        memory = ProtectedMemory(ProtectionMode.COP)
        memory.write(0, text_block)
        assert memory.stats.compressed_writes == 1
        result = memory.read(0)
        assert result.data == text_block
        assert result.compressed
        assert result.decompress_cycles == 4

    def test_incompressible_roundtrip(self, noise):
        memory = ProtectedMemory(ProtectionMode.COP)
        memory.write(0, noise)
        assert memory.stats.raw_writes == 1
        result = memory.read(0)
        assert result.data == noise
        assert result.was_uncompressed and not result.compressed

    def test_flip_in_compressed_block_corrected(self, text_block):
        memory = ProtectedMemory(ProtectionMode.COP)
        memory.write(0, text_block)
        memory.flip_bit(0, 200)
        result = memory.read(0)
        assert result.data == text_block
        assert result.corrected
        assert memory.stats.corrected_blocks == 1

    def test_alias_writeback_rejected(self, codec4, rng):
        memory = ProtectedMemory(ProtectionMode.COP)
        words = [
            codec4.code.encode(rng.getrandbits(120)) ^ mask
            for mask in codec4.masks
        ]
        alias_block = b"".join(w.to_bytes(16, "little") for w in words)
        result = memory.write(0, alias_block)
        assert not result.accepted
        assert memory.stats.alias_rejects == 1
        assert 0 not in memory.contents

    def test_no_extra_ecc_traffic(self, text_block, noise):
        memory = ProtectedMemory(ProtectionMode.COP)
        memory.write(0, text_block)
        memory.write(64, noise)
        assert memory.read(0).ecc_reads == ()
        assert memory.read(64).ecc_reads == ()


class TestCoperMode:
    def test_incompressible_gets_entry(self, noise):
        memory = ProtectedMemory(ProtectionMode.COP_ER)
        result = memory.write(0, noise)
        assert result.accepted and result.was_uncompressed
        assert memory.stats.entry_allocations == 1
        assert 0 in memory.entry_of
        assert result.ecc_writes == (memory.entry_block_addr(memory.entry_of[0]),)

    def test_incompressible_read_chases_pointer(self, noise):
        memory = ProtectedMemory(ProtectionMode.COP_ER)
        memory.write(0, noise)
        result = memory.read(0)
        assert result.data == noise
        assert result.was_uncompressed
        assert len(result.ecc_reads) == 1

    def test_entry_reused_on_rewrite(self, rng):
        memory = ProtectedMemory(ProtectionMode.COP_ER)
        memory.write(0, rng.randbytes(64))
        entry = memory.entry_of[0]
        memory.write(0, rng.randbytes(64))
        assert memory.entry_of[0] == entry
        assert memory.stats.entry_reuses == 1

    @pytest.mark.parametrize("classified", [False, True])
    def test_rewrite_that_would_alias_takes_a_fresh_entry(self, rng, classified):
        """Regression: a rewrite re-embedded its entry's old pointer without
        re-checking aliasing, so crafted data read back wrong, flagged
        neither corrected nor uncorrectable."""
        memory = ProtectedMemory(ProtectionMode.COP_ER)
        memory.write(0, rng.randbytes(64))
        old = memory.entry_of[0]
        data = pointer_alias_block(memory.formatter, old, rng)
        if classified:
            result = memory.write(0, (False, False), content=lambda: data)
        else:
            result = memory.write(0, data)
        assert result.accepted
        if not classified:
            read = memory.read(0)
            assert read.data == data
            assert read.was_uncompressed and not read.uncorrectable
        assert memory.entry_of[0] != old
        assert old not in memory.region._entries
        assert result.ecc_writes == (
            memory.entry_block_addr(old),
            memory.entry_block_addr(memory.entry_of[0]),
        )
        stats = memory.stats
        assert (stats.entry_reuses, stats.entry_allocations, stats.entry_frees) == (
            0,
            2,
            1,
        )

    def test_rejected_rewrite_keeps_the_old_block(self, rng, monkeypatch):
        """When no fresh pointer de-aliases the rewrite either, the write
        is refused and the resident block and its entry stay intact."""
        memory = ProtectedMemory(ProtectionMode.COP_ER)
        first = rng.randbytes(64)
        memory.write(0, first)
        old = memory.entry_of[0]
        data = pointer_alias_block(memory.formatter, old, rng)
        monkeypatch.setattr(
            type(memory.formatter),
            "allocate_entry",
            lambda self, block: (self.region.allocate(), True),
        )
        assert not memory.write(0, data).accepted
        assert memory.stats.alias_rejects == 1
        assert memory.entry_of == {0: old} and len(memory.region) == 1
        assert memory.read(0).data == first

    def test_entry_freed_when_block_compresses(self, noise, text_block):
        memory = ProtectedMemory(ProtectionMode.COP_ER)
        memory.write(0, noise)
        assert len(memory.region) == 1
        memory.write(0, text_block)
        assert len(memory.region) == 0
        assert 0 not in memory.entry_of
        assert memory.stats.entry_frees == 1

    def test_flip_in_incompressible_block_corrected(self, noise):
        memory = ProtectedMemory(ProtectionMode.COP_ER)
        memory.write(0, noise)
        memory.flip_bit(0, 301)
        result = memory.read(0)
        assert result.data == noise
        assert result.corrected

    def test_ever_incompressible_tracking(self, rng, text_block):
        memory = ProtectedMemory(ProtectionMode.COP_ER)
        memory.write(0, rng.randbytes(64))
        memory.write(0, text_block)  # becomes compressible again
        assert memory.ever_incompressible == {0}

    def test_compressible_blocks_cost_nothing(self, text_block):
        memory = ProtectedMemory(ProtectionMode.COP_ER)
        memory.write(0, text_block)
        assert len(memory.region) == 0
        assert memory.read(0).ecc_reads == ()


class TestEccRegionBaseline:
    def test_every_access_touches_ecc(self, text_block):
        memory = ProtectedMemory(ProtectionMode.ECC_REGION)
        write = memory.write(0, text_block)
        assert write.ecc_writes == (memory.baseline_ecc_addr(0),)
        read = memory.read(0)
        assert read.ecc_reads == (memory.baseline_ecc_addr(0),)

    def test_ecc_blocks_are_shared_by_32_data_blocks(self):
        memory = ProtectedMemory(ProtectionMode.ECC_REGION)
        assert memory.baseline_ecc_addr(0) == memory.baseline_ecc_addr(31 * 64)
        assert memory.baseline_ecc_addr(0) != memory.baseline_ecc_addr(32 * 64)

    def test_wide_code_corrects_single_flip(self, noise):
        memory = ProtectedMemory(ProtectionMode.ECC_REGION)
        memory.write(0, noise)
        memory.flip_bit(0, 99)
        result = memory.read(0)
        assert result.data == noise and result.corrected

    def test_double_flip_detected(self, noise):
        memory = ProtectedMemory(ProtectionMode.ECC_REGION)
        memory.write(0, noise)
        memory.flip_bit(0, 99)
        memory.flip_bit(0, 311)
        result = memory.read(0)
        assert result.uncorrectable

    def test_ecc_addresses_live_above_region_base(self, text_block):
        memory = ProtectedMemory(ProtectionMode.ECC_REGION)
        memory.write(0, text_block)
        assert memory.baseline_ecc_addr(0) >= memory.region_base


class TestEccDimm:
    def test_roundtrip_and_correction(self, noise):
        memory = ProtectedMemory(ProtectionMode.ECC_DIMM)
        memory.write(0, noise)
        assert memory.read(0).data == noise
        memory.flip_bit(0, 450)
        result = memory.read(0)
        assert result.data == noise and result.corrected

    def test_double_flip_same_word_detected(self, noise):
        memory = ProtectedMemory(ProtectionMode.ECC_DIMM)
        memory.write(0, noise)
        memory.flip_bit(0, 0)
        memory.flip_bit(0, 5)  # same (72,64) word
        assert memory.read(0).uncorrectable

    def test_double_flip_different_words_corrected(self, noise):
        """The per-word SECDED geometry fixes one flip per 8-byte word."""
        memory = ProtectedMemory(ProtectionMode.ECC_DIMM)
        memory.write(0, noise)
        memory.flip_bit(0, 0)
        memory.flip_bit(0, 100)  # a different word
        result = memory.read(0)
        assert result.data == noise and result.corrected


class TestEightByteVariant:
    def test_cop8_roundtrip(self, rng):
        memory = ProtectedMemory(
            ProtectionMode.COP, config=COPConfig.eight_byte()
        )
        block = bytes(64)
        memory.write(0, block)
        memory.flip_bit(0, 17)
        result = memory.read(0)
        assert result.data == block and result.corrected


class TestBlockNotWritten:
    """Typed read-miss error + counter (service bugfix sweep)."""

    def test_typed_error_is_a_keyerror(self):
        memory = ProtectedMemory(ProtectionMode.COP)
        with pytest.raises(BlockNotWrittenError) as excinfo:
            memory.read(0x1340)
        # Still a KeyError, so pre-existing callers keep working.
        assert isinstance(excinfo.value, KeyError)
        assert excinfo.value.addr == 0x1340
        assert "0x1340" in str(excinfo.value)

    def test_read_misses_counted_and_reported(self, text_block):
        memory = ProtectedMemory(ProtectionMode.COP)
        memory.write(0, text_block)
        for addr in (64, 128, 64):
            with pytest.raises(BlockNotWrittenError):
                memory.read(addr)
        assert memory.stats.read_misses == 3
        assert memory.stats.reads == 0  # misses are not successful reads
        assert memory.stats.as_dict()["read_misses"] == 3

    def test_read_misses_survive_merge(self):
        left, right = ControllerStats(read_misses=2), ControllerStats(read_misses=5)
        assert left.merge(right).read_misses == 7

    def test_flip_bit_raises_typed_error_without_counting(self):
        memory = ProtectedMemory(ProtectionMode.COP)
        with pytest.raises(BlockNotWrittenError):
            memory.flip_bit(64, 0)
        # The harness hook is not demand traffic; no read_misses charge.
        assert memory.stats.read_misses == 0


class TestDecompressLatencyModel:
    """Only decompression pays decompress cycles (service bugfix sweep).

    docs/architecture.md ("Life of a read"): a compressed block charges
    the +4-cycle decompressor; a raw COP block passes to the cache
    untouched.  The COP-ER raw path, by contrast, does real decode work
    (pointer extraction, whole-block correction, reassembly) and keeps
    charging the pipeline latency.
    """

    def test_cop_compressed_read_charges_latency(self, text_block):
        memory = ProtectedMemory(ProtectionMode.COP)
        memory.write(0, text_block)
        result = memory.read(0)
        assert result.compressed
        assert result.decompress_cycles == memory.config.decompress_latency

    def test_cop_raw_read_charges_no_latency(self, noise):
        memory = ProtectedMemory(ProtectionMode.COP)
        memory.write(0, noise)
        result = memory.read(0)
        assert result.was_uncompressed
        assert result.decompress_cycles == 0

    def test_coper_raw_read_still_charges_latency(self, noise):
        memory = ProtectedMemory(ProtectionMode.COP_ER)
        memory.write(0, noise)
        result = memory.read(0)
        assert result.was_uncompressed
        assert result.decompress_cycles == memory.config.decompress_latency
