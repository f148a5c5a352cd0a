"""Deep edge-case coverage across subsystems.

These are the awkward corners a hardware validation team would poke:
boundary payload sizes, both COP geometries under every scheme, forced
COP-ER fallbacks, pathological cache states, and codec behaviour at the
exact thresholds.
"""

import random
import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import any_blocks
from repro._bits import Bits
from repro.compression import (
    BDICompressor,
    FPCCompressor,
    MSBCompressor,
    RLECompressor,
    TextCompressor,
    cop_combined_compressor,
    payload_budget,
)
from repro.core.codec import BlockKind, COPCodec
from repro.core.config import COPConfig
from repro.core.controller import ProtectedMemory, ProtectionMode


class TestExactBudgetBoundaries:
    """Payload sizes at the precise fit/no-fit frontier."""

    def test_msb_payload_exactly_at_budget(self):
        # 477-bit payload vs budgets 477 and 476.
        scheme = MSBCompressor(5, True)
        block = bytes(64)
        assert scheme.compress(block, 477) is not None
        assert scheme.compress(block, 476) is None

    def test_txt_payload_exactly_at_budget(self):
        scheme = TextCompressor()
        block = b"a" * 64
        assert scheme.compress(block, 448) is not None
        assert scheme.compress(block, 447) is None

    def test_rle_minimum_freed_exactly_34(self):
        # Exactly two 3-byte runs: freed = 34, payload = 478.
        block = bytearray(b"\x99" * 64)
        block[0:3] = bytes(3)
        block[4:7] = bytes(3)
        scheme = RLECompressor(34)
        payload = scheme.compress(bytes(block), payload_budget(4))
        assert payload is not None and payload.nbits == 478

    def test_rle_one_bit_short(self):
        # One 3-byte + one 2-byte run frees 17 + 9 = 26 < 34.
        block = bytearray(b"\x99" * 64)
        block[0:3] = bytes(3)
        block[4:6] = bytes(2)
        assert RLECompressor(34).compress(bytes(block), 478) is None

    def test_fpc_exact_boundary(self):
        fpc = FPCCompressor()
        # 15 uncompressed words + 1 zero word: 48 + 15*32 = 528 > 478.
        words = [0] + [0x89ABCDEF + i * 0x01010101 for i in range(15)]
        block = struct.pack("<16I", *words)
        size = fpc.compressed_size_bits(block)
        assert fpc.compress(block, size) is not None
        assert fpc.compress(block, size - 1) is None


class TestEightByteGeometryDetails:
    def test_capacity_is_448_bits(self, codec8):
        assert codec8.config.capacity_bits == 448

    def test_eight_masks_all_distinct(self, codec8):
        assert len(set(codec8.masks)) == 8

    def test_threshold_edge_4_valid_words_is_raw(self, codec8):
        """5-of-8: exactly 4 valid words must NOT classify as compressed."""
        stored = bytearray(codec8.encode(bytes(64)).stored)
        for word in range(4):  # corrupt four words
            stored[word * 8] ^= 0xFF
        decoded = codec8.decode(bytes(stored))
        # 4 clean words remain; some corrupted words may still decode as
        # CORRECTED (syndrome matches a column) but not CLEAN.
        assert decoded.valid_codewords <= 4
        assert decoded.kind is BlockKind.RAW

    def test_threshold_edge_5_valid_words_is_compressed(self, codec8):
        stored = bytearray(codec8.encode(bytes(64)).stored)
        for word in range(3):
            stored[word * 8] ^= 0x01  # single-bit: correctable
        decoded = codec8.decode(bytes(stored))
        assert decoded.kind is BlockKind.COMPRESSED
        assert decoded.data == bytes(64)

    @given(block=any_blocks)
    @settings(max_examples=50)
    def test_8b_combined_roundtrip(self, block):
        combined = cop_combined_compressor(8)
        payload = combined.compress(block, 448)
        if payload is not None:
            assert combined.decompress(payload) == block


class TestCodecThresholdEdges:
    def test_exactly_3_valid_words_is_compressed(self, codec4):
        stored = bytearray(codec4.encode(bytes(64)).stored)
        stored[0] ^= 0x04  # one word invalid (correctable)
        decoded = codec4.decode(bytes(stored))
        assert decoded.valid_codewords == 3
        assert decoded.kind is BlockKind.COMPRESSED

    def test_exactly_2_valid_words_is_raw(self, codec4):
        stored = bytearray(codec4.encode(bytes(64)).stored)
        stored[0] ^= 0x04
        stored[16] ^= 0x04
        decoded = codec4.decode(bytes(stored))
        assert decoded.valid_codewords == 2
        assert decoded.kind is BlockKind.RAW

    def test_threshold_2_variant_recovers_that_case(self):
        """Sec. 3.1: lowering the threshold extends correction."""
        codec = COPCodec(COPConfig(ecc_bytes=4, codeword_threshold=2))
        stored = bytearray(codec.encode(bytes(64)).stored)
        stored[0] ^= 0x04
        stored[16] ^= 0x04
        decoded = codec.decode(bytes(stored))
        assert decoded.kind is BlockKind.COMPRESSED
        assert decoded.data == bytes(64)
        assert decoded.corrected_words == 2


class TestBdiWrapAndLimits:
    def test_base2_delta1(self):
        bdi = BDICompressor()
        base = 0x4321
        block = struct.pack(
            "<32H", *[(base + d) & 0xFFFF for d in range(-16, 16)]
        )
        payload = bdi.compress(block, 512)
        assert payload is not None
        assert bdi.decompress(payload) == block

    def test_budget_skips_oversized_encodings(self):
        """A tight budget forces BDI past encodings that would fit data-
        wise but not budget-wise."""
        bdi = BDICompressor()
        base = 0x0102030405060708
        block = struct.pack("<8Q", *[base + d for d in range(8)])
        # base8/delta1 needs 4 + 64 + 64 = 132 bits.
        assert bdi.compress(block, 132) is not None
        assert bdi.compress(block, 131) is None


class TestCoperForcedFallbacks:
    def test_aliased_placement_rejected_by_controller(self, monkeypatch):
        """If no pointer choice can de-alias a block, the controller must
        refuse the write (the block stays LLC-pinned)."""
        from repro.core import coper as coper_mod

        memory = ProtectedMemory(ProtectionMode.COP_ER)

        def always_aliased(self, block):
            return self.region.allocate(), True

        monkeypatch.setattr(
            coper_mod.CoperBlockFormat, "allocate_entry", always_aliased
        )
        result = memory.write(0, random.Random(0).randbytes(64))
        assert not result.accepted
        assert memory.stats.alias_rejects == 1
        assert len(memory.region) == 0  # the entry was released

    def test_region_exhaustion_rejects_write(self):
        memory = ProtectedMemory(ProtectionMode.COP_ER)
        memory.region.max_entries = 1
        rng = random.Random(1)
        assert memory.write(0, rng.randbytes(64)).accepted
        result = memory.write(64, rng.randbytes(64))
        assert not result.accepted

    def test_entry_block_addr_layout(self):
        memory = ProtectedMemory(ProtectionMode.COP_ER)
        assert memory.entry_block_addr(0) == memory.region_base
        assert memory.entry_block_addr(10) == memory.region_base
        assert memory.entry_block_addr(11) == memory.region_base + 64


class TestCacheCornerStates:
    def test_unpinning_alias_makes_it_evictable(self):
        from repro.cache.cache import SetAssocCache

        cache = SetAssocCache(2 * 64, 2)
        cache.insert(0, bytes(64), alias=True)
        cache.insert(64, bytes(64), alias=True)
        # Re-insert one line without the alias flag: now evictable.
        cache.insert(0, bytes(64), alias=False)
        victim = cache.insert(128, bytes(64))
        assert victim is not None and victim.addr == 0

    def test_overflow_line_update_in_place(self):
        from repro.cache.cache import SetAssocCache

        cache = SetAssocCache(64, 1)
        cache.insert(0, bytes(64), alias=True)
        cache.insert(64, b"\x01" * 64)  # spills
        cache.insert(64, b"\x02" * 64)  # updates the spilled line
        assert cache.peek(64).data == b"\x02" * 64
        assert len(cache.overflow) == 1


class TestHashSeedIsolation:
    def test_different_seeds_make_incompatible_codecs(self):
        """Blocks encoded under one hash seed look raw to another —
        deployments must configure encoder and decoder identically."""
        a = COPCodec(COPConfig.four_byte(hash_seed=1))
        b = COPCodec(COPConfig.four_byte(hash_seed=2))
        stored = a.encode(bytes(64)).stored
        assert a.decode(stored).kind is BlockKind.COMPRESSED
        assert b.decode(stored).kind is BlockKind.RAW
