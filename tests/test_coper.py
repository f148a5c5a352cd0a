"""Tests for COP-ER: the ECC region, valid-bit tree and pointer format."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import COPCodec
from repro.core.coper import (
    DISPLACED_BITS,
    ENTRIES_PER_BLOCK,
    VALID_BITS_PER_BLOCK,
    CoperBlockFormat,
    ECCRegion,
)


@pytest.fixture
def region():
    return ECCRegion()


@pytest.fixture
def formatter(codec4, region):
    return CoperBlockFormat(codec4, region)


class TestRegionAllocation:
    def test_first_fit_order(self, region):
        indices = [region.allocate() for _ in range(5)]
        assert indices == [0, 1, 2, 3, 4]

    def test_free_and_reuse(self, region):
        for _ in range(5):
            region.allocate()
        region.free(2)
        assert region.allocate() == 2

    def test_len_tracks_live_entries(self, region):
        region.allocate()
        region.allocate()
        region.free(0)
        assert len(region) == 1
        assert set(region._entries) == {1}

    def test_free_unallocated_raises(self, region):
        with pytest.raises(KeyError):
            region.free(7)

    def test_acceptable_filter_skips_entries(self, region):
        index = region.allocate(acceptable=lambda i: i % 3 == 2)
        assert index == 2

    def test_acceptable_exhaustion_returns_none(self, region):
        assert region.allocate(acceptable=lambda i: False) is None

    def test_max_entries_cap(self):
        region = ECCRegion(max_entries=3)
        assert [region.allocate() for _ in range(4)] == [0, 1, 2, None]

    def test_block_fills_then_spills_to_next(self, region):
        for _ in range(ENTRIES_PER_BLOCK):
            region.allocate()
        assert region.allocate() == ENTRIES_PER_BLOCK  # block 1, slot 0

    def test_full_block_freed_entry_found_again(self, region):
        """Tree bits must clear when a full block loses an entry."""
        for _ in range(ENTRIES_PER_BLOCK * 2):
            region.allocate()
        region.free(3)
        assert region.allocate() == 3

    def test_peak_entries_high_water(self, region):
        for _ in range(7):
            region.allocate()
        region.free(0)
        region.free(1)
        assert region.peak_entries == 7

    @given(
        ops=st.lists(
            st.tuples(st.booleans(), st.integers(min_value=0, max_value=40)),
            max_size=120,
        )
    )
    @settings(max_examples=40)
    def test_alloc_free_invariants(self, ops):
        """Stateful property: the region's view matches a reference set."""
        region = ECCRegion()
        live: set[int] = set()
        for is_alloc, value in ops:
            if is_alloc:
                index = region.allocate()
                assert index is not None
                assert index not in live
                live.add(index)
            elif live:
                victim = sorted(live)[value % len(live)]
                region.free(victim)
                live.remove(victim)
        assert set(region._entries) == live
        # First-fit: the next allocation is the smallest free index.
        expected = next(i for i in range(10_000) if i not in live)
        assert region.allocate() == expected


class TestRegionEntries:
    def test_store_load(self, region):
        index = region.allocate()
        region.store(index, displaced=0x3_FFFF_FFFF, parity=0x7FF)
        assert region.load(index) == (0x3_FFFF_FFFF, 0x7FF)

    def test_store_validates_widths(self, region):
        index = region.allocate()
        with pytest.raises(ValueError):
            region.store(index, displaced=1 << DISPLACED_BITS, parity=0)
        with pytest.raises(ValueError):
            region.store(index, displaced=0, parity=1 << 11)

    def test_store_unallocated_raises(self, region):
        with pytest.raises(KeyError):
            region.store(0, 0, 0)

    def test_load_unallocated_raises(self, region):
        with pytest.raises(KeyError):
            region.load(0)


class TestStorageAccounting:
    def test_zero_entries(self):
        assert ECCRegion.region_bytes(0) == 0

    def test_one_entry_needs_one_block_plus_tree(self):
        # 1 entry block + 1 L3 + 1 L2 + 1 L1 valid-bit block.
        assert ECCRegion.region_bytes(1) == 4 * 64

    def test_eleven_entries_fit_one_block(self):
        assert ECCRegion.region_bytes(11) == ECCRegion.region_bytes(1)
        assert ECCRegion.region_bytes(12) == 5 * 64

    def test_tree_grows_with_entry_blocks(self):
        # 502 entry blocks need a second L3 valid-bit block.
        entries = (VALID_BITS_PER_BLOCK + 1) * ENTRIES_PER_BLOCK
        assert ECCRegion.region_bytes(entries) == (502 + 2 + 1 + 1) * 64

    def test_live_and_peak_bytes(self, region):
        for _ in range(22):
            region.allocate()
        region.free(0)
        assert region.live_bytes == ECCRegion.region_bytes(21)
        assert region.peak_bytes == ECCRegion.region_bytes(22)

    def test_baseline_comparison_order_of_magnitude(self):
        """COP-ER beats 2 B/block whenever <~1/3 of blocks need entries."""
        total_blocks = 100_000
        baseline = 2 * total_blocks
        coper_10pct = ECCRegion.region_bytes(total_blocks // 10)
        assert coper_10pct < baseline


class TestBlockFormat:
    def test_displaced_layout_covers_all_codewords(self, formatter):
        assert sum(formatter.SEGMENT_BITS) == DISPLACED_BITS
        assert len(formatter.SEGMENT_BITS) == 4

    def test_gather_scatter_roundtrip(self, formatter, rng):
        block_int = int.from_bytes(rng.randbytes(64), "little")
        displaced = formatter._gather(block_int)
        replaced = formatter._scatter(block_int, 0)
        restored = formatter._scatter(replaced, displaced)
        assert restored == block_int

    def test_store_load_roundtrip(self, formatter, rng):
        block = rng.randbytes(64)
        placed = formatter.store_incompressible(block)
        assert placed is not None and not placed.aliased
        loaded = formatter.load_incompressible(placed.stored)
        assert loaded.data == block
        assert loaded.entry_index == placed.entry_index
        assert not loaded.corrected and not loaded.uncorrectable

    def test_stored_image_never_aliases(self, formatter, codec4, rng):
        for _ in range(100):
            placed = formatter.store_incompressible(rng.randbytes(64))
            assert not codec4.is_alias(placed.stored)

    def test_single_bit_error_in_data_corrected(self, formatter, rng):
        block = rng.randbytes(64)
        placed = formatter.store_incompressible(block)
        struck = bytearray(placed.stored)
        struck[3] ^= 0x10  # well away from the pointer fields
        loaded = formatter.load_incompressible(bytes(struck))
        assert loaded.data == block
        assert loaded.corrected

    def test_single_bit_error_in_pointer_corrected(self, formatter, rng):
        """Pointer bits sit at the top of each 128-bit segment."""
        block = rng.randbytes(64)
        placed = formatter.store_incompressible(block)
        struck = bytearray(placed.stored)
        struck[15] ^= 0x80  # top bit of segment 0 = pointer territory
        loaded = formatter.load_incompressible(bytes(struck))
        assert loaded.data == block
        assert loaded.corrected

    def test_exhaustive_single_bit_errors(self, formatter, rng):
        block = rng.randbytes(64)
        placed = formatter.store_incompressible(block)
        for bit in range(0, 512, 11):
            struck = bytearray(placed.stored)
            struck[bit // 8] ^= 1 << (bit % 8)
            loaded = formatter.load_incompressible(bytes(struck))
            assert loaded.data == block, f"bit {bit} not recovered"

    def test_update_entry_reuses_pointer(self, formatter, rng):
        placed = formatter.store_incompressible(rng.randbytes(64))
        new_data = rng.randbytes(64)
        stored = formatter.update_entry(placed.entry_index, new_data)
        loaded = formatter.load_incompressible(stored)
        assert loaded.data == new_data
        assert loaded.entry_index == placed.entry_index

    def test_entry_error_corrected_by_block_code(self, formatter, region, rng):
        """Flips in the *entry's* displaced bits are covered too."""
        block = rng.randbytes(64)
        placed = formatter.store_incompressible(block)
        displaced, parity = region.load(placed.entry_index)
        region.store(placed.entry_index, displaced ^ 1, parity)
        loaded = formatter.load_incompressible(placed.stored)
        assert loaded.data == block
        assert loaded.corrected

    def test_block_length_validated(self, formatter):
        with pytest.raises(ValueError):
            formatter.store_incompressible(b"short")
        with pytest.raises(ValueError):
            formatter.load_incompressible(b"short")

    def test_multibit_pointer_corruption_is_detected_not_fatal(
        self, formatter, rng
    ):
        """A doubly-flipped pointer can SEC-miscorrect to a bogus entry;
        the invalid valid-bit must surface as detected-uncorrectable."""
        block = rng.randbytes(64)
        placed = formatter.store_incompressible(block)
        struck = bytearray(placed.stored)
        struck[15] ^= 0xC0  # two flips inside segment 0's pointer bits
        loaded = formatter.load_incompressible(bytes(struck))
        # Either the pointer survived (block code fixes the rest) or the
        # corruption is flagged — never an exception, never silent.
        assert loaded.data == block or loaded.uncorrectable

    def test_region_exhaustion_returns_none(self, codec4):
        region = ECCRegion(max_entries=1)
        formatter = CoperBlockFormat(codec4, region)
        rng = random.Random(1)
        assert formatter.store_incompressible(rng.randbytes(64)) is not None
        assert formatter.store_incompressible(rng.randbytes(64)) is None
