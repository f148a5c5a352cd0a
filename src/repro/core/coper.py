"""COP-ER: protecting incompressible blocks through a compact ECC region.

Section 3.3 / Figs. 6-7.  Incompressible blocks cannot carry inline check
bits, so COP-ER displaces 34 bits from each one — replaced by a 28-bit
pointer plus 6 Hamming-SEC check bits — and parks the displaced data
together with 11 whole-block check bits in an *ECC entry*:

* entry = 1 valid bit + 34 displaced bits + 11 parity bits = 46 bits,
* 11 entries per 64-byte ECC-region block,
* free entries found through a 3-level tree of valid-bit blocks, each
  holding 501 valid bits + 11 check bits, with an MRU pointer to the most
  recently used level-3 valid-bit block.

The 11 parity bits form a (523,512) Hsiao code over the *original* block,
so any single bit flip — in the stored block, the pointer field, or the
entry itself — is correctable: pointer bits by the pointer's own SEC code,
everything else by the block code.

De-aliasing: the pointer bits are spread so they overlap *all four* code
words the COP decoder inspects, and entry allocation skips candidate
pointers that would leave the block an alias — "ECC entry allocation can be
adjusted so that the block is no longer an alias".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro._bits import bit_slice, bytes_to_int, int_to_bytes
from repro.compression.base import BLOCK_BYTES
from repro.core.codec import COPCodec
from repro.ecc.codes import code_523_512, pointer_code
from repro.ecc.hsiao import CodeStatus

__all__ = [
    "ENTRY_BITS",
    "ENTRIES_PER_BLOCK",
    "VALID_BITS_PER_BLOCK",
    "POINTER_BITS",
    "DISPLACED_BITS",
    "ECCRegion",
    "CoperBlockFormat",
    "StoredIncompressible",
    "LoadedIncompressible",
]

#: 34 displaced data bits + 11 block-parity bits + 1 valid bit.
DISPLACED_BITS = 34
BLOCK_PARITY_BITS = 11
ENTRY_BITS = 1 + DISPLACED_BITS + BLOCK_PARITY_BITS
#: 46-bit entries: 11 fit in a 64-byte block (506 of 512 bits used).
ENTRIES_PER_BLOCK = 11
#: Valid-bit blocks carry 501 valid bits + 11 check bits (a (512,501) code).
VALID_BITS_PER_BLOCK = 501
#: Pointer width: a 28-bit ECC-region block/entry offset.
POINTER_BITS = 28

_FULL_OCC = (1 << ENTRIES_PER_BLOCK) - 1
_FULL_VALID = (1 << VALID_BITS_PER_BLOCK) - 1


def _iter_clear_bits(bitmap: int, width: int) -> Iterator[int]:
    """Indices of clear bits in ascending order."""
    inverted = ~bitmap & ((1 << width) - 1)
    while inverted:
        low = inverted & -inverted
        yield low.bit_length() - 1
        inverted ^= low


class ECCRegion:
    """The dynamically grown ECC-entry store with its valid-bit tree.

    Entries are addressed by a flat index ``block * 11 + slot`` — the value
    carried by the 28-bit pointers.  Unmaterialised blocks count as free,
    so first-fit allocation both reuses holes and grows the region, which
    "limits the size of the ECC region in case the data compressibility
    changes or memory is deallocated".
    """

    def __init__(self, max_entries: Optional[int] = None, metrics=None) -> None:
        from repro.obs.metrics import NULL_REGISTRY

        #: entry index -> (displaced 34 bits, block parity 11 bits)
        self._entries: dict[int, tuple[int, int]] = {}
        self._occupancy: dict[int, int] = {}  # ecc block -> 11-bit bitmap
        self._l3: dict[int, int] = {}  # l3 valid-bit block -> 501-bit bitmap
        self._l2: dict[int, int] = {}
        self._l1: int = 0
        self._mru_l3: int = 0
        self.max_entries = max_entries or (1 << POINTER_BITS)
        self.peak_entries = 0
        self.blocks_touched: set[int] = set()
        self.metrics = metrics if metrics is not None else NULL_REGISTRY
        self._m_allocations = self.metrics.counter("ecc_region.allocations")
        self._m_frees = self.metrics.counter("ecc_region.frees")
        self._m_scans = self.metrics.counter("ecc_region.alloc_candidates_scanned")
        self._m_dealias_skips = self.metrics.counter("ecc_region.dealias_skips")

    # -- bookkeeping -------------------------------------------------------

    def __len__(self) -> int:
        return len(self._entries)

    def _mark(self, index: int) -> None:
        block, slot = divmod(index, ENTRIES_PER_BLOCK)
        occ = self._occupancy.get(block, 0) | (1 << slot)
        self._occupancy[block] = occ
        self.blocks_touched.add(block)
        if occ == _FULL_OCC:
            l3_block, bit = divmod(block, VALID_BITS_PER_BLOCK)
            l3 = self._l3.get(l3_block, 0) | (1 << bit)
            self._l3[l3_block] = l3
            if l3 == _FULL_VALID:
                l2_block, bit = divmod(l3_block, VALID_BITS_PER_BLOCK)
                l2 = self._l2.get(l2_block, 0) | (1 << bit)
                self._l2[l2_block] = l2
                if l2 == _FULL_VALID:
                    self._l1 |= 1 << l2_block

    def _unmark(self, index: int) -> None:
        block, slot = divmod(index, ENTRIES_PER_BLOCK)
        occ = self._occupancy.get(block, 0)
        was_full = occ == _FULL_OCC
        self._occupancy[block] = occ & ~(1 << slot)
        if was_full:
            l3_block, bit = divmod(block, VALID_BITS_PER_BLOCK)
            l3 = self._l3.get(l3_block, 0)
            was_l3_full = l3 == _FULL_VALID
            self._l3[l3_block] = l3 & ~(1 << bit)
            if was_l3_full:
                l2_block, bit = divmod(l3_block, VALID_BITS_PER_BLOCK)
                l2 = self._l2.get(l2_block, 0)
                was_l2_full = l2 == _FULL_VALID
                self._l2[l2_block] = l2 & ~(1 << bit)
                if was_l2_full:
                    self._l1 &= ~(1 << l2_block)

    # -- allocation --------------------------------------------------------

    def _iter_free_blocks(self) -> Iterator[int]:
        """ECC-entry blocks with at least one free slot, MRU's block first."""
        mru_block_base = self._mru_l3 * VALID_BITS_PER_BLOCK
        l3_map = self._l3.get(self._mru_l3, 0)
        for bit in _iter_clear_bits(l3_map, VALID_BITS_PER_BLOCK):
            yield mru_block_base + bit
        for l2_block in _iter_clear_bits(self._l1, VALID_BITS_PER_BLOCK):
            l2_map = self._l2.get(l2_block, 0)
            for l3_bit in _iter_clear_bits(l2_map, VALID_BITS_PER_BLOCK):
                l3_block = l2_block * VALID_BITS_PER_BLOCK + l3_bit
                if l3_block == self._mru_l3:
                    continue  # already scanned via the MRU pointer
                l3_map = self._l3.get(l3_block, 0)
                base = l3_block * VALID_BITS_PER_BLOCK
                for bit in _iter_clear_bits(l3_map, VALID_BITS_PER_BLOCK):
                    yield base + bit

    def iter_free_entries(self) -> Iterator[int]:
        """Free entry indices, in tree-walk order."""
        for block in self._iter_free_blocks():
            occ = self._occupancy.get(block, 0)
            for slot in _iter_clear_bits(occ, ENTRIES_PER_BLOCK):
                yield block * ENTRIES_PER_BLOCK + slot

    def allocate(
        self,
        acceptable: Optional[Callable[[int], bool]] = None,
        max_candidates: int = 256,
    ) -> Optional[int]:
        """Claim a free entry, optionally filtered by ``acceptable``.

        ``acceptable`` implements the de-aliasing adjustment: COP-ER skips
        candidate pointers that would leave the stored block an alias.  If
        no acceptable entry is found within ``max_candidates`` (or the
        region is exhausted) returns None.
        """
        if len(self._entries) >= self.max_entries:
            return None
        for tried, index in enumerate(self.iter_free_entries()):
            if tried >= max_candidates:
                return None
            if index >= self.max_entries:
                return None
            self._m_scans.inc()
            if acceptable is not None and not acceptable(index):
                self._m_dealias_skips.inc()
                continue
            self._entries[index] = (0, 0)
            self._mark(index)
            self._mru_l3 = (
                index // ENTRIES_PER_BLOCK
            ) // VALID_BITS_PER_BLOCK
            self.peak_entries = max(self.peak_entries, len(self._entries))
            self._m_allocations.inc()
            self.metrics.gauge("ecc_region.live_entries").set(len(self._entries))
            self.metrics.gauge("ecc_region.peak_entries").max(self.peak_entries)
            return index
        return None

    def free(self, index: int) -> None:
        """Invalidate an entry (e.g. its block became compressible)."""
        if index not in self._entries:
            raise KeyError(f"entry {index} is not allocated")
        del self._entries[index]
        self._unmark(index)
        self._m_frees.inc()
        self.metrics.gauge("ecc_region.live_entries").set(len(self._entries))

    # -- entry contents ------------------------------------------------------

    def store(self, index: int, displaced: int, parity: int) -> None:
        if index not in self._entries:
            raise KeyError(f"entry {index} is not allocated")
        if displaced >> DISPLACED_BITS or displaced < 0:
            raise ValueError("displaced data must be 34 bits")
        if parity >> BLOCK_PARITY_BITS or parity < 0:
            raise ValueError("block parity must be 11 bits")
        self._entries[index] = (displaced, parity)

    def load(self, index: int) -> tuple[int, int]:
        if index not in self._entries:
            raise KeyError(f"entry {index} is not allocated")
        return self._entries[index]

    # -- storage accounting (Fig. 12) -----------------------------------------

    @staticmethod
    def region_bytes(num_entries: int) -> int:
        """Total region footprint for ``num_entries`` packed entries.

        Counts the ECC-entry blocks plus the valid-bit tree above them
        (level-3 blocks of 501 valid bits, then level 2, then level 1).
        """
        if num_entries <= 0:
            return 0
        entry_blocks = -(-num_entries // ENTRIES_PER_BLOCK)
        # Fig. 6 shows a fixed 3-level valid-bit hierarchy above the entries.
        l3_blocks = -(-entry_blocks // VALID_BITS_PER_BLOCK)
        l2_blocks = -(-l3_blocks // VALID_BITS_PER_BLOCK)
        l1_blocks = -(-l2_blocks // VALID_BITS_PER_BLOCK)
        return (entry_blocks + l3_blocks + l2_blocks + l1_blocks) * BLOCK_BYTES

    @property
    def live_bytes(self) -> int:
        """Current footprint using live-entry packing."""
        return self.region_bytes(len(self._entries))

    @property
    def peak_bytes(self) -> int:
        """Footprint at the high-water mark (Fig. 12's no-deallocation rule)."""
        return self.region_bytes(self.peak_entries)


@dataclass(frozen=True)
class StoredIncompressible:
    """Result of formatting an incompressible block for DRAM."""

    stored: bytes
    entry_index: int
    aliased: bool  # True when no pointer choice could de-alias the block


@dataclass(frozen=True)
class LoadedIncompressible:
    """Result of reconstructing an incompressible block from DRAM."""

    data: bytes
    entry_index: int
    corrected: bool
    uncorrectable: bool


class CoperBlockFormat:
    """Pointer embedding and reconstruction for incompressible blocks.

    The 34 displaced bits are taken from the *top of each 128-bit segment*
    (9, 9, 8 and 8 bits respectively) so the pointer overlaps all four code
    words the COP decoder checks — the prerequisite for de-aliasing by
    pointer choice.
    """

    #: Bits displaced from the top of each 128-bit decoder segment.
    SEGMENT_BITS = (9, 9, 8, 8)
    _SEGMENT_WIDTH = 128

    def __init__(self, codec: COPCodec, region: ECCRegion) -> None:
        if sum(self.SEGMENT_BITS) != DISPLACED_BITS:
            raise AssertionError("displaced layout must total 34 bits")
        self.codec = codec
        self.region = region
        self.block_code = code_523_512()
        self.pointer_code = pointer_code()

    # -- bit plumbing --------------------------------------------------------

    def _gather(self, block_int: int) -> int:
        """Extract the 34 displaced bits (segment 0 lowest)."""
        out = 0
        shift = 0
        for segment, width in enumerate(self.SEGMENT_BITS):
            start = (segment + 1) * self._SEGMENT_WIDTH - width
            out |= bit_slice(block_int, start, width) << shift
            shift += width
        return out

    def _scatter(self, block_int: int, value: int) -> int:
        """Replace the displaced positions with ``value``'s 34 bits."""
        shift = 0
        for segment, width in enumerate(self.SEGMENT_BITS):
            start = (segment + 1) * self._SEGMENT_WIDTH - width
            mask = ((1 << width) - 1) << start
            piece = bit_slice(value, shift, width)
            block_int = (block_int & ~mask) | (piece << start)
            shift += width
        return block_int

    def embed_pointer(self, block: bytes, entry_index: int) -> bytes:
        """The DRAM image of ``block`` with ``entry_index`` embedded."""
        pointer_word = self.pointer_code.encode(entry_index)
        block_int = bytes_to_int(block)
        return int_to_bytes(self._scatter(block_int, pointer_word), BLOCK_BYTES)

    # -- store / load ----------------------------------------------------------

    def aliases(self, block: bytes, entry_index: int) -> bool:
        """Would ``block`` with ``entry_index`` embedded read as compressed?"""
        return self.codec.is_alias(self.embed_pointer(block, entry_index))

    def allocate_entry(self, block: bytes) -> tuple[Optional[int], bool]:
        """Claim an entry whose embedded pointer leaves ``block`` alias-free.

        Returns ``(index, aliased)``.  ``index`` is None when the region is
        exhausted; ``aliased`` is True when no candidate pointer de-aliases
        the block and an aliasing one was taken instead.
        """
        index = self.region.allocate(lambda index: not self.aliases(block, index))
        if index is not None:
            return index, False
        index = self.region.allocate()  # accept an aliasing pointer
        return index, index is not None

    def store_incompressible(self, block: bytes) -> Optional[StoredIncompressible]:
        """Allocate an entry, displace data, embed the pointer.

        Returns None when the region is exhausted.  ``aliased`` is True in
        the vanishingly rare case where every candidate pointer leaves the
        block an alias (the controller must then pin it in the LLC).
        """
        if len(block) != BLOCK_BYTES:
            raise ValueError("block must be 64 bytes")
        index, aliased = self.allocate_entry(block)
        if index is None:
            return None
        return StoredIncompressible(self.update_entry(index, block), index, aliased)

    def update_entry(self, entry_index: int, block: bytes) -> bytes:
        """Fill an allocated entry with ``block``'s displaced bits and parity.

        Returns the DRAM image with the entry's pointer embedded; the
        caller checks beforehand (:meth:`aliases`) that it does not alias.
        """
        block_int = bytes_to_int(block)
        displaced = self._gather(block_int)
        parity = self.block_code.check_of(self.block_code.encode(block_int))
        self.region.store(entry_index, displaced, parity)
        return self.embed_pointer(block, entry_index)

    def load_incompressible(self, stored: bytes) -> LoadedIncompressible:
        """Invert :meth:`store_incompressible`, correcting single-bit errors."""
        if len(stored) != BLOCK_BYTES:
            raise ValueError("stored block must be 64 bytes")
        stored_int = bytes_to_int(stored)
        pointer_result = self.pointer_code.decode(self._gather(stored_int))
        entry_index = pointer_result.data
        try:
            displaced, parity = self.region.load(entry_index)
        except KeyError:
            # A multi-bit upset defeated the pointer's SEC code and the
            # "corrected" pointer names no allocated entry.  The valid
            # bit exposes the corruption: report detected-uncorrectable
            # (the hardware raises a machine check here).
            return LoadedIncompressible(
                bytes(stored), entry_index, corrected=False, uncorrectable=True
            )

        rebuilt = self._scatter(stored_int, displaced)
        word = rebuilt | (parity << self.block_code.k)
        result = self.block_code.decode(word)
        corrected = (
            result.status is CodeStatus.CORRECTED
            or pointer_result.status is CodeStatus.CORRECTED
        )
        uncorrectable = (
            result.status is CodeStatus.DETECTED
            or pointer_result.status is CodeStatus.DETECTED
        )
        return LoadedIncompressible(
            int_to_bytes(result.data, BLOCK_BYTES),
            entry_index,
            corrected,
            uncorrectable,
        )
