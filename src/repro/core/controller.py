"""Memory-controller model integrating COP with DRAM contents.

:class:`ProtectedMemory` is the *functional* layer: it owns the stored
64-byte images, applies the protection scheme of the configured mode on
every write/read, and reports which extra ECC-region blocks an access
touches so the performance model (which owns the LLC and the DRAM timing)
can charge for them.  Modes:

``UNPROTECTED``
    Raw storage, no detection or correction — the paper's baseline for the
    error-rate reductions of Fig. 10.
``COP``
    Compress + inline-ECC when possible, raw otherwise; incompressible
    aliases are rejected (the LLC must pin them).  No extra DRAM traffic.
``COP_ER``
    COP plus the ECC region for incompressible blocks (pointer embedding,
    entry reuse on writeback, de-aliasing by pointer choice).
``ECC_REGION``
    The Virtualized-ECC-like baseline: a contiguous region with a 2-byte
    entry per data block holding an 11-bit (523,512) whole-block code; ECC
    blocks are touched on *every* miss and writeback.
``EMBEDDED_ECC``
    The Zheng et al. layout the paper discusses in Section 2: the same
    per-block ECC storage, but collocated at the end of each *DRAM row*,
    so the extra access usually row-hits ("can improve the ECC access
    latency, although the same storage overhead ... is imposed").
``MEMZIP``
    Shafiee et al.'s MemZip as characterised by the paper: per-block
    compression moves the embedded check bits inline for compressible
    blocks (no extra access), but space stays reserved for *all* blocks
    and explicit per-block compression-tracking metadata is required —
    modelled here as the ``compressed_blocks`` table, which is exactly the
    bookkeeping COP's code-word detection eliminates.
``ECC_DIMM``
    Conventional (72,64) SECDED with a ninth chip — the reliability
    reference point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Collection, List, Optional, Sequence, Tuple
from typing import Union, overload

import numpy as np

from repro._bits import bytes_to_int, int_to_bytes
from repro.compression.base import BLOCK_BYTES
from repro.core.codec import COPCodec, DecodedBlock
from repro.core.config import COPConfig
from repro.core.coper import ENTRIES_PER_BLOCK, CoperBlockFormat, ECCRegion
from repro.ecc.codes import code_72_64, code_523_512
from repro.ecc.hsiao import CodeStatus

__all__ = [
    "ProtectionMode",
    "BlockNotWrittenError",
    "NoStoredImageError",
    "ControllerStats",
    "AccessResult",
    "ProtectedMemory",
]

#: Data blocks whose ECC entries share one 64-byte ECC block in the
#: ECC-Region baseline (2-byte entry per block "to facilitate addressing").
_BASELINE_ENTRIES_PER_BLOCK = 32


class ProtectionMode(enum.Enum):
    UNPROTECTED = "unprotected"
    COP = "cop"
    COP_ER = "cop-er"
    ECC_REGION = "ecc-region"
    EMBEDDED_ECC = "embedded-ecc"
    MEMZIP = "memzip"
    ECC_DIMM = "ecc-dimm"


class BlockNotWrittenError(KeyError):
    """A read (or bit flip) targeted a block address never written.

    Subclasses :class:`KeyError` so existing ``except KeyError`` callers
    keep working; the service front end maps it to a clean typed protocol
    error instead of an opaque internal failure, and ``read`` counts the
    event in :attr:`ControllerStats.read_misses`.
    """

    def __init__(self, addr: int) -> None:
        super().__init__(f"block {addr:#x} was never written")
        self.addr = addr

    def __str__(self) -> str:
        # KeyError.__str__ repr()s its argument; keep the message readable.
        return f"block {self.addr:#x} was never written"


class NoStoredImageError(ValueError):
    """A bit flip targeted a block written by classification, without bytes.

    Such a block has no stored image to corrupt; fault injection needs
    blocks written with their 64 bytes.
    """

    def __init__(self, addr: int) -> None:
        super().__init__(f"block {addr:#x} was written without a stored image")
        self.addr = addr


@dataclass
class ControllerStats:
    reads: int = 0
    read_misses: int = 0
    writes: int = 0
    compressed_reads: int = 0
    compressed_writes: int = 0
    raw_writes: int = 0
    alias_rejects: int = 0
    corrected_blocks: int = 0
    uncorrectable_blocks: int = 0
    entry_allocations: int = 0
    entry_reuses: int = 0
    entry_frees: int = 0
    ecc_block_reads: int = 0
    ecc_block_writes: int = 0

    @property
    def compressed_write_fraction(self) -> float:
        total = self.compressed_writes + self.raw_writes
        return self.compressed_writes / total if total else 0.0

    def as_dict(self) -> dict[str, int]:
        """Every counter field, keyed by name.

        Reporting code iterates this instead of plucking fields by hand,
        so a counter added here can never be silently dropped downstream.
        """
        from dataclasses import fields

        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge(self, other: "ControllerStats") -> "ControllerStats":
        """Accumulate another instance's counts into this one."""
        for name, value in other.as_dict().items():
            setattr(self, name, getattr(self, name) + value)
        return self


@dataclass(frozen=True)
class AccessResult:
    """Outcome of one controller-level read or write.

    ``ecc_reads``/``ecc_writes`` list the extra ECC-region block addresses
    this access touches; the system model runs them through the LLC (ECC
    blocks are cacheable) before charging DRAM time.
    """

    data: Optional[bytes] = None
    accepted: bool = True
    compressed: bool = False
    was_uncompressed: bool = False
    corrected: bool = False
    uncorrectable: bool = False
    decompress_cycles: int = 0
    ecc_reads: tuple[int, ...] = ()
    ecc_writes: tuple[int, ...] = ()


#: Modes that keep a (523,512) whole-block code in a separate ECC block.
_SIDE_ECC_MODES = frozenset(
    {ProtectionMode.ECC_REGION, ProtectionMode.EMBEDDED_ECC, ProtectionMode.MEMZIP}
)

#: Shared outcomes.  ``AccessResult`` is frozen, so identical results can
#: be one object — constructing a nine-field frozen dataclass per access
#: is measurable in the simulator's replay.  Writes carry no payload, so
#: every write result is shared; reads share only when there is no image
#: to return.  Results that differ by ECC address are interned per
#: instance (:meth:`ProtectedMemory._intern`).
_RESULT_PLAIN = AccessResult()
_RESULT_REJECTED = AccessResult(accepted=False)
_RESULT_COMPRESSED = AccessResult(compressed=True)
_RESULT_COP_RAW = AccessResult(was_uncompressed=True)


class ProtectedMemory:
    """Functional main memory behind one protection mode.

    Both directions run in three steps: classify the block, do the mode's
    bookkeeping (counters, COP-ER entries, MemZip metadata, trace events,
    ECC addresses), then handle the payload — the stored image, check
    bits and COP-ER entry contents — only when the block's bytes exist.
    A caller that models timing alone (the interval simulator) writes a
    block's classification instead of its bytes; the block is then stored
    without an image and reads of it return no data, with every counter,
    flag and ECC address exactly as if the bytes had been stored.
    """

    def __init__(
        self,
        mode: ProtectionMode = ProtectionMode.COP,
        config: Optional[COPConfig] = None,
        capacity_bytes: int = 8 << 30,
        region_base: Optional[int] = None,
        obs=None,
    ) -> None:
        from repro.obs import NULL_OBS

        self.mode = mode
        self.config = config or COPConfig.four_byte()
        self.capacity_bytes = capacity_bytes
        self.stats = ControllerStats()
        self.obs = obs if obs is not None else NULL_OBS
        #: addr -> stored 64-byte image, or None for a block written
        #: without bytes.
        self.contents: dict[int, Optional[bytes]] = {}
        # Data space is assumed below region_base; the ECC structures of
        # COP-ER and the baseline live above it so addresses never collide.
        self.region_base = (
            region_base if region_base is not None else (capacity_bytes * 7) // 8
        )

        self.codec: Optional[COPCodec] = None
        if mode in (
            ProtectionMode.COP,
            ProtectionMode.COP_ER,
            ProtectionMode.MEMZIP,
        ):
            self.codec = COPCodec(self.config)
            if self.config.use_batch:
                # Content-keyed memo cache in front of the scalar codec —
                # bit-for-bit identical results, hit/miss counters under
                # kernels.memo.* (see docs/kernels.md).
                from repro.kernels import MemoizedCodec

                self.codec = MemoizedCodec(  # type: ignore[assignment]
                    self.codec, metrics=self.obs.metrics
                )
        #: Addresses whose resident block is stored compressed.  For
        #: MemZip this is its explicit compression-tracking metadata; COP
        #: and COP-ER consult it only for a block stored without an image,
        #: since a stored image is always classified by decoding it.
        self.compressed_blocks: set[int] = set()
        from repro.memory.address import AddressMapper

        self._mapper = AddressMapper()

        self.region: Optional[ECCRegion] = None
        self.formatter: Optional[CoperBlockFormat] = None
        self.entry_of: dict[int, int] = {}  # data addr -> ECC entry index
        self.ever_incompressible: set[int] = set()
        if mode is ProtectionMode.COP_ER:
            self.region = ECCRegion(metrics=self.obs.metrics)
            self.formatter = CoperBlockFormat(self.codec, self.region)

        self._wide_code = code_523_512()
        self._dimm_code = code_72_64()
        #: Side store of check bits for the baseline / ECC-DIMM modes.
        self._parity: dict[int, int] = {}
        #: Interned image-free outcomes keyed by their one ECC block.
        self._ecc_writes: dict[int, AccessResult] = {}
        self._ecc_reads: dict[int, AccessResult] = {}
        self._read_compressed = AccessResult(
            compressed=True, decompress_cycles=self.config.decompress_latency
        )

    # -- address helpers -----------------------------------------------------

    def entry_block_addr(self, entry_index: int) -> int:
        """DRAM address of the ECC-region block holding a COP-ER entry."""
        return self.region_base + (entry_index // ENTRIES_PER_BLOCK) * BLOCK_BYTES

    def baseline_ecc_addr(self, addr: int) -> int:
        """DRAM address of the baseline's ECC block for a data block."""
        index = addr // BLOCK_BYTES
        return self.region_base + (index // _BASELINE_ENTRIES_PER_BLOCK) * BLOCK_BYTES

    def is_metadata_addr(self, addr: int) -> bool:
        """Is this address ECC metadata rather than application data?

        The region-based modes keep metadata above ``region_base``; the
        embedded layouts reserve the last block of every DRAM row.  The
        system model uses this to route dirty LLC evictions (metadata
        lines are plain DRAM writes, not re-encoded data writebacks).
        """
        if self.mode in (ProtectionMode.EMBEDDED_ECC, ProtectionMode.MEMZIP):
            last_col = self._mapper.geometry.blocks_per_row - 1
            return self._mapper.map(addr).col == last_col
        return addr >= self.region_base

    def embedded_ecc_addr(self, addr: int) -> int:
        """ECC block collocated in the same DRAM row as the data block.

        The embedded-ECC layout stores a row's check bits in that row's
        last blocks, so the metadata access almost always row-hits when
        the data access just opened the row.
        """
        location = self._mapper.map(addr)
        last_col = self._mapper.geometry.blocks_per_row - 1
        return self._mapper.compose(location._replace(col=last_col))

    def _side_ecc_addr(self, addr: int) -> int:
        """ECC block of a whole-block (523,512)-protected data block."""
        if self.mode is ProtectionMode.ECC_REGION:
            return self.baseline_ecc_addr(addr)
        return self.embedded_ecc_addr(addr)

    def side_ecc_blocks(self, addrs: Collection[int]) -> set[int]:
        """The ECC blocks that accesses to ``addrs`` may touch, in one pass.

        Defined for the modes whose ECC block is a pure function of the
        data address (ECC-Region, embedded ECC, and MemZip for its
        incompressible blocks); empty for the others, COP-ER included,
        whose entry blocks depend on allocation order.
        """
        mode = self.mode
        if not addrs or mode not in _SIDE_ECC_MODES:
            return set()
        array = np.fromiter(addrs, dtype=np.int64, count=len(addrs))
        if mode is ProtectionMode.ECC_REGION:
            span = BLOCK_BYTES * _BASELINE_ENTRIES_PER_BLOCK
            blocks = self.region_base + array // span * BLOCK_BYTES
        else:
            fields = self._mapper.map_arrays(array)
            fields["col"][:] = self._mapper.geometry.blocks_per_row - 1
            blocks = self._mapper.compose_arrays(fields)
        return set(blocks.tolist())

    def _intern(self, ecc_addr: int, write: bool) -> AccessResult:
        """The data-free outcome of an access touching one ECC block.

        Serves every such write and the reads of blocks without an image.
        The mode is fixed per instance, so the flags depend on nothing but
        the direction: ECC-Region and embedded ECC report plain blocks,
        MemZip and COP-ER raw ones, and COP-ER raw reads pay the decode
        pipeline.
        """
        raw = self.mode in (ProtectionMode.MEMZIP, ProtectionMode.COP_ER)
        if write:
            result = AccessResult(was_uncompressed=raw, ecc_writes=(ecc_addr,))
            self._ecc_writes[ecc_addr] = result
        else:
            cycles = (
                self.config.decompress_latency
                if self.mode is ProtectionMode.COP_ER
                else 0
            )
            result = AccessResult(
                was_uncompressed=raw, decompress_cycles=cycles, ecc_reads=(ecc_addr,)
            )
            self._ecc_reads[ecc_addr] = result
        return result

    # -- write path ------------------------------------------------------------

    @overload
    def write(
        self,
        addr: int,
        data: Union[bytes, Tuple[bool, bool]],
        content: Optional[Callable[[], bytes]] = None,
        events: Optional[list] = None,
    ) -> AccessResult: ...

    @overload
    def write(self, addr: Sequence[int], data: List[Tuple[bool, bool]]) -> None: ...

    def write(
        self,
        addr: Any,
        data: Any,
        content: Optional[Callable[[], bytes]] = None,
        events: Optional[list] = None,
    ) -> Optional[AccessResult]:
        """Store a block (a writeback from the LLC or initial population).

        ``data`` is the block's 64 bytes, or its ``(compressible, alias)``
        classification (``compress(...) is not None`` /
        ``codec.is_alias``), in which case no image is stored.  COP-ER's
        pointer choice depends on the bytes, so a classified COP-ER write
        takes ``content``, a thunk producing them.  ``events`` collects
        trace events for deferred emission (the simulator flushes them
        after its wave timing resolves); ``None`` emits directly.

        A sequence of addresses with a *list* of classifications stores
        them all at once and returns nothing (:meth:`_write_many`).
        """
        # 1. Classify.
        block: Optional[bytes] = None
        if isinstance(data, tuple):
            compressible, alias = data
        elif isinstance(data, list):
            return self._write_many(addr, data)
        else:
            if len(data) != BLOCK_BYTES:
                raise ValueError("block must be 64 bytes")
            block = bytes(data)
        stored = block
        if addr % BLOCK_BYTES:
            raise ValueError("address must be block aligned")
        stats = self.stats
        stats.writes += 1
        mode = self.mode
        codec = self.codec
        if codec is None:
            compressible = False
        elif block is not None:
            encoded = codec.encode(block)
            compressible = encoded.compressed
            stored = encoded.stored

        # 2. Bookkeeping per mode; 3. the payload only when bytes exist.
        if compressible:  # COP, COP-ER, MemZip
            self.contents[addr] = stored
            self.compressed_blocks.add(addr)
            stats.compressed_writes += 1
            if addr in self.entry_of:
                # A COP-ER block turned compressible frees its entry.
                return AccessResult(compressed=True, ecc_writes=self._free_entry(addr))
            return _RESULT_COMPRESSED

        if mode is ProtectionMode.UNPROTECTED or mode is ProtectionMode.ECC_DIMM:
            self.contents[addr] = block
            if block is not None and mode is ProtectionMode.ECC_DIMM:
                self._parity[addr] = self._dimm_parity(block)
            stats.raw_writes += 1
            return _RESULT_PLAIN

        if codec is not None:
            self.ever_incompressible.add(addr)
        if mode is ProtectionMode.COP:
            if block is not None:
                alias = codec.is_alias(block)
            if alias:
                return self._reject(addr, events)
            self.contents[addr] = block
            self.compressed_blocks.discard(addr)
            stats.raw_writes += 1
            return _RESULT_PLAIN
        if mode is ProtectionMode.COP_ER:
            return self._coper_write_raw(addr, block, content, events)

        # Whole-block (523,512) code in a separate ECC block: ECC-Region,
        # embedded ECC, and MemZip's incompressible blocks (MemZip keeps
        # the space reserved regardless of compressibility).
        self.contents[addr] = block
        self.compressed_blocks.discard(addr)
        if block is not None:
            word = self._wide_code.encode(bytes_to_int(block))
            self._parity[addr] = self._wide_code.check_of(word)
        stats.raw_writes += 1
        stats.ecc_block_writes += 1
        ecc_addr = self._side_ecc_addr(addr)
        return self._ecc_writes.get(ecc_addr) or self._intern(ecc_addr, True)

    def _write_many(
        self, addrs: Sequence[int], kinds: List[Tuple[bool, bool]]
    ) -> None:
        """Store classified blocks in bulk, as if written one by one.

        The same counters, stored-block table, compressed table,
        ``ever_incompressible`` and ECC-block write counts as a classified
        :meth:`write` per block, without a result per block.  Every block
        must be accepted, so an incompressible COP alias is refused up
        front; COP-ER is refused outright, since its entry indices depend
        on the order of allocations and frees.  Nothing is stored when a
        write is refused.
        """
        mode = self.mode
        if mode is ProtectionMode.COP_ER:
            raise ValueError(
                "COP-ER allocates entries in write order; write one block at a time"
            )
        if len(addrs) != len(kinds):
            raise ValueError("need one classification per address")
        if any(addr % BLOCK_BYTES for addr in addrs):
            raise ValueError("address must be block aligned")
        if mode is ProtectionMode.COP and any(
            alias and not compressible for compressible, alias in kinds
        ):
            raise ValueError("an incompressible alias is rejected; write it on its own")
        packed: Sequence[int] = ()
        raw: Sequence[int] = addrs
        if self.codec is not None:
            packed = [addr for addr, (packs, _) in zip(addrs, kinds) if packs]
            raw = [addr for addr, (packs, _) in zip(addrs, kinds) if not packs]
            self.ever_incompressible.update(raw)
        self.contents.update(dict.fromkeys(addrs))
        self.compressed_blocks.update(packed)
        self.compressed_blocks.difference_update(raw)
        stats = self.stats
        stats.writes += len(addrs)
        stats.compressed_writes += len(packed)
        stats.raw_writes += len(raw)
        if mode in _SIDE_ECC_MODES:
            stats.ecc_block_writes += len(raw)

    def _coper_write_raw(
        self,
        addr: int,
        block: Optional[bytes],
        content: Optional[Callable[[], bytes]],
        events: Optional[list],
    ) -> AccessResult:
        """COP-ER incompressible write: embed a pointer, park displaced data.

        A rewrite reuses the block's entry only when the re-embedded
        pointer leaves the new data alias-free; otherwise it allocates a
        de-aliasing entry exactly as a fresh write does.
        """
        assert self.formatter is not None and self.region is not None
        if block is not None:
            raw = block
        elif content is not None:
            raw = content()
        else:
            raise ValueError(
                "a classified COP-ER write needs the block content to "
                "choose a de-aliasing pointer"
            )
        formatter = self.formatter
        entry = self.entry_of.get(addr)
        freed: tuple[int, ...] = ()
        if entry is not None and not formatter.aliases(raw, entry):
            self.stats.entry_reuses += 1
        else:
            fresh, aliased = formatter.allocate_entry(raw)
            if fresh is None or aliased:
                if fresh is not None:
                    self.region.free(fresh)
                return self._reject(addr, events)
            if entry is not None:
                freed = self._free_entry(addr)
            entry = self.entry_of[addr] = fresh
            self.stats.entry_allocations += 1
        self.contents[addr] = (
            None if block is None else formatter.update_entry(entry, block)
        )
        self.compressed_blocks.discard(addr)
        self.stats.raw_writes += 1
        self.stats.ecc_block_writes += 1
        ecc_addr = self.entry_block_addr(entry)
        if freed:
            return AccessResult(was_uncompressed=True, ecc_writes=freed + (ecc_addr,))
        return self._ecc_writes.get(ecc_addr) or self._intern(ecc_addr, True)

    def _free_entry(self, addr: int) -> tuple[int, ...]:
        """Free a block's COP-ER entry; returns the ECC block it touches."""
        assert self.region is not None
        entry = self.entry_of.pop(addr)
        self.region.free(entry)
        self.stats.entry_frees += 1
        self.stats.ecc_block_writes += 1
        return (self.entry_block_addr(entry),)

    def _reject(self, addr: int, events: Optional[list]) -> AccessResult:
        """Refuse an incompressible alias; the LLC must pin the line."""
        self.stats.alias_rejects += 1
        if self.obs.enabled:
            fields = {"addr": addr, "mode": self.mode.value}
            if events is None:
                self.obs.trace.emit("alias_reject", **fields)
            else:
                events.append(("alias_reject", fields))
        return _RESULT_REJECTED

    # -- read path ---------------------------------------------------------------

    def read(self, addr: int, decoded: Optional[DecodedBlock] = None) -> AccessResult:
        """Fetch and (per mode) verify/correct/decompress a block.

        COP and COP-ER classify a block by decoding its stored image;
        ``decoded`` hands in that decode when the caller already ran it
        (a batch decode of many images).  A block stored without an image
        takes its classification from :attr:`compressed_blocks` and reads
        back with no data.

        Raises :class:`BlockNotWrittenError` (a ``KeyError``) for a block
        that was never written, counting it in ``stats.read_misses``.
        """
        if addr not in self.contents:
            self.stats.read_misses += 1
            raise BlockNotWrittenError(addr)
        stats = self.stats
        stats.reads += 1
        stored = self.contents[addr]
        mode = self.mode

        # 1. Classify.  MemZip reads its metadata; the table stays empty in
        # the modes that never compress.
        if mode is ProtectionMode.COP or mode is ProtectionMode.COP_ER:
            if decoded is None and stored is not None:
                assert self.codec is not None
                decoded = self.codec.decode(stored)
            compressed = (
                addr in self.compressed_blocks
                if decoded is None
                else decoded.is_compressed
            )
        else:
            compressed = addr in self.compressed_blocks

        # 2. Bookkeeping per mode; 3. the payload only when an image exists.
        if compressed:  # COP, COP-ER, MemZip
            stats.compressed_reads += 1
            if decoded is None:
                if stored is None:
                    return self._read_compressed
                assert self.codec is not None
                decoded = self.codec.decode(stored)
            corrected = decoded.corrected_words > 0
            self._count_read(corrected, decoded.uncorrectable, addr)
            return AccessResult(
                data=decoded.data,
                compressed=True,
                corrected=corrected,
                uncorrectable=decoded.uncorrectable,
                decompress_cycles=self.config.decompress_latency,
            )

        if mode is ProtectionMode.COP:
            # Raw block: the decoder's classification already ran inside
            # the normal read pipeline and the stored bytes pass to the
            # cache untouched (docs/architecture.md, "Life of a read") —
            # no decompression happens, so no decompress cycles are
            # charged.  Only compressed blocks pay the +4 cycles.
            if decoded is None:
                return _RESULT_COP_RAW
            return AccessResult(data=decoded.data, was_uncompressed=True)

        if mode is ProtectionMode.COP_ER:
            # Raw block: chase the pointer and rebuild.  Unlike COP's raw
            # passthrough this path does real decode work after the data
            # arrives — extract the embedded pointer, whole-block
            # (523,512) correction, displaced-bit reassembly — so it keeps
            # charging the decode/decompress pipeline latency on top of
            # the ECC-entry access (billed separately through
            # ``ecc_reads``).
            stats.ecc_block_reads += 1
            if decoded is None:
                ecc_addr = self.entry_block_addr(self.entry_of[addr])
                return self._ecc_reads.get(ecc_addr) or self._intern(ecc_addr, False)
            assert self.formatter is not None
            loaded = self.formatter.load_incompressible(decoded.data)
            self._count_read(loaded.corrected, loaded.uncorrectable, addr)
            return AccessResult(
                data=loaded.data,
                was_uncompressed=True,
                corrected=loaded.corrected,
                uncorrectable=loaded.uncorrectable,
                decompress_cycles=self.config.decompress_latency,
                ecc_reads=(self.entry_block_addr(loaded.entry_index),),
            )

        if mode is ProtectionMode.UNPROTECTED:
            return _RESULT_PLAIN if stored is None else AccessResult(data=stored)

        if mode is ProtectionMode.ECC_DIMM:
            if stored is None:
                return _RESULT_PLAIN
            data, corrected, bad = self._dimm_correct(addr, stored)
            self._count_read(corrected, bad, addr)
            return AccessResult(data=data, corrected=corrected, uncorrectable=bad)

        # Whole-block (523,512) code in a separate ECC block.
        stats.ecc_block_reads += 1
        ecc_addr = self._side_ecc_addr(addr)
        if stored is None:
            return self._ecc_reads.get(ecc_addr) or self._intern(ecc_addr, False)
        word = bytes_to_int(stored) | (self._parity[addr] << self._wide_code.k)
        result = self._wide_code.decode(word)
        corrected = result.status is CodeStatus.CORRECTED
        bad = result.status is CodeStatus.DETECTED
        self._count_read(corrected, bad, addr)
        return AccessResult(
            data=int_to_bytes(result.data, BLOCK_BYTES),
            was_uncompressed=mode is ProtectionMode.MEMZIP,
            corrected=corrected,
            uncorrectable=bad,
            ecc_reads=(ecc_addr,),
        )

    def _count_read(
        self, corrected: bool, uncorrectable: bool, addr: Optional[int] = None
    ) -> None:
        if corrected:
            self.stats.corrected_blocks += 1
            if self.obs.enabled:
                self.obs.trace.emit("corrected", addr=addr, mode=self.mode.value)
        if uncorrectable:
            self.stats.uncorrectable_blocks += 1
            if self.obs.enabled:
                self.obs.trace.emit(
                    "uncorrectable", addr=addr, mode=self.mode.value
                )

    def publish_metrics(self, registry=None, prefix: str = "controller") -> None:
        """Mirror the controller counters into a metrics registry.

        Publishing is idempotent (counters are set to absolute values), so
        callers may re-publish at any cadence.  Region high-water marks
        land under ``ecc_region.*`` next to the allocation counters the
        :class:`~repro.core.coper.ECCRegion` maintains live.
        """
        registry = registry if registry is not None else self.obs.metrics
        registry.update_counters(prefix, self.stats.as_dict())
        registry.set_gauge(f"{prefix}.resident_blocks", len(self.contents))
        registry.set_gauge(
            f"{prefix}.ever_incompressible", len(self.ever_incompressible)
        )
        registry.set_gauge(f"{prefix}.mode.{self.mode.value}", 1)
        if self.region is not None:
            registry.set_gauge("ecc_region.live_entries", len(self.region))
            registry.set_gauge("ecc_region.peak_entries", self.region.peak_entries)
            registry.set_gauge("ecc_region.live_bytes", self.region.live_bytes)
            registry.set_gauge("ecc_region.peak_bytes", self.region.peak_bytes)

    # -- ECC-DIMM helpers -----------------------------------------------------

    def _dimm_parity(self, data: bytes) -> int:
        parity = 0
        for i in range(0, BLOCK_BYTES, 8):
            word = self._dimm_code.encode(bytes_to_int(data[i : i + 8]))
            parity |= self._dimm_code.check_of(word) << i  # 8 bits per word
        return parity

    def _dimm_correct(
        self, addr: int, stored: bytes
    ) -> tuple[bytes, bool, bool]:
        parity = self._parity[addr]
        out = bytearray()
        corrected = False
        bad = False
        for i in range(0, BLOCK_BYTES, 8):
            check = (parity >> i) & 0xFF
            word = bytes_to_int(stored[i : i + 8]) | (check << 64)
            result = self._dimm_code.decode(word)
            corrected = corrected or result.status is CodeStatus.CORRECTED
            bad = bad or result.status is CodeStatus.DETECTED
            out += int_to_bytes(result.data, 8)
        return bytes(out), corrected, bad

    # -- fault injection hooks ----------------------------------------------------

    def flip_bit(self, addr: int, bit: int) -> None:
        """Flip one bit of the stored image of a resident block."""
        if addr not in self.contents:
            # Harness hook, not a serviced read: typed error, but no
            # read_misses charge.
            raise BlockNotWrittenError(addr)
        if not 0 <= bit < 8 * BLOCK_BYTES:
            raise ValueError(f"bit index out of range: {bit}")
        stored = self.contents[addr]
        if stored is None:
            raise NoStoredImageError(addr)
        image = bytearray(stored)
        image[bit // 8] ^= 1 << (bit % 8)
        self.contents[addr] = bytes(image)
