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
    modelled here as the ``_memzip_compressed`` map, which is exactly the
    bookkeeping COP's code-word detection eliminates.
``ECC_DIMM``
    Conventional (72,64) SECDED with a ninth chip — the reliability
    reference point.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro._bits import bytes_to_int, int_to_bytes
from repro.compression.base import BLOCK_BYTES
from repro.core.codec import COPCodec
from repro.core.config import COPConfig
from repro.core.coper import ENTRIES_PER_BLOCK, CoperBlockFormat, ECCRegion
from repro.ecc.codes import code_72_64, code_523_512
from repro.ecc.hsiao import CodeStatus

__all__ = [
    "ProtectionMode",
    "BlockNotWrittenError",
    "ControllerStats",
    "AccessResult",
    "ProtectedMemory",
]

#: Data blocks whose ECC entries share one 64-byte ECC block in the
#: ECC-Region baseline (2-byte entry per block "to facilitate addressing").
_BASELINE_ENTRIES_PER_BLOCK = 32

#: Shared stand-in image stored by the fast timing-model paths; the
#: simulator never reads payload bytes back, only contents *keys*.
_PLACEHOLDER = bytes(BLOCK_BYTES)


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


#: Shared outcomes for the fast timing-model paths.  ``AccessResult`` is
#: frozen, so identical results can be one object — constructing a
#: nine-field frozen dataclass per access is measurable in the
#: simulator's replay.  Addr-dependent results (ECC tuples) are cached
#: per instance.
_RESULT_WRITE_OK = AccessResult()
_RESULT_WRITE_REJECTED = AccessResult(accepted=False)
_RESULT_WRITE_COMPRESSED = AccessResult(compressed=True)
_RESULT_READ_PLAIN = AccessResult(data=_PLACEHOLDER)
_RESULT_READ_COP_RAW = AccessResult(data=_PLACEHOLDER, was_uncompressed=True)


class ProtectedMemory:
    """Functional main memory behind one protection mode."""

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
        self.contents: dict[int, bytes] = {}
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
        #: MemZip's explicit compression-tracking metadata (per block).
        self._memzip_compressed: set[int] = set()
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
        #: Fast-path (``fast_write``/``fast_read``) stored-image kinds:
        #: addr -> True when the resident image is stored compressed.
        self._fast_kind: dict[int, bool] = {}
        #: Memoised fast-path outcomes whose only varying field is the ECC
        #: tuple.  Keyed by the ECC *block* address (for COP-ER that is the
        #: entry block, which can differ between writes of the same data
        #: address); the mode is fixed per instance, so shapes never mix.
        self._fast_write_ecc: dict[int, AccessResult] = {}
        self._fast_read_ecc: dict[int, AccessResult] = {}
        self._fast_read_compressed = AccessResult(
            data=_PLACEHOLDER,
            compressed=True,
            decompress_cycles=self.config.decompress_latency,
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

    # -- write path ------------------------------------------------------------

    def write(self, addr: int, data: bytes) -> AccessResult:
        """Store a block (a writeback from the LLC or initial population)."""
        if len(data) != BLOCK_BYTES:
            raise ValueError("block must be 64 bytes")
        if addr % BLOCK_BYTES:
            raise ValueError("address must be block aligned")
        self.stats.writes += 1

        if self.mode is ProtectionMode.UNPROTECTED:
            self.contents[addr] = bytes(data)
            self.stats.raw_writes += 1
            return AccessResult()

        if self.mode is ProtectionMode.ECC_DIMM:
            self.contents[addr] = bytes(data)
            self._parity[addr] = self._dimm_parity(data)
            self.stats.raw_writes += 1
            return AccessResult()

        if self.mode in (ProtectionMode.ECC_REGION, ProtectionMode.EMBEDDED_ECC):
            self.contents[addr] = bytes(data)
            word = self._wide_code.encode(bytes_to_int(data))
            self._parity[addr] = self._wide_code.check_of(word)
            self.stats.raw_writes += 1
            ecc_addr = (
                self.baseline_ecc_addr(addr)
                if self.mode is ProtectionMode.ECC_REGION
                else self.embedded_ecc_addr(addr)
            )
            self.stats.ecc_block_writes += 1
            return AccessResult(ecc_writes=(ecc_addr,))

        if self.mode is ProtectionMode.MEMZIP:
            return self._memzip_write(addr, data)

        assert self.codec is not None
        encoded = self.codec.encode(data)
        if encoded.compressed:
            result = self._retire_entry_if_any(addr)
            self.contents[addr] = encoded.stored
            self.stats.compressed_writes += 1
            return AccessResult(compressed=True, ecc_writes=result)

        # Incompressible block.
        self.ever_incompressible.add(addr)
        if self.mode is ProtectionMode.COP:
            if self.codec.is_alias(data):
                self.stats.alias_rejects += 1
                if self.obs.enabled:
                    self.obs.trace.emit("alias_reject", addr=addr, mode=self.mode.value)
                return AccessResult(accepted=False)
            self.contents[addr] = bytes(data)
            self.stats.raw_writes += 1
            return AccessResult()

        # COP-ER: embed a pointer and park displaced data in the region.
        assert self.formatter is not None and self.region is not None
        entry = self.entry_of.get(addr)
        if entry is not None:
            stored = self.formatter.update_entry(entry, data)
            self.stats.entry_reuses += 1
        else:
            placed = self.formatter.store_incompressible(data)
            if placed is None or placed.aliased:
                if placed is not None:
                    self.region.free(placed.entry_index)
                self.stats.alias_rejects += 1
                if self.obs.enabled:
                    self.obs.trace.emit("alias_reject", addr=addr, mode=self.mode.value)
                return AccessResult(accepted=False)
            entry = placed.entry_index
            stored = placed.stored
            self.entry_of[addr] = entry
            self.stats.entry_allocations += 1
        self.contents[addr] = stored
        self.stats.raw_writes += 1
        self.stats.ecc_block_writes += 1
        return AccessResult(
            was_uncompressed=True, ecc_writes=(self.entry_block_addr(entry),)
        )

    def _memzip_write(self, addr: int, data: bytes) -> AccessResult:
        """MemZip write: inline ECC when compressible, embedded otherwise.

        Space at the row end stays reserved either way (MemZip is "only a
        performance optimization, and space must still be reserved for
        ECC regardless of compressibility"), and the compression status
        lands in explicit metadata rather than being inferred on read.
        """
        assert self.codec is not None
        encoded = self.codec.encode(data)
        self.contents[addr] = encoded.stored
        if encoded.compressed:
            self._memzip_compressed.add(addr)
            self.stats.compressed_writes += 1
            return AccessResult(compressed=True)
        self._memzip_compressed.discard(addr)
        self.ever_incompressible.add(addr)
        word = self._wide_code.encode(bytes_to_int(data))
        self._parity[addr] = self._wide_code.check_of(word)
        self.stats.raw_writes += 1
        self.stats.ecc_block_writes += 1
        return AccessResult(
            was_uncompressed=True, ecc_writes=(self.embedded_ecc_addr(addr),)
        )

    def _memzip_read(self, addr: int, stored: bytes) -> AccessResult:
        assert self.codec is not None
        latency = self.config.decompress_latency
        if addr in self._memzip_compressed:
            decoded = self.codec.decode(stored)
            self.stats.compressed_reads += 1
            corrected = decoded.corrected_words > 0
            self._count_read(corrected, decoded.uncorrectable, addr)
            return AccessResult(
                data=decoded.data,
                compressed=True,
                corrected=corrected,
                uncorrectable=decoded.uncorrectable,
                decompress_cycles=latency,
            )
        word = bytes_to_int(stored) | (self._parity[addr] << self._wide_code.k)
        result = self._wide_code.decode(word)
        corrected = result.status is CodeStatus.CORRECTED
        bad = result.status is CodeStatus.DETECTED
        self._count_read(corrected, bad, addr)
        self.stats.ecc_block_reads += 1
        return AccessResult(
            data=int_to_bytes(result.data, BLOCK_BYTES),
            was_uncompressed=True,
            corrected=corrected,
            uncorrectable=bad,
            ecc_reads=(self.embedded_ecc_addr(addr),),
        )

    def _retire_entry_if_any(self, addr: int) -> tuple[int, ...]:
        """Free a stale COP-ER entry when a block becomes compressible."""
        if self.mode is not ProtectionMode.COP_ER:
            return ()
        entry = self.entry_of.pop(addr, None)
        if entry is None:
            return ()
        assert self.region is not None
        self.region.free(entry)
        self.stats.entry_frees += 1
        self.stats.ecc_block_writes += 1
        return (self.entry_block_addr(entry),)

    # -- read path ---------------------------------------------------------------

    def read(self, addr: int) -> AccessResult:
        """Fetch and (per mode) verify/correct/decompress a block.

        Raises :class:`BlockNotWrittenError` (a ``KeyError``) for a block
        that was never written, counting it in ``stats.read_misses``.
        """
        if addr not in self.contents:
            self.stats.read_misses += 1
            raise BlockNotWrittenError(addr)
        self.stats.reads += 1
        stored = self.contents[addr]

        if self.mode is ProtectionMode.UNPROTECTED:
            return AccessResult(data=stored)

        if self.mode is ProtectionMode.ECC_DIMM:
            data, corrected, bad = self._dimm_correct(addr, stored)
            self._count_read(corrected, bad, addr)
            return AccessResult(data=data, corrected=corrected, uncorrectable=bad)

        if self.mode in (ProtectionMode.ECC_REGION, ProtectionMode.EMBEDDED_ECC):
            word = bytes_to_int(stored) | (
                self._parity[addr] << self._wide_code.k
            )
            result = self._wide_code.decode(word)
            corrected = result.status is CodeStatus.CORRECTED
            bad = result.status is CodeStatus.DETECTED
            self._count_read(corrected, bad, addr)
            self.stats.ecc_block_reads += 1
            ecc_addr = (
                self.baseline_ecc_addr(addr)
                if self.mode is ProtectionMode.ECC_REGION
                else self.embedded_ecc_addr(addr)
            )
            return AccessResult(
                data=int_to_bytes(result.data, BLOCK_BYTES),
                corrected=corrected,
                uncorrectable=bad,
                ecc_reads=(ecc_addr,),
            )

        if self.mode is ProtectionMode.MEMZIP:
            return self._memzip_read(addr, stored)

        assert self.codec is not None
        decoded = self.codec.decode(stored)
        latency = self.config.decompress_latency
        if decoded.is_compressed:
            self.stats.compressed_reads += 1
            corrected = decoded.corrected_words > 0
            self._count_read(corrected, decoded.uncorrectable, addr)
            return AccessResult(
                data=decoded.data,
                compressed=True,
                corrected=corrected,
                uncorrectable=decoded.uncorrectable,
                decompress_cycles=latency,
            )

        if self.mode is ProtectionMode.COP:
            # Raw block: the decoder's classification already ran inside
            # the normal read pipeline and the stored bytes pass to the
            # cache untouched (docs/architecture.md, "Life of a read") —
            # no decompression happens, so no decompress cycles are
            # charged.  Only compressed blocks pay the +4 cycles.
            return AccessResult(data=decoded.data, was_uncompressed=True)

        # COP-ER raw block: chase the pointer and rebuild.  Unlike COP's
        # raw passthrough this path does real decode work after the data
        # arrives — extract the embedded pointer, whole-block (523,512)
        # correction, displaced-bit reassembly — so it keeps charging the
        # decode/decompress pipeline latency on top of the ECC-entry
        # access (which is billed separately through ``ecc_reads``).
        assert self.formatter is not None
        loaded = self.formatter.load_incompressible(stored)
        self._count_read(loaded.corrected, loaded.uncorrectable, addr)
        self.stats.ecc_block_reads += 1
        return AccessResult(
            data=loaded.data,
            was_uncompressed=True,
            corrected=loaded.corrected,
            uncorrectable=loaded.uncorrectable,
            decompress_cycles=latency,
            ecc_reads=(self.entry_block_addr(loaded.entry_index),),
        )

    # -- fast timing-model paths (the simulator's replay; docs/kernels.md) ----
    #
    # The interval simulator never observes stored payload bits on the
    # fault-free path: decode(encode(x)) == x, nothing is corrected, and
    # only the *classification* of a block (compressible / alias) and the
    # mode bookkeeping reach the stats, the trace events, and the timing
    # model.  ``fast_write``/``fast_read`` therefore mirror ``write``/
    # ``read`` exactly in every observable effect — counters, contents
    # keys, entry/region state, trace events, AccessResult flags and ECC
    # addresses — while skipping content generation, compression, and all
    # parity arithmetic.  A hypothesis differential in
    # tests/test_batch_sim.py drives both pairs with the same write/read
    # sequences in every mode and requires equal state.

    def fast_write(
        self,
        addr: int,
        compressible: bool,
        alias: bool = False,
        content: Optional[Callable[[], bytes]] = None,
        events: Optional[list] = None,
    ) -> AccessResult:
        """Timing-model twin of :meth:`write`.

        ``compressible``/``alias`` are the block's content classification
        (``compress(...) is not None`` / ``codec.is_alias``); ``content``
        is a lazy thunk producing the raw 64 bytes, consulted only when
        COP-ER must run real entry allocation (pointer de-aliasing is
        content-dependent).  ``events`` collects deferred trace events —
        the simulator buffers them so wave-level deferral cannot leak into
        the trace; ``None`` emits directly.
        """
        if addr % BLOCK_BYTES:
            raise ValueError("address must be block aligned")
        self.stats.writes += 1

        if self.mode is ProtectionMode.UNPROTECTED:
            self.contents[addr] = _PLACEHOLDER
            self.stats.raw_writes += 1
            return _RESULT_WRITE_OK

        if self.mode is ProtectionMode.ECC_DIMM:
            self.contents[addr] = _PLACEHOLDER
            self.stats.raw_writes += 1
            return _RESULT_WRITE_OK

        if self.mode in (ProtectionMode.ECC_REGION, ProtectionMode.EMBEDDED_ECC):
            self.contents[addr] = _PLACEHOLDER
            self.stats.raw_writes += 1
            ecc_addr = (
                self.baseline_ecc_addr(addr)
                if self.mode is ProtectionMode.ECC_REGION
                else self.embedded_ecc_addr(addr)
            )
            self.stats.ecc_block_writes += 1
            cached = self._fast_write_ecc.get(ecc_addr)
            if cached is None:
                cached = AccessResult(ecc_writes=(ecc_addr,))
                self._fast_write_ecc[ecc_addr] = cached
            return cached

        if self.mode is ProtectionMode.MEMZIP:
            self.contents[addr] = _PLACEHOLDER
            if compressible:
                self._memzip_compressed.add(addr)
                self.stats.compressed_writes += 1
                return _RESULT_WRITE_COMPRESSED
            self._memzip_compressed.discard(addr)
            self.ever_incompressible.add(addr)
            self.stats.raw_writes += 1
            self.stats.ecc_block_writes += 1
            ecc_addr = self.embedded_ecc_addr(addr)
            cached = self._fast_write_ecc.get(ecc_addr)
            if cached is None:
                cached = AccessResult(
                    was_uncompressed=True, ecc_writes=(ecc_addr,)
                )
                self._fast_write_ecc[ecc_addr] = cached
            return cached

        if compressible:
            result = self._retire_entry_if_any(addr)
            self.contents[addr] = _PLACEHOLDER
            self._fast_kind[addr] = True
            self.stats.compressed_writes += 1
            if result:
                return AccessResult(compressed=True, ecc_writes=result)
            return _RESULT_WRITE_COMPRESSED

        # Incompressible block.
        self.ever_incompressible.add(addr)
        if self.mode is ProtectionMode.COP:
            if alias:
                self.stats.alias_rejects += 1
                self._emit_alias_reject(addr, events)
                return _RESULT_WRITE_REJECTED
            self.contents[addr] = _PLACEHOLDER
            self._fast_kind[addr] = False
            self.stats.raw_writes += 1
            return _RESULT_WRITE_OK

        # COP-ER: allocation (and its de-aliasing skips) is content
        # dependent, so run the *real* allocator against the real bytes —
        # only the displaced-bit gather / (523,512) parity / entry payload
        # store are skipped (entries keep allocate()'s (0, 0) payload,
        # which nothing on the fault-free path reads back).
        assert self.formatter is not None and self.region is not None
        entry = self.entry_of.get(addr)
        if entry is not None:
            self.stats.entry_reuses += 1
        else:
            if content is None:
                raise ValueError(
                    "COP-ER fast_write needs the block content to allocate "
                    "a de-aliased entry"
                )
            entry, aliased = self.formatter.allocate_entry(content())
            if entry is None or aliased:
                if entry is not None:
                    self.region.free(entry)
                self.stats.alias_rejects += 1
                self._emit_alias_reject(addr, events)
                return _RESULT_WRITE_REJECTED
            self.entry_of[addr] = entry
            self.stats.entry_allocations += 1
        self.contents[addr] = _PLACEHOLDER
        self._fast_kind[addr] = False
        self.stats.raw_writes += 1
        self.stats.ecc_block_writes += 1
        ecc_addr = self.entry_block_addr(entry)
        cached = self._fast_write_ecc.get(ecc_addr)
        if cached is None:
            cached = AccessResult(
                was_uncompressed=True, ecc_writes=(ecc_addr,)
            )
            self._fast_write_ecc[ecc_addr] = cached
        return cached

    def fast_read(self, addr: int) -> AccessResult:
        """Timing-model twin of :meth:`read` (fault-free, content-free).

        Classification comes from the kind table maintained by
        :meth:`fast_write` rather than from decoding stored bytes; on the
        fault-free path the two always agree (compressed images decode
        compressed, raw images were de-aliased before storing).
        """
        if addr not in self.contents:
            self.stats.read_misses += 1
            raise BlockNotWrittenError(addr)
        self.stats.reads += 1

        if self.mode is ProtectionMode.UNPROTECTED:
            return _RESULT_READ_PLAIN

        if self.mode is ProtectionMode.ECC_DIMM:
            return _RESULT_READ_PLAIN

        if self.mode in (ProtectionMode.ECC_REGION, ProtectionMode.EMBEDDED_ECC):
            self.stats.ecc_block_reads += 1
            ecc_addr = (
                self.baseline_ecc_addr(addr)
                if self.mode is ProtectionMode.ECC_REGION
                else self.embedded_ecc_addr(addr)
            )
            cached = self._fast_read_ecc.get(ecc_addr)
            if cached is None:
                cached = AccessResult(
                    data=_PLACEHOLDER, ecc_reads=(ecc_addr,)
                )
                self._fast_read_ecc[ecc_addr] = cached
            return cached

        if self.mode is ProtectionMode.MEMZIP:
            if addr in self._memzip_compressed:
                self.stats.compressed_reads += 1
                return self._fast_read_compressed
            self.stats.ecc_block_reads += 1
            ecc_addr = self.embedded_ecc_addr(addr)
            cached = self._fast_read_ecc.get(ecc_addr)
            if cached is None:
                cached = AccessResult(
                    data=_PLACEHOLDER,
                    was_uncompressed=True,
                    ecc_reads=(ecc_addr,),
                )
                self._fast_read_ecc[ecc_addr] = cached
            return cached

        if self._fast_kind[addr]:
            self.stats.compressed_reads += 1
            return self._fast_read_compressed

        if self.mode is ProtectionMode.COP:
            return _RESULT_READ_COP_RAW

        # COP-ER raw block: the embedded pointer names this block's entry.
        self.stats.ecc_block_reads += 1
        ecc_addr = self.entry_block_addr(self.entry_of[addr])
        cached = self._fast_read_ecc.get(ecc_addr)
        if cached is None:
            cached = AccessResult(
                data=_PLACEHOLDER,
                was_uncompressed=True,
                decompress_cycles=self.config.decompress_latency,
                ecc_reads=(ecc_addr,),
            )
            self._fast_read_ecc[ecc_addr] = cached
        return cached

    def _emit_alias_reject(self, addr: int, events: Optional[list]) -> None:
        if not self.obs.enabled:
            return
        if events is None:
            self.obs.trace.emit("alias_reject", addr=addr, mode=self.mode.value)
        else:
            events.append(
                ("alias_reject", {"addr": addr, "mode": self.mode.value})
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
        image = bytearray(self.contents[addr])
        image[bit // 8] ^= 1 << (bit % 8)
        self.contents[addr] = bytes(image)

    def resident_addresses(self) -> list[int]:
        """All block addresses currently stored."""
        return list(self.contents.keys())
