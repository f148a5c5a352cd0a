"""Batch codec kernels: the vectorised COP pipeline, plus a memo cache.

The scalar :class:`~repro.core.codec.COPCodec` is the *reference
implementation* — readable, word-at-a-time, and the ground truth every
result is defined against.  It is also the runtime bound of every figure
sweep (``bench_kernels.py`` documents this): classifying millions of
blocks through pure-Python syndrome loops dominates wall-clock.  This
module provides two accelerations that are **bit-for-bit identical** to
the scalar codec (enforced by the parity suite in ``tests/test_kernels.py``):

:class:`BatchCodec`
    Vectorises decode and classification over ``(N, 64)`` uint8 block
    arrays: hash-mask removal as a broadcast XOR, syndrome evaluation
    through the per-byte numpy LUTs of :class:`~repro.ecc.hsiao.HsiaoCode`,
    batch single-bit correction via the syndrome -> bit-position table,
    and payload reassembly only for the blocks actually classified
    compressed.  Decompression itself stays scalar (the schemes are
    bit-serial by nature); everything around it is numpy.  Its callers
    pass thousands of rows per call (fault injection, the alias census,
    the simulator's content oracle); there is no array encoder.

:class:`MemoizedCodec`
    A content-keyed memo cache in front of a scalar codec.  The codec is
    a pure function of block content, so memoisation is safe; it pays
    only where contents repeat.  The service's warm reads over a small
    written arena do, and the service shards run every request through
    one.  The figure block scans (about 1% repeats) and the simulator's
    codec calls (1 repeat in 13,701 per SMALL Fig. 11 sweep) do not, so
    neither uses it.  Hit / miss / eviction counters land in a
    :mod:`repro.obs` metrics registry under ``kernels.memo.*``.

Layout conventions match the rest of the library: a block row is the 64
stored bytes, and code words within it are little-endian byte slices
(bit ``i`` of the word integer is bit ``i % 8`` of row byte
``word * word_bytes + i // 8``) — exactly what ``bytes_to_int`` produces
on the scalar path and what ``HsiaoCode.syndrome_many`` consumes.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional, Sequence

import numpy as np

from repro._bits import Bits, int_to_bytes
from repro.analysis import sanitizer
from repro.compression.base import BLOCK_BYTES, SCHEME_TAG_BITS
from repro.compression.combined import CombinedCompressor
from repro.compression.msb import MSBCompressor
from repro.compression.rle import RLECompressor
from repro.compression.txt import TextCompressor
from repro.core.codec import BlockKind, COPCodec, DecodedBlock, EncodedBlock
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY

__all__ = [
    "BatchCodec",
    "MemoizedCodec",
    "blocks_to_array",
    "array_to_blocks",
]


def blocks_to_array(blocks: Sequence[bytes]) -> np.ndarray:
    """Pack 64-byte blocks into an ``(N, 64)`` uint8 array."""
    if not blocks:
        return np.zeros((0, BLOCK_BYTES), dtype=np.uint8)
    joined = b"".join(blocks)
    if len(joined) != BLOCK_BYTES * len(blocks):
        raise ValueError("every block must be exactly 64 bytes")
    return np.frombuffer(joined, dtype=np.uint8).reshape(-1, BLOCK_BYTES)


def array_to_blocks(array: np.ndarray) -> List[bytes]:
    """Unpack an ``(N, 64)`` uint8 array into a list of 64-byte blocks."""
    _check_array(array)
    flat = array.tobytes()
    return [
        flat[i : i + BLOCK_BYTES] for i in range(0, len(flat), BLOCK_BYTES)
    ]


def _check_array(blocks: np.ndarray) -> np.ndarray:
    if blocks.ndim != 2 or blocks.shape[1] != BLOCK_BYTES:
        raise ValueError(
            f"expected shape (N, {BLOCK_BYTES}), got {blocks.shape}"
        )
    if blocks.dtype != np.uint8:
        raise ValueError(f"expected uint8 blocks, got {blocks.dtype}")
    return blocks


# -- vector compressibility predicates ---------------------------------------
#
# Array translations of the scalar scheme ``compress(...) is not None``
# decisions (the only part of the encoder the simulator's replay consults).
# Each mirrors its scalar counterpart exactly, including the budget guards,
# so ``compressible_many`` stays bit-identical to first-fit probing.


def _txt_compressible(blocks: np.ndarray, inner_budget: int) -> np.ndarray:
    """TXT: every byte has a clear MSB (and 448 payload bits must fit)."""
    if TextCompressor.compressed_bits > inner_budget:
        return np.zeros(blocks.shape[0], dtype=bool)
    return ~(blocks & 0x80).any(axis=1)


def _msb_compressible(
    blocks: np.ndarray, scheme: MSBCompressor, inner_budget: int
) -> np.ndarray:
    """MSB: the compared field matches across all eight 8-byte words."""
    if scheme.compressed_bits > inner_budget:
        return np.zeros(blocks.shape[0], dtype=bool)
    # Stored words are little-endian byte slices, matching bytes_to_int.
    words = blocks.reshape(-1, 8, 8).view("<u8")[:, :, 0]
    field_mask = np.uint64((1 << scheme.compare_bits) - 1)
    shift = np.uint64(scheme.field_start)
    fields = (words >> shift) & field_mask
    return (fields == fields[:, :1]).all(axis=1)


def _rle_compressible(
    blocks: np.ndarray, scheme: RLECompressor, inner_budget: int
) -> np.ndarray:
    """RLE: greedy run scan frees the threshold within the payload budget.

    Replays ``find_runs`` for every row at once.  The scalar cursor only
    ever sits on even offsets (non-runs advance by 2, runs by
    ``length + length % 2``), and a 3-byte run skips exactly the next even
    offset — so one pass over the 32 even offsets with a carry flag per
    row reproduces the greedy scan.
    """
    min_free = scheme.min_free_bits
    count = blocks.shape[0]
    freed = np.zeros(count, dtype=np.int64)
    skip = np.zeros(count, dtype=bool)  # 3-byte run covered this offset
    for offset in range(0, BLOCK_BYTES - 1, 2):
        active = ~skip & (freed < min_free)
        skip = np.zeros(count, dtype=bool)
        b0 = blocks[:, offset]
        is_run = active & (b0 == blocks[:, offset + 1]) & ((b0 == 0) | (b0 == 0xFF))
        if offset + 2 < BLOCK_BYTES:
            length3 = is_run & (blocks[:, offset + 2] == b0)
            skip = length3
        else:
            length3 = np.zeros(count, dtype=bool)
        freed += np.where(is_run, np.where(length3, 17, 9), 0)
    # compress() additionally guards the assembled payload (512 - freed
    # bits) against the budget; replicate so mismatched parameters agree.
    return (freed >= min_free) & ((512 - freed) <= inner_budget)


class BatchCodec:
    """Vectorised decode/classify over ``(N, 64)`` block arrays.

    Wraps (and defers compression to) a scalar :class:`COPCodec`; every
    batch method is bit-for-bit equivalent to mapping the corresponding
    scalar method over the rows.
    """

    def __init__(self, codec: Optional[COPCodec] = None) -> None:
        self.codec = codec or COPCodec()
        config = self.codec.config
        self.config = config
        self._word_bytes = config.codeword_bits // 8
        self._data_bytes = config.codeword_data_bits // 8
        self._num_words = config.num_codewords
        self._threshold = config.codeword_threshold
        #: The 64 mask bytes in stored-block order (broadcast XOR row).
        self._mask_row = np.frombuffer(
            b"".join(
                int_to_bytes(mask, self._word_bytes)
                for mask in self.codec.masks
            ),
            dtype=np.uint8,
        ).copy()

    # -- classification -----------------------------------------------------

    def _words_of(self, stored: np.ndarray) -> np.ndarray:
        """Hash-removed code words: ``(N, num_words, word_bytes)`` uint8."""
        _check_array(stored)
        return (stored ^ self._mask_row).reshape(
            stored.shape[0], self._num_words, self._word_bytes
        )

    def codeword_count_many(self, stored: np.ndarray) -> np.ndarray:
        """Valid code words per row — vector form of ``codeword_count``.

        Returns an ``(N,)`` int64 array.
        """
        words = self._words_of(stored)
        counts = np.zeros(stored.shape[0], dtype=np.int64)
        for index in range(self._num_words):
            counts += self.codec.code.valid_many(words[:, index, :])
        return counts

    def is_alias_many(self, blocks: np.ndarray) -> np.ndarray:
        """Alias mask per row — vector form of ``is_alias``."""
        return self.codeword_count_many(blocks) >= self._threshold

    def compressible_many(self, blocks: np.ndarray) -> np.ndarray:
        """Per-row compressibility: would ``encode`` store each row compressed?

        Vector form of ``compressor.compress(row, capacity_bits) is not
        None`` — the only encode outcome the simulator's replay needs
        (the stored payload bits never reach an observable output on the
        fault-free path).  The COP hybrids (TXT/MSB/RLE under a
        :class:`CombinedCompressor`) are evaluated with array predicates;
        any other compressor falls back to the scalar probe per row.
        """
        _check_array(blocks)
        compressor = self.codec.compressor
        budget = self.config.capacity_bits
        if isinstance(compressor, CombinedCompressor) and all(
            isinstance(s, (TextCompressor, MSBCompressor, RLECompressor))
            for s in compressor.schemes
        ):
            inner_budget = budget - SCHEME_TAG_BITS
            mask = np.zeros(blocks.shape[0], dtype=bool)
            for scheme in compressor.schemes:
                if isinstance(scheme, TextCompressor):
                    mask |= _txt_compressible(blocks, inner_budget)
                elif isinstance(scheme, MSBCompressor):
                    mask |= _msb_compressible(blocks, scheme, inner_budget)
                else:
                    mask |= _rle_compressible(blocks, scheme, inner_budget)
            return mask
        return np.array(
            [
                compressor.compress(row.tobytes(), budget) is not None
                for row in blocks
            ],
            dtype=bool,
        )

    # -- decoder ------------------------------------------------------------

    def decode_many(self, stored: np.ndarray) -> List[DecodedBlock]:
        """Vector form of ``decode``: classify, correct, decompress rows.

        Syndromes, validity counting and single-bit correction run over
        the whole batch; payload reassembly and decompression run only
        for the rows classified compressed (few, when scanning raw data;
        content-repetitive, when reading traces — see
        :class:`MemoizedCodec`).
        """
        words = self._words_of(stored).copy()
        count = stored.shape[0]
        flat = words.reshape(count * self._num_words, self._word_bytes)
        corrected_flat, clean, detected = self.codec.code.correct_many(flat)
        valid = clean.reshape(count, self._num_words).sum(axis=1)
        corrected_words = (
            (~clean & ~detected)
            .reshape(count, self._num_words)
            .sum(axis=1)
        )
        detected_any = detected.reshape(count, self._num_words).any(axis=1)
        compressed_rows = valid >= self._threshold
        data_bytes = corrected_flat.reshape(
            count, self._num_words, self._word_bytes
        )[:, :, : self._data_bytes]

        results: List[DecodedBlock] = []
        for i in range(count):
            valid_count = int(valid[i])
            if not compressed_rows[i]:
                results.append(
                    DecodedBlock(BlockKind.RAW, stored[i].tobytes(), valid_count)
                )
                continue
            payload = Bits(
                int.from_bytes(data_bytes[i].tobytes(), "little"),
                self.config.capacity_bits,
            )
            corrected = int(corrected_words[i])
            try:
                data = self.codec.compressor.decompress(payload)
            except ValueError:
                # Mirrors the scalar codec: an uncorrectable word
                # scrambled the payload structure itself.
                results.append(
                    DecodedBlock(
                        BlockKind.COMPRESSED,
                        bytes(BLOCK_BYTES),
                        valid_count,
                        corrected,
                        True,
                    )
                )
                continue
            results.append(
                DecodedBlock(
                    BlockKind.COMPRESSED,
                    data,
                    valid_count,
                    corrected,
                    bool(detected_any[i]),
                )
            )
        return results


class MemoizedCodec:
    """Content-keyed memo cache in front of a scalar :class:`COPCodec`.

    Every codec operation is a pure function of block content, so results
    can be reused whenever the same 64 bytes come around again — which in
    the synthetic traces is constantly (a few thousand distinct contents
    serve millions of accesses).  The cache is bounded: at
    ``max_entries`` per operation the oldest insertion is evicted (FIFO),
    keeping memory use and behaviour deterministic.

    Exposes the same surface the controller and COP-ER formatter use
    (``encode``/``decode``/``codeword_count``/``is_alias`` plus the
    ``config``/``compressor``/``code``/``masks`` attributes), so it drops
    in wherever a ``COPCodec`` is expected.

    Thread safety
    -------------
    Every cache operation — lookup, compute, size-check, FIFO eviction,
    insertion, and the hit/miss/eviction counter updates — runs under one
    internal lock, so a ``MemoizedCodec`` may be shared between threads
    (the service daemon's shards each own one, and its stress suite
    hammers a shared instance; see docs/kernels.md).  The compute of a
    missing entry happens *inside* the lock: concurrent callers can never
    compute the same content twice, which keeps the miss counter equal to
    the number of distinct contents ever inserted — the same count a
    serial caller would observe.  The lock is dropped from the pickled
    state (and recreated on unpickle) so codecs still ride into fork-pool
    workers.
    """

    def __init__(
        self,
        codec: Optional[COPCodec] = None,
        max_entries: int = 1 << 16,
        metrics: Optional[MetricsRegistry] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError("max_entries must be positive")
        self.codec = codec or COPCodec()
        self.config = self.codec.config
        self.compressor = self.codec.compressor
        self.code = self.codec.code
        self.masks = self.codec.masks
        self.max_entries = max_entries
        registry = metrics if metrics is not None else NULL_REGISTRY
        self._encode_cache: Dict[bytes, EncodedBlock] = {}  # guarded-by: _lock
        self._decode_cache: Dict[bytes, DecodedBlock] = {}  # guarded-by: _lock
        self._count_cache: Dict[bytes, int] = {}  # guarded-by: _lock
        self._m_hits = registry.counter("kernels.memo.hits")  # guarded-by: _lock
        self._m_misses = registry.counter("kernels.memo.misses")  # guarded-by: _lock
        self._m_evictions = registry.counter("kernels.memo.evictions")
        # One lock covers every cache and the counters: the size-check /
        # evict / insert sequence (and the counter increments) must be
        # atomic for the hit+miss bookkeeping to survive threaded shards.
        # Minted through the sanitizer so REPRO_SANITIZE=locks runs audit
        # acquisition order and guarded access at runtime (REP007's twin).
        self._lock = sanitizer.new_lock("kernels.memo")

    def __getstate__(self) -> Dict[str, Any]:
        # Locks don't pickle; codecs ride into fork-pool workers inside
        # job closures (docs/parallel-runs.md), so drop the lock and let
        # __setstate__ mint a fresh one.
        state = self.__dict__.copy()
        del state["_lock"]
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        self.__dict__.update(state)
        self._lock = sanitizer.new_lock("kernels.memo")

    def _evict_if_full(self, cache: Dict[bytes, object]) -> None:
        """Make room for one insertion.  Caller must hold ``self._lock``."""
        sanitizer.assert_held(self._lock, "MemoizedCodec caches")
        if len(cache) >= self.max_entries:
            # FIFO eviction: dicts iterate in insertion order.
            del cache[next(iter(cache))]
            # Lexically unguarded, but the assert above enforces the
            # lock at runtime under REPRO_SANITIZE=locks.
            self._m_evictions.inc()  # repro: noqa[REP007]

    def _memo(
        self,
        cache: Dict[bytes, object],
        block: bytes,
        compute: Callable[[bytes], object],
    ) -> object:
        key = bytes(block)
        with self._lock:
            hit = cache.get(key)
            if hit is not None:
                self._m_hits.inc()
                return hit
            self._m_misses.inc()
            # Compute *inside* the lock: a distinct content is computed at
            # most once however many threads race on it, so the miss
            # counter equals the number of entries ever inserted.  The
            # work is bounded by one scalar codec pass, which is the
            # service's per-request cost anyway (docs/kernels.md).
            value = compute(key)  # sanctioned[blocking-under-lock]: miss dedup invariant
            self._evict_if_full(cache)
            cache[key] = value
            return value

    def encode(self, block: bytes) -> EncodedBlock:
        return self._memo(self._encode_cache, block, self.codec.encode)  # type: ignore[arg-type,return-value]

    def decode(self, stored: bytes) -> DecodedBlock:
        return self._memo(self._decode_cache, stored, self.codec.decode)  # type: ignore[arg-type,return-value]

    def codeword_count(self, stored: bytes) -> int:
        return self._memo(  # type: ignore[return-value]
            self._count_cache, stored, self.codec.codeword_count  # type: ignore[arg-type]
        )

    def is_alias(self, block: bytes) -> bool:
        """Alias check through the shared codeword-count cache."""
        return self.codeword_count(block) >= self.config.codeword_threshold

    @property
    def cache_sizes(self) -> Dict[str, int]:
        """Live entry counts per memoised operation (for reporting)."""
        with self._lock:
            return {
                "encode": len(self._encode_cache),
                "decode": len(self._decode_cache),
                "codeword_count": len(self._count_cache),
            }
