"""Parity and behaviour tests for the batch codec kernels.

The contract under test: every :class:`repro.kernels.BatchCodec` method
is bit-for-bit identical to mapping the scalar :class:`COPCodec` over the
rows, and :class:`MemoizedCodec` is observationally identical to the
codec it wraps.  The mass-parity test runs the full pipeline over a
100k+ corpus mixing uniform noise, workload content, encoded images with
injected faults, and alias-boundary constructions.
"""

from __future__ import annotations

import pickle
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.codec import BlockKind, COPCodec
from repro.core.config import COPConfig
from repro.kernels import (
    BatchCodec,
    MemoizedCodec,
    array_to_blocks,
    blocks_to_array,
)
from repro.obs.metrics import MetricsRegistry

from strategies import alias_boundary_blocks, any_blocks

CONFIGS = [COPConfig.four_byte(), COPConfig.eight_byte()]


def _boundary_block(codec: COPCodec, rng: random.Random, valid: int) -> bytes:
    """A raw block presenting exactly ``valid`` valid words post-hash."""
    cfg = codec.config
    slots = rng.sample(range(cfg.num_codewords), valid)
    out = bytearray()
    for slot in range(cfg.num_codewords):
        mask = codec.masks[slot]
        if slot in slots:
            word = codec.code.encode(
                rng.getrandbits(cfg.codeword_data_bits)
            ) ^ mask
        else:
            word = rng.getrandbits(cfg.codeword_bits)
            if codec.code.syndrome(word ^ mask) == 0:
                word ^= 1 << rng.randrange(cfg.codeword_bits)
        out += (word).to_bytes(cfg.codeword_bits // 8, "little")
    return bytes(out)


def _corpus(codec: COPCodec, total: int, seed: int = 2024) -> list[bytes]:
    """Mixed adversarial corpus: noise, content, faulted images, aliases."""
    from repro.experiments.common import sample_blocks

    rng = random.Random(seed)
    nprng = np.random.default_rng(seed)
    n_random = int(total * 0.60)
    n_images = int(total * 0.20)
    n_boundary = int(total * 0.10)
    blocks: list[bytes] = [
        bytes(row)
        for row in nprng.integers(0, 256, size=(n_random, 64), dtype=np.uint8)
    ]
    # Encoded images of real workload content, some with injected faults.
    content = sample_blocks("gcc", n_images)
    for i, block in enumerate(content):
        image = bytearray(codec.encode(block).stored)
        for _ in range(i % 3):  # 0, 1 or 2 bit flips
            bit = rng.randrange(512)
            image[bit // 8] ^= 1 << (bit % 8)
        blocks.append(bytes(image))
    # Alias-boundary constructions straddling the threshold.
    threshold = codec.config.codeword_threshold
    for i in range(n_boundary):
        blocks.append(_boundary_block(codec, rng, threshold - (i % 2)))
    # Degenerate and low-entropy fill.
    blocks.append(bytes(64))
    blocks.append(b"\xff" * 64)
    while len(blocks) < total:
        blocks.append(bytes([rng.randrange(4) * 85] * 64))
    return blocks


class TestArrayHelpers:
    def test_round_trip(self):
        rng = random.Random(1)
        blocks = [rng.randbytes(64) for _ in range(17)]
        assert array_to_blocks(blocks_to_array(blocks)) == blocks

    def test_empty(self):
        assert blocks_to_array([]).shape == (0, 64)
        assert array_to_blocks(np.zeros((0, 64), dtype=np.uint8)) == []

    def test_rejects_wrong_sizes(self):
        with pytest.raises(ValueError):
            blocks_to_array([b"short"])
        with pytest.raises(ValueError):
            BatchCodec().codeword_count_many(np.zeros((4, 32), dtype=np.uint8))
        with pytest.raises(ValueError):
            BatchCodec().codeword_count_many(np.zeros((4, 64), dtype=np.int64))


class TestBatchParity:
    """Bit-for-bit equivalence of every batch method with the scalar codec."""

    @pytest.mark.parametrize("config", CONFIGS, ids=["4B", "8B"])
    def test_mass_parity(self, config):
        codec = COPCodec(config)
        batch = BatchCodec(codec)
        total = 100_000 if config.ecc_bytes == 4 else 20_000
        blocks = _corpus(codec, total)
        arr = blocks_to_array(blocks)

        counts = batch.codeword_count_many(arr)
        aliases = batch.is_alias_many(arr)
        decoded = batch.decode_many(arr)
        assert len(decoded) == len(blocks)
        threshold = config.codeword_threshold
        for i, block in enumerate(blocks):
            assert counts[i] == codec.codeword_count(block)
            assert aliases[i] == (counts[i] >= threshold)
            assert decoded[i] == codec.decode(block)

    @pytest.mark.parametrize("config", CONFIGS, ids=["4B", "8B"])
    def test_encode_parity(self, config):
        """Batch decode and count agree with the scalar codec on the images
        the scalar encoder stores, and decode recovers every block."""
        codec = COPCodec(config)
        batch = BatchCodec(codec)
        from repro.experiments.common import sample_blocks

        rng = random.Random(7)
        blocks = sample_blocks("libquantum", 400) + [
            rng.randbytes(64) for _ in range(100)
        ]
        images = [codec.encode(block).stored for block in blocks]
        arr = blocks_to_array(images)
        counts = batch.codeword_count_many(arr)
        decoded = batch.decode_many(arr)
        for i, image in enumerate(images):
            assert counts[i] == codec.codeword_count(image)
            assert decoded[i] == codec.decode(image)
            assert decoded[i].data == blocks[i]

    @given(blocks=st.lists(any_blocks, min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_property_parity_any_blocks(self, blocks):
        codec = COPCodec()
        batch = BatchCodec(codec)
        arr = blocks_to_array(blocks)
        counts = batch.codeword_count_many(arr)
        decoded = batch.decode_many(arr)
        for i, block in enumerate(blocks):
            assert counts[i] == codec.codeword_count(block)
            assert decoded[i] == codec.decode(block)

    @given(blocks=st.lists(alias_boundary_blocks(), min_size=1, max_size=4))
    @settings(max_examples=50, deadline=None)
    def test_property_parity_alias_boundary(self, blocks):
        codec = COPCodec()
        batch = BatchCodec(codec)
        arr = blocks_to_array(blocks)
        counts = batch.codeword_count_many(arr)
        aliases = batch.is_alias_many(arr)
        decoded = batch.decode_many(arr)
        threshold = codec.config.codeword_threshold
        for i, block in enumerate(blocks):
            scalar_count = codec.codeword_count(block)
            # The strategy pins the count to threshold or threshold - 1.
            assert scalar_count in (threshold - 1, threshold)
            assert counts[i] == scalar_count
            assert aliases[i] == codec.is_alias(block)
            assert decoded[i] == codec.decode(block)

    @given(block=alias_boundary_blocks(config=COPConfig.eight_byte()))
    @settings(max_examples=25, deadline=None)
    def test_alias_boundary_8b(self, block):
        codec = COPCodec(COPConfig.eight_byte())
        batch = BatchCodec(codec)
        arr = blocks_to_array([block])
        assert batch.codeword_count_many(arr)[0] == codec.codeword_count(block)
        assert batch.decode_many(arr)[0] == codec.decode(block)

    def test_detected_word_keeps_received_data_bits(self):
        """Batch mirrors the scalar DETECTED semantics: a word with a
        2-bit error contributes its *received* data bits to the payload
        and flags the block uncorrectable."""
        codec = COPCodec()
        batch = BatchCodec(codec)
        encoded = codec.encode(bytes(64))
        assert encoded.compressed
        image = bytearray(encoded.stored)
        image[0] ^= 0b11  # two flips in word 0's data bits
        scalar = codec.decode(bytes(image))
        assert scalar.uncorrectable
        batched = batch.decode_many(blocks_to_array([bytes(image)]))[0]
        assert batched == scalar

    def test_check_byte_order_all_zero_and_near_threshold(self):
        """Differential check on the codeword byte layout: stored byte
        ``word * word_bytes + word_bytes - 1`` is that word's check byte
        in both implementations, for both geometries."""
        for config in CONFIGS:
            codec = COPCodec(config)
            batch = BatchCodec(codec)
            wb = config.codeword_bits // 8
            rng = random.Random(13)
            probes = [bytes(64), b"\xff" * 64]
            probes += [
                _boundary_block(codec, rng, config.codeword_threshold - 1)
                for _ in range(32)
            ]
            for block in probes:
                for word in range(config.num_codewords):
                    flipped = bytearray(block)
                    flipped[word * wb + wb - 1] ^= 0x01  # check byte
                    assert codec.codeword_count(
                        bytes(flipped)
                    ) == batch.codeword_count_many(
                        blocks_to_array([bytes(flipped)])
                    )[0]


class TestMemoizedCodec:
    def test_results_identical_and_cached(self):
        registry = MetricsRegistry()
        codec = COPCodec()
        memo = MemoizedCodec(codec, metrics=registry)
        rng = random.Random(5)
        blocks = [rng.randbytes(64) for _ in range(20)] + [bytes(64)]
        for block in blocks * 3:
            assert memo.encode(block) == codec.encode(block)
            assert memo.decode(block) == codec.decode(block)
            assert memo.codeword_count(block) == codec.codeword_count(block)
            assert memo.is_alias(block) == codec.is_alias(block)
        snap = registry.snapshot()["counters"]
        assert snap["kernels.memo.hits"] > 0
        assert snap["kernels.memo.misses"] == 3 * len(blocks)  # one per op
        assert memo.cache_sizes == {
            "encode": len(blocks),
            "decode": len(blocks),
            "codeword_count": len(blocks),
        }

    def test_fifo_eviction_bounds_cache(self):
        registry = MetricsRegistry()
        memo = MemoizedCodec(max_entries=4, metrics=registry)
        rng = random.Random(6)
        for _ in range(10):
            memo.codeword_count(rng.randbytes(64))
        assert memo.cache_sizes["codeword_count"] == 4
        assert registry.snapshot()["counters"]["kernels.memo.evictions"] == 6

    def test_rejects_bad_bound(self):
        with pytest.raises(ValueError):
            MemoizedCodec(max_entries=0)

    def test_controller_use_batch_is_bit_identical(self):
        from repro.core.controller import ProtectedMemory, ProtectionMode
        from repro.experiments.common import sample_blocks

        blocks = sample_blocks("mcf", 120)
        results = []
        for use_batch in (False, True):
            config = COPConfig(use_batch=use_batch)
            memory = ProtectedMemory(ProtectionMode.COP, config=config)
            if use_batch:
                assert isinstance(memory.codec, MemoizedCodec)
            out = []
            for i, block in enumerate(blocks):
                if memory.write(i * 64, block).accepted:
                    out.append(memory.read(i * 64).data)
            results.append((out, memory.stats.as_dict()))
        assert results[0] == results[1]


class TestPickleSafety:
    """Satellite of REP005: lazy numpy LUTs must not cross fork/pickle."""

    def test_hsiao_pickle_drops_lazy_tables(self):
        codec = COPCodec()
        arr = blocks_to_array([bytes(64), b"\xff" * 64])
        # Materialise every lazy table first.
        BatchCodec(codec).decode_many(arr)
        code = codec.code
        assert code._np_syn_tables is not None
        assert code._np_corr_table is not None
        clone = pickle.loads(pickle.dumps(code))
        for attr in ("_np_syn_tables", "_np_corr_table"):
            assert getattr(clone, attr) is None

    def test_pickled_codec_still_batch_correct(self):
        codec = COPCodec()
        batch = BatchCodec(codec)
        blocks = [random.Random(11).randbytes(64) for _ in range(16)]
        arr = blocks_to_array(blocks)
        expected = batch.decode_many(arr)
        clone = pickle.loads(pickle.dumps(codec))
        assert BatchCodec(clone).decode_many(arr) == expected

    def test_memoized_codec_pickles_without_its_lock(self):
        memo = MemoizedCodec()
        block = b"x" * 64
        memo.codeword_count(block)
        clone = pickle.loads(pickle.dumps(memo))
        # The clone minted a fresh lock and kept its cached entries.
        assert clone._count_cache == memo._count_cache
        assert clone._lock is not memo._lock
        clone.codeword_count(b"y" * 64)  # usable after unpickling


class TestMemoizedCodecThreads:
    """Regression for the unsynchronised FIFO memo (service bugfix sweep).

    Before the lock, concurrent size-check/evict/insert sequences could
    corrupt the FIFO dicts and drop counter updates; these tests hammer
    one shared instance and assert the bookkeeping invariants that the
    service's parity contract builds on.
    """

    CORPUS = 48
    THREADS = 8
    OPS = 400

    def _hammer(self, memo, seed):
        rng = random.Random(seed)
        blocks = [random.Random(77).randbytes(64) for _ in range(self.CORPUS)]
        lookups = 0
        for _ in range(self.OPS):
            block = blocks[rng.randrange(len(blocks))]
            op = rng.randrange(3)
            if op == 0:
                memo.encode(block)
            elif op == 1:
                memo.decode(block)
            else:
                memo.codeword_count(block)
            lookups += 1
        return lookups

    def _run_threads(self, memo):
        import threading

        totals = []
        lock = threading.Lock()

        def worker(seed):
            count = self._hammer(memo, seed)
            with lock:
                totals.append(count)

        threads = [
            threading.Thread(target=worker, args=(seed,))
            for seed in range(self.THREADS)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(totals) == self.THREADS
        return sum(totals)

    def test_counters_and_contents_consistent_unbounded(self):
        registry = MetricsRegistry()
        codec = COPCodec()
        memo = MemoizedCodec(codec, metrics=registry)
        lookups = self._run_threads(memo)
        counters = registry.snapshot()["counters"]
        hits = counters.get("kernels.memo.hits", 0)
        misses = counters.get("kernels.memo.misses", 0)
        evictions = counters.get("kernels.memo.evictions", 0)
        # Every lookup is exactly one hit or one miss.
        assert hits + misses == lookups
        # No evictions => misses is exactly the number of live entries,
        # i.e. each distinct content was computed exactly once.
        assert evictions == 0
        assert misses == sum(memo.cache_sizes.values())
        # Cached values are the scalar codec's, bit for bit.
        reference = COPCodec()
        for block, value in list(memo._encode_cache.items()):
            assert value == reference.encode(block)
        for block, value in list(memo._count_cache.items()):
            assert value == reference.codeword_count(block)

    def test_counters_consistent_under_eviction_pressure(self):
        registry = MetricsRegistry()
        memo = MemoizedCodec(max_entries=8, metrics=registry)
        lookups = self._run_threads(memo)
        counters = registry.snapshot()["counters"]
        hits = counters.get("kernels.memo.hits", 0)
        misses = counters.get("kernels.memo.misses", 0)
        evictions = counters.get("kernels.memo.evictions", 0)
        assert hits + misses == lookups
        # Each miss either still lives in a cache or was evicted.
        assert misses == evictions + sum(memo.cache_sizes.values())
        # The FIFO bound held under contention.
        assert all(size <= 8 for size in memo.cache_sizes.values())
