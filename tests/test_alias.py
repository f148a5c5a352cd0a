"""Tests for the alias probability model and the code-word census."""

import random

import numpy as np
import pytest

from repro.core.alias import (
    AliasCensus,
    alias_probability,
    codeword_count_probability,
    codeword_counts_bulk,
    valid_codeword_probability,
)
from repro.core.codec import COPCodec
from repro.core.config import COPConfig


class TestAnalyticModel:
    def test_word_probability_matches_paper(self):
        # "there is then a 0.39% chance that it will be a valid code word"
        assert valid_codeword_probability() == pytest.approx(1 / 256)

    def test_block_alias_probability_matches_paper(self):
        # "a 0.00002% chance of the block containing 3 or more valid
        # code words" = 2e-7.
        assert alias_probability() == pytest.approx(2.4e-7, rel=0.2)

    def test_count_probabilities_sum_to_one(self):
        total = sum(codeword_count_probability(c) for c in range(5))
        assert total == pytest.approx(1.0)

    def test_count_validation(self):
        with pytest.raises(ValueError):
            codeword_count_probability(5)
        with pytest.raises(ValueError):
            codeword_count_probability(-1)

    def test_threshold_2_increases_aliases_by_orders_of_magnitude(self):
        """Section 3.1's warning about lowering the threshold."""
        strict = alias_probability(COPConfig(ecc_bytes=4, codeword_threshold=3))
        loose = alias_probability(COPConfig(ecc_bytes=4, codeword_threshold=2))
        assert loose / strict > 100

    def test_eight_byte_variant_alias_probability(self):
        """5-of-8 threshold: even rarer aliases than 3-of-4."""
        prob = alias_probability(COPConfig.eight_byte())
        assert prob < alias_probability(COPConfig.four_byte())


class TestBulkCensus:
    def test_bulk_matches_scalar(self, codec4, rng):
        blocks = [rng.randbytes(64) for _ in range(100)]
        arr = np.frombuffer(b"".join(blocks), dtype=np.uint8).reshape(-1, 64)
        bulk = codeword_counts_bulk(arr, codec4)
        for i, block in enumerate(blocks):
            assert bulk[i] == codec4.codeword_count(block)

    def test_bulk_counts_compressed_blocks_as_four(self, codec4):
        stored = codec4.encode(bytes(64)).stored
        arr = np.frombuffer(stored, dtype=np.uint8).reshape(1, 64)
        assert codeword_counts_bulk(arr, codec4)[0] == 4

    def test_shape_validation(self, codec4):
        with pytest.raises(ValueError):
            codeword_counts_bulk(np.zeros((3, 32), dtype=np.uint8), codec4)

    def test_census_accumulates(self, codec4, rng):
        census = AliasCensus(codec4)
        for _ in range(2):
            arr = np.frombuffer(rng.randbytes(64 * 50), dtype=np.uint8)
            census.add_array(arr.reshape(-1, 64))
        assert census.total == 100
        assert sum(census.fraction(c) for c in range(5)) == pytest.approx(1.0)

    def test_census_matches_binomial_at_scale(self, codec4):
        rng = random.Random("census")
        census = AliasCensus(codec4)
        arr = np.frombuffer(
            rng.randbytes(64 * 100_000), dtype=np.uint8
        ).reshape(-1, 64)
        census.add_array(arr)
        assert census.fraction(1) == pytest.approx(
            codeword_count_probability(1), rel=0.2
        )
        assert census.alias_fraction() < 1e-4

    def test_equivalent_blocks_scaling(self, codec4):
        census = AliasCensus(codec4)
        census.counts = {0: 90, 1: 10}
        census.total = 100
        # 10% of a 8 GB memory's 2^27 blocks.
        assert census.equivalent_blocks(1) == round(0.1 * ((8 << 30) // 64))

    def test_empty_census(self, codec4):
        census = AliasCensus(codec4)
        assert census.fraction(0) == 0.0
        assert census.alias_fraction() == 0.0
