"""Tests for COPConfig geometry and validation."""

import pytest

from repro.core.config import COPConfig


class TestVariants:
    def test_four_byte_geometry(self):
        config = COPConfig.four_byte()
        assert config.num_codewords == 4
        assert config.code_geometry == (128, 120)
        assert config.codeword_threshold == 3
        assert config.capacity_bits == 480
        assert config.ecc_bytes == 4

    def test_eight_byte_geometry(self):
        config = COPConfig.eight_byte()
        assert config.num_codewords == 8
        assert config.code_geometry == (64, 56)
        assert config.codeword_threshold == 5
        assert config.capacity_bits == 448
        assert config.ecc_bytes == 8

    def test_default_is_four_byte(self):
        assert COPConfig() == COPConfig.four_byte()

    def test_overrides(self):
        config = COPConfig.four_byte(codeword_threshold=2)
        assert config.codeword_threshold == 2
        assert config.code_geometry == (128, 120)

    def test_block_bytes_constant(self):
        assert COPConfig.four_byte().block_bytes == 64


class TestValidation:
    def test_rejects_non_divisor_ecc_bytes(self):
        with pytest.raises(ValueError):
            COPConfig(ecc_bytes=3)

    def test_rejects_zero_ecc_bytes(self):
        with pytest.raises(ValueError):
            COPConfig(ecc_bytes=0)

    def test_rejects_threshold_out_of_range(self):
        with pytest.raises(ValueError):
            COPConfig(ecc_bytes=4, codeword_threshold=0)
        with pytest.raises(ValueError):
            COPConfig(ecc_bytes=4, codeword_threshold=5)

    def test_rejects_degenerate_words(self):
        # 64 ECC bytes would leave 8-bit words with no data bits.
        with pytest.raises(ValueError):
            COPConfig(ecc_bytes=64, codeword_threshold=1)

    def test_frozen(self):
        with pytest.raises(AttributeError):
            COPConfig().ecc_bytes = 8


class TestDerivedConsistency:
    @pytest.mark.parametrize("ecc_bytes,threshold", [(2, 2), (4, 3), (8, 5), (16, 9)])
    def test_check_bits_budget(self, ecc_bytes, threshold):
        """Every geometry spends exactly one check byte per code word."""
        config = COPConfig(ecc_bytes=ecc_bytes, codeword_threshold=threshold)
        n, k = config.code_geometry
        assert n - k == 8
        assert config.num_codewords * n == 512
        assert config.capacity_bits == 512 - 8 * ecc_bytes
