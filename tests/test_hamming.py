"""Unit tests for the Hamming SEC code (COP-ER pointer protection)."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.hamming import HammingSEC
from repro.ecc.hsiao import CodeStatus


class TestConstruction:
    def test_pointer_geometry(self):
        code = HammingSEC(34, 28)
        assert code.r == 6
        assert len(code.columns) == 34
        assert len(set(code.columns)) == 34
        assert all(c != 0 for c in code.columns)

    def test_rejects_n_le_k(self):
        with pytest.raises(ValueError):
            HammingSEC(28, 28)

    def test_rejects_insufficient_check_bits(self):
        # 5 check bits cover at most 2^5 - 1 = 31 total bits.
        with pytest.raises(ValueError):
            HammingSEC(34, 29)

    def test_capacity_boundary(self):
        # 6 check bits cover up to 63 total bits: (63,57) works.
        code = HammingSEC(63, 57)
        assert code.r == 6
        with pytest.raises(ValueError):
            HammingSEC(64, 58)


class TestEncodeDecode:
    def test_roundtrip(self):
        code = HammingSEC(34, 28)
        rng = random.Random(1)
        for _ in range(50):
            data = rng.getrandbits(28)
            word = code.encode(data)
            assert code.syndrome(word) == 0
            assert code.decode(word).data == data

    def test_every_single_bit_error_corrected(self):
        code = HammingSEC(34, 28)
        data = 0x0ABCDEF
        word = code.encode(data)
        for pos in range(34):
            result = code.decode(word ^ (1 << pos))
            assert result.status is CodeStatus.CORRECTED
            assert result.data == data
            assert result.corrected_bit == pos

    def test_encode_rejects_oversized(self):
        with pytest.raises(ValueError):
            HammingSEC(34, 28).encode(1 << 28)

    def test_syndrome_rejects_oversized(self):
        with pytest.raises(ValueError):
            HammingSEC(34, 28).syndrome(1 << 34)

    @given(
        data=st.integers(min_value=0, max_value=(1 << 28) - 1),
        pos=st.integers(min_value=0, max_value=33),
    )
    @settings(max_examples=60)
    def test_sec_property(self, data, pos):
        code = HammingSEC(34, 28)
        result = code.decode(code.encode(data) ^ (1 << pos))
        assert result.status is CodeStatus.CORRECTED
        assert result.data == data

    def test_double_errors_not_guaranteed_detected(self):
        """Documents the SEC (not SECDED) limitation the paper accepts."""
        code = HammingSEC(34, 28)
        word = code.encode(0x1234567)
        outcomes = set()
        rng = random.Random(2)
        for _ in range(100):
            a = rng.randrange(34)
            b = (a + 1 + rng.randrange(33)) % 34
            outcomes.add(code.decode(word ^ (1 << a) ^ (1 << b)).status)
        # Double errors produce *some* non-clean outcome; miscorrection
        # (CORRECTED with wrong data) is possible for a pure SEC code.
        assert CodeStatus.CLEAN not in outcomes
