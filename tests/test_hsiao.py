"""Unit and property tests for the Hsiao SECDED construction."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ecc.hsiao import CodeStatus, HsiaoCode, odd_weight_columns

GEOMETRIES = [(72, 64), (128, 120), (64, 56), (523, 512), (512, 501)]


class TestColumnConstruction:
    def test_columns_are_odd_weight(self):
        for column in odd_weight_columns(8, 120):
            assert column.bit_count() % 2 == 1
            assert column.bit_count() >= 3

    def test_columns_distinct(self):
        columns = odd_weight_columns(8, 120)
        assert len(set(columns)) == 120

    def test_deterministic(self):
        assert odd_weight_columns(8, 64) == odd_weight_columns(8, 64)

    def test_weight_major_order(self):
        columns = odd_weight_columns(8, 120)
        weights = [c.bit_count() for c in columns]
        assert weights == sorted(weights)

    def test_classic_72_64_distribution(self):
        # Hsiao's (72,64): all 56 weight-3 columns plus 8 weight-5.
        columns = odd_weight_columns(8, 64)
        by_weight = {}
        for c in columns:
            by_weight[c.bit_count()] = by_weight.get(c.bit_count(), 0) + 1
        assert by_weight == {3: 56, 5: 8}

    def test_exhausted_space_raises(self):
        with pytest.raises(ValueError):
            odd_weight_columns(4, 100)


class TestConstructionValidation:
    def test_rejects_n_le_k(self):
        with pytest.raises(ValueError):
            HsiaoCode(64, 64)

    def test_rejects_too_few_check_bits(self):
        with pytest.raises(ValueError):
            HsiaoCode(10, 7)

    @pytest.mark.parametrize("n,k", GEOMETRIES)
    def test_geometry(self, n, k):
        code = HsiaoCode(n, k)
        assert (code.n, code.k, code.r) == (n, k, n - k)
        assert len(code.columns) == n
        assert len(set(code.columns)) == n


@pytest.fixture(scope="module")
def code128():
    return HsiaoCode(128, 120)


class TestEncodeDecode:
    def test_zero_data_is_zero_codeword(self, code128):
        assert code128.encode(0) == 0
        assert code128.syndrome(0) == 0

    def test_encode_rejects_oversized(self, code128):
        with pytest.raises(ValueError):
            code128.encode(1 << 120)

    def test_syndrome_rejects_oversized(self, code128):
        with pytest.raises(ValueError):
            code128.syndrome(1 << 128)

    def test_data_and_check_extraction(self, code128):
        word = code128.encode(0xDEADBEEF)
        assert code128.decode(word).data == 0xDEADBEEF
        assert word == 0xDEADBEEF | (code128.check_of(word) << 120)

    @pytest.mark.parametrize("n,k", GEOMETRIES)
    def test_roundtrip_random(self, n, k):
        code = HsiaoCode(n, k)
        rng = random.Random(n * 1000 + k)
        for _ in range(20):
            data = rng.getrandbits(k)
            word = code.encode(data)
            assert code.syndrome(word) == 0
            assert code.is_codeword(word)
            result = code.decode(word)
            assert result.status is CodeStatus.CLEAN
            assert result.data == data

    def test_every_single_bit_error_corrected(self, code128):
        rng = random.Random(3)
        data = rng.getrandbits(120)
        word = code128.encode(data)
        for pos in range(128):
            result = code128.decode(word ^ (1 << pos))
            assert result.status is CodeStatus.CORRECTED
            assert result.data == data
            assert result.corrected_bit == pos
            assert result.codeword == word

    def test_every_double_bit_error_detected_sampled(self, code128):
        rng = random.Random(4)
        data = rng.getrandbits(120)
        word = code128.encode(data)
        for _ in range(300):
            a = rng.randrange(128)
            b = (a + 1 + rng.randrange(127)) % 128
            result = code128.decode(word ^ (1 << a) ^ (1 << b))
            assert result.status is CodeStatus.DETECTED

    @given(
        data=st.integers(min_value=0, max_value=(1 << 56) - 1),
        pos=st.integers(min_value=0, max_value=63),
    )
    @settings(max_examples=60)
    def test_single_error_correction_property_64_56(self, data, pos):
        code = HsiaoCode(64, 56)
        word = code.encode(data)
        result = code.decode(word ^ (1 << pos))
        assert result.status is CodeStatus.CORRECTED
        assert result.data == data

    @given(
        data=st.integers(min_value=0, max_value=(1 << 56) - 1),
        pair=st.tuples(
            st.integers(min_value=0, max_value=63),
            st.integers(min_value=0, max_value=63),
        ).filter(lambda p: p[0] != p[1]),
    )
    @settings(max_examples=60)
    def test_double_error_detection_property_64_56(self, data, pair):
        code = HsiaoCode(64, 56)
        word = code.encode(data) ^ (1 << pair[0]) ^ (1 << pair[1])
        assert code.decode(word).status is CodeStatus.DETECTED


class TestBulkPath:
    def test_matches_scalar(self, code128):
        rng = random.Random(5)
        raw = rng.randbytes(16 * 200)
        words = np.frombuffer(raw, dtype=np.uint8).reshape(200, 16)
        bulk = code128.syndrome_many(words)
        for i in range(200):
            scalar = code128.syndrome(int.from_bytes(words[i].tobytes(), "little"))
            assert bulk[i] == scalar

    def test_valid_many_flags_codewords(self, code128):
        rng = random.Random(6)
        words = np.zeros((50, 16), dtype=np.uint8)
        expected = np.zeros(50, dtype=bool)
        for i in range(50):
            if i % 2:
                word = code128.encode(rng.getrandbits(120))
                expected[i] = True
            else:
                word = rng.getrandbits(128) | 1  # almost surely invalid
                expected[i] = code128.syndrome(word) == 0
            words[i] = np.frombuffer(word.to_bytes(16, "little"), dtype=np.uint8)
        assert (code128.valid_many(words) == expected).all()

    def test_shape_validation(self, code128):
        with pytest.raises(ValueError):
            code128.syndrome_many(np.zeros((4, 8), dtype=np.uint8))

    def test_random_word_validity_rate(self, code128):
        # P(valid) for random words is 2^-8; check within sampling noise.
        rng = np.random.default_rng(7)
        words = rng.integers(0, 256, size=(200_000, 16), dtype=np.uint8)
        rate = code128.valid_many(words).mean()
        assert abs(rate - 1 / 256) < 0.001
