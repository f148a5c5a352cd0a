"""Headline regression tests: the reproduction vs the paper's claims.

These run the cheap (analytic / compressibility) headline comparisons at
test time; the expensive simulation headlines are asserted by the
benchmark harness instead.  Tolerances are generous — our workloads are
synthetic — but tight enough that a regression in any scheme or in the
codec shows up immediately.
"""

import pytest

from repro.core.alias import alias_probability, valid_codeword_probability
from repro.core.config import COPConfig
from repro.paper import CLAIMS, claim
from repro.reliability.analysis import RAW_FIT_PER_MBIT, coper_vs_ecc_dimm_ratio


class TestRegistry:
    def test_all_claims_have_provenance(self):
        for c in CLAIMS.values():
            assert c.where and c.statement

    def test_lookup_error_lists_keys(self):
        with pytest.raises(KeyError, match="known:"):
            claim("nope")


class TestAnalyticHeadlines:
    def test_valid_word_probability(self):
        assert valid_codeword_probability() == pytest.approx(
            claim("valid_word_probability").value, rel=0.01
        )

    def test_block_alias_probability(self):
        assert alias_probability() == pytest.approx(
            claim("block_alias_probability").value, rel=0.2
        )

    def test_coper_vs_ecc_dimm(self):
        assert coper_vs_ecc_dimm_ratio() == pytest.approx(
            claim("coper_vs_ecc_dimm_ratio").value, rel=0.15
        )

    def test_decompress_latency_default(self):
        assert COPConfig().decompress_latency == claim(
            "decompress_latency_cycles"
        ).value

    def test_raw_fit(self):
        assert RAW_FIT_PER_MBIT == claim("raw_fit_per_mbit").value


class TestCompressibilityHeadlines:
    @pytest.fixture(scope="class")
    def fig9_small(self):
        from repro.experiments import compressibility
        from repro.experiments.common import Scale

        return compressibility.run(4, Scale.SMOKE)

    def test_combined_average(self, fig9_small):
        from repro.workloads.profiles import MEMORY_INTENSIVE

        values = fig9_small.column("TXT+MSB+RLE")[: len(MEMORY_INTENSIVE)]
        average = sum(values) / len(values)
        assert average == pytest.approx(
            claim("combined_compressibility_avg").value, abs=0.08
        )

    def test_msb_average(self, fig9_small):
        from repro.workloads.profiles import MEMORY_INTENSIVE

        values = fig9_small.column("MSB")[: len(MEMORY_INTENSIVE)]
        average = sum(values) / len(values)
        assert average == pytest.approx(
            claim("msb_compressibility_avg").value, abs=0.15
        )

    def test_msb_shift_gain_direction(self):
        from repro.experiments import fig04_msb_shift
        from repro.experiments.common import Scale

        table = fig04_msb_shift.run(Scale.SMOKE)
        unshifted, shifted = table.row("Average")
        gain = shifted - unshifted
        # The paper reports ~15pp; our synthetic FP mix lands in range.
        assert 0.05 < gain < 0.45

    def test_ecc_dimm_device_overhead(self):
        from repro.memory.power import PowerModel

        ecc_dimm = PowerModel(ecc_chips_per_rank=1)
        assert ecc_dimm.ecc_chips / ecc_dimm.data_chips == claim(
            "ecc_dimm_device_overhead"
        ).value
