"""Tests for the reliability substrate: PARMA tracker, analysis, injection."""

import pytest

from repro.core.config import COPConfig
from repro.core.controller import ProtectedMemory, ProtectionMode
from repro.reliability.analysis import (
    RAW_FIT_PER_MBIT,
    coper_vs_ecc_dimm_ratio,
    double_error_outcome_probs,
    expected_failures,
    fit_to_failures_per_bit_ns,
    same_word_double_error_weight,
)
from repro.reliability.injection import FaultInjector
from repro.reliability.parma import VulnerabilityTracker


class TestFitArithmetic:
    def test_unit_conversion(self):
        # 5000 FIT/Mbit = 5000 failures per 1e9 hours per 1e6 bits.
        per_bit_hour = fit_to_failures_per_bit_ns() * 3600e9
        assert per_bit_hour == pytest.approx(5000 / 1e9 / 1e6)

    def test_expected_failures_linear(self):
        assert expected_failures(0.0) == 0.0
        assert expected_failures(2e30) == pytest.approx(
            2 * expected_failures(1e30)
        )

    def test_raw_rate_constant(self):
        assert RAW_FIT_PER_MBIT == 5000.0


class TestMultiBitAnalysis:
    def test_same_word_weight(self):
        assert same_word_double_error_weight([72] * 8) == 8 * 72 * 72
        assert same_word_double_error_weight([523]) == 523 * 523

    def test_coper_vs_dimm_is_papers_6x(self):
        assert coper_vs_ecc_dimm_ratio() == pytest.approx(6.6, abs=0.2)

    def test_double_error_split_4byte(self):
        probs = double_error_outcome_probs(COPConfig.four_byte())
        assert probs["detected"] == pytest.approx(127 / 511)
        assert probs["silent"] == pytest.approx(1 - 127 / 511)
        assert probs["corrected"] == 0.0

    def test_double_error_split_8byte(self):
        """8x(64,56) with threshold 5 still corrects two spread errors."""
        probs = double_error_outcome_probs(COPConfig.eight_byte())
        assert probs["silent"] == 0.0
        assert probs["corrected"] > 0.8


class TestVulnerabilityTracker:
    def test_single_interval(self):
        tracker = VulnerabilityTracker()
        tracker.on_write(0, 0.0, protected=True)
        tracker.on_read(0, 10.0)
        report = tracker.report()
        assert report.protected_bit_ns == pytest.approx(512 * 10.0)
        assert report.unprotected_bit_ns == 0.0
        assert report.error_rate_reduction == 1.0

    def test_repeated_reads_count_time_once(self):
        tracker = VulnerabilityTracker()
        tracker.on_write(0, 0.0, protected=False)
        tracker.on_read(0, 5.0)
        tracker.on_read(0, 9.0)
        assert tracker.report().unprotected_bit_ns == pytest.approx(512 * 9.0)

    def test_mixed_protection_split(self):
        tracker = VulnerabilityTracker()
        tracker.on_write(0, 0.0, protected=True)
        tracker.on_write(64, 0.0, protected=False)
        tracker.on_read(0, 10.0)
        tracker.on_read(64, 30.0)
        report = tracker.report()
        assert report.error_rate_reduction == pytest.approx(10 / 40)

    def test_rewrite_resets_clock_and_protection(self):
        tracker = VulnerabilityTracker()
        tracker.on_write(0, 0.0, protected=False)
        tracker.on_write(0, 8.0, protected=True)
        tracker.on_read(0, 10.0)
        report = tracker.report()
        assert report.protected_bit_ns == pytest.approx(512 * 2.0)
        assert report.unprotected_bit_ns == 0.0

    def test_read_before_any_write(self):
        tracker = VulnerabilityTracker()
        tracker.on_read(0, 4.0)
        assert tracker.report().unprotected_bit_ns == pytest.approx(512 * 4.0)

    def test_failures_scale_with_unprotected_share(self):
        tracker = VulnerabilityTracker()
        tracker.on_write(0, 0.0, protected=False)
        tracker.on_read(0, 1e9)
        report = tracker.report()
        assert report.failures() == pytest.approx(
            report.failures_unprotected_baseline()
        )
        assert report.failures() > 0

    def test_empty_report(self):
        report = VulnerabilityTracker().report()
        assert report.error_rate_reduction == 0.0
        assert report.failures() == 0.0


class TestFaultInjector:
    def _memory(self, mode, blocks=200):
        from repro.workloads.blocks import BlockSource
        from repro.workloads.profiles import PROFILES

        source = BlockSource(PROFILES["gcc"], seed=3)
        memory = ProtectedMemory(mode)
        golden = {}
        addr = 0
        while len(golden) < blocks:
            data = source.block(addr)
            if memory.write(addr, data).accepted:
                golden[addr] = data
            addr += 4096
        return memory, golden

    def test_unprotected_always_silent(self):
        memory, golden = self._memory(ProtectionMode.UNPROTECTED)
        stats = FaultInjector(memory, golden, seed=1).run_campaign(100)
        assert stats.silent == 100
        assert stats.survival_rate == 0.0

    def test_coper_survives_all_single_flips(self):
        memory, golden = self._memory(ProtectionMode.COP_ER)
        stats = FaultInjector(memory, golden, seed=1).run_campaign(150)
        assert stats.survival_rate == 1.0
        assert stats.silent == 0

    def test_cop_survival_tracks_compressibility(self):
        memory, golden = self._memory(ProtectionMode.COP)
        compressed = memory.stats.compressed_writes / memory.stats.writes
        stats = FaultInjector(memory, golden, seed=1).run_campaign(400)
        assert stats.survival_rate == pytest.approx(compressed, abs=0.12)

    def test_trials_restore_pristine_state(self):
        memory, golden = self._memory(ProtectionMode.COP, blocks=50)
        before = dict(memory.contents)
        FaultInjector(memory, golden, seed=2).run_campaign(100)
        assert memory.contents == before

    def test_outcomes_bucketed_by_flip_count(self):
        memory, golden = self._memory(ProtectionMode.COP, blocks=50)
        injector = FaultInjector(memory, golden, seed=3)
        injector.run_campaign(30, flips=1)
        injector.run_campaign(30, flips=2)
        assert set(injector.stats.outcomes_by_flips) == {1, 2}
        assert sum(injector.stats.outcomes_by_flips[1].values()) == 30

    def test_golden_validation(self):
        memory, _ = self._memory(ProtectionMode.COP, blocks=10)
        with pytest.raises(ValueError):
            FaultInjector(memory, {0: b"short"})

    def test_double_error_in_one_word_is_detected_not_silent(self):
        """Regression: a 2-bit error confined to one code word of a
        compressed block must surface as detected-uncorrectable and
        reach the controller's reliability stats."""
        memory = ProtectedMemory(ProtectionMode.COP)
        data = bytes(64)  # all-zero block compresses under every scheme
        assert memory.write(0, data).compressed
        memory.flip_bit(0, 0)
        memory.flip_bit(0, 1)  # both flips land in word 0's data bits
        result = memory.read(0)
        assert result.uncorrectable
        assert memory.stats.uncorrectable_blocks == 1

    def test_detected_outcome_wins_over_matching_bytes(self):
        """Regression for the classification order: two flips in one
        word's *check* byte corrupt no data bits, so the readback equals
        golden — but the word is detected-uncorrectable, which raises a
        machine check.  The trial must count as detected, not masked."""
        memory = ProtectedMemory(ProtectionMode.COP)
        data = bytes(64)
        assert memory.write(0, data).compressed
        injector = FaultInjector(memory, {0: data}, seed=0)

        class _Fixed:
            def choice(self, seq):
                return 0

            def sample(self, population, k):
                # Word 0's check byte: stored bits 120..127.
                return [120, 121]

        injector.rng = _Fixed()
        outcome = injector.run_trial(flips=2)
        read_back = memory.read(0)
        assert read_back.data == data  # bytes match golden...
        assert outcome == "detected"  # ...yet the trial is a machine check
        assert injector.stats.detected == 1
        assert injector.stats.masked == 0

    @pytest.mark.parametrize(
        "config",
        [COPConfig.four_byte(), COPConfig.eight_byte()],
        ids=["four_byte", "eight_byte"],
    )
    def test_double_flip_split_matches_closed_form(self, config):
        """Monte-Carlo double flips land in the Sec. 3.1 closed-form split."""
        memory = ProtectedMemory(ProtectionMode.COP, config=config)
        block = bytes(64)  # compressible: every trial hits a compressed block
        golden = {}
        for i in range(50):
            assert memory.write(i * 64, block).compressed
            golden[i * 64] = block
        stats = FaultInjector(memory, golden, seed=5).run_campaign(600, flips=2)
        model = double_error_outcome_probs(config)
        for outcome in ("detected", "silent", "corrected"):
            assert getattr(stats, outcome) / stats.trials == pytest.approx(
                model[outcome], abs=0.06
            ), outcome
