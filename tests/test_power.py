"""Tests for the DRAM power/energy model."""

import pytest

from repro.memory.dram import DRAMStats
from repro.memory.power import DRAMPowerParams, PowerModel


def stats(reads=0, writes=0, row_misses=0):
    s = DRAMStats()
    s.reads = reads
    s.writes = writes
    s.row_misses = row_misses
    s.row_hits = max(0, reads + writes - row_misses)
    return s


class TestConstruction:
    def test_validation(self):
        with pytest.raises(ValueError):
            PowerModel(data_chips_per_rank=0)
        with pytest.raises(ValueError):
            PowerModel(ecc_chips_per_rank=-1)

    def test_device_overhead_is_papers_12_5_percent(self):
        ecc_dimm = PowerModel(ecc_chips_per_rank=1)
        assert ecc_dimm.ecc_chips / ecc_dimm.data_chips == pytest.approx(0.125)
        assert PowerModel().ecc_chips == 0

    def test_chip_counts(self):
        model = PowerModel(ecc_chips_per_rank=1, total_ranks=4)
        assert model.chips_per_rank == 9
        assert model.total_chips == 36


class TestEnergy:
    def test_zero_run(self):
        report = PowerModel().report(stats(), 0.0)
        assert report.total_mj == 0.0
        assert report.average_w == 0.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            PowerModel().report(stats(), -1.0)

    def test_background_scales_with_chips_and_time(self):
        base = PowerModel().report(stats(), 1e9)  # one second
        ecc = PowerModel(ecc_chips_per_rank=1).report(stats(), 1e9)
        assert ecc.background_mj / base.background_mj == pytest.approx(9 / 8)
        # 45 mW x 32 chips x 1 s = 1440 mJ.
        assert base.background_mj == pytest.approx(45.0 * 32)

    def test_idle_power_overhead_is_12_5_percent(self):
        """The paper's power motivation, at idle: 9 chips vs 8."""
        base = PowerModel().report(stats(), 1e9)
        ecc = PowerModel(ecc_chips_per_rank=1).report(stats(), 1e9)
        assert ecc.total_mj / base.total_mj == pytest.approx(1.125)

    def test_burst_energy_counts_check_bits(self):
        base = PowerModel().report(stats(reads=1000), 1e6)
        ecc = PowerModel(ecc_chips_per_rank=1).report(stats(reads=1000), 1e6)
        assert ecc.read_mj / base.read_mj == pytest.approx(9 / 8)
        # 512 bits x 14 pJ x 1000 reads = 7.17 mJ for the non-ECC DIMM.
        assert base.read_mj == pytest.approx(512 * 14e-9 * 1000)

    def test_activate_energy(self):
        report = PowerModel().report(stats(reads=10, row_misses=10), 0.0)
        assert report.activate_mj == pytest.approx(10 * 1.7 * 8 * 1e-6)

    def test_average_power(self):
        report = PowerModel().report(stats(), 2e9)  # two idle seconds
        # 32 chips x (45 + 4.5) mW.
        assert report.average_w == pytest.approx(32 * 49.5e-3)

    def test_custom_params(self):
        params = DRAMPowerParams(background_mw_per_chip=10.0)
        report = PowerModel(params=params).report(stats(), 1e9)
        assert report.background_mj == pytest.approx(10.0 * 32)

    def test_extra_accesses_cost_energy(self):
        """The ECC-Region baseline's extra reads show up as energy."""
        data_only = PowerModel().report(stats(reads=1000, writes=200), 1e6)
        with_ecc_traffic = PowerModel().report(
            stats(reads=1300, writes=260), 1e6
        )
        assert with_ecc_traffic.total_mj > data_only.total_mj
