"""DRAM power/energy model.

The paper's economic motivation: an ECC DIMM adds a ninth chip per rank —
"incurring a 12.5% hardware overhead ... in addition to substantially
increasing power consumption relative to non-ECC DIMMs".  This model
quantifies that claim for the simulated runs, using a Micron-style
decomposition into per-chip background power, activate/precharge energy,
read/write burst energy and refresh power.  Absolute values are
DDR3-1600-class approximations; the conclusions (the 9/8 device ratio,
the extra-access energy of in-memory ECC baselines) depend only on
ratios.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.memory.dram import DRAMStats

__all__ = ["DRAMPowerParams", "PowerReport", "PowerModel"]


@dataclass(frozen=True)
class DRAMPowerParams:
    """Per-chip energy coefficients (DDR3-1600 x8 class)."""

    background_mw_per_chip: float = 45.0  # IDD3N-class standby, per chip
    refresh_mw_per_chip: float = 4.5  # averaged refresh power
    act_pre_energy_nj_per_chip: float = 1.7  # one ACT+PRE pair
    read_energy_pj_per_bit: float = 14.0  # array + I/O read energy
    write_energy_pj_per_bit: float = 16.0


@dataclass(frozen=True)
class PowerReport:
    """Energy breakdown for one simulated interval."""

    background_mj: float
    refresh_mj: float
    activate_mj: float
    read_mj: float
    write_mj: float
    elapsed_ns: float
    chips: int

    @property
    def total_mj(self) -> float:
        return (
            self.background_mj
            + self.refresh_mj
            + self.activate_mj
            + self.read_mj
            + self.write_mj
        )

    @property
    def average_w(self) -> float:
        if self.elapsed_ns <= 0:
            return 0.0
        return self.total_mj * 1e-3 / (self.elapsed_ns * 1e-9)


class PowerModel:
    """Computes DIMM energy from DRAM activity statistics.

    ``ecc_chips`` adds the ninth chip per rank: it burns background and
    refresh power continuously and participates in every activate and
    burst (the check byte transfers alongside the data).
    """

    def __init__(
        self,
        params: DRAMPowerParams | None = None,
        data_chips_per_rank: int = 8,
        ecc_chips_per_rank: int = 0,
        total_ranks: int = 4,  # Table 1: 2 channels x 2 ranks
        block_bytes: int = 64,
    ) -> None:
        if data_chips_per_rank < 1 or ecc_chips_per_rank < 0:
            raise ValueError("invalid chip counts")
        self.params = params or DRAMPowerParams()
        self.data_chips = data_chips_per_rank
        self.ecc_chips = ecc_chips_per_rank
        self.total_ranks = total_ranks
        self.block_bytes = block_bytes

    @property
    def chips_per_rank(self) -> int:
        return self.data_chips + self.ecc_chips

    @property
    def total_chips(self) -> int:
        return self.chips_per_rank * self.total_ranks

    def _burst_bits(self) -> float:
        """Bits moved per 64-byte access, including any check bits."""
        return 8 * self.block_bytes * (self.chips_per_rank / self.data_chips)

    def report(self, stats: DRAMStats, elapsed_ns: float) -> PowerReport:
        """Energy for a run summarised by ``stats`` over ``elapsed_ns``."""
        if elapsed_ns < 0:
            raise ValueError("elapsed time must be non-negative")
        params = self.params
        seconds = elapsed_ns * 1e-9
        background_mj = params.background_mw_per_chip * self.total_chips * seconds
        refresh_mj = params.refresh_mw_per_chip * self.total_chips * seconds
        activates = stats.row_misses
        activate_mj = (
            activates
            * params.act_pre_energy_nj_per_chip
            * self.chips_per_rank
            * 1e-6
        )
        bits = self._burst_bits()
        read_mj = stats.reads * bits * params.read_energy_pj_per_bit * 1e-9
        write_mj = stats.writes * bits * params.write_energy_pj_per_bit * 1e-9
        return PowerReport(
            background_mj=background_mj,
            refresh_mj=refresh_mj,
            activate_mj=activate_mj,
            read_mj=read_mj,
            write_mj=write_mj,
            elapsed_ns=elapsed_ns,
            chips=self.total_chips,
        )
