"""System configurations for the performance model.

``TABLE1_SYSTEM`` mirrors the paper's simulated machine (Table 1): 3.2 GHz
cores, a shared 4 MB 16-way L3, dual-channel DDR3-1600.  Experiments
default to ``SCALED_SYSTEM`` — the same machine shrunk 8x in LLC and
footprint so a pure-Python run finishes in seconds; all Fig. 10/11 results
are *relative* (normalized IPC, reduction fractions), which the uniform
scaling preserves.  Pass ``TABLE1_SYSTEM`` for full-size runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.memory.dram import DDR3_1600, DRAMConfig

__all__ = ["SystemConfig", "TABLE1_SYSTEM", "SCALED_SYSTEM"]


@dataclass(frozen=True)
class SystemConfig:
    """Core + cache + memory organisation of the simulated machine."""

    cpu_ghz: float = 3.2
    cores: int = 4
    llc_bytes: int = 4 << 20
    llc_ways: int = 16
    dram: DRAMConfig = field(default_factory=lambda: DDR3_1600)
    #: Divider applied to per-benchmark footprints (keeps the
    #: footprint-to-LLC ratio of the paper's setup when scaling down).
    footprint_divider: int = 1
    #: Outstanding-miss limit per core (MSHRs).  Misses within an epoch
    #: overlap only up to this many at a time; 0 means unlimited (the
    #: pure interval-simulation assumption).
    mshrs: int = 16

    @property
    def cycle_ns(self) -> float:
        return 1.0 / self.cpu_ghz

    def cycles(self, ns: float) -> float:
        return ns * self.cpu_ghz


#: The configuration of Table 1.
TABLE1_SYSTEM = SystemConfig()

#: 8x-scaled configuration used by default in the experiment harness.
SCALED_SYSTEM = SystemConfig(llc_bytes=512 << 10, footprint_divider=8)
