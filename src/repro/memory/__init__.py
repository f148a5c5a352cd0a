"""DRAM substrate: a DDR3-1600-class main-memory timing model.

The paper backs its interval simulator with DRAMSim2; this package plays
that role at the fidelity the evaluation needs — per-bank row-buffer state,
bank timing constraints (tRCD / tRP / CL / tRAS / burst), per-channel data
bus serialisation, and the Table 1 organisation (2 channels, 1 DIMM per
channel, 2 ranks per DIMM, 8 banks per rank, 8 GB total).
"""

from repro.memory.address import AddressMapper, DRAMGeometry, MappedAddress
from repro.memory.power import DRAMPowerParams, PowerModel, PowerReport
from repro.memory.dram import (
    DDR3_1600,
    PagePolicy,
    AccessTiming,
    DRAMConfig,
    DRAMStats,
    DRAMSystem,
    DRAMTiming,
)

__all__ = [
    "DRAMGeometry",
    "AddressMapper",
    "MappedAddress",
    "DRAMTiming",
    "DRAMConfig",
    "DDR3_1600",
    "PagePolicy",
    "DRAMSystem",
    "DRAMStats",
    "AccessTiming",
    "DRAMPowerParams",
    "PowerModel",
    "PowerReport",
]
