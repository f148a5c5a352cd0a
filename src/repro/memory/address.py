"""Physical address mapping onto channels, ranks, banks, rows and columns.

The mapper decomposes a block-aligned byte address into DRAM coordinates.
The default field order (most to least significant)
``row : rank : bank : col : channel`` gives consecutive blocks alternating
channels (bandwidth) while keeping runs of blocks within one row per
channel (row-buffer locality) — the usual open-page-friendly layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = ["DRAMGeometry", "MappedAddress", "AddressMapper"]


@dataclass(frozen=True)
class DRAMGeometry:
    """Organisation of the memory system (Table 1 defaults)."""

    channels: int = 2
    ranks_per_channel: int = 2  # 1 DIMM/channel x 2 ranks/DIMM
    banks_per_rank: int = 8
    row_bytes: int = 8192  # 1 KB per x8 chip x 8 chips
    block_bytes: int = 64
    capacity_bytes: int = 8 << 30

    def __post_init__(self) -> None:
        for name in ("channels", "ranks_per_channel", "banks_per_rank"):
            value = getattr(self, name)
            if value < 1 or value & (value - 1):
                raise ValueError(f"{name} must be a positive power of two")
        if self.row_bytes % self.block_bytes:
            raise ValueError("rows must hold whole blocks")

    @property
    def blocks_per_row(self) -> int:
        return self.row_bytes // self.block_bytes

    @property
    def num_rows(self) -> int:
        per_bank = self.capacity_bytes // (
            self.channels * self.ranks_per_channel * self.banks_per_rank
        )
        return per_bank // self.row_bytes

    @property
    def total_blocks(self) -> int:
        return self.capacity_bytes // self.block_bytes


class MappedAddress(NamedTuple):
    channel: int
    rank: int
    bank: int
    row: int
    col: int  # block index within the row


class AddressMapper:
    """Bit-field address decomposition with a configurable field order."""

    #: Field order from most significant to least significant.
    DEFAULT_ORDER = ("row", "rank", "bank", "col", "channel")

    def __init__(
        self,
        geometry: DRAMGeometry | None = None,
        order: tuple[str, ...] = DEFAULT_ORDER,
    ) -> None:
        self.geometry = geometry or DRAMGeometry()
        sizes = {
            "channel": self.geometry.channels,
            "rank": self.geometry.ranks_per_channel,
            "bank": self.geometry.banks_per_rank,
            "col": self.geometry.blocks_per_row,
            "row": self.geometry.num_rows,
        }
        if sorted(order) != sorted(sizes):
            raise ValueError(f"order must name each field once, got {order}")
        self.order = order
        self._sizes = sizes

    def map(self, addr: int) -> MappedAddress:
        """Decompose a byte address (block aligned or not)."""
        block = (addr // self.geometry.block_bytes) % self.geometry.total_blocks
        fields = {}
        for name in reversed(self.order):  # least significant first
            size = self._sizes[name]
            fields[name] = block % size
            block //= size
        return MappedAddress(**fields)

    def map_arrays(self, addrs: np.ndarray) -> dict[str, np.ndarray]:
        """Vectorised :meth:`map`: decompose many addresses at once.

        ``addrs`` is an integer array of byte addresses; the result maps
        each field name to an int64 array, elementwise identical to
        ``map(addr)`` (all field sizes are exact integers, so the numpy
        floor divisions reproduce the scalar arithmetic bit for bit).
        """
        block = (
            addrs.astype(np.int64) // self.geometry.block_bytes
        ) % self.geometry.total_blocks
        fields: dict[str, np.ndarray] = {}
        for name in reversed(self.order):  # least significant first
            size = self._sizes[name]
            fields[name] = block % size
            block = block // size
        return fields

    def compose_arrays(self, fields: dict[str, np.ndarray]) -> np.ndarray:
        """Vectorised :meth:`compose`: the inverse of :meth:`map_arrays`."""
        block = np.zeros_like(fields[self.order[0]])
        for name in self.order:  # most significant first
            block = block * self._sizes[name] + fields[name]
        return block * self.geometry.block_bytes

    def compose(self, mapped: MappedAddress) -> int:
        """Inverse of :meth:`map`; returns the block-aligned byte address."""
        block = 0
        for name in self.order:  # most significant first
            block = block * self._sizes[name] + getattr(mapped, name)
        return block * self.geometry.block_bytes
