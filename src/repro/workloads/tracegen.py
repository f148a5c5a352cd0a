"""Synthetic L3-miss traces with interval structure.

The paper's methodology divides execution into intervals between
long-latency miss events; references within an epoch are independent and
overlappable.  The generator emits exactly that shape: each epoch carries
an instruction count (derived from the profile's MPKI) and a group of
miss addresses whose size follows the profile's memory-level parallelism.
Addresses follow a run-based spatial model: with probability ``locality``
the next miss continues the current sequential run (row-buffer-friendly),
otherwise it jumps to a random block of the footprint.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterable, Iterator

import numpy as np

from repro.compression.base import BLOCK_BYTES
from repro.workloads.profiles import BenchmarkProfile

__all__ = ["Access", "Epoch", "EpochArrays", "TraceGenerator"]


@dataclass(frozen=True)
class Access:
    """One L3 miss.  ``is_store`` marks the line dirty once resident."""

    addr: int
    is_store: bool


@dataclass(frozen=True)
class Epoch:
    """An interval: instructions executed, then one overlappable miss group."""

    instructions: int
    accesses: tuple[Access, ...]


@dataclass(frozen=True)
class EpochArrays:
    """Struct-of-arrays form of an epoch trace (the simulator's input).

    The per-object :class:`Epoch`/:class:`Access` stream
    (:meth:`TraceGenerator.epochs` is a view of this form) is pleasant to
    test against, but replaying it one attribute lookup at a time is
    slow.  This flattens a whole trace into four parallel arrays:

    * ``instructions[e]`` — instruction count of epoch ``e`` (uint64);
    * ``starts`` — epoch-boundary offsets into the access arrays, length
      ``epochs + 1`` (uint64): epoch ``e`` owns accesses
      ``starts[e]:starts[e + 1]``;
    * ``addrs[i]`` / ``is_store[i]`` — the flattened miss stream.

    Round-tripping through :meth:`to_epochs` reproduces the original
    stream exactly.
    """

    instructions: np.ndarray
    starts: np.ndarray
    addrs: np.ndarray
    is_store: np.ndarray

    def __post_init__(self) -> None:
        if len(self.starts) != len(self.instructions) + 1:
            raise ValueError("starts must hold one boundary per epoch + 1")
        if len(self.addrs) != len(self.is_store):
            raise ValueError("addrs and is_store must align")
        if len(self.starts) and int(self.starts[-1]) != len(self.addrs):
            raise ValueError("final boundary must close the access stream")

    def __len__(self) -> int:
        return len(self.instructions)

    @property
    def accesses(self) -> int:
        return len(self.addrs)

    @classmethod
    def from_epochs(cls, epochs: Iterable[Epoch]) -> "EpochArrays":
        """Flatten an epoch stream (materialises the whole trace)."""
        instructions: list[int] = []
        starts: list[int] = [0]
        addrs: list[int] = []
        stores: list[bool] = []
        for epoch in epochs:
            instructions.append(epoch.instructions)
            for access in epoch.accesses:
                addrs.append(access.addr)
                stores.append(access.is_store)
            starts.append(len(addrs))
        return cls(
            instructions=np.asarray(instructions, dtype=np.uint64),
            starts=np.asarray(starts, dtype=np.uint64),
            addrs=np.asarray(addrs, dtype=np.uint64),
            is_store=np.asarray(stores, dtype=np.bool_),
        )

    def to_epochs(self) -> Iterator[Epoch]:
        """Inverse of :meth:`from_epochs` (exact round trip)."""
        addrs = self.addrs.tolist()
        stores = self.is_store.tolist()
        bounds = self.starts.tolist()
        for index, instructions in enumerate(self.instructions.tolist()):
            lo, hi = bounds[index], bounds[index + 1]
            yield Epoch(
                int(instructions),
                tuple(
                    Access(addrs[i], stores[i]) for i in range(lo, hi)
                ),
            )


class TraceGenerator:
    """Seeded generator of epochs for one core running one benchmark."""

    def __init__(
        self,
        profile: BenchmarkProfile,
        seed: int = 0,
        footprint_blocks: int | None = None,
        base_addr: int = 0,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self.base_addr = base_addr
        if footprint_blocks is None:
            footprint_blocks = profile.footprint_mb * (1 << 20) // BLOCK_BYTES
        self.footprint_blocks = footprint_blocks
        if self.footprint_blocks < 1:
            raise ValueError("footprint must hold at least one block")
        # String seeds hash deterministically across processes (unlike
        # tuple hashing, which random.Random rejects anyway).
        self._rng = random.Random(f"{seed}|trace|{profile.name}")
        self._cursor = 0  # current sequential-run position (block index)

    def _next_block(self) -> int:
        if self._rng.random() < self.profile.locality:
            self._cursor = (self._cursor + 1) % self.footprint_blocks
        else:
            self._cursor = self._rng.randrange(self.footprint_blocks)
        return self._cursor

    def epochs(self, count: int) -> Iterator[Epoch]:
        """``count`` epochs as objects: a view of :meth:`epoch_arrays`.

        The whole trace is drawn when this is called, not as it is
        iterated.
        """
        return self.epoch_arrays(count).to_epochs()

    def epoch_arrays(self, count: int) -> EpochArrays:
        """``count`` epochs, drawn straight into struct-of-arrays form.

        Per epoch the RNG draws the group size (geometric with mean
        ``mlp``, at least one miss, clamped at ``8 * mlp``), then per
        access the block (:meth:`_next_block`: continue the run with
        probability ``locality``, else jump) and the store flag.
        """
        profile = self.profile
        per_miss_instr = 1000.0 / max(profile.mpki, 1e-3)
        rng_random = self._rng.random
        randrange = self._rng.randrange
        locality = profile.locality
        write_fraction = profile.write_fraction
        base = self.base_addr
        footprint = self.footprint_blocks
        mean = max(profile.mlp, 1.0)
        p = 1.0 / mean
        clamp = 8 * mean
        instructions: list[int] = []
        starts: list[int] = [0]
        addrs: list[int] = []
        stores: list[bool] = []
        addr_append = addrs.append
        store_append = stores.append
        cursor = self._cursor
        for _ in range(count):
            size = 1
            while rng_random() > p:
                size += 1
                if size >= clamp:
                    break
            for _ in range(size):
                if rng_random() < locality:  # _next_block, inlined
                    cursor = (cursor + 1) % footprint
                else:
                    cursor = randrange(footprint)
                addr_append(base + cursor * BLOCK_BYTES)
                store_append(rng_random() < write_fraction)
            instructions.append(max(1, round(per_miss_instr * size)))
            starts.append(len(addrs))
        self._cursor = cursor
        return EpochArrays(
            instructions=np.asarray(instructions, dtype=np.uint64),
            starts=np.asarray(starts, dtype=np.uint64),
            addrs=np.asarray(addrs, dtype=np.uint64),
            is_store=np.asarray(stores, dtype=np.bool_),
        )

    def sample_blocks(self, count: int, source_seed: int = 0) -> Iterator[int]:
        """Addresses only — used by the compressibility experiments."""
        for _ in range(count):
            yield self.base_addr + self._next_block() * BLOCK_BYTES
