"""Set-associative write-back cache with COP's per-line metadata.

Addresses are byte addresses; lines are 64 bytes.  The cache stores block
*data* (bytes) so the functional simulation can track contents end-to-end,
plus the COP flag bits.  Replacement is LRU with alias pinning: lines whose
``alias`` flag is set are not eligible victims (they cannot be written back
to DRAM without confusing the decoder), and if every way of a set is pinned
the insertion spills to an :class:`OverflowRegion` — the linked-list
overflow area of Section 3.1, which exists for correctness, not speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["CacheLine", "CacheStats", "OverflowRegion", "SetAssocCache"]


@dataclass(slots=True)
class CacheLine:
    """One resident line.  ``addr`` is the block-aligned byte address."""

    addr: int
    data: bytes
    dirty: bool = False
    alias: bool = False
    was_uncompressed: bool = False


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    overflow_spills: int = 0
    overflow_hits: int = 0
    alias_pins: int = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.accesses if self.accesses else 0.0

    def as_dict(self) -> dict[str, int]:
        """Every counter field, keyed by name (derived rates excluded)."""
        from dataclasses import fields

        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Accumulate another instance's counts into this one."""
        for name, value in other.as_dict().items():
            setattr(self, name, getattr(self, name) + value)
        return self


class OverflowRegion:
    """Spill area for sets whose every way is a pinned alias.

    The paper arranges overflow blocks as a linked list in a reserved
    sliver of DRAM, found via a per-set overflow flag and a repurposed tag.
    Functionally that is an address-indexed side store with higher access
    latency; the performance model charges ``extra_hops`` DRAM-class
    accesses per lookup that reaches it.
    """

    def __init__(self, extra_hops: int = 2) -> None:
        self.blocks: dict[int, CacheLine] = {}
        self.extra_hops = extra_hops

    def insert(self, line: CacheLine) -> None:
        self.blocks[line.addr] = line

    def lookup(self, addr: int) -> Optional[CacheLine]:
        return self.blocks.get(addr)

    def remove(self, addr: int) -> Optional[CacheLine]:
        return self.blocks.pop(addr, None)

    def __len__(self) -> int:
        return len(self.blocks)


class SetAssocCache:
    """LRU set-associative cache keyed by block-aligned byte addresses.

    Each set is a dict in LRU order: a hit or refill moves its line to the
    end, so the victim is the first line that is not a pinned alias.
    """

    def __init__(
        self,
        capacity_bytes: int,
        ways: int,
        line_bytes: int = 64,
        name: str = "cache",
    ) -> None:
        if capacity_bytes % (ways * line_bytes):
            raise ValueError("capacity must be a whole number of sets")
        self.line_bytes = line_bytes
        self.ways = ways
        self.num_sets = capacity_bytes // (ways * line_bytes)
        if self.num_sets < 1:
            raise ValueError("cache must have at least one set")
        self.name = name
        self._sets: list[dict[int, CacheLine]] = [
            {} for _ in range(self.num_sets)
        ]
        self.overflow = OverflowRegion()
        self.stats = CacheStats()

    # -- operations ----------------------------------------------------------

    def lookup(self, addr: int) -> Optional[CacheLine]:
        """Return the line holding ``addr`` (updating LRU), or None."""
        addr -= addr % self.line_bytes
        cache_set = self._sets[(addr // self.line_bytes) % self.num_sets]
        line = cache_set.pop(addr, None)
        if line is not None:
            cache_set[addr] = line  # now the most recently used
            self.stats.hits += 1
            return line
        spilled = (
            self.overflow.blocks.get(addr) if self.overflow.blocks else None
        )
        if spilled is not None:
            # An overflowed line still counts as cached (it must: aliases
            # cannot live in DRAM), but the performance model charges the
            # pointer-chasing cost via ``overflow.extra_hops``.
            self.stats.hits += 1
            self.stats.overflow_hits += 1
            return spilled
        self.stats.misses += 1
        return None

    def peek(self, addr: int) -> Optional[CacheLine]:
        """Lookup without touching LRU state or stats."""
        addr -= addr % self.line_bytes
        line = self._sets[(addr // self.line_bytes) % self.num_sets].get(addr)
        if line is not None:
            return line
        return self.overflow.lookup(addr)

    def insert(
        self,
        addr: int,
        data: bytes,
        dirty: bool = False,
        alias: bool = False,
        was_uncompressed: bool = False,
    ) -> Optional[CacheLine]:
        """Install a line, returning the victim it pushed out (if any).

        A dirty victim is a writeback candidate.  If the line is already
        resident its contents/flags are updated in place and no eviction
        occurs.
        """
        addr -= addr % self.line_bytes
        if len(data) != self.line_bytes:
            raise ValueError(f"line data must be {self.line_bytes} bytes")
        stats = self.stats
        if alias:
            stats.alias_pins += 1
        cache_set = self._sets[(addr // self.line_bytes) % self.num_sets]
        existing = cache_set.pop(addr, None)
        if existing is not None:
            cache_set[addr] = existing  # now the most recently used
        elif self.overflow.blocks:
            existing = self.overflow.blocks.get(addr)
        if existing is not None:
            existing.data = data
            existing.dirty = existing.dirty or dirty
            existing.alias = alias
            existing.was_uncompressed = was_uncompressed
            return None

        new_line = CacheLine(addr, data, dirty, alias, was_uncompressed)
        if len(cache_set) < self.ways:
            cache_set[addr] = new_line
            return None

        victim: Optional[CacheLine] = None
        for line in cache_set.values():
            if not line.alias:
                victim = line
                break
        if victim is None:
            # Every way pinned by incompressible aliases: spill the new line
            # (clean insertion order keeps resident aliases untouched).
            stats.overflow_spills += 1
            self.overflow.insert(new_line)
            return None
        del cache_set[victim.addr]
        cache_set[addr] = new_line
        stats.evictions += 1
        if victim.dirty:
            stats.writebacks += 1
        return victim

    def invalidate(self, addr: int) -> Optional[CacheLine]:
        """Drop a line without writeback; returns it if it was resident."""
        addr -= addr % self.line_bytes
        line = self._sets[(addr // self.line_bytes) % self.num_sets].pop(addr, None)
        if line is not None:
            return line
        return self.overflow.remove(addr)

    def resident_lines(self) -> list[CacheLine]:
        """All lines currently held (including overflow), unordered."""
        lines = [line for cache_set in self._sets for line in cache_set.values()]
        lines.extend(self.overflow.blocks.values())
        return lines

    def pinned_lines(self) -> int:
        """Lines currently alias-pinned (resident + overflow)."""
        return sum(1 for line in self.resident_lines() if line.alias)

    def publish_metrics(self, registry, prefix: Optional[str] = None) -> None:
        """Mirror this cache's counters into a metrics registry.

        Names land under ``prefix`` (default: the lowercased cache name),
        e.g. ``llc.hits``, ``llc.pins``, ``llc.overflow_spills``.
        """
        prefix = prefix or self.name.lower()
        stats = self.stats.as_dict()
        # ``pins`` is the catalogued name for alias pin events.
        stats["pins"] = stats.pop("alias_pins")
        registry.update_counters(prefix, stats)
        registry.set_gauge(f"{prefix}.pinned_lines", self.pinned_lines())
        registry.set_gauge(f"{prefix}.overflow_lines", len(self.overflow))

    def __contains__(self, addr: int) -> bool:
        return self.peek(addr) is not None
