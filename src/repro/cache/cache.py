"""Set-associative write-back cache with COP's per-line metadata.

Addresses are byte addresses; lines are 64 bytes.  A resident line is a
block address mapped to a small int *flag word*: :data:`DIRTY` and
:data:`ALIAS`.  The cache stores no block data: nothing downstream reads
cached bytes back (the fault-free replay moves classifications, not
payloads), so a fill allocates no per-line object.

Replacement is LRU with alias pinning: lines whose :data:`ALIAS` flag is
set are not eligible victims (they cannot be written back to DRAM without
confusing the decoder), and if every way of a set is pinned the insertion
spills to the overflow dict, the linked-list overflow area of Section 3.1,
which exists for correctness, not speed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

__all__ = ["ALIAS", "DIRTY", "CacheStats", "SetAssocCache"]

#: Flag-word bits of a resident line.
DIRTY = 1
ALIAS = 2


@dataclass
class CacheStats:
    hits: int = 0
    misses: int = 0
    evictions: int = 0
    writebacks: int = 0
    overflow_spills: int = 0
    overflow_hits: int = 0
    alias_pins: int = 0

    def as_dict(self) -> dict[str, int]:
        """Every counter field, keyed by name."""
        from dataclasses import fields

        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Accumulate another instance's counts into this one."""
        for name, value in other.as_dict().items():
            setattr(self, name, getattr(self, name) + value)
        return self


class SetAssocCache:
    """LRU set-associative cache keyed by block-aligned byte addresses.

    Each set is a dict from block address to flag word in LRU order: a
    hit or refill moves its line to the end, so the victim is the first
    line that is not a pinned alias.  ``overflow`` is the spill area for
    sets whose every way is pinned: the paper's per-set linked list in
    reserved DRAM, modelled as one address-indexed flag dict.
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
        self._sets: list[dict[int, int]] = [{} for _ in range(self.num_sets)]
        self.overflow: dict[int, int] = {}
        self.stats = CacheStats()

    # -- operations ----------------------------------------------------------

    def lookup(self, addr: int, store: bool = False) -> bool:
        """Whether ``addr`` is cached, updating LRU; a store hit sets DIRTY."""
        addr -= addr % self.line_bytes
        cache_set = self._sets[(addr // self.line_bytes) % self.num_sets]
        flags = cache_set.pop(addr, None)
        if flags is not None:
            # Now the most recently used.
            cache_set[addr] = flags | DIRTY if store else flags
            self.stats.hits += 1
            return True
        overflow = self.overflow
        if overflow and addr in overflow:
            # An overflowed line still counts as cached: aliases cannot
            # live in DRAM.
            if store:
                overflow[addr] |= DIRTY
            self.stats.hits += 1
            self.stats.overflow_hits += 1
            return True
        self.stats.misses += 1
        return False

    def peek(self, addr: int, store: bool = False) -> Optional[int]:
        """The flag word of ``addr``, or None, without touching LRU or stats.

        ``store`` sets DIRTY on a resident line in place.
        """
        addr -= addr % self.line_bytes
        lines = self._sets[(addr // self.line_bytes) % self.num_sets]
        flags = lines.get(addr)
        if flags is None:
            lines = self.overflow
            flags = lines.get(addr)
            if flags is None:
                return None
        if store:
            flags |= DIRTY
            lines[addr] = flags  # an existing key keeps its LRU position
        return flags

    def insert(
        self, addr: int, dirty: bool = False, alias: bool = False
    ) -> Optional[tuple[int, int]]:
        """Install a line; returns the ``(addr, flags)`` victim it pushed out.

        A dirty victim is a writeback candidate.  If the line is already
        resident its flags are updated in place (DIRTY is sticky) and no
        eviction occurs.
        """
        addr -= addr % self.line_bytes
        stats = self.stats
        flags = DIRTY if dirty else 0
        if alias:
            flags |= ALIAS
            stats.alias_pins += 1
        cache_set = self._sets[(addr // self.line_bytes) % self.num_sets]
        existing = cache_set.pop(addr, None)
        if existing is not None:
            cache_set[addr] = (existing & DIRTY) | flags  # now the MRU line
            return None
        overflow = self.overflow
        if overflow and addr in overflow:
            overflow[addr] = (overflow[addr] & DIRTY) | flags
            return None
        if len(cache_set) < self.ways:
            cache_set[addr] = flags
            return None

        for victim, victim_flags in cache_set.items():
            if not victim_flags & ALIAS:
                break
        else:
            # Every way pinned by incompressible aliases: spill the new line
            # (clean insertion order keeps resident aliases untouched).
            stats.overflow_spills += 1
            overflow[addr] = flags
            return None
        del cache_set[victim]
        cache_set[addr] = flags
        stats.evictions += 1
        if victim_flags & DIRTY:
            stats.writebacks += 1
        return victim, victim_flags

    def resident_lines(self) -> list[tuple[int, int]]:
        """Every ``(addr, flags)`` currently held (including overflow)."""
        lines = [line for cache_set in self._sets for line in cache_set.items()]
        lines.extend(self.overflow.items())
        return lines

    def pinned_lines(self) -> int:
        """Lines currently alias-pinned (resident + overflow)."""
        return sum(1 for _, flags in self.resident_lines() if flags & ALIAS)

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
