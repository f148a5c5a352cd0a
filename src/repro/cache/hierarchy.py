"""Multi-level cache hierarchy (the Table 1 core-side configuration).

The paper's traces were captured with Sniper below private L1/L2 caches
and a shared L3; the interval simulator then replays only L3 misses.
This module provides that upstream machinery: per-core private levels
feeding a shared LLC, with writeback propagation between levels, so raw
access streams can be filtered into the L3-miss epoch traces the
performance model consumes (see :meth:`CacheHierarchy.filter_accesses`).

The hierarchy is non-inclusive non-exclusive (NINE), like most real
parts: lines are installed at every level on fill, and an eviction from
an outer level does not back-invalidate inner ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.cache.cache import SetAssocCache
from repro.workloads.tracegen import Access

__all__ = ["LevelConfig", "TABLE1_LEVELS", "CacheHierarchy", "FilterStats"]


@dataclass(frozen=True)
class LevelConfig:
    """Size/shape of one cache level."""

    name: str
    capacity_bytes: int
    ways: int
    latency_cycles: int
    private: bool  # per-core (L1/L2) vs shared (L3)


#: Table 1: 32 KB/8-way L1D (4 cy), 256 KB/8-way L2 (9 cy),
#: 4 MB/16-way shared L3 (34 cy).
TABLE1_LEVELS = (
    LevelConfig("L1D", 32 << 10, 8, 4, private=True),
    LevelConfig("L2", 256 << 10, 8, 9, private=True),
    LevelConfig("L3", 4 << 20, 16, 34, private=False),
)


@dataclass
class FilterStats:
    accesses: int = 0
    hits_by_level: dict[str, int] = field(default_factory=dict)
    llc_misses: int = 0

    def hit_rate(self, level: str) -> float:
        if not self.accesses:
            return 0.0
        return self.hits_by_level.get(level, 0) / self.accesses

    def as_dict(self) -> dict[str, int]:
        out = {"accesses": self.accesses, "llc_misses": self.llc_misses}
        for level, hits in self.hits_by_level.items():
            out[f"hits.{level}"] = hits
        return out

    def merge(self, other: "FilterStats") -> "FilterStats":
        self.accesses += other.accesses
        self.llc_misses += other.llc_misses
        for level, hits in other.hits_by_level.items():
            self.hits_by_level[level] = self.hits_by_level.get(level, 0) + hits
        return self


class CacheHierarchy:
    """Private levels per core over one shared last level."""

    def __init__(
        self,
        cores: int = 4,
        levels: tuple[LevelConfig, ...] = TABLE1_LEVELS,
    ) -> None:
        if not levels:
            raise ValueError("need at least one cache level")
        if levels[-1].private:
            raise ValueError("the last level must be shared")
        self.cores = cores
        self.levels = levels
        self._private: list[list[SetAssocCache]] = []
        for config in levels[:-1]:
            if not config.private:
                raise ValueError("only the last level may be shared")
            self._private.append(
                [
                    SetAssocCache(
                        config.capacity_bytes,
                        config.ways,
                        name=f"{config.name}[core{core}]",
                    )
                    for core in range(cores)
                ]
            )
        last = levels[-1]
        self.llc = SetAssocCache(last.capacity_bytes, last.ways, name=last.name)
        self.stats = FilterStats()

    # -- per-core access path -----------------------------------------------

    def _core_levels(self, core: int) -> list[SetAssocCache]:
        if not 0 <= core < self.cores:
            raise ValueError(f"core index out of range: {core}")
        return [level[core] for level in self._private]

    def access(self, core: int, addr: int, is_store: bool) -> Optional[str]:
        """One access; returns the level name that hit, or None (L3 miss).

        On an L3 miss the line is installed at every level (the caller is
        expected to service the miss from memory).  Dirty victims
        propagate one level outward; a dirty L3 victim is the hierarchy's
        writeback to DRAM, surfaced via :attr:`pending_writebacks`.
        """
        self.stats.accesses += 1
        caches = self._core_levels(core) + [self.llc]
        for index, cache in enumerate(caches):
            line = cache.lookup(addr)
            if line is not None:
                if is_store:
                    line.dirty = True
                # Fill the inner levels (NINE: no back-invalidation).
                self._fill(caches[:index], addr, line.data, is_store)
                name = (
                    self.levels[index].name
                    if index < len(self.levels)
                    else self.llc.name
                )
                self.stats.hits_by_level[name] = (
                    self.stats.hits_by_level.get(name, 0) + 1
                )
                return name
        self.stats.llc_misses += 1
        return None

    def install(self, core: int, addr: int, data: bytes, is_store: bool) -> list:
        """Install a memory fill at every level; returns dirty L3 victims."""
        caches = self._core_levels(core) + [self.llc]
        return self._fill(caches, addr, data, is_store)

    def _fill(
        self, caches: list[SetAssocCache], addr: int, data: bytes, dirty: bool
    ) -> list:
        """Install into the given levels, cascading dirty victims outward."""
        writebacks = []
        for index, cache in enumerate(caches):
            victim = cache.insert(addr, data, dirty=dirty and index == 0)
            if victim is None or not victim.dirty:
                continue
            if cache is self.llc:
                writebacks.append(victim)
            else:
                # Push the dirty victim one level outward.
                outer = caches[index + 1] if index + 1 < len(caches) else self.llc
                outer_victim = outer.insert(victim.addr, victim.data, dirty=True)
                if (
                    outer is self.llc
                    and outer_victim is not None
                    and outer_victim.dirty
                ):
                    writebacks.append(outer_victim)
        return writebacks

    # -- observability -----------------------------------------------------------

    def publish_metrics(self, registry, prefix: str = "hierarchy") -> None:
        """Mirror filter stats and every level's cache counters.

        Private caches merge across cores into one ``cache.L1D``-style
        namespace per level; the shared LLC publishes under ``cache.L3``
        (or whatever the last level is named).
        """
        registry.update_counters(prefix, self.stats.as_dict())
        from repro.cache.cache import CacheStats

        for config, caches in zip(self.levels[:-1], self._private):
            merged = CacheStats()
            for cache in caches:
                merged.merge(cache.stats)
            stats = merged.as_dict()
            stats["pins"] = stats.pop("alias_pins")
            registry.update_counters(f"cache.{config.name}", stats)
        self.llc.publish_metrics(registry, prefix=f"cache.{self.llc.name}")

    # -- trace filtering --------------------------------------------------------

    def filter_accesses(
        self,
        core: int,
        accesses: Iterable[Access],
        data_of=lambda addr: bytes(64),
    ) -> list[Access]:
        """Reduce a raw access stream to its L3 misses.

        This is the Sniper role in the paper's methodology: the interval
        simulator only sees references that reach DRAM.  ``data_of``
        supplies fill contents (a :class:`BlockSource` in practice).
        """
        misses = []
        for access in accesses:
            if self.access(core, access.addr, access.is_store) is None:
                self.install(core, access.addr, data_of(access.addr), access.is_store)
                misses.append(access)
        return misses
