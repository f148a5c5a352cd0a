"""Tests for the multi-level cache hierarchy."""

import pytest

from repro.cache.cache import DIRTY
from repro.cache.hierarchy import TABLE1_LEVELS, CacheHierarchy, LevelConfig
from repro.workloads.tracegen import Access


def small_hierarchy(cores=2):
    levels = (
        LevelConfig("L1", 2 * 64, 2, 4, private=True),
        LevelConfig("L2", 8 * 64, 2, 9, private=True),
        LevelConfig("L3", 32 * 64, 4, 34, private=False),
    )
    return CacheHierarchy(cores=cores, levels=levels)


class TestConstruction:
    def test_table1_levels(self):
        names = [level.name for level in TABLE1_LEVELS]
        assert names == ["L1D", "L2", "L3"]
        assert TABLE1_LEVELS[-1].capacity_bytes == 4 << 20
        assert not TABLE1_LEVELS[-1].private

    def test_last_level_must_be_shared(self):
        with pytest.raises(ValueError):
            CacheHierarchy(levels=(LevelConfig("L1", 64, 1, 1, private=True),))

    def test_inner_levels_must_be_private(self):
        with pytest.raises(ValueError):
            CacheHierarchy(
                levels=(
                    LevelConfig("L1", 64, 1, 1, private=False),
                    LevelConfig("L3", 640, 1, 1, private=False),
                )
            )

    def test_empty_levels_rejected(self):
        with pytest.raises(ValueError):
            CacheHierarchy(levels=())

    def test_core_index_validated(self):
        with pytest.raises(ValueError):
            small_hierarchy(cores=2).access(2, 0, False)


class TestAccessPath:
    def test_cold_miss_then_l1_hit(self):
        h = small_hierarchy()
        assert h.access(0, 0, False) is None
        h.install(0, 0, False)
        assert h.access(0, 0, False) == "L1"

    def test_hit_levels_reported(self):
        h = small_hierarchy()
        h.install(0, 0, False)
        # Evict addr 0 from core 0's tiny L1 by filling its set.
        for i in range(1, 4):
            h.install(0, i * 2 * 64, False)
        level = h.access(0, 0, False)
        assert level in ("L2", "L3")

    def test_shared_l3_serves_other_core(self):
        h = small_hierarchy()
        h.install(0, 4096, False)
        # Core 1 never touched it: private levels miss, shared L3 hits.
        assert h.access(1, 4096, False) == "L3"
        # And the hit refilled core 1's private levels.
        assert h.access(1, 4096, False) == "L1"

    def test_store_dirties_innermost(self):
        h = small_hierarchy()
        h.install(0, 0, False)
        h.access(0, 0, True)
        assert h._private[0][0].peek(0) == DIRTY

    def test_dirty_l3_victims_surface(self):
        h = small_hierarchy(cores=1)
        writebacks = []
        for i in range(200):
            addr = i * 64
            if h.access(0, addr, True) is None:
                writebacks += h.install(0, addr, True)
        assert writebacks, "a 32-line L3 must evict dirty lines"
        assert all(flags & DIRTY for _, flags in writebacks)
        assert h.stats.llc_writebacks == len(writebacks)

    def test_hit_fill_pushes_dirty_victim_to_the_level_that_hit(self):
        """Regression: a fill after an L2 hit pushed L1's dirty victim
        past L2 into L3, leaving L2 a stale clean copy."""
        h = CacheHierarchy(
            cores=1,
            levels=(
                LevelConfig("L1", 64, 1, 4, private=True),
                LevelConfig("L2", 2 * 64, 2, 9, private=True),
                LevelConfig("L3", 4 * 64, 4, 34, private=False),
            ),
        )
        a, b = 0, 64
        h.install(0, a, False)
        assert h.access(0, b, True) is None
        h.install(0, b, True)  # B dirty in L1, clean in L2 and L3
        assert h.access(0, a, False) == "L2"
        l1, l2 = (level[0] for level in h._private)
        assert l1.peek(a) == 0 and l1.peek(b) is None
        assert l2.peek(b) == DIRTY
        assert h.llc.peek(b) == 0
        assert h.stats.llc_writebacks == 0

    def test_hit_fill_surfaces_llc_writebacks(self):
        """A dirty victim that a hit's fill pushes outward can evict a
        dirty LLC line; that is a writeback."""
        h = CacheHierarchy(
            cores=2,
            levels=(
                LevelConfig("L1", 64, 1, 4, private=True),
                LevelConfig("L3", 2 * 64, 2, 34, private=False),
            ),
        )
        x, p, q = 0, 64, 128
        h.install(0, x, True)  # X dirty in core 0's L1
        h.install(1, p, True)
        h.install(1, q, True)  # L3 holds dirty P and clean Q; X left it
        assert h.stats.llc_writebacks == 0
        assert h.access(0, q, False) == "L3"
        # Core 0's dirty X moves into L3 and evicts dirty P.
        assert h.llc.peek(x) == DIRTY and h.llc.peek(p) is None
        assert h.stats.llc_writebacks == 1


class TestTraceFiltering:
    def test_filter_reduces_stream(self):
        h = small_hierarchy(cores=1)
        # A loop over 8 blocks: first pass misses, later passes hit.
        stream = [Access((i % 8) * 64, False) for i in range(80)]
        misses = h.filter_accesses(0, stream)
        assert len(misses) == 8
        assert h.stats.llc_misses == 8
        assert h.stats.accesses == 80
        # A cyclic 8-block loop defeats the 2-line LRU L1 but lives in L2.
        assert h.stats.hit_rate("L2") > 0.5

    def test_tight_loop_hits_l1(self):
        h = small_hierarchy(cores=1)
        stream = [Access((i % 2) * 64, False) for i in range(40)]
        h.filter_accesses(0, stream)
        assert h.stats.hit_rate("L1") > 0.9

    def test_filter_respects_working_set(self):
        h = small_hierarchy(cores=1)
        # Working set far beyond every level: everything misses.
        stream = [Access(i * 64 * 64, False) for i in range(64)]
        misses = h.filter_accesses(0, stream)
        assert len(misses) == 64
