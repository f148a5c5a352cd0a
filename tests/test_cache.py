"""Tests for the set-associative LLC with COP metadata."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cache.cache import ALIAS, DIRTY, CacheStats, SetAssocCache


def make_cache(sets=4, ways=2):
    return SetAssocCache(sets * ways * 64, ways)


def addr_in_set(cache, set_index, tag):
    """A block address mapping to the given set."""
    return (tag * cache.num_sets + set_index) * cache.line_bytes


class TestBasics:
    def test_construction_validation(self):
        with pytest.raises(ValueError):
            SetAssocCache(100, 2)  # not a whole number of sets
        with pytest.raises(ValueError):
            SetAssocCache(0, 2)

    def test_miss_then_hit(self):
        cache = make_cache()
        assert cache.lookup(0) is False
        cache.insert(0)
        assert cache.lookup(0) is True
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_clean_resident_line_hits(self):
        """Flag word 0 is a resident line, not a miss."""
        cache = make_cache()
        cache.insert(0)
        assert cache.peek(0) == 0
        assert cache.lookup(0) is True
        assert 0 in cache

    def test_address_alignment(self):
        cache = make_cache()
        cache.insert(7)  # aligned down to 0
        assert cache.lookup(63)
        assert not cache.lookup(64)

    def test_insert_updates_existing_line(self):
        cache = make_cache()
        cache.insert(0)
        assert cache.insert(0, dirty=True) is None
        assert cache.peek(0) == DIRTY

    def test_dirty_is_sticky_on_update(self):
        cache = make_cache()
        cache.insert(0, dirty=True)
        cache.insert(0, dirty=False)
        assert cache.peek(0) == DIRTY

    def test_store_hit_sets_dirty(self):
        cache = make_cache()
        cache.insert(0)
        assert cache.lookup(0, store=True)
        assert cache.peek(0) == DIRTY

    def test_store_miss_installs_nothing(self):
        cache = make_cache()
        assert not cache.lookup(0, store=True)
        assert cache.peek(0) is None

    def test_peek_does_not_touch_stats_or_lru(self):
        cache = make_cache()
        cache.insert(0)
        before = cache.stats.hits
        cache.peek(0)
        assert cache.stats.hits == before

    def test_peek_store_dirties_without_reordering_lru(self):
        cache = make_cache(sets=1, ways=2)
        a, b, c = 0, 64, 128
        cache.insert(a)
        cache.insert(b)
        stats = CacheStats(**cache.stats.as_dict())
        assert cache.peek(a, store=True) == DIRTY
        assert cache.stats == stats
        # a is still the least recently used line.
        assert cache.insert(c) == (a, DIRTY)

    def test_peek_store_on_absent_line(self):
        cache = make_cache()
        assert cache.peek(0, store=True) is None
        assert 0 not in cache

    def test_contains(self):
        cache = make_cache()
        cache.insert(128)
        assert 128 in cache
        assert 0 not in cache


class TestLRU:
    def test_lru_victim_selection(self):
        cache = make_cache(sets=1, ways=2)
        a, b, c = 0, 64, 128
        cache.insert(a)
        cache.insert(b)
        cache.lookup(a)  # a is now MRU
        assert cache.insert(c) == (b, 0)

    def test_eviction_reports_dirty_victim(self):
        cache = make_cache(sets=1, ways=1)
        cache.insert(0, dirty=True)
        assert cache.insert(64) == (0, DIRTY)
        assert cache.stats.writebacks == 1

    def test_no_eviction_until_full(self):
        cache = make_cache(sets=1, ways=4)
        for i in range(4):
            assert cache.insert(i * 64) is None
        assert cache.insert(4 * 64) is not None


class TestAliasPinning:
    def test_alias_lines_are_not_victims(self):
        cache = make_cache(sets=1, ways=2)
        cache.insert(0, alias=True)
        cache.insert(64)
        assert cache.insert(128) == (64, 0)  # the non-alias way
        assert cache.peek(0) == ALIAS

    def test_all_ways_pinned_spills_to_overflow(self):
        cache = make_cache(sets=1, ways=2)
        cache.insert(0, alias=True)
        cache.insert(64, alias=True)
        assert cache.insert(128) is None
        assert cache.stats.overflow_spills == 1
        assert len(cache.overflow) == 1

    def test_overflowed_line_still_hits(self):
        cache = make_cache(sets=1, ways=1)
        cache.insert(0, alias=True)
        cache.insert(64, dirty=True)
        assert cache.lookup(64)
        assert cache.peek(64) == DIRTY
        assert cache.stats.overflow_hits == 1

    def test_overflow_store_hit_sets_dirty(self):
        cache = make_cache(sets=1, ways=1)
        cache.insert(0, alias=True)
        cache.insert(64)
        assert cache.lookup(64, store=True)
        assert cache.overflow == {64: DIRTY}
        assert cache.stats.overflow_hits == 1
        cache.insert(128)  # spills beside 64
        assert cache.peek(128, store=True) == DIRTY
        assert cache.overflow == {64: DIRTY, 128: DIRTY}


class TestStatsAndResidency:
    def test_resident_lines_includes_overflow(self):
        cache = make_cache(sets=1, ways=1)
        cache.insert(0, alias=True)
        cache.insert(64)
        assert sorted(cache.resident_lines()) == [(0, ALIAS), (64, 0)]
        assert cache.pinned_lines() == 1


class _MinLastUseCache:
    """Reference LLC with the original replacement rule.

    Every resident line carries the tick of its last hit or fill, and the
    victim is the unpinned line with the smallest tick.  Lines are
    ``[addr, flags, last_use]`` lists.
    """

    def __init__(self, sets: int, ways: int) -> None:
        self.ways = ways
        self.sets: list[list[list]] = [[] for _ in range(sets)]
        self.overflow: dict[int, list] = {}
        self.stats = CacheStats()
        self.tick = 0

    def _find(self, addr):
        cache_set = self.sets[(addr // 64) % len(self.sets)]
        for line in cache_set:
            if line[0] == addr:
                return cache_set, line
        return cache_set, None

    def lookup(self, addr, store=False):
        _, line = self._find(addr)
        if line is not None:
            self.tick += 1
            line[2] = self.tick
            self.stats.hits += 1
        elif addr in self.overflow:
            line = self.overflow[addr]
            self.stats.hits += 1
            self.stats.overflow_hits += 1
        else:
            self.stats.misses += 1
            return False
        if store:
            line[1] |= DIRTY
        return True

    def peek(self, addr, store=False):
        _, line = self._find(addr)
        line = line if line is not None else self.overflow.get(addr)
        if line is None:
            return None
        if store:
            line[1] |= DIRTY
        return line[1]

    def insert(self, addr, dirty, alias):
        flags = (DIRTY if dirty else 0) | (ALIAS if alias else 0)
        if alias:
            self.stats.alias_pins += 1
        self.tick += 1
        cache_set, line = self._find(addr)
        line = line if line is not None else self.overflow.get(addr)
        if line is not None:
            line[1:3] = [(line[1] & DIRTY) | flags, self.tick]
            return None
        new_line = [addr, flags, self.tick]
        if len(cache_set) < self.ways:
            cache_set.append(new_line)
            return None
        unpinned = [line for line in cache_set if not line[1] & ALIAS]
        if not unpinned:
            self.stats.overflow_spills += 1
            self.overflow[addr] = new_line
            return None
        victim = min(unpinned, key=lambda line: line[2])
        cache_set.remove(victim)
        cache_set.append(new_line)
        self.stats.evictions += 1
        if victim[1] & DIRTY:
            self.stats.writebacks += 1
        return victim[0], victim[1]


_OPS = st.lists(
    st.tuples(
        st.sampled_from(
            ["insert", "lookup", "store", "peek", "mark"]
        ),
        st.integers(min_value=0, max_value=9),  # block: a few tags per set
        st.booleans(),  # dirty
        st.integers(min_value=0, max_value=4),  # 0 = alias pin (1 in 5)
    ),
    min_size=20,
    max_size=80,
)


class TestLRUDifferential:
    """The LRU-ordered sets pick exactly the min-last-use victim."""

    @settings(max_examples=150, deadline=None)
    @given(ops=_OPS, sets=st.sampled_from([1, 2]), ways=st.sampled_from([2, 3, 4]))
    def test_matches_min_last_use_reference(self, ops, sets, ways):
        cache = make_cache(sets=sets, ways=ways)
        ref = _MinLastUseCache(sets, ways)
        for op, block, dirty, pin in ops:
            addr = block * 64
            if op == "insert":
                got = cache.insert(addr, dirty=dirty, alias=pin == 0)
                assert got == ref.insert(addr, dirty, pin == 0)
            elif op in ("store", "mark"):
                method = "lookup" if op == "store" else "peek"
                got = getattr(cache, method)(addr, store=True)
                assert got == getattr(ref, method)(addr, store=True)
            else:
                assert getattr(cache, op)(addr) == getattr(ref, op)(addr)
            assert cache.stats == ref.stats
        assert sorted(cache.resident_lines()) == sorted(
            (line[0], line[1])
            for lines in (*ref.sets, ref.overflow.values())
            for line in lines
        )
        # Each set's dict order is its LRU order.
        for got, want in zip(cache._sets, ref.sets):
            assert list(got) == [
                line[0] for line in sorted(want, key=lambda line: line[2])
            ]
