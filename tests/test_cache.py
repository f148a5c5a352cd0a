"""Tests for the set-associative LLC with COP metadata."""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.cache.cache import CacheStats, SetAssocCache


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
        assert cache.lookup(0) is None
        cache.insert(0, bytes(64))
        line = cache.lookup(0)
        assert line is not None and line.addr == 0
        assert cache.stats.hits == 1 and cache.stats.misses == 1

    def test_address_alignment(self):
        cache = make_cache()
        cache.insert(7, bytes(64))  # aligned down to 0
        assert cache.lookup(63) is not None
        assert cache.lookup(64) is None

    def test_insert_updates_existing_line(self):
        cache = make_cache()
        cache.insert(0, bytes(64))
        eviction = cache.insert(0, b"\x01" * 64, dirty=True)
        assert eviction is None
        line = cache.peek(0)
        assert line.data == b"\x01" * 64 and line.dirty

    def test_dirty_is_sticky_on_update(self):
        cache = make_cache()
        cache.insert(0, bytes(64), dirty=True)
        cache.insert(0, bytes(64), dirty=False)
        assert cache.peek(0).dirty

    def test_peek_does_not_touch_stats_or_lru(self):
        cache = make_cache()
        cache.insert(0, bytes(64))
        before = cache.stats.hits
        cache.peek(0)
        assert cache.stats.hits == before

    def test_invalidate(self):
        cache = make_cache()
        cache.insert(0, bytes(64))
        assert cache.invalidate(0) is not None
        assert cache.peek(0) is None
        assert cache.invalidate(0) is None

    def test_contains(self):
        cache = make_cache()
        cache.insert(128, bytes(64))
        assert 128 in cache
        assert 0 not in cache


class TestLRU:
    def test_lru_victim_selection(self):
        cache = make_cache(sets=1, ways=2)
        a, b, c = 0, 64, 128
        cache.insert(a, bytes(64))
        cache.insert(b, bytes(64))
        cache.lookup(a)  # a is now MRU
        victim = cache.insert(c, bytes(64))
        assert victim.addr == b

    def test_eviction_reports_dirty_victim(self):
        cache = make_cache(sets=1, ways=1)
        cache.insert(0, bytes(64), dirty=True)
        victim = cache.insert(64, bytes(64))
        assert victim.dirty
        assert cache.stats.writebacks == 1

    def test_no_eviction_until_full(self):
        cache = make_cache(sets=1, ways=4)
        for i in range(4):
            assert cache.insert(i * 64, bytes(64)) is None
        assert cache.insert(4 * 64, bytes(64)) is not None


class TestAliasPinning:
    def test_alias_lines_are_not_victims(self):
        cache = make_cache(sets=1, ways=2)
        cache.insert(0, bytes(64), alias=True)
        cache.insert(64, bytes(64))
        victim = cache.insert(128, bytes(64))
        assert victim.addr == 64  # the non-alias way
        assert cache.peek(0) is not None

    def test_all_ways_pinned_spills_to_overflow(self):
        cache = make_cache(sets=1, ways=2)
        cache.insert(0, bytes(64), alias=True)
        cache.insert(64, bytes(64), alias=True)
        eviction = cache.insert(128, bytes(64))
        assert eviction is None
        assert cache.stats.overflow_spills == 1
        assert len(cache.overflow) == 1

    def test_overflowed_line_still_hits(self):
        cache = make_cache(sets=1, ways=1)
        cache.insert(0, bytes(64), alias=True)
        cache.insert(64, b"\x07" * 64, dirty=True)
        line = cache.lookup(64)
        assert line is not None and line.data == b"\x07" * 64
        assert cache.stats.overflow_hits == 1

    def test_overflow_invalidate(self):
        cache = make_cache(sets=1, ways=1)
        cache.insert(0, bytes(64), alias=True)
        cache.insert(64, bytes(64))
        assert cache.invalidate(64) is not None
        assert len(cache.overflow) == 0

    def test_was_uncompressed_flag_persists(self):
        cache = make_cache()
        cache.insert(0, bytes(64), was_uncompressed=True)
        assert cache.peek(0).was_uncompressed


class TestStatsAndResidency:
    def test_hit_rate(self):
        cache = make_cache()
        cache.insert(0, bytes(64))
        cache.lookup(0)
        cache.lookup(64)
        assert cache.stats.hit_rate == pytest.approx(0.5)

    def test_hit_rate_empty(self):
        assert make_cache().stats.hit_rate == 0.0

    def test_resident_lines_includes_overflow(self):
        cache = make_cache(sets=1, ways=1)
        cache.insert(0, bytes(64), alias=True)
        cache.insert(64, bytes(64))
        assert {line.addr for line in cache.resident_lines()} == {0, 64}

    def test_insert_validates_data_length(self):
        with pytest.raises(ValueError):
            make_cache().insert(0, b"short")


class _MinLastUseCache:
    """Reference LLC with the original replacement rule.

    Every resident line carries the tick of its last hit or fill, and the
    victim is the unpinned line with the smallest tick.  Lines are
    ``[addr, dirty, alias, was_uncompressed, last_use]`` lists.
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

    def lookup(self, addr):
        _, line = self._find(addr)
        if line is not None:
            self.tick += 1
            line[4] = self.tick
            self.stats.hits += 1
            return line[:4]
        if addr in self.overflow:
            self.stats.hits += 1
            self.stats.overflow_hits += 1
            return self.overflow[addr][:4]
        self.stats.misses += 1
        return None

    def peek(self, addr):
        _, line = self._find(addr)
        line = line if line is not None else self.overflow.get(addr)
        return None if line is None else line[:4]

    def insert(self, addr, dirty, alias, was_uncompressed):
        if alias:
            self.stats.alias_pins += 1
        self.tick += 1
        cache_set, line = self._find(addr)
        line = line if line is not None else self.overflow.get(addr)
        if line is not None:
            line[1:5] = [line[1] or dirty, alias, was_uncompressed, self.tick]
            return None
        new_line = [addr, dirty, alias, was_uncompressed, self.tick]
        if len(cache_set) < self.ways:
            cache_set.append(new_line)
            return None
        unpinned = [line for line in cache_set if not line[2]]
        if not unpinned:
            self.stats.overflow_spills += 1
            self.overflow[addr] = new_line
            return None
        victim = min(unpinned, key=lambda line: line[4])
        cache_set.remove(victim)
        cache_set.append(new_line)
        self.stats.evictions += 1
        if victim[1]:
            self.stats.writebacks += 1
        return victim[:4]

    def invalidate(self, addr):
        cache_set, line = self._find(addr)
        if line is not None:
            cache_set.remove(line)
            return line[:4]
        line = self.overflow.pop(addr, None)
        return None if line is None else line[:4]


def _fields(line):
    if line is None:
        return None
    return [line.addr, line.dirty, line.alias, line.was_uncompressed]


_OPS = st.lists(
    st.tuples(
        st.sampled_from(["insert", "lookup", "peek", "invalidate"]),
        st.integers(min_value=0, max_value=9),  # block: a few tags per set
        st.booleans(),  # dirty
        st.integers(min_value=0, max_value=4),  # 0 = alias pin (1 in 5)
        st.booleans(),  # was_uncompressed
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
        for op, block, dirty, pin, was_uncompressed in ops:
            addr = block * 64
            if op == "insert":
                victim = cache.insert(
                    addr,
                    bytes(64),
                    dirty=dirty,
                    alias=pin == 0,
                    was_uncompressed=was_uncompressed,
                )
                got = None if victim is None else _fields(victim)
                assert got == ref.insert(addr, dirty, pin == 0, was_uncompressed)
            else:
                assert _fields(getattr(cache, op)(addr)) == getattr(ref, op)(addr)
            assert cache.stats == ref.stats
        assert sorted(_fields(line) for line in cache.resident_lines()) == sorted(
            line[:4] for lines in (*ref.sets, ref.overflow.values()) for line in lines
        )
