"""Tests for the DRAM address mapping and timing model."""

import hashlib
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.memory.address import AddressMapper, DRAMGeometry, MappedAddress
from repro.memory.dram import (
    DDR3_1600,
    DRAMConfig,
    DRAMSystem,
    DRAMTiming,
    PagePolicy,
)
from repro.obs import Observability


class TestGeometry:
    def test_table1_defaults(self):
        g = DRAMGeometry()
        assert g.channels == 2
        assert g.ranks_per_channel == 2
        assert g.banks_per_rank == 8
        assert g.capacity_bytes == 8 << 30
        assert g.blocks_per_row == 128

    def test_validation(self):
        with pytest.raises(ValueError):
            DRAMGeometry(channels=3)
        with pytest.raises(ValueError):
            DRAMGeometry(row_bytes=100)

    def test_total_blocks(self):
        assert DRAMGeometry().total_blocks == (8 << 30) // 64


class TestAddressMapper:
    def test_field_order_validation(self):
        with pytest.raises(ValueError):
            AddressMapper(order=("row", "bank", "col", "channel"))

    def test_consecutive_blocks_alternate_channels(self):
        mapper = AddressMapper()
        assert mapper.map(0).channel != mapper.map(64).channel

    def test_blocks_in_run_share_row(self):
        mapper = AddressMapper()
        a = mapper.map(0)
        b = mapper.map(128)  # same channel as 0 (two blocks later)
        assert (a.row, a.bank, a.rank, a.channel) == (
            b.row,
            b.bank,
            b.rank,
            b.channel,
        )

    @given(st.integers(min_value=0, max_value=(8 << 30) - 64))
    @settings(max_examples=60)
    def test_map_compose_roundtrip(self, addr):
        mapper = AddressMapper()
        aligned = addr - addr % 64
        assert mapper.compose(mapper.map(addr)) == aligned

    @pytest.mark.parametrize(
        "order",
        [AddressMapper.DEFAULT_ORDER, ("channel", "col", "row", "bank", "rank")],
    )
    def test_compose_arrays_matches_compose(self, order):
        import numpy as np

        mapper = AddressMapper(order=order)
        rng = random.Random(4)
        addrs = [rng.randrange(3 << 40) // 64 * 64 for _ in range(200)]
        fields = mapper.map_arrays(np.array(addrs, dtype=np.int64))
        got = mapper.compose_arrays(fields).tolist()
        assert got == [mapper.compose(mapper.map(addr)) for addr in addrs]

    def test_fields_within_bounds(self):
        mapper = AddressMapper()
        g = mapper.geometry
        for addr in range(0, 1 << 20, 64 * 17):
            m = mapper.map(addr)
            assert 0 <= m.channel < g.channels
            assert 0 <= m.rank < g.ranks_per_channel
            assert 0 <= m.bank < g.banks_per_rank
            assert 0 <= m.col < g.blocks_per_row
            assert 0 <= m.row < g.num_rows


class TestTiming:
    def test_latency_constants(self):
        t = DRAMTiming()
        assert t.row_hit_ns == pytest.approx((11 + 4) * 1.25)
        assert t.row_miss_ns == pytest.approx((11 + 11 + 11 + 4) * 1.25)

    def test_first_access_is_row_open_no_precharge(self):
        dram = DRAMSystem()
        timing = dram.access(0, False, 0.0)
        assert not timing.row_hit
        # Closed bank: activate + CAS + burst, no precharge.
        assert timing.latency_ns == pytest.approx((11 + 11 + 4) * 1.25)

    def test_second_access_same_row_hits(self):
        dram = DRAMSystem()
        first = dram.access(0, False, 0.0)
        second = dram.access(128, False, first.complete_ns)
        assert second.row_hit
        assert second.latency_ns == pytest.approx(DRAMTiming().row_hit_ns)

    def test_row_conflict_pays_precharge(self):
        dram = DRAMSystem()
        mapper = dram.mapper
        base = mapper.map(0)
        conflict_addr = mapper.compose(base._replace(row=base.row + 1))
        first = dram.access(0, False, 0.0)
        # Wait out tRAS so only tRP + tRCD + CL + burst remain.
        start = first.complete_ns + 100.0
        second = dram.access(conflict_addr, False, start)
        assert not second.row_hit
        assert second.latency_ns == pytest.approx(DRAMTiming().row_miss_ns)

    def test_channel_bus_serialises_bursts(self):
        dram = DRAMSystem()
        mapper = dram.mapper
        # Two addresses on the same channel, different banks, same start.
        a = mapper.compose(MappedAddress(channel=0, rank=0, bank=0, row=0, col=0))
        b = mapper.compose(MappedAddress(channel=0, rank=0, bank=1, row=0, col=0))
        ta = dram.access(a, False, 0.0)
        tb = dram.access(b, False, 0.0)
        burst = DRAMTiming().ns(DRAMTiming().burst_cycles)
        assert tb.complete_ns >= ta.complete_ns + burst - 1e-9

    def test_different_channels_overlap(self):
        dram = DRAMSystem()
        mapper = dram.mapper
        a = mapper.compose(MappedAddress(channel=0, rank=0, bank=0, row=0, col=0))
        b = mapper.compose(MappedAddress(channel=1, rank=0, bank=0, row=0, col=0))
        ta = dram.access(a, False, 0.0)
        tb = dram.access(b, False, 0.0)
        assert ta.complete_ns == pytest.approx(tb.complete_ns)

    def test_stats_accumulate(self):
        dram = DRAMSystem()
        dram.access(0, False, 0.0)
        dram.access(128, True, 100.0)
        assert dram.stats.reads == 1 and dram.stats.writes == 1
        assert dram.stats.row_hits == 1 and dram.stats.row_misses == 1
        assert dram.stats.row_hit_rate == pytest.approx(0.5)

    def test_time_monotonicity(self):
        """Completions never precede their issue time."""
        import random

        dram = DRAMSystem()
        rng = random.Random(4)
        now = 0.0
        for _ in range(200):
            addr = rng.randrange(1 << 22) * 64
            timing = dram.access(addr, rng.random() < 0.3, now)
            assert timing.complete_ns > now
            now += rng.random() * 5


class TestPagePolicy:
    def test_closed_page_never_row_hits(self):
        from repro.memory.dram import DRAMConfig, PagePolicy

        dram = DRAMSystem(DRAMConfig(page_policy=PagePolicy.CLOSED))
        first = dram.access(0, False, 0.0)
        second = dram.access(128, False, first.complete_ns + 100.0)
        assert not second.row_hit
        assert dram.stats.row_hit_rate == 0.0

    def test_closed_page_honours_tras_trp(self):
        from repro.memory.dram import DRAMConfig, PagePolicy

        timing = DRAMTiming()
        dram = DRAMSystem(DRAMConfig(page_policy=PagePolicy.CLOSED))
        first = dram.access(0, False, 0.0)
        # Back-to-back to the same bank: the auto-precharge cycle
        # (tRAS + tRP from the activate) gates the next activate.
        second = dram.access(128, False, first.complete_ns)
        assert second.start_ns >= timing.ns(timing.tras + timing.trp) - 1e-9

    def test_open_beats_closed_on_sequential_runs(self):
        from repro.memory.dram import DRAMConfig, PagePolicy

        def total(policy):
            dram = DRAMSystem(DRAMConfig(page_policy=policy))
            t = 0.0
            for i in range(32):
                t = dram.access(i * 128, False, t).complete_ns
            return t

        assert total(PagePolicy.OPEN) < total(PagePolicy.CLOSED)


class TestBatchScheduling:
    def test_row_hits_scheduled_first(self):
        dram = DRAMSystem()
        mapper = dram.mapper
        open_addr = mapper.compose(
            MappedAddress(channel=0, rank=0, bank=0, row=5, col=0)
        )
        dram.access(open_addr, False, 0.0)  # opens row 5
        conflict = mapper.compose(
            MappedAddress(channel=0, rank=0, bank=0, row=9, col=0)
        )
        hit = mapper.compose(
            MappedAddress(channel=0, rank=0, bank=0, row=5, col=3)
        )
        results = dram.access_batch([(conflict, False), (hit, False)], 200.0)
        # Results keep request order, but the row hit completed first.
        assert results[1].complete_ns < results[0].complete_ns

    def test_batch_returns_all(self):
        dram = DRAMSystem()
        requests = [(i * 64, False) for i in range(10)]
        assert len(dram.access_batch(requests, 0.0)) == 10

    def test_batch_raises_on_dropped_request(self):
        """A scheduler that loses a request is an invariant violation, not
        a silently shorter result list (the old filter desynchronised the
        results from the request order)."""

        class DroppyDRAM(DRAMSystem):
            def service_wave(self, requests, now_ns):
                starts, completes, hits = super().service_wave(
                    requests, now_ns
                )
                return starts[:-1], completes[:-1], hits[:-1]

        dram = DroppyDRAM()
        with pytest.raises(RuntimeError, match="serviced 3 of 4"):
            dram.access_batch([(i * 64, False) for i in range(4)], 0.0)

    def test_batch_matches_scalar_order_and_timing(self):
        """access_batch equals issuing the sorted row-hit-first order
        one access() at a time."""
        reference = DRAMSystem()
        batch = DRAMSystem()
        warm = [(i * 64, False) for i in range(6)]
        for addr, write in warm:
            reference.access(addr, write, 0.0)
        batch.access_batch(warm, 0.0)
        requests = [(i * 64, i % 2 == 0) for i in range(8)]
        order = sorted(
            range(len(requests)),
            key=lambda i: (not reference.would_row_hit(requests[i][0]), i),
        )
        expected = [None] * len(requests)
        for i in order:
            addr, write = requests[i]
            expected[i] = reference.access(addr, write, 1000.0)
        got = batch.access_batch(requests, 1000.0)
        assert got == expected

    def test_frfcfs_beats_fcfs_on_row_hits(self):
        """Row-hit-first ordering of a wave alternating between two rows of
        one bank gets more row hits than serving it in arrival order."""
        rng = random.Random(7)
        rows = [rng.choice([3, 9]) for _ in range(30)]
        hit_rates = []
        for serve in (DRAMSystem.access_batch, DRAMSystem.service_wave):
            dram = DRAMSystem()

            def addr(row, col):
                return dram.mapper.compose(
                    MappedAddress(channel=0, rank=0, bank=0, row=row, col=col)
                )

            dram.access(addr(3, 0), False, 0.0)  # opens row 3
            wave = [(addr(row, i % 16), False) for i, row in enumerate(rows)]
            serve(dram, wave, 200.0)
            hit_rates.append(dram.stats.row_hit_rate)
        frfcfs, fcfs = hit_rates
        assert frfcfs > fcfs


def _dram_state(dram):
    banks = [
        (bank.open_row, bank.ready_ns, bank.act_ns)
        for channel in dram._banks
        for rank in channel
        for bank in rank
    ]
    return banks, list(dram._bus_free_ns), dram._act_history, dram.stats


def _access_loop(dram, requests, now):
    timings = [dram.access(addr, write, now) for addr, write in requests]
    return (
        [t.start_ns for t in timings],
        [t.complete_ns for t in timings],
        [t.row_hit for t in timings],
    )


class TestServiceWave:
    """``service_wave`` reproduces the retired scalar ``access`` loop.

    ``WAVE_DIGESTS`` were recorded from that loop (one ``access`` call per
    request, its own refresh push and bank recurrence) before it was
    folded into ``service_wave``: per wave, the timings and the bank,
    bus, tFAW and stats state after it, as ``repr`` (floats exact).
    """

    WAVE_DIGESTS = {
        (PagePolicy.OPEN, False): "09d942389b0ec9c519e79bfe59a03bb9d30b3329bf1db766db3aad3e0f7601da",
        (PagePolicy.OPEN, True): "bf2c5f2f61431847e3d910623518bdcd19f39b0a6424ffa0e8ecb10405493bbe",
        (PagePolicy.CLOSED, False): "ab10bf987a7c013e3e92b9f5d23d1cf95ce014288b37adc84348587fa3942bde",
        (PagePolicy.CLOSED, True): "8baca6007516b0a4fb212ebaa4a9b0cc71672b22d92c53547b948a5eb5b47396",
    }

    @pytest.mark.parametrize("track", [False, True])
    @pytest.mark.parametrize("policy", list(PagePolicy))
    def test_matches_access_loop_across_waves(self, policy, track):
        for serve in (DRAMSystem.service_wave, _access_loop):
            self._check_waves(policy, track, serve)

    def _check_waves(self, policy, track, serve):
        dram = DRAMSystem(
            DRAMConfig(page_policy=policy),
            obs=Observability.create() if track else None,
        )
        assert dram._track_banks is track
        rng = random.Random(13)
        # Trace addresses: sequential runs and random jumps in a rate-mode
        # copy's address space, premapped in one call.
        trace = [(1 << 40) + (i + rng.randrange(2) * 997) * 64 for i in range(600)]
        dram.premap(set(trace))
        premapped = len(dram._locations)
        # ECC-region style addresses the premap never saw.
        ecc = [(7 << 30) + rng.randrange(64) * 64 for _ in range(40)]
        digest = hashlib.sha256()
        now = 0.0
        for size in (1, 3, 24, 25, 60, 90, 7):
            requests = [
                (rng.choice(ecc if rng.random() < 0.2 else trace), rng.random() < 0.3)
                for _ in range(size)
            ]
            starts, completes, hits = serve(dram, requests, now)
            digest.update(repr((starts, completes, hits, _dram_state(dram))).encode())
            now = max(completes) - 50.0
        assert digest.hexdigest() == self.WAVE_DIGESTS[policy, track]
        assert len(dram._locations) > premapped  # ECC addresses mapped lazily
        assert set(ecc) & set(dram._locations)

    def test_premapped_entries_match_mapper(self):
        dram = DRAMSystem()
        addrs = [i * 64 for i in range(0, 4096, 3)] + [(1 << 40) + 64 * 300]
        dram.premap(set(addrs))
        for addr in addrs:
            row, ch, bank, history = dram._locations[addr]
            loc = dram.mapper.map(addr)
            assert (row, ch) == (loc.row, loc.channel)
            assert bank is dram._banks[loc.channel][loc.rank][loc.bank]
            assert history is dram._act_history[loc.channel, loc.rank]

    def test_empty_wave(self):
        assert DRAMSystem().service_wave([], 0.0) == ([], [], [])


class TestTimingValidation:
    def test_trfc_must_be_nonnegative(self):
        with pytest.raises(ValueError, match="non-negative"):
            DRAMTiming(trfc_ns=-1.0)

    def test_refresh_window_must_fit_interval(self):
        with pytest.raises(ValueError, match="tRFC"):
            DRAMTiming(trefi_ns=100.0, trfc_ns=100.0)
        with pytest.raises(ValueError, match="tRFC"):
            DRAMTiming(trefi_ns=100.0, trfc_ns=250.0)

    def test_zero_trefi_disables_refresh(self):
        timing = DRAMTiming(trefi_ns=0.0, trfc_ns=260.0)
        dram = DRAMSystem(DRAMConfig(timing=timing))
        assert dram.access(0, False, 123.456).start_ns == 123.456

    def test_valid_window_accepted(self):
        DRAMTiming(trefi_ns=7800.0, trfc_ns=7799.0)


class TestRefreshWindowEdges:
    """A request's start at exactly the refresh window's boundaries."""

    def _start(self, now_ns):
        dram = DRAMSystem(
            DRAMConfig(timing=DRAMTiming(trefi_ns=1000.0, trfc_ns=100.0))
        )
        return dram.access(0, False, now_ns).start_ns

    def test_just_before_window_untouched(self):
        assert self._start(899.999) == 899.999

    def test_exactly_on_window_edge_pushed(self):
        # position == trefi - trfc is the first instant *inside* the
        # refresh window: pushed to the next interval boundary.
        assert self._start(900.0) == 1000.0

    def test_inside_window_pushed(self):
        assert self._start(950.0) == 1000.0

    def test_exactly_on_interval_boundary_untouched(self):
        # position == 0: the refresh just finished; commands may start.
        assert self._start(1000.0) == 1000.0

    def test_later_interval_edge(self):
        assert self._start(2900.0) == 3000.0


class TestRefreshInteraction:
    def test_command_delayed_past_refresh_window(self):
        dram = DRAMSystem()
        timing = dram.config.timing
        window_start = timing.trefi_ns - timing.trfc_ns
        result = dram.access(0, False, window_start + 1.0)
        assert result.start_ns >= timing.trefi_ns

    def test_refresh_disabled(self):
        config = DRAMConfig(
            geometry=DDR3_1600.geometry,
            timing=replace(DDR3_1600.timing, trefi_ns=0.0),
        )
        dram = DRAMSystem(config)
        t = dram.access(0, False, 7700.0)
        assert t.start_ns == pytest.approx(7700.0)
