"""Bank-level DDR3 timing model with an open-row policy.

The model tracks, per bank, the open row, the earliest time the bank can
accept a new column/row command, and the last activate time (to honour
tRAS before a precharge).  Each channel serialises data bursts on its bus.
Requests are processed in arrival order, which is what both simulation
engines use; :meth:`DRAMSystem.access_batch` offers FR-FCFS-style
reordering inside a batch of simultaneously ready requests (row hits
first) to callers that want it.

All times are nanoseconds.  Defaults model DDR3-1600 (tCK = 1.25 ns,
11-11-11-28, BL8) per Table 1.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple, Optional, Sequence

import numpy as np

from repro.memory.address import AddressMapper, DRAMGeometry, MappedAddress

__all__ = [
    "DRAMTiming",
    "PagePolicy",
    "DRAMConfig",
    "DDR3_1600",
    "AccessTiming",
    "DRAMStats",
    "DRAMSystem",
]


@dataclass(frozen=True)
class DRAMTiming:
    """Core timing parameters, in memory-clock cycles unless noted."""

    tck_ns: float = 1.25  # DDR3-1600: 800 MHz clock, 1600 MT/s
    cl: int = 11  # CAS latency
    trcd: int = 11  # activate -> column command
    trp: int = 11  # precharge
    tras: int = 28  # activate -> precharge
    burst_cycles: int = 4  # BL8 at double data rate
    tfaw: int = 24  # four-activate window per rank (0 disables)
    trefi_ns: float = 7800.0  # refresh interval (0 disables refresh)
    trfc_ns: float = 260.0  # refresh cycle time (4 Gb-class devices)

    def __post_init__(self) -> None:
        # The refresh window is the last tRFC of each tREFI interval.  A
        # device that spends its whole interval (or more) refreshing can
        # never accept a command: ``_after_refresh`` would "push" a start
        # time into a window that covers all time, silently returning a
        # time still inside a refresh.  Reject the impossible geometry at
        # construction instead of producing nonsense timings.
        if self.trfc_ns < 0:
            raise ValueError(f"trfc_ns must be non-negative: {self.trfc_ns}")
        if self.trefi_ns > 0 and self.trfc_ns >= self.trefi_ns:
            raise ValueError(
                f"refresh window tRFC ({self.trfc_ns} ns) must be shorter "
                f"than the refresh interval tREFI ({self.trefi_ns} ns); "
                "set trefi_ns=0 to disable refresh entirely"
            )

    def ns(self, cycles: float) -> float:
        return cycles * self.tck_ns

    @property
    def row_hit_ns(self) -> float:
        """Column access + burst on an already-open row."""
        return self.ns(self.cl + self.burst_cycles)

    @property
    def row_miss_ns(self) -> float:
        """Precharge + activate + column access + burst."""
        return self.ns(self.trp + self.trcd + self.cl + self.burst_cycles)


class PagePolicy(enum.Enum):
    """Row-buffer management policy.

    The paper assumes an open-row policy (its embedded-ECC discussion
    depends on it); the closed-page alternative precharges after every
    access, trading row hits for lower conflict latency — exposed for the
    policy ablation bench.
    """

    OPEN = "open"
    CLOSED = "closed"


@dataclass(frozen=True)
class DRAMConfig:
    geometry: DRAMGeometry = field(default_factory=DRAMGeometry)
    timing: DRAMTiming = field(default_factory=DRAMTiming)
    page_policy: PagePolicy = PagePolicy.OPEN


#: The Table 1 configuration.
DDR3_1600 = DRAMConfig()


class AccessTiming(NamedTuple):
    """When one request started and finished, and how it hit."""

    start_ns: float
    complete_ns: float
    row_hit: bool

    @property
    def latency_ns(self) -> float:
        return self.complete_ns - self.start_ns


@dataclass
class DRAMStats:
    reads: int = 0
    writes: int = 0
    row_hits: int = 0
    row_misses: int = 0
    busy_ns: float = 0.0
    #: Per-bank ``(channel, rank, bank) -> [row_hits, row_misses]``,
    #: populated only when the owning DRAMSystem has observability on.
    per_bank: dict[tuple[int, int, int], list[int]] = field(default_factory=dict)

    @property
    def accesses(self) -> int:
        return self.reads + self.writes

    @property
    def row_hit_rate(self) -> float:
        total = self.row_hits + self.row_misses
        return self.row_hits / total if total else 0.0

    def as_dict(self) -> dict[str, float]:
        """Scalar counters keyed by name (per-bank detail excluded)."""
        return {
            "reads": self.reads,
            "writes": self.writes,
            "accesses": self.accesses,
            "row_hits": self.row_hits,
            "row_misses": self.row_misses,
            "busy_ns": self.busy_ns,
        }

    def merge(self, other: "DRAMStats") -> "DRAMStats":
        """Accumulate another instance's counts into this one."""
        self.reads += other.reads
        self.writes += other.writes
        self.row_hits += other.row_hits
        self.row_misses += other.row_misses
        self.busy_ns += other.busy_ns
        for key, (hits, misses) in other.per_bank.items():
            entry = self.per_bank.setdefault(key, [0, 0])
            entry[0] += hits
            entry[1] += misses
        return self


class _Bank:
    __slots__ = ("open_row", "ready_ns", "act_ns", "coords")

    def __init__(self, coords: tuple[int, int, int]) -> None:
        self.open_row: Optional[int] = None
        self.ready_ns = 0.0
        self.act_ns = 0.0
        #: ``(channel, rank, bank)``, the key of per-bank statistics.
        self.coords = coords


class DRAMSystem:
    """Functional-timing model of the whole memory system."""

    def __init__(self, config: DRAMConfig = DDR3_1600, obs=None) -> None:
        from repro.obs import NULL_OBS

        self.config = config
        self.mapper = AddressMapper(config.geometry)
        geometry = config.geometry
        self._banks = [
            [
                [_Bank((ch, rank, bank)) for bank in range(geometry.banks_per_rank)]
                for rank in range(geometry.ranks_per_channel)
            ]
            for ch in range(geometry.channels)
        ]
        self._bus_free_ns = [0.0] * geometry.channels
        #: Rolling activate history per (channel, rank) for tFAW.
        self._act_history: dict[tuple[int, int], list[float]] = {
            (ch, rank): []
            for ch in range(geometry.channels)
            for rank in range(geometry.ranks_per_channel)
        }
        #: addr -> ``(row, channel, bank, tFAW history)``: everything the
        #: wave kernel needs that depends only on the address, filled in
        #: bulk by :meth:`premap` and lazily for addresses it never saw.
        self._locations: dict[int, tuple[int, int, _Bank, list[float]]] = {}
        # Wave-kernel timing conversions, hoisted once (config is frozen).
        timing = config.timing
        self._wave_consts = (
            timing.ns(timing.cl),
            timing.ns(timing.trp),
            timing.ns(timing.trcd),
            timing.ns(timing.tras),
            timing.ns(timing.tras + timing.trp),
            timing.ns(timing.burst_cycles),
            timing.tfaw,
            timing.ns(timing.tfaw),
            timing.trefi_ns,
            timing.trefi_ns - timing.trfc_ns,
        )
        self.stats = DRAMStats()
        self.obs = obs if obs is not None else NULL_OBS
        #: Hot-path flag: per-bank accounting only when someone is looking.
        self._track_banks = self.obs.enabled

    # -- refresh -----------------------------------------------------------

    def _after_refresh(self, t_ns: float) -> float:
        """Push a command start time out of any refresh window.

        All ranks refresh in lockstep every tREFI, occupying the last
        tRFC of each interval.  A refresh also closes every row (the
        DRAM's auto-precharge on REF), which the row-buffer state ignores
        here — a small optimism that applies equally to every protection
        mode under comparison.
        """
        timing = self.config.timing
        if timing.trefi_ns <= 0:
            return t_ns
        position = t_ns % timing.trefi_ns
        if position >= timing.trefi_ns - timing.trfc_ns:
            return t_ns - position + timing.trefi_ns
        return t_ns

    # -- single access ---------------------------------------------------

    def would_row_hit(self, addr: int) -> bool:
        """Peek whether ``addr`` would hit the open row right now."""
        loc = self.mapper.map(addr)
        bank = self._banks[loc.channel][loc.rank][loc.bank]
        return bank.open_row == loc.row

    def access(self, addr: int, is_write: bool, now_ns: float) -> AccessTiming:
        """Perform one 64-byte access, updating bank and bus state."""
        timing = self.config.timing
        loc: MappedAddress = self.mapper.map(addr)
        bank = self._banks[loc.channel][loc.rank][loc.bank]

        start = self._after_refresh(max(now_ns, bank.ready_ns))
        if bank.open_row == loc.row:
            row_hit = True
            data_ready = start + timing.ns(timing.cl)
        else:
            row_hit = False
            t = start
            if bank.open_row is not None:
                # Precharge may not begin before tRAS from the activate.
                t = max(t, bank.act_ns + timing.ns(timing.tras))
                t += timing.ns(timing.trp)
            # tFAW: at most four activates per rank per rolling window.
            if timing.tfaw:
                history = self._act_history[loc.channel, loc.rank]
                if len(history) >= 4:
                    t = max(t, history[-4] + timing.ns(timing.tfaw))
                history.append(t)
                del history[:-4]
            t += timing.ns(timing.trcd)
            bank.act_ns = t - timing.ns(timing.trcd)
            bank.open_row = loc.row
            data_ready = t + timing.ns(timing.cl)

        burst_start = max(data_ready, self._bus_free_ns[loc.channel])
        complete = burst_start + timing.ns(timing.burst_cycles)
        self._bus_free_ns[loc.channel] = complete
        bank.ready_ns = complete
        if self.config.page_policy is PagePolicy.CLOSED:
            # Auto-precharge: the next access always activates, but never
            # pays the explicit precharge or waits out tRAS here (the
            # precharge overlaps the idle gap; tRAS still bounds it).
            bank.ready_ns = max(
                complete, bank.act_ns + timing.ns(timing.tras + timing.trp)
            )
            bank.open_row = None

        self.stats.busy_ns += complete - start
        if is_write:
            self.stats.writes += 1
        else:
            self.stats.reads += 1
        if row_hit:
            self.stats.row_hits += 1
        else:
            self.stats.row_misses += 1
        if self._track_banks:
            entry = self.stats.per_bank.setdefault(bank.coords, [0, 0])
            entry[0 if row_hit else 1] += 1
        return AccessTiming(start, complete, row_hit)

    def publish_metrics(self, registry, prefix: str = "dram") -> None:
        """Mirror the DRAM counters (and per-bank detail) into a registry.

        Per-bank names follow ``dram.bank.c{ch}r{rank}b{bank}.row_hits``.
        """
        registry.update_counters(prefix, self.stats.as_dict())
        registry.set_gauge(f"{prefix}.busy_ns", self.stats.busy_ns)
        registry.set_gauge(f"{prefix}.row_hit_rate", self.stats.row_hit_rate)
        for (ch, rank, bank), (hits, misses) in self.stats.per_bank.items():
            registry.update_counters(
                f"{prefix}.bank.c{ch}r{rank}b{bank}",
                {"row_hits": hits, "row_misses": misses},
            )

    # -- batched access (the wave kernel) ----------------------------------

    def premap(self, addrs: Iterable[int]) -> None:
        """Decompose ``addrs`` into the location table in one array pass.

        A replay calls this once with the set of its trace's addresses,
        so :meth:`service_wave` never decomposes an address per request.
        The table is sized for ``addrs`` up front and keeps their int
        objects as keys, and addresses in one row of one bank share one
        entry tuple, so the table costs little more than its dict slots.
        """
        table: dict = dict.fromkeys(addrs)
        geometry = self.config.geometry
        fields = self.mapper.map_arrays(
            np.fromiter(table, dtype=np.int64, count=len(table))
        )
        bank_rows = (
            (fields["row"] * geometry.channels + fields["channel"])
            * geometry.ranks_per_channel
            + fields["rank"]
        ) * geometry.banks_per_rank + fields["bank"]
        _, first, inverse = np.unique(
            bank_rows, return_index=True, return_inverse=True
        )
        banks = self._banks
        history = self._act_history
        entries = [
            (row, ch, banks[ch][rank][bank], history[ch, rank])
            for row, ch, rank, bank in zip(
                *(
                    fields[name][first].tolist()
                    for name in ("row", "channel", "rank", "bank")
                )
            )
        ]
        for addr, index in zip(table, inverse.tolist()):
            table[addr] = entries[index]
        table.update(self._locations)
        self._locations = table

    def _locate(self, addr: int) -> tuple[int, int, _Bank, list[float]]:
        """Location-table entry for an address :meth:`premap` never saw."""
        loc = self.mapper.map(addr)
        entry = self._locations[addr] = (
            loc.row,
            loc.channel,
            self._banks[loc.channel][loc.rank][loc.bank],
            self._act_history[loc.channel, loc.rank],
        )
        return entry

    def service_wave(
        self, requests: Sequence[tuple[int, bool]], now_ns: float
    ) -> tuple[list[float], list[float], list[bool]]:
        """Service a wave of simultaneously ready requests *in order*.

        Bit-exact replacement for calling :meth:`access` once per request
        at the same ``now_ns`` (same float operations in the same order,
        same bank/bus/stats mutations), run as one tight loop over the
        location table.  Returns per-request ``(start_ns, complete_ns,
        row_hit)`` as three parallel lists.

        The serial recurrence is irreducible — each request's start time
        depends on the bank/bus state its predecessors left behind — so
        this is a kernel over a *wave*, carrying bank state across calls
        exactly like the scalar path does.
        """
        (
            cl_ns,
            trp_ns,
            trcd_ns,
            tras_ns,
            tras_trp_ns,
            burst_ns,
            tfaw,
            tfaw_ns,
            trefi,
            refresh_edge,
        ) = self._wave_consts
        closed = self.config.page_policy is PagePolicy.CLOSED
        table = self._locations
        bus = self._bus_free_ns
        track = self._track_banks
        per_bank = self.stats.per_bank

        busy_ns = self.stats.busy_ns
        writes = row_hits = 0
        starts: list[float] = []
        completes: list[float] = []
        hits: list[bool] = []
        for addr, is_write in requests:
            loc = table.get(addr)
            if loc is None:
                loc = self._locate(addr)
            row, ch, bank, history = loc
            start = now_ns if now_ns > bank.ready_ns else bank.ready_ns
            if trefi > 0:
                position = start % trefi
                if position >= refresh_edge:
                    start = start - position + trefi
            if bank.open_row == row:
                row_hit = True
                row_hits += 1
                data_ready = start + cl_ns
            else:
                row_hit = False
                t = start
                if bank.open_row is not None:
                    after_ras = bank.act_ns + tras_ns
                    if after_ras > t:
                        t = after_ras
                    t += trp_ns
                if tfaw:
                    if len(history) >= 4:
                        window = history[-4] + tfaw_ns
                        if window > t:
                            t = window
                    history.append(t)
                    del history[:-4]
                t += trcd_ns
                bank.act_ns = t - trcd_ns
                bank.open_row = row
                data_ready = t + cl_ns
            burst_start = bus[ch]
            if data_ready > burst_start:
                burst_start = data_ready
            complete = burst_start + burst_ns
            bus[ch] = complete
            bank.ready_ns = complete
            if closed:
                precharged = bank.act_ns + tras_trp_ns
                bank.ready_ns = (
                    complete if complete > precharged else precharged
                )
                bank.open_row = None
            busy_ns += complete - start
            if is_write:
                writes += 1
            if track:
                entry = per_bank.setdefault(bank.coords, [0, 0])
                entry[0 if row_hit else 1] += 1
            starts.append(start)
            completes.append(complete)
            hits.append(row_hit)

        stats = self.stats
        stats.busy_ns = busy_ns
        stats.reads += len(starts) - writes
        stats.writes += writes
        stats.row_hits += row_hits
        stats.row_misses += len(starts) - row_hits
        return starts, completes, hits

    def access_batch(
        self, requests: Sequence[tuple[int, bool]], now_ns: float
    ) -> list[AccessTiming]:
        """Service simultaneously ready requests, row hits first.

        ``requests`` is a sequence of ``(addr, is_write)``.  Results are
        returned in the original request order.  This models the memory
        controller's first-ready first-come-first-served queue at the
        granularity the interval simulator needs: within one miss group,
        requests to open rows are scheduled before row conflicts.

        Returns exactly ``len(requests)`` timings.  An unfilled slot would
        mean the scheduler dropped a request on the floor; that is an
        invariant violation and raises instead of being silently hidden
        (the old ``[r for r in results if r is not None]`` filter shrank
        the result list, desynchronising it from the request order).
        """
        order = sorted(
            range(len(requests)),
            key=lambda i: (not self.would_row_hit(requests[i][0]), i),
        )
        starts, completes, hits = self.service_wave(
            [requests[i] for i in order], now_ns
        )
        serviced = min(len(starts), len(completes), len(hits))
        if serviced != len(requests):
            raise RuntimeError(
                f"access_batch serviced {serviced} of "
                f"{len(requests)} requests; the FR-FCFS order must "
                "cover every slot exactly once"
            )
        results: list[Optional[AccessTiming]] = [None] * len(requests)
        for position, i in enumerate(order):
            results[i] = AccessTiming(
                starts[position], completes[position], hits[position]
            )
        return [result for result in results if result is not None]
