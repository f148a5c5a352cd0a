"""The multi-core interval simulator.

Each core replays its epoch trace: run ``instructions`` at the perfect-L3
IPC, then issue the epoch's miss group.  Misses first probe the shared LLC;
real misses go through the protection-mode controller, which may demand
extra ECC-region block accesses (COP-ER, ECC-Region baseline).  ECC blocks
are themselves cached in the LLC, competing with data — exactly the
paper's setup ("ECC metadata is cached in the L3").  Within a group,
DRAM requests are overlappable: the epoch's stall is the *maximum* request
completion, not the sum (interval simulation's core assumption).

Dirty evictions write back through the controller at the current time;
writebacks are buffered (they occupy DRAM banks but do not stall the
core).  A rejected writeback — an incompressible alias under plain COP —
re-pins the line in the LLC with its alias bit set.

Store semantics: a store to a block advances its content *version*; the
new content comes from the benchmark's :class:`BlockSource`, so data
written back to memory keeps the benchmark's compressibility statistics
fresh.

Cores are interleaved by simulated time (the core furthest behind runs
next), which serialises DRAM contention realistically without an event
queue.  The replay rests on four observations:

Wave-deferred DRAM timing
    Within one MSHR wave every miss issues at the same time and no
    LLC/controller *decision* depends on DRAM timings — only the epoch's
    stall does.  So the replay does all cache and controller bookkeeping
    inline, merely *recording* the DRAM requests, and services the whole
    wave at the wave boundary through
    :meth:`~repro.memory.dram.DRAMSystem.service_wave`, which serves it in
    arrival order and carries bank state across waves.  Trace addresses,
    and the ECC blocks that are a pure function of them, are premapped
    into the DRAM location table first, so almost no request decomposes
    its address.  Trace events are buffered in issue order and
    flushed after timing resolves, so deferral never reorders or re-times
    an event.

Content-free fault-free accesses
    On the fault-free path ``decode(encode(x)) == x``: stored payload bits
    never reach an observable output.  Only a block's *classification*
    (compressible / alias) and the mode bookkeeping matter, so the replay
    writes classifications rather than bytes through the controller's
    ``write`` / ``read`` (no image is stored) and LLC lines carry a
    placeholder payload.

Vectorised classification
    :class:`~repro.simulation.content.ContentOracle` classifies every
    trace address's first-touch content in one array pass and store-bumped
    versions lazily (see :mod:`repro.simulation.content`).

First touches in one pass
    A block's first touch is always an LLC miss that stores version 0 of
    its content before reading it, and no earlier decision depends on
    whether it is stored yet.  So ``run`` first stores the job's blocks
    with one sequence-form ``ProtectedMemory.write`` of their
    classifications and stamps their vulnerability clocks at t=0.
    Population is warm-up traffic: it never reaches the DRAM model.  The
    per-miss path (``_populate``) is kept only where the outcome depends
    on *when* a block is stored.  That covers every COP-ER block, because
    entry indices depend on how allocations interleave with writeback
    frees.  It covers a COP alias, which is nudged to a storable version
    and traced as ``alias_reject`` at first touch.  It also covers the
    rare address that is one of the job's ECC blocks as well (embedded
    layouts) or that two content streams share.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.cache.cache import SetAssocCache
from repro.compression.base import BLOCK_BYTES
from repro.core.controller import ProtectedMemory, ProtectionMode
from repro.memory.dram import DRAMSystem
from repro.reliability.parma import VulnerabilityTracker
from repro.simulation.config import SystemConfig
from repro.simulation.content import UNCLASSIFIED, ContentOracle
from repro.workloads.blocks import BlockSource
from repro.workloads.tracegen import EpochArrays

__all__ = ["CoreResult", "PerfResult", "MultiCoreSystem"]

#: Stand-in line payload; the replay never reads cached bytes back.
_PLACEHOLDER = bytes(BLOCK_BYTES)

#: Classification of an incompressible alias under COP.
_ALIAS = (False, True)


@dataclass
class CoreResult:
    instructions: int = 0
    compute_ns: float = 0.0
    stall_ns: float = 0.0
    epochs: int = 0

    @property
    def total_ns(self) -> float:
        return self.compute_ns + self.stall_ns


@dataclass(frozen=True)
class PerfResult:
    """Outcome of one simulation run."""

    cores: tuple[CoreResult, ...]
    cpu_ghz: float
    llc_hits: int
    llc_misses: int
    dram_reads: int
    dram_writes: int
    row_hit_rate: float

    @property
    def instructions(self) -> int:
        return sum(core.instructions for core in self.cores)

    @property
    def total_cycles(self) -> float:
        """Cycles until the last core finishes (the run's makespan).

        A run with no cores (or no epochs) has an empty makespan — report
        zero rather than raising, so degenerate traces flow through the
        ratio properties (which all guard against a zero denominator).
        """
        if not self.cores:
            return 0.0
        return max(core.total_ns for core in self.cores) * self.cpu_ghz

    @property
    def ipc(self) -> float:
        """System IPC: total instructions over the makespan."""
        return self.instructions / self.total_cycles if self.total_cycles else 0.0

    @property
    def core_ipcs(self) -> tuple[float, ...]:
        return tuple(
            core.instructions / (core.total_ns * self.cpu_ghz)
            if core.total_ns
            else 0.0
            for core in self.cores
        )


class _CoreState:
    __slots__ = ("epochs", "time_ns", "perfect_ipc", "result")

    def __init__(self, epochs: EpochArrays, perfect_ipc: float) -> None:
        self.epochs = epochs
        self.time_ns = 0.0
        self.perfect_ipc = perfect_ipc
        self.result = CoreResult()


class _Wave:
    """Deferred state of one MSHR wave (shared ``issue_at``)."""

    __slots__ = ("now_ns", "requests", "misses", "events")

    def __init__(self, now_ns: float) -> None:
        self.now_ns = now_ns
        #: DRAM requests in issue order.
        self.requests: List[Tuple[int, bool]] = []
        #: Per miss: (data request idx, ecc request idxs, decompress ns,
        #: deferred "access" event payload or None).
        self.misses: List[Tuple[int, List[int], float, Optional[dict]]] = []
        #: Trace events in issue order, flushed after timing resolves.
        self.events: List[Tuple[str, dict]] = []


class MultiCoreSystem:
    """Replays per-core traces against one shared LLC + protected memory."""

    def __init__(
        self,
        memory: ProtectedMemory,
        traces: Sequence[EpochArrays],
        sources: Sequence[BlockSource],
        perfect_ipcs: Sequence[float],
        config: SystemConfig,
        tracker: Optional[VulnerabilityTracker] = None,
        obs=None,
    ) -> None:
        if not len(traces) == len(sources) == len(perfect_ipcs):
            raise ValueError("traces, sources and perfect_ipcs must align")
        self.memory = memory
        self.config = config
        self.tracker = tracker
        # One bundle for the whole system; default to the controller's so
        # a caller only has to enable observability in one place.
        self.obs = obs if obs is not None else memory.obs
        self.llc = SetAssocCache(config.llc_bytes, config.llc_ways, name="L3")
        self.dram = DRAMSystem(config.dram, obs=self.obs)
        self._cores = [
            _CoreState(trace, ipc) for trace, ipc in zip(traces, perfect_ipcs)
        ]
        self.oracle = ContentOracle(sources, memory.codec, memory.mode)
        #: addr -> content version (0 until a store advances it).
        self._versions: dict[int, int] = {}
        #: addr -> core that last stored to the block, whose source
        #: generates its stored versions.  Only stored-to lines are ever
        #: written back, so blocks never stored to need no entry.
        self._writer: dict[int, int] = {}
        #: Only COP-ER's entry allocation ever consumes raw bytes.
        self._need_content = memory.mode is ProtectionMode.COP_ER
        self._classify = self.oracle.active
        self._obs_enabled = self.obs.enabled
        self._cycle_ns = config.cycle_ns

    def _protected(self, compressed: bool) -> bool:
        mode = self.memory.mode
        if mode is ProtectionMode.UNPROTECTED:
            return False
        if mode is ProtectionMode.COP:
            return compressed
        return True  # COP-ER / ECC-Region / ECC-DIMM protect everything

    # -- population ----------------------------------------------------------

    def _populate_all(
        self, streams: List[Tuple[int, List[int]]], clash: set[int]
    ) -> None:
        """Store the first touch of every stream address in one write.

        See "First touches in one pass" in the module docstring.  Left to
        :meth:`_populate` at their first miss: COP aliases, and the
        ``clash`` addresses that are also ECC blocks of the job (the LLC
        may cache one as metadata before its first data access, so its
        first write may come at a later version, or never).
        """
        kind = self.oracle.kind
        addrs: List[int] = []
        kinds: List[Tuple[bool, bool]] = []
        for core, stream in streams:
            if self._classify:
                firsts = [kind(core, addr, 0) for addr in stream]
            else:
                firsts = [UNCLASSIFIED] * len(stream)
            if clash or _ALIAS in firsts:
                kept = [
                    (addr, first)
                    for addr, first in zip(stream, firsts)
                    if not first[1] and addr not in clash
                ]
                stream = [addr for addr, _ in kept]
                firsts = [first for _, first in kept]
            addrs += stream
            kinds += firsts
        self.memory.write(addrs, kinds)
        if self.tracker is not None:
            on_write = self.tracker.on_write
            protected = self._protected
            for addr, (compressible, _) in zip(addrs, kinds):
                on_write(addr, 0.0, protected(compressible))

    # -- main loop ---------------------------------------------------------

    def run(self) -> PerfResult:
        """Replay all traces to completion; cores interleave by time."""
        cores = self._cores
        with self.obs.profile.phase("system.run"), self.obs.trace.span(
            "system.run", cores=len(cores)
        ):
            streams = self.oracle.prefetch([core.epochs.addrs for core in cores])
            plans = [
                (
                    core.epochs.instructions.tolist(),
                    core.epochs.starts.tolist(),
                    core.epochs.addrs.tolist(),
                    core.epochs.is_store.tolist(),
                )
                for core in cores
            ]
            trace_addrs = set().union(*(plan[2] for plan in plans))
            side = self.memory.side_ecc_blocks(trace_addrs)
            self.dram.premap(trace_addrs | side)
            if not self._need_content:
                self._populate_all(streams, side.intersection(trace_addrs))
            cursors = [0] * len(cores)
            heap = [(0.0, i) for i in range(len(cores))]
            heapq.heapify(heap)
            while heap:
                _, index = heapq.heappop(heap)
                instructions, starts, addrs, stores = plans[index]
                cursor = cursors[index]
                if cursor >= len(instructions):
                    continue
                cursors[index] = cursor + 1
                self._run_epoch(
                    index,
                    instructions[cursor],
                    addrs,
                    stores,
                    starts[cursor],
                    starts[cursor + 1],
                )
                heapq.heappush(heap, (cores[index].time_ns, index))

        self.publish_metrics()
        return self._perf_result()

    def _run_epoch(
        self,
        core_index: int,
        instructions: int,
        addrs: List[int],
        stores: List[bool],
        lo: int,
        hi: int,
    ) -> None:
        core = self._cores[core_index]
        config = self.config
        compute_ns = (instructions / core.perfect_ipc) * config.cycle_ns
        now_ns = core.time_ns + compute_ns

        stall_until = now_ns
        outstanding = 0
        mshrs = config.mshrs
        lookup = self.llc.lookup
        versions = self._versions
        versions_get = versions.get
        writer = self._writer
        miss = self._miss
        wave = _Wave(now_ns)
        for i in range(lo, hi):
            addr = addrs[i]
            line = lookup(addr)
            if line is not None:
                if stores[i]:
                    # The store rewrites the line: advance its version.
                    versions[addr] = versions_get(addr, 0) + 1
                    writer[addr] = core_index
                    line.dirty = True
                continue
            # MSHR limit: once a full wave of misses is outstanding, the
            # next wave issues when the current one has drained.
            if mshrs and outstanding >= mshrs:
                stall_until = self._flush_wave(wave, stall_until)
                outstanding = 0
                wave = _Wave(stall_until)
            miss(core_index, addr, stores[i], wave)
            outstanding += 1
        stall_until = self._flush_wave(wave, stall_until)

        core.time_ns = stall_until
        core.result.instructions += instructions
        core.result.compute_ns += compute_ns
        core.result.stall_ns += stall_until - now_ns
        core.result.epochs += 1

    # -- miss path ---------------------------------------------------------

    def _miss(
        self, core_index: int, addr: int, is_store: bool, wave: _Wave
    ) -> None:
        """Service one LLC miss; its timing resolves at the wave flush."""
        memory = self.memory
        llc = self.llc
        now_ns = wave.now_ns
        requests = wave.requests
        if addr not in memory.contents:
            self._populate(core_index, addr, wave)
        read = memory.read(addr)
        if self.tracker is not None:
            self.tracker.on_read(addr, now_ns)

        data_idx = len(requests)
        requests.append((addr, False))
        ecc_idxs: List[int] = []
        for ecc_addr in read.ecc_reads:
            if llc.lookup(ecc_addr) is None:
                ecc_idxs.append(len(requests))
                requests.append((ecc_addr, False))
                victim = llc.insert(ecc_addr, _PLACEHOLDER)
                if victim is not None:
                    self._handle_eviction(core_index, victim, wave)

        payload: Optional[dict] = None
        if self._obs_enabled:
            self.obs.profile.count("misses")
            payload = {
                "t_ns": round(now_ns, 3),
                "core": core_index,
                "addr": addr,
                "store": is_store,
                "mode": memory.mode.value,
                "compressed": read.compressed,
                "uncompressed": read.was_uncompressed,
                "corrected": read.corrected,
                "ecc_blocks": len(read.ecc_reads),
                "row_hit": None,  # patched at wave flush
                "latency_ns": None,  # patched at wave flush
            }
            wave.events.append(("access", payload))
        wave.misses.append(
            (
                data_idx,
                ecc_idxs,
                read.decompress_cycles * self._cycle_ns,
                payload,
            )
        )

        if is_store:
            self._versions[addr] = self._versions.get(addr, 0) + 1
            self._writer[addr] = core_index
        victim = llc.insert(
            addr,
            _PLACEHOLDER,
            dirty=is_store,
            was_uncompressed=read.was_uncompressed,
        )
        if victim is not None:
            self._handle_eviction(core_index, victim, wave)

    def _store(self, core_index: int, addr: int, version: int, wave: _Wave):
        """Write one content version of a block through the controller."""
        oracle = self.oracle
        return self.memory.write(
            addr,
            oracle.kind(core_index, addr, version)
            if self._classify
            else UNCLASSIFIED,
            content=(
                (lambda: oracle.take_bytes(core_index, addr, version))
                if self._need_content
                else None
            ),
            events=wave.events,
        )

    def _populate(self, core_index: int, addr: int, wave: _Wave) -> None:
        """First touch of a block :meth:`_populate_all` left out."""
        version = self._versions.get(addr, 0)
        result = self._store(core_index, addr, version, wave)
        while not result.accepted:
            # The freshly generated block is an incompressible alias (odds
            # ~2e-7): nudge the version until a storable image appears.
            version += 1
            self._versions[addr] = version
            result = self._store(core_index, addr, version, wave)
        if self.tracker is not None:
            # The data existed in DRAM since program start: stamp t=0 so
            # its residency before this first read counts as vulnerable.
            self.tracker.on_write(addr, 0.0, self._protected(result.compressed))
        # Population is warm-up traffic; it does not occupy the DRAM model.

    # -- writeback path ----------------------------------------------------

    def _writeback(self, core_index: int, victim, wave: _Wave):
        """Write one dirty (or alias-pinned) LLC victim back to memory.

        Returns the victim pushed out when a rejected (incompressible-alias)
        writeback re-pins its line — that insertion can push *another* line
        out, which the caller must handle in turn.
        """
        addr = victim.addr
        version = self._versions.get(addr, 0)
        writer = self._writer.get(addr, core_index)
        result = self._store(writer, addr, version, wave)
        if self._obs_enabled:
            self.obs.profile.count("writebacks")
            wave.events.append(
                (
                    "writeback",
                    {
                        "t_ns": round(wave.now_ns, 3),
                        "core": core_index,
                        "addr": addr,
                        "accepted": result.accepted,
                        "compressed": result.compressed,
                        "ecc_blocks": len(result.ecc_writes),
                    },
                )
            )
        if not result.accepted:
            # Incompressible alias: it must stay cached, pinned.  The
            # re-pin may displace another line — hand its victim back
            # instead of silently dropping a dirty writeback.
            return self.llc.insert(addr, _PLACEHOLDER, dirty=True, alias=True)
        if self.tracker is not None:
            self.tracker.on_write(
                addr, wave.now_ns, self._protected(result.compressed)
            )
        wave.requests.append((addr, True))
        for ecc_addr in result.ecc_writes:
            line = self.llc.peek(ecc_addr)
            if line is not None:
                line.dirty = True
            else:
                wave.requests.append((ecc_addr, True))
        return None

    def _handle_eviction(self, core_index: int, victim, wave: _Wave) -> None:
        # Alias re-pins can chain: each rejected writeback re-pins into a
        # set that may evict another dirty line.  Every link pins one more
        # way (pinned lines are never victims; a fully pinned set spills
        # to overflow instead), so the chain is bounded by associativity —
        # the guard turns any violation of that invariant into a loud
        # failure rather than unbounded recursion.
        steps = 0
        while victim is not None:
            steps += 1
            if steps > self.llc.ways + 1:
                raise RuntimeError(
                    "eviction chain exceeded LLC associativity "
                    f"({self.llc.ways} ways)"
                )
            line, victim = victim, None
            if self.memory.is_metadata_addr(line.addr):
                # Dirty ECC metadata block: plain DRAM write, no re-encode.
                if line.dirty:
                    wave.requests.append((line.addr, True))
            elif line.dirty or line.alias:
                victim = self._writeback(core_index, line, wave)

    # -- wave flush --------------------------------------------------------

    def _flush_wave(self, wave: _Wave, stall_until: float) -> float:
        """Service the wave's DRAM requests and resolve deferred timing."""
        if wave.requests:
            _starts, completes, row_hits = self.dram.service_wave(
                wave.requests, wave.now_ns
            )
        else:
            completes, row_hits = [], []
        now_ns = wave.now_ns
        metrics = self.obs.metrics
        for data_idx, ecc_idxs, decompress_ns, payload in wave.misses:
            usable = completes[data_idx]
            for idx in ecc_idxs:
                complete = completes[idx]
                if complete > usable:
                    usable = complete
            usable += decompress_ns
            if usable > stall_until:
                stall_until = usable
            if payload is not None:
                latency_ns = usable - now_ns
                metrics.observe("system.miss_latency_ns", latency_ns)
                payload["row_hit"] = row_hits[data_idx]
                payload["latency_ns"] = round(latency_ns, 3)
        if self.obs.enabled:
            trace = self.obs.trace
            for name, payload in wave.events:
                trace.emit(name, **payload)
        return stall_until

    def _perf_result(self) -> PerfResult:
        return PerfResult(
            cores=tuple(core.result for core in self._cores),
            cpu_ghz=self.config.cpu_ghz,
            llc_hits=self.llc.stats.hits,
            llc_misses=self.llc.stats.misses,
            dram_reads=self.dram.stats.reads,
            dram_writes=self.dram.stats.writes,
            row_hit_rate=self.dram.stats.row_hit_rate,
        )

    def publish_metrics(self) -> None:
        """Mirror every layer's stats into the shared metrics registry.

        Idempotent — counters are written as absolute values — and a no-op
        when observability is off.  Produces the unified tree::

            controller.*   functional protection-mode counters
            ecc_region.*   COP-ER entry allocation (live via ECCRegion)
            llc.*          shared-LLC hits/misses/pins/overflow
            dram.*         traffic, row hits, per-bank detail
            system.*       instructions, per-core stall/compute time
            profile.*      host wall-clock phases and hot-path counts
        """
        registry = self.obs.metrics
        if not registry.enabled:
            return
        self.memory.publish_metrics(registry)
        self.llc.publish_metrics(registry, prefix="llc")
        self.dram.publish_metrics(registry, prefix="dram")
        instructions = 0
        epochs = 0
        makespan_ns = 0.0
        for index, core in enumerate(self._cores):
            result = core.result
            instructions += result.instructions
            epochs += result.epochs
            makespan_ns = max(makespan_ns, result.total_ns)
            registry.set_gauge(f"system.core{index}.stall_ns", result.stall_ns)
            registry.set_gauge(f"system.core{index}.compute_ns", result.compute_ns)
        registry.update_counters(
            "system", {"instructions": instructions, "epochs": epochs}
        )
        registry.set_gauge("system.makespan_ns", makespan_ns)
        self.obs.profile.publish(registry)
