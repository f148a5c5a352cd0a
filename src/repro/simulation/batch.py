"""Batched epoch replay: the struct-of-arrays fast path of the simulator.

:class:`BatchReplay` replays the same traces as the scalar
``MultiCoreSystem`` loop and is **bit-exact** with it — identical
:class:`~repro.simulation.system.PerfResult`, DRAM / controller / cache
stats, and trace events (the parity suite in ``tests/test_batch_sim.py``
and the ``make sim-parity-smoke`` byte-diff enforce this).  The speed
comes from three structural observations about the scalar loop:

Wave-deferred DRAM timing
    Within one MSHR wave every miss issues at the same ``issue_at`` and no
    LLC/controller *decision* depends on DRAM timings — only the epoch's
    ``stall_until`` does.  So the replay does all cache and controller
    bookkeeping inline (in exact scalar order), merely *recording* the
    DRAM requests, and services the whole wave at the wave boundary
    through :meth:`~repro.memory.dram.DRAMSystem.service_wave`, which
    serves it in arrival order and carries bank state across waves.  The
    replay premaps its trace addresses into the DRAM location table
    first, so no request decomposes its address.  Trace events are
    buffered in scalar order and flushed after timing resolves, so
    deferral never reorders or re-times an event.

Content-free fault-free accesses
    On the fault-free path ``decode(encode(x)) == x``: stored payload
    bits never reach an observable output.  Only a block's
    *classification* (compressible / alias) and the mode bookkeeping
    matter, so the engine calls the controller's ``fast_write`` /
    ``fast_read`` timing twins and skips content generation wherever the
    classification alone suffices.

Vectorised classification
    Contents are a pure function of ``(source, addr, version)``.  The
    :class:`ContentOracle` prefetches the first-touch classification for
    every unique trace address through the array kernels of
    :class:`~repro.kernels.BatchCodec` (``compressible_many`` /
    ``is_alias_many``) and resolves store-bumped versions lazily, keeping
    raw bytes only where COP-ER's content-dependent entry allocation
    needs them.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.codec import COPCodec
from repro.core.controller import ProtectionMode
from repro.kernels import BatchCodec, MemoizedCodec, blocks_to_array
from repro.workloads.blocks import BlockSource
from repro.workloads.tracegen import EpochArrays

__all__ = ["ContentOracle", "BatchReplay"]

#: Modes whose write path consults block content (classification).
_CONTENT_MODES = frozenset(
    {ProtectionMode.COP, ProtectionMode.COP_ER, ProtectionMode.MEMZIP}
)

#: Stand-in line payload; the batch path never reads cached bytes back.
_PLACEHOLDER = bytes(64)

#: ``(compressible, alias)`` of every block in a mode that never classifies.
_UNCLASSIFIED = (False, False)

#: Process-level classification store shared by every oracle.  Content is
#: a pure function of ``(profile, seed, addr, version)`` and a
#: classification additionally of the codec parameters, so entries are
#: valid for the life of the process — fig11-style sweeps that replay the
#: same traces under several protection modes classify each content once.
#: Entry: ``(compressible, alias-or-None, raw bytes for incompressible)``;
#: ``alias`` is filled in lazily by the first mode that needs it (from the
#: retained bytes), compressible blocks never alias.
_Entry = Tuple[bool, Optional[bool], Optional[bytes]]
_STORE: Dict[tuple, Dict[Tuple[int, int], _Entry]] = {}


class ContentOracle:
    """Classification of block contents without materialising them.

    Keyed by ``(source identity, addr, version)`` where source identity is
    ``(profile name, seed)`` — the full seed of a
    :class:`~repro.workloads.blocks.BlockSource` content stream, so cores
    sharing a PARSEC footprint share one classification (and, through
    ``_STORE``, so do successive runs inside one process).
    """

    def __init__(
        self,
        sources: Sequence[BlockSource],
        codec,
        mode: ProtectionMode,
    ) -> None:
        self.sources = list(sources)
        self.mode = mode
        if isinstance(codec, MemoizedCodec):
            codec = codec.codec
        self.codec: Optional[COPCodec] = codec
        self.batch = BatchCodec(codec) if codec is not None else None
        self._need_alias = mode is ProtectionMode.COP
        self._active = mode in _CONTENT_MODES and self.batch is not None
        fp = repr(codec.config) if codec is not None else ""
        #: Per-core view into the process-level store.
        self._stores: List[Dict[Tuple[int, int], _Entry]] = [
            _STORE.setdefault(
                (source.profile.name, source.seed, fp), {}
            )
            for source in self.sources
        ]

    @property
    def active(self) -> bool:
        return self._active

    def prefetch(self, addrs_per_core: Sequence[np.ndarray]) -> None:
        """Classify the first-touch (version 0) content of every address.

        One scalar content generation plus one *vectorised* classification
        per unique ``(source, addr)`` not already in the process store —
        the batch replacement for the per-populate scalar ``encode`` of
        the reference loop.
        """
        if not self._active:
            return
        by_store: Dict[int, Tuple[int, set]] = {}
        for core, addrs in enumerate(addrs_per_core):
            store = self._stores[core]
            entry = by_store.setdefault(id(store), (core, set()))
            entry[1].update(np.unique(addrs).tolist())
        batch = self.batch
        assert batch is not None
        for core, addr_set in by_store.values():
            store = self._stores[core]
            source = self.sources[core]
            todo = sorted(addr for addr in addr_set if (addr, 0) not in store)
            if not todo:
                continue
            blocks = [source.block(addr, 0) for addr in todo]
            array = blocks_to_array(blocks)
            compressible = batch.compressible_many(array)
            alias: np.ndarray = np.zeros(len(todo), dtype=bool)
            raw = np.nonzero(~compressible)[0]
            if self._need_alias and raw.size:
                alias[raw] = batch.is_alias_many(array[raw])
            need_alias = self._need_alias
            for i, addr in enumerate(todo):
                if compressible[i]:
                    store[(addr, 0)] = (True, False, None)
                else:
                    store[(addr, 0)] = (
                        False,
                        bool(alias[i]) if need_alias else None,
                        blocks[i],
                    )

    def kind(self, core_index: int, addr: int, version: int) -> Tuple[bool, bool]:
        """``(compressible, alias)`` for one content, classifying lazily.

        The lazy path (store-bumped versions) probes the *scalar*
        compressor — the classification the reference loop's ``encode``
        performs — so cached and fresh answers are identical by
        construction.
        """
        if not self._active:
            return _UNCLASSIFIED
        store = self._stores[core_index]
        key = (addr, version)
        entry = store.get(key)
        codec = self.codec
        assert codec is not None
        if entry is None:
            block = self.sources[core_index].block(addr, version)
            if (
                codec.compressor.compress(block, codec.config.capacity_bits)
                is not None
            ):
                entry = (True, False, None)
            else:
                entry = (
                    False,
                    codec.is_alias(block) if self._need_alias else None,
                    block,
                )
            store[key] = entry
        compressible, alias, block = entry
        if compressible:
            return (True, False)
        if not self._need_alias:
            return (False, False)
        if alias is None:
            assert block is not None
            alias = codec.is_alias(block)
            store[key] = (False, alias, block)
        return (False, alias)

    def take_bytes(self, core_index: int, addr: int, version: int) -> bytes:
        """The raw 64 bytes of one content (retained or regenerated)."""
        entry = self._stores[core_index].get((addr, version))
        if entry is not None and entry[2] is not None:
            return entry[2]
        return self.sources[core_index].block(addr, version)


class _Wave:
    """Deferred state of one MSHR wave (shared ``issue_at``)."""

    __slots__ = ("now_ns", "requests", "misses", "events")

    def __init__(self, now_ns: float) -> None:
        self.now_ns = now_ns
        #: DRAM requests in exact scalar issue order.
        self.requests: List[Tuple[int, bool]] = []
        #: Per miss: (data request idx, ecc request idxs, decompress ns,
        #: deferred "access" event payload or None).
        self.misses: List[Tuple[int, List[int], float, Optional[dict]]] = []
        #: Trace events in scalar order, flushed after timing resolves.
        self.events: List[Tuple[str, dict]] = []


class BatchReplay:
    """Replay a :class:`MultiCoreSystem`'s traces through the batch path.

    Mutates the system's cores, LLC, DRAM and protected memory exactly as
    the scalar loop would; the system then assembles the
    :class:`PerfResult` from that state as usual.
    """

    def __init__(self, system) -> None:
        self.system = system
        self.memory = system.memory
        self.llc = system.llc
        self.dram = system.dram
        self.obs = system.obs
        self.config = system.config
        self.tracker = system.tracker
        self.oracle = ContentOracle(
            system._sources, self.memory.codec, self.memory.mode
        )
        self._versions: Dict[int, int] = system._versions
        #: addr -> core whose source generated the current content bytes.
        self._writer: Dict[int, int] = {}
        self._cycle_ns = self.config.cycle_ns
        #: Only COP-ER's entry allocation ever consumes raw bytes.
        self._need_content = self.memory.mode is ProtectionMode.COP_ER
        self._classify = self.oracle.active
        self._obs_enabled = self.obs.enabled

    # -- main loop ---------------------------------------------------------

    def replay(self) -> None:
        system = self.system
        cores = system._cores
        with self.obs.profile.phase("system.run"), self.obs.trace.span(
            "system.run", cores=len(cores)
        ):
            arrays = [
                core.epochs
                if isinstance(core.epochs, EpochArrays)
                else EpochArrays.from_epochs(core.epochs)
                for core in cores
            ]
            self.oracle.prefetch([epochs.addrs for epochs in arrays])
            plans = [
                (
                    epochs.instructions.tolist(),
                    epochs.starts.tolist(),
                    epochs.addrs.tolist(),
                    epochs.is_store.tolist(),
                )
                for epochs in arrays
            ]
            self.dram.premap(set().union(*(plan[2] for plan in plans)))
            cursors = [0] * len(cores)
            heap = [(0.0, i) for i in range(len(cores))]
            heapq.heapify(heap)
            while heap:
                _, index = heapq.heappop(heap)
                core = cores[index]
                instructions, starts, addrs, stores = plans[index]
                cursor = cursors[index]
                if cursor >= len(instructions):
                    core.done = True
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
                heapq.heappush(heap, (core.time_ns, index))

    def _run_epoch(
        self,
        core_index: int,
        instructions: int,
        addrs: List[int],
        stores: List[bool],
        lo: int,
        hi: int,
    ) -> None:
        core = self.system._cores[core_index]
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
                    versions[addr] = versions_get(addr, 0) + 1
                    writer[addr] = core_index
                    line.data = _PLACEHOLDER
                    line.dirty = True
                continue
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
        memory = self.memory
        llc = self.llc
        now_ns = wave.now_ns
        requests = wave.requests
        if addr not in memory.contents:
            self._populate(core_index, addr, wave)
        read = memory.fast_read(addr)
        if self.tracker is not None:
            self.tracker.on_read(addr, now_ns)

        data_idx = len(requests)
        requests.append((addr, False))
        ecc_idxs: List[int] = []
        for ecc_addr in read.ecc_reads:
            if llc.lookup(ecc_addr) is None:
                ecc_idxs.append(len(requests))
                requests.append((ecc_addr, False))
                eviction = llc.insert(ecc_addr, _PLACEHOLDER)
                if eviction is not None:
                    self._handle_eviction(core_index, eviction, wave)

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
        eviction = llc.insert(
            addr,
            _PLACEHOLDER,
            dirty=is_store,
            was_uncompressed=read.was_uncompressed,
        )
        if eviction is not None:
            self._handle_eviction(core_index, eviction, wave)

    def _populate(self, core_index: int, addr: int, wave: _Wave) -> None:
        versions = self._versions
        oracle = self.oracle
        memory = self.memory
        need_content = self._need_content
        version = versions.setdefault(addr, 0)
        compressible, alias = (
            oracle.kind(core_index, addr, version)
            if self._classify
            else _UNCLASSIFIED
        )
        result = memory.fast_write(
            addr,
            compressible,
            alias,
            content=(
                (lambda v=version: oracle.take_bytes(core_index, addr, v))
                if need_content
                else None
            ),
            events=wave.events,
        )
        while not result.accepted:
            version += 1
            versions[addr] = version
            compressible, alias = oracle.kind(core_index, addr, version)
            result = memory.fast_write(
                addr,
                compressible,
                alias,
                content=(
                    (lambda v=version: oracle.take_bytes(core_index, addr, v))
                    if need_content
                    else None
                ),
                events=wave.events,
            )
        self._writer[addr] = core_index
        if self.tracker is not None:
            self.tracker.on_write(addr, 0.0, self.system._protected(result))

    # -- writeback path ----------------------------------------------------

    def _writeback(self, core_index: int, victim, wave: _Wave):
        memory = self.memory
        addr = victim.addr
        version = self._versions.get(addr, 0)
        writer = self._writer.get(addr, core_index)
        compressible, alias = (
            self.oracle.kind(writer, addr, version)
            if self._classify
            else _UNCLASSIFIED
        )
        result = memory.fast_write(
            addr,
            compressible,
            alias,
            content=(
                (lambda: self.oracle.take_bytes(writer, addr, version))
                if self._need_content
                else None
            ),
            events=wave.events,
        )
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
            return self.llc.insert(addr, _PLACEHOLDER, dirty=True, alias=True)
        if self.tracker is not None:
            self.tracker.on_write(
                addr, wave.now_ns, self.system._protected(result)
            )
        wave.requests.append((addr, True))
        for ecc_addr in result.ecc_writes:
            line = self.llc.peek(ecc_addr)
            if line is not None:
                line.dirty = True
            else:
                wave.requests.append((ecc_addr, True))
        return None

    def _handle_eviction(self, core_index: int, eviction, wave: _Wave) -> None:
        steps = 0
        while eviction is not None:
            steps += 1
            if steps > self.llc.ways + 1:
                raise RuntimeError(
                    "eviction chain exceeded LLC associativity "
                    f"({self.llc.ways} ways)"
                )
            victim = eviction.line
            eviction = None
            if self.memory.is_metadata_addr(victim.addr):
                if victim.dirty:
                    wave.requests.append((victim.addr, True))
            elif victim.dirty or victim.alias:
                eviction = self._writeback(core_index, victim, wave)

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
