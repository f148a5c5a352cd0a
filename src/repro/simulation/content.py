"""Block-content classification for the replay, without materialising bytes.

Contents are a pure function of ``(source, addr, version)``, and on the
fault-free path ``decode(encode(x)) == x``: stored payload bits never reach
an observable output.  Only a block's *classification* (compressible /
alias) and the mode bookkeeping matter.  :class:`ContentOracle` prefetches
the first-touch classification of every unique trace address through the
array kernels of :class:`~repro.kernels.BatchCodec` (``compressible_many``
/ ``is_alias_many``) and resolves store-bumped versions lazily, keeping raw
bytes only where COP-ER's content-dependent entry allocation needs them.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.codec import COPCodec
from repro.core.controller import ProtectionMode
from repro.kernels import BatchCodec, MemoizedCodec, blocks_to_array
from repro.workloads.blocks import BlockSource

__all__ = ["ContentOracle", "UNCLASSIFIED"]

#: Modes whose write path consults block content (classification).
_CONTENT_MODES = frozenset(
    {ProtectionMode.COP, ProtectionMode.COP_ER, ProtectionMode.MEMZIP}
)

#: ``(compressible, alias)`` of every block in a mode that never classifies.
UNCLASSIFIED = (False, False)

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
        per unique ``(source, addr)`` not already in the process store.
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
        compressor — the classification ``ProtectedMemory.write``'s
        ``encode`` performs — so cached and fresh answers are identical by
        construction.
        """
        if not self._active:
            return UNCLASSIFIED
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
