"""Tests for the simulator's epoch replay and its image-free controller use.

The replay in :class:`~repro.simulation.system.MultiCoreSystem` reads
struct-of-arrays traces, defers DRAM timing to MSHR-wave boundaries and
writes block *classifications* rather than bytes through the controller's
``write``/``read``.  Its outputs were once checked against a second,
scalar replay loop; they are now held to sha256 digests frozen from that
loop's runs (``TestBenchmarkParity``, next to the figure goldens of
``tests/test_golden.py``), and a hypothesis differential
(``test_differential_random_traces``) holds classified writes and
image-free reads to byte-carrying ones.
"""

import hashlib
import io
import json
import random
from dataclasses import asdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import pointer_alias_block

from repro.core.codec import COPCodec
from repro.core.config import COPConfig
from repro.core.controller import (
    BlockNotWrittenError,
    ProtectedMemory,
    ProtectionMode,
)
from repro.experiments import simruns
from repro.experiments.common import Scale
from repro.experiments.simruns import run_benchmark, run_mix
from repro.obs import Observability
from repro.simulation.config import SCALED_SYSTEM
from repro.workloads.profiles import PROFILES
from repro.workloads.tracegen import Access, Epoch, EpochArrays, TraceGenerator


def _strip_wall(obj):
    """Drop wall-clock keys (``*.seconds`` gauges) from a snapshot."""
    if isinstance(obj, dict):
        return {
            k: _strip_wall(v)
            for k, v in obj.items()
            if not (isinstance(k, str) and "seconds" in k)
        }
    return obj


def _events(text: str) -> list[str]:
    """Trace events normalised: wall-clock span durations removed."""
    out = []
    for line in text.splitlines():
        event = json.loads(line)
        event.pop("wall_ms", None)
        out.append(json.dumps(event, sort_keys=True))
    return out


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _outcome_digest(outcome) -> str:
    """Digest of a run's PerfResult, vulnerability report and controller
    stats (floats as their exact ``repr``)."""
    return _sha256(
        json.dumps(
            [
                asdict(outcome.perf),
                asdict(outcome.vulnerability),
                outcome.memory.stats.as_dict(),
            ],
            sort_keys=True,
        )
    )


class TestEpochArrays:
    def test_round_trip(self):
        generator = TraceGenerator(PROFILES["gcc"], seed=3)
        epochs = list(generator.epochs(40))
        arrays = EpochArrays.from_epochs(epochs)
        assert list(arrays.to_epochs()) == epochs
        assert len(arrays) == 40
        assert arrays.accesses == sum(len(e.accesses) for e in epochs)

    def test_epoch_slice(self):
        arrays = EpochArrays.from_epochs(
            [Epoch(7, (Access(0, False), Access(64, True))), Epoch(9, (Access(128, False),))]
        )
        assert arrays.epoch_slice(0) == (7, 0, 2)
        assert arrays.epoch_slice(1) == (9, 2, 3)

    def test_validation(self):
        ok = EpochArrays.from_epochs([Epoch(1, (Access(0, True),))])
        with pytest.raises(ValueError):
            EpochArrays(
                instructions=ok.instructions,
                starts=ok.starts[:-1],
                addrs=ok.addrs,
                is_store=ok.is_store,
            )
        with pytest.raises(ValueError):
            EpochArrays(
                instructions=ok.instructions,
                starts=ok.starts,
                addrs=ok.addrs,
                is_store=np.zeros(5, dtype=np.bool_),
            )

    @pytest.mark.parametrize("bench", ["gcc", "lbm", "canneal"])
    @pytest.mark.parametrize("seed", [0, 11])
    def test_epoch_arrays_matches_epochs(self, bench, seed):
        """``epoch_arrays(n)`` is the same RNG draw sequence as
        ``epochs(n)`` — identical trace, identical generator state after."""
        profile = PROFILES[bench]
        via_epochs = TraceGenerator(profile, seed=seed, base_addr=1 << 40)
        direct = TraceGenerator(profile, seed=seed, base_addr=1 << 40)
        for count in (50, 25):  # second call: cursor/RNG state carried over
            a = EpochArrays.from_epochs(via_epochs.epochs(count))
            b = direct.epoch_arrays(count)
            for name in ("instructions", "starts", "addrs", "is_store"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
        assert via_epochs._cursor == direct._cursor


class TestBenchmarkParity:
    """Runs match the digests frozen from the retired scalar replay loop.

    Each digest was recorded from that loop (``Epoch`` iterators, real
    ``write``/``read`` on generated bytes) at SMOKE scale before it was
    deleted, except ``SHARED_SPACE_DIGESTS``, recorded from the array
    replay while it still populated every block at its first miss; any
    drift in the LLC, controller bookkeeping, DRAM timing or trace
    emission changes a digest.
    """

    MODE_DIGESTS = {
        ProtectionMode.UNPROTECTED: "17cded89e43c0f72177471377cedefd7085cd28fa654fecd9ef5ca5b653276f8",
        ProtectionMode.COP: "a18c15675feec344aa4940859aeb16e1b5afc3e20fe65e680e207210fe3dd2a7",
        ProtectionMode.COP_ER: "7e2869bfb5995c15ebd367df07ad2cf0549c66c3253638fca611e0b3bcb643a8",
        ProtectionMode.ECC_REGION: "1aa682c6295022c5b97f4e943378c2b1b5e3f01b1bd157f9ad30f7f95418dab9",
        ProtectionMode.EMBEDDED_ECC: "670385828395f16c6726fb0a54db95a5fa047bae13b44f242c6adaea0c0387b1",
        ProtectionMode.MEMZIP: "7bdfba14ca0780b712c36c0c0edcf151eab2fbb5618050925de53f6afa012088",
        ProtectionMode.ECC_DIMM: "c0da65f9d00fa21c6ef823dc24f36361a7907895087ffc84805ef08bb23e234b",
    }
    BENCH_DIGESTS = {
        "lbm": "e840105d77726e4680d6500cc87660218b534866e88910eaadbd6b9cbc3bd895",
        "mcf": "68b4b566e066f90ae11720f8389494c1c83c3a58b574051d61244f8f688500d3",
        "omnetpp": "96116bc9557058762cccdcf62c3bfcaac3929f47291b8e0f539203d87e9e7cee",
        "canneal": "0be9fcea96737e3fa9dd8797a826f26936032d60a76d66e3bff624b2f3184deb",
    }
    #: canneal, the shared-space run (its cores share one footprint and
    #: one content stream), in the modes the other digests leave to gcc.
    SHARED_SPACE_DIGESTS = {
        ProtectionMode.UNPROTECTED: "21d708fcda497f55654145f9334084271bce7268a485be133847a80b600e6ce2",
        ProtectionMode.ECC_REGION: "0b7e468b9fe1beb64d2d8a010401eadd3ebadc478f0fb4f108b3c1cfbd0bf284",
        ProtectionMode.MEMZIP: "fe430d296f591bc34cc5671eb9b1afff4dca952716719c1ad74de81a24fbca56",
    }
    MIX_DIGEST = "0622866740891b3ea416a699cc24f0c3f070a5414ed315d7ec5bd50bfe980bb1"
    #: mcf, COP, 2 cores: the metrics snapshot (wall-clock gauges
    #: stripped) as sorted JSON, and the trace events (``wall_ms``
    #: stripped), one sorted-JSON event per line.
    METRICS_DIGEST = "acfe3207dc704641b31bc4e3f754de117fdbf3cba8eadb6a51e5fb7f5b61e895"
    EVENTS_DIGEST = "6ad49b0ab9d907c713659b5498e2aec7672b220e047bdbce0a13173aab2b20f3"

    @pytest.mark.parametrize("mode", list(ProtectionMode))
    def test_every_mode(self, mode):
        outcome = run_benchmark("gcc", mode, scale=Scale.SMOKE, cores=2)
        assert _outcome_digest(outcome) == self.MODE_DIGESTS[mode]

    @pytest.mark.parametrize("bench", ["lbm", "mcf", "omnetpp", "canneal"])
    def test_memory_intensive_benchmarks(self, bench):
        outcome = run_benchmark(bench, ProtectionMode.COP, scale=Scale.SMOKE, cores=2)
        assert _outcome_digest(outcome) == self.BENCH_DIGESTS[bench]

    @pytest.mark.parametrize("mode", list(SHARED_SPACE_DIGESTS))
    def test_shared_space_modes(self, mode):
        outcome = run_benchmark("canneal", mode, scale=Scale.SMOKE, cores=2)
        assert _outcome_digest(outcome) == self.SHARED_SPACE_DIGESTS[mode]

    def test_mix_parity(self):
        outcome = run_mix(("gcc", "lbm"), ProtectionMode.COP_ER, scale=Scale.SMOKE)
        assert _outcome_digest(outcome) == self.MIX_DIGEST

    def test_metrics_and_trace_events(self):
        """With observability live, the replay emits the same events in
        the same order with the same fields (minus wall clock)."""
        sink = io.StringIO()
        obs = Observability.create(trace_sink=sink)
        run_benchmark("mcf", ProtectionMode.COP, scale=Scale.SMOKE, cores=2, obs=obs)
        obs.trace.flush()
        metrics = json.dumps(_strip_wall(obs.snapshot()), sort_keys=True)
        events = _events(sink.getvalue())
        assert len(events) == 398
        assert _sha256(metrics) == self.METRICS_DIGEST
        assert _sha256("\n".join(events)) == self.EVENTS_DIGEST


class TestTraceReuse:
    """The mode jobs of one benchmark share one read-only trace per core."""

    @pytest.fixture
    def captured(self, monkeypatch):
        """The trace lists ``run_benchmark`` hands the simulator."""
        seen = []
        real = simruns.MultiCoreSystem

        def capture(memory, traces, *args, **kwargs):
            seen.append(list(traces))
            return real(memory, traces, *args, **kwargs)

        monkeypatch.setattr(simruns, "MultiCoreSystem", capture)
        simruns._trace_arrays.cache_clear()
        return seen

    def test_modes_get_equal_traces(self, captured):
        for mode in (ProtectionMode.COP, ProtectionMode.ECC_REGION):
            run_benchmark("mcf", mode, scale=Scale.SMOKE, cores=2)
        first, second = captured
        for a, b in zip(first, second):
            for name in ("instructions", "starts", "addrs", "is_store"):
                assert np.array_equal(getattr(a, name), getattr(b, name))
        profile = PROFILES["mcf"]
        footprint = profile.footprint_mb * (1 << 20) // 64
        fresh = TraceGenerator(
            profile,
            seed=11 * 1000 + 1,
            footprint_blocks=max(2048, footprint // SCALED_SYSTEM.footprint_divider),
            base_addr=1 << 40,
        ).epoch_arrays(60)
        assert np.array_equal(second[1].addrs, fresh.addrs)

    def test_shared_arrays_are_read_only(self, captured):
        run_benchmark("lbm", ProtectionMode.COP, scale=Scale.SMOKE, cores=1)
        trace = captured[0][0]
        for name in ("instructions", "starts", "addrs", "is_store"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(trace, name)[0] = 1

    def test_cache_stays_within_its_bound(self, captured):
        bound = simruns._trace_arrays.cache_info().maxsize
        for seed in range(bound + 3):
            simruns._trace_arrays(PROFILES["gcc"], seed, 2048, 0, 5)
        assert simruns._trace_arrays.cache_info().currsize == bound


# -- classified vs byte-carrying controller differential -----------------------

_CODEC = COPCodec(COPConfig.four_byte())


def _craft_alias_block(rng: random.Random) -> bytes:
    """A raw block the decoder mistakes for compressed data: every stored
    word is a valid code word (natural aliases, ~2.4e-7, never show up)."""
    words = [
        _CODEC.code.encode(rng.getrandbits(_CODEC.config.codeword_data_bits))
        for _ in _CODEC.masks
    ]
    block = _CODEC._pack_words(words)
    assert _CODEC.is_alias(block)
    return block


def _block_pool() -> list[bytes]:
    rng = random.Random("twin-differential")
    compressible = [bytes(64), bytes(range(16)) * 4, b"\x01\x00\x00\x00" * 16]
    incompressible = [rng.randbytes(64) for _ in range(3)]
    # Aliases only under COP-ER entry 0's or 1's pointer: rewriting a
    # block that holds that entry must move it to a fresh one.
    formatter = ProtectedMemory(ProtectionMode.COP_ER).formatter
    incompressible += [pointer_alias_block(formatter, e, rng) for e in (0, 1)]
    aliases = [_craft_alias_block(rng) for _ in range(3)]
    capacity = _CODEC.config.capacity_bits
    assert all(_CODEC.compressor.compress(b, capacity) for b in compressible)
    assert not any(
        _CODEC.compressor.compress(b, capacity) for b in incompressible + aliases
    )
    return compressible + incompressible + aliases


_POOL = _block_pool()

#: One operation: ``(is_write, address slot, pool index)``.
_OPS = st.lists(
    st.tuples(
        st.booleans(),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=len(_POOL) - 1),
    ),
    min_size=1,
    max_size=40,
)


def _classify(memory: ProtectedMemory, block: bytes) -> tuple[bool, bool]:
    """The ``(compressible, alias)`` pair the simulator writes for a block."""
    if memory.codec is None:
        return (False, False)
    codec = memory.codec
    if codec.compressor.compress(block, codec.config.capacity_bits) is not None:
        return (True, False)
    return (False, codec.is_alias(block))


def _result_shape(result) -> tuple:
    """Every ``AccessResult`` field except the payload bytes."""
    return (
        result.accepted,
        result.compressed,
        result.was_uncompressed,
        result.corrected,
        result.uncorrectable,
        result.decompress_cycles,
        result.ecc_reads,
        result.ecc_writes,
    )


def _memory_state(memory: ProtectedMemory) -> tuple:
    region = memory.region
    return (
        memory.stats.as_dict(),
        dict(memory.entry_of),
        # Live entry indices only: classified writes never fill the payloads.
        sorted(region._entries) if region is not None else None,
        set(memory.ever_incompressible),
        set(memory.compressed_blocks),
        set(memory.contents),
    )


def _replay_both(mode: ProtectionMode, ops) -> None:
    sinks = io.StringIO(), io.StringIO()
    real, classified = (
        ProtectedMemory(mode, obs=Observability.create(trace_sink=sink))
        for sink in sinks
    )
    for is_write, slot, index in ops:
        addr = slot * 64
        block = _POOL[index]
        if is_write:
            got = classified.write(
                addr, _classify(classified, block), content=lambda: block
            )
            assert _result_shape(got) == _result_shape(real.write(addr, block))
        elif addr in real.contents:
            got = classified.read(addr)
            assert got.data is None
            assert _result_shape(got) == _result_shape(real.read(addr))
        else:
            with pytest.raises(BlockNotWrittenError):
                real.read(addr)
            with pytest.raises(BlockNotWrittenError):
                classified.read(addr)
        assert _memory_state(classified) == _memory_state(real), mode
    for memory in (real, classified):
        memory.obs.trace.flush()
    assert _events(sinks[0].getvalue()) == _events(sinks[1].getvalue()), mode


@settings(max_examples=100, deadline=None)
@given(ops=_OPS)
def test_differential_random_traces(ops):
    """Classified writes and image-free reads equal byte-carrying
    ``write``/``read`` on random write/rewrite/read sequences, crafted
    aliases included, in every mode: the same results (payload aside),
    counters, COP-ER entries, compressed table, contents keys and trace
    events."""
    for mode in ProtectionMode:
        _replay_both(mode, ops)


#: Fresh blocks for one sequence-form write: ``(address slot, pool index)``.
_FRESH = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=63),
        st.integers(min_value=0, max_value=len(_POOL) - 1),
    ),
    max_size=24,
    unique_by=lambda op: op[0],
)


@settings(max_examples=100, deadline=None)
@given(blocks=_FRESH)
def test_sequence_write_equals_one_by_one(blocks):
    """One sequence-form ``write`` of fresh classified blocks leaves the
    controller exactly as writing them one by one does, in every mode but
    COP-ER (whose entry allocation is order dependent).  COP aliases are
    left out: the sequence form refuses them."""
    for mode in ProtectionMode:
        if mode is ProtectionMode.COP_ER:
            continue
        single, bulk = ProtectedMemory(mode), ProtectedMemory(mode)
        addrs, kinds = [], []
        for slot, index in blocks:
            kind = _classify(single, _POOL[index])
            if mode is ProtectionMode.COP and kind[1]:
                continue
            addrs.append(slot * 64)
            kinds.append(kind)
            assert single.write(slot * 64, kind).accepted
        assert bulk.write(addrs, kinds) is None
        assert _memory_state(bulk) == _memory_state(single), mode
        for addr in addrs:
            assert _result_shape(bulk.read(addr)) == _result_shape(single.read(addr))
