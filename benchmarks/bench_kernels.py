"""Microbenchmarks of the hot kernels (true pytest-benchmark timing).

These measure the software model's throughput — SECDED syndrome checks,
the per-scheme compressors, the full COP encode/decode pipeline — which is
what bounds the experiment harness's runtime.  They have no paper
counterpart but document the cost profile of the reproduction.
"""

import random

import pytest

from repro.bench import perf_case
from repro.compression import (
    FPCCompressor,
    MSBCompressor,
    RLECompressor,
    TextCompressor,
    cop_combined_compressor,
    payload_budget,
)
from repro.core.codec import COPCodec
from repro.ecc.codes import code_128_120
from repro.obs.perf import best_seconds
from repro.workloads.profiles import PROFILES
from repro.experiments.common import sample_blocks

_BUDGET = payload_budget(4)


def _profile_blocks(count=256, seed=3):
    return sample_blocks(PROFILES["gcc"], count, seed=seed)


def _codewords(count=512, seed=1):
    code = code_128_120()
    rng = random.Random(seed)
    return code, [code.encode(rng.getrandbits(120)) for _ in range(count)]


# -- bench cases (run by `cop-experiments bench --suite kernels`) -------------


@perf_case(suite="kernels")
def syndrome_scan_scalar():
    code, words = _codewords()
    return lambda: [code.syndrome(w) for w in words]


@perf_case(suite="kernels", inner=8)
def syndrome_scan_batch():
    import numpy as np

    code, words = _codewords()
    arr = np.frombuffer(
        b"".join(w.to_bytes(16, "little") for w in words), dtype=np.uint8
    ).reshape(512, 16)
    code.syndrome_many(arr)  # build the numpy LUTs outside the timing
    return lambda: code.syndrome_many(arr)


@perf_case(suite="kernels")
def cop_encode():
    blocks = _profile_blocks()
    codec = COPCodec()
    return lambda: [codec.encode(b) for b in blocks]


@perf_case(suite="kernels")
def cop_decode():
    blocks = _profile_blocks()
    codec = COPCodec()
    stored = [codec.encode(b).stored for b in blocks]
    return lambda: [codec.decode(s) for s in stored]


@perf_case(suite="kernels", inner=4)
def batch_decode():
    from repro.kernels import BatchCodec, blocks_to_array

    blocks = _profile_blocks()
    codec = COPCodec()
    batch = BatchCodec(codec)
    stored = blocks_to_array([codec.encode(b).stored for b in blocks])
    batch.decode_many(stored)
    return lambda: batch.decode_many(stored)


@pytest.fixture(scope="module")
def blocks():
    return sample_blocks(PROFILES["gcc"], 256, seed=3)


@pytest.fixture(scope="module")
def random_blocks():
    rng = random.Random(5)
    return [rng.randbytes(64) for _ in range(256)]


def test_secded_syndrome_throughput(benchmark):
    code = code_128_120()
    rng = random.Random(1)
    words = [code.encode(rng.getrandbits(120)) for _ in range(512)]
    benchmark(lambda: [code.syndrome(w) for w in words])


def test_secded_encode_throughput(benchmark):
    code = code_128_120()
    rng = random.Random(2)
    payloads = [rng.getrandbits(120) for _ in range(512)]
    benchmark(lambda: [code.encode(p) for p in payloads])


@pytest.mark.parametrize(
    "scheme",
    [
        MSBCompressor(5, True),
        RLECompressor(34),
        TextCompressor(),
        FPCCompressor(),
    ],
    ids=lambda s: s.name,
)
def test_compressor_throughput(benchmark, blocks, scheme):
    benchmark(lambda: [scheme.compress(b, _BUDGET) for b in blocks])


def test_combined_compress_throughput(benchmark, blocks):
    combined = cop_combined_compressor(4)
    benchmark(lambda: [combined.compress(b, _BUDGET + 2) for b in blocks])


def test_cop_encode_throughput(benchmark, blocks):
    codec = COPCodec()
    benchmark(lambda: [codec.encode(b) for b in blocks])


def test_cop_decode_throughput(benchmark, blocks):
    codec = COPCodec()
    stored = [codec.encode(b).stored for b in blocks]
    benchmark(lambda: [codec.decode(s) for s in stored])


def test_cop_decode_raw_passthrough_throughput(benchmark, random_blocks):
    """Decoding incompressible blocks exercises only the syndrome path."""
    codec = COPCodec()
    benchmark(lambda: [codec.decode(b) for b in random_blocks])


# -- batch kernels (repro.kernels) -------------------------------------------


def test_batch_codeword_count_throughput(benchmark, random_blocks):
    from repro.kernels import BatchCodec, blocks_to_array

    batch = BatchCodec(COPCodec())
    arr = blocks_to_array(random_blocks)
    batch.codeword_count_many(arr)  # warm the numpy LUTs
    benchmark(lambda: batch.codeword_count_many(arr))


def test_batch_decode_throughput(benchmark, blocks):
    from repro.kernels import BatchCodec, blocks_to_array

    codec = COPCodec()
    batch = BatchCodec(codec)
    stored = blocks_to_array([codec.encode(b).stored for b in blocks])
    batch.decode_many(stored)
    benchmark(lambda: batch.decode_many(stored))


def test_syndrome_scan_speedup_guard():
    """Acceptance gate: the vectorised 512-word syndrome scan must beat
    the scalar loop by at least 5x (measured ~17x; the assert leaves
    headroom for noisy CI machines)."""
    import numpy as np

    code = code_128_120()
    rng = random.Random(21)
    words = [code.encode(rng.getrandbits(120)) for _ in range(512)]
    arr = np.frombuffer(
        b"".join(w.to_bytes(16, "little") for w in words), dtype=np.uint8
    ).reshape(512, 16)
    code.syndrome_many(arr)  # warm the numpy LUTs

    scalar = best_seconds(lambda: [code.syndrome(w) for w in words])
    batch = best_seconds(lambda: code.syndrome_many(arr), reps=20)
    speedup = scalar / batch
    print(
        f"\n512-word syndrome scan: scalar {1e6 * scalar:.0f} us, "
        f"batch {1e6 * batch:.0f} us, speedup {speedup:.1f}x"
    )
    assert speedup >= 5.0
