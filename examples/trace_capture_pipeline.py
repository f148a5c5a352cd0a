#!/usr/bin/env python3
"""Scenario: the paper's trace-capture methodology, end to end.

The evaluation pipeline in the paper: Sniper (Pin-based) runs the
benchmark below a Table-1 cache hierarchy and records the *L3 misses*
with their block contents; the interval simulator replays only those.
This example runs the equivalent flow in this library:

1. synthesise a raw (core-side) access stream for a benchmark,
2. filter it through private L1/L2 + shared L3,
3. show the per-level hit rates and the effective L3 MPKI,
4. measure compressibility over the *filtered* stream — the population
   that actually reaches DRAM, which is what Figs. 8/9 tabulate.

Run: ``python examples/trace_capture_pipeline.py``
"""

import random

from repro.cache.hierarchy import CacheHierarchy, LevelConfig
from repro.compression.combined import cop_combined_compressor
from repro.workloads.blocks import BlockSource
from repro.workloads.profiles import PROFILES
from repro.workloads.tracegen import Access

BENCH = "omnetpp"
RAW_ACCESSES = 30_000
INSTR_PER_ACCESS = 3  # roughly one memory reference per 3 instructions


def raw_stream(profile, source_seed):
    """A core-side stream: hot loops + working-set walks + cold misses."""
    rng = random.Random(f"raw|{profile.name}|{source_seed}")
    hot = [rng.randrange(1 << 14) * 64 for _ in range(8)]
    warm = [rng.randrange(1 << 18) * 64 for _ in range(512)]
    for _ in range(RAW_ACCESSES):
        roll = rng.random()
        if roll < 0.70:
            addr = rng.choice(hot)  # register-adjacent reuse
        elif roll < 0.95:
            addr = rng.choice(warm)  # working set
        else:
            addr = rng.randrange(1 << 26) * 64  # cold / streaming
        yield Access(addr, rng.random() < profile.write_fraction)


def main() -> None:
    profile = PROFILES[BENCH]
    source = BlockSource(profile, seed=17)
    # A scaled-down Table 1 hierarchy (divide every level by 16).
    hierarchy = CacheHierarchy(
        cores=1,
        levels=(
            LevelConfig("L1D", 2 << 10, 8, 4, private=True),
            LevelConfig("L2", 16 << 10, 8, 9, private=True),
            LevelConfig("L3", 256 << 10, 16, 34, private=False),
        ),
    )

    misses = hierarchy.filter_accesses(0, raw_stream(profile, 17))

    stats = hierarchy.stats
    print(f"benchmark: {BENCH}; raw stream: {stats.accesses} accesses")
    for level in ("L1D", "L2", "L3"):
        print(f"  {level} hit rate: {stats.hit_rate(level):6.1%}")
    mpki = 1000 * stats.llc_misses / (stats.accesses * INSTR_PER_ACCESS)
    print(f"  L3 misses: {stats.llc_misses}  ->  ~{mpki:.1f} MPKI")

    # Compressibility over the DRAM-visible population only.
    combined = cop_combined_compressor(4)
    blocks = [source.block(access.addr) for access in misses]
    compressible = sum(1 for b in blocks if combined.compressible(b, 480))
    print(
        f"\nof the {len(blocks)} blocks that reach DRAM, "
        f"{compressible / len(blocks):.1%} compress at the 4-byte target"
    )
    print("(this filtered population is what Figs. 8-10 are computed over)")


if __name__ == "__main__":
    main()
