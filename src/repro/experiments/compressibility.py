"""Shared harness for Figures 8 and 9: per-scheme compressibility.

For every Table 2 benchmark (plus per-suite averages) we measure the
fraction of accessed blocks each scheme can compress within the payload
budget of the chosen ECC target.  Figure 8 frees 8 bytes per block
(MSB, RLE, FPC, MSB+RLE); Figure 9 frees 4 (TXT, MSB, RLE, FPC,
TXT+MSB+RLE — the paper's 94 %-average hybrid).

Every probe is a plain scalar scan over the sampled blocks.  There is no
deduplicating batch path: only about 1% of the sampled contents repeat,
so evaluating each distinct content once saves nothing.
"""

from __future__ import annotations

from typing import Callable, Sequence

from repro.compression.base import SCHEME_TAG_BITS, payload_budget
from repro.compression.combined import cop_combined_compressor, cop_scheme_suite
from repro.compression.fpc import FPCCompressor
from repro.experiments.common import ExperimentTable, Scale, sample_blocks
from repro.workloads.profiles import MEMORY_INTENSIVE, PROFILES

__all__ = ["run", "compressible_fraction"]


def compressible_fraction(
    blocks: Sequence[bytes],
    predicate: Callable[[bytes], bool],
) -> float:
    """Fraction of blocks satisfying ``predicate``."""
    return sum(1 for b in blocks if predicate(b)) / len(blocks)


def run(ecc_bytes: int, scale: Scale = Scale.SMALL) -> ExperimentTable:
    samples = scale.pick(smoke=150, small=1500, full=15000)
    budget = payload_budget(ecc_bytes)
    suite = cop_scheme_suite(ecc_bytes)
    combined = cop_combined_compressor(ecc_bytes)
    fpc = FPCCompressor()

    columns = list(suite) + ["FPC", combined.name]
    table = ExperimentTable(
        title=(
            f"Figure {8 if ecc_bytes == 8 else 9}: compressibility when "
            f"freeing {ecc_bytes} bytes per 64-byte block"
        ),
        columns=tuple(columns),
    )
    per_suite: dict[str, list[tuple[float, ...]]] = {}
    for name in MEMORY_INTENSIVE:
        blocks = sample_blocks(name, samples)
        row = [
            compressible_fraction(blocks, lambda b, s=s: s.compressible(b, budget))
            for s in suite.values()
        ]
        row.append(
            compressible_fraction(blocks, lambda b: fpc.compressible(b, budget))
        )
        row.append(
            compressible_fraction(
                blocks,
                lambda b: combined.compressible(b, budget + SCHEME_TAG_BITS),
            )
        )
        table.add(name, row)
        per_suite.setdefault(PROFILES[name].suite, []).append(tuple(row))

    for suite_name, rows in per_suite.items():
        table.add(
            suite_name,
            tuple(sum(r[i] for r in rows) / len(rows) for i in range(len(columns))),
        )
    combined_avg = sum(table.column(combined.name)[: len(MEMORY_INTENSIVE)]) / len(
        MEMORY_INTENSIVE
    )
    table.notes.append(
        f"combined scheme compresses {100 * combined_avg:.1f}% of blocks on "
        f"average (paper: ~94% at 4 bytes)"
    )
    return table
