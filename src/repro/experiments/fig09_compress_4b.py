"""Figure 9: compressibility when freeing 4 bytes per 64-byte block.

The paper's preferred operating point: TXT + MSB + RLE with a 2-bit scheme
tag compresses ~94 % of blocks on average; TXT is decisive for text-heavy
benchmarks (perlbench, xalancbmk), RLE generally beats FPC with far less
metadata, and MSB carries the floating-point suites.
"""

from __future__ import annotations

from repro.experiments import compressibility
from repro.experiments.common import ExperimentTable, Scale

__all__ = ["run"]


def run(scale: Scale = Scale.SMALL) -> ExperimentTable:
    return compressibility.run(ecc_bytes=4, scale=scale)
