"""Figure 8: compressibility when freeing 8 bytes per 64-byte block.

TXT cannot reach the 66 freed bits this target needs, so the scheme suite
is MSB + RLE (plus FPC as the comparison algorithm) — matching the
paper's figure, which omits TXT.
"""

from __future__ import annotations

from repro.experiments import compressibility
from repro.experiments.common import ExperimentTable, Scale

__all__ = ["run"]


def run(scale: Scale = Scale.SMALL) -> ExperimentTable:
    return compressibility.run(ecc_bytes=8, scale=scale)
