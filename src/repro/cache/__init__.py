"""Cache substrate: a set-associative write-back LLC with COP metadata.

COP needs two per-line bits beyond an ordinary LLC (Sections 3.1, 3.3):

* ``alias`` — the line is an incompressible alias and must never be written
  back to DRAM; victim selection skips pinned lines, and the exceedingly
  rare all-ways-pinned set overflows into a spill region modelled after the
  paper's linked-list scheme.
* ``was_uncompressed`` — set when the block was read from DRAM in
  uncompressed format, so COP-ER knows an ECC entry already exists for it.
"""

from repro.cache.cache import (
    CacheLine,
    CacheStats,
    OverflowRegion,
    SetAssocCache,
)
from repro.cache.hierarchy import (
    TABLE1_LEVELS,
    CacheHierarchy,
    FilterStats,
    LevelConfig,
)

__all__ = [
    "SetAssocCache",
    "CacheLine",
    "CacheStats",
    "OverflowRegion",
    "CacheHierarchy",
    "LevelConfig",
    "TABLE1_LEVELS",
    "FilterStats",
]
