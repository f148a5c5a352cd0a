"""Cache substrate: a set-associative write-back LLC with COP metadata.

COP needs one per-line bit beyond an ordinary LLC (Section 3.1):
``ALIAS`` marks an incompressible alias that must never be written back
to DRAM.  Victim selection skips pinned lines, and the exceedingly rare
all-ways-pinned set overflows into a spill dict modelled after the
paper's linked-list scheme.  A line is a flag word of ``DIRTY | ALIAS``.
"""

from repro.cache.cache import (
    ALIAS,
    DIRTY,
    CacheStats,
    SetAssocCache,
)

__all__ = [
    "SetAssocCache",
    "ALIAS",
    "DIRTY",
    "CacheStats",
]
