"""COP core: the paper's primary contribution.

* :class:`~repro.core.config.COPConfig` — the 4-byte (4x(128,120),
  threshold 3) and 8-byte (8x(64,56), threshold 5) variants.
* :class:`~repro.core.codec.COPCodec` — block encoder/decoder implementing
  Fig. 2: compress -> SECDED encode -> static hash on write; hash ->
  code-word count -> correct -> decompress (or raw passthrough) on read.
* :mod:`~repro.core.alias` — alias detection, the analytical alias
  probability model, and the code-word census behind Table 3.
* :class:`~repro.core.coper.ECCRegion` — COP-ER's dynamically grown ECC
  region with its 3-level valid-bit tree (Figs. 6-7).
* :class:`~repro.core.controller.ProtectedMemory` — the memory-controller
  model integrating codec, LLC and DRAM for every protection mode evaluated
  in the paper (Unprotected, COP, COP-ER, ECC-Region baseline, ECC DIMM).
"""

from repro.core.adaptive import AdaptiveCodec, AdaptiveDecoded
from repro.core.alias import (
    AliasCensus,
    alias_probability,
    codeword_count_probability,
    valid_codeword_probability,
)
from repro.core.chipkill import ChipkillCodec, ChipkillConfig, chipkill_compressor
from repro.core.codec import BlockKind, COPCodec, DecodedBlock, EncodedBlock
from repro.core.config import COPConfig
from repro.core.coper import CoperBlockFormat, ECCRegion
from repro.core.controller import (
    AccessResult,
    ControllerStats,
    ProtectedMemory,
    ProtectionMode,
)

__all__ = [
    "COPConfig",
    "AdaptiveCodec",
    "AdaptiveDecoded",
    "COPCodec",
    "ChipkillCodec",
    "ChipkillConfig",
    "chipkill_compressor",
    "BlockKind",
    "EncodedBlock",
    "DecodedBlock",
    "AliasCensus",
    "alias_probability",
    "valid_codeword_probability",
    "codeword_count_probability",
    "ECCRegion",
    "CoperBlockFormat",
    "ProtectedMemory",
    "ProtectionMode",
    "AccessResult",
    "ControllerStats",
]
