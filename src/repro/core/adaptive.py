"""Adaptive-strength COP: stronger codes for more compressible blocks.

Section 3.1: "Although it is theoretically possible to use stronger codes
for more compressible data blocks, for simplicity, we target the same
compression ratio for each block."  This module drops the simplification
and implements the idea:

* a block that compresses to <= 448 bits is stored in the **strong**
  format — eight (64,56) SECDED words (the 8-byte variant), which
  corrects one bit *per word* and so survives most multi-bit upsets;
* a block that only compresses to <= 480 bits uses the standard 4-byte
  format — four (128,120) words, single correction per block;
* everything else is stored raw, exactly as in plain COP.

The decoder still needs no metadata.  The two formats use *different*
static hash masks (derived from variant-specific seeds), so a block
encoded one way looks uniformly random to the other geometry's check:
the decoder counts valid words under both and picks the format whose
threshold is met (strong first).  Cross-reading odds are the usual alias
arithmetic: a strong block misread as standard requires >= 3 of 4 valid
(128,120) words from effectively random bits (~2e-7), and vice versa
(~1e-10) — both caught by the same keep-aliases-in-LLC rule as baseline
COP, applied against *both* geometries.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compression.base import check_block
from repro.core.codec import BlockKind, COPCodec, DecodedBlock, EncodedBlock
from repro.core.config import COPConfig
from repro.ecc.hashmask import DEFAULT_HASH_SEED

__all__ = ["AdaptiveCodec", "AdaptiveDecoded"]


@dataclass(frozen=True)
class AdaptiveDecoded:
    """Decode result carrying which strength level was detected."""

    result: DecodedBlock
    strength: str  # "strong" | "standard" | "raw"


class AdaptiveCodec:
    """Two-tier COP codec (strong 8-byte / standard 4-byte / raw)."""

    def __init__(self, hash_seed: int = DEFAULT_HASH_SEED) -> None:
        # Distinct hash seeds keep the two geometries mutually opaque.
        self.strong = COPCodec(
            COPConfig.eight_byte(hash_seed=hash_seed ^ 0x57_8083)
        )
        self.standard = COPCodec(COPConfig.four_byte(hash_seed=hash_seed))

    # -- encoder ------------------------------------------------------------

    def encode(self, block: bytes) -> tuple[EncodedBlock, str]:
        """Store at the strongest level the block's compressibility allows."""
        check_block(block)
        strong = self.strong.encode(block)
        if strong.compressed:
            return strong, "strong"
        standard = self.standard.encode(block)
        if standard.compressed:
            return standard, "standard"
        return standard, "raw"

    # -- decoder ------------------------------------------------------------

    def decode(self, stored: bytes) -> AdaptiveDecoded:
        """Classify by counting valid words under both geometries."""
        check_block(stored)
        strong_count = self.strong.codeword_count(stored)
        if strong_count >= self.strong.config.codeword_threshold:
            return AdaptiveDecoded(self.strong.decode(stored), "strong")
        standard_count = self.standard.codeword_count(stored)
        if standard_count >= self.standard.config.codeword_threshold:
            return AdaptiveDecoded(self.standard.decode(stored), "standard")
        return AdaptiveDecoded(
            DecodedBlock(BlockKind.RAW, bytes(stored), standard_count),
            "raw",
        )

    def is_alias(self, block: bytes) -> bool:
        """Raw data must not satisfy *either* geometry's threshold."""
        return (
            self.strong.codeword_count(block)
            >= self.strong.config.codeword_threshold
            or self.standard.codeword_count(block)
            >= self.standard.config.codeword_threshold
        )

    # -- analysis helpers -----------------------------------------------------

    def strength_of(self, block: bytes) -> str:
        """Which tier would store this block (without encoding it)."""
        return self.encode(block)[1]
