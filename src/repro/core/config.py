"""Configuration of the COP block format.

The paper's preferred variant frees 4 bytes per 64-byte block and splits
the compressed payload across four (128,120) SECDED code words, declaring a
block "compressed" when at least 3 of the 4 words decode cleanly.  The
alternative 8-byte variant uses eight (64,56) words with a threshold of 5,
trading compressibility for multi-word correction.  Both share the
invariant that each code word carries exactly one byte of check bits, so a
64-byte stored block always holds ``ecc_bytes`` code words' worth of parity.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.compression.base import BLOCK_BITS, BLOCK_BYTES
from repro.ecc.hashmask import DEFAULT_HASH_SEED

__all__ = ["COPConfig"]

#: Check bits per code word — every COP geometry spends one byte per word.
_CHECK_BITS_PER_WORD = 8


@dataclass(frozen=True)
class COPConfig:
    """Parameters of one COP deployment.

    Attributes
    ----------
    ecc_bytes:
        Bytes freed per block for check bits (4 or 8 in the paper; any
        divisor of 64 with a constructible code geometry works).
    codeword_threshold:
        Minimum number of valid code words for the decoder to treat a block
        as compressed.  The paper uses 3 (of 4) and 5 (of 8); Section 3.1
        discusses lowering 3 -> 2 to extend correction at the cost of
        orders-of-magnitude more aliases (see the threshold ablation bench).
    hash_seed:
        Seed of the static per-segment XOR hash.
    decompress_latency:
        Extra memory-read latency in CPU cycles charged by the performance
        model ("an additional decode/decompress latency of 4 cycles").
    """

    ecc_bytes: int = 4
    codeword_threshold: int = 3
    hash_seed: int = DEFAULT_HASH_SEED
    decompress_latency: int = 4

    def __post_init__(self) -> None:
        if BLOCK_BITS % max(self.ecc_bytes, 1) or self.ecc_bytes < 1:
            raise ValueError(f"ecc_bytes must divide the block: {self.ecc_bytes}")
        if self.codeword_bits <= _CHECK_BITS_PER_WORD:
            raise ValueError(f"ecc_bytes {self.ecc_bytes} leaves no data bits")
        if not 1 <= self.codeword_threshold <= self.num_codewords:
            raise ValueError(
                f"threshold {self.codeword_threshold} out of range for "
                f"{self.num_codewords} code words"
            )

    # -- derived geometry ------------------------------------------------

    @property
    def num_codewords(self) -> int:
        """Code words per stored block (one per check byte)."""
        return self.ecc_bytes

    @property
    def codeword_bits(self) -> int:
        """n of the per-word code: 128 for the 4-byte variant, 64 for 8."""
        return BLOCK_BITS // self.num_codewords

    @property
    def codeword_data_bits(self) -> int:
        """k of the per-word code: 120 or 56."""
        return self.codeword_bits - _CHECK_BITS_PER_WORD

    @property
    def code_geometry(self) -> tuple[int, int]:
        """(n, k) of the SECDED code protecting each word."""
        return (self.codeword_bits, self.codeword_data_bits)

    @property
    def capacity_bits(self) -> int:
        """Compressed-payload capacity per block (tag included): 480 / 448."""
        return self.num_codewords * self.codeword_data_bits

    @property
    def block_bytes(self) -> int:
        """Stored block size (always the cache-line size)."""
        return BLOCK_BYTES

    # -- named variants ----------------------------------------------------

    @classmethod
    def four_byte(cls, **overrides) -> "COPConfig":
        """The paper's preferred variant: 4x(128,120), threshold 3."""
        return cls(**{"ecc_bytes": 4, "codeword_threshold": 3, **overrides})

    @classmethod
    def eight_byte(cls, **overrides) -> "COPConfig":
        """The stronger-correction variant: 8x(64,56), threshold 5."""
        return cls(**{"ecc_bytes": 8, "codeword_threshold": 5, **overrides})
