"""Hamming single-error-correcting (SEC) codes.

COP-ER (Section 3.3) displaces 34 bits from every incompressible block:
a 28-bit pointer into the ECC region plus 6 check bits "to correct any bit
errors in the pointer".  Six check bits cannot give SECDED over 28 data
bits (a Hsiao construction would need 28 distinct odd-weight columns from a
6-bit space, and only 26 exist), but a plain Hamming SEC code covers up to
57 data bits with 6 checks — matching the paper's claim of *correction*.

Layout convention matches :class:`~repro.ecc.hsiao.HsiaoCode`: data bits in
positions ``0..k-1``, check bits above them, little-endian integers.
Columns are distinct non-zero ``r``-bit values; check-bit columns are the
powers of two, data columns are the numerically smallest remaining values.
"""

from __future__ import annotations

from typing import Optional

from repro.ecc.hsiao import CodeStatus, DecodeResult

__all__ = ["HammingSEC"]


class HammingSEC:
    """An (n, k) Hamming SEC code (no guaranteed double-error detection)."""

    def __init__(self, n: int, k: int) -> None:
        if n <= k:
            raise ValueError(f"need n > k, got ({n}, {k})")
        self.n = n
        self.k = k
        self.r = n - k
        if n > (1 << self.r) - 1:
            raise ValueError(
                f"{self.r} check bits cover at most {(1 << self.r) - 1 - self.r} "
                f"data bits; cannot build ({n},{k})"
            )

        check_columns = [1 << i for i in range(self.r)]
        power_of_two = set(check_columns)
        data_columns = []
        value = 3
        while len(data_columns) < k:
            if value not in power_of_two:
                data_columns.append(value)
            value += 1
        self.columns: tuple[int, ...] = tuple(data_columns + check_columns)
        self._column_to_pos = {col: pos for pos, col in enumerate(self.columns)}
        self._data_mask = (1 << k) - 1

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HammingSEC(n={self.n}, k={self.k})"

    def encode(self, data: int) -> int:
        """Encode ``k`` data bits into an ``n``-bit codeword."""
        if data < 0 or data >> self.k:
            raise ValueError(f"data does not fit in {self.k} bits")
        check = 0
        v = data
        pos = 0
        while v:
            if v & 1:
                check ^= self.columns[pos]
            v >>= 1
            pos += 1
        return (data | (check << self.k)) & ((1 << self.n) - 1)

    def syndrome(self, word: int) -> int:
        """Syndrome of an ``n``-bit received word (0 means valid)."""
        if word < 0 or word >> self.n:
            raise ValueError(f"word does not fit in {self.n} bits")
        s = 0
        v = word
        pos = 0
        while v:
            if v & 1:
                s ^= self.columns[pos]
            v >>= 1
            pos += 1
        return s

    def decode(self, word: int) -> DecodeResult:
        """Correct a single-bit error if present.

        With a pure Hamming code every non-zero syndrome maps to *some*
        column, so multi-bit errors are silently miscorrected — exactly the
        limitation the paper accepts for the 28-bit pointer.  Syndromes that
        do not match any column (possible because we use a shortened code)
        are reported as ``DETECTED``.
        """
        s = self.syndrome(word)
        if s == 0:
            return DecodeResult(CodeStatus.CLEAN, word & self._data_mask, word, 0)
        pos: Optional[int] = self._column_to_pos.get(s)
        if pos is None:
            return DecodeResult(CodeStatus.DETECTED, word & self._data_mask, word, s)
        fixed = word ^ (1 << pos)
        return DecodeResult(
            CodeStatus.CORRECTED, fixed & self._data_mask, fixed, s, corrected_bit=pos
        )
