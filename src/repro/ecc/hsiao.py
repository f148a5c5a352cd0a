"""Hsiao odd-weight-column SECDED codes.

A Hsiao code [Hsiao70]_ is a single-error-correcting, double-error-detecting
(SECDED) linear block code whose parity-check matrix ``H`` consists of
*distinct odd-weight columns*.  The odd-weight property gives SECDED
behaviour with a simple classifier:

* syndrome ``0``                      -> no error,
* syndrome equal to a column of ``H`` -> single-bit error at that column
  (every odd-weight single-bit syndrome is a column, so all single errors
  are correctable),
* any other syndrome                  -> detected-uncorrectable (even weight
  means a double error; an odd-weight non-column means >= 3 errors).

Layout convention: a codeword is an ``n``-bit little-endian integer with the
``k`` data bits in positions ``0 .. k-1`` and the ``r = n - k`` check bits in
positions ``k .. n-1``.  Check-bit position ``k + i`` has column ``1 << i``.

Column selection is deterministic: data columns are the numerically smallest
odd-weight values of weight >= 3, enumerated weight-major (all weight-3
columns, then weight-5, ...), so two processes always construct identical
codes.  For the paper's (72,64) geometry this yields the classic
56-weight-3 + 8-weight-5 construction.

.. [Hsiao70] M. Y. Hsiao, "A class of optimal minimum odd-weight-column
   SEC-DED codes", IBM Journal of R&D, 1970.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from itertools import combinations
from typing import Optional

import numpy as np

__all__ = ["CodeStatus", "DecodeResult", "HsiaoCode", "odd_weight_columns"]


class CodeStatus(enum.Enum):
    """Outcome of decoding one codeword."""

    CLEAN = "clean"  # zero syndrome: no error detected
    CORRECTED = "corrected"  # single-bit error corrected
    DETECTED = "detected"  # uncorrectable error detected (>= 2 bit flips)


@dataclass(frozen=True)
class DecodeResult:
    """Result of :meth:`HsiaoCode.decode`.

    ``data`` and ``codeword`` reflect the post-correction state; for
    ``DETECTED`` they are the received values passed through unmodified
    (the caller decides how to handle uncorrectable words).
    """

    status: CodeStatus
    data: int
    codeword: int
    syndrome: int
    corrected_bit: Optional[int] = None


def odd_weight_columns(r: int, count: int) -> list[int]:
    """Return ``count`` distinct odd-weight (>=3) ``r``-bit columns.

    Enumerated weight-major, numerically ascending within each weight, which
    makes code construction deterministic.  Raises ``ValueError`` when the
    ``r``-bit space cannot supply ``count`` such columns.
    """
    columns: list[int] = []
    for weight in range(3, r + 1, 2):
        for positions in combinations(range(r), weight):
            columns.append(sum(1 << p for p in positions))
            if len(columns) == count:
                # Canonical order: weight-major, numerically ascending.
                return sorted(columns, key=lambda c: (c.bit_count(), c))
    raise ValueError(
        f"cannot build {count} odd-weight columns from {r} check bits"
    )


class HsiaoCode:
    """An (n, k) Hsiao SECDED code over little-endian integer codewords.

    Encoding and syndrome computation are table-driven (256-entry tables per
    byte position), and a numpy bulk path (:meth:`syndrome_many`) supports
    the experiment harness, which must classify millions of words.
    """

    def __init__(self, n: int, k: int) -> None:
        if n <= k:
            raise ValueError(f"need n > k, got ({n}, {k})")
        self.n = n
        self.k = k
        self.r = n - k
        if self.r < 4:
            raise ValueError("SECDED needs at least 4 check bits")

        # Column for every codeword position: data columns then identity.
        data_columns = odd_weight_columns(self.r, k)
        check_columns = [1 << i for i in range(self.r)]
        self.columns: tuple[int, ...] = tuple(data_columns + check_columns)

        # syndrome -> errored bit position (covers all single-bit errors).
        self._column_to_pos = {col: pos for pos, col in enumerate(self.columns)}
        if len(self._column_to_pos) != n:
            raise AssertionError("duplicate H-matrix columns")

        self._data_mask = (1 << k) - 1
        self._enc_tables = self._build_tables(first=0, limit=k)
        self._syn_tables = self._build_tables(first=0, limit=n)
        self._np_syn_tables: Optional[np.ndarray] = None
        self._np_corr_table: Optional[np.ndarray] = None

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HsiaoCode(n={self.n}, k={self.k})"

    def __getstate__(self) -> dict:
        """Pickled state excludes the lazily built numpy LUTs.

        Codes ride into fork-pool workers inside codec closures; the numpy
        tables are derived state, so shipping them would only bloat the
        pickle (and re-share fork-inherited arrays across processes).
        Workers rebuild them on first batch call.
        """
        state = self.__dict__.copy()
        state["_np_syn_tables"] = None
        state["_np_corr_table"] = None
        return state

    # -- construction helpers ------------------------------------------------

    def _build_tables(self, first: int, limit: int) -> list[list[int]]:
        """Per-byte XOR tables: table[j][v] = H-contribution of byte j = v."""
        nbytes = (limit + 7) // 8
        tables: list[list[int]] = []
        for j in range(nbytes):
            table = [0] * 256
            base = first + 8 * j
            for t in range(8):
                pos = base + t
                if pos >= limit:
                    break
                col = self.columns[pos]
                bit = 1 << t
                for v in range(256):
                    if v & bit:
                        table[v] ^= col
            tables.append(table)
        return tables

    # -- scalar API ----------------------------------------------------------

    def encode(self, data: int) -> int:
        """Encode ``k`` data bits into an ``n``-bit codeword."""
        if data < 0 or data >> self.k:
            raise ValueError(f"data does not fit in {self.k} bits")
        check = 0
        v = data
        for table in self._enc_tables:
            check ^= table[v & 0xFF]
            v >>= 8
        return (data | (check << self.k)) & ((1 << self.n) - 1)

    def syndrome(self, word: int) -> int:
        """Syndrome of an ``n``-bit received word (0 means valid)."""
        if word < 0 or word >> self.n:
            raise ValueError(f"word does not fit in {self.n} bits")
        s = 0
        v = word
        for table in self._syn_tables:
            s ^= table[v & 0xFF]
            v >>= 8
        return s

    def is_codeword(self, word: int) -> bool:
        """True when ``word`` has a zero syndrome."""
        return self.syndrome(word) == 0

    def check_of(self, word: int) -> int:
        """Extract the check bits from a codeword."""
        return word >> self.k

    def decode(self, word: int) -> DecodeResult:
        """Classify and (when possible) correct a received word."""
        s = self.syndrome(word)
        if s == 0:
            return DecodeResult(CodeStatus.CLEAN, word & self._data_mask, word, 0)
        pos = self._column_to_pos.get(s)
        if pos is None:
            return DecodeResult(CodeStatus.DETECTED, word & self._data_mask, word, s)
        fixed = word ^ (1 << pos)
        return DecodeResult(
            CodeStatus.CORRECTED, fixed & self._data_mask, fixed, s, corrected_bit=pos
        )

    # -- bulk API (numpy) ----------------------------------------------------

    @property
    def codeword_bytes(self) -> int:
        """Bytes needed to hold one codeword (``ceil(n / 8)``)."""
        return (self.n + 7) // 8

    def _np_tables(self) -> np.ndarray:
        if self._np_syn_tables is None:
            arr = np.zeros((self.codeword_bytes, 256), dtype=np.uint32)
            for j, table in enumerate(self._syn_tables):
                arr[j, :] = table
            self._np_syn_tables = arr
        return self._np_syn_tables

    def syndrome_many(self, words: np.ndarray) -> np.ndarray:
        """Syndromes for a batch of words.

        ``words`` is a ``(N, codeword_bytes)`` uint8 array of little-endian
        codewords.  Returns a ``(N,)`` uint32 array of syndromes.
        """
        if words.ndim != 2 or words.shape[1] != self.codeword_bytes:
            raise ValueError(
                f"expected shape (N, {self.codeword_bytes}), got {words.shape}"
            )
        tables = self._np_tables()
        out = np.zeros(words.shape[0], dtype=np.uint32)
        for j in range(words.shape[1]):
            out ^= tables[j, words[:, j]]
        return out

    def valid_many(self, words: np.ndarray) -> np.ndarray:
        """Boolean validity (zero syndrome) for a batch of words."""
        return self.syndrome_many(words) == 0

    def correction_table(self) -> np.ndarray:
        """Syndrome -> errored bit position LUT for batch correction.

        A ``(2**r,)`` int32 array mapping every syndrome to the single-bit
        position it corrects, or ``-1`` when the syndrome is no column of
        ``H`` (detected-uncorrectable).  Index 0 (the clean syndrome) also
        maps to ``-1``; callers distinguish clean via the syndrome itself.
        """
        if self._np_corr_table is None:
            if self.r > 24:
                raise ValueError(
                    f"correction table over 2**{self.r} syndromes is too large"
                )
            table = np.full(1 << self.r, -1, dtype=np.int32)
            for col, pos in self._column_to_pos.items():
                table[col] = pos
            self._np_corr_table = table
        return self._np_corr_table

    def correct_many(
        self, words: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch classify-and-correct: the vector form of :meth:`decode`.

        ``words`` is ``(N, codeword_bytes)`` uint8.  Returns
        ``(corrected, clean, detected)`` where ``corrected`` is a *copy*
        of ``words`` with every correctable single-bit error flipped,
        ``clean`` is the zero-syndrome mask and ``detected`` marks
        uncorrectable words (left unmodified, like scalar ``decode``).
        """
        syndromes = self.syndrome_many(words)
        positions = self.correction_table()[syndromes]
        clean = syndromes == 0
        correctable = ~clean & (positions >= 0)
        detected = ~clean & (positions < 0)
        corrected = words.copy()
        rows = np.nonzero(correctable)[0]
        if rows.size:
            pos = positions[rows]
            corrected[rows, pos >> 3] ^= (1 << (pos & 7)).astype(np.uint8)
        return corrected, clean, detected
