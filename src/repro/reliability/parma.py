"""PARMA-style vulnerability clocks for DRAM residency.

PARMA (Suh et al., SIGMETRICS 2011) computes cache soft-error rates by
counting the cycles each block is *vulnerable* — resident and destined to
be consumed.  The paper adapts this to DRAM: "we track the amount of time
that each data block is vulnerable in DRAM before it is read into the L3"
and computes a per-benchmark error rate from a raw 5000 FIT/Mbit.

Accounting rule: each read accumulates ``block_bits x (now - last_event)``
where ``last_event`` is the later of the block's last write and last read,
so a given nanosecond of residency is counted exactly once even when a
block is read repeatedly.  The accumulated bit-time is split by the
protection state the block had while resident:

* ``protected`` — a single-bit error in the window would be corrected
  (compressed COP block, COP-ER, baseline ECC region, ECC DIMM);
* ``unprotected`` — a single-bit error corrupts data (raw COP blocks,
  everything in the unprotected configuration).

The error-rate *reduction* of Fig. 10 is then the protected share of total
vulnerable bit-time, matching the paper's single-bit failure model (which
"does model double-bit errors ... as separate single events").
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.reliability.analysis import RAW_FIT_PER_MBIT, expected_failures

__all__ = ["VulnerabilityTracker", "VulnerabilityReport"]

_BLOCK_BITS = 512


@dataclass(frozen=True)
class VulnerabilityReport:
    """Summary of one tracked run."""

    protected_bit_ns: float
    unprotected_bit_ns: float
    reads_protected: int
    reads_unprotected: int

    @property
    def total_bit_ns(self) -> float:
        return self.protected_bit_ns + self.unprotected_bit_ns

    @property
    def error_rate_reduction(self) -> float:
        """Fraction of single-bit failures removed vs an unprotected run."""
        if self.total_bit_ns == 0:
            return 0.0
        return self.protected_bit_ns / self.total_bit_ns

    def failures(self, fit_per_mbit: float = RAW_FIT_PER_MBIT) -> float:
        """Expected consumed failures (errors landing in unprotected time)."""
        return expected_failures(self.unprotected_bit_ns, fit_per_mbit)


class VulnerabilityTracker:
    """Accumulates vulnerable bit-time over a simulation run."""

    def __init__(self, block_bits: int = _BLOCK_BITS) -> None:
        self.block_bits = block_bits
        self._last_event: dict[int, float] = {}
        self._protected: dict[int, bool] = {}
        self.protected_bit_ns = 0.0
        self.unprotected_bit_ns = 0.0
        self.reads_protected = 0
        self.reads_unprotected = 0

    def on_write(self, addr: int, t_ns: float, protected: bool) -> None:
        """A block was written to DRAM (fill or writeback)."""
        self._last_event[addr] = t_ns
        self._protected[addr] = protected

    def on_read(self, addr: int, t_ns: float) -> None:
        """A block was read from DRAM into the LLC."""
        last = self._last_event.get(addr)
        if last is None:
            # Read of a block we never saw written: treat as written at t=0.
            last = 0.0
        exposure = max(0.0, t_ns - last) * self.block_bits
        if self._protected.get(addr, False):
            self.protected_bit_ns += exposure
            self.reads_protected += 1
        else:
            self.unprotected_bit_ns += exposure
            self.reads_unprotected += 1
        self._last_event[addr] = t_ns

    def report(self) -> VulnerabilityReport:
        return VulnerabilityReport(
            self.protected_bit_ns,
            self.unprotected_bit_ns,
            self.reads_protected,
            self.reads_unprotected,
        )
