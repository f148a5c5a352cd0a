"""Monte-Carlo fault injection through the full protection stack.

The analytical model says *which fraction* of single-bit upsets each
configuration survives; the injector demonstrates it mechanically: flip
real bits in the stored images behind a :class:`ProtectedMemory`, read the
blocks back, and compare against golden copies.  Outcomes:

* ``detected`` — the controller flagged the read uncorrectable: a
  machine-check, not silent corruption.  This is checked *first*: a
  detected word is never consumed, so the outcome is "detected" even if
  the returned bytes happen to coincide with golden (e.g. both flips of
  a 2-bit error landing in one word's check byte);
* ``corrected`` — data matches golden and the controller reported a
  correction (or the flip landed in dead padding/check bits);
* ``silent`` — data differs with no flag (the soft-error failures that
  Fig. 10 counts);
* ``masked`` — data matches golden without any correction reported
  (e.g. a flip in an unprotected block's bit that the application value
  happens to tolerate never occurs here since we compare exact bytes, but
  flips into a compressed block's *padding* bits are genuinely masked).

``run_campaign`` walks trials one read at a time through the controller's
own read path, so the outcomes count exactly what a consumer of
:meth:`ProtectedMemory.read` would see.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.compression.base import BLOCK_BYTES
from repro.core.controller import ProtectedMemory

__all__ = ["InjectionStats", "FaultInjector"]


@dataclass
class InjectionStats:
    trials: int = 0
    corrected: int = 0
    masked: int = 0
    detected: int = 0
    silent: int = 0
    outcomes_by_flips: dict[int, dict[str, int]] = field(default_factory=dict)

    @property
    def survival_rate(self) -> float:
        """Fraction of trials without data loss (corrected or masked)."""
        if not self.trials:
            return 0.0
        return (self.corrected + self.masked) / self.trials

    def record(self, flips: int, outcome: str) -> None:
        self.trials += 1
        setattr(self, outcome, getattr(self, outcome) + 1)
        bucket = self.outcomes_by_flips.setdefault(
            flips, {"corrected": 0, "masked": 0, "detected": 0, "silent": 0}
        )
        bucket[outcome] += 1


class FaultInjector:
    """Injects bit flips into resident blocks and classifies the readback."""

    def __init__(
        self,
        memory: ProtectedMemory,
        golden: dict[int, bytes],
        seed: int = 0,
    ) -> None:
        for addr, data in golden.items():
            if len(data) != BLOCK_BYTES:
                raise ValueError(f"golden block {addr:#x} is not 64 bytes")
        self.memory = memory
        self.golden = dict(golden)
        self.rng = random.Random(f"inject|{seed}")
        self.stats = InjectionStats()

    def run_trial(self, flips: int = 1) -> str:
        """Inject ``flips`` random bit errors into one block; classify."""
        addr = self.rng.choice(list(self.golden))
        pristine = self.memory.contents[addr]
        positions = self.rng.sample(range(8 * BLOCK_BYTES), flips)
        for bit in positions:
            self.memory.flip_bit(addr, bit)
        result = self.memory.read(addr)
        # Restore the pristine image so trials stay independent.
        self.memory.contents[addr] = pristine
        # Uncorrectable wins: a detected word raises a machine check, so
        # the data bytes are never consumed — even when the garbage that
        # came back happens to equal golden (2 flips in one check byte).
        if result.uncorrectable:
            outcome = "detected"
        elif result.data == self.golden[addr]:
            outcome = "corrected" if result.corrected else "masked"
        else:
            outcome = "silent"
        self.stats.record(flips, outcome)
        return outcome

    def run_campaign(self, trials: int, flips: int = 1) -> InjectionStats:
        """Run ``trials`` independent injections of ``flips`` bits each."""
        for _ in range(trials):
            self.run_trial(flips)
        return self.stats
