"""Reliability substrate: PARMA-style analysis plus fault injection.

* :class:`~repro.reliability.parma.VulnerabilityTracker` — adapts PARMA's
  "vulnerability clock" to DRAM: every read accumulates the bit-time the
  block spent exposed in memory since it was last written or read, split
  by whether the block was protected (compressed / COP-ER / baseline ECC).
  Expected failures follow from the raw soft-error rate (5000 FIT/Mbit).
* :mod:`~repro.reliability.analysis` — closed-form pieces: FIT arithmetic
  and the multi-bit same-word comparison behind the paper's "COP-ER error
  rate is 6x an ECC DIMM" statement.
* :class:`~repro.reliability.injection.FaultInjector` — Monte-Carlo bit
  flips through the full controller stack, cross-validating the analytic
  model (corrected vs detected vs silent corruption vs misread).
"""

from repro.reliability.analysis import (
    RAW_FIT_PER_MBIT,
    double_error_outcome_probs,
    expected_failures,
    fit_to_failures_per_bit_ns,
    same_word_double_error_weight,
)
from repro.reliability.failure_modes import (
    SRIDHARAN_MIX,
    FailureMode,
    FailureModeCampaign,
)
from repro.reliability.injection import FaultInjector, InjectionStats
from repro.reliability.parma import VulnerabilityTracker

__all__ = [
    "VulnerabilityTracker",
    "FaultInjector",
    "InjectionStats",
    "FailureMode",
    "FailureModeCampaign",
    "SRIDHARAN_MIX",
    "RAW_FIT_PER_MBIT",
    "fit_to_failures_per_bit_ns",
    "expected_failures",
    "same_word_double_error_weight",
    "double_error_outcome_probs",
]
