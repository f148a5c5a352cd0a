"""In-text quantitative claims of the paper, analytic and measured.

Collects the headline numbers that appear in the prose rather than in a
figure:

* a random 128-bit word is a valid (128,120) code word with p = 0.39 %;
* a random 512-bit block shows >= 3 valid words with p = 0.00002 %;
* the static hash defeats repeated-code-word blocks;
* COP-ER's uncorrectable (same-word multi-bit) rate is ~6x an ECC DIMM's
  under the paper's wide-code comparison;
* the double-error outcome split for compressed COP blocks.
"""

from __future__ import annotations

import random

import numpy as np

from repro.core.alias import (
    alias_probability,
    codeword_counts_bulk,
    valid_codeword_probability,
)
from repro.core.codec import COPCodec
from repro.core.config import COPConfig
from repro.experiments.common import ExperimentTable, Scale
from repro.reliability.analysis import (
    coper_vs_ecc_dimm_ratio,
    double_error_outcome_probs,
)

__all__ = ["run"]


def run(scale: Scale = Scale.SMALL) -> ExperimentTable:
    samples = scale.pick(smoke=20_000, small=200_000, full=2_000_000)
    codec = COPCodec()
    rng = random.Random("intext")
    blocks = np.frombuffer(rng.randbytes(64 * samples), dtype=np.uint8).reshape(
        -1, 64
    )
    counts = codeword_counts_bulk(blocks, codec)
    measured_word = float(np.mean(counts)) / codec.config.num_codewords
    measured_alias = float(np.mean(counts >= codec.config.codeword_threshold))

    # A block holding one valid code word repeated four times would alias
    # without the hash; with it, the census must look uniform.
    repeated = codec.code.encode(rng.getrandbits(120)).to_bytes(16, "little") * 4
    repeated_count = codec.codeword_count(repeated)

    probs = double_error_outcome_probs(COPConfig.four_byte())
    table = ExperimentTable(
        title="In-text claims: alias odds and multi-bit behaviour",
        columns=("Measured", "Analytic", "Paper"),
        percent=False,
    )
    table.add(
        "P(random word valid)",
        (measured_word, valid_codeword_probability(), 0.0039),
    )
    table.add(
        "P(random block aliases)",
        (measured_alias, alias_probability(), 2e-7),
    )
    table.add(
        "repeated-codeword block CWs (hash on)",
        (float(repeated_count), 0.0, 0.0),
    )
    table.add(
        "COP-ER vs ECC-DIMM error ratio",
        (coper_vs_ecc_dimm_ratio(), coper_vs_ecc_dimm_ratio(), 6.0),
    )
    table.add(
        "2 errors, same word (detected)",
        (probs["detected"], probs["detected"], float("nan")),
    )
    table.add(
        "2 errors, diff words (silent)",
        (probs["silent"], probs["silent"], float("nan")),
    )
    table.notes.append(
        f"alias census over {samples} random blocks; the static hash keeps "
        "even degenerate repeated-value data at the analytic odds"
    )
    return table
