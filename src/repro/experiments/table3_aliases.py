"""Table 3: valid code words found in incompressible data blocks.

Incompressible blocks are stored raw; the decoder still hashes them and
counts valid (128,120) code words.  Blocks showing >= 3 are *aliases* and
must be pinned in the LLC.  The paper tabulates the code-word histogram
over all incompressible blocks of all benchmarks, plus the equivalent
block counts in a fully-used 8 GB memory — finding a single 3-code-word
block and none with 4.
"""

from __future__ import annotations

import numpy as np

from repro.compression.base import SCHEME_TAG_BITS, payload_budget
from repro.core.alias import AliasCensus, codeword_count_probability
from repro.core.codec import COPCodec
from repro.experiments.common import ExperimentTable, Scale, sample_blocks
from repro.workloads.profiles import MEMORY_INTENSIVE

__all__ = ["run", "main"]

_MEMORY_BYTES = 8 << 30


def run(scale: Scale = Scale.SMALL) -> ExperimentTable:
    samples = scale.pick(smoke=400, small=4000, full=40000)
    codec = COPCodec()
    budget = payload_budget(4) + SCHEME_TAG_BITS
    census = AliasCensus(codec)
    for name in MEMORY_INTENSIVE:
        incompressible = [
            block
            for block in sample_blocks(name, samples)
            if not codec.compressor.compressible(block, budget)
        ]
        if not incompressible:
            continue
        census.add_array(
            np.frombuffer(b"".join(incompressible), dtype=np.uint8).reshape(-1, 64)
        )

    table = ExperimentTable(
        title="Table 3: code words in incompressible data blocks",
        columns=("Percent of blocks", "Equiv. 8GB mem. blocks", "Analytic"),
        percent=False,
    )
    for count in range(0, codec.config.num_codewords + 1):
        table.add(
            f"{count} code words",
            (
                census.fraction(count),
                float(census.equivalent_blocks(count, _MEMORY_BYTES)),
                codeword_count_probability(count),
            ),
        )
    table.notes.append(
        f"census over {census.total} incompressible blocks; alias fraction "
        f"(>=3 code words): {census.alias_fraction():.2e} "
        "(paper: 2e-8 measured, one 3-code-word block)"
    )
    return table


def main() -> None:
    table = run(Scale.from_env())
    print(table.to_text())
    table.save("table3_aliases")


if __name__ == "__main__":
    main()
