"""Figure 4: MSB compressibility, unshifted vs shifted comparison.

SPECfp 2006 blocks hold floating-point values whose sign bit sits above
the exponent; shifting the 5-bit MSB comparison down by one bit (ignoring
the sign) lets mixed-sign blocks with clustered exponents compress.  The
paper reports a 15 % average compressibility improvement.
"""

from __future__ import annotations

from repro.compression.base import payload_budget
from repro.compression.msb import MSBCompressor
from repro.experiments.common import ExperimentTable, Scale, sample_blocks
from repro.experiments.compressibility import compressible_fraction

from repro.workloads.profiles import FIG4_BENCHMARKS

__all__ = ["run", "main"]


def run(scale: Scale = Scale.SMALL) -> ExperimentTable:
    samples = scale.pick(smoke=150, small=1500, full=15000)
    budget = payload_budget(4)
    unshifted = MSBCompressor(compare_bits=5, shifted=False)
    shifted = MSBCompressor(compare_bits=5, shifted=True)
    table = ExperimentTable(
        title="Figure 4: MSB compressibility, unshifted vs shifted (4B freed)",
        columns=("Unshifted", "Shifted"),
    )
    for name in FIG4_BENCHMARKS:
        blocks = sample_blocks(name, samples)
        table.add(
            name,
            (
                compressible_fraction(
                    blocks, lambda b: unshifted.compressible(b, budget)
                ),
                compressible_fraction(
                    blocks, lambda b: shifted.compressible(b, budget)
                ),
            ),
        )
    averages = [
        sum(table.column(c)) / len(table.rows) for c in table.columns
    ]
    table.add("Average", tuple(averages))
    table.notes.append(
        f"shifted comparison gains {100 * (averages[1] - averages[0]):.1f} "
        "percentage points on average (paper: ~15)"
    )
    return table


def main() -> None:
    table = run(Scale.from_env())
    print(table.to_text())
    table.save("fig04_msb_shift")


if __name__ == "__main__":
    main()
