"""Figure 12: reduction in ECC-region storage, COP-ER vs the baseline.

The baseline reserves a 2-byte ECC entry for *every* data block so a plain
offset computation can find check bits.  COP-ER stores entries only for
blocks that are (ever) incompressible, packed 11 to a 64-byte block plus
the valid-bit tree.  Following the paper's accounting, an entry is charged
for any block that was ever incompressible during the run (no
deallocations), and the baseline is charged for the benchmark's touched
footprint.  The paper reports an 80 % average reduction.
"""

from __future__ import annotations

from repro.core.controller import ProtectionMode
from repro.core.coper import ECCRegion
from repro.experiments.common import ExperimentTable, Scale
from repro.experiments.runner import SimJob, run_jobs
from repro.workloads.profiles import MEMORY_INTENSIVE, PROFILES

__all__ = ["run"]

_BASELINE_BYTES_PER_BLOCK = 2


def run(scale: Scale = Scale.SMALL) -> ExperimentTable:
    table = ExperimentTable(
        title="Figure 12: ECC storage reduction of COP-ER vs the ECC-Region baseline",
        columns=("Reduction",),
    )
    jobs = [
        SimJob(
            benchmark=name,
            mode=ProtectionMode.COP_ER,
            scale=scale,
            cores=1,
            track=False,
        )
        for name in MEMORY_INTENSIVE
    ]
    results = run_jobs(jobs)
    reductions = []
    for name, result in zip(MEMORY_INTENSIVE, results):
        # Measure the ever-incompressible fraction on the simulated
        # footprint, then size both designs for the benchmark's full
        # footprint so the (fixed) valid-bit tree overhead amortises the
        # way it would at the paper's memory sizes.
        fraction = result.memory.incompressible_fraction
        full_blocks = PROFILES[name].footprint_mb * (1 << 20) // 64
        baseline_bytes = full_blocks * _BASELINE_BYTES_PER_BLOCK
        coper_bytes = ECCRegion.region_bytes(round(fraction * full_blocks))
        reduction = 1.0 - coper_bytes / baseline_bytes
        reductions.append(reduction)
        table.add(name, (reduction,))
    table.add("Average", (sum(reductions) / len(reductions),))
    table.notes.append(
        f"average ECC storage reduction {100 * sum(reductions) / len(reductions):.1f}% "
        "(paper: 80%)"
    )
    return table
