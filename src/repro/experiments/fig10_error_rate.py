"""Figure 10: DRAM error-rate reduction per benchmark.

Three configurations, evaluated with the PARMA-style vulnerability model
over each benchmark's simulated DRAM residency:

* COP with 8 bytes of ECC (8x(64,56), more correction, less coverage),
* COP with 4 bytes of ECC (the preferred variant — paper average 93 %),
* COP-ER with 4 bytes (protects incompressible blocks too: ~100 %).

The reduction is the protected share of vulnerable bit-time — the paper's
single-bit failure model, where every corrected upset is a removed failure.
"""

from __future__ import annotations

from repro.core.config import COPConfig
from repro.core.controller import ProtectionMode
from repro.experiments.common import ExperimentTable, Scale
from repro.experiments.runner import SimJob, run_jobs
from repro.workloads.profiles import MEMORY_INTENSIVE, PROFILES

__all__ = ["run"]

_COLUMNS = ("COP 8-byte", "COP 4-byte", "COP-ER 4-byte")


def run(scale: Scale = Scale.SMALL) -> ExperimentTable:
    table = ExperimentTable(
        title="Figure 10: soft-error-rate reduction vs unprotected DRAM",
        columns=_COLUMNS,
    )
    # Reliability runs are single-core (the paper computes a per-benchmark
    # error rate); contention does not change residency shares.
    variants = (
        (ProtectionMode.COP, COPConfig.eight_byte()),
        (ProtectionMode.COP, None),
        (ProtectionMode.COP_ER, None),
    )
    jobs = [
        SimJob(benchmark=name, mode=mode, scale=scale, cores=1, cop_config=config)
        for name in MEMORY_INTENSIVE
        for mode, config in variants
    ]
    results = run_jobs(jobs)
    per_suite: dict[str, list[tuple[float, ...]]] = {}
    for bench_index, name in enumerate(MEMORY_INTENSIVE):
        row = tuple(
            results[
                bench_index * len(variants) + variant_index
            ].vulnerability.error_rate_reduction
            for variant_index in range(len(variants))
        )
        table.add(name, row)
        per_suite.setdefault(PROFILES[name].suite, []).append(row)

    for suite_name, rows in per_suite.items():
        table.add(
            suite_name,
            tuple(sum(r[i] for r in rows) / len(rows) for i in range(3)),
        )
    avg4 = sum(table.column("COP 4-byte")[: len(MEMORY_INTENSIVE)]) / len(
        MEMORY_INTENSIVE
    )
    avg_er = sum(table.column("COP-ER 4-byte")[: len(MEMORY_INTENSIVE)]) / len(
        MEMORY_INTENSIVE
    )
    table.notes.append(
        f"COP 4-byte reduces the error rate {100 * avg4:.1f}% on average "
        f"(paper: 93%); COP-ER {100 * avg_er:.1f}% (paper: ~100%)"
    )
    return table
