"""Figure 11: normalized IPC of COP, COP-ER and the ECC-Region baseline.

Four-core runs (4 copies of each SPEC benchmark, 4-thread PARSEC) against
a shared LLC.  IPC is normalized to the unprotected configuration.  The
paper's shape: COP loses only its 4-cycle decompress latency (~1 %),
COP-ER adds occasional ECC-entry traffic for incompressible blocks, and
the ECC-Region baseline — which touches ECC metadata on *every* miss and
writeback — trails COP-ER by ~8 %.
"""

from __future__ import annotations

from repro.core.controller import ProtectionMode
from repro.experiments.common import ExperimentTable, Scale, geomean
from repro.experiments.runner import SimJob, run_jobs
from repro.simulation.config import SCALED_SYSTEM
from repro.workloads.profiles import MEMORY_INTENSIVE, PROFILES

__all__ = ["MODES", "run"]

MODES = (
    ("Unprot.", ProtectionMode.UNPROTECTED),
    ("COP", ProtectionMode.COP),
    ("COP-ER", ProtectionMode.COP_ER),
    ("ECC Reg.", ProtectionMode.ECC_REGION),
)


def run(scale: Scale = Scale.SMALL, cores: int = 4) -> ExperimentTable:
    """Produce the Fig. 11 table."""
    table = ExperimentTable(
        title="Figure 11: IPC normalized to the unprotected configuration",
        columns=tuple(label for label, _ in MODES),
        percent=False,
    )
    jobs = [
        SimJob(
            benchmark=name,
            mode=mode,
            scale=scale,
            cores=cores,
            system=SCALED_SYSTEM,
            track=False,
        )
        for name in MEMORY_INTENSIVE
        for _, mode in MODES
    ]
    results = run_jobs(jobs)
    per_suite: dict[str, list[tuple[float, ...]]] = {}
    for bench_index, name in enumerate(MEMORY_INTENSIVE):
        ipcs = {
            label: results[bench_index * len(MODES) + mode_index].perf.ipc
            for mode_index, (label, _) in enumerate(MODES)
        }
        base = ipcs["Unprot."] or 1.0
        row = tuple(ipcs[label] / base for label, _ in MODES)
        table.add(name, row)
        per_suite.setdefault(PROFILES[name].suite, []).append(row)

    bench_rows = [values for _, values in table.rows[: len(MEMORY_INTENSIVE)]]
    geo = tuple(
        geomean([r[i] for r in bench_rows]) for i in range(len(MODES))
    )
    table.add("Geomean", geo)
    for suite_name, rows in per_suite.items():
        table.add(
            suite_name,
            tuple(geomean([r[i] for r in rows]) for i in range(len(MODES))),
        )
    cop_er = geo[2]
    ecc_reg = geo[3]
    table.notes.append(
        f"COP-ER outperforms the ECC-Region baseline by "
        f"{100 * (cop_er / ecc_reg - 1):.1f}% geomean (paper: ~8%)"
    )
    return table
