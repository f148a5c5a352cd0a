"""The paper's cost motivation, quantified: DIMM power by protection scheme.

Section 1/2: ECC DIMMs add a ninth chip per rank, "incurring a 12.5%
hardware overhead ... in addition to substantially increasing power
consumption".  In-memory-ECC baselines avoid the ninth chip but pay with
extra DRAM accesses.  COP pays neither.  This experiment runs one
memory-intensive benchmark per suite through every scheme and reports
average DIMM power and energy, normalised to the unprotected machine.
"""

from __future__ import annotations

from repro.core.controller import ProtectionMode
from repro.experiments.common import ExperimentTable, Scale
from repro.experiments.runner import SimJob, run_jobs
from repro.memory.dram import DRAMStats
from repro.memory.power import PowerModel

__all__ = ["run"]

_BENCHMARKS = ("mcf", "lbm", "canneal")  # one per suite

_MODES = (
    ("Unprot.", ProtectionMode.UNPROTECTED, 0),
    ("COP", ProtectionMode.COP, 0),
    ("COP-ER", ProtectionMode.COP_ER, 0),
    ("ECC Reg.", ProtectionMode.ECC_REGION, 0),
    ("ECC DIMM", ProtectionMode.ECC_DIMM, 1),  # the ninth chip
)


def _stats_from_perf(perf) -> DRAMStats:
    stats = DRAMStats()
    stats.reads = perf.dram_reads
    stats.writes = perf.dram_writes
    total = stats.reads + stats.writes
    stats.row_hits = round(perf.row_hit_rate * total)
    stats.row_misses = total - stats.row_hits
    return stats


def run(scale: Scale = Scale.SMALL) -> ExperimentTable:
    table = ExperimentTable(
        title="DIMM power by protection scheme (normalised to unprotected)",
        columns=("Avg power", "Energy", "Devices"),
        percent=False,
    )
    sums = {label: [0.0, 0.0] for label, _, _ in _MODES}
    jobs = [
        SimJob(benchmark=name, mode=mode, scale=scale, cores=4, track=False)
        for name in _BENCHMARKS
        for _, mode, _ in _MODES
    ]
    results = iter(run_jobs(jobs))
    for _ in _BENCHMARKS:
        baseline = None
        for label, _, ecc_chips in _MODES:
            perf = next(results).perf
            elapsed_ns = max(core.total_ns for core in perf.cores)
            model = PowerModel(ecc_chips_per_rank=ecc_chips)
            report = model.report(_stats_from_perf(perf), elapsed_ns)
            if baseline is None:
                baseline = report
            sums[label][0] += report.average_w / baseline.average_w
            sums[label][1] += report.total_mj / baseline.total_mj

    for label, mode, ecc_chips in _MODES:
        table.add(
            label,
            (
                sums[label][0] / len(_BENCHMARKS),
                sums[label][1] / len(_BENCHMARKS),
                (8 + ecc_chips) / 8,
            ),
        )
    ecc_dimm_power = table.row("ECC DIMM")[0]
    cop_power = table.row("COP")[0]
    table.notes.append(
        f"ECC DIMM burns {100 * (ecc_dimm_power - 1):.1f}% more power than "
        f"the non-ECC DIMM (paper: the 9th chip is a 12.5% device "
        f"overhead); COP stays within {100 * abs(cop_power - 1):.1f}%"
    )
    return table
