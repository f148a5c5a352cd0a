"""Sensitivity sweeps around the paper's fixed assumptions.

Two knobs the evaluation pins that a skeptical reader would wiggle:

* the **decode/decompress latency** — the paper charges 4 cycles on every
  COP read; we sweep 0..16 cycles and show the normalized-IPC conclusion
  is insensitive (memory latency is hundreds of cycles);
* the **raw FIT rate** — 5000 FIT/Mbit is one published point; expected
  failures scale linearly, so COP's *relative* reduction is rate-
  independent.  We report absolute failures/year for an 8 GB part across
  rates, unprotected vs COP vs COP-ER, from a measured vulnerability run.
"""

from __future__ import annotations

from repro.core.config import COPConfig
from repro.core.controller import ProtectionMode
from repro.experiments.common import ExperimentTable, Scale
from repro.experiments.runner import SimJob, run_jobs
from repro.reliability.analysis import expected_failures

__all__ = ["latency_sweep", "fit_sweep"]

_LATENCIES = (0, 2, 4, 8, 16)
_FIT_RATES = (1000.0, 5000.0, 10000.0, 20000.0)
_BENCH = "mcf"  # the most memory-bound benchmark: worst case for latency


def latency_sweep(scale: Scale = Scale.SMALL) -> ExperimentTable:
    table = ExperimentTable(
        title=f"Decompress-latency sensitivity ({_BENCH}, IPC vs unprotected)",
        columns=("Normalized IPC",),
        percent=False,
    )
    jobs = [
        SimJob(
            benchmark=_BENCH,
            mode=ProtectionMode.UNPROTECTED,
            scale=scale,
            cores=4,
            track=False,
        )
    ]
    jobs.extend(
        SimJob(
            benchmark=_BENCH,
            mode=ProtectionMode.COP,
            scale=scale,
            cores=4,
            cop_config=COPConfig.four_byte(decompress_latency=cycles),
            track=False,
        )
        for cycles in _LATENCIES
    )
    results = run_jobs(jobs)
    base = results[0].perf.ipc
    for cycles, result in zip(_LATENCIES, results[1:]):
        table.add(f"{cycles} cycles", (result.perf.ipc / base,))
    four = table.row("4 cycles")[0]
    sixteen = table.row("16 cycles")[0]
    table.notes.append(
        f"4 cycles (the paper's assumption) costs {100 * (1 - four):.1f}%; "
        f"even 16 cycles costs only {100 * (1 - sixteen):.1f}% — DRAM "
        "latency dominates"
    )
    return table


def fit_sweep(scale: Scale = Scale.SMALL) -> ExperimentTable:
    table = ExperimentTable(
        title=f"Raw-FIT-rate sweep ({_BENCH}, consumed failures per run, scaled)",
        columns=("Unprotected", "COP", "COP-ER"),
        percent=False,
    )
    jobs = [
        SimJob(benchmark=_BENCH, mode=mode, scale=scale, cores=1)
        for mode in (ProtectionMode.COP, ProtectionMode.COP_ER)
    ]
    results = run_jobs(jobs)
    reports = {
        "cop": results[0].vulnerability,
        "coper": results[1].vulnerability,
    }
    # Scale the simulated bit-time to a year of wall-clock exposure so the
    # absolute numbers are recognisable field rates.
    year_scale = 3.15e16 / max(reports["cop"].total_bit_ns, 1.0)
    for rate in _FIT_RATES:
        unprot = expected_failures(
            reports["cop"].total_bit_ns * year_scale, rate
        )
        cop = expected_failures(
            reports["cop"].unprotected_bit_ns * year_scale, rate
        )
        coper = expected_failures(
            reports["coper"].unprotected_bit_ns * year_scale, rate
        )
        table.add(f"{rate:.0f} FIT/Mbit", (unprot, cop, coper))
    reduction = reports["cop"].error_rate_reduction
    table.notes.append(
        f"COP's reduction ({100 * reduction:.1f}%) is rate-independent: "
        "expected failures scale linearly in the raw FIT rate"
    )
    return table
