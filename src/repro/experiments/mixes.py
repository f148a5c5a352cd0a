"""Multiprogrammed workload mixes (beyond the paper's rate mode).

Fig. 11 runs four copies of one benchmark per experiment; real
consolidated machines co-schedule *different* programs, mixing
compressibility profiles and memory intensities on one memory system.
This experiment runs heterogeneous 4-core mixes through every headline
scheme and reports the weighted speedup (each core's IPC normalised to
its own unprotected IPC, then geomean across cores) — the standard
multiprogrammed metric.
"""

from __future__ import annotations

from repro.core.controller import ProtectionMode
from repro.experiments.common import ExperimentTable, Scale, geomean
from repro.experiments.runner import SimJob, run_jobs

__all__ = ["MIXES", "run"]

#: Heterogeneous mixes: memory-bound, compute-mixed, text+fp, adversarial.
MIXES = {
    "memory-bound": ("mcf", "lbm", "milc", "soplex"),
    "mixed-intensity": ("mcf", "gcc", "perlbench", "namd"),
    "text+float": ("perlbench", "xalancbmk", "bwaves", "wrf"),
    "low-compress": ("x264", "bzip2", "sjeng", "canneal"),
}

_MODES = (
    ("Unprot.", ProtectionMode.UNPROTECTED),
    ("COP", ProtectionMode.COP),
    ("COP-ER", ProtectionMode.COP_ER),
    ("ECC Reg.", ProtectionMode.ECC_REGION),
)


def run(scale: Scale = Scale.SMALL) -> ExperimentTable:
    table = ExperimentTable(
        title="Multiprogrammed 4-core mixes: weighted speedup per scheme",
        columns=tuple(label for label, _ in _MODES) + ("COP SER red.",),
        percent=False,
    )
    mixes = tuple(MIXES.items())
    jobs = [
        SimJob(
            benchmark=tuple(benchmarks),
            mode=mode,
            scale=scale,
            cores=len(benchmarks),
            seed=7,
        )
        for _, benchmarks in mixes
        for _, mode in _MODES
    ]
    results = run_jobs(jobs)
    for mix_index, (mix_name, _) in enumerate(mixes):
        base_ipcs = None
        speedups = {}
        cop_reduction = 0.0
        for mode_index, (label, mode) in enumerate(_MODES):
            result = results[mix_index * len(_MODES) + mode_index]
            core_ipcs = result.perf.core_ipcs
            if base_ipcs is None:
                base_ipcs = core_ipcs
            speedups[label] = geomean(
                [ipc / base for ipc, base in zip(core_ipcs, base_ipcs)]
            )
            if mode is ProtectionMode.COP:
                cop_reduction = result.vulnerability.error_rate_reduction
        table.add(
            mix_name,
            tuple(speedups[label] for label, _ in _MODES) + (cop_reduction,),
        )
    cop = [values[1] for _, values in table.rows]
    ecc = [values[3] for _, values in table.rows]
    table.notes.append(
        f"COP keeps heterogeneous mixes within "
        f"{100 * (1 - min(cop)):.1f}% of unprotected; the ECC-Region "
        f"baseline loses up to {100 * (1 - min(ecc)):.1f}%"
    )
    return table
