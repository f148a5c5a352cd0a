"""Benchmark: the Fig. 11 hot path of the interval simulator.

Each case times one fig11-style sweep — four protection modes over one
memory-intensive benchmark at SMALL scale — through
``MultiCoreSystem.run``.  ``cop-experiments bench --suite sim`` records
the cases as ``fig11_sweep_<bench>`` in ``BENCH_sim.json``, and the
trajectory's ``--compare --gate`` check covers them like every other
suite.

The cases run with ``warmup=1`` so the process-level classification
store (:data:`repro.simulation.content._STORE`) is warm — the steady
state of a multi-mode sweep, which is exactly how fig11 uses the engine.
"""

from __future__ import annotations

from repro.bench import perf_case
from repro.core.controller import ProtectionMode
from repro.experiments.common import Scale
from repro.experiments.simruns import run_benchmark

#: Fig. 11's comparison set: the unprotected baseline, both COP variants
#: and the strongest conventional baseline.
_MODES = (
    ProtectionMode.UNPROTECTED,
    ProtectionMode.COP,
    ProtectionMode.COP_ER,
    ProtectionMode.ECC_REGION,
)

#: Memory-intensive picks spanning the compressibility range.
_BENCHES = ("lbm", "mcf", "omnetpp")


def _sweep(bench: str):
    def run():
        for mode in _MODES:
            run_benchmark(bench, mode, scale=Scale.SMALL, cores=4, track=False)

    return run


# -- trajectory cases (run by `cop-experiments bench --suite sim`) ------------

for _bench in _BENCHES:
    perf_case(suite="sim", name=f"fig11_sweep_{_bench}", repeats=3, warmup=1)(
        lambda bench=_bench: _sweep(bench)
    )
