"""Benchmark: serial vs parallel wall time for the experiment runner.

Runs a fixed eight-job SMOKE matrix (four benchmarks x COP/COP-ER)
through :func:`repro.experiments.runner.run_jobs` at 1, 2 and 4 workers
with the cache disabled, so the recorded benchmark JSON tracks the
fan-out speedup across machines.  On a single-core box (or one without
``fork``) the parallel variants measure the dispatch overhead instead —
``extra_info`` records the CPU count so the numbers can be read in
context.
"""

from __future__ import annotations

import multiprocessing
import os

import pytest

from repro.bench import perf_case
from repro.core.controller import ProtectionMode
from repro.experiments.common import Scale
from repro.experiments.runner import SimJob, run_jobs

_JOBS = [
    SimJob(
        benchmark=name,
        mode=mode,
        scale=Scale.SMOKE,
        cores=2,
        track=False,
    )
    for name in ("mcf", "lbm", "gcc", "soplex")
    for mode in (ProtectionMode.COP, ProtectionMode.COP_ER)
]

_HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


# -- bench cases (run by `cop-experiments bench --suite runner`) --------------


@perf_case(suite="runner", repeats=3, warmup=1)
def run_jobs_serial_smoke():
    """One uncached SMOKE simulation through the full runner stack."""
    jobs = _JOBS[:1]
    return lambda: run_jobs(jobs, workers=1, use_cache=False)


@perf_case(suite="runner", inner=200)
def job_cache_key():
    """Spec hashing cost — paid once per job on every sweep."""
    job = _JOBS[0]
    return lambda: job.key()


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_runner_speedup(benchmark, workers):
    if workers > 1 and not _HAS_FORK:
        pytest.skip("no fork start method; parallel path unavailable")
    benchmark.extra_info["workers"] = workers
    benchmark.extra_info["jobs"] = len(_JOBS)
    benchmark.extra_info["cpus"] = os.cpu_count()
    results = benchmark.pedantic(
        run_jobs,
        args=(_JOBS,),
        kwargs={"workers": workers, "use_cache": False},
        rounds=1,
        iterations=1,
    )
    assert len(results) == len(_JOBS)
    assert all(r.perf.ipc > 0 for r in results)


def test_parallel_results_match_serial_here():
    """The speedup numbers above only mean something if the outputs are
    interchangeable — assert bit-equality on this machine too."""
    serial = run_jobs(_JOBS[:4], workers=1, use_cache=False)
    if not _HAS_FORK:
        pytest.skip("no fork start method; parallel path unavailable")
    parallel = run_jobs(_JOBS[:4], workers=4, use_cache=False)
    assert parallel == serial
