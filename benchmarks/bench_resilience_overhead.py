"""Benchmark guard: fault tolerance must be (almost) free without faults.

The resilience layer wraps every job attempt (``guarded_execute``) and
every cache entry (checksum framing), so its no-fault cost is paid by
*all* sweeps, faulty or not.  This guard measures that cost directly:

* the per-attempt guard (no timeout, no chaos — the default policy) and
  the armed guard (``setitimer`` on/off per attempt) are timed at call
  volume and compared against the cost of one real SMOKE simulation,
* checksummed cache store+load round-trips are timed per operation and
  compared the same way,
* a generous end-to-end wall-clock bound catches gross regressions.

Each must stay below 5% of the work it wraps — the ISSUE's budget for
the whole layer.
"""

from __future__ import annotations

from repro.core.controller import ProtectionMode
from repro.experiments import resilience
from repro.experiments.common import Scale
from repro.experiments.resilience import ResilienceConfig
from repro.experiments.runner import ResultCache, SimJob, run_jobs
from repro.experiments.simruns import run_benchmark
from repro.obs.perf import best_seconds, measure, now_ns

_BENCH = "lbm"
_MODE = ProtectionMode.COP
_SCALE = Scale.SMOKE
_CORES = 2


def _job() -> SimJob:
    return SimJob(
        benchmark=_BENCH,
        mode=_MODE,
        scale=_SCALE,
        cores=_CORES,
        track=False,
    )


def _sim_seconds() -> float:
    return best_seconds(
        lambda: run_benchmark(
            _BENCH, _MODE, _SCALE, cores=_CORES, track=False
        ),
        rounds=3,
        reps=1,
        warmup=1,
    )


def _per_call(fn, rounds: int) -> float:
    stats = measure(fn, repeats=1, warmup=max(1, rounds // 100), inner=rounds)
    return stats.min_ns / 1e9


def test_guard_overhead_under_5_percent():
    """guarded_execute around a stub costs < 5% of one real simulation."""
    sim = _sim_seconds()
    job = _job()

    def stub(job, collect_metrics, tracer=None):
        return None

    rounds = 5000
    direct = _per_call(lambda: stub(job, False), rounds)
    idle_cfg = ResilienceConfig()  # the default: no timeout, no chaos
    idle = _per_call(
        lambda: resilience.guarded_execute(
            job, False, idle_cfg, 1, execute=stub
        ),
        rounds,
    )
    armed_cfg = ResilienceConfig(timeout=60.0)  # setitimer armed/disarmed
    armed = _per_call(
        lambda: resilience.guarded_execute(
            job, False, armed_cfg, 1, execute=stub
        ),
        rounds,
    )
    idle_frac = max(0.0, idle - direct) / sim
    armed_frac = max(0.0, armed - direct) / sim
    print(
        f"\nsim {sim * 1e3:.1f} ms; guard/attempt idle "
        f"{(idle - direct) * 1e6:.1f} us ({100 * idle_frac:.4f}%), armed "
        f"{(armed - direct) * 1e6:.1f} us ({100 * armed_frac:.4f}%)"
    )
    assert idle_frac < 0.05
    assert armed_frac < 0.05


def test_cache_checksum_overhead_under_5_percent(tmp_path):
    """Checksummed store+load round-trips cost < 5% of one simulation."""
    sim = _sim_seconds()
    cache = ResultCache(root=tmp_path / "cache")
    job = _job()
    (result,) = run_jobs([job], workers=1, cache=cache)
    key = job.key()

    rounds = 200
    store = _per_call(lambda: cache.store(key, result), rounds)
    load = _per_call(lambda: cache.load(key), rounds)
    frac = (store + load) / sim
    print(
        f"\nsim {sim * 1e3:.1f} ms; cache store {store * 1e6:.0f} us + "
        f"load {load * 1e6:.0f} us per entry ({100 * frac:.3f}%)"
    )
    assert cache.corrupt == 0
    assert frac < 0.05


def test_no_fault_sweep_wall_clock_stable():
    """A sweep under a full (idle) policy tracks an unguarded one.

    Generous bound: this only catches gross regressions (an accidental
    sleep, an fsync per *attempt* instead of per completion, ...),
    machine noise owns anything finer.
    """
    jobs = [_job()]
    guarded_cfg = ResilienceConfig(timeout=120.0, retries=3)

    def run_once(cfg):
        start = now_ns()
        run_jobs(jobs, workers=1, use_cache=False, resilience_config=cfg)
        return (now_ns() - start) / 1e9

    run_once(ResilienceConfig())  # warmup, untimed
    plain = min(run_once(ResilienceConfig()) for _ in range(2))
    guarded = min(run_once(guarded_cfg) for _ in range(2))
    ratio = guarded / plain
    print(f"\nno-fault sweep ratio guarded/plain: {ratio:.3f}")
    assert ratio < 1.5
