"""Tests for the fault-tolerant execution layer (timeouts, retries,
chaos injection, resuming a killed sweep, cache integrity).

The recovery paths all share one contract: a faulty sweep, once it
completes, is **bit-identical** to a fault-free serial run — only the
parent-side ``runner.*`` counters record that anything went wrong.
Every orchestration test here therefore ends by comparing results (and
merged metrics with the ``runner.`` namespace stripped) against a clean
baseline.
"""

from __future__ import annotations

import json
import multiprocessing
import signal
import time

import pytest
from hypothesis import HealthCheck, given, settings

from repro.core.controller import ProtectionMode
from repro.experiments import resilience, runner
from repro.experiments.common import Scale
from repro.experiments.resilience import (
    ChaosConfig,
    ChaosCrashError,
    JobFailedError,
    JobTimeoutError,
    ResilienceConfig,
    backoff_delay,
    chaos_key,
    time_limit,
)
from repro.experiments.runner import ResultCache, SimJob, run_jobs
from repro.obs import Observability, set_obs
from strategies import chaos_specs

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="platform has no fork start method; runner falls back to serial",
)


@pytest.fixture(autouse=True)
def _isolate(tmp_path, monkeypatch):
    """Fresh results dir, no env/config leakage between tests."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    for name in (
        "REPRO_JOBS",
        "REPRO_NO_CACHE",
        "REPRO_TIMEOUT",
        "REPRO_RETRIES",
        "REPRO_CHAOS",
    ):
        monkeypatch.delenv(name, raising=False)
    runner.reset()
    yield
    runner.reset()


def smoke_jobs():
    """A tiny mixed batch: two rate-mode runs and one heterogeneous mix."""
    return [
        SimJob(
            benchmark="gcc",
            mode=ProtectionMode.COP,
            scale=Scale.SMOKE,
            cores=1,
            track=False,
        ),
        SimJob(
            benchmark="mcf",
            mode=ProtectionMode.COP_ER,
            scale=Scale.SMOKE,
            cores=1,
            track=True,
        ),
        SimJob(
            benchmark=("gcc", "mcf"),
            mode=ProtectionMode.COP,
            scale=Scale.SMOKE,
            cores=2,
            seed=7,
        ),
    ]


def sim_only(snapshot):
    """A snapshot with the harness-side ``runner.*`` counters stripped.

    Those counters are *supposed* to differ between a faulty and a
    clean run — they are the record of the recovery.  Everything else
    must be identical.
    """
    return json.dumps(
        {
            **snapshot,
            "counters": {
                name: value
                for name, value in snapshot.get("counters", {}).items()
                if not name.startswith("runner.")
            },
        },
        sort_keys=True,
    )


def find_chaos_seed(keys, crash, first_faulty=1, clean_through=8):
    """Search for a seed whose schedule crashes exactly the early attempts.

    Returns a seed under which at least ``first_faulty`` of ``keys``
    draw "crash" on attempt 1 and *every* key is clean on attempts
    2..``clean_through`` — so a bounded retry budget is guaranteed to
    converge, deterministically.
    """
    for seed in range(20000):
        cfg = ChaosConfig(crash=crash, seed=seed)
        first = [cfg.decide(key, 1) for key in keys]
        if sum(d == "crash" for d in first) < first_faulty:
            continue
        if all(
            cfg.decide(key, attempt) is None
            for key in keys
            for attempt in range(2, clean_through + 1)
        ):
            return seed
    pytest.fail("no suitable chaos seed in search range")


# ---------------------------------------------------------------------------
# chaos config
# ---------------------------------------------------------------------------


class TestChaosConfig:
    def test_parse_round_trip(self):
        cfg = ChaosConfig.parse("crash:0.25,hang:0.1,seed:3")
        assert cfg == ChaosConfig(crash=0.25, hang=0.1, seed=3)

    def test_parse_empty_and_all_zero_disable(self):
        assert ChaosConfig.parse("") is None
        assert ChaosConfig.parse("crash:0,hang:0") is None

    def test_parse_invalid_warns_and_disables(self, capsys):
        obs = Observability.create()
        set_obs(obs)
        try:
            assert ChaosConfig.parse("crash:lots") is None
            assert ChaosConfig.parse("explode:0.5") is None
            assert ChaosConfig.parse("crash:1.5") is None
        finally:
            set_obs(None)
        err = capsys.readouterr().err
        assert err.count("REPRO_CHAOS") == 1  # warned once, counted thrice
        counters = obs.snapshot()["counters"]
        assert counters["runner.config.invalid_env.repro_chaos"] == 3

    def test_decide_is_deterministic_and_extreme_rates_are_sure(self):
        cfg = ChaosConfig(crash=0.3, hang=0.3, seed=9)
        for attempt in (1, 2, 3):
            assert cfg.decide("k", attempt) == cfg.decide("k", attempt)
        always = ChaosConfig(crash=1.0)
        assert all(always.decide(f"j{i}", 1) == "crash" for i in range(20))
        hangs = ChaosConfig(hang=1.0)
        assert all(hangs.decide(f"j{i}", 1) == "hang" for i in range(20))
        never = ChaosConfig(crash=0.0, hang=0.0)
        assert all(never.decide(f"j{i}", 1) is None for i in range(20))

    def test_decide_varies_by_key_attempt_and_seed(self):
        cfg = ChaosConfig(crash=0.5, seed=0)
        by_key = {cfg.decide(f"job{i}", 1) for i in range(50)}
        assert by_key == {"crash", None}  # not constant across jobs
        assert {
            ChaosConfig(crash=0.5, seed=s).decide("job0", 1) for s in range(50)
        } == {"crash", None}

    @given(spec=chaos_specs())
    @settings(
        max_examples=40,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    def test_parsed_schedule_is_reproducible_and_rate_bounded(self, spec):
        cfg = ChaosConfig.parse(spec)
        assert cfg is not None  # strategy only emits valid non-zero specs
        again = ChaosConfig.parse(spec)
        assert again == cfg
        draws = [cfg.decide(f"job{i}", 1) for i in range(300)]
        assert draws == [again.decide(f"job{i}", 1) for i in range(300)]
        fault_rate = sum(d is not None for d in draws) / len(draws)
        assert fault_rate <= cfg.crash + cfg.hang + 0.1

    def test_chaos_key_ignores_code_salt(self, monkeypatch):
        job = smoke_jobs()[0]
        before_chaos, before_cache = chaos_key(job), job.key()
        monkeypatch.setattr(runner, "_code_salt", "different-code")
        assert job.key() != before_cache  # the cache key moved...
        assert chaos_key(job) == before_chaos  # ...the fault schedule didn't


# ---------------------------------------------------------------------------
# backoff + timeout primitives
# ---------------------------------------------------------------------------


class TestBackoff:
    def test_deterministic(self):
        assert backoff_delay("k", 2, 0.05, 2.0) == backoff_delay(
            "k", 2, 0.05, 2.0
        )

    def test_grows_per_attempt(self):
        # jitter is in [0.5, 1.0), so consecutive attempts cannot overlap
        d2 = backoff_delay("k", 2, 1.0, 100.0)
        d3 = backoff_delay("k", 3, 1.0, 100.0)
        d4 = backoff_delay("k", 4, 1.0, 100.0)
        assert 0.5 <= d2 < 1.0 <= d3 < 2.0 <= d4 < 4.0

    def test_cap_and_zero_base(self):
        assert backoff_delay("k", 50, 1.0, 2.0) == 2.0
        assert backoff_delay("k", 5, 0.0, 2.0) == 0.0

    def test_jitter_decorrelates_jobs(self):
        delays = {backoff_delay(f"job{i}", 2, 1.0, 10.0) for i in range(20)}
        assert len(delays) > 1  # survivors of a broken pool don't stampede


class TestTimeLimit:
    def test_interrupts_a_hang(self):
        start = time.monotonic()
        with pytest.raises(JobTimeoutError):
            with time_limit(0.05):
                time.sleep(10.0)
        assert time.monotonic() - start < 5.0

    def test_no_budget_is_a_noop(self):
        with time_limit(None):
            pass
        with time_limit(0.0):
            pass

    def test_restores_previous_handler(self):
        sentinel = lambda signum, frame: None  # noqa: E731
        previous = signal.signal(signal.SIGALRM, sentinel)
        try:
            with time_limit(5.0):
                pass
            assert signal.getsignal(signal.SIGALRM) is sentinel
        finally:
            signal.signal(signal.SIGALRM, previous)


# ---------------------------------------------------------------------------
# knob resolution
# ---------------------------------------------------------------------------


class TestResolve:
    def test_defaults(self):
        cfg = resilience.resolve()
        assert cfg == ResilienceConfig()
        assert cfg.timeout is None and cfg.retries == 0 and cfg.chaos is None

    def test_env_resolution(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "2.5")
        monkeypatch.setenv("REPRO_RETRIES", "3")
        monkeypatch.setenv("REPRO_CHAOS", "crash:0.5,seed:9")
        cfg = resilience.resolve()
        assert cfg.timeout == 2.5
        assert cfg.retries == 3
        assert cfg.chaos == ChaosConfig(crash=0.5, seed=9)

    def test_configure_beats_env_and_explicit_beats_both(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "2.5")
        monkeypatch.setenv("REPRO_RETRIES", "3")
        resilience.configure(timeout=7.0, retries=1, fail_fast=True)
        cfg = resilience.resolve()
        assert (cfg.timeout, cfg.retries, cfg.fail_fast) == (7.0, 1, True)
        explicit = ResilienceConfig(timeout=0.25)
        assert resilience.resolve(explicit) is explicit

    def test_invalid_env_warns_once_and_uses_defaults(
        self, monkeypatch, capsys
    ):
        monkeypatch.setenv("REPRO_TIMEOUT", "soon")
        monkeypatch.setenv("REPRO_RETRIES", "-two")
        obs = Observability.create()
        set_obs(obs)
        try:
            for _ in range(2):
                cfg = resilience.resolve()
                assert cfg.timeout is None and cfg.retries == 0
        finally:
            set_obs(None)
        err = capsys.readouterr().err
        assert err.count("REPRO_TIMEOUT") == 1
        assert err.count("REPRO_RETRIES") == 1
        counters = obs.snapshot()["counters"]
        assert counters["runner.config.invalid_env.repro_timeout"] == 2
        assert counters["runner.config.invalid_env.repro_retries"] == 2

    def test_nonpositive_timeout_means_unlimited(self, monkeypatch):
        monkeypatch.setenv("REPRO_TIMEOUT", "0")
        assert resilience.resolve().timeout is None


# ---------------------------------------------------------------------------
# cache integrity
# ---------------------------------------------------------------------------


class TestCacheIntegrity:
    def test_entries_are_checksummed(self, tmp_path):
        cache = ResultCache(root=tmp_path / "cache")
        job = smoke_jobs()[0]
        run_jobs([job], workers=1, cache=cache)
        blob = cache.path_for(job.key()).read_bytes()
        assert blob.startswith(runner._CACHE_MAGIC)

    def test_bit_rot_is_quarantined_and_recomputed(self, tmp_path, capsys):
        cache = ResultCache(root=tmp_path / "cache")
        job = smoke_jobs()[0]
        (first,) = run_jobs([job], workers=1, cache=cache)
        path = cache.path_for(job.key())
        blob = bytearray(path.read_bytes())
        blob[-1] ^= 0x01  # flip one payload bit
        path.write_bytes(bytes(blob))

        obs = Observability.create()
        cache.obs = obs
        assert cache.load(job.key()) is None  # detected, not served
        assert cache.corrupt == 1 and cache.quarantined == 1
        assert not path.exists()
        assert (cache.quarantine_dir / path.name).exists()
        counters = obs.snapshot()["counters"]
        assert counters["runner.cache.corrupt"] >= 1
        assert counters["runner.cache.quarantined"] >= 1
        assert "checksum mismatch" in capsys.readouterr().err
        # a fresh run recomputes the same result and re-stores it
        (again,) = run_jobs([job], workers=1, cache=cache)
        assert again == first
        assert cache.load(job.key()) == first

    def test_truncated_entry_at_every_offset_is_never_served(
        self, tmp_path, capsys
    ):
        cache = ResultCache(root=tmp_path / "cache")
        job = smoke_jobs()[0]
        (first,) = run_jobs([job], workers=1, cache=cache)
        path = cache.path_for(job.key())
        blob = path.read_bytes()
        for size in range(len(blob) + 1):
            path.write_bytes(blob[:size])
            loaded = cache.load(job.key())
            assert loaded is None or (size == len(blob) and loaded == first)
        assert cache.load(job.key()) == first  # the full entry is served
        assert cache.corrupt == len(blob)
        capsys.readouterr()

    def test_legacy_unframed_entry_is_quarantined(self, tmp_path, capsys):
        import pickle

        cache = ResultCache(root=tmp_path / "cache")
        job = smoke_jobs()[0]
        (first,) = run_jobs([job], workers=1, cache=cache)
        path = cache.path_for(job.key())
        path.write_bytes(pickle.dumps(first))  # pre-checksum format
        assert cache.load(job.key()) is None
        assert cache.corrupt == 1 and cache.quarantined == 1
        assert "missing checksum header" in capsys.readouterr().err

    def test_checksummed_wrong_type_is_quarantined(self, tmp_path, capsys):
        import hashlib
        import pickle

        cache = ResultCache(root=tmp_path / "cache")
        job = smoke_jobs()[0]
        payload = pickle.dumps({"not": "a SimResult"})
        blob = runner._CACHE_MAGIC + hashlib.sha256(payload).digest() + payload
        path = cache.path_for(job.key())
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_bytes(blob)
        assert cache.load(job.key()) is None  # intact bytes, wrong schema
        assert cache.corrupt == 1
        assert "not SimResult" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# retry orchestration (injected failures, serial path)
# ---------------------------------------------------------------------------


class TestRetryOrchestration:
    def test_timeout_then_retry_then_success(self, monkeypatch):
        job = smoke_jobs()[0]
        clean_obs = Observability.create()
        (clean,) = run_jobs([job], workers=1, use_cache=False, obs=clean_obs)

        real = runner._execute_job
        calls = {"n": 0}

        def flaky(job, collect_metrics, tracer=None):
            calls["n"] += 1
            if calls["n"] == 1:
                raise JobTimeoutError("injected: first attempt hung")
            return real(job, collect_metrics, tracer)

        monkeypatch.setattr(runner, "_execute_job", flaky)
        obs = Observability.create()
        cfg = ResilienceConfig(retries=2, backoff_base=0.0)
        (recovered,) = run_jobs(
            [job], workers=1, use_cache=False, obs=obs, resilience_config=cfg
        )
        assert calls["n"] == 2
        assert recovered == clean
        counters = obs.snapshot()["counters"]
        assert counters["runner.resilience.timeouts"] == 1
        assert counters["runner.resilience.retries"] == 1
        assert "runner.resilience.jobs_failed" not in counters
        assert sim_only(obs.snapshot()) == sim_only(clean_obs.snapshot())

    def test_exhausted_retries_raise_but_keep_completed_work(
        self, monkeypatch, tmp_path
    ):
        jobs = smoke_jobs()[:2]
        cache = ResultCache(root=tmp_path / "cache")
        obs = Observability.create()
        doomed = jobs[1].label()
        real = runner._execute_job

        def flaky(job, collect_metrics, tracer=None):
            if job.label() == doomed:
                raise JobTimeoutError("injected: always over budget")
            return real(job, collect_metrics, tracer)

        monkeypatch.setattr(runner, "_execute_job", flaky)
        cfg = ResilienceConfig(retries=1, backoff_base=0.0)
        with pytest.raises(JobFailedError, match="gave up after 2 attempt"):
            run_jobs(
                jobs, workers=1, cache=cache, obs=obs, resilience_config=cfg
            )
        counters = obs.snapshot()["counters"]
        assert counters["runner.resilience.timeouts"] == 2
        assert counters["runner.resilience.retries"] == 1
        assert counters["runner.resilience.jobs_failed"] == 1
        # job 0 survived the wreck: cached, so a re-run skips it
        key0 = jobs[0].key(obs=True)
        assert cache.load(key0) is not None

    def test_fail_fast_aborts_without_retrying(self, monkeypatch):
        job = smoke_jobs()[0]
        calls = {"n": 0}

        def always_late(job, collect_metrics, tracer=None):
            calls["n"] += 1
            raise JobTimeoutError("injected")

        monkeypatch.setattr(runner, "_execute_job", always_late)
        cfg = ResilienceConfig(retries=5, fail_fast=True, backoff_base=0.0)
        with pytest.raises(JobFailedError, match="fail-fast"):
            run_jobs([job], workers=1, use_cache=False, resilience_config=cfg)
        assert calls["n"] == 1

    def test_real_hang_is_cut_by_the_timeout(self):
        """End to end, no monkeypatching: a chaos hang on attempt 1 is
        interrupted by SIGALRM and the retry completes the job."""
        job = smoke_jobs()[0]
        key = chaos_key(job)
        seed = next(
            s
            for s in range(20000)
            if ChaosConfig(hang=0.5, seed=s).decide(key, 1) == "hang"
            and all(
                ChaosConfig(hang=0.5, seed=s).decide(key, a) is None
                for a in range(2, 5)
            )
        )
        (clean,) = run_jobs(
            [job], workers=1, use_cache=False, obs=Observability.create()
        )
        obs = Observability.create()
        cfg = ResilienceConfig(
            timeout=0.4,
            retries=3,
            backoff_base=0.0,
            chaos=ChaosConfig(hang=0.5, seed=seed),
        )
        start = time.monotonic()
        (recovered,) = run_jobs(
            [job], workers=1, use_cache=False, obs=obs, resilience_config=cfg
        )
        assert time.monotonic() - start < 30.0
        assert recovered == clean
        counters = obs.snapshot()["counters"]
        assert counters["runner.resilience.timeouts"] == 1
        assert counters["runner.resilience.retries"] == 1


# ---------------------------------------------------------------------------
# chaos recovery
# ---------------------------------------------------------------------------


class TestChaosRecovery:
    def test_serial_crash_recovery_matches_clean_run(self):
        job = smoke_jobs()[0]
        seed = find_chaos_seed([chaos_key(job)], crash=0.5, clean_through=4)
        clean_obs = Observability.create()
        (clean,) = run_jobs([job], workers=1, use_cache=False, obs=clean_obs)
        cfg = ResilienceConfig(
            retries=2, backoff_base=0.0, chaos=ChaosConfig(crash=0.5, seed=seed)
        )
        obs = Observability.create()
        (recovered,) = run_jobs(
            [job], workers=1, use_cache=False, obs=obs, resilience_config=cfg
        )
        assert recovered == clean
        counters = obs.snapshot()["counters"]
        assert counters["runner.resilience.worker_crashes"] == 1
        assert counters["runner.resilience.retries"] == 1
        assert sim_only(obs.snapshot()) == sim_only(clean_obs.snapshot())

    def test_chaos_schedule_is_reproducible_end_to_end(self):
        job = smoke_jobs()[0]
        seed = find_chaos_seed([chaos_key(job)], crash=0.5, clean_through=4)
        cfg = ResilienceConfig(
            retries=3, backoff_base=0.0, chaos=ChaosConfig(crash=0.5, seed=seed)
        )
        snapshots = []
        for _ in range(2):
            obs = Observability.create()
            run_jobs(
                [job],
                workers=1,
                use_cache=False,
                obs=obs,
                resilience_config=cfg,
            )
            snapshots.append(json.dumps(obs.snapshot(), sort_keys=True))
        # identical fault schedule, identical recovery, identical
        # metrics — including the runner.* failure counters themselves
        assert snapshots[0] == snapshots[1]

    def test_serial_chaos_without_retries_raises(self):
        job = smoke_jobs()[0]
        seed = find_chaos_seed([chaos_key(job)], crash=0.5, clean_through=2)
        cfg = ResilienceConfig(
            retries=0, backoff_base=0.0, chaos=ChaosConfig(crash=0.5, seed=seed)
        )
        with pytest.raises(JobFailedError):
            run_jobs([job], workers=1, use_cache=False, resilience_config=cfg)

    @needs_fork
    def test_parallel_chaos_run_matches_clean_serial(self, capsys):
        """Workers genuinely die (os._exit) mid-sweep; the rebuilt pools
        still deliver results and merged metrics bit-identical to a
        fault-free serial run."""
        jobs = smoke_jobs()
        keys = [chaos_key(job) for job in jobs]
        seed = find_chaos_seed(keys, crash=0.2, clean_through=8)

        clean_obs = Observability.create()
        clean = run_jobs(jobs, workers=1, use_cache=False, obs=clean_obs)

        chaos_obs = Observability.create()
        cfg = ResilienceConfig(
            retries=8,
            backoff_base=0.0,
            chaos=ChaosConfig(crash=0.2, seed=seed),
        )
        survived = run_jobs(
            jobs,
            workers=2,
            use_cache=False,
            obs=chaos_obs,
            resilience_config=cfg,
        )
        assert survived == clean
        counters = chaos_obs.snapshot()["counters"]
        assert counters["runner.resilience.pool_failures"] >= 1
        assert "worker pool broke" in capsys.readouterr().err
        assert sim_only(chaos_obs.snapshot()) == sim_only(
            clean_obs.snapshot()
        )


# ---------------------------------------------------------------------------
# resuming a killed sweep (through the result cache)
# ---------------------------------------------------------------------------


class TestResume:
    def test_killed_sweep_resumes_with_identical_results(self, tmp_path):
        jobs = smoke_jobs()
        cache_root = tmp_path / "cache"
        doomed = jobs[1].label()
        real = runner._execute_job
        executed: list[str] = []

        def dying(job, collect_metrics, tracer=None):
            if job.label() == doomed:
                raise KeyboardInterrupt  # the sweep is killed mid-flight
            executed.append(job.label())
            return real(job, collect_metrics, tracer)

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(runner, "_execute_job", dying)
            with pytest.raises(KeyboardInterrupt):
                run_jobs(
                    jobs,
                    workers=1,
                    cache=ResultCache(root=cache_root),
                    obs=Observability.create(),
                )
        assert executed == [jobs[0].label()]  # job 0 finished before the kill

        # the re-run serves job 0 from the cache and runs only 1 and 2
        executed.clear()
        resume_obs = Observability.create()
        resume_cache = ResultCache(root=cache_root)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(
                runner,
                "_execute_job",
                lambda job, collect_metrics, tracer=None: (
                    executed.append(job.label()),
                    real(job, collect_metrics, tracer),
                )[1],
            )
            resumed = run_jobs(
                jobs, workers=1, cache=resume_cache, obs=resume_obs
            )
        assert executed == [jobs[1].label(), jobs[2].label()]
        assert resume_cache.hits == 1

        # the stitched-together sweep equals a clean uninterrupted one
        clean_obs = Observability.create()
        clean = run_jobs(
            jobs,
            workers=1,
            cache=ResultCache(root=tmp_path / "cache-clean"),
            obs=clean_obs,
        )
        assert resumed == clean
        assert sim_only(resume_obs.snapshot()) == sim_only(
            clean_obs.snapshot()
        )

    def test_resume_recomputes_when_cache_entry_is_lost(self, tmp_path):
        jobs = smoke_jobs()[:2]
        cache = ResultCache(root=tmp_path / "cache")
        first = run_jobs(jobs, workers=1, cache=cache)
        cache.path_for(jobs[0].key()).unlink()
        again = run_jobs(
            jobs, workers=1, cache=ResultCache(root=tmp_path / "cache")
        )
        assert again == first
