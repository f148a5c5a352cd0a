"""Parallel experiment runner with an on-disk result cache.

The figure harnesses (Figs. 10-12, the sweeps, the mixes) all reduce to
the same shape: a |benchmark| x |mode| matrix of independent simulations
whose outputs are assembled into one table.  This module expresses each
cell as a picklable :class:`SimJob`, fans batches out over a
``ProcessPoolExecutor`` (worker count from ``--jobs``/``REPRO_JOBS``),
and memoises completed simulations in a content-addressed cache under
``results/.cache/`` so ``report`` and repeated figure regeneration reuse
them instantly.

Determinism contract
--------------------

Parallel runs are **bit-identical** to serial runs:

* every job carries its own seeds — no shared RNG or global state;
* each job runs against a *fresh* per-job observability bundle (even on
  the serial path), and the per-job metrics snapshots are merged into
  the caller's registry **in job-list order**, so counter sums,
  gauge maxima and histogram merges are order-stable however the jobs
  were scheduled;
* a job snapshot holds only simulated quantities — no host wall-clock
  value is ever published into it — so it is merged and cached as is.

Cache keys hash the full job spec (benchmark/mode/scale/cores/seed/
configs, plus whether metrics were collected) together with a
code-version salt derived from the simulator's source files, so editing
the simulator invalidates stale results automatically.  Escape hatches:
``--no-cache`` / ``REPRO_NO_CACHE=1``.

Fault tolerance (see :mod:`repro.experiments.resilience` and
docs/resilience.md): every cache entry is checksummed and corrupt
entries are quarantined — never silently treated as a miss; each
completed job is cached as it finishes, so re-running a killed sweep
executes only the jobs it had not finished; per-attempt timeouts, bounded
retries with deterministic backoff, and broken-pool recovery (degrading
to serial execution after repeated pool failures) keep one bad worker
from costing the batch.  Parallel runs — even fault-injected ones —
remain **bit-identical** to serial runs.

Event tracing (``--trace``) composes with ``--jobs``: each job writes a
deterministic per-job shard file (built from a picklable
:class:`~repro.obs.trace.TraceShardSpec`; no wall times, no pids, every
record stamped with its job index) and the parent merges the shards into
the trace sink in job-list order — so a parallel traced run produces a
byte-identical event stream to a serial traced one.  Tracing still
bypasses the cache (a cached hit executes nothing, so it has no events
to contribute).
"""

from __future__ import annotations

import hashlib
import json
import os
import pickle
import shutil
import sys
import tempfile
import time
from concurrent.futures import ProcessPoolExecutor, as_completed
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from enum import Enum
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, Sequence, Union

from repro.core.config import COPConfig
from repro.core.controller import ProtectedMemory, ProtectionMode
from repro.experiments import resilience
from repro.experiments.common import Scale, results_dir
from repro.experiments.resilience import (
    ChaosConfig,
    ChaosCrashError,
    JobFailedError,
    JobTimeoutError,
    ResilienceConfig,
)
from repro.experiments.simruns import run_benchmark
from repro.obs import (
    NULL_OBS,
    NULL_TRACER,
    EventTracer,
    MetricsRegistry,
    Observability,
    TraceShardSpec,
    get_obs,
)
from repro.reliability.parma import VulnerabilityReport
from repro.simulation.config import SCALED_SYSTEM, SystemConfig
from repro.simulation.system import PerfResult

__all__ = [
    "SimJob",
    "SimResult",
    "MemorySummary",
    "ResultCache",
    "run_jobs",
    "configure",
    "reset",
    "resolve",
    "code_salt",
]


# ---------------------------------------------------------------------------
# job / result types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MemorySummary:
    """Picklable digest of a run's :class:`ProtectedMemory` end state.

    Carries everything the figure harnesses read off the functional
    memory (Fig. 12's storage accounting) without shipping the full
    block-content dictionaries between processes.
    """

    mode: str
    resident_blocks: int
    touched_data_blocks: int
    ever_incompressible: int
    live_entries: int = 0
    peak_entries: int = 0

    @classmethod
    def from_memory(cls, memory: ProtectedMemory) -> "MemorySummary":
        touched = sum(1 for a in memory.contents if a < memory.region_base)
        return cls(
            mode=memory.mode.value,
            resident_blocks=len(memory.contents),
            touched_data_blocks=touched,
            ever_incompressible=len(memory.ever_incompressible),
            live_entries=len(memory.region) if memory.region is not None else 0,
            peak_entries=(
                memory.region.peak_entries if memory.region is not None else 0
            ),
        )

    @property
    def incompressible_fraction(self) -> float:
        """Share of touched data blocks that were ever incompressible."""
        if not self.touched_data_blocks:
            return 0.0
        return self.ever_incompressible / self.touched_data_blocks


@dataclass(frozen=True)
class SimJob:
    """One picklable simulation: (benchmark(s), mode, scale, config, seed).

    ``benchmark`` is a single name (rate-mode / threaded run) or a tuple
    of names (heterogeneous mix, one program per core); both run through
    :func:`run_benchmark`.
    """

    benchmark: Union[str, tuple[str, ...]]
    mode: ProtectionMode
    scale: Scale = Scale.SMALL
    cores: int = 4
    cop_config: Optional[COPConfig] = None
    system: SystemConfig = SCALED_SYSTEM
    seed: int = 11
    track: bool = True

    def spec(self) -> dict[str, Any]:
        """Stable, JSON-serialisable description of this job (cache key)."""
        return {
            "benchmark": _plain(self.benchmark),
            "mode": self.mode.value,
            "scale": self.scale.value,
            "cores": self.cores,
            "cop_config": (
                _plain(asdict(self.cop_config))
                if self.cop_config is not None
                else None
            ),
            "system": _plain(asdict(self.system)),
            "seed": self.seed,
            "track": self.track,
        }

    def key(self, obs: bool = False) -> str:
        """Content hash of the spec + code salt (+ metrics-collection flag)."""
        payload = json.dumps(
            {"spec": self.spec(), "obs": obs, "salt": code_salt()},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def label(self) -> str:
        bench = self.benchmark
        if isinstance(bench, tuple):
            bench = "+".join(bench)
        return f"{bench}/{self.mode.value}/{self.scale.value}"


@dataclass(frozen=True)
class SimResult:
    """Picklable outcome of one :class:`SimJob` (what crosses processes)."""

    perf: PerfResult
    vulnerability: VulnerabilityReport
    memory: MemorySummary
    #: Sanitised per-job metrics snapshot ({} when metrics were off).
    metrics: dict[str, Any] = field(default_factory=dict)


def _plain(value: Any) -> Any:
    """Recursively reduce dataclass-dict output to plain JSON types."""
    if isinstance(value, Enum):
        return value.value
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v) for v in value]
    return value


# ---------------------------------------------------------------------------
# code-version salt
# ---------------------------------------------------------------------------

_code_salt: Optional[str] = None

#: Harness modules whose edits change *table assembly*, not simulation
#: outcomes — excluded from the salt so cached simulations survive them.
_SALT_EXCLUDED_PREFIX = "experiments/"
_SALT_INCLUDED_EXPERIMENT_FILES = frozenset(
    {"experiments/simruns.py", "experiments/common.py"}
)


def code_salt() -> str:
    """Hash of the simulator's source files (the cache-version stamp).

    Any edit to the packages that determine a simulation's outcome
    (core/cache/memory/simulation/workloads/reliability/compression/ecc,
    plus ``experiments/simruns.py``) changes the salt and invalidates
    every cached result.  Experiment *assembly* modules are excluded:
    re-titling a table should not discard hours of simulation.
    """
    global _code_salt
    if _code_salt is None:
        import repro

        root = Path(repro.__file__).parent
        digest = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            rel = path.relative_to(root).as_posix()
            if (
                rel.startswith(_SALT_EXCLUDED_PREFIX)
                and rel not in _SALT_INCLUDED_EXPERIMENT_FILES
            ):
                continue
            digest.update(rel.encode())
            digest.update(path.read_bytes())
        _code_salt = digest.hexdigest()
    return _code_salt


# ---------------------------------------------------------------------------
# result cache
# ---------------------------------------------------------------------------


#: Cache entry framing: magic, then the sha256 of the pickled payload,
#: then the payload.  The digest is verified before a single byte is
#: unpickled, so bit rot is *detected* (and quarantined), never served.
_CACHE_MAGIC = b"COPR1\n"
_CACHE_DIGEST_BYTES = 32


class ResultCache:
    """Content-addressed on-disk store of completed :class:`SimResult`\\ s.

    Files live under ``<root>/<key[:2]>/<key>.pkl`` (default root:
    ``results/.cache/``).  Every entry carries a content checksum;
    entries that fail verification (torn writes, bit rot, pre-checksum
    legacy files, schema drift) are moved to ``<root>/quarantine/`` and
    counted (``runner.cache.corrupt`` in the obs snapshot) instead of
    silently masquerading as misses.  The cache can always be deleted
    wholesale.
    """

    def __init__(
        self,
        root: Union[str, Path, None] = None,
        obs: Observability = NULL_OBS,
    ) -> None:
        self.root = Path(root) if root is not None else results_dir() / ".cache"
        self.obs = obs
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.corrupt = 0
        self.quarantined = 0

    @property
    def quarantine_dir(self) -> Path:
        return self.root / "quarantine"

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.pkl"

    def load(self, key: str) -> Optional[SimResult]:
        path = self.path_for(key)
        try:
            blob = path.read_bytes()
        except FileNotFoundError:
            self.misses += 1
            return None
        except OSError as exc:
            self.obs.metrics.inc("runner.cache.corrupt")
            self._quarantine(path, f"unreadable: {exc}")
            return None
        if not blob.startswith(_CACHE_MAGIC):
            self.obs.metrics.inc("runner.cache.corrupt")
            self._quarantine(path, "missing checksum header")
            return None
        start = len(_CACHE_MAGIC)
        digest = blob[start : start + _CACHE_DIGEST_BYTES]
        payload = blob[start + _CACHE_DIGEST_BYTES :]
        if hashlib.sha256(payload).digest() != digest:
            self.obs.metrics.inc("runner.cache.corrupt")
            self._quarantine(path, "checksum mismatch")
            return None
        try:
            result = pickle.loads(payload)
        except Exception as exc:
            # The checksum passed, so the bytes are intact: this is
            # schema drift (a result type changed without invalidating
            # the key), not bit rot — still unusable, still quarantined.
            self.obs.metrics.inc("runner.cache.corrupt")
            self._quarantine(path, f"entry does not unpickle: {exc!r}")
            return None
        if not isinstance(result, SimResult):
            self.obs.metrics.inc("runner.cache.corrupt")
            self._quarantine(path, f"entry is {type(result).__name__}, not SimResult")
            return None
        self.hits += 1
        return result

    def _quarantine(self, path: Path, reason: str) -> None:
        """Move a bad entry aside so it cannot fail again forever."""
        self.corrupt += 1
        self.misses += 1
        target = self.quarantine_dir / path.name
        try:
            self.quarantine_dir.mkdir(parents=True, exist_ok=True)
            path.replace(target)
            self.quarantined += 1
            self.obs.metrics.inc("runner.cache.quarantined")
            disposition = f"quarantined to {target}"
        except OSError as exc:
            disposition = f"could not quarantine ({exc}); left in place"
        print(f"[cache] corrupt entry {path}: {reason}; {disposition}", file=sys.stderr)
        if self.obs.trace.enabled:
            self.obs.trace.emit("cache_corrupt", path=str(path), reason=reason)

    def store(self, key: str, result: SimResult) -> None:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        payload = pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL)
        blob = _CACHE_MAGIC + hashlib.sha256(payload).digest() + payload
        # Atomic publish: concurrent writers of the same key are benign
        # (identical content), partial writes are never visible.
        tmp = path.with_suffix(f".tmp.{os.getpid()}")
        tmp.write_bytes(blob)
        tmp.replace(path)
        self.stores += 1


# ---------------------------------------------------------------------------
# run options: explicit argument > configure() > environment > default
# ---------------------------------------------------------------------------


class _Option(NamedTuple):
    """How one run option is read from the environment."""

    #: Environment variable (None: the option has none).
    env: Optional[str]
    #: Raw variable text -> value; ValueError marks it invalid.
    parse: Callable[[str], Any]
    #: What an invalid variable falls back to (the warning's tail).
    fallback: str
    default: Any


def _no_cache(raw: str) -> bool:
    return raw.lower() not in ("1", "true", "yes", "on")


_OPTIONS: dict[str, _Option] = {
    "workers": _Option("REPRO_JOBS", int, "falling back to serial (1 worker)", 1),
    "use_cache": _Option("REPRO_NO_CACHE", _no_cache, "", True),
    "timeout": _Option("REPRO_TIMEOUT", float, "no timeout will be enforced", None),
    "retries": _Option("REPRO_RETRIES", int, "using 0 retries", 0),
    "fail_fast": _Option(None, bool, "", False),
    "chaos": _Option("REPRO_CHAOS", ChaosConfig.parse, "", None),
}

_configured: dict[str, Any] = {}


def configure(
    workers: Optional[int] = None,
    use_cache: Optional[bool] = None,
    timeout: Optional[float] = None,
    retries: Optional[int] = None,
    fail_fast: Optional[bool] = None,
) -> None:
    """Set the process-wide run options (the CLI's flags).

    Each call replaces the previous one; ``None`` leaves an option to
    the environment.
    """
    options = {
        "workers": workers,
        "use_cache": use_cache,
        "timeout": timeout,
        "retries": retries,
        "fail_fast": fail_fast,
    }
    _configured.clear()
    _configured.update(
        (name, value) for name, value in options.items() if value is not None
    )


def reset() -> None:
    """Clear :func:`configure` state and the warn-once latches (tests)."""
    _configured.clear()
    resilience._warned.clear()


def resolve(name: str, explicit: Any = None) -> Any:
    """One run option: explicit argument > :func:`configure` > environment.

    ``name`` is one of ``workers``, ``use_cache``, ``timeout``,
    ``retries``, ``fail_fast`` and ``chaos``.  The environment variable
    (``REPRO_JOBS``, ``REPRO_NO_CACHE``, ``REPRO_TIMEOUT``,
    ``REPRO_RETRIES``, ``REPRO_CHAOS``) is read only when nothing above
    it is set.  An unparsable one warns once on stderr, is recorded in
    the obs snapshot (``runner.config.invalid_env.<variable>``) and
    falls back to the default — a typo'd environment must not crash (or
    silently reshape) a long sweep.  Worker counts floor at 1, retries
    at 0, and a non-positive timeout means none.
    """
    option = _OPTIONS[name]
    value = explicit if explicit is not None else _configured.get(name)
    if value is None and option.env is not None:
        raw = os.environ.get(option.env, "").strip()
        if raw:
            try:
                value = option.parse(raw)
            except ValueError:
                resilience.invalid_env(option.env, raw, option.fallback)
    if value is None:
        return option.default
    if name == "workers":
        return max(1, value)
    if name == "retries":
        return max(0, value)
    if name == "timeout":
        return value if value > 0 else None
    return value


def _fork_available() -> bool:
    import multiprocessing

    return "fork" in multiprocessing.get_all_start_methods()


# ---------------------------------------------------------------------------
# job execution
# ---------------------------------------------------------------------------


def _execute_job(
    job: SimJob,
    collect_metrics: bool,
    tracer: Optional[EventTracer] = None,
) -> SimResult:
    """Run one job against a fresh observability bundle (worker entry).

    ``tracer`` is a per-job shard tracer on traced runs (serial and
    parallel alike — a tracer cannot cross a process boundary, so the
    pool path builds it worker-side from a :class:`TraceShardSpec`).
    """
    if collect_metrics or tracer is not None:
        obs = Observability(
            metrics=MetricsRegistry() if collect_metrics else NULL_OBS.metrics,
            trace=tracer if tracer is not None else NULL_TRACER,
        )
    else:
        obs = NULL_OBS
    outcome = run_benchmark(
        job.benchmark,
        job.mode,
        job.scale,
        cores=job.cores,
        cop_config=job.cop_config,
        system=job.system,
        seed=job.seed,
        track=job.track,
        obs=obs,
    )
    return SimResult(
        perf=outcome.perf,
        vulnerability=outcome.vulnerability,
        memory=MemorySummary.from_memory(outcome.memory),
        metrics=outcome.metrics,
    )


def _worker_entry(
    job: SimJob,
    collect_metrics: bool,
    cfg: ResilienceConfig,
    attempt: int,
    shard_spec: Optional[TraceShardSpec] = None,
    index: int = 0,
) -> SimResult:
    """Pool-worker entry: one guarded attempt (timeout + chaos hook).

    On traced runs the worker builds its own shard tracer from the
    picklable ``shard_spec`` (opening truncates, so a retried attempt
    replaces — never duplicates — the failed attempt's events).
    """
    tracer = shard_spec.tracer_for(index) if shard_spec is not None else None
    try:
        return resilience.guarded_execute(
            job,
            collect_metrics,
            cfg,
            attempt,
            execute=_execute_job,
            tracer=tracer,
            in_worker=True,
        )
    finally:
        if tracer is not None:
            tracer.close()


#: Consecutive broken-pool incidents tolerated before run_jobs stops
#: rebuilding pools and finishes the batch serially.
_MAX_POOL_FAILURES = 3


def run_jobs(
    jobs: Sequence[SimJob],
    workers: Optional[int] = None,
    obs: Optional[Observability] = None,
    use_cache: Optional[bool] = None,
    cache: Optional[ResultCache] = None,
    resilience_config: Optional[ResilienceConfig] = None,
) -> list[SimResult]:
    """Execute a batch of jobs, in parallel when asked, reusing the cache.

    Results come back in job-list order and per-job metrics snapshots are
    merged into ``obs`` (default: the process-wide bundle) in that same
    order, so serial, parallel and cached executions produce identical
    tables *and* identical merged metrics.

    ``use_cache`` resolves like every run option (:func:`resolve`); when
    it is off, or the run is traced, ``cache`` is neither read nor
    written.

    Execution is fault-tolerant (policy from ``resilience_config``, the
    CLI flags, or ``REPRO_TIMEOUT``/``REPRO_RETRIES``/``REPRO_CHAOS``):
    attempts that time out or lose their worker are retried with
    deterministic backoff up to the retry budget; a pool that keeps
    breaking is abandoned for serial execution; every completed job is
    cached *as it finishes*, so re-running a killed sweep skips finished
    work.  Because a
    job's outcome is a pure function of its spec, the recovered results
    are bit-identical to a fault-free serial run; only the parent-side
    ``runner.*`` counters record that anything went wrong.
    """
    obs = obs if obs is not None else get_obs()
    collect_metrics = obs.metrics.enabled
    workers = resolve("workers", workers)
    cfg = resilience_config
    if cfg is None:
        cfg = ResilienceConfig(
            timeout=resolve("timeout"),
            retries=resolve("retries"),
            fail_fast=resolve("fail_fast"),
            chaos=resolve("chaos"),
        )
    tracing = obs.trace.enabled
    shard_spec: Optional[TraceShardSpec] = None
    if tracing:
        # Tracing needs every job to actually execute (a cache hit has
        # no events to contribute), so it bypasses the cache below;
        # execution may still be parallel — each job writes a
        # deterministic shard file that gets merged into the sink in job
        # order afterwards.
        shard_spec = TraceShardSpec(
            directory=tempfile.mkdtemp(prefix="repro-trace-shards-"),
            sample_rate=obs.trace.sample_rate,
            seed=obs.trace.seed,
        )
    if tracing or not resolve("use_cache", use_cache):
        cache = None
    elif cache is None:
        cache = ResultCache(obs=obs)
    elif cache.obs is NULL_OBS:
        cache.obs = obs

    results: list[Optional[SimResult]] = [None] * len(jobs)
    keys = [job.key(obs=collect_metrics) for job in jobs]
    pending: list[int] = []
    for index, key in enumerate(keys):
        hit = cache.load(key) if cache is not None else None
        if hit is not None:
            results[index] = hit
        else:
            pending.append(index)

    attempts = {index: 1 for index in pending}

    def on_success(index: int, result: SimResult) -> None:
        """Cache a finished job the moment it completes."""
        results[index] = result
        if cache is not None:
            cache.store(keys[index], result)

    def note_failed_attempt(index: int, kind: str, exc: Exception) -> float:
        """Account one transient failure; returns the backoff delay.

        Raises :class:`JobFailedError` when the job is out of budget
        (or immediately under ``fail_fast``) — completed jobs are
        already cached, so re-running the sweep picks up where it died.
        """
        plural = {"timeout": "timeouts", "worker_crash": "worker_crashes"}
        obs.metrics.inc(f"runner.resilience.{plural.get(kind, kind + 's')}")
        label = jobs[index].label()
        if cfg.fail_fast:
            obs.metrics.inc("runner.resilience.jobs_failed")
            raise JobFailedError(f"{label}: {exc} (fail-fast)") from exc
        if attempts[index] >= cfg.retries + 1:
            obs.metrics.inc("runner.resilience.jobs_failed")
            raise JobFailedError(
                f"{label}: gave up after {attempts[index]} attempt(s): {exc}"
            ) from exc
        attempts[index] += 1
        obs.metrics.inc("runner.resilience.retries")
        if obs.trace.enabled:
            obs.trace.emit(
                "job_retry", job=label, attempt=attempts[index], cause=kind
            )
        return resilience.backoff_delay(
            keys[index], attempts[index], cfg.backoff_base, cfg.backoff_cap
        )

    def run_serial(indices: Sequence[int]) -> None:
        for index in indices:
            while True:
                tracer: Optional[EventTracer] = (
                    shard_spec.tracer_for(index)
                    if shard_spec is not None
                    else None
                )
                try:
                    result = resilience.guarded_execute(
                        jobs[index],
                        collect_metrics,
                        cfg,
                        attempts[index],
                        execute=_execute_job,
                        tracer=tracer,
                    )
                except JobTimeoutError as exc:
                    time.sleep(note_failed_attempt(index, "timeout", exc))
                except ChaosCrashError as exc:
                    time.sleep(note_failed_attempt(index, "worker_crash", exc))
                else:
                    on_success(index, result)
                    break
                finally:
                    if tracer is not None:
                        tracer.close()

    def run_parallel(indices: Sequence[int]) -> list[int]:
        """Fan pending jobs over fork pools, rebuilding broken ones.

        Returns the indices still unfinished once the pool has broken
        ``_MAX_POOL_FAILURES`` times — the caller degrades them to
        serial execution rather than giving up.
        """
        import multiprocessing

        ctx = multiprocessing.get_context("fork")
        remaining = list(indices)
        pool_failures = 0
        while remaining:
            if pool_failures >= _MAX_POOL_FAILURES:
                obs.metrics.inc("runner.resilience.pool_degraded")
                print(
                    f"[resilience] process pool broke {pool_failures} "
                    f"times; finishing {len(remaining)} job(s) serially",
                    file=sys.stderr,
                )
                return remaining
            pool_broken = False
            retry_delays: list[float] = []
            next_remaining: list[int] = []
            try:
                with ProcessPoolExecutor(
                    max_workers=min(workers, len(remaining)), mp_context=ctx
                ) as pool:
                    futures = {
                        pool.submit(
                            _worker_entry,
                            jobs[index],
                            collect_metrics,
                            cfg,
                            attempts[index],
                            shard_spec,
                            index,
                        ): index
                        for index in remaining
                    }
                    for future in as_completed(futures):
                        index = futures[future]
                        try:
                            result = future.result()
                        except JobTimeoutError as exc:
                            retry_delays.append(
                                note_failed_attempt(index, "timeout", exc)
                            )
                            next_remaining.append(index)
                        except BrokenProcessPool:
                            # A worker died (chaos crash, OOM kill,
                            # segfault); the crasher is indistinguishable
                            # from innocent jobs sharing its pool, so
                            # bump every survivor's attempt — a chaos
                            # crasher draws a fresh fault decision — but
                            # charge nobody's retry budget.
                            pool_broken = True
                            attempts[index] += 1
                            next_remaining.append(index)
                        else:
                            on_success(index, result)
            except BrokenProcessPool:
                # The pool died while we were still submitting; anything
                # without a result goes around again.
                pool_broken = True
                next_remaining = [
                    index for index in remaining if results[index] is None
                ]
            if pool_broken:
                pool_failures += 1
                obs.metrics.inc("runner.resilience.pool_failures")
                print(
                    "[resilience] worker pool broke; re-dispatching "
                    f"{len(next_remaining)} unfinished job(s)",
                    file=sys.stderr,
                )
            else:
                pool_failures = 0
            remaining = next_remaining
            if retry_delays:
                time.sleep(max(retry_delays))
        return []

    try:
        if pending:
            parallel = workers > 1 and len(pending) > 1 and _fork_available()
            if parallel:
                leftover = run_parallel(pending)
                if leftover:
                    run_serial(leftover)
            else:
                run_serial(pending)
        if shard_spec is not None:
            # Merge per-job shards into the sink in job-list order; the
            # shards are deterministic, so serial and parallel traced
            # runs produce byte-identical merged streams.
            obs.trace.absorb(
                [shard_spec.shard_path(index) for index in range(len(jobs))]
            )
    finally:
        if shard_spec is not None:
            shutil.rmtree(shard_spec.directory, ignore_errors=True)

    if collect_metrics:
        for result in results:
            if result.metrics:
                obs.metrics.merge(result.metrics)
    return results  # type: ignore[return-value]
