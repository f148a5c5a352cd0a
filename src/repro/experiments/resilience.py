"""Fault-tolerant execution layer for the experiment runner.

The paper's protection discipline — failures must be *detected, bounded
and recoverable*, never silent — applied to the harness itself.  A
fig10/fig11 sweep is hours of Monte-Carlo work; a hung worker, a
crashed process or a flipped bit in a cached pickle must not cost the
whole run (or worse, poison it invisibly).  This module provides the
pieces :func:`repro.experiments.runner.run_jobs` composes:

per-attempt wall-clock timeouts
    :func:`time_limit` arms ``SIGALRM`` around one job attempt and
    raises :class:`JobTimeoutError` when the budget expires.  It works
    both inside pool workers and on the serial path.

bounded retries with deterministic backoff
    :func:`backoff_delay` grows exponentially with the attempt number
    and jitters with a generator seeded from the job key — no global
    RNG (the same REP001 discipline the simulation packages obey), so
    two runs of the same faulty sweep sleep identically.

an opt-in chaos hook (test/CI only)
    ``REPRO_CHAOS=crash:0.1,hang:0.05[,seed:N]`` makes workers
    ``os._exit`` or stall, with every decision drawn from a generator
    seeded by ``(seed, job, attempt)`` — the harness-level twin of
    :mod:`repro.reliability.injection`, and just as reproducible.
    :class:`ChaosConfig` is the one parser of ``REPRO_CHAOS`` for the
    runner and the service (:mod:`repro.service.chaos`) alike.

Which timeout, retries, fail-fast and chaos a run uses is decided in
:func:`repro.experiments.runner.resolve`, with the worker count and the
cache policy.  Invalid environment values warn once on stderr and are
recorded in the obs snapshot (``runner.config.invalid_env.*``) by
:func:`invalid_env` instead of silently falling through.  See
docs/resilience.md.
"""

from __future__ import annotations

import os
import random
import signal
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Iterator, Optional, TypeVar

from repro.obs import get_obs

__all__ = [
    "JobTimeoutError",
    "ChaosCrashError",
    "JobFailedError",
    "ChaosConfig",
    "ResilienceConfig",
    "backoff_delay",
    "chaos_key",
    "guarded_execute",
    "invalid_env",
    "time_limit",
    "CHAOS_EXIT_CODE",
]


class JobTimeoutError(RuntimeError):
    """One job attempt exceeded its wall-clock budget."""


class ChaosCrashError(RuntimeError):
    """Injected worker crash on the serial path (workers ``os._exit``)."""


class JobFailedError(RuntimeError):
    """A job exhausted its retry budget (or failed under ``--fail-fast``)."""


#: Exit status a chaos 'crash' uses inside a pool worker; distinctive in
#: core dumps / CI logs so an injected death is never mistaken for a bug.
CHAOS_EXIT_CODE = 113


# ---------------------------------------------------------------------------
# chaos injection
# ---------------------------------------------------------------------------


_C = TypeVar("_C", bound="ChaosConfig")

#: Knobs that take one probability; ``delay:p:ms`` and ``seed:N`` are
#: parsed on their own.
_CHAOS_PROBABILITIES = ("crash", "hang", "worker-kill", "conn-drop")


@dataclass(frozen=True)
class ChaosConfig:
    """One ``REPRO_CHAOS`` spec: deterministic fault injection (test/CI only).

    The runner injects ``crash``/``hang`` (per-attempt probabilities of a
    worker ``os._exit`` or stall); every decision is drawn from
    ``random.Random(f"chaos|{seed}|{key}|{attempt}")`` so a fixed seed
    reproduces the exact fault schedule run after run.  The service
    subclass :class:`repro.service.chaos.ServiceChaosConfig` injects
    ``worker_kill``, ``delay_p``/``delay_ms`` and ``conn_drop`` from the
    same spec, under the same ``seed``.
    """

    crash: float = 0.0
    hang: float = 0.0
    worker_kill: float = 0.0
    delay_p: float = 0.0
    delay_ms: float = 0.0
    conn_drop: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("crash", "hang", "worker_kill", "delay_p", "conn_drop"):
            p = float(getattr(self, name))
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.delay_ms < 0:
            raise ValueError("delay_ms must be non-negative")

    @property
    def active(self) -> bool:
        """Whether the spec faults this harness (the runner: crash/hang)."""
        return bool(self.crash or self.hang)

    @classmethod
    def parse(cls: type[_C], spec: str) -> Optional[_C]:
        """Parse ``"crash:0.1,worker-kill:0.01,delay:0.02:5,seed:3"``.

        Knobs: ``crash``, ``hang``, ``worker-kill`` and ``conn-drop``
        take a probability, ``delay:p:ms`` a probability and a pause,
        ``seed:N`` the schedule seed.  A spec is valid or invalid as a
        whole, whichever harness parses it: one unknown knob, malformed
        token (an empty one included) or out-of-range value disables
        chaos for both, warned once and counted in
        ``runner.config.invalid_env.repro_chaos``.  Returns None for an
        empty or invalid spec, and for a valid one that sets none of this
        harness's knobs (:attr:`active`).
        """
        if not spec.strip():
            return None
        values: dict[str, Any] = {}
        try:
            for token in spec.split(","):
                name, _, raw = token.partition(":")
                name = name.strip().lower()
                if name == "delay":
                    p, _, ms = raw.partition(":")
                    values["delay_p"], values["delay_ms"] = float(p), float(ms)
                elif name == "seed":
                    values["seed"] = int(raw)
                elif name in _CHAOS_PROBABILITIES:
                    values[name.replace("-", "_")] = float(raw)
                else:
                    raise ValueError(f"unknown chaos knob {name!r}")
            config = cls(**values)
        except ValueError:
            invalid_env("REPRO_CHAOS", spec, "chaos injection disabled")
            return None
        return config if config.active else None

    def decide(self, key: str, attempt: int) -> Optional[str]:
        """``"crash"``, ``"hang"`` or None for this (job, attempt) pair."""
        draw = random.Random(f"chaos|{self.seed}|{key}|{attempt}").random()
        if draw < self.crash:
            return "crash"
        if draw < self.crash + self.hang:
            return "hang"
        return None


def chaos_key(job: Any) -> str:
    """Stable fault-injection identity for a job (label + seed).

    Deliberately *not* the cache key: the cache key folds in a source
    salt, and a code edit must not reshuffle a chaos schedule under a
    fixed seed.
    """
    return f"{job.label()}|seed={job.seed}"


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ResilienceConfig:
    """Fault-tolerance policy for one :func:`run_jobs` batch."""

    #: Per-attempt wall-clock budget in seconds (None: unlimited).
    timeout: Optional[float] = None
    #: Extra attempts after the first (0: any fault is fatal).
    retries: int = 0
    #: First backoff delay in seconds; doubles per retry.
    backoff_base: float = 0.05
    #: Ceiling on any single backoff delay.
    backoff_cap: float = 2.0
    #: Abort the sweep on the first fault instead of retrying.
    fail_fast: bool = False
    #: Fault injection (None: off).  Test/CI only.
    chaos: Optional[ChaosConfig] = None


_warned: set[str] = set()


def invalid_env(name: str, raw: str, action: str) -> None:
    """Report a bad environment knob: warn once, count in the obs snapshot."""
    get_obs().metrics.inc(f"runner.config.invalid_env.{name.lower()}")
    if name in _warned:
        return
    _warned.add(name)
    print(
        f"[resilience] ignoring invalid {name}={raw!r}; {action}",
        file=sys.stderr,
    )


# ---------------------------------------------------------------------------
# backoff
# ---------------------------------------------------------------------------


def backoff_delay(key: str, attempt: int, base: float, cap: float) -> float:
    """Exponential backoff with deterministic seeded jitter.

    ``base * 2**(attempt-2)`` for the delay before attempt ``attempt``
    (so the first retry waits about ``base``), scaled by a jitter in
    [0.5, 1.0) drawn from a generator seeded with the job key and the
    attempt number — reproducible, and decorrelated across jobs so a
    broken pool's survivors do not retry in lockstep.
    """
    if base <= 0:
        return 0.0
    raw = base * (2.0 ** max(0, attempt - 2))
    jitter = 0.5 + 0.5 * random.Random(f"backoff|{key}|{attempt}").random()
    return min(cap, raw * jitter)


# ---------------------------------------------------------------------------
# wall-clock timeout
# ---------------------------------------------------------------------------


@contextmanager
def time_limit(seconds: Optional[float]) -> Iterator[None]:
    """Raise :class:`JobTimeoutError` if the body outlives ``seconds``.

    Implemented with ``SIGALRM``/``setitimer`` so a *hung* job (stuck in
    a sleep or a pure-Python loop) is interrupted, not merely noticed.
    Degrades to a no-op when there is nothing to arm: no budget, no
    ``setitimer`` on the platform, or a non-main thread.
    """
    if (
        not seconds
        or seconds <= 0
        or not hasattr(signal, "setitimer")
        or threading.current_thread() is not threading.main_thread()
    ):
        yield
        return

    def _expired(signum: int, frame: Any) -> None:
        raise JobTimeoutError(
            f"job attempt exceeded its {seconds:g}s wall-clock budget"
        )

    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def _hang_seconds(timeout: Optional[float]) -> float:
    """How long an injected hang stalls.

    With a timeout armed the alarm cuts the sleep at ``timeout``; the
    4x headroom only matters on platforms without ``SIGALRM``.  Without
    a timeout a hang degrades to a bounded 1 s stall so a misconfigured
    chaos run slows down rather than deadlocks.
    """
    return min(4.0 * timeout, 60.0) if timeout else 1.0


# ---------------------------------------------------------------------------
# guarded execution (shared by pool workers and the serial path)
# ---------------------------------------------------------------------------


def guarded_execute(
    job: Any,
    collect_metrics: bool,
    cfg: ResilienceConfig,
    attempt: int,
    execute: Callable[..., Any],
    tracer: Any = None,
    in_worker: bool = False,
) -> Any:
    """Run one job attempt under the timeout guard and chaos hook.

    ``execute`` is the real job function (the runner's
    ``_execute_job``), injected so this module stays import-cycle-free
    and benchmarkable with a stub.  Inside a pool worker an injected
    crash is a genuine ``os._exit`` (the parent sees a broken pool,
    exactly like a segfault); on the serial path it raises
    :class:`ChaosCrashError` instead of killing the interpreter.
    """
    with time_limit(cfg.timeout):
        if cfg.chaos is not None:
            action = cfg.chaos.decide(chaos_key(job), attempt)
            if action == "crash":
                if in_worker:
                    os._exit(CHAOS_EXIT_CODE)
                raise ChaosCrashError(
                    f"chaos: injected crash for {job.label()} "
                    f"(attempt {attempt})"
                )
            if action == "hang":
                time.sleep(_hang_seconds(cfg.timeout))
        return execute(job, collect_metrics, tracer)
