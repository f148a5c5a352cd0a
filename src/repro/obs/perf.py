# repro: sanctioned[wall-clock]
"""Performance-measurement protocol for the benchmark harness.

Every timing number the repo publishes (``BENCH_*.json`` artifacts and
their committed baselines, the ad-hoc speedup guards in
``benchmarks/``) comes through this module so the protocol is
consistent everywhere:

* the monotonic high-resolution clock (``time.perf_counter_ns``),
* explicit warmup iterations (JIT'd numpy LUTs, page cache, allocator
  warmth) that are *never* counted,
* a pinned number of repeats with per-repeat samples kept, so artifacts
  report distributions (min/p50/p90/p99) rather than one noisy number,
* an environment fingerprint (interpreter, platform, CPU count, scale)
  stamped into every artifact so a run and its baseline are compared
  only when they should be.

This is host-side *measurement* code: wall-clock use here is sanctioned
(see the directive on line 1 and docs/static-analysis.md) — the REP001
determinism rule keeps rejecting wall-clock reads in simulation code.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional, Sequence

__all__ = [
    "CLOCK_NAME",
    "TimingStats",
    "best_seconds",
    "config_hash",
    "fingerprint",
    "git_sha",
    "measure",
    "now_ns",
    "percentile_of",
]

#: The one clock the protocol uses, named so artifacts can record it.
CLOCK_NAME = "time.perf_counter_ns"


def now_ns() -> int:
    """The protocol clock: monotonic, ns resolution, never goes back."""
    return time.perf_counter_ns()


def percentile_of(samples: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile over raw samples (deterministic, no interp)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, -(-len(ordered) * pct // 100))  # ceil without float error
    return ordered[min(int(rank) - 1, len(ordered) - 1)]


@dataclass(frozen=True)
class TimingStats:
    """Distribution of one case's per-repeat wall times (nanoseconds)."""

    samples_ns: tuple[int, ...]
    warmup: int

    @property
    def repeats(self) -> int:
        return len(self.samples_ns)

    @property
    def min_ns(self) -> int:
        return min(self.samples_ns) if self.samples_ns else 0

    @property
    def max_ns(self) -> int:
        return max(self.samples_ns) if self.samples_ns else 0

    @property
    def mean_ns(self) -> float:
        if not self.samples_ns:
            return 0.0
        return sum(self.samples_ns) / len(self.samples_ns)

    @property
    def median_ns(self) -> float:
        return self.percentile(50.0)

    def percentile(self, pct: float) -> float:
        return percentile_of(self.samples_ns, pct)

    @property
    def best_seconds(self) -> float:
        return self.min_ns / 1e9

    def as_dict(self) -> dict[str, Any]:
        """Artifact form: summary stats plus the raw samples."""
        return {
            "repeats": self.repeats,
            "warmup": self.warmup,
            "ns": {
                "min": self.min_ns,
                "max": self.max_ns,
                "mean": self.mean_ns,
                "median": self.median_ns,
                "p50": self.percentile(50.0),
                "p90": self.percentile(90.0),
                "p99": self.percentile(99.0),
            },
            "samples_ns": list(self.samples_ns),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "TimingStats":
        return cls(
            samples_ns=tuple(int(s) for s in data.get("samples_ns", ())),
            warmup=int(data.get("warmup", 0)),
        )


def measure(
    fn: Callable[[], Any],
    repeats: int = 5,
    warmup: int = 1,
    inner: int = 1,
) -> TimingStats:
    """Time ``fn`` under the shared protocol.

    ``warmup`` untimed calls, then ``repeats`` timed ones on the
    monotonic ns clock.  ``inner > 1`` loops the callable inside each
    timed repeat and divides — for sub-microsecond cases where one call
    is below clock resolution.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if inner < 1:
        raise ValueError("inner must be >= 1")
    for _ in range(warmup):
        fn()
    samples: list[int] = []
    for _ in range(repeats):
        start = time.perf_counter_ns()
        for _ in range(inner):
            fn()
        samples.append((time.perf_counter_ns() - start) // inner)
    return TimingStats(samples_ns=tuple(samples), warmup=warmup)


def best_seconds(
    fn: Callable[[], Any],
    rounds: int = 7,
    reps: int = 4,
    warmup: int = 1,
) -> float:
    """Best-of-``rounds`` mean-of-``reps`` seconds (speedup-guard shape).

    The benchmark guards compare ratios of two measurements, where the
    *minimum* over rounds is the noise-robust estimator; this wraps
    :func:`measure` so those guards inherit warmup + the ns clock
    instead of hand-rolling ``time.perf_counter()`` loops.
    """
    stats = measure(fn, repeats=rounds, warmup=warmup, inner=reps)
    return stats.best_seconds


def git_sha(short: bool = False, repo: Optional[str] = None) -> str:
    """The checkout's current commit, or ``"unknown"`` outside a checkout.

    ``repo`` is a directory inside the checkout (default: this package's).
    When tracked files differ from ``HEAD`` the SHA carries a ``-dirty``
    suffix, so an artifact measured on uncommitted code does not name the
    commit it was not measured on.
    """
    cwd = repo if repo is not None else os.path.dirname(os.path.abspath(__file__))
    try:
        head = subprocess.run(
            ["git", "rev-parse", "--short" if short else "--verify", "HEAD"],
            capture_output=True, text=True, timeout=5, cwd=cwd,
        )
        diff = subprocess.run(
            ["git", "diff", "--quiet", "HEAD", "--"],
            capture_output=True, timeout=5, cwd=cwd,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    sha = head.stdout.strip()
    if head.returncode != 0 or not sha:
        return "unknown"
    return f"{sha}-dirty" if diff.returncode == 1 else sha


def fingerprint(extra: Optional[Mapping[str, Any]] = None) -> dict[str, Any]:
    """Environment stamp embedded in every ``BENCH_*.json`` artifact."""
    stamp: dict[str, Any] = {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": sys.platform,
        "machine": platform.machine(),
        "cpus": os.cpu_count() or 1,
        "scale": os.environ.get("REPRO_SCALE", "") or "default",
    }
    if extra:
        stamp.update(extra)
    return stamp


def config_hash(payload: Mapping[str, Any]) -> str:
    """Short stable hash of a protocol/config description.

    Two artifacts are directly comparable only when their config hashes
    match (same suite make-up, same protocol, same scale); the bench
    gate warns when a run's hash differs from its baseline's.
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:12]
