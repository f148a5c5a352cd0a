"""Benchmark harness + committed BENCH baselines.

``repro.bench`` turns the ad-hoc timing loops scattered through
``benchmarks/bench_*.py`` into a first-class subsystem:

* bench files register cases with the :func:`perf_case` decorator;
* :class:`BenchRunner` discovers them, executes each under the shared
  protocol in :mod:`repro.obs.perf` (warmup, pinned repeats, monotonic
  ns clock), and emits versioned ``BENCH_<suite>.json`` artifacts;
* the committed ``results/BENCH_<suite>.json`` is each suite's baseline:
  every run diffs against it before overwriting it, and ``--gate PCT``
  fails on a larger regression
  (``python -m repro.experiments.cli bench --gate 20``).

See docs/perf-trajectory.md for the artifact schema and gate semantics.
"""

from repro.bench.registry import BenchCase, clear_cases, iter_cases, perf_case
from repro.bench.runner import (
    ARTIFACT_SCHEMA,
    BenchArtifact,
    BenchRunner,
    CaseComparison,
    SuiteComparison,
    compare_artifact,
    default_bench_dir,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "BenchArtifact",
    "BenchCase",
    "BenchRunner",
    "CaseComparison",
    "SuiteComparison",
    "clear_cases",
    "compare_artifact",
    "default_bench_dir",
    "iter_cases",
    "perf_case",
]
