"""Shared helpers for the benchmark harness.

Each ``bench_*`` file regenerates one figure/table of the paper through
pytest-benchmark: the experiment runs once (``pedantic`` with a single
round — these are reproductions, not microbenchmarks), its table is
printed and saved under ``results/``, and its headline shape is asserted.
Scale defaults keep the suite minutes-fast; set ``REPRO_SCALE=full`` for
paper-fidelity sample sizes.

Timing in this directory goes through :mod:`repro.obs.perf` (monotonic
``time.perf_counter_ns``, explicit warmup) — the same protocol the
``BENCH_*.json`` artifacts use — so guard assertions and
artifacts never disagree about methodology.  The helpers are re-exported
here for bench files that want one import point.
"""

from __future__ import annotations

import pytest

from repro.experiments.common import Scale
from repro.obs.perf import best_seconds, measure, now_ns  # noqa: F401  (re-export)


def run_experiment(benchmark, run, scale: Scale, save_as: str):
    """Run one experiment harness under pytest-benchmark and persist it."""
    table = benchmark.pedantic(run, args=(scale,), rounds=1, iterations=1)
    print()
    print(table.to_text())
    table.save(save_as)
    return table


@pytest.fixture
def fast_scale() -> Scale:
    """Scale for cheap (compressibility/census) experiments."""
    return Scale.from_env(default=Scale.SMALL)


@pytest.fixture
def sim_scale() -> Scale:
    """Scale for full-simulation experiments (Figs. 10-12)."""
    return Scale.from_env(default=Scale.SMOKE)
