"""Every crash point of the WAL, the bench trajectory and the result cache.

The harness lives in ``tests/crashpoints.py`` (also ``make crash-points``);
these tests run it under both crash models and pin the regressions it
was built to catch.
"""

from __future__ import annotations

import pytest

import crashpoints
from repro.experiments import runner
from repro.service import ShardWAL


@pytest.fixture(autouse=True)
def _isolate(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    for name in ("REPRO_JOBS", "REPRO_NO_CACHE", "REPRO_TIMEOUT", "REPRO_RETRIES", "REPRO_CHAOS"):
        monkeypatch.delenv(name, raising=False)
    runner.reset()
    yield
    runner.reset()


@pytest.mark.parametrize("model", crashpoints.MODELS)
@pytest.mark.parametrize("log", sorted(crashpoints.LOGS))
def test_every_crash_point_keeps_the_invariants(log, model, tmp_path):
    points, states = crashpoints.run(log, model, tmp_path)
    assert points >= states > 1


def test_commit_after_restart_compaction_survives_power_loss(tmp_path):
    """Commit, restart (which compacts), commit, then lose power.

    Without a directory fsync after the compaction's rename, the old
    journal comes back and the post-restart commits, fdatasynced to the
    new file, are lost; without one after the first commit creates the
    file, nothing comes back at all.
    """
    root = tmp_path / "run"
    ops = crashpoints.record("wal", root)
    log = crashpoints.LOGS["wal"]
    _, states = crashpoints.crash_states(ops, crashpoints.POWER, log.visible)
    files, _ = states[-1]
    crashpoints.materialize(files, root, tmp_path / "state")
    wal = ShardWAL(tmp_path / "state" / crashpoints.WAL_NAME)
    live = ShardWAL.live_records(wal.load_records())
    assert [record.request_id for record in live] == [3, 4, 5]
