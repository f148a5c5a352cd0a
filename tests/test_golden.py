"""Golden-file guard for the simulator's figure artifacts.

``tests/golden/`` holds ``fig11 --scale smoke --batch`` exactly as the
batched epoch-replay engine wrote it when the files were frozen.  Any
change to the replay, the LLC, the controller bookkeeping or DRAM timing
that moves a single output bit fails this byte comparison.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import cli
from repro.obs import set_obs

GOLDEN = Path(__file__).parent / "golden"


@pytest.fixture(autouse=True)
def _fresh_global_obs():
    """A traced CLI run elsewhere leaves its closed bundle installed."""
    set_obs(None)
    yield
    set_obs(None)


def test_fig11_smoke_batch_matches_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    assert cli.main(["fig11", "--scale", "smoke", "--batch", "--no-cache"]) == 0
    capsys.readouterr()
    for name in ("fig11.json", "fig11.txt"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
