"""Golden-file guard for the figure artifacts.

``tests/golden/`` holds the ``--scale smoke --no-cache`` artifacts of every
figure the interval simulator produces, exactly as written when the files
were frozen (``fig11`` from the batched replay, the rest from the scalar
replay loop it has since replaced; the two agreed byte for byte).  Any
change to the replay, the LLC, the controller bookkeeping or DRAM timing
that moves a single output bit fails this byte comparison.

It also holds the block-scan artifacts (Figs. 1/4/8/9, Table 3), frozen
while those harnesses still had a deduplicating batch path that agreed
byte for byte with the scalar scan they now run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.experiments import cli
from repro.obs import set_obs

GOLDEN = Path(__file__).parent / "golden"

FIGURES = (
    "fig1",
    "fig4",
    "fig8",
    "fig9",
    "table3",
    "fig10",
    "fig11",
    "fig12",
    "mixes",
    "sweep-fit",
    "sweep-latency",
    "power",
)


@pytest.fixture(autouse=True)
def _fresh_global_obs():
    """A traced CLI run elsewhere leaves its closed bundle installed."""
    set_obs(None)
    yield
    set_obs(None)


@pytest.mark.parametrize("figure", FIGURES)
def test_smoke_artifacts_match_golden(figure, tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    assert cli.main([figure, "--scale", "smoke", "--no-cache"]) == 0
    capsys.readouterr()
    for name in (f"{figure}.json", f"{figure}.txt"):
        assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name
