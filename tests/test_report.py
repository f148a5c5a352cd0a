"""Tests for the scorecard generator and MSHR modelling."""

import json

import pytest

from repro.experiments.common import ExperimentTable, Scale
from repro.experiments.report import HEADLINES, generate


@pytest.fixture(autouse=True)
def _results_to_tmp(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    return tmp_path


class TestScorecard:
    def test_missing_results_reported(self):
        report = generate()
        assert "Missing results" in report
        for check in HEADLINES:
            assert check.label in report

    def test_saved_result_evaluated(self):
        from repro.experiments import fig04_msb_shift

        table = fig04_msb_shift.run(Scale.SMOKE)
        table.save("fig4")
        report = generate()
        assert "| shifted-MSB gain (Fig. 4) |" in report
        # The row carries a verdict cell.
        line = next(
            l for l in report.splitlines() if "shifted-MSB gain" in l
        )
        assert line.endswith("yes |") or line.endswith("NO |")

    def test_json_roundtrip(self, _results_to_tmp):
        table = ExperimentTable("T", ("a",), percent=False)
        table.add("x", (0.25,))
        table.save("unit")
        data = json.loads((_results_to_tmp / "unit.json").read_text())
        assert data["rows"]["x"] == [0.25]
        assert data["columns"] == ["a"]

    def test_execution_health_section(self, _results_to_tmp):
        assert "Execution health" not in generate()  # clean repo: silent
        quarantine = _results_to_tmp / ".cache" / "quarantine"
        quarantine.mkdir(parents=True)
        (quarantine / "deadbeef.pkl").write_bytes(b"rotten")
        report = generate()
        assert "## Execution health" in report
        assert "deadbeef.pkl" in report

    def test_cli_report_subcommand(self, capsys):
        from repro.experiments import cli

        assert cli.main(["report"]) == 0
        assert "Reproduction scorecard" in capsys.readouterr().out


class TestMshrModel:
    def test_mshr_cap_serialises_waves(self):
        """With MSHRs=1 misses serialise; unlimited they overlap."""
        from test_simulation import build_system
        from repro.simulation.config import SystemConfig

        fast = build_system(
            bench="lbm",
            epochs=120,
            config=SystemConfig(
                llc_bytes=128 << 10, footprint_divider=16, mshrs=0
            ),
        ).run()
        slow = build_system(
            bench="lbm",
            epochs=120,
            config=SystemConfig(
                llc_bytes=128 << 10, footprint_divider=16, mshrs=1
            ),
        ).run()
        assert slow.ipc < fast.ipc

    def test_default_mshrs(self):
        from repro.simulation.config import SystemConfig, TABLE1_SYSTEM

        assert TABLE1_SYSTEM.mshrs == 16
        assert SystemConfig(mshrs=0).mshrs == 0
