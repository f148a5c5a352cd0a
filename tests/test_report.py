"""Tests for the scorecard generator and MSHR modelling."""

import json

import pytest

from repro.experiments.common import ExperimentTable, Scale
from repro.experiments import report as report_module
from repro.experiments.report import HEADLINES, generate


@pytest.fixture(autouse=True)
def _results_to_tmp(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
    return tmp_path


class TestScorecard:
    def test_missing_results_reported(self):
        report, ok = generate()
        assert not ok
        assert "Missing results" in report
        for check in HEADLINES:
            assert check.label in report

    def test_saved_result_evaluated(self):
        from repro.experiments import fig04_msb_shift

        table = fig04_msb_shift.run(Scale.SMOKE)
        table.save("fig4")
        report, _ = generate()
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
        assert "Execution health" not in generate()[0]  # clean repo: silent
        quarantine = _results_to_tmp / ".cache" / "quarantine"
        quarantine.mkdir(parents=True)
        (quarantine / "deadbeef.pkl").write_bytes(b"rotten")
        report, _ = generate()
        assert "## Execution health" in report
        assert "deadbeef.pkl" in report

    def test_cli_report_subcommand(self, capsys):
        from repro.experiments import cli

        assert cli.main(["report"]) == 1  # every result is missing
        assert "Reproduction scorecard" in capsys.readouterr().out

    def test_claim_out_of_tolerance_fails_report(self, monkeypatch, capsys):
        """One saved claim pushed past its tolerance makes `report` exit
        1; the same table at the paper's value passes."""
        from repro.experiments import cli
        from repro.paper import claim

        (check,) = [h for h in HEADLINES if h.source == "fig12"]
        monkeypatch.setattr(report_module, "HEADLINES", (check,))
        expected = claim(check.claim_key).value
        for value, status in (
            (expected, 0),
            (expected + 2 * check.tolerance, 1),
        ):
            table = ExperimentTable("T", ("Reduction",))
            table.add("Average", (value,))
            table.save("fig12")
            assert cli.main(["report"]) == status
        assert "| NO |" in capsys.readouterr().out


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
