"""Smoke tests for every experiment harness plus the CLI."""

import math

import pytest

from repro.experiments import cli
from repro.experiments.common import (
    ExperimentTable,
    Scale,
    geomean,
    sample_blocks,
)
from repro.experiments.fig01_fpc_targets import TARGET_RATIOS
from repro.workloads.profiles import FIG4_BENCHMARKS, MEMORY_INTENSIVE


class TestCommon:
    def test_scale_pick(self):
        assert Scale.SMOKE.pick(1, 2, 3) == 1
        assert Scale.FULL.pick(1, 2, 3) == 3

    def test_scale_from_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "full")
        assert Scale.from_env() is Scale.FULL
        monkeypatch.delenv("REPRO_SCALE")
        assert Scale.from_env() is Scale.SMALL
        assert Scale.from_env(default=Scale.SMOKE) is Scale.SMOKE

    def test_scale_from_env_rejects_unknown(self, monkeypatch):
        """A typo'd REPRO_SCALE fails loudly, naming the valid choices."""
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(ValueError, match="smoke, small, full"):
            Scale.from_env()
        monkeypatch.setenv("REPRO_SCALE", "")
        assert Scale.from_env() is Scale.SMALL

    def test_table_row_column_access(self):
        table = ExperimentTable("t", ("a", "b"))
        table.add("x", (0.1, 0.2))
        table.add("y", (0.3, 0.4))
        assert table.column("b") == [0.2, 0.4]
        assert table.row("y") == (0.3, 0.4)
        with pytest.raises(KeyError):
            table.row("z")

    def test_table_row_width_validated(self):
        table = ExperimentTable("t", ("a",))
        with pytest.raises(ValueError):
            table.add("x", (1.0, 2.0))

    def test_table_render_and_save(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))
        table = ExperimentTable("Title", ("col",))
        table.add("row", (0.5,))
        table.notes.append("a note")
        text = table.to_text()
        assert "Title" in text and "50.0%" in text and "a note" in text
        path = table.save("unit")
        assert path.read_text().startswith("Title")

    def test_geomean(self):
        assert geomean([1.0, 4.0]) == pytest.approx(2.0)
        assert geomean([]) == 0.0

    def test_geomean_rejects_nonpositive(self):
        """A zero normalized IPC means a failed run; dropping it would
        silently inflate the reported average."""
        with pytest.raises(ValueError, match="non-positive"):
            geomean([0.0, 2.0])
        with pytest.raises(ValueError, match="non-positive"):
            geomean([1.0, -0.5])

    def test_sample_blocks(self):
        blocks = sample_blocks("gcc", 10)
        assert len(blocks) == 10
        assert all(len(b) == 64 for b in blocks)


@pytest.fixture(autouse=True)
def _results_to_tmp(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path))


class TestHarnesses:
    def test_fig01(self):
        from repro.experiments import fig01_fpc_targets

        table = fig01_fpc_targets.run(Scale.SMOKE)
        assert len(table.columns) == len(TARGET_RATIOS)
        labels = [label for label, _ in table.rows]
        assert labels[-1] == "SPECint 2006"
        for _, values in table.rows:
            assert all(0.0 <= v <= 1.0 for v in values)

    def test_fig04(self):
        from repro.experiments import fig04_msb_shift

        table = fig04_msb_shift.run(Scale.SMOKE)
        assert len(table.rows) == len(FIG4_BENCHMARKS) + 1
        unshifted, shifted = table.row("Average")
        assert shifted >= unshifted

    @pytest.mark.parametrize("ecc_bytes", [4, 8])
    def test_compressibility_harness(self, ecc_bytes):
        from repro.experiments import compressibility

        table = compressibility.run(ecc_bytes, Scale.SMOKE)
        labels = [label for label, _ in table.rows]
        for name in MEMORY_INTENSIVE:
            assert name in labels
        assert ("TXT" in table.columns) == (ecc_bytes == 4)

    def test_fig10(self):
        from repro.experiments import fig10_error_rate

        table = fig10_error_rate.run(Scale.SMOKE)
        for _, values in table.rows:
            assert all(0.0 <= v <= 1.0 for v in values)
        # COP-ER corrects everything.
        assert all(v >= 0.999 for v in table.column("COP-ER 4-byte"))

    def test_fig11(self):
        from repro.experiments import fig11_performance

        table = fig11_performance.run(Scale.SMOKE, cores=2)
        geo = table.row("Geomean")
        assert geo[0] == pytest.approx(1.0)
        assert all(0.3 < v <= 1.01 for v in geo)

    def test_fig12(self):
        from repro.experiments import fig12_ecc_storage

        table = fig12_ecc_storage.run(Scale.SMOKE)
        average = table.row("Average")[0]
        assert 0.0 < average <= 1.0

    def test_table3(self):
        from repro.experiments import table3_aliases

        table = table3_aliases.run(Scale.SMOKE)
        fractions = table.column("Percent of blocks")
        assert sum(fractions) == pytest.approx(1.0)

    def test_intext(self):
        from repro.experiments import intext_claims

        table = intext_claims.run(Scale.SMOKE)
        labels = [label for label, _ in table.rows]
        assert "P(random word valid)" in labels

    def test_chipkill_extension(self):
        from repro.experiments import chipkill_ext

        table = chipkill_ext.run(Scale.SMOKE)
        survival = table.column("Chip-fail survival")
        assert all(s == 1.0 for s in survival)

    def test_ascii_chart(self):
        table = ExperimentTable("T", ("v",))
        table.add("aa", (0.5,))
        table.add("b", (1.0,))
        table.add("c", (float("nan"),))
        chart = table.to_ascii_chart(width=10)
        lines = chart.splitlines()
        assert "T — v" in lines[0]
        assert lines[1].count("#") == 5
        assert lines[2].count("#") == 10
        # A NaN cell (no number) is left out of the scale and drawn empty.
        assert lines[3].count("#") == 0
        assert "nan" in lines[3].split("|")[-1]

    def test_ascii_chart_unknown_column(self):
        table = ExperimentTable("T", ("v",))
        table.add("a", (0.5,))
        with pytest.raises(ValueError):
            table.to_ascii_chart(column="nope")

    def test_ascii_chart_empty_table(self):
        """An empty table renders as its title instead of raising."""
        table = ExperimentTable("Empty", ("v",))
        assert table.to_ascii_chart() == "Empty — v"
        assert ExperimentTable("Bare", ()).to_ascii_chart() == "Bare"


class TestCli:
    def test_lists_all_experiments(self):
        assert set(cli.EXPERIMENTS) == {
            "fig1", "fig4", "fig8", "fig9", "fig10", "fig11", "fig12",
            "table3", "intext", "power", "chipkill", "mixes",
            "sweep-latency", "sweep-fit",
        }

    def test_runs_one_experiment(self, capsys):
        assert cli.main(["fig4", "--scale", "smoke"]) == 0
        out = capsys.readouterr().out
        assert "Figure 4" in out and "[saved" in out

    def test_rejects_unknown_experiment(self):
        with pytest.raises(SystemExit):
            cli.main(["fig99"])

    def test_explicit_scale_beats_bad_env(self, capsys, monkeypatch):
        """--scale must win over a broken REPRO_SCALE instead of the
        parser blowing up while building its defaults."""
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        assert cli.main(["fig4", "--scale", "smoke"]) == 0
        assert "[saved" in capsys.readouterr().out

    def test_bad_env_scale_fails_loudly_without_flag(self, capsys, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        with pytest.raises(SystemExit) as excinfo:
            cli.main(["fig4"])
        assert excinfo.value.code == 2
        assert "REPRO_SCALE" in capsys.readouterr().err

    def test_obs_subcommand_ignores_bad_env_scale(self, capsys, monkeypatch):
        """Subcommands that run no simulation must not choke on the env."""
        monkeypatch.setenv("REPRO_SCALE", "bogus")
        assert cli.main(["obs"]) == 2  # "nothing to show", not a crash
        assert "nothing to show" in capsys.readouterr().out

    @pytest.mark.parametrize("experiment", ["fig12", "mixes", "power"])
    def test_parallel_run_matches_serial(self, capsys, experiment):
        """Acceptance: --jobs N output is byte-identical to serial."""
        assert cli.main([experiment, "--scale", "smoke", "--no-cache"]) == 0
        serial = capsys.readouterr().out
        assert (
            cli.main(
                [experiment, "--scale", "smoke", "--no-cache", "--jobs", "2"]
            )
            == 0
        )
        parallel = capsys.readouterr().out
        assert parallel == serial

    def test_power_runs_through_the_runner(self, capsys, monkeypatch):
        """``power`` simulates through run_jobs: a second run is served
        entirely from the result cache, with the same output."""
        from repro.experiments import runner

        for name in ("REPRO_JOBS", "REPRO_NO_CACHE"):
            monkeypatch.delenv(name, raising=False)
        executed = []
        real = runner._execute_job

        def counting(job, *args, **kwargs):
            executed.append(job)
            return real(job, *args, **kwargs)

        monkeypatch.setattr(runner, "_execute_job", counting)
        outputs, counts = [], []
        for _ in range(2):
            executed.clear()
            assert cli.main(["power", "--scale", "smoke"]) == 0
            outputs.append(capsys.readouterr().out)
            counts.append(len(executed))
        assert counts == [15, 0]
        assert outputs[0] == outputs[1]

    def test_trace_composes_with_jobs(self, tmp_path, capsys):
        """--trace no longer forces serial: parallel traced runs shard
        per job and merge byte-identically (docs/parallel-runs.md)."""
        trace = tmp_path / "t.jsonl"
        assert (
            cli.main(
                ["fig12", "--scale", "smoke", "--jobs", "4",
                 "--trace", str(trace), "--no-cache"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "running serially" not in out
        assert trace.exists() and trace.stat().st_size > 0
        serial = tmp_path / "serial.jsonl"
        assert (
            cli.main(
                ["fig12", "--scale", "smoke",
                 "--trace", str(serial), "--no-cache"]
            )
            == 0
        )
        capsys.readouterr()
        assert serial.read_bytes() == trace.read_bytes()

    def test_untraced_run_after_traced_run(self, tmp_path, capsys):
        """A traced run uninstalls its bundle when it ends, so a later
        untraced run in the same process does not write to the closed
        trace sink."""
        from repro.obs import NULL_OBS, get_obs

        trace = tmp_path / "t.jsonl"
        assert (
            cli.main(
                ["fig12", "--scale", "smoke", "--no-cache", "--trace", str(trace)]
            )
            == 0
        )
        assert cli.main(["fig12", "--scale", "smoke", "--no-cache"]) == 0
        capsys.readouterr()
        assert (tmp_path / "fig12.json").exists()
        assert get_obs() is NULL_OBS
