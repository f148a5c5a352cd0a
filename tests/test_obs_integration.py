"""End-to-end observability: instrumented simulation runs and the CLI."""

import json

import pytest

from repro.core.controller import ProtectionMode
from repro.experiments.common import Scale
from repro.experiments.simruns import run_benchmark
from repro.obs import NULL_OBS, Observability, set_obs


@pytest.fixture(autouse=True)
def _reset_global_obs():
    yield
    set_obs(None)


@pytest.fixture(autouse=True)
def _results_to_tmp(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    return tmp_path


def _smoke_run(tmp_path, mode=ProtectionMode.COP_ER, cores=2):
    obs = Observability.create(trace_sink=tmp_path / "trace.jsonl")
    outcome = run_benchmark("lbm", mode, Scale.SMOKE, cores=cores, obs=obs)
    obs.close()
    return obs, outcome


class TestInstrumentedRun:
    def test_metric_invariants(self, tmp_path):
        obs, outcome = _smoke_run(tmp_path)
        counters = outcome.metrics["counters"]
        # DRAM identity: every access either row-hits or row-misses.
        assert (
            counters["dram.row_hits"] + counters["dram.row_misses"]
            == counters["dram.accesses"]
        )
        assert counters["dram.accesses"] == counters["dram.reads"] + counters["dram.writes"]
        # The registry mirrors the functional controller stats exactly.
        assert counters["controller.reads"] == outcome.memory.stats.reads
        assert counters["controller.writes"] == outcome.memory.stats.writes
        # And the performance model's LLC view.
        assert counters["llc.hits"] == outcome.perf.llc_hits
        assert counters["llc.misses"] == outcome.perf.llc_misses
        assert counters["dram.reads"] == outcome.perf.dram_reads

    def test_miss_latency_histogram_populated(self, tmp_path):
        obs, outcome = _smoke_run(tmp_path)
        hist = outcome.metrics["histograms"]["system.miss_latency_ns"]
        # One observation per serviced data miss (= controller reads; DRAM
        # reads additionally include ECC-region block fetches).
        assert hist["count"] == outcome.memory.stats.reads
        assert hist["count"] <= outcome.perf.dram_reads
        assert hist["p50"] <= hist["p99"] <= hist["max"]

    def test_per_bank_counters_sum_to_totals(self, tmp_path):
        obs, outcome = _smoke_run(tmp_path)
        counters = outcome.metrics["counters"]
        bank_hits = sum(
            value
            for name, value in counters.items()
            if name.startswith("dram.bank.") and name.endswith(".row_hits")
        )
        assert bank_hits == counters["dram.row_hits"]

    def test_coper_region_metrics(self, tmp_path):
        obs, outcome = _smoke_run(tmp_path)
        snapshot = outcome.metrics
        assert (
            snapshot["counters"]["ecc_region.allocations"]
            == outcome.memory.stats.entry_allocations
        )
        assert snapshot["gauges"]["ecc_region.peak_entries"] == (
            outcome.memory.region.peak_entries
        )

    def test_trace_parses_and_matches_run(self, tmp_path):
        obs, outcome = _smoke_run(tmp_path)
        records = [
            json.loads(line)
            for line in (tmp_path / "trace.jsonl").read_text().splitlines()
        ]
        kinds = {record["kind"] for record in records}
        assert "access" in kinds and "span" in kinds
        accesses = [r for r in records if r["kind"] == "access"]
        assert len(accesses) == outcome.memory.stats.reads
        for record in accesses[:10]:
            assert record["mode"] == "cop-er"
            assert record["latency_ns"] > 0

    def test_sampled_trace_is_subset_and_deterministic(self, tmp_path):
        def run(path):
            obs = Observability.create(
                trace_sink=path, sample_rate=0.2, seed=7
            )
            run_benchmark(
                "lbm", ProtectionMode.COP, Scale.SMOKE, cores=1, obs=obs
            )
            obs.close()
            return [
                json.loads(line) for line in path.read_text().splitlines()
            ]

        first = run(tmp_path / "a.jsonl")
        second = run(tmp_path / "b.jsonl")
        assert [r.get("seq") for r in first] == [r.get("seq") for r in second]
        accesses = [r for r in first if r["kind"] == "access"]
        assert 0 < len(accesses) < 400  # sampled well below the full count

    def test_default_run_has_no_metrics(self):
        outcome = run_benchmark(
            "lbm", ProtectionMode.COP, Scale.SMOKE, cores=1, obs=NULL_OBS
        )
        assert outcome.metrics == {}


class TestCliObservability:
    def test_experiment_embeds_metrics_snapshot(self, tmp_path, capsys):
        from repro.experiments import cli
        from repro.experiments.common import results_dir

        trace = tmp_path / "cli-trace.jsonl"
        assert (
            cli.main(
                ["fig12", "--scale", "smoke", "--trace", str(trace)]
            )
            == 0
        )
        saved = json.loads((results_dir() / "fig12.json").read_text())
        assert saved["metrics"]["counters"]["controller.reads"] > 0
        assert trace.exists()
        out = capsys.readouterr().out
        assert "== metrics" in out

    def test_obs_subcommand_renders_and_checks(self, tmp_path, capsys):
        from repro.experiments import cli
        from repro.experiments.common import results_dir

        trace = tmp_path / "t.jsonl"
        assert (
            cli.main(["fig12", "--scale", "smoke", "--trace", str(trace)])
            == 0
        )
        capsys.readouterr()
        code = cli.main(
            [
                "obs",
                "--metrics",
                str(results_dir() / "fig12.json"),
                "--trace-file",
                str(trace),
                "--check",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "controller" in out
        assert "access" in out
        assert "[check] ok" in out

    def test_obs_subcommand_check_fails_on_empty(self, tmp_path, capsys):
        from repro.experiments import cli

        empty = tmp_path / "empty.json"
        empty.write_text(json.dumps({"counters": {}}))
        assert cli.main(["obs", "--metrics", str(empty), "--check"]) == 1

    def test_obs_subcommand_requires_input(self, capsys):
        from repro.experiments import cli

        assert cli.main(["obs"]) == 2
