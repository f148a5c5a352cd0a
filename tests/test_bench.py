"""Tests for the benchmark harness + performance-trajectory subsystem."""

import json
import subprocess
import sys

import pytest

from repro.bench import (
    ARTIFACT_SCHEMA,
    BenchArtifact,
    BenchRunner,
    clear_cases,
    compare_artifact,
    iter_cases,
    load_trajectory,
    perf_case,
    render_sparkline,
    trajectory_path,
)
from repro.obs.perf import TimingStats, config_hash, git_sha, measure, percentile_of

FAKE_BENCH = """
from repro.bench import perf_case

@perf_case(suite="fake")
def spin():
    return lambda: sum(range(200))

@perf_case(suite="fake", inner=4)
def spin_inner():
    return lambda: sum(range(50))

@perf_case(suite="other")
def noop():
    return lambda: None
"""


@pytest.fixture(autouse=True)
def _isolate(tmp_path, monkeypatch):
    """Fresh results dir, empty case registry, no cached bench modules."""
    monkeypatch.setenv("REPRO_RESULTS_DIR", str(tmp_path / "results"))
    clear_cases()
    for name in [
        key for key in sys.modules if key.startswith("repro_bench_discovered")
    ]:
        del sys.modules[name]
    yield
    clear_cases()


@pytest.fixture
def bench_dir(tmp_path):
    directory = tmp_path / "benches"
    directory.mkdir()
    (directory / "bench_fake.py").write_text(FAKE_BENCH)
    return directory


class TestProtocol:
    def test_percentile_of_nearest_rank(self):
        samples = list(range(1, 101))
        assert percentile_of(samples, 50) == 50
        assert percentile_of(samples, 90) == 90
        assert percentile_of(samples, 99) == 99
        assert percentile_of(samples, 100) == 100
        assert percentile_of([], 50) == 0.0
        assert percentile_of([7], 99) == 7

    def test_measure_counts_repeats_not_warmup(self):
        calls = []
        stats = measure(lambda: calls.append(1), repeats=4, warmup=2)
        assert len(calls) == 6  # 2 warmup + 4 timed
        assert stats.repeats == 4
        assert stats.warmup == 2
        assert all(s >= 0 for s in stats.samples_ns)

    def test_measure_inner_divides(self):
        stats = measure(lambda: None, repeats=2, warmup=0, inner=100)
        assert stats.repeats == 2

    def test_measure_rejects_bad_protocol(self):
        with pytest.raises(ValueError):
            measure(lambda: None, repeats=0)
        with pytest.raises(ValueError):
            measure(lambda: None, inner=0)

    def test_timing_stats_round_trip(self):
        stats = TimingStats(samples_ns=(5, 3, 9, 7), warmup=1)
        data = stats.as_dict()
        assert data["ns"]["min"] == 3
        assert data["ns"]["max"] == 9
        assert data["ns"]["p50"] == data["ns"]["median"]
        assert set(data["ns"]) >= {"min", "max", "mean", "median", "p50", "p90", "p99"}
        assert TimingStats.from_dict(data) == stats

    def test_config_hash_is_stable_and_key_order_free(self):
        a = config_hash({"x": 1, "y": [2, 3]})
        b = config_hash({"y": [2, 3], "x": 1})
        assert a == b
        assert len(a) == 12
        assert config_hash({"x": 2}) != a


    def test_git_sha_marks_uncommitted_tracked_changes(self, tmp_path):
        def git(*args):
            subprocess.run(
                ["git", "-c", "user.name=t", "-c", "user.email=t@t", *args],
                cwd=tmp_path, check=True, capture_output=True,
            )

        git("init", "-q")
        (tmp_path / "tracked.txt").write_text("one\n")
        git("add", "tracked.txt")
        git("commit", "-q", "-m", "one")
        clean = git_sha(repo=str(tmp_path))
        assert len(clean) == 40 and "-dirty" not in clean
        (tmp_path / "untracked.txt").write_text("not tracked\n")
        assert git_sha(repo=str(tmp_path)) == clean
        (tmp_path / "tracked.txt").write_text("two\n")
        assert git_sha(repo=str(tmp_path)) == clean + "-dirty"
        assert git_sha(short=True, repo=str(tmp_path)) == clean[:7] + "-dirty"


class TestRegistry:
    def test_perf_case_registers_and_sorts(self, bench_dir):
        runner = BenchRunner(scale="smoke", bench_dir=bench_dir)
        assert runner.discover() == ["bench_fake"]
        assert runner.suites() == ["fake", "other"]
        names = [case.name for case in iter_cases("fake")]
        assert names == ["spin", "spin_inner"]

    def test_rejects_bad_suite_name(self):
        with pytest.raises(ValueError):
            perf_case(suite="a.b")
        with pytest.raises(ValueError):
            perf_case(suite="")

    def test_rediscovery_is_idempotent(self, bench_dir):
        runner = BenchRunner(scale="smoke", bench_dir=bench_dir)
        runner.discover()
        runner.discover()
        assert [c.name for c in iter_cases("fake")] == ["spin", "spin_inner"]

    def test_unimportable_file_is_skipped_not_fatal(self, bench_dir):
        (bench_dir / "bench_broken.py").write_text("import not_a_real_module\n")
        runner = BenchRunner(scale="smoke", bench_dir=bench_dir)
        assert "bench_fake" in runner.discover()
        assert runner.skipped_files == [
            ("bench_broken.py", "No module named 'not_a_real_module'")
        ]


class TestArtifacts:
    def test_run_suite_produces_schema_fields(self, bench_dir):
        runner = BenchRunner(scale="smoke", bench_dir=bench_dir)
        artifact = runner.run_suite("fake")
        data = artifact.as_dict()
        assert data["schema"] == ARTIFACT_SCHEMA
        assert data["suite"] == "fake"
        assert data["scale"] == "smoke"
        assert data["git_sha"] and data["config_hash"]
        assert data["protocol"]["clock"] == "time.perf_counter_ns"
        assert data["protocol"] == {
            "clock": "time.perf_counter_ns",
            "repeats": 3,
            "warmup": 1,
        }
        for case in ("spin", "spin_inner"):
            ns = data["cases"][case]["ns"]
            assert {"min", "p50", "p90", "p99"} <= set(ns)

    def test_artifact_save_load_round_trip(self, bench_dir, tmp_path):
        runner = BenchRunner(scale="smoke", bench_dir=bench_dir)
        artifact = runner.run_suite("fake")
        path = artifact.save(tmp_path)
        assert path.name == "BENCH_fake.json"
        assert BenchArtifact.load(path) == artifact

    def test_load_rejects_unknown_schema(self, tmp_path):
        bad = tmp_path / "BENCH_x.json"
        bad.write_text(json.dumps({"schema": 99, "suite": "x"}))
        with pytest.raises(ValueError, match="schema 99"):
            BenchArtifact.load(bad)

    def test_unknown_suite_raises(self, bench_dir):
        runner = BenchRunner(scale="smoke", bench_dir=bench_dir)
        with pytest.raises(ValueError, match="no benchmark cases"):
            runner.run_suite("nonexistent")

    def test_scale_sets_protocol(self, bench_dir):
        assert BenchRunner(scale="full", bench_dir=bench_dir).repeats == 9
        assert BenchRunner(scale="small", bench_dir=bench_dir).warmup == 2
        with pytest.raises(ValueError, match="unknown bench scale"):
            BenchRunner(scale="huge")


class TestTrajectory:
    def test_append_and_load(self, bench_dir, tmp_path):
        runner = BenchRunner(scale="smoke", bench_dir=bench_dir)
        artifacts = runner.run(["fake", "other"])
        path = BenchRunner.append_trajectory(artifacts, tmp_path)
        BenchRunner.append_trajectory(artifacts, tmp_path)
        entries = load_trajectory(path)
        assert [e["suite"] for e in entries] == ["fake", "other", "fake", "other"]
        assert all("median" in e["cases"]["spin"] for e in entries if e["suite"] == "fake")

    def test_torn_tail_is_tolerated(self, tmp_path):
        path = trajectory_path(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"suite":"a","cases":{}}\n{"suite":"b", tor')
        entries = load_trajectory(path)
        assert [e["suite"] for e in entries] == ["a"]

    def test_append_after_torn_tail_keeps_every_entry(self, bench_dir, tmp_path):
        path = trajectory_path(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('{"suite":"a","x":1}\n{"suite":"a","x":2')
        runner = BenchRunner(scale="smoke", bench_dir=bench_dir)
        artifacts = runner.run(["fake"])
        BenchRunner.append_trajectory(artifacts, tmp_path)
        assert [e["suite"] for e in load_trajectory(path)] == ["a", "fake"]
        BenchRunner.append_trajectory(artifacts, tmp_path)
        assert [e["suite"] for e in load_trajectory(path)] == ["a", "fake", "fake"]

    def test_mid_file_corruption_raises(self, tmp_path):
        path = trajectory_path(tmp_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('not json\n{"suite":"a","cases":{}}\n')
        with pytest.raises(ValueError, match="corrupt trajectory"):
            load_trajectory(path)

    def test_missing_file_is_empty_history(self, tmp_path):
        assert load_trajectory(trajectory_path(tmp_path)) == []


class TestCompare:
    @staticmethod
    def _artifact(median, sha="abc1234", cfg="deadbeefcafe"):
        return BenchArtifact(
            suite="fake",
            scale="smoke",
            git_sha=sha,
            config_hash=cfg,
            unix_time=1.0,
            cases={
                "spin": {
                    "repeats": 3,
                    "warmup": 1,
                    "ns": {"min": median, "median": median, "p50": median,
                           "p90": median, "p99": median, "max": median,
                           "mean": median},
                    "samples_ns": [median],
                }
            },
        )

    def test_no_baseline(self):
        comparison = compare_artifact(self._artifact(100), [])
        assert not comparison.has_baseline
        assert comparison.regressions(20.0) == []
        assert "nothing to diff" in comparison.render()

    def test_regression_detected_above_gate(self):
        baseline = self._artifact(100).trajectory_entry()
        comparison = compare_artifact(self._artifact(150), [baseline])
        (case,) = comparison.cases
        assert case.delta_pct == pytest.approx(50.0)
        assert comparison.regressions(20.0) == [case]
        assert comparison.regressions(60.0) == []
        assert "REGRESSION" in comparison.render(20.0)

    def test_improvement_never_gates(self):
        baseline = self._artifact(100).trajectory_entry()
        comparison = compare_artifact(self._artifact(50), [baseline])
        assert comparison.regressions(0.0) == []

    def test_config_mismatch_flagged(self):
        baseline = self._artifact(100, cfg="000000000000").trajectory_entry()
        comparison = compare_artifact(self._artifact(100), [baseline])
        assert comparison.config_mismatch
        assert "config hash differs" in comparison.render()

    def test_diffs_against_latest_entry_of_same_suite(self):
        entries = [
            self._artifact(100, sha="old").trajectory_entry(),
            {"suite": "unrelated", "git_sha": "x", "cases": {}},
            self._artifact(200, sha="new").trajectory_entry(),
        ]
        comparison = compare_artifact(self._artifact(200), entries)
        assert comparison.previous_sha == "new"
        assert comparison.cases[0].delta_pct == pytest.approx(0.0)


class TestSparkline:
    def test_shapes(self):
        assert render_sparkline([]) == ""
        assert render_sparkline([5.0]) == "▄"
        assert render_sparkline([1, 8]) == "▁█"
        line = render_sparkline(list(range(8)))
        assert line == "▁▂▃▄▅▆▇█"

    def test_flat_series_renders_mid(self):
        assert render_sparkline([3, 3, 3]) == "▄▄▄"

    def test_width_keeps_newest(self):
        line = render_sparkline([0] * 30 + [100], width=4)
        assert len(line) == 4
        assert line.endswith("█")


class TestCli:
    @staticmethod
    def _bench(args, bench_dir):
        from repro.experiments import cli

        return cli.main(
            ["bench", "--scale", "smoke", "--bench-dir", str(bench_dir)] + args
        )

    def test_bench_writes_artifacts_and_trajectory(self, bench_dir, tmp_path):
        from repro.experiments.common import results_dir

        assert self._bench(["--suite", "fake"], bench_dir) == 0
        results = results_dir()
        artifact = json.loads((results / "BENCH_fake.json").read_text())
        assert artifact["schema"] == ARTIFACT_SCHEMA
        entries = load_trajectory(trajectory_path(results))
        assert [e["suite"] for e in entries] == ["fake"]

    def test_gate_passes_then_fails_on_regression(self, bench_dir):
        from repro.experiments.common import results_dir

        assert self._bench(["--suite", "fake", "--gate", "20"], bench_dir) == 0

        # Forge a baseline the current machine can't possibly hit (1 ns
        # medians), so the next gated run must regress and exit non-zero.
        path = trajectory_path(results_dir())
        entries = load_trajectory(path)
        for case in entries[-1]["cases"].values():
            case["median"] = 1
        path.write_text(
            "".join(json.dumps(e, separators=(",", ":")) + "\n" for e in entries)
        )
        assert self._bench(["--suite", "fake", "--gate", "20"], bench_dir) == 1

        # And a baseline nothing can regress against passes the gate.
        entries = load_trajectory(path)
        for case in entries[-1]["cases"].values():
            case["median"] = 10**15
        path.write_text(
            "".join(json.dumps(e, separators=(",", ":")) + "\n" for e in entries)
        )
        assert self._bench(["--suite", "fake", "--gate", "20"], bench_dir) == 0

    def test_compare_without_gate_never_fails(self, bench_dir, capsys):
        from repro.experiments.common import results_dir

        assert self._bench(["--suite", "fake", "--compare"], bench_dir) == 0
        path = trajectory_path(results_dir())
        entries = load_trajectory(path)
        for case in entries[-1]["cases"].values():
            case["median"] = 1
        path.write_text(
            "".join(json.dumps(e, separators=(",", ":")) + "\n" for e in entries)
        )
        assert self._bench(["--suite", "fake", "--compare"], bench_dir) == 0
        assert "% vs " in capsys.readouterr().out

    def test_json_output_is_machine_readable(self, bench_dir, capsys):
        assert self._bench(["--suite", "fake", "--json"], bench_dir) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["gate_pct"] is None
        (suite,) = payload["suites"]
        assert suite["suite"] == "fake"
        assert "spin" in suite["cases"]

    def test_unknown_suite_exits_2(self, bench_dir):
        assert self._bench(["--suite", "nope"], bench_dir) == 2
