"""Tests for the repo-specific AST linter (``repro.analysis``).

Every rule is exercised against a failing and a passing fixture under
``tests/lint_fixtures/`` (the fixtures carry ``# lint-as:`` directives
placing them inside the packages each rule scopes to), the suppression
comment round-trips, and — the gate this PR installs — ``src/repro``
itself must lint clean.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import RULES, lint_file, lint_paths, lint_source
from repro.analysis.cli import main as lint_main

FIXTURES = Path(__file__).parent / "lint_fixtures"
SRC = Path(__file__).parent.parent / "src" / "repro"

RULE_CASES = [
    ("REP001", "determinism"),
    ("REP002", "merge"),
    ("REP003", "bitwidth"),
    ("REP006", "except"),
    ("REP007", "guardedby"),
    ("REP009", "blocking"),
]


def ids_of(findings):
    return {f.rule_id for f in findings}


class TestRegistry:
    def test_exactly_the_kept_rules_registered(self):
        assert set(RULES) == {rule_id for rule_id, _ in RULE_CASES}

    def test_rules_have_metadata(self):
        for rule in RULES.values():
            assert rule.id and rule.name and rule.description


class TestFixtures:
    @pytest.mark.parametrize("rule_id,stem", RULE_CASES)
    def test_failing_fixture_triggers_rule(self, rule_id, stem):
        findings = lint_file(FIXTURES / f"{stem}_fail.py")
        assert rule_id in ids_of(findings), [f.format() for f in findings]

    @pytest.mark.parametrize("rule_id,stem", RULE_CASES)
    def test_passing_fixture_is_clean(self, rule_id, stem):
        findings = lint_file(FIXTURES / f"{stem}_pass.py")
        assert findings == [], [f.format() for f in findings]

    def test_determinism_fixture_counts(self):
        findings = lint_file(FIXTURES / "determinism_fail.py")
        # random.random, random.choice, time.time, datetime.now,
        # os.urandom, unseeded random.Random
        assert len([f for f in findings if f.rule_id == "REP001"]) == 6

    def test_merge_fixture_flags_both_methods(self):
        findings = lint_file(FIXTURES / "merge_fail.py")
        messages = [f.message for f in findings if f.rule_id == "REP002"]
        assert len(messages) == 2
        assert all("stalls" in m for m in messages)

    def test_except_fixture_flags_all_three_shapes(self):
        findings = lint_file(FIXTURES / "except_fail.py")
        messages = [f.message for f in findings if f.rule_id == "REP006"]
        assert len(messages) == 3
        joined = " ".join(messages)
        assert "bare except" in joined
        assert "except Exception" in joined
        assert "except BaseException" in joined

    def test_except_suppression_and_compliance_paths(self):
        source = (
            "def f(metrics):\n"
            "    try:\n"
            "        risky()\n"
            "    except Exception:  # repro: noqa[REP006]\n"
            "        pass\n"
        )
        assert lint_source(source, path="anywhere.py") == []
        counted = (
            "def f(metrics):\n"
            "    try:\n"
            "        risky()\n"
            "    except Exception:\n"
            "        metrics.inc('f.errors')\n"
        )
        assert lint_source(counted, path="anywhere.py") == []


class TestConcurrencyRules:
    def test_guardedby_fixture_counts(self):
        findings = lint_file(FIXTURES / "guardedby_fail.py")
        messages = [f.message for f in findings if f.rule_id == "REP007"]
        # Annotated violation, unknown lock attribute, inferred violation.
        assert len(messages) == 3
        joined = " ".join(messages)
        assert "guarded-by" in joined
        assert "not a recognised lock attribute" in joined

    def test_guardedby_noqa_round_trip(self):
        source = (
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._data = {}  # guarded-by: _lock\n"
            "    def put(self, k, v):\n"
            "        self._data[k] = v\n"
        )
        assert ids_of(lint_source(source, path="anywhere.py")) == {"REP007"}
        suppressed = source.replace(
            "self._data[k] = v", "self._data[k] = v  # repro: noqa[REP007]"
        )
        assert lint_source(suppressed, path="anywhere.py") == []

    def test_blocking_fixture_counts(self):
        findings = lint_file(FIXTURES / "blocking_fail.py")
        messages = [f.message for f in findings if f.rule_id == "REP009"]
        # Direct sleep, transitive queue wait, call through parameter.
        assert len(messages) == 3
        joined = " ".join(messages)
        assert "time.sleep" in joined
        assert "transitively" in joined or "blocks" in joined
        assert "parameter" in joined

    def test_blocking_sanction_round_trip(self):
        findings = lint_file(FIXTURES / "blocking_pass.py")
        assert findings == [], [f.format() for f in findings]
        stripped = (FIXTURES / "blocking_pass.py").read_text().replace(
            "  # sanctioned[blocking-under-lock]: dedup misses", ""
        )
        findings = lint_source(
            stripped, path=str(FIXTURES / "blocking_pass.py")
        )
        assert ids_of(findings) == {"REP009"}


class TestScoping:
    def test_rules_only_fire_inside_their_packages(self):
        # Same entropy source, but outside the guarded packages.
        source = (
            "# lint-as: repro/experiments/report_helper.py\n"
            "import random\n"
            "def jitter():\n"
            "    return random.random()\n"
        )
        assert lint_source(source) == []

    def test_lint_as_directive_places_file_in_package(self):
        source = (
            "# lint-as: repro/workloads/gen.py\n"
            "import random\n"
            "def jitter():\n"
            "    return random.random()\n"
        )
        findings = lint_source(source)
        assert ids_of(findings) == {"REP001"}

    def test_unscoped_file_outside_repro_skips_package_rules(self):
        source = "import random\nvalue = random.random()\n"
        assert lint_source(source, path="/tmp/elsewhere/script.py") == []


class TestSuppression:
    def test_suppression_round_trip(self):
        path = FIXTURES / "suppressed.py"
        findings = lint_file(path)
        # Only the unsuppressed call survives.
        assert len(findings) == 1
        assert findings[0].rule_id == "REP001"

        stripped = path.read_text().replace("  # repro: noqa[determinism]", "")
        findings = lint_source(stripped, path=str(path))
        assert len(findings) == 2

    def test_bare_noqa_silences_all_rules(self):
        source = (
            "# lint-as: repro/simulation/x.py\n"
            "import random\n"
            "value = random.random()  # repro: noqa\n"
        )
        assert lint_source(source) == []

    def test_suppression_by_rule_id(self):
        source = (
            "# lint-as: repro/simulation/x.py\n"
            "import random\n"
            "value = random.random()  # repro: noqa[REP001]\n"
        )
        assert lint_source(source) == []

    def test_suppression_of_other_rule_does_not_apply(self):
        source = (
            "# lint-as: repro/simulation/x.py\n"
            "import random\n"
            "value = random.random()  # repro: noqa[bit-width]\n"
        )
        assert ids_of(lint_source(source)) == {"REP001"}


class TestWallClockSanction:
    def test_obs_and_bench_packages_are_guarded(self):
        source = (
            "# lint-as: repro/obs/helper.py\n"
            "import time\n"
            "def now():\n"
            "    return time.time()\n"
        )
        assert ids_of(lint_source(source)) == {"REP001"}
        source = source.replace("repro/obs/", "repro/bench/")
        assert ids_of(lint_source(source)) == {"REP001"}

    def test_sanctioned_fixture_wall_clock_is_clean(self):
        findings = lint_file(FIXTURES / "sanctioned_pass.py")
        assert findings == [], [f.format() for f in findings]

    def test_sanction_does_not_cover_entropy(self):
        findings = lint_file(FIXTURES / "sanctioned_fail.py")
        messages = [f.message for f in findings if f.rule_id == "REP001"]
        # random.random still flagged; time.perf_counter is not.
        assert len(messages) == 1
        assert "global RNG" in messages[0]

    def test_directive_must_be_in_first_ten_lines(self):
        filler = "# filler\n" * 10
        source = (
            "# lint-as: repro/obs/helper.py\n"
            + filler
            + "# repro: sanctioned[wall-clock]\n"
            "import time\n"
            "def now():\n"
            "    return time.time()\n"
        )
        assert ids_of(lint_source(source)) == {"REP001"}


class TestSelfLint:
    def test_src_repro_is_clean(self):
        findings = lint_paths([SRC])
        assert findings == [], "\n".join(f.format() for f in findings)


class TestParseErrors:
    def test_syntax_error_becomes_finding(self):
        findings = lint_source("def broken(:\n", path="bad.py")
        assert len(findings) == 1
        assert findings[0].rule_id == "REP000"


class TestCli:
    def test_check_exit_codes(self, capsys):
        assert lint_main([str(FIXTURES / "determinism_pass.py"), "--check"]) == 0
        assert lint_main([str(FIXTURES / "determinism_fail.py"), "--check"]) == 1
        out = capsys.readouterr().out
        assert "REP001" in out

    def test_json_output_parses(self, capsys):
        assert lint_main([str(FIXTURES / "merge_fail.py"), "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload and payload[0]["rule_id"] == "REP002"
        assert {"path", "line", "col", "message"} <= set(payload[0])

    def test_select_restricts_rules(self, capsys):
        assert (
            lint_main(
                [str(FIXTURES / "determinism_fail.py"), "--select", "bit-width"]
            )
            == 0
        )
        assert "clean" in capsys.readouterr().out

    def test_select_unknown_rule_errors(self):
        with pytest.raises(SystemExit) as exc:
            lint_main([str(FIXTURES), "--select", "nonsense"])
        assert exc.value.code == 2

    def test_select_prefix_matches_rule_family(self, capsys):
        # REP00 covers REP001..REP009; the guardedby fixture still fires.
        assert (
            lint_main(
                [
                    str(FIXTURES / "guardedby_fail.py"),
                    "--select",
                    "REP00",
                    "--check",
                ]
            )
            == 1
        )
        assert "REP007" in capsys.readouterr().out

    def test_select_prefix_unknown_still_errors(self):
        with pytest.raises(SystemExit) as exc:
            lint_main([str(FIXTURES), "--select", "REP9"])
        assert exc.value.code == 2

    def test_statistics_text_summary(self, capsys):
        assert lint_main([str(FIXTURES / "blocking_fail.py"), "--statistics"]) == 0
        out = capsys.readouterr().out
        assert "statistics: 3 finding(s) in 1 file(s)" in out
        assert "REP009 [blocking-under-lock]: 3" in out

    def test_statistics_json_wraps_findings(self, capsys):
        assert (
            lint_main(
                [str(FIXTURES / "blocking_fail.py"), "--json", "--statistics"]
            )
            == 0
        )
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"findings", "statistics"}
        assert payload["statistics"]["total"] == 3
        assert payload["statistics"]["by_rule"] == {"REP009": 3}

    def test_list_rules(self, capsys):
        assert lint_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id, _ in RULE_CASES:
            assert rule_id in out

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro.analysis", str(SRC), "--check"],
            capture_output=True,
            text=True,
            cwd=str(SRC.parent.parent),
            env={"PYTHONPATH": str(SRC.parent), "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
