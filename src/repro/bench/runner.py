# repro: sanctioned[wall-clock]
"""Benchmark discovery, execution, artifacts and the regression gate.

``BenchRunner`` imports the repo's ``benchmarks/bench_*.py`` files (they
register cases via :func:`repro.bench.perf_case` at import time), runs
each requested suite under the shared protocol from
:mod:`repro.obs.perf`, and emits:

* ``BENCH_<suite>.json`` — one versioned artifact per suite with git
  SHA, config hash, environment fingerprint and per-case p50/p90/p99;
* ``results/trajectory.jsonl`` — an append-only history of compact
  per-suite entries, the substrate the ``--compare``/``--gate``
  machinery and the report's sparklines read.

Timestamps here are sanctioned wall-clock (line-1 directive): artifacts
record *when* a measurement happened; nothing simulated depends on it.
"""

from __future__ import annotations

import importlib.util
import json
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence, Union

from repro.bench.registry import BenchCase, iter_cases, registered_suites
from repro.durable import AppendLog
from repro.obs.perf import (
    CLOCK_NAME,
    config_hash,
    fingerprint,
    git_sha,
    measure,
)

__all__ = [
    "ARTIFACT_SCHEMA",
    "BenchArtifact",
    "BenchRunner",
    "CaseComparison",
    "SuiteComparison",
    "compare_artifact",
    "default_bench_dir",
    "load_trajectory",
    "render_sparkline",
    "trajectory_path",
]

#: Bump when the artifact layout changes incompatibly.
ARTIFACT_SCHEMA = 1

#: (repeats, warmup) protocol defaults per scale name.
_PROTOCOL_BY_SCALE = {
    "smoke": (3, 1),
    "small": (5, 2),
    "full": (9, 3),
}


def default_bench_dir() -> Optional[Path]:
    """The repo's ``benchmarks/`` directory, if the layout is intact."""
    import repro

    root = Path(repro.__file__).resolve().parent.parent.parent
    candidate = root / "benchmarks"
    return candidate if candidate.is_dir() else None


def trajectory_path(results: Union[str, Path]) -> Path:
    return Path(results) / "trajectory.jsonl"


@dataclass(frozen=True)
class BenchArtifact:
    """One suite's measurement run (what ``BENCH_<suite>.json`` holds)."""

    suite: str
    scale: str
    git_sha: str
    config_hash: str
    unix_time: float
    fingerprint: dict[str, Any] = field(default_factory=dict)
    protocol: dict[str, Any] = field(default_factory=dict)
    #: Case name -> ``TimingStats.as_dict()`` payload.
    cases: dict[str, dict[str, Any]] = field(default_factory=dict)
    schema: int = ARTIFACT_SCHEMA

    def as_dict(self) -> dict[str, Any]:
        return {
            "schema": self.schema,
            "suite": self.suite,
            "scale": self.scale,
            "git_sha": self.git_sha,
            "config_hash": self.config_hash,
            "unix_time": self.unix_time,
            "fingerprint": dict(self.fingerprint),
            "protocol": dict(self.protocol),
            "cases": {name: dict(data) for name, data in self.cases.items()},
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchArtifact":
        schema = int(data.get("schema", 0))
        if schema != ARTIFACT_SCHEMA:
            raise ValueError(
                f"unsupported BENCH artifact schema {schema} "
                f"(this build reads schema {ARTIFACT_SCHEMA})"
            )
        return cls(
            suite=str(data["suite"]),
            scale=str(data.get("scale", "default")),
            git_sha=str(data.get("git_sha", "unknown")),
            config_hash=str(data.get("config_hash", "")),
            unix_time=float(data.get("unix_time", 0.0)),
            fingerprint=dict(data.get("fingerprint", {})),
            protocol=dict(data.get("protocol", {})),
            cases={
                str(name): dict(payload)
                for name, payload in data.get("cases", {}).items()
            },
            schema=schema,
        )

    def median_ns(self, name: str) -> float:
        ns = self.cases[name].get("ns", {})
        return float(ns.get("median", ns.get("p50", 0.0)))

    def artifact_name(self) -> str:
        return f"BENCH_{self.suite}.json"

    def save(self, results: Union[str, Path]) -> Path:
        path = Path(results) / self.artifact_name()
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), indent=2) + "\n")
        return path

    @classmethod
    def load(cls, path: Union[str, Path]) -> "BenchArtifact":
        return cls.from_dict(json.loads(Path(path).read_text()))

    def trajectory_entry(self) -> dict[str, Any]:
        """Compact append-only form (one JSONL line of the trajectory)."""
        cases: dict[str, Any] = {}
        for name, payload in self.cases.items():
            ns = payload.get("ns", {})
            cases[name] = {
                "median": ns.get("median", 0.0),
                "p50": ns.get("p50", 0.0),
                "p90": ns.get("p90", 0.0),
                "p99": ns.get("p99", 0.0),
                "min": ns.get("min", 0),
            }
        return {
            "suite": self.suite,
            "scale": self.scale,
            "git_sha": self.git_sha,
            "config_hash": self.config_hash,
            "unix_time": self.unix_time,
            "cases": cases,
        }


def _decode_entry(line: bytes) -> Any:
    return json.loads(line)


def load_trajectory(path: Union[str, Path]) -> list[dict[str, Any]]:
    """Parse the trajectory history, tolerating a torn tail.

    A crash mid-append may leave an unparsable tail after the last entry;
    the reader drops it (the next append cuts it off) — but an unparsable
    line *before* the last entry means corruption and raises.
    """
    found = AppendLog(path).scan(_decode_entry)
    if found.bad:
        raise ValueError(
            f"{path}:{found.bad[0]}: corrupt trajectory line is not "
            "the final line — refusing to silently drop history"
        )
    return found.records


def last_entry(
    entries: Sequence[Mapping[str, Any]], suite: str
) -> Optional[Mapping[str, Any]]:
    for entry in reversed(entries):
        if entry.get("suite") == suite:
            return entry
    return None


@dataclass(frozen=True)
class CaseComparison:
    """Current-vs-previous medians for one case."""

    name: str
    current_median_ns: float
    previous_median_ns: Optional[float]

    @property
    def delta_pct(self) -> Optional[float]:
        """Positive = slower than the previous entry (a regression)."""
        if not self.previous_median_ns:
            return None
        return (self.current_median_ns / self.previous_median_ns - 1.0) * 100.0

    def regressed(self, gate_pct: float) -> bool:
        delta = self.delta_pct
        return delta is not None and delta > gate_pct


@dataclass(frozen=True)
class SuiteComparison:
    """One suite's artifact diffed against its last trajectory entry."""

    suite: str
    cases: tuple[CaseComparison, ...]
    previous_sha: Optional[str] = None
    config_mismatch: bool = False

    @property
    def has_baseline(self) -> bool:
        return self.previous_sha is not None

    def regressions(self, gate_pct: float) -> list[CaseComparison]:
        return [case for case in self.cases if case.regressed(gate_pct)]

    def render(self, gate_pct: Optional[float] = None) -> str:
        lines = [f"suite {self.suite}:"]
        if not self.has_baseline:
            lines.append("  (no previous trajectory entry — nothing to diff)")
            return "\n".join(lines)
        if self.config_mismatch:
            lines.append(
                "  [warn] config hash differs from the previous entry; "
                "deltas compare different protocols/case sets"
            )
        for case in self.cases:
            delta = case.delta_pct
            if delta is None:
                verdict = "new case (no baseline)"
            else:
                verdict = f"{delta:+.1f}% vs {self.previous_sha}"
                if gate_pct is not None and case.regressed(gate_pct):
                    verdict += f"  ** REGRESSION > {gate_pct:g}% **"
            lines.append(
                f"  {case.name}: median {case.current_median_ns:,.0f} ns "
                f"({verdict})"
            )
        return "\n".join(lines)


def compare_artifact(
    artifact: BenchArtifact,
    entries: Sequence[Mapping[str, Any]],
) -> SuiteComparison:
    """Diff an artifact against the suite's last trajectory entry."""
    previous = last_entry(entries, artifact.suite)
    if previous is None:
        cases = tuple(
            CaseComparison(name, artifact.median_ns(name), None)
            for name in sorted(artifact.cases)
        )
        return SuiteComparison(suite=artifact.suite, cases=cases)
    prev_cases = previous.get("cases", {})
    comparisons = []
    for name in sorted(artifact.cases):
        prev = prev_cases.get(name)
        prev_median = float(prev["median"]) if prev else None
        comparisons.append(
            CaseComparison(name, artifact.median_ns(name), prev_median)
        )
    return SuiteComparison(
        suite=artifact.suite,
        cases=tuple(comparisons),
        previous_sha=str(previous.get("git_sha", "unknown")),
        config_mismatch=(
            previous.get("config_hash") != artifact.config_hash
        ),
    )


_SPARK_CHARS = "▁▂▃▄▅▆▇█"


def render_sparkline(values: Sequence[float], width: int = 24) -> str:
    """Compact trend rendering for the report (newest entries rightmost)."""
    if not values:
        return ""
    values = list(values)[-width:]
    low, high = min(values), max(values)
    if high <= low:
        return _SPARK_CHARS[3] * len(values)
    out = []
    for value in values:
        index = int((value - low) / (high - low) * (len(_SPARK_CHARS) - 1))
        out.append(_SPARK_CHARS[index])
    return "".join(out)


class BenchRunner:
    """Discovers ``bench_*.py`` cases and runs suites under the protocol."""

    def __init__(
        self,
        scale: str = "smoke",
        bench_dir: Union[str, Path, None] = None,
        repeats: Optional[int] = None,
        warmup: Optional[int] = None,
    ) -> None:
        if scale not in _PROTOCOL_BY_SCALE:
            raise ValueError(
                f"unknown bench scale {scale!r}; choose one of "
                f"{sorted(_PROTOCOL_BY_SCALE)}"
            )
        self.scale = scale
        default_repeats, default_warmup = _PROTOCOL_BY_SCALE[scale]
        self.repeats = repeats if repeats is not None else default_repeats
        self.warmup = warmup if warmup is not None else default_warmup
        self.bench_dir = (
            Path(bench_dir) if bench_dir is not None else default_bench_dir()
        )
        self._discovered = False
        self.skipped_files: list[tuple[str, str]] = []

    # -- discovery -----------------------------------------------------------

    def discover(self) -> list[str]:
        """Import every ``bench_*.py`` under the bench dir (idempotent).

        Importing registers cases through the :func:`perf_case`
        decorator.  Files whose imports fail (an optional dependency
        like ``pytest`` missing from a stripped environment) are skipped
        and recorded in :attr:`skipped_files` rather than failing the
        whole harness.
        """
        self._discovered = True
        if self.bench_dir is None:
            return []
        loaded: list[str] = []
        for path in sorted(self.bench_dir.glob("bench_*.py")):
            module_name = f"repro_bench_discovered.{path.stem}"
            if module_name in sys.modules:
                loaded.append(path.stem)
                continue
            spec = importlib.util.spec_from_file_location(module_name, path)
            if spec is None or spec.loader is None:
                self.skipped_files.append((path.name, "no import spec"))
                continue
            module = importlib.util.module_from_spec(spec)
            sys.modules[module_name] = module
            try:
                spec.loader.exec_module(module)
            except ImportError as exc:
                del sys.modules[module_name]
                self.skipped_files.append((path.name, str(exc)))
                continue
            loaded.append(path.stem)
        return loaded

    def suites(self) -> list[str]:
        if not self._discovered:
            self.discover()
        return registered_suites()

    # -- execution -----------------------------------------------------------

    def _protocol_for(self, case: BenchCase) -> dict[str, int]:
        return {
            "repeats": case.repeats if case.repeats is not None else self.repeats,
            "warmup": case.warmup if case.warmup is not None else self.warmup,
            "inner": case.inner if case.inner is not None else 1,
        }

    def run_suite(self, suite: str) -> BenchArtifact:
        """Execute one suite's cases and build its artifact."""
        if not self._discovered:
            self.discover()
        cases = list(iter_cases(suite))
        if not cases:
            known = ", ".join(self.suites()) or "(none discovered)"
            raise ValueError(
                f"no benchmark cases registered for suite {suite!r}; "
                f"known suites: {known}"
            )
        case_protocols = {
            case.name: self._protocol_for(case) for case in cases
        }
        results: dict[str, dict[str, Any]] = {}
        for case in cases:
            protocol = case_protocols[case.name]
            workload = case.builder()
            stats = measure(
                workload,
                repeats=protocol["repeats"],
                warmup=protocol["warmup"],
                inner=protocol["inner"],
            )
            results[case.name] = stats.as_dict()
        protocol_desc: dict[str, Any] = {
            "clock": CLOCK_NAME,
            "repeats": self.repeats,
            "warmup": self.warmup,
        }
        digest = config_hash(
            {
                "schema": ARTIFACT_SCHEMA,
                "suite": suite,
                "scale": self.scale,
                "protocol": protocol_desc,
                "cases": case_protocols,
            }
        )
        return BenchArtifact(
            suite=suite,
            scale=self.scale,
            git_sha=git_sha(short=True),
            config_hash=digest,
            unix_time=round(time.time(), 3),
            fingerprint=fingerprint({"scale": self.scale}),
            protocol=protocol_desc,
            cases=results,
        )

    def run(self, suites: Optional[Sequence[str]] = None) -> list[BenchArtifact]:
        targets = list(suites) if suites else self.suites()
        if not targets:
            raise ValueError(
                "no benchmark suites discovered "
                f"(bench dir: {self.bench_dir or 'not found'})"
            )
        return [self.run_suite(suite) for suite in targets]

    # -- trajectory ----------------------------------------------------------

    @staticmethod
    def append_trajectory(
        artifacts: Sequence[BenchArtifact], results: Union[str, Path]
    ) -> Path:
        """Append one compact entry per artifact to the history.

        A torn tail (a crash mid-append) is cut off first, so the new
        entries start on a line of their own; terminating it with a newline
        instead would make it a corrupt mid-file line, which
        :func:`load_trajectory` rejects.
        """
        path = trajectory_path(results)
        log = AppendLog(path)
        log.scan(_decode_entry)
        try:
            log.append(
                b"".join(
                    json.dumps(
                        artifact.trajectory_entry(), separators=(",", ":")
                    ).encode("utf-8")
                    + b"\n"
                    for artifact in artifacts
                )
            )
        finally:
            log.close()
        return path
