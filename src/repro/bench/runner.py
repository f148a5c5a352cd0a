# repro: sanctioned[wall-clock]
"""Benchmark discovery, execution, artifacts and the regression gate.

``BenchRunner`` imports the repo's ``benchmarks/bench_*.py`` files (they
register cases via :func:`repro.bench.perf_case` at import time), runs
each requested suite under the shared protocol from
:mod:`repro.obs.perf`, and emits one versioned ``BENCH_<suite>.json``
artifact per suite with git SHA, config hash, environment fingerprint
and per-case p50/p90/p99.  The committed copy of that file is the
suite's baseline: :func:`compare_artifact` diffs a fresh run against
it, and the ``--gate`` check fails on a regression beyond its
threshold.

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


#: Fingerprint keys whose difference makes a baseline's timings suspect.
_FINGERPRINT_KEYS = ("cpus", "python")


@dataclass(frozen=True)
class CaseComparison:
    """Current-vs-baseline medians for one case."""

    name: str
    current_median_ns: float
    baseline_median_ns: Optional[float]

    @property
    def delta_pct(self) -> Optional[float]:
        """Positive = slower than the baseline (a regression)."""
        if not self.baseline_median_ns:
            return None
        return (self.current_median_ns / self.baseline_median_ns - 1.0) * 100.0

    def regressed(self, gate_pct: float) -> bool:
        delta = self.delta_pct
        return delta is not None and delta > gate_pct


@dataclass(frozen=True)
class SuiteComparison:
    """One suite's artifact diffed against its baseline artifact."""

    suite: str
    cases: tuple[CaseComparison, ...]
    baseline_sha: Optional[str] = None
    config_mismatch: bool = False
    #: ``(key, baseline value, current value)`` per differing fingerprint key.
    fingerprint_mismatch: tuple[tuple[str, Any, Any], ...] = ()

    @property
    def has_baseline(self) -> bool:
        return self.baseline_sha is not None

    def regressions(self, gate_pct: float) -> list[CaseComparison]:
        return [case for case in self.cases if case.regressed(gate_pct)]

    def render(self, gate_pct: Optional[float] = None) -> str:
        lines = [f"suite {self.suite}:"]
        if not self.has_baseline:
            name = f"BENCH_{self.suite}.json"
            lines.append(
                f"  (no baseline {name} — nothing to diff)"
                if gate_pct is None
                else f"  ** no baseline: commit results/{name} to gate "
                "this suite **"
            )
            return "\n".join(lines)
        if self.config_mismatch:
            lines.append(
                "  [warn] config hash differs from the baseline's; "
                "deltas compare different protocols/case sets"
            )
        for key, then, now in self.fingerprint_mismatch:
            lines.append(
                f"  [warn] fingerprint {key} differs from the baseline's "
                f"({then} -> {now}); deltas compare different hosts"
            )
        for case in self.cases:
            delta = case.delta_pct
            if delta is None:
                verdict = "new case (no baseline)"
            else:
                verdict = f"{delta:+.1f}% vs {self.baseline_sha}"
                if gate_pct is not None and case.regressed(gate_pct):
                    verdict += f"  ** REGRESSION > {gate_pct:g}% **"
            lines.append(
                f"  {case.name}: median {case.current_median_ns:,.0f} ns "
                f"({verdict})"
            )
        return "\n".join(lines)


def compare_artifact(
    artifact: BenchArtifact, baseline: Optional[BenchArtifact]
) -> SuiteComparison:
    """Diff an artifact against the suite's baseline (``None``: no baseline)."""
    cases = tuple(
        CaseComparison(
            name,
            artifact.median_ns(name),
            baseline.median_ns(name)
            if baseline is not None and name in baseline.cases
            else None,
        )
        for name in sorted(artifact.cases)
    )
    if baseline is None:
        return SuiteComparison(suite=artifact.suite, cases=cases)
    return SuiteComparison(
        suite=artifact.suite,
        cases=cases,
        baseline_sha=baseline.git_sha,
        config_mismatch=baseline.config_hash != artifact.config_hash,
        fingerprint_mismatch=tuple(
            (key, baseline.fingerprint.get(key), artifact.fingerprint.get(key))
            for key in _FINGERPRINT_KEYS
            if baseline.fingerprint.get(key) != artifact.fingerprint.get(key)
        ),
    )


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
        decorator.  The bench dir is importable while its files load, as
        under pytest, so their ``from conftest import ...`` resolves to
        the bench dir's own ``conftest.py``; afterwards ``sys.path`` and
        ``sys.modules["conftest"]`` are restored, so that module never
        shadows another ``conftest`` (say, a test session's).  Files
        whose imports still fail (an optional dependency like ``pytest``
        missing from a stripped environment) are skipped and recorded in
        :attr:`skipped_files` rather than failing the whole harness.
        """
        self._discovered = True
        if self.bench_dir is None:
            return []
        loaded: list[str] = []
        search_dir = str(self.bench_dir)
        outer_conftest = sys.modules.pop("conftest", None)
        sys.path.insert(0, search_dir)
        try:
            for path in sorted(self.bench_dir.glob("bench_*.py")):
                if self._import(path):
                    loaded.append(path.stem)
        finally:
            sys.path.remove(search_dir)
            sys.modules.pop("conftest", None)
            if outer_conftest is not None:
                sys.modules["conftest"] = outer_conftest
        return loaded

    def _import(self, path: Path) -> bool:
        """Import one bench file; ``False`` (and a note) when it fails."""
        module_name = f"repro_bench_discovered.{path.stem}"
        if module_name in sys.modules:
            return True
        spec = importlib.util.spec_from_file_location(module_name, path)
        if spec is None or spec.loader is None:
            self.skipped_files.append((path.name, "no import spec"))
            return False
        module = importlib.util.module_from_spec(spec)
        sys.modules[module_name] = module
        try:
            spec.loader.exec_module(module)
        except ImportError as exc:
            del sys.modules[module_name]
            self.skipped_files.append((path.name, str(exc)))
            return False
        return True

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
