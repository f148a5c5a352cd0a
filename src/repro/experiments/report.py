"""Summary report: saved results vs. the paper's claims.

``cop-experiments report`` (or :func:`generate`) reads the JSON tables
under ``results/`` and emits a markdown scorecard against
:mod:`repro.paper`'s claim registry — the automated version of
EXPERIMENTS.md's headline table.  Experiments that have not been run are
listed as missing rather than failed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from repro.core.controller import ControllerStats
from repro.experiments.common import results_dir
from repro.paper import claim
from repro.workloads.profiles import MEMORY_INTENSIVE

__all__ = [
    "HeadlineCheck",
    "HEADLINES",
    "controller_stats_from_snapshot",
    "generate",
    "main",
]


def _load(name: str) -> Optional[dict]:
    path = results_dir() / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text())


def _bench_average(table: dict, column: str) -> float:
    columns = table["columns"]
    index = columns.index(column)
    values = [
        row[index]
        for label, row in table["rows"].items()
        if label in MEMORY_INTENSIVE
    ]
    return sum(values) / len(values)


@dataclass(frozen=True)
class HeadlineCheck:
    """One saved-result-vs-paper comparison."""

    label: str
    source: str  # results file stem
    claim_key: str
    extract: Callable[[dict], float]
    tolerance: float  # absolute

    def evaluate(self) -> Optional[tuple[float, float, bool]]:
        table = _load(self.source)
        if table is None:
            return None
        measured = self.extract(table)
        expected = claim(self.claim_key).value
        return measured, expected, abs(measured - expected) <= self.tolerance


HEADLINES: tuple[HeadlineCheck, ...] = (
    HeadlineCheck(
        "combined compressibility (Fig. 9)", "fig9",
        "combined_compressibility_avg",
        lambda t: _bench_average(t, "TXT+MSB+RLE"), 0.08,
    ),
    HeadlineCheck(
        "MSB compressibility (Fig. 9)", "fig9",
        "msb_compressibility_avg",
        lambda t: _bench_average(t, "MSB"), 0.15,
    ),
    HeadlineCheck(
        "SER reduction, COP 4-byte (Fig. 10)", "fig10",
        "ser_reduction_cop4_avg",
        lambda t: _bench_average(t, "COP 4-byte"), 0.08,
    ),
    HeadlineCheck(
        "SER reduction, COP-ER (Fig. 10)", "fig10",
        "ser_reduction_coper",
        lambda t: _bench_average(t, "COP-ER 4-byte"), 0.01,
    ),
    HeadlineCheck(
        "COP-ER vs ECC-Region speedup (Fig. 11)", "fig11",
        "coper_perf_vs_baseline",
        lambda t: t["rows"]["Geomean"][2] / t["rows"]["Geomean"][3] - 1.0,
        0.05,
    ),
    HeadlineCheck(
        "ECC storage reduction (Fig. 12)", "fig12",
        "ecc_storage_reduction_avg",
        lambda t: t["rows"]["Average"][0], 0.12,
    ),
    HeadlineCheck(
        "shifted-MSB gain (Fig. 4)", "fig4",
        "msb_shift_gain",
        lambda t: t["rows"]["Average"][1] - t["rows"]["Average"][0], 0.20,
    ),
    HeadlineCheck(
        "valid-word probability (Sec. 3.1)", "intext",
        "valid_word_probability",
        lambda t: t["rows"]["P(random word valid)"][1], 0.0005,
    ),
    HeadlineCheck(
        "COP-ER vs ECC DIMM ratio (Sec. 4)", "intext",
        "coper_vs_ecc_dimm_ratio",
        lambda t: t["rows"]["COP-ER vs ECC-DIMM error ratio"][0], 1.0,
    ),
)


def controller_stats_from_snapshot(snapshot: dict) -> ControllerStats:
    """Rebuild a :class:`ControllerStats` view from a metrics snapshot.

    Driven by ``ControllerStats.as_dict()`` so the field list lives in one
    place: a counter added to the dataclass is automatically picked up
    here (and in the scorecard table below) instead of being silently
    dropped by hand-written field plucking.
    """
    stats = ControllerStats()
    counters = snapshot.get("counters", {})
    for name in stats.as_dict():
        setattr(stats, name, counters.get(f"controller.{name}", 0))
    return stats


def _observability_section() -> list[str]:
    """Aggregate controller counters from saved metrics snapshots."""
    merged = ControllerStats()
    found = []
    for path in sorted(results_dir().glob("*.json")):
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            continue
        snapshot = data.get("metrics") if isinstance(data, dict) else None
        if not snapshot:
            continue
        merged.merge(controller_stats_from_snapshot(snapshot))
        found.append(path.stem)
    if not found:
        return []
    lines = [
        "",
        "## Observability",
        "",
        f"Metrics snapshots embedded in: {', '.join(found)}",
        "",
        "| controller counter | total |",
        "|---|---|",
    ]
    for name, value in merged.as_dict().items():
        lines.append(f"| {name} | {value:,} |")
    return lines


def _execution_health_section() -> list[str]:
    """Surface what the resilience layer caught: cache quarantines.

    A clean repo shows nothing here; a row appearing means a corrupt
    cache entry was detected (and set aside) — exactly the event that
    must never pass silently (see docs/resilience.md).
    """
    quarantine = results_dir() / ".cache" / "quarantine"
    quarantined = sorted(quarantine.glob("*.pkl")) if quarantine.exists() else []
    if not quarantined:
        return []
    lines = [
        "",
        "## Execution health",
        "",
        f"**{len(quarantined)} corrupt cache entr"
        f"{'y' if len(quarantined) == 1 else 'ies'} quarantined** "
        f"under `{quarantine}` (checksum/format verification failed; "
        "the results were recomputed, not served):",
        "",
    ]
    for path in quarantined[:10]:
        lines.append(f"* `{path.name}`")
    if len(quarantined) > 10:
        lines.append(f"* ... and {len(quarantined) - 10} more")
    lines.append("")
    return lines


def _perf_trajectory_section() -> list[str]:
    """Sparkline the benchmark history (``results/trajectory.jsonl``).

    One row per case: the latest median, the delta vs the previous entry
    of the same suite, and a sparkline over the case's whole recorded
    history (older left, newer right — a rising line means it got
    slower).  See docs/perf-trajectory.md.
    """
    from repro.bench import load_trajectory, render_sparkline, trajectory_path

    try:
        entries = load_trajectory(trajectory_path(results_dir()))
    except ValueError:
        return ["", "## Performance trajectory", "", "trajectory.jsonl is corrupt"]
    if not entries:
        return []
    by_suite: dict[str, list[dict]] = {}
    for entry in entries:
        by_suite.setdefault(entry.get("suite", "?"), []).append(entry)
    lines = [
        "",
        "## Performance trajectory",
        "",
        f"{len(entries)} recorded run(s) across {len(by_suite)} suite(s) "
        "(medians, ns; sparkline oldest → newest):",
        "",
        "| case | latest median | vs previous | history |",
        "|---|---|---|---|",
    ]
    for suite in sorted(by_suite):
        history = by_suite[suite]
        latest = history[-1]
        for case in sorted(latest.get("cases", {})):
            medians = [
                float(entry["cases"][case]["median"])
                for entry in history
                if case in entry.get("cases", {})
            ]
            if not medians:
                continue
            if len(medians) > 1 and medians[-2]:
                delta = (medians[-1] / medians[-2] - 1.0) * 100.0
                vs_prev = f"{delta:+.1f}%"
            else:
                vs_prev = "—"
            lines.append(
                f"| {suite}.{case} | {medians[-1]:,.0f} | {vs_prev} | "
                f"`{render_sparkline(medians)}` |"
            )
    return lines


def generate() -> str:
    """The markdown scorecard."""
    lines = [
        "# Reproduction scorecard",
        "",
        "| headline | paper | measured | within tolerance |",
        "|---|---|---|---|",
    ]
    missing = []
    for check in HEADLINES:
        outcome = check.evaluate()
        if outcome is None:
            missing.append(check)
            continue
        measured, expected, ok = outcome
        lines.append(
            f"| {check.label} | {expected:g} | {measured:.4g} | "
            f"{'yes' if ok else 'NO'} |"
        )
    if missing:
        lines.append("")
        lines.append("Missing results (run `cop-experiments all` first):")
        for check in missing:
            lines.append(f"* {check.label} (needs results/{check.source}.json)")
    lines.extend(_observability_section())
    lines.extend(_perf_trajectory_section())
    lines.extend(_execution_health_section())
    return "\n".join(lines)


def main() -> None:
    report = generate()
    print(report)
    path = results_dir() / "scorecard.md"
    path.write_text(report + "\n")
    print(f"\n[saved {path}]")


if __name__ == "__main__":
    main()
