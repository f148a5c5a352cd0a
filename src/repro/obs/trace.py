# repro: sanctioned[wall-clock]
"""Sampled structured event tracing (JSONL sink).

The tracer emits one JSON object per line: per-access events from the
simulator (read/write, protection mode, compressed/alias flags, ECC-region
blocks touched, DRAM latency) and span records bracketing simulator
phases.  A global sampling rate keeps FULL-scale runs fast — at rate ``r``
each candidate event is kept with probability ``r``, decided by a private
PRNG so a fixed seed reproduces the exact same kept-set run after run.

Spans are never sampled out: there are few of them and they carry the
wall-clock phase structure of a run.

Cross-worker sharding
---------------------

A tracer cannot cross a process boundary, so a parallel sweep gives each
job its *own* shard tracer (one JSONL file per job, built from a
picklable :class:`TraceShardSpec`) and the parent merges the shards back
into its sink **in job order** with :meth:`EventTracer.absorb`.  Shard
tracers run in *deterministic* mode: span records carry no ``wall_ms``
(host time is nondeterministic), every record is stamped with its job
index, and the sampling PRNG is seeded per job — so a parallel
``--trace --jobs N`` run merges to the byte-identical event stream a
serial ``--trace`` run produces.
"""

from __future__ import annotations

import hashlib
import io
import json
import random
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Any, Iterator, Mapping, Optional, Sequence, Union

__all__ = [
    "EventTracer",
    "NullTracer",
    "NULL_TRACER",
    "TraceShardSpec",
    "derive_shard_seed",
    "summarize_trace",
]


def derive_shard_seed(seed: int, index: int) -> int:
    """Stable per-shard sampling seed (platform-independent hash)."""
    digest = hashlib.sha256(f"{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class EventTracer:
    """Writes sampled simulation events to a JSONL sink.

    ``deterministic=True`` drops the one nondeterministic field a trace
    carries (span ``wall_ms``), making the stream a pure function of the
    emitted events + seed — the mode shard tracers run in so parallel
    merges can be byte-compared against serial runs.  ``static_fields``
    are stamped into every record (shards use ``{"job": index}`` to
    namespace their events within the merged stream).
    """

    enabled = True

    def __init__(
        self,
        sink: Union[str, Path, IO[str]],
        sample_rate: float = 1.0,
        seed: int = 0,
        deterministic: bool = False,
        static_fields: Optional[Mapping[str, object]] = None,
    ) -> None:
        if not 0.0 <= sample_rate <= 1.0:
            raise ValueError("sample_rate must be within [0, 1]")
        self.sample_rate = sample_rate
        self.seed = seed
        self.deterministic = deterministic
        self.static_fields = dict(static_fields) if static_fields else {}
        self._rng = random.Random(seed)
        self._seq = 0
        self.emitted = 0
        self.dropped = 0
        if isinstance(sink, (str, Path)):
            self._path: Optional[Path] = Path(sink)
            self._file: IO[str] = open(self._path, "w", encoding="utf-8")
            self._owns_file = True
        else:
            self._path = None
            self._file = sink
            self._owns_file = False

    # -- event emission ------------------------------------------------------

    def _keep(self) -> bool:
        if self.sample_rate >= 1.0:
            return True
        if self.sample_rate <= 0.0:
            return False
        return self._rng.random() < self.sample_rate

    def emit(self, kind: str, **fields: object) -> bool:
        """Record one event; returns whether it survived sampling."""
        self._seq += 1
        if not self._keep():
            self.dropped += 1
            return False
        record = {"seq": self._seq, "kind": kind}
        if self.static_fields:
            record.update(self.static_fields)
        record.update(fields)
        self._file.write(json.dumps(record, separators=(",", ":")) + "\n")
        self.emitted += 1
        return True

    @contextmanager
    def span(self, name: str, **fields: object) -> Iterator[None]:
        """Bracket a simulator phase; emits a span event with wall time.

        In deterministic mode the record omits ``wall_ms`` — host time
        attribution for sharded runs comes from perfbench's layer tracer
        instead, so the trace stream stays byte-comparable.
        """
        start = time.perf_counter()
        try:
            yield
        finally:
            self._seq += 1
            record: dict[str, object] = {
                "seq": self._seq,
                "kind": "span",
                "name": name,
            }
            if not self.deterministic:
                wall_ms = (time.perf_counter() - start) * 1e3
                record["wall_ms"] = round(wall_ms, 3)
            if self.static_fields:
                record.update(self.static_fields)
            record.update(fields)
            self._file.write(json.dumps(record, separators=(",", ":")) + "\n")
            self.emitted += 1

    def absorb(self, paths: Sequence[Union[str, Path]]) -> int:
        """Append shard files to this sink in order, renumbering ``seq``.

        The merge is deterministic by construction: shards are read in
        the order given (the runner passes them in job-list order) and
        each record's ``seq`` is rewritten to continue this tracer's own
        sequence.  Missing shards (a job that emitted nothing) are
        skipped.  Returns the number of records absorbed.
        """
        absorbed = 0
        for path in paths:
            try:
                handle = open(path, "r", encoding="utf-8")
            except FileNotFoundError:
                continue
            with handle:
                for line in handle:
                    line = line.strip()
                    if not line:
                        continue
                    record = json.loads(line)
                    self._seq += 1
                    record["seq"] = self._seq
                    self._file.write(
                        json.dumps(record, separators=(",", ":")) + "\n"
                    )
                    self.emitted += 1
                    absorbed += 1
        return absorbed

    # -- lifecycle -----------------------------------------------------------

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        self.flush()
        if self._owns_file:
            self._file.close()

    def __enter__(self) -> "EventTracer":
        return self

    def __exit__(self, *exc: object) -> None:
        self.close()

    @property
    def path(self) -> Optional[Path]:
        return self._path


class NullTracer(EventTracer):
    """The default tracer: drops everything, opens nothing."""

    enabled = False

    def __init__(self) -> None:
        super().__init__(io.StringIO(), sample_rate=0.0)

    def emit(self, kind: str, **fields: object) -> bool:
        return False

    @contextmanager
    def span(self, name: str, **fields: object) -> Iterator[None]:
        yield

    def absorb(self, paths: Sequence[Union[str, Path]]) -> int:
        return 0

    def close(self) -> None:
        pass


#: Shared default — safe to hand to any number of components.
NULL_TRACER = NullTracer()


@dataclass(frozen=True)
class TraceShardSpec:
    """Picklable recipe for per-job shard tracers (crosses the fork).

    The parent creates one spec per sweep; each job — in a pool worker
    or on the serial path — builds its shard tracer from the spec and
    its job index.  Span/event identity is namespaced by job index (a
    ``"job"`` field on every record); worker pids never enter the
    stream, which would break serial-vs-parallel byte-identity.
    """

    directory: str
    sample_rate: float = 1.0
    seed: int = 0

    def shard_path(self, index: int) -> Path:
        return Path(self.directory) / f"shard-{index:06d}.jsonl"

    def tracer_for(self, index: int) -> EventTracer:
        """A deterministic shard tracer for job ``index`` (truncates)."""
        return EventTracer(
            self.shard_path(index),
            sample_rate=self.sample_rate,
            seed=derive_shard_seed(self.seed, index),
            deterministic=True,
            static_fields={"job": index},
        )


def summarize_trace(path: Union[str, Path]) -> dict[str, Any]:
    """Parse a trace file into a summary dict (raises on malformed lines).

    Returns event counts by kind, span wall-time totals by name, and
    latency aggregates over ``latency_ns`` fields of access events.
    """
    counts: dict[str, int] = {}
    spans: dict[str, dict[str, Any]] = {}
    latencies: list[float] = []
    total = 0
    with open(path, "r", encoding="utf-8") as handle:
        for line_no, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(
                    f"{path}:{line_no}: malformed trace line: {exc}"
                ) from exc
            total += 1
            kind = record.get("kind", "?")
            counts[kind] = counts.get(kind, 0) + 1
            if kind == "span":
                entry = spans.setdefault(
                    record.get("name", "?"), {"count": 0, "wall_ms": 0.0}
                )
                entry["count"] += 1
                entry["wall_ms"] += record.get("wall_ms", 0.0)
            elif "latency_ns" in record:
                latencies.append(record["latency_ns"])
    summary: dict[str, Any] = {"events": total, "by_kind": counts, "spans": spans}
    if latencies:
        latencies.sort()
        summary["latency_ns"] = {
            "count": len(latencies),
            "mean": sum(latencies) / len(latencies),
            "p50": latencies[len(latencies) // 2],
            "p99": latencies[min(len(latencies) - 1, int(len(latencies) * 0.99))],
            "max": latencies[-1],
        }
    return summary


def render_trace_summary(summary: dict[str, Any]) -> str:
    """Human-readable rendering of :func:`summarize_trace`'s output."""
    lines = [f"events: {summary['events']}"]
    for kind in sorted(summary["by_kind"]):
        lines.append(f"  {kind}: {summary['by_kind'][kind]}")
    if summary.get("spans"):
        lines.append("spans:")
        for name in sorted(summary["spans"]):
            entry = summary["spans"][name]
            lines.append(
                f"  {name}: {entry['count']}x, {entry['wall_ms']:.1f} ms"
            )
    lat = summary.get("latency_ns")
    if lat:
        lines.append(
            f"access latency (ns): n={lat['count']} mean={lat['mean']:.1f} "
            f"p50={lat['p50']:.1f} p99={lat['p99']:.1f} max={lat['max']:.1f}"
        )
    return "\n".join(lines)
