"""Tests for the shared append-only log (``repro.durable``) and its users.

``tests/golden/wal.golden`` and ``tests/golden/trajectory.golden`` were
written by :func:`write_golden_wal` and :func:`write_golden_trajectory`
before the service WAL and the bench trajectory shared one log
implementation; both writers must keep reproducing them byte for byte.
"""

from __future__ import annotations

import json
from pathlib import Path
from unittest import mock

import pytest

from crashpoints import Recorder
from repro import durable
from repro.bench.runner import BenchArtifact, BenchRunner, load_trajectory
from repro.durable import AppendLog
from repro.service.wal import ShardWAL

GOLDEN = Path(__file__).parent / "golden"


def _block(tag: bytes) -> bytes:
    return tag.ljust(64, b".")


def write_golden_wal(path: Path) -> None:
    """Two group commits, a compaction, then one more commit."""
    wal = ShardWAL(path)
    wal.append(1, 0, bytes(range(64)))
    wal.append(2, 64, b"\xff" * 64)
    wal.commit()
    wal.append(3, 0, _block(b"cop"))
    wal.commit()
    wal.compact(ShardWAL.live_records(wal.load_records()))
    wal.append(4, 128, _block(b"after-compaction"))
    wal.commit()
    wal.close()


def golden_artifact(suite: str, median: float) -> BenchArtifact:
    ns = {"median": median, "p50": median, "p90": median * 1.5,
          "p99": median * 2.25, "min": int(median) - 7}
    return BenchArtifact(
        suite=suite,
        scale="smoke",
        git_sha="0123456789abcdef0123456789abcdef01234567",
        config_hash="cafef00d",
        unix_time=1700000000.5,
        fingerprint={"python": "3.11.7"},
        protocol={"repeats": 3, "warmup": 1},
        cases={"encode": {"ns": ns}, "decode": {"ns": dict(ns, min=1)}},
    )


def write_golden_trajectory(results: Path) -> Path:
    """One single-entry append, then one two-entry append."""
    BenchRunner.append_trajectory([golden_artifact("kernels", 1234.5)], results)
    return BenchRunner.append_trajectory(
        [golden_artifact("service", 98765.25), golden_artifact("lint", 3.0)],
        results,
    )


class TestGoldenBytes:
    def test_wal_writer_reproduces_golden(self, tmp_path):
        write_golden_wal(tmp_path / "shard-00.wal")
        golden = (GOLDEN / "wal.golden").read_bytes()
        assert (tmp_path / "shard-00.wal").read_bytes() == golden

    def test_wal_reader_loads_golden(self):
        wal = ShardWAL(GOLDEN / "wal.golden")
        records = wal.load_records()
        assert [(r.seq, r.request_id, r.addr) for r in records] == [
            (1, 2, 64), (2, 3, 0), (3, 4, 128),
        ]
        assert records[0].data == b"\xff" * 64
        assert wal.next_seq == 4 and wal.torn_lines == 0

    def test_trajectory_writer_reproduces_golden(self, tmp_path):
        path = write_golden_trajectory(tmp_path)
        assert path.read_bytes() == (GOLDEN / "trajectory.golden").read_bytes()

    def test_trajectory_reader_loads_golden(self):
        entries = load_trajectory(GOLDEN / "trajectory.golden")
        assert [entry["suite"] for entry in entries] == [
            "kernels", "service", "lint",
        ]
        assert entries[1] == golden_artifact("service", 98765.25).trajectory_entry()


def _decode(line: bytes):
    value = json.loads(line)
    if not isinstance(value, int):
        raise ValueError(line)
    return value


class TestAppendLog:
    def test_scan_splits_records_bad_lines_and_torn_tail(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes(b"1\nbad\n\n2\n{\n3")
        found = AppendLog(path).scan(_decode)
        assert found.records == [1, 2]
        assert found.bad == [2]  # before the last good record
        assert found.end == len(b"1\nbad\n\n2\n")
        assert found.size == len(path.read_bytes())

    def test_missing_file_scans_empty(self, tmp_path):
        assert AppendLog(tmp_path / "none").scan(_decode) == ([], [], 0, 0)

    def test_append_truncates_the_scanned_torn_tail(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes(b"1\n2\n{\n3")
        log = AppendLog(path)
        log.scan(_decode)
        log.append(b"4\n")
        log.append(b"5\n")
        log.close()
        assert path.read_bytes() == b"1\n2\n4\n5\n"

    def _ops(self, tmp_path, action):
        rec = Recorder(tmp_path)
        with mock.patch.object(durable, "os", rec):
            action()
        return [op[0] for op in rec.ops]

    def test_creating_append_syncs_the_directory_before_writing(self, tmp_path):
        log = AppendLog(tmp_path / "log")
        ops = self._ops(tmp_path, lambda: (log.append(b"1\n"), log.append(b"2\n")))
        log.close()
        assert ops == ["create", "syncdir", "write", "sync", "write", "sync"]

    def test_rewrite_is_temp_fsync_rename_directory_fsync(self, tmp_path):
        log = AppendLog(tmp_path / "log")
        ops = self._ops(tmp_path, lambda: (log.append(b"1\n"), log.rewrite(b"2\n")))
        assert ops[4:] == ["create", "write", "sync", "rename", "syncdir"]
        assert (tmp_path / "log").read_bytes() == b"2\n"
        assert not (tmp_path / "log.tmp").exists()

    def test_decode_errors_other_than_value_error_propagate(self, tmp_path):
        path = tmp_path / "log"
        path.write_bytes(b"1\n")

        def broken(line):
            raise KeyError(line)

        with pytest.raises(KeyError):
            AppendLog(path).scan(broken)
