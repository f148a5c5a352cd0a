"""Per-shard durable write-ahead log for the COP service.

Each shard appends one ``COPW1``-framed JSONL record per *accepted*
write and group-commits (append + fdatasync) once per drained batch, before
any reply in that batch is answered.  Acknowledged writes are therefore
durable: after a worker crash — or a whole-process restart — replaying
the journal rebuilds the shard's stored contents byte-identically,
because COP-mode writes are pure per-address functions of content.

Framing and crash handling live in :class:`repro.durable.AppendLog`:
a group commit is one whole-line append plus ``fdatasync`` (and a
directory fsync when it creates the file), a kill mid-append can tear at
most the final line, loading skips it, and the next commit truncates it
before writing.  Additionally every record carries a CRC32 content
checksum — torn-line detection, not cryptography, so the cheap classic
WAL checksum (cf. SQLite/Postgres journals) is the right tool — so a
damaged line in the middle of the file is skipped and counted, never
replayed.

Recovery compacts: only the last record per address matters (later
writes overwrite earlier ones), so replay cost and journal size are
bounded by the live address set, not by uptime.

Record format (one JSON object per line)::

    {"m": "COPW1", "seq": 17, "id": 12345, "addr": 4096,
     "data": "<128 hex chars>", "ck": "<crc32 of seq|id|addr|data, 8 hex>"}

Threading: the owning shard worker appends/commits; the supervisor (or
a cold-starting shard) loads/compacts while the worker is not running.
The two never overlap — the supervisor only touches the WAL after the
worker died and before it is restarted.
"""

from __future__ import annotations

import json
import zlib
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Union

from repro.durable import AppendLog

__all__ = ["MAGIC", "ShardWAL", "WalRecord"]

#: Frame magic; bump when the record layout changes.
MAGIC = "COPW1"


class WalRecord(NamedTuple):
    """One durable accepted write."""

    seq: int
    request_id: int
    addr: int
    data: bytes


def _checksum(seq: int, request_id: int, addr: int, data: bytes) -> str:
    head = b"%d|%d|%d|" % (seq, request_id, addr)
    return f"{zlib.crc32(data, zlib.crc32(head)):08x}"


def _encode(record: WalRecord) -> str:
    # Hand-rolled JSON: every field is an int or lowercase hex, so the
    # template emits exactly what ``json.dumps(..., separators=(",",":"))``
    # would — at ~1/6th the cost, which matters on the per-write hot path
    # (the bench_service WAL guard holds this under 10% of the write path).
    ck = _checksum(record.seq, record.request_id, record.addr, record.data)
    return (
        f'{{"m":"{MAGIC}","seq":{record.seq},"id":{record.request_id},'
        f'"addr":{record.addr},"data":"{record.data.hex()}","ck":"{ck}"}}'
    )


def _decode(line: bytes) -> WalRecord:
    """One record; ``ValueError`` when the line is torn or damaged."""
    entry = json.loads(line)
    if not isinstance(entry, dict) or entry.get("m") != MAGIC:
        raise ValueError("not a COPW1 record")
    seq = entry.get("seq")
    request_id = entry.get("id")
    addr = entry.get("addr")
    data_hex = entry.get("data")
    ck = entry.get("ck")
    if (
        not isinstance(seq, int)
        or not isinstance(request_id, int)
        or not isinstance(addr, int)
        or not isinstance(data_hex, str)
        or not isinstance(ck, str)
    ):
        raise ValueError("malformed COPW1 record")
    data = bytes.fromhex(data_hex)
    if ck != _checksum(seq, request_id, addr, data):
        raise ValueError("COPW1 checksum mismatch")
    return WalRecord(seq=seq, request_id=request_id, addr=addr, data=data)


class ShardWAL:
    """Append-only group-committed journal of one shard's accepted writes."""

    # owner-thread: external  (worker appends/commits; supervisor recovers;
    # the shard lifecycle guarantees the two phases never overlap)

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._log = AppendLog(self.path)
        self._buffer: List[str] = []
        self.next_seq = 0
        self.torn_lines = 0
        # Plain ints, single-writer (see class annotation); the shard
        # mirrors them into its metrics registry after each commit.
        self.records_appended = 0
        self.commits = 0
        self.compactions = 0
        # The opening scan's records, handed to the first load_records()
        # so a cold start decodes each line once.
        self._opened: Optional[List[WalRecord]] = self._scan()

    def _scan(self) -> List[WalRecord]:
        found = self._log.scan(_decode)
        # Damaged mid-file lines and a torn tail are skipped and counted.
        self.torn_lines = len(found.bad) + (found.size > found.end)
        for record in found.records:
            self.next_seq = max(self.next_seq, record.seq + 1)
        return found.records

    # -- append path (shard worker) -------------------------------------------

    def append(self, request_id: int, addr: int, data: bytes) -> None:
        """Buffer one accepted write; durable only after :meth:`commit`.

        Inlined :func:`_encode` — this runs once per accepted write on the
        shard worker's hot path, and the extra call layers alone are
        measurable against the <10% write-path overhead budget enforced
        by ``benchmarks/bench_service.py``.
        """
        seq = self.next_seq
        self.next_seq = seq + 1
        ck = zlib.crc32(data, zlib.crc32(b"%d|%d|%d|" % (seq, request_id, addr)))
        self._buffer.append(
            f'{{"m":"{MAGIC}","seq":{seq},"id":{request_id},'
            f'"addr":{addr},"data":"{data.hex()}","ck":"{ck:08x}"}}\n'
        )

    def commit(self) -> int:
        """Append + fdatasync buffered records; returns how many became durable."""
        if not self._buffer:
            return 0
        self._log.append("".join(self._buffer).encode())
        self._opened = None
        count = len(self._buffer)
        self._buffer.clear()
        self.records_appended += count
        self.commits += 1
        return count

    def abort(self) -> int:
        """Drop uncommitted buffered records (crash recovery); returns count."""
        count = len(self._buffer)
        self._buffer.clear()
        return count

    # -- recovery path (supervisor / cold start) ------------------------------

    def load_records(self) -> List[WalRecord]:
        """Every durable record, in append order.

        A first call with nothing committed since opening returns what
        the opening scan found; any other call (supervisor recovery)
        re-reads the file.
        """
        records, self._opened = self._opened, None
        return records if records is not None else self._scan()

    @staticmethod
    def live_records(records: List[WalRecord]) -> List[WalRecord]:
        """Last record per address, in append (seq) order."""
        last: Dict[int, WalRecord] = {}
        for record in records:
            last[record.addr] = record
        return sorted(last.values(), key=lambda record: record.seq)

    def compact(self, live: List[WalRecord]) -> None:
        """Atomically rewrite the journal to exactly ``live`` records.

        A crash mid-compaction leaves either the old journal or the new
        one, never a mix (:meth:`repro.durable.AppendLog.rewrite`).
        """
        self._log.rewrite("".join(_encode(record) + "\n" for record in live).encode())
        self._opened = None
        self.torn_lines = 0
        self.compactions += 1

    def close(self) -> None:
        self._log.close()
