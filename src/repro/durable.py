"""Append-only line logs that stay readable after a crash at any point.

The service's write-ahead log (:mod:`repro.service.wal`) is a file of
whole lines, one record per line, appended and read back in order.  This
module owns that protocol so the caller only encodes and decodes its
records:

* :meth:`AppendLog.append` writes whole lines through one handle opened
  once, then ``fdatasync``\\ s.  When the open creates the file, the
  directory is fsynced before any record is written, so a record whose
  ``fdatasync`` returned survives a power loss.
* :meth:`AppendLog.scan` reads the log in one pass.  A line counts only
  once its newline is on disk and it decodes.  The torn tail is the
  suffix after the last good record; the next append truncates it rather
  than terminating it, so a torn fragment never becomes a permanent
  corrupt line.  Undecodable lines *before* the last good record are
  returned to the caller, which decides whether they are skipped (the
  WAL does) or an error.
* :meth:`AppendLog.rewrite` replaces the log atomically: temp file,
  fsync, ``os.replace``, then fsync of the directory, so a crash leaves
  the old log or the new one and never loses the rename.

Every file operation goes through the module's ``os`` name, so a test
can substitute a recording file system (``tests/crashpoints.py`` does,
to rebuild the log at every crash point).
"""

from __future__ import annotations

import os
from typing import Any, Callable, List, NamedTuple, Optional, Union

__all__ = ["AppendLog", "Scan"]


class Scan(NamedTuple):
    """What one pass over a log found."""

    #: Decoded records, in file order.
    records: List[Any]
    #: 1-based line numbers of undecodable lines before the last good record.
    bad: List[int]
    #: Offset just past the last good record's newline.
    end: int
    #: File size when scanned; ``size > end`` means a torn tail.
    size: int


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:
        view = view[os.write(fd, view) :]


def _sync_dir(path: str) -> None:
    fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


class AppendLog:
    """One append-only file of newline-terminated records."""

    # owner-thread: external  (one writer at a time; its owner serialises)

    def __init__(self, path: Union[str, "os.PathLike[str]"]) -> None:
        self.path = os.fspath(path)
        self._fd: Optional[int] = None
        #: Where the next append cuts the file first (a scanned torn tail).
        self._cut: Optional[int] = None

    def scan(self, decode: Callable[[bytes], Any]) -> Scan:
        """Read every record; ``decode`` raises ``ValueError`` on a bad line."""
        try:
            fd = os.open(self.path, os.O_RDONLY)
        except FileNotFoundError:
            return Scan([], [], 0, 0)
        try:
            chunks: List[bytes] = []
            while True:
                chunk = os.read(fd, 1 << 20)
                if not chunk:
                    break
                chunks.append(chunk)
        finally:
            os.close(fd)
        data = b"".join(chunks)
        records: List[Any] = []
        bad: List[int] = []
        pending: List[int] = []
        end = pos = 0
        lines = data.split(b"\n")
        # The last piece follows the final newline: empty, or a fragment.
        for lineno, line in enumerate(lines[:-1], start=1):
            pos += len(line) + 1
            if not line.strip():
                if not pending:
                    end = pos
                continue
            try:
                records.append(decode(line))
            except ValueError:
                pending.append(lineno)
                continue
            bad.extend(pending)
            pending.clear()
            end = pos
        self._cut = end if len(data) > end else None
        return Scan(records, bad, end, len(data))

    def append(self, data: bytes) -> None:
        """Write whole lines and make them durable before returning."""
        if self._fd is None:
            self._fd = self._open()
        if self._cut is not None:
            os.ftruncate(self._fd, self._cut)
            self._cut = None
        _write_all(self._fd, data)
        # fdatasync, not fsync: POSIX requires it to flush the data and
        # any metadata needed to read it back (the file size for an
        # append), and it skips the mtime update.
        os.fdatasync(self._fd)

    def _open(self) -> int:
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        flags = os.O_WRONLY | os.O_APPEND | os.O_CREAT
        try:
            fd = os.open(self.path, flags | os.O_EXCL, 0o644)
        except FileExistsError:
            return os.open(self.path, flags, 0o644)
        _sync_dir(self.path)
        return fd

    def rewrite(self, data: bytes) -> None:
        """Atomically replace the whole log with ``data``."""
        self.close()
        os.makedirs(os.path.dirname(self.path) or ".", exist_ok=True)
        tmp = self.path + ".tmp"
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        try:
            _write_all(fd, data)
            os.fsync(fd)
        finally:
            os.close(fd)
        os.replace(tmp, self.path)
        _sync_dir(self.path)
        self._cut = None

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None
