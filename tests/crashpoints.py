"""Crash-point harness for the repository's durable files.

After ALICE (Pillai et al., "All File Systems Are Not Created Equal",
OSDI 2014): run a scenario once while recording every file-system
operation it makes, then rebuild the files for every prefix of that
recording and check the readers' invariants on each rebuilt state.  Two
crash models decide what a prefix leaves on disk:

process kill
    Every completed operation survives, and the last write is also torn
    at every byte.
power loss
    Only fsynced bytes survive, and a create or rename survives only once
    its directory has been fsynced.

The service WAL is recorded through :mod:`repro.durable`'s ``os`` name;
the result cache, which publishes with ``Path.write_bytes`` and
``Path.replace``, through those two methods.

Model limits: directories are never lost (every scenario starts in an
existing one), bytes that were never fsynced never partly survive a power
loss (torn bytes are the process-kill model's job), and states that differ
only in files the reader never opens (the temp files of a compaction or a
cache publish) are counted as crash points but checked once.

``python tests/crashpoints.py`` (``make crash-points``) runs every log
under both models and prints the crash points enumerated;
``tests/test_crash_points.py`` runs the same checks under pytest.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
from pathlib import Path
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple
from unittest import mock

from repro import durable
from repro.core.controller import ProtectionMode
from repro.experiments import runner
from repro.experiments.common import Scale
from repro.experiments.runner import ResultCache, SimJob, run_jobs
from repro.obs import NULL_OBS
from repro.service import Request, ServiceConfig, Shard, ShardWAL, Status

KILL = "process-kill"
POWER = "power-loss"
MODELS = (KILL, POWER)

Op = Tuple[Any, ...]
Files = Dict[str, bytes]
Marks = Tuple[Tuple[Any, ...], ...]


# ---------------------------------------------------------------------------
# recording
# ---------------------------------------------------------------------------


class Recorder:
    """Records file operations under ``root`` as harness ops.

    Ops name files by the recorder's own ids, not inode numbers, so a
    number the file system reuses cannot alias two files.
    """

    def __init__(self, root: Path) -> None:
        self.root = str(root)
        self.ops: List[Op] = []
        self._ids: Dict[str, int] = {}
        #: fd -> (file id or None for a directory, path, opened O_APPEND)
        self._fds: Dict[int, Tuple[Optional[int], str, bool]] = {}

    def mark(self, *event: Any) -> None:
        """Note a scenario event (an ack); it is not a crash point."""
        self.ops.append(("mark",) + event)

    def _file_id(self, path: str, existed: bool, trunc: bool) -> int:
        if not existed:
            self._ids[path] = len(self._ids)
            self.ops.append(("create", path, self._ids[path]))
        elif path not in self._ids:
            raise AssertionError(f"{path} predates the recording")
        elif trunc:
            self.ops.append(("truncate", self._ids[path], 0))
        return self._ids[path]

    # -- the os functions repro.durable calls ---------------------------------

    def open(self, path: Any, flags: int, mode: int = 0o777) -> int:
        path = os.path.abspath(path)
        existed = os.path.exists(path)
        fd = os.open(path, flags, mode)
        if os.path.isdir(path):
            self._fds[fd] = (None, path, False)
        elif flags & (os.O_WRONLY | os.O_RDWR):
            ident = self._file_id(path, existed, bool(flags & os.O_TRUNC))
            self._fds[fd] = (ident, path, bool(flags & os.O_APPEND))
        return fd

    def write(self, fd: int, data: Any) -> int:
        ident, _, append = self._fds[fd]
        offset = os.fstat(fd).st_size if append else os.lseek(fd, 0, os.SEEK_CUR)
        written = os.write(fd, data)
        self.ops.append(("write", ident, offset, bytes(data[:written])))
        return written

    def ftruncate(self, fd: int, size: int) -> None:
        os.ftruncate(fd, size)
        self.ops.append(("truncate", self._fds[fd][0], size))

    def fsync(self, fd: int) -> None:
        os.fsync(fd)
        self._synced(fd)

    def fdatasync(self, fd: int) -> None:
        os.fdatasync(fd)
        self._synced(fd)

    def _synced(self, fd: int) -> None:
        ident, path, _ = self._fds[fd]
        self.ops.append(("syncdir", path) if ident is None else ("sync", ident))

    def replace(self, src: Any, dst: Any) -> None:
        os.replace(src, dst)
        self._renamed(os.path.abspath(src), os.path.abspath(dst))

    def _renamed(self, src: str, dst: str) -> None:
        self._ids[dst] = self._ids.pop(src)
        self.ops.append(("rename", src, dst))

    def close(self, fd: int) -> None:
        self._fds.pop(fd, None)
        os.close(fd)

    def __getattr__(self, name: str) -> Any:
        return getattr(os, name)  # constants, os.path, read, makedirs, ...

    # -- the pathlib methods ResultCache.store calls ---------------------------

    def patch_pathlib(self) -> Any:
        real_write, real_replace = Path.write_bytes, Path.replace
        recorder = self

        def write_bytes(path: Path, data: bytes) -> int:
            name = os.path.abspath(path)
            if not name.startswith(recorder.root):
                return real_write(path, data)
            existed = path.exists()
            written = real_write(path, data)
            ident = recorder._file_id(name, existed, True)
            recorder.ops.append(("write", ident, 0, bytes(data)))
            return written

        def replace(path: Path, target: Any) -> Path:
            result = real_replace(path, target)
            src, dst = os.path.abspath(path), os.path.abspath(target)
            if src.startswith(recorder.root):
                recorder._renamed(src, dst)
            return result

        return mock.patch.multiple(Path, write_bytes=write_bytes, replace=replace)


# ---------------------------------------------------------------------------
# rebuilding crash states
# ---------------------------------------------------------------------------


class _Disk:
    """What the file system holds: its live view and its durable view."""

    def __init__(self) -> None:
        self.names: Dict[str, int] = {}
        self.data: Dict[int, bytearray] = {}
        self.durable_names: Dict[str, int] = {}
        self.durable_data: Dict[int, bytes] = {}

    def apply(self, op: Op) -> None:
        kind = op[0]
        if kind == "create":
            self.names[op[1]] = op[2]
            self.data[op[2]] = bytearray()
        elif kind == "write":
            _, ident, offset, payload = op
            buf = self.data[ident]
            buf.extend(bytes(max(0, offset - len(buf))))
            buf[offset : offset + len(payload)] = payload
        elif kind == "truncate":
            buf = self.data[op[1]]
            del buf[op[2] :]
        elif kind == "sync":
            self.durable_data[op[1]] = bytes(self.data[op[1]])
        elif kind == "syncdir":
            directory = op[1]
            for name in [n for n in self.durable_names if os.path.dirname(n) == directory]:
                del self.durable_names[name]
            for name, ident in self.names.items():
                if os.path.dirname(name) == directory:
                    self.durable_names[name] = ident
        elif kind == "rename":
            self.names[op[2]] = self.names.pop(op[1])
        else:  # pragma: no cover - the recorder emits nothing else
            raise ValueError(f"unknown op {op!r}")

    def view(self, model: str, visible: Callable[[str], bool]) -> Files:
        if model == KILL:
            return {n: bytes(self.data[i]) for n, i in self.names.items() if visible(n)}
        return {
            n: self.durable_data.get(i, b"")
            for n, i in self.durable_names.items()
            if visible(n)
        }


def crash_states(
    ops: List[Op], model: str, visible: Callable[[str], bool]
) -> Tuple[int, List[Tuple[Files, Marks]]]:
    """Every crash point's rebuilt files, as seen by a reader.

    Returns the number of crash points and the distinct states among
    them; each state carries the marks recorded before the operation the
    crash interrupted.  ``visible`` selects the files the reader opens.
    """
    disk = _Disk()
    marks: List[Tuple[Any, ...]] = []
    points = 0
    seen: set = set()
    states: List[Tuple[Files, Marks]] = []

    def keep(files: Files) -> None:
        key = (tuple(sorted(files.items())), tuple(marks))
        if key not in seen:
            seen.add(key)
            states.append((files, tuple(marks)))

    for op in ops:
        if op[0] == "mark":
            marks.append(op[1:])
            continue
        points += 1
        base = disk.view(model, visible)
        keep(base)
        if model == KILL and op[0] == "write" and len(op[3]) > 1:
            _, ident, offset, payload = op
            points += len(payload) - 1
            shown = [n for n, i in disk.names.items() if i == ident and visible(n)]
            for cut in range(1, len(payload)):
                for name in shown:
                    torn = bytearray(disk.data[ident])
                    torn.extend(bytes(max(0, offset - len(torn))))
                    torn[offset : offset + cut] = payload[:cut]
                    keep({**base, name: bytes(torn)})
        disk.apply(op)
    points += 1
    keep(disk.view(model, visible))
    return points, states


def materialize(files: Files, root: Path, dest: Path) -> None:
    """Write one rebuilt state under ``dest`` (paths relative to ``root``)."""
    shutil.rmtree(dest, ignore_errors=True)
    dest.mkdir(parents=True)
    for name, content in files.items():
        target = dest / os.path.relpath(name, root)
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(content)


# ---------------------------------------------------------------------------
# scenarios and their invariants
# ---------------------------------------------------------------------------


def _block(tag: bytes) -> bytes:
    return tag.ljust(64, b".")


#: Service writes by request id: (addr, data).  Ids rise with time.
WAL_WRITES = {
    1: (0, _block(b"a")),
    2: (64, _block(b"b")),
    3: (0, _block(b"c")),
    4: (128, _block(b"d")),
    5: (64, _block(b"e")),
    9: (192, _block(b"never-committed")),
}
WAL_NAME = "shard-00.wal"


def wal_scenario(root: Path, rec: Recorder) -> None:
    """Group commits, an aborted batch, a restart that compacts, commits."""
    wal = ShardWAL(root / WAL_NAME)
    for batch in ((1, 2), (3,)):
        for rid in batch:
            wal.append(rid, *WAL_WRITES[rid])
        rec.mark("commit", *batch)
        wal.commit()
        rec.mark("ack", *batch)
    wal.append(9, *WAL_WRITES[9])
    wal.abort()
    wal.close()
    # Restart: the cold-starting shard replays, and compacts away write 1.
    shard = Shard(0, ServiceConfig(shards=1, wal_dir=str(root)))
    shard.start()
    for rid in (4, 5):
        addr, data = WAL_WRITES[rid]
        rec.mark("commit", rid)
        response = shard.call(Request("write", id=rid, addr=addr, data=data))
        assert response.status is Status.OK, response
        rec.mark("ack", rid)
    shard.stop()


def check_wal(state: Path, marks: Marks) -> None:
    """Acked writes replay; nothing uncommitted or garbled does.

    Replay keeps the last record per address, so "an acked write
    replays" means: each address's latest acked write, or a later write
    to it whose commit had started.  The log must also take a new commit
    on top of whatever the crash left and read back with nothing torn.
    """
    committed = {rid for mark in marks if mark[0] == "commit" for rid in mark[1:]}
    latest_acked: Dict[int, int] = {}
    for mark in marks:
        if mark[0] == "ack":
            for rid in mark[1:]:
                latest_acked[WAL_WRITES[rid][0]] = rid
    wal = ShardWAL(state / WAL_NAME)
    records = wal.load_records()
    for record in records:
        assert record.request_id in committed, f"uncommitted {record}"
        assert WAL_WRITES[record.request_id] == (record.addr, record.data), record
    live = {r.addr: r.request_id for r in ShardWAL.live_records(records)}
    for addr, rid in latest_acked.items():
        assert live.get(addr, -1) >= rid, f"acked write {rid} lost: {live}"
    wal.append(100, 256, _block(b"after-crash"))
    wal.commit()
    wal.close()
    again = ShardWAL(state / WAL_NAME)
    assert again.torn_lines == 0
    assert [r.request_id for r in again.load_records()] == [
        r.request_id for r in records
    ] + [100]
    again.close()


def sweep_jobs() -> List[SimJob]:
    return [
        SimJob(benchmark=bench, mode=ProtectionMode.COP, scale=Scale.SMOKE, cores=1)
        for bench in ("gcc", "mcf", "lbm")
    ]


_SWEEP: Dict[str, Any] = {}


def cache_scenario(root: Path, rec: Recorder) -> None:
    """A serial sweep that stores each finished job in the result cache."""
    cache = ResultCache(root=root / "cache")
    real_store = cache.store

    def store(key: str, result: Any) -> None:
        real_store(key, result)
        rec.mark("stored", key)

    cache.store = store  # type: ignore[method-assign]
    jobs = sweep_jobs()
    results = run_jobs(jobs, workers=1, cache=cache, obs=NULL_OBS)
    _SWEEP["results"] = {job.key(): result for job, result in zip(jobs, results)}


def check_cache(state: Path, marks: Marks) -> None:
    """The cache serves the stored result or nothing, never other bytes."""
    cache = ResultCache(root=state / "cache")
    for key, result in _SWEEP["results"].items():
        loaded = cache.load(key)
        assert loaded is None or loaded == result, key
    assert cache.corrupt == 0


def check_sweep_rerun(state: Path, marks: Marks) -> None:
    """A re-run executes exactly the jobs whose cache store had not returned."""
    stored = {mark[1] for mark in marks if mark[0] == "stored"}
    jobs = sweep_jobs()
    executed: List[str] = []
    real = runner._execute_job

    def counting(job: SimJob, collect_metrics: bool, tracer: Any = None) -> Any:
        executed.append(job.key())
        return real(job, collect_metrics, tracer)

    with mock.patch.object(runner, "_execute_job", counting):
        results = run_jobs(
            jobs, workers=1, cache=ResultCache(root=state / "cache"), obs=NULL_OBS
        )
    assert executed == [job.key() for job in jobs if job.key() not in stored]
    assert results == [_SWEEP["results"][job.key()] for job in jobs]


class Log(NamedTuple):
    scenario: Callable[[Path, Recorder], None]
    #: Whether the log's reader opens this file.
    visible: Callable[[str], bool]
    checks: Dict[str, List[Callable[[Path, Marks], None]]]


LOGS: Dict[str, Log] = {
    "wal": Log(
        wal_scenario,
        lambda name: os.path.basename(name) == WAL_NAME,
        {KILL: [check_wal], POWER: [check_wal]},
    ),
    "cache": Log(
        cache_scenario,
        lambda name: name.endswith(".pkl"),
        {KILL: [check_cache, check_sweep_rerun], POWER: [check_cache]},
    ),
}


def record(log: str, root: Path) -> List[Op]:
    """Run ``log``'s scenario in the empty directory ``root``, recorded."""
    scenario = LOGS[log].scenario
    root.mkdir(parents=True, exist_ok=True)
    rec = Recorder(root)
    with mock.patch.object(durable, "os", rec), rec.patch_pathlib():
        scenario(root, rec)
    return rec.ops


def run(log: str, model: str, workdir: Path) -> Tuple[int, int]:
    """Check every crash point of ``log`` under ``model``.

    Returns ``(crash points, distinct states checked)``; raises
    ``AssertionError`` naming the crash point whose state breaks an
    invariant.
    """
    _, visible, checks = LOGS[log]
    root = workdir / "run"
    ops = record(log, root)
    points, states = crash_states(ops, model, visible)
    state_dir = workdir / "state"
    for index, (files, marks) in enumerate(states):
        materialize(files, root, state_dir)
        for check in checks[model]:
            try:
                check(state_dir, marks)
            except AssertionError as exc:
                sizes = {os.path.relpath(n, root): len(c) for n, c in files.items()}
                raise AssertionError(
                    f"{log} / {model}: state {index} (files {sizes}, "
                    f"marks {list(marks)}) breaks {check.__name__}: {exc}"
                ) from exc
    return points, len(states)


def main() -> int:
    print(f"{'log':<12} {'crash model':<14} {'crash points':>12} {'states':>8}")
    with tempfile.TemporaryDirectory(prefix="crashpoints-") as tmp:
        for log in LOGS:
            for model in MODELS:
                workdir = Path(tmp) / f"{log}-{model}"
                points, states = run(log, model, workdir)
                print(f"{log:<12} {model:<14} {points:>12} {states:>8}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
