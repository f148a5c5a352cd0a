"""Layer spans installed from the benchmark's own files.

The tracer wraps public functions of each layer (``SetAssocCache.lookup``,
``ShardWAL.commit``, ...) for the duration of one traced pass and restores
the originals afterwards, so the program under test is never edited.  A
target that no longer exists (a later refactor deleted ``fast_write`` or
``access_batch``, say) is skipped and reported as absent; the layer then
simply records nothing.

Attribution
-----------
Every wrapper entry and exit is a *boundary*.  The wall time between two
consecutive boundaries anywhere in the process is charged to the innermost
open span of the thread that crossed the earlier boundary, or to ``other``
when that thread had no span open.  In a single-threaded pass this is the
classic self time (a span's duration minus its children).  With several
threads it approximates which layer held the interpreter (CPython runs one
thread's bytecode at a time), and in both cases the charges add up exactly
to the traced wall time, so the breakdown needs no fudge row.

Spans (name, start, end, parent, thread) stay in memory, capped per layer so
that hot layers such as the LLC cannot exhaust memory; the counts and times
always cover every call.  :meth:`Tracer.write_spans` writes them out once
the run is over.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator, List, Optional, TextIO, Tuple

__all__ = ["OTHER", "Target", "Tracer"]

#: Row charged with time spent outside every traced layer.
OTHER = "other"
#: Spans kept in memory per layer.
SPAN_CAP = 2000


@dataclass(frozen=True)
class Target:
    """One function to wrap: ``qualname`` inside ``module``, charged to ``layer``."""

    layer: str
    module: str
    qualname: str
    #: Optional work-size counter, called with the wrapped call's args.
    rows: Optional[Callable[[tuple], int]] = None

    @property
    def label(self) -> str:
        return f"{self.module}.{self.qualname}"


def _rows_of_first_array(args: tuple) -> int:
    return len(args[1]) if len(args) > 1 else 0


#: Every layer boundary the benchmark times, both halves of the system.
TARGETS: Tuple[Target, ...] = (
    Target("experiments.runner", "repro.experiments.runner", "run_jobs"),
    Target("simulation.engine", "repro.experiments.runner", "run_benchmark"),
    Target("workloads.trace", "repro.workloads.tracegen", "TraceGenerator.epoch_arrays"),
    Target("workloads.trace", "repro.workloads.tracegen", "TraceGenerator.epochs"),
    Target("workloads.content", "repro.workloads.blocks", "BlockSource.block"),
    *(
        Target("kernels.batch", "repro.kernels", f"BatchCodec.{name}", _rows_of_first_array)
        for name in (
            "encode_many",
            "decode_many",
            "codeword_count_many",
            "compressible_many",
            "is_alias_many",
        )
    ),
    *(
        Target("kernels.memo", "repro.kernels", f"MemoizedCodec.{name}")
        for name in (
            "encode",
            "decode",
            "codeword_count",
            "is_alias",
            "peek_encode",
            "peek_decode",
            "peek_count",
            "seed_encode",
            "seed_decode",
            "seed_count",
        )
    ),
    *(
        Target("cache.llc", "repro.cache.cache", f"SetAssocCache.{name}")
        for name in ("lookup", "insert", "peek")
    ),
    *(
        Target("core.controller", "repro.core.controller", f"ProtectedMemory.{name}")
        for name in ("write", "read", "fast_write", "fast_read")
    ),
    *(
        Target("memory.dram", "repro.memory.dram", f"DRAMSystem.{name}")
        for name in ("access", "service_wave", "access_batch")
    ),
    *(
        Target("service.protocol", "repro.service.protocol", f"{cls}.{name}")
        for cls in ("Request", "Response")
        for name in ("to_json", "from_json")
    ),
    Target("service.submit", "repro.service.server", "COPService.submit"),
    Target("service.wal.append", "repro.service.wal", "ShardWAL.append"),
    Target("service.wal.commit", "repro.service.wal", "ShardWAL.commit"),
)

#: Row order of the breakdown table.
LAYERS: Tuple[str, ...] = tuple(dict.fromkeys(t.layer for t in TARGETS)) + (OTHER,)


def _resolve(target: Target):
    """``(owner, attribute name, raw attribute)`` or ``None`` when absent."""
    try:
        owner = importlib.import_module(target.module)
    except ImportError:
        return None
    *path, name = target.qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    try:
        raw = inspect.getattr_static(owner, name)
    except AttributeError:
        return None
    return owner, name, raw


class _Layer:
    """Running totals of one layer."""

    __slots__ = ("name", "ns", "span_ns", "calls", "rows", "kept")

    def __init__(self, name: str) -> None:
        self.name = name
        #: Wall time charged to the layer (adds up to the traced wall).
        self.ns = 0
        #: Summed duration of the layer's outermost spans, thread by thread;
        #: unlike ``ns`` it includes time the thread spent blocked (an
        #: fdatasync) while other threads ran.
        self.span_ns = 0
        self.calls = 0
        self.rows = 0
        self.kept = 0


class Tracer:
    """Installs layer wrappers and charges wall time to layers."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self._lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._active = False
        #: Span stack of the thread that crossed the latest boundary.
        self._owner: List[tuple] = []
        self._last_ns = 0
        self._start_ns = 0
        self._restore: List[Tuple[object, str, object, bool]] = []
        self._layers = {name: _Layer(name) for name in LAYERS}
        self.wall_ns = 0
        #: Kept spans: (id, parent id, layer, start ns, end ns, thread id).
        self.spans: List[Tuple[int, int, str, int, int, int]] = []
        self.absent: List[str] = []

    # -- wrapping --------------------------------------------------------------

    def _boundaries(self, layer: str, rows):
        """``enter``/``leave`` closures for one layer (the hot path)."""
        acc = self._layers[layer]
        other = self._layers[OTHER]
        lock, local, ids = self._lock, self._local, self._ids
        clock = time.perf_counter_ns
        tracer = self

        def enter(args) -> list:
            try:
                stack = local.stack
            except AttributeError:
                stack = local.stack = []
            with lock:
                now = clock()
                if tracer._active:
                    owner = tracer._owner
                    (owner[-1][0] if owner else other).ns += now - tracer._last_ns
                    tracer._last_ns = now
                    tracer._owner = stack
                    # Nested calls inside one layer (is_alias calling
                    # codeword_count) count as one call of that layer.
                    if not stack or stack[-1][0] is not acc:
                        acc.calls += 1
                        if rows is not None:
                            acc.rows += rows(args)
                stack.append((acc, next(ids), now))
            return stack

        def leave(stack: list) -> None:
            with lock:
                now = clock()
                if not tracer._active:
                    stack.pop()
                    return
                owner = tracer._owner
                (owner[-1][0] if owner else other).ns += now - tracer._last_ns
                tracer._last_ns = now
                tracer._owner = stack
                _, span_id, start = stack.pop()
                if not stack or stack[-1][0] is not acc:
                    acc.span_ns += now - start
                if acc.kept < SPAN_CAP:
                    acc.kept += 1
                    parent = stack[-1][1] if stack else 0
                    tracer.spans.append(
                        (span_id, parent, layer, start, now, threading.get_ident())
                    )

        return enter, leave

    def _wrap(self, target: Target, fn):
        enter, leave = self._boundaries(target.layer, target.rows)
        if inspect.isgeneratorfunction(fn):
            # Time each resumption, not just the call that builds the
            # generator (``TraceGenerator.epochs`` is consumed lazily).
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                inner = fn(*args, **kwargs)
                while True:
                    stack = enter(args)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        leave(stack)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = enter(args)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(stack)

        return wrapper

    def install(self) -> None:
        self.absent = []
        for target in TARGETS:
            found = _resolve(target)
            if found is None:
                self.absent.append(target.label)
                continue
            owner, name, raw = found
            if isinstance(raw, classmethod):
                new = classmethod(self._wrap(target, raw.__func__))
            elif isinstance(raw, staticmethod):
                new = staticmethod(self._wrap(target, raw.__func__))
            elif callable(raw):
                new = self._wrap(target, raw)
            else:
                self.absent.append(target.label)
                continue
            own = name in vars(owner)
            self._restore.append((owner, name, raw, own))
            setattr(owner, name, new)

    def uninstall(self) -> None:
        for owner, name, raw, own in reversed(self._restore):
            if own:
                setattr(owner, name, raw)
            else:
                delattr(owner, name)
        self._restore = []

    @contextmanager
    def traced(self) -> Iterator["Tracer"]:
        """Install wrappers and charge time for the body's duration."""
        self.install()
        try:
            with self._lock:
                self._start_ns = self._last_ns = time.perf_counter_ns()
                self._owner = []
                self._active = True
            try:
                yield self
            finally:
                with self._lock:
                    now = time.perf_counter_ns()
                    owner = self._owner
                    layer = owner[-1][0] if owner else self._layers[OTHER]
                    layer.ns += now - self._last_ns
                    self._active = False
                    self.wall_ns += now - self._start_ns
        finally:
            self.uninstall()

    # -- results ---------------------------------------------------------------

    def seconds(self, layer: str) -> float:
        return self._layers[layer].ns / 1e9

    def span_seconds(self, layer: str) -> float:
        return self._layers[layer].span_ns / 1e9

    def calls(self, layer: str) -> int:
        return self._layers[layer].calls

    def rows(self, layer: str) -> int:
        return self._layers[layer].rows

    def breakdown(self) -> List[Tuple[str, float, int, float]]:
        """``(layer, seconds, calls, span seconds)``; seconds sum to the wall."""
        return [
            (name, acc.ns / 1e9, acc.calls, acc.span_ns / 1e9)
            for name, acc in self._layers.items()
        ]

    def write_spans(self, out: TextIO, label: str) -> None:
        """Append the kept spans as JSON lines tagged with run id and ``label``."""
        for span_id, parent, layer, start, end, thread in self.spans:
            out.write(
                json.dumps(
                    {
                        "run": self.run_id,
                        "pass": label,
                        "id": span_id,
                        "parent": parent,
                        "name": layer,
                        "start_ns": start,
                        "end_ns": end,
                        "thread": thread,
                    },
                    separators=(",", ":"),
                )
                + "\n"
            )
