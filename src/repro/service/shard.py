"""One shard of the COP service: a single-owner worker over a bounded queue.

Each shard owns a :class:`~repro.kernels.MemoizedCodec`, a
:class:`~repro.core.controller.ProtectedMemory` built around it (and
rebuilt around the same memo on recovery) and a private
:class:`~repro.obs.metrics.MetricsRegistry`.  All controller state is
touched by exactly one worker thread; callers only interact with the
bounded request queue, so the controller itself needs no locking.

Micro-batching
--------------

The worker drains up to ``batch_max`` queued requests at a time,
executes them in arrival order through the plain scalar library path,
group-commits the WAL once for the batch, and then acks.  The codec is
memoised: the first call on a content computes it (a memo miss), and
later calls on that content hit.

Every codec call happens during execution, in arrival order, so the memo
counters are independent of where batch boundaries fall: misses equal
the number of distinct contents per operation, hits equal the codec
calls minus the misses, exactly what replaying the same per-shard
request sequence one request at a time produces.  This is the invariant
the parity suite checks (threaded daemon vs. serial replay), and it
holds provided the memo never evicts — size the memo above the working
set (the load generator asserts ``kernels.memo.evictions == 0``).

COP-ER is excluded from the cross-thread parity contract because its
ECC-region entry indices depend on the global allocation order, which
thread interleaving perturbs (docs/service.md).

Resilience (docs/service.md, "Resilience")
------------------------------------------

With ``wal_dir`` set, every *accepted* write is framed into a per-shard
:class:`~repro.service.wal.ShardWAL` and group-committed (append + fdatasync)
once per drained batch **before** any reply in the batch is answered, so
an acknowledged write is durable by construction.  A worker whose loop
raises (a bug, or injected :class:`~repro.service.chaos.ChaosWorkerKill`)
recovers in place on its own thread when ``supervise`` is set: it answers
all queued/in-flight replies with ``Status.RETRYABLE`` (none of them
committed), rebuilds the ``ProtectedMemory`` by replaying the WAL's
last-write-per-address, and re-enters its loop.  Requests arriving
mid-recovery are answered ``RETRYABLE`` immediately.

Three more shedding mechanisms keep the shard honest under pressure:
requests whose ``deadline_ms`` elapsed in the queue are shed *before*
execution (``DEADLINE_EXCEEDED``); a breaker past a queue-depth or
consecutive-error threshold sheds optional work — ``encode``/``decode``
answered ``OVERLOADED`` — while writes and reads keep flowing; and when
the WAL or chaos is active an exactly-once response cache (keyed by
request id) answers duplicate deliveries from client retries with the
*original* outcome instead of re-executing, which keeps pipelined
suffix-replay byte-identical to the serial schedule.
"""

from __future__ import annotations

import queue
import threading
import time
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional, Tuple, Union

from repro.core.controller import (
    BlockNotWrittenError,
    ProtectedMemory,
    ProtectionMode,
)
from repro.kernels import MemoizedCodec
from repro.obs import Observability
from repro.obs.metrics import MetricsRegistry
from repro.obs.perf import now_ns
from repro.service.chaos import ChaosWorkerKill, ServiceChaosConfig
from repro.service.protocol import (
    Request,
    Response,
    Status,
    check_addr,
    check_payload,
)
from repro.service.wal import ShardWAL

__all__ = [
    "Reply",
    "ServiceConfig",
    "Shard",
    "route_request",
    "shard_of_addr",
    "shard_of_data",
]


#: The breaker trips when queue depth reaches this fraction of
#: ``ServiceConfig.queue_depth`` (resets at half the trip depth).
_BREAKER_QUEUE_FRACTION = 0.9

#: The breaker trips after this many consecutive INTERNAL errors.
_BREAKER_TRIP_ERRORS = 8

#: Seconds a worker waits before retrying a recovery that raised.
_RECOVERY_RETRY_S = 0.25

#: Exactly-once response-cache entries per shard.  The cache turns on
#: automatically when the WAL or chaos is configured (client retries can
#: then deliver duplicates); it requires globally unique request ids,
#: which the loadgen's ``tenant << 40 | seq`` scheme provides.
_EXACTLY_ONCE_DEPTH = 1 << 17


@dataclass(frozen=True)
class ServiceConfig:
    """Configuration shared by the daemon, its shards and the loadgen."""

    shards: int = 4
    mode: ProtectionMode = ProtectionMode.COP
    #: Largest number of requests one worker drain executes as a batch.
    batch_max: int = 64
    #: Bounded per-shard queue depth (the backpressure knob).
    queue_depth: int = 1024
    #: ``block`` parks callers on a full queue; ``reject`` answers BUSY.
    admission: str = "block"
    #: Directory for per-shard write-ahead journals.  ``None`` disables
    #: the WAL — in-place recovery then rebuilds an *empty* shard, so
    #: set this whenever worker deaths are possible (chaos, production).
    wal_dir: Optional[str] = None
    #: A worker whose loop raises recovers in place (WAL replay, then
    #: back to serving).  Off, it stays down: submits answer RETRYABLE.
    supervise: bool = True
    #: Service-layer fault injection (``REPRO_CHAOS``; see
    #: :mod:`repro.service.chaos`).
    chaos: Optional[ServiceChaosConfig] = None

    def __post_init__(self) -> None:
        if self.shards < 1:
            raise ValueError("shards must be positive")
        if self.batch_max < 1:
            raise ValueError("batch_max must be positive")
        if self.queue_depth < 1:
            raise ValueError("queue_depth must be positive")
        if self.admission not in ("block", "reject"):
            raise ValueError(
                f"admission must be 'block' or 'reject', got {self.admission!r}"
            )

    @property
    def exactly_once(self) -> bool:
        """Duplicate-delivery suppression is on when retries are possible."""
        return self.wal_dir is not None or self.chaos is not None


_GOLDEN = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def shard_of_addr(addr: int, shards: int) -> int:
    """Deterministic shard index for an addressed (read/write) request.

    Fibonacci-hash the block number so that dense per-tenant address
    ranges spread across shards instead of striping coarsely.  Must be
    deterministic across processes — routing is part of the parity
    contract (the serial replay re-derives the same shard per op).
    """
    h = ((addr >> 6) * _GOLDEN) & _MASK64
    return (h >> 32) % shards


def shard_of_data(data: bytes, shards: int) -> int:
    """Deterministic shard index for a stateless (encode/decode) request.

    ``zlib.crc32`` rather than ``hash()``: the builtin string hash is
    salted per process, which would break cross-process replay.
    """
    return zlib.crc32(data) % shards


def route_request(request: Request, shards: int) -> int:
    """Home shard of a request — deterministic across processes.

    Shared by the front end (dispatch), the serial replay (parity), and
    the loadgen drivers (which need to know, client-side, whether two
    pending ops share a shard when deciding what a crash invalidated).
    """
    if request.op in ("write", "read") and request.addr is not None:
        return shard_of_addr(request.addr, shards)
    if request.op in ("encode", "decode") and request.data is not None:
        return shard_of_data(request.data, shards)
    # Pings (and malformed requests, which the shard will reject with a
    # typed status) spread round-robin by request id.
    return request.id % shards


class _Stop:
    """Queue sentinel asking the worker to finish up and exit."""


_STOP = _Stop()


class Reply:
    """One request's answer: set once, then read by any number of waiters.

    The lock is acquired when the reply is made and released by
    :meth:`set_result`, so a waiter parks in one ``acquire`` and wakes as
    soon as the answer lands.  A queued request's work item is itself
    its reply, so a request costs one object.  Answers come from one
    thread at a time — the shard worker (recovery included), or the
    thread that stops the shard after joining it — so the unlocked check
    in :meth:`set_result` is enough to ignore a second answer.
    """

    __slots__ = ("_lock", "_response")

    def __init__(self, response: Optional[Response] = None) -> None:
        self._response = response
        self._lock = threading.Lock()
        if response is None:
            self._lock.acquire()

    def done(self) -> bool:
        """True once an answer is set."""
        return self._response is not None

    def set_result(self, response: Response) -> None:
        """Answer the request and wake its waiters; a second answer is ignored."""
        if self._response is None:
            self._response = response
            self._lock.release()

    def result(self, timeout: Optional[float] = None) -> Response:
        """The answer, waiting up to ``timeout`` seconds (``None``: forever)."""
        response = self._response
        if response is None:
            wait = -1.0 if timeout is None else timeout
            if not self._lock.acquire(timeout=wait):
                raise TimeoutError(f"no answer within {timeout} s")
            self._lock.release()
            response = self._response
            assert response is not None
        return response


class _Work(Reply):
    """One queued request; the work item is also the caller's reply."""

    __slots__ = ("request", "enqueue_ns")

    def __init__(self, request: Request, enqueue_ns: int) -> None:
        Reply.__init__(self)
        self.request = request
        self.enqueue_ns = enqueue_ns


class Shard:
    """Single-owner worker thread servicing one slice of the address space."""

    # owner-thread: _run

    def __init__(self, index: int, config: ServiceConfig) -> None:
        self.index = index
        self.config = config
        self.registry = MetricsRegistry()
        #: The shard's one codec, memoised because the service's warm
        #: reads repeat contents (the simulator's codec calls do not; see
        #: docs/kernels.md).  Every rebuilt memory keeps it: it caches
        #: pure content -> image results, so kernels.memo.* counters stay
        #: monotonic and replay stays fast.
        self._codec = MemoizedCodec(metrics=self.registry)
        self.memory = self._new_memory()
        self._queue: "queue.Queue[Union[_Work, _Stop]]" = queue.Queue(
            maxsize=config.queue_depth
        )
        self._stopping = False  # shared
        self._crashed = False  # shared (unsupervised worker died)
        self._recovering = False  # shared
        self._thread: Optional[threading.Thread] = None
        #: Shard-lifetime op sequence — the chaos identity.  Never reset,
        #: even across recoveries: resetting would re-fire the same
        #: injected kill on the retried op forever.
        self._op_seq = 0
        self._breaker_open = False  # shared (worker writes, health reads)
        self._consecutive_errors = 0
        self._inflight: List[_Work] = []  # guarded-by: _state_lock
        self._state_lock = threading.Lock()
        # Keyed by (request id, attempt): a duplicate *delivery* of the
        # same attempt answers from the cache; a client-bumped attempt
        # (it saw the previous answer arrive out of order after a crash)
        # misses on purpose and re-executes.
        self._responses: Optional[Dict[Tuple[int, int], Response]] = (
            {} if config.exactly_once else None
        )
        self._response_order: Deque[Tuple[int, int]] = deque()
        self._wal: Optional[ShardWAL] = None
        if config.wal_dir is not None:
            self._wal = ShardWAL(Path(config.wal_dir) / f"shard-{index:02d}.wal")

        # Worker-owned counters (single writer: the shard thread) except
        # rejected_busy and retryable, which caller threads also bump, so
        # every writer holds _reject_lock.
        prefix = f"service.shard.{index}"
        self.prefix = prefix
        self._c_requests = self.registry.counter(f"{prefix}.requests")
        self._c_batches = self.registry.counter(f"{prefix}.batches")
        self._c_writes = self.registry.counter(f"{prefix}.writes")
        self._c_reads = self.registry.counter(f"{prefix}.reads")
        self._c_encodes = self.registry.counter(f"{prefix}.encodes")
        self._c_decodes = self.registry.counter(f"{prefix}.decodes")
        self._c_pings = self.registry.counter(f"{prefix}.pings")
        self._c_not_written = self.registry.counter(f"{prefix}.not_written")
        self._c_alias_rejects = self.registry.counter(f"{prefix}.alias_rejects")
        self._c_bad_requests = self.registry.counter(f"{prefix}.bad_requests")
        self._c_errors = self.registry.counter(f"{prefix}.errors")
        self._c_rejected = self.registry.counter(  # guarded-by: _reject_lock
            f"{prefix}.rejected_busy"
        )
        self._c_retryable = self.registry.counter(  # guarded-by: _reject_lock
            f"{prefix}.retryable"
        )
        self._reject_lock = threading.Lock()
        self._c_restarts = self.registry.counter(f"{prefix}.restarts")
        self._c_worker_crashes = self.registry.counter(f"{prefix}.worker_crashes")
        self._c_deadline_shed = self.registry.counter(f"{prefix}.deadline_shed")
        self._c_overload_shed = self.registry.counter(f"{prefix}.overload_shed")
        self._c_breaker_trips = self.registry.counter(f"{prefix}.breaker_trips")
        self._c_dedup_hits = self.registry.counter(f"{prefix}.dedup_hits")
        self._c_dedup_evictions = self.registry.counter(
            f"{prefix}.dedup_evictions"
        )
        self._c_wal_records = self.registry.counter(f"{prefix}.wal_records")
        self._c_wal_commits = self.registry.counter(f"{prefix}.wal_commits")
        self._c_wal_replayed = self.registry.counter(f"{prefix}.wal_replayed")
        self._c_wal_compactions = self.registry.counter(
            f"{prefix}.wal_compactions"
        )
        self._h_latency = self.registry.histogram(f"{prefix}.latency_us")
        self._h_batch = self.registry.histogram(f"{prefix}.batch_blocks")
        self._h_recovery = self.registry.histogram(f"{prefix}.recovery_us")

        # Cold-start durability: a journal left by a previous process (or
        # an unclean daemon exit) replays before the worker ever starts.
        if self._wal is not None:
            self._replay_wal(compact=True)

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._thread is not None:
            raise RuntimeError(f"shard {self.index} already started")
        self._thread = threading.Thread(
            target=self._run, name=f"cop-shard-{self.index}", daemon=True
        )
        self._thread.start()

    def stop(self) -> None:  # owner-thread: external
        """Finish queued work, then stop the worker (idempotent)."""
        self._stopping = True
        if self._thread is not None:
            # A dead worker can't drain its own queue: only reap it.
            if not self._crashed and self._thread.is_alive():
                self._queue.put(_STOP)
            self._thread.join()
            self._thread = None
        # Whatever is still queued or in flight (a dead worker's, or a
        # submitter's that raced the sentinel) fails with a typed status.
        self._fail_pending(Status.SHUTDOWN, "stopping")
        if self._wal is not None:
            self._wal.close()

    # -- submission (caller threads) -----------------------------------------

    def submit(self, request: Request) -> Reply:
        """Enqueue a request; the reply is answered when the worker is done."""
        if self._stopping:
            return Reply(
                Response(id=request.id, status=Status.SHUTDOWN, error="stopping")
            )
        if self._crashed or self._recovering:
            with self._reject_lock:
                self._c_retryable.inc()
            return Reply(
                Response(
                    id=request.id,
                    status=Status.RETRYABLE,
                    error=f"shard {self.index} is recovering; retry",
                )
            )
        work = _Work(request, now_ns())
        if self.config.admission == "reject":
            try:
                self._queue.put_nowait(work)
            except queue.Full:
                with self._reject_lock:
                    self._c_rejected.inc()
                work.set_result(
                    Response(
                        id=request.id,
                        status=Status.BUSY,
                        error=f"shard {self.index} queue full",
                    )
                )
        else:
            self._queue.put(work)
        return work

    def call(self, request: Request) -> Response:
        """Submit and wait."""
        return self.submit(request).result()

    def _new_memory(self) -> ProtectedMemory:
        return ProtectedMemory(
            mode=self.config.mode,
            obs=Observability(metrics=self.registry),
            codec=self._codec,  # type: ignore[arg-type]
        )

    def _rebuild_memory(self) -> None:
        self.memory = self._new_memory()
        # Exactly-once entries describe executions the rebuilt state no
        # longer reflects; duplicates of uncommitted ops must re-execute.
        if self._responses is not None:
            self._responses = {}
            self._response_order.clear()

    def _fail_pending(self, status: Status, error: str) -> int:
        """Answer every queued and in-flight reply with a typed status."""
        with self._state_lock:
            inflight, self._inflight = self._inflight, []
        sentinels = 0
        drained: List[_Work] = []
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            if isinstance(item, _Stop):
                sentinels += 1
                continue
            drained.append(item)
        for _ in range(sentinels):
            # Preserve a racing stop()'s sentinel for the recovered worker.
            self._queue.put_nowait(_STOP)
        failed = 0
        for item in inflight + drained:
            if not item.done():
                item.set_result(
                    Response(id=item.request.id, status=status, error=error)
                )
                failed += 1
        return failed

    def _replay_wal(self, compact: bool) -> int:
        """Replay the journal's last-write-per-address into the memory."""
        assert self._wal is not None
        records = self._wal.load_records()
        if not records:
            return 0
        live = ShardWAL.live_records(records)
        for record in live:
            result = self.memory.write(record.addr, record.data)
            if not result.accepted:  # pragma: no cover - accepted writes replay
                self._c_errors.inc()
        self._c_wal_replayed.inc(len(live))
        if compact and len(records) > len(live):
            self._wal.compact(live)
            self._c_wal_compactions.inc()
        return len(live)

    def health(self) -> Dict[str, Any]:  # owner-thread: external
        """Point-in-time liveness/recovery/breaker snapshot of this shard."""
        thread = self._thread
        wal_info: Optional[Dict[str, int]] = None
        if self._wal is not None:
            wal_info = {
                "records": self._c_wal_records.value,
                "commits": self._c_wal_commits.value,
                "replayed": self._c_wal_replayed.value,
                "compactions": self._c_wal_compactions.value,
                "torn_lines": self._wal.torn_lines,
            }
        return {
            "shard": self.index,
            "alive": bool(thread is not None and thread.is_alive()),
            "recovering": self._recovering,
            "queue_depth": self._queue.qsize(),
            "breaker_open": self._breaker_open,
            "restarts": self._c_restarts.value,
            "worker_crashes": self._c_worker_crashes.value,
            "deadline_shed": self._c_deadline_shed.value,
            "overload_shed": self._c_overload_shed.value,
            "errors": self._c_errors.value,
            "wal": wal_info,
        }

    # -- worker loop (shard thread) ------------------------------------------

    def _run(self) -> None:
        while True:
            try:
                self._loop()
                return
            except Exception:
                # A dead loop is an event, never a silent state: count it
                # (REP006).  No re-raise — a traceback per injected chaos
                # kill would drown CI.
                self._c_worker_crashes.inc()
            if not self.config.supervise:
                self._crashed = True
                return
            if not self._recover():
                return

    def _recover(self) -> bool:
        """Rebuild from the WAL on the worker's own thread after a crash.

        Drop uncommitted WAL appends (they were never acknowledged),
        answer every queued/in-flight reply ``RETRYABLE`` (none of it
        committed), rebuild the ``ProtectedMemory`` by replaying the
        journal's last-write-per-address, re-admit traffic.  A recovery
        that raises is counted and retried; returns False (the worker
        exits) once the shard is stopping.
        """
        t0 = now_ns()
        self._recovering = True
        while not self._stopping:
            try:
                if self._wal is not None:
                    self._wal.abort()
                failed = self._fail_pending(
                    Status.RETRYABLE,
                    f"shard {self.index} worker restarted; safe to retry",
                )
                if failed:
                    with self._reject_lock:
                        self._c_retryable.inc(failed)
                self._rebuild_memory()
                if self._wal is not None:
                    self._replay_wal(compact=True)
            except Exception:
                # Counted, never silent (REP006); submit() keeps
                # answering RETRYABLE until a retry succeeds.
                self.registry.inc(f"{self.prefix}.recovery_errors")
                time.sleep(_RECOVERY_RETRY_S)
                continue
            # Re-admit traffic before the visible restart: otherwise a
            # client that observed restarts>=1 could still race a
            # RETRYABLE answer out of the closing _recovering window.
            self._recovering = False
            self._c_restarts.inc()
            self._h_recovery.observe((now_ns() - t0) / 1000.0)
            return True
        self._recovering = False
        return False

    def _loop(self) -> None:
        while True:
            item = self._queue.get()
            if isinstance(item, _Stop):
                self._fail_pending(Status.SHUTDOWN, "stopping")
                return
            batch = [item]
            stop_after = False
            while len(batch) < self.config.batch_max:
                try:
                    nxt = self._queue.get_nowait()
                except queue.Empty:
                    break
                if isinstance(nxt, _Stop):
                    stop_after = True
                    break
                batch.append(nxt)
            self._process(batch)
            if stop_after:
                self._fail_pending(Status.SHUTDOWN, "stopping")
                return

    def process_serially(  # owner-thread: external
        self, requests: List[Request]
    ) -> List[Response]:
        """Execute requests one per batch on the calling thread.

        The serial-replay half of the parity contract: same shard, same
        execute/commit/ack pipeline, batch size pinned to 1.  Only valid
        before :meth:`start` or after :meth:`stop`.
        """
        if self._thread is not None:
            raise RuntimeError("shard worker is running; use submit()")
        out: List[Response] = []
        for request in requests:
            work = _Work(request, now_ns())
            self._process([work])
            out.append(work.result())
        return out

    def _process(self, batch: List[_Work]) -> None:
        self._c_batches.inc()
        self._h_batch.observe(float(len(batch)))
        # Deadline shed happens strictly before execution: an op either
        # runs to completion or provably never started.
        ready: List[_Work] = []
        shed: List[_Work] = []
        now = now_ns()
        for item in batch:
            deadline = item.request.deadline_ms
            if deadline is not None and now - item.enqueue_ns > deadline * 1_000_000:
                shed.append(item)
            else:
                ready.append(item)
        self._update_breaker()
        overload: List[_Work] = []
        if self._breaker_open:
            kept: List[_Work] = []
            for item in ready:
                if item.request.op in ("encode", "decode"):
                    overload.append(item)
                else:
                    kept.append(item)
            ready = kept
        with self._state_lock:
            # The whole batch: a crash below must answer the shed items too.
            self._inflight = batch
        chaos = self.config.chaos
        results: List[Tuple[_Work, Response]] = []
        for item in ready:
            op_seq = self._op_seq
            self._op_seq += 1
            if chaos is not None:
                pause = chaos.delay_seconds(self.index, op_seq)
                if pause > 0.0:
                    time.sleep(pause)
                if chaos.kills_worker(self.index, op_seq):
                    raise ChaosWorkerKill(
                        f"injected worker death on shard {self.index} op {op_seq}"
                    )
            response = self._execute(item.request)
            if (
                self._wal is not None
                and item.request.op == "write"
                and response.status is Status.OK
                and item.request.addr is not None
                and item.request.data is not None
            ):
                self._wal.append(
                    item.request.id, item.request.addr, item.request.data
                )
            self._remember(item.request, response)
            results.append((item, response))
        if self._wal is not None:
            committed = self._wal.commit()
            if committed:
                self._c_wal_records.inc(committed)
                self._c_wal_commits.inc()
        # Acks strictly after the group commit: a response becomes
        # observable only once the writes it implies are durable.
        for item, response in results:
            self._finish(item, response)
        with self._state_lock:
            self._inflight = []
        for item in shed:
            self._c_deadline_shed.inc()
            self._finish(
                item,
                Response(
                    id=item.request.id,
                    status=Status.DEADLINE_EXCEEDED,
                    error=(
                        f"deadline_ms={item.request.deadline_ms} elapsed in "
                        f"shard {self.index} queue"
                    ),
                ),
            )
        for item in overload:
            self._c_overload_shed.inc()
            self._finish(
                item,
                Response(
                    id=item.request.id,
                    status=Status.OVERLOADED,
                    error=f"shard {self.index} breaker open; optional work shed",
                ),
            )

    def _finish(self, item: _Work, response: Response) -> None:
        self._c_requests.inc()
        self._h_latency.observe((now_ns() - item.enqueue_ns) / 1000.0)
        if item.request.tenant:
            self.registry.inc(
                f"{self.prefix}.tenant.{item.request.tenant}.requests"
            )
        item.set_result(response)

    def _remember(self, request: Request, response: Response) -> None:
        cache = self._responses
        key = (request.id, request.attempt)
        if cache is None or key in cache:
            return
        cache[key] = response
        self._response_order.append(key)
        if len(self._response_order) > _EXACTLY_ONCE_DEPTH:
            evicted = self._response_order.popleft()
            cache.pop(evicted, None)
            self._c_dedup_evictions.inc()

    def _update_breaker(self) -> None:
        depth = self._queue.qsize()
        threshold = _BREAKER_QUEUE_FRACTION * self.config.queue_depth
        errors = self._consecutive_errors
        if not self._breaker_open:
            if depth >= threshold or errors >= _BREAKER_TRIP_ERRORS:
                self._breaker_open = True
                self._c_breaker_trips.inc()
                self.registry.set_gauge(f"{self.prefix}.breaker_open", 1.0)
        elif depth <= threshold / 2 and errors < _BREAKER_TRIP_ERRORS:
            self._breaker_open = False
            self.registry.set_gauge(f"{self.prefix}.breaker_open", 0.0)

    # -- execution ------------------------------------------------------------

    def _execute(self, request: Request) -> Response:
        cache = self._responses
        if cache is not None:
            cached = cache.get((request.id, request.attempt))
            if cached is not None:
                # Exactly-once: a duplicate delivery (a client retry racing
                # its original) gets the original outcome, not a re-run.  A
                # bumped attempt misses here by design and re-executes.
                self._c_dedup_hits.inc()
                return cached
        try:
            response = self._dispatch(request)
        except Exception as exc:
            # Typed statuses cover the expected failures; anything else is
            # a server bug — count it (REP006) and answer INTERNAL rather
            # than killing the worker.
            self._c_errors.inc()
            self._consecutive_errors += 1
            return Response(
                id=request.id,
                status=Status.INTERNAL,
                error=f"{type(exc).__name__}: {exc}",
            )
        self._consecutive_errors = 0
        return response

    def _bad(self, request: Request, why: str) -> Response:
        self._c_bad_requests.inc()
        return Response(id=request.id, status=Status.BAD_REQUEST, error=why)

    def _dispatch(self, request: Request) -> Response:
        op = request.op
        if op == "ping":
            self._c_pings.inc()
            return Response(id=request.id, status=Status.OK)

        if op == "write":
            error = check_addr(
                request.addr, self.memory.region_base
            ) or check_payload(request.data)
            if error is not None:
                return self._bad(request, error)
            assert request.addr is not None and request.data is not None
            self._c_writes.inc()
            result = self.memory.write(request.addr, request.data)
            if not result.accepted:
                self._c_alias_rejects.inc()
                return Response(
                    id=request.id,
                    status=Status.ALIAS_REJECT,
                    error="incompressible alias block; keep the line pinned",
                )
            return Response(
                id=request.id,
                status=Status.OK,
                compressed=result.compressed,
                was_uncompressed=result.was_uncompressed,
            )

        if op == "read":
            error = check_addr(request.addr, self.memory.region_base)
            if error is not None:
                return self._bad(request, error)
            assert request.addr is not None
            self._c_reads.inc()
            try:
                result = self.memory.read(request.addr)
            except BlockNotWrittenError as exc:
                self._c_not_written.inc()
                return Response(
                    id=request.id, status=Status.NOT_WRITTEN, error=str(exc)
                )
            return Response(
                id=request.id,
                status=Status.OK,
                data=result.data,
                compressed=result.compressed,
                was_uncompressed=result.was_uncompressed,
                corrected=result.corrected,
                uncorrectable=result.uncorrectable,
            )

        if op == "encode":
            error = check_payload(request.data)
            if error is not None:
                return self._bad(request, error)
            codec = self.memory.codec
            if codec is None:
                return self._bad(
                    request, f"mode {self.config.mode.value} has no codec"
                )
            assert request.data is not None
            self._c_encodes.inc()
            encoded = codec.encode(request.data)
            return Response(
                id=request.id,
                status=Status.OK,
                data=encoded.stored,
                compressed=encoded.compressed,
            )

        if op == "decode":
            error = check_payload(request.data)
            if error is not None:
                return self._bad(request, error)
            codec = self.memory.codec
            if codec is None:
                return self._bad(
                    request, f"mode {self.config.mode.value} has no codec"
                )
            assert request.data is not None
            self._c_decodes.inc()
            decoded = codec.decode(request.data)
            return Response(
                id=request.id,
                status=Status.OK,
                data=decoded.data,
                compressed=decoded.is_compressed,
                corrected=decoded.corrected_words > 0,
                uncorrectable=decoded.uncorrectable,
                valid_codewords=decoded.valid_codewords,
            )

        # "stats"/"health" are answered by the front end; reaching a shard
        # means the caller bypassed it.
        return self._bad(request, f"op {op!r} is not served by shards")
