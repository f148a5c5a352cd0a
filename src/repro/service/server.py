"""The COP service daemon: sharded facade + TCP JSON-lines front end.

:class:`COPService` is the in-process facade: it owns ``config.shards``
:class:`~repro.service.shard.Shard` workers and routes each request to
its deterministic home shard (address-hash for ``read``/``write``,
content-hash for the stateless ``encode``/``decode``).  The loadgen and
the tests drive it directly; :class:`ServiceServer` wraps it in a
threaded TCP server speaking the newline-delimited JSON protocol of
:mod:`repro.service.protocol`.

Each client connection gets a reader (the handler thread) and a writer
thread joined by an in-order queue of replies, so clients may pipeline many
requests on one socket — responses always come back in request order,
while the shards batch whatever is in flight.

Resilience (docs/service.md, "Resilience"):

* ``config.supervise`` (default on) has each shard worker whose loop
  raises recover in place — WAL replay, then back to serving — instead
  of silently eating its queue.
* A peer that drops mid-pipeline increments ``service.server.conn_drops``
  and releases the writer thread promptly (no traceback, no waiting on
  replies whose responses can no longer be delivered).
* The retry building blocks, which the loadgen driver applies over
  :class:`ServiceClient` or in process: a ``RetryPolicy`` with deterministic seeded-jitter exponential backoff
  (:func:`repro.experiments.resilience.backoff_delay`) and the
  idempotency-aware :func:`retry_safe` predicate — reads/encodes retry
  freely, writes retry only on never-executed statuses or connection
  errors, never on ambiguous ``INTERNAL``.
"""

from __future__ import annotations

import itertools
import queue
import socket
import socketserver
import threading
from dataclasses import dataclass
from typing import Any, Dict, FrozenSet, Optional, Tuple

from repro.core.controller import ControllerStats
from repro.experiments.resilience import backoff_delay
from repro.obs.metrics import MetricsRegistry
from repro.service.protocol import (
    ProtocolError,
    Request,
    Response,
    Status,
)
from repro.service.shard import (
    Reply,
    ServiceConfig,
    Shard,
    route_request,
)

__all__ = [
    "COPService",
    "RetryPolicy",
    "ServiceClient",
    "ServiceServer",
    "parse_host_port",
    "retry_safe",
]


#: Statuses that guarantee the op was never executed — safe to retry for
#: every op, including writes (see protocol.py docstrings).
NEVER_EXECUTED_STATUSES: FrozenSet[Status] = frozenset(
    {
        Status.RETRYABLE,
        Status.BUSY,
        Status.DEADLINE_EXCEEDED,
        Status.OVERLOADED,
    }
)

#: Statuses additionally retryable for side-effect-free ops only.
#: INTERNAL is ambiguous — the op may have half-executed — so it must
#: never appear in a write-retry set (``test_retry_safe_matrix`` pins
#: ``not retry_safe("write", Status.INTERNAL)``).
READONLY_RETRY_STATUSES: FrozenSet[Status] = frozenset({Status.INTERNAL})

_WRITE_OPS: FrozenSet[str] = frozenset({"write"})


def retry_safe(op: str, status: Status) -> bool:
    """Is retrying ``op`` after ``status`` safe (exactly-once preserving)?"""
    if status in NEVER_EXECUTED_STATUSES:
        return True
    if status in READONLY_RETRY_STATUSES:
        return op not in _WRITE_OPS
    return False


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with deterministic seeded-jitter backoff."""

    #: Total tries per op, the first included.
    max_attempts: int = 8
    backoff_base: float = 0.005
    backoff_cap: float = 0.25
    #: Namespaces the jitter stream (e.g. one per tenant driver).
    seed: str = "client"

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be positive")

    def delay(self, key: str, attempt: int) -> float:
        """Backoff before retry ``attempt`` (2 = first retry) of op ``key``."""
        return backoff_delay(
            f"{self.seed}|{key}", attempt, base=self.backoff_base,
            cap=self.backoff_cap,
        )


class COPService:
    """In-process sharded service: route, submit, merge."""

    def __init__(self, config: Optional[ServiceConfig] = None) -> None:
        self.config = config or ServiceConfig()
        self.shards = [Shard(i, self.config) for i in range(self.config.shards)]
        #: Front-end metrics (connection drops etc.), merged alongside the
        #: per-shard registries.
        self.registry = MetricsRegistry()
        self._c_conn_drops = self.registry.counter("service.server.conn_drops")
        self._c_chaos_drops = self.registry.counter(
            "service.server.chaos_conn_drops"
        )
        self._started = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        if self._started:
            raise RuntimeError("service already started")
        for shard in self.shards:
            shard.start()
        self._started = True

    def stop(self) -> None:
        """Drain every shard queue and stop the workers (idempotent)."""
        for shard in self.shards:
            shard.stop()
        self._started = False

    def __enter__(self) -> "COPService":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.stop()

    # -- routing -------------------------------------------------------------

    def route(self, request: Request) -> int:
        """Home shard of a request (deterministic across processes)."""
        return route_request(request, self.config.shards)

    def submit(self, request: Request) -> Reply:
        if request.op in ("stats", "health"):
            return Reply(
                self.stats_response(request)
                if request.op == "stats"
                else self.health_response(request)
            )
        return self.shards[self.route(request)].submit(request)

    def call(self, request: Request) -> Response:
        return self.submit(request).result()

    # -- aggregation ----------------------------------------------------------

    def merged_stats(self) -> ControllerStats:
        """Controller counters accumulated across shards in shard order."""
        merged = ControllerStats()
        for shard in self.shards:
            merged.merge(shard.memory.stats)
        return merged

    def merged_registry(self) -> MetricsRegistry:
        """One registry holding every shard's metrics, merged in shard order."""
        merged = MetricsRegistry()
        merged.merge(self.registry)
        for shard in self.shards:
            merged.merge(shard.registry)
        return merged

    def stats_response(self, request: Request) -> Response:
        snapshot = self.merged_registry().snapshot()
        payload: Dict[str, Any] = {
            "shards": self.config.shards,
            "mode": self.config.mode.value,
            "controller": self.merged_stats().as_dict(),
            "counters": snapshot.get("counters", {}),
        }
        return Response(id=request.id, status=Status.OK, payload=payload)

    def health_response(self, request: Request) -> Response:
        """Answer the ``health`` op: per-shard liveness/breaker/WAL state."""
        shard_health = [shard.health() for shard in self.shards]
        payload: Dict[str, Any] = {
            "supervised": self.config.supervise,
            "conn_drops": self._c_conn_drops.value,
            "shards": shard_health,
            "restarts": sum(int(h["restarts"]) for h in shard_health),
            "breakers_open": sum(
                1 for h in shard_health if h["breaker_open"]
            ),
        }
        return Response(id=request.id, status=Status.OK, payload=payload)


class _Handler(socketserver.StreamRequestHandler):
    """One client connection: in-order pipelined request/response stream."""

    server: "ServiceServer"

    def handle(self) -> None:
        conn_id = self.server.next_conn_id()
        pending: "queue.Queue[Optional[Reply]]" = queue.Queue()
        writer = threading.Thread(
            target=self._write_loop, args=(pending, conn_id), daemon=True
        )
        writer.start()
        try:
            for raw in self.rfile:
                line = raw.decode("utf-8", errors="replace").strip()
                if not line:
                    continue
                pending.put(self._submit_line(line))
        except OSError:
            # Peer reset mid-read (abrupt close, injected drop): a normal
            # connection drop, not a server bug — count it, no traceback.
            self.server.service.registry.inc("service.server.conn_drops")
        finally:
            pending.put(None)
            writer.join()

    def _submit_line(self, line: str) -> Reply:
        try:
            request = Request.from_json(line)
        except ProtocolError as exc:
            return Reply(Response(id=0, status=Status.BAD_REQUEST, error=str(exc)))
        return self.server.service.submit(request)

    def _write_loop(
        self,
        pending: "queue.Queue[Optional[Reply]]",
        conn_id: int,
    ) -> None:
        chaos = self.server.service.config.chaos
        registry = self.server.service.registry
        response_seq = 0
        broken = False
        while True:
            reply = pending.get()
            if reply is None:
                return
            if broken:
                # Peer is gone: drain the queue without waiting on the
                # replies so this thread exits as soon as the reader does,
                # instead of idling until every in-flight op completes.
                continue
            response = reply.result()
            try:
                self.wfile.write(response.to_json().encode("utf-8") + b"\n")
            except (OSError, ValueError):
                # Client went away mid-stream with responses still queued.
                registry.inc("service.server.conn_drops")
                broken = True
                continue
            response_seq += 1
            if chaos is not None and chaos.drops_connection(conn_id, response_seq):
                # Injected drop: sever both directions so the reader gets
                # EOF promptly and the client sees a clean reset.
                registry.inc("service.server.chaos_conn_drops")
                broken = True
                try:
                    self.connection.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass


class ServiceServer(socketserver.ThreadingTCPServer):
    """Threaded TCP front end bound to an in-process :class:`COPService`.

    ``port=0`` binds an ephemeral port; read the bound address back from
    ``server_address``.  Use :meth:`start`/:meth:`shutdown_service` (or
    the context manager) rather than ``serve_forever`` directly so the
    backing shards start and stop with the socket.
    """

    allow_reuse_address = True
    daemon_threads = True

    def __init__(
        self,
        service: Optional[COPService] = None,
        host: str = "127.0.0.1",
        port: int = 0,
    ) -> None:
        self.service = service or COPService()
        super().__init__((host, port), _Handler)
        self._serve_thread: Optional[threading.Thread] = None
        self._conn_counter = itertools.count()
        self._conn_lock = threading.Lock()

    def next_conn_id(self) -> int:
        """Monotonic connection id (the conn-drop chaos identity)."""
        with self._conn_lock:
            return next(self._conn_counter)

    def start(self) -> None:
        """Start the shards and serve connections on a background thread."""
        self.service.start()
        self._serve_thread = threading.Thread(
            target=self.serve_forever, name="cop-service-accept", daemon=True
        )
        self._serve_thread.start()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the accept loop exits (or the timeout elapses).

        Returns ``True`` when the accept loop has actually exited (or was
        never started), ``False`` when the timeout elapsed with the loop
        still serving — so callers can loop ``while not server.wait(n)``
        and react to a daemon that died versus one that is just alive.
        """
        thread = self._serve_thread
        if thread is None:
            return True
        thread.join(timeout)
        return not thread.is_alive()

    def shutdown_service(self) -> None:
        """Stop accepting, drain the shards, release the socket."""
        self.shutdown()
        if self._serve_thread is not None:
            self._serve_thread.join()
            self._serve_thread = None
        self.service.stop()
        self.server_close()

    def __enter__(self) -> "ServiceServer":
        self.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.shutdown_service()


class ServiceClient:
    """Minimal blocking JSON-lines client; ``send``/``recv`` pipeline.

    ``timeout`` bounds both the initial connect and every socket
    operation afterwards (it becomes the socket timeout), so a hung
    daemon surfaces as ``socket.timeout`` (an ``OSError``) instead of a
    silent stall.  :meth:`reconnect` tears down and re-dials the same
    endpoint — the building block for retry-on-connection-drop.
    """

    def __init__(self, host: str, port: int, timeout: float = 30.0) -> None:
        self._host = host
        self._port = port
        self._timeout = timeout
        self._lock = threading.Lock()
        self._connect()

    def _connect(self) -> None:
        self._sock = socket.create_connection(
            (self._host, self._port), timeout=self._timeout
        )
        self._rfile = self._sock.makefile("rb")

    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def reconnect(self) -> None:
        """Drop the current connection (quietly) and dial a fresh one."""
        try:
            self.close()
        except OSError:
            pass
        self._connect()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def send(self, request: Request) -> None:
        self._sock.sendall(request.to_json().encode("utf-8") + b"\n")

    def recv(self) -> Response:
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("server closed the connection")
        return Response.from_json(line.decode("utf-8"))

    def call(self, request: Request) -> Response:
        # The lock exists precisely to serialise socket I/O so concurrent
        # callers never interleave frames on the one connection.
        with self._lock:  # sanctioned[blocking-under-lock]: lock serialises the socket
            self.send(request)
            return self.recv()


def parse_host_port(spec: str, default_port: int = 7457) -> Tuple[str, int]:
    """Parse ``host``, ``host:port`` or ``:port`` loadgen --connect specs."""
    host, _, port_text = spec.rpartition(":")
    if not host:
        return (port_text or "127.0.0.1", default_port)
    try:
        return (host, int(port_text))
    except ValueError:
        raise ValueError(f"bad host:port spec {spec!r}") from None
