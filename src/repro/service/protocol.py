"""Wire protocol of the COP protected-memory service.

The daemon speaks newline-delimited JSON over a byte stream (one request
object per line, one response object per line, matched by ``id``).  The
same :class:`Request`/:class:`Response` pair is the in-process API: the
load generator and the tests build them directly and skip the JSON hop.

Operations
----------

``write``   store ``data`` (64 bytes, hex on the wire) at ``addr``
``read``    fetch/verify/decompress the block at ``addr``
``encode``  stateless: compress+protect ``data``, return the stored image
``decode``  stateless: classify/correct/decompress a stored image
``ping``    liveness probe (answered by the shard worker, so a ``ping``
            response proves the whole queue/batch path is draining)
``stats``   merged controller/shard counters (answered by the front end
            without entering a shard queue)
``health``  per-shard liveness/recovery/breaker snapshot (front end)

Every failure is a *typed* status, never a bare 500: a read of a
never-written block maps :class:`~repro.core.controller.BlockNotWrittenError`
to ``not-written``, COP's alias rejection maps to ``alias-reject``, an
admission-control drop to ``busy``, malformed input to ``bad-request``.

The resilience layer (docs/service.md, "Resilience") adds three more
typed outcomes, all of which guarantee the request was **never
executed** and is therefore safe to retry for any op, including writes:
``retryable`` (the home shard worker died and was restarted; in-flight
work was discarded before commit), ``deadline-exceeded`` (the request's
``deadline_ms`` elapsed while queued; it was shed before execution) and
``overloaded`` (the shard breaker is open and shed this optional op).
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional

from repro.compression.base import BLOCK_BYTES

__all__ = [
    "OPS",
    "ProtocolError",
    "Request",
    "Response",
    "Status",
]

#: Operations a request may carry (``stats`` and ``health`` are served
#: by the front end).
OPS = ("write", "read", "encode", "decode", "ping", "stats", "health")


class ProtocolError(ValueError):
    """A request line that cannot be parsed into a valid :class:`Request`."""


class Status(enum.Enum):
    """Typed outcome of one request."""

    OK = "ok"
    #: ``read`` of an address no ``write`` ever stored.
    NOT_WRITTEN = "not-written"
    #: COP rejected an incompressible alias block (the client must keep
    #: the line pinned, exactly like the LLC in the paper).
    ALIAS_REJECT = "alias-reject"
    #: Admission control dropped the request (shard queue full).
    BUSY = "busy"
    #: Malformed request (bad op, bad address, bad payload length).
    BAD_REQUEST = "bad-request"
    #: The daemon is stopping and no longer accepts work.
    SHUTDOWN = "shutdown"
    #: Unexpected server-side failure (counted per shard, never silent).
    #: Ambiguous for writes: the op may or may not have executed, so
    #: write retries must never key off this status.
    INTERNAL = "internal"
    #: The home shard worker died before this request committed; the op
    #: definitely did not take effect — safe to retry, even writes.
    RETRYABLE = "retryable"
    #: ``deadline_ms`` elapsed while queued; shed before execution.
    DEADLINE_EXCEEDED = "deadline-exceeded"
    #: Shard breaker open; optional work (encode/decode) shed unexecuted.
    OVERLOADED = "overloaded"


@dataclass(frozen=True)
class Request:
    """One client operation."""

    op: str
    id: int = 0
    addr: Optional[int] = None
    data: Optional[bytes] = None
    #: Free-form client label; lands in per-tenant request counters.
    tenant: str = ""
    #: Queueing budget: if set, the shard sheds the request with
    #: ``deadline-exceeded`` when this many milliseconds elapse between
    #: enqueue and execution (never mid-execution).
    deadline_ms: Optional[int] = None
    #: Retry generation.  The exactly-once cache deduplicates on
    #: ``(id, attempt)``: a client re-sending an unacknowledged request
    #: keeps the attempt (a duplicate delivery answers from the cache),
    #: while a client that *knows* the previous answer is stale — it
    #: arrived out of order after the home shard crashed under an
    #: unresent predecessor — bumps it to force a fresh execution.
    attempt: int = 0

    def to_wire(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"op": self.op, "id": self.id}
        if self.addr is not None:
            out["addr"] = self.addr
        if self.data is not None:
            out["data"] = self.data.hex()
        if self.tenant:
            out["tenant"] = self.tenant
        if self.deadline_ms is not None:
            out["deadline_ms"] = self.deadline_ms
        if self.attempt:
            out["attempt"] = self.attempt
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_wire(), separators=(",", ":"))

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "Request":
        op = payload.get("op")
        if not isinstance(op, str) or op not in OPS:
            raise ProtocolError(f"unknown op {op!r}; expected one of {OPS}")
        request_id = payload.get("id", 0)
        if not isinstance(request_id, int):
            raise ProtocolError(f"id must be an integer, got {request_id!r}")
        addr = payload.get("addr")
        if addr is not None and (isinstance(addr, bool) or not isinstance(addr, int)):
            raise ProtocolError(f"addr must be an integer, got {addr!r}")
        data: Optional[bytes] = None
        raw = payload.get("data")
        if raw is not None:
            if not isinstance(raw, str):
                raise ProtocolError("data must be a hex string")
            try:
                data = bytes.fromhex(raw)
            except ValueError as exc:
                raise ProtocolError(f"data is not valid hex: {exc}") from None
        tenant = payload.get("tenant", "")
        if not isinstance(tenant, str):
            raise ProtocolError(f"tenant must be a string, got {tenant!r}")
        deadline_ms = payload.get("deadline_ms")
        if deadline_ms is not None and (
            isinstance(deadline_ms, bool)
            or not isinstance(deadline_ms, int)
            or deadline_ms < 1
        ):
            raise ProtocolError(
                f"deadline_ms must be a positive integer, got {deadline_ms!r}"
            )
        attempt = payload.get("attempt", 0)
        if isinstance(attempt, bool) or not isinstance(attempt, int) or attempt < 0:
            raise ProtocolError(
                f"attempt must be a non-negative integer, got {attempt!r}"
            )
        return cls(
            op=op,
            id=request_id,
            addr=addr,
            data=data,
            tenant=tenant,
            deadline_ms=deadline_ms,
            attempt=attempt,
        )

    @classmethod
    def from_json(cls, line: str) -> "Request":
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"request line is not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ProtocolError("request line must be a JSON object")
        return cls.from_wire(payload)


@dataclass(frozen=True)
class Response:
    """One request's outcome."""

    id: int
    status: Status
    data: Optional[bytes] = None
    compressed: bool = False
    was_uncompressed: bool = False
    corrected: bool = False
    uncorrectable: bool = False
    valid_codewords: Optional[int] = None
    error: str = ""
    #: Extra structured payload (the ``stats`` op's merged counters).
    payload: Dict[str, Any] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.status is Status.OK

    def to_wire(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {"id": self.id, "status": self.status.value}
        if self.data is not None:
            out["data"] = self.data.hex()
        if self.compressed:
            out["compressed"] = True
        if self.was_uncompressed:
            out["was_uncompressed"] = True
        if self.corrected:
            out["corrected"] = True
        if self.uncorrectable:
            out["uncorrectable"] = True
        if self.valid_codewords is not None:
            out["valid_codewords"] = self.valid_codewords
        if self.error:
            out["error"] = self.error
        if self.payload:
            out["payload"] = self.payload
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_wire(), separators=(",", ":"))

    @classmethod
    def from_wire(cls, payload: Mapping[str, Any]) -> "Response":
        try:
            status = Status(payload.get("status"))
        except ValueError:
            raise ProtocolError(
                f"unknown response status {payload.get('status')!r}"
            ) from None
        raw = payload.get("data")
        data = bytes.fromhex(raw) if isinstance(raw, str) else None
        valid = payload.get("valid_codewords")
        return cls(
            id=int(payload.get("id", 0)),
            status=status,
            data=data,
            compressed=bool(payload.get("compressed", False)),
            was_uncompressed=bool(payload.get("was_uncompressed", False)),
            corrected=bool(payload.get("corrected", False)),
            uncorrectable=bool(payload.get("uncorrectable", False)),
            valid_codewords=int(valid) if valid is not None else None,
            error=str(payload.get("error", "")),
            payload=dict(payload.get("payload", {})),
        )

    @classmethod
    def from_json(cls, line: str) -> "Response":
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ProtocolError(f"response line is not JSON: {exc}") from None
        if not isinstance(payload, dict):
            raise ProtocolError("response line must be a JSON object")
        return cls.from_wire(payload)


def check_payload(data: Optional[bytes]) -> Optional[str]:
    """Validate a block payload; returns an error string or ``None``."""
    if data is None:
        return "missing data field"
    if len(data) != BLOCK_BYTES:
        return f"data must be exactly {BLOCK_BYTES} bytes, got {len(data)}"
    return None


def check_addr(addr: Optional[int], limit: int) -> Optional[str]:
    """Validate a data-space block address against a shard's limit."""
    if addr is None:
        return "missing addr field"
    if addr < 0:
        return f"addr must be non-negative, got {addr}"
    if addr % BLOCK_BYTES:
        return f"addr must be {BLOCK_BYTES}-byte aligned, got {addr:#x}"
    if addr >= limit:
        return f"addr {addr:#x} falls in the ECC metadata region (>= {limit:#x})"
    return None
