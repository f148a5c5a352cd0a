"""Deterministic mixed-tenant load generator for the COP service.

Every tenant is a seeded, independent request stream: its own SPEC
content profile (via :class:`~repro.workloads.blocks.BlockSource`), its
own disjoint block arena, and its own write/read/encode/decode mix.
Streams are pure functions of ``(LoadgenConfig, tenant index)`` — the
generator can re-produce any tenant's exact sequence at any time, which
is what makes the parity check possible without storing a million
request objects.

Parity contract
---------------

With per-tenant *sequential* submission (each tenant drives its stream
from one thread, pipelined but in order) and disjoint tenant arenas,
every block address observes its operations in program order no matter
how the OS interleaves tenants: an address always routes to the same
shard, and one shard's queue is FIFO.  In ``COP`` mode (the default) no
controller state is shared *between* addresses, so the daemon's final
per-shard contents, controller counters, memo counters and the full
per-tenant response streams are byte-identical to replaying the same
schedule serially, one request per batch, on a fresh replica
(:meth:`~repro.service.shard.Shard.process_serially`).

The memo-counter half of the contract additionally requires that the
memo never evicts (a content counts as a miss exactly once per
operation; an eviction would re-count it).  The verifier asserts
``kernels.memo.evictions == 0`` — size ``content_versions`` /
``blocks_per_tenant`` below the memo capacity if you grow the config.

COP-ER is excluded: its ECC-region entry allocation depends on global
cross-address order (docs/service.md).

Parity under chaos
------------------

One driver (:func:`_drive`) runs every tenant over either transport: a
*link* that answers requests in send order — :class:`ServiceClient`
over TCP, or :class:`_InprocessLink` over shard futures, which never
drops.  With service-layer fault injection on (``config.service.chaos``),
two mechanisms keep the final response streams serial:

**Per-address submission gating.**  A request is not submitted while an
earlier same-address op is unresolved in the window (:func:`_addr_busy`).
Without the gate, a window slot submitted just after a crash overtakes
crash-killed same-address predecessors on the shard FIFO and executes
out of program order — and once an overtaking *write* has executed, no
client-side replay can restore the value it clobbered.  Same address
means same shard, so per-address gating is exactly the serialization
the parity contract needs; cross-address traffic (and chaos-free runs)
keep full pipeline depth.

**Idempotency-aware retry.**  A head-of-window response whose status is
retry-safe for its op (:func:`repro.service.server.retry_safe`)
triggers a window drain.  The remaining in-flight responses are read and
partitioned:

* A *final* outcome is normally kept and recorded when it reaches the
  head — it was computed against its shard's committed prefix, and
  re-executing it could observe later writes (the exactly-once cache
  dies with a crashed worker).
* A *retry-safe* outcome on an addressed op marks its block address
  **dirty**, and every later pending op on a dirty address — even one
  holding a final answer — is discarded and re-sent.  An address always
  routes to one shard and a shard's queue is FIFO, so a final answer
  behind a failed same-address op can only mean the op was submitted
  after the crash and overtook failed predecessors that had not been
  re-sent yet: its answer was computed out of program order.  Finals on
  other addresses are untouched — their history is intact, and
  re-executing them would itself reorder (a re-run read could observe a
  later write that has since committed).

Every op re-sent because of a retry-safe answer or a dirty address
carries ``attempt + 1``, so the daemon's exactly-once cache (keyed on
``(id, attempt)``) cannot answer the stale execution; replaying a dirty
address's pending ops in window order re-imposes that address's history,
so the fresh answers are the serial ones.  An op re-sent only because
the *connection* dropped keeps its attempt — if it executed and only the
ack was lost, the cache must answer the original outcome.  After the
drain the driver sleeps ``RetryPolicy.delay(key, attempt + 1)`` with the
head's bumped attempt (2 on the first retry), then re-sends the
unresolved suffix in order.  The final response per op is
what lands in the tenant digest, so the digests still compare
byte-identical against the clean serial replay; controller/memo counters
do **not** (recovery replays work), which is why
:func:`verify_parity` drops those assertions in non-strict mode.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import threading
import time
from array import array
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Deque, Dict, Iterator, List, Optional, Protocol, Tuple

from repro.analysis import sanitizer as lock_sanitizer
from repro.compression.base import BLOCK_BYTES
from repro.core.controller import ProtectionMode
from repro.obs.perf import now_ns, percentile_of
from repro.service.protocol import Request, Response, Status
from repro.service.server import (
    COPService,
    RetryPolicy,
    ServiceClient,
    ServiceServer,
    retry_safe,
)
from repro.service.shard import ServiceConfig
from repro.workloads.blocks import BlockSource
from repro.workloads.profiles import PROFILES

__all__ = [
    "LoadReport",
    "LoadgenConfig",
    "run_loadgen",
    "tenant_requests",
]

#: Default tenant content palette — mixed SPECint / SPECfp, cycled.
TENANT_PROFILES = (
    "gcc",
    "lbm",
    "mcf",
    "milc",
    "hmmer",
    "soplex",
    "libquantum",
    "sjeng",
)

#: Tenant id bits: request id = (tenant << _ID_SHIFT) | sequence.
_ID_SHIFT = 40

#: Fraction of reads aimed at the never-written half of the arena.
MISS_READ_FRACTION = 0.01


@dataclass(frozen=True)
class LoadgenConfig:
    """Shape of one deterministic load run."""

    ops: int = 1_000_000
    tenants: int = 8
    #: Per-tenant pipelining window (requests in flight per stream).
    window: int = 64
    seed: int = 2015
    #: Writable block slots per tenant (the arena reserves 2x this span;
    #: the upper half is never written, giving deterministic read misses).
    blocks_per_tenant: int = 2048
    #: Distinct content versions a slot cycles through.  Keep
    #: ``tenants * blocks_per_tenant * content_versions`` comfortably
    #: under the per-shard memo capacity or parity loses evictions == 0.
    content_versions: int = 4
    write_fraction: float = 0.40
    read_fraction: float = 0.45
    encode_fraction: float = 0.08
    #: Attached to every generated request (None: no deadline).
    deadline_ms: Optional[int] = None
    #: Client socket/connect timeout in seconds.
    client_timeout: float = 30.0
    #: Total tries per op (1 = never retry; chaos runs need headroom).
    retry_attempts: int = 1
    service: ServiceConfig = field(default_factory=ServiceConfig)

    def __post_init__(self) -> None:
        if self.ops < 1:
            raise ValueError("ops must be positive")
        if not 1 <= self.tenants <= 1 << 8:
            raise ValueError("tenants must be in [1, 256]")
        if self.window < 1:
            raise ValueError("window must be positive")
        if self.deadline_ms is not None and self.deadline_ms < 1:
            raise ValueError("deadline_ms must be positive")
        if self.client_timeout <= 0:
            raise ValueError("client_timeout must be positive")
        if self.retry_attempts < 1:
            raise ValueError("retry_attempts must be positive")
        fractions = (self.write_fraction, self.read_fraction, self.encode_fraction)
        if any(f < 0 for f in fractions):
            raise ValueError("mix fractions must be non-negative")
        if sum(fractions) > 1:
            raise ValueError("write+read+encode fractions must not exceed 1")

    def tenant_name(self, tenant: int) -> str:
        return f"t{tenant:02d}-{self.tenant_profile(tenant)}"

    def tenant_profile(self, tenant: int) -> str:
        return TENANT_PROFILES[tenant % len(TENANT_PROFILES)]

    def tenant_base(self, tenant: int) -> int:
        # 2x span: lower half writable, upper half the miss arena.
        return tenant * 2 * self.blocks_per_tenant * BLOCK_BYTES

    def tenant_ops(self, tenant: int) -> int:
        base, extra = divmod(self.ops, self.tenants)
        return base + (1 if tenant < extra else 0)

    def retry_policy(self, tenant: int) -> RetryPolicy:
        return RetryPolicy(
            max_attempts=self.retry_attempts,
            seed=f"loadgen|{self.seed}|t{tenant:02d}",
        )


def tenant_requests(config: LoadgenConfig, tenant: int) -> Iterator[Request]:
    """The tenant's request stream — deterministic, regenerable at will."""
    rng = random.Random(config.seed * 1_000_003 + 7919 * tenant + 1)
    source = BlockSource(
        PROFILES[config.tenant_profile(tenant)], seed=config.seed + tenant
    )
    name = config.tenant_name(tenant)
    base = config.tenant_base(tenant)
    blocks = config.blocks_per_tenant
    versions = config.content_versions
    deadline = config.deadline_ms
    #: Distinct contents are few (blocks x versions); cache generation.
    content: Dict[Tuple[int, int], bytes] = {}

    def block_of(addr: int, version: int) -> bytes:
        key = (addr, version)
        data = content.get(key)
        if data is None:
            data = content[key] = source.block(addr, version)
        return data

    next_version: Dict[int, int] = {}
    written: List[int] = []
    written_set: set[int] = set()
    write_cut = config.write_fraction
    read_cut = write_cut + config.read_fraction
    encode_cut = read_cut + config.encode_fraction

    for seq in range(config.tenant_ops(tenant)):
        rid = (tenant << _ID_SHIFT) | seq
        roll = rng.random()
        if roll < write_cut or not written:
            addr = base + rng.randrange(blocks) * BLOCK_BYTES
            version = next_version.get(addr, 0)
            next_version[addr] = (version + 1) % versions
            if addr not in written_set:
                written_set.add(addr)
                written.append(addr)
            yield Request(
                "write", id=rid, addr=addr, data=block_of(addr, version),
                tenant=name, deadline_ms=deadline,
            )
        elif roll < read_cut:
            if rng.random() < MISS_READ_FRACTION:
                addr = base + (blocks + rng.randrange(blocks)) * BLOCK_BYTES
            else:
                addr = written[rng.randrange(len(written))]
            yield Request(
                "read", id=rid, addr=addr, tenant=name, deadline_ms=deadline
            )
        elif roll < encode_cut:
            addr = base + rng.randrange(blocks) * BLOCK_BYTES
            yield Request(
                "encode", id=rid,
                data=block_of(addr, versions + rng.randrange(versions)),
                tenant=name, deadline_ms=deadline,
            )
        else:
            addr = base + rng.randrange(blocks) * BLOCK_BYTES
            # A raw source block fed straight to the decoder exercises the
            # classify-as-RAW path (few valid code words).
            yield Request(
                "decode", id=rid,
                data=block_of(addr, 2 * versions + rng.randrange(versions)),
                tenant=name, deadline_ms=deadline,
            )


def interleave(config: LoadgenConfig) -> Iterator[Request]:
    """One global order consistent with every tenant's program order."""
    streams = [tenant_requests(config, t) for t in range(config.tenants)]
    live = list(range(config.tenants))
    while live:
        still = []
        for t in live:
            request = next(streams[t], None)
            if request is not None:
                yield request
                still.append(t)
        live = still


# -- per-tenant stream accounting ---------------------------------------------


class _StreamTally:
    """Digest + status counts + latency samples for one tenant stream.

    Only *final* (post-retry) responses enter the digest and ``statuses``;
    transient retry-safe outcomes are tallied separately so the digest
    stays comparable against the clean serial replay.
    """

    def __init__(self) -> None:
        self.digest = hashlib.sha256()
        self.statuses: Dict[str, int] = {}
        self.latencies_us = array("d")
        #: Retry-safe statuses that were retried rather than recorded.
        self.transient: Dict[str, int] = {}
        self.retries = 0
        self.reconnects = 0
        #: Ops re-sent as part of a suffix replay (includes the head).
        self.replayed = 0
        #: Outcomes recorded as final although they needed a re-run (a
        #: retry-safe status, or an answer on a dirty address): attempts
        #: ran out.
        self.exhausted = 0

    def record(self, response: Response, latency_us: Optional[float]) -> None:
        self.digest.update(response.to_json().encode("utf-8"))
        self.digest.update(b"\n")
        key = response.status.value
        self.statuses[key] = self.statuses.get(key, 0) + 1
        if latency_us is not None:
            self.latencies_us.append(latency_us)

    def record_transient(self, status: Status) -> None:
        key = status.value
        self.transient[key] = self.transient.get(key, 0) + 1


@dataclass
class _Inflight:
    """One sent-but-unresolved request in a tenant driver's window."""

    request: Request
    first_ns: int
    #: Final response observed while waiting out a suffix replay; the op
    #: is NOT re-sent and this is recorded when it reaches the head.
    resolved: Optional[Response] = None


def _pop_resolved(pending: "Deque[_Inflight]", tally: _StreamTally) -> None:
    """Record the head's stored final response (set during a replay)."""
    head = pending.popleft()
    assert head.resolved is not None
    tally.record(head.resolved, (now_ns() - head.first_ns) / 1000.0)


def _addr_busy(pending: "Deque[_Inflight]", addr: int) -> bool:
    """Is an earlier op on this block address still unresolved in-window?

    Chaos-mode submission gate: a request must not enter the pipeline
    while an earlier same-address op is unresolved.  If that op was
    killed by a worker crash, the new request would overtake it on the
    shard's FIFO and execute out of program order — and an overtaking
    *write* clobbers state no client-side replay can restore (the value
    it overwrote left the window long ago).  Same address means same
    shard, so gating per address is exactly the needed serialization;
    cross-address pipelining (and the chaos-free fast path) keep full
    depth.
    """
    return any(
        op.request.addr == addr and op.resolved is None for op in pending
    )


class _Link(Protocol):
    """An ordered request/response channel to the service.

    ``recv`` answers the oldest sent request not yet answered.  ``send``
    and ``recv`` may raise ``ConnectionError``/``OSError``; ``reconnect``
    then forgets every unanswered request.  :class:`ServiceClient` is the
    TCP link.
    """

    def send(self, request: Request) -> None: ...

    def recv(self) -> Response: ...

    def reconnect(self) -> None: ...

    def close(self) -> None: ...


class _InprocessLink:
    """The in-process link: shard futures answered in send order."""

    def __init__(self, service: COPService) -> None:
        self._service = service
        self._futures: "Deque[Future[Response]]" = deque()

    def send(self, request: Request) -> None:
        self._futures.append(self._service.submit(request))

    def recv(self) -> Response:
        return self._futures.popleft().result()

    def reconnect(self) -> None:
        """Never called: an in-process link does not drop."""

    def close(self) -> None:
        """Nothing to release."""


def _drive(
    link: _Link, config: LoadgenConfig, tenant: int, tally: _StreamTally
) -> None:
    """Drive one tenant's stream over ``link`` until every op is final."""
    policy = config.retry_policy(tenant)
    pending: Deque[_Inflight] = deque()
    guard_addrs = config.service.chaos is not None

    def recv_for(op: _Inflight) -> Response:
        response = link.recv()
        if response.id != op.request.id:
            raise AssertionError(
                f"tenant {tenant}: response id {response.id} does not match "
                f"in-flight request id {op.request.id}"
            )
        return response

    def can_retry(op: _Inflight) -> bool:
        # ``attempt`` starts at 0 and counts fresh re-executions.
        return op.request.attempt + 1 < policy.max_attempts

    def bump(op: _Inflight) -> None:
        op.request = dataclasses.replace(
            op.request, attempt=op.request.attempt + 1
        )

    def reconnect() -> None:
        tally.reconnects += 1
        for attempt in range(1, policy.max_attempts + 1):
            try:
                link.reconnect()
                return
            except OSError:
                if attempt == policy.max_attempts:
                    raise
                time.sleep(policy.delay("reconnect", attempt + 1))

    def replay_suffix() -> None:
        """Re-send every unresolved pending request, in order, live."""
        unresolved = [op for op in pending if op.resolved is None]
        tally.replayed += len(unresolved)
        for attempt in range(1, policy.max_attempts + 1):
            try:
                for op in unresolved:
                    link.send(op.request)
                return
            except (ConnectionError, OSError):
                if attempt == policy.max_attempts:
                    raise
                reconnect()

    def resolve_head() -> None:
        head = pending[0]
        if head.resolved is not None:
            _pop_resolved(pending, tally)
            return
        try:
            response = recv_for(head)
        except (ConnectionError, OSError):
            # Dropped mid-stream: everything unresolved is unacknowledged;
            # reconnect and replay the window (dedup suppresses re-runs).
            reconnect()
            replay_suffix()
            return
        safe = retry_safe(head.request.op, response.status)
        if not (safe and can_retry(head)):
            if safe:
                tally.exhausted += 1
            pending.popleft()
            tally.record(response, (now_ns() - head.first_ns) / 1000.0)
            return
        tally.record_transient(response.status)
        tally.retries += 1
        bump(head)
        dirty = set() if head.request.addr is None else {head.request.addr}
        # Drain the in-flight tail: the link answers in send order, so
        # these are the responses to the already-sent unresolved suffix.
        # A final outcome is kept and NOT re-executed (the exactly-once
        # cache dies with a crashed worker; a re-run read would observe
        # later committed writes), UNLESS its block address already
        # yielded a retry-safe outcome earlier in the window: same address
        # means same shard, the shard queue is FIFO, so that final was
        # submitted after the crash and computed out of program order.
        tail = [op for op in pending if op.resolved is None][1:]
        drained = 0
        try:
            for op in tail:
                op_response = recv_for(op)
                drained += 1
                addr = op.request.addr
                stale = (
                    retry_safe(op.request.op, op_response.status)
                    or addr in dirty
                )
                if stale and can_retry(op):
                    tally.record_transient(op_response.status)
                    bump(op)
                    if addr is not None:
                        dirty.add(addr)
                else:
                    if stale:
                        tally.exhausted += 1
                    op.resolved = op_response
        except (ConnectionError, OSError):
            reconnect()
            # An undrained op on a dirty address, if it executed at all,
            # executed after its address's failed predecessor: re-run it
            # fresh.  Other undrained ops keep their attempt — if one
            # executed and only the ack was lost, the cache must answer
            # the original outcome.
            for op in tail[drained:]:
                if op.request.addr in dirty:
                    bump(op)
        time.sleep(policy.delay(f"op{head.request.id}", head.request.attempt + 1))
        replay_suffix()

    for request in tenant_requests(config, tenant):
        while len(pending) >= config.window or (
            guard_addrs
            and request.addr is not None
            and _addr_busy(pending, request.addr)
        ):
            resolve_head()
        pending.append(_Inflight(request, now_ns()))
        try:
            link.send(request)
        except (ConnectionError, OSError):
            reconnect()
            replay_suffix()
    while pending:
        resolve_head()


# -- parity verification ------------------------------------------------------


def _memo_counters(service: COPService) -> Dict[str, int]:
    totals = {"hits": 0, "misses": 0, "evictions": 0}
    for shard in service.shards:
        for key in totals:
            totals[key] += shard.registry.counter(f"kernels.memo.{key}").value
    return totals


def _shard_counter_total(service: COPService, suffix: str) -> int:
    total = 0
    for shard in service.shards:
        total += shard.registry.counter(f"{shard.prefix}.{suffix}").value
    return total


def _contents_digests(service: COPService) -> List[str]:
    digests = []
    for shard in service.shards:
        h = hashlib.sha256()
        for addr in sorted(shard.memory.contents):
            h.update(addr.to_bytes(8, "little"))
            h.update(shard.memory.contents[addr])
        digests.append(h.hexdigest())
    return digests


def verify_parity(
    service: COPService,
    config: LoadgenConfig,
    tallies: List[_StreamTally],
    strict: Optional[bool] = None,
) -> Dict[str, object]:
    """Replay the schedule serially on a replica; compare everything.

    Returns a report fragment; raises ``AssertionError`` on any mismatch.
    ``strict`` (default: auto — strict exactly when no chaos is injected)
    controls how much must match:

    * strict — per-tenant response digests, per-shard contents,
      controller stats, memo counters, ``evictions == 0``, and no
      restarts/shedding (those would mean the run wasn't clean).
    * non-strict (chaos) — per-tenant **final** response digests and
      per-shard contents only.  Counter totals legitimately diverge:
      recovery re-executes WAL records and duplicate deliveries are
      answered from the exactly-once cache.
    """
    if config.service.mode is ProtectionMode.COP_ER:
        raise ValueError(
            "parity verification is undefined for COP-ER "
            "(region allocation is global-order dependent)"
        )
    if config.service.admission != "block":
        raise ValueError("parity verification requires admission='block'")
    if strict is None:
        strict = config.service.chaos is None
    if any(tally.exhausted for tally in tallies):
        raise AssertionError(
            "an answer that needed a re-run was recorded as final (retry "
            "budget exhausted); raise retry_attempts — parity cannot hold"
        )
    replica_config = dataclasses.replace(
        config.service, chaos=None, wal_dir=None, supervise=False
    )
    replica = COPService(replica_config)
    replay_tallies = [_StreamTally() for _ in range(config.tenants)]
    for request in interleave(config):
        shard = replica.shards[replica.route(request)]
        response = shard.process_serially([request])[0]
        replay_tallies[request.id >> _ID_SHIFT].record(response, None)

    live_digests = [t.digest.hexdigest() for t in tallies]
    replay_digests = [t.digest.hexdigest() for t in replay_tallies]
    assert live_digests == replay_digests, (
        "per-tenant response streams diverged between the threaded daemon "
        "and the serial replay"
    )
    live_contents = _contents_digests(service)
    replay_contents = _contents_digests(replica)
    assert live_contents == replay_contents, "per-shard contents diverged"
    report: Dict[str, object] = {
        "verified": True,
        "strict": strict,
        "response_digests": live_digests,
        "contents_digests": live_contents,
    }
    if not strict:
        return report
    for live, other in zip(service.shards, replica.shards):
        assert live.memory.stats.as_dict() == other.memory.stats.as_dict(), (
            f"controller stats diverged on shard {live.index}"
        )
    live_memo = _memo_counters(service)
    replay_memo = _memo_counters(replica)
    assert live_memo == replay_memo, (
        f"memo counters diverged: daemon {live_memo} vs replay {replay_memo}"
    )
    assert live_memo["evictions"] == 0, (
        "memo evicted during the run; the counter-parity contract requires "
        "the working set to fit (shrink blocks_per_tenant/content_versions)"
    )
    restarts = _shard_counter_total(service, "restarts")
    shed = _shard_counter_total(service, "deadline_shed") + _shard_counter_total(
        service, "overload_shed"
    )
    assert restarts == 0 and shed == 0, (
        f"strict parity on a non-clean run (restarts={restarts}, "
        f"shed={shed}); pass strict=False (or inject chaos via config)"
    )
    report["memo"] = live_memo
    return report


# -- reporting ----------------------------------------------------------------


@dataclass
class LoadReport:
    """What one load run did and how fast it went."""

    ops: int
    tenants: int
    shards: int
    window: int
    mode: str
    admission: str
    transport: str
    duration_s: float
    throughput_ops_s: float
    latency_us: Dict[str, float]
    statuses: Dict[str, int]
    controller: Dict[str, int]
    memo: Dict[str, int]
    rejected_busy: int
    #: Transient (retried, non-final) statuses summed across tenants.
    transient: Dict[str, int] = field(default_factory=dict)
    #: Self-healing counters: client retries/reconnects/suffix replays and
    #: server restarts/shedding/WAL activity (docs/service.md).
    resilience: Dict[str, int] = field(default_factory=dict)
    #: Canonical chaos spec when fault injection was on (None: clean run).
    chaos: Optional[str] = None
    parity: Optional[Dict[str, object]] = None
    #: Lock-sanitizer counters when the run was sanitized
    #: (``REPRO_SANITIZE=locks``); ``None`` on plain runs so the
    #: deterministic report keys stay identical either way.
    sanitizer: Optional[Dict[str, int]] = None

    def as_dict(self) -> Dict[str, object]:
        return {
            "schema": 2,
            "ops": self.ops,
            "tenants": self.tenants,
            "shards": self.shards,
            "window": self.window,
            "mode": self.mode,
            "admission": self.admission,
            "transport": self.transport,
            "duration_s": self.duration_s,
            "throughput_ops_s": self.throughput_ops_s,
            "latency_us": self.latency_us,
            "statuses": self.statuses,
            "controller": self.controller,
            "memo": self.memo,
            "rejected_busy": self.rejected_busy,
            "transient": self.transient,
            "resilience": self.resilience,
            "chaos": self.chaos,
            "parity": self.parity,
            "sanitizer": self.sanitizer,
        }

    def save(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), indent=2) + "\n")

    def summary(self) -> str:
        lat = self.latency_us
        lines = [
            f"service loadgen: {self.ops} ops, {self.tenants} tenants, "
            f"{self.shards} shards, window {self.window}, "
            f"mode {self.mode}, transport {self.transport}",
            f"  wall {self.duration_s:.2f}s  "
            f"throughput {self.throughput_ops_s:,.0f} ops/s",
            f"  latency us: p50 {lat.get('p50', 0):.1f}  "
            f"p90 {lat.get('p90', 0):.1f}  p99 {lat.get('p99', 0):.1f}  "
            f"max {lat.get('max', 0):.1f}",
            "  statuses: "
            + ", ".join(f"{k}={v}" for k, v in sorted(self.statuses.items())),
            f"  memo: hits={self.memo.get('hits', 0)} "
            f"misses={self.memo.get('misses', 0)} "
            f"evictions={self.memo.get('evictions', 0)}  "
            f"rejected_busy={self.rejected_busy}",
        ]
        if self.chaos is not None:
            res = self.resilience
            lines.append(f"  chaos: {self.chaos}")
            lines.append(
                f"  resilience: restarts={res.get('restarts', 0)} "
                f"worker_crashes={res.get('worker_crashes', 0)} "
                f"retries={res.get('retries', 0)} "
                f"reconnects={res.get('reconnects', 0)} "
                f"conn_drops={res.get('conn_drops', 0)} "
                f"wal_records={res.get('wal_records', 0)} "
                f"wal_replayed={res.get('wal_replayed', 0)}"
            )
        if self.parity is not None:
            mode = "strict" if self.parity.get("strict", True) else "chaos"
            lines.append(
                f"  parity: OK ({mode}; serial replay byte-identical)"
            )
        if self.sanitizer is not None:
            lines.append(
                f"  sanitizer: acquires={self.sanitizer.get('acquires', 0)} "
                f"edges={self.sanitizer.get('edges', 0)} "
                f"cycles={self.sanitizer.get('cycles', 0)} "
                f"guarded_violations={self.sanitizer.get('guarded_violations', 0)}"
            )
        return "\n".join(lines)


def _collect_report(
    config: LoadgenConfig,
    transport: str,
    duration_s: float,
    tallies: List[_StreamTally],
    service: Optional[COPService],
    parity: Optional[Dict[str, object]],
) -> LoadReport:
    samples: List[float] = []
    statuses: Dict[str, int] = {}
    transient: Dict[str, int] = {}
    resilience: Dict[str, int] = {
        "retries": sum(t.retries for t in tallies),
        "reconnects": sum(t.reconnects for t in tallies),
        "replayed": sum(t.replayed for t in tallies),
        "exhausted": sum(t.exhausted for t in tallies),
    }
    for tally in tallies:
        samples.extend(tally.latencies_us)
        for key, count in tally.statuses.items():
            statuses[key] = statuses.get(key, 0) + count
        for key, count in tally.transient.items():
            transient[key] = transient.get(key, 0) + count
    latency = {
        "p50": percentile_of(samples, 50.0),
        "p90": percentile_of(samples, 90.0),
        "p99": percentile_of(samples, 99.0),
        "mean": (sum(samples) / len(samples)) if samples else 0.0,
        "max": max(samples) if samples else 0.0,
    }
    controller: Dict[str, int] = {}
    memo = {"hits": 0, "misses": 0, "evictions": 0}
    rejected = 0
    if service is not None:
        controller = service.merged_stats().as_dict()
        memo = _memo_counters(service)
        rejected = _shard_counter_total(service, "rejected_busy")
        for suffix in (
            "restarts",
            "worker_crashes",
            "retryable",
            "deadline_shed",
            "overload_shed",
            "breaker_trips",
            "dedup_hits",
            "wal_records",
            "wal_commits",
            "wal_replayed",
            "wal_compactions",
        ):
            resilience[suffix] = _shard_counter_total(service, suffix)
        for name in ("conn_drops", "chaos_conn_drops"):
            resilience[name] = service.registry.counter(
                f"service.server.{name}"
            ).value
    chaos = config.service.chaos
    return LoadReport(
        ops=config.ops,
        tenants=config.tenants,
        shards=config.service.shards,
        window=config.window,
        mode=config.service.mode.value,
        admission=config.service.admission,
        transport=transport,
        duration_s=duration_s,
        throughput_ops_s=config.ops / duration_s if duration_s > 0 else 0.0,
        latency_us=latency,
        statuses=statuses,
        controller=controller,
        memo=memo,
        rejected_busy=rejected,
        transient=transient,
        resilience=resilience,
        chaos=chaos.describe() if chaos is not None else None,
        parity=parity,
        sanitizer=lock_sanitizer.report() if lock_sanitizer.enabled() else None,
    )


def run_loadgen(
    config: LoadgenConfig,
    connect: Optional[Tuple[str, int]] = None,
    with_server: bool = False,
    verify: bool = False,
) -> LoadReport:
    """Drive the configured load and (optionally) verify serial parity.

    Three transports:

    * default — in-process :class:`COPService` (the fast path; the 1M-op
      acceptance run uses this),
    * ``with_server=True`` — spin a real TCP daemon on an ephemeral port
      and drive it over sockets (the CI smoke path),
    * ``connect=(host, port)`` — drive an external daemon (no parity:
      its shards aren't reachable for inspection).

    A tenant driver that dies (retry budget exhausted against a downed
    server, say) re-raises here instead of silently producing a partial
    report.
    """
    if verify and connect is not None:
        raise ValueError("--verify needs in-process shard access; drop --connect")
    if lock_sanitizer.enabled():
        # Fresh order graph per run so the report covers exactly this load.
        lock_sanitizer.reset()
    tallies = [_StreamTally() for _ in range(config.tenants)]

    def run_threads(new_link: Callable[[], _Link]) -> float:
        failures: List[BaseException] = []

        def guarded(tenant: int) -> None:
            try:
                link = new_link()
                try:
                    _drive(link, config, tenant, tallies[tenant])
                finally:
                    link.close()
            except BaseException as exc:  # repro: noqa[REP006] - re-raised after join
                failures.append(exc)

        threads = [
            threading.Thread(
                target=guarded, args=(tenant,), name=f"loadgen-t{tenant}"
            )
            for tenant in range(config.tenants)
        ]
        t0 = now_ns()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        if failures:
            raise failures[0]
        return (now_ns() - t0) / 1e9

    def tcp_link(host: str, port: int) -> Callable[[], _Link]:
        return lambda: ServiceClient(host, port, timeout=config.client_timeout)

    if connect is not None:
        duration = run_threads(tcp_link(*connect))
        return _collect_report(config, "tcp", duration, tallies, None, None)

    if with_server:
        server = ServiceServer(COPService(config.service))
        server.start()
        try:
            host, port = server.server_address[0], server.server_address[1]
            duration = run_threads(tcp_link(host, port))
        finally:
            # Every response is in (the drivers drained their windows),
            # so the queues are empty; this joins workers and frees the
            # socket while the shard state stays inspectable.
            server.shutdown_service()
        service = server.service
        parity = verify_parity(service, config, tallies) if verify else None
        return _collect_report(
            config, "tcp+server", duration, tallies, service, parity
        )

    service = COPService(config.service)
    service.start()
    try:
        duration = run_threads(lambda: _InprocessLink(service))
    finally:
        service.stop()
    parity = verify_parity(service, config, tallies) if verify else None
    return _collect_report(config, "inprocess", duration, tallies, service, parity)
