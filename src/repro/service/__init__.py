"""COP-as-a-service: a sharded, concurrent protected-memory daemon.

The paper's controller is pure per-block logic, which makes it trivially
shardable: this package fronts ``N`` independent
:class:`~repro.core.controller.ProtectedMemory` instances (shard =
address hash) with bounded queues, drains each shard's in-flight
requests in micro-batches that execute through a memoised scalar codec
and share one WAL group commit, and serves clients over
newline-delimited JSON on TCP.

The service is self-healing: each shard journals acknowledged writes to
an append-only write-ahead log, a worker that dies replays its WAL and
resumes serving on its own thread, clients retry with
deterministic seeded backoff, and ``REPRO_CHAOS`` can inject
service-layer faults (worker kills, delays, connection drops) to prove
all of it under load.

* :mod:`repro.service.protocol` — requests, typed response statuses, wire format
* :mod:`repro.service.shard` — single-owner shard workers + micro-batch drain
* :mod:`repro.service.wal` — per-shard durable write-ahead log (COPW1)
* :mod:`repro.service.chaos` — deterministic service-layer fault injection
* :mod:`repro.service.server` — in-process facade, TCP front end, client
* :mod:`repro.service.loadgen` — deterministic mixed-tenant load + parity check

See docs/service.md for the architecture, the parity contract, and the
resilience model (status table, retry matrix, WAL format).
"""

from repro.service.chaos import ChaosWorkerKill, ServiceChaosConfig
from repro.service.loadgen import LoadgenConfig, LoadReport, run_loadgen
from repro.service.protocol import ProtocolError, Request, Response, Status
from repro.service.server import (
    COPService,
    RetryPolicy,
    ServiceClient,
    ServiceServer,
    parse_host_port,
    retry_safe,
)
from repro.service.shard import (
    Reply,
    ServiceConfig,
    Shard,
    route_request,
    shard_of_addr,
    shard_of_data,
)
from repro.service.wal import ShardWAL, WalRecord

__all__ = [
    "COPService",
    "ChaosWorkerKill",
    "LoadReport",
    "LoadgenConfig",
    "ProtocolError",
    "Reply",
    "Request",
    "Response",
    "RetryPolicy",
    "ServiceChaosConfig",
    "ServiceClient",
    "ServiceConfig",
    "ServiceServer",
    "Shard",
    "ShardWAL",
    "Status",
    "WalRecord",
    "parse_host_port",
    "retry_safe",
    "route_request",
    "run_loadgen",
    "shard_of_addr",
    "shard_of_data",
]
