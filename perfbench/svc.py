"""The two COP-service workloads, driven by a closed-loop client of our own.

``svc_tcp_mixed``
    The daemon as deployed: a ``ServiceServer`` over 2 shards with the
    durable WAL, 2 tenants on one TCP connection each, window 32, the
    loadgen's default mix (40% write, 45% read, 8% encode, 7% decode).
    An untraced run starts the server in a child process of its own
    (``serve``), as a daemon runs apart from its clients, so that client
    and server do not share one interpreter lock (over 90 s of rounds,
    the medians of eight rounds spread 4% this way and 11% with both in
    one process).  A traced run keeps the server in the benchmark's
    process, so that one tracer sees both ends.
``svc_inproc_read``
    An in-process ``COPService`` without WAL, 2 tenants, window 32, 97%
    reads over a small arena that a fill phase writes before any timing.

A run is made of *rounds*.  A round starts a fresh deployment (empty
memo, empty WAL), fills the arena if the workload has a fill phase, then
sends ``1 + WARM_BURSTS`` *bursts*: every tenant sends its next
``burst_ops`` requests with at most ``window`` in flight and waits for the
last answer.  The first burst of a round is cold, the others warm.  Every
round replays the same schedule, so rounds repeat identical work; the
schedule comes from ``tenant_requests`` once, before any clock starts, and
the time spent generating it is reported on its own.

Correctness, checked after the clock stops: in every round the per-tenant
response streams and the final per-shard contents equal a serial replay of
the schedule (one request per batch, on a fresh replica), and
``not-written`` never answers a read of an address whose write was
acknowledged (without refusals, exactly the reads aimed at the
never-written half of an arena may see it).  A request refused with a status that proves it had no effect
(``busy``, ``retryable``, ``deadline-exceeded``, ``overloaded``, or
``internal`` on anything but a write) counts as failed and is left out of
both the round's response stream and its replay, so a refusal shows in
``failed_frac`` without breaking parity.  Every other status must be
reproduced by the replay.
"""

from __future__ import annotations

import dataclasses
import hashlib
import itertools
import json
import resource
import shutil
import subprocess
import sys
import time
from array import array
from collections import deque
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: Closed-loop window: the memory controller's fixed set of outstanding misses.
WINDOW = 32
TENANTS = 2
SHARDS = 2
#: Warm bursts after the cold one in each round.
WARM_BURSTS = 2
#: Fewest rounds an untraced run makes, so that the cold burst has a median.
MIN_ROUNDS = 3


@dataclass(frozen=True)
class Spec:
    transport: str  # "tcp" or "inproc"
    wal: bool
    #: Requests per tenant in one burst.
    burst_ops: int
    #: Requests per tenant run before any timing in each round (arena fill).
    fill_ops: int
    loadgen: Dict[str, object]


SPECS = {
    "svc_tcp_mixed": Spec(
        transport="tcp", wal=True, burst_ops=1250, fill_ops=0, loadgen={}
    ),
    "svc_inproc_read": Spec(
        transport="inproc",
        wal=False,
        burst_ops=12000,
        fill_ops=10000,
        loadgen=dict(
            write_fraction=0.03,
            read_fraction=0.97,
            encode_fraction=0.0,
            blocks_per_tenant=64,
        ),
    ),
}


def loadgen_config(spec: Spec, seed: int, per_tenant: int, wal_dir: Optional[Path]):
    from repro.service.loadgen import LoadgenConfig
    from repro.service.shard import ServiceConfig

    service = ServiceConfig(
        shards=SHARDS, wal_dir=str(wal_dir) if wal_dir is not None else None
    )
    return LoadgenConfig(
        ops=per_tenant * TENANTS,
        tenants=TENANTS,
        window=WINDOW,
        seed=seed,
        service=service,
        **spec.loadgen,
    )


def wal_dir(work_dir: Path, name: str, seed: int) -> Optional[Path]:
    """The WAL directory of a workload's deployments (``None``: no WAL)."""
    return work_dir / f"wal-{name}-{seed}" if SPECS[name].wal else None


class Deployment:
    """A started service, plus one client per tenant for TCP.

    The service runs in this process, or, given ``server_command``, in a
    child process running ``serve``.
    """

    def __init__(self, spec: Spec, config, server_command=None) -> None:
        from repro.service.server import COPService, ServiceClient, ServiceServer

        self.spec = spec
        self.server = self.service = self.process = None
        self.clients: list = []
        #: Per tenant, the responses of the chunk driven last.
        self.responses: List[list] = []
        #: Peak resident memory of the server child, once it has ended.
        self.child_peak_rss_mb: Optional[float] = None
        try:
            if server_command is not None:
                self.process = subprocess.Popen(
                    server_command, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True
                )
                address = ("127.0.0.1", int(self.process.stdout.readline()))
            elif spec.transport == "tcp":
                self.server = ServiceServer(COPService(config.service))
                self.server.start()
                self.service = self.server.service
                address = self.server.server_address[:2]
            else:
                self.service = COPService(config.service)
                self.service.start()
            if spec.transport == "tcp":
                self.clients = [ServiceClient(*address) for _ in range(TENANTS)]
        except BaseException:
            self.close()
            raise

    def close(self) -> List[str]:
        """Stop the service; returns its final per-shard contents digests."""
        for client in self.clients:
            client.close()
        if self.process is not None:
            try:
                out, _ = self.process.communicate(timeout=60)
            finally:
                if self.process.poll() is None:
                    self.process.kill()
                self.process.wait()
            if self.process.returncode != 0:
                raise RuntimeError(f"server child exited with {self.process.returncode}")
            final = json.loads(out.strip().splitlines()[-1])
            self.child_peak_rss_mb = final["peak_rss_mb"]
            return final["contents"]
        if self.service is None:
            return []
        contents = _contents_digests(self.service)
        if self.server is not None:
            self.server.shutdown_service()
        else:
            self.service.stop()
        return contents


def deploy(spec: Spec, wal_dir: Path) -> Deployment:
    """Config plus a started deployment, as the set-up probe times it."""
    return Deployment(spec, loadgen_config(spec, 0, 1, wal_dir if spec.wal else None))


def serve(name: str, seed: int, work_dir: Path) -> None:
    """Body of a server child: start the workload's ``ServiceServer``,
    print its port, serve until standard input closes, then print the
    final shard contents digests and this process's peak memory as one
    JSON line."""
    from repro.service.server import COPService, ServiceServer

    config = loadgen_config(SPECS[name], seed, 1, wal_dir(work_dir, name, seed))
    server = ServiceServer(COPService(config.service))
    server.start()
    try:
        print(server.server_address[1], flush=True)
        sys.stdin.read()
        contents = _contents_digests(server.service)
    finally:
        server.shutdown_service()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps({"contents": contents, "peak_rss_mb": peak_rss_mb}), flush=True)


# -- closed-loop driver -------------------------------------------------------------


class _Tenant:
    """One tenant's side of the closed loop: its requests and what is in flight."""

    def __init__(self, deployment: Deployment, tenant: int, requests: list) -> None:
        self.client = deployment.clients[tenant] if deployment.clients else None
        self.service = deployment.service
        self.requests = iter(requests)
        self.in_flight: deque = deque()
        self.responses = deployment.responses[tenant]
        self.exhausted = False

    def send_next(self) -> None:
        request = next(self.requests, None)
        if request is None:
            self.exhausted = True
        elif self.client is not None:
            self.in_flight.append((request, time.perf_counter_ns()))
            self.client.send(request)
        else:
            sent = time.perf_counter_ns()
            self.in_flight.append((request, sent, self.service.submit(request)))

    def complete_head(self, latencies, errors) -> None:
        head = self.in_flight.popleft()
        if self.client is not None:
            response = self.client.recv()
        else:
            response = head[2].result()
        latencies.append(time.perf_counter_ns() - head[1])
        if response.id != head[0].id:
            errors.append(f"response id {response.id} for request {head[0].id}")
        self.responses.append(response)


class _Round:
    """What one round's answers are checked against as they are folded in."""

    def __init__(self) -> None:
        self.digests = [hashlib.sha256() for _ in range(TENANTS)]
        #: Ids of the requests refused without effect.
        self.refused: set = set()
        #: Addresses with an acknowledged write.
        self.written: set = set()


class ServiceRun:
    """One workload instance: the schedule, its rounds, verification."""

    def __init__(self, name: str, seed: int, work_dir: Path) -> None:
        from repro.service.loadgen import tenant_requests

        self.spec = spec = SPECS[name]
        self.wal_dir = wal_dir(work_dir, name, seed)
        self.per_tenant = spec.fill_ops + (1 + WARM_BURSTS) * spec.burst_ops
        self.config = loadgen_config(spec, seed, self.per_tenant, self.wal_dir)
        start = time.perf_counter()
        streams = [tenant_requests(self.config, t) for t in range(TENANTS)]
        self.fill = [list(itertools.islice(s, spec.fill_ops)) for s in streams]
        self.bursts = [
            [list(itertools.islice(s, spec.burst_ops)) for s in streams]
            for _ in range(1 + WARM_BURSTS)
        ]
        self.generate_s = time.perf_counter() - start
        self.attempted = self.failed = 0
        self.problems: List[str] = []
        #: Per round: the tenants' response digests, the shard contents and
        #: the ids of the requests refused without effect.
        self.round_digests: List[List[str]] = []
        self.round_contents: List[List[str]] = []
        self.round_refused: List[frozenset] = []
        #: Peak memory of each round's server child, if it had one.
        self.server_peak_rss_mb: List[float] = []

    # -- one round -------------------------------------------------------------

    def run_round(self, tracers: Sequence = (), server_command=None) -> List[dict]:
        """Fresh deployment, fill, then the cold and the warm bursts.

        ``tracers[k]``, when given and not ``None``, traces burst ``k``;
        ``server_command`` starts the server in a child process.  Returns
        one pass per burst: wall seconds, ops, per-op latencies (ns) and
        the registry/controller counters around it (``None`` when the
        service runs in a child).
        """
        if self.wal_dir is not None:
            shutil.rmtree(self.wal_dir, ignore_errors=True)
        deployment = Deployment(self.spec, self.config, server_command)
        state = _Round()
        passes = []
        try:
            if self.spec.fill_ops:
                self._drive(deployment, self.fill)
                self._fold(self.fill, deployment.responses, state, timed=False)
            for k, burst in enumerate(self.bursts):
                tracer = tracers[k] if k < len(tracers) else None
                before = _counters(deployment.service)
                with tracer.traced() if tracer is not None else nullcontext():
                    wall_s, latencies = self._drive(deployment, burst)
                passes.append(
                    {
                        "wall_s": wall_s,
                        "ops": len(burst[0]) * TENANTS,
                        "latencies_ns": latencies,
                        "counters": (before, _counters(deployment.service)),
                    }
                )
                self._fold(burst, deployment.responses, state, timed=True)
        finally:
            contents = deployment.close()
            if self.wal_dir is not None:
                shutil.rmtree(self.wal_dir, ignore_errors=True)
        self.round_contents.append(contents)
        if deployment.child_peak_rss_mb is not None:
            self.server_peak_rss_mb.append(deployment.child_peak_rss_mb)
        self.round_digests.append([d.hexdigest() for d in state.digests])
        self.round_refused.append(frozenset(state.refused))
        return passes

    def _drive(self, deployment: Deployment, chunk: List[list]):
        """Drive every tenant's part of ``chunk`` from this one thread.

        The tenants take turns: each completes its oldest request once it
        has ``WINDOW`` in flight (or nothing left to send), then sends its
        next.  Returns the wall seconds and the merged per-op latencies (ns).
        """
        deployment.responses = [[] for _ in range(TENANTS)]
        tenants = [_Tenant(deployment, t, chunk[t]) for t in range(TENANTS)]
        latencies = array("q")
        start = time.perf_counter_ns()
        try:
            while any(not t.exhausted or t.in_flight for t in tenants):
                for tenant in tenants:
                    if tenant.in_flight and (
                        tenant.exhausted or len(tenant.in_flight) >= WINDOW
                    ):
                        tenant.complete_head(latencies, self.problems)
                    if not tenant.exhausted:
                        tenant.send_next()
        except Exception as exc:  # reported as a failed check, never swallowed
            self.problems.append(f"{type(exc).__name__}: {exc}")
        return (time.perf_counter_ns() - start) / 1e9, latencies

    def _fold(self, chunk, responses, state: _Round, timed: bool) -> None:
        """Digest a chunk's responses and account its failures.

        Every status but ``ok`` is a failure, except ``not-written`` on a
        read of an address without an acknowledged write; ``not-written``
        after an acknowledged write is a correctness problem.  A request
        refused without effect goes into ``state.refused`` instead of the
        digest.
        """
        from repro.service.protocol import Status
        from repro.service.server import retry_safe

        for tenant in range(TENANTS):
            requests, answers = chunk[tenant], responses[tenant]
            if len(answers) != len(requests):
                self.problems.append(
                    f"tenant {tenant}: {len(answers)} responses "
                    f"for {len(requests)} requests"
                )
            digest = state.digests[tenant]
            for request, response in zip(requests, answers):
                status = response.status
                if status is not Status.OK and retry_safe(request.op, status):
                    state.refused.add(request.id)
                else:
                    digest.update(response.to_json().encode("utf-8"))
                    digest.update(b"\n")
                if status is Status.OK:
                    if request.op == "write":
                        state.written.add(request.addr)
                    continue
                if status is Status.NOT_WRITTEN:
                    if request.op == "read" and request.addr not in state.written:
                        continue
                    self.problems.append(
                        f"not-written on written address {request.addr:#x} "
                        f"(tenant {tenant}, request {request.id})"
                    )
                if timed:
                    self.failed += 1
            if timed:
                self.attempted += len(requests)

    # -- verification (after the clock) ---------------------------------------

    def verify(self) -> List[str]:
        """Serial-replay parity of every round's responses and contents."""
        problems = list(self.problems)
        if problems:
            return problems
        replays: Dict[frozenset, tuple] = {}
        for number, (digests, stored, refused) in enumerate(
            zip(self.round_digests, self.round_contents, self.round_refused)
        ):
            if refused not in replays:
                replays[refused] = self._replay(refused)
            expected, contents = replays[refused]
            for tenant in range(TENANTS):
                if digests[tenant] != expected[tenant]:
                    problems.append(
                        f"round {number}, tenant {tenant}: responses differ "
                        "from serial replay"
                    )
            if stored != contents:
                problems.append(
                    f"round {number}: final shard contents differ from serial replay"
                )
        return problems

    def _replay(self, refused: frozenset):
        """Response digests and shard contents of a serial replay of the
        schedule without the ``refused`` requests, on a fresh replica."""
        from repro.service.server import COPService

        replica = COPService(
            dataclasses.replace(
                self.config.service, wal_dir=None, supervise=False, chaos=None
            )
        )
        digests = []
        for tenant in range(TENANTS):
            replayed = hashlib.sha256()
            schedule = itertools.chain(
                self.fill[tenant], *(burst[tenant] for burst in self.bursts)
            )
            for request in schedule:
                if request.id in refused:
                    continue
                shard = replica.shards[replica.route(request)]
                (response,) = shard.process_serially([request])
                replayed.update(response.to_json().encode("utf-8"))
                replayed.update(b"\n")
            digests.append(replayed.hexdigest())
        return digests, _contents_digests(replica)


def _counters(service):
    """Merged registry snapshot and controller stats of a live service in
    this process (``None`` for one in a child)."""
    if service is None:
        return None
    return service.merged_registry().snapshot(), service.merged_stats().as_dict()


def _contents_digests(service) -> List[str]:
    digests = []
    for shard in service.shards:
        h = hashlib.sha256()
        contents = shard.memory.contents
        for addr in sorted(contents):
            h.update(addr.to_bytes(8, "little"))
            h.update(contents[addr])
        digests.append(h.hexdigest())
    return digests


# -- per-layer counters from the program's own registries ----------------------


def _hist_delta(before: dict, after: dict):
    """Histogram of the observations made between two snapshots."""
    from repro.obs.metrics import Histogram

    merged = Histogram("delta")
    count = after.get("count", 0) - before.get("count", 0)
    if count <= 0:
        return merged
    buckets = dict(after.get("buckets", {}))
    for key, n in before.get("buckets", {}).items():
        buckets[key] = buckets.get(key, 0) - n
    merged.merge_dict(
        {
            "count": count,
            "total": after.get("total", 0.0) - before.get("total", 0.0),
            "min": 0.0,
            "max": float("inf"),
            "buckets": {k: n for k, n in buckets.items() if n > 0},
        }
    )
    return merged


def registry_metrics(before: dict, after: dict) -> Dict[str, float]:
    """Shard/WAL/memo counters accumulated between two registry snapshots."""
    from repro.obs.metrics import Histogram

    def counter_sum(suffix: str) -> int:
        total = 0
        for name, value in after.get("counters", {}).items():
            if name.startswith("service.shard.") and name.endswith("." + suffix):
                if name.count(".") == 3:  # service.shard.<i>.<suffix>
                    total += value - before.get("counters", {}).get(name, 0)
        return total

    def hist_merged(suffix: str):
        merged = Histogram("merged")
        for name, data in after.get("histograms", {}).items():
            if name.startswith("service.shard.") and name.endswith("." + suffix):
                delta = _hist_delta(before.get("histograms", {}).get(name, {}), data)
                merged.merge_dict(delta.as_dict())
        return merged

    def plain(name: str) -> int:
        return after.get("counters", {}).get(name, 0) - before.get(
            "counters", {}
        ).get(name, 0)

    batch = hist_merged("batch_blocks")
    latency = hist_merged("latency_us")
    commits = counter_sum("wal_commits")
    records = counter_sum("wal_records")
    hits, misses = plain("kernels.memo.hits"), plain("kernels.memo.misses")
    return {
        "service.shard.batches": counter_sum("batches"),
        "service.shard.batch_blocks_mean": batch.mean,
        "service.shard.latency_p50_us": latency.percentile(50.0),
        "service.wal.commits": commits,
        "service.wal.records_per_commit": records / commits if commits else 0.0,
        "kernels.memo_lookups": hits + misses,
        "kernels.memo_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "client.rejected_busy": counter_sum("rejected_busy"),
    }
