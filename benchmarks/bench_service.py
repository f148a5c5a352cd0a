"""Throughput benchmarks of the COP service daemon (repro.service).

Trajectory cases for ``cop-experiments bench --suite service``: the
threaded sharded daemon under a deterministic mixed-tenant burst, the
serial replay pipeline it is parity-checked against, the raw
in-process request path without the loadgen driver, and the write path
with and without the durable WAL.  No paper counterpart — these track
the reproduction's service front end the same way the kernels suite
tracks its codecs.

``test_wal_write_path_overhead_under_10_percent`` is the CI guard for
the resilience layer's durability tax: per accepted write the WAL adds
one framed append plus its share of a group commit (one fdatasync per
drained batch), and that must stay below 10% of a cold (memo-miss)
write.  The guard measures the two costs directly and compares them —
an end-to-end A/B delta of two threaded runs drowns in scheduler noise
on a busy host, a component ratio does not (same idiom as
``bench_resilience_overhead.py``).
"""

import random
import tempfile
from concurrent.futures import Future

from repro.bench import perf_case
from repro.obs.perf import measure, now_ns
from repro.service import (
    COPService,
    LoadgenConfig,
    Request,
    ServiceConfig,
    ShardWAL,
    run_loadgen,
)
from repro.service.loadgen import interleave
from repro.service.shard import Shard, _Work


def _config(ops):
    # Small arenas keep the schedule warm-up (first-touch compression
    # probes) from dominating what should be a steady-state number.
    return LoadgenConfig(
        ops=ops,
        tenants=4,
        window=32,
        blocks_per_tenant=128,
        service=ServiceConfig(shards=4),
    )


@perf_case(suite="service")
def service_threaded_loadgen():
    """4 tenant threads x 4 shards, in-process, 8k mixed ops per repeat."""
    config = _config(8_000)
    run_loadgen(config)  # warm the schedule caches outside the timing
    return lambda: run_loadgen(config)


@perf_case(suite="service")
def service_serial_replay():
    """The parity baseline: same schedule, one request per batch."""
    config = _config(8_000)
    requests = list(interleave(config))

    def replay():
        replica = COPService(config.service)
        for request in requests:
            replica.shards[replica.route(request)].process_serially([request])

    replay()
    return replay


_WAL_BATCH = 512
_WAL_OPS = 2_048


def _write_requests(ops, fresh_rng=None):
    """Deterministic write burst: half compressible, half random blocks."""
    rng = fresh_rng or random.Random(7)
    requests = []
    for i in range(ops):
        if i % 2:
            data = (b"w%05d" % (i % 2048)).ljust(64, b".")
        else:
            data = rng.randbytes(64)
        requests.append(Request("write", id=i, addr=(i % 512) * 64, data=data))
    return requests


def _drive_writes(shard, requests):
    """Push ``requests`` through the shard's batch path, full batches."""
    for start in range(0, len(requests), _WAL_BATCH):
        work = [
            _Work(request=request, future=Future(), enqueue_ns=now_ns())
            for request in requests[start : start + _WAL_BATCH]
        ]
        shard._process(work)
        for item in work:
            assert item.future.result().status.name == "OK"


def _write_burst_case(wal_dir):
    config = ServiceConfig(
        shards=1,
        batch_max=_WAL_BATCH,
        queue_depth=8192,
        wal_dir=wal_dir,
        supervise=False,
    )
    shard = Shard(0, config)
    requests = _write_requests(4_096)
    _drive_writes(shard, requests)  # warm the memo outside the timing
    return lambda: _drive_writes(shard, requests)


@perf_case(suite="service")
def service_write_path_plain():
    """4k-write burst through one shard's batch path, no WAL."""
    return _write_burst_case(None)


@perf_case(suite="service")
def service_write_path_wal():
    """The same burst with the durable WAL group-committing per batch."""
    tmp = tempfile.TemporaryDirectory()  # lives as long as the closure
    inner = _write_burst_case(tmp.name)

    def burst(_tmp=tmp):
        inner()

    return burst


def test_wal_write_path_overhead_under_10_percent(tmp_path):
    """Per accepted write, WAL append + group commit < 10% of the write.

    Numerator: the full WAL cost per record — framed append plus the
    amortized flush+fdatasync of a ``_WAL_BATCH``-record group commit —
    timed directly against a real journal file.  Denominator: a cold
    (memo-miss) write through the shard's drain path, one scalar encode
    per write, timed over distinct random palettes so the codec memo
    never amortizes the encode away.
    """
    rng = random.Random(7)
    shard = Shard(
        0,
        ServiceConfig(
            shards=1, batch_max=_WAL_BATCH, queue_depth=8192, supervise=False
        ),
    )
    cold_runs = []
    for round_index in range(5):
        # Unique content per round keeps every encode a memo miss.
        requests = [
            Request("write", id=i, addr=(i % 512) * 64, data=rng.randbytes(64))
            for i in range(_WAL_OPS)
        ]
        start_ns = now_ns()
        _drive_writes(shard, requests)
        cold_runs.append(now_ns() - start_ns)
    write_ns = min(cold_runs) / _WAL_OPS

    wal = ShardWAL(tmp_path / "bench.wal")
    datas = [rng.randbytes(64) for _ in range(_WAL_BATCH)]

    def wal_batch():
        for i, data in enumerate(datas):
            wal.append(i, i * 64, data)
        wal.commit()

    stats = measure(wal_batch, repeats=7, warmup=2)
    wal_ns = stats.min_ns / _WAL_BATCH
    wal.close()

    fraction = wal_ns / write_ns
    print(
        f"\ncold write {write_ns:.0f} ns; wal append+commit {wal_ns:.0f} ns "
        f"per record ({100 * fraction:.1f}%)"
    )
    assert fraction < 0.10


@perf_case(suite="service", inner=4)
def service_submit_path():
    """Raw submit/result round-trips on a started service (1k pings)."""
    service = COPService(ServiceConfig(shards=4))
    service.start()
    pings = [Request("ping", id=i) for i in range(1_000)]

    def burst():
        futures = [service.submit(request) for request in pings]
        for future in futures:
            future.result()

    burst()
    return burst
