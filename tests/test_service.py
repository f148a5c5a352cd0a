"""Tests for the COP service daemon (repro.service).

Covers the wire protocol, deterministic routing, single-op semantics
with typed error statuses, the one-shot reply each request is answered
through, backpressure, clean shutdown, the TCP front end, and — the
heart of the suite — the concurrency parity suite: N client threads
against the sharded daemon must produce byte-identical contents,
controller stats and memo counters to a serial replay.
"""

from __future__ import annotations

import threading
import time

import pytest

from repro.core.codec import COPCodec
from repro.core.controller import ProtectionMode
from repro.service import (
    COPService,
    LoadgenConfig,
    ProtocolError,
    Reply,
    Request,
    Response,
    ServiceChaosConfig,
    ServiceClient,
    ServiceConfig,
    ServiceServer,
    Shard,
    Status,
    parse_host_port,
    run_loadgen,
    shard_of_addr,
    shard_of_data,
)
from repro.service.loadgen import interleave, tenant_requests


@pytest.fixture
def service():
    svc = COPService(ServiceConfig(shards=2, queue_depth=64))
    svc.start()
    yield svc
    svc.stop()


def _compressible(tag: bytes = b"hello") -> bytes:
    return tag.ljust(64, b".")


def _incompressible(seed: int = 9) -> bytes:
    import random

    return random.Random(seed).randbytes(64)


class TestProtocol:
    def test_request_roundtrip(self):
        request = Request("write", id=7, addr=128, data=bytes(64), tenant="t0")
        clone = Request.from_json(request.to_json())
        assert clone == request

    def test_response_roundtrip(self):
        response = Response(
            id=3,
            status=Status.OK,
            data=b"\x01" * 64,
            compressed=True,
            valid_codewords=4,
        )
        clone = Response.from_json(response.to_json())
        assert clone == response

    def test_rejects_unknown_op(self):
        with pytest.raises(ProtocolError):
            Request.from_wire({"op": "explode"})

    def test_rejects_bad_types(self):
        with pytest.raises(ProtocolError):
            Request.from_wire({"op": "read", "addr": "not-an-int"})
        with pytest.raises(ProtocolError):
            Request.from_wire({"op": "write", "data": "zz-not-hex"})
        with pytest.raises(ProtocolError):
            Request.from_wire({"op": "ping", "id": "seven"})

    def test_rejects_non_json_and_non_object(self):
        with pytest.raises(ProtocolError):
            Request.from_json("this is not json")
        with pytest.raises(ProtocolError):
            Request.from_json("[1, 2, 3]")

    def test_parse_host_port(self):
        assert parse_host_port("10.0.0.1:9999") == ("10.0.0.1", 9999)
        assert parse_host_port("localhost", default_port=7457) == (
            "localhost",
            7457,
        )
        with pytest.raises(ValueError):
            parse_host_port("host:not-a-port")


class TestRouting:
    def test_addr_routing_is_stable_and_block_granular(self):
        for addr in range(0, 64 * 512, 64):
            home = shard_of_addr(addr, 4)
            assert home == shard_of_addr(addr, 4)
            assert 0 <= home < 4
            # Byte offsets within one block land on the same shard.
            assert shard_of_addr(addr + 63, 4) == home

    def test_addr_routing_spreads_dense_ranges(self):
        homes = {shard_of_addr(addr * 64, 4) for addr in range(64)}
        assert homes == {0, 1, 2, 3}

    def test_data_routing_is_content_deterministic(self):
        block = _incompressible(3)
        assert shard_of_data(block, 4) == shard_of_data(bytes(block), 4)

    def test_service_routes_all_ops(self):
        svc = COPService(ServiceConfig(shards=4))
        write = Request("write", id=1, addr=640, data=bytes(64))
        read = Request("read", id=2, addr=640)
        assert svc.route(write) == svc.route(read)
        encode = Request("encode", id=3, data=_incompressible(4))
        decode = Request("decode", id=4, data=_incompressible(4))
        assert svc.route(encode) == svc.route(decode)


class TestSingleOps:
    def test_write_read_roundtrip(self, service):
        data = _compressible()
        write = service.call(Request("write", id=1, addr=0, data=data))
        assert write.status is Status.OK and write.compressed
        read = service.call(Request("read", id=2, addr=0))
        assert read.status is Status.OK
        assert read.data == data and read.compressed

    def test_read_not_written_is_typed(self, service):
        response = service.call(Request("read", id=1, addr=64 * 999))
        assert response.status is Status.NOT_WRITTEN
        assert "never written" in response.error
        shard = service.shards[service.route(Request("read", id=1, addr=64 * 999))]
        assert shard.memory.stats.read_misses == 1

    def test_alias_write_rejected_with_typed_status(self, service, codec4, rng):
        words = [
            codec4.code.encode(rng.getrandbits(120)) ^ mask
            for mask in codec4.masks
        ]
        alias_block = b"".join(w.to_bytes(16, "little") for w in words)
        response = service.call(
            Request("write", id=1, addr=0, data=alias_block)
        )
        assert response.status is Status.ALIAS_REJECT

    def test_bad_requests_are_typed(self, service):
        cases = [
            Request("write", id=1, addr=7, data=bytes(64)),  # unaligned
            Request("write", id=2, addr=0, data=b"short"),  # bad length
            Request("write", id=3, addr=0),  # missing data
            Request("read", id=4),  # missing addr
            Request("read", id=5, addr=-64),  # negative
            Request("encode", id=6),  # missing data
        ]
        for request in cases:
            assert service.call(request).status is Status.BAD_REQUEST
        assert service.call(Request("ping", id=7)).status is Status.OK

    def test_stats_op_not_served_by_shards(self, service):
        # Reaching a shard directly with "stats" (bypassing the front
        # end) earns a typed rejection, not a hang or a crash.
        response = service.shards[0].call(Request("stats", id=1))
        assert response.status is Status.BAD_REQUEST

    def test_metadata_region_addr_rejected(self, service):
        base = service.shards[0].memory.region_base
        response = service.call(Request("read", id=1, addr=base))
        assert response.status is Status.BAD_REQUEST
        assert "ECC metadata region" in response.error

    def test_stateless_encode_decode_roundtrip(self, service):
        data = _compressible(b"stateless")
        encoded = service.call(Request("encode", id=1, data=data))
        assert encoded.status is Status.OK and encoded.compressed
        decoded = service.call(Request("decode", id=2, data=encoded.data))
        assert decoded.status is Status.OK
        assert decoded.data == data and decoded.compressed

    def test_encode_matches_scalar_codec(self, service):
        data = _incompressible(5)
        response = service.call(Request("encode", id=1, data=data))
        expected = COPCodec().encode(data)
        assert response.data == expected.stored
        assert response.compressed == expected.compressed

    def test_stats_answered_by_front_end(self, service):
        service.call(Request("write", id=1, addr=0, data=_compressible()))
        response = service.call(Request("stats", id=2))
        assert response.status is Status.OK
        assert response.payload["controller"]["writes"] == 1
        assert response.payload["shards"] == 2


class TestReply:
    def test_answer_from_another_thread_wakes_a_blocked_result(self):
        reply = Reply()
        got = []
        waiter = threading.Thread(target=lambda: got.append(reply.result()))
        waiter.start()
        time.sleep(0.05)  # let the waiter park in result()
        assert got == []
        reply.set_result(Response(id=3, status=Status.OK))
        waiter.join(timeout=5)
        assert not waiter.is_alive()
        assert got == [Response(id=3, status=Status.OK)]

    def test_result_times_out_when_unanswered(self):
        reply = Reply()
        with pytest.raises(TimeoutError):
            reply.result(timeout=0.01)
        with pytest.raises(TimeoutError):
            reply.result(timeout=0)
        # A timed-out wait leaves the reply answerable.
        reply.set_result(Response(id=1, status=Status.OK))
        assert reply.result(timeout=0).status is Status.OK

    def test_done_only_after_the_answer(self):
        reply = Reply()
        assert not reply.done()
        reply.set_result(Response(id=1, status=Status.OK))
        assert reply.done()
        assert Reply(Response(id=2, status=Status.BUSY)).done()

    def test_second_answer_never_replaces_the_first(self):
        reply = Reply()
        first = Response(id=1, status=Status.OK)
        reply.set_result(first)
        reply.set_result(Response(id=1, status=Status.SHUTDOWN, error="late"))
        assert reply.result() is first
        assert reply.result(timeout=1) is first

    def test_stop_answers_queued_and_in_flight_replies_shutdown(self):
        # Every op kills the worker, so the first drained batch stays in
        # flight and the rest stays queued until stop() answers both.
        config = ServiceConfig(
            shards=1,
            batch_max=2,
            supervise=False,
            chaos=ServiceChaosConfig(worker_kill=1.0),
        )
        shard = Shard(0, config)
        replies = [shard.submit(Request("ping", id=i)) for i in range(5)]
        shard.start()
        deadline = time.monotonic() + 5
        while shard.health()["alive"] and time.monotonic() < deadline:
            time.sleep(0.005)
        assert not shard.health()["alive"]
        assert len(shard._inflight) == 2
        assert shard.health()["queue_depth"] == 3
        assert not any(reply.done() for reply in replies)
        shard.stop()
        statuses = [reply.result(timeout=1).status for reply in replies]
        assert statuses == [Status.SHUTDOWN] * 5


class TestBackpressureAndShutdown:
    def test_reject_admission_returns_busy(self):
        config = ServiceConfig(shards=1, queue_depth=2, admission="reject")
        shard = Shard(0, config)  # never started, so the queue only fills
        futures = [shard.submit(Request("ping", id=i)) for i in range(4)]
        overflow = [f.result(timeout=1).status for f in futures if f.done()]
        assert overflow == [Status.BUSY, Status.BUSY]
        assert (
            shard.registry.counter("service.shard.0.rejected_busy").value == 2
        )
        shard.stop()  # drains the two queued pings...
        drained = [f.result(timeout=1).status for f in futures[:2]]
        assert drained == [Status.SHUTDOWN, Status.SHUTDOWN]  # ...typed

    def test_submit_after_stop_is_shutdown(self):
        service = COPService(ServiceConfig(shards=1))
        service.start()
        assert service.call(Request("ping", id=1)).status is Status.OK
        service.stop()
        response = service.call(Request("ping", id=2))
        assert response.status is Status.SHUTDOWN

    def test_stop_completes_queued_work(self):
        service = COPService(ServiceConfig(shards=2))
        service.start()
        futures = [
            service.submit(
                Request("write", id=i, addr=i * 64, data=_compressible())
            )
            for i in range(64)
        ]
        service.stop()
        assert all(f.result(timeout=5).status is Status.OK for f in futures)

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ServiceConfig(shards=0)
        with pytest.raises(ValueError):
            ServiceConfig(admission="drop")
        with pytest.raises(ValueError):
            LoadgenConfig(ops=0)
        with pytest.raises(ValueError):
            LoadgenConfig(write_fraction=0.9, read_fraction=0.9)


class TestTCPFrontEnd:
    def test_tcp_roundtrip_and_malformed_lines(self):
        with ServiceServer(COPService(ServiceConfig(shards=2))) as server:
            host, port = server.server_address
            with ServiceClient(host, port) as client:
                data = _compressible(b"over tcp")
                assert client.call(
                    Request("write", id=1, addr=0, data=data)
                ).ok
                read = client.call(Request("read", id=2, addr=0))
                assert read.data == data
                client._sock.sendall(b"garbage\n")
                assert client.recv().status is Status.BAD_REQUEST
                # The connection survives a malformed line.
                assert client.call(Request("ping", id=3)).ok

    def test_tcp_pipelining_preserves_order(self):
        with ServiceServer(COPService(ServiceConfig(shards=2))) as server:
            host, port = server.server_address
            with ServiceClient(host, port) as client:
                requests = [
                    Request("write", id=i, addr=i * 64, data=_compressible())
                    for i in range(40)
                ] + [Request("read", id=100 + i, addr=i * 64) for i in range(40)]
                window, responses = 16, []
                for i, request in enumerate(requests):
                    if i >= window:
                        responses.append(client.recv())
                    client.send(request)
                responses += [client.recv() for _ in range(window)]
                assert [r.id for r in responses] == [r.id for r in requests]
                assert all(r.ok for r in responses)


class TestConcurrencyParity:
    """N threads against the daemon == serial replay, byte for byte."""

    def _config(self, **overrides):
        defaults = dict(
            ops=6_000,
            tenants=6,
            window=32,
            blocks_per_tenant=96,
            service=ServiceConfig(shards=4, queue_depth=128),
        )
        defaults.update(overrides)
        return LoadgenConfig(**defaults)

    def test_threaded_inprocess_matches_serial_replay(self):
        report = run_loadgen(self._config(), verify=True)
        assert report.parity is not None and report.parity["verified"]
        assert report.memo["evictions"] == 0
        assert report.statuses.get("ok", 0) > 0
        assert report.statuses.get("not-written", 0) > 0

    def test_threaded_tcp_matches_serial_replay(self):
        report = run_loadgen(
            self._config(ops=3_000, tenants=3), with_server=True, verify=True
        )
        assert report.parity is not None and report.parity["verified"]
        assert report.transport == "tcp+server"

    @pytest.mark.parametrize("with_server", [False, True], ids=["inprocess", "tcp"])
    def test_no_thread_outlives_its_run(self, with_server):
        # Shard workers, server and handler threads, tenant
        # drivers: every thread the run starts must be gone once it
        # returns (a short bounded join covers threads still unwinding).
        before = set(threading.enumerate())
        report = run_loadgen(
            self._config(ops=1_000, tenants=2), with_server=with_server, verify=True
        )
        assert report.parity is not None and report.parity["verified"]
        started = [t for t in threading.enumerate() if t not in before]
        for thread in started:
            thread.join(timeout=2.0)
        alive = [t.name for t in started if t.is_alive()]
        assert alive == [], f"threads outlived the run: {alive}"

    def test_schedule_is_deterministic(self):
        config = self._config(ops=500, tenants=2)
        first = [r.to_json() for r in interleave(config)]
        second = [r.to_json() for r in interleave(config)]
        assert first == second
        # Tenant streams are regenerable independently of the interleave.
        solo = [r.to_json() for r in tenant_requests(config, 0)]
        assert [line for line in first if '"t00-' in line] == solo

    def test_tenant_arenas_are_disjoint(self):
        config = self._config(ops=2_000, tenants=4)
        seen: dict[int, int] = {}
        for request in interleave(config):
            if request.addr is None:
                continue
            tenant = request.id >> 40
            assert seen.setdefault(request.addr, tenant) == tenant

    def test_parity_refuses_coper_and_reject_admission(self):
        from repro.service.loadgen import verify_parity

        coper = self._config(
            ops=100,
            tenants=1,
            service=ServiceConfig(shards=2, mode=ProtectionMode.COP_ER),
        )
        with pytest.raises(ValueError, match="COP-ER"):
            verify_parity(COPService(coper.service), coper, [])
        rejecting = self._config(
            ops=100,
            tenants=1,
            service=ServiceConfig(shards=2, admission="reject"),
        )
        with pytest.raises(ValueError, match="admission"):
            verify_parity(COPService(rejecting.service), rejecting, [])

    def test_unprotected_mode_parity(self):
        config = self._config(
            ops=2_000,
            tenants=2,
            service=ServiceConfig(
                shards=2, mode=ProtectionMode.UNPROTECTED
            ),
        )
        report = run_loadgen(config, verify=True)
        assert report.parity is not None and report.parity["verified"]


class TestShardBatching:
    def test_worker_actually_batches(self):
        config = ServiceConfig(shards=1, batch_max=16)
        shard = Shard(0, config)
        # Enqueue a burst before starting the worker so one drain sees it.
        futures = [
            shard.submit(Request("write", id=i, addr=i * 64, data=_compressible()))
            for i in range(16)
        ]
        shard.start()
        for future in futures:
            assert future.result(timeout=5).status is Status.OK
        shard.stop()
        batches = shard.registry.counter("service.shard.0.batches").value
        requests = shard.registry.counter("service.shard.0.requests").value
        assert requests == 16
        assert batches < 16  # at least one multi-request batch happened
        sizes = shard.registry.histogram("service.shard.0.batch_blocks")
        assert sizes.count == batches

    def test_memo_counts_one_miss_per_distinct_content(self):
        config = ServiceConfig(shards=1, batch_max=64)
        shard = Shard(0, config)
        requests = [
            Request("write", id=i, addr=i * 64, data=_compressible(b"%d" % i))
            for i in range(8)
        ] + [Request("read", id=100 + i, addr=i * 64) for i in range(8)]
        work = [shard.submit(request) for request in requests]
        shard.start()
        for future in work:
            assert future.result(timeout=5).status is Status.OK
        counter = shard.registry.counter
        # One drain: 8 distinct write contents each miss the encode memo,
        # and their 8 stored images each miss the decode memo.
        assert counter("kernels.memo.misses").value == 16
        assert counter("kernels.memo.hits").value == 0
        # Reading an address again decodes an image the memo already holds.
        assert shard.call(Request("read", id=200, addr=0)).status is Status.OK
        shard.stop()
        assert counter("kernels.memo.misses").value == 16
        assert counter("kernels.memo.hits").value == 1

    def test_same_batch_write_then_read(self):
        """A read queued behind a write to the same address in one batch."""
        config = ServiceConfig(shards=1, batch_max=64)
        shard = Shard(0, config)
        data = _compressible(b"same batch")
        futures = [
            shard.submit(Request("write", id=1, addr=0, data=data)),
            shard.submit(Request("read", id=2, addr=0)),
            shard.submit(Request("write", id=3, addr=0, data=_incompressible())),
            shard.submit(Request("read", id=4, addr=0)),
        ]
        shard.start()
        results = [future.result(timeout=5) for future in futures]
        shard.stop()
        assert [r.status for r in results] == [Status.OK] * 4
        assert results[1].data == data and results[1].compressed
        assert results[3].data == _incompressible()
        assert results[3].was_uncompressed

    def test_internal_errors_are_counted_not_fatal(self):
        config = ServiceConfig(shards=1)
        shard = Shard(0, config)
        shard.start()
        # Sabotage the controller to force an unexpected exception.
        shard.memory.write = None  # type: ignore[method-assign]
        response = shard.call(Request("write", id=1, addr=0, data=bytes(64)))
        assert response.status is Status.INTERNAL
        assert shard.registry.counter("service.shard.0.errors").value == 1
        # The worker survived and keeps serving.
        assert shard.call(Request("ping", id=2)).status is Status.OK
        shard.stop()


class TestConcurrentClients:
    def test_many_threads_one_service(self, service):
        """Raw hammering beyond the loadgen: shared addresses per thread."""
        errors: list[str] = []

        def worker(worker_id: int) -> None:
            base = worker_id * 64 * 128
            for i in range(64):
                addr = base + (i % 16) * 64
                data = _compressible(b"w%d-%d" % (worker_id, i % 4))
                write = service.call(
                    Request("write", id=i, addr=addr, data=data)
                )
                if write.status is not Status.OK:
                    errors.append(f"write {write.status}")
                read = service.call(Request("read", id=i, addr=addr))
                if read.data != data:
                    errors.append("read returned stale data")

        threads = [
            threading.Thread(target=worker, args=(n,)) for n in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert errors == []
