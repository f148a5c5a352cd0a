"""Deterministic service-layer fault injection (``REPRO_CHAOS``).

The experiment runner's chaos harness (:mod:`repro.experiments.resilience`)
kills and hangs *worker processes*; this module injects faults inside the
*serving path* of the COP daemon:

``worker-kill:p``   raise :class:`ChaosWorkerKill` inside the shard worker
                    loop with probability ``p`` per executed operation —
                    the worker must recover its shard from the WAL.
``delay:p:ms``      sleep ``ms`` milliseconds before executing an
                    operation with probability ``p`` (queueing pressure,
                    deadline misses).
``conn-drop:p``     hard-close a client connection after writing a
                    response with probability ``p`` per response — the
                    client must reconnect and replay its window.
``seed:N``          the schedule seed (shared with the runner's knobs).

Both harnesses parse ``REPRO_CHAOS`` with the one grammar of
:meth:`repro.experiments.resilience.ChaosConfig.parse`, so a spec is
valid or invalid for both, and one spec can fault the runner and the
service at once.  A spec that sets only runner knobs (``crash``/``hang``)
leaves the service chaos-free.

Every decision is a pure function of ``(seed, fault kind, identity)``
where the identity is the shard index plus the shard-lifetime operation
sequence number (or connection id plus response sequence for
``conn-drop``).  Schedules are therefore stable across code edits and
independent of thread timing or batch boundaries — the same ops get
killed/delayed no matter how the queue drains.
"""

from __future__ import annotations

import os
import random
from typing import Optional

from repro.experiments.resilience import ChaosConfig

__all__ = [
    "ChaosWorkerKill",
    "ServiceChaosConfig",
]


class ChaosWorkerKill(Exception):
    """Injected shard-worker death (caught by nothing: the worker dies)."""


class ServiceChaosConfig(ChaosConfig):
    """The service's knobs of one ``REPRO_CHAOS`` spec, and its decisions."""

    @property
    def active(self) -> bool:
        return bool(self.worker_kill or self.delay_p or self.conn_drop)

    def describe(self) -> str:
        """Canonical spec string (lands in the loadgen report)."""
        parts = []
        if self.worker_kill:
            parts.append(f"worker-kill:{self.worker_kill:g}")
        if self.delay_p:
            parts.append(f"delay:{self.delay_p:g}:{self.delay_ms:g}")
        if self.conn_drop:
            parts.append(f"conn-drop:{self.conn_drop:g}")
        parts.append(f"seed:{self.seed}")
        return ",".join(parts)

    @classmethod
    def from_env(cls) -> Optional["ServiceChaosConfig"]:
        return cls.parse(os.environ.get("REPRO_CHAOS", ""))

    # -- decisions ------------------------------------------------------------

    def _roll(self, kind: str, identity: str) -> float:
        return random.Random(f"svc-chaos|{self.seed}|{kind}|{identity}").random()

    def kills_worker(self, shard: int, op_seq: int) -> bool:
        """Should the worker die while executing this (shard, op)?"""
        return (
            self.worker_kill > 0.0
            and self._roll("kill", f"s{shard}|op{op_seq}") < self.worker_kill
        )

    def delay_seconds(self, shard: int, op_seq: int) -> float:
        """Injected pre-execution delay for this (shard, op), in seconds."""
        if self.delay_p <= 0.0 or self.delay_ms <= 0.0:
            return 0.0
        if self._roll("delay", f"s{shard}|op{op_seq}") < self.delay_p:
            return self.delay_ms / 1000.0
        return 0.0

    def drops_connection(self, conn_id: int, response_seq: int) -> bool:
        """Should the server sever this connection after this response?"""
        return (
            self.conn_drop > 0.0
            and self._roll("drop", f"c{conn_id}|r{response_seq}") < self.conn_drop
        )
