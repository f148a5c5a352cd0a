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
``seed:N``          the schedule seed (shared with the runner grammar).

Both harnesses parse the same ``REPRO_CHAOS`` string and each ignores the
other's knobs, so one spec can fault the runner and the service at once.

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
from dataclasses import dataclass
from typing import Optional

from repro.obs import get_obs

__all__ = [
    "ChaosWorkerKill",
    "ServiceChaosConfig",
]

#: Runner-side knobs (repro.experiments.resilience) we silently skip.
_RUNNER_KNOBS = ("crash", "hang", "seed")


class ChaosWorkerKill(Exception):
    """Injected shard-worker death (caught by nothing: the worker dies)."""


def _invalid(spec: str, why: str) -> None:
    # Count, warn once, and disable — a typo'd chaos spec must never make
    # a run silently fault-free *and* unnoticed.
    get_obs().metrics.inc("service.chaos.invalid_env")
    import sys

    print(
        f"repro.service.chaos: ignoring REPRO_CHAOS={spec!r} ({why})",
        file=sys.stderr,
    )


@dataclass(frozen=True)
class ServiceChaosConfig:
    """Parsed service-layer knobs of one ``REPRO_CHAOS`` spec."""

    worker_kill: float = 0.0
    delay_p: float = 0.0
    delay_ms: float = 0.0
    conn_drop: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("worker_kill", "delay_p", "conn_drop"):
            p = float(getattr(self, name))
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} must be a probability, got {p}")
        if self.delay_ms < 0:
            raise ValueError("delay_ms must be non-negative")

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

    # -- parsing --------------------------------------------------------------

    @classmethod
    def parse(cls, spec: str) -> Optional["ServiceChaosConfig"]:
        """Parse a ``REPRO_CHAOS`` spec; ``None`` when no service knob set.

        Runner knobs (``crash``/``hang``) are skipped, unknown or
        malformed tokens disable service chaos entirely (counted via
        ``service.chaos.invalid_env`` and warned on stderr).
        """
        text = spec.strip()
        if not text:
            return None
        worker_kill = delay_p = delay_ms = conn_drop = 0.0
        seed = 0
        for token in text.split(","):
            token = token.strip()
            if not token:
                continue
            name, _, raw = token.partition(":")
            name = name.strip().lower()
            try:
                if name == "worker-kill":
                    worker_kill = float(raw)
                elif name == "delay":
                    p_text, _, ms_text = raw.partition(":")
                    delay_p = float(p_text)
                    delay_ms = float(ms_text)
                elif name == "conn-drop":
                    conn_drop = float(raw)
                elif name == "seed":
                    seed = int(raw)
                elif name in _RUNNER_KNOBS:
                    continue
                else:
                    _invalid(spec, f"unknown knob {name!r}")
                    return None
            except ValueError:
                _invalid(spec, f"malformed value in token {token!r}")
                return None
        try:
            config = cls(
                worker_kill=worker_kill,
                delay_p=delay_p,
                delay_ms=delay_ms,
                conn_drop=conn_drop,
                seed=seed,
            )
        except ValueError as exc:
            _invalid(spec, str(exc))
            return None
        return config if config.active else None

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
