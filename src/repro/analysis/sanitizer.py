"""Opt-in runtime lock sanitizer: order-graph + guarded-access checks.

The static rules (REP007–REP010) are lexical; this module is their
runtime twin, enabled by setting ``REPRO_SANITIZE=locks`` in the
environment.  Hot-path classes mint their locks through
:func:`new_lock` — a plain ``threading.Lock``/``RLock`` normally, a
:class:`SanitizedLock` when sanitizing — so production pays nothing and
the sanitized smoke (``make race-smoke``) must stay byte-identical on
every deterministic output.

When sanitizing, each acquisition:

* records an edge ``held -> acquired`` in a process-wide
  lock-acquisition-order graph (nodes are lock instances, labelled
  ``<name>#<seq>``) and raises :class:`LockOrderError` the moment an
  edge closes a cycle — the ABBA deadlock *potential*, caught even when
  the interleaving that would deadlock never happens;
* maintains a per-thread stack of held locks so
  :func:`assert_held` can verify a ``# guarded-by`` attribute is
  actually protected at runtime, raising :class:`GuardedAccessError`
  (and counting ``analysis.sanitizer.guarded_violations``) otherwise.

Counters live in a module-private :class:`MetricsRegistry` under
``analysis.sanitizer.*`` — deliberately *not* the caller's registry, so
enabling the sanitizer never perturbs merged service metrics.  Use
:func:`report` for a snapshot and :func:`reset` between tests.
"""

from __future__ import annotations

import itertools
import os
import threading
from typing import Any, Dict, List, Optional, Set

from repro.obs.metrics import MetricsRegistry

__all__ = [
    "GuardedAccessError",
    "LockOrderError",
    "SanitizedLock",
    "assert_held",
    "enabled",
    "new_lock",
    "report",
    "reset",
]


class LockOrderError(RuntimeError):
    """Acquiring this lock closes a cycle in the acquisition-order graph."""


class GuardedAccessError(RuntimeError):
    """A guarded attribute was accessed without its lock held."""


def enabled() -> bool:
    """Is lock sanitizing switched on (``REPRO_SANITIZE=locks``)?"""
    spec = os.environ.get("REPRO_SANITIZE", "")
    return "locks" in {item.strip() for item in spec.split(",")}


#: The sanitizer's own mutable state is guarded by one meta-lock — a
#: plain lock, exempt from sanitizing (it nests inside every sanitized
#: acquisition and would otherwise pollute the order graph).
_meta = threading.Lock()
_registry = MetricsRegistry()
#: Acquisition-order graph: node label -> set of successor labels.
_graph: Dict[str, Set[str]] = {}
_seq = itertools.count()


class _HeldStack(threading.local):
    def __init__(self) -> None:
        self.stack: List["SanitizedLock"] = []


_held = _HeldStack()


def _find_path(source: str, target: str) -> Optional[List[str]]:
    """A path ``source -> ... -> target`` in the order graph, if any."""
    stack = [(source, [source])]
    seen = {source}
    while stack:
        node, path = stack.pop()
        if node == target:
            return path
        for succ in sorted(_graph.get(node, ())):
            if succ not in seen:
                seen.add(succ)
                stack.append((succ, path + [succ]))
    return None


class SanitizedLock:
    """A ``threading.Lock`` that reports to the order graph.

    Context-manager compatible with the lock it replaces; the only
    behavioural difference is bookkeeping (and raising on violations),
    so sanitized runs stay deterministic wherever the plain run was.
    """

    def __init__(self, name: str, reentrant: bool = False) -> None:
        self.name = f"{name}#{next(_seq)}"
        self._reentrant = reentrant
        # threading.Lock/RLock are factory functions, not types, so the
        # attribute stays inferred rather than annotated.
        self._inner = threading.RLock() if reentrant else threading.Lock()

    def held_by_current_thread(self) -> bool:
        return any(lock is self for lock in _held.stack)

    def _note_acquired(self) -> None:
        held = [lock for lock in _held.stack if lock is not self]
        with _meta:
            _registry.counter("analysis.sanitizer.acquires").inc()
            for prior in held:
                succs = _graph.setdefault(prior.name, set())
                if self.name in succs:
                    continue
                # Adding prior -> self closes a cycle iff self already
                # reaches prior.
                path = _find_path(self.name, prior.name)
                if path is not None:
                    _registry.counter("analysis.sanitizer.cycles").inc()
                    cycle = " -> ".join(path + [self.name])
                    raise LockOrderError(
                        f"lock acquisition order cycle (deadlock "
                        f"potential): holding {prior.name}, acquiring "
                        f"{self.name}, but the graph already orders "
                        f"{cycle}"
                    )
                succs.add(self.name)
                _registry.counter("analysis.sanitizer.edges").inc()
        _held.stack.append(self)

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        got = self._inner.acquire(blocking, timeout)
        if got:
            try:
                self._note_acquired()
            except LockOrderError:
                self._inner.release()
                raise
        return got

    def release(self) -> None:
        for index in range(len(_held.stack) - 1, -1, -1):
            if _held.stack[index] is self:
                del _held.stack[index]
                break
        with _meta:
            _registry.counter("analysis.sanitizer.releases").inc()
        self._inner.release()

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self) -> bool:
        return self.acquire()

    def __exit__(self, *exc_info: object) -> None:
        self.release()


def new_lock(name: str, reentrant: bool = False) -> Any:
    """A lock for hot-path classes: sanitized only when opted in.

    ``name`` labels the lock in the order graph and in violation
    reports; instances get a ``#<seq>`` suffix so distinct locks with
    the same role stay distinct nodes.
    """
    if enabled():
        return SanitizedLock(name, reentrant=reentrant)
    return threading.RLock() if reentrant else threading.Lock()


def assert_held(lock: object, what: str) -> None:
    """Runtime half of ``# guarded-by``: raise unless ``lock`` is held.

    A no-op for plain locks (ownership is untrackable) and when
    sanitizing is off, so callers may sprinkle this on guarded access
    paths without any production cost beyond an ``isinstance``.
    """
    if isinstance(lock, SanitizedLock) and not lock.held_by_current_thread():
        with _meta:
            _registry.counter("analysis.sanitizer.guarded_violations").inc()
        raise GuardedAccessError(
            f"guarded access to {what} without holding {lock.name}"
        )


def held_locks() -> List[str]:
    """Labels of the sanitized locks the current thread holds (inner first)."""
    return [lock.name for lock in _held.stack]


def report() -> Dict[str, int]:
    """Counter snapshot (``analysis.sanitizer.*`` keys, prefix stripped)."""
    with _meta:
        snapshot = _registry.snapshot().get("counters", {})
        out = {
            key.rsplit(".", 1)[-1]: value
            for key, value in snapshot.items()
            if key.startswith("analysis.sanitizer.")
        }
        for key in ("acquires", "releases", "edges", "cycles", "guarded_violations"):
            out.setdefault(key, 0)
        out["locks_tracked"] = len(_graph)
        return out


def reset() -> None:
    """Forget the order graph and zero the counters (test isolation)."""
    global _registry
    with _meta:
        _graph.clear()
        _registry = MetricsRegistry()
