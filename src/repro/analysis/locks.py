"""Lock-scope inference shared by the concurrency rules (REP007, REP009).

This module answers three lexical questions about a parsed file:

* *Is this expression constructing a lock / queue / thread?*  The
  constructors the repo actually uses — ``threading.Lock()``,
  ``threading.RLock()``, ``queue.Queue(...)`` and ``threading.Thread(...)``
  — are recognised by dotted name, so the class model in
  :mod:`repro.analysis.dataflow` can classify ``self._lock =
  threading.Lock()`` attributes without type inference.

* *Which locks are held at this node?*  :func:`held_locks` walks the
  ancestor chain looking for ``with self._lock:`` items (the only lock
  acquisition idiom in the codebase — ``acquire``/``release`` pairs are
  deliberately not modelled).

* *Is this call blocking?*  :func:`blocking_reason` recognises the
  operations that must never run under a lock: sleeps, subprocesses,
  socket/file I/O, untimed ``queue.get``/``put``, thread joins and
  untimed ``Future.result()`` — plus calls *through a function
  parameter*, which are unbounded work the caller cannot see
  (the ``MemoizedCodec`` compute-inside-lock pattern; REP009 lets a
  ``sanctioned[blocking-under-lock]`` directive bless it).
"""

from __future__ import annotations

import ast
from typing import FrozenSet, Optional, Set

from repro.analysis.base import LintContext, dotted_name

__all__ = [
    "LOCK_CONSTRUCTORS",
    "QUEUE_CONSTRUCTORS",
    "THREAD_CONSTRUCTORS",
    "blocking_reason",
    "held_locks",
    "lock_ctor_kind",
    "self_attr_name",
    "with_lock_names",
]

#: Dotted call names that construct a mutual-exclusion lock.
LOCK_CONSTRUCTORS = {
    "threading.Lock",
    "threading.RLock",
    "Lock",
    "RLock",
}

#: Dotted call names that construct a thread-safe queue (auto-shared
#: state: touching a queue from any thread is the API).
QUEUE_CONSTRUCTORS = {
    "queue.Queue",
    "queue.LifoQueue",
    "queue.PriorityQueue",
    "queue.SimpleQueue",
    "Queue",
    "SimpleQueue",
}

#: Dotted call names that construct a thread (joins can block).
THREAD_CONSTRUCTORS = {"threading.Thread", "Thread"}

#: Module-level callables that block (matched on the full dotted name).
_BLOCKING_DOTTED = {
    "time.sleep": "time.sleep()",
    "subprocess.run": "subprocess.run()",
    "subprocess.call": "subprocess.call()",
    "subprocess.check_call": "subprocess.check_call()",
    "subprocess.check_output": "subprocess.check_output()",
    "subprocess.Popen": "subprocess.Popen()",
    "socket.create_connection": "socket.create_connection()",
    "open": "open() file I/O",
}

#: Method names that block regardless of receiver type (socket/stream
#: verbs specific enough not to collide with dict/list methods).
_BLOCKING_METHODS = {
    "sendall": "socket send",
    "recv": "socket receive",
    "accept": "socket accept",
    "connect": "socket connect",
    "readline": "stream read",
    "makefile": "socket makefile",
}


def self_attr_name(node: ast.AST) -> Optional[str]:
    """``self.<attr>`` -> ``attr``; ``None`` for anything else."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def lock_ctor_kind(node: ast.expr) -> Optional[str]:
    """Classify a constructor call: ``"lock"``/``"queue"``/``"thread"``."""
    if not isinstance(node, ast.Call):
        return None
    name = dotted_name(node.func)
    if name is None:
        return None
    if name in LOCK_CONSTRUCTORS:
        return "lock"
    if name in QUEUE_CONSTRUCTORS:
        return "queue"
    if name in THREAD_CONSTRUCTORS:
        return "thread"
    return None


def with_lock_names(stmt: ast.With) -> Set[str]:
    """Lock attribute names acquired by ``with self._lock[, self._other]:``."""
    names: Set[str] = set()
    for item in stmt.items:
        attr = self_attr_name(item.context_expr)
        if attr is not None:
            names.add(attr)
    return names


def held_locks(ctx: LintContext, node: ast.AST) -> FrozenSet[str]:
    """Names of ``self.<lock>`` attributes held at ``node``.

    Lexical: every enclosing ``with`` whose context expression is a
    plain ``self.<attr>`` contributes that attribute name.  Callers
    intersect with the class model's known lock attributes, so a
    ``with self.file:`` block never counts as holding a lock.
    """
    held: Set[str] = set()
    for ancestor in ctx.ancestors(node):
        if isinstance(ancestor, ast.With):
            held |= with_lock_names(ancestor)
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # Lock scopes do not cross function boundaries: a nested
            # closure runs whenever it is *called*, not where it is
            # defined, so locks held at the definition site prove
            # nothing about the call site.
            break
    return frozenset(held)


def _has_timeout(call: ast.Call) -> bool:
    for keyword in call.keywords:
        if keyword.arg in ("timeout", "block"):
            return True
    # queue.get(True, 5.0) positional form.
    return len(call.args) >= 2


def blocking_reason(
    call: ast.Call,
    queue_attrs: FrozenSet[str],
    thread_attrs: FrozenSet[str],
    param_names: FrozenSet[str],
) -> Optional[str]:
    """Why this call blocks, or ``None`` if it is not known to.

    ``queue_attrs``/``thread_attrs`` are the enclosing class's inferred
    queue/thread attribute names (so ``self._queue.get()`` is flagged
    but ``cache.get(key)`` on a dict is not); ``param_names`` are the
    enclosing function's parameters (calls through them are unbounded
    work the caller cannot bound).
    """
    func = call.func
    name = dotted_name(func)
    if name is not None and name in _BLOCKING_DOTTED:
        return _BLOCKING_DOTTED[name]
    if isinstance(func, ast.Name) and func.id in param_names:
        return f"call through parameter {func.id!r} (unbounded work)"
    if isinstance(func, ast.Attribute):
        method = func.attr
        if method in _BLOCKING_METHODS:
            return _BLOCKING_METHODS[method]
        base = self_attr_name(func.value)
        if base is not None and base in queue_attrs:
            if method in ("get", "put") and not _has_timeout(call):
                return f"untimed queue {method}() on self.{base}"
        if base is not None and base in thread_attrs and method == "join":
            if not call.args and not call.keywords:
                return f"untimed thread join on self.{base}"
        if method == "result" and not call.args and not call.keywords:
            return "untimed Future.result()"
    return None
