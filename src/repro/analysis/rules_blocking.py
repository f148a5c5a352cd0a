"""REP009 — no blocking operations while a lock is held.

A lock-holder that sleeps, does socket/file I/O, spawns a subprocess,
or parks on an untimed ``queue.get``/``put``/``Future.result`` turns
every other thread contending for that lock into a convoy — and, when
the blocked operation itself waits on one of those threads, into a
deadlock.  The service's latency percentiles live and die on critical
sections staying short (docs/service.md).

The rule looks at every ``with self.<lock>:`` block (locks identified
through the class model of :mod:`repro.analysis.dataflow`) and flags:

* known-blocking calls (``time.sleep``, ``subprocess.*``, ``open``,
  socket verbs, untimed queue/thread/future waits — see
  :mod:`repro.analysis.locks`);
* calls *through a function parameter* — unbounded work the caller
  cannot bound (the ``MemoizedCodec`` compute-inside-lock pattern);
* calls to ``self`` methods that transitively perform a blocking call
  (one class deep: the intra-class call graph is closed transitively).

Some of these are deliberate: the memo computes misses inside its lock
so a distinct content is computed exactly once, and the pipelined
service client *exists* to serialise socket I/O under its lock.  Those
sites carry a sanctioning directive naming this rule on the ``with``
line (or the call line)::

    with self._lock:  # sanctioned[blocking-under-lock]: <why>

A sanction is stronger than a ``noqa``: it documents a reviewed design
decision (docs/static-analysis.md).
"""

from __future__ import annotations

import ast
import re
from typing import Dict, FrozenSet, Iterator, Optional, Set

from repro.analysis.base import Finding, LintContext, Rule, register
from repro.analysis.dataflow import ClassModel, class_models
from repro.analysis.locks import blocking_reason, self_attr_name, with_lock_names

_SANCTION_RE = re.compile(r"sanctioned\[(?:blocking-under-lock|REP009)\]", re.I)


def _sanctioned(ctx: LintContext, *linenos: int) -> bool:
    for lineno in linenos:
        if 1 <= lineno <= len(ctx.lines) and _SANCTION_RE.search(
            ctx.lines[lineno - 1]
        ):
            return True
    return False


def _blocking_methods(ctx: LintContext, model: ClassModel) -> Dict[str, str]:
    """Map of this class's methods to why they (transitively) block."""
    queue_attrs = frozenset(model.queue_attrs)
    thread_attrs = frozenset(model.thread_attrs)
    direct: Dict[str, str] = {}
    # Intra-class call graph: method -> self-methods it calls directly.
    calls: Dict[str, Set[str]] = {}
    for name, method in model.methods.items():
        params = _param_names(method)
        calls[name] = set()
        for node in ast.walk(method):
            if not isinstance(node, ast.Call):
                continue
            callee = self_attr_name(node.func)
            if callee is not None:
                calls[name].add(callee)
            if name in direct:
                continue
            reason = blocking_reason(node, queue_attrs, thread_attrs, params)
            if reason is not None and not _sanctioned(ctx, node.lineno):
                direct[name] = reason
    # Transitive closure over the intra-class call graph.
    closed = dict(direct)
    changed = True
    while changed:
        changed = False
        for name, callees in calls.items():
            if name in closed:
                continue
            for callee in callees:
                if callee in closed:
                    closed[name] = f"calls self.{callee}() which blocks ({closed[callee]})"
                    changed = True
                    break
    return closed


def _param_names(
    func: ast.FunctionDef | ast.AsyncFunctionDef,
) -> FrozenSet[str]:
    args = func.args
    names = [
        a.arg
        for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
        if a.arg not in ("self", "cls")
    ]
    return frozenset(names)


@register
class BlockingUnderLockRule(Rule):
    id = "REP009"
    name = "blocking-under-lock"
    description = (
        "no sleeps, subprocesses, socket/file I/O or untimed waits while "
        "holding a lock (sanction deliberate cases on the with-line)"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for model in class_models(ctx):
            if not model.lock_attrs:
                continue
            blocking = _blocking_methods(ctx, model)
            for method in model.methods.values():
                yield from self._check_method(ctx, model, method, blocking)

    def _check_method(
        self,
        ctx: LintContext,
        model: ClassModel,
        method: ast.FunctionDef | ast.AsyncFunctionDef,
        blocking: Dict[str, str],
    ) -> Iterator[Finding]:
        queue_attrs = frozenset(model.queue_attrs)
        thread_attrs = frozenset(model.thread_attrs)
        params = _param_names(method)
        for stmt in ast.walk(method):
            if not isinstance(stmt, ast.With):
                continue
            locks = with_lock_names(stmt) & model.lock_attrs
            if not locks:
                continue
            lock_text = ", ".join(f"self.{name}" for name in sorted(locks))
            for node in ast.walk(stmt):
                if not isinstance(node, ast.Call):
                    continue
                reason = self._call_reason(
                    node, blocking, queue_attrs, thread_attrs, params
                )
                if reason is None:
                    continue
                if _sanctioned(ctx, node.lineno, stmt.lineno):
                    continue
                yield self.finding(
                    ctx,
                    node,
                    f"{reason} while holding {lock_text} in "
                    f"{model.name}.{method.name}() — move it outside the "
                    "critical section, add a timeout, or sanction the "
                    "design with `# sanctioned[blocking-under-lock]: <why>`",
                )

    @staticmethod
    def _call_reason(
        node: ast.Call,
        blocking: Dict[str, str],
        queue_attrs: FrozenSet[str],
        thread_attrs: FrozenSet[str],
        params: FrozenSet[str],
    ) -> Optional[str]:
        reason = blocking_reason(node, queue_attrs, thread_attrs, params)
        if reason is not None:
            return reason
        callee = self_attr_name(node.func)
        if callee is not None and callee in blocking:
            return f"self.{callee}() blocks ({blocking[callee]})"
        return None
