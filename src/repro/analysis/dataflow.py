"""Per-class dataflow model shared by the concurrency rules.

:func:`class_models` builds (once per file, cached on the
:class:`~repro.analysis.base.LintContext`) a :class:`ClassModel` for
every class: which attributes exist, which methods *use* them and how,
which locks are held at each use, and the annotation directives the
rules key off.

Annotation conventions (see docs/static-analysis.md):

``# guarded-by: <lock-attr>``
    Trailing comment on a ``self.<attr> = ...`` line: every tracked use
    of that attribute outside ``__init__``-like methods must hold
    ``self.<lock-attr>`` (REP007).

``# shared``
    Trailing comment on a ``self.<attr> = ...`` line: the attribute is
    a thread-safe channel (its own locking or lock-free by design) and
    exempt from REP007's mixed-guarding inference.  Lock/queue/thread
    attributes are auto-shared.

Tracked uses are the accesses that can actually race: attribute stores,
deletes, subscripting (``self.x[k]``, read or write) and method calls on
the attribute (``self.x.append(...)``).  Bare loads that merely pass the
reference along (``helper(self.x)``) are not tracked — chasing them
interprocedurally is out of scope for a lexical pass, and flagging them
would bury the real findings in noise.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field, replace
from typing import Dict, FrozenSet, List, Optional, Set

from repro.analysis.base import LintContext
from repro.analysis.locks import held_locks, lock_ctor_kind, self_attr_name

__all__ = ["AttrUse", "ClassModel", "class_models"]

_GUARDED_BY_RE = re.compile(r"#\s*guarded-by:\s*([A-Za-z_]\w*)")
_SHARED_RE = re.compile(r"#\s*shared\b")

#: Methods that run before the object is published to other threads (or
#: during pickling, which is single-threaded by construction).
INIT_METHODS = frozenset(
    {
        "__init__",
        "__post_init__",
        "__getstate__",
        "__setstate__",
        "__reduce__",
        "__copy__",
        "__deepcopy__",
    }
)


@dataclass(frozen=True)
class AttrUse:
    """One tracked use of ``self.<attr>`` inside a method."""

    attr: str
    method: str
    node: ast.AST
    #: ``store`` / ``del`` / ``subscript`` / ``call``.
    kind: str
    #: Lock attribute names (of this class) held at the use site.
    locks_held: FrozenSet[str]

    @property
    def line(self) -> int:
        return getattr(self.node, "lineno", 0)


@dataclass
class ClassModel:
    """Everything the concurrency rules need to know about one class."""

    node: ast.ClassDef
    name: str
    lock_attrs: Set[str] = field(default_factory=set)
    queue_attrs: Set[str] = field(default_factory=set)
    thread_attrs: Set[str] = field(default_factory=set)
    #: ``attr -> lock attr`` from ``# guarded-by:`` annotations.
    guarded_by: Dict[str, str] = field(default_factory=dict)
    #: Attributes annotated ``# shared``.
    shared_attrs: Set[str] = field(default_factory=set)
    methods: Dict[str, ast.FunctionDef | ast.AsyncFunctionDef] = field(
        default_factory=dict
    )
    uses: List[AttrUse] = field(default_factory=list)


def _line_directive(ctx: LintContext, lineno: int, pattern: re.Pattern[str]) -> Optional[str]:
    if 1 <= lineno <= len(ctx.lines):
        match = pattern.search(ctx.lines[lineno - 1])
        if match:
            return match.group(1) if match.groups() else match.group(0)
    return None


def _classify_use(ctx: LintContext, node: ast.Attribute) -> Optional[str]:
    """The kind of tracked use this ``self.x`` node is, if any."""
    if isinstance(node.ctx, ast.Store):
        return "store"
    if isinstance(node.ctx, ast.Del):
        return "del"
    parent = ctx.parent(node)
    if isinstance(parent, ast.Subscript) and parent.value is node:
        return "subscript"
    if isinstance(parent, ast.Attribute) and parent.value is node:
        grand = ctx.parent(parent)
        if isinstance(grand, ast.Call) and grand.func is parent:
            return "call"
        if isinstance(parent.ctx, (ast.Store, ast.Del)):
            # ``self.x.y = ...`` mutates the object behind self.x.
            return "subscript"
    if isinstance(parent, ast.AugAssign) and parent.target is node:
        return "store"
    return None


def _classify_attr(
    ctx: LintContext,
    model: ClassModel,
    target: ast.expr,
    value: Optional[ast.expr],
    lineno: int,
) -> None:
    """Record ``self.<attr> = <ctor>()  # directive`` in the class model."""
    attr = self_attr_name(target)
    if attr is None:
        return
    kind = lock_ctor_kind(value) if value is not None else None
    if kind == "lock":
        model.lock_attrs.add(attr)
    elif kind == "queue":
        model.queue_attrs.add(attr)
    elif kind == "thread":
        model.thread_attrs.add(attr)
    guarded = _line_directive(ctx, lineno, _GUARDED_BY_RE)
    if guarded:
        model.guarded_by[attr] = guarded
    if _line_directive(ctx, lineno, _SHARED_RE):
        model.shared_attrs.add(attr)


def _build_model(ctx: LintContext, cls: ast.ClassDef) -> ClassModel:
    model = ClassModel(node=cls, name=cls.name)
    for stmt in cls.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            model.methods[stmt.name] = stmt

    for method in model.methods.values():
        for node in ast.walk(method):
            # Attribute classification (constructor kinds + annotations)
            # keys off assignments: self.<attr> = <ctor>()  # directive
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    _classify_attr(ctx, model, target, node.value, node.lineno)
            elif isinstance(node, ast.AnnAssign):
                _classify_attr(ctx, model, node.target, node.value, node.lineno)
            # Tracked attribute uses.
            attr = self_attr_name(node)
            if attr is not None:
                use_kind = _classify_use(ctx, node)  # type: ignore[arg-type]
                if use_kind is not None:
                    model.uses.append(
                        AttrUse(
                            attr=attr,
                            method=method.name,
                            node=node,
                            kind=use_kind,
                            locks_held=held_locks(ctx, node),
                        )
                    )

    # Lock attributes are synchronisation primitives, not state; their
    # own "uses" (with self._lock:) never count as attribute uses.
    model.uses = [u for u in model.uses if u.attr not in model.lock_attrs]
    # Restrict held-lock sets to the class's known lock attributes so a
    # ``with self.file:`` context never masquerades as a guard.
    model.uses = [
        replace(u, locks_held=u.locks_held & model.lock_attrs) for u in model.uses
    ]
    return model


def class_models(ctx: LintContext) -> List[ClassModel]:
    """All class models for this file, computed once and cached."""
    cached = ctx.cache.get("class_models")
    if cached is None:
        cached = [
            _build_model(ctx, node)
            for node in ast.walk(ctx.tree)
            if isinstance(node, ast.ClassDef)
        ]
        ctx.cache["class_models"] = cached
    return cached  # type: ignore[return-value]
