"""Linter core: findings, the rule base class, registry and lint context.

A :class:`Rule` analyses one file at a time through a
:class:`LintContext`, which owns the parsed AST plus a parent map so
rules can walk *up* the tree (is this shift under a mask? which ``with``
blocks enclose this access?) as easily as down.
"""

from __future__ import annotations

import ast
from dataclasses import asdict, dataclass
from typing import Iterator, Optional, Type

__all__ = ["Finding", "LintContext", "Rule", "RULES", "register"]


@dataclass(frozen=True)
class Finding:
    """One rule violation at a specific source location."""

    path: str
    line: int
    col: int
    rule_id: str
    rule_name: str
    message: str

    def format(self) -> str:
        return (
            f"{self.path}:{self.line}:{self.col}: "
            f"{self.rule_id} [{self.rule_name}] {self.message}"
        )

    def as_dict(self) -> dict:
        return asdict(self)


class LintContext:
    """Everything a rule needs to analyse one parsed file."""

    def __init__(
        self,
        path: str,
        subpath: str,
        source: str,
        tree: ast.Module,
    ) -> None:
        #: Path as given on the command line (used in findings).
        self.path = path
        #: Path relative to the ``repro`` package root (posix separators,
        #: e.g. ``"ecc/hsiao.py"``); empty for files outside the package.
        #: Fixture files override it with a ``# lint-as:`` directive.
        self.subpath = subpath
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        #: Per-file scratch space for analyses shared between rules (the
        #: concurrency rules all read one class-level dataflow model; see
        #: :func:`repro.analysis.dataflow.class_models`).
        self.cache: dict[str, object] = {}
        self._parents: dict[ast.AST, ast.AST] = {}
        for parent in ast.walk(tree):
            for child in ast.iter_child_nodes(parent):
                self._parents[child] = parent

    def parent(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(node)

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Yield enclosing nodes, innermost first."""
        current = self._parents.get(node)
        while current is not None:
            yield current
            current = self._parents.get(current)

    def expr_ancestors(self, node: ast.AST) -> Iterator[ast.expr]:
        """Ancestors up to (not including) the enclosing statement."""
        for ancestor in self.ancestors(node):
            if isinstance(ancestor, ast.stmt):
                return
            if isinstance(ancestor, ast.expr):
                yield ancestor

    def in_packages(self, *packages: str) -> bool:
        """Is this file inside one of the given top-level repro packages?"""
        if not self.subpath:
            return False
        head = self.subpath.split("/", 1)[0]
        return head in packages


class Rule:
    """Base class: subclasses set the metadata and implement ``check``."""

    id: str = ""
    name: str = ""
    description: str = ""

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        raise NotImplementedError

    def finding(self, ctx: LintContext, node: ast.AST, message: str) -> Finding:
        return Finding(
            path=ctx.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            rule_id=self.id,
            rule_name=self.name,
            message=message,
        )


#: Rule registry, keyed by rule id (``REP001``..).  Populated at import
#: time by the :func:`register` decorator on each rule module.
RULES: dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate the rule and add it to the registry."""
    rule = cls()
    if not rule.id or not rule.name:
        raise ValueError(f"rule {cls.__name__} must define id and name")
    if rule.id in RULES:
        raise ValueError(f"duplicate rule id {rule.id}")
    RULES[rule.id] = rule
    return cls


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None
