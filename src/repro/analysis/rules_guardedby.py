"""REP007 — lock-protected attributes must be accessed under their lock.

Two ways an attribute becomes lock-protected:

* **Annotated:** its initialisation line carries ``# guarded-by:
  <lock-attr>`` — every tracked use outside ``__init__``-like methods
  must then lexically hold ``with self.<lock-attr>:``.
* **Inferred:** some tracked uses hold a lock and others hold none
  (outside ``__init__``-like methods).  Mixed guarding is exactly how
  the PR 5–7 memo races looked before they were fixed: the author
  believed the attribute was protected, and one access path disagreed.
  The inferred lock is the intersection of the locks held at the
  guarded sites; if the guarded sites don't even agree on a lock the
  class is flagged anyway (conflicting guards are worse than none).

Findings name the conflicting sites so the fix is mechanical: either
take the lock at the flagged site, or annotate/`# shared` the attribute
if it is genuinely immutable-after-init or externally synchronised.

Tracked uses are stores, deletes, subscripts and method calls on the
attribute — bare loads that only pass the reference along are not
races by themselves (see :mod:`repro.analysis.dataflow`).
"""

from __future__ import annotations

from typing import Iterator, List

from repro.analysis.base import Finding, LintContext, Rule, register
from repro.analysis.dataflow import INIT_METHODS, AttrUse, ClassModel, class_models


def _sites(uses: List[AttrUse]) -> str:
    return ", ".join(
        f"{use.method}():{use.line}" for use in sorted(uses, key=lambda u: u.line)[:4]
    )


@register
class GuardedByRule(Rule):
    id = "REP007"
    name = "guarded-by"
    description = (
        "attributes annotated (or inferred) as lock-protected must only "
        "be accessed while that lock is held"
    )

    def check(self, ctx: LintContext) -> Iterator[Finding]:
        for model in class_models(ctx):
            yield from self._check_annotated(ctx, model)
            yield from self._check_inferred(ctx, model)

    def _check_annotated(
        self, ctx: LintContext, model: ClassModel
    ) -> Iterator[Finding]:
        for attr, lock in model.guarded_by.items():
            if lock not in model.lock_attrs:
                yield self.finding(
                    ctx,
                    model.node,
                    f"{model.name}.{attr} is annotated guarded-by: {lock}, "
                    f"but self.{lock} is not a recognised lock attribute "
                    "(threading.Lock/RLock)",
                )
                continue
            uses = [
                u
                for u in model.uses
                if u.attr == attr and u.method not in INIT_METHODS
            ]
            guarded = [u for u in uses if lock in u.locks_held]
            for use in uses:
                if lock in use.locks_held:
                    continue
                where = (
                    f"held at {_sites(guarded)}" if guarded else "held nowhere else"
                )
                yield self.finding(
                    ctx,
                    use.node,
                    f"{model.name}.{attr} is guarded by self.{lock} "
                    f"(declared via # guarded-by), but this {use.kind} in "
                    f"{use.method}() does not hold it ({where}); wrap the "
                    f"access in `with self.{lock}:`",
                )

    def _check_inferred(
        self, ctx: LintContext, model: ClassModel
    ) -> Iterator[Finding]:
        if not model.lock_attrs:
            return
        exempt = (
            set(model.guarded_by)
            | model.shared_attrs
            | model.queue_attrs
            | model.thread_attrs
        )
        by_attr: dict[str, List[AttrUse]] = {}
        for use in model.uses:
            if use.attr in exempt or use.method in INIT_METHODS:
                continue
            by_attr.setdefault(use.attr, []).append(use)
        for attr, uses in sorted(by_attr.items()):
            guarded = [u for u in uses if u.locks_held]
            unguarded = [u for u in uses if not u.locks_held]
            if not guarded or not unguarded:
                continue
            common = frozenset.intersection(*(u.locks_held for u in guarded))
            lock_text = (
                f"self.{sorted(common)[0]}"
                if common
                else "no single lock (the guarded sites disagree)"
            )
            for use in unguarded:
                yield self.finding(
                    ctx,
                    use.node,
                    f"{model.name}.{attr} is accessed under a lock at "
                    f"{_sites(guarded)} ({lock_text}) but this {use.kind} in "
                    f"{use.method}() holds none — either take the lock here "
                    f"or annotate the attribute (# guarded-by: <lock> / "
                    f"# shared) to record the intended discipline",
                )
