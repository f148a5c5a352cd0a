"""Repo-specific static analysis for the COP reproduction.

``python -m repro.analysis [paths] --check`` runs six AST-based rules
that machine-check the invariants the simulator's correctness rests on:

``REP001 determinism``
    No ambient entropy (global ``random.*``, wall clocks, ``os.urandom``)
    inside the packages whose outputs feed the content-addressed result
    cache and the parallel==serial bit-equality contract.
``REP002 merge-completeness``
    Stats dataclasses that define ``merge()``/``as_dict()`` must account
    for every field — the dropped-counter bug class from PRs 1-2.
``REP003 bit-width``
    Codeword arithmetic in ``ecc/``/``compression/`` must mask left
    shifts to a declared width, and public functions taking 64-byte
    blocks must validate their length.
``REP006 broad-except``
    Bare/catch-all ``except`` handlers must re-raise or record a metric
    — failures are detected and counted, never silently swallowed (the
    corrupt-cache-entry bug class from PR 4).
``REP007 guarded-by``
    Attributes annotated ``# guarded-by: <lock>`` (or inferred
    lock-protected from mixed guarded/unguarded access) must only be
    touched while that lock is held — the memo-race bug class from
    PRs 5–7, caught before review instead of by stress tests.
``REP009 blocking-under-lock``
    No sleeps, subprocesses, socket/file I/O or untimed waits while a
    lock is held; deliberate designs carry a
    ``sanctioned[blocking-under-lock]`` directive.

The two concurrency rules share a class-level dataflow model
(:mod:`repro.analysis.dataflow`, :mod:`repro.analysis.locks`).  Rule
ids are never reused: REP004, REP005, REP008, REP010 and REP011 were
retired because a test or smoke pins the same invariant (the per-rule
table in ``docs/static-analysis.md`` names each one's remaining guard).

Per-line suppression: ``# repro: noqa[rule-id]`` (or a bare
``# repro: noqa`` for all rules).  See ``docs/static-analysis.md``.
"""

from __future__ import annotations

from repro.analysis.base import RULES
from repro.analysis.engine import (
    iter_python_files,
    lint_file,
    lint_paths,
    lint_source,
)

# Importing the rule modules populates the registry.
from repro.analysis import rules_determinism  # noqa: F401  (registration)
from repro.analysis import rules_merge  # noqa: F401
from repro.analysis import rules_bitwidth  # noqa: F401
from repro.analysis import rules_except  # noqa: F401
from repro.analysis import rules_guardedby  # noqa: F401
from repro.analysis import rules_blocking  # noqa: F401

__all__ = [
    "RULES",
    "iter_python_files",
    "lint_file",
    "lint_paths",
    "lint_source",
]
