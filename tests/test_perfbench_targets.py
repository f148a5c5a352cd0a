"""The repository benchmark's layer tracer still finds the hot layers.

``perfbench/tracer.py`` wraps program functions by name and silently
skips a name that no longer resolves, so a rename would move that layer's
time into the engine's self time without failing anything.  This test
loads the tracer from its file (it is never edited or wrapped here) and
checks that the layers the Fig. 11 sweep spends its time in still resolve.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

#: Absent targets the tracer's list named when this bound was set.
MAX_ABSENT = 9

#: ``(module, qualname)`` of each layer boundary of the simulator.
HOT = (
    ("repro.cache.cache", "SetAssocCache.lookup"),
    ("repro.cache.cache", "SetAssocCache.insert"),
    ("repro.cache.cache", "SetAssocCache.peek"),
    ("repro.core.controller", "ProtectedMemory.write"),
    ("repro.core.controller", "ProtectedMemory.read"),
    ("repro.memory.dram", "DRAMSystem.service_wave"),
    ("repro.experiments.runner", "run_benchmark"),
    ("repro.experiments.runner", "run_jobs"),
)


@pytest.fixture(scope="module")
def tracer():
    name = "_perfbench_tracer"
    spec = importlib.util.spec_from_file_location(name, TRACER)
    assert spec is not None and spec.loader is not None
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the file executes.
    sys.modules[name] = module
    try:
        spec.loader.exec_module(module)
        yield module
    finally:
        del sys.modules[name]


@pytest.mark.parametrize("module,qualname", HOT)
def test_hot_layer_targets_resolve(tracer, module, qualname):
    targets = [
        target
        for target in tracer.TARGETS
        if (target.module, target.qualname) == (module, qualname)
    ]
    assert targets, f"the tracer no longer names {module}.{qualname}"
    assert all(tracer._resolve(target) is not None for target in targets)


def test_absent_targets_do_not_grow(tracer):
    absent = [t.label for t in tracer.TARGETS if tracer._resolve(t) is None]
    assert len(absent) <= MAX_ABSENT, absent
