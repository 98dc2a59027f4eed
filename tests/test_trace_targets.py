"""The benchmark's layer tracer wraps program functions by name.

`Tracer.install` in perfbench/tracing.py skips a target it cannot find, so
a refactor that renames or drops one would silently remove its per-layer
metrics. Every target must still resolve to a callable.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize(
    "module_name, attr",
    [target for targets in tracing.FUNCTION_TARGETS.values() for target in targets],
)
def test_function_target_resolves(module_name, attr):
    assert callable(getattr(importlib.import_module(module_name), attr, None))


@pytest.mark.parametrize("module_name, cls_name, attr", list(tracing.METHOD_TARGETS.values()))
def test_method_target_resolves(module_name, cls_name, attr):
    cls = getattr(importlib.import_module(module_name), cls_name, None)
    assert callable(getattr(cls, attr, None))
