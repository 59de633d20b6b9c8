"""The benchmark's per-layer spans wrap functions by name in the program's
modules (perfbench/tracing.py). A span whose wrap targets are all gone is
skipped there and its metrics read as absent, so a refactor that renames or
moves a wrapped function fails here instead."""
import importlib
import importlib.util
from pathlib import Path

import pytest

_TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _spans() -> dict:
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPANS


SPANS = _spans()


@pytest.mark.parametrize("name", sorted(SPANS))
def test_span_has_a_callable_target(name):
    targets, _ = SPANS[name]
    found = [
        f"{module}.{attr}"
        for module, attr in targets
        if callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert found, f"span {name!r}: none of its wrap targets {targets} exists"
