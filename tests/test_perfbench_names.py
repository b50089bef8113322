"""The library names that the benchmark's tracer wraps still exist.

``perfbench/tracing.py`` replaces ``wavelq.<module>.<attr>`` for every entry
of its ``WRAPPED`` table, so renaming or deleting one of them would break the
benchmark's traced runs.  The table is read, not changed.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def wrapped_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [pytest.param(module, attr, id=f"{module}.{attr}")
            for module, attr, *_ in tracing.WRAPPED]


@pytest.mark.parametrize("module, attr", wrapped_names())
def test_wrapped_name_resolves(module, attr):
    assert callable(getattr(importlib.import_module(f"wavelq.{module}"), attr, None))
