"""The names perfbench's tracer wraps must stay callable.

``perfbench/tracing.py`` imports only the standard library, so it loads
here without the benchmark harness; a renamed or removed layer fails this
test rather than only the separately run perfbench suite.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return [
        (f"{tracing.PACKAGE}.{module}", name)
        for module, names in tracing.TARGETS.items()
        for name in names
    ]


@pytest.mark.parametrize("module, name", _targets())
def test_traced_name_is_callable(module, name):
    assert callable(getattr(importlib.import_module(module), name, None))
