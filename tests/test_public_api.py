"""Names that other code looks up in pocpd must exist.

A refactor that removes a function can leave its name behind in a module's
`__all__`, or remove a lookup site that the benchmark's tracer wraps
(`perfbench/tracing.py`, TARGETS); the tracer then reports the target as
absent instead of failing.  Both are caught here, cheaply.
"""

import importlib.util
import pkgutil
from pathlib import Path

import pytest

import pocpd

MODULES = ["pocpd"] + [
    f"pocpd.{info.name}" for info in pkgutil.iter_modules(pocpd.__path__)
]
TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []


def test_trace_targets_resolve():
    tracing = load_tracing()
    missing = [
        (path, attr)
        for path, attr, _ in tracing.TARGETS
        if not hasattr(tracing.resolve(path), attr)
    ]
    assert missing == []
