"""The benchmark's traced run wraps package functions by name, and its loop
imports package names to check outputs; every such name must still
resolve, or the benchmark breaks when code is removed."""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)


@pytest.mark.parametrize("module, path, info", tracing.TARGETS)
def test_trace_target_resolves(module, path, info):
    owner = importlib.import_module(f"qconvenc.{module}")
    for part in path.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
    if info == "budget":
        # the tracer reads the search budget off the signature default
        default = inspect.signature(owner).parameters["max_candidates"].default
        assert isinstance(default, int) and default > 0


def test_completion_search_keeps_budget_default():
    from qconvenc.catastrophic import complete_noncatastrophic

    param = inspect.signature(complete_noncatastrophic).parameters["max_candidates"]
    assert param.default is not inspect.Parameter.empty


def _loop_imports():
    """(module, name) for every `from qconvenc... import name` in the
    benchmark loop, which imports them at start-up, untraced."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "loop.py"
    tree = ast.parse(path.read_text())
    return [
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("qconvenc")
        for alias in node.names
    ]


def test_loop_imports_are_found():
    # guards against a parse that finds nothing, which would pass vacuously
    assert ("qconvenc.simulate", "syndrome_by_products") in _loop_imports()


@pytest.mark.parametrize("module, name", _loop_imports())
def test_loop_import_resolves(module, name):
    assert hasattr(importlib.import_module(module), name)
