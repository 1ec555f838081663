"""The benchmark's traced run wraps package functions by name; every name
it lists must still resolve, or `--trace 1` breaks when code is removed."""

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
