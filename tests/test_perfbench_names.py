"""The benchmark's tracer names rstsim functions by module and name; these
must keep resolving, or its spans silently read zero."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

import rstsim.experiments as experiments

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("module_name,fn_name,span", _traced())
def test_traced_function_resolves(module_name, fn_name, span):
    module = importlib.import_module(f"rstsim.{module_name}")
    assert callable(getattr(module, fn_name, None)), span


def test_run_indexed_keeps_the_wrapped_parameters():
    # the tracer replaces _run_indexed with a wrapper of these parameters
    params = list(inspect.signature(experiments._run_indexed).parameters)
    assert params == ["fn", "count", "master_seed", "base_index", "workers"]
