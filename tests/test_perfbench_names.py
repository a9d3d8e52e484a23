"""The benchmark's tracer names rstsim functions by module and name; these
must keep resolving, or its spans silently read zero."""

import importlib
import importlib.util
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rstsim.experiments as experiments

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "perfbench" / "spans.py"


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


# install rebinds module globals for good, so the traced run gets its own
# interpreter; it prints each span's name and its parent's name
_TRACED_RST_DEMO = """
import json, spans
from rstsim.experiments import ExperimentSpec, RUNNERS
from rstsim.rst import RstConfig
tracer = spans.Tracer()
spans.install(tracer)
spec = ExperimentSpec(kind="rst_demo", n0=8, d=10, epsilon=0.2,
                      trial_count=2, n_unlabeled=20, stage1_steps=5,
                      stage1_batch=4,
                      rst_config=RstConfig(epsilon=0.2, grad_steps=3,
                                           batch_size=4))
RUNNERS["rst_demo"](spec)
names = {s["id"]: s["name"] for s in tracer.spans}
print(json.dumps([(s["name"], names.get(s["parent"])) for s in tracer.spans]))
"""


def test_traced_rst_demo_records_the_trainers():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(ROOT / "src"), str(ROOT / "perfbench")])}
    out = subprocess.run([sys.executable, "-c", _TRACED_RST_DEMO], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=120).stdout
    spans = json.loads(out)
    names = [name for name, _ in spans]
    assert names.count("rst.standard_train") == 1
    # rst-demo's robust and labeled-only arms
    assert names.count("rst.rst_train") == 2
    objective_parents = {parent for name, parent in spans
                         if name == "rst.robust_objective"}
    assert objective_parents == {"rst.rst_train"}
