"""In-memory span tracing of rstsim's layers, from outside the package.

A Tracer wraps public functions of the rstsim modules and records one span
per call: name, start, end, parent span and thread. The wrappers replace the
module-level names that callers resolve at call time, so no file of the
package changes. Spans stay in memory until the traced run ends; then
`write_spans` saves them and `layer_metrics` derives the per-layer figures.

A span's parent is the innermost open span on the calling thread. Trials
that the drivers hand to a thread pool run on other threads; their spans
name the pool call as parent, so the written trace keeps the causal link,
but self time only subtracts children on the span's own thread.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import json
import threading
import time

# (module, function, span name); a span's layer is the part before the dot
TRACED = (
    ("statkit", "clopper_pearson_lower", "statkit.clopper_pearson_lower"),
    ("statkit", "binomial_upper_tail", "statkit.binomial_upper_tail"),
    ("statkit", "split_stream", "statkit.split_stream"),
    ("statkit", "inverse_gaussian_cdf", "statkit.inverse_gaussian_cdf"),
    ("statkit", "gaussian_cdf", "statkit.gaussian_cdf"),
    ("statkit", "q_function", "statkit.q_function"),
    ("gaussian", "sample_labeled", "gaussian.sample_labeled"),
    ("gaussian", "mc_error_estimate", "gaussian.mc_error_estimate"),
    ("gaussian", "standard_error", "gaussian.standard_error"),
    ("gaussian", "robust_error", "gaussian.robust_error"),
    ("estimators", "fast_supervised_sample",
     "estimators.fast_supervised_sample"),
    ("estimators", "fast_selftrain_sample", "estimators.fast_selftrain_sample"),
    ("estimators", "supervised_estimator", "estimators.supervised_estimator"),
    ("estimators", "sample_mixture", "estimators.sample_mixture"),
    ("estimators", "self_train", "estimators.self_train"),
    ("rst", "robust_objective", "rst.robust_objective"),
    ("rst", "rst_train", "rst.rst_train"),
    ("rst", "standard_train", "rst.standard_train"),
    ("smoothing", "certify", "smoothing.certify"),
    ("experiments", "analytic_certified_accuracy",
     "experiments.analytic_certified_accuracy"),
    ("experiments", "min_votes_for_radius", "experiments.min_votes_for_radius"),
    ("experiments", "write_csv", "experiments.write_csv"),
    ("experiments", "check_results", "experiments.check_results"),
    ("cli", "main", "cli.main"),
)
MODULES = ("statkit", "gaussian", "estimators", "rst", "smoothing",
           "experiments", "cli")

FAST_DRAWS = ("estimators.fast_supervised_sample",
              "estimators.fast_selftrain_sample")
MATERIALIZED_DRAWS = ("estimators.supervised_estimator", "estimators.self_train")
MATERIALIZED = ("estimators.supervised_estimator", "estimators.sample_mixture",
                "estimators.self_train")


class Tracer:
    """Records spans in memory; `wrap` turns a function into a traced one."""

    def __init__(self):
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> int | None:
        """Id of the innermost open span on the calling thread."""
        stack = self._stack()
        return stack[-1] if stack else None

    def wrap(self, name: str, fn, attrs=None, parent=None):
        """Traced fn. attrs(bound_args, result) adds counts to the span; a
        fixed parent id overrides the thread's innermost open span."""
        signature = inspect.signature(fn) if attrs is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            span = {"id": next(self._ids), "name": name,
                    "parent": parent if parent is not None else self.current(),
                    "thread": threading.get_ident()}
            stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                stack.pop()
                self.spans.append(span)
            if attrs is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(attrs(bound.arguments, result))
            return result

        return traced


def _sample_labeled_attrs(a, result):
    return {"scalars": int(a["n"]) * a["model"].d}


def _selftrain_attrs(a, result):
    return {"pool_points": int(a["n_unlabeled"])}


def _certify_attrs(a, result):
    config = a["config"]
    return {"noise_evals": config.n0_selection + config.n_estimation,
            "certified": int(result.certified)}


def _mc_attrs(a, result):
    return {"bytes": 8 * int(a["n_samples"]) * a["model"].d}


def _write_csv_attrs(a, result):
    return {"bytes": sum(len(line) + 1 for line in a["lines"])}


def install(tracer: Tracer) -> None:
    """Replace every binding of each traced function in the rstsim modules,
    the driver table, and the trial runner, with its traced wrapper."""
    import importlib

    modules = {name: importlib.import_module(f"rstsim.{name}")
               for name in MODULES}
    modules["__init__"] = importlib.import_module("rstsim")
    attrs = {"gaussian.sample_labeled": _sample_labeled_attrs,
             "estimators.fast_selftrain_sample": _selftrain_attrs,
             "gaussian.mc_error_estimate": _mc_attrs,
             "smoothing.certify": _certify_attrs,
             "experiments.write_csv": _write_csv_attrs}
    for module_name, fn_name, span_name in TRACED:
        original = getattr(modules[module_name], fn_name)
        traced = tracer.wrap(span_name, original, attrs.get(span_name))
        for module in modules.values():
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, traced)

    experiments = modules["experiments"]
    runners = experiments.RUNNERS
    for kind, runner in list(runners.items()):
        runners[kind] = tracer.wrap(
            "experiments.driver", runner,
            lambda a, result: {"workers": a["spec"].workers,
                               "rows": len(result[0])})

    run_indexed = experiments._run_indexed

    def pooled(fn, count, master_seed, base_index, workers):
        # wrapped inside the pool span, so that trials on worker threads
        # can name that span as their parent
        trial = tracer.wrap("experiments.trial", fn, parent=tracer.current())
        return run_indexed(trial, count, master_seed, base_index, workers)

    experiments._run_indexed = tracer.wrap("experiments.run_indexed", pooled)


def write_spans(spans: list[dict], path: str) -> None:
    with open(path, "w") as fh:
        for span in sorted(spans, key=lambda s: s["start"]):
            fh.write(json.dumps(span, sort_keys=True) + "\n")


def _covered(interval: tuple[float, float],
             children: list[tuple[float, float]]) -> float:
    """Length of the part of interval covered by the union of children."""
    lo, hi = interval
    total, reach = 0.0, lo
    for start, end in sorted(children):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its same-thread children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        parent = by_id.get(s["parent"])
        if parent is not None and parent["thread"] == s["thread"]:
            children.setdefault(parent["id"], []).append((s["start"], s["end"]))
    return {s["id"]: (s["end"] - s["start"])
            - _covered((s["start"], s["end"]), children.get(s["id"], []))
            for s in spans}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer figures of one traced invocation set (see the README)."""
    selfs = self_times(spans)
    by_id = {s["id"]: s for s in spans}

    def named(*names):
        return [s for s in spans if s["name"] in names]

    def seconds(*names):
        return sum(s["end"] - s["start"] for s in named(*names))

    def total(key, *names):
        return sum(s.get(key, 0) for s in named(*names))

    def outermost(*names):
        # spans of names not nested in another span of names
        return [s for s in named(*names)
                if by_id.get(s["parent"], {"name": None})["name"] not in names]

    out: dict[str, float] = {}
    for name in ("statkit.clopper_pearson_lower", "statkit.binomial_upper_tail",
                 "statkit.split_stream", "gaussian.sample_labeled",
                 "rst.robust_objective", "smoothing.certify"):
        out[f"{name}.calls"] = len(named(name))
    for name in ("statkit.clopper_pearson_lower", "statkit.binomial_upper_tail",
                 "gaussian.sample_labeled", "gaussian.mc_error_estimate",
                 "estimators.fast_supervised_sample",
                 "estimators.fast_selftrain_sample", "rst.robust_objective",
                 "rst.rst_train", "rst.standard_train", "smoothing.certify",
                 "experiments.analytic_certified_accuracy",
                 "experiments.write_csv", "experiments.check_results",
                 "cli.main"):
        out[f"{name}.s"] = seconds(name)
    for layer in MODULES:
        out[f"{layer}.self_s"] = sum(selfs[s["id"]] for s in spans
                                     if s["name"].split(".")[0] == layer)

    out["gaussian.sample_labeled.scalars"] = total(
        "scalars", "gaussian.sample_labeled")
    out["gaussian.mc_error_estimate.bytes"] = total(
        "bytes", "gaussian.mc_error_estimate")
    closed = ("gaussian.standard_error", "gaussian.robust_error")
    out["gaussian.closed_form.calls"] = len(named(*closed))
    out["gaussian.closed_form.s"] = seconds(*closed)

    out["estimators.fast_selftrain_sample.pool_points"] = total(
        "pool_points", "estimators.fast_selftrain_sample")
    out["estimators.materialized.s"] = sum(
        s["end"] - s["start"] for s in outermost(*MATERIALIZED))
    # fast_selftrain_sample and self_train each make one nested draw
    draws = outermost(*FAST_DRAWS, *MATERIALIZED_DRAWS)
    fast = sum(1 for s in draws if s["name"] in FAST_DRAWS)
    out["estimators.draws"] = len(draws)
    out["estimators.fast_path_share"] = fast / len(draws) if draws else 0.0

    certs = named("smoothing.certify")
    out["smoothing.certified_share"] = (
        total("certified", "smoothing.certify") / len(certs) if certs else 0.0)
    out["smoothing.noise_evals"] = total("noise_evals", "smoothing.certify")

    drivers = named("experiments.driver")
    out["experiments.driver.s"] = seconds("experiments.driver")
    out["experiments.trial_rows"] = total("rows", "experiments.driver")
    capacity = sum(s["workers"] * (s["end"] - s["start"]) for s in drivers)
    out["experiments.thread_busy_share"] = (
        seconds("experiments.trial") / capacity if capacity else 0.0)
    out["experiments.csv_bytes"] = total("bytes", "experiments.write_csv")
    out["trace.spans"] = len(spans)
    return out
