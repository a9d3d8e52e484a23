"""One round of a workload in a process of its own.

Run by run.py, never by hand:

    python3 perfbench/worker.py --workload NAME --seed N --out DIR --t0 T
        [--trace] [--gradients]

T is the parent's time.monotonic() just before it started this process, so
the set-up time covers interpreter start and the rstsim import. The round
calls rstsim.cli.main once per invocation of the workload, in this process,
and writes DIR/result.json: set-up time, wall and CPU time of the
invocations, peak resident set, exit codes, and with --trace the spans
(to DIR/spans.jsonl) and the per-layer figures derived from them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time


def gradient_errors(seed: int) -> dict[str, float]:
    """Worst relative gap between robust_objective's gradient and a central
    difference along random directions, per regularizer the workload uses."""
    import numpy as np

    from rstsim.rst import RstConfig, robust_objective
    from workloads import GRADIENT_KINDS

    rng = np.random.default_rng([seed, 7])
    d, n = 100, 64
    sigma = (30 * d) ** 0.25
    ys = rng.choice([-1.0, 1.0], size=n)
    xs = ys[:, None] + sigma * rng.standard_normal((n, d))
    weights = rng.uniform(0.5, 1.5, size=n)
    theta = 0.02 * rng.standard_normal(d)
    directions = rng.standard_normal((4, d))
    out = {}
    for kind in GRADIENT_KINDS:
        config = RstConfig(beta=3.0, w_unlabeled=1.0, epsilon=0.5,
                           learning_rate=1e-3, grad_steps=50, batch_size=256,
                           reg_kind=kind)

        def objective(t):
            # the same stream each time, so pg starts from the same offsets
            return robust_objective(t, xs, ys, weights, config,
                                    np.random.default_rng([seed, 8]))

        _, grad = objective(theta)
        worst = 0.0
        h = 1e-6
        for v in directions:
            v = v / np.linalg.norm(v)
            numeric = (objective(theta + h * v)[0]
                       - objective(theta - h * v)[0]) / (2 * h)
            analytic = float(np.sum(grad * v))
            scale = max(abs(numeric), abs(analytic), 1e-8)
            worst = max(worst, abs(numeric - analytic) / scale)
        out[kind] = worst
    return out


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--workers", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--gradients", action="store_true")
    args = parser.parse_args()

    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import rstsim.cli  # noqa: F401  (the import is what set-up measures)

    result = {"setup_s": time.monotonic() - args.t0, **run_round(args)}
    with open(os.path.join(args.out, "result.json"), "w") as fh:
        json.dump(result, fh)
    return 0


def run_round(args) -> dict:
    import rstsim.cli

    from workloads import invocations

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    exit_codes = {}
    usage0 = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    for label, argv in invocations(args.workload, args.workers):
        out = os.path.join(args.out, f"{label}.csv")
        exit_codes[label] = rstsim.cli.main(
            argv + ["--seed", str(args.seed), "--out", out, "--check"])
    wall_s = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_SELF)
    result = {
        "wall_s": wall_s,
        "cpu_s": (usage.ru_utime - usage0.ru_utime)
        + (usage.ru_stime - usage0.ru_stime),
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "exit_codes": exit_codes,
    }
    if tracer is not None:
        spans.write_spans(tracer.spans, os.path.join(args.out, "spans.jsonl"))
        result["layers"] = spans.layer_metrics(tracer.spans)
    if args.gradients:
        result["gradient_rel_err"] = gradient_errors(args.seed)
    return result


if __name__ == "__main__":
    sys.exit(main())
