"""Self-tests of the benchmark's own arithmetic and checks.

    python3 perfbench/selftest.py

1. Self time and thread busy share on a synthetic trace over two threads,
   against figures worked out by hand.
2. One round of train-certify, whose outputs must pass every check; then
   one value of them is corrupted, and the checks must reject it.

Exits 0 when every test passes. run.py repeats test 2 on every run, for its
own workload and seed, as the operation checks_reject_corrupted_output.
"""

from __future__ import annotations

import math
import os
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def span(id, name, start, end, parent=None, thread=1, **attrs):
    return {"id": id, "name": name, "start": start, "end": end,
            "parent": parent, "thread": thread, **attrs}


def test_self_time() -> list[str]:
    # thread 1: cli.main [0, 10] > driver [1, 9] > pool [2, 8] > trial [2, 3]
    # thread 2: trial [2, 7] (parent: the pool span on thread 1)
    #           > sample_labeled [3, 5] and two overlapping q_function
    #             spans [5, 6] and [5.5, 6.5]
    trace = [
        span(1, "cli.main", 0.0, 10.0),
        span(2, "experiments.driver", 1.0, 9.0, 1, workers=2, rows=3),
        span(3, "experiments.run_indexed", 2.0, 8.0, 2),
        span(4, "experiments.trial", 2.0, 3.0, 3),
        span(5, "experiments.trial", 2.0, 7.0, 3, thread=2),
        span(6, "gaussian.sample_labeled", 3.0, 5.0, 5, thread=2, scalars=12),
        span(7, "statkit.q_function", 5.0, 6.0, 5, thread=2),
        span(8, "statkit.q_function", 5.5, 6.5, 5, thread=2),
    ]
    selfs = spans.self_times(trace)
    # the pool span loses only its same-thread child; trial 5 loses the
    # union of its children, [3, 6.5]
    want = {1: 2.0, 2: 2.0, 3: 5.0, 4: 1.0, 5: 1.5, 6: 2.0, 7: 1.0, 8: 1.0}
    errors = [f"self time of span {k}: {selfs[k]} != {v}"
              for k, v in want.items() if not math.isclose(selfs[k], v)]
    metrics = spans.layer_metrics(trace)
    expect = {"cli.self_s": 2.0, "experiments.self_s": 2.0 + 5.0 + 1.0 + 1.5,
              "gaussian.self_s": 2.0, "statkit.self_s": 2.0,
              "experiments.thread_busy_share": (1.0 + 5.0) / (2 * 8.0),
              "gaussian.sample_labeled.scalars": 12,
              "experiments.trial_rows": 3, "trace.spans": 8}
    errors += [f"{k}: {metrics[k]} != {v}" for k, v in expect.items()
               if not math.isclose(metrics[k], v)]
    return errors


def test_checks_reject_corruption() -> list[str]:
    workload = "train-certify"
    out = run.ROOT / ".perfbench_work" / "selftest"
    shutil.rmtree(out, ignore_errors=True)
    workers = len(os.sched_getaffinity(0))
    result = run.run_child(workload, 0, out, workers, gradients=True)
    if result is None or any(result["exit_codes"].values()):
        return [f"the {workload} round failed; see {out}"]
    labels = [label for label, _ in workloads.invocations(workload, workers)]
    outputs = run.read_outputs(out, labels)
    errors = workloads.check(workload, outputs, result).failures()
    corrupted = workloads.corrupt(workload, outputs)
    changed = [(label, kind) for label in outputs for kind in outputs[label]
               if outputs[label][kind] != corrupted[label][kind]]
    if len(changed) != 1:
        errors.append(f"corruption changed {changed}, not one file")
    if not workloads.check(workload, corrupted, result).failures():
        errors.append("the checks passed a corrupted output")
    return errors


def main() -> int:
    status = 0
    for test in (test_self_time, test_checks_reject_corruption):
        errors = test()
        print(f"{'FAIL' if errors else 'ok  '} {test.__name__}")
        for line in errors:
            print(f"     {line}")
        status |= bool(errors)
    return status


if __name__ == "__main__":
    sys.exit(main())
