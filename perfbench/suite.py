"""Whole-benchmark commands on top of run.py.

    python3 perfbench/suite.py [--seed N]
        Self-tests, then every workload untraced (end-to-end metrics), then
        every workload traced (per-layer metrics), printing each metric by
        name and unit.

    python3 perfbench/suite.py steady [--runs R] [--first-seed N]
        Runs each workload R times untraced, seeds N, N+1, ..., and prints
        each end-to-end metric's median, quartiles and quartile spread as a
        share of the median, beside the metric's bound in BENCHMARK.json.

Every run lasts run_seconds of BENCHMARK.json. Workloads always run one at
a time. Run from the root of the source tree.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=str(ROOT), stdout=subprocess.PIPE,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def show(workload: str, report: dict) -> None:
    print(f"== {workload}: correct {report['correct']}, "
          f"{report['failed']} of {report['attempted']} operations failed")
    for name, metric in report["metrics"].items():
        print(f"   {name:48s} {metric['value']:14.6g} {metric['unit']}")


def suite(args) -> int:
    status = subprocess.run([sys.executable, str(HERE / "selftest.py")],
                            cwd=str(ROOT)).returncode
    seconds = spec()["run_seconds"]
    for trace in (0, 1):
        for workload in WORKLOADS:
            report = run(workload, args.seed, seconds, trace)
            show(f"{workload} ({'traced' if trace else 'end to end'})", report)
            status |= report["failed"] > 0 or not report["correct"]
    return int(bool(status))


def steady(args) -> int:
    bench = spec()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = bench["run_seconds"]
    log = ROOT / ".perfbench_work" / "steady.jsonl"
    log.parent.mkdir(exist_ok=True)
    status = 0
    for workload in WORKLOADS:
        reports = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            report = run(workload, seed, seconds, 0)
            reports.append(report)
            with open(log, "a") as fh:
                fh.write(json.dumps({"workload": workload, "seed": seed,
                                     **report}) + "\n")
        shares = {r["failed"] / r["attempted"] for r in reports}
        print(f"== {workload}: {args.runs} runs of {seconds} s, failed "
              f"shares {sorted(shares)}, all correct "
              f"{all(r['correct'] for r in reports)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in reports]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            verdict = "steady" if spread < bound / 3 else "UNSTEADY"
            # the spread of set-up time is reported but not held to its bound
            if verdict != "steady" and name != "setup_s":
                status = 1
            print(f"   {name:12s} median {med:10.4f}  q1 {q1:10.4f}  "
                  f"q3 {q3:10.4f}  spread {spread:6.3f}  bound {bound}  "
                  f"{verdict}")
    return status


def main() -> int:
    parser = argparse.ArgumentParser(description="rstsim benchmark suite")
    parser.add_argument("command", nargs="?", default="all",
                        choices=("all", "steady"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--runs", type=int, default=10)
    args = parser.parse_args()
    return suite(args) if args.command == "all" else steady(args)


if __name__ == "__main__":
    sys.exit(main())
