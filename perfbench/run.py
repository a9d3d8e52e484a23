"""rstsim benchmark: run one workload for a fixed time and report its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source tree of rstsim (the package is imported from
src/, nothing is installed). Each round of the workload runs in a fresh
process (worker.py), one after another, until S seconds are used. With
--trace 0 the last line of standard output is a JSON object with the
end-to-end metrics (medians over rounds); with --trace 1 rounds alternate
untraced and traced, and the object holds the per-layer metrics. Every
round's CSVs must equal the first round's byte for byte, and the first
round's outputs go through the workload's correctness checks. Exit codes:
0 with a result, 2 when src/rstsim is absent, 3 when the memory preflight
refuses the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s",
                    "peak_rss_mb": "MB"}
MIN_ROUNDS = 3
MIN_TRACED_PAIRS = 2
ROUND_TIMEOUT_S = 150
# one thread per core for numpy's BLAS: rstsim's own pools do the threading
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
             "MKL_NUM_THREADS": "1"}


class Operations:
    """Counts operations attempted and failed, and keeps failure notes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.check_failed = False
        self.notes: list[str] = []

    def record(self, name: str, ok: bool, detail: str = "",
               is_check: bool = False) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.check_failed |= is_check
            self.notes.append(f"{name}: {detail}")


def mem_available_mb() -> float | None:
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return None


def preflight(workload: str) -> None:
    """Exit 3 when the machine lacks the memory a round of workload needs."""
    need = workloads.needed_memory_mb(workload)
    have = mem_available_mb()
    if need and have is not None and have < need:
        print(f"refusing {workload}: MemAvailable {have:.0f} MB is below its "
              f"measured peak plus margin, {need} MB", file=sys.stderr)
        sys.exit(3)


def run_child(workload: str, seed: int, out: Path, workers: int, *,
              trace: bool = False, gradients: bool = False) -> dict | None:
    out.mkdir(parents=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--out", str(out), "--workers", str(workers)]
    cmd += ["--trace"] * trace + ["--gradients"] * gradients
    env = dict(os.environ, **CHILD_ENV)
    with open(out / "stdout.log", "w") as so, open(out / "stderr.log", "w") as se:
        t0 = time.monotonic()
        try:
            proc = subprocess.run(cmd + ["--t0", repr(t0)], stdout=so,
                                  stderr=se, env=env, cwd=str(out),
                                  timeout=ROUND_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return None
    result_path = out / "result.json"
    if proc.returncode != 0 or not result_path.is_file():
        return None
    with open(result_path) as fh:
        return json.load(fh)


def read_outputs(out: Path, labels: list[str]) -> dict[str, dict[str, str]]:
    files = {}
    for label in labels:
        csv_path = out / f"{label}.csv"
        files[label] = {"trial": csv_path.read_text(),
                        "summary": Path(f"{csv_path}.summary.csv").read_text()}
    return files


def per_layer_units() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}


def run_rounds(args, workers: int, labels: list[str], work: Path,
               ops: Operations):
    """Rounds until the time is used; returns (results, first outputs)."""
    rounds: list[dict] = []
    first_outputs: dict[str, dict[str, str]] = {}
    round_times: list[float] = []
    start = time.perf_counter()
    while True:
        index = len(round_times)
        traced = bool(args.trace) and index % 2 == 1
        preflight(args.workload)
        began = time.perf_counter()
        out = work / f"round{index}"
        result = run_child(args.workload, args.seed, out, workers,
                           trace=traced,
                           gradients=index == 0
                           and args.workload == "train-certify")
        round_times.append(time.perf_counter() - began)
        codes = (result or {}).get("exit_codes", {})
        for label in labels:
            # a nonzero exit is a failed check: 2 is the program's own
            # --check, anything else a crash
            ops.record(f"round {index} {label}", codes.get(label) == 0,
                       f"exit code {codes.get(label)}; see {out}",
                       is_check=True)
            # exit code 2 (a failed --check) still writes both CSVs, and
            # the benchmark's own checks then run on them
            if codes.get(label) not in (0, 2):
                continue
            outputs = read_outputs(out, [label])[label]
            if label not in first_outputs:
                first_outputs[label] = outputs
            else:
                ops.record(f"round {index} {label} bytes",
                           outputs == first_outputs[label],
                           "CSV bytes differ from the first round's",
                           is_check=True)
        if result is not None:
            result["traced"] = traced
            rounds.append(result)
        done = len(round_times)
        enough = done >= (2 * MIN_TRACED_PAIRS if args.trace else MIN_ROUNDS)
        whole = not args.trace or done % 2 == 0
        elapsed = time.perf_counter() - start
        if enough and whole and elapsed + median(round_times) > args.seconds:
            return rounds, first_outputs


def check_outputs(workload: str, outputs: dict[str, dict[str, str]],
                  labels: list[str], extra: dict, ops: Operations) -> None:
    if set(outputs) != set(labels):
        ops.record("outputs_present", False, "no complete round of outputs",
                   is_check=True)
        return
    for name, ok, detail in workloads.check(workload, outputs, extra).results:
        ops.record(name, ok, detail, is_check=True)
    corrupted = workloads.check(workload, workloads.corrupt(workload, outputs),
                                extra)
    ops.record("checks_reject_corrupted_output", bool(corrupted.failures()),
               "a corrupted value passed every check", is_check=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "rstsim" / "cli.py").is_file():
        print(f"no rstsim source under {ROOT / 'src'}; run from a source tree",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    workers = len(os.sched_getaffinity(0))
    labels = [label for label, _ in workloads.invocations(args.workload,
                                                           workers)]
    work = ROOT / ".perfbench_work" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)

    ops = Operations()
    rounds, first_outputs = run_rounds(args, workers, labels, work, ops)
    check_outputs(args.workload, first_outputs, labels,
                  rounds[0] if rounds else {}, ops)

    plain = [r for r in rounds if not r["traced"]]
    traced = [r for r in rounds if r["traced"]]
    if not plain or (args.trace and not traced):
        print("no round finished; see " + str(work), file=sys.stderr)
        return 1
    if args.trace:
        metrics = {name: median([r["layers"][name] for r in traced])
                   for name in traced[0]["layers"]}
        metrics["trace.overhead_s"] = (median([r["wall_s"] for r in traced])
                                       - median([r["wall_s"] for r in plain]))
        units = per_layer_units()
    else:
        metrics = {name: median([r[name] for r in plain])
                   for name in ("wall_s", "cpu_s", "peak_rss_mb")}
        metrics["setup_s"] = median([r["setup_s"] for r in rounds])
        units = END_TO_END_UNITS

    for note in ops.notes:
        print(f"failed: {note}", file=sys.stderr)
    print(f"{args.workload}: {len(rounds)} rounds, "
          f"{time.perf_counter() - started:.1f} s", file=sys.stderr)
    print(json.dumps({
        "correct": not ops.check_failed,
        "attempted": ops.attempted,
        "failed": ops.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
