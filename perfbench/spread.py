"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads noise-sweep --seeds 0-9

Runs ``run.py`` once per seed and workload, one process at a time, then
prints for every end-to-end metric the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread: the
distance between the quartiles as a share of the median, next to the
metric's bound in ``BENCHMARK.json``. Raw results are kept in
``perfbench/.work/spread-<workloads>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import ops


def _seed_range(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    with open(os.path.join(ops.ROOT, "BENCHMARK.json"), encoding="ascii") as fh:
        bench = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(
        w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", type=_seed_range, default=_seed_range("0-9"))
    parser.add_argument("--seconds", type=int, default=bench["run_seconds"])
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    results = {}
    for workload in args.workloads.split(","):
        runs = results[workload] = []
        for seed in args.seeds:
            proc = subprocess.run(
                [sys.executable, os.path.join(ops.ROOT, "perfbench", "run.py"),
                 "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ops.ROOT, capture_output=True, text=True, timeout=300)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            runs.append({k: v["value"] for k, v in result["metrics"].items()})
            print(workload, seed, json.dumps(runs[-1]), flush=True)
    os.makedirs(ops.WORK, exist_ok=True)
    with open(os.path.join(ops.WORK, f"spread-{args.workloads.replace(',', '+')}.json"),
              "w", encoding="ascii") as fh:
        json.dump(results, fh, indent=1)
    print(f"{'workload':16} {'metric':14} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'spread':>8} {'bound':>6}")
    for workload, runs in results.items():
        for name, bound in bounds.items():
            values = [run[name] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread < bound / 3 or name == "setup_s" else "  > bound/3"
            print(f"{workload:16} {name:14} {median:12.6g} {q1:12.6g} {q3:12.6g} "
                  f"{spread:8.4f} {bound:6.2f}{flag}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
