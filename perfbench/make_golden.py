"""Regenerate the golden output digests that the benchmark checks ops against.

    python3 perfbench/make_golden.py --workload reset-tracking --count 120

Runs op seeds 0 .. count-1 of one workload in-process and stores, per seed,
the combined SHA-256 of the op's outputs in ``perfbench/golden.json``, plus
the per-file digests of seed 0 for diagnosing a mismatch. Run it only on a
commit whose outputs are known good: the table defines correct output.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil

import ops


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    parser.add_argument("--count", type=int, required=True)
    args = parser.parse_args()
    workload = ops.WORKLOADS[args.workload]
    cli = ops.import_usiq(fresh=False)
    scratch = os.path.join(ops.WORK, f"golden-{os.getpid()}")
    digests, files_at_0 = [], None
    try:
        for seed in range(args.count):
            out = ops.fresh_dir(scratch, "op")
            run = ops.run_op(cli.main, workload.argvs(seed, out, False))
            if not run.ok:
                raise SystemExit(f"seed {seed} failed: {run.error}")
            combined, items = ops.digest_outputs(out, run)
            digests.append(combined)
            if seed == 0:
                files_at_0 = items
            print(args.workload, seed, combined[:12], flush=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    table = {"format": 1, "workloads": {}}
    if os.path.exists(ops.GOLDEN_PATH):
        with open(ops.GOLDEN_PATH, encoding="ascii") as fh:
            table = json.load(fh)
    table["workloads"][args.workload] = {"files_at_seed_0": files_at_0,
                                         "ops": digests}
    with open(ops.GOLDEN_PATH, "w", encoding="ascii") as fh:
        json.dump(table, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
