"""usiq benchmark runner: one workload per process, driven through the CLI.

    python3 perfbench/run.py --workload reset-tracking --seed 0 --seconds 30 --trace 0

Set-up re-imports ``usiq`` from this checkout's ``src`` and runs one reduced
warm-up op, SETUP_ROUNDS times; ``setup_s`` is the median round. The run
then times full ops (op ``i`` uses seed ``seed + i``, wrapped into the golden
table) until the next op would end past ``--seconds``, checks every op's
outputs against the golden digests, and prints the end-to-end metrics as the
last stdout line.

With ``--trace 1`` it instead runs the workload's fixed number of op seeds
twice each, once plain and once under the outside-in tracer, and prints the
per-layer metrics. The line before the result is a JSON record of the
environment and every op; spans and records go to ``perfbench/.work``.
Exit status is 0 only when every op succeeded and matched its digests.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse
import contextlib
import gc
import glob
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys

THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
              "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# A run is one thread: BLAS and OpenMP pools would otherwise add helper
# threads that contend with the op on a small shared host. This must happen
# before numpy is first imported.
os.environ.update({name: "1" for name in THREAD_ENV})

import ops
import tracer as tracing

SETUP_ROUNDS = 5


def parse_args(argv):
    parser = argparse.ArgumentParser(description="usiq benchmark runner")
    parser.add_argument("--workload", required=True, choices=sorted(ops.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


# ---------------------------------------------------------------------------
# Output checks


class Checker:
    """Compares op digests with the golden table."""

    def __init__(self, workload: str):
        with open(ops.GOLDEN_PATH, encoding="ascii") as fh:
            entry = json.load(fh)["workloads"][workload]
        self.golden = entry["ops"]
        self.files_at_0 = entry["files_at_seed_0"]

    def op_seed(self, n: int) -> int:
        """The seed op number ``n`` of a run uses: ``n`` wrapped into the
        table, so every op has a golden digest to match."""
        return n % len(self.golden)

    def check(self, seed: int, out_dir: str, run: ops.OpRun) -> str:
        """Empty string when the op is good, else the reason it failed."""
        if not run.ok:
            return run.error
        combined, items = ops.digest_outputs(out_dir, run)
        if combined == self.golden[seed]:
            return ""
        if seed == 0:
            bad = sorted(k for k in set(items) | set(self.files_at_0)
                         if items.get(k) != self.files_at_0.get(k))
            return f"digest mismatch in {bad[:8]}"
        return "digest mismatch"


# ---------------------------------------------------------------------------
# Set-up and ops


def setup(workload, base_seed, work):
    """Import, make a scratch dir and warm up, SETUP_ROUNDS times."""
    rounds = []
    cli = None
    for r in range(SETUP_ROUNDS):
        start = _PROCESS_T0 if r == 0 else time.perf_counter()
        cli = ops.import_usiq(fresh=r > 0)
        out = ops.fresh_dir(work, "warmup")
        run = ops.run_op(cli.main, workload.argvs(
            base_seed + ops.WARMUP_SEED_OFFSET, out, True))
        rounds.append(time.perf_counter() - start)
        if not run.ok:
            raise RuntimeError(f"warm-up op failed: {run.error}")
    return cli, rounds


class OpLog:
    def __init__(self, workload, checker, cli, work):
        self.workload, self.checker, self.cli, self.work = workload, checker, cli, work
        self.records = []

    def run(self, n: int, tracer=None) -> float:
        """Run op number ``n`` (base seed plus index) and return its wall time."""
        seed = self.checker.op_seed(n)
        out = ops.fresh_dir(self.work, "op")
        argvs = self.workload.argvs(seed, out, False)
        scope = tracer.op(len(self.records)) if tracer else contextlib.nullcontext()
        # Collect garbage left by earlier ops now, so no op pays for it.
        gc.collect()
        with scope:
            start = time.perf_counter()
            run = ops.run_op(self.cli.main, argvs)
            wall = time.perf_counter() - start
        failure = self.checker.check(seed, out, run)
        self.records.append({"seed": seed, "traced": tracer is not None,
                             "wall_s": wall, "failure": failure})
        if failure:
            print(f"op seed {seed}: {failure}", file=sys.stderr)
        return wall

    @property
    def failed(self) -> int:
        return sum(1 for r in self.records if r["failure"])


def timed_ops(log: OpLog, base_seed: int, seconds: int) -> list[float]:
    """Run ops until the next one would end past ``seconds``."""
    start = time.perf_counter()
    walls = []
    while True:
        walls.append(log.run(base_seed + len(walls)))
        if time.perf_counter() - start + statistics.median(walls) > seconds:
            return walls


def traced_ops(log: OpLog, base_seed: int, n_ops: int):
    """Each op seed once plain and once traced, alternating which goes first."""
    tracer = tracing.Tracer()
    plain = traced = 0.0
    for i in range(n_ops):
        for under_trace in ((True, False) if i % 2 == 0 else (False, True)):
            if under_trace:
                tracer.install()
                try:
                    traced += log.run(base_seed + i, tracer)
                finally:
                    tracer.uninstall()
            else:
                plain += log.run(base_seed + i)
    return tracer, traced / plain - 1.0


# ---------------------------------------------------------------------------
# Environment record and count stability


def _git_commit():
    head = os.path.join(ops.ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="ascii") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ops.ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="ascii") as fh:
                return fh.read().strip()
        with open(os.path.join(ops.ROOT, ".git", "packed-refs"), encoding="ascii") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return None


def code_digest() -> str:
    """SHA-256 over the package sources and the benchmark's own code."""
    h = hashlib.sha256()
    paths = sorted(glob.glob(os.path.join(ops.SRC, "usiq", "*.py"))
                   + glob.glob(os.path.join(ops.ROOT, "perfbench", "*.py")))
    for path in paths:
        h.update(os.path.relpath(path, ops.ROOT).encode())
        with open(path, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def environment(base_seed: int) -> dict:
    import numpy
    import scipy

    cpu_model = None
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu_model = next((line.split(":", 1)[1].strip() for line in fh
                              if line.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except Exception:  # the config layout differs across numpy versions
        blas = None
    return {"git_commit": _git_commit(), "code_sha256": code_digest(),
            "benchmark_seed": base_seed, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
            "cpu_model": cpu_model, "blas": blas,
            "thread_env": {k: os.environ.get(k) for k in THREAD_ENV}}


def count_drift(workload: str, base_seed: int, layer: dict, code: str) -> list[str]:
    """Exact counts must repeat across runs of the same code and seed.

    The first traced run stores its counts; later ones are compared to them.
    """
    counts = {k: v for k, v in layer.items() if k.endswith(tracing.EXACT_SUFFIXES)}
    path = os.path.join(ops.WORK, "counts", f"{workload}-seed{base_seed}-{code[:16]}.json")
    if os.path.exists(path):
        with open(path, encoding="ascii") as fh:
            earlier = json.load(fh)
        return sorted(k for k in set(counts) | set(earlier)
                      if counts.get(k) != earlier.get(k))
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w", encoding="ascii") as fh:
        json.dump(counts, fh, indent=1, sort_keys=True)
    return []


# ---------------------------------------------------------------------------


def middle_half(values):
    """The values between the first and the third quartile."""
    ranked = sorted(values)
    quarter = len(ranked) // 4
    return ranked[quarter:len(ranked) - quarter]


E2E_UNITS = {"op_s_p50": "s", "frames_per_s": "1/s", "peak_rss_mb": "MB",
             "setup_s": "s"}


def end_to_end(workload, log, args, setup_rounds):
    walls = timed_ops(log, args.seed, args.seconds)
    # Throughput over the middle half of the ops: the host's speed drifts,
    # and a mean over every op follows the fastest and slowest stretches.
    middle = middle_half(walls)
    metrics = {
        "op_s_p50": statistics.median(walls),
        "frames_per_s": workload.frames_per_op * len(middle) / sum(middle),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": statistics.median(setup_rounds),
    }
    return {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in metrics.items()}, {}


def per_layer(workload, log, args):
    tracer, overhead = traced_ops(log, args.seed, workload.traced_ops)
    metrics = tracer.layer_metrics(workload.traced_ops)
    metrics["trace.overhead_ratio"] = overhead
    drift = count_drift(args.workload, args.seed, metrics, code_digest())
    if drift:
        print(f"counts differ from an earlier run: {drift}", file=sys.stderr)
    tracer.dump_spans(os.path.join(ops.WORK, f"spans-{args.workload}-seed{args.seed}.tsv"))
    return ({k: {"value": v, "unit": tracing.unit_of(k)} for k, v in metrics.items()},
            {"count_drift": drift})


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.exists(os.path.join(ops.SRC, "usiq", "__init__.py")):
        print(f"no usiq package under {ops.SRC}", file=sys.stderr)
        return 2
    workload = ops.WORKLOADS[args.workload]
    checker = Checker(args.workload)
    work = ops.fresh_dir(ops.WORK, f"run-{os.getpid()}")
    try:
        cli, setup_rounds = setup(workload, args.seed, work)
        log = OpLog(workload, checker, cli, work)
        if args.trace:
            metrics, extra = per_layer(workload, log, args)
        else:
            metrics, extra = end_to_end(workload, log, args, setup_rounds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    attempted, failed = len(log.records), log.failed
    result = {"correct": failed == 0 and not extra.get("count_drift"),
              "attempted": attempted, "failed": failed, "metrics": metrics}
    record = {"workload": args.workload, "trace": args.trace,
              "setup_rounds_s": setup_rounds, "failed_op_ratio": failed / attempted,
              **extra, "environment": environment(args.seed), "ops": log.records,
              "result": result}
    with open(os.path.join(ops.WORK, f"result-{args.workload}-seed{args.seed}"
                                     f"-trace{args.trace}.json"), "w", encoding="ascii") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(record, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
