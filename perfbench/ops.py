"""Workload table, op execution and output digests shared by the runner and
the golden-digest generator.

An op is one user-level job: one or two ``usiq.cli.main(argv)`` calls that
write their outputs into a fresh directory. Op ``i`` of a run uses seed
``base + i``; the program only sees the resulting command lines.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import shutil
import sys
import traceback
from dataclasses import dataclass

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, "perfbench", ".work")
GOLDEN_PATH = os.path.join(ROOT, "perfbench", "golden.json")

# Warm-up ops draw their seeds far above any op seed of a run, so a cache
# keyed on content cannot carry warm-up work into the timed ops.
WARMUP_SEED_OFFSET = 1_000_000

_TRACE_PARAMS = ["--metrics", "mse,psnr,ssim,msssim,vif",
                 "--roi", "108,128,32,32",
                 "--param", "msssim:scales=3",
                 "--param", "msssim:weights=0.0448:0.2856:0.3001",
                 "--param", "vif:scales=3"]


def _reset_tracking(seed, out, warmup):
    argv = ["study", "tracking", "--seed", str(seed),
            "--trackers", "ncc,meanshift",
            "--out", os.path.join(out, "summary.csv"),
            "--frames-out", os.path.join(out, "frames.csv")]
    if warmup:
        argv += ["--frames", "8", "--calibrate", "3", "--hit-frame", "4"]
    return [argv]


def _noise_sweep(seed, out, warmup):
    argv = ["study", "noise-sweep", "--seed", str(seed),
            "--out", os.path.join(out, "sweep.csv")]
    argv += ["--alphas", "0.5", "--seeds", "1"] if warmup else ["--seeds", "2"]
    return [argv]


def _manifest_trace(seed, out, warmup):
    seq_dir = os.path.join(out, "seq")
    synth = ["synth", "sequence", "--seed", str(seed), "--out-dir", seq_dir]
    if warmup:
        synth += ["--frames", "6"]
    trace = ["trace", "--manifest", os.path.join(seq_dir, "frame_manifest.json"),
             *_TRACE_PARAMS, "--out", os.path.join(out, "trace.csv")]
    return [synth, trace]


@dataclass(frozen=True)
class Workload:
    name: str
    argvs: object          # (seed, out_dir, warmup) -> list of argv lists
    frames_per_op: int     # input frames (or scored images) one op handles
    traced_ops: int        # fixed op count of a traced run, so counts repeat


WORKLOADS = {w.name: w for w in (
    # criterion-7 protocol: both trackers, bare and reset arms, CW-SSIM reset
    Workload("reset-tracking", _reset_tracking, 90, 1),
    # nine alphas x two speckle draws, each scored by all six metrics at 256x256
    Workload("noise-sweep", _noise_sweep, 18, 2),
    # 90-frame synthesis to PGM, then a five-metric ROI trace read back from disk
    Workload("manifest-trace", _manifest_trace, 90, 5),
)}


def import_usiq(fresh: bool):
    """Import ``usiq.cli`` from this checkout's ``src``.

    ``fresh`` drops every loaded ``usiq`` module first, so module-level state
    and import-time work are redone. Raises ImportError when the package is
    absent or resolves outside this checkout.
    """
    if fresh:
        for name in [n for n in sys.modules if n == "usiq" or n.startswith("usiq.")]:
            del sys.modules[name]
    if sys.path[:1] != [SRC]:
        sys.path.insert(0, SRC)
    import usiq.cli
    origin = os.path.realpath(usiq.cli.__file__)
    if not origin.startswith(os.path.realpath(SRC) + os.sep):
        raise ImportError(f"usiq resolved to {origin}, not this checkout")
    return usiq.cli


@dataclass
class OpRun:
    ok: bool          # every CLI call returned 0 without raising
    error: str        # why not, when not ok
    stdout: str
    stderr: str


def run_op(cli_main, argvs) -> OpRun:
    """Call the CLI once per argv with stdout/stderr captured.

    Only the calls run here; the caller times this function and checks the
    outputs afterwards.
    """
    out, err = io.StringIO(), io.StringIO()
    error = ""
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        for argv in argvs:
            try:
                code = cli_main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # an op that raises is a failed op, not a crash
                error = traceback.format_exc()
                break
            if code != 0:
                error = f"exit status {code} from {argv[0]}"
                break
    return OpRun(not error, error, out.getvalue(), err.getvalue())


def digest_outputs(out_dir: str, run: OpRun) -> tuple[str, dict]:
    """SHA-256 of every output file plus the captured streams.

    Stream text has ``out_dir`` replaced by ``{out}`` so the digest does not
    depend on where the op ran. Returns (combined digest, per-item digests).
    """
    items = {}
    for dirpath, dirnames, filenames in os.walk(out_dir):
        dirnames.sort()
        for filename in sorted(filenames):
            path = os.path.join(dirpath, filename)
            rel = os.path.relpath(path, out_dir).replace(os.sep, "/")
            with open(path, "rb") as fh:
                items[rel] = hashlib.sha256(fh.read()).hexdigest()
    for stream, text in (("<stdout>", run.stdout), ("<stderr>", run.stderr)):
        items[stream] = hashlib.sha256(
            text.replace(out_dir, "{out}").encode()).hexdigest()
    listing = "".join(f"{k}\t{v}\n" for k, v in sorted(items.items()))
    return hashlib.sha256(listing.encode()).hexdigest(), items


def fresh_dir(parent: str, name: str) -> str:
    path = os.path.join(parent, name)
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    return path
