"""CLI tests: subcommand plumbing, error reporting, byte reproducibility."""

import dataclasses
import json
import os
import platform
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

import usiq
from usiq import cli, synth, tracking
from usiq.harness import (
    run_tracking_study,
    write_tracking_frames_csv,
    write_tracking_summary_csv,
)
from usiq.image import Landmark, Roi
from usiq.metrics import CwSsimParams, VifParams, prepare
from usiq.pyramid import PyramidParams
from usiq.tracking import ResetConfig

from builders import (
    bench_sequence,
    counted,
    held,
    hexed,
    peak_traced_bytes,
)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory, run_cli):
    """One shared scratch dir with a clean and a speckled phantom."""
    path = tmp_path_factory.mktemp("cli")
    for name, extra in (("clean.pgm", []), ("noisy.pgm", ["--alpha", "0.4"])):
        proc = run_cli("synth", "phantom", "--out", name, "--seed", "3",
                       *extra, cwd=path)
        assert proc.returncode == 0, proc.stderr
    return path


def test_compare_prints_value(workdir, run_cli):
    proc = run_cli("compare", "clean.pgm", "noisy.pgm", "--metric", "mse",
                   cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    assert float(proc.stdout.strip()) > 0.0


def test_compare_identity_psnr_is_inf(workdir, run_cli):
    proc = run_cli("compare", "clean.pgm", "clean.pgm", "--metric", "psnr",
                   cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "inf"


def test_compare_accepts_metric_params(workdir, run_cli):
    proc = run_cli("compare", "clean.pgm", "noisy.pgm", "--metric", "cwssim",
                   "--param", "levels=3", "--param", "orientations=4",
                   cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    assert 0.0 < float(proc.stdout.strip()) < 1.0


def test_compare_missing_file_reports_io_error(workdir, run_cli):
    proc = run_cli("compare", "clean.pgm", "absent.pgm", "--metric", "mse",
                   cwd=workdir)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("io-error:")


def test_compare_bad_param_reports_kind(workdir, run_cli):
    proc = run_cli("compare", "clean.pgm", "noisy.pgm", "--metric", "ssim",
                   "--param", "window_size=4", cwd=workdir)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("invalid-params:")


@pytest.mark.parametrize("metric, param", [
    ("psnr", "peakval=abc"),
    ("psnr", "peakval=1:2"),
    ("psnr", "peakval=inf"),
    ("psnr", "peakval=nan"),
    ("cwssim", "levels=2.0"),
    ("cwssim", "levels=abc"),
    ("vif", "scales=2.0"),
    ("ssim", "window_size=7.5"),
])
def test_compare_malformed_param_reports_kind(workdir, run_cli, metric, param):
    proc = run_cli("compare", "clean.pgm", "noisy.pgm", "--metric", metric,
                   "--param", param, cwd=workdir)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("invalid-params:")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("study", ["correlation", "noise-sweep"])
def test_study_metrics_default_is_every_metric(study):
    args = cli.build_parser().parse_args(["study", study, "--out", "x"])
    assert args.metrics == "mse,psnr,ssim,msssim,cwssim,vif"


def test_the_parser_is_built_once(capsys, monkeypatch):
    cli.build_parser.cache_clear()
    builds = counted(monkeypatch, cli, "_add_reset_options")
    argv = ["compare", "a.pgm", "b.pgm", "--metric", "mse", "--param", "x"]
    assert cli.main(argv) == 2
    assert cli.main(argv) == 2
    assert cli.build_parser() is cli.build_parser()
    # track and study tracking each add the reset options once per build
    assert len(builds) == 2


@pytest.mark.parametrize("argv, option, lead", [
    (["trace", "--manifest", "missing.json", "--metrics", "cwssim",
      "--out", "x.csv"], "--param", []),
    (["track", "--manifest", "missing.json", "--tracker", "ncc", "--reset",
      "--reset-roi", "108,128,32,32", "--calibrate", "3", "--out", "x.csv"],
     "--reset-param", []),
    # the study puts its pyramid depth before the user's reset params
    (["study", "tracking", "--frames", "20", "--calibrate", "3",
      "--hit-frame", "4", "--out", "x.csv"], "--reset-param",
     ["cwssim:levels=3"]),
])
def test_main_calls_share_no_list_of_the_parser(argv, option, lead, capsys,
                                                monkeypatch):
    seen = []

    def recording(items, metrics, default_metric=None):
        seen.append(items)
        raise cli.InvalidParamsError("stop")

    monkeypatch.setattr(cli, "_collect_params", recording)
    for value in ("k_stab=0.02", "k_stab=0.04"):
        assert cli.main([*argv, option, f"cwssim:{value}"]) == 2
    assert seen == [[*lead, "cwssim:k_stab=0.02"],
                    [*lead, "cwssim:k_stab=0.04"]]
    assert seen[0] is not seen[1]


def test_trace_and_track_over_manifest(workdir, run_cli):
    proc = run_cli("synth", "sequence", "--out-dir", "seq", "--seed", "0",
                   "--frames", "10", "--alpha", "0.3", cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    manifest = proc.stdout.strip()

    proc = run_cli("trace", "--manifest", manifest, "--metrics", "mse,ssim",
                   "--roi", "108,128,32,32", "--out", "trace.csv",
                   cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    lines = (workdir / "trace.csv").read_text().splitlines()
    assert lines[0] == "frame,mse_raw,mse_normalized,ssim_raw,ssim_normalized"
    assert len(lines) == 11

    proc = run_cli("track", "--manifest", manifest, "--tracker", "ncc",
                   "--out", "track.csv", cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    lines = (workdir / "track.csv").read_text().splitlines()
    assert lines[0] == ("frame,landmark_id,x_px,y_px,reset_fired,"
                        "similarity_value")
    assert len(lines) == 11

    proc = run_cli("track", "--manifest", manifest, "--tracker", "ncc",
                   "--reset", "--reset-roi", "108,128,32,32",
                   "--reset-param", "levels=3", "--tau", "0.99",
                   "--out", "wrapped.csv", cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    first = (workdir / "wrapped.csv").read_text().splitlines()[1]
    # the reference frame scores 1.0 > tau, so frame 0 fires
    assert first.split(",")[4] == "1"


def test_track_reset_needs_roi_and_threshold(workdir, run_cli):
    proc = run_cli("synth", "sequence", "--out-dir", "seq2", "--seed", "1",
                   "--frames", "4", "--alpha", "0", cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    manifest = proc.stdout.strip()
    proc = run_cli("track", "--manifest", manifest, "--tracker", "ncc",
                   "--reset", "--out", "x.csv", cwd=workdir)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("invalid-params:")
    proc = run_cli("track", "--manifest", manifest, "--tracker", "ncc",
                   "--reset", "--reset-roi", "108,128,32,32", "--out",
                   "x.csv", cwd=workdir)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("invalid-params:")


def test_bad_roi_string_reports_kind(workdir, run_cli):
    proc = run_cli("synth", "sequence", "--out-dir", "seq_roi", "--seed", "2",
                   "--frames", "2", "--alpha", "0", cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    manifest = proc.stdout.strip()
    proc = run_cli("trace", "--manifest", manifest, "--metrics", "mse",
                   "--roi", "1,2,3", "--out", "t.csv", cwd=workdir)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("invalid-params:")


def test_bad_roi_is_reported_before_the_manifest_is_read(workdir, run_cli):
    proc = run_cli("trace", "--manifest", "missing.json", "--metrics", "mse",
                   "--roi", "1,2,3", "--out", "t.csv", cwd=workdir)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("invalid-params:")


def test_bad_reset_roi_is_reported_before_the_manifest_is_read(workdir,
                                                                run_cli):
    proc = run_cli("track", "--manifest", "missing.json", "--tracker", "ncc",
                   "--reset", "--reset-roi", "1,2,3", "--tau", "0.9",
                   "--out", "x.csv", cwd=workdir)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("invalid-params:")


def test_bad_compare_param_is_reported_before_the_images_are_read(workdir,
                                                                  run_cli):
    proc = run_cli("compare", "missing_a.pgm", "missing_b.pgm", "--metric",
                   "ssim", "--param", "window_size=4", cwd=workdir)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("invalid-params:")


def test_correlation_trace_out_matches_trace(workdir, run_cli):
    proc = run_cli("synth", "sequence", "--out-dir", "seq_corr", "--seed", "4",
                   "--frames", "6", cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    manifest = proc.stdout.strip()
    args = ("--manifest", manifest, "--metrics", "mse,ssim", "--roi",
            "108,128,32,32", "--param", "ssim:window_size=7")
    proc = run_cli("study", "correlation", *args, "--out", "corr.json",
                   "--trace-out", "corr_trace.csv", cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    proc = run_cli("trace", *args, "--out", "plain_trace.csv", cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    got = (workdir / "corr_trace.csv").read_bytes()
    assert got == (workdir / "plain_trace.csv").read_bytes()
    assert len(got.splitlines()) == 7


def test_synth_sweep_writes_index(workdir, run_cli):
    proc = run_cli("synth", "sweep", "--out-dir", "sweepdir", "--alphas",
                   "0.2,0.6", "--seed", "0", cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    index = (workdir / "sweepdir" / "index.csv").read_text().splitlines()
    assert index == ["alpha,filename", "0.2,speckle_00.pgm",
                     "0.6,speckle_01.pgm"]
    assert (workdir / "sweepdir" / "clean.pgm").exists()


def test_study_correlation_seeded_reruns_are_byte_identical(workdir, run_cli):
    args = ("study", "correlation", "--seed", "5", "--frames", "10",
            "--alpha", "0.3", "--metrics", "mse,ssim", "--roi",
            "108,128,32,32")
    blobs = []
    for name in ("corr_a.json", "corr_b.json"):
        proc = run_cli(*args, "--out", name, cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        blobs.append((workdir / name).read_bytes())
    assert blobs[0] == blobs[1]
    entries = json.loads(blobs[0])
    assert [set(e) for e in entries] == [{"metric", "abs_pearson", "sign"}] * 2


def test_study_noise_sweep_shape_and_determinism(workdir, run_cli):
    args = ("study", "noise-sweep", "--alphas", "0.3,0.6", "--metrics",
            "mse,ssim", "--seeds", "2", "--seed", "2")
    blobs = []
    for name in ("sweep_a.csv", "sweep_b.csv"):
        proc = run_cli(*args, "--out", name, cwd=workdir)
        assert proc.returncode == 0, proc.stderr
        blobs.append((workdir / name).read_bytes())
    assert blobs[0] == blobs[1]
    lines = blobs[0].decode("ascii").splitlines()
    assert lines[0] == "alpha,metric,mean_value,normalized_value"
    assert len(lines) == 5


def test_study_tracking_summary_shape(workdir, run_cli):
    proc = run_cli("study", "tracking", "--seed", "0", "--trackers", "ncc",
                   "--out", "summary.csv", "--frames-out", "frames.csv",
                   cwd=workdir)
    assert proc.returncode == 0, proc.stderr
    lines = (workdir / "summary.csv").read_text().splitlines()
    assert lines[0] == "tracker,reset,mean_error_mm,std_error_mm,reset_events"
    assert len(lines) == 3
    bare = lines[1].split(",")
    wrapped = lines[2].split(",")
    assert (bare[0], bare[1]) == ("ncc", "0")
    assert (wrapped[0], wrapped[1]) == ("ncc", "1")
    # the injected +100 px jump sticks to the decoy unless reset intervenes
    assert float(wrapped[2]) < float(bare[2])
    assert int(wrapped[4]) > 0
    frame_lines = (workdir / "frames.csv").read_text().splitlines()
    assert frame_lines[0] == "frame,bare_error_mm,reset_error_mm"
    assert len(frame_lines) == 91


def test_study_tracking_scores_the_reset_trace_once(tmp_path, monkeypatch):
    # both trackers' reset arms gate on the same CW-SSIM trace, so the
    # reference is prepared once and each of the 90 frames is scored once
    prepared, scored = [], []

    def counting(name, ref, params=None):
        # the gate may score only through the batch entry point
        prepared.append(name)
        scorer = prepare(name, ref, params)

        def values(tests):
            tests = list(tests)
            scored.extend(name for _ in tests)
            return scorer.values(tests)
        return SimpleNamespace(values=values, stack_size=scorer.stack_size)

    monkeypatch.setattr(tracking, "prepare", counting)
    summary = tmp_path / "summary.csv"
    assert cli.main(["study", "tracking", "--seed", "0",
                     "--trackers", "ncc,meanshift", "--out", str(summary)]) == 0
    assert prepared == ["cwssim"]
    assert scored == ["cwssim"] * 90
    lines = summary.read_text().splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["ncc", "0"], ["ncc", "1"], ["meanshift", "0"], ["meanshift", "1"]]


FLOAT_FRAME_BYTES = 256 * 256 * 8


def test_study_correlation_holds_only_the_windows(tmp_path):
    argv = ["study", "correlation", "--frames", "30", "--seed", "1",
            "--roi", "108,128,32,32", "--param", "msssim:scales=3",
            "--param", "msssim:weights=0.0448:0.2856:0.3001",
            "--param", "vif:scales=3", "--param", "cwssim:levels=3"]
    assert cli.main([*argv, "--out", str(tmp_path / "warm.json")]) == 0
    code, peak = peak_traced_bytes(
        lambda: cli.main([*argv, "--out", str(tmp_path / "report.json")]))
    assert code == 0
    # each frame is rendered, cropped and dropped; holding the 30 rendered
    # frames peaked at 42.4 frames
    assert peak < 20 * FLOAT_FRAME_BYTES


CROP_BYTES = 65 * 65 * 8

ROI_TRACE_ARGS = ["--metrics", "mse,psnr,ssim,msssim,vif",
                  "--roi", "108,128,32,32", "--param", "msssim:scales=3",
                  "--param", "msssim:weights=0.0448:0.2856:0.3001",
                  "--param", "vif:scales=3"]


def synth_manifest(directory, frames):
    """Write a ``frames``-frame benchmark sequence; returns its manifest."""
    assert cli.main(["synth", "sequence", "--seed", "1", "--frames",
                     str(frames), "--out-dir", str(directory)]) == 0
    return str(directory / "frame_manifest.json")


def warm_traced_peak(argv):
    """The traced peak of ``cli.main(argv)``, run once before to warm up."""
    assert cli.main(argv) == 0
    code, peak = peak_traced_bytes(lambda: cli.main(argv))
    assert code == 0
    return peak


def test_roi_trace_peak_does_not_grow_with_the_frames(tmp_path):
    peaks = {}
    for n in (6, 30):
        manifest = synth_manifest(tmp_path / f"seq{n}", n)
        peaks[n] = warm_traced_peak(["trace", "--manifest", manifest,
                                     *ROI_TRACE_ARGS,
                                     "--out", str(tmp_path / "trace.csv")])
    # each frame adds its 8-bit window, an eighth of a float crop, and the
    # scoring holds one stack of crops; holding every float crop added one
    # crop a frame
    assert peaks[30] - peaks[6] < 12 * CROP_BYTES


def test_track_manifest_holds_the_integer_rasters(tmp_path):
    manifest = synth_manifest(tmp_path / "seq", 30)
    peak = warm_traced_peak(["track", "--manifest", manifest, "--tracker",
                             "ncc", "--out", str(tmp_path / "track.csv")])
    # the 30 8-bit rasters are 3.75 float frames, and the tracker reads one
    # float frame at a time; holding the float frames peaked at 34.1
    assert peak < 10 * FLOAT_FRAME_BYTES


def test_study_tracking_holds_only_the_calibration_window(tmp_path):
    argv = ["study", "tracking", "--seed", "1", "--frames", "60",
            "--calibrate", "10"]
    assert cli.main([*argv, "--out", str(tmp_path / "warm.csv")]) == 0
    code, peak = peak_traced_bytes(
        lambda: cli.main([*argv, "--out", str(tmp_path / "summary.csv")]))
    assert code == 0
    # the reference and the 10 calibration frames are read ahead, and the
    # rest of the peak is working memory; holding the whole 60-frame
    # sequence peaked at 69.6 frames
    assert peak < (10 + 1 + 16) * FLOAT_FRAME_BYTES


def test_study_tracking_benchmark_argv_scores_one_band_at_a_time(tmp_path):
    peak = warm_traced_peak(["study", "tracking", "--seed", "0",
                             "--trackers", "ncc,meanshift",
                             "--out", str(tmp_path / "summary.csv"),
                             "--frames-out", str(tmp_path / "frames.csv")])
    # the 90-frame study with its 28-frame calibration window: the gate's
    # CW-SSIM scorer makes and scores one band at a time, and mean-shift
    # bins a frame to 8 bits; holding every band of a stack peaked at 16.0
    # frames
    assert peak < 13 * FLOAT_FRAME_BYTES


def test_study_tracking_peak_does_not_grow_with_the_calibration_window(
        tmp_path):
    argv = ["study", "tracking", "--seed", "1", "--frames", "60",
            "--calibrate", "40"]
    assert cli.main([*argv, "--out", str(tmp_path / "warm.csv")]) == 0
    code, peak = peak_traced_bytes(
        lambda: cli.main([*argv, "--out", str(tmp_path / "summary.csv")]))
    assert code == 0
    # the gate keeps only the crops of its first pass, then the study holds
    # one scorer stack of frames; holding the 41 frames of that pass peaked
    # at 51.6 frames
    assert peak < 20 * FLOAT_FRAME_BYTES


@pytest.mark.parametrize("gate, first_pass", [
    (["--calibrate", "10"], 10 + 1),
    (["--tau", "0.5"], 1),
], ids=["calibrated", "fixed"])
def test_study_tracking_renders_the_gate_window_twice(gate, first_pass,
                                                      tmp_path, monkeypatch):
    # the gate's first pass renders the reference and the calibration
    # window, and the lockstep pass renders every frame from the first
    renders = counted(monkeypatch, synth, "_render")
    assert cli.main(["study", "tracking", "--seed", "1", "--frames", "60",
                     *gate, "--out", str(tmp_path / "summary.csv")]) == 0
    assert len(renders) == 60 + first_pass


def test_study_tracking_bins_each_mean_shift_frame_once(tmp_path,
                                                        monkeypatch):
    # the bare and reset arms share one stepper, which bins the first frame
    # for its models and then each frame once for both arms
    binned = counted(monkeypatch, tracking, "_bin_indices")
    assert cli.main(["study", "tracking", "--seed", "1", "--frames", "20",
                     "--calibrate", "5", "--trackers", "meanshift",
                     "--out", str(tmp_path / "summary.csv")]) == 0
    assert len(binned) == 20 + 1


_REPEAT_STUDY_FAULTS = """
import resource, sys
from usiq import cli
argv = ["study", "tracking", "--seed", "1", "--frames", "60",
        "--calibrate", "10", "--out", sys.argv[1]]
assert cli.main(argv) == 0
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
assert cli.main(argv) == 0
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap slack is a glibc malloc setting")
def test_study_tracking_rerun_reuses_the_heap(tmp_path):
    # a fresh process, so no earlier test shapes its heap; returning each
    # scorer stack's memory to the system cost 26.5k minor faults here, and
    # holding the calibration window 9.8k
    root = str(Path(usiq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        part for part in (root, os.environ.get("PYTHONPATH")) if part))
    proc = subprocess.run(
        [sys.executable, "-c", _REPEAT_STUDY_FAULTS,
         str(tmp_path / "summary.csv")],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout.split()[-1]) < 1000


_WITHOUT_SCIPY = """
import json, sys


class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")
        return None


sys.meta_path.insert(0, NoScipy())
from usiq import cli
for argv in json.loads(sys.argv[1]):
    assert cli.main(argv) == 0, argv
"""


def _no_scipy_argvs(out):
    seq = os.path.join(out, "seq")
    return [
        ["study", "tracking", "--seed", "2", "--trackers", "ncc,meanshift",
         "--frames", "8", "--calibrate", "3", "--hit-frame", "4",
         "--out", os.path.join(out, "summary.csv"),
         "--frames-out", os.path.join(out, "frames.csv")],
        ["synth", "sequence", "--seed", "2", "--frames", "6",
         "--out-dir", seq],
        ["trace", "--manifest", os.path.join(seq, "frame_manifest.json"),
         "--metrics", "mse,psnr,ssim,msssim,vif", "--roi", "108,128,32,32",
         "--param", "msssim:scales=3",
         "--param", "msssim:weights=0.0448:0.2856:0.3001",
         "--param", "vif:scales=3", "--out", os.path.join(out, "trace.csv")],
    ]


def _files(root):
    return {path.relative_to(root): path.read_bytes()
            for path in sorted(root.rglob("*")) if path.is_file()}


def test_the_runtime_needs_no_scipy(tmp_path):
    # the CLI runs in a process where importing scipy fails, and writes the
    # bytes that it writes where scipy is importable
    blocked, here = tmp_path / "blocked", tmp_path / "here"
    blocked.mkdir()
    here.mkdir()
    root = str(Path(usiq.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        part for part in (root, os.environ.get("PYTHONPATH")) if part))
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY,
         json.dumps(_no_scipy_argvs(str(blocked)))],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    for argv in _no_scipy_argvs(str(here)):
        assert cli.main(argv) == 0
    got, want = _files(blocked), _files(here)
    # the summary, a frame table per tracker, six frames, their manifest and
    # the trace
    assert len(want) == 1 + 2 + 6 + 1 + 1
    assert got == want


@pytest.mark.parametrize("trackers, gate", [
    ("ncc,meanshift", ["--tau", "0.5"]),
    ("ncc,meanshift", ["--calibrate", "10"]),
    ("meanshift,ncc", ["--calibrate", "10"]),
], ids=["fixed", "calibrated", "reordered"])
def test_study_tracking_equals_the_study_of_the_whole_sequence(
        trackers, gate, tmp_path, monkeypatch):
    # the CLI streams the benchmark sequence through the study; the study of
    # the whole sequence held in memory gives the same numbers, bit for bit
    written = []

    def recording(comparisons, path):
        written.append(comparisons)
        write_tracking_summary_csv(comparisons, path)

    monkeypatch.setattr(cli, "write_tracking_summary_csv", recording)
    got_dir, want_dir = tmp_path / "cli", tmp_path / "whole"
    got_dir.mkdir()
    want_dir.mkdir()
    assert cli.main(["study", "tracking", "--seed", "4", "--frames", "30",
                     "--hit-frame", "12", "--trackers", trackers, *gate,
                     "--out", str(got_dir / "summary.csv"),
                     "--frames-out", str(got_dir / "frames.csv")]) == 0
    seq = held(bench_sequence(seed=4, n_frames=30, decoy=True))
    tau = float(gate[1]) if gate[0] == "--tau" else None
    reset = ResetConfig(Roi(Landmark(108.0, 128.0), 32, 32),
                        metric_params=CwSsimParams(
                            pyramid=PyramidParams(levels=3)),
                        threshold=tau,
                        calibration_frames=0 if tau else int(gate[1]))
    want = run_tracking_study(seq, trackers.split(","), reset,
                              init=(seq.landmarks[0][0],),
                              truth=tuple((marks[0],)
                                          for marks in seq.landmarks),
                              disturbances={12: (100.0, 0.0)})
    got, = written
    assert [cmp.tracker for cmp in got] == trackers.split(",")
    assert all(cmp.reset.result.reset_events[1:] for cmp in got)
    assert ([hexed(dataclasses.astuple(cmp)) for cmp in got]
            == [hexed(dataclasses.astuple(cmp)) for cmp in want])
    write_tracking_summary_csv(want, want_dir / "summary.csv")
    for cmp in want:
        write_tracking_frames_csv(cmp, want_dir / f"frames_{cmp.tracker}.csv")
    assert sorted(p.name for p in got_dir.iterdir()) == sorted(
        p.name for p in want_dir.iterdir())
    for path in want_dir.iterdir():
        assert (got_dir / path.name).read_bytes() == path.read_bytes()


@pytest.mark.parametrize("trackers", ["ncc,ncc", ","])
def test_study_tracking_rejects_duplicate_or_empty_tracker_list(
        trackers, tmp_path, capsys):
    summary = tmp_path / "summary.csv"
    assert cli.main(["study", "tracking", "--trackers", trackers,
                     "--out", str(summary)]) == 2
    assert capsys.readouterr().err.startswith("invalid-params:")
    assert not summary.exists()


@pytest.mark.parametrize("hit", ["8", "15", "-1", None])
def test_study_tracking_rejects_a_hit_frame_outside_the_sequence(
        hit, tmp_path, monkeypatch, capsys):
    # such a jump was once dropped without a word, and then rejected with an
    # error that named neither option (None runs the default, 15)
    built = []
    monkeypatch.setattr(cli, "_benchmark_sequence",
                        lambda *args, **kw: built.append(args))
    summary = tmp_path / "summary.csv"
    hit_option = [] if hit is None else ["--hit-frame", hit]
    assert cli.main(["study", "tracking", "--frames", "8", "--calibrate", "3",
                     *hit_option, "--out", str(summary)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid-params:")
    assert f"--hit-frame {hit or 15}" in err and "--frames 8" in err
    assert built == []
    assert not summary.exists()


@pytest.mark.parametrize("options, metric, params", [
    ([], "cwssim", CwSsimParams(pyramid=PyramidParams(levels=3))),
    (["--reset-param", "levels=2"], "cwssim",
     CwSsimParams(pyramid=PyramidParams(levels=2))),
    (["--reset-metric", "cwssim", "--reset-param", "cwssim:levels=4"],
     "cwssim", CwSsimParams(pyramid=PyramidParams(levels=4))),
    (["--reset-metric", "ssim"], "ssim", None),
    (["--reset-metric", "vif", "--reset-param", "scales=2"], "vif",
     VifParams(scales=2)),
], ids=["default", "levels", "prefixed-levels", "ssim", "vif"])
def test_study_tracking_levels_default_is_for_cwssim_only(
        options, metric, params, tmp_path, monkeypatch):
    # the study's levels=3 once went to every reset metric, so each metric
    # but cwssim failed on a 'levels' parameter it does not take
    gates = []
    monkeypatch.setattr(cli, "run_tracking_study",
                        lambda seq, trackers, reset, **kw: gates.append(reset)
                        or ())
    assert cli.main(["study", "tracking", "--frames", "20", "--calibrate", "3",
                     "--hit-frame", "4", *options,
                     "--out", str(tmp_path / "summary.csv")]) == 0
    assert gates == [ResetConfig(Roi(Landmark(108.0, 128.0), 32, 32),
                                 metric=metric, metric_params=params,
                                 calibration_frames=3)]


def test_study_tracking_gates_on_ssim(tmp_path):
    summary = tmp_path / "summary.csv"
    assert cli.main(["study", "tracking", "--frames", "20", "--calibrate", "3",
                     "--hit-frame", "4", "--reset-metric", "ssim",
                     "--out", str(summary)]) == 0
    rows = [line.split(",") for line in summary.read_text().splitlines()[1:]]
    assert [row[:2] for row in rows] == [["ncc", "0"], ["ncc", "1"],
                                         ["meanshift", "0"],
                                         ["meanshift", "1"]]


@pytest.mark.parametrize("options", [
    ["--reset-param", "vif:scales=2"],
    ["--reset-metric", "ssim", "--reset-param", "cwssim:levels=2"],
], ids=["vif-on-cwssim", "cwssim-on-ssim"])
def test_study_tracking_rejects_a_reset_param_for_another_metric(
        options, tmp_path, capsys):
    # such a param was once dropped without a word
    summary = tmp_path / "summary.csv"
    assert cli.main(["study", "tracking", "--frames", "8", "--calibrate", "3",
                     "--hit-frame", "4", *options,
                     "--out", str(summary)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid-params: params given for metrics not in "
                          "the run")
    assert not summary.exists()


def test_track_rejects_a_reset_param_for_another_metric_before_the_manifest(
        tmp_path, capsys):
    # such a param was once dropped without a word; a missing manifest would
    # be an io-error, so the param is checked first
    out = tmp_path / "x.csv"
    assert cli.main(["track", "--manifest", str(tmp_path / "missing.json"),
                     "--tracker", "ncc", "--reset",
                     "--reset-roi", "108,128,32,32", "--calibrate", "3",
                     "--reset-param", "ssim:k1=0.5", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        "invalid-params: params given for metrics not in the run")
    assert not out.exists()


@pytest.mark.parametrize("metric", ["mse", "psnr"])
@pytest.mark.parametrize("argv", [
    ["track", "--manifest", "missing.json", "--tracker", "ncc", "--reset",
     "--reset-roi", "108,128,32,32", "--calibrate", "3"],
    ["study", "tracking", "--frames", "20", "--calibrate", "3",
     "--hit-frame", "4"],
], ids=["track", "study-tracking"])
def test_a_reset_metric_that_cannot_gate_is_rejected_before_any_input(
        argv, metric, tmp_path, monkeypatch, capsys):
    # a gate on mse (a calibrated threshold of 526.129) or psnr once ran; the
    # track argv's missing manifest would be an io-error, so it is not read
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as exc:
        cli.main([*argv, "--reset-metric", metric, "--out", "out.csv"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_noise_sweep_rejects_a_negative_seed_before_any_output(tmp_path,
                                                              capsys):
    # it once exited 1 with a ValueError traceback
    out = tmp_path / "n.csv"
    assert cli.main(["study", "noise-sweep", "--seed", "-1", "--alphas", "0.5",
                     "--seeds", "1", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("invalid-params:")
    assert not out.exists()


@pytest.mark.parametrize("alpha", ["-0.5", "nan"])
@pytest.mark.parametrize("argv", [
    ["synth", "phantom", "--out"],
    ["synth", "sequence", "--frames", "2", "--out-dir"],
    ["study", "correlation", "--frames", "6", "--metrics", "mse", "--out"],
    ["study", "tracking", "--frames", "6", "--calibrate", "3",
     "--hit-frame", "4", "--out"],
], ids=lambda argv: "-".join(argv[:2]))
def test_alpha_outside_unit_interval_is_rejected_before_any_output(
        argv, alpha, tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main([*argv, str(out), "--alpha", alpha]) == 2
    assert capsys.readouterr().err.startswith("invalid-params:")
    assert not out.exists()


@pytest.mark.parametrize("bad", ["-1", "nan"])
def test_sweep_checks_every_alpha_before_writing(bad, tmp_path, capsys):
    # a bad alpha late in the list once failed after earlier files were written
    out = tmp_path / "sw"
    assert cli.main(["synth", "sweep", "--out-dir", str(out),
                     "--alphas", f"0.5,{bad}"]) == 2
    assert capsys.readouterr().err.startswith("invalid-params:")
    assert not out.exists() or not any(out.iterdir())


def test_synth_sequence_rejects_a_bad_stem_before_any_output(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["synth", "sequence", "--frames", "2", "--out-dir",
                     str(out), "--stem", "a/b"]) == 2
    assert capsys.readouterr().err.startswith("invalid-params:")
    assert not out.exists()


@pytest.mark.parametrize("argv", [
    ["synth", "phantom", "--out", "a\0b.pgm"],
    ["synth", "sequence", "--frames", "2", "--out-dir", "seq\0dir"],
    ["trace", "--manifest", "m\0.json", "--metrics", "mse", "--out", "t.csv"],
    ["compare", "a\0.pgm", "b.pgm", "--metric", "mse"],
    ["trace", "--manifest", "m.json", "--metrics", "ssim", "--param",
     "ssim:window_size=7", "--param", "ssim:k1=\0", "--out", "t.csv"],
], ids=["phantom-out", "sequence-out-dir", "trace-manifest", "compare-ref",
        "param-list-item"])
def test_nul_in_a_string_argument_is_rejected_before_any_output(
        argv, tmp_path, monkeypatch, capsys):
    # a real argv cannot carry a NUL, so this runs through cli.main
    monkeypatch.chdir(tmp_path)
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("invalid-params:")
    assert "NUL" in err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("option", [
    ["--reset-roi", "108,128,32,32"], ["--reset-metric", "ssim"],
    ["--reset-param", "levels=3"], ["--tau", "0.9"], ["--calibrate", "3"],
], ids=lambda option: option[0])
def test_reset_options_without_reset_are_rejected_before_the_manifest_is_read(
        option, tmp_path, capsys):
    # a missing manifest would be an io-error, so the options are checked first
    out = tmp_path / "x.csv"
    assert cli.main(["track", "--manifest", str(tmp_path / "missing.json"),
                     "--tracker", "ncc", *option, "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("invalid-params:")
    assert not out.exists()


def test_track_reset_gates_on_the_manifest_reference_frame(tmp_path):
    # the reset trace and the plain trace score against the same frame: the
    # one the manifest names, here frame 2
    manifest = tmp_path / "seq" / "frame_manifest.json"
    assert cli.main(["synth", "sequence", "--seed", "3", "--frames", "12",
                     "--out-dir", str(manifest.parent)]) == 0
    fields = json.loads(manifest.read_text())
    manifest.write_text(json.dumps({**fields, "reference_frame": 2}))
    roi, param = "108,128,32,32", "levels=3"
    trace_csv, track_csv = tmp_path / "trace.csv", tmp_path / "track.csv"
    assert cli.main(["trace", "--manifest", str(manifest), "--metrics",
                     "cwssim", "--roi", roi, "--param", f"cwssim:{param}",
                     "--out", str(trace_csv)]) == 0
    assert cli.main(["track", "--manifest", str(manifest), "--tracker", "ncc",
                     "--reset", "--reset-roi", roi, "--reset-param", param,
                     "--tau", "0.99", "--out", str(track_csv)]) == 0
    raw = [line.split(",")[1]
           for line in trace_csv.read_text().splitlines()[1:]]
    gated = [line.split(",")[5]
             for line in track_csv.read_text().splitlines()[1:]]
    assert len(raw) == 12
    assert gated == raw
    assert raw[2] == "1" and raw[0] != "1"


def test_trace_far_off_roi_replicates_the_edge(tmp_path):
    # a ROI centre that rounds beyond int64 scores the edge-replicated
    # window, as a centre far off but within int64 does
    manifest = tmp_path / "seq" / "frame_manifest.json"
    assert cli.main(["synth", "sequence", "--seed", "3", "--frames", "4",
                     "--out-dir", str(manifest.parent)]) == 0
    csvs = []
    for x in ("1e20", "1e15"):
        csvs.append(tmp_path / f"trace_{x}.csv")
        assert cli.main(["trace", "--manifest", str(manifest), "--metrics",
                         "mse", "--roi", f"{x},128,32,32",
                         "--out", str(csvs[-1])]) == 0
    assert csvs[0].read_bytes() == csvs[1].read_bytes()


@pytest.mark.parametrize("command", [
    ["track", "--manifest", "m.json", "--tracker", "ncc", "--out", "x.csv"],
    ["study", "tracking", "--out", "x.csv"],
], ids=["track", "study-tracking"])
def test_ref_frame_option_is_gone(command, capsys):
    # the reference frame is the sequence's own, set in its manifest
    with pytest.raises(SystemExit) as exc:
        cli.main([*command, "--ref-frame", "2"])
    assert exc.value.code == 2
    assert "--ref-frame" in capsys.readouterr().err
