"""CLI tests: subcommand plumbing, error reporting, byte reproducibility."""

import json
from types import SimpleNamespace

import pytest

from usiq import cli, tracking
from usiq.metrics import prepare


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
        return SimpleNamespace(values=values)

    monkeypatch.setattr(tracking, "prepare", counting)
    summary = tmp_path / "summary.csv"
    assert cli.main(["study", "tracking", "--seed", "0",
                     "--trackers", "ncc,meanshift", "--out", str(summary)]) == 0
    assert prepared == ["cwssim"]
    assert scored == ["cwssim"] * 90
    lines = summary.read_text().splitlines()
    assert [line.split(",")[:2] for line in lines[1:]] == [
        ["ncc", "0"], ["ncc", "1"], ["meanshift", "0"], ["meanshift", "1"]]


@pytest.mark.parametrize("trackers", ["ncc,ncc", ","])
def test_study_tracking_rejects_duplicate_or_empty_tracker_list(
        trackers, tmp_path, capsys):
    summary = tmp_path / "summary.csv"
    assert cli.main(["study", "tracking", "--trackers", trackers,
                     "--out", str(summary)]) == 2
    assert capsys.readouterr().err.startswith("invalid-params:")
    assert not summary.exists()


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
