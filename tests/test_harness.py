"""Harness tests: Pearson scoring, traces, studies, sweeps, report emitters."""

import dataclasses
import functools
import json
import math
import statistics

import numpy as np
import pytest

from usiq import errors, harness, image, metrics, synth
from usiq.harness import (
    CorrelationEntry,
    CorrelationReport,
    TraceReport,
    format_number,
    pearson,
    run_correlation_study,
    run_noise_sweep,
    run_trace,
    run_tracking_study,
    write_correlation_json,
    write_sweep_csv,
    write_trace_csv,
    write_track_csv,
    write_tracking_frames_csv,
    write_tracking_summary_csv,
)
from usiq.image import (
    FrameSequence,
    GrayImage,
    Landmark,
    Roi,
    _RenderedFrames,
    crop,
    load_sequence,
)
from usiq.metrics import CwSsimParams, MsSsimParams, VifParams
from usiq.pyramid import PyramidParams
from usiq.synth import (
    Disc,
    MotionSpec,
    PhantomSpec,
    SpeckleSpec,
    apply_speckle,
    benchmark_motion_spec,
    benchmark_phantom_spec,
    make_phantom,
    periodic_sequence,
)
from usiq.tracking import ResetConfig, TrackResult, track

from builders import (
    SHARED_TERMS_CASES,
    bench_sequence,
    counted,
    full_size_terms,
    held,
    noise_image,
    reset_cfg,
    shared_terms_params,
    static_sequence,
    textured_phantom,
    write_pgm_sequence,
)


SMALL_ROI = Roi(Landmark(108.0, 128.0), 32, 32)


# ---------------------------------------------------------------------------
# Pearson correlation


def test_pearson_affine_is_one():
    x = [0.5, 1.0, 2.5, 3.0, 7.0, 11.25]
    y = [2.0 * v + 1.0 for v in x]
    assert abs(pearson(x, y) - 1.0) < 1e-12


def test_pearson_negation_is_minus_one():
    x = [0.5, 1.0, 2.5, 3.0, 7.0]
    y = [-v for v in x]
    assert abs(pearson(x, y) + 1.0) < 1e-12


def test_pearson_textbook_example():
    # cov = 4, var_x = var_y = 5, so r = 4 / sqrt(25) = 0.8 exactly.
    assert pearson([1, 2, 3, 4], [1, 3, 2, 4]) == 0.8


def test_pearson_matches_two_pass_oracle():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(3, 50))
        x = rng.normal(size=n) * 3.0 + 1.0
        y = rng.normal(size=n) + 0.4 * x
        want = statistics.correlation(list(x), list(y))
        assert abs(pearson(x, y) - want) < 1e-10


def test_pearson_symmetry_and_scale_invariance():
    rng = np.random.default_rng(5)
    x = list(rng.normal(size=17))
    y = list(rng.normal(size=17))
    assert pearson(x, y) == pearson(y, x)
    shifted = [3.0 * v + 7.0 for v in y]
    assert abs(pearson(x, shifted) - pearson(x, y)) < 1e-12


def test_pearson_bounds_clamped():
    rng = np.random.default_rng(3)
    for _ in range(50):
        x = rng.normal(size=8)
        assert -1.0 <= pearson(x, list(2.0 * x)) <= 1.0


def test_pearson_rejections():
    with pytest.raises(errors.CountMismatchError):
        pearson([1, 2, 3], [1, 2, 3, 4])
    with pytest.raises(errors.InvalidParamsError):
        pearson([1, 2], [3, 4])
    with pytest.raises(errors.ConstantSeriesError):
        pearson([5, 5, 5], [1, 2, 3])
    with pytest.raises(errors.ConstantSeriesError):
        pearson([1, 2, 3], [5, 5, 5])
    with pytest.raises(errors.InvalidParamsError):
        pearson([1, 2, math.inf], [1, 2, 3])


# ---------------------------------------------------------------------------
# Similarity traces


def test_trace_static_sequence_is_unity_and_noted():
    image = textured_phantom(size=128, disc=(64.0, 64.0, 9.0))
    seq = static_sequence(image, 6, (Landmark(64.0, 64.0),))
    report = run_trace(seq, ["ssim", "cwssim", "psnr"])
    assert report.reference_frame == 0
    assert report.n_frames == 6
    for name in ("ssim", "cwssim"):
        assert all(abs(v - 1.0) < 1e-12 for v in report.raw[name])
    assert all(v == math.inf for v in report.raw["psnr"])
    # constant columns cannot be min-max rescaled; the report says so
    assert report.normalized == {}
    assert set(report.notes) == {"ssim", "cwssim", "psnr"}
    assert all(kind == "constant-series" for kind in report.notes.values())


def test_trace_single_frame_noted_as_constant():
    seq = FrameSequence(frames=(textured_phantom(),))
    report = run_trace(seq, ["mse"])
    assert report.raw["mse"] == (0.0,)
    assert report.notes == {"mse": "constant-series"}


def test_trace_normalized_columns_span_unit_interval():
    seq = bench_sequence(seed=0, n_frames=12)
    report = run_trace(seq, ["mse", "ssim", "psnr"], roi=SMALL_ROI)
    assert set(report.normalized) == {"mse", "ssim", "psnr"}
    assert report.notes == {}
    for col in report.normalized.values():
        assert len(col) == 12
        assert min(col) == 0.0
        assert max(col) == 1.0
    # reference frame compares to itself: mse 0, psnr +inf mapped to the max
    assert report.raw["mse"][0] == 0.0
    assert report.normalized["mse"][0] == 0.0
    assert report.raw["psnr"][0] == math.inf
    assert report.normalized["psnr"][0] == 1.0


def test_trace_periodic_maxima_near_period_multiples():
    seq = periodic_sequence(benchmark_phantom_spec(),
                            benchmark_motion_spec(n_frames=45))
    params = {"cwssim": CwSsimParams(
        pyramid=PyramidParams(levels=3, orientations=6))}
    report = run_trace(seq, ["cwssim"], roi=SMALL_ROI, metric_params=params)
    col = report.raw["cwssim"]
    peaks = [t for t in range(1, 44)
             if col[t] >= col[t - 1] and col[t] >= col[t + 1]
             and col[t] > 0.95]
    assert any(abs(t - 30) <= 1 for t in peaks)


def test_cwssim_trace_decomposes_reference_once(monkeypatch):
    seq = bench_sequence(seed=1, n_frames=12)
    calls, stacks = [], []
    decompose, band_stack = metrics.decompose, metrics.band_stack

    def counting(image, params=None):
        calls.append(image.shape)
        return decompose(image, params)

    def counting_stack(pixels, params):
        stacks.append(pixels.shape)
        return band_stack(pixels, params)

    monkeypatch.setattr(metrics, "decompose", counting)
    monkeypatch.setattr(metrics, "band_stack", counting_stack)
    params = {"cwssim": CwSsimParams(
        pyramid=PyramidParams(levels=3, orientations=6))}
    run_trace(seq, ["cwssim"], roi=SMALL_ROI, metric_params=params)
    # the reference crop once, and every frame once in some stack
    assert calls == [(65, 65)]
    assert all(shape[1:] == (65, 65) for shape in stacks)
    assert sum(shape[0] for shape in stacks) == 12


# The benchmark trace's params, which every metric accepts on a 65 x 65 ROI.
TRACE_PARAMS = {
    "msssim": MsSsimParams(scales=3, weights=(0.0448, 0.2856, 0.3001)),
    "vif": VifParams(scales=3),
    "cwssim": CwSsimParams(pyramid=PyramidParams(levels=3, orientations=6)),
}


def per_metric_generator_trace(seq, names, roi, metric_params):
    """Oracle: every metric crops the reference and every frame afresh, from
    a generator."""
    view = (lambda img: crop(img, roi)) if roi is not None else (lambda img: img)
    ref = view(seq.frames[seq.reference_frame])
    return {name: metrics.prepare(name, ref, metric_params.get(name)).values(
                view(frame) for frame in seq.frames)
            for name in names}


@pytest.mark.parametrize("roi", [None, SMALL_ROI])
def test_trace_equals_the_per_metric_generator_oracle(roi):
    # a reference inside the sequence, so its position in the crops matters
    seq = FrameSequence(frames=bench_sequence(seed=8, n_frames=6).frames,
                        reference_frame=2)
    names = ("mse", "psnr", "ssim", "msssim", "vif", "cwssim")
    report = run_trace(seq, names, roi=roi, metric_params=TRACE_PARAMS)
    want = per_metric_generator_trace(seq, names, roi, TRACE_PARAMS)
    for name in names:
        assert ([v.hex() for v in report.raw[name]]
                == [v.hex() for v in want[name]]), name


@pytest.mark.parametrize("case", sorted(SHARED_TERMS_CASES))
@pytest.mark.parametrize("roi, side, depths", [(SMALL_ROI, 65, [4, 1]),
                                               (None, 256, [1] * 5)],
                         ids=["crop", "frame"])
def test_ssim_and_msssim_trace_forms_the_finest_terms_once(monkeypatch, case,
                                                          roi, side, depths):
    seq = FrameSequence(frames=bench_sequence(seed=8, n_frames=5).frames,
                        reference_frame=1)
    names = ("ssim", "mse", "msssim")
    params = shared_terms_params(case, side)
    want = per_metric_generator_trace(seq, names, roi, params)
    formed = full_size_terms(monkeypatch, (side, side))
    report = run_trace(seq, names, roi=roi, metric_params=params)
    for name in names:
        assert ([v.hex() for v in report.raw[name]]
                == [v.hex() for v in want[name]]), name
    # once per scorer stack, or once per metric when the SSIM window differs
    per_stack = 2 if case == "ssim-window-7" else 1
    assert formed == [depth for depth in depths for _ in range(per_stack)]


@functools.lru_cache(maxsize=None)
def bench_rasters(maxval):
    """Four 256x256 benchmark frames quantized to integer samples."""
    return tuple(np.floor(frame.pixels * (maxval / 255.0) + 0.5).astype(int)
                 for frame in bench_sequence(seed=6, n_frames=4).frames)


@pytest.mark.parametrize("roi", [
    SMALL_ROI, Roi(Landmark(10.0, 250.5), 32, 32),
    Roi(Landmark(300.0, 128.0), 32, 32),
], ids=["inside", "edge", "outside"])
@pytest.mark.parametrize("magic, maxval", [("P5", 255), ("P5", 1000),
                                           ("P2", 255)])
def test_trace_of_a_windowed_load_equals_the_cropped_trace(tmp_path, magic,
                                                           maxval, roi):
    path = write_pgm_sequence(tmp_path, magic, maxval, bench_rasters(maxval))
    names = ("mse", "psnr", "ssim", "msssim", "vif", "cwssim")
    got = run_trace(load_sequence(path, roi), names, metric_params=TRACE_PARAMS)
    want = run_trace(load_sequence(path), names, roi=roi,
                     metric_params=TRACE_PARAMS)
    for name in names:
        assert ([v.hex() for v in got.raw[name]]
                == [v.hex() for v in want.raw[name]]), name
    assert got == want


def test_five_metric_trace_crops_each_frame_once(monkeypatch):
    # crops are matched to frames by identity, so the frames are held
    seq = held(bench_sequence(seed=9, n_frames=10))
    cropped = []

    def counting(image, roi):
        cropped.append(image)
        return crop(image, roi)

    monkeypatch.setattr(harness, "crop", counting)
    names = ["mse", "psnr", "ssim", "msssim", "vif"]
    report = run_trace(seq, names, roi=SMALL_ROI, metric_params={
        name: TRACE_PARAMS[name] for name in ("msssim", "vif")})
    assert len(cropped) == 10
    assert all(got is frame for got, frame in zip(cropped, seq.frames))
    assert all(len(col) == 10 for col in report.raw.values())


@pytest.mark.parametrize("reference_frame", [0, 3])
@pytest.mark.parametrize("roi", [None, SMALL_ROI], ids=["full", "roi"])
def test_trace_renders_each_frame_once(monkeypatch, roi, reference_frame):
    # the reference's view is read with the frames before it and is also
    # the test of its own row
    renders = counted(monkeypatch, synth, "_render")
    seq = dataclasses.replace(bench_sequence(seed=4, n_frames=8),
                              reference_frame=reference_frame)
    names = ("mse", "psnr", "ssim", "msssim", "vif", "cwssim")
    report = run_trace(seq, names, roi=roi, metric_params=TRACE_PARAMS)
    assert len(renders) == 8
    assert all(len(col) == 8 for col in report.raw.values())


@pytest.mark.parametrize("roi", [None, SMALL_ROI], ids=["full", "roi"])
def test_trace_converts_each_loaded_raster_once(tmp_path, monkeypatch, roi):
    path = write_pgm_sequence(tmp_path, "P5", 255, bench_rasters(255))
    converted = counted(monkeypatch, image, "_to_gray")
    run_trace(load_sequence(path, roi), ["mse", "ssim"])
    assert len(converted) == 4


def shape_break(t):
    """Frame ``t`` of a 96x96 noise sequence whose frame 2 is one column
    wider."""
    return noise_image(t, shape=(96, 97 if t == 2 else 96))


FLAT = GrayImage(np.full((96, 96), 80.0))


@pytest.mark.parametrize("frames, names, kind", [
    ((FLAT, shape_break(1), shape_break(3)), ["mse", "vif"],
     "degenerate-reference"),
    (_RenderedFrames(shape_break, 4), ["mse", "ssim"], "dimension-mismatch"),
    ((shape_break(1),) * 3, ["mse", "sharpness"], "invalid-params"),
    # both a degenerate reference and a frame of another shape: every
    # reference is prepared before any frame is scored
    (_RenderedFrames(lambda t: FLAT if t == 0 else shape_break(t), 4),
     ["mse", "vif"], "degenerate-reference"),
], ids=["degenerate-vif", "frame-shape", "unknown-metric", "both"])
def test_trace_error_kinds(frames, names, kind):
    with pytest.raises(errors.UsiqError) as exc:
        run_trace(FrameSequence(frames), names)
    assert exc.value.kind == kind


@pytest.mark.parametrize("names", [("ssim", "msssim"), ("msssim", "ssim")])
def test_ssim_and_msssim_trace_errors_keep_their_kinds_and_order(names):
    params = {"msssim": SHARED_TERMS_CASES["msssim-three-scales"]["msssim"]}
    with pytest.raises(errors.DimensionMismatchError):
        run_trace(FrameSequence(_RenderedFrames(shape_break, 4)), names,
                  metric_params=params)
    # a reference too small for both metrics, then a frame of another
    # shape: the first metric named rejects the reference
    tiny = _RenderedFrames(
        lambda t: noise_image(t, shape=(8, 9 if t == 2 else 8)), 4)
    with pytest.raises(errors.ImageTooSmallError) as exc:
        run_trace(FrameSequence(tiny), names, metric_params=params)
    assert ("similarity window" if names[0] == "ssim" else "3 scales") in str(
        exc.value)


def test_trace_respects_roi_and_metric_order():
    seq = bench_sequence(seed=1, n_frames=5)
    full = run_trace(seq, ["mse"])
    windowed = run_trace(seq, ["mse"], roi=SMALL_ROI)
    assert full.raw["mse"][1] != windowed.raw["mse"][1]
    report = run_trace(seq, ["ssim", "mse"], roi=SMALL_ROI)
    assert report.metrics == ("ssim", "mse")


def test_trace_rejects_bad_metric_lists():
    seq = FrameSequence(frames=(textured_phantom(), textured_phantom()))
    with pytest.raises(errors.InvalidParamsError):
        run_trace(seq, [])
    with pytest.raises(errors.InvalidParamsError):
        run_trace(seq, ["ssim", "ssim"])
    with pytest.raises(errors.InvalidParamsError):
        run_trace(seq, ["sharpness"])
    with pytest.raises(errors.InvalidParamsError):
        run_trace(seq, ["ssim"], metric_params={"vif": None})


def test_trace_report_invariants_enforced():
    with pytest.raises(errors.InvalidParamsError):
        TraceReport(metrics=("mse",), raw={"mse": (0.0, 1.0)},
                    normalized={"mse": (0.0, 0.5)}, notes={},
                    reference_frame=0)
    with pytest.raises(errors.InvalidParamsError):
        TraceReport(metrics=("mse",), raw={"mse": (0.0, 1.0)},
                    normalized={}, notes={}, reference_frame=0)


# ---------------------------------------------------------------------------
# Correlation studies


def test_correlation_study_ranked_and_oracle_checked():
    seq = bench_sequence(seed=0, n_frames=30)
    metrics = ["mse", "ssim", "cwssim"]
    params = {"cwssim": CwSsimParams(
        pyramid=PyramidParams(levels=3, orientations=6))}
    report = run_correlation_study(seq, metrics, roi=SMALL_ROI,
                                   metric_params=params)
    assert len(report.entries) == 3
    values = [e.abs_pearson for e in report.entries]
    assert all(v is not None and 0.0 <= v <= 1.0 for v in values)
    assert values == sorted(values, reverse=True)
    assert all(e.sign in (-1, 1) for e in report.entries)
    # every |r| must agree with a brute-force two-pass oracle
    trace = run_trace(seq, metrics, roi=SMALL_ROI, metric_params=params)
    assert report.trace == trace
    disp = [marks[0].x for marks in seq.landmarks]
    for entry in report.entries:
        want = abs(statistics.correlation(disp, list(trace.normalized[entry.metric])))
        assert abs(entry.abs_pearson - want) < 1e-10


def test_correlation_study_is_deterministic():
    a = run_correlation_study(bench_sequence(seed=3, n_frames=15),
                              ["mse", "ssim"], roi=SMALL_ROI)
    b = run_correlation_study(bench_sequence(seed=3, n_frames=15),
                              ["mse", "ssim"], roi=SMALL_ROI)
    assert a == b


def test_correlation_study_constant_displacement_reports_errors():
    still = MotionSpec(amplitude=0.0, period=30.0, n_frames=8)
    seq = periodic_sequence(benchmark_phantom_spec(), still,
                            speckle=SpeckleSpec(alpha=0.3, seed=0), seed=0)
    report = run_correlation_study(seq, ["mse", "ssim"], roi=SMALL_ROI)
    assert all(e.abs_pearson is None for e in report.entries)
    assert all(e.error == "constant-series" for e in report.entries)
    assert [e.metric for e in report.entries] == ["mse", "ssim"]


def test_correlation_study_constant_trace_reports_errors():
    image = textured_phantom()
    marks = [(Landmark(40.0 + t, 48.0),) for t in range(6)]
    seq = FrameSequence(frames=tuple(image for _ in range(6)),
                        landmarks=tuple(marks))
    report = run_correlation_study(seq, ["ssim"])
    assert report.entries[0].error == "constant-series"


def test_correlation_study_needs_ground_truth():
    seq = FrameSequence(frames=(textured_phantom(), textured_phantom()))
    with pytest.raises(errors.InvalidParamsError):
        run_correlation_study(seq, ["ssim"])


def test_correlation_report_invariants():
    ok = CorrelationEntry("ssim", 0.5, sign=1)
    better = CorrelationEntry("mse", 0.9, sign=-1)
    failed = CorrelationEntry("vif", None, error="constant-series")
    CorrelationReport(entries=(better, ok, failed))
    with pytest.raises(errors.InvalidParamsError):
        CorrelationReport(entries=(ok, better))
    with pytest.raises(errors.InvalidParamsError):
        CorrelationReport(entries=(failed, ok))
    with pytest.raises(errors.InvalidParamsError):
        CorrelationEntry("ssim", 1.5, sign=1)
    with pytest.raises(errors.InvalidParamsError):
        CorrelationEntry("ssim", 0.5, sign=0)
    with pytest.raises(errors.InvalidParamsError):
        CorrelationEntry("ssim", None)


# ---------------------------------------------------------------------------
# Noise sweeps


def small_phantom():
    return PhantomSpec(width=64, height=64,
                       landmarks=(Disc(Landmark(32.0, 32.0), radius=8.0),))


def test_noise_sweep_identity_at_zero_alpha():
    sweep = run_noise_sweep(small_phantom(), [0.0], ["mse", "ssim", "psnr"],
                            seeds=2)
    assert len(sweep.rows) == 3
    by_metric = {row.metric: row for row in sweep.rows}
    assert by_metric["mse"].mean_value == 0.0
    assert by_metric["ssim"].mean_value == 1.0
    assert by_metric["psnr"].mean_value == math.inf
    # a single alpha gives nothing to rescale against
    assert all(row.normalized_value is None for row in sweep.rows)
    assert set(sweep.notes) == {"mse", "ssim", "psnr"}


def test_noise_sweep_monotone_and_normalized():
    alphas = [0.2, 0.45, 0.7]
    sweep = run_noise_sweep(small_phantom(), alphas, ["mse", "ssim"], seeds=3)
    assert len(sweep.rows) == 6
    mse_col = [r.mean_value for r in sweep.rows if r.metric == "mse"]
    ssim_col = [r.mean_value for r in sweep.rows if r.metric == "ssim"]
    assert mse_col[0] < mse_col[1] < mse_col[2]
    assert ssim_col[0] > ssim_col[1] > ssim_col[2]
    for name in ("mse", "ssim"):
        col = [r.normalized_value for r in sweep.rows if r.metric == name]
        assert min(col) == 0.0 and max(col) == 1.0
    # row order is the declared (alpha, metric) order
    assert [(r.alpha, r.metric) for r in sweep.rows] == [
        (a, m) for a in alphas for m in ("mse", "ssim")]


def test_noise_sweep_mean_matches_per_seed_oracle():
    phantom = small_phantom()
    sweep = run_noise_sweep(phantom, [0.5], ["mse"], seeds=3, seed=9)
    base = make_phantom(phantom, seed=9)
    vals = [metrics.prepare("mse", base)(
                apply_speckle(base, SpeckleSpec(alpha=0.5, seed=9 + i))).value
            for i in range(3)]
    assert sweep.rows[0].mean_value == math.fsum(vals) / 3.0


def per_image_sweep_means(phantom, alphas, names, seeds, seed, metric_params):
    """Oracle: the sweep's mean column in row order, each speckled draw
    scored on its own by ``scorer(img).value``."""
    base = make_phantom(phantom, seed=seed)
    scorers = {name: metrics.prepare(name, base, metric_params.get(name))
               for name in names}
    means = []
    for alpha in alphas:
        speckled = [apply_speckle(base, SpeckleSpec(alpha=alpha, seed=seed + i))
                    for i in range(seeds)]
        for name in names:
            values = [scorers[name](img).value for img in speckled]
            means.append(math.fsum(values) / len(values))
    return means


@pytest.mark.parametrize("seeds, depths", [(1, [1]), (2, [2]), (5, [4, 1])])
def test_noise_sweep_equals_the_per_image_oracle(monkeypatch, seeds, depths):
    names = tuple(metrics.METRICS)
    alphas = (0.0, 0.4, 0.9)
    stacks, band_stack = [], metrics.band_stack

    def counting_stack(pixels, params):
        stacks.append(len(pixels))
        return band_stack(pixels, params)

    monkeypatch.setattr(metrics, "band_stack", counting_stack)
    sweep = run_noise_sweep(small_phantom(), alphas, names, seeds=seeds,
                            seed=4, metric_params=TRACE_PARAMS)
    monkeypatch.undo()
    # CW-SSIM scores each alpha's draws as stacks of at most four
    assert stacks == depths * len(alphas)
    oracle = per_image_sweep_means(small_phantom(), alphas, names, seeds, 4,
                                   TRACE_PARAMS)
    assert [row.mean_value.hex() for row in sweep.rows] == [
        value.hex() for value in oracle]


@pytest.mark.parametrize("case", sorted(SHARED_TERMS_CASES))
def test_ssim_and_msssim_sweep_equals_the_per_image_oracle(monkeypatch, case):
    phantom = benchmark_phantom_spec()
    names = ("msssim", "ssim")
    params = shared_terms_params(case, 256)
    formed = full_size_terms(monkeypatch, (256, 256))
    sweep = run_noise_sweep(phantom, (0.2, 0.6), names, seeds=2, seed=3,
                            metric_params=params)
    assert len(formed) == 4 * (2 if case == "ssim-window-7" else 1)
    monkeypatch.undo()
    oracle = per_image_sweep_means(phantom, (0.2, 0.6), names, 2, 3, params)
    assert [row.mean_value.hex() for row in sweep.rows] == [
        value.hex() for value in oracle]


def test_noise_sweep_deterministic_and_validated():
    a = run_noise_sweep(small_phantom(), [0.3, 0.6], ["ssim"], seeds=2)
    b = run_noise_sweep(small_phantom(), [0.3, 0.6], ["ssim"], seeds=2)
    assert a == b
    with pytest.raises(errors.InvalidParamsError):
        run_noise_sweep(small_phantom(), [], ["ssim"], seeds=2)
    with pytest.raises(errors.InvalidParamsError):
        run_noise_sweep(small_phantom(), [0.3, 0.3], ["ssim"], seeds=2)
    with pytest.raises(errors.InvalidParamsError):
        run_noise_sweep(small_phantom(), [0.3], ["ssim"], seeds=0)


@pytest.mark.parametrize("alphas, seeds", [
    ([0.5], 2.5), ([0.5], True), (["a"], 1),
], ids=["seeds-float", "seeds-bool", "alpha-string"])
def test_noise_sweep_checks_seeds_and_alphas_before_drawing(alphas, seeds,
                                                            monkeypatch):
    # these once raised a bare TypeError or ValueError, or ran one draw
    monkeypatch.setattr(harness, "make_phantom",
                        lambda *args, **kwargs: pytest.fail("phantom drawn"))
    with pytest.raises(errors.InvalidParamsError):
        run_noise_sweep(small_phantom(), alphas, ["mse"], seeds=seeds)


# ---------------------------------------------------------------------------
# Tracking experiments


def test_tracking_experiment_static_is_zero_error():
    image = textured_phantom(size=128, disc=(64.0, 64.0, 9.0))
    seq = static_sequence(image, 8, (Landmark(64.0, 64.0),))
    comparison = run_tracking_study(
        seq, ("ncc",),
        ResetConfig(similarity_roi=Roi(Landmark(64.0, 64.0), 24, 24),
                    metric_params=CwSsimParams(
                        pyramid=PyramidParams(levels=2, orientations=6)),
                    calibration_frames=4))[0]
    assert comparison.tracker == "ncc"
    assert comparison.bare.stats.mean_mm == 0.0
    assert comparison.reset.stats.mean_mm == 0.0
    assert comparison.reset.result.reset_events == ()


def test_tracking_experiment_drift_reset_wins():
    seq = bench_sequence(seed=7, decoy=True)
    init = (seq.landmarks[0][0],)
    truth = tuple((marks[0],) for marks in seq.landmarks)
    comparison = run_tracking_study(
        seq, ("ncc",), reset_cfg(calibration_frames=28),
        init=init, truth=truth, disturbances={15: (100.0, 0.0)})[0]
    assert len(comparison.reset.result.reset_events) >= 1
    assert comparison.reset.stats.mean_mm < comparison.bare.stats.mean_mm
    assert len(comparison.bare.stats.per_frame_mm) == 90
    assert len(comparison.reset.stats.per_frame_mm) == 90


def test_tracking_study_matches_one_experiment_per_tracker():
    seq = bench_sequence(seed=3, n_frames=30, decoy=True)
    init = (seq.landmarks[0][0],)
    truth = tuple((marks[0],) for marks in seq.landmarks)
    reset = reset_cfg(calibration_frames=10)
    hit = {12: (100.0, 0.0)}
    study = run_tracking_study(seq, ["ncc", "meanshift"], reset, init=init,
                               truth=truth, disturbances=hit)
    assert [cmp.tracker for cmp in study] == ["ncc", "meanshift"]
    for cmp in study:
        # the reset arms share one trace, yet each equals its own run
        assert cmp == run_tracking_study(seq, (cmp.tracker,), reset,
                                         init=init, truth=truth,
                                         disturbances=hit)[0]
        assert cmp.reset.result == track(
            cmp.tracker, seq, init=init, reset=reset, disturbances=hit)
    with pytest.raises(errors.InvalidParamsError):
        run_tracking_study(seq, ["ncc", "kalman"], reset, init=init,
                           truth=truth)


def test_tracking_experiment_validation():
    seq = FrameSequence(frames=(textured_phantom(), textured_phantom()))
    cfg = ResetConfig(similarity_roi=Roi(Landmark(48.0, 48.0), 16, 16),
                      threshold=0.9)
    with pytest.raises(errors.InvalidParamsError):
        run_tracking_study(seq, ("ncc",), cfg)
    with pytest.raises(errors.InvalidParamsError):
        run_tracking_study(seq, ("kalman",), cfg,
                           init=(Landmark(48.0, 48.0),),
                           truth=((Landmark(48.0, 48.0),),) * 2)
    for frame in (2, -1):
        # an out-of-range jump was once dropped without a word
        with pytest.raises(errors.InvalidParamsError,
                           match="disturbance frames"):
            run_tracking_study(seq, ("ncc", "meanshift"), cfg,
                               init=(Landmark(48.0, 48.0),),
                               truth=((Landmark(48.0, 48.0),),) * 2,
                               disturbances={frame: (1.0, 0.0)})


# ---------------------------------------------------------------------------
# Report emitters


def test_format_number_rules():
    assert format_number(0.1234567891234) == "0.123456789"
    assert format_number(1.0) == "1"
    assert format_number(math.inf) == "inf"
    assert format_number(-math.inf) == "-inf"
    assert format_number(44.15140352) == "44.1514035"
    with pytest.raises(errors.InvalidParamsError):
        format_number(math.nan)


def test_write_track_csv(tmp_path):
    result = TrackResult(
        estimates=((Landmark(10.0, 20.0), Landmark(30.5, 40.25)),
                   (Landmark(11.0, 20.0), Landmark(30.5, 40.25))),
        reset_events=(1,),
        similarity_trace=(0.75, 0.95))
    path = tmp_path / "track.csv"
    write_track_csv(result, path)
    lines = path.read_bytes().decode("ascii").splitlines()
    assert lines[0] == "frame,landmark_id,x_px,y_px,reset_fired,similarity_value"
    assert lines[1] == "0,0,10,20,0,0.75"
    assert lines[2] == "0,1,30.5,40.25,0,0.75"
    assert lines[3] == "1,0,11,20,1,0.95"
    assert len(lines) == 5


def test_write_track_csv_without_trace(tmp_path):
    result = TrackResult(estimates=((Landmark(1.0, 2.0),),))
    path = tmp_path / "bare.csv"
    write_track_csv(result, path)
    assert path.read_bytes().decode("ascii").splitlines()[1] == "0,0,1,2,0,"


def test_write_trace_csv(tmp_path):
    image = textured_phantom()
    seq = static_sequence(image, 3, (Landmark(48.0, 48.0),))
    report = run_trace(seq, ["mse", "ssim"])
    path = tmp_path / "trace.csv"
    write_trace_csv(report, path)
    lines = path.read_bytes().decode("ascii").splitlines()
    assert lines[0] == "frame,mse_raw,mse_normalized,ssim_raw,ssim_normalized"
    # constant columns have no normalized values, cells stay empty
    assert lines[1] == "0,0,,1,"
    assert len(lines) == 4


def test_write_correlation_json(tmp_path):
    report = CorrelationReport(entries=(
        CorrelationEntry("cwssim", 0.912345678912, sign=-1),
        CorrelationEntry("ssim", 0.5, sign=1),
        CorrelationEntry("vif", None, error="constant-series"),
    ))
    path = tmp_path / "report.json"
    write_correlation_json(report, path)
    text = path.read_bytes().decode("ascii")
    assert text.endswith("\n")
    data = json.loads(text)
    assert data == [
        {"metric": "cwssim", "abs_pearson": 0.912345679, "sign": -1},
        {"metric": "ssim", "abs_pearson": 0.5, "sign": 1},
        {"metric": "vif", "error": "constant-series"},
    ]


def test_write_sweep_csv(tmp_path):
    # alpha 0 sends psnr to +inf; the sentinel normalizes to the finite max
    sweep = run_noise_sweep(small_phantom(), [0.0, 0.3, 0.7], ["psnr"],
                            seeds=2)
    path = tmp_path / "sweep.csv"
    write_sweep_csv(sweep, path)
    lines = path.read_bytes().decode("ascii").splitlines()
    assert lines[0] == "alpha,metric,mean_value,normalized_value"
    assert lines[1] == "0,psnr,inf,1"
    assert lines[3].endswith(",0")
    assert len(lines) == 4


def test_write_tracking_csvs(tmp_path):
    image = textured_phantom(size=128, disc=(64.0, 64.0, 9.0))
    seq = static_sequence(image, 5, (Landmark(64.0, 64.0),))
    reset = ResetConfig(similarity_roi=Roi(Landmark(64.0, 64.0), 24, 24),
                        metric_params=CwSsimParams(
                            pyramid=PyramidParams(levels=2, orientations=6)),
                        calibration_frames=3)
    comparisons = [run_tracking_study(seq, (name,), reset)[0]
                   for name in ("ncc", "meanshift")]
    summary = tmp_path / "summary.csv"
    write_tracking_summary_csv(comparisons, summary)
    lines = summary.read_bytes().decode("ascii").splitlines()
    assert lines[0] == "tracker,reset,mean_error_mm,std_error_mm,reset_events"
    assert len(lines) == 5
    assert lines[1] == "ncc,0,0,0,0"
    assert lines[2] == "ncc,1,0,0,0"
    assert lines[3].startswith("meanshift,0,")
    frames = tmp_path / "frames.csv"
    write_tracking_frames_csv(comparisons[0], frames)
    fl = frames.read_bytes().decode("ascii").splitlines()
    assert fl[0] == "frame,bare_error_mm,reset_error_mm"
    assert len(fl) == 6


def test_reports_are_byte_deterministic(tmp_path):
    seq = bench_sequence(seed=2, n_frames=10)
    blobs = []
    for tag in ("a", "b"):
        report = run_correlation_study(seq, ["mse", "ssim"], roi=SMALL_ROI)
        path = tmp_path / f"{tag}.json"
        write_correlation_json(report, path)
        trace_path = tmp_path / f"{tag}.csv"
        write_trace_csv(run_trace(seq, ["mse", "ssim"], roi=SMALL_ROI),
                        trace_path)
        blobs.append(path.read_bytes() + trace_path.read_bytes())
    assert blobs[0] == blobs[1]
