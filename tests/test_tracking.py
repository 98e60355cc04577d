"""Tracker tests: NCC and mean-shift steps, reset wrapper, error scoring."""

import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from usiq import errors, metrics, tracking
from usiq.image import FrameSequence, GrayImage, Landmark, Roi
from usiq.metrics import CwSsimParams, prepare
from usiq.pyramid import PyramidParams
from usiq.synth import (
    Disc,
    MotionSpec,
    PhantomSpec,
    SpeckleSpec,
    benchmark_motion_spec,
    benchmark_phantom_spec,
    make_phantom,
    periodic_sequence,
)
from usiq.tracking import (
    MeanShiftConfig,
    NccConfig,
    ResetConfig,
    TrackResult,
    mean_shift_track,
    ncc_track,
    track_with_reset,
    tracking_error,
)


def textured_phantom(size=96, disc=(48.0, 48.0, 9.0), seed=0, sigma=10.0):
    cx, cy, r = disc
    spec = PhantomSpec(width=size, height=size, background_texture_sigma=sigma,
                       landmarks=(Disc(Landmark(cx, cy), radius=r),))
    return make_phantom(spec, seed=seed)


def static_sequence(image, n, marks):
    return FrameSequence(frames=tuple(image for _ in range(n)),
                         landmarks=tuple(marks for _ in range(n)))


def rolled_frame(image, dx, dy=0):
    return GrayImage(np.roll(image.pixels, (dy, dx), axis=(0, 1)))


# ---------------------------------------------------------------------------
# Config validation


def test_config_validation():
    with pytest.raises(errors.InvalidParamsError):
        NccConfig(roi_half=12, search_half=12)
    with pytest.raises(errors.InvalidParamsError):
        NccConfig(roi_half=0)
    with pytest.raises(errors.InvalidParamsError):
        MeanShiftConfig(bins=1)
    with pytest.raises(errors.InvalidParamsError):
        MeanShiftConfig(max_iters=0)
    with pytest.raises(errors.InvalidParamsError):
        MeanShiftConfig(epsilon=0.0)
    with pytest.raises(errors.InvalidParamsError):
        MeanShiftConfig(scale_steps=(0.9, -1.0))
    roi = Roi(Landmark(48, 48), 20, 20)
    with pytest.raises(errors.InvalidParamsError):
        ResetConfig(similarity_roi=roi, threshold=1.5)
    with pytest.raises(errors.InvalidParamsError):
        ResetConfig(similarity_roi=roi, threshold=0.0)
    with pytest.raises(errors.InvalidParamsError):
        ResetConfig(similarity_roi=roi, metric="nope", threshold=0.9)
    with pytest.raises(errors.InvalidParamsError):
        ResetConfig(similarity_roi=roi)  # neither threshold nor calibration


# ---------------------------------------------------------------------------
# tracking_error oracles


def result_from(points):
    return TrackResult(estimates=tuple((Landmark(x, y),) for x, y in points))


def test_tracking_error_zero_for_exact_match():
    truth = (((Landmark(10, 10),)), ((Landmark(12, 10),)))
    res = result_from([(10, 10), (12, 10)])
    err = tracking_error(res, truth, pixel_spacing_mm=1.0)
    assert err.mean_mm == 0.0
    assert err.std_mm == 0.0
    assert err.per_frame_mm == (0.0, 0.0)


def test_tracking_error_constant_offset():
    truth = tuple((Landmark(20, 20),) for _ in range(5))
    res = result_from([(23, 20)] * 5)
    err = tracking_error(res, truth, pixel_spacing_mm=0.5)
    assert err.mean_mm == pytest.approx(1.5, rel=1e-15)
    assert err.std_mm == pytest.approx(0.0, abs=1e-12)


def test_tracking_error_population_std():
    truth = tuple((Landmark(0, 0),) for _ in range(3))
    res = result_from([(1, 0), (2, 0), (3, 0)])
    err = tracking_error(res, truth, pixel_spacing_mm=1.0)
    assert err.mean_mm == pytest.approx(2.0, rel=1e-15)
    assert err.std_mm == pytest.approx(math.sqrt(2.0 / 3.0), rel=1e-12)


def test_tracking_error_count_mismatch():
    truth = tuple((Landmark(0, 0),) for _ in range(2))
    with pytest.raises(errors.CountMismatchError):
        tracking_error(result_from([(0, 0)] * 3), truth, 1.0)
    two_marks = (((Landmark(0, 0), Landmark(1, 1))),) * 3
    with pytest.raises(errors.CountMismatchError):
        tracking_error(result_from([(0, 0)] * 3), two_marks, 1.0)


# ---------------------------------------------------------------------------
# NCC tracker


def test_ncc_static_sequence_is_fixed_point():
    img = textured_phantom()
    init = (Landmark(48.0, 48.0),)
    res = ncc_track(static_sequence(img, 5, init))
    for marks in res.estimates:
        assert marks == init
    for scores in res.match_scores:
        assert scores[0] == pytest.approx(1.0, abs=1e-12)
    assert res.clamped_frames == ()
    assert res.similarity_trace is None


def test_ncc_recovers_integer_shift_exactly():
    img = textured_phantom()
    frames = (img, rolled_frame(img, 3), rolled_frame(img, 3, 2))
    seq = FrameSequence(frames=frames)
    res = ncc_track(seq, init=(Landmark(48.0, 48.0),))
    assert res.estimates[1][0] == Landmark(51.0, 48.0)
    assert res.estimates[2][0] == Landmark(51.0, 50.0)


def test_ncc_twenty_random_translations_exact():
    img = textured_phantom(size=128, disc=(64, 64, 10))
    rng = np.random.default_rng(17)
    init = (Landmark(64.0, 64.0),)
    for _ in range(20):
        dx, dy = (int(v) for v in rng.integers(-20, 21, size=2))
        seq = FrameSequence(frames=(img, rolled_frame(img, dx, dy)))
        res = ncc_track(seq, init=init)
        assert res.estimates[1][0] == Landmark(64.0 + dx, 64.0 + dy)


def test_ncc_zero_variance_template():
    flat = GrayImage(np.full((64, 64), 50.0))
    seq = static_sequence(flat, 3, (Landmark(32.0, 32.0),))
    with pytest.raises(errors.ZeroVarianceTemplateError) as exc:
        ncc_track(seq)
    assert exc.value.kind == "zero-variance-template"


def test_ncc_init_must_leave_roi_margin():
    img = textured_phantom()
    seq = static_sequence(img, 2, (Landmark(5.0, 48.0),))
    with pytest.raises(errors.OutOfFrameError):
        ncc_track(seq)


def test_ncc_clamps_search_near_border_and_flags_it():
    img = textured_phantom(size=64, disc=(20.0, 20.0, 6.0))
    init = (Landmark(15.0, 15.0),)
    res = ncc_track(static_sequence(img, 3, init))
    assert res.estimates[1] == init
    assert 1 in res.clamped_frames and 2 in res.clamped_frames


def test_ncc_periodic_speckled_error_under_two_px():
    seq = periodic_sequence(benchmark_phantom_spec(), benchmark_motion_spec(),
                            speckle=SpeckleSpec(alpha=0.3, seed=21), seed=21)
    res = ncc_track(seq)
    err = tracking_error(res, seq.landmarks, seq.pixel_spacing_mm)
    assert err.mean_mm < 2.0


def test_ncc_determinism():
    seq = periodic_sequence(benchmark_phantom_spec(),
                            benchmark_motion_spec(n_frames=12),
                            speckle=SpeckleSpec(alpha=0.3, seed=4), seed=4)
    a = ncc_track(seq)
    b = ncc_track(seq)
    assert a.estimates == b.estimates
    assert a.match_scores == b.match_scores


def sliding_window_corr_grid(pixels, centered, norm, r, ylo, yhi, xlo, xhi):
    """Oracle: the correlation grid from an explicit copy of every window."""
    region = pixels[ylo - r:yhi + r + 1, xlo - r:xhi + r + 1]
    windows = sliding_window_view(region, (2 * r + 1, 2 * r + 1))
    cross = np.einsum("ijkl,kl->ij", windows, centered, optimize=True)
    wsum = windows.sum(axis=(2, 3))
    wsq = np.einsum("ijkl,ijkl->ij", windows, windows, optimize=True)
    var = wsq - wsum * wsum / (2 * r + 1) ** 2
    np.clip(var, 0.0, None, out=var)
    denom = norm * np.sqrt(var)
    flat = denom == 0.0
    corr = cross / np.where(flat, 1.0, denom)
    corr[flat] = -1.0
    return corr


def ncc_grids(size, r, s, seed):
    """A random frame, a random template, and search grids around centres
    in the interior, at each border, in a corner, and the 1x1 grid of
    ``score_at``, clamped the way the stepper clamps them."""
    rng = np.random.default_rng(seed)
    frame = GrayImage(rng.uniform(0.0, 255.0, (size, size)))
    template = rng.uniform(0.0, 255.0, (2 * r + 1, 2 * r + 1))
    centered = template - template.mean()
    norm = float(np.sqrt(np.sum(centered * centered)))
    lo, hi, c = r, size - 1 - r, size // 2
    grids = [(max(lo, cy - s), min(hi, cy + s), max(lo, cx - s), min(hi, cx + s))
             for cx, cy in ((c, c), (lo, c), (hi, c), (c, lo), (c, hi),
                            (lo + 1, hi - 2))]
    grids.append((c, c, c, c))
    return frame, centered, norm, grids


@pytest.mark.parametrize("size,r,s,seed", [
    (96, 12, 24, 0), (96, 12, 24, 1), (64, 5, 9, 2), (41, 3, 30, 3),
    (128, 7, 40, 4)])
def test_ncc_grid_matches_sliding_window_oracle(size, r, s, seed):
    frame, centered, norm, grids = ncc_grids(size, r, s, seed)
    stepper = tracking._NccStepper((frame,), (Landmark(size // 2, size // 2),),
                                   NccConfig(roi_half=r, search_half=s))
    for ylo, yhi, xlo, xhi in grids:
        got = stepper._corr_grid(frame.pixels, centered, norm,
                                 ylo, yhi, xlo, xhi)
        want = sliding_window_corr_grid(frame.pixels, centered, norm, r,
                                        ylo, yhi, xlo, xhi)
        assert got.shape == want.shape == (yhi - ylo + 1, xhi - xlo + 1)
        assert np.max(np.abs(got - want)) <= 1e-9


def test_ncc_grid_matches_oracle_on_benchmark_frames():
    seq = bench_sequence(seed=9, n_frames=12, decoy=True)
    init = (seq.landmarks[0][0],)
    stepper = tracking._NccStepper(seq.frames, init, NccConfig())
    (centered, norm), = stepper.templates
    for frame in seq.frames:
        # the full 49x49 search grid around the disc, and the one it clamps
        # to at the frame's left edge
        for grid in ((104, 152, 76, 124), (104, 152, 12, 40)):
            got = stepper._corr_grid(frame.pixels, centered, norm, *grid)
            want = sliding_window_corr_grid(frame.pixels, centered, norm, 12,
                                            *grid)
            assert np.max(np.abs(got - want)) <= 1e-9


def test_ncc_flat_region_scores_minus_one():
    rng = np.random.default_rng(8)
    pixels = rng.uniform(0.0, 255.0, (80, 80))
    pixels[30:70, 30:70] = 117.0
    frame = GrayImage(pixels)
    init = (Landmark(15.0, 15.0),)
    stepper = tracking._NccStepper((frame,), init, NccConfig(roi_half=6,
                                                             search_half=12))
    (centered, norm), = stepper.templates
    got = stepper._corr_grid(pixels, centered, norm, 36, 63, 36, 63)
    want = sliding_window_corr_grid(pixels, centered, norm, 6, 36, 63, 36, 63)
    assert np.all(want == -1.0)
    assert np.all(got == -1.0)
    # windows that overlap the flat patch only in part are not flat
    got = stepper._corr_grid(pixels, centered, norm, 20, 40, 20, 40)
    want = sliding_window_corr_grid(pixels, centered, norm, 6, 20, 40, 20, 40)
    assert np.array_equal(got == -1.0, want == -1.0)
    assert np.max(np.abs(got - want)) <= 1e-9
    assert stepper.score_at(0, (Landmark(50.0, 50.0),), None) == (-1.0,)


# ---------------------------------------------------------------------------
# Mean-shift tracker


def test_meanshift_static_sequence_is_fixed_point():
    img = textured_phantom()
    init = (Landmark(48.0, 48.0),)
    res = mean_shift_track(static_sequence(img, 4, init))
    for marks in res.estimates:
        assert marks == init
    for scores in res.match_scores:
        assert scores[0] == pytest.approx(1.0, abs=1e-12)
    for scales in res.scales:
        assert scales == (1.0,)


def test_meanshift_follows_two_px_shift():
    # bandwidth chosen to match the disc; an oversized kernel has no gradient
    img = textured_phantom(size=64, disc=(32.0, 32.0, 8.0), sigma=0.0)
    seq = FrameSequence(frames=(img, rolled_frame(img, 2)))
    res = mean_shift_track(seq, init=(Landmark(32.0, 32.0),),
                           cfg=MeanShiftConfig(roi_half=8))
    got = res.estimates[1][0]
    assert math.hypot(got.x - 34.0, got.y - 32.0) <= 1.0


def test_meanshift_empty_histogram():
    bright = PhantomSpec(width=64, height=64, background_mean=0.0,
                         background_texture_sigma=0.0,
                         landmarks=(Disc(Landmark(32, 32), radius=20.0,
                                         intensity=220.0),))
    f0 = make_phantom(bright, seed=0)
    dark = GrayImage(np.zeros((64, 64)))
    seq = FrameSequence(frames=(f0, dark))
    cfg = MeanShiftConfig(roi_half=10)
    with pytest.raises(errors.EmptyHistogramError) as exc:
        mean_shift_track(seq, init=(Landmark(32.0, 32.0),), cfg=cfg)
    assert exc.value.kind == "empty-histogram"


def test_meanshift_scale_tracks_growing_disc():
    frames = []
    for radius in (10.0, 11.0, 12.1, 13.3):
        spec = PhantomSpec(width=96, height=96, background_mean=30.0,
                           background_texture_sigma=0.0,
                           landmarks=(Disc(Landmark(48, 48), radius=radius,
                                           intensity=220.0),))
        frames.append(make_phantom(spec, seed=0))
    seq = FrameSequence(frames=tuple(frames))
    res = mean_shift_track(seq, init=(Landmark(48.0, 48.0),))
    picked = [scales[0] for scales in res.scales]
    assert picked[0] == 1.0
    assert all(b >= a for a, b in zip(picked, picked[1:]))
    assert picked[-1] > 1.0


class PerWindowBinning(tracking._MeanShiftStepper):
    """Oracle: the mean-shift stepper that bins each window's intensities
    anew, for the model and on every iteration and scale candidate, instead
    of binning each frame once."""

    def __init__(self, frames, init, cfg):
        self.frames, self.cfg = frames, cfg
        self.scale_order = tuple(sorted(cfg.scale_steps,
                                        key=lambda s: (abs(s - 1.0), s)))
        self.models = []
        for mark in init:
            _, model = self._candidate(frames[0].pixels, mark.x, mark.y,
                                       float(cfg.roi_half))
            self.models.append(model)

    def _binned(self, t):
        return self.frames[t].pixels

    def _candidate(self, pixels, cx, cy, radius):
        gx, gy, kernel, values = tracking._kernel_window(pixels, cx, cy, radius)
        idx = tracking._bin_indices(values, self.cfg.bins)
        hist, total = tracking._kernel_histogram(idx, kernel, self.cfg.bins)
        if total <= 0.0:
            raise errors.EmptyHistogramError("candidate window has no kernel mass")
        return (gx, gy, kernel, idx), hist / total


def meshgrid_kernel_window(plane, cx, cy, radius):
    """Oracle: the kernel window on full ``np.meshgrid`` coordinate grids."""
    height, width = plane.shape
    xlo, xhi = max(0, math.ceil(cx - radius)), min(width - 1, math.floor(cx + radius))
    ylo, yhi = max(0, math.ceil(cy - radius)), min(height - 1, math.floor(cy + radius))
    if xlo > xhi or ylo > yhi:
        return None
    xs = np.arange(xlo, xhi + 1, dtype=np.float64)
    ys = np.arange(ylo, yhi + 1, dtype=np.float64)
    gx, gy = np.meshgrid(xs, ys)
    r2 = ((gx - cx) ** 2 + (gy - cy) ** 2) / (radius * radius)
    kernel = np.clip(1.0 - r2, 0.0, None)
    return gx, gy, kernel, plane[ylo:yhi + 1, xlo:xhi + 1]


@given(cx=st.floats(-12.0, 52.0), cy=st.floats(-12.0, 42.0),
       radius=st.floats(0.5, 20.0), seed=st.integers(0, 2 ** 32 - 1))
def test_broadcast_kernel_window_equals_the_meshgrid_oracle(cx, cy, radius,
                                                            seed):
    rng = np.random.default_rng(seed)
    plane = rng.uniform(0.0, 255.0, (30, 40))
    got = tracking._kernel_window(plane, cx, cy, radius)
    want = meshgrid_kernel_window(plane, cx, cy, radius)
    if want is None:
        assert got is None
        return
    (gx, gy, kernel, values), (wgx, wgy, wkernel, wvalues) = got, want
    r2 = ((gx - cx) ** 2 + (gy - cy) ** 2) / (radius * radius)
    assert np.array_equal(r2, ((wgx - cx) ** 2 + (wgy - cy) ** 2) / (radius * radius))
    assert np.array_equal(kernel, wkernel)
    assert np.array_equal(values, wvalues)
    # the weighted centroid sums of _MeanShiftStepper._converge
    weights = rng.uniform(0.0, 1.0, kernel.shape)
    assert (weights * gx).sum() == (weights * wgx).sum()
    assert (weights * gy).sum() == (weights * wgy).sum()


def test_meanshift_track_equals_the_meshgrid_window_track(monkeypatch):
    seq = periodic_sequence(benchmark_phantom_spec(),
                            benchmark_motion_spec(n_frames=10),
                            speckle=SpeckleSpec(alpha=0.3, seed=5), seed=5)
    cfg = MeanShiftConfig(bins=7, roi_half=9)

    def tracks():
        oracle = PerWindowBinning(seq.frames, seq.landmarks[0], cfg)
        return (mean_shift_track(seq, cfg=cfg),
                tracking._run(seq, seq.landmarks[0], oracle, None, None, None))

    broadcast = tracks()
    monkeypatch.setattr(tracking, "_kernel_window", meshgrid_kernel_window)
    assert tracks() == broadcast


def test_meanshift_determinism():
    seq = periodic_sequence(benchmark_phantom_spec(),
                            benchmark_motion_spec(n_frames=10),
                            speckle=SpeckleSpec(alpha=0.3, seed=5), seed=5)
    a = mean_shift_track(seq)
    b = mean_shift_track(seq)
    assert a.estimates == b.estimates
    assert a.scales == b.scales
    # binning each frame once picks the same integer bins as binning every
    # window, so the whole result is bit-identical
    for cfg in (MeanShiftConfig(), MeanShiftConfig(bins=7, roi_half=9)):
        oracle = PerWindowBinning(seq.frames, seq.landmarks[0], cfg)
        want = tracking._run(seq, seq.landmarks[0], oracle, None, None, None)
        assert mean_shift_track(seq, cfg=cfg) == want


# ---------------------------------------------------------------------------
# Reset wrapper


def reset_cfg(**kw):
    args = dict(metric="cwssim",
                metric_params=CwSsimParams(
                    pyramid=PyramidParams(levels=3, orientations=6)),
                similarity_roi=Roi(Landmark(108.0, 128.0), 32, 32))
    args.update(kw)
    return ResetConfig(**args)


def bench_sequence(seed, n_frames=90, decoy=False, alpha=0.3):
    return periodic_sequence(benchmark_phantom_spec(decoy=decoy),
                             benchmark_motion_spec(n_frames=n_frames),
                             speckle=SpeckleSpec(alpha=alpha, seed=seed),
                             seed=seed)


def test_wrapper_transparency_with_unreachable_threshold():
    seq = bench_sequence(seed=2, n_frames=20)
    for tracker, bare in (("ncc", ncc_track), ("meanshift", mean_shift_track)):
        wrapped = track_with_reset(tracker, seq, reset=reset_cfg(threshold=1.0))
        plain = bare(seq)
        assert wrapped.estimates == plain.estimates
        assert wrapped.match_scores == plain.match_scores
        assert wrapped.scales == plain.scales
        assert wrapped.reset_events == ()
        assert wrapped.reset_threshold == 1.0
        assert wrapped.similarity_trace is not None
        assert len(wrapped.similarity_trace) == 20


def test_reset_fires_every_frame_on_static_sequence():
    img = textured_phantom(size=256, disc=(108.0, 128.0, 10.0))
    init = (Landmark(108.0, 128.0),)
    seq = static_sequence(img, 6, init)
    res = track_with_reset("ncc", seq, reset=reset_cfg(threshold=0.5))
    assert res.reset_events == (0, 1, 2, 3, 4, 5)
    for marks in res.estimates:
        assert marks == init
    assert all(v == pytest.approx(1.0, abs=1e-12)
               for v in res.similarity_trace)


def test_reset_estimates_equal_init_exactly_at_events():
    seq = bench_sequence(seed=3)
    init = seq.landmarks[0]
    res = track_with_reset("ncc", seq,
                           reset=reset_cfg(calibration_frames=28))
    assert res.reset_events, "expected at least one reset on pose recurrence"
    for t in res.reset_events:
        assert res.estimates[t] == init
    # resets cluster around the pose-recurrence frames (multiples of 30);
    # heavy speckle flattens the trace so the firing band is a few frames wide
    for t in res.reset_events:
        assert min(abs(t - k) for k in (0, 30, 60, 90)) <= 6


def test_calibrate_threshold_formula():
    seq = bench_sequence(seed=6, n_frames=12)
    cfg = reset_cfg(calibration_frames=8)
    from usiq.metrics import compute_metric
    from usiq.image import crop
    ref = crop(seq.frames[0], cfg.similarity_roi)
    vals = [compute_metric(cfg.metric, ref,
                           crop(seq.frames[t], cfg.similarity_roi),
                           cfg.metric_params).value
            for t in range(1, 9)]
    want = max(vals) - float(np.std(vals))
    got = track_with_reset("ncc", seq, reset=cfg).reset_threshold
    assert got == pytest.approx(want, rel=1e-12)


def test_calibrated_reset_scores_each_frame_once(monkeypatch):
    seq = bench_sequence(seed=4)
    cfg = reset_cfg(calibration_frames=28)
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
    res = track_with_reset("ncc", seq, reset=cfg)
    assert prepared == ["cwssim"]
    assert scored == ["cwssim"] * 90
    monkeypatch.undo()
    # the wrapped run fires exactly where its reported threshold says it should
    threshold = res.reset_threshold
    assert res.reset_events
    assert res.reset_events == tuple(
        t for t, v in enumerate(res.similarity_trace) if v > threshold)
    fixed = track_with_reset("ncc", seq,
                             reset=reset_cfg(threshold=threshold))
    assert fixed.estimates == res.estimates
    assert fixed.similarity_trace == res.similarity_trace
    assert fixed.reset_threshold == threshold


def test_calibrated_cwssim_reset_decomposes_reference_once(monkeypatch):
    seq = bench_sequence(seed=5, n_frames=30)
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
    track_with_reset("meanshift", seq, reset=reset_cfg(calibration_frames=10))
    # the reference crop once, and every frame once in some stack
    assert calls == [(65, 65)]
    assert all(shape[1:] == (65, 65) for shape in stacks)
    assert sum(shape[0] for shape in stacks) == 30


def test_drift_injection_reset_beats_bare_tracker():
    seq = bench_sequence(seed=7, decoy=True)
    # track only the true disc; the decoy is scenery the corruption lands on
    init = (seq.landmarks[0][0],)
    truth = tuple((marks[0],) for marks in seq.landmarks)
    hit = {15: (100.0, 0.0)}
    bare = ncc_track(seq, init=init, disturbances=hit)
    bare_err = tracking_error(bare, truth, 1.0)
    # the corruption lands on the decoy and the bare tracker stays there
    locked = bare.estimates[20][0]
    assert abs(locked.x - truth[20][0].x - 100.0) < 3.0
    wrapped = track_with_reset("ncc", seq, init=init, reset=reset_cfg(
        calibration_frames=28), disturbances=hit)
    wrapped_err = tracking_error(wrapped, truth, 1.0)
    assert wrapped_err.mean_mm < bare_err.mean_mm


def test_unknown_tracker_id():
    seq = bench_sequence(seed=1, n_frames=3)
    with pytest.raises(errors.InvalidParamsError):
        track_with_reset("kalman", seq, reset=reset_cfg(threshold=0.9))
