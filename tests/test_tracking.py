"""Tracker tests: NCC and mean-shift steps, reset wrapper, error scoring."""

import dataclasses
import hashlib
import json
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view
from scipy.fft import next_fast_len

from usiq import errors, metrics, tracking
from usiq.harness import run_tracking_study
from usiq.image import (FrameSequence, GrayImage, Landmark, Roi,
                        _RenderedFrames, crop)
from usiq.metrics import prepare
from usiq.synth import (
    Disc,
    PhantomSpec,
    SpeckleSpec,
    benchmark_motion_spec,
    benchmark_phantom_spec,
    make_phantom,
    periodic_sequence,
)
from usiq.tracking import (
    TRACKERS,
    MeanShiftConfig,
    NccConfig,
    ResetConfig,
    TrackResult,
    track,
    tracking_error,
)

from builders import (
    bench_sequence,
    counted,
    held,
    hexed,
    reset_cfg,
    static_sequence,
    textured_phantom,
)


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


@pytest.mark.parametrize("metric", ["mse", "psnr"])
def test_reset_config_admits_only_metrics_that_score_1_on_the_reference(
        metric):
    # the gate fires above a threshold in (0, 1]; MSE scores 0 and PSNR +inf
    # on the reference, so a gate on either was once built and never worked
    with pytest.raises(errors.InvalidParamsError,
                       match="one of cwssim, msssim, ssim, vif"):
        ResetConfig(similarity_roi=Roi(Landmark(48, 48), 20, 20),
                    metric=metric, calibration_frames=3)


@pytest.mark.parametrize("fields", [
    {"calibration_frames": 2.5},
], ids=["calibration-frames-float"])
def test_reset_config_rejects_non_integer_frame_counts(fields):
    # once built, then failed with a bare TypeError inside the gate
    with pytest.raises(errors.InvalidParamsError):
        ResetConfig(similarity_roi=Roi(Landmark(48, 48), 20, 20), **fields)


def test_reset_config_has_no_reference_frame():
    # the gate reads the sequence's own reference frame
    with pytest.raises(TypeError):
        ResetConfig(similarity_roi=Roi(Landmark(48, 48), 20, 20),
                    threshold=0.9, reference_frame=1)


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
    res = track("ncc", static_sequence(img, 5, init))
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
    res = track("ncc", seq, init=(Landmark(48.0, 48.0),))
    assert res.estimates[1][0] == Landmark(51.0, 48.0)
    assert res.estimates[2][0] == Landmark(51.0, 50.0)


def test_ncc_twenty_random_translations_exact():
    img = textured_phantom(size=128, disc=(64, 64, 10))
    rng = np.random.default_rng(17)
    init = (Landmark(64.0, 64.0),)
    for _ in range(20):
        dx, dy = (int(v) for v in rng.integers(-20, 21, size=2))
        seq = FrameSequence(frames=(img, rolled_frame(img, dx, dy)))
        res = track("ncc", seq, init=init)
        assert res.estimates[1][0] == Landmark(64.0 + dx, 64.0 + dy)


def test_ncc_zero_variance_template():
    flat = GrayImage(np.full((64, 64), 50.0))
    seq = static_sequence(flat, 3, (Landmark(32.0, 32.0),))
    with pytest.raises(errors.ZeroVarianceTemplateError) as exc:
        track("ncc", seq)
    assert exc.value.kind == "zero-variance-template"


def test_ncc_init_must_leave_roi_margin():
    img = textured_phantom()
    seq = static_sequence(img, 2, (Landmark(5.0, 48.0),))
    with pytest.raises(errors.OutOfFrameError):
        track("ncc", seq)


def test_ncc_clamps_search_near_border_and_flags_it():
    img = textured_phantom(size=64, disc=(20.0, 20.0, 6.0))
    init = (Landmark(15.0, 15.0),)
    res = track("ncc", static_sequence(img, 3, init))
    assert res.estimates[1] == init
    assert 1 in res.clamped_frames and 2 in res.clamped_frames


def test_ncc_periodic_speckled_error_under_two_px():
    seq = periodic_sequence(benchmark_phantom_spec(), benchmark_motion_spec(),
                            speckle=SpeckleSpec(alpha=0.3, seed=21), seed=21)
    res = track("ncc", seq)
    err = tracking_error(res, seq.landmarks, seq.pixel_spacing_mm)
    assert err.mean_mm < 2.0


def test_ncc_determinism():
    seq = periodic_sequence(benchmark_phantom_spec(),
                            benchmark_motion_spec(n_frames=12),
                            speckle=SpeckleSpec(alpha=0.3, seed=4), seed=4)
    a = track("ncc", seq)
    b = track("ncc", seq)
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
    stepper = tracking._NccStepper(frame, (Landmark(size // 2, size // 2),),
                                   NccConfig(roi_half=r, search_half=s))
    template = tracking._Template(centered, norm, {})
    for ylo, yhi, xlo, xhi in grids:
        got = stepper._corr_grid(frame.pixels, template, ylo, yhi, xlo, xhi)
        want = sliding_window_corr_grid(frame.pixels, centered, norm, r,
                                        ylo, yhi, xlo, xhi)
        assert got.shape == want.shape == (yhi - ylo + 1, xhi - xlo + 1)
        assert np.max(np.abs(got - want)) <= 1e-9


def test_ncc_grid_matches_oracle_on_benchmark_frames():
    seq = bench_sequence(seed=9, n_frames=12, decoy=True)
    init = (seq.landmarks[0][0],)
    stepper = tracking._NccStepper(seq.frames[0], init, NccConfig())
    template, = stepper.templates
    centered, norm, _ = template
    for frame in seq.frames:
        # the full 49x49 search grid around the disc, and the one it clamps
        # to at the frame's left edge
        for grid in ((104, 152, 76, 124), (104, 152, 12, 40)):
            got = stepper._corr_grid(frame.pixels, template, *grid)
            want = sliding_window_corr_grid(frame.pixels, centered, norm, 12,
                                            *grid)
            assert np.max(np.abs(got - want)) <= 1e-9


def test_ncc_flat_region_scores_minus_one():
    rng = np.random.default_rng(8)
    pixels = rng.uniform(0.0, 255.0, (80, 80))
    pixels[30:70, 30:70] = 117.0
    frame = GrayImage(pixels)
    init = (Landmark(15.0, 15.0),)
    stepper = tracking._NccStepper(frame, init, NccConfig(roi_half=6,
                                                          search_half=12))
    template, = stepper.templates
    centered, norm, _ = template
    got = stepper._corr_grid(pixels, template, 36, 63, 36, 63)
    want = sliding_window_corr_grid(pixels, centered, norm, 6, 36, 63, 36, 63)
    assert np.all(want == -1.0)
    assert np.all(got == -1.0)
    # windows that overlap the flat patch only in part are not flat
    got = stepper._corr_grid(pixels, template, 20, 40, 20, 40)
    want = sliding_window_corr_grid(pixels, centered, norm, 6, 20, 40, 20, 40)
    assert np.array_equal(got == -1.0, want == -1.0)
    assert np.max(np.abs(got - want)) <= 1e-9
    assert stepper.score_at(stepper.view(frame), (Landmark(50.0, 50.0),),
                            None) == (-1.0,)


def smooth_235_len(n):
    """Oracle: the smallest 2^a 3^b 5^c >= n, found by trial division."""
    while True:
        m = n
        for p in (2, 3, 5):
            while m % p == 0:
                m //= p
        if m == 1:
            return n
        n += 1


def test_fft_length_is_the_smallest_235_smooth_length():
    # the NCC correlation pads each axis to scipy's real-FFT fast length
    assert all(tracking._fast_len(n) == next_fast_len(n, real=True)
               == smooth_235_len(n) for n in range(1, 4097))


@pytest.mark.parametrize("clamped", [False, True])
def test_template_spectrum_is_made_once_per_fft_shape(monkeypatch, clamped):
    frame = textured_phantom()
    stepper = tracking._NccStepper(frame, (Landmark(48.0, 48.0),),
                                   NccConfig())
    template, = stepper.templates
    made, rfft2 = [], np.fft.rfft2

    def counting(values, *args, **kwargs):
        if values is template.centered:
            made.append(args)
        return rfft2(values, *args, **kwargs)

    monkeypatch.setattr(np.fft, "rfft2", counting)
    # a search window clamped at the frame's left edge is correlated at a
    # second FFT shape
    starts = [Landmark(48.0, 48.0), Landmark(50.0, 47.0)]
    if clamped:
        starts += [Landmark(20.0, 48.0), Landmark(18.0, 50.0)]
    for start in starts * 2:
        *_, hit_border = stepper.step(frame.pixels, (start,), None)
        assert hit_border == (start.x < 36.0)
    assert len(made) == len(template.spectra) == 1 + clamped
    for shape, spectrum in template.spectra.items():
        assert np.array_equal(spectrum,
                              np.conj(rfft2(template.centered, shape)))


# ---------------------------------------------------------------------------
# Mean-shift tracker


def test_meanshift_static_sequence_is_fixed_point():
    img = textured_phantom()
    init = (Landmark(48.0, 48.0),)
    res = track("meanshift", static_sequence(img, 4, init))
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
    res = track("meanshift", seq, init=(Landmark(32.0, 32.0),),
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
        track("meanshift", seq, init=(Landmark(32.0, 32.0),), cfg=cfg)
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
    res = track("meanshift", seq, init=(Landmark(48.0, 48.0),))
    picked = [scales[0] for scales in res.scales]
    assert picked[0] == 1.0
    assert all(b >= a for a, b in zip(picked, picked[1:]))
    assert picked[-1] > 1.0


class PerWindowBinning(tracking._MeanShiftStepper):
    """Oracle: the mean-shift stepper that bins each window's intensities
    anew, for the model and on every iteration and scale candidate, instead
    of binning each frame once."""

    def __init__(self, first_frame, init, cfg):
        self.cfg = cfg
        self.scale_order = tuple(sorted(cfg.scale_steps,
                                        key=lambda s: (abs(s - 1.0), s)))
        self.models = []
        for mark in init:
            _, model = self._candidate(first_frame.pixels, mark.x, mark.y,
                                       float(cfg.roi_half))
            self.models.append(model)

    def view(self, frame):
        return frame.pixels

    def _candidate(self, pixels, cx, cy, radius):
        gx, gy, kernel, values = tracking._kernel_window(pixels, cx, cy, radius)
        idx = tracking._bin_indices(values, self.cfg.bins)
        hist, total = tracking._kernel_histogram(idx, kernel, self.cfg.bins)
        if total <= 0.0:
            raise errors.EmptyHistogramError("candidate window has no kernel mass")
        return (gx, gy, kernel, idx), hist / total


def per_window_track(seq, cfg):
    """Oracle: the bare mean-shift track of ``seq`` by ``PerWindowBinning``."""
    result, = tracking._lockstep(seq, None,
                                 [(PerWindowBinning, cfg, (False,))])
    return result


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
        return (track("meanshift", seq, cfg=cfg), per_window_track(seq, cfg))

    broadcast = tracks()
    monkeypatch.setattr(tracking, "_kernel_window", meshgrid_kernel_window)
    assert tracks() == broadcast


def test_meanshift_determinism():
    seq = periodic_sequence(benchmark_phantom_spec(),
                            benchmark_motion_spec(n_frames=10),
                            speckle=SpeckleSpec(alpha=0.3, seed=5), seed=5)
    a = track("meanshift", seq)
    b = track("meanshift", seq)
    assert a.estimates == b.estimates
    assert a.scales == b.scales
    # binning each frame once picks the same integer bins as binning every
    # window, so the whole result is bit-identical
    for cfg in (MeanShiftConfig(), MeanShiftConfig(bins=7, roi_half=9)):
        assert track("meanshift", seq, cfg=cfg) == per_window_track(seq, cfg)


@pytest.mark.parametrize("bins, dtype", [(2, np.uint8), (32, np.uint8),
                                         (256, np.uint8), (257, np.uint16)])
def test_bin_indices_equal_the_int64_formula(bins, dtype):
    edges = np.arange(bins + 1) * (256.0 / bins)
    values = np.concatenate([
        [0.0, 255.0, 255.999, 256.0, -1.0, 300.0],
        edges, np.nextafter(edges, -np.inf), np.nextafter(edges, np.inf),
        np.random.default_rng(bins).uniform(0.0, 256.0, 500)])
    # the formula before the bins were narrowed to the smallest unsigned type
    want = np.clip(np.floor(values * (bins / 256.0)).astype(np.int64),
                   0, bins - 1)
    got = tracking._bin_indices(values, bins)
    assert got.dtype == dtype
    assert np.array_equal(got, want)


@pytest.mark.parametrize("bins", [2, 32, 256, 300])
def test_bin_indices_edge_values_equal_the_floor_formula(bins):
    # clip and cast give the floor's bins without a floor pass, also at
    # ±1e300, which the int64 formula above cannot cast
    values = np.array([-1e300, -0.5, 0.49999999999999994, 0.5, 254.5,
                       255.49999999999997, 255.5, 256.0, 300.0, 1e300])
    want = np.clip(np.floor(values * (bins / 256.0)), 0, bins - 1)
    got = tracking._bin_indices(values, bins)
    assert got.dtype == (np.uint16 if bins > 256 else np.uint8)
    assert np.array_equal(got, want.astype(got.dtype))


# ---------------------------------------------------------------------------
# Reset wrapper


def test_wrapper_transparency_with_unreachable_threshold():
    seq = bench_sequence(seed=2, n_frames=20)
    for tracker in ("ncc", "meanshift"):
        wrapped = track(tracker, seq, reset=reset_cfg(threshold=1.0))
        plain = track(tracker, seq)
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
    res = track("ncc", seq, reset=reset_cfg(threshold=0.5))
    assert res.reset_events == (0, 1, 2, 3, 4, 5)
    for marks in res.estimates:
        assert marks == init
    assert all(v == pytest.approx(1.0, abs=1e-12)
               for v in res.similarity_trace)


def test_reset_estimates_equal_init_exactly_at_events():
    seq = bench_sequence(seed=3)
    init = seq.landmarks[0]
    res = track("ncc", seq, reset=reset_cfg(calibration_frames=28))
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
    from usiq.metrics import prepare
    from usiq.image import crop
    ref = crop(seq.frames[0], cfg.similarity_roi)
    vals = [prepare(cfg.metric, ref, cfg.metric_params)(
                crop(seq.frames[t], cfg.similarity_roi)).value
            for t in range(1, 9)]
    want = max(vals) - float(np.std(vals))
    got = track("ncc", seq, reset=cfg).reset_threshold
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
        return SimpleNamespace(values=values, stack_size=scorer.stack_size)

    monkeypatch.setattr(tracking, "prepare", counting)
    res = track("ncc", seq, reset=cfg)
    assert prepared == ["cwssim"]
    assert scored == ["cwssim"] * 90
    monkeypatch.undo()
    # the wrapped run fires exactly where its reported threshold says it should
    threshold = res.reset_threshold
    assert res.reset_events
    assert res.reset_events == tuple(
        t for t, v in enumerate(res.similarity_trace) if v > threshold)
    fixed = track("ncc", seq, reset=reset_cfg(threshold=threshold))
    assert fixed.estimates == res.estimates
    assert fixed.similarity_trace == res.similarity_trace
    assert fixed.reset_threshold == threshold


def test_calibrated_reset_crops_each_frame_once(monkeypatch):
    # crops are matched to frames by identity, so the frames are held
    seq = dataclasses.replace(held(bench_sequence(seed=5, n_frames=20)),
                              reference_frame=3)
    cfg = reset_cfg(calibration_frames=6)
    cropped = []

    def counting(image, roi):
        cropped.append(image)
        return crop(image, roi)

    monkeypatch.setattr(tracking, "crop", counting)
    res = track("ncc", seq, reset=cfg)
    assert len(cropped) == len(seq.frames)
    assert {id(image) for image in cropped} == {id(f) for f in seq.frames}
    monkeypatch.undo()
    # the reference's one crop is still scored at its own position
    roi = cfg.similarity_roi
    scorer = prepare(cfg.metric, crop(seq.frames[3], roi), cfg.metric_params)
    want = scorer.values(crop(frame, roi) for frame in seq.frames)
    assert [v.hex() for v in res.similarity_trace] == [v.hex() for v in want]


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
    track("meanshift", seq, reset=reset_cfg(calibration_frames=10))
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
    bare = track("ncc", seq, init=init, disturbances=hit)
    bare_err = tracking_error(bare, truth, 1.0)
    # the corruption lands on the decoy and the bare tracker stays there
    locked = bare.estimates[20][0]
    assert abs(locked.x - truth[20][0].x - 100.0) < 3.0
    wrapped = track("ncc", seq, init=init, reset=reset_cfg(
        calibration_frames=28), disturbances=hit)
    wrapped_err = tracking_error(wrapped, truth, 1.0)
    assert wrapped_err.mean_mm < bare_err.mean_mm


# sha256 of the hexed TrackResult fields, recorded while the driving loop
# still had separate frame-0 and reset branches and per-stepper scale hooks
TRACK_DIGESTS = {
    ("ncc", False):
        "a83723a44ee525265aaf66f022539842d57af10511fdf0b9198d63c94c087e0a",
    ("ncc", True):
        "eff30361de3d8f56be463ecf68458822f932bab61b8b96a0f9651a2f0f7cb440",
    ("meanshift", False):
        "1d0fd5716ac0c2f0467fa489e89d4795d783805e33cfed470ab05024f7349301",
    ("meanshift", True):
        "357eef24a8209cba9f617804bb94b5c6c7bc6e712904bf4b9936ff3cf34bb1d7",
}


@pytest.mark.parametrize("tracker, wrapped", sorted(TRACK_DIGESTS))
def test_track_result_digest_is_pinned(tracker, wrapped):
    seq = bench_sequence(seed=7, n_frames=30, decoy=True)
    hit = {12: (6.0, -4.0)}
    if wrapped:
        res = track(tracker, seq, reset=reset_cfg(
            calibration_frames=28), disturbances=hit)
        # frame 0 and both ends of the period re-anchor
        assert res.reset_events[0] == 0 and res.reset_events[-1] == 29
    else:
        res = track(tracker, seq, disturbances=hit)
    fields = (res.estimates, res.match_scores, res.scales, res.reset_events,
              res.clamped_frames, res.reset_threshold)
    digest = hashlib.sha256(json.dumps(hexed(fields)).encode()).hexdigest()
    assert digest == TRACK_DIGESTS[tracker, wrapped]


def test_equal_arm_steps_run_once_in_the_benchmark_study(monkeypatch):
    seq = held(bench_sequence(seed=0, decoy=True))
    init, hit = seq.landmarks[0][:1], {15: (100.0, 0.0)}
    reset = reset_cfg(calibration_frames=28)
    steps = {name: counted(monkeypatch, stepper, "step")
             for name, stepper in TRACKERS.items()}
    study = run_tracking_study(seq, list(TRACKERS), reset, init=init,
                               truth=tuple(m[:1] for m in seq.landmarks),
                               disturbances=hit)
    alone_total = shared_total = 0
    for cmp in study:
        bare, gated = cmp.bare.result, cmp.reset.result
        studied = len(steps[cmp.tracker])
        assert bare == track(cmp.tracker, seq, init=init, disturbances=hit)
        assert gated == track(cmp.tracker, seq, init=init, reset=reset,
                              disturbances=hit)
        alone = len(steps[cmp.tracker]) - studied
        # the frames on which both arms step from equal estimates and state
        shared = sum(
            t not in gated.reset_events
            and bare.estimates[t - 1] == gated.estimates[t - 1]
            and (bare.scales is None
                 or bare.scales[t - 1] == gated.scales[t - 1])
            for t in range(1, len(seq.frames)))
        assert studied == alone - shared
        alone_total += alone
        shared_total += shared
    assert (alone_total, shared_total) == (306, 34)


@pytest.mark.parametrize("gates", [(False, True), (True, False)])
@pytest.mark.parametrize("tracker", sorted(TRACKERS))
def test_arms_that_share_steps_equal_their_own_runs(monkeypatch, tracker,
                                                    gates):
    # only the gated arm fires, so the arms part and meet again
    seq = held(bench_sequence(seed=3, n_frames=30, decoy=True))
    init, hit = seq.landmarks[0][:1], {12: (100.0, 0.0)}
    reset = reset_cfg(calibration_frames=10)
    steps = counted(monkeypatch, TRACKERS[tracker], "step")
    results = tracking._lockstep(seq, init, [(TRACKERS[tracker], None, gates)],
                                 reset, hit)
    studied = len(steps)
    for gated, result in zip(gates, results):
        assert result == track(tracker, seq, init=init,
                               reset=reset if gated else None,
                               disturbances=hit)
        assert bool(result.reset_events) == gated
    assert results[0].estimates != results[1].estimates
    assert studied < len(steps) - studied


def test_unknown_tracker_id():
    seq = bench_sequence(seed=1, n_frames=3)
    with pytest.raises(errors.InvalidParamsError):
        track("kalman", seq, reset=reset_cfg(threshold=0.9))


def counted_static_sequence(n, reads):
    """``static_sequence`` of ``textured_phantom``, appending each frame
    index to ``reads`` as the frame is read."""
    img = textured_phantom()
    return FrameSequence(
        frames=_RenderedFrames(lambda t: reads.append(t) or img, n),
        landmarks=((Landmark(48.0, 48.0),),) * n)


@pytest.mark.parametrize("gated", [False, True])
@pytest.mark.parametrize("frame", [5, -1, 2.0, True])
def test_disturbance_outside_the_sequence_is_rejected_before_any_read(
        frame, gated):
    # such a disturbance was once dropped without a word
    reads = []
    seq = counted_static_sequence(5, reads)
    reset = (ResetConfig(Roi(Landmark(48.0, 48.0), 16, 16), threshold=0.9)
             if gated else None)
    with pytest.raises(errors.InvalidParamsError):
        track("ncc", seq, reset=reset, disturbances={frame: (1.0, 0.0)})
    assert reads == []


def test_disturbance_frames_may_be_numpy_integers():
    seq = counted_static_sequence(5, [])
    got = track("ncc", seq, disturbances={np.int64(4): (1.0, 0.0)})
    assert got == track("ncc", seq, disturbances={4: (1.0, 0.0)})
    assert got.estimates[4] == (Landmark(49.0, 48.0),)


@pytest.mark.parametrize("run", [
    lambda seq: track("ncc", seq, cfg=MeanShiftConfig()),
    lambda seq: track("ncc", seq, init=()),
    lambda seq: track("ncc", dataclasses.replace(seq, landmarks=None)),
    lambda seq: run_tracking_study(seq, ["ncc"], None),
], ids=["config-of-another-tracker", "empty-init", "no-landmarks-no-init",
        "study-without-reset"])
def test_tracker_arguments_are_checked_before_any_read(run):
    reads = []
    with pytest.raises(errors.InvalidParamsError):
        run(counted_static_sequence(5, reads))
    assert reads == []
