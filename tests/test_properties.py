"""Property tests of the invariants the image layer, the metrics, the
pyramid, the trackers, the reset gate and the number format promise; metrics
run through the prepared-scorer path."""

import dataclasses
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from usiq.errors import InvalidParamsError, ManifestError
from usiq.harness import format_number, run_tracking_study
from usiq.image import (_BINOMIAL5, FrameSequence, GrayImage, Landmark, Roi,
                        _decimate2, crop, load_pgm, load_sequence,
                        round_half_away, save_pgm, write_sequence)
from usiq.metrics import (METRICS, CwSsimParams, MsSsimParams, SsimParams,
                          VifParams, prepare, psnr)
from usiq.pyramid import PyramidParams, band_energy, decompose, min_dimension
from usiq.synth import (Disc, MotionSpec, PhantomSpec, SpeckleSpec,
                        periodic_sequence)
from usiq.tracking import (TRACKERS, MeanShiftConfig, NccConfig, ResetConfig,
                           track)

# Image-layer properties write to a fresh temporary directory per example.
FINITE = st.floats(allow_nan=False, allow_infinity=False)
SEEDS = st.integers(0, 2 ** 32 - 1)


def integer_image(seed, shape):
    """Whole values in [0, 255], which 8-bit PGM holds exactly."""
    rng = np.random.default_rng(seed)
    return GrayImage(rng.integers(0, 256, shape).astype(np.float64))


@st.composite
def integer_images(draw, max_side=12):
    side = st.integers(1, max_side)
    return integer_image(draw(SEEDS), (draw(side), draw(side)))


@st.composite
def sequences(draw):
    """A short sequence of integer frames with drawn spacing and reference
    frame, and either no landmarks or the same drawn count on every frame."""
    shape = (draw(st.integers(1, 8)), draw(st.integers(1, 8)))
    n_frames = draw(st.integers(1, 4))
    frames = tuple(integer_image(draw(SEEDS), shape) for _ in range(n_frames))
    per_frame = draw(st.none() | st.integers(0, 3))
    marks = None if per_frame is None else tuple(
        tuple(Landmark(draw(FINITE), draw(FINITE)) for _ in range(per_frame))
        for _ in range(n_frames))
    return FrameSequence(
        frames, landmarks=marks,
        pixel_spacing_mm=draw(st.floats(0.0, 1e6, exclude_min=True)),
        reference_frame=draw(st.integers(0, n_frames - 1)))


@given(sequences())
def test_write_then_load_sequence_is_exact(seq):
    with tempfile.TemporaryDirectory() as directory:
        back = load_sequence(write_sequence(seq, directory))
    assert len(back) == len(seq)
    for got, want in zip(back.frames, seq.frames):
        assert np.array_equal(got.pixels, want.pixels)
    assert back.pixel_spacing_mm == seq.pixel_spacing_mm
    assert back.reference_frame == seq.reference_frame
    assert back.landmarks == seq.landmarks


@given(sequences(), st.floats(-12.0, 20.0), st.floats(-12.0, 20.0),
       st.integers(0, 6), st.integers(0, 6))
def test_windowed_load_equals_the_crop_of_the_full_load(seq, x, y, half_width,
                                                        half_height):
    roi = Roi(Landmark(x, y), half_width, half_height)
    with tempfile.TemporaryDirectory() as directory:
        path = write_sequence(seq, directory)
        full, windowed = load_sequence(path), load_sequence(path, roi)
    for got, frame in zip(windowed.frames, full.frames):
        assert got.pixels.tobytes() == crop(frame, roi).pixels.tobytes()
    x0 = round_half_away(x) - half_width
    y0 = round_half_away(y) - half_height
    assert windowed.landmarks == (None if full.landmarks is None else tuple(
        tuple(Landmark(lm.x - x0, lm.y - y0) for lm in per_frame)
        for per_frame in full.landmarks))
    assert windowed.reference_frame == full.reference_frame
    assert windowed.pixel_spacing_mm == full.pixel_spacing_mm


@given(integer_images())
def test_pgm_round_trips_integer_images_as_p5_and_p2(image):
    values = image.pixels.astype(int)
    p2 = f"P2\n{image.width} {image.height}\n255\n" + "".join(
        " ".join(map(str, row)) + "\n" for row in values)
    with tempfile.TemporaryDirectory() as directory:
        p5_path = os.path.join(directory, "a.pgm")
        save_pgm(image, p5_path)
        p2_path = os.path.join(directory, "b.pgm")
        with open(p2_path, "w", encoding="ascii") as fh:
            fh.write(p2)
        for path in (p5_path, p2_path):
            assert np.array_equal(load_pgm(path).pixels, image.pixels)


@given(integer_images(max_side=20), st.floats(-30.0, 50.0),
       st.floats(-30.0, 50.0), st.integers(0, 8), st.integers(0, 8))
def test_crop_shape_is_the_roi_shape(image, x, y, half_width, half_height):
    out = crop(image, Roi(Landmark(x, y), half_width, half_height))
    assert out.shape == (2 * half_height + 1, 2 * half_width + 1)


def ix_crop(pixels, roi):
    """Oracle: the crop as one ``np.ix_`` fancy-index gather."""
    cx, cy = round_half_away(roi.center.x), round_half_away(roi.center.y)
    height, width = pixels.shape
    xs = np.clip(np.arange(cx - roi.half_width, cx + roi.half_width + 1),
                 0, width - 1)
    ys = np.clip(np.arange(cy - roi.half_height, cy + roi.half_height + 1),
                 0, height - 1)
    return pixels[np.ix_(ys, xs)]


# The explicit examples place a 10 x 12 image's ROI inside it, across each of
# its four borders, and around it; the drawn ones cover the rest.
@given(SEEDS, st.integers(1, 12), st.integers(1, 12), st.floats(-20.0, 32.0),
       st.floats(-20.0, 32.0), st.integers(0, 15), st.integers(0, 15))
@example(1, 10, 12, 6.0, 4.5, 3, 2)       # inside
@example(2, 10, 12, 1.0, 5.0, 3, 2)       # across the left border
@example(3, 10, 12, 10.4, 5.0, 3, 2)      # across the right border
@example(4, 10, 12, 6.0, 1.0, 3, 2)       # across the top border
@example(5, 10, 12, 6.0, 9.0, 3, 4)       # across the bottom border
@example(6, 10, 12, 5.5, 4.5, 9, 8)       # larger than the image
def test_crop_equals_the_ix_gather_oracle(seed, height, width, x, y,
                                          half_width, half_height):
    image = GrayImage(np.random.default_rng(seed).uniform(0.0, 255.0,
                                                          (height, width)))
    roi = Roi(Landmark(x, y), half_width, half_height)
    assert np.array_equal(crop(image, roi).pixels, ix_crop(image.pixels, roi))


@given(st.integers(2, 40), st.integers(2, 40))
def test_downsample2_halves_rounding_up(height, width):
    out = _decimate2(np.zeros((height, width)), _BINOMIAL5)
    assert out.shape == (math.ceil(height / 2), math.ceil(width / 2))


# small enough for every metric below: CW-SSIM needs 32 pixels a side,
# two-scale MS-SSIM 22, two-channel VIF 18
SIDES = st.integers(32, 56)
PARAMS = {
    "msssim": MsSsimParams(scales=2, weights=(0.5, 0.5)),
    "cwssim": CwSsimParams(pyramid=PyramidParams(levels=2, orientations=4)),
    "vif": VifParams(scales=2),
}


@st.composite
def image_pairs(draw):
    """A uniform-noise image and a copy with Gaussian noise of a drawn
    strength added, clipped to [0, 255]."""
    shape = (draw(SIDES), draw(SIDES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.uniform(0.0, 255.0, shape)
    sigma = draw(st.floats(0.0, 120.0))
    y = np.clip(x + rng.normal(0.0, sigma, shape), 0.0, 255.0)
    return GrayImage(x), GrayImage(y)


def score(name, ref, test):
    return prepare(name, ref, PARAMS.get(name))(test).value


@given(image_pairs())
def test_identity(pair):
    x, _ = pair
    for name, entry in METRICS.items():
        if name == "vif":
            # its gain sxy / (sxx + eps) falls short of 1 by about eps / sxx
            assert abs(score(name, x, x) - entry.identity) <= 1e-9
        else:
            assert score(name, x, x) == entry.identity


@given(image_pairs())
def test_every_metric_lies_in_its_value_range(pair):
    x, y = pair
    for name, entry in METRICS.items():
        low, high = entry.value_range
        assert low <= score(name, x, y) <= high


@given(image_pairs())
def test_symmetric_metrics(pair):
    x, y = pair
    for name in ("mse", "psnr", "ssim", "cwssim"):
        forward, backward = score(name, x, y), score(name, y, x)
        assert forward == backward or abs(forward - backward) <= 1e-9


def energy_error(pixels, params):
    energy = float(np.sum(pixels ** 2))
    got = band_energy(decompose(GrayImage(pixels), params))
    return abs(got - energy) / energy


@given(levels=st.integers(1, 3), orientations=st.integers(1, 6),
       extra=st.tuples(st.integers(0, 40), st.integers(0, 40)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_band_energy_matches_pixel_energy(levels, orientations, extra, seed):
    params = PyramidParams(levels=levels, orientations=orientations)
    side = min_dimension(params)
    shape = (side + extra[0], side + extra[1])
    pixels = np.random.default_rng(seed).uniform(0.0, 255.0, shape)
    assert energy_error(pixels, params) <= 1e-12


def test_single_orientation_keeps_energy_of_horizontal_stripes():
    # all of a horizontal-stripe image's bandpass energy lies on the vertical
    # frequency axis, the edge of the one orientation's half-plane
    rows = np.random.default_rng(0).uniform(0.0, 255.0, (32, 1))
    pixels = np.repeat(rows, 32, axis=1)
    for levels in (1, 2):
        params = PyramidParams(levels=levels, orientations=1)
        assert energy_error(pixels, params) <= 1e-12


# Reset-gate properties run on small frames with SSIM as the reset metric, so
# that each drawn example costs milliseconds.
PHANTOM = PhantomSpec(width=64, height=64, landmarks=(
    Disc(Landmark(32.0, 32.0), radius=6.0, intensity=200.0),))
RESET_ROI = Roi(Landmark(32.0, 32.0), 16, 16)
TRACKER_NAMES = st.sampled_from(sorted(TRACKERS))


@st.composite
def gated_sequences(draw):
    """A short speckled sequence of one disc swinging along x, whose
    reference frame has at least one frame after it, and one injected
    jump."""
    n_frames = draw(st.integers(3, 8))
    seed = draw(st.integers(0, 2 ** 16))
    motion = MotionSpec(amplitude=draw(st.floats(0.0, 4.0)),
                        period=draw(st.floats(4.0, 12.0)), n_frames=n_frames)
    seq = periodic_sequence(PHANTOM, motion, seed=seed, speckle=SpeckleSpec(
        alpha=draw(st.floats(0.0, 0.3)), seed=seed))
    seq = dataclasses.replace(
        seq, reference_frame=draw(st.integers(0, n_frames - 2)))
    hit = {draw(st.integers(1, n_frames - 1)): (draw(st.floats(-6.0, 6.0)),
                                                0.0)}
    return seq, hit


@given(gated_sequences(), TRACKER_NAMES)
def test_unreachable_threshold_gives_the_bare_tracker(drawn, tracker):
    seq, hit = drawn
    # SSIM is at most 1, and resets fire only strictly above the threshold
    reset = ResetConfig(RESET_ROI, metric="ssim", threshold=1.0)
    wrapped = track(tracker, seq, reset=reset, disturbances=hit)
    bare = track(tracker, seq, disturbances=hit)
    assert wrapped.reset_events == ()
    assert wrapped.reset_threshold == 1.0
    assert len(wrapped.similarity_trace) == len(seq)
    assert dataclasses.replace(wrapped, similarity_trace=None,
                               reset_threshold=None) == bare


@given(gated_sequences(), TRACKER_NAMES, st.data())
def test_calibrated_threshold_is_max_minus_std_of_the_window(drawn, tracker,
                                                             data):
    seq, hit = drawn
    ref = seq.reference_frame
    frames = data.draw(st.integers(1, len(seq) - 1 - ref))
    reset = ResetConfig(RESET_ROI, metric="ssim", calibration_frames=frames)
    score = prepare("ssim", crop(seq.frames[ref], RESET_ROI))
    window = [score(crop(frame, RESET_ROI)).value
              for frame in seq.frames[ref + 1:ref + frames + 1]]
    want = max(window) - np.std(window)
    if not 0.0 < want <= 1.0:
        with pytest.raises(InvalidParamsError):
            track(tracker, seq, reset=reset, disturbances=hit)
        return
    res = track(tracker, seq, reset=reset, disturbances=hit)
    assert res.reset_threshold == want
    assert res.similarity_trace[ref + 1:ref + frames + 1] == tuple(window)
    assert res.reset_events == tuple(
        t for t, v in enumerate(res.similarity_trace) if v > want)


@given(gated_sequences(), st.none() | st.floats(0.5, 1.0), st.data())
def test_study_arms_equal_track(drawn, threshold, data):
    seq, hit = drawn
    ref = seq.reference_frame
    frames = (data.draw(st.integers(1, len(seq) - 1 - ref))
              if threshold is None else 0)
    reset = ResetConfig(RESET_ROI, metric="ssim", threshold=threshold,
                        calibration_frames=frames)
    study = run_tracking_study(seq, sorted(TRACKERS), reset,
                               disturbances=hit)
    for cmp in study:
        assert cmp.bare.result == track(cmp.tracker, seq, disturbances=hit)
        assert cmp.reset.result == track(
            cmp.tracker, seq, reset=reset, disturbances=hit)


# ---------------------------------------------------------------------------
# Integer and real fields of the params and config types


def gated_reset(**fields):
    """A fixed-threshold ResetConfig on RESET_ROI; ``fields`` override."""
    return ResetConfig(RESET_ROI, **{"threshold": 0.5, **fields})


def sized_phantom(**fields):
    """A 32 x 32 PhantomSpec; ``fields`` override."""
    return PhantomSpec(**{"width": 32, "height": 32, **fields})


def blended_speckle(**fields):
    """A SpeckleSpec at alpha 0.5; ``fields`` override."""
    return SpeckleSpec(**{"alpha": 0.5, **fields})


def swinging_motion(**fields):
    """A three-frame MotionSpec; ``fields`` override."""
    return MotionSpec(**{"amplitude": 2.0, "period": 8.0, "n_frames": 3,
                         **fields})


def square_roi(**fields):
    """A 5 x 5 Roi at the origin; ``fields`` override."""
    return Roi(**{"center": Landmark(0.0, 0.0), "half_width": 2,
                  "half_height": 2, **fields})


def point(**fields):
    """A Landmark at (1, 2); ``fields`` override."""
    return Landmark(**{"x": 1.0, "y": 2.0, **fields})


def small_disc(**fields):
    """A radius-3 Disc at (5, 5); ``fields`` override."""
    return Disc(**{"center": Landmark(5.0, 5.0), "radius": 3.0, **fields})


def one_frame_sequence(**fields):
    """A one-frame FrameSequence; ``fields`` override."""
    return FrameSequence(**{"frames": (GrayImage(np.zeros((2, 2))),),
                            **fields})


INTEGER_FIELDS = [
    (SsimParams, "window_size"), (MsSsimParams, "scales"),
    (CwSsimParams, "window_size"), (VifParams, "scales"),
    (VifParams, "block_size"), (PyramidParams, "levels"),
    (PyramidParams, "orientations"), (NccConfig, "roi_half"),
    (NccConfig, "search_half"), (MeanShiftConfig, "roi_half"),
    (MeanShiftConfig, "bins"), (MeanShiftConfig, "max_iters"),
    (gated_reset, "calibration_frames"), (sized_phantom, "width"),
    (sized_phantom, "height"), (blended_speckle, "seed"),
    (swinging_motion, "n_frames"), (square_roi, "half_width"),
    (square_roi, "half_height"),
]

REAL_FIELDS = [
    *((SsimParams, name) for name in ("k1", "k2", "dynamic_range",
                                      "window_sigma", "alpha", "beta",
                                      "gamma")),
    (CwSsimParams, "k_stab"), (VifParams, "sigma_n2"),
    (MeanShiftConfig, "epsilon"), (gated_reset, "threshold"),
    (sized_phantom, "background_mean"),
    (sized_phantom, "background_texture_sigma"), (blended_speckle, "alpha"),
    (swinging_motion, "amplitude"), (swinging_motion, "period"),
    (swinging_motion, "phase"), (point, "x"), (point, "y"),
    (small_disc, "radius"), (small_disc, "intensity"),
    (one_frame_sequence, "pixel_spacing_mm"),
]

# a sequence's fields raise the manifest's error kind, every other field
# InvalidParamsError
FIELD_ERRORS = {one_frame_sequence: ManifestError}


@pytest.mark.parametrize("cls, name", INTEGER_FIELDS)
@given(value=st.one_of(st.floats(), st.booleans(), st.text(max_size=3)))
@example(value=7.5)
@example(value=2.0)
def test_integer_fields_reject_every_non_integer(cls, name, value):
    with pytest.raises(InvalidParamsError):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name", INTEGER_FIELDS)
@pytest.mark.parametrize("int_type", [int, np.int32, np.int64, np.uint8])
def test_integer_fields_accept_python_and_numpy_integers(cls, name, int_type):
    default = getattr(cls(), name)
    assert getattr(cls(**{name: int_type(default)}), name) == default


@pytest.mark.parametrize("cls, name", REAL_FIELDS)
@given(value=st.one_of(st.booleans(), st.text(max_size=3), st.binary(max_size=2),
                       st.complex_numbers(), st.lists(FINITE, max_size=1)))
@example(value=np.True_)
@example(value="0.5")
@example(value=complex(0.5, 0.0))
def test_real_fields_reject_every_non_real(cls, name, value):
    with pytest.raises(FIELD_ERRORS.get(cls, InvalidParamsError)):
        cls(**{name: value})


@pytest.mark.parametrize("cls, name", REAL_FIELDS)
@pytest.mark.parametrize("real_type", [float, np.float32, np.float64])
def test_real_fields_accept_python_and_numpy_floats(cls, name, real_type):
    value = real_type(getattr(cls(), name))
    assert getattr(cls(**{name: value}), name) == value


@pytest.mark.parametrize("build", [
    lambda item: MsSsimParams(scales=1, weights=(item,)),
    lambda item: MeanShiftConfig(scale_steps=(1.0, item)),
    lambda item: Roi(item, 2, 2),
    lambda item: psnr(GrayImage(np.zeros((2, 2))), GrayImage(np.ones((2, 2))),
                      peakval=item),
], ids=["msssim-weights", "meanshift-scale-steps", "roi-center",
        "psnr-peakval"])
@given(item=st.one_of(st.booleans(), st.text(max_size=3), st.binary(max_size=2),
                      st.complex_numbers(), st.tuples(FINITE, FINITE)))
@example(item=np.True_)
@example(item="1")
@example(item=(1.0, 2.0))
def test_items_and_arguments_reject_every_non_real(build, item):
    # each raised a bare TypeError, or took the value as a number
    with pytest.raises(InvalidParamsError):
        build(item)


@pytest.mark.parametrize("build", [
    lambda value: MsSsimParams(scales=1, weights=value),
    lambda value: MeanShiftConfig(scale_steps=value),
], ids=["msssim-weights", "meanshift-scale-steps"])
@pytest.mark.parametrize("value", [1.0, None, "1"])
def test_real_tuples_reject_every_non_tuple(build, value):
    with pytest.raises(InvalidParamsError):
        build(value)


# ---------------------------------------------------------------------------
# NCC tracking


@given(seed=SEEDS, cx=st.integers(16, 31), cy=st.integers(16, 31),
       dx=st.integers(-10, 10), dy=st.integers(-10, 10))
def test_ncc_recovers_integer_shifts_exactly(seed, cx, cy, dx, dy):
    # both frames are windows of one larger texture, so the template's
    # pixels reappear unchanged (dx, dy) away, with no wrapped edge
    texture = np.random.default_rng(seed).uniform(0.0, 255.0, (68, 68))
    frames = (GrayImage(texture[10:58, 10:58]),
              GrayImage(texture[10 - dy:58 - dy, 10 - dx:58 - dx]))
    res = track("ncc", FrameSequence(frames), init=(Landmark(cx, cy),),
                cfg=NccConfig(roi_half=6, search_half=10))
    assert res.estimates[1] == (Landmark(cx + dx, cy + dy),)


# ---------------------------------------------------------------------------
# Number format


@given(FINITE)
def test_format_number_round_trips_at_nine_significant_digits(value):
    text = format_number(value)
    parsed = float(text)
    assert format_number(parsed) == text
    assert abs(parsed - value) <= 5e-9 * abs(value)
