"""Synthetic-data tests: phantom geometry, speckle statistics, sequences."""

import dataclasses
import hashlib
import math
import os
import tracemalloc
from collections.abc import Sequence

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from usiq import cli, errors, synth
from usiq.image import (
    FrameSequence,
    GrayImage,
    Landmark,
    load_sequence,
    write_sequence,
)
from usiq.metrics import (
    CwSsimParams,
    MsSsimParams,
    cw_ssim,
    mse,
    ms_ssim,
    ssim,
)
from usiq.pyramid import PyramidParams
from usiq.synth import (
    Disc,
    MotionSpec,
    PhantomSpec,
    SpeckleSpec,
    apply_speckle,
    benchmark_motion_spec,
    benchmark_phantom_spec,
    displacement,
    make_phantom,
    periodic_sequence,
)

from builders import held, peak_traced_bytes


def quiet_spec(width=48, height=48, discs=()):
    return PhantomSpec(width=width, height=height, background_mean=80.0,
                       background_texture_sigma=0.0, landmarks=discs)


# ---------------------------------------------------------------------------
# Spec validation


def test_spec_validation():
    with pytest.raises(errors.InvalidParamsError):
        Disc(center=Landmark(10, 10), radius=0.0)
    with pytest.raises(errors.InvalidParamsError):
        Disc(center=Landmark(10, 10), radius=3.0, intensity=300.0)
    with pytest.raises(errors.InvalidParamsError):
        PhantomSpec(width=0, height=32)
    with pytest.raises(errors.InvalidParamsError):
        PhantomSpec(width=32, height=32, background_texture_sigma=-1.0)
    with pytest.raises(errors.InvalidParamsError):
        SpeckleSpec(alpha=1.5, seed=0)
    with pytest.raises(errors.InvalidParamsError):
        MotionSpec(amplitude=-1.0, period=30, n_frames=10)
    with pytest.raises(errors.InvalidParamsError):
        MotionSpec(amplitude=4.0, period=1, n_frames=10)
    with pytest.raises(errors.InvalidParamsError):
        MotionSpec(amplitude=4.0, period=30, n_frames=0)
    with pytest.raises(errors.InvalidParamsError):
        MotionSpec(amplitude=4.0, period=30, n_frames=10, axis="z")
    # a non-finite real would render a flat or saturated background or NaN
    # tracks
    for sigma in (math.nan, math.inf):
        with pytest.raises(errors.InvalidParamsError):
            PhantomSpec(width=32, height=32, background_texture_sigma=sigma)
    with pytest.raises(errors.InvalidParamsError):
        MotionSpec(amplitude=4.0, period=math.inf, n_frames=10)
    with pytest.raises(errors.InvalidParamsError):
        MotionSpec(amplitude=4.0, period=30, n_frames=10, phase=math.nan)


# ---------------------------------------------------------------------------
# Phantom rendering


def test_flat_phantom_is_constant():
    img = make_phantom(quiet_spec(), seed=0)
    assert img.shape == (48, 48)
    assert np.all(img.pixels == 80.0)


def test_disc_geometry_center_and_far_pixel():
    spec = quiet_spec(discs=(Disc(Landmark(24, 24), radius=5.0),))
    img = make_phantom(spec, seed=0)
    assert img.pixels[24, 24] == 200.0
    assert img.pixels[24, 34] == 80.0  # 10 px away, outside support
    assert img.pixels[14, 24] == 80.0


def test_disc_antialiased_edge_values():
    spec = quiet_spec(discs=(Disc(Landmark(24, 24), radius=3.0),))
    img = make_phantom(spec, seed=0)
    assert img.pixels[24, 26] == 200.0          # d = 2, full coverage
    assert img.pixels[24, 27] == pytest.approx(140.0, abs=1e-12)  # d = 3
    assert img.pixels[24, 28] == 80.0           # d = 4, no coverage
    d = math.hypot(2.0, 2.0)
    cov = 3.5 - d
    want = 80.0 * (1.0 - cov) + 200.0 * cov
    assert img.pixels[22, 26] == pytest.approx(want, rel=1e-12)


def test_phantom_texture_statistics():
    spec = PhantomSpec(width=256, height=256, background_mean=80.0,
                       background_texture_sigma=10.0)
    img = make_phantom(spec, seed=7)
    assert float(img.pixels.mean()) == pytest.approx(80.0, abs=0.2)
    assert float(img.pixels.std()) == pytest.approx(10.0, abs=0.2)


def test_phantom_determinism():
    spec = PhantomSpec(width=64, height=64,
                       landmarks=(Disc(Landmark(30, 30), radius=6.0),))
    a = make_phantom(spec, seed=5)
    b = make_phantom(spec, seed=5)
    c = make_phantom(spec, seed=6)
    assert np.array_equal(a.pixels, b.pixels)
    assert not np.array_equal(a.pixels, c.pixels)


def test_disc_outside_frame_rejected():
    spec = quiet_spec(discs=(Disc(Landmark(3, 24), radius=5.0),))
    with pytest.raises(errors.OutOfFrameError) as exc:
        make_phantom(spec, seed=0)
    assert exc.value.kind == "out-of-frame"


@pytest.mark.parametrize("sigma", [10.0, 0.0], ids=["textured", "flat"])
@pytest.mark.parametrize("seed", [1.5, True, -1, "3"])
def test_phantom_seed_is_a_non_negative_integer(seed, sigma):
    # a float or string seed once raised a bare TypeError and -1 a
    # ValueError, while True, or any seed of a flat background, was taken
    spec = PhantomSpec(width=16, height=16, background_texture_sigma=sigma)
    with pytest.raises(errors.InvalidParamsError):
        make_phantom(spec, seed=seed)
    with pytest.raises(errors.InvalidParamsError):
        periodic_sequence(spec, MotionSpec(amplitude=0.0, period=30,
                                           n_frames=2), seed=seed)


@pytest.mark.parametrize("radius,center", [(4.0, (20.3, 17.6)),
                                           (5.0, (23.5, 24.25)),
                                           (9.0, (24.0, 21.7))])
def test_rendered_centroid_matches_ground_truth(radius, center):
    spec = quiet_spec(discs=(Disc(Landmark(*center), radius=radius),))
    img = make_phantom(spec, seed=0)
    weights = img.pixels - 80.0
    total = weights.sum()
    yy, xx = np.mgrid[0:48, 0:48]
    cx = float((weights * xx).sum() / total)
    cy = float((weights * yy).sum() / total)
    assert abs(cx - center[0]) < 0.25
    assert abs(cy - center[1]) < 0.25


# ---------------------------------------------------------------------------
# Speckle


def test_speckle_alpha_zero_is_bitwise_identity():
    img = make_phantom(PhantomSpec(width=64, height=64), seed=1)
    out = apply_speckle(img, SpeckleSpec(alpha=0.0, seed=9))
    assert np.array_equal(out.pixels, img.pixels)


def test_speckle_multiplier_has_unit_mean():
    img = GrayImage(np.full((256, 256), 100.0))
    out = apply_speckle(img, SpeckleSpec(alpha=1.0, seed=2))
    assert float(out.pixels.mean()) == pytest.approx(100.0, rel=0.02)


def test_speckle_severity_ordered_for_shared_seed():
    img = make_phantom(PhantomSpec(width=128, height=128), seed=3)
    mild = apply_speckle(img, SpeckleSpec(alpha=0.5, seed=4))
    harsh = apply_speckle(img, SpeckleSpec(alpha=0.9, seed=4))
    assert mse(img, harsh).value > mse(img, mild).value


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_speckle_mse_strictly_increasing_in_alpha(seed):
    img = make_phantom(PhantomSpec(width=128, height=128), seed=10)
    errs = [mse(img, apply_speckle(img, SpeckleSpec(alpha=a, seed=seed))).value
            for a in np.arange(0.1, 0.95, 0.1)]
    assert all(b > a for a, b in zip(errs, errs[1:]))


def test_speckle_determinism():
    img = make_phantom(PhantomSpec(width=64, height=64), seed=0)
    spec = SpeckleSpec(alpha=0.7, seed=11)
    assert np.array_equal(apply_speckle(img, spec).pixels,
                          apply_speckle(img, spec).pixels)


def speckle_expression(image, spec):
    """Oracle: the speckle step as one expression with fresh temporaries."""
    rng = np.random.default_rng(spec.seed)
    # a unit-scale draw over its mean, sqrt(pi / 2)
    raw = rng.rayleigh(scale=1.0, size=image.pixels.shape)
    unit = raw / math.sqrt(math.pi / 2.0)
    mult = (1.0 - spec.alpha) + spec.alpha * unit
    return GrayImage(np.clip(image.pixels * mult, 0.0, 255.0))


@pytest.mark.parametrize("alpha", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("shape", [(1, 1), (7, 13), (31, 5)])
def test_speckle_equals_the_expression_oracle(alpha, shape):
    # a bright texture, so alpha 1 clips some pixels at 255
    pixels = np.random.default_rng(5).uniform(0.0, 250.0, shape)
    image = GrayImage(pixels)
    kept = image.pixels.copy()
    spec = SpeckleSpec(alpha=alpha, seed=3)
    got = apply_speckle(image, spec)
    assert np.array_equal(got.pixels, speckle_expression(image, spec).pixels)
    assert np.array_equal(image.pixels, kept)


# ---------------------------------------------------------------------------
# Cross-module: metric means degrade monotonically with speckle level


def test_metric_means_monotone_in_speckle_level():
    discs = (Disc(Landmark(40, 44), 12.0), Disc(Landmark(80, 70), 14.0),
             Disc(Landmark(60, 100), 9.0))
    img = make_phantom(PhantomSpec(width=128, height=128, landmarks=discs),
                       seed=3)
    ms_p = MsSsimParams(scales=3, weights=(0.0448, 0.2856, 0.3001))
    cw_p = CwSsimParams(pyramid=PyramidParams(levels=3, orientations=6))
    means = {"mse": [], "ssim": [], "msssim": [], "cwssim": []}
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9):
        rows = {k: [] for k in means}
        for seed in range(10):
            noisy = apply_speckle(img, SpeckleSpec(alpha=alpha,
                                                   seed=100 + seed))
            rows["mse"].append(mse(img, noisy).value)
            rows["ssim"].append(ssim(img, noisy).value)
            rows["msssim"].append(ms_ssim(img, noisy, ms_p).value)
            rows["cwssim"].append(cw_ssim(img, noisy, cw_p).value)
        for k in means:
            means[k].append(float(np.mean(rows[k])))
    assert all(b > a for a, b in zip(means["mse"], means["mse"][1:]))
    for k in ("ssim", "msssim", "cwssim"):
        assert all(b < a for a, b in zip(means[k], means[k][1:])), k


# ---------------------------------------------------------------------------
# Periodic sequences


def small_motion(**kw):
    args = dict(amplitude=6.0, period=30.0, n_frames=40, phase=math.pi / 2)
    args.update(kw)
    return MotionSpec(**args)


def small_phantom():
    return PhantomSpec(width=96, height=96, background_texture_sigma=10.0,
                       landmarks=(Disc(Landmark(40, 48), radius=8.0),))


def test_zero_amplitude_frames_identical():
    seq = periodic_sequence(small_phantom(), small_motion(amplitude=0.0),
                            speckle=None, seed=5)
    base = seq.frames[0].pixels
    for frame in seq.frames[1:]:
        assert np.array_equal(frame.pixels, base)


def test_period_returns_to_reference_pose():
    seq = periodic_sequence(small_phantom(), small_motion(n_frames=31),
                            speckle=None, seed=5)
    start = seq.landmarks[0][0]
    loop = seq.landmarks[30][0]
    assert loop.x == pytest.approx(start.x, abs=1e-12)
    assert loop.y == pytest.approx(start.y, abs=1e-12)


def test_ground_truth_follows_sine_law():
    motion = small_motion()
    seq = periodic_sequence(small_phantom(), motion, speckle=None, seed=5)
    assert len(seq.landmarks) == motion.n_frames
    for t in (0, 7, 19, 33):
        want_x = 40.0 + displacement(motion, t)
        assert seq.landmarks[t][0].x == pytest.approx(want_x, abs=1e-12)
        assert seq.landmarks[t][0].y == 48.0


def test_motion_envelope_out_of_frame():
    tight = PhantomSpec(width=96, height=96,
                        landmarks=(Disc(Landmark(12, 48), radius=8.0),))
    with pytest.raises(errors.OutOfFrameError):
        periodic_sequence(tight, small_motion(), speckle=None, seed=0)
    # same spec is fine when moving along y
    periodic_sequence(tight, small_motion(axis="y", n_frames=3),
                      speckle=None, seed=0)


def test_vertical_axis_moves_y():
    seq = periodic_sequence(small_phantom(), small_motion(axis="y",
                                                          n_frames=8),
                            speckle=None, seed=5)
    assert seq.landmarks[3][0].x == 40.0
    assert seq.landmarks[3][0].y != 48.0


def test_per_frame_speckle_seeding_contract():
    """Frame t must equal speckle(phantom_t, seed + t) bit for bit."""
    phantom = small_phantom()
    motion = small_motion(n_frames=5)
    speckle = SpeckleSpec(alpha=0.6, seed=40)
    seq = periodic_sequence(phantom, motion, speckle=speckle, seed=8)
    t = 3
    moved = PhantomSpec(
        width=phantom.width, height=phantom.height,
        background_mean=phantom.background_mean,
        background_texture_sigma=phantom.background_texture_sigma,
        landmarks=tuple(
            Disc(Landmark(d.center.x + displacement(motion, t), d.center.y),
                 d.radius, d.intensity)
            for d in phantom.landmarks))
    want = apply_speckle(make_phantom(moved, seed=8),
                         SpeckleSpec(alpha=0.6, seed=40 + t))
    assert np.array_equal(seq.frames[t].pixels, want.pixels)


@pytest.mark.parametrize("phantom,axis", [
    (benchmark_phantom_spec(decoy=True), "x"),
    # overlapping discs: the compositing order shows in the shared pixels
    (quiet_spec(width=96, height=96,
                discs=(Disc(Landmark(30, 40), radius=6.0, intensity=210.0),
                       Disc(Landmark(36, 44), radius=4.5, intensity=20.0))),
     "y"),
])
def test_every_frame_equals_make_phantom_of_the_moved_spec(phantom, axis):
    """The background is drawn once, yet every frame is bit-identical to a
    fresh ``make_phantom`` of that frame's moved discs."""
    motion = MotionSpec(amplitude=8.0, period=30.0, n_frames=30,
                        phase=math.pi / 2, axis=axis)
    seq = periodic_sequence(phantom, motion, speckle=None, seed=11)
    assert len(seq.frames) == 30
    for t, frame in enumerate(seq.frames):
        d = displacement(motion, t)
        dx, dy = (d, 0.0) if axis == "x" else (0.0, d)
        moved = PhantomSpec(
            width=phantom.width, height=phantom.height,
            background_mean=phantom.background_mean,
            background_texture_sigma=phantom.background_texture_sigma,
            landmarks=tuple(
                Disc(Landmark(c.center.x + dx, c.center.y + dy), c.radius,
                     c.intensity)
                for c in phantom.landmarks))
        assert np.array_equal(frame.pixels,
                              make_phantom(moved, seed=11).pixels)


def full_frame_draw_discs(background, discs):
    """Oracle: the compositor that blends every disc over the whole frame."""
    height, width = background.shape
    yy = np.arange(height, dtype=np.float64)[:, None]
    xx = np.arange(width, dtype=np.float64)[None, :]
    img = background
    for disc in discs:
        dist = np.hypot(yy - disc.center.y, xx - disc.center.x)
        cov = np.clip(disc.radius + 0.5 - dist, 0.0, 1.0)
        img = img * (1.0 - cov) + disc.intensity * cov
    return img


def quarters(lo, hi):
    """Multiples of 0.25, where centre +- (radius + 0.5) often lands on a
    pixel exactly, mixed with arbitrary floats."""
    return (st.integers(4 * lo, 4 * hi).map(lambda k: k / 4.0)
            | st.floats(lo, hi))


@st.composite
def overlapping_discs(draw, width=24, height=20):
    """One to three discs near each other, some of whose boxes touch or
    cross the frame edge."""
    x0, y0 = draw(quarters(-4, width + 3)), draw(quarters(-4, height + 3))
    discs = []
    for _ in range(draw(st.integers(1, 3))):
        center = Landmark(x0 + draw(quarters(-6, 6)), y0 + draw(quarters(-6, 6)))
        discs.append(Disc(center, radius=draw(quarters(0.5, 12)),
                          intensity=draw(st.floats(0.0, 255.0))))
    return tuple(discs)


@given(discs=overlapping_discs(), seed=st.integers(0, 2 ** 32 - 1))
def test_bounding_box_compositing_equals_the_full_frame_oracle(discs, seed):
    background = np.random.default_rng(seed).uniform(0.0, 255.0, (20, 24))
    kept = background.copy()
    got = synth._draw_discs(background, discs)
    assert np.array_equal(got, full_frame_draw_discs(background, discs))
    assert np.array_equal(background, kept)


def per_step_periodic_sequence(phantom, motion, speckle, seed):
    """Oracle: one full-frame composite, then one speckle expression, each
    wrapped as an image, per frame."""
    background = synth._background(phantom, seed)
    frames, tracks = [], []
    for t in range(motion.n_frames):
        d = displacement(motion, t)
        dx, dy = (d, 0.0) if motion.axis == "x" else (0.0, d)
        discs = tuple(Disc(Landmark(c.center.x + dx, c.center.y + dy),
                           c.radius, c.intensity) for c in phantom.landmarks)
        frame = GrayImage(full_frame_draw_discs(background, discs))
        if speckle is not None:
            frame = speckle_expression(frame, SpeckleSpec(
                alpha=speckle.alpha, seed=speckle.seed + t))
        frames.append(frame)
        tracks.append(tuple(disc.center for disc in discs))
    return frames, tracks


@pytest.mark.parametrize("speckle", [None, SpeckleSpec(alpha=0.0, seed=2),
                                     SpeckleSpec(alpha=0.45, seed=6),
                                     SpeckleSpec(alpha=1.0, seed=1)])
@pytest.mark.parametrize("axis", ["x", "y"])
def test_periodic_sequence_equals_the_per_step_oracle(speckle, axis):
    # overlapping discs on an odd-sized textured frame
    phantom = PhantomSpec(width=61, height=47, background_texture_sigma=12.0,
                          landmarks=(Disc(Landmark(24.0, 22.5), 6.0, 250.0),
                                     Disc(Landmark(30.5, 25.0), 4.25, 20.0)))
    motion = MotionSpec(amplitude=5.5, period=7.0, n_frames=9, phase=0.3,
                        axis=axis)
    seq = periodic_sequence(phantom, motion, speckle=speckle, seed=13)
    frames, tracks = per_step_periodic_sequence(phantom, motion, speckle, 13)
    assert len(seq.frames) == len(frames)
    for got, want in zip(seq.frames, frames):
        assert np.array_equal(got.pixels, want.pixels)
    assert seq.landmarks == tuple(tracks)


def test_sequence_determinism_and_speckle_decorrelation():
    args = (small_phantom(), small_motion(amplitude=0.0, n_frames=4))
    one = periodic_sequence(*args, speckle=SpeckleSpec(alpha=0.5, seed=1),
                            seed=2)
    two = periodic_sequence(*args, speckle=SpeckleSpec(alpha=0.5, seed=1),
                            seed=2)
    for f1, f2 in zip(one.frames, two.frames):
        assert np.array_equal(f1.pixels, f2.pixels)
    # static pose, yet frames differ: per-frame speckle is re-seeded
    assert not np.array_equal(one.frames[0].pixels,
                              one.frames[1].pixels)


def test_similarity_trace_peaks_where_pose_recurs():
    motion = MotionSpec(amplitude=8.0, period=30.0, n_frames=65,
                        phase=math.pi / 2)
    phantom = PhantomSpec(width=128, height=128,
                          landmarks=(Disc(Landmark(50, 64), radius=8.0),))
    seq = periodic_sequence(phantom, motion, speckle=None, seed=6)
    ref = seq.frames[0]
    params = CwSsimParams(pyramid=PyramidParams(levels=3, orientations=6))
    probe = {t: cw_ssim(ref, seq.frames[t], params).value
             for t in (15, 26, 28, 30, 32, 34, 45, 56, 58, 60, 62, 64)}
    for peak, flank in ((30, (26, 28, 32, 34)), (60, (56, 58, 62, 64))):
        for t in flank:
            assert probe[peak] > probe[t]
    assert probe[15] < probe[28]
    assert probe[45] < probe[58]


# ---------------------------------------------------------------------------
# Benchmark builders and disk round-trip


def test_benchmark_specs():
    plain = benchmark_phantom_spec()
    assert (plain.width, plain.height) == (256, 256)
    assert len(plain.landmarks) == 1
    decoy = benchmark_phantom_spec(decoy=True)
    assert len(decoy.landmarks) == 2
    assert decoy.landmarks[0].center.x + 100.0 == decoy.landmarks[1].center.x
    motion = benchmark_motion_spec()
    assert motion.amplitude == 8.0
    assert motion.period == 30.0
    assert motion.n_frames == 90
    # commanded swing stays inside the frame for every disc
    periodic_sequence(decoy, benchmark_motion_spec(n_frames=1),
                      speckle=None, seed=0)


def test_write_sequence_round_trip(tmp_path):
    seq = periodic_sequence(small_phantom(), small_motion(n_frames=6),
                            speckle=SpeckleSpec(alpha=0.4, seed=3), seed=4)
    manifest_path = write_sequence(seq, tmp_path, stem="toy")
    loaded = load_sequence(manifest_path)
    assert len(loaded.frames) == 6
    assert loaded.reference_frame == 0
    assert loaded.landmarks is not None
    for got, want in zip(loaded.landmarks, seq.landmarks):
        assert got[0].x == want[0].x and got[0].y == want[0].y
    for disk, mem in zip(loaded.frames, seq.frames):
        assert disk.shape == mem.shape
        assert float(np.abs(disk.pixels - np.floor(mem.pixels + 0.5)).max()) \
            == 0.0


def test_periodic_sequence_type():
    seq = periodic_sequence(small_phantom(), small_motion(n_frames=2),
                            speckle=None, seed=0)
    assert isinstance(seq, FrameSequence)
    assert len(seq.frames) == 2
    assert len(seq.landmarks[0]) == 1
    assert (seq.reference_frame, seq.pixel_spacing_mm) == (0, 1.0)


def test_periodic_sequence_takes_no_pixel_spacing():
    # the spacing is the sequence's own: dataclasses.replace sets another
    with pytest.raises(TypeError):
        periodic_sequence(small_phantom(), small_motion(n_frames=2),
                          pixel_spacing_mm=0.5)


# ---------------------------------------------------------------------------
# Streaming a sequence to disk


def sequence_digest(seq):
    """SHA-256 of every frame's float64 bytes, then every landmark's
    ``float.hex`` coordinates."""
    h = hashlib.sha256()
    for frame in seq.frames:
        h.update(frame.pixels.tobytes())
    for per_frame in seq.landmarks:
        for lm in per_frame:
            h.update(f"{lm.x.hex()},{lm.y.hex()};".encode())
    return h.hexdigest()


# digests of the five-frame benchmark sequence at seed 7, taken from the
# renderer that built the whole sequence in one loop before frames streamed
PERIODIC_DIGESTS = {
    (0.0, False): "c968f81c6afdcc7280a83a108527938214be12b966fed338ed689a9eeaaa1eb7",
    (0.0, True): "ef66ba93ad55398384935cd82529f6892e612dadea5945497519d67fec01ab74",
    (0.45, False): "834b5532435ae5577c63ab26e6685271690f78905cbe17b2fd7e8d66c258b277",
    (0.45, True): "193d935c80d652bb7fef4d67664d4b8e99b9519d81f7473390f17de73c8c22bd",
}


def bench_args(alpha, decoy, n_frames=5, seed=7):
    """``(phantom, motion)`` and the keyword arguments the CLI passes for
    the benchmark sequence at ``alpha``."""
    speckle = SpeckleSpec(alpha=alpha, seed=seed) if alpha > 0 else None
    return ((benchmark_phantom_spec(decoy=decoy),
             benchmark_motion_spec(n_frames=n_frames)),
            dict(speckle=speckle, seed=seed))


@pytest.mark.parametrize("alpha, decoy", list(PERIODIC_DIGESTS))
def test_periodic_sequence_is_pinned(alpha, decoy):
    specs, kw = bench_args(alpha, decoy)
    seq = periodic_sequence(*specs, **kw)
    assert sequence_digest(seq) == PERIODIC_DIGESTS[alpha, decoy]


def directory_bytes(directory):
    return {name: (directory / name).read_bytes()
            for name in sorted(os.listdir(directory))}


@pytest.mark.parametrize("alpha", [0.0, 0.45])
@pytest.mark.parametrize("decoy", [False, True])
def test_streamed_directory_equals_write_sequence_of_periodic_sequence(
        tmp_path, alpha, decoy):
    specs, kw = bench_args(alpha, decoy)
    seq = periodic_sequence(*specs, **kw)
    want_dir, got_dir = tmp_path / "whole", tmp_path / "streamed"
    want = write_sequence(held(seq), want_dir, stem="run")
    got = write_sequence(seq, got_dir, stem="run")
    assert got == os.path.join(got_dir, "run_manifest.json")
    assert want == os.path.join(want_dir, "run_manifest.json")
    files = directory_bytes(got_dir)
    assert sorted(files) == [f"run_{t:04d}.pgm" for t in range(5)] + [
        "run_manifest.json"]
    assert files == directory_bytes(want_dir)


FLOAT_FRAME_BYTES = 256 * 256 * 8


def test_synth_sequence_holds_fewer_than_four_float_frames(tmp_path):
    argv = ["synth", "sequence", "--frames", "30", "--seed", "2"]
    assert cli.main([*argv, "--out-dir", str(tmp_path / "warm")]) == 0
    code, peak = peak_traced_bytes(
        lambda: cli.main([*argv, "--out-dir", str(tmp_path / "seq")]))
    assert code == 0
    # the whole sequence in memory was 30 float frames, about 16 MB
    assert peak < 4 * FLOAT_FRAME_BYTES
    assert len(os.listdir(tmp_path / "seq")) == 31


def test_periodic_sequence_holds_fewer_than_two_float_frames():
    specs, kw = bench_args(0.3, False, n_frames=30)
    periodic_sequence(*specs, **kw)
    tracemalloc.start()
    try:
        seq = periodic_sequence(*specs, **kw)
        traced = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(seq) == 30
    # the background; holding the rendered sequence was 30 float frames
    assert traced < 2 * FLOAT_FRAME_BYTES


def pixel_bytes(frames):
    return [frame.pixels.tobytes() for frame in frames]


def test_rendered_frames_read_like_the_held_frames():
    seq = periodic_sequence(small_phantom(), small_motion(n_frames=5),
                            speckle=SpeckleSpec(alpha=0.4, seed=3), seed=4)
    frames = seq.frames
    assert isinstance(frames, Sequence) and not isinstance(frames, tuple)
    want = pixel_bytes(tuple(frames))
    assert len(frames) == len(want) == 5
    # a second pass, single reads and negative reads render the same bits
    assert pixel_bytes(frames) == want
    assert pixel_bytes([frames[t] for t in range(5)]) == want
    assert pixel_bytes([frames[t - 5] for t in range(5)]) == want
    assert pixel_bytes([frames[-1]]) == want[-1:]
    assert pixel_bytes(frames[1:4]) == want[1:4]
    assert pixel_bytes(frames[::-2]) == want[::-2]
    assert frames[7:] == ()
    for index in (5, -6):
        with pytest.raises(IndexError):
            frames[index]
    moved = dataclasses.replace(seq, reference_frame=2)
    assert moved.frames is frames
    assert moved.reference_frame == 2


def out_of_frame_phantom():
    return PhantomSpec(width=48, height=48, landmarks=(
        Disc(Landmark(6.0, 24.0), radius=5.0),))


@pytest.mark.parametrize("call, kind", [
    # the disc fits the frame, but its 4 px swing does not
    (lambda out: write_sequence(periodic_sequence(
        out_of_frame_phantom(), small_motion(amplitude=4.0)), out),
     errors.OutOfFrameError),
    # JSON cannot hold a float32 disc coordinate
    (lambda out: write_sequence(periodic_sequence(
        PhantomSpec(width=48, height=48, landmarks=(
            Disc(Landmark(24.0, np.float32(20.0)), radius=5.0),)),
        small_motion()), out), errors.ManifestError),
    (lambda out: write_sequence(periodic_sequence(
        small_phantom(), small_motion()), out, stem="a/b"),
     errors.InvalidParamsError),
], ids=["out-of-frame", "center-float32", "stem-separator"])
def test_write_periodic_sequence_checks_everything_before_writing(
        tmp_path, call, kind):
    out = tmp_path / "seq"
    with pytest.raises(kind):
        call(out)
    assert not out.exists()
