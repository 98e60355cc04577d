"""Image-core tests: PGM I/O, crop, 2x decimation, sequences on disk."""

import json
import math
import os

import numpy as np
import pytest

from usiq import errors, image, metrics
from usiq.image import (
    _BINOMIAL5,
    FrameSequence,
    GrayImage,
    Landmark,
    Roi,
    _correlate_separable,
    _decimate2,
    _read_pgm,
    crop,
    load_pgm,
    load_sequence,
    round_half_away,
    save_pgm,
    write_sequence,
)
from usiq.metrics import MsSsimParams, SsimParams, prepare

from builders import peak_traced_bytes, write_pgm_sequence


# ---------------------------------------------------------------------------
# GrayImage invariants


def test_gray_image_rejects_bad_shapes():
    with pytest.raises(errors.InvalidImageError):
        GrayImage(np.zeros(4))
    with pytest.raises(errors.InvalidImageError):
        GrayImage(np.zeros((2, 2, 2)))
    with pytest.raises(errors.InvalidImageError):
        GrayImage(np.zeros((0, 3)))


def test_gray_image_rejects_non_finite():
    bad = np.ones((3, 3))
    bad[1, 1] = np.nan
    with pytest.raises(errors.InvalidImageError):
        GrayImage(bad)
    bad[1, 1] = np.inf
    with pytest.raises(errors.InvalidImageError):
        GrayImage(bad)


def test_gray_image_is_immutable():
    img = GrayImage(np.zeros((2, 2)))
    with pytest.raises(ValueError):
        img.pixels[0, 0] = 1.0


def test_round_half_away():
    assert round_half_away(2.5) == 3
    assert round_half_away(-2.5) == -3
    assert round_half_away(2.4) == 2
    assert round_half_away(2.6) == 3
    assert round_half_away(0.0) == 0


# ---------------------------------------------------------------------------
# PGM reader/writer


def test_load_p5_8bit_exact(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n2 2\n255\n" + bytes([0, 128, 255, 64]))
    img = load_pgm(path)
    assert img.shape == (2, 2)
    assert img.pixels.tolist() == [[0.0, 128.0], [255.0, 64.0]]


def test_load_p2_rescales_maxval(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_text("P2\n# comment line\n2 1\n100\n50 100\n")
    img = load_pgm(path)
    # 50 out of maxval 100 maps linearly onto the 255 scale
    assert img.pixels[0, 0] == pytest.approx(127.5, abs=0.0)
    assert img.pixels[0, 1] == 255.0


def test_load_p5_16bit_big_endian(tmp_path):
    path = tmp_path / "a.pgm"
    samples = np.array([0, 32768, 65535], dtype=">u2").tobytes()
    path.write_bytes(b"P5\n3 1\n65535\n" + samples)
    img = load_pgm(path)
    assert img.pixels[0, 0] == 0.0
    assert img.pixels[0, 2] == 255.0
    assert img.pixels[0, 1] == pytest.approx(32768 * 255.0 / 65535, abs=1e-12)


def test_load_pgm_header_comments_and_whitespace(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5 # magic\n# another\n  2\t1 # dims\n255\n" + bytes([7, 9]))
    img = load_pgm(path)
    assert img.pixels.tolist() == [[7.0, 9.0]]


def test_load_pgm_error_kinds_are_distinct(tmp_path):
    bad_magic = tmp_path / "m.pgm"
    bad_magic.write_bytes(b"P6\n1 1\n255\n\x00")
    with pytest.raises(errors.PgmFormatError) as fmt_err:
        load_pgm(bad_magic)

    bad_header = tmp_path / "h.pgm"
    bad_header.write_bytes(b"P5\n2 abc\n255\n\x00\x00")
    with pytest.raises(errors.PgmHeaderError) as hdr_err:
        load_pgm(bad_header)

    truncated = tmp_path / "t.pgm"
    truncated.write_bytes(b"P5\n2 2\n255\n\x00\x00")
    with pytest.raises(errors.PgmDataError) as dat_err:
        load_pgm(truncated)

    kinds = {fmt_err.value.kind, hdr_err.value.kind, dat_err.value.kind}
    assert kinds == {"unsupported-format", "malformed-header", "truncated-data"}


def test_load_pgm_rejects_oversized_maxval(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n1 1\n70000\n\x00\x00")
    with pytest.raises(errors.PgmHeaderError):
        load_pgm(path)


def test_load_pgm_rejects_samples_above_maxval(tmp_path):
    path = tmp_path / "a.pgm"
    over_16bit = np.array([50, 1001], dtype=">u2").tobytes()
    for data in (b"P2\n2 1\n100\n50 200\n",
                 b"P5\n2 1\n100\n" + bytes([50, 200]),
                 b"P5\n2 1\n1000\n" + over_16bit):
        path.write_bytes(data)
        with pytest.raises(errors.PgmDataError):
            load_pgm(path)


def test_save_pgm_rounds_half_away_and_clamps(tmp_path):
    img = GrayImage(np.array([[127.5, -3.0], [300.0, 254.4]]))
    path = tmp_path / "a.pgm"
    save_pgm(img, path)
    back = load_pgm(path)
    assert back.pixels.tolist() == [[128.0, 0.0], [255.0, 254.0]]


def test_pgm_round_trip_error_below_half(tmp_path):
    rng = np.random.default_rng(7)
    img = GrayImage(rng.uniform(0.0, 255.0, size=(23, 17)))
    path = tmp_path / "r.pgm"
    save_pgm(img, path)
    back = load_pgm(path)
    assert np.max(np.abs(back.pixels - img.pixels)) < 0.5


def old_pgm_scaling(samples, maxval):
    """Oracle: the scaling as one expression with fresh temporaries."""
    return samples.astype(np.float64) * 255.0 / maxval


@pytest.mark.parametrize("maxval", [255, 1000, 65535])
@pytest.mark.parametrize("magic", ["P5", "P2"])
def test_load_pgm_scaling_equals_the_expression_oracle(tmp_path, magic, maxval):
    rng = np.random.default_rng(maxval)
    samples = rng.integers(0, maxval + 1, (7, 11))
    samples[0, :3] = (0, 1, maxval)
    header = f"{magic}\n11 7\n{maxval}\n".encode("ascii")
    if magic == "P5":
        body = samples.astype(">u2" if maxval > 255 else np.uint8).tobytes()
    else:
        body = " ".join(map(str, samples.ravel())).encode("ascii") + b"\n"
    path = tmp_path / "a.pgm"
    path.write_bytes(header + body)
    got = load_pgm(path).pixels
    assert np.array_equal(got, old_pgm_scaling(samples, maxval))


def old_pgm_bytes(image):
    """Oracle: the P5 file as written with a fresh temporary per step."""
    clipped = np.clip(image.pixels, 0.0, 255.0)
    quantized = np.floor(clipped + 0.5)
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    return header + quantized.astype(np.uint8).tobytes()


def test_save_pgm_bytes_equal_the_expression_oracle(tmp_path):
    rng = np.random.default_rng(11)
    pixels = rng.uniform(-40.0, 300.0, (9, 14))
    # exact .5 ties, both clamps and values that round to the edges
    pixels[0, :8] = (0.5, 1.5, 254.5, 127.5, -0.5, 255.5, 254.49, -1e9)
    pixels[1, :7] = (1e9, 0.49999999999999994, 255.0, 1e300, -1e300,
                     255.49999999999997, 300.0)
    image = GrayImage(pixels)
    kept = image.pixels.copy()
    path = tmp_path / "a.pgm"
    save_pgm(image, path)
    assert path.read_bytes() == old_pgm_bytes(image)
    assert np.array_equal(image.pixels, kept)


def test_save_pgm_unwritable_path(tmp_path):
    img = GrayImage(np.zeros((2, 2)))
    with pytest.raises(OSError):
        save_pgm(img, tmp_path / "missing_dir" / "a.pgm")


# ---------------------------------------------------------------------------
# crop


def test_crop_central_block():
    img = GrayImage(np.arange(25, dtype=float).reshape(5, 5))
    out = crop(img, Roi(Landmark(2, 2), 1, 1))
    assert out.pixels.tolist() == [[6, 7, 8], [11, 12, 13], [16, 17, 18]]


def test_crop_corner_replicates_edges():
    img = GrayImage(np.arange(25, dtype=float).reshape(5, 5))
    out = crop(img, Roi(Landmark(0, 0), 1, 1))
    # top and left rows replicate pixel (0, 0)'s row/column
    assert out.pixels.tolist() == [[0, 0, 1], [0, 0, 1], [5, 5, 6]]


def test_crop_fractional_center_rounds_half_away():
    img = GrayImage(np.arange(25, dtype=float).reshape(5, 5))
    a = crop(img, Roi(Landmark(2.4, 2.6), 1, 1))
    b = crop(img, Roi(Landmark(2.0, 3.0), 1, 1))
    assert np.array_equal(a.pixels, b.pixels)


@pytest.mark.parametrize("far", [1e20, -1e20])
@pytest.mark.parametrize("half", [0, 1, 3])
def test_crop_far_off_center_is_the_clamped_edge(far, half):
    # a centre that rounds beyond int64 replicates the nearest edge, as the
    # window one past the image does
    img = GrayImage(np.arange(30, dtype=float).reshape(5, 6))
    edge_x = 6 - 1 + half if far > 0 else -half
    edge_y = 5 - 1 + half if far > 0 else -half
    for center, clamped in [
            (Landmark(far, 2), Landmark(edge_x, 2)),
            (Landmark(3, far), Landmark(3, edge_y)),
            (Landmark(far, far), Landmark(edge_x, edge_y))]:
        got = crop(img, Roi(center, half, half)).pixels
        want = crop(img, Roi(clamped, half, half)).pixels
        assert got.tobytes() == want.tobytes()
        assert got.shape == (2 * half + 1, 2 * half + 1)


@pytest.mark.parametrize("half", [0, 1, 2, 5])
def test_crop_center_clamp_keeps_every_window(half):
    # the windows of centres in and around the image are the unclamped ones
    img = GrayImage(np.arange(30, dtype=float).reshape(5, 6))
    for c in range(-20, 31):
        idx = np.clip(np.arange(c - half, c + half + 1), 0, 5)
        want = img.pixels[np.clip(np.arange(2 - half, 3 + half), 0, 4)][:, idx]
        got = crop(img, Roi(Landmark(c, 2), half, half)).pixels
        assert np.array_equal(got, want)


def test_crop_translation_consistency():
    rng = np.random.default_rng(3)
    base = rng.uniform(0, 255, size=(32, 32))
    img = GrayImage(base)
    for dx, dy in [(1, 0), (0, 2), (3, -2), (-4, 4)]:
        shifted = GrayImage(np.roll(np.roll(base, dy, axis=0), dx, axis=1))
        a = crop(shifted, Roi(Landmark(16 + dx, 16 + dy), 4, 4))
        b = crop(img, Roi(Landmark(16, 16), 4, 4))
        assert np.array_equal(a.pixels, b.pixels)


# ---------------------------------------------------------------------------
# 2x decimation with the binomial kernel, MS-SSIM's downsampling


def test_downsample2_constant_stays_constant():
    out = _decimate2(np.full((10, 10), 37.25), _BINOMIAL5)
    assert out.shape == (5, 5)
    assert np.all(out == 37.25)


def test_downsample2_output_dims_ceil():
    assert _decimate2(np.zeros((4, 4)), _BINOMIAL5).shape == (2, 2)
    assert _decimate2(np.zeros((5, 7)), _BINOMIAL5).shape == (3, 4)


def test_downsample2_impulse_matches_frozen_kernel():
    img = np.zeros((9, 9))
    img[4, 4] = 1.0
    out = _decimate2(img, _BINOMIAL5)
    # impulse away from edges: separable binomial response sampled at even
    # offsets -4..4, i.e. 1-D taps [0, 1/16, 6/16, 1/16, 0]
    taps = np.array([0.0, 1.0 / 16.0, 6.0 / 16.0, 1.0 / 16.0, 0.0])
    assert np.allclose(out, np.outer(taps, taps), atol=1e-15)


def _downsample2_oracle(pix):
    """Direct double-loop separable filter with edge replication, then 2:1."""
    k = [1.0 / 16, 4.0 / 16, 6.0 / 16, 4.0 / 16, 1.0 / 16]
    h, w = pix.shape
    tmp = np.zeros_like(pix)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for t in range(-2, 3):
                yy = min(max(y + t, 0), h - 1)
                acc += k[t + 2] * pix[yy, x]
            tmp[y, x] = acc
    out = np.zeros_like(pix)
    for y in range(h):
        for x in range(w):
            acc = 0.0
            for t in range(-2, 3):
                xx = min(max(x + t, 0), w - 1)
                acc += k[t + 2] * tmp[y, xx]
            out[y, x] = acc
    return out[::2, ::2]


def test_downsample2_matches_double_loop_oracle():
    rng = np.random.default_rng(11)
    pix = rng.uniform(0, 255, size=(11, 14))
    out = _decimate2(pix, _BINOMIAL5)
    assert np.allclose(out, _downsample2_oracle(pix), atol=1e-10)


def test_downsample2_too_small():
    # MS-SSIM, the caller that decimates with the binomial kernel, rejects
    # an image too small for its scales before it decimates
    params = MsSsimParams(scales=2, weights=(0.5, 0.5),
                          base=SsimParams(window_size=3))
    with pytest.raises(errors.ImageTooSmallError):
        prepare("msssim", GrayImage(np.zeros((1, 5))), params)


# ---------------------------------------------------------------------------
# The smoothing engine against the numpy calls it replaced


def bits(arr):
    return np.ascontiguousarray(arr).view(np.uint64)


def array_split_correlate(stack, kernel, step, correlate_axis):
    """Oracle: the separable correlation of a stack, cut into chunks by
    ``np.array_split``; returns the chunks and their outputs."""
    weights = kernel.tolist()
    most = max(1, image._CHUNK_PIXELS // (stack.shape[-2] * stack.shape[-1]))
    chunks = np.array_split(stack, math.ceil(len(stack) / most))
    return chunks, [correlate_axis(correlate_axis(chunk, weights, -2, step),
                                   weights, -1, step) for chunk in chunks]


@pytest.mark.parametrize("step", [1, 2])
@pytest.mark.parametrize("side", [17, 65, 256])
def test_correlate_separable_chunks_as_array_split_does(monkeypatch, side,
                                                        step):
    kernel = metrics._gauss1d(11, 1.5)
    correlate_axis, chunk_sizes = image._correlate_axis, []

    def counting(arr, weights, axis, step, out=None):
        if axis == -2:
            chunk_sizes.append(len(arr))
        return correlate_axis(arr, weights, axis, step, out)

    monkeypatch.setattr(image, "_correlate_axis", counting)
    rng = np.random.default_rng(side + step)
    for n in range(1, 16):
        stack = rng.uniform(0.0, 255.0, (n, side, side))
        chunk_sizes.clear()
        got = _correlate_separable(stack, kernel, step)
        chunks, want = array_split_correlate(stack, kernel, step,
                                             correlate_axis)
        assert chunk_sizes == [len(chunk) for chunk in chunks]
        assert np.array_equal(bits(got), bits(np.concatenate(want)))


@pytest.mark.parametrize("r", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("shape", [(2, 16, 16), (2, 17, 16), (16, 17),
                                   (65, 65)])
def test_decimate2_equals_edge_padding_then_correlation(shape, r):
    kernel = metrics._gauss1d(2 * r + 1, r / 2.0)
    arr = np.random.default_rng(r).uniform(0.0, 255.0, shape)
    edges = [(0, 0)] * (arr.ndim - 2) + [(r, r), (r, r)]
    want = _correlate_separable(np.pad(arr, edges, mode="edge"), kernel, 2)
    assert np.array_equal(bits(_decimate2(arr, kernel)), bits(want))


# ---------------------------------------------------------------------------
# sequences on disk


def rewrite_manifest(path, **fields):
    """Replace top-level fields of the manifest JSON at ``path``."""
    with open(path) as fh:
        obj = json.load(fh)
    obj.update(fields)
    with open(path, "w") as fh:
        json.dump(obj, fh)


@pytest.fixture
def manifest(tmp_path):
    """A written three-frame sequence with one landmark per frame."""
    frames = tuple(GrayImage(np.full((4, 5), 10.0 * t)) for t in range(3))
    marks = tuple((Landmark(1.0 + t, 2.0),) for t in range(3))
    return write_sequence(FrameSequence(frames, landmarks=marks), tmp_path)


def test_manifest_json_round_trip(tmp_path):
    marks = ((Landmark(1.5, 2.0),), (Landmark(2.5, 2.0),))
    seq = FrameSequence(frames=(GrayImage(np.zeros((3, 4))),) * 2,
                        pixel_spacing_mm=0.3, landmarks=marks,
                        reference_frame=1)
    path = write_sequence(seq, tmp_path, stem="s")
    assert path == os.path.join(tmp_path, "s_manifest.json")
    with open(path) as fh:
        assert fh.read() == json.dumps({
            "frames": ["s_0000.pgm", "s_0001.pgm"],
            "pixel_spacing_mm": 0.3,
            "reference_frame": 1,
            "landmarks": [[{"x": 1.5, "y": 2.0}], [{"x": 2.5, "y": 2.0}]],
        }, indent=2) + "\n"
    back = load_sequence(path)
    assert back.pixel_spacing_mm == 0.3
    assert back.reference_frame == 1
    assert back.landmarks == marks


def test_manifest_rejects_bad_schema(tmp_path):
    path = tmp_path / "seq.json"
    for text in ('{"pixel_spacing_mm": 1.0}', "not json", '["a.pgm"]',
                 '{"frames": []}', '{"frames": ["a.pgm"], "landmarks": 3}',
                 '{"frames": ["a.pgm", "b.pgm"],'
                 ' "landmarks": [[{"x": 0, "y": 0}]]}'):
        path.write_text(text)
        with pytest.raises(errors.ManifestError):
            load_sequence(path)


def test_load_sequence_checks_the_manifest_before_reading_frames(tmp_path):
    path = tmp_path / "seq.json"
    path.write_text('{"frames": ["missing0.pgm", "missing1.pgm"],'
                    ' "reference_frame": 2}')
    with pytest.raises(errors.ManifestError):
        load_sequence(path)


def test_manifest_must_be_ascii(tmp_path):
    path = tmp_path / "seq.json"
    path.write_bytes('{"frames": ["\u00e9.pgm"]}'.encode("utf-8"))
    with pytest.raises(errors.ManifestError):
        load_sequence(path)


@pytest.mark.parametrize("field", [
    {"reference_frame": 2.9}, {"reference_frame": "1"},
    {"reference_frame": True}, {"pixel_spacing_mm": True},
    {"pixel_spacing_mm": "0.3"},
    {"landmarks": [[{"x": float("nan"), "y": 2.0}]] * 3},
    {"landmarks": [[{"x": "1.5", "y": 2.0}]] * 3},
    {"landmarks": [[{"x": 1.5, "y": False}]] * 3},
], ids=["ref-float", "ref-string", "ref-bool", "spacing-bool",
        "spacing-string", "landmark-nan", "landmark-string", "landmark-bool"])
def test_manifest_fields_are_validated_not_coerced(manifest, field):
    rewrite_manifest(manifest, **field)
    with pytest.raises(errors.ManifestError):
        load_sequence(manifest)


def test_manifest_accepts_integer_and_fractional_numbers(manifest):
    for spacing in (1, 0.3):
        rewrite_manifest(manifest, pixel_spacing_mm=spacing, reference_frame=2,
                         landmarks=[[{"x": 1, "y": 2.5}]] * 3)
        seq = load_sequence(manifest)
        assert seq.pixel_spacing_mm == spacing
        assert seq.reference_frame == 2
        assert seq.landmarks == ((Landmark(1.0, 2.5),),) * 3


# windows of a 15-wide, 12-high frame: inside it, across its left and bottom
# borders, and wholly to its right
WINDOWS = {
    "inside": Roi(Landmark(7.5, 5.4), 3, 2),
    "edge": Roi(Landmark(1.0, 10.5), 4, 3),
    "outside": Roi(Landmark(40.0, 6.0), 2, 5),
}


def test_load_sequence_checks_frame_dims(tmp_path):
    save_pgm(GrayImage(np.zeros((4, 4))), tmp_path / "f0.pgm")
    save_pgm(GrayImage(np.zeros((4, 5))), tmp_path / "f1.pgm")
    (tmp_path / "seq.json").write_text('{"frames": ["f0.pgm", "f1.pgm"]}')
    # the frames' 7x5 windows would match; their full shapes do not
    for roi in (None, WINDOWS["inside"]):
        with pytest.raises(errors.DimensionMismatchError, match=(
                r"^frame 1 has shape \(4, 5\), frame 0 has \(4, 4\)$")):
            load_sequence(tmp_path / "seq.json", roi)


@pytest.mark.parametrize("roi", list(WINDOWS.values()), ids=list(WINDOWS))
@pytest.mark.parametrize("magic, maxval", [("P5", 255), ("P5", 1000),
                                           ("P2", 255)])
def test_windowed_load_equals_the_crop_of_each_file(tmp_path, magic, maxval,
                                                    roi):
    rng = np.random.default_rng(maxval)
    rasters = [rng.integers(0, maxval + 1, (12, 15)) for _ in range(3)]
    marks = [[{"x": 2.0 + t, "y": 9.25}, {"x": -1.5, "y": 0.0}]
             for t in range(3)]
    path = write_pgm_sequence(tmp_path, magic, maxval, rasters, marks)
    full = load_sequence(path)
    seq = load_sequence(path, roi)
    assert len(seq) == 3
    assert seq.reference_frame == full.reference_frame
    assert seq.pixel_spacing_mm == full.pixel_spacing_mm
    for t, frame in enumerate(seq.frames):
        assert frame.shape == (2 * roi.half_height + 1, 2 * roi.half_width + 1)
        want = crop(load_pgm(tmp_path / f"f{t}.pgm"), roi).pixels
        assert frame.pixels.tobytes() == want.tobytes()
        assert frame.pixels.tobytes() == crop(full.frames[t], roi).pixels.tobytes()
    x0 = round_half_away(roi.center.x) - roi.half_width
    y0 = round_half_away(roi.center.y) - roi.half_height
    assert seq.landmarks == tuple(
        tuple(Landmark(lm.x - x0, lm.y - y0) for lm in per_frame)
        for per_frame in full.landmarks)


def test_windowed_load_shifts_landmarks_into_window_coordinates(tmp_path):
    rasters = [np.zeros((12, 15), dtype=int)] * 2
    marks = [[{"x": 8.0, "y": 4.0}], [{"x": 9.5, "y": 6.25}]]
    path = write_pgm_sequence(tmp_path, "P5", 255, rasters, marks)
    # the window's top-left pixel is (8 - 3, 5 - 2) = (5, 3)
    seq = load_sequence(path, WINDOWS["inside"])
    assert seq.landmarks == ((Landmark(3.0, 1.0),), (Landmark(4.5, 3.25),))
    assert load_sequence(write_pgm_sequence(tmp_path, "P5", 255, rasters),
                         WINDOWS["inside"]).landmarks is None


@pytest.mark.parametrize("bad, kind", [
    # one byte short of the 12x15 raster
    (b"P5\n15 12\n255\n" + bytes(179), errors.PgmDataError),
    # a sample above maxval, at pixel (0, 0), far from the window
    (b"P5\n15 12\n100\n" + bytes([200]) + bytes(179), errors.PgmDataError),
    (b"P2\n15 12\n100\n200" + b" 0" * 179 + b"\n", errors.PgmDataError),
    (b"P5\n15 x\n255\n" + bytes(180), errors.PgmHeaderError),
], ids=["truncated", "p5-above-maxval", "p2-above-maxval", "header"])
def test_windowed_load_keeps_every_frame_check(tmp_path, bad, kind):
    path = write_pgm_sequence(tmp_path, "P5", 255,
                              [np.zeros((12, 15), dtype=int)] * 2)
    (tmp_path / "f1.pgm").write_bytes(bad)
    for roi in (None, WINDOWS["inside"]):
        with pytest.raises(kind):
            load_sequence(path, roi)


def test_load_sequence_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    imgs = tuple(GrayImage(np.floor(rng.uniform(0, 256, size=(6, 7))))
                 for _ in range(3))
    path = write_sequence(FrameSequence(imgs, pixel_spacing_mm=0.2),
                          tmp_path / "seq")
    seq = load_sequence(path)
    assert len(seq) == 3
    assert seq.pixel_spacing_mm == 0.2
    assert seq.landmarks is None
    for img, frame in zip(imgs, seq.frames):
        assert np.array_equal(img.pixels, frame.pixels)
    # frame paths resolve against the manifest's directory unless absolute
    other = tmp_path / "other.json"
    other.write_text(json.dumps({"frames": [
        "seq/frame_0000.pgm", str(tmp_path / "seq" / "frame_0002.pgm")]}))
    seq = load_sequence(other)
    assert np.array_equal(seq.frames[1].pixels, imgs[2].pixels)


def test_frame_sequence_validates():
    with pytest.raises(errors.ManifestError):
        FrameSequence(frames=())
    a = GrayImage(np.zeros((4, 4)))
    b = GrayImage(np.zeros((4, 5)))
    with pytest.raises(errors.DimensionMismatchError):
        FrameSequence(frames=(a, b))
    # the same field check as load_sequence's
    with pytest.raises(errors.ManifestError):
        FrameSequence(frames=(a, a), landmarks=(
            (Landmark(1.0, 1.0),), (Landmark(1.0, 1.0), Landmark(2.0, 2.0))))


def test_frame_sequence_stores_an_integer_reference_frame(tmp_path):
    # a NumPy integer once wrote both PGMs, then failed mid-manifest
    frames = (GrayImage(np.zeros((3, 4))),) * 2
    seq = FrameSequence(frames, reference_frame=np.int64(1))
    assert type(seq.reference_frame) is int
    assert load_sequence(write_sequence(seq, tmp_path)).reference_frame == 1
    for bad in (True, np.True_, 1.0, np.float64(1.0), "1"):
        with pytest.raises(errors.ManifestError):
            FrameSequence(frames, reference_frame=bad)


@pytest.mark.parametrize("spacing", [float("inf"), float("nan"), -1.0, 0.0])
def test_frame_sequence_rejects_spacing_the_manifest_cannot_hold(spacing):
    # inf was written as Infinity, which load_sequence rejects
    with pytest.raises(errors.ManifestError):
        FrameSequence((GrayImage(np.zeros((3, 4))),), pixel_spacing_mm=spacing)


def test_write_sequence_serializes_the_manifest_before_any_frame(tmp_path):
    # JSON cannot hold a float32, as the spacing or as a landmark coordinate
    frames = (GrayImage(np.zeros((3, 4))),) * 2
    for i, (spacing, mark) in enumerate((
            (np.float32(0.5), Landmark(1.0, 2.0)),
            (0.5, Landmark(np.float32(1.0), 2.0)),
            (0.5, Landmark(1.0, np.float32(2.0))))):
        seq = FrameSequence(frames, pixel_spacing_mm=spacing,
                            landmarks=((Landmark(0.0, 0.0), mark),) * 2)
        out = tmp_path / f"seq{i}"
        with pytest.raises(errors.ManifestError):
            write_sequence(seq, out)
        assert not out.exists()


@pytest.mark.parametrize("stem", sorted({"", "a/b", f"a{os.sep}b", "/",
                                         "a\0b"}))
def test_write_sequence_rejects_a_bad_stem_before_writing(tmp_path, stem):
    # "a/b" once failed on opening its first frame, after making the directory
    out = tmp_path / "seq"
    seq = FrameSequence((GrayImage(np.zeros((3, 4))),) * 2)
    with pytest.raises(errors.InvalidParamsError):
        write_sequence(seq, out, stem=stem)
    assert not out.exists()


def test_load_sequence_reads_every_frame_before_comparing_shapes(tmp_path):
    # frame 1 has another shape, frame 3 is cut short: the read error wins
    rasters = [np.zeros((12, 15), dtype=int)] * 4
    rasters[1] = np.zeros((12, 16), dtype=int)
    path = write_pgm_sequence(tmp_path, "P5", 255, rasters)
    (tmp_path / "f3.pgm").write_bytes(b"P5\n15 12\n255\n" + bytes(179))
    for roi in (None, WINDOWS["inside"]):
        with pytest.raises(errors.PgmDataError):
            load_sequence(path, roi)


def test_windowed_load_keeps_only_the_windows(tmp_path):
    rng = np.random.default_rng(5)
    rasters = [rng.integers(0, 256, (256, 256)) for _ in range(30)]
    path = write_pgm_sequence(tmp_path, "P5", 255, rasters)
    roi = Roi(Landmark(108.0, 128.0), 32, 32)
    load_sequence(path, roi)
    seq, peak = peak_traced_bytes(lambda: load_sequence(path, roi))
    # holding every full raster until the shape check took 2.1 MB
    assert peak < sum(raster.size for raster in rasters)
    assert seq.frames[29].pixels.tobytes() == crop(
        GrayImage(rasters[29]), roi).pixels.tobytes()


def test_load_sequence_holds_the_integer_rasters(tmp_path):
    rng = np.random.default_rng(6)
    rasters = [rng.integers(0, 256, (256, 256)) for _ in range(30)]
    path = write_pgm_sequence(tmp_path, "P5", 255, rasters)
    load_sequence(path)
    seq, peak = peak_traced_bytes(lambda: load_sequence(path))
    # the 8-bit rasters are held and each frame converts when it is read;
    # holding the float frames took 30 times 8 bytes a pixel
    assert peak < 2 * sum(raster.size for raster in rasters)
    for t in (0, 29, -1):
        assert seq.frames[t].pixels.tobytes() == load_pgm(
            tmp_path / f"f{t % 30}.pgm").pixels.tobytes()


@pytest.mark.parametrize("maxval", [255, 1000])
def test_p2_and_p5_loads_of_the_same_samples_agree(tmp_path, maxval):
    rng = np.random.default_rng(maxval)
    rasters = [rng.integers(0, maxval + 1, (12, 15)) for _ in range(3)]
    rasters[0][0, :3] = (0, 1, maxval)
    frames = {}
    for magic in ("P2", "P5"):
        directory = tmp_path / magic
        directory.mkdir()
        path = write_pgm_sequence(directory, magic, maxval, rasters)
        frames[magic] = [f.pixels.tobytes() for f in load_sequence(path).frames]
        # ASCII samples are held as narrow as binary ones: 1 byte to 255,
        # else 2
        raster, _ = _read_pgm(directory / "f0.pgm")
        assert raster.itemsize == (1 if maxval <= 255 else 2)
    assert frames["P2"] == frames["P5"]
