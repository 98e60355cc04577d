"""Grayscale raster primitives: PGM I/O, ROI cropping, resampling, sequences.

Images are immutable 2-D float64 grids in row-major order with a nominal
[0, 255] intensity range. All coordinates are (x, y) with x indexing columns
and y indexing rows; fractional coordinates are allowed everywhere and are
resolved to the pixel grid by half-away-from-zero rounding.
"""

from __future__ import annotations

import json
import math
import numbers
import operator
import os
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidImageError,
    InvalidParamsError,
    ManifestError,
    PgmDataError,
    PgmFormatError,
    PgmHeaderError,
)

__all__ = [
    "FrameSequence",
    "GrayImage",
    "Landmark",
    "Roi",
    "crop",
    "load_pgm",
    "load_sequence",
    "save_pgm",
    "write_sequence",
]

PGM_MAX_MAXVAL = 65535

# binomial smoothing kernel used for dyadic downsampling
_BINOMIAL5 = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0


def round_half_away(value: float) -> int:
    """Round to the nearest integer, halves away from zero (2.5 -> 3, -2.5 -> -3)."""
    if value >= 0:
        return int(math.floor(value + 0.5))
    return -int(math.floor(-value + 0.5))


@dataclass(frozen=True, eq=False)
class GrayImage:
    """Immutable 2-D grayscale raster, the operand of every metric and tracker.

    ``pixels`` is coerced to a read-only float64 array. Values must be finite;
    the nominal range is [0, 255] but is not enforced, so intermediate results
    (differences, filtered grids) can be carried in the same type.
    """

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels, dtype=np.float64)
        if arr.ndim != 2 or arr.size == 0:
            raise InvalidImageError(
                f"image must be a non-empty 2-D grid, got shape {arr.shape}")
        if not np.all(np.isfinite(arr)):
            raise InvalidImageError("image values must be finite")
        arr = np.ascontiguousarray(arr)
        arr.setflags(write=False)
        object.__setattr__(self, "pixels", arr)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        """(height, width), matching the underlying array."""
        return self.pixels.shape


@dataclass(frozen=True)
class Landmark:
    """A point of interest in pixel coordinates (x = column, y = row)."""

    x: float
    y: float

    def __post_init__(self):
        require_reals(self, "x", "y")
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidParamsError("landmark coordinates must be finite")


@dataclass(frozen=True)
class Roi:
    """Axis-aligned window of (2*half_width+1) x (2*half_height+1) pixels."""

    center: Landmark
    half_width: int
    half_height: int

    def __post_init__(self):
        if not isinstance(self.center, Landmark):
            raise InvalidParamsError(
                f"ROI center must be a Landmark, got {self.center!r}")
        require_integers(self, "half_width", "half_height")
        if self.half_width < 0 or self.half_height < 0:
            raise InvalidParamsError("ROI half extents must be >= 0")


def require_same_shape(a: GrayImage, b: GrayImage) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"operands must share dimensions, got {a.shape} and {b.shape}")


def _is_int(value) -> bool:
    """A Python or numpy integer; bools and floats (even 2.0) are not."""
    return not isinstance(value, bool) and hasattr(type(value), "__index__")


def require_integers(params, *names: str) -> None:
    """Raise InvalidParamsError unless each named field of ``params`` is an
    integer."""
    for name in names:
        value = getattr(params, name)
        if not _is_int(value):
            raise InvalidParamsError(
                f"{name} must be an integer, got {value!r}")


def _is_real(value) -> bool:
    """A Python or numpy int or float; bools and strings are not."""
    return not isinstance(value, bool) and isinstance(value, numbers.Real)


def require_reals(params, *names: str) -> None:
    """Raise InvalidParamsError unless each named field of ``params`` is a
    real number (a Python or numpy int or float); bools and strings are
    not."""
    for name in names:
        value = getattr(params, name)
        if not _is_real(value):
            raise InvalidParamsError(
                f"{name} must be a real number, got {value!r}")


def require_real_items(params, name: str) -> tuple:
    """The named field of ``params`` as a tuple; raise InvalidParamsError
    unless it is an iterable of real numbers, as :func:`require_reals`
    takes them."""
    value = getattr(params, name)
    try:
        items = tuple(value)
    except TypeError:
        items = None
    if items is None or not all(map(_is_real, items)):
        raise InvalidParamsError(
            f"{name} must hold real numbers, got {value!r}")
    return items


# ---------------------------------------------------------------------------
# PGM I/O


def _parse_pgm_header(data: bytes):
    """Return (magic, width, height, maxval, offset of raster start)."""
    if len(data) < 2:
        raise PgmHeaderError("file too short for a PGM header")
    magic = data[:2]
    if magic not in (b"P2", b"P5"):
        raise PgmFormatError(f"unsupported magic {magic!r}, expected P2 or P5")

    fields = []
    pos = 2
    n = len(data)
    while len(fields) < 3:
        # skip whitespace and '#' comments between header fields
        while pos < n:
            c = data[pos:pos + 1]
            if c.isspace():
                pos += 1
            elif c == b"#":
                while pos < n and data[pos:pos + 1] != b"\n":
                    pos += 1
            else:
                break
        start = pos
        while pos < n and not data[pos:pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if not token:
            raise PgmHeaderError("header ended before width/height/maxval")
        try:
            fields.append(int(token))
        except ValueError:
            raise PgmHeaderError(f"non-numeric header field {token!r}") from None
    width, height, maxval = fields
    if width <= 0 or height <= 0:
        raise PgmHeaderError(f"non-positive dimensions {width}x{height}")
    if not 0 < maxval <= PGM_MAX_MAXVAL:
        raise PgmHeaderError(f"maxval {maxval} outside (0, {PGM_MAX_MAXVAL}]")
    if pos >= n:
        raise PgmDataError("no raster data after header")
    pos += 1  # exactly one whitespace byte separates header and raster
    return magic, width, height, maxval, pos


def _read_pgm(path) -> tuple[np.ndarray, int]:
    """Read a binary (P5) or ASCII (P2) PGM file into its integer raster,
    shaped (height, width), and its ``maxval``; every header and sample
    check happens here. Samples are held in 8 bits when ``maxval`` is at
    most 255, else in 16, whichever the magic."""
    with open(path, "rb") as fh:
        data = fh.read()
    magic, width, height, maxval, pos = _parse_pgm_header(data)
    count = width * height

    if magic == b"P5":
        two_byte = maxval > 255
        need = count * (2 if two_byte else 1)
        raster = data[pos:pos + need]
        if len(raster) < need:
            raise PgmDataError(
                f"raster holds {len(raster)} bytes, header promises {need}")
        dtype = ">u2" if two_byte else np.uint8
        arr = np.frombuffer(raster, dtype=dtype, count=count)
    else:
        tokens = data[pos:].split()
        if len(tokens) < count:
            raise PgmDataError(
                f"raster holds {len(tokens)} samples, header promises {count}")
        try:
            arr = np.array([int(t) for t in tokens[:count]], dtype=np.int64)
        except ValueError:
            raise PgmDataError("non-numeric sample in ASCII raster") from None
    if arr.min() < 0 or arr.max() > maxval:
        raise PgmDataError("sample value outside [0, maxval]")
    if magic == b"P2":
        # in range, so the samples fit the width a P5 raster would use
        arr = arr.astype(np.uint16 if maxval > 255 else np.uint8)
    return arr.reshape(height, width), maxval


def _to_gray(raster: np.ndarray, maxval: int) -> GrayImage:
    """Scale integer samples linearly so that ``maxval`` maps to 255.0."""
    pixels = raster.astype(np.float64)
    pixels *= 255.0
    pixels /= maxval
    return GrayImage(pixels)


def load_pgm(path) -> GrayImage:
    """Read a binary (P5) or ASCII (P2) PGM file.

    Samples are scaled linearly so that ``maxval`` maps to 255.0; 8-bit files
    therefore load with their values unchanged.
    """
    return _to_gray(*_read_pgm(path))


def save_pgm(image: GrayImage, path) -> None:
    """Write an 8-bit binary (P5) PGM; values are rounded half-away-from-zero
    and clamped to [0, 255]."""
    quantized = np.clip(image.pixels, 0.0, 255.0)
    quantized += 0.5
    np.floor(quantized, out=quantized)
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(quantized.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# Geometry ops


def _window(arr: np.ndarray, roi: Roi) -> np.ndarray:
    """The ROI window of a 2-D array, as :func:`crop` describes it."""
    cx = round_half_away(roi.center.x)
    cy = round_half_away(roi.center.y)
    height, width = arr.shape
    xs = np.clip(np.arange(cx - roi.half_width, cx + roi.half_width + 1),
                 0, width - 1)
    ys = np.clip(np.arange(cy - roi.half_height, cy + roi.half_height + 1),
                 0, height - 1)
    return arr.take(ys, axis=0).take(xs, axis=1)


def crop(image: GrayImage, roi: Roi) -> GrayImage:
    """Extract the ROI window around the rounded center.

    Rows/columns falling outside the image replicate the nearest edge, so the
    output always has the full (2*half_width+1) x (2*half_height+1) shape.
    """
    return GrayImage(_window(image.pixels, roi))


# Input pixels per chunk of a separable correlation: seven 65x65 images, or
# one larger image. A scorer's (3, 4, 65, 65) plane stack is smoothed six
# images at a time, not all twelve at once: its row-pass temporaries halve,
# from 0.69 to 0.34 MB, and the SSIM family scored no slower. Chunks of three
# images took 4-14 % longer. A 256x256 image is still one chunk.
_CHUNK_PIXELS = 1 << 15


def _correlate_separable(arr: np.ndarray, kernel: np.ndarray,
                         step: int = 1) -> np.ndarray:
    """Correlate the last two axes of ``arr``, rows first, with the symmetric
    odd ``kernel`` at every position where it fits, keeping every ``step``-th
    position from the first.

    Each output adds its terms in the order ``ndimage.correlate1d``
    uses for such a kernel, so the two agree bit for bit: the centre tap
    ``x[c] * w[r]``, then each mirrored pair from the outermost in,
    ``(x[c-j] + x[c+j]) * w[r-j]``. A weight of exactly 1 (a box sum)
    multiplies nothing.
    """
    weights = kernel.tolist()
    r = kernel.size // 2
    rows, cols = (len(range(0, n - 2 * r, step)) for n in arr.shape[-2:])
    images = arr.reshape(-1, *arr.shape[-2:])
    out = np.empty((len(images), rows, cols))
    # both passes run on a few images at a time, whose temporaries stay in
    # cache: a stack of three 256x256 images took twice as long in one go.
    # The chunks are as even as the budget allows: 6 + 6 images, not 7 + 5
    most = max(1, _CHUNK_PIXELS // (arr.shape[-2] * arr.shape[-1]))
    parts = max(1, math.ceil(len(images) / most))
    size, extra = divmod(len(images), parts)
    stop = 0
    for part in range(parts):
        start, stop = stop, stop + size + (part < extra)
        _correlate_axis(_correlate_axis(images[start:stop], weights, -2, step),
                        weights, -1, step, out[start:stop])
    return out.reshape(*arr.shape[:-2], rows, cols)


def _correlate_axis(arr: np.ndarray, weights: list, axis: int, step: int,
                    out: np.ndarray | None = None) -> np.ndarray:
    r = len(weights) // 2
    stop = arr.shape[axis] - 2 * r
    after = (slice(None),) * (-1 - axis)

    def tap(offset):
        return arr[(..., slice(offset, offset + stop, step), *after)]

    if out is None:
        out = np.empty(tap(r).shape)
    if weights[r] != 1.0:
        np.multiply(tap(r), weights[r], out=out)
    else:
        out[...] = tap(r)
    pair = np.empty_like(out)
    for j in range(r, 0, -1):
        np.add(tap(r - j), tap(r + j), out=pair)
        if weights[r - j] != 1.0:
            pair *= weights[r - j]
        out += pair
    return out


def _decimate2(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Smooth the last two axes of ``arr`` with ``kernel``, replicating the
    edges, and keep the even rows and columns; only those are computed."""
    r = kernel.size // 2
    height, width = arr.shape[-2:]
    padded = np.empty((*arr.shape[:-2], height + 2 * r, width + 2 * r))
    padded[..., r:r + height, r:r + width] = arr
    padded[..., :r, r:r + width] = arr[..., :1, :]
    padded[..., r + height:, r:r + width] = arr[..., -1:, :]
    padded[..., :, :r] = padded[..., :, r:r + 1]
    padded[..., :, r + width:] = padded[..., :, r + width - 1:r + width]
    return _correlate_separable(padded, kernel, 2)


# ---------------------------------------------------------------------------
# Sequences


def _checked_fields(n_frames: int, pixel_spacing_mm, reference_frame,
                    landmarks) -> tuple[int, tuple[tuple[Landmark, ...], ...] | None]:
    """Check a sequence's fields other than the frames themselves; returns
    the reference frame as a Python int and the landmarks as tuples (or
    None)."""
    if n_frames < 1:
        raise ManifestError("sequence must contain at least one frame")
    if not (_is_real(pixel_spacing_mm) and math.isfinite(pixel_spacing_mm)
            and pixel_spacing_mm > 0):
        raise ManifestError("pixel_spacing_mm must be finite and > 0")
    if not _is_int(reference_frame):
        raise ManifestError(
            f"reference_frame must be an integer, got {reference_frame!r}")
    reference_frame = operator.index(reference_frame)
    if not 0 <= reference_frame < n_frames:
        raise ManifestError(
            f"reference_frame {reference_frame} outside [0, {n_frames})")
    if landmarks is None:
        return reference_frame, None
    marks = tuple(tuple(per_frame) for per_frame in landmarks)
    if len(marks) != n_frames:
        raise ManifestError("landmarks must list one entry per frame")
    if len({len(per_frame) for per_frame in marks}) > 1:
        raise ManifestError("landmark count must not vary across frames")
    return reference_frame, marks


class _RenderedFrames(Sequence):
    """``n`` frames made each time they are read: frame ``t`` is
    ``render(t)``, and no frame made is kept."""

    def __init__(self, render, n: int):
        self._render, self._n = render, n

    def __len__(self) -> int:
        return self._n

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self._render, range(self._n)[index]))
        return self._render(range(self._n)[index])

    def __iter__(self):
        # map names no frame it has yielded, so a reader that drops each
        # frame before asking for the next holds one frame at a time
        return map(self._render, range(self._n))


@dataclass(frozen=True, eq=False)
class FrameSequence:
    """Frame sequence: what trackers and the harness operate on.

    ``frames`` is any sequence of images; it is held as a tuple unless its
    frames are made each time they are read, as those of
    :func:`~usiq.synth.periodic_sequence` and :func:`load_sequence` are
    (``tuple(seq.frames)`` holds those). Every frame has the same shape,
    ``pixel_spacing_mm`` is > 0 and ``reference_frame`` indexes a frame.
    ``landmarks``, when given, holds one tuple of annotations per frame, the
    same number in each (ground truth when the sequence came from the
    synthesizer). On disk a sequence is numbered PGM files plus a manifest
    JSON, written by :func:`write_sequence` and read by
    :func:`load_sequence`.
    """

    frames: Sequence[GrayImage]
    pixel_spacing_mm: float = 1.0
    landmarks: tuple[tuple[Landmark, ...], ...] | None = None
    reference_frame: int = 0

    def __post_init__(self):
        frames = self.frames
        if not isinstance(frames, _RenderedFrames):
            frames = tuple(frames)
        ref, marks = _checked_fields(len(frames), self.pixel_spacing_mm,
                                     self.reference_frame, self.landmarks)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "reference_frame", ref)
        object.__setattr__(self, "landmarks", marks)
        if isinstance(frames, tuple):
            # frames made on read share their maker's shape by construction
            shape = frames[0].shape
            for i, frame in enumerate(frames):
                if frame.shape != shape:
                    raise DimensionMismatchError(
                        f"frame {i} has shape {frame.shape}, "
                        f"frame 0 has {shape}")

    def __len__(self) -> int:
        return len(self.frames)


def write_sequence(sequence: FrameSequence, directory, stem: str = "frame") -> str:
    """Write numbered PGM frames plus a manifest JSON; returns the manifest path.

    In ``directory``, frame ``t`` goes to ``{stem}_{t:04d}.pgm`` (see
    :func:`save_pgm`) and the manifest to ``{stem}_manifest.json``::

        {"frames": [...paths...], "pixel_spacing_mm": number,
         "reference_frame": integer,
         "landmarks": [[{"x": number, "y": number}, ...] per frame] | null}

    :func:`load_sequence` reads frame paths relative to the manifest's
    directory unless absolute. ``stem`` must be a non-empty file-name
    prefix, without a path separator or a NUL. The stem is checked and the
    manifest text built before any file is written, so a sequence it cannot
    hold leaves no partial output. Each frame is read, written and dropped
    before the next is read, so a sequence whose frames are made on read is
    written one float frame at a time.
    """
    if not stem or any(c in stem for c in ("/", os.sep, "\0")):
        raise InvalidParamsError(
            f"stem must be a non-empty file-name prefix, got {stem!r}")
    directory = os.fspath(directory)
    names = [f"{stem}_{t:04d}.pgm" for t in range(len(sequence))]
    marks = None
    if sequence.landmarks is not None:
        marks = [[{"x": lm.x, "y": lm.y} for lm in per_frame]
                 for per_frame in sequence.landmarks]
    try:
        text = json.dumps({"frames": names,
                           "pixel_spacing_mm": sequence.pixel_spacing_mm,
                           "reference_frame": sequence.reference_frame,
                           "landmarks": marks}, indent=2, allow_nan=False)
    except TypeError as exc:  # a number type JSON cannot hold, e.g. float32
        raise ManifestError(f"sequence cannot be written: {exc}") from None
    os.makedirs(directory, exist_ok=True)
    frames = iter(sequence.frames)
    for name in names:
        # no name keeps the frame alive while the next one is read
        save_pgm(next(frames), os.path.join(directory, name))
    path = os.path.join(directory, f"{stem}_manifest.json")
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text + "\n")
    return path


def _json_number(value, name: str) -> float:
    """``value`` as a float if it is a finite JSON number; a bool, a string,
    NaN or Infinity is rejected, not coerced."""
    if type(value) in (int, float):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond float range
            pass
    raise ManifestError(f"{name} must be a finite JSON number, got {value!r}")


def load_sequence(manifest_path, roi: Roi | None = None) -> FrameSequence:
    """Read a sequence written by :func:`write_sequence`.

    Every manifest field is checked, ``reference_frame`` as a JSON integer,
    before any frame is read; a malformed manifest raises ManifestError.
    Every frame is read and checked, and the frames' full shapes compared,
    before the sequence is returned. The sequence holds the integer rasters,
    and its frames convert them to float each time they are read, as
    :func:`load_pgm` does; ``tuple(seq.frames)`` holds the float frames.

    With ``roi``, each frame is the :func:`crop` of its file's image, cut
    from the integer raster as soon as the file is read, so only the
    windows are kept and converted; the pixels equal
    ``crop(load_pgm(path), roi)`` bit for bit. Landmarks move into window
    coordinates: x less ``round_half_away(roi.center.x) - roi.half_width``,
    y less ``round_half_away(roi.center.y) - roi.half_height``.
    """
    with open(manifest_path, "r", encoding="ascii") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:  # not JSON, or not ASCII
            raise ManifestError(f"manifest is not ASCII JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ManifestError("manifest root must be a JSON object")
    paths = obj.get("frames")
    if not (isinstance(paths, list)
            and all(isinstance(p, str) for p in paths)):
        raise ManifestError("manifest needs a 'frames' list of path strings")
    spacing = _json_number(obj.get("pixel_spacing_mm", 1.0),
                           "pixel_spacing_mm")
    ref = obj.get("reference_frame", 0)
    if type(ref) is not int:
        raise ManifestError(
            f"reference_frame must be a JSON integer, got {ref!r}")
    marks = obj.get("landmarks")
    if marks is not None:
        if not (isinstance(marks, list) and all(
                isinstance(per_frame, list)
                and all(isinstance(lm, dict) for lm in per_frame)
                for per_frame in marks)):
            raise ManifestError(
                "'landmarks' must be per-frame lists of {x, y} objects")
        marks = [[Landmark(_json_number(lm.get("x"), "landmark x"),
                           _json_number(lm.get("y"), "landmark y"))
                  for lm in per_frame] for per_frame in marks]
    ref, marks = _checked_fields(len(paths), spacing, ref, marks)
    base = os.path.dirname(os.path.abspath(manifest_path))
    rasters, shapes = [], []
    for p in paths:
        raster, maxval = _read_pgm(os.path.join(base, p))
        shapes.append(raster.shape)
        if roi is not None:
            raster = _window(raster, roi)
        rasters.append((raster, maxval))
    for i, shape in enumerate(shapes):
        if shape != shapes[0]:
            raise DimensionMismatchError(
                f"frame {i} has shape {shape}, frame 0 has {shapes[0]}")
    if roi is not None and marks is not None:
        x0 = round_half_away(roi.center.x) - roi.half_width
        y0 = round_half_away(roi.center.y) - roi.half_height
        marks = [[Landmark(lm.x - x0, lm.y - y0) for lm in per_frame]
                 for per_frame in marks]
    return FrameSequence(
        frames=_RenderedFrames(lambda t: _to_gray(*rasters[t]), len(rasters)),
        pixel_spacing_mm=spacing, landmarks=marks, reference_frame=ref)
