"""Grayscale raster primitives: PGM I/O, ROI cropping, resampling, sequences.

Images are immutable 2-D float64 grids in row-major order with a nominal
[0, 255] intensity range. All coordinates are (x, y) with x indexing columns
and y indexing rows; fractional coordinates are allowed everywhere and are
resolved to the pixel grid by half-away-from-zero rounding.
"""

from __future__ import annotations

import json
import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage

from .errors import (
    DimensionMismatchError,
    ImageTooSmallError,
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
    "downsample2",
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
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise InvalidParamsError("landmark coordinates must be finite")


@dataclass(frozen=True)
class Roi:
    """Axis-aligned window of (2*half_width+1) x (2*half_height+1) pixels."""

    center: Landmark
    half_width: int
    half_height: int

    def __post_init__(self):
        if self.half_width < 0 or self.half_height < 0:
            raise InvalidParamsError("ROI half extents must be >= 0")


def require_same_shape(a: GrayImage, b: GrayImage) -> None:
    if a.shape != b.shape:
        raise DimensionMismatchError(
            f"operands must share dimensions, got {a.shape} and {b.shape}")


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


def load_pgm(path) -> GrayImage:
    """Read a binary (P5) or ASCII (P2) PGM file.

    Samples are scaled linearly so that ``maxval`` maps to 255.0; 8-bit files
    therefore load with their values unchanged.
    """
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

    pixels = arr.astype(np.float64).reshape(height, width) * 255.0 / maxval
    return GrayImage(pixels)


def save_pgm(image: GrayImage, path) -> None:
    """Write an 8-bit binary (P5) PGM; values are rounded half-away-from-zero
    and clamped to [0, 255]."""
    clipped = np.clip(image.pixels, 0.0, 255.0)
    quantized = np.floor(clipped + 0.5)
    header = f"P5\n{image.width} {image.height}\n255\n".encode("ascii")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(quantized.astype(np.uint8).tobytes())


# ---------------------------------------------------------------------------
# Geometry ops


def crop(image: GrayImage, roi: Roi) -> GrayImage:
    """Extract the ROI window around the rounded center.

    Rows/columns falling outside the image replicate the nearest edge, so the
    output always has the full (2*half_width+1) x (2*half_height+1) shape.
    """
    cx = round_half_away(roi.center.x)
    cy = round_half_away(roi.center.y)
    xs = np.clip(np.arange(cx - roi.half_width, cx + roi.half_width + 1),
                 0, image.width - 1)
    ys = np.clip(np.arange(cy - roi.half_height, cy + roi.half_height + 1),
                 0, image.height - 1)
    return GrayImage(image.pixels[np.ix_(ys, xs)])


def downsample2(image: GrayImage) -> GrayImage:
    """Halve both dimensions: separable [1 4 6 4 1]/16 smoothing with edge
    replication, then keep every second sample starting at index 0.

    Output dims are ceil(dim / 2); constant images stay constant exactly.
    """
    if image.width < 2 or image.height < 2:
        raise ImageTooSmallError(
            f"cannot downsample a {image.width}x{image.height} image")
    shape = image.shape
    a = ndimage.correlate1d(image.pixels, _BINOMIAL5, axis=0, mode="nearest",
                            output=np.empty(shape))
    a = ndimage.correlate1d(a, _BINOMIAL5, axis=1, mode="nearest",
                            output=np.empty(shape))
    return GrayImage(a[::2, ::2])


# ---------------------------------------------------------------------------
# Sequences


def _checked_fields(n_frames: int, pixel_spacing_mm, reference_frame,
                    landmarks) -> tuple[int, tuple[tuple[Landmark, ...], ...] | None]:
    """Check a sequence's fields other than the frames themselves; returns
    the reference frame as a Python int and the landmarks as tuples (or
    None)."""
    if n_frames < 1:
        raise ManifestError("sequence must contain at least one frame")
    if not (math.isfinite(pixel_spacing_mm) and pixel_spacing_mm > 0):
        raise ManifestError("pixel_spacing_mm must be finite and > 0")
    if (isinstance(reference_frame, bool)
            or not hasattr(type(reference_frame), "__index__")):
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


@dataclass(frozen=True, eq=False)
class FrameSequence:
    """In-memory frame sequence: what trackers and the harness operate on.

    Every frame has the same shape, ``pixel_spacing_mm`` is > 0 and
    ``reference_frame`` indexes a frame. ``landmarks``, when given, holds one
    tuple of annotations per frame, the same number in each (ground truth
    when the sequence came from the synthesizer). On disk a sequence is
    numbered PGM files plus a manifest JSON, written by
    :func:`write_sequence` and read by :func:`load_sequence`.
    """

    frames: tuple[GrayImage, ...]
    pixel_spacing_mm: float = 1.0
    landmarks: tuple[tuple[Landmark, ...], ...] | None = None
    reference_frame: int = 0

    def __post_init__(self):
        frames = tuple(self.frames)
        ref, marks = _checked_fields(len(frames), self.pixel_spacing_mm,
                                     self.reference_frame, self.landmarks)
        object.__setattr__(self, "frames", frames)
        object.__setattr__(self, "reference_frame", ref)
        object.__setattr__(self, "landmarks", marks)
        shape = frames[0].shape
        for i, frame in enumerate(frames):
            if frame.shape != shape:
                raise DimensionMismatchError(
                    f"frame {i} has shape {frame.shape}, frame 0 has {shape}")

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
    directory unless absolute. The manifest text is built before any file
    is written, so a sequence it cannot hold leaves no partial output.
    """
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
    for name, frame in zip(names, sequence.frames):
        save_pgm(frame, os.path.join(directory, name))
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


def load_sequence(manifest_path) -> FrameSequence:
    """Read a sequence written by :func:`write_sequence`.

    Every manifest field is checked, ``reference_frame`` as a JSON integer,
    before any frame is read; a malformed manifest raises ManifestError.
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
    return FrameSequence(
        frames=tuple(load_pgm(os.path.join(base, p)) for p in paths),
        pixel_spacing_mm=spacing, landmarks=marks, reference_frame=ref)
