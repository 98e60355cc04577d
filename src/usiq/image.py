"""Grayscale raster primitives: PGM I/O, ROI cropping, resampling, sequences.

Images are immutable 2-D float64 grids in row-major order with a nominal
[0, 255] intensity range. All coordinates are (x, y) with x indexing columns
and y indexing rows; fractional coordinates are allowed everywhere and are
resolved to the pixel grid by half-away-from-zero rounding.
"""

from __future__ import annotations

import json
import math
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
    "SequenceManifest",
    "crop",
    "downsample2",
    "load_manifest",
    "load_pgm",
    "load_sequence",
    "save_manifest",
    "save_pgm",
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
    quantized[quantized > 255.0] = 255.0
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
    a = ndimage.correlate1d(image.pixels, _BINOMIAL5, axis=0, mode="nearest")
    a = ndimage.correlate1d(a, _BINOMIAL5, axis=1, mode="nearest")
    return GrayImage(a[::2, ::2])


# ---------------------------------------------------------------------------
# Sequences


def _checked_landmarks(landmarks, n_frames: int
                       ) -> tuple[tuple[Landmark, ...], ...]:
    """Per-frame landmarks as tuples: one entry per frame, each with the same
    number of landmarks."""
    marks = tuple(tuple(per_frame) for per_frame in landmarks)
    if len(marks) != n_frames:
        raise ManifestError("landmarks must list one entry per frame")
    if len({len(per_frame) for per_frame in marks}) > 1:
        raise ManifestError("landmark count must not vary across frames")
    return marks


@dataclass(frozen=True)
class SequenceManifest:
    """On-disk description of a frame sequence.

    JSON schema::

        {"frames": [...paths...], "pixel_spacing_mm": float,
         "reference_frame": int,
         "landmarks": [[{"x": .., "y": ..}, ...] per frame] | null}

    Frame paths are interpreted relative to the manifest's directory unless
    absolute.
    """

    frame_paths: tuple[str, ...]
    pixel_spacing_mm: float = 1.0
    landmarks: tuple[tuple[Landmark, ...], ...] | None = None
    reference_frame: int = 0

    def __post_init__(self):
        object.__setattr__(self, "frame_paths", tuple(self.frame_paths))
        if not self.frame_paths:
            raise ManifestError("manifest must list at least one frame")
        if not self.pixel_spacing_mm > 0:
            raise ManifestError("pixel_spacing_mm must be > 0")
        if not 0 <= self.reference_frame < len(self.frame_paths):
            raise ManifestError(
                f"reference_frame {self.reference_frame} outside "
                f"[0, {len(self.frame_paths)})")
        if self.landmarks is not None:
            object.__setattr__(self, "landmarks", _checked_landmarks(
                self.landmarks, len(self.frame_paths)))

    def to_json_dict(self) -> dict:
        marks = None
        if self.landmarks is not None:
            marks = [[{"x": lm.x, "y": lm.y} for lm in per_frame]
                     for per_frame in self.landmarks]
        return {
            "frames": list(self.frame_paths),
            "pixel_spacing_mm": self.pixel_spacing_mm,
            "reference_frame": self.reference_frame,
            "landmarks": marks,
        }

    @classmethod
    def from_json_dict(cls, obj) -> "SequenceManifest":
        if not isinstance(obj, dict):
            raise ManifestError("manifest root must be a JSON object")
        try:
            frames = obj["frames"]
        except KeyError:
            raise ManifestError("manifest is missing the 'frames' list") from None
        if (not isinstance(frames, list)
                or not all(isinstance(p, str) for p in frames)):
            raise ManifestError("'frames' must be a list of path strings")
        marks = obj.get("landmarks")
        parsed_marks = None
        if marks is not None:
            try:
                parsed_marks = tuple(
                    tuple(Landmark(float(lm["x"]), float(lm["y"]))
                          for lm in per_frame)
                    for per_frame in marks)
            except (TypeError, KeyError, ValueError):
                raise ManifestError(
                    "'landmarks' must be per-frame lists of {x, y} objects"
                ) from None
        try:
            spacing = float(obj.get("pixel_spacing_mm", 1.0))
            ref = int(obj.get("reference_frame", 0))
        except (TypeError, ValueError):
            raise ManifestError("malformed scalar field in manifest") from None
        return cls(frame_paths=tuple(frames), pixel_spacing_mm=spacing,
                   landmarks=parsed_marks, reference_frame=ref)


def save_manifest(manifest: SequenceManifest, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest.to_json_dict(), fh, indent=2)
        fh.write("\n")


def load_manifest(path) -> SequenceManifest:
    with open(path, "r", encoding="ascii") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ManifestError(f"manifest is not valid JSON: {exc}") from None
    return SequenceManifest.from_json_dict(obj)


@dataclass(frozen=True, eq=False)
class FrameSequence:
    """In-memory frame sequence: what trackers and the harness operate on.

    ``landmarks`` carries per-frame annotations (ground truth when the
    sequence came from the synthesizer). The on-disk twin of this type is
    :class:`SequenceManifest` plus numbered PGM files.
    """

    frames: tuple[GrayImage, ...]
    pixel_spacing_mm: float = 1.0
    landmarks: tuple[tuple[Landmark, ...], ...] | None = None
    reference_frame: int = 0

    def __post_init__(self):
        frames = tuple(self.frames)
        if not frames:
            raise ManifestError("sequence must contain at least one frame")
        shape = frames[0].shape
        for i, frame in enumerate(frames):
            if frame.shape != shape:
                raise DimensionMismatchError(
                    f"frame {i} has shape {frame.shape}, frame 0 has {shape}")
        if not self.pixel_spacing_mm > 0:
            raise ManifestError("pixel_spacing_mm must be > 0")
        if not 0 <= self.reference_frame < len(frames):
            raise ManifestError("reference_frame outside the sequence")
        object.__setattr__(self, "frames", frames)
        if self.landmarks is not None:
            object.__setattr__(self, "landmarks", _checked_landmarks(
                self.landmarks, len(frames)))

    def __len__(self) -> int:
        return len(self.frames)

    @classmethod
    def from_manifest(cls, manifest: SequenceManifest, base_dir=".") -> "FrameSequence":
        frames = []
        for rel in manifest.frame_paths:
            path = rel if os.path.isabs(rel) else os.path.join(base_dir, rel)
            frames.append(load_pgm(path))
        return cls(frames=tuple(frames),
                   pixel_spacing_mm=manifest.pixel_spacing_mm,
                   landmarks=manifest.landmarks,
                   reference_frame=manifest.reference_frame)


def load_sequence(manifest_path) -> FrameSequence:
    """Load a manifest JSON and every frame it references."""
    manifest = load_manifest(manifest_path)
    return FrameSequence.from_manifest(manifest, os.path.dirname(
        os.path.abspath(manifest_path)))
