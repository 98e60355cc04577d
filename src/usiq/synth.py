"""Synthetic benchmark generation: disc phantoms, multiplicative speckle,
and periodic-motion sequences with exact ground-truth landmark tracks.

Noise level is a blend weight on a unit-mean Rayleigh multiplier rather than
a raw Rayleigh scale: the Rayleigh family is closed under scaling, so scale
alone would conflate severity with brightness drift. alpha = 0 leaves the
image untouched, alpha = 1 is fully developed multiplicative speckle, and
expected brightness is preserved at every level in between.

Sub-pixel disc motion is rendered analytically (coverage-weighted edge
pixels), never by resampling a rendered frame, so the recorded tracks are
exact and interpolation artifacts cannot leak into metric traces.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParamsError, OutOfFrameError
from .image import (FrameSequence, GrayImage, Landmark, _is_int,
                    _RenderedFrames, require_integers, require_reals)

__all__ = [
    "Disc",
    "MotionSpec",
    "PhantomSpec",
    "SpeckleSpec",
    "apply_speckle",
    "benchmark_motion_spec",
    "benchmark_phantom_spec",
    "displacement",
    "make_phantom",
    "periodic_sequence",
]


@dataclass(frozen=True)
class Disc:
    """One bright landmark: a filled disc with an anti-aliased rim."""

    center: Landmark
    radius: float
    intensity: float = 200.0

    def __post_init__(self):
        require_reals(self, "radius", "intensity")
        if not (math.isfinite(self.radius) and self.radius > 0):
            raise InvalidParamsError(f"radius must be > 0, got {self.radius}")
        if not (0.0 <= self.intensity <= 255.0):
            raise InvalidParamsError(
                f"intensity must lie in [0, 255], got {self.intensity}")


@dataclass(frozen=True)
class PhantomSpec:
    width: int
    height: int
    background_mean: float = 80.0
    background_texture_sigma: float = 10.0
    landmarks: tuple[Disc, ...] = ()

    def __post_init__(self):
        require_integers(self, "width", "height")
        require_reals(self, "background_mean", "background_texture_sigma")
        if self.width < 1 or self.height < 1:
            raise InvalidParamsError("frame dimensions must be >= 1")
        if not (0.0 <= self.background_mean <= 255.0):
            raise InvalidParamsError("background_mean must lie in [0, 255]")
        if not (math.isfinite(self.background_texture_sigma)
                and self.background_texture_sigma >= 0):
            raise InvalidParamsError(
                "background_texture_sigma must be finite and >= 0")
        object.__setattr__(self, "landmarks", tuple(self.landmarks))


@dataclass(frozen=True)
class SpeckleSpec:
    alpha: float
    seed: int = 0

    def __post_init__(self):
        require_reals(self, "alpha")
        require_integers(self, "seed")
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidParamsError(
                f"alpha must lie in [0, 1], got {self.alpha}")
        if self.seed < 0:
            raise InvalidParamsError("seed must be >= 0")


@dataclass(frozen=True)
class MotionSpec:
    """Sinusoidal landmark displacement along one image axis."""

    amplitude: float
    period: float
    n_frames: int
    phase: float = 0.0
    axis: str = "x"

    def __post_init__(self):
        require_reals(self, "amplitude", "period", "phase")
        require_integers(self, "n_frames")
        if not (math.isfinite(self.amplitude) and self.amplitude >= 0):
            raise InvalidParamsError("amplitude must be >= 0")
        if not (math.isfinite(self.period) and self.period >= 2):
            raise InvalidParamsError(
                f"period must be finite and >= 2 frames, got {self.period}")
        if not math.isfinite(self.phase):
            raise InvalidParamsError(f"phase must be finite, got {self.phase}")
        if self.n_frames < 1:
            raise InvalidParamsError("n_frames must be >= 1")
        if self.axis not in ("x", "y"):
            raise InvalidParamsError(f"axis must be 'x' or 'y', got "
                                     f"{self.axis!r}")


def displacement(motion: MotionSpec, frame: int) -> float:
    """Commanded landmark offset (pixels) at the given frame index."""
    return motion.amplitude * math.sin(
        2.0 * math.pi * frame / motion.period + motion.phase)


def _require_discs_in_frame(spec: PhantomSpec, margin_x: float = 0.0,
                            margin_y: float = 0.0) -> None:
    """A disc plus its motion envelope must stay on pixel centers [0, d-1]."""
    for disc in spec.landmarks:
        x, y, r = disc.center.x, disc.center.y, disc.radius
        if (x - r - margin_x < 0.0 or x + r + margin_x > spec.width - 1.0
                or y - r - margin_y < 0.0
                or y + r + margin_y > spec.height - 1.0):
            raise OutOfFrameError(
                f"disc at ({x}, {y}) radius {r} leaves the "
                f"{spec.width}x{spec.height} frame "
                f"(motion margin {margin_x}, {margin_y})")


def make_phantom(spec: PhantomSpec, seed: int = 0) -> GrayImage:
    """Render the textured background and composite each disc over it.

    Edge pixels blend by coverage clip(radius + 0.5 - distance, 0, 1), which
    makes the rendered centroid track fractional centers.
    """
    _require_discs_in_frame(spec)
    return GrayImage(_draw_discs(_background(spec, seed), spec.landmarks))


def _background(spec: PhantomSpec, seed: int) -> np.ndarray:
    """The spec's background: Gaussian texture from ``seed`` clipped to
    [0, 255], or flat when the texture sigma is 0."""
    if not _is_int(seed) or seed < 0:
        raise InvalidParamsError(f"seed must be an integer >= 0, got {seed!r}")
    if spec.background_texture_sigma > 0:
        rng = np.random.default_rng(seed)
        bg = spec.background_mean + spec.background_texture_sigma * \
            rng.standard_normal((spec.height, spec.width))
        return np.clip(bg, 0.0, 255.0)
    return np.full((spec.height, spec.width), spec.background_mean)


def _draw_discs(background: np.ndarray, discs) -> np.ndarray:
    """Composite ``discs`` over a copy of ``background`` in order, each only
    inside centre +- (radius + 0.5), outside which its coverage is exactly 0;
    returns the composited array."""
    ys, xs = (np.arange(n, dtype=np.float64) for n in background.shape)
    img = background.copy()
    for disc in discs:
        cx, cy, reach = disc.center.x, disc.center.y, disc.radius + 0.5
        rows = slice(max(0, math.floor(cy - reach)), max(0, math.ceil(cy + reach) + 1))
        cols = slice(max(0, math.floor(cx - reach)), max(0, math.ceil(cx + reach) + 1))
        dist = np.hypot(ys[rows, None] - cy, xs[None, cols] - cx)
        cov = np.clip(reach - dist, 0.0, 1.0)
        box = img[rows, cols]
        box[...] = box * (1.0 - cov) + disc.intensity * cov
    return img


def apply_speckle(image: GrayImage, spec: SpeckleSpec) -> GrayImage:
    """Blend a unit-mean Rayleigh multiplier into the image.

    output = clamp(image * ((1 - alpha) + alpha * r), 0, 255) with
    E[r] = 1. alpha = 0 returns the input bit for bit.
    """
    return GrayImage(_speckled(image.pixels, spec))


def _speckled(pixels: np.ndarray, spec: SpeckleSpec) -> np.ndarray:
    """``apply_speckle``'s arithmetic on a pixel array, computed in place in
    the Rayleigh draw's buffer, which is returned; ``pixels`` is only read."""
    rng = np.random.default_rng(spec.seed)
    out = rng.rayleigh(size=pixels.shape)
    out /= math.sqrt(math.pi / 2.0)
    out *= spec.alpha
    out += 1.0 - spec.alpha
    out *= pixels
    return np.clip(out, 0.0, 255.0, out=out)


def _tracks(phantom: PhantomSpec, motion: MotionSpec):
    """The exact disc centers of every frame, from :func:`displacement`
    alone; raises OutOfFrameError first if the motion envelope of a disc
    leaves the frame."""
    margin = motion.amplitude
    _require_discs_in_frame(phantom,
                            margin_x=margin if motion.axis == "x" else 0.0,
                            margin_y=margin if motion.axis == "y" else 0.0)
    tracks = []
    for t in range(motion.n_frames):
        d = displacement(motion, t)
        dx, dy = (d, 0.0) if motion.axis == "x" else (0.0, d)
        tracks.append(tuple(Landmark(disc.center.x + dx, disc.center.y + dy)
                            for disc in phantom.landmarks))
    return tuple(tracks)


def _render(background: np.ndarray, phantom: PhantomSpec, tracks,
            speckle: SpeckleSpec | None, t: int) -> GrayImage:
    """Frame ``t``: ``phantom``'s discs moved to ``tracks[t]`` over
    ``background``, speckled with seed ``speckle.seed + t``."""
    pixels = _draw_discs(background, (
        Disc(c, disc.radius, disc.intensity)
        for c, disc in zip(tracks[t], phantom.landmarks)))
    if speckle is not None:
        pixels = _speckled(pixels, SpeckleSpec(alpha=speckle.alpha,
                                               seed=speckle.seed + t))
    return GrayImage(pixels)


def periodic_sequence(phantom: PhantomSpec, motion: MotionSpec,
                      speckle: SpeckleSpec | None = None, seed: int = 0
                      ) -> FrameSequence:
    """Render frames with sinusoidally displaced discs; frame 0 is the
    reference and the pixel spacing is 1 mm, the :class:`FrameSequence`
    defaults.

    The background texture is drawn once from ``seed``, and every frame
    composites its moved discs over it; speckle, when given, is re-seeded per
    frame as ``speckle.seed + frame`` so consecutive frames carry independent
    noise (decorrelated speckle). The returned sequence embeds the exact
    real-valued disc centers as per-frame landmarks.

    The sequence holds only the background: each frame is rendered when it
    is read, bit for bit the same at every read, so a reader that takes one
    frame at a time holds one float frame. ``tuple(seq.frames)`` holds them
    all.
    """
    tracks = _tracks(phantom, motion)
    render = functools.partial(_render, _background(phantom, seed), phantom,
                               tracks, speckle)
    return FrameSequence(frames=_RenderedFrames(render, len(tracks)),
                         landmarks=tracks)


# Shared benchmark geometry: one bright disc mid-left on a 256x256 textured
# field, swinging 8 px laterally over a 30-frame cycle. The optional decoy is
# an identical disc 100 px to the right moving in lockstep, placed so that a
# +100 px corruption of the tracker state lands exactly on it.


def benchmark_phantom_spec(decoy: bool = False) -> PhantomSpec:
    discs = [Disc(Landmark(100.0, 128.0), radius=10.0, intensity=200.0)]
    if decoy:
        discs.append(Disc(Landmark(200.0, 128.0), radius=10.0,
                          intensity=200.0))
    return PhantomSpec(width=256, height=256, background_mean=80.0,
                       background_texture_sigma=10.0, landmarks=tuple(discs))


def benchmark_motion_spec(n_frames: int = 90) -> MotionSpec:
    return MotionSpec(amplitude=8.0, period=30.0, n_frames=n_frames,
                      phase=math.pi / 2.0, axis="x")
