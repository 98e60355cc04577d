"""Input builders shared by several test modules."""

import dataclasses
import json
import os
import tracemalloc

import numpy as np

from usiq.image import FrameSequence, GrayImage, Landmark, Roi
from usiq.metrics import CwSsimParams
from usiq.pyramid import PyramidParams
from usiq.synth import (
    Disc,
    PhantomSpec,
    SpeckleSpec,
    benchmark_motion_spec,
    benchmark_phantom_spec,
    make_phantom,
    periodic_sequence,
)
from usiq.tracking import ResetConfig


def bench_sequence(seed, n_frames=90, decoy=False, alpha=0.3):
    """The benchmark's periodic disc sequence, speckled at ``alpha``."""
    return periodic_sequence(benchmark_phantom_spec(decoy=decoy),
                             benchmark_motion_spec(n_frames=n_frames),
                             speckle=SpeckleSpec(alpha=alpha, seed=seed),
                             seed=seed)


def held(seq):
    """``seq`` with its frames held in a tuple, rendered once."""
    return dataclasses.replace(seq, frames=tuple(seq.frames))


def noise_image(seed, shape=(64, 64), low=0.0, high=255.0):
    """Uniform white noise on [low, high)."""
    rng = np.random.default_rng(seed)
    return GrayImage(rng.uniform(low, high, size=shape))


def textured_phantom(size=96, disc=(48.0, 48.0, 9.0), seed=0, sigma=10.0):
    """A square textured phantom with one disc landmark."""
    cx, cy, r = disc
    spec = PhantomSpec(width=size, height=size, background_texture_sigma=sigma,
                       landmarks=(Disc(Landmark(cx, cy), radius=r),))
    return make_phantom(spec, seed=seed)


def static_sequence(image, n, marks):
    """``n`` copies of ``image``, each annotated with ``marks``."""
    return FrameSequence(frames=tuple(image for _ in range(n)),
                         landmarks=tuple(marks for _ in range(n)))


def reset_cfg(**kw):
    """A CW-SSIM reset policy on the benchmark disc's 65x65 window, with a
    3-level, 6-orientation pyramid; ``kw`` sets or overrides fields."""
    args = dict(metric="cwssim",
                metric_params=CwSsimParams(
                    pyramid=PyramidParams(levels=3, orientations=6)),
                similarity_roi=Roi(Landmark(108.0, 128.0), 32, 32))
    args.update(kw)
    return ResetConfig(**args)


def peak_traced_bytes(fn):
    """``fn()``'s result and the peak of the heap traced while it ran, in
    bytes."""
    tracemalloc.start()
    try:
        result = fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


def counted(monkeypatch, owner, name):
    """Count the calls of ``owner.<name>`` for the rest of the test: returns
    a list that gains one entry per call."""
    calls = []
    function = getattr(owner, name)

    def counting(*args, **kwargs):
        calls.append(name)
        return function(*args, **kwargs)

    monkeypatch.setattr(owner, name, counting)
    return calls


def hexed(value):
    """``value`` with every float spelled by ``float.hex``."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, Landmark):
        return [value.x.hex(), value.y.hex()]
    if isinstance(value, tuple):
        return [hexed(v) for v in value]
    return repr(value)


def write_pgm_sequence(directory, magic, maxval, rasters, landmarks=None):
    """Write each integer raster as a PGM of the given magic ("P5" or "P2")
    and ``maxval``, plus a manifest naming them; returns the manifest path.

    Unlike ``write_sequence`` this writes 16-bit and ASCII files too, and
    rasters of differing shapes."""
    names = []
    for t, raster in enumerate(rasters):
        raster = np.asarray(raster)
        height, width = raster.shape
        header = f"{magic}\n{width} {height}\n{maxval}\n".encode("ascii")
        if magic == "P5":
            body = raster.astype(">u2" if maxval > 255 else np.uint8).tobytes()
        else:
            body = "".join(" ".join(map(str, row)) + "\n"
                           for row in raster.tolist()).encode("ascii")
        names.append(f"f{t}.pgm")
        with open(os.path.join(directory, names[-1]), "wb") as fh:
            fh.write(header + body)
    path = os.path.join(directory, "seq.json")
    with open(path, "w", encoding="ascii") as fh:
        json.dump({"frames": names, "landmarks": landmarks}, fh)
    return path
