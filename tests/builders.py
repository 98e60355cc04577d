"""Input builders shared by several test modules."""

import dataclasses
import json
import os
import tracemalloc

import numpy as np

from usiq import metrics
from usiq.image import FrameSequence, GrayImage, Landmark, Roi
from usiq.metrics import CwSsimParams, MsSsimParams, SsimParams
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


# SSIM and MS-SSIM settings over the defaults (over the manifest trace's
# three MS-SSIM scales on 65x65 crops): each but the 7-pixel SSIM window lets
# SSIM share MS-SSIM's finest terms
SHARED_TERMS_CASES = {
    "defaults": {},
    "ssim-exponents": {"ssim": SsimParams(alpha=2.0, beta=0.5, gamma=3.0)},
    "msssim-one-scale": {"msssim": MsSsimParams(scales=1, weights=(1.0,))},
    "msssim-three-scales": {"msssim": MsSsimParams(
        scales=3, weights=(0.0448, 0.2856, 0.3001))},
    "ssim-window-7": {"ssim": SsimParams(window_size=7)},
}


def shared_terms_params(case, side):
    """The params of a SHARED_TERMS_CASES case for ``side`` x ``side``
    images, 65 (crops) or 256 (frames)."""
    crop = SHARED_TERMS_CASES["msssim-three-scales"] if side == 65 else {}
    return {**crop, **SHARED_TERMS_CASES[case]}


def full_size_terms(monkeypatch, shape):
    """Record the depth of every stack of ``shape`` images whose SSIM terms
    ``metrics._ssim_terms`` forms, for the rest of the test."""
    depths = []
    ssim_terms = metrics._ssim_terms

    def counting(side, tests, kernel, params):
        if tests.shape[1:] == shape:
            depths.append(len(tests))
        return ssim_terms(side, tests, kernel, params)

    monkeypatch.setattr(metrics, "_ssim_terms", counting)
    return depths


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
