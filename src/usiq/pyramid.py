"""Complex steerable pyramid built in the frequency domain.

The fftshifted 2-D DFT is split by raised-cosine radial masks (one-octave
transitions, so each dyadic spectrum crop is alias-free) and by angular masks
``cos^(K-1)(theta - theta_k)`` restricted to a half-plane, which makes every
oriented band analytic (complex). The two-sided (real) angular filter set
tiles each annulus exactly, so summed coefficient energy with oriented bands
counted twice reproduces the input energy; decimated levels carry a
``sqrt(grid_size / input_size)`` factor to keep that accounting flat.

Analysis only; there is no synthesis operation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import ImageTooSmallError, InvalidParamsError
from .image import GrayImage, require_integers

__all__ = [
    "ComplexSubband",
    "Pyramid",
    "PyramidParams",
    "band_energy",
    "band_stack",
    "decompose",
    "min_dimension",
]

MIN_PIXELS_PER_SIDE = 8


@dataclass(frozen=True)
class PyramidParams:
    levels: int = 4
    orientations: int = 6

    def __post_init__(self):
        require_integers(self, "levels", "orientations")
        if self.levels < 1:
            raise InvalidParamsError(f"levels must be >= 1, got {self.levels}")
        if self.orientations < 1:
            raise InvalidParamsError(
                f"orientations must be >= 1, got {self.orientations}")


@dataclass(frozen=True, eq=False)
class ComplexSubband:
    """One oriented analytic band; level 0 is the finest scale."""

    level: int
    orientation: int
    coeffs: np.ndarray  # complex128, read-only


@dataclass(frozen=True, eq=False)
class Pyramid:
    subbands: tuple[ComplexSubband, ...]
    highpass_residual: np.ndarray
    lowpass_residual: np.ndarray
    params: PyramidParams
    source_shape: tuple[int, int]


def min_dimension(params: PyramidParams) -> int:
    """Smallest image side that still leaves the lowpass residual
    MIN_PIXELS_PER_SIDE pixels wide."""
    return MIN_PIXELS_PER_SIDE * (2 ** params.levels)


def _freq_grids(shape):
    """log2 radius and angle on the fftshifted frequency grid (1.0 = Nyquist)."""
    h, w = shape
    fy = (np.arange(h, dtype=np.float64) - h // 2) * (2.0 / h)
    fx = (np.arange(w, dtype=np.float64) - w // 2) * (2.0 / w)
    xx, yy = np.meshgrid(fx, fy)
    rad = np.hypot(xx, yy)
    # keep log2 finite at DC; the value is irrelevant because every bandpass
    # mask vanishes many octaves above it
    rad[h // 2, w // 2] = rad[h // 2, (w // 2) - 1 if w > 1 else 0]
    return np.log2(rad), np.arctan2(yy, xx)


def _radial_pair(log_rad, cutoff):
    """Raised-cosine split at ``cutoff`` octaves: returns (hi, lo) with
    hi^2 + lo^2 = 1, hi = 1 above the cutoff, lo = 1 an octave below it."""
    t = np.clip(log_rad - cutoff, -1.0, 0.0)
    hi = np.cos((np.pi / 2.0) * (-t))
    lo = np.sin((np.pi / 2.0) * (-t))
    return hi, lo


def _angle_masks(angle, n_orient):
    """Half-plane angular masks; the two-sided |cos|^(K-1) set they double
    for satisfies sum_b mask_b^2 == 1 on the full circle."""
    order = n_orient - 1
    const = (4.0 ** order) * (math.factorial(order) ** 2) / (
        n_orient * math.factorial(2 * order))
    root = math.sqrt(const)
    masks = []
    for b in range(n_orient):
        theta = np.mod(angle - np.pi * b / n_orient + np.pi, 2.0 * np.pi) - np.pi
        keep = np.abs(theta) < np.pi / 2.0
        masks.append(root * np.where(keep, np.cos(theta), 0.0) ** order * keep)
    if order == 0:
        # cos^0 does not vanish on the half-plane's edge, the vertical axis,
        # so weight its conjugate pairs 1/sqrt(2) on both sides: doubling
        # then counts each axis point (self-conjugate Nyquist points too)
        # exactly once
        masks[0][np.abs(angle) == np.pi / 2.0] = math.sqrt(0.5)
    return masks


def _crop_slices(shape):
    """Centered dyadic crop of an fftshifted spectrum; sizes halve (ceil)."""
    out = []
    for d in shape:
        size = math.ceil((d - 0.5) / 2)
        start = math.ceil((d + 0.5) / 2) - math.ceil((size + 0.5) / 2)
        out.append(slice(start, start + size))
    return tuple(out)


def _freeze(arr):
    arr.setflags(write=False)
    return arr


class _Level(NamedTuple):
    """Masks of one pyramid level, on that level's spectrum grid."""

    himask: np.ndarray
    shifted_masks: tuple[np.ndarray, ...]  # angle masks, ifftshifted
    keep: tuple[slice, slice]  # dyadic crop down to the next level's grid
    lomask: np.ndarray  # applied on the cropped grid

    @property
    def angle_masks(self) -> tuple[np.ndarray, ...]:
        """The angle masks on the centred grid; the plan holds them once,
        shifted (both layouts took 4 MB more for a 256x256 plan)."""
        return tuple(_freeze(np.fft.fftshift(m)) for m in self.shifted_masks)


class _Plan(NamedTuple):
    hi0: np.ndarray
    lo0: np.ndarray
    levels: tuple[_Level, ...]


@functools.lru_cache(maxsize=16)
def _plan(shape: tuple[int, int], levels: int, orientations: int) -> _Plan:
    """Every mask ``decompose`` applies to a ``shape`` spectrum, read-only.

    The masks depend on nothing but the grid and the pyramid shape, so
    repeated decompositions of same-sized images share one plan.
    """
    log_rad, angle = _freq_grids(shape)
    hi0, lo0 = _radial_pair(log_rad, 0.0)
    out = []
    cutoff = 0.0
    for _ in range(levels):
        cutoff -= 1.0
        himask, _ = _radial_pair(log_rad, cutoff)
        shifted = tuple(_freeze(_ifftshift(m))
                        for m in _angle_masks(angle, orientations))
        keep = _crop_slices(log_rad.shape)
        log_rad = log_rad[keep]
        angle = angle[keep]
        _, lomask = _radial_pair(log_rad, cutoff)
        out.append(_Level(_freeze(himask), shifted, keep, _freeze(lomask)))
    return _Plan(_freeze(hi0), _freeze(lo0), tuple(out))


def _spectrum(pixels: np.ndarray, params: PyramidParams):
    """Centred 2-D DFT of every image in a ``(..., h, w)`` stack, and the
    plan of its grid."""
    dft = np.fft.fftshift(np.fft.fft2(pixels), axes=(-2, -1))
    return dft, _plan(dft.shape[-2:], params.levels, params.orientations)


def _bands(lodft: np.ndarray, plan: _Plan, orientations: int):
    """Yield the oriented bands of a stack of centred lowpass spectra
    ``dft * plan.lo0``, in ``Pyramid.subbands`` order, each
    ``(..., h_level, w_level)``. Returns the lowpass spectrum left after the
    last level.

    One band is made at a time. Each level's ``radial`` spectrum is shifted
    once and multiplied by the plan's shifted masks, and it is dropped
    before the level's last band is handed out.
    """
    size = lodft.shape[-2] * lodft.shape[-1]
    phase = (-1j) ** (orientations - 1)
    for masks in plan.levels:
        factor = math.sqrt(lodft.shape[-2] * lodft.shape[-1] / size)
        radial = phase * lodft
        radial *= masks.himask
        lodft = lodft[(..., *masks.keep)] * masks.lomask
        radial = _ifftshift(radial)
        *rest, last = masks.shifted_masks
        for amask in rest:
            yield _band(radial * amask, factor)
        spectrum = radial * last
        del radial
        yield _band(spectrum, factor)
    return lodft


def _ifftshift(spectrum: np.ndarray) -> np.ndarray:
    return np.fft.ifftshift(spectrum, axes=(-2, -1))


def _band(spectrum: np.ndarray, factor: float) -> np.ndarray:
    """The band of a shifted spectrum, scaled by ``factor``."""
    band = np.fft.ifft2(spectrum)
    band *= factor
    return band


def decompose(image: GrayImage, params: PyramidParams | None = None) -> Pyramid:
    """Analyze ``image`` into oriented complex subbands plus residuals.

    Level grids halve (ceil) per level starting from the input dims. Raises
    ImageTooSmallError when the lowpass residual would drop below
    MIN_PIXELS_PER_SIDE pixels on either side.
    """
    params = params if params is not None else PyramidParams()
    need = min_dimension(params)
    if min(image.height, image.width) < need:
        raise ImageTooSmallError(
            f"{image.width}x{image.height} image is too small for "
            f"{params.levels} levels; min dimension is {need}")

    dft, plan = _spectrum(image.pixels, params)
    highpass = np.fft.ifft2(np.fft.ifftshift(dft * plan.hi0)).real
    bands = _bands(dft * plan.lo0, plan, params.orientations)
    coeffs = []
    try:
        while True:
            coeffs.append(next(bands))
    except StopIteration as done:
        lodft = done.value
    factor = math.sqrt(lodft.size / dft.size)
    lowpass = np.fft.ifft2(np.fft.ifftshift(lodft)).real * factor

    k = params.orientations
    return Pyramid(subbands=tuple(ComplexSubband(j // k, j % k, _freeze(c))
                                  for j, c in enumerate(coeffs)),
                   highpass_residual=_freeze(highpass),
                   lowpass_residual=_freeze(lowpass),
                   params=params,
                   source_shape=image.pixels.shape)


def band_stack(pixels: np.ndarray, params: PyramidParams) -> Iterator[np.ndarray]:
    """The oriented band coefficients ``decompose`` gives, for every image
    of an ``(n, h, w)`` stack in one pass: an iterator whose band ``j`` is an
    ``(n, h_j, w_j)`` array whose ``[i]`` equals
    ``decompose(image i).subbands[j].coeffs``.

    The forward transform runs here; each band is made only when the
    iterator is advanced, so a consumer that drops band ``j`` before asking
    for band ``j + 1`` holds one band at a time. The bands are writable and
    not shared. No residual is computed and the image size is not checked.
    """
    dft, plan = _spectrum(pixels, params)
    return _bands(dft * plan.lo0, plan, params.orientations)


def band_energy(pyramid: Pyramid) -> float:
    """Total coefficient energy with oriented bands counted two-sided.

    For any input this matches the input's own pixel energy (Parseval), which
    is the invariant the tests pin down.
    """
    e = float(np.sum(pyramid.highpass_residual ** 2))
    e += float(np.sum(pyramid.lowpass_residual ** 2))
    for band in pyramid.subbands:
        e += 2.0 * float(np.sum(np.abs(band.coeffs) ** 2))
    return e
