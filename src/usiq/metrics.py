"""Full-reference similarity metrics for grayscale image pairs.

Six metrics share one calling convention: ``metric(ref, test, params)`` returns
a SimilarityScore. Each is ``prepare(id, ref, params)(test)``: ``prepare`` does
the reference-only work once and returns a scorer, so a fixed reference
compared with many tests is analysed once; ``scorer.values(tests)`` scores
many tests in one call. Intensities are nominally [0, 255]; the stabilizing
constants scale with the declared dynamic range, not with the data.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable, Iterable, NamedTuple

import numpy as np
from scipy import ndimage

from .errors import (
    ConstantSeriesError,
    DegenerateReferenceError,
    ImageTooSmallError,
    InvalidParamsError,
)
from .image import GrayImage, downsample2, require_same_shape
from .pyramid import PyramidParams, band_stack, decompose

__all__ = [
    "METRICS",
    "CwSsimParams",
    "MsSsimParams",
    "SimilarityScore",
    "SsimParams",
    "VifParams",
    "compute_metric",
    "cw_ssim",
    "mse",
    "ms_ssim",
    "normalize_series",
    "prepare",
    "psnr",
    "ssim",
    "vif",
]


# ---------------------------------------------------------------------------
# Parameter bundles


@dataclass(frozen=True)
class SsimParams:
    """Window and stabilizer settings for single-scale structural similarity.

    alpha, beta, gamma weight the luminance, contrast, and structure terms.
    Integer exponents keep the sign of negative terms; fractional exponents
    clamp negatives to zero first so the powers stay real.
    """

    k1: float = 0.01
    k2: float = 0.03
    dynamic_range: float = 255.0
    window_size: int = 11
    window_sigma: float = 1.5
    alpha: float = 1.0
    beta: float = 1.0
    gamma: float = 1.0

    def __post_init__(self):
        if self.k1 <= 0 or self.k2 <= 0:
            raise InvalidParamsError("k1 and k2 must be positive")
        if self.dynamic_range <= 0:
            raise InvalidParamsError("dynamic_range must be positive")
        if self.window_size < 3 or self.window_size % 2 == 0:
            raise InvalidParamsError(
                f"window_size must be odd and >= 3, got {self.window_size}")
        if self.window_sigma <= 0:
            raise InvalidParamsError("window_sigma must be positive")
        for name in ("alpha", "beta", "gamma"):
            if getattr(self, name) <= 0:
                raise InvalidParamsError(f"{name} must be positive")


_DEFAULT_MSSSIM_WEIGHTS = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)


@dataclass(frozen=True)
class MsSsimParams:
    """Multi-scale settings; per-scale weights are the Eq-style exponents.

    Weights are renormalized to sum to exactly 1 at construction (the
    conventional five-scale set sums to 1.0001 as published). The coarsest
    scale's weight doubles as the luminance exponent.
    """

    scales: int = 5
    weights: tuple[float, ...] | None = None
    base: SsimParams = field(default_factory=SsimParams)

    def __post_init__(self):
        if self.scales < 1:
            raise InvalidParamsError("scales must be >= 1")
        weights = self.weights
        if weights is None:
            if self.scales != len(_DEFAULT_MSSSIM_WEIGHTS):
                raise InvalidParamsError(
                    "weights must be given explicitly when scales != "
                    f"{len(_DEFAULT_MSSSIM_WEIGHTS)}")
            weights = _DEFAULT_MSSSIM_WEIGHTS
        weights = tuple(float(w) for w in weights)
        if len(weights) != self.scales:
            raise InvalidParamsError(
                f"need {self.scales} weights, got {len(weights)}")
        if any(not math.isfinite(w) or w <= 0 for w in weights):
            raise InvalidParamsError("weights must be positive and finite")
        total = math.fsum(weights)
        object.__setattr__(self, "weights",
                           tuple(w / total for w in weights))


@dataclass(frozen=True)
class CwSsimParams:
    """Complex-wavelet settings: decomposition shape plus window and K."""

    pyramid: PyramidParams = field(default_factory=PyramidParams)
    window_size: int = 7
    k_stab: float = 0.03

    def __post_init__(self):
        if self.window_size < 1 or self.window_size % 2 == 0:
            raise InvalidParamsError(
                f"window_size must be odd and >= 1, got {self.window_size}")
        if self.k_stab <= 0:
            raise InvalidParamsError("k_stab must be positive")


@dataclass(frozen=True)
class VifParams:
    """Visual-information settings: channel count, block size, HVS noise."""

    sigma_n2: float = 2.0
    scales: int = 4
    block_size: int = 9

    def __post_init__(self):
        if self.sigma_n2 <= 0:
            raise InvalidParamsError("sigma_n2 must be positive")
        if self.scales < 1:
            raise InvalidParamsError("scales must be >= 1")
        if self.block_size < 3 or self.block_size % 2 == 0:
            raise InvalidParamsError(
                f"block_size must be odd and >= 3, got {self.block_size}")


@dataclass(frozen=True, eq=False)
class SimilarityScore:
    """A metric identifier, its scalar value, and an optional local map."""

    metric: str
    value: float
    map: np.ndarray | None = None

    def __post_init__(self):
        if self.metric not in METRICS:
            raise InvalidParamsError(f"unknown metric id {self.metric!r}")
        v = self.value
        if math.isnan(v) or (math.isinf(v) and self.metric != "psnr"):
            raise InvalidParamsError(f"{self.metric} produced {v!r}")
        if self.metric in ("mse", "vif") and v < 0:
            raise InvalidParamsError(f"{self.metric} must be >= 0, got {v}")
        if self.metric in ("ssim", "msssim", "cwssim") and not (
                -1.0 - 1e-6 <= v <= 1.0 + 1e-6):
            raise InvalidParamsError(
                f"{self.metric} must lie in [-1, 1], got {v}")
        if self.map is not None:
            self.map.setflags(write=False)


# Tests per stack of a stacked scorer. CW-SSIM's working memory grows by
# about 1 MB per 65x65 frame in a stack, while its time stops falling at 4
# frames: by then the per-call cost of its many small FFTs is mostly spared.
_STACK_SIZE = 4


class Scorer:
    """What ``prepare`` returns: scores test images against one prepared
    reference.

    ``scorer(test)`` is one SimilarityScore. ``scorer.values(tests)`` equals
    ``tuple(scorer(t).value for t in tests)`` bit for bit and raises the same
    errors. A metric that scores a stack of tests at once (CW-SSIM: one
    pyramid pass per stack) reads ``tests`` lazily, ``_STACK_SIZE`` at a time.
    """

    __slots__ = ("_score", "_score_stack")

    def __init__(self, score: Callable[[GrayImage], SimilarityScore],
                 score_stack: Callable[[list[GrayImage]], list[float]]
                 | None = None):
        self._score = score
        self._score_stack = score_stack

    def __call__(self, test: GrayImage) -> SimilarityScore:
        return self._score(test)

    def values(self, tests: Iterable[GrayImage]) -> tuple[float, ...]:
        if self._score_stack is None:
            return tuple(self._score(test).value for test in tests)
        tests = iter(tests)
        out = []
        while stack := list(itertools.islice(tests, _STACK_SIZE)):
            out.extend(self._score_stack(stack))
        return tuple(out)


# ---------------------------------------------------------------------------
# Shared local-statistics plumbing


def _gauss1d(size: int, sigma: float) -> np.ndarray:
    r = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(r * r) / (2.0 * sigma * sigma))
    return g / g.sum()


def _valid_smooth(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable correlation over the last two axes, cropped to windows
    fully inside the image."""
    r = kernel.size // 2
    # A preallocated output spares correlate1d its dtype-driven allocation.
    out = ndimage.correlate1d(arr, kernel, axis=-2, mode="constant",
                              output=np.empty(arr.shape))
    out = ndimage.correlate1d(out, kernel, axis=-1, mode="constant",
                              output=np.empty(arr.shape))
    return out[..., r:arr.shape[-2] - r, r:arr.shape[-1] - r]


class _Moments(NamedTuple):
    """One image's pixels with their weighted local mean and variance."""

    pixels: np.ndarray
    mean: np.ndarray
    var: np.ndarray


def _moments(x: np.ndarray, kernel: np.ndarray) -> _Moments:
    """Weighted mean and variance over valid windows."""
    mean = _valid_smooth(x, kernel)
    return _Moments(x, mean, _valid_smooth(x * x, kernel) - mean * mean)


def _covariance(a: _Moments, b: _Moments, kernel: np.ndarray) -> np.ndarray:
    """Weighted covariance of two images over valid windows."""
    return _valid_smooth(a.pixels * b.pixels, kernel) - a.mean * b.mean


def _powered(term: np.ndarray, exponent: float):
    if exponent == 1.0:
        return term
    if float(exponent).is_integer():
        return term ** int(exponent)
    return np.clip(term, 0.0, None) ** exponent


def _ssim_side(x: np.ndarray, kernel: np.ndarray):
    """One image's SSIM statistics: local moments and standard deviation."""
    m = _moments(x, kernel)
    return m, np.sqrt(np.clip(m.var, 0.0, None))


def _ssim_terms(ref, test: np.ndarray, kernel, params: SsimParams):
    """Luminance, contrast, and structure maps over valid window centers,
    from the reference's ``_ssim_side`` statistics and the test pixels."""
    (x, sx), (y, sy) = ref, _ssim_side(test, kernel)
    sxy = _covariance(x, y, kernel)
    c1 = (params.k1 * params.dynamic_range) ** 2
    c2 = (params.k2 * params.dynamic_range) ** 2
    c3 = c2 / 2.0
    lterm = (2.0 * x.mean * y.mean + c1) / (
        x.mean * x.mean + y.mean * y.mean + c1)
    cterm = (2.0 * sx * sy + c2) / (x.var + y.var + c2)
    sterm = (sxy + c3) / (sx * sy + c3)
    return lterm, cterm, sterm


def _require_window_fits(image: GrayImage, need: int, what: str) -> None:
    if min(image.height, image.width) < need:
        raise ImageTooSmallError(
            f"{image.width}x{image.height} image is too small for {what}; "
            f"min dimension is {need}")


# ---------------------------------------------------------------------------
# Metrics, one preparer each: ``_prepare_<id>(ref[, params])`` does the
# reference-only work and returns ``score(test) -> SimilarityScore``.


def _prepare_mse(ref: GrayImage) -> Scorer:
    def score(test: GrayImage) -> SimilarityScore:
        require_same_shape(ref, test)
        diff = ref.pixels - test.pixels
        return SimilarityScore("mse", float(np.mean(diff * diff)))
    return Scorer(score)


def _prepare_psnr(ref: GrayImage, peakval: float = 255.0) -> Scorer:
    if peakval <= 0:
        raise InvalidParamsError("peakval must be positive")
    squared_error = _prepare_mse(ref)

    def score(test: GrayImage) -> SimilarityScore:
        err = squared_error(test).value
        if err == 0.0:
            return SimilarityScore("psnr", math.inf)
        return SimilarityScore("psnr", 10.0 * math.log10(peakval ** 2 / err))
    return Scorer(score)


def _prepare_ssim(ref: GrayImage, params: SsimParams | None = None) -> Scorer:
    params = params if params is not None else SsimParams()
    _require_window_fits(ref, params.window_size, "the similarity window")
    kernel = _gauss1d(params.window_size, params.window_sigma)
    x = _ssim_side(ref.pixels, kernel)

    def score(test: GrayImage) -> SimilarityScore:
        require_same_shape(ref, test)
        lterm, cterm, sterm = _ssim_terms(x, test.pixels, kernel, params)
        smap = _powered(lterm, params.alpha) * (
            _powered(cterm, params.beta) * _powered(sterm, params.gamma))
        return SimilarityScore("ssim", float(smap.mean()), smap)
    return Scorer(score)


def _prepare_ms_ssim(ref: GrayImage,
                     params: MsSsimParams | None = None) -> Scorer:
    params = params if params is not None else MsSsimParams()
    need = params.base.window_size * 2 ** (params.scales - 1)
    _require_window_fits(ref, need, f"{params.scales} scales")
    kernel = _gauss1d(params.base.window_size, params.base.window_sigma)
    last = params.scales - 1
    scales = []
    x = ref
    for m in range(params.scales):
        scales.append(_ssim_side(x.pixels, kernel))
        if m < last:
            x = downsample2(x)

    def score(test: GrayImage) -> SimilarityScore:
        require_same_shape(ref, test)
        value = 1.0
        y = test
        for m, (side, weight) in enumerate(zip(scales, params.weights)):
            lterm, cterm, sterm = _ssim_terms(side, y.pixels, kernel,
                                              params.base)
            cs = cterm * sterm
            scale_map = lterm * cs if m == last else cs
            value *= max(float(scale_map.mean()), 0.0) ** weight
            if m < last:
                y = downsample2(y)
        return SimilarityScore("msssim", value)
    return Scorer(score)


def _window_sums(arr: np.ndarray, size: int) -> np.ndarray:
    """Plain box sums over all size x size windows that fit."""
    ones = np.ones(size, dtype=np.float64)
    return _valid_smooth(arr, ones)


def _prepare_cw_ssim(ref: GrayImage,
                     params: CwSsimParams | None = None) -> Scorer:
    params = params if params is not None else CwSsimParams()
    size = params.window_size
    k = params.k_stab
    bands = []  # (level, reference coefficients, their window power sums)
    for band in decompose(ref, params.pyramid).subbands:
        wx = band.coeffs
        if min(wx.shape) < size:
            raise ImageTooSmallError(
                f"coefficient grid {wx.shape} is smaller than the "
                f"{size}x{size} window; reduce levels or window_size")
        power_x = wx.real ** 2 + wx.imag ** 2
        bands.append((band.level, wx, _window_sums(power_x, size)))
    count = sum(sums_x.size for _, _, sums_x in bands)  # windows per test

    def pooled(tests: list[GrayImage]):
        """Each test's value, and the finest level's band maps of them all."""
        for test in tests:
            require_same_shape(ref, test)
        stack = np.stack([test.pixels for test in tests])
        totals = [0.0] * len(tests)
        finest = []
        for (level, wx, sums_x), wy in zip(bands,
                                           band_stack(stack, params.pyramid)):
            cross = wx * np.conj(wy)
            power_y = wy.real ** 2 + wy.imag ** 2
            num = 2.0 * np.hypot(_window_sums(cross.real, size),
                                 _window_sums(cross.imag, size)) + k
            den = sums_x + _window_sums(power_y, size) + k
            smap = num / den
            for i, frame_map in enumerate(smap):
                totals[i] += float(frame_map.sum())
            if level == 0:
                finest.append(smap)
        return [total / count for total in totals], finest

    def score(test: GrayImage) -> SimilarityScore:
        (value,), finest = pooled([test])
        return SimilarityScore("cwssim", value,
                               np.mean([smap[0] for smap in finest], axis=0))

    def score_stack(tests: list[GrayImage]) -> list[float]:
        # checked as SimilarityScore checks score's value, so both raise alike
        return [SimilarityScore("cwssim", value).value
                for value in pooled(tests)[0]]
    return Scorer(score, score_stack)


_VIF_EPS = 1e-10
_VIF_DEGENERATE = 1e-4


def _prepare_vif(ref: GrayImage, params: VifParams | None = None) -> Scorer:
    params = params if params is not None else VifParams()
    need = params.block_size * 2 ** (params.scales - 1)
    _require_window_fits(ref, need, f"{params.scales} channels")
    kernel = _gauss1d(params.block_size, params.block_size / 5.0)
    channels = []  # (reference moments, clipped reference variance)
    denominator = 0.0
    x = ref.pixels
    for scale in range(params.scales):
        if scale > 0:
            x = _decimate2(x, kernel)
        m = _moments(x, kernel)
        sxx = np.clip(m.var, 0.0, None)
        channels.append((m, sxx))
        denominator += float(np.sum(np.log2(1.0 + sxx / params.sigma_n2)))
    if denominator < _VIF_DEGENERATE:
        raise DegenerateReferenceError(
            "reference image has no usable local variance")

    def score(test: GrayImage) -> SimilarityScore:
        require_same_shape(ref, test)
        numerator = 0.0
        y = test.pixels
        for scale, (m, sxx) in enumerate(channels):
            if scale > 0:
                y = _decimate2(y, kernel)
            t = _moments(y, kernel)
            sxy = _covariance(m, t, kernel)
            syy = np.clip(t.var, 0.0, None)
            gain = np.clip(sxy / (sxx + _VIF_EPS), 0.0, None)
            resid = np.clip(syy - gain * sxy, _VIF_EPS, None)
            numerator += float(np.sum(np.log2(
                1.0 + gain * gain * sxx / (resid + params.sigma_n2))))
        return SimilarityScore("vif", numerator / denominator)
    return Scorer(score)


def _decimate2(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    out = ndimage.correlate1d(arr, kernel, axis=0, mode="nearest",
                              output=np.empty(arr.shape))
    out = ndimage.correlate1d(out, kernel, axis=1, mode="nearest",
                              output=np.empty(arr.shape))
    return out[::2, ::2]


# ---------------------------------------------------------------------------
# Public entry points: each is ``prepare(...)(test)``


def mse(ref: GrayImage, test: GrayImage) -> SimilarityScore:
    """Mean squared intensity difference."""
    return prepare("mse", ref)(test)


def psnr(ref: GrayImage, test: GrayImage,
         peakval: float = 255.0) -> SimilarityScore:
    """Peak signal-to-noise ratio in dB against a fixed peak intensity.

    A zero-MSE pair returns the +inf sentinel so traces that include the
    reference frame itself stay well-defined; normalize_series maps the
    sentinel back onto the finite maximum.
    """
    return prepare("psnr", ref, peakval)(test)


def ssim(ref: GrayImage, test: GrayImage,
         params: SsimParams | None = None) -> SimilarityScore:
    """Mean of the local luminance/contrast/structure product map."""
    return prepare("ssim", ref, params)(test)


def ms_ssim(ref: GrayImage, test: GrayImage,
            params: MsSsimParams | None = None) -> SimilarityScore:
    """Product over scales of weighted contrast-structure means.

    Scales walk from the input resolution down by factor-2 decimation;
    luminance enters only at the coarsest scale. Per-scale means are
    clamped at zero before the fractional exponents are applied. The
    base alpha/beta/gamma exponents are ignored here: the per-scale
    weights are the exponents.
    """
    return prepare("msssim", ref, params)(test)


def cw_ssim(ref: GrayImage, test: GrayImage,
            params: CwSsimParams | None = None) -> SimilarityScore:
    """Windowed complex-coefficient similarity, pooled across subbands.

    Every oriented subband of both decompositions contributes one score per
    window position; the value is the unweighted mean over all of them
    (residual bands excluded). Magnitude terms use products with conjugates
    rather than abs() so an identical pair scores exactly 1. The returned
    map is the orientation average over the finest level.
    """
    return prepare("cwssim", ref, params)(test)


def vif(ref: GrayImage, test: GrayImage,
        params: VifParams | None = None) -> SimilarityScore:
    """Ratio of test-image to reference-image information across channels.

    Channels are successively Gaussian-smoothed and 2x-decimated copies of
    the pair. Per block: the reference's local variance acts as the source
    strength, a nonnegative gain maps reference to test, and the gain
    residual plus a fixed observation noise bound what survives. A reference
    without local structure leaves the denominator near zero, which is
    reported as a degenerate-reference error rather than a quotient.
    """
    return prepare("vif", ref, params)(test)


# ---------------------------------------------------------------------------
# Series utilities and registry


def normalize_series(values) -> list[float]:
    """Min-max rescale to [0, 1], mapping +inf sentinels to the finite max."""
    vals = [float(v) for v in values]
    if len(vals) < 2:
        raise InvalidParamsError("series must hold at least two values")
    if any(math.isnan(v) or v == -math.inf for v in vals):
        raise InvalidParamsError("series values must be finite or +inf")
    finite = [v for v in vals if math.isfinite(v)]
    if not finite or max(finite) == min(finite):
        raise ConstantSeriesError(
            "series has no spread, normalization is undefined")
    top = max(finite)
    bot = min(finite)
    span = top - bot
    return [((top if math.isinf(v) else v) - bot) / span for v in vals]


METRICS = {
    "mse": mse,
    "psnr": psnr,
    "ssim": ssim,
    "msssim": ms_ssim,
    "cwssim": cw_ssim,
    "vif": vif,
}

# Type of the params argument each metric takes; None means it takes none.
# psnr's params is its peak value.
PARAMS_CLASSES = {
    "mse": None,
    "psnr": Real,
    "ssim": SsimParams,
    "msssim": MsSsimParams,
    "cwssim": CwSsimParams,
    "vif": VifParams,
}

_PREPARERS = {
    "mse": _prepare_mse,
    "psnr": _prepare_psnr,
    "ssim": _prepare_ssim,
    "msssim": _prepare_ms_ssim,
    "cwssim": _prepare_cw_ssim,
    "vif": _prepare_vif,
}


def prepare(name: str, ref: GrayImage, params=None) -> Scorer:
    """Do a metric's reference-only work once and return ``scorer(test)``.

    ``params`` must match the metric (see PARAMS_CLASSES); None selects its
    defaults. Errors that depend only on the reference and the params (too
    small, degenerate) are raised here; a test of another shape is rejected
    by the scorer. The scorer keeps no state between calls, so reusing it
    over many tests gives the same values as preparing afresh for each.
    """
    try:
        preparer = _PREPARERS[name]
    except KeyError:
        raise InvalidParamsError(
            f"unknown metric {name!r}; choose from {sorted(METRICS)}")
    if params is None:
        return preparer(ref)
    expected = PARAMS_CLASSES[name]
    if expected is None or not isinstance(params, expected):
        wanted = "no params" if expected is None else expected.__name__
        raise InvalidParamsError(
            f"{name} takes {wanted}, got {type(params).__name__}")
    return preparer(ref, params)


def compute_metric(name: str, ref: GrayImage, test: GrayImage,
                   params=None) -> SimilarityScore:
    """Evaluate a metric by registry id: a one-shot ``prepare(...)(test)``."""
    return prepare(name, ref, params)(test)
