"""Full-reference similarity metrics for grayscale image pairs.

Six metrics share one calling convention: ``metric(ref, test, params)`` returns
a SimilarityScore. Intensities are nominally [0, 255]; the stabilizing
constants scale with the declared dynamic range, not with the data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from numbers import Real

import numpy as np
from scipy import ndimage

from .errors import (
    ConstantSeriesError,
    DegenerateReferenceError,
    ImageTooSmallError,
    InvalidParamsError,
)
from .image import GrayImage, downsample2, require_same_shape
from .pyramid import PyramidParams, decompose

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


# ---------------------------------------------------------------------------
# Shared local-statistics plumbing


def _gauss1d(size: int, sigma: float) -> np.ndarray:
    r = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(r * r) / (2.0 * sigma * sigma))
    return g / g.sum()


def _valid_smooth(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Separable correlation, cropped to windows fully inside the image."""
    r = kernel.size // 2
    out = ndimage.correlate1d(arr, kernel, axis=0, mode="constant")
    out = ndimage.correlate1d(out, kernel, axis=1, mode="constant")
    return out[r:arr.shape[0] - r, r:arr.shape[1] - r]


def _local_moments(x, y, kernel):
    """Weighted means, variances, and covariance over valid windows."""
    smooth = lambda a: _valid_smooth(a, kernel)
    mx = smooth(x)
    my = smooth(y)
    sxx = smooth(x * x) - mx * mx
    syy = smooth(y * y) - my * my
    sxy = smooth(x * y) - mx * my
    return mx, my, sxx, syy, sxy


def _powered(term: np.ndarray, exponent: float):
    if exponent == 1.0:
        return term
    if float(exponent).is_integer():
        return term ** int(exponent)
    return np.clip(term, 0.0, None) ** exponent


def _ssim_terms(x, y, params: SsimParams):
    """Luminance, contrast, and structure maps over valid window centers."""
    kernel = _gauss1d(params.window_size, params.window_sigma)
    mx, my, sxx, syy, sxy = _local_moments(x, y, kernel)
    c1 = (params.k1 * params.dynamic_range) ** 2
    c2 = (params.k2 * params.dynamic_range) ** 2
    c3 = c2 / 2.0
    sx = np.sqrt(np.clip(sxx, 0.0, None))
    sy = np.sqrt(np.clip(syy, 0.0, None))
    lterm = (2.0 * mx * my + c1) / (mx * mx + my * my + c1)
    cterm = (2.0 * sx * sy + c2) / (sxx + syy + c2)
    sterm = (sxy + c3) / (sx * sy + c3)
    return lterm, cterm, sterm


def _require_window_fits(image: GrayImage, need: int, what: str) -> None:
    if min(image.height, image.width) < need:
        raise ImageTooSmallError(
            f"{image.width}x{image.height} image is too small for {what}; "
            f"min dimension is {need}")


# ---------------------------------------------------------------------------
# Metrics


def mse(ref: GrayImage, test: GrayImage) -> SimilarityScore:
    """Mean squared intensity difference."""
    require_same_shape(ref, test)
    diff = ref.pixels - test.pixels
    return SimilarityScore("mse", float(np.mean(diff * diff)))


def psnr(ref: GrayImage, test: GrayImage,
         peakval: float = 255.0) -> SimilarityScore:
    """Peak signal-to-noise ratio in dB against a fixed peak intensity.

    A zero-MSE pair returns the +inf sentinel so traces that include the
    reference frame itself stay well-defined; normalize_series maps the
    sentinel back onto the finite maximum.
    """
    if peakval <= 0:
        raise InvalidParamsError("peakval must be positive")
    err = mse(ref, test).value
    if err == 0.0:
        return SimilarityScore("psnr", math.inf)
    return SimilarityScore("psnr", 10.0 * math.log10(peakval ** 2 / err))


def ssim(ref: GrayImage, test: GrayImage,
         params: SsimParams | None = None) -> SimilarityScore:
    """Mean of the local luminance/contrast/structure product map."""
    params = params if params is not None else SsimParams()
    require_same_shape(ref, test)
    _require_window_fits(ref, params.window_size, "the similarity window")
    lterm, cterm, sterm = _ssim_terms(ref.pixels, test.pixels, params)
    smap = _powered(lterm, params.alpha) * (
        _powered(cterm, params.beta) * _powered(sterm, params.gamma))
    return SimilarityScore("ssim", float(smap.mean()), smap)


def ms_ssim(ref: GrayImage, test: GrayImage,
            params: MsSsimParams | None = None) -> SimilarityScore:
    """Product over scales of weighted contrast-structure means.

    Scales walk from the input resolution down by factor-2 decimation;
    luminance enters only at the coarsest scale. Per-scale means are
    clamped at zero before the fractional exponents are applied. The
    base alpha/beta/gamma exponents are ignored here: the per-scale
    weights are the exponents.
    """
    params = params if params is not None else MsSsimParams()
    require_same_shape(ref, test)
    need = params.base.window_size * 2 ** (params.scales - 1)
    _require_window_fits(ref, need, f"{params.scales} scales")
    value = 1.0
    x, y = ref, test
    for m, weight in enumerate(params.weights):
        lterm, cterm, sterm = _ssim_terms(x.pixels, y.pixels, params.base)
        cs = cterm * sterm
        scale_map = lterm * cs if m == params.scales - 1 else cs
        mean = float(scale_map.mean())
        value *= max(mean, 0.0) ** weight
        if m < params.scales - 1:
            x = downsample2(x)
            y = downsample2(y)
    return SimilarityScore("msssim", value)


def _window_sums(arr: np.ndarray, size: int) -> np.ndarray:
    """Plain box sums over all size x size windows that fit."""
    ones = np.ones(size, dtype=np.float64)
    return _valid_smooth(arr, ones)


def cw_ssim(ref: GrayImage, test: GrayImage,
            params: CwSsimParams | None = None) -> SimilarityScore:
    """Windowed complex-coefficient similarity, pooled across subbands.

    Every oriented subband of both decompositions contributes one score per
    window position; the value is the unweighted mean over all of them
    (residual bands excluded). Magnitude terms use products with conjugates
    rather than abs() so an identical pair scores exactly 1. The returned
    map is the orientation average over the finest level.
    """
    params = params if params is not None else CwSsimParams()
    require_same_shape(ref, test)
    pyr_ref = decompose(ref, params.pyramid)
    pyr_test = decompose(test, params.pyramid)
    size = params.window_size
    k = params.k_stab
    total = 0.0
    count = 0
    finest = []
    for band_ref, band_test in zip(pyr_ref.subbands, pyr_test.subbands):
        wx = band_ref.coeffs
        wy = band_test.coeffs
        if min(wx.shape) < size:
            raise ImageTooSmallError(
                f"coefficient grid {wx.shape} is smaller than the "
                f"{size}x{size} window; reduce levels or window_size")
        cross = wx * np.conj(wy)
        power_x = wx.real ** 2 + wx.imag ** 2
        power_y = wy.real ** 2 + wy.imag ** 2
        num = 2.0 * np.hypot(_window_sums(cross.real, size),
                             _window_sums(cross.imag, size)) + k
        den = _window_sums(power_x, size) + _window_sums(power_y, size) + k
        smap = num / den
        total += float(smap.sum())
        count += smap.size
        if band_ref.level == 0:
            finest.append(smap)
    return SimilarityScore("cwssim", total / count,
                           np.mean(finest, axis=0))


_VIF_EPS = 1e-10
_VIF_DEGENERATE = 1e-4


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
    params = params if params is not None else VifParams()
    require_same_shape(ref, test)
    need = params.block_size * 2 ** (params.scales - 1)
    _require_window_fits(ref, need, f"{params.scales} channels")
    kernel = _gauss1d(params.block_size, params.block_size / 5.0)
    x = ref.pixels
    y = test.pixels
    numerator = 0.0
    denominator = 0.0
    for scale in range(params.scales):
        if scale > 0:
            x = _decimate2(x, kernel)
            y = _decimate2(y, kernel)
        _, _, sxx, syy, sxy = _local_moments(x, y, kernel)
        sxx = np.clip(sxx, 0.0, None)
        syy = np.clip(syy, 0.0, None)
        gain = np.clip(sxy / (sxx + _VIF_EPS), 0.0, None)
        resid = np.clip(syy - gain * sxy, _VIF_EPS, None)
        numerator += float(np.sum(np.log2(
            1.0 + gain * gain * sxx / (resid + params.sigma_n2))))
        denominator += float(np.sum(np.log2(1.0 + sxx / params.sigma_n2)))
    if denominator < _VIF_DEGENERATE:
        raise DegenerateReferenceError(
            "reference image has no usable local variance")
    return SimilarityScore("vif", numerator / denominator)


def _decimate2(arr: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    out = ndimage.correlate1d(arr, kernel, axis=0, mode="nearest")
    out = ndimage.correlate1d(out, kernel, axis=1, mode="nearest")
    return out[::2, ::2]


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


def compute_metric(name: str, ref: GrayImage, test: GrayImage,
                   params=None) -> SimilarityScore:
    """Evaluate a metric by registry id; params must match the metric."""
    try:
        fn = METRICS[name]
    except KeyError:
        raise InvalidParamsError(
            f"unknown metric {name!r}; choose from {sorted(METRICS)}")
    if params is None:
        return fn(ref, test)
    expected = PARAMS_CLASSES[name]
    if expected is None or not isinstance(params, expected):
        wanted = "no params" if expected is None else expected.__name__
        raise InvalidParamsError(
            f"{name} takes {wanted}, got {type(params).__name__}")
    return fn(ref, test, params)
