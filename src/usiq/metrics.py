"""Full-reference similarity metrics for grayscale image pairs.

Six metrics share one calling convention: ``metric(ref, test, params)`` returns
a SimilarityScore. Each is ``prepare(id, ref, params)(test)``: ``prepare`` does
the reference-only work once and returns a :class:`Scorer`, which checks and
stacks the tests, so a fixed reference compared with many tests is analysed
once; ``scorer.values(tests)`` scores many tests in one call, and a Scorer of
several metrics scores one reference with each of them. Intensities are
nominally [0, 255]; the stabilizing constants scale with the declared dynamic
range, not with the data.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from numbers import Real
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .errors import (
    ConstantSeriesError,
    DegenerateReferenceError,
    ImageTooSmallError,
    InvalidParamsError,
)
from .image import (
    _BINOMIAL5,
    GrayImage,
    _correlate_separable,
    _decimate2,
    _is_real,
    require_integers,
    require_real_items,
    require_reals,
    require_same_shape,
)
from .pyramid import PyramidParams, band_stack, decompose

__all__ = [
    "METRICS",
    "CwSsimParams",
    "MsSsimParams",
    "SimilarityScore",
    "SsimParams",
    "VifParams",
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
        require_integers(self, "window_size")
        require_reals(self, "k1", "k2", "dynamic_range", "window_sigma",
                      "alpha", "beta", "gamma")
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
        require_integers(self, "scales")
        if self.scales < 1:
            raise InvalidParamsError("scales must be >= 1")
        if self.weights is None:
            if self.scales != len(_DEFAULT_MSSSIM_WEIGHTS):
                raise InvalidParamsError(
                    "weights must be given explicitly when scales != "
                    f"{len(_DEFAULT_MSSSIM_WEIGHTS)}")
            object.__setattr__(self, "weights", _DEFAULT_MSSSIM_WEIGHTS)
        weights = tuple(float(w) for w in require_real_items(self, "weights"))
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
        require_integers(self, "window_size")
        require_reals(self, "k_stab")
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
        require_integers(self, "scales", "block_size")
        require_reals(self, "sigma_n2")
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
        entry = METRICS[self.metric]
        if not (math.isfinite(v) or v == entry.identity):
            raise InvalidParamsError(f"{self.metric} produced {v!r}")
        low, high = entry.value_range
        # a bound is met up to a relative rounding of 1e-6
        if not low - 1e-6 * abs(low) <= v <= high + 1e-6 * abs(high):
            raise InvalidParamsError(
                f"{self.metric} must lie in [{low}, {high}], got {v}")
        if self.map is not None:
            self.map.setflags(write=False)


# Pixels per stack of a stacked scorer. CW-SSIM's working memory grows by
# about 0.27 MB per 65x65 frame in a stack (1.6 MB for four), while its time
# stops falling at 4 such frames: by then the per-call cost of its many
# small FFTs is mostly spared. MS-SSIM and VIF, which pay numpy's per-call
# cost at every scale, take a third less time in stacks of four 65x65
# frames. Frames of more than a quarter of this budget are scored one at a
# time: a stack of 256x256 frames saves no time.
_STACK_PIXELS = 4 * 65 * 65

# The SsimParams fields that set the (luminance, contrast, structure) terms;
# the exponents only weight them.
_TERM_FIELDS = ("k1", "k2", "dynamic_range", "window_size", "window_sigma")


class Scorer:
    """Scores test images against one reference with each metric of
    ``names``; ``params`` maps an id to its params (absent: the defaults).

    Every metric is prepared here, in name order, before any test is scored.
    ``columns(tests)`` reads ``tests`` lazily, ``stack_size`` at a time (as
    many as fit ``_STACK_PIXELS``, and at least one), checks each test's
    shape and passes the stack's ``(n, h, w)`` pixels to each metric's
    ``scores(pixels, maps)``, which returns the n values and, only if
    ``maps``, one map per test (else None). Each value becomes a
    SimilarityScore here alone. Each column equals the metric's own
    ``values`` bit for bit: PSNR maps MSE's values when both are asked for,
    and SSIM's maps come from MS-SSIM's finest terms when SSIM's window and
    stabilizers are MS-SSIM's base ones. ``prepare`` returns the one-metric
    Scorer, whose ``values(tests)`` is its column and equals
    ``tuple(scorer(t).value for t in tests)`` bit for bit with the same
    errors; ``scorer(test)`` is the one-test stack, with its map.
    """

    __slots__ = ("_scores", "_ref", "_stack_size", "_mse_psnr", "_ssim")

    def __init__(self, names, ref: GrayImage, params: dict):
        self._scores = {name: _prepared(name, ref, params.get(name))
                        for name in names}
        self._ref = ref
        self._stack_size = max(1, _STACK_PIXELS // ref.pixels.size)
        self._mse_psnr = {"mse", "psnr"} <= self._scores.keys()
        # SSIM's params when its maps come from MS-SSIM's finest terms
        self._ssim = None
        if {"ssim", "msssim"} <= self._scores.keys():
            ssim = params.get("ssim") or SsimParams()
            base = (params.get("msssim") or MsSsimParams()).base
            if all(getattr(ssim, f) == getattr(base, f) for f in _TERM_FIELDS):
                self._ssim = ssim

    @property
    def stack_size(self) -> int:
        return self._stack_size

    def _scored(self, tests: list[GrayImage],
                maps: bool) -> list[list[SimilarityScore]]:
        y = _test_stack(self._ref, tests)
        got = {}
        if self._mse_psnr:
            errs, _ = got["mse"] = self._scores["mse"](y, False)
            got["psnr"] = self._scores["psnr"](y, False, errs)
        if self._ssim is not None:
            def finest(terms):
                smaps = _ssim_maps(terms, self._ssim)
                got["ssim"] = (smaps.mean(axis=(-2, -1)),
                               smaps if maps else None)
            got["msssim"] = self._scores["msssim"](y, maps, finest)
        scored = []
        for name, scores in self._scores.items():
            values, smaps = got[name] if name in got else scores(y, maps)
            scored.append([SimilarityScore(name, float(value),
                                           None if smaps is None else smaps[i])
                           for i, value in enumerate(values)])
        return scored

    def __call__(self, test: GrayImage) -> SimilarityScore:
        ((score,),) = self._scored([test], True)
        return score

    def columns(self, tests: Iterable[GrayImage]) -> list[tuple[float, ...]]:
        tests = iter(tests)
        out = [[] for _ in self._scores]
        while stack := list(itertools.islice(tests, self._stack_size)):
            scored = self._scored(stack, False)
            del stack  # the views are dropped before the next stack is read
            for column, scores in zip(out, scored):
                column.extend(score.value for score in scores)
        return [tuple(column) for column in out]

    def values(self, tests: Iterable[GrayImage]) -> tuple[float, ...]:
        (column,) = self.columns(tests)
        return column


def _test_stack(ref: GrayImage, tests: list[GrayImage]) -> np.ndarray:
    """The tests' pixels as one array, once each matches the reference."""
    for test in tests:
        require_same_shape(ref, test)
    return np.stack([test.pixels for test in tests])


# ---------------------------------------------------------------------------
# Shared local-statistics plumbing


def _gauss1d(size: int, sigma: float) -> np.ndarray:
    r = np.arange(size, dtype=np.float64) - (size - 1) / 2.0
    g = np.exp(-(r * r) / (2.0 * sigma * sigma))
    return g / g.sum()


class _Moments(NamedTuple):
    """One image's pixels with their weighted local mean and variance."""

    pixels: np.ndarray
    mean: np.ndarray
    var: np.ndarray


def _moments(x: np.ndarray, kernel: np.ndarray) -> _Moments:
    """Weighted mean and variance over valid windows."""
    mean = _correlate_separable(x, kernel)
    return _Moments(x, mean,
                    _correlate_separable(x * x, kernel) - mean * mean)


def _test_moments(x: _Moments, y: np.ndarray,
                  kernel: np.ndarray) -> tuple[_Moments, np.ndarray]:
    """A stack of tests' ``_moments`` and their weighted covariance with the
    reference ``x``, from one smoothing pass over the planes (y, y², x·y);
    the variance and covariance are formed in the smoothed planes."""
    planes = np.empty((3, *y.shape))
    planes[0] = y
    np.multiply(y, y, out=planes[1])
    np.multiply(x.pixels, y, out=planes[2])
    mean, var, cov = _correlate_separable(planes, kernel)
    product = mean * mean
    var -= product
    np.multiply(x.mean, mean, out=product)
    cov -= product
    return _Moments(y, mean, var), cov


def _powered(term: np.ndarray, exponent: float):
    if exponent == 1.0:
        return term
    if float(exponent).is_integer():
        return term ** int(exponent)
    return np.maximum(term, 0.0) ** exponent


class _SsimSide(NamedTuple):
    """A reference's SSIM statistics, with the products of them that the
    terms of every test reuse."""

    moments: _Moments
    sd: np.ndarray  # σx
    two_mean: np.ndarray  # 2·μx
    mean_sq: np.ndarray  # μx²
    two_sd: np.ndarray  # 2·σx


def _ssim_side(x: np.ndarray, kernel: np.ndarray) -> _SsimSide:
    """One image's SSIM statistics: local moments and standard deviation."""
    m = _moments(x, kernel)
    sd = np.sqrt(np.maximum(m.var, 0.0))
    return _SsimSide(m, sd, 2.0 * m.mean, m.mean * m.mean, 2.0 * sd)


def _ssim_terms(ref: _SsimSide, tests: np.ndarray, kernel,
                params: SsimParams):
    """Luminance, contrast, and structure maps over valid window centers,
    from the reference's ``_ssim_side`` statistics and a stack of tests.

    Each map is formed in place, in one of the buffers of the tests'
    moments, with the operations of
    ``(2·μx·μy + c1) / (μx² + μy² + c1)``,
    ``(2·σx·σy + c2) / (σx² + σy² + c2)`` and
    ``(σxy + c3) / (σx·σy + c3)`` in that order.
    """
    y, sxy = _test_moments(ref.moments, tests, kernel)
    c1 = (params.k1 * params.dynamic_range) ** 2
    c2 = (params.k2 * params.dynamic_range) ** 2
    c3 = c2 / 2.0
    den = np.multiply(y.mean, y.mean)
    np.add(ref.mean_sq, den, out=den)
    den += c1
    lterm = np.multiply(ref.two_mean, y.mean, out=y.mean)
    lterm += c1
    lterm /= den
    sy = np.maximum(y.var, 0.0, out=den)
    np.sqrt(sy, out=sy)
    cterm = np.multiply(ref.two_sd, sy)
    cterm += c2
    den = np.add(ref.moments.var, y.var, out=y.var)
    den += c2
    cterm /= den
    sterm = sxy
    sterm += c3
    den = np.multiply(ref.sd, sy, out=sy)
    den += c3
    sterm /= den
    return lterm, cterm, sterm


def _ssim_maps(terms, params: SsimParams) -> np.ndarray:
    """SSIM's maps from its (luminance, contrast, structure) terms, each
    raised to its exponent in ``params``."""
    lterm, cterm, sterm = terms
    return _powered(lterm, params.alpha) * (
        _powered(cterm, params.beta) * _powered(sterm, params.gamma))


def _require_window_fits(image: GrayImage, need: int, what: str) -> None:
    if min(image.height, image.width) < need:
        raise ImageTooSmallError(
            f"{image.width}x{image.height} image is too small for {what}; "
            f"min dimension is {need}")


# ---------------------------------------------------------------------------
# Metrics, one preparer each: ``_prepare_<id>(ref[, params])`` does the
# reference-only work and returns the metric's ``scores(pixels, maps)``,
# which a Scorer calls.


def _prepare_mse(ref: GrayImage):
    def scores(y: np.ndarray, maps: bool):
        diff = ref.pixels - y
        diff *= diff
        return diff.mean(axis=(-2, -1)), None
    return scores


def _prepare_psnr(ref: GrayImage, peakval: float = 255.0):
    if not (_is_real(peakval) and math.isfinite(peakval) and peakval > 0):
        raise InvalidParamsError("peakval must be positive and finite")
    squared_error = _prepare_mse(ref)

    def scores(y: np.ndarray, maps: bool, errs=None):
        # ``errs``, if given, are the stack's MSE values
        if errs is None:
            errs, _ = squared_error(y, False)
        return [10.0 * math.log10(peakval ** 2 / err) if err else math.inf
                for err in errs.tolist()], None
    return scores


def _prepare_ssim(ref: GrayImage, params: SsimParams | None = None):
    params = params if params is not None else SsimParams()
    _require_window_fits(ref, params.window_size, "the similarity window")
    kernel = _gauss1d(params.window_size, params.window_sigma)
    x = _ssim_side(ref.pixels, kernel)

    def scores(y: np.ndarray, maps: bool):
        smaps = _ssim_maps(_ssim_terms(x, y, kernel, params), params)
        return smaps.mean(axis=(-2, -1)), smaps if maps else None
    return scores


def _prepare_ms_ssim(ref: GrayImage, params: MsSsimParams | None = None):
    params = params if params is not None else MsSsimParams()
    need = params.base.window_size * 2 ** (params.scales - 1)
    _require_window_fits(ref, need, f"{params.scales} scales")
    kernel = _gauss1d(params.base.window_size, params.base.window_sigma)
    last = params.scales - 1
    scales = []
    x = ref.pixels
    for m in range(params.scales):
        scales.append(_ssim_side(x, kernel))
        if m < last:
            x = _decimate2(x, _BINOMIAL5)

    def scores(y: np.ndarray, maps: bool, finest=None):
        # ``finest``, if given, is called with the finest scale's terms
        values = [1.0] * len(y)
        for m, (side, weight) in enumerate(zip(scales, params.weights)):
            terms = _ssim_terms(side, y, kernel, params.base)
            if m == 0 and finest is not None:
                finest(terms)
            lterm, cterm, sterm = terms
            cs = cterm * sterm
            scale_maps = lterm * cs if m == last else cs
            for i, mean in enumerate(scale_maps.mean(axis=(-2, -1)).tolist()):
                values[i] *= max(mean, 0.0) ** weight
            if m < last:
                y = _decimate2(y, _BINOMIAL5)
        return values, None
    return scores


def _window_sums(arr: np.ndarray, size: int) -> np.ndarray:
    """Plain box sums over all size x size windows that fit."""
    ones = np.ones(size, dtype=np.float64)
    return _correlate_separable(arr, ones)


def _cw_ssim_map(wx: np.ndarray, sums_x: np.ndarray, wy: np.ndarray,
                 size: int, k: float) -> np.ndarray:
    """One band's CW-SSIM maps of a stack of tests, from the reference band
    ``wx``, its window power sums and the tests' band ``wy``, which is
    overwritten: ``(2·|Σ wx·conj(wy)| + k) / (Σ|wx|² + Σ|wy|² + k)``.
    """
    # the planes (cross.real, cross.imag, power_y), summed in one pass
    planes = np.empty((3, *wy.shape))
    np.square(wy.real, out=planes[0])
    np.square(wy.imag, out=planes[1])
    np.add(planes[0], planes[1], out=planes[2])
    cross = np.conjugate(wy, out=wy)
    np.multiply(wx, cross, out=cross)
    planes[0] = cross.real
    planes[1] = cross.imag
    del wy, cross  # the band is freed before its box sums are taken
    sums_cross_re, sums_cross_im, sums_y = _window_sums(planes, size)
    num = np.hypot(sums_cross_re, sums_cross_im, out=sums_cross_re)
    num *= 2.0
    num += k
    den = np.add(sums_x, sums_y, out=sums_y)
    den += k
    return np.divide(num, den, out=num)


def _prepare_cw_ssim(ref: GrayImage, params: CwSsimParams | None = None):
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

    def scores(y: np.ndarray, maps: bool):
        wys = band_stack(y, params.pyramid)
        totals = [0.0] * len(y)
        finest = []
        for level, wx, sums_x in bands:
            smap = _cw_ssim_map(wx, sums_x, next(wys), size, k)
            totals = [total + frame_total for total, frame_total
                      in zip(totals, smap.sum(axis=(-2, -1)).tolist())]
            if level == 0 and maps:
                finest.append(smap.copy())
            del smap  # a view of the band's box sums, freed before the next band
        return [total / count for total in totals], [
            np.mean([smap[i] for smap in finest], axis=0)
            for i in range(len(y))] if maps else None
    return scores


_VIF_EPS = 1e-10
_VIF_DEGENERATE = 1e-4


def _prepare_vif(ref: GrayImage, params: VifParams | None = None):
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
        sxx = np.maximum(m.var, 0.0)
        channels.append((m, sxx))
        denominator += float(np.sum(np.log2(1.0 + sxx / params.sigma_n2)))
    if denominator < _VIF_DEGENERATE:
        raise DegenerateReferenceError(
            "reference image has no usable local variance")

    def scores(y: np.ndarray, maps: bool):
        numerators = [0.0] * len(y)
        for scale, (m, sxx) in enumerate(channels):
            if scale > 0:
                y = _decimate2(y, kernel)
            t, sxy = _test_moments(m, y, kernel)
            syy = np.maximum(t.var, 0.0)
            gain = np.maximum(sxy / (sxx + _VIF_EPS), 0.0)
            resid = np.maximum(syy - gain * sxy, _VIF_EPS)
            info = np.log2(1.0 + gain * gain * sxx / (resid + params.sigma_n2))
            for i, frame_info in enumerate(info.sum(axis=(-2, -1)).tolist()):
                numerators[i] += frame_info
        return [numerator / denominator for numerator in numerators], None
    return scores


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


class _Metric(NamedTuple):
    """One metric: its preparer, which returns the metric's ``scores`` (see
    :class:`Scorer`); the type of the params it takes (None: it takes none;
    psnr's params is its peak value); ``identity``, the value an image
    scores against itself; and ``value_range``, the closed interval its
    values lie in. A value is finite unless it is the identity."""

    prepare: Callable
    params: type | None
    identity: float
    value_range: tuple[float, float]


METRICS = {
    "mse": _Metric(_prepare_mse, None, 0.0, (0.0, math.inf)),
    "psnr": _Metric(_prepare_psnr, Real, math.inf, (-math.inf, math.inf)),
    "ssim": _Metric(_prepare_ssim, SsimParams, 1.0, (-1.0, 1.0)),
    "msssim": _Metric(_prepare_ms_ssim, MsSsimParams, 1.0, (-1.0, 1.0)),
    "cwssim": _Metric(_prepare_cw_ssim, CwSsimParams, 1.0, (-1.0, 1.0)),
    "vif": _Metric(_prepare_vif, VifParams, 1.0, (0.0, math.inf)),
}


def prepare(name: str, ref: GrayImage, params=None) -> Scorer:
    """Do a metric's reference-only work once and return its
    :class:`Scorer`, ``scorer(test) -> SimilarityScore``.

    ``params`` must be of the metric's ``METRICS[name].params`` type; None
    selects its defaults. Errors that depend only on the reference and the
    params (too small, degenerate) are raised here; a test of another shape
    is rejected by the scorer. The scorer keeps no state between calls, so
    reusing it over many tests gives the same values as preparing afresh for
    each.
    """
    return Scorer((name,), ref, {name: params})


def _prepared(name: str, ref: GrayImage, params):
    """Metric ``name``'s ``scores``, prepared as :func:`prepare` says."""
    try:
        preparer, expected, *_ = METRICS[name]
    except KeyError:
        raise InvalidParamsError(
            f"unknown metric {name!r}; choose from {sorted(METRICS)}")
    if params is None:
        return preparer(ref)
    if expected is None or not isinstance(params, expected):
        wanted = "no params" if expected is None else expected.__name__
        raise InvalidParamsError(
            f"{name} takes {wanted}, got {type(params).__name__}")
    return preparer(ref, params)

