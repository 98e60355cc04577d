"""Metric tests: arithmetic oracles, double-loop moment oracle, invariants."""

import functools
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import ndimage

from usiq import errors, metrics
from usiq.image import _BINOMIAL5, GrayImage, Landmark, Roi, crop
from usiq.metrics import (
    METRICS,
    CwSsimParams,
    MsSsimParams,
    SimilarityScore,
    SsimParams,
    VifParams,
    cw_ssim,
    mse,
    ms_ssim,
    normalize_series,
    prepare,
    psnr,
    ssim,
    vif,
)
from usiq.pyramid import PyramidParams, decompose
from usiq.synth import (
    SpeckleSpec,
    benchmark_motion_spec,
    benchmark_phantom_spec,
    periodic_sequence,
)

from builders import (
    SHARED_TERMS_CASES,
    full_size_terms,
    noise_image,
    peak_traced_bytes,
    shared_terms_params,
)


def smooth_scene(size=128):
    """Inline stand-in for a smooth phantom: ramp plus Gaussian bumps."""
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    img = 40.0 + 0.3 * xx + 0.2 * yy
    bumps = [(0.31 * size, 0.34 * size, 0.07 * size, 120.0),
             (0.62 * size, 0.55 * size, 0.11 * size, 90.0),
             (0.47 * size, 0.78 * size, 0.05 * size, 70.0)]
    for cy, cx, s, a in bumps:
        img += a * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2.0 * s * s))
    return GrayImage(img)


def disc_scene(size=128):
    """Speckle-free phantom look-alike: sharp anti-aliased discs on a flat
    background."""
    discs = ((20, 20, 6), (20, 64, 8), (20, 108, 5), (64, 20, 10),
             (64, 64, 12), (64, 108, 7), (108, 20, 5), (108, 64, 9),
             (108, 108, 6))
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    img = np.full((size, size), 80.0)
    for cy, cx, r in discs:
        cov = np.clip(r + 0.5 - np.hypot(yy - cy, xx - cx), 0.0, 1.0)
        img = img * (1.0 - cov) + 200.0 * cov
    return GrayImage(img)


def rolled(image, dx=1, dy=0):
    return GrayImage(np.roll(image.pixels, (dy, dx), axis=(0, 1)))


# ---------------------------------------------------------------------------
# MSE and PSNR: direct arithmetic oracles


def test_mse_identity_is_zero():
    img = noise_image(0)
    assert mse(img, img).value == 0.0


def test_mse_constant_offset():
    ref = GrayImage(np.zeros((8, 8)))
    test = GrayImage(np.full((8, 8), 7.25))
    assert mse(ref, test).value == pytest.approx(7.25 ** 2, rel=1e-15)


def test_mse_two_pixel_oracle():
    ref = GrayImage(np.array([[1.0, 3.0]]))
    test = GrayImage(np.array([[2.0, 5.0]]))
    assert mse(ref, test).value == pytest.approx(2.5, rel=1e-15)


def test_mse_dim_mismatch():
    with pytest.raises(errors.DimensionMismatchError):
        mse(noise_image(0, shape=(8, 8)), noise_image(0, shape=(8, 9)))


def test_psnr_identity_is_positive_infinity():
    img = noise_image(1)
    score = psnr(img, img)
    assert math.isinf(score.value) and score.value > 0


def test_psnr_arithmetic_oracle():
    ref = GrayImage(np.array([[1.0, 3.0]]))
    test = GrayImage(np.array([[2.0, 5.0]]))
    want = 10.0 * math.log10(255.0 ** 2 / 2.5)
    got = psnr(ref, test).value
    assert got == pytest.approx(want, rel=1e-12)
    assert got == pytest.approx(44.15140352195873, rel=1e-12)


def test_psnr_unit_peak_zero_db():
    ref = GrayImage(np.array([[0.0, 2.0]]))
    test = GrayImage(np.array([[1.0, 1.0]]))
    assert psnr(ref, test, peakval=1.0).value == pytest.approx(0.0, abs=1e-12)


@pytest.mark.parametrize("peakval", [math.inf, -math.inf, math.nan, 0.0, -1.0])
def test_psnr_rejects_a_peak_that_is_not_positive_and_finite(peakval):
    ref = GrayImage(np.array([[0.0, 2.0]]))
    with pytest.raises(errors.InvalidParamsError):
        prepare("psnr", ref, peakval)
    with pytest.raises(errors.InvalidParamsError):
        psnr(ref, GrayImage(np.array([[1.0, 1.0]])), peakval=peakval)


# ---------------------------------------------------------------------------
# SSIM: closed-form and brute-force oracles


def test_ssim_identity():
    img = noise_image(2)
    score = ssim(img, img)
    assert score.value == pytest.approx(1.0, abs=1e-12)
    assert score.map is not None
    assert score.map.shape == (54, 54)  # 64 - 2*(11//2)


def test_ssim_constant_pair_is_luminance_only():
    ref = GrayImage(np.full((32, 32), 100.0))
    test = GrayImage(np.full((32, 32), 150.0))
    c1 = (0.01 * 255.0) ** 2
    want = (2.0 * 100.0 * 150.0 + c1) / (100.0 ** 2 + 150.0 ** 2 + c1)
    score = ssim(ref, test)
    assert score.value == pytest.approx(want, rel=1e-9)
    np.testing.assert_allclose(score.map, want, rtol=1e-9)


def test_ssim_contrast_inversion_goes_negative():
    ref = GrayImage(np.arange(256, dtype=np.float64).reshape(16, 16))
    test = GrayImage(255.0 - ref.pixels)
    score = ssim(ref, test)
    assert score.value < 0.5
    assert float(score.map.min()) < 0.0


def oracle_window(size, sigma):
    half = size // 2
    w = np.empty((size, size))
    for u in range(size):
        for v in range(size):
            r2 = (u - half) ** 2 + (v - half) ** 2
            w[u, v] = math.exp(-r2 / (2.0 * sigma * sigma))
    return w / math.fsum(w.ravel())


def oracle_ssim_map(x, y, size=11, sigma=1.5, dynamic_range=255.0):
    """Brute-force weighted moments and map, one window at a time."""
    w = oracle_window(size, sigma)
    half = size // 2
    c1 = (0.01 * dynamic_range) ** 2
    c2 = (0.03 * dynamic_range) ** 2
    c3 = c2 / 2.0
    h, wd = x.shape
    out = np.empty((h - 2 * half, wd - 2 * half))
    moments = {k: np.empty_like(out) for k in ("mx", "my", "sxx", "syy", "sxy")}
    for cy in range(half, h - half):
        for cx in range(half, wd - half):
            bx = x[cy - half:cy + half + 1, cx - half:cx + half + 1]
            by = y[cy - half:cy + half + 1, cx - half:cx + half + 1]
            mx = math.fsum((w * bx).ravel())
            my = math.fsum((w * by).ravel())
            sxx = math.fsum((w * bx * bx).ravel()) - mx * mx
            syy = math.fsum((w * by * by).ravel()) - my * my
            sxy = math.fsum((w * bx * by).ravel()) - mx * my
            sx = math.sqrt(max(sxx, 0.0))
            sy = math.sqrt(max(syy, 0.0))
            lterm = (2.0 * mx * my + c1) / (mx * mx + my * my + c1)
            cterm = (2.0 * sx * sy + c2) / (sxx + syy + c2)
            sterm = (sxy + c3) / (sx * sy + c3)
            i, j = cy - half, cx - half
            out[i, j] = lterm * (cterm * sterm)
            for key, val in zip(("mx", "my", "sxx", "syy", "sxy"),
                                (mx, my, sxx, syy, sxy)):
                moments[key][i, j] = val
    return out, moments


def test_ssim_matches_double_loop_oracle():
    from usiq.metrics import _gauss1d, _moments, _test_moments

    rng = np.random.default_rng(5)
    x = rng.uniform(0.0, 255.0, size=(16, 16))
    y = np.clip(x + rng.normal(0.0, 12.0, size=(16, 16)), 0.0, 255.0)
    want_map, want_m = oracle_ssim_map(x, y)
    got = ssim(GrayImage(x), GrayImage(y))
    np.testing.assert_allclose(got.map, want_map, rtol=1e-10, atol=1e-10)
    assert got.value == pytest.approx(float(want_map.mean()), abs=1e-10)
    kernel = _gauss1d(11, 1.5)
    mx = _moments(x, kernel)
    my, sxy = _test_moments(mx, y, kernel)
    got_m = (mx.mean, my.mean, mx.var, my.var, sxy)
    for key, arr in zip(("mx", "my", "sxx", "syy", "sxy"), got_m):
        np.testing.assert_allclose(arr, want_m[key], rtol=1e-10, atol=1e-10)


def test_ssim_window_larger_than_image():
    with pytest.raises(errors.ImageTooSmallError):
        ssim(noise_image(0, shape=(10, 32)), noise_image(1, shape=(10, 32)))


def test_ssim_param_validation():
    with pytest.raises(errors.InvalidParamsError):
        SsimParams(window_size=10)
    with pytest.raises(errors.InvalidParamsError):
        SsimParams(k1=0.0)
    with pytest.raises(errors.InvalidParamsError):
        SsimParams(alpha=-1.0)


# ---------------------------------------------------------------------------
# MS-SSIM


def test_msssim_identity():
    img = noise_image(3, shape=(256, 256))
    assert ms_ssim(img, img).value == pytest.approx(1.0, abs=1e-9)


def test_msssim_single_scale_degenerates_to_ssim():
    a = noise_image(4)
    b = noise_image(5)
    params = MsSsimParams(scales=1, weights=(1.0,))
    score = ms_ssim(a, b, params)
    assert score.metric == "msssim"
    assert score.value == pytest.approx(ssim(a, b).value, rel=1e-12)


def test_msssim_default_weights_are_normalized():
    params = MsSsimParams()
    assert params.scales == 5
    assert len(params.weights) == 5
    assert math.fsum(params.weights) == pytest.approx(1.0, abs=1e-12)
    raw = (0.0448, 0.2856, 0.3001, 0.2363, 0.1333)
    np.testing.assert_allclose(params.weights,
                               np.array(raw) / math.fsum(raw), rtol=1e-12)


def test_msssim_weight_count_must_match_scales():
    with pytest.raises(errors.InvalidParamsError):
        MsSsimParams(scales=3)
    with pytest.raises(errors.InvalidParamsError):
        MsSsimParams(scales=3, weights=(0.5, 0.5))
    with pytest.raises(errors.InvalidParamsError):
        MsSsimParams(scales=2, weights=(0.5, -0.5))


def test_msssim_too_small_for_default_scales():
    with pytest.raises(errors.ImageTooSmallError):
        ms_ssim(noise_image(0), noise_image(1))  # 64 < 11 * 2^4


# ---------------------------------------------------------------------------
# CW-SSIM


def cw3():
    return CwSsimParams(pyramid=PyramidParams(levels=3, orientations=6))


def test_cwssim_identity_is_one():
    img = noise_image(6)
    score = cw_ssim(img, img, cw3())
    assert score.value == pytest.approx(1.0, abs=1e-9)
    assert score.map is not None
    np.testing.assert_allclose(score.map, 1.0, atol=1e-9)


def test_cwssim_small_shift_stays_high_and_beats_ssim():
    scene = disc_scene(128)
    moved = rolled(scene, dx=1)
    cw = cw_ssim(scene, moved).value
    ss = ssim(scene, moved).value
    assert cw >= 0.90
    assert cw > ss


def test_cwssim_noise_pair_scores_low():
    vals = []
    for seed in range(10):
        a = noise_image(100 + seed)
        b = noise_image(200 + seed)
        vals.append(cw_ssim(a, b, cw3()).value)
    assert float(np.mean(vals)) < 0.5


def test_cwssim_bounds():
    for seed in range(5):
        v = cw_ssim(noise_image(seed), noise_image(50 + seed), cw3()).value
        assert 0.0 < v <= 1.0 + 1e-12


def test_cwssim_param_validation():
    with pytest.raises(errors.InvalidParamsError):
        CwSsimParams(window_size=4)
    with pytest.raises(errors.InvalidParamsError):
        CwSsimParams(k_stab=0.0)


# ---------------------------------------------------------------------------
# VIF


def test_vif_identity():
    img = noise_image(7, shape=(96, 96))
    assert vif(img, img).value == pytest.approx(1.0, abs=1e-6)


def test_vif_blur_loses_information():
    scene = GrayImage(smooth_scene(96).pixels
                      + np.random.default_rng(8).normal(0, 20, (96, 96)))
    blurred = GrayImage(ndimage.gaussian_filter(scene.pixels, 2.0))
    value = vif(scene, blurred).value
    assert 0.0 < value < 1.0


def test_vif_is_asymmetric_on_blurred_pair():
    scene = GrayImage(smooth_scene(96).pixels
                      + np.random.default_rng(9).normal(0, 20, (96, 96)))
    blurred = GrayImage(ndimage.gaussian_filter(scene.pixels, 2.0))
    a = vif(scene, blurred).value
    b = vif(blurred, scene).value
    assert abs(a - b) > 1e-3


def test_vif_flat_reference_is_degenerate():
    ref = GrayImage(np.full((96, 96), 128.0))
    with pytest.raises(errors.DegenerateReferenceError) as exc:
        vif(ref, noise_image(10, shape=(96, 96)))
    assert exc.value.kind == "degenerate-reference"


def test_vif_too_small_for_default_scales():
    with pytest.raises(errors.ImageTooSmallError):
        vif(noise_image(0), noise_image(1))  # 64 < 9 * 2^3
    vif(noise_image(0), noise_image(1), VifParams(scales=3))


# ---------------------------------------------------------------------------
# normalize_series


def test_normalize_series_cases():
    assert normalize_series([0.0, 5.0, 10.0]) == [0.0, 0.5, 1.0]
    assert normalize_series([-2.0, 0.0, 6.0]) == [0.0, 0.25, 1.0]


def test_normalize_series_maps_infinity_to_max():
    assert normalize_series([1.0, math.inf, 3.0]) == [0.0, 1.0, 1.0]


def test_normalize_series_errors():
    with pytest.raises(errors.ConstantSeriesError) as exc:
        normalize_series([3.0, 3.0, 3.0])
    assert exc.value.kind == "constant-series"
    with pytest.raises(errors.ConstantSeriesError):
        normalize_series([math.inf, math.inf])
    with pytest.raises(errors.InvalidParamsError):
        normalize_series([1.0])
    with pytest.raises(errors.InvalidParamsError):
        normalize_series([1.0, math.nan])


# ---------------------------------------------------------------------------
# Cross-metric invariants


def test_symmetry():
    a = noise_image(11)
    b = GrayImage(np.clip(a.pixels + np.random.default_rng(12).normal(
        0, 25, a.shape), 0, 255))
    assert mse(a, b).value == mse(b, a).value
    assert ssim(a, b).value == pytest.approx(ssim(b, a).value, abs=1e-9)
    p = MsSsimParams(scales=2, weights=(0.5, 0.5))
    assert ms_ssim(a, b, p).value == pytest.approx(ms_ssim(b, a, p).value,
                                                   abs=1e-9)
    assert cw_ssim(a, b, cw3()).value == pytest.approx(
        cw_ssim(b, a, cw3()).value, abs=1e-9)
    # fixed peakval makes psnr symmetric too; only vif is direction-sensitive
    assert psnr(a, b).value == pytest.approx(psnr(b, a).value, abs=1e-9)


def test_ssim_family_bounded():
    for seed in range(5):
        a = noise_image(seed)
        b = noise_image(60 + seed)
        assert -1.0 - 1e-9 <= ssim(a, b).value <= 1.0 + 1e-9
        p = MsSsimParams(scales=2, weights=(0.5, 0.5))
        assert -1.0 - 1e-9 <= ms_ssim(a, b, p).value <= 1.0 + 1e-9


def test_identity_maximality():
    ms_p = MsSsimParams(scales=3, weights=(0.0448, 0.2856, 0.3001))
    vif_p = VifParams(scales=3)
    for seed in range(20):
        x = noise_image(seed, low=40.0, high=215.0)
        rng = np.random.default_rng(1000 + seed)
        y = GrayImage(np.clip(x.pixels + rng.normal(0, 15, x.shape), 0, 255))
        assert mse(x, x).value <= mse(x, y).value
        assert psnr(x, x).value >= psnr(x, y).value
        assert ssim(x, x).value >= ssim(x, y).value
        assert ms_ssim(x, x, ms_p).value >= ms_ssim(x, y, ms_p).value
        assert cw_ssim(x, x, cw3()).value >= cw_ssim(x, y, cw3()).value
        assert vif(x, x, vif_p).value >= vif(x, y, vif_p).value


# ---------------------------------------------------------------------------
# Registry plumbing


# each metric's public function, in registry order
PUBLIC_FUNCTIONS = {"mse": mse, "psnr": psnr, "ssim": ssim, "msssim": ms_ssim,
                    "cwssim": cw_ssim, "vif": vif}


def test_registry_names():
    assert set(METRICS) == {"mse", "psnr", "ssim", "msssim", "cwssim", "vif"}
    assert list(METRICS) == list(PUBLIC_FUNCTIONS)
    # each entry holds the type its params have
    defaults = {"mse": None, "psnr": 255.0, "ssim": SsimParams(),
                "msssim": MsSsimParams(), "cwssim": CwSsimParams(),
                "vif": VifParams()}
    a = noise_image(12, shape=(176, 176))
    for name, entry in METRICS.items():
        default = defaults[name]
        if default is None:
            assert entry.params is None
        else:
            assert isinstance(default, entry.params)
        assert PUBLIC_FUNCTIONS[name](a, a).metric == name


def test_compute_metric_dispatch():
    a = noise_image(13, shape=(256, 256))
    b = GrayImage(np.clip(a.pixels + 10.0, 0, 255))
    for name in METRICS:
        score = prepare(name, a)(b)
        assert isinstance(score, SimilarityScore)
        assert score.metric == name
    with pytest.raises(errors.InvalidParamsError):
        prepare("nope", a)(b)


@pytest.mark.parametrize("name, wrong", [
    ("mse", SsimParams()),
    ("psnr", SsimParams()),
    ("ssim", VifParams()),
    ("msssim", SsimParams()),
    ("cwssim", SsimParams()),
    ("vif", 255.0),
])
def test_compute_metric_rejects_params_of_another_metric(name, wrong):
    a = noise_image(16)
    with pytest.raises(errors.InvalidParamsError):
        prepare(name, a, wrong)(a)


def test_score_map_only_for_ssim_and_cwssim():
    a = noise_image(14, shape=(256, 256))
    b = noise_image(15, shape=(256, 256))
    assert prepare("mse", a)(b).map is None
    assert prepare("psnr", a)(b).map is None
    assert prepare("msssim", a)(b).map is None
    assert prepare("vif", a)(b).map is None
    assert prepare("ssim", a)(b).map is not None
    assert prepare("cwssim", a)(b).map is not None


# ---------------------------------------------------------------------------
# Prepared scorers: equivalence with the unprepared implementation


PINNED_SHAPES = ((176, 176), (181, 203), (200, 185))

PINNED_PARAMS = (
    {},
    {},
    {"psnr": 200.0,
     "ssim": SsimParams(window_size=7, alpha=0.5, gamma=2.0),
     "msssim": MsSsimParams(scales=3, weights=(0.2, 0.3, 0.5)),
     "cwssim": CwSsimParams(pyramid=PyramidParams(levels=3, orientations=4),
                            window_size=5),
     "vif": VifParams(scales=3, block_size=7)},
)

# float.hex of each value as computed before the metrics were split into a
# reference-preparing step and a per-test scorer
PINNED_HEX = (
    {"cwssim": "0x1.a0da0b6080211p-1", "mse": "0x1.5b663c3e00efep+10",
     "msssim": "0x1.949969be03766p-1", "psnr": "0x1.0b3b09c03c9ddp+4",
     "ssim": "0x1.9e3caa3503ba7p-6", "vif": "0x1.988b4ed1ce655p-5"},
    {"cwssim": "0x1.455f712825515p-1", "mse": "0x1.6424fab7470ddp+10",
     "msssim": "0x1.6b92129992534p-1", "psnr": "0x1.0980c93323d0fp+4",
     "ssim": "0x1.835bc9d387564p-6", "vif": "0x1.09f203b0a9d00p-5"},
    {"cwssim": "0x1.f813df1bb2becp-2", "mse": "0x1.67b8e2e90caadp+10",
     "msssim": "0x1.84b8e25467823p-2", "psnr": "0x1.ce1729938ef9fp+3",
     "ssim": "0x1.2850545dcee03p-5", "vif": "0x1.90ca4e730e099p-7"},
)


def pinned_pair(seed):
    """A textured ramp and a shifted, re-noised copy of it."""
    shape = PINNED_SHAPES[seed]
    rng = np.random.default_rng(300 + seed)
    yy, xx = np.mgrid[0:shape[0], 0:shape[1]].astype(np.float64)
    ref = np.clip(60.0 + 0.3 * xx + 0.2 * yy
                  + rng.normal(0.0, 25.0, shape), 0.0, 255.0)
    test = np.clip(np.roll(ref, seed + 1, axis=1)
                   + rng.normal(0.0, 12.0, shape), 0.0, 255.0)
    return GrayImage(ref), GrayImage(test)


@pytest.mark.parametrize("seed", range(3))
def test_values_match_the_unprepared_implementation(seed):
    ref, test = pinned_pair(seed)
    params = PINNED_PARAMS[seed]
    got = {name: prepare(name, ref, params.get(name))(test).value.hex()
           for name in METRICS}
    assert got == PINNED_HEX[seed]
    for name, function in PUBLIC_FUNCTIONS.items():
        extra = (params[name],) if name in params else ()
        assert function(ref, test, *extra).value.hex() == PINNED_HEX[seed][name]


SMALL_PARAMS = {
    "msssim": MsSsimParams(scales=2, weights=(0.5, 0.5)),
    "cwssim": CwSsimParams(pyramid=PyramidParams(levels=3, orientations=6)),
    "vif": VifParams(scales=3),
}


@pytest.mark.parametrize("name", sorted(METRICS))
def test_reused_scorer_matches_fresh_prepare_in_any_order(name):
    ref = noise_image(20)
    tests = [ref, noise_image(21), rolled(ref, dx=2),
             GrayImage(np.clip(ref.pixels + 30.0, 0, 255))]
    params = SMALL_PARAMS.get(name)
    fresh = [prepare(name, ref, params)(t) for t in tests]
    score = prepare(name, ref, params)
    for order in (range(4), reversed(range(4)), (2, 0, 3, 1, 2, 0)):
        for i in order:
            got = score(tests[i])
            assert got.value == fresh[i].value
            if fresh[i].map is None:
                assert got.map is None
            else:
                assert np.array_equal(got.map, fresh[i].map)


@pytest.mark.parametrize("name", sorted(METRICS))
def test_shape_mismatch_error_kind(name):
    ref, wrong = noise_image(22), noise_image(23, shape=(64, 72))
    params = SMALL_PARAMS.get(name)
    with pytest.raises(errors.DimensionMismatchError):
        prepare(name, ref, params)(wrong)
    # the batch entry point, wherever in a stack the odd image sits
    scorer = prepare(name, ref, params)
    for position in (0, 3, 4, 8):
        tests = [ref] * 9
        tests[position] = wrong
        with pytest.raises(errors.DimensionMismatchError):
            scorer.values(tests)


@pytest.mark.filterwarnings("ignore:overflow encountered",
                            "ignore:invalid value encountered")
def test_cw_ssim_values_reject_the_value_the_scorer_rejects():
    # squared coefficients overflow, so the pooled map is inf / inf = nan
    huge = GrayImage(noise_image(26).pixels * 1e160)
    scorer = prepare("cwssim", huge, SMALL_PARAMS["cwssim"])
    with pytest.raises(errors.InvalidParamsError):
        scorer(huge)
    with pytest.raises(errors.InvalidParamsError):
        scorer.values([huge, huge, huge])


# ---------------------------------------------------------------------------
# Batch scoring: ``scorer.values`` against the per-image scorer


def hexes(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("name", sorted(METRICS))
def test_score_values_are_checked_against_the_metrics_range(name):
    entry = METRICS[name]
    accepted = [entry.identity]
    rejected = [math.nan, *(v for v in (-math.inf, math.inf)
                            if v != entry.identity)]
    for bound, outward in zip(entry.value_range, (-1.0, 1.0)):
        if math.isfinite(bound):
            # a bound holds up to a rounding of 1e-6 of its magnitude
            accepted.append(bound + outward * 1e-6 * abs(bound))
            rejected.append(bound + outward * (2e-6 * abs(bound) + 1e-300))
    for value in accepted:
        assert SimilarityScore(name, value).value == value
    for value in rejected:
        with pytest.raises(errors.InvalidParamsError):
            SimilarityScore(name, value)


@pytest.mark.parametrize("name", sorted(METRICS))
def test_values_equal_the_per_image_loop(name):
    ref = noise_image(20)
    tests = [ref, noise_image(21), rolled(ref, dx=2), rolled(ref, dy=3),
             GrayImage(np.clip(ref.pixels + 30.0, 0, 255))]
    scorer = prepare(name, ref, SMALL_PARAMS.get(name))
    want = [scorer(t).value for t in tests]
    assert hexes(scorer.values(tests)) == hexes(want)
    assert hexes(scorer.values(iter(tests))) == hexes(want)
    assert scorer.values([]) == ()


def image_loop_cw_ssim(ref, test, params):
    """Oracle: the CW-SSIM value as scored one test image at a time, with
    the test's own ``decompose`` call, before tests were stacked."""
    pyr_ref = decompose(ref, params.pyramid)
    pyr_test = decompose(test, params.pyramid)
    size, k = params.window_size, params.k_stab
    total, count = 0.0, 0
    for band_ref, band_test in zip(pyr_ref.subbands, pyr_test.subbands):
        wx, wy = band_ref.coeffs, band_test.coeffs
        cross = wx * np.conj(wy)
        num = 2.0 * np.hypot(metrics._window_sums(cross.real, size),
                             metrics._window_sums(cross.imag, size)) + k
        den = (metrics._window_sums(wx.real ** 2 + wx.imag ** 2, size)
               + metrics._window_sums(wy.real ** 2 + wy.imag ** 2, size) + k)
        smap = num / den
        total += float(smap.sum())
        count += smap.size
    return total / count


RESET_CWSSIM = CwSsimParams(pyramid=PyramidParams(levels=3, orientations=6))


@functools.lru_cache(maxsize=None)
def speckled_frames(side):
    """Reference and nine test frames of a speckled benchmark sequence: the
    whole 256x256 frames, or the reset gate's 65x65 ROI crops of them."""
    seq = periodic_sequence(benchmark_phantom_spec(),
                            benchmark_motion_spec(n_frames=10),
                            speckle=SpeckleSpec(alpha=0.3, seed=3), seed=3)
    frames = seq.frames
    if side == 65:
        roi = Roi(Landmark(108.0, 128.0), 32, 32)
        frames = [crop(frame, roi) for frame in frames]
    return frames[0], tuple(frames[1:])


@functools.lru_cache(maxsize=None)
def cw_ssim_frames(case):
    """Reference and nine test frames: the reset gate's 65x65 ROI crops of a
    speckled sequence, or 128x128 textures for the default params."""
    if case == "reset":
        return speckled_frames(65)
    ref = noise_image(60, shape=(128, 128))
    tests = [ref] + [rolled(ref, dx=i) for i in (1, 2, 5)] + [
        noise_image(61 + i, shape=(128, 128)) for i in range(5)]
    return ref, tuple(tests)


@pytest.mark.parametrize("case, params", [("reset", RESET_CWSSIM),
                                          ("defaults", None)])
@pytest.mark.parametrize("n_frames", [1, 3, 4, 5, 9])
def test_cw_ssim_values_equal_the_image_loop_oracle(case, params, n_frames):
    ref, tests = cw_ssim_frames(case)
    tests = tests[:n_frames]
    oracle_params = params if params is not None else CwSsimParams()
    want = [image_loop_cw_ssim(ref, t, oracle_params) for t in tests]
    scorer = prepare("cwssim", ref, params)
    assert hexes(scorer.values(tests)) == hexes(want)
    assert hexes(scorer.values(iter(tests))) == hexes(want)
    assert hexes(scorer(t).value for t in tests) == hexes(want)


def image_loop_moments(x, kernel):
    mean = plain_valid_smooth(x, kernel)
    return mean, plain_valid_smooth(x * x, kernel) - mean * mean


def image_loop_ssim_terms(x, y, kernel, params):
    """SSIM's luminance, contrast and structure maps of one pair."""
    (mx, vx), (my, vy) = image_loop_moments(x, kernel), image_loop_moments(
        y, kernel)
    sx, sy = np.sqrt(np.clip(vx, 0.0, None)), np.sqrt(np.clip(vy, 0.0, None))
    sxy = plain_valid_smooth(x * y, kernel) - mx * my
    c1 = (params.k1 * params.dynamic_range) ** 2
    c2 = (params.k2 * params.dynamic_range) ** 2
    c3 = c2 / 2.0
    return ((2.0 * mx * my + c1) / (mx * mx + my * my + c1),
            (2.0 * sx * sy + c2) / (vx + vy + c2),
            (sxy + c3) / (sx * sy + c3))


def image_loop_powered(term, exponent):
    if exponent == 1.0:
        return term
    if float(exponent).is_integer():
        return term ** int(exponent)
    return np.clip(term, 0.0, None) ** exponent


def image_loop_ssim(ref, test, params):
    params = params if params is not None else SsimParams()
    kernel = metrics._gauss1d(params.window_size, params.window_sigma)
    lterm, cterm, sterm = image_loop_ssim_terms(ref.pixels, test.pixels,
                                                kernel, params)
    smap = image_loop_powered(lterm, params.alpha) * (
        image_loop_powered(cterm, params.beta)
        * image_loop_powered(sterm, params.gamma))
    return float(smap.mean())


def image_loop_ms_ssim(ref, test, params):
    params = params if params is not None else MsSsimParams()
    kernel = metrics._gauss1d(params.base.window_size,
                              params.base.window_sigma)
    binomial = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    x, y = ref.pixels, test.pixels
    value = 1.0
    for m, weight in enumerate(params.weights):
        lterm, cterm, sterm = image_loop_ssim_terms(x, y, kernel, params.base)
        cs = cterm * sterm
        scale_map = lterm * cs if m == params.scales - 1 else cs
        value *= max(float(scale_map.mean()), 0.0) ** weight
        x, y = plain_decimate2(x, binomial), plain_decimate2(y, binomial)
    return value


def image_loop_vif(ref, test, params):
    params = params if params is not None else VifParams()
    kernel = metrics._gauss1d(params.block_size, params.block_size / 5.0)
    x, y = ref.pixels, test.pixels
    numerator = denominator = 0.0
    for scale in range(params.scales):
        if scale > 0:
            x, y = plain_decimate2(x, kernel), plain_decimate2(y, kernel)
        (mx, vx), (my, vy) = image_loop_moments(x, kernel), image_loop_moments(
            y, kernel)
        sxx, syy = np.clip(vx, 0.0, None), np.clip(vy, 0.0, None)
        sxy = plain_valid_smooth(x * y, kernel) - mx * my
        gain = np.clip(sxy / (sxx + 1e-10), 0.0, None)
        resid = np.clip(syy - gain * sxy, 1e-10, None)
        numerator += float(np.sum(np.log2(
            1.0 + gain * gain * sxx / (resid + params.sigma_n2))))
        denominator += float(np.sum(np.log2(1.0 + sxx / params.sigma_n2)))
    return numerator / denominator


# Oracles: the SSIM, MS-SSIM and VIF values as scored one test image at a
# time with scipy's correlate1d, before tests were stacked and smoothed by
# numpy alone.
IMAGE_LOOP = {"ssim": image_loop_ssim, "msssim": image_loop_ms_ssim,
              "vif": image_loop_vif}

# the manifest trace's settings for 65x65 crops; 256x256 frames take defaults
CROP_PARAMS = {"msssim": MsSsimParams(scales=3,
                                      weights=(0.0448, 0.2856, 0.3001)),
               "vif": VifParams(scales=3)}


@pytest.mark.parametrize("name", sorted(IMAGE_LOOP))
@pytest.mark.parametrize("side", [65, 256])
@pytest.mark.parametrize("n_frames", [1, 3, 4, 5, 9])
def test_windowed_values_equal_the_image_loop_oracle(name, side, n_frames):
    ref, tests = speckled_frames(side)
    tests = tests[:n_frames]
    params = CROP_PARAMS.get(name) if side == 65 else None
    want = [IMAGE_LOOP[name](ref, t, params) for t in tests]
    scorer = prepare(name, ref, params)
    assert hexes(scorer.values(tests)) == hexes(want)
    assert hexes(scorer.values(iter(tests))) == hexes(want)
    assert hexes(scorer(t).value for t in tests) == hexes(want)


@pytest.mark.parametrize("side, params, n_tests, depths", [
    (65, RESET_CWSSIM, 9, [4, 4, 1]),
    (256, None, 3, [1, 1, 1]),
])
def test_cw_ssim_stacks_hold_a_fixed_pixel_budget(monkeypatch, side, params,
                                                  n_tests, depths):
    # four 65x65 frames fill a stack; a 256x256 frame is scored alone
    ref = noise_image(80, shape=(side, side))
    tests = [noise_image(81 + i, shape=(side, side)) for i in range(n_tests)]
    scorer = prepare("cwssim", ref, params)
    want = [scorer(t).value for t in tests]
    stacks, band_stack = [], metrics.band_stack

    def counting_stack(pixels, pyramid_params):
        stacks.append(len(pixels))
        return band_stack(pixels, pyramid_params)

    monkeypatch.setattr(metrics, "band_stack", counting_stack)
    assert hexes(scorer.values(tests)) == hexes(want)
    assert stacks == depths


@pytest.mark.parametrize("name", sorted([*IMAGE_LOOP, "mse", "psnr"]))
@pytest.mark.parametrize("side, n_tests, depths", [
    (65, 9, [4, 4, 1]),
    (256, 3, [1, 1, 1]),
])
def test_windowed_stacks_hold_the_same_pixel_budget(monkeypatch, name, side,
                                                     n_tests, depths):
    ref = noise_image(80, shape=(side, side))
    tests = [noise_image(81 + i, shape=(side, side)) for i in range(n_tests)]
    scorer = prepare(name, ref, CROP_PARAMS.get(name))
    want = [scorer(t).value for t in tests]
    stacks, test_stack = [], metrics._test_stack

    def counting_stack(ref, tests):
        stacks.append(len(tests))
        return test_stack(ref, tests)

    monkeypatch.setattr(metrics, "_test_stack", counting_stack)
    assert hexes(scorer.values(tests)) == hexes(want)
    assert stacks == depths


@pytest.mark.parametrize("names", [("ssim", "msssim"),
                                   ("msssim", "mse", "ssim")])
@pytest.mark.parametrize("case", sorted(SHARED_TERMS_CASES))
@pytest.mark.parametrize("side, n_tests", [(65, 1), (65, 4), (256, 1),
                                           (256, 4)])
def test_score_columns_equal_each_metrics_own_scorer(monkeypatch, names, case,
                                                     side, n_tests):
    ref, tests = speckled_frames(side)
    tests = tests[:n_tests]
    params = shared_terms_params(case, side)
    want = [prepare(name, ref, params.get(name)).values(tests)
            for name in names]
    depths = full_size_terms(monkeypatch, ref.shape)
    columns = metrics._score_columns(names, ref, params)
    for name, column, own in zip(names, columns(iter(tests)), want):
        assert hexes(column) == hexes(own), name
    # each test's finest terms are formed once, or once per metric when the
    # SSIM window differs
    assert sum(depths) == n_tests * (2 if case == "ssim-window-7" else 1)
    assert columns([]) == [()] * len(names)


@pytest.mark.parametrize("names", [("mse", "psnr"), ("psnr", "ssim", "mse"),
                                   ("psnr",)])
@pytest.mark.parametrize("peakval", [None, 100.0])
def test_score_columns_map_the_mse_column_to_psnr(monkeypatch, names,
                                                  peakval):
    ref, tests = speckled_frames(65)
    params = {} if peakval is None else {"psnr": peakval}
    want = [prepare(name, ref, params.get(name)).values(tests)
            for name in names]
    # PSNR's own squared errors: each stack's depth, once formed
    formed, prepare_mse = [], metrics._prepare_mse

    def counting(ref):
        squared_error = prepare_mse(ref)

        def scores(y, maps):
            formed.append(len(y))
            return squared_error(y, maps)
        return scores

    monkeypatch.setattr(metrics, "_prepare_mse", counting)
    columns = metrics._score_columns(names, ref, params)
    for name, column, own in zip(names, columns(iter(tests)), want):
        assert hexes(column) == hexes(own), name
    assert sum(formed) == (0 if "mse" in names else len(tests))


CROP_BYTES = 65 * 65 * 8
FRAME_BYTES = 256 * 256 * 8


def warm_peak(fn):
    """The traced peak of ``fn()``, run once before to warm up."""
    fn()
    return peak_traced_bytes(fn)[1]


def test_cw_ssim_holds_one_band_of_a_crop_stack():
    ref, tests = speckled_frames(65)
    scorer = prepare("cwssim", ref, RESET_CWSSIM)
    # each of the 18 bands of a four-crop stack is made when scored and
    # scored in place; holding them all with their cross terms and box-sum
    # temporaries peaked at 139 crops
    assert warm_peak(lambda: scorer.values(tests[:4])) < 90 * CROP_BYTES


def test_cw_ssim_holds_one_band_of_a_frame():
    ref, tests = speckled_frames(256)
    scorer = prepare("cwssim", ref)
    # holding all 24 bands of one frame peaked at 32.5 frames
    assert warm_peak(lambda: scorer.values(tests[:1])) < 24 * FRAME_BYTES


@pytest.mark.parametrize("name", ["ssim", "msssim"])
def test_ssim_family_smooths_a_crop_stack_a_few_images_at_a_time(name):
    ref, tests = speckled_frames(65)
    scorer = prepare(name, ref, CROP_PARAMS.get(name))
    # smoothing the twelve (y, y², x·y) planes of four crops in one chunk
    # peaked at 47.3 crops
    assert warm_peak(lambda: scorer.values(tests[:4])) < 40 * CROP_BYTES


SPLIT_PARAMS = CwSsimParams(pyramid=PyramidParams(levels=2, orientations=4))
SPLIT_POOL = tuple(noise_image(70 + i, shape=(32, 32)) for i in range(5))


@functools.lru_cache(maxsize=None)
def split_scorer():
    scorer = prepare("cwssim", SPLIT_POOL[0], SPLIT_PARAMS)
    return scorer, tuple(scorer(img).value for img in SPLIT_POOL)


@given(picks=st.lists(st.integers(0, len(SPLIT_POOL) - 1),
                      min_size=1, max_size=9),
       cuts=st.lists(st.integers(0, 9), max_size=3))
def test_stacked_value_ignores_neighbours_and_splits(picks, cuts):
    scorer, alone = split_scorer()
    tests = [SPLIT_POOL[i] for i in picks]
    want = hexes(alone[i] for i in picks)
    assert hexes(scorer.values(tests)) == want
    bounds = sorted({0, len(tests), *(min(c, len(tests)) for c in cuts)})
    parts = [v for lo, hi in zip(bounds, bounds[1:])
             for v in scorer.values(tests[lo:hi])]
    assert hexes(parts) == want


@pytest.mark.parametrize("name, size, params", [
    ("ssim", 8, None),
    ("msssim", 64, None),
    ("cwssim", 64, None),
    ("cwssim", 16, CwSsimParams(pyramid=PyramidParams(levels=1),
                                window_size=17)),
    ("vif", 64, None),
])
def test_too_small_reference_error_kind(name, size, params):
    img = noise_image(24, shape=(size, size))
    with pytest.raises(errors.ImageTooSmallError):
        prepare(name, img, params)(img)


def test_flat_vif_reference_error_kind():
    flat = GrayImage(np.full((64, 64), 128.0))
    with pytest.raises(errors.DegenerateReferenceError):
        prepare("vif", flat, VifParams(scales=3))(noise_image(25))


# ---------------------------------------------------------------------------
# Separable smoothing


def plain_valid_smooth(arr, kernel):
    """Oracle: ``_correlate_separable`` with correlate1d allocating its own
    output."""
    r = kernel.size // 2
    out = ndimage.correlate1d(arr, kernel, axis=0, mode="constant")
    out = ndimage.correlate1d(out, kernel, axis=1, mode="constant")
    return out[r:arr.shape[0] - r, r:arr.shape[1] - r]


def each_image(stack):
    """Index of every 2-D image in a stack of any depth."""
    return list(np.ndindex(stack.shape[:-2]))


@given(size=st.integers(1, 6).map(lambda k: 2 * k + 1),
       sigma=st.floats(0.5, 3.0), box=st.booleans(),
       extra=st.tuples(st.integers(0, 20), st.integers(0, 20)),
       lead=st.sampled_from([(), (3,), (2, 3)]),
       corner=st.tuples(st.integers(0, 20), st.integers(0, 20)),
       strided=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
def test_valid_smooth_equals_plain_correlate1d(size, sigma, box, extra, lead,
                                               corner, strided, seed):
    kernel = np.ones(size) if box else metrics._gauss1d(size, sigma)
    shape = (*lead, size + extra[0], size + extra[1])
    rng = np.random.default_rng(seed)
    arr = rng.uniform(-255.0, 255.0, shape)
    if strided:  # CW-SSIM smooths the real and imaginary planes as views
        arr = (arr + 1j * rng.uniform(-255.0, 255.0, shape)).imag
    # a block of negative zeros that covers at least one whole window, whose
    # sum must be -0.0 as well
    row, col = min(corner[0], extra[0]), min(corner[1], extra[1])
    arr[..., row:row + size + 1, col:col + size + 1] = -0.0
    got = metrics._correlate_separable(arr, kernel)
    assert got.shape == (*lead, extra[0] + 1, extra[1] + 1)
    for index in each_image(arr):
        assert hexes(got[index].ravel()) == hexes(
            plain_valid_smooth(arr[index], kernel).ravel())


def plain_decimate2(arr, kernel):
    """Oracle: edge-replicating smoothing then 2x decimation, with
    correlate1d allocating its own outputs."""
    out = ndimage.correlate1d(arr, kernel, axis=0, mode="nearest")
    out = ndimage.correlate1d(out, kernel, axis=1, mode="nearest")
    return out[::2, ::2]


@given(size=st.integers(1, 6).map(lambda k: 2 * k + 1),
       shape=st.tuples(st.integers(2, 40), st.integers(2, 40)),
       lead=st.sampled_from([(), (3,), (2, 3)]),
       seed=st.integers(0, 2 ** 32 - 1))
def test_decimation_equals_plain_correlate1d(size, shape, lead, seed):
    arr = np.random.default_rng(seed).uniform(0.0, 255.0, (*lead, *shape))
    kernel = metrics._gauss1d(size, size / 5.0)
    binomial = np.array([1.0, 4.0, 6.0, 4.0, 1.0]) / 16.0
    got = metrics._decimate2(arr, kernel)
    # a stacked decimation equals the decimation of each image on its own
    for index in each_image(arr):
        assert hexes(got[index].ravel()) == hexes(
            plain_decimate2(arr[index], kernel).ravel())
        assert hexes(metrics._decimate2(arr[index], _BINOMIAL5).ravel()) == (
            hexes(plain_decimate2(arr[index], binomial).ravel()))
