"""Steerable decomposition tests: energy, selectivity, structure, stability."""

import math

import numpy as np
import pytest

from usiq import errors, pyramid
from usiq.image import GrayImage
from usiq.pyramid import (
    Pyramid,
    PyramidParams,
    band_energy,
    band_stack,
    decompose,
    min_dimension,
)

from builders import noise_image


def image_energy(image):
    return float(np.sum(image.pixels ** 2))


# ---------------------------------------------------------------------------
# Parameters and sizing


def test_default_params():
    p = PyramidParams()
    assert (p.levels, p.orientations) == (4, 6)


@pytest.mark.parametrize("levels,orientations", [(0, 6), (-1, 6), (3, 0)])
def test_bad_params_rejected(levels, orientations):
    with pytest.raises(errors.InvalidParamsError):
        PyramidParams(levels=levels, orientations=orientations)


def test_min_dimension_doubles_per_level():
    assert min_dimension(PyramidParams(levels=1, orientations=6)) == 16
    assert min_dimension(PyramidParams(levels=3, orientations=6)) == 64
    assert min_dimension(PyramidParams(levels=4, orientations=6)) == 128


def test_too_small_image_rejected():
    params = PyramidParams(levels=4, orientations=6)
    with pytest.raises(errors.ImageTooSmallError) as exc:
        decompose(noise_image(0, shape=(64, 64)), params)
    assert exc.value.kind == "image-too-small"
    # the limit is on the smaller side
    with pytest.raises(errors.ImageTooSmallError):
        decompose(noise_image(0, shape=(127, 200)), params)
    decompose(noise_image(0, shape=(128, 128)), params)  # exactly at the limit


# ---------------------------------------------------------------------------
# Structure: band count, layout, grid sizes, dtypes, immutability


def test_band_layout():
    params = PyramidParams(levels=3, orientations=4)
    pyr = decompose(noise_image(1), params)
    assert isinstance(pyr, Pyramid)
    assert len(pyr.subbands) == 12
    for level in range(3):
        for b in range(4):
            band = pyr.subbands[level * 4 + b]
            assert (band.level, band.orientation) == (level, b)
    assert pyr.source_shape == (64, 64)


@pytest.mark.parametrize("shape,widths", [
    ((64, 64), [(64, 64), (32, 32), (16, 16)]),
    ((100, 100), [(100, 100), (50, 50), (25, 25)]),
    ((96, 64), [(96, 64), (48, 32), (24, 16)]),
])
def test_grids_halve_with_ceil(shape, widths):
    params = PyramidParams(levels=3, orientations=2)
    pyr = decompose(noise_image(2, shape=shape), params)
    assert pyr.highpass_residual.shape == shape
    for level, want in enumerate(widths):
        for b in range(2):
            assert pyr.subbands[level * 2 + b].coeffs.shape == want
    last = widths[-1]
    low_want = (math.ceil(last[0] / 2), math.ceil(last[1] / 2))
    assert pyr.lowpass_residual.shape == low_want


def test_dtypes_and_readonly():
    pyr = decompose(noise_image(3), PyramidParams(levels=2, orientations=3))
    for band in pyr.subbands:
        assert band.coeffs.dtype == np.complex128
        assert not band.coeffs.flags.writeable
    for resid in (pyr.highpass_residual, pyr.lowpass_residual):
        assert resid.dtype == np.float64
        assert not resid.flags.writeable


# ---------------------------------------------------------------------------
# Energy accounting (tight perfect-reconstruction bound; the public
# contract only promises 1%)


@pytest.mark.parametrize("seed", range(20))
def test_energy_preserved_on_noise(seed):
    img = noise_image(seed)
    pyr = decompose(img, PyramidParams(levels=3, orientations=6))
    ref = image_energy(img)
    assert abs(band_energy(pyr) - ref) <= 1e-12 * ref


@pytest.mark.parametrize("shape,levels", [
    ((100, 100), 3),   # odd grids at levels 1+
    ((96, 64), 3),     # rectangular
    ((128, 128), 4),
])
def test_energy_preserved_awkward_shapes(shape, levels):
    img = noise_image(7, shape=shape)
    pyr = decompose(img, PyramidParams(levels=levels, orientations=6))
    ref = image_energy(img)
    assert abs(band_energy(pyr) - ref) <= 1e-12 * ref


def test_constant_image_energy_sits_in_lowpass():
    img = GrayImage(np.full((64, 64), 93.5))
    pyr = decompose(img, PyramidParams(levels=3, orientations=6))
    for band in pyr.subbands:
        assert float(np.abs(band.coeffs).max()) < 1e-9
    assert float(np.abs(pyr.highpass_residual).max()) < 1e-9
    # flat input stays flat, scaled by sqrt of the total decimation (2^levels)
    np.testing.assert_allclose(pyr.lowpass_residual, 93.5 * 8.0, atol=1e-9)
    ref = image_energy(img)
    assert abs(band_energy(pyr) - ref) <= 1e-12 * ref


# ---------------------------------------------------------------------------
# Orientation selectivity: a pure horizontal-frequency sinusoid at the
# level-0 peak radius lands in the aligned band, and the off-axis bands
# take exactly cos^(2(K-1)) of its energy


def test_sinusoid_band_selectivity():
    x = np.arange(64, dtype=np.float64)
    img = GrayImage(np.tile(128.0 + 100.0 * np.cos((np.pi / 2.0) * x), (64, 1)))
    params = PyramidParams(levels=2, orientations=3)
    pyr = decompose(img, params)
    energies = {(b.level, b.orientation): float(np.sum(np.abs(b.coeffs) ** 2))
                for b in pyr.subbands}
    top = energies[(0, 0)]
    assert top > 0.0
    for key, value in energies.items():
        if key != (0, 0):
            assert value < top / 10.0
    want = math.cos(math.pi / 3.0) ** 4  # 0.0625
    assert energies[(0, 1)] / top == pytest.approx(want, rel=1e-9)
    assert energies[(0, 2)] / top == pytest.approx(want, rel=1e-9)
    # the other scale sees nothing of a tone at the level-0 passband peak
    assert energies[(1, 0)] < 1e-12 * top


# ---------------------------------------------------------------------------
# Linearity and determinism


def test_linear_in_the_input():
    a, b = 2.5, -1.25
    img_x = noise_image(11)
    img_y = noise_image(12)
    mix = GrayImage(a * img_x.pixels + b * img_y.pixels)
    params = PyramidParams(levels=3, orientations=4)
    px, py, pm = (decompose(i, params) for i in (img_x, img_y, mix))
    scale = max(float(np.abs(s.coeffs).max()) for s in pm.subbands)
    for sx, sy, sm in zip(px.subbands, py.subbands, pm.subbands):
        err = np.abs(sm.coeffs - (a * sx.coeffs + b * sy.coeffs)).max()
        assert err <= 1e-9 * scale
    for name in ("highpass_residual", "lowpass_residual"):
        got = getattr(pm, name)
        want = a * getattr(px, name) + b * getattr(py, name)
        assert np.abs(got - want).max() <= 1e-9 * scale


def test_decompose_is_deterministic():
    img = noise_image(13)
    params = PyramidParams(levels=3, orientations=6)
    one = decompose(img, params)
    two = decompose(img, params)
    for s1, s2 in zip(one.subbands, two.subbands):
        assert np.array_equal(s1.coeffs, s2.coeffs)
    assert np.array_equal(one.highpass_residual, two.highpass_residual)
    assert np.array_equal(one.lowpass_residual, two.lowpass_residual)


# ---------------------------------------------------------------------------
# Cached mask plan


def plan_arrays(plan):
    yield plan.hi0
    yield plan.lo0
    for level in plan.levels:
        yield level.himask
        yield from level.angle_masks
        yield level.lomask


def test_plan_arrays_are_read_only():
    plan = pyramid._plan((65, 70), 3, 4)
    arrays = list(plan_arrays(plan))
    assert len(arrays) == 2 + 3 * (1 + 4 + 1)
    for arr in arrays:
        with pytest.raises(ValueError):
            arr[0, 0] = 1.0


def test_plan_shifted_masks_are_the_shifted_angle_masks():
    plan = pyramid._plan((65, 70), 3, 4)
    for level in plan.levels:
        assert len(level.shifted_masks) == len(level.angle_masks) == 4
        for shifted, centred in zip(level.shifted_masks, level.angle_masks):
            assert np.array_equal(shifted, np.fft.ifftshift(centred))
            with pytest.raises(ValueError):
                shifted[0, 0] = 1.0


def test_plan_is_shared_by_same_shaped_images():
    pyramid._plan.cache_clear()
    params = PyramidParams(levels=2, orientations=5)
    decompose(noise_image(14), params)
    decompose(noise_image(15), params)
    info = pyramid._plan.cache_info()
    assert (info.misses, info.hits) == (1, 1)


def half_plane_masks(angle, n_orient):
    """Oracle: the half-plane cos^(K-1) masks with no weight on the
    half-plane's edge."""
    order = n_orient - 1
    root = math.sqrt((4.0 ** order) * (math.factorial(order) ** 2)
                     / (n_orient * math.factorial(2 * order)))
    masks = []
    for b in range(n_orient):
        theta = np.mod(angle - np.pi * b / n_orient + np.pi, 2.0 * np.pi) - np.pi
        keep = np.abs(theta) < np.pi / 2.0
        masks.append(root * np.where(keep, np.cos(theta), 0.0) ** order * keep)
    return masks


@pytest.mark.parametrize("shape", [(64, 64), (65, 70), (77, 90)])
def test_plan_angle_masks(shape):
    _, angle = pyramid._freq_grids(shape)
    for orientations in range(2, 7):
        plan = pyramid._plan(shape, 3, orientations)
        level_angle = angle
        for level in plan.levels:
            want = half_plane_masks(level_angle, orientations)
            assert len(level.angle_masks) == orientations
            for got, expected in zip(level.angle_masks, want):
                assert np.array_equal(got, expected)
            level_angle = level_angle[level.keep]
    # one orientation: the same flat half-plane, plus 1/sqrt(2) on both
    # sides of its edge, the vertical frequency axis
    plan = pyramid._plan(shape, 3, 1)
    level_angle = angle
    for level in plan.levels:
        (got,), (flat,) = level.angle_masks, half_plane_masks(level_angle, 1)
        edge = np.abs(level_angle) == np.pi / 2.0
        assert edge.sum() == level_angle.shape[0] - 1
        assert np.all(got[edge] == math.sqrt(0.5))
        assert np.array_equal(got[~edge], flat[~edge])
        level_angle = level_angle[level.keep]


@pytest.mark.parametrize("shape", [(64, 64), (77, 90)])
def test_decompose_bit_equal_with_warm_and_cleared_plan(shape):
    img = noise_image(16, shape=shape)
    params = PyramidParams(levels=3, orientations=4)
    decompose(img, params)
    warm = decompose(img, params)
    pyramid._plan.cache_clear()
    cold = decompose(img, params)
    for s1, s2 in zip(warm.subbands, cold.subbands):
        assert np.array_equal(s1.coeffs, s2.coeffs)
    assert np.array_equal(warm.highpass_residual, cold.highpass_residual)
    assert np.array_equal(warm.lowpass_residual, cold.lowpass_residual)


# ---------------------------------------------------------------------------
# Stacked band loop


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def image_loop_decompose(image, params):
    """Oracle: ``decompose`` as a loop over one 2-D image, before the band
    loop took stacks. Returns (bands, highpass, lowpass)."""
    total = image.height * image.width
    dft = np.fft.fftshift(np.fft.fft2(image.pixels))
    plan = pyramid._plan(dft.shape, params.levels, params.orientations)
    highpass = np.fft.ifft2(np.fft.ifftshift(dft * plan.hi0)).real
    lodft = dft * plan.lo0
    phase = (-1j) ** (params.orientations - 1)
    bands = []
    for masks in plan.levels:
        factor = math.sqrt(lodft.size / total)
        radial = phase * lodft * masks.himask
        for amask in masks.angle_masks:
            bands.append(np.fft.ifft2(np.fft.ifftshift(radial * amask)) * factor)
        lodft = lodft[masks.keep] * masks.lomask
    factor = math.sqrt(lodft.size / total)
    lowpass = np.fft.ifft2(np.fft.ifftshift(lodft)).real * factor
    return bands, highpass, lowpass


def test_band_stack_makes_each_band_when_asked():
    params = PyramidParams(levels=2, orientations=3)
    bands = band_stack(np.zeros((2, 64, 64)), params)
    assert iter(bands) is bands
    first = next(bands)
    assert first.shape == (2, 64, 64)
    assert first.flags.writeable
    assert [b.shape for b in bands] == [(2, 64, 64)] * 2 + [(2, 32, 32)] * 3


@pytest.mark.parametrize("shape, params", [
    ((65, 65), PyramidParams(levels=3, orientations=6)),
    ((64, 64), PyramidParams(levels=3, orientations=6)),
    ((77, 90), PyramidParams(levels=2, orientations=4)),
    ((33, 40), PyramidParams(levels=1, orientations=1)),
    ((128, 128), PyramidParams()),
])
def test_decompose_and_band_stack_equal_the_image_loop(shape, params):
    images = [noise_image(40 + i, shape=shape) for i in range(3)]
    stacked = list(band_stack(np.stack([img.pixels for img in images]),
                              params))
    assert len(stacked) == params.levels * params.orientations
    for i, img in enumerate(images):
        bands, highpass, lowpass = image_loop_decompose(img, params)
        pyr = decompose(img, params)
        assert same_bits(pyr.highpass_residual, highpass)
        assert same_bits(pyr.lowpass_residual, lowpass)
        for band, stack, want in zip(pyr.subbands, stacked, bands):
            assert same_bits(band.coeffs, want)
            assert same_bits(stack[i], want)


# ---------------------------------------------------------------------------
# Magnitude stability under subpixel-scale shifts


def blob_image(size=96, sigma=12.0):
    yy, xx = np.mgrid[0:size, 0:size].astype(np.float64)
    c = size / 2.0
    r2 = (xx - c) ** 2 + (yy - c) ** 2
    return GrayImage(60.0 + 140.0 * np.exp(-r2 / (2.0 * sigma * sigma)))


def fourier_shift(pixels, dx, dy):
    """``pixels`` shifted periodically by (dx, dy) through the DFT."""
    h, w = pixels.shape
    wx = 2.0 * np.pi * np.fft.fftfreq(w)
    wy = 2.0 * np.pi * np.fft.fftfreq(h)
    ramp = np.exp(-1j * (wy[:, None] * dy + wx[None, :] * dx))
    return np.fft.ifft2(np.fft.fft2(pixels) * ramp).real


def shift_magnitude_stability(image, params=None, dx=1.0, dy=0.0, margin=2,
                              eps_frac=0.5):
    """Per-band max relative magnitude deviation under a (dx, dy) pixel shift.

    The shift is applied periodically (Fourier) and the deviation is
    ``||w_shifted| - |w|| / (|w| + eps)``, maxed over interior coefficients
    (``margin`` rows/cols excluded per side where the grid allows). ``eps``
    is ``eps_frac`` times the peak magnitude across all unshifted bands:
    normalizing against the decomposition's signal scale keeps near-nodal
    coefficients from flooding the ratio, so the statistic isolates what it
    is meant to show, that small shifts live almost entirely in the phase
    while magnitudes barely move.
    """
    base = decompose(image, params)
    if dx == 0.0 and dy == 0.0:
        shifted = base
    else:
        shifted = decompose(GrayImage(fourier_shift(image.pixels, dx, dy)),
                            params)
    mags = [np.abs(b.coeffs) for b in base.subbands]
    peak = max(float(m.max()) for m in mags)
    eps = eps_frac * peak if peak > 0 else 1.0
    devs = []
    for m0, b1 in zip(mags, shifted.subbands):
        m1 = np.abs(b1.coeffs)
        dev = np.abs(m1 - m0) / (m0 + eps)
        h, w = dev.shape
        m = margin if (h > 2 * margin and w > 2 * margin) else 0
        view = dev[m:h - m, m:w - m]
        devs.append(float(view.max()))
    return devs


def test_zero_shift_deviation_is_exactly_zero():
    devs = shift_magnitude_stability(blob_image(),
                                     PyramidParams(levels=3, orientations=6),
                                     dx=0.0, dy=0.0)
    assert devs == [0.0] * 18


@pytest.mark.parametrize("dx,dy", [(1.0, 0.0), (0.0, 1.0), (1.0, 1.0)])
def test_smooth_blob_magnitudes_barely_move(dx, dy):
    devs = shift_magnitude_stability(blob_image(),
                                     PyramidParams(levels=3, orientations=6),
                                     dx=dx, dy=dy)
    assert len(devs) == 18
    assert max(devs) < 0.15


def test_noise_moves_far_more_than_smooth_content():
    params = PyramidParams(levels=3, orientations=6)
    smooth = max(shift_magnitude_stability(blob_image(), params, dx=1.0))
    rough = max(shift_magnitude_stability(noise_image(21, shape=(96, 96)),
                                          params, dx=1.0))
    assert rough > 2.0 * smooth
