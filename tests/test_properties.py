"""Property tests of the invariants the metrics and the pyramid promise,
run through the prepared-scorer path."""

import numpy as np
from hypothesis import given
from hypothesis import strategies as st

from usiq.image import GrayImage
from usiq.metrics import CwSsimParams, MsSsimParams, prepare
from usiq.pyramid import PyramidParams, band_energy, decompose, min_dimension

# small enough for every metric below: CW-SSIM needs 32 pixels a side,
# two-scale MS-SSIM 22
SIDES = st.integers(32, 56)
PARAMS = {
    "msssim": MsSsimParams(scales=2, weights=(0.5, 0.5)),
    "cwssim": CwSsimParams(pyramid=PyramidParams(levels=2, orientations=4)),
}


@st.composite
def image_pairs(draw):
    """A uniform-noise image and a copy with Gaussian noise of a drawn
    strength added, clipped to [0, 255]."""
    shape = (draw(SIDES), draw(SIDES))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = rng.uniform(0.0, 255.0, shape)
    sigma = draw(st.floats(0.0, 120.0))
    y = np.clip(x + rng.normal(0.0, sigma, shape), 0.0, 255.0)
    return GrayImage(x), GrayImage(y)


def score(name, ref, test):
    return prepare(name, ref, PARAMS.get(name))(test).value


@given(image_pairs())
def test_identity(pair):
    x, _ = pair
    assert score("ssim", x, x) == 1.0
    assert score("cwssim", x, x) == 1.0
    assert score("mse", x, x) == 0.0


@given(image_pairs())
def test_ssim_family_lies_in_unit_interval(pair):
    x, y = pair
    for name in ("ssim", "msssim", "cwssim"):
        assert -1.0 <= score(name, x, y) <= 1.0


@given(image_pairs())
def test_symmetric_metrics(pair):
    x, y = pair
    for name in ("mse", "psnr", "ssim", "cwssim"):
        forward, backward = score(name, x, y), score(name, y, x)
        assert forward == backward or abs(forward - backward) <= 1e-9


def energy_error(pixels, params):
    energy = float(np.sum(pixels ** 2))
    got = band_energy(decompose(GrayImage(pixels), params))
    return abs(got - energy) / energy


@given(levels=st.integers(1, 3), orientations=st.integers(1, 6),
       extra=st.tuples(st.integers(0, 40), st.integers(0, 40)),
       seed=st.integers(0, 2 ** 32 - 1))
def test_band_energy_matches_pixel_energy(levels, orientations, extra, seed):
    params = PyramidParams(levels=levels, orientations=orientations)
    side = min_dimension(params)
    shape = (side + extra[0], side + extra[1])
    pixels = np.random.default_rng(seed).uniform(0.0, 255.0, shape)
    assert energy_error(pixels, params) <= 1e-12


def test_single_orientation_keeps_energy_of_horizontal_stripes():
    # all of a horizontal-stripe image's bandpass energy lies on the vertical
    # frequency axis, the edge of the one orientation's half-plane
    rows = np.random.default_rng(0).uniform(0.0, 255.0, (32, 1))
    pixels = np.repeat(rows, 32, axis=1)
    for levels in (1, 2):
        params = PyramidParams(levels=levels, orientations=1)
        assert energy_error(pixels, params) <= 1e-12
