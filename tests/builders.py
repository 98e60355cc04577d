"""Input builders shared by several test modules."""

import numpy as np

from usiq.image import GrayImage
from usiq.synth import (
    SpeckleSpec,
    benchmark_motion_spec,
    benchmark_phantom_spec,
    periodic_sequence,
)


def bench_sequence(seed, n_frames=90, decoy=False, alpha=0.3):
    """The benchmark's periodic disc sequence, speckled at ``alpha``."""
    return periodic_sequence(benchmark_phantom_spec(decoy=decoy),
                             benchmark_motion_spec(n_frames=n_frames),
                             speckle=SpeckleSpec(alpha=alpha, seed=seed),
                             seed=seed)


def noise_image(seed, shape=(64, 64), low=0.0, high=255.0):
    """Uniform white noise on [low, high)."""
    rng = np.random.default_rng(seed)
    return GrayImage(rng.uniform(low, high, size=shape))
