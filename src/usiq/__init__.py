"""usiq: similarity metrics, synthetic speckle benchmarks, and landmark
tracking with similarity-triggered reset for ultrasound-like grayscale
imagery.

The package re-exports each layer's ``__all__``; those lists are the only
record of the public names.
"""

__version__ = "0.1.0"

from . import harness, image, metrics, pyramid, synth, tracking
from .harness import *
from .image import *
from .metrics import *
from .pyramid import *
from .synth import *
from .tracking import *

__all__ = [name for layer in (image, pyramid, metrics, synth, tracking, harness)
           for name in layer.__all__] + ["__version__"]
