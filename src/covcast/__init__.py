"""Downlink covariance estimation from uplink covariance observations.

Hermitian positive-definite covariance matrices are treated as points on a
Riemannian manifold; the downlink covariance for a new uplink observation is
interpolated as a weighted barycenter over a dictionary of matched
uplink/downlink pairs.  The package bundles the manifold geometry, the
interpolation schemes, a ring-scatterer channel simulator, reference
baselines, and a deterministic Monte-Carlo benchmark harness with a CLI
(``covcast``).
"""

from . import baselines, channel, config, harness, interp, spd
from .baselines import *
from .channel import *
from .config import *
from .harness import *
from .interp import *
from .spd import *

__all__ = [
    *baselines.__all__,
    *channel.__all__,
    *config.__all__,
    *harness.__all__,
    *interp.__all__,
    *spd.__all__,
]

__version__ = "0.1.0"
