"""Reference estimators the dictionary methods are benchmarked against.

Three baselines: reuse the uplink covariance unchanged, resample a ULA
covariance function to the downlink wavelength with a cubic spline, and
"perfect" unquantized feedback of the user's own sample covariance estimate.
The spline path needs a positive-definite repair step, provided here as
``psd_projection``.
"""

from __future__ import annotations

from enum import Enum

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.linalg import toeplitz

from .channel import ArrayKind, channel_realizations, sample_covariance
from .spd import HermitianTangent, SPDMatrix, _eigh_sym, _spectral

__all__ = [
    "BaselineKind",
    "ExtrapolationError",
    "UnsupportedGeometryError",
    "no_conversion",
    "perfect_feedback",
    "psd_projection",
    "spline_convert",
]

FLAG_PSD_CLIPPED = "psd-clipped"


class UnsupportedGeometryError(ValueError):
    """Baseline requires an array geometry it cannot handle."""


class ExtrapolationError(ValueError):
    """Requested resampling lies outside the sampled lag range."""


class BaselineKind(Enum):
    NO_CONVERSION = "no_conversion"
    SPLINE = "spline"
    PERFECT_FEEDBACK = "perfect_feedback"


def no_conversion(r_ul: SPDMatrix, downlink_dim: int | None = None) -> SPDMatrix:
    """Use the uplink covariance as the downlink estimate, unchanged.

    Only possible when uplink and downlink arrays have the same size;
    pass ``downlink_dim`` to assert that.
    """
    if downlink_dim is not None and downlink_dim != r_ul.dim:
        raise ValueError(
            f"no-conversion baseline needs matching dimensions, got uplink "
            f"{r_ul.dim} vs downlink {downlink_dim}"
        )
    return r_ul


def psd_projection(h: HermitianTangent) -> tuple[SPDMatrix, bool]:
    """Repair a Hermitian matrix to positive definiteness by eigenvalue
    clipping.

    Eigenvalues below ``eps = 1e-10 * max(trace(H)/N, 1)`` are raised to
    ``eps``.  Returns the repaired matrix and whether any clipping occurred.
    """
    w, u = _eigh_sym(h.mat)
    n = h.dim
    eps = 1e-10 * max(float(np.real(np.trace(h.mat))) / n, 1.0)
    clipped = bool(w[0] < eps)
    return SPDMatrix(_spectral(u, np.maximum(w, eps))), clipped


def toeplitz_lags(r_ul: SPDMatrix) -> np.ndarray:
    """Covariance function at integer lags 0..N-1 by diagonal averaging.

    Sample covariances of a ULA are only approximately Toeplitz; averaging
    the m-th superdiagonal is the standard Toeplitz regularization.
    """
    mat = r_ul.mat
    n = r_ul.dim
    return np.array([np.mean(np.diagonal(mat, offset=m)) for m in range(n)])


def spline_convert(
    r_ul: SPDMatrix,
    f_ul: float,
    f_dl: float,
    array_kind: ArrayKind = ArrayKind.ULA,
) -> tuple[SPDMatrix, tuple[str, ...]]:
    """Resample a ULA uplink covariance to the downlink frequency.

    On a ULA the covariance function of the downlink is a dilation of the
    uplink one, so the per-lag coefficients are extracted (diagonal
    averaging), interpolated by one natural cubic spline of the complex lags
    (its real and imaginary parts are the splines of each), evaluated at
    lags scaled by ``f_dl / f_ul``, rebuilt into a Hermitian Toeplitz
    matrix, and repaired to positive definiteness.

    Requires ``f_dl <= f_ul`` so the dilated lags stay inside the sampled
    range.

    Returns
    -------
    (SPDMatrix, flags)
        Flags contain ``psd-clipped`` when the repair had to clip.
    """
    if array_kind is not ArrayKind.ULA:
        raise UnsupportedGeometryError(
            f"spline conversion is only defined for a ULA, got {array_kind.value}"
        )
    if not (f_ul > 0.0 and f_dl > 0.0):
        raise ValueError("frequencies must be positive")
    if f_dl > f_ul:
        raise ExtrapolationError(
            f"f_dl ({f_dl:g} Hz) > f_ul ({f_ul:g} Hz): dilated lags would "
            "leave the sampled range"
        )

    lags = toeplitz_lags(r_ul)
    n = r_ul.dim
    if n == 1:
        resampled = lags
    else:
        x = np.arange(n, dtype=np.float64)
        xi = x * (f_dl / f_ul)
        resampled = CubicSpline(x, lags, bc_type="natural")(xi)

    hermitian_toeplitz = toeplitz(np.conj(resampled), resampled)
    repaired, clipped = psd_projection(HermitianTangent(hermitian_toeplitz))
    return repaired, ((FLAG_PSD_CLIPPED,) if clipped else ())


def perfect_feedback(
    r_dl_true: SPDMatrix, n_draws: int, rng: np.random.Generator
) -> SPDMatrix:
    """Sample covariance the user would estimate and feed back unquantized.

    Best-case benchmark: it sidesteps the uplink entirely but keeps the
    estimation noise of a finite-sample covariance (``n_draws >= N``).
    """
    return sample_covariance(channel_realizations(r_dl_true, n_draws, rng))
