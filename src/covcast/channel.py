"""Synthetic ground truth: array geometries, scatterer fields, and the
ring-scatterer covariance model.

A single-antenna user surrounded by a disk of scatterers is seen by a base
station array; the spatial covariance of the narrowband channel is the sum of
ray phase differences over the scatterers with quadratic pathloss, plus a
thermal-noise diagonal.  Channel realizations are drawn as ``R^{1/2} w`` with
``w`` circularly-symmetric complex Gaussian, and sample covariances are the
usual outer-product averages.

All geometry is planar (2-D); randomized operations take an injected
``numpy.random.Generator`` and are bit-reproducible given the seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .spd import SPDMatrix, _herm, _sqrtm

__all__ = [
    "ArrayGeometry",
    "ArrayKind",
    "PropagationParams",
    "ScattererField",
    "channel_realizations",
    "draw_scatterers",
    "make_random_square",
    "make_ula",
    "model_covariance",
    "place_ue",
    "sample_covariance",
]

# Antennas closer than this are considered coincident (meters).
MIN_ANTENNA_SEPARATION = 1e-6
# Draws make_random_square tries before it gives up on a square.
_SQUARE_DRAWS = 100

SPEED_OF_LIGHT = 299_792_458.0  # m/s

_INV_SQRT2 = 1.0 / np.sqrt(2.0)


class ArrayKind(Enum):
    ULA = "ula"
    RANDOM_SQUARE = "random_square"


def _distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``(len(a), len(b))`` distances between two sets of 2-D points.

    Bitwise the textbook ``np.sqrt((diff**2).sum(axis=-1))`` of
    ``diff = a[:, None] - b[None]`` (``x**2`` is ``x * x`` and a two-term sum
    is one addition), without the ``(..., 2)`` temporary and its length-2
    reduction: about a fifth of its time at 1,000 x 10 points.
    """
    dx = np.subtract.outer(a[:, 0], b[:, 0])
    dy = np.subtract.outer(a[:, 1], b[:, 1])
    return np.sqrt(dx * dx + dy * dy)


def _min_pairwise_distance(points: np.ndarray) -> float:
    if points.shape[0] < 2:
        return np.inf
    dist = _distances(points, points)
    return float(dist[np.triu_indices(points.shape[0], k=1)].min())


@dataclass(frozen=True, eq=False)
class ArrayGeometry:
    """Planar antenna array: N distinct 2-D positions in meters."""

    positions: np.ndarray
    kind: ArrayKind

    def __post_init__(self) -> None:
        pos = np.asarray(self.positions, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 2 or pos.shape[0] < 1:
            raise ValueError(f"positions must have shape (N, 2) with N >= 1, got {pos.shape}")
        if _min_pairwise_distance(pos) <= MIN_ANTENNA_SEPARATION:
            raise ValueError("antenna positions must be pairwise distinct "
                             f"(> {MIN_ANTENNA_SEPARATION:g} m apart)")
        pos.setflags(write=False)
        object.__setattr__(self, "positions", pos)

    @property
    def n_antennas(self) -> int:
        return self.positions.shape[0]

    @property
    def centroid(self) -> np.ndarray:
        """Array reference point used for UE distances."""
        return self.positions.mean(axis=0)


def make_ula(n_antennas: int, spacing: float) -> ArrayGeometry:
    """Uniform linear array along the x-axis, first antenna at the origin."""
    if n_antennas < 1:
        raise ValueError("need at least one antenna")
    if not spacing > 0.0:
        raise ValueError("spacing must be positive")
    pos = np.zeros((n_antennas, 2))
    pos[:, 0] = spacing * np.arange(n_antennas)
    return ArrayGeometry(pos, ArrayKind.ULA)


def make_random_square(n_antennas: int, side: float, rng: np.random.Generator) -> ArrayGeometry:
    """Antennas i.i.d. uniform on the square ``[0, side]^2``.

    The whole set is redrawn in the (measure-zero) event that two antennas
    land within 1e-6 m of each other, at most 100 draws in all; a square
    too small for that many to succeed raises ``ValueError``.
    """
    if n_antennas < 1:
        raise ValueError("need at least one antenna")
    if not side > 0.0:
        raise ValueError("side must be positive")
    for _ in range(_SQUARE_DRAWS):
        pos = rng.uniform(0.0, side, size=(n_antennas, 2))
        if _min_pairwise_distance(pos) > MIN_ANTENNA_SEPARATION:
            return ArrayGeometry(pos, ArrayKind.RANDOM_SQUARE)
    raise ValueError(f"{_SQUARE_DRAWS} draws on a {side:g} m square put two antennas too close")


def place_ue(
    rng: np.random.Generator,
    d_min: float,
    d_max: float,
    reference: np.ndarray | tuple[float, float] = (0.0, 0.0),
) -> np.ndarray:
    """User position at distance ``D ~ Uniform[d_min, d_max]`` from the
    reference point, with angle uniform on ``[0, 2 pi)``."""
    if not 0.0 < d_min <= d_max:
        raise ValueError("require 0 < d_min <= d_max")
    d = rng.uniform(d_min, d_max)
    theta = rng.uniform(0.0, 2.0 * np.pi)
    ref = np.asarray(reference, dtype=np.float64)
    return ref + d * np.array([np.cos(theta), np.sin(theta)])


@dataclass(frozen=True, eq=False)
class ScattererField:
    """Scatterers around a user position, all within ``radius`` of it.

    ``distance_to_array`` is the UE distance D to the array reference point;
    it sets the pathloss in the covariance model.
    """

    ue_position: np.ndarray
    radius: float
    scatterers: np.ndarray
    distance_to_array: float

    def __post_init__(self) -> None:
        ue = np.asarray(self.ue_position, dtype=np.float64).reshape(2)
        sc = np.asarray(self.scatterers, dtype=np.float64)
        if sc.ndim != 2 or sc.shape[1] != 2 or sc.shape[0] < 1:
            raise ValueError(f"scatterers must have shape (N_S, 2) with N_S >= 1, got {sc.shape}")
        if not self.radius > 0.0:
            raise ValueError("radius must be positive")
        if not self.distance_to_array > 0.0:
            raise ValueError("distance to array must be positive")
        max_off = _distances(sc, ue[None, :]).max()
        # Allow for round-off on points generated exactly on the rim.
        if max_off > self.radius * (1.0 + 1e-12):
            raise ValueError(
                f"scatterer at distance {max_off:.6g} m exceeds radius {self.radius:.6g} m"
            )
        ue.setflags(write=False)
        sc.setflags(write=False)
        object.__setattr__(self, "ue_position", ue)
        object.__setattr__(self, "scatterers", sc)

    @property
    def n_scatterers(self) -> int:
        return self.scatterers.shape[0]


def draw_scatterers(
    rng: np.random.Generator,
    center: np.ndarray | tuple[float, float],
    radius: float,
    n_scatterers: int,
    reference: np.ndarray | tuple[float, float] = (0.0, 0.0),
) -> ScattererField:
    """Scatterers i.i.d. area-uniform on the disk of ``radius`` about
    ``center``; the field records the center's distance to ``reference``."""
    if n_scatterers < 1:
        raise ValueError("need at least one scatterer")
    if not radius > 0.0:
        raise ValueError("radius must be positive")
    center = np.asarray(center, dtype=np.float64).reshape(2)
    # Area-uniform disk sampling: radius ~ r * sqrt(U), angle uniform.
    r = radius * np.sqrt(rng.uniform(0.0, 1.0, size=n_scatterers))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n_scatterers)
    points = center + np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)
    d = float(np.linalg.norm(center - np.asarray(reference, dtype=np.float64)))
    return ScattererField(center, radius, points, d)


@dataclass(frozen=True)
class PropagationParams:
    """Wavelength and link powers (linear units) for the covariance model."""

    wavelength: float
    rx_power: float = 1.0
    noise_power: float = 1e-9

    def __post_init__(self) -> None:
        if not self.wavelength > 0.0:
            raise ValueError("wavelength must be positive")
        if not self.rx_power > 0.0:
            raise ValueError("rx_power must be positive")
        if self.noise_power < 0.0:
            raise ValueError("noise_power must be nonnegative")


def model_covariance(
    geometry: ArrayGeometry, field: ScattererField, params: PropagationParams
) -> SPDMatrix:
    """Ring-scatterer spatial covariance.

    Entry (i, j) is

        ``P / (D^2 N_S) * sum_l exp(2 pi i / lambda * (d_{l,i} - d_{l,j}))``

    plus ``P_N`` on the diagonal, where ``d_{l,i}`` is the distance from
    scatterer l to antenna i, ``D`` the UE-to-array distance, ``P`` the
    received power and ``P_N`` the thermal noise power.  The result is
    Hermitian by construction and positive definite whenever ``P_N > 0``.
    """
    dist = _distances(field.scatterers, geometry.positions)
    return SPDMatrix(_model_matrix(dist, field, params))


def _model_matrix(
    dist: np.ndarray, field: ScattererField, params: PropagationParams
) -> np.ndarray:
    """:func:`model_covariance`'s exactly Hermitian array, from the field's
    ``(N_S, N)`` scatterer-to-antenna distances ``dist``, which the uplink
    and downlink share."""
    phase = np.exp(2j * np.pi / params.wavelength * dist)
    r = phase.T @ phase.conj()
    r = _herm(r)
    scale = params.rx_power / (field.distance_to_array**2 * field.n_scatterers)
    r = scale * r
    # Phase differences vanish for i == j, so the diagonal is exactly
    # P / D^2 + P_N; writing it directly keeps that identity free of the
    # cos^2 + sin^2 round-off of the vectorized sum.
    np.fill_diagonal(
        r, params.rx_power / field.distance_to_array**2 + params.noise_power
    )
    return r


def channel_realizations(
    covariance: SPDMatrix, n_draws: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw ``n_draws`` channel vectors ``h = R^{1/2} w``, ``w ~ CN(0, I)``.

    Returns
    -------
    ndarray, shape (n_draws, N) complex
        One realization per row.
    """
    if n_draws < 1:
        raise ValueError("need at least one realization")
    sqrt_r = _sqrtm(covariance.mat)
    return _realizations(sqrt_r, *_normal_draws(rng, n_draws, covariance.dim))


def _normal_draws(
    rng: np.random.Generator, n_draws: int, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """The ``(n_draws, n)`` standard normals of ``w``'s real, then imaginary
    parts: every draw :func:`channel_realizations` makes."""
    return rng.standard_normal((n_draws, n)), rng.standard_normal((n_draws, n))


def _realizations(sqrt_r: np.ndarray, re: np.ndarray, im: np.ndarray) -> np.ndarray:
    """``w @ sqrt_r.T`` for ``w = (re + 1j * im) / sqrt(2)``, bitwise.

    numpy divides a complex number by the real ``c`` as
    ``(re + im * 0) * (1 / c)``, so each part is its draw times
    ``1 / sqrt(2)``, written in place without complex temporaries.
    """
    w = np.empty(re.shape, dtype=np.complex128)
    np.multiply(re, _INV_SQRT2, out=w.real)
    np.multiply(im, _INV_SQRT2, out=w.imag)
    return w @ sqrt_r.T


def sample_covariance(realizations: np.ndarray) -> SPDMatrix:
    """Sample covariance ``(1/L) sum_l h_l h_l^H`` of channel realizations.

    Requires ``L >= N`` draws in practice; a rank-deficient outcome (too few
    or degenerate realizations) is rejected by the positive-definiteness
    check.
    """
    h = np.asarray(realizations, dtype=np.complex128)
    if h.ndim != 2 or h.shape[0] < 1:
        raise ValueError(f"expected realizations of shape (L, N), got {h.shape}")
    r = (h.T @ h.conj()) / h.shape[0]
    r = _herm(r)
    return SPDMatrix(r)
