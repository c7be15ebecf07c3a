"""Dictionary-based downlink covariance estimation.

Given a dictionary of matched (uplink, downlink) covariance pairs and a newly
observed uplink covariance, estimate the downlink covariance as the weighted
barycenter of the stored downlink matrices.  Three weight-selection schemes
are provided: nearest neighbor, mirror interpolation (weights that best
reconstruct the query as a barycenter of nearby uplink entries, from a
quadratic program over the simplex solved exactly through its
non-negative least-squares lift), and Gaussian kernel smoothing with a
per-query bandwidth search.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable

import numpy as np
from scipy.optimize import nnls

from .spd import (
    BarycenterResult,
    Metric,
    SPDMatrix,
    SPDStack,
    barycenter,
    distances,
    log_maps,
)

__all__ = [
    "Dictionary",
    "DownlinkEstimate",
    "Scheme",
    "SchemeKind",
    "WeightVector",
    "estimate_downlink",
    "kernel_weights",
    "mirror_weights",
    "nearest_neighbor_weights",
    "select_bandwidth",
    "solve_simplex_qp",
]

# Diagnostic flag strings surfaced to the benchmark harness.
FLAG_KERNEL_UNDERFLOW = "kernel-underflow"
FLAG_DEGENERATE_BANDWIDTH = "degenerate-bandwidth"
FLAG_FLAT_BANDWIDTH = "flat-bandwidth"
FLAG_KARCHER_NONCONVERGED = "karcher-nonconverged"

_BANDWIDTH_EVALS = 200
_BANDWIDTH_SCAN_POINTS = 64


class Dictionary:
    """Ordered list of matched (uplink, downlink) covariance pairs.

    All uplink matrices share one dimension and all downlink matrices share
    one (possibly different) dimension; the dictionary is never empty.

    The dictionary is its two sides, each an :class:`~covcast.spd.SPDStack`
    (which rejects mixed dimensions).  Their stacked matrices, logarithms
    and inverse square roots are the dictionary's fitted coordinates:
    computed on first use, once per dictionary and process, and read by
    every later query.
    """

    __slots__ = ("_uplinks", "_downlinks")

    def __init__(self, pairs: Iterable[tuple[SPDMatrix, SPDMatrix]]) -> None:
        pairs = tuple(pairs)
        if not pairs:
            raise ValueError("dictionary must contain at least one pair")
        self._uplinks = SPDStack(ul for ul, _ in pairs)
        self._downlinks = SPDStack(dl for _, dl in pairs)

    @property
    def pairs(self) -> tuple[tuple[SPDMatrix, SPDMatrix], ...]:
        return tuple(zip(self.uplinks, self.downlinks))

    @property
    def uplinks(self) -> tuple[SPDMatrix, ...]:
        return self._uplinks.points

    @property
    def downlinks(self) -> tuple[SPDMatrix, ...]:
        return self._downlinks.points

    @property
    def uplink_stack(self) -> SPDStack:
        return self._uplinks

    @property
    def downlink_stack(self) -> SPDStack:
        return self._downlinks

    @property
    def uplink_dim(self) -> int:
        return self._uplinks.dim

    @property
    def downlink_dim(self) -> int:
        return self._downlinks.dim

    def __len__(self) -> int:
        return len(self._uplinks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dictionary(K={len(self)}, uplink_dim={self.uplink_dim}, "
            f"downlink_dim={self.downlink_dim})"
        )


class WeightVector:
    """Point on the probability simplex, indexed against a dictionary.

    Entries lie in [0, 1] and sum to 1 within 1e-9; values within 1e-12 of
    the interval bounds are snapped onto them so the invariant holds exactly.
    """

    __slots__ = ("_w",)

    def __init__(self, w) -> None:
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError(f"expected a nonempty 1-D weight vector, got shape {w.shape}")
        if np.any(w < -1e-12) or np.any(w > 1.0 + 1e-12):
            raise ValueError("weights must lie in [0, 1]")
        w = np.clip(w, 0.0, 1.0)
        total = float(w.sum())
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"weights must sum to 1 within 1e-9, got {total!r}")
        w.setflags(write=False)
        self._w = w

    @property
    def w(self) -> np.ndarray:
        return self._w

    @property
    def support(self) -> np.ndarray:
        """Indices with strictly positive weight."""
        return np.flatnonzero(self._w > 0.0)

    def __len__(self) -> int:
        return self._w.size

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"WeightVector({np.array2string(self._w, precision=4)})"


class SchemeKind(Enum):
    NEAREST_NEIGHBOR = "nearest_neighbor"
    MIRROR = "mirror"
    KERNEL = "kernel"


@dataclass(frozen=True)
class Scheme:
    """Weight-selection scheme; the kernel scheme optionally carries a fixed
    bandwidth (otherwise the bandwidth is searched per query)."""

    kind: SchemeKind
    bandwidth: float | None = None

    def __post_init__(self) -> None:
        if self.bandwidth is not None:
            if self.kind is not SchemeKind.KERNEL:
                raise ValueError("bandwidth is only meaningful for the kernel scheme")
            if not self.bandwidth > 0.0:
                raise ValueError("bandwidth must be positive")

    @classmethod
    def nearest_neighbor(cls) -> "Scheme":
        return cls(SchemeKind.NEAREST_NEIGHBOR)

    @classmethod
    def mirror(cls) -> "Scheme":
        return cls(SchemeKind.MIRROR)

    @classmethod
    def kernel(cls, bandwidth: float | None = None) -> "Scheme":
        return cls(SchemeKind.KERNEL, bandwidth)

    @property
    def label(self) -> str:
        if self.kind is SchemeKind.KERNEL and self.bandwidth is not None:
            return f"kernel@{self.bandwidth!r}"
        return self.kind.value


@dataclass(frozen=True)
class DownlinkEstimate:
    """Estimated downlink covariance, the weights used, and diagnostics."""

    covariance: SPDMatrix
    weights: WeightVector
    flags: tuple[str, ...]


def _uplink_distances(dictionary: Dictionary, query: SPDMatrix, metric: Metric) -> np.ndarray:
    if query.dim != dictionary.uplink_dim:
        raise ValueError(
            f"query dimension {query.dim} does not match dictionary "
            f"uplink dimension {dictionary.uplink_dim}"
        )
    return distances(metric, dictionary.uplink_stack, query)


def nearest_neighbor_weights(
    dictionary: Dictionary, query: SPDMatrix, metric: Metric
) -> WeightVector:
    """One-hot weights at the dictionary uplink closest to the query.

    Ties are broken toward the lowest index.
    """
    d = _uplink_distances(dictionary, query, metric)
    w = np.zeros(len(dictionary))
    w[int(np.argmin(d))] = 1.0
    return WeightVector(w)


def solve_simplex_qp(gram: np.ndarray) -> WeightVector:
    """Minimize ``w^T G w`` over the probability simplex, exactly.

    Factors ``G = A^T A`` with ``A = diag(sqrt(max(lambda, 0))) V^T`` from
    one eigendecomposition, solves the non-negative least-squares lift

        ``min ||A v||^2 + (1^T v - 1)^2``  over ``v >= 0``

    with Lawson-Hanson NNLS (:func:`scipy.optimize.nnls`) and returns
    ``w = v / 1^T v``.  The lift is exact: for ``v = s w`` its value is
    ``s^2 q + (s - 1)^2`` with ``q = w^T G w``, whose minimum over ``s`` is
    ``q / (1 + q)``, increasing in ``q``, so the lifted minimizer normalizes
    to the simplex minimizer.  The active-set method terminates in finitely
    many steps; if NNLS exhausts its own iteration allowance it raises
    ``RuntimeError``.  Deterministic.

    Parameters
    ----------
    gram : ndarray, shape (k, k)
        Hermitian positive-semidefinite Gram matrix; imaginary round-off
        (present when formed as ``M^H M`` from complex columns) is discarded,
        which is exact for real weight vectors.

    Returns
    -------
    WeightVector
        Length-k weights achieving the simplex minimum.
    """
    g = np.asarray(gram)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"Gram matrix must be square, got shape {g.shape}")
    if np.iscomplexobj(g):
        if np.abs(g - g.conj().T).max() > 1e-8 * max(1.0, np.abs(g).max()):
            raise ValueError("Gram matrix must be Hermitian")
        g = np.real((g + g.conj().T) / 2)
    else:
        g = (g + g.T) / 2
    eigs, vecs = np.linalg.eigh(g)
    if eigs[0] < -1e-10 * max(1.0, abs(eigs[-1])):
        raise ValueError(f"Gram matrix is not PSD: min eigenvalue {eigs[0]:.3e}")

    k = g.shape[0]
    if eigs[-1] <= 0.0:
        # Zero (or numerically zero) objective: every simplex point is optimal.
        return WeightVector(np.full(k, 1.0 / k))

    lifted = np.vstack([np.sqrt(np.maximum(eigs, 0.0))[:, None] * vecs.T, np.ones(k)])
    target = np.zeros(k + 1)
    target[-1] = 1.0
    v, _ = nnls(lifted, target)
    return WeightVector(v / v.sum())


def mirror_weights(
    dictionary: Dictionary, query: SPDMatrix, metric: Metric
) -> WeightVector:
    """Weights making the query (approximately) a barycenter of its nearest
    dictionary uplinks.

    The ``k_s = min(n_ul^2, K)`` uplink entries closest to the query are
    selected; the weights minimize, over the simplex, the norm of the
    weighted sum of logarithmic-map tangent vectors from the query to those
    entries, measured in the metric's own norm at the query (for the
    affine-invariant metric, ``||X^{-1/2} V X^{-1/2}||_F`` rather than the
    ambient ``||V||_F``; see :func:`~covcast.spd.whitened_log_map`).  Entries
    outside the selected set receive weight zero.
    """
    d = _uplink_distances(dictionary, query, metric)
    k = len(dictionary)
    k_s = min(dictionary.uplink_dim**2, k)
    selected = np.argsort(d, kind="stable")[:k_s]

    tangents = log_maps(metric, query, dictionary.uplink_stack, selected, whitened=True)
    # one column per selected entry, C-ordered as the Gram product expects
    m = np.ascontiguousarray(tangents.reshape(k_s, -1).T)
    gram = np.real(m.conj().T @ m)
    # Scale-normalize so the solver's PSD gate and the balance between the
    # Gram factor and the lift's sum-to-one row do not depend on tangent
    # magnitudes; the minimizer is scale-invariant.
    scale = float(np.abs(np.diag(gram)).max())
    if scale > 0.0:
        gram = gram / scale
    w_sel = solve_simplex_qp(gram).w

    w = np.zeros(k)
    w[selected] = w_sel
    return WeightVector(w)


def kernel_weights(
    dictionary: Dictionary, query: SPDMatrix, metric: Metric, bandwidth: float
) -> tuple[WeightVector, tuple[str, ...]]:
    """Gaussian-kernel weights ``w_i ∝ exp(-d_i^2 / (2 sigma^2))``.

    If every kernel value underflows to zero the weights fall back to the
    nearest-neighbor one-hot vector and the ``kernel-underflow`` flag is set.

    Returns
    -------
    (WeightVector, flags)
    """
    if not bandwidth > 0.0:
        raise ValueError("bandwidth must be positive")
    d = _uplink_distances(dictionary, query, metric)
    raw = np.exp(-(d**2) / (2.0 * bandwidth**2))
    if raw.max() == 0.0:
        w = np.zeros(len(dictionary))
        w[int(np.argmin(d))] = 1.0
        return WeightVector(w), (FLAG_KERNEL_UNDERFLOW,)
    return WeightVector(raw / raw.sum()), ()


def _bandwidth_objective_factory(tangents: np.ndarray, d: np.ndarray):
    """Objective ``sigma -> ||sum_k w_k(sigma) T_k||_F`` with kernel weights.

    Weights are evaluated in log space (max-subtracted) so the objective
    stays finite over the whole search bracket even where the raw Gaussian
    kernel underflows.
    """
    d2 = d**2

    def objective(log_sigma: float) -> float:
        logits = -d2 / (2.0 * np.exp(2.0 * log_sigma))
        logits -= logits.max()
        w = np.exp(logits)
        w /= w.sum()
        return float(np.linalg.norm(np.tensordot(w, tangents, axes=1), "fro"))

    return objective


def select_bandwidth(
    dictionary: Dictionary, query: SPDMatrix, metric: Metric
) -> tuple[float, tuple[str, ...]]:
    """Per-query kernel bandwidth minimizing the tangent-mean norm.

    Minimizes ``||sum_k w_k(sigma) log_map(query, uplink_k)||_F`` over
    ``sigma > 0``, where ``w(sigma)`` are the normalized Gaussian-kernel
    weights over the full dictionary.  The search runs on ``log sigma`` over
    ``[ln(d_min/10), ln(10 d_max)]`` (``d_min``/``d_max`` the smallest
    nonzero and largest dictionary distances to the query) with a fixed
    budget of 200 objective evaluations: a coarse scan locates the best
    bracket, golden-section refines within it.  Deterministic.

    Degenerate cases are flagged rather than guessed: if every distance is
    zero there is nothing to tune (``degenerate-bandwidth``); if the
    objective is flat over the bracket the returned interior point is
    arbitrary (``flat-bandwidth``).

    Returns
    -------
    (sigma, flags)
    """
    d = _uplink_distances(dictionary, query, metric)
    nonzero = d[d > 0.0]
    if nonzero.size == 0:
        return 1.0, (FLAG_DEGENERATE_BANDWIDTH,)

    # Canonical (distance-sorted) accumulation order makes the objective,
    # and hence the selected bandwidth, invariant under dictionary
    # permutation down to the bit level.
    order = np.argsort(d, kind="stable")
    tangents = log_maps(metric, query, dictionary.uplink_stack, order)
    objective = _bandwidth_objective_factory(tangents, d[order])

    lo = float(np.log(nonzero.min() / 10.0))
    hi = float(np.log(10.0 * d.max()))

    xs = np.linspace(lo, hi, _BANDWIDTH_SCAN_POINTS)
    js = np.array([objective(x) for x in xs])
    best = int(np.argmin(js))

    flat = (js.max() - js.min()) <= 1e-12 * max(1.0, float(js.max()))
    if flat:
        return float(np.exp(xs[best])), (FLAG_FLAT_BANDWIDTH,)

    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, xs.size - 1)]
    budget = _BANDWIDTH_EVALS - _BANDWIDTH_SCAN_POINTS
    x_star = _golden_section(objective, a, b, budget)
    return float(np.exp(x_star)), ()


def _golden_section(fn, a: float, b: float, max_evals: int) -> float:
    """Golden-section minimization on [a, b]; returns the argmin abscissa."""
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    e = a + invphi * (b - a)
    fc, fe = fn(c), fn(e)
    evals = 2
    while evals < max_evals and (b - a) > 1e-14 * max(1.0, abs(a), abs(b)):
        if fc < fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = fn(e)
        evals += 1
    return c if fc < fe else e


def estimate_downlink(
    dictionary: Dictionary, query: SPDMatrix, scheme: Scheme, metric: Metric
) -> DownlinkEstimate:
    """Estimate the downlink covariance for an observed uplink covariance.

    Computes scheme weights from the uplink side (running the bandwidth
    search first for a kernel scheme without a fixed bandwidth), then returns
    the weighted barycenter of the dictionary downlink matrices under the
    same metric.
    """
    flags: tuple[str, ...] = ()
    if scheme.kind is SchemeKind.NEAREST_NEIGHBOR:
        weights = nearest_neighbor_weights(dictionary, query, metric)
    elif scheme.kind is SchemeKind.MIRROR:
        weights = mirror_weights(dictionary, query, metric)
    else:
        sigma = scheme.bandwidth
        if sigma is None:
            sigma, flags = select_bandwidth(dictionary, query, metric)
        weights, kernel_flags = kernel_weights(dictionary, query, metric, sigma)
        flags = flags + kernel_flags

    result: BarycenterResult = barycenter(metric, dictionary.downlink_stack, weights.w)
    if not result.converged:
        flags = flags + (FLAG_KARCHER_NONCONVERGED,)
    return DownlinkEstimate(result.point, weights, flags)
