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
    KARCHER_TOL,
    BarycenterResult,
    Metric,
    SPDMatrix,
    SPDStack,
    barycenter,
    distances,
    log_maps,
    nearest,
)

__all__ = [
    "Dictionary",
    "DownlinkEstimate",
    "Scheme",
    "SchemeKind",
    "WeightVector",
    "estimate_downlink",
    "mirror_weights",
    "nearest_neighbor_weights",
    "select_bandwidth",
    "solve_simplex_qp",
]

# Diagnostic flag strings surfaced to the benchmark harness.
FLAG_DEGENERATE_BANDWIDTH = "degenerate-bandwidth"
FLAG_FLAT_BANDWIDTH = "flat-bandwidth"
FLAG_KARCHER_NONCONVERGED = "karcher-nonconverged"
FLAG_KARCHER_FLOOR = "karcher-floor"

_BANDWIDTH_SCAN_POINTS = 64


class Dictionary:
    """Ordered list of matched (uplink, downlink) covariance pairs.

    All uplink matrices share one dimension and all downlink matrices share
    one (possibly different) dimension; the dictionary is never empty.

    The dictionary is its two sides, each an :class:`~covcast.spd.SPDStack`
    (which rejects mixed dimensions).  Their stacked matrices and
    logarithms are the dictionary's fitted coordinates: computed on first
    use, once per dictionary and process, and read by every later query.
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

    Entries are finite, lie in [0, 1] and sum to 1 within 1e-9; values within
    1e-12 of the interval bounds are snapped onto them so the invariant holds
    exactly.
    """

    __slots__ = ("_w",)

    def __init__(self, w) -> None:
        w = np.asarray(w, dtype=np.float64)
        if w.ndim != 1 or w.size == 0:
            raise ValueError(f"expected a nonempty 1-D weight vector, got shape {w.shape}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
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
    """Weight-selection scheme; the kernel scheme searches its bandwidth per
    query (:func:`select_bandwidth`)."""

    kind: SchemeKind

    @classmethod
    def nearest_neighbor(cls) -> "Scheme":
        return cls(SchemeKind.NEAREST_NEIGHBOR)

    @classmethod
    def mirror(cls) -> "Scheme":
        return cls(SchemeKind.MIRROR)

    @classmethod
    def kernel(cls) -> "Scheme":
        return cls(SchemeKind.KERNEL)

    @property
    def label(self) -> str:
        return self.kind.value


@dataclass(frozen=True)
class DownlinkEstimate:
    """Estimated downlink covariance, the weights used, and diagnostics."""

    covariance: SPDMatrix
    weights: WeightVector
    flags: tuple[str, ...]


def nearest_neighbor_weights(
    dictionary: Dictionary, query: SPDMatrix, metric: Metric
) -> WeightVector:
    """One-hot weights at the dictionary uplink closest to the query.

    Ties are broken toward the lowest index.
    """
    w = np.zeros(len(dictionary))
    w[nearest(metric, dictionary.uplink_stack, query, 1)[0]] = 1.0
    return WeightVector(w)


def solve_simplex_qp(factor: np.ndarray) -> WeightVector:
    """Minimize ``||A w||^2`` over the probability simplex, exactly.

    Scales ``A`` to unit largest column norm (the minimizer is
    scale-invariant), solves the non-negative least-squares lift

        ``min ||A v||^2 + (1^T v - 1)^2``  over ``v >= 0``

    with Lawson-Hanson NNLS (:func:`scipy.optimize.nnls`) and returns
    ``w = v / 1^T v``.  The lift is exact: for ``v = s w`` its value is
    ``s^2 q + (s - 1)^2`` with ``q = ||A w||^2``, whose minimum over ``s`` is
    ``q / (1 + q)``, increasing in ``q``, so the lifted minimizer normalizes
    to the simplex minimizer.  The active-set method terminates in finitely
    many steps; if NNLS exhausts its own iteration allowance it raises
    ``RuntimeError``.  Deterministic.

    Parameters
    ----------
    factor : ndarray, shape (m, k)
        Real matrix ``A`` with ``k >= 1`` columns; the objective is
        ``w^T G w`` for the Gram matrix ``G = A^T A``, which is never formed.

    Returns
    -------
    WeightVector
        Length-k weights achieving the simplex minimum.
    """
    a = np.asarray(factor)
    if np.iscomplexobj(a):
        raise ValueError("factor must be real; pass the float64 view of complex columns")
    if a.ndim != 2 or a.shape[1] == 0:
        raise ValueError(f"factor must be 2-D with at least one column, got shape {a.shape}")
    k = a.shape[1]
    scale = float(np.linalg.norm(a, axis=0).max())
    if scale == 0.0:
        # Zero objective: every simplex point is optimal.
        return WeightVector(np.full(k, 1.0 / k))

    lifted = np.vstack([a / scale, np.ones(k)])
    target = np.zeros(lifted.shape[0])
    target[-1] = 1.0
    v, _ = nnls(lifted, target)
    return WeightVector(v / v.sum())


def mirror_weights(
    dictionary: Dictionary, query: SPDMatrix, metric: Metric
) -> WeightVector:
    """Weights making the query (approximately) a barycenter of its nearest
    dictionary uplinks.

    The ``k_s = min(n_ul^2, K)`` uplink entries closest to the query are
    selected (by :func:`~covcast.spd.nearest`, ties toward the lowest
    index); the weights minimize, over the simplex, the norm of the
    weighted sum of the tangents from the query to those entries, in the
    metric's own norm at the query: :func:`~covcast.spd.log_maps` returns
    them in coordinates where that norm is Frobenius (for the
    affine-invariant metric, whitened, ``||X^{-1/2} V X^{-1/2}||_F``).  The
    simplex QP takes the tangents as the columns of their real
    ``(2 n^2, k_s)`` view.  Entries outside the selected set receive weight
    zero.
    """
    k = len(dictionary)
    k_s = min(dictionary.uplink_dim**2, k)
    selected = nearest(metric, dictionary.uplink_stack, query, k_s)[0]

    tangents = log_maps(metric, query, dictionary.uplink_stack, selected)
    w_sel = solve_simplex_qp(tangents.reshape(k_s, -1).view(np.float64).T).w

    w = np.zeros(k)
    w[selected] = w_sel
    return WeightVector(w)


def _kernel_tangent_norms(rows: np.ndarray, half_d2: np.ndarray, log_sigma):
    """``||sum_k w_k(sigma) T_k||_F`` at each ``log_sigma``, with kernel weights.

    ``rows`` holds the tangents ``T_k`` in real coordinates, one ``(2 n^2,)``
    row each, so the Frobenius norm of a weighted tangent sum is the 2-norm
    of the same weighted sum of rows.  ``half_d2`` is ``(d_k^2 - d_0^2) / 2``
    for the distance-sorted entries: every logit is at most 0 and the nearest
    one is exactly 0, so the kernel sum is at least 1 over the whole search
    bracket, even where the raw Gaussian kernel underflows.  An array of
    ``m`` bandwidths is one ``(m, K)`` by ``(K, 2 n^2)`` matrix product; a
    scalar is one matrix-vector product.
    """
    with np.errstate(over="ignore"):  # a logit of -inf is the weight 0
        kernel = np.exp(np.multiply.outer(-np.exp(-2.0 * np.asarray(log_sigma)), half_d2))
    return np.linalg.norm(kernel @ rows, axis=-1) / kernel.sum(axis=-1)


def select_bandwidth(
    dictionary: Dictionary, query: SPDMatrix, metric: Metric
) -> tuple[float, WeightVector, tuple[str, ...]]:
    """Per-query kernel bandwidth minimizing the tangent-mean norm, and the
    kernel weights at that bandwidth.

    Minimizes ``||sum_k w_k(sigma) T_k||_F`` over ``sigma > 0``, where
    ``w(sigma)`` are the normalized Gaussian-kernel weights over the full
    dictionary and ``T_k`` the :func:`~covcast.spd.log_maps` tangents to the
    uplinks, whose Frobenius norm is the metric's own at the query (for the
    affine-invariant metric ``||X^{-1/2} V X^{-1/2}||_F``, so ``sigma`` is
    invariant under congruence).  The search runs on ``log sigma`` over
    ``[ln(d_min/10), ln(10 d_max)]`` (``d_min``/``d_max`` the smallest
    nonzero and largest dictionary distances to the query): a 64-point scan
    locates the best bracket, golden-section refines within it until the
    bracket is no wider than ``1e-14 max(1, |a|, |b|)``.  Deterministic.

    For any finite distances the refinement takes at most 76 evaluations.
    A nonzero distance is the square root of a finite float64 sum of
    squares, so it lies in ``[2^-537, 2^512)``: the scan spans under
    ``ln 100 + 1049 ln 2 = 731.7``, the refined bracket (two of its 63
    intervals) under 23.23, and :func:`_golden_section` stops within
    ``ceil(ln(23.23 / 1e-14) / ln(phi)) = 74`` steps.

    The tangents are stacked once, in distance order, as the real
    ``(K, 2 n^2)`` view of their complex entries (see
    :func:`_kernel_tangent_norms`).  The scan's 64 objective values are one
    matrix product of their ``(64, K)`` kernel weights with these rows; each
    golden-section step is one real matrix-vector product.  The canonical
    (distance-sorted) accumulation order makes the objective, and hence the
    selected bandwidth, invariant under dictionary permutation down to the
    bit level.

    Degenerate cases are flagged rather than guessed: if every distance is
    zero there is nothing to tune (``degenerate-bandwidth``); if the
    objective is flat over the bracket the returned interior point is
    arbitrary (``flat-bandwidth``).

    The weights ``w_k ∝ exp(-d_k^2 / (2 sigma^2))`` are built from the
    distances the search used, and normalized by their sum in distance
    order, so they too permute with the dictionary bit for bit.  Since
    ``sigma >= d_min / 10``, the nearest entry's logit is at least -50 and
    the kernel sum cannot underflow.

    Returns
    -------
    (sigma, weights, flags)
    """
    d = distances(metric, dictionary.uplink_stack, query)
    order = np.argsort(d, kind="stable")
    sigma, flags = _search_bandwidth(dictionary, query, metric, d, order)
    with np.errstate(over="ignore"):  # a logit of -inf is the weight 0
        kernel = np.exp(-(d**2) / (2.0 * sigma**2))
    return sigma, WeightVector(kernel / kernel[order].sum()), flags


def _search_bandwidth(
    dictionary: Dictionary,
    query: SPDMatrix,
    metric: Metric,
    d: np.ndarray,
    order: np.ndarray,
) -> tuple[float, tuple[str, ...]]:
    """The bandwidth search of :func:`select_bandwidth` over the query's
    uplink distances ``d``, whose stable ascending ``order`` it is given;
    returns ``(sigma, flags)``."""
    nonzero = d[d > 0.0]
    if nonzero.size == 0:
        return 1.0, (FLAG_DEGENERATE_BANDWIDTH,)

    tangents = log_maps(metric, query, dictionary.uplink_stack, order)
    rows = tangents.reshape(order.size, -1).view(np.float64)
    d2 = d[order] ** 2
    half_d2 = (d2 - d2[0]) / 2.0

    lo = float(np.log(nonzero.min() / 10.0))
    hi = float(np.log(10.0 * d.max()))

    xs = np.linspace(lo, hi, _BANDWIDTH_SCAN_POINTS)
    js = _kernel_tangent_norms(rows, half_d2, xs)
    best = int(np.argmin(js))

    flat = (js.max() - js.min()) <= 1e-12 * max(1.0, float(js.max()))
    if flat:
        return float(np.exp(xs[best])), (FLAG_FLAT_BANDWIDTH,)

    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, xs.size - 1)]
    x_star = _golden_section(lambda x: _kernel_tangent_norms(rows, half_d2, x), a, b)
    return float(np.exp(x_star)), ()


def _golden_section(fn, a: float, b: float) -> float:
    """Golden-section minimization on [a, b]; returns the argmin abscissa.

    Evaluates ``fn`` twice, then once per step, each shrinking the bracket
    by ``1/phi = 0.618``, until it is no wider than ``1e-14 max(1, |a|,
    |b|)``: at most ``ceil(ln(w / 1e-14) / ln(phi))`` steps from width ``w``
    in exact arithmetic.  Rounding moves a point by about an ulp of
    ``max(|a|, |b|)``, 1/90 of the narrowest bracket the loop goes on from.
    """
    invphi = (np.sqrt(5.0) - 1.0) / 2.0
    c = b - invphi * (b - a)
    e = a + invphi * (b - a)
    fc, fe = fn(c), fn(e)
    while (b - a) > 1e-14 * max(1.0, abs(a), abs(b)):
        if fc < fe:
            b, e, fe = e, c, fc
            c = b - invphi * (b - a)
            fc = fn(c)
        else:
            a, c, fc = c, e, fe
            e = a + invphi * (b - a)
            fe = fn(e)
    return c if fc < fe else e


def estimate_downlink(
    dictionary: Dictionary, query: SPDMatrix, scheme: Scheme, metric: Metric
) -> DownlinkEstimate:
    """Estimate the downlink covariance for an observed uplink covariance.

    Computes scheme weights from the uplink side (for the kernel scheme, at
    the bandwidth :func:`select_bandwidth` searches per query), then returns
    the weighted barycenter of the dictionary downlink matrices under the
    same metric.  An affine-invariant barycenter is flagged
    ``karcher-nonconverged`` when its Newton iteration stops at the cap, and
    ``karcher-floor`` when it converged at the float64 noise floor, with a
    residual between ``KARCHER_TOL`` and ``KARCHER_FLOOR_TOL``.
    """
    flags: tuple[str, ...] = ()
    if scheme.kind is SchemeKind.NEAREST_NEIGHBOR:
        weights = nearest_neighbor_weights(dictionary, query, metric)
    elif scheme.kind is SchemeKind.MIRROR:
        weights = mirror_weights(dictionary, query, metric)
    else:
        _, weights, flags = select_bandwidth(dictionary, query, metric)

    result: BarycenterResult = barycenter(metric, dictionary.downlink_stack, weights.w)
    if not result.converged:
        flags = flags + (FLAG_KARCHER_NONCONVERGED,)
    elif result.residual >= KARCHER_TOL:
        # converged at the float64 noise floor, below KARCHER_FLOOR_TOL
        flags = flags + (FLAG_KARCHER_FLOOR,)
    return DownlinkEstimate(result.point, weights, flags)
