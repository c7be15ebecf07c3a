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

import math
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
    _check_weights,
    _norms,
    barycenter,
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
# Kernel weights below 2^-52 of the largest are cut to zero; as a logit,
# ln 2^-52 (see select_bandwidth).
_LOG_CUT = -52.0 * np.log(2.0)


class Dictionary:
    """Ordered list of matched (uplink, downlink) covariance pairs.

    All uplink matrices share one dimension and all downlink matrices share
    one (possibly different) dimension; the dictionary is never empty.

    The dictionary is its two sides, ``uplinks`` and ``downlinks``, each an
    :class:`~covcast.spd.SPDStack` (a sequence of its points, which rejects
    mixed dimensions).  Their stacked matrices and logarithms are the
    dictionary's fitted coordinates: computed on first use, once per
    dictionary and process, and read by every later query.
    """

    __slots__ = ("_uplinks", "_downlinks")

    def __init__(self, pairs: Iterable[tuple[SPDMatrix, SPDMatrix]]) -> None:
        pairs = tuple(pairs)
        if not pairs:
            raise ValueError("dictionary must contain at least one pair")
        self._uplinks = SPDStack(ul for ul, _ in pairs)
        self._downlinks = SPDStack(dl for _, dl in pairs)

    @property
    def uplinks(self) -> SPDStack:
        return self._uplinks

    @property
    def downlinks(self) -> SPDStack:
        return self._downlinks

    def __len__(self) -> int:
        return len(self._uplinks)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Dictionary(K={len(self)}, uplink_dim={self._uplinks.dim}, "
            f"downlink_dim={self._downlinks.dim})"
        )


class WeightVector:
    """Point on the probability simplex, indexed against a dictionary.

    Entries are finite, lie in [0, 1] and sum to 1 within
    :data:`~covcast.spd.SIMPLEX_TOL`; values within 1e-12 of the interval
    bounds are snapped onto them so the invariant holds exactly.
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
        w = _check_weights(np.clip(w, 0.0, 1.0), w.size)
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
    w[nearest(metric, dictionary.uplinks, query, 1)[0]] = 1.0
    return WeightVector(w)


def solve_simplex_qp(factor: np.ndarray) -> WeightVector:
    """Minimize ``||A w||^2`` over the probability simplex, exactly.

    Scales ``A`` to unit largest column norm, at any scale (the minimizer is
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
    # Dividing by a power of two is exact, so ``a / scale`` keeps its bits and
    # the column norms cannot under- or overflow.  (spd's stack norm would sum
    # in another order, moving 281 desk ULA mirror scores by up to 6.2e-8.)
    a = np.ldexp(a, -np.frexp(np.abs(a).max(initial=0.0))[1])
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
    k_s = min(dictionary.uplinks.dim**2, k)
    selected = nearest(metric, dictionary.uplinks, query, k_s)[0]

    tangents = log_maps(metric, query, dictionary.uplinks, selected)
    w_sel = solve_simplex_qp(tangents.reshape(k_s, -1).view(np.float64).T).w

    w = np.zeros(k)
    w[selected] = w_sel
    return WeightVector(w)


def _kernel_logits(d: np.ndarray, log_sigma) -> np.ndarray:
    """Kernel logits ``-(d_k^2 - d_0^2) / (2 sigma^2)`` of the ascending
    distances ``d``, one row per value of ``log_sigma``.

    Computed as ``-(z_k^2 - z_0^2) / 2`` with ``z = d / sigma``, so no power
    of ``sigma`` is formed and the logits depend on the distances' scale
    only through ``d / sigma``.  The nearest logit is exactly 0 and the rest
    do not increase along ``d``, bit for bit (each step is monotone in
    ``d_k``), so the logits at or above a cut form a prefix.  Where
    ``sigma >= d_min / 10`` (every bandwidth :func:`select_bandwidth`
    tries), ``z_0 <= 10``: a far ``z_k`` that overflows gives the logit
    -inf, which is the weight 0, never NaN; :func:`select_bandwidth` runs
    its search under ``np.errstate(over="ignore")`` for that reason.
    """
    z = np.multiply.outer(np.exp(-log_sigma), d)
    z *= z
    z -= z[..., :1]
    z *= -0.5
    return z


def _kernel_tangent_norms(rows: np.ndarray, d: np.ndarray, log_sigma):
    """``||sum_k w_k(sigma) T_k||_F`` at each ``log_sigma``, with kernel weights.

    ``rows`` holds the tangents ``T_k`` as their real half-vectorizations, one
    ``(n^2,)`` row each (see :func:`_tangent_rows`), so the Frobenius norm of
    a weighted tangent sum is the 2-norm of the same weighted sum of rows;
    ``d`` holds their distances, ascending.  The kernel values ``exp`` of
    :func:`_kernel_logits` are 1 at the nearest entry, so their sum is at
    least 1 over the whole search bracket, even where the raw Gaussian kernel
    underflows.  An array of ``m`` bandwidths is one ``(m, K)`` by
    ``(K, n^2)`` matrix product; a scalar is one matrix-vector product.
    """
    kernel = np.exp(_kernel_logits(d, log_sigma))
    v = kernel @ rows
    return np.sqrt(np.sum(v * v, axis=-1)) / kernel.sum(axis=-1)


def _tangent_rows(tangents: np.ndarray, order: np.ndarray, unit: float) -> np.ndarray:
    """The Hermitian ``tangents`` at ``order`` as real rows, divided by ``unit``.

    Row ``j`` is the half-vectorization of ``tangents[order[j]]``: its ``n``
    real diagonal entries, then ``sqrt(2)`` times the real and then the
    imaginary parts of its ``n (n - 1) / 2`` entries above the diagonal.  A
    Hermitian matrix's Frobenius norm is the 2-norm of that row, and a
    weighted sum of matrices has the weighted sum of their rows, in ``n^2``
    real columns where the complex entries take ``2 n^2``.  The columns are
    gathered, then the rows in ``order``, then all multiplied by
    ``factor / unit``: a power-of-two ``unit`` scales exactly, and each
    entry is read and rounded on its own, so the rows of a permuted stack
    are the permuted rows, bit for bit.
    """
    k, n, _ = tangents.shape
    upper = np.ravel_multi_index(np.triu_indices(n, 1), (n, n))
    cols = np.concatenate([2 * (n + 1) * np.arange(n), 2 * upper, 2 * upper + 1])
    factor = np.full(n * n, np.sqrt(2.0))
    factor[:n] = 1.0
    rows = np.take(tangents.reshape(k, -1).view(np.float64), cols, axis=1)[order]
    rows *= factor / unit
    return rows


def select_bandwidth(
    dictionary: Dictionary, query: SPDMatrix, metric: Metric
) -> tuple[float, WeightVector, tuple[str, ...]]:
    """Per-query kernel bandwidth minimizing the tangent-mean norm, and the
    kernel weights at that bandwidth, over their effective support.

    Minimizes ``||sum_k w_k(sigma) T_k||_F`` over ``sigma > 0``, where
    ``w(sigma)`` are the normalized Gaussian-kernel weights
    ``w_k ∝ exp(-d_k^2 / (2 sigma^2))`` and ``T_k`` the
    :func:`~covcast.spd.log_maps` tangents to the uplinks, whose Frobenius
    norm is the metric's own at the query (for the affine-invariant metric
    ``||X^{-1/2} V X^{-1/2}||_F``, so ``sigma`` is invariant under
    congruence).  The distances ``d_k`` are the Frobenius norms of those
    same tangents, the metric's distances by construction, so one
    ``log_maps`` call (for the affine-invariant metric, one stacked
    eigendecomposition) serves the whole query.  The search runs on
    ``log sigma`` over ``[ln(d_min/10), ln(10 d_max)]`` (``d_min``/``d_max``
    the smallest nonzero and largest distances): a 64-point scan over every
    entry locates the best bracket ``[a, b]``, two of its intervals (one at
    either end), and Brent's method refines within it (Brent 1973, ch. 5,
    ``localmin``: golden section with safeguarded parabolic interpolation,
    see :func:`_brent_minimize`).  It stops at the tolerance
    ``t = sqrt(eps) max(1, a, -b)``, ``eps = 2^-52``: Brent's
    ``sqrt(eps) max(1, |x|)`` at the bracket's point nearest 0, held for
    the whole refinement.  A smooth minimum is known no better than that:
    near it the objective changes by ``J'' h^2 / 2`` at a step ``h``, which
    its rounding, ``eps J``, hides for ``h`` below ``sqrt(2 eps J / J'')``,
    of order ``sqrt(eps)`` on the log scale, so a finer search would only
    move ``sigma`` within rounding noise.  Deterministic.

    **The bound.**  For any finite distances the refinement takes at most
    3,763 evaluations.  A nonzero distance is the norm of a row with an
    entry of at least the smallest subnormal float64, so it lies in
    ``[2^-1074, 2^1024)``: the scan spans under ``ln 100 + 2098 ln 2``, and
    the bracket (two of its 63 intervals) is ``W_0 < 46.32`` wide.  With
    ``W`` the bracket's width, ``F`` the distance from the best point to its
    far end and ``c = (3 - sqrt 5) / 2``:

    * every evaluation lies strictly inside the bracket, as the search
      stops once ``F <= 2 t``, so neither ``W`` nor ``F`` ever grows;
    * each golden-section step, ``max(c F, t)`` toward the far end, shrinks
      ``W + F`` by a factor ``5/6`` or more, from ``(2 - c) W_0`` at the
      first step to above ``4 t`` at the last: 115 steps at most;
    * a parabolic step is tried only while the step two before it (after a
      golden step, its far distance ``F``) is longer than ``t``, and taken
      only if shorter than half of it; one that would land within ``2 t``
      of an end is replaced by a step of ``t``, which ends the run.  So at
      most ``2 ceil(log2(c F / t)) + 1`` follow a golden step at far
      distance ``F``, with ``F <= (W + F) / 2`` and ``F <= (1 - c) W_0``.

    Summed with ``t >= sqrt(eps)``, these steps and the first evaluation
    make 3,763.  In practice the refinement takes about a dozen.

    The tangents are held once, in distance order, as their real
    half-vectorizations (:func:`_tangent_rows`), a ``(K, n^2)`` matrix.
    The scan's 64 objective values are one matrix product of their
    ``(64, K)`` kernel weights with these rows; each refinement step is one
    real matrix-vector product.  The canonical (distance-sorted)
    accumulation order makes the objective, and hence the selected
    bandwidth, invariant under dictionary permutation down to the bit
    level.

    **The cut.**  A weight below ``2^-52`` times the largest (a logit below
    ``ln 2^-52``) is zeroed, and the rest are renormalized by their sum in
    distance order, so they too permute with the dictionary bit for bit and
    fall with distance.  The logits fall with distance, so the kept entries
    are a prefix of the distance order; :func:`~covcast.spd.barycenter`
    skips the rest.  The refinement reads only the prefix that is kept at
    the bracket's largest bandwidth ``b``: a logit
    ``-(d_k^2 - d_0^2) / (2 sigma^2)`` only falls as ``sigma`` shrinks, so
    no bandwidth in the bracket gives the other rows a weight above the
    cut.  How far the dropped terms can move each result, with ``kappa_k``
    the kernel values (1 at the nearest entry, so their sum ``S >= 1``) and
    ``delta`` the sum of the dropped ones, each below ``2^-52``, so
    ``delta < (K - m) 2^-52`` for ``m`` kept entries:

    * the tangent sum ``sum kappa_k T_k`` by at most ``delta d_max``, as
      ``||T_k||_F = d_k``; the weight sum ``S`` by ``delta``; so the
      objective ``||sum kappa_k T_k|| / S`` by at most
      ``delta (d_max + J)``, ``J`` its value over the kept rows, at every
      bandwidth up to ``b``;
    * the normalized weights by ``2 delta / S <= 2 delta`` in the 1-norm;
    * the barycenter, under every metric, by at most
      ``2 delta max_k d(Y, D_k)`` in that metric's distance, ``Y`` the mean
      of the uncut weights and ``D_k`` the downlinks.  The mean minimizes
      ``f(Y) = 1/2 sum w_k d(Y, D_k)^2``, whose Hessian is at least the
      identity (exactly the identity for the Euclidean and log-Euclidean
      metrics, see :func:`~covcast.spd._karcher_hessian` for the
      affine-invariant one), so ``f`` is 1-strongly geodesically convex and
      a point's distance to the minimizer is at most its gradient norm.
      The gradient of the cut objective at ``Y`` is
      ``-sum (w'_k - w_k) Log_Y(D_k)``, of norm at most
      ``2 delta max_k d(Y, D_k)``.

    That is, the dropped terms move each sum by no more than twice the
    rounding error bound of a ``K``-term float64 sum, ``K 2^-53`` of its
    size.

    Degenerate cases are flagged rather than guessed: if every distance is
    zero there is nothing to tune (``degenerate-bandwidth``, ``sigma = 1``
    and uniform weights); if the scanned objective varies by no more than
    ``1e-12 d_max`` (it never exceeds ``d_max``, so the test does not depend
    on the distances' scale) the returned scan point is arbitrary
    (``flat-bandwidth``).

    Returns
    -------
    (sigma, weights, flags)
    """
    k = len(dictionary)
    tangents = log_maps(metric, query, dictionary.uplinks, np.arange(k))
    d = _norms(tangents)
    order = np.argsort(d, kind="stable")
    # The search runs in units of a power of two between the smallest
    # nonzero and the largest distance: scaling by it is exact, so its
    # arithmetic and its stopping rule do not depend on the data's scale.
    nonzero = d[d > 0.0]
    unit = 1.0
    if nonzero.size:
        unit = np.ldexp(1.0, (np.frexp(nonzero.min())[1] + np.frexp(nonzero.max())[1]) // 2)
    d = d[order] / unit
    rows = _tangent_rows(tangents, order, unit)
    with np.errstate(over="ignore"):  # a logit of -inf is the weight 0
        log_sigma, flags = _search_bandwidth(rows, d)
        logits = _kernel_logits(d, log_sigma)
    kept = np.count_nonzero(logits >= _LOG_CUT)
    kernel = np.exp(logits[:kept])
    w = np.zeros(k)
    w[order[:kept]] = kernel / kernel.sum()
    return float(unit * np.exp(log_sigma)), WeightVector(w), flags


def _search_bandwidth(rows: np.ndarray, d: np.ndarray) -> tuple[float, tuple[str, ...]]:
    """The bandwidth search of :func:`select_bandwidth` over the real tangent
    ``rows`` and their ascending distances ``d``; returns
    ``(log sigma, flags)``."""
    if d[-1] == 0.0:
        return 0.0, (FLAG_DEGENERATE_BANDWIDTH,)

    lo = float(np.log(d[d > 0.0][0] / 10.0))
    hi = float(np.log(10.0 * d[-1]))
    xs = np.linspace(lo, hi, _BANDWIDTH_SCAN_POINTS)
    js = _kernel_tangent_norms(rows, d, xs)
    best = int(np.argmin(js))
    if js.max() - js.min() <= 1e-12 * d[-1]:
        return float(xs[best]), (FLAG_FLAT_BANDWIDTH,)

    a = xs[max(best - 1, 0)]
    b = xs[min(best + 1, xs.size - 1)]
    m = np.count_nonzero(_kernel_logits(d, b) >= _LOG_CUT)
    return _brent_minimize(lambda x: _kernel_tangent_norms(rows[:m], d[:m], x), a, b), ()


def _brent_minimize(fn, a: float, b: float) -> float:
    """Brent's ``localmin`` on ``[a, b]`` (Brent 1973, ch. 5); returns the
    best abscissa found.

    Golden section with safeguarded parabolic interpolation, at the fixed
    tolerance ``t = sqrt(eps) max(1, a, -b)``: it stops once the best point
    lies within ``2 t`` of both ends of the shrinking bracket, and evaluates
    ``fn`` strictly inside the bracket, at least ``t`` from the best point.
    :func:`select_bandwidth` bounds the number of evaluations.
    """
    c = (3.0 - math.sqrt(5.0)) / 2.0
    a, b = float(a), float(b)
    t = 2.0**-26 * max(1.0, a, -b)  # sqrt(eps) = 2^-26
    x = w = v = a + c * (b - a)
    fx = fw = fv = fn(x)
    d = e = 0.0
    while True:
        mid = (a + b) / 2.0
        if abs(x - mid) <= 2.0 * t - (b - a) / 2.0:
            return x
        golden = True
        if abs(e) > t:
            r = (x - w) * (fx - fv)
            q = (x - v) * (fx - fw)
            p = (x - v) * q - (x - w) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = abs(q)
            r, e = e, d
            if abs(p) < abs(0.5 * q * r) and q * (a - x) < p < q * (b - x):
                golden = False
                d = p / q
                if x + d - a < 2.0 * t or b - (x + d) < 2.0 * t:
                    d = math.copysign(t, mid - x)
        if golden:
            e = (a if x >= mid else b) - x
            d = c * e
        u = x + (d if abs(d) >= t else math.copysign(t, d))
        fu = fn(u)
        if fu <= fx:
            if u < x:
                b = x
            else:
                a = x
            v, fv, w, fw, x, fx = w, fw, x, fx, u, fu
        else:
            if u < x:
                a = u
            else:
                b = u
            if fu <= fw or w == x:
                v, fv, w, fw = w, fw, u, fu
            elif fu <= fv or v == x or v == w:
                v, fv = u, fu


def estimate_downlink(
    dictionary: Dictionary, query: SPDMatrix, scheme: Scheme, metric: Metric
) -> DownlinkEstimate:
    """Estimate the downlink covariance for an observed uplink covariance.

    Computes scheme weights from the uplink side (for the kernel scheme, at
    the bandwidth :func:`select_bandwidth` searches per query), then returns
    the weighted barycenter of the dictionary downlink matrices under the
    same metric.  An affine-invariant barycenter is flagged
    ``karcher-nonconverged`` when its Newton iteration stops at the cap or
    stalls above ``KARCHER_FLOOR_TOL`` (see :func:`~covcast.spd.barycenter`), and
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

    result: BarycenterResult = barycenter(metric, dictionary.downlinks, weights.w)
    if not result.converged:
        flags = flags + (FLAG_KARCHER_NONCONVERGED,)
    elif result.residual >= KARCHER_TOL:
        # converged at the float64 noise floor, below KARCHER_FLOOR_TOL
        flags = flags + (FLAG_KARCHER_FLOOR,)
    return DownlinkEstimate(result.point, weights, flags)
