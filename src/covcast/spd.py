"""Geometry of the manifold of complex Hermitian positive-definite matrices.

Covariance matrices live on the open cone of Hermitian positive-definite
(HPD) matrices.  This module provides the matrix functions (log, exp, sqrt),
three metrics on the cone (Euclidean, log-Euclidean, affine-invariant) with
their distances and exponential/logarithmic maps, and weighted barycenters
(Fréchet means) under each metric.

All operations are pure functions; :class:`SPDMatrix` and
:class:`HermitianTangent` are immutable wrappers around read-only arrays.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np

__all__ = [
    "HERMITIAN_ATOL",
    "KARCHER_MAX_ITER",
    "KARCHER_TOL",
    "BarycenterResult",
    "HermitianTangent",
    "Metric",
    "NotHermitianError",
    "NotPositiveDefiniteError",
    "SPDMatrix",
    "SPDStack",
    "barycenter",
    "distance",
    "distances",
    "exp_map",
    "log_map",
    "log_maps",
    "matrix_exp",
    "matrix_log",
    "matrix_sqrt",
    "whitened_log_map",
]

# Absolute tolerance for the Hermitian gate at construction.
HERMITIAN_ATOL = 1e-12

# Stopping rule for the Karcher (affine-invariant barycenter) iteration:
# tangent-mean Frobenius norm below KARCHER_TOL, hard cap on iterations.
# For badly conditioned inputs the residual bottoms out above KARCHER_TOL at
# the float64 noise floor; once it is below KARCHER_FLOOR_TOL and stops
# improving for KARCHER_STALL_LIMIT iterations, the best iterate is accepted
# as the numerically attained fixed point.
KARCHER_TOL = 1e-10
KARCHER_FLOOR_TOL = 1e-8
KARCHER_STALL_LIMIT = 5
KARCHER_MAX_ITER = 200


class NotHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class NotPositiveDefiniteError(ValueError):
    """Input matrix has an eigenvalue outside the positive-definite cone."""


def _as_square_complex(entries) -> np.ndarray:
    mat = np.asarray(entries, dtype=np.complex128)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat.view(np.float64))):
        raise ValueError("matrix entries must be finite")
    return mat


def _check_hermitian(mat: np.ndarray) -> np.ndarray:
    """Gate on Hermitian symmetry, then symmetrize to absorb round-off."""
    defect = np.abs(mat - mat.conj().T).max() if mat.size else 0.0
    if defect > HERMITIAN_ATOL:
        raise NotHermitianError(
            f"matrix is not Hermitian: max |X - X^H| = {defect:.3e} "
            f"exceeds {HERMITIAN_ATOL:.0e}"
        )
    return (mat + mat.conj().T) / 2


class SPDMatrix:
    """Complex Hermitian positive-definite matrix.

    The constructor enforces Hermitian symmetry to within 1e-12 absolute and
    strict positive definiteness (smallest eigenvalue > 0); the stored array
    is exactly Hermitian (symmetrized) and read-only.

    Parameters
    ----------
    entries : array_like, shape (n, n)
        Square complex matrix.

    Raises
    ------
    NotHermitianError
        If the Hermitian defect exceeds 1e-12.
    NotPositiveDefiniteError
        If the smallest eigenvalue is not strictly positive.
    """

    __slots__ = ("_mat",)

    def __init__(self, entries) -> None:
        mat = _check_hermitian(_as_square_complex(entries))
        eigmin = np.linalg.eigvalsh(mat)[0] if mat.size else 0.0
        if not eigmin > 0.0:
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite: min eigenvalue = {eigmin:.3e}"
            )
        mat.setflags(write=False)
        self._mat = mat

    @property
    def mat(self) -> np.ndarray:
        """Underlying (n, n) complex array, read-only."""
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SPDMatrix(dim={self.dim})"


class HermitianTangent:
    """Complex Hermitian matrix, an element of a tangent space on the cone.

    Eigenvalues are unrestricted in sign; only Hermitian symmetry (within
    1e-12 absolute) is enforced.
    """

    __slots__ = ("_mat",)

    def __init__(self, entries) -> None:
        mat = _check_hermitian(_as_square_complex(entries))
        mat.setflags(write=False)
        self._mat = mat

    @property
    def mat(self) -> np.ndarray:
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"HermitianTangent(dim={self.dim})"


class Metric(Enum):
    """Metric on the cone of Hermitian positive-definite matrices."""

    EUCLIDEAN = "euclidean"
    LOG_EUCLIDEAN = "log_euclidean"
    AFFINE_INVARIANT = "affine_invariant"

    @property
    def label(self) -> str:
        return self.value


# ---------------------------------------------------------------------------
# Array-level matrix functions (internal; public API works on wrapper types).
# Each takes one (n, n) matrix or a stack of shape (k, n, n).  numpy's eigh,
# eigvalsh and matmul treat every slice of a stack as they treat a lone
# matrix, so a stacked call returns bitwise the per-matrix results.
# Inputs are symmetrized before eigendecomposition so round-off asymmetry
# never reaches eigh; outputs are re-symmetrized so they are exactly Hermitian.


def _ct(a: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a matrix, or of each matrix in a stack."""
    return a.conj().swapaxes(-1, -2)


def _herm(a: np.ndarray) -> np.ndarray:
    return (a + _ct(a)) / 2


def _eigh_sym(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return np.linalg.eigh(_herm(a))


def _check_positive(w: np.ndarray, what: str) -> None:
    """Raise unless every ascending eigenvalue row ``w`` starts above zero."""
    low = w[..., 0].min()
    if low <= 0.0:
        raise NotPositiveDefiniteError(f"{what}: min eigenvalue = {low:.3e}")


def _spectral(u: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``U diag(values) U^H`` for each eigenbasis, exactly Hermitian."""
    return _herm((u * values[..., None, :]) @ _ct(u))


def _logm(a: np.ndarray) -> np.ndarray:
    w, u = _eigh_sym(a)
    _check_positive(w, "matrix logarithm undefined")
    return _spectral(u, np.log(w))


def _expm(a: np.ndarray) -> np.ndarray:
    w, u = _eigh_sym(a)
    return _spectral(u, np.exp(w))


def _sqrtm(a: np.ndarray) -> np.ndarray:
    w, u = _eigh_sym(a)
    _check_positive(w, "matrix square root undefined on the cone")
    return _spectral(u, np.sqrt(w))


def _sqrtm_invsqrtm(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Principal square root and its inverse from a single eigendecomposition."""
    w, u = _eigh_sym(a)
    _check_positive(w, "matrix square root undefined on the cone")
    s = np.sqrt(w)
    return _spectral(u, s), _herm((u / s[..., None, :]) @ _ct(u))


def _hermitian_congruence(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ X @ A^H for Hermitian A, X (either may be a stack), exactly Hermitian."""
    return _herm(a @ x @ _ct(a))


def _frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, "fro"))


def _frobs(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, bitwise :func:`_frob` of it.

    ``np.linalg.norm(., "fro")`` of a complex matrix is ``sqrt(re.re + im.im)``
    with one strided BLAS dot product per part; a stacked matmul of row by
    column vectors makes the same dot-product calls.
    """
    flat = a.reshape(a.shape[0], -1)
    re, im = flat.real, flat.imag
    re2 = np.matmul(re[:, None, :], re[:, :, None])[:, 0, 0]
    im2 = np.matmul(im[:, None, :], im[:, :, None])[:, 0, 0]
    return np.sqrt(re2 + im2)


# ---------------------------------------------------------------------------
# Matrix functions on wrapper types


def matrix_log(x: SPDMatrix) -> HermitianTangent:
    """Principal matrix logarithm U diag(ln λ_i) U^H of a positive-definite X."""
    return HermitianTangent(_logm(x.mat))


def matrix_exp(v: HermitianTangent) -> SPDMatrix:
    """Matrix exponential U diag(e^{μ_i}) U^H; always positive definite."""
    return SPDMatrix(_expm(v.mat))


def matrix_sqrt(x: SPDMatrix) -> SPDMatrix:
    """Principal square root S with S @ S = X."""
    return SPDMatrix(_sqrtm(x.mat))


# ---------------------------------------------------------------------------
# Distances and exponential/logarithmic maps


def _check_same_dim(x: SPDMatrix, other, what: str) -> None:
    if x.dim != other.dim:
        raise ValueError(f"dimension mismatch in {what}: {x.dim} vs {other.dim}")


def distance(metric: Metric, x: SPDMatrix, y: SPDMatrix) -> float:
    """Distance between two positive-definite matrices under a metric.

    Euclidean uses ``||X - Y||_F``, log-Euclidean ``||log X - log Y||_F``,
    and affine-invariant ``||log(X^{1/2} Y^{-1} X^{1/2})||_F`` (equivalently
    the root sum of squared log-eigenvalues of ``X^{-1/2} Y X^{-1/2}``).

    Parameters
    ----------
    metric : Metric
    x, y : SPDMatrix
        Points on the cone, same dimension.

    Returns
    -------
    float
        Nonnegative distance; zero iff ``x == y``.
    """
    _check_same_dim(x, y, "distance")
    if metric is Metric.EUCLIDEAN:
        return _frob(x.mat - y.mat)
    if metric is Metric.LOG_EUCLIDEAN:
        return _frob(_logm(x.mat) - _logm(y.mat))
    # Affine invariant: eigenvalues of X^{-1/2} Y X^{-1/2} are the same as
    # those of X^{-1} Y, and their logs give the geodesic distance.
    _, isq = _sqrtm_invsqrtm(x.mat)
    return float(_ai_distances(isq, y.mat))


def _ai_distances(isq: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Affine-invariant distances from the points whose inverse square roots
    are ``isq`` (one matrix or a stack) to ``y``, one per point."""
    w = np.linalg.eigvalsh(_hermitian_congruence(isq, y))
    _check_positive(
        w, "affine-invariant distance: whitened matrix lost positive definiteness"
    )
    return np.sqrt(np.sum(np.log(w) ** 2, axis=-1))


def exp_map(metric: Metric, x: SPDMatrix, v: HermitianTangent) -> SPDMatrix:
    """Exponential map: shoot from ``x`` with tangent velocity ``v``.

    Euclidean: ``X + V`` (raises if the result leaves the cone).
    Log-Euclidean: ``exp(log X + V)``.
    Affine-invariant: ``X^{1/2} exp(X^{-1/2} V X^{-1/2}) X^{1/2}``.
    """
    _check_same_dim(x, v, "exp_map")
    if metric is Metric.EUCLIDEAN:
        try:
            return SPDMatrix(x.mat + v.mat)
        except NotPositiveDefiniteError as exc:
            raise NotPositiveDefiniteError(
                "Euclidean exponential map left the positive-definite cone"
            ) from exc
    if metric is Metric.LOG_EUCLIDEAN:
        return SPDMatrix(_expm(_logm(x.mat) + v.mat))
    sq, isq = _sqrtm_invsqrtm(x.mat)
    inner = _expm(_hermitian_congruence(isq, v.mat))
    return SPDMatrix(_hermitian_congruence(sq, inner))


def log_map(metric: Metric, x: SPDMatrix, y: SPDMatrix) -> HermitianTangent:
    """Logarithmic map: tangent velocity at ``x`` reaching ``y``.

    Inverse of :func:`exp_map` for every metric:
    ``exp_map(m, x, log_map(m, x, y)) == y``.
    """
    _check_same_dim(x, y, "log_map")
    if metric is Metric.EUCLIDEAN:
        return HermitianTangent(y.mat - x.mat)
    if metric is Metric.LOG_EUCLIDEAN:
        return HermitianTangent(_logm(y.mat) - _logm(x.mat))
    sq, isq = _sqrtm_invsqrtm(x.mat)
    inner = _logm(_hermitian_congruence(isq, y.mat))
    return HermitianTangent(_hermitian_congruence(sq, inner))


def whitened_log_map(metric: Metric, x: SPDMatrix, y: SPDMatrix) -> HermitianTangent:
    """Logarithmic map in coordinates whose Frobenius inner product is the
    metric's own inner product at ``x``.

    Euclidean and log-Euclidean tangents are returned as by :func:`log_map`:
    the Frobenius inner product already is their metric.  An affine-invariant
    tangent ``V`` has norm ``||X^{-1/2} V X^{-1/2}||_F`` at ``X`` (inner
    product ``tr(X^{-1} U X^{-1} V)``, Pennec, Fillard & Ayache 2006), so it
    is returned whitened, as ``log(X^{-1/2} Y X^{-1/2})``.  In every case the
    Frobenius norm of the result equals ``distance(metric, x, y)``.
    """
    if metric is not Metric.AFFINE_INVARIANT:
        return log_map(metric, x, y)
    _check_same_dim(x, y, "whitened_log_map")
    _, isq = _sqrtm_invsqrtm(x.mat)
    return HermitianTangent(_logm(_hermitian_congruence(isq, y.mat)))


# ---------------------------------------------------------------------------
# Fixed stacks of points


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


class SPDStack(Sequence):
    """Fixed sequence of positive-definite matrices of one dimension, held as
    one (k, n, n) array whose logarithms and inverse square roots are stacked
    on first use.

    Each array is computed once per object, in this process, with the steps
    of the per-matrix functions (:func:`matrix_log`, and the inverse root
    :func:`distance` whitens with), so every slice is bitwise what that
    function returns for its point.  Nothing is computed at construction, and
    an array that is never asked for is never built.  :func:`distances`,
    :func:`log_maps` and :func:`barycenter` read the arrays.

    Raises
    ------
    ValueError
        If there are no points or their dimensions differ (the message names
        the first offending entry).
    """

    __slots__ = ("_points", "_mats", "_logs", "_invsqrts")

    def __init__(self, points: Iterable[SPDMatrix]) -> None:
        points = tuple(points)
        if not points:
            raise ValueError("a stack requires at least one point")
        dim = points[0].dim
        for i, p in enumerate(points):
            if p.dim != dim:
                raise ValueError(
                    f"dimension mismatch in stack at entry {i}: {p.dim} vs {dim}"
                )
        self._points = points
        self._mats: np.ndarray | None = None
        self._logs: np.ndarray | None = None
        self._invsqrts: np.ndarray | None = None

    @property
    def points(self) -> tuple[SPDMatrix, ...]:
        return self._points

    @property
    def dim(self) -> int:
        return self._points[0].dim

    def __len__(self) -> int:
        return len(self._points)

    def __getitem__(self, index):
        return self._points[index]

    @property
    def mats(self) -> np.ndarray:
        """The points ``P_k`` themselves, shape (k, n, n), read-only."""
        if self._mats is None:
            self._mats = _read_only(np.stack([p.mat for p in self._points]))
        return self._mats

    @property
    def logs(self) -> np.ndarray:
        """``log P_k`` for every point, shape (k, n, n), read-only."""
        if self._logs is None:
            self._logs = _read_only(_logm(self.mats))
        return self._logs

    @property
    def invsqrts(self) -> np.ndarray:
        """``P_k^{-1/2}`` for every point, shape (k, n, n), read-only."""
        if self._invsqrts is None:
            self._invsqrts = _read_only(_sqrtm_invsqrtm(self.mats)[1])
        return self._invsqrts


def distances(metric: Metric, points: SPDStack, x: SPDMatrix) -> np.ndarray:
    """``distance(metric, p, x)`` for every point ``p`` of the stack, bitwise.

    Euclidean and log-Euclidean take the Frobenius norms of the stacked
    ``P_k - X`` and ``log P_k - log X``; affine-invariant whitens ``X`` with
    each point's stacked inverse root.  ``x`` costs one logarithm at most.
    """
    _check_same_dim(points, x, "distances")
    if metric is Metric.EUCLIDEAN:
        return _frobs(points.mats - x.mat)
    if metric is Metric.LOG_EUCLIDEAN:
        return _frobs(points.logs - _logm(x.mat))
    return _ai_distances(points.invsqrts, x.mat)


def log_maps(
    metric: Metric, x: SPDMatrix, points: SPDStack, idx, *, whitened: bool = False
) -> np.ndarray:
    """Tangents at ``x`` reaching the points at ``idx``, stacked, bitwise.

    Slice ``j`` is ``log_map(metric, x, points[idx[j]]).mat``, or with
    ``whitened`` the :func:`whitened_log_map` tangent.  ``x`` costs one
    eigendecomposition at most; the affine-invariant tangents take one
    stacked congruence and one stacked logarithm.
    """
    _check_same_dim(points, x, "log_maps")
    idx = np.asarray(idx, dtype=np.intp)
    if metric is Metric.EUCLIDEAN:
        return points.mats[idx] - x.mat
    if metric is Metric.LOG_EUCLIDEAN:
        return points.logs[idx] - _logm(x.mat)
    sq, isq = _sqrtm_invsqrtm(x.mat)
    inner = _logm(_hermitian_congruence(isq, points.mats[idx]))
    return inner if whitened else _hermitian_congruence(sq, inner)


# ---------------------------------------------------------------------------
# Weighted barycenters


@dataclass(frozen=True)
class BarycenterResult:
    """Weighted barycenter plus convergence diagnostics.

    ``converged`` is always True for the closed-form metrics.  For the
    affine-invariant metric it is True when the Karcher iteration drove the
    tangent-mean norm below ``KARCHER_TOL``, or when its best residual fell
    below ``KARCHER_FLOOR_TOL`` and then failed to improve for
    ``KARCHER_STALL_LIMIT`` iterations (the float64 noise floor; ``point``
    and ``residual`` are then the best iterate's).  It is False when
    ``KARCHER_MAX_ITER`` iterations pass without either, and ``point`` is
    the best iterate seen.
    """

    point: SPDMatrix
    converged: bool
    iterations: int
    residual: float


def _check_weights(weights, n_points: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n_points,):
        raise ValueError(f"expected {n_points} weights, got shape {w.shape}")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    total = float(w.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1 within 1e-9, got {total!r}")
    return w


def barycenter(
    metric: Metric,
    points: SPDStack | Sequence[SPDMatrix] | Iterable[SPDMatrix],
    weights,
) -> BarycenterResult:
    """Weighted barycenter (Fréchet mean) of positive-definite matrices.

    Minimizes ``sum_i w_i d(R_i, Y)^2`` over the cone.  The Euclidean and
    log-Euclidean barycenters have closed forms (``sum w_i R_i`` and
    ``exp(sum w_i log R_i)``).  The affine-invariant barycenter is computed
    by the damped Karcher fixed-point iteration

        ``X <- X^{1/2} exp(t sum_i w_i log(X^{-1/2} R_i X^{-1/2})) X^{1/2}``

    initialized at the log-Euclidean barycenter with step ``t = 1``.  The
    step halves (down to ``2^-10``) whenever the tangent-mean Frobenius norm
    (the residual) grows from one iteration to the next, which breaks the
    limit cycles a unit step can fall into on widely spread points.  The
    iteration stops when the residual drops below ``KARCHER_TOL``; or, at
    the float64 noise floor of badly conditioned points, once the best
    residual is below ``KARCHER_FLOOR_TOL`` and has not improved for
    ``KARCHER_STALL_LIMIT`` iterations, returning the best iterate as
    converged; or after ``KARCHER_MAX_ITER`` iterations, returning the best
    iterate as not converged.  Each iteration takes the logs of the whitened
    points with nonzero weight as one stacked eigendecomposition.

    Parameters
    ----------
    metric : Metric
    points : SPDStack or sequence of SPDMatrix
        At least one point, all of the same dimension.  An :class:`SPDStack`
        lends its stacked logarithms (computed once per stack) to the
        log-Euclidean mean and the Karcher starting point; any other
        sequence is stacked first.
    weights : array_like
        Nonnegative, summing to 1 within 1e-9, one per point.

    Returns
    -------
    BarycenterResult
    """
    if not isinstance(points, SPDStack):
        points = SPDStack(points)
    dim = points.dim
    w = _check_weights(weights, len(points))

    # Zero-weight points cannot move the barycenter and are left out.
    active = np.flatnonzero(w > 0.0)
    wa = w[active]

    if metric is Metric.EUCLIDEAN:
        acc = np.tensordot(wa, points.mats[active], axes=1)
        return BarycenterResult(SPDMatrix(acc), True, 0, 0.0)

    log_mean = np.tensordot(wa, points.logs[active], axes=1)
    le_point = _expm(log_mean)
    if metric is Metric.LOG_EUCLIDEAN:
        return BarycenterResult(SPDMatrix(le_point), True, 0, 0.0)

    mats = points.mats[active]
    x = le_point
    iterations = 0
    best_residual = np.inf
    best_x = x
    stall = 0
    step = 1.0
    prev_residual = np.inf
    while True:
        sq, isq = _sqrtm_invsqrtm(x)
        tangent = np.zeros((dim, dim), dtype=np.complex128)
        # summed in point order, as a per-point loop would
        for wi, log_i in zip(wa, _logm(_hermitian_congruence(isq, mats))):
            tangent += wi * log_i
        residual = _frob(tangent)
        if residual < KARCHER_TOL:
            return BarycenterResult(SPDMatrix(x), True, iterations, residual)
        if residual < best_residual:
            best_residual, best_x, stall = residual, x, 0
        else:
            stall += 1
        if best_residual < KARCHER_FLOOR_TOL and stall >= KARCHER_STALL_LIMIT:
            # round-off noise floor: the fixed point is attained to the
            # accuracy float64 permits for this conditioning
            return BarycenterResult(SPDMatrix(best_x), True, iterations, best_residual)
        if iterations >= KARCHER_MAX_ITER:
            return BarycenterResult(SPDMatrix(best_x), False, iterations, best_residual)
        if residual > prev_residual:
            # unit step can settle into a limit cycle on widely spread
            # ensembles; damping restores contraction without moving the
            # fixed point
            step = max(step / 2.0, 2.0**-10)
        x = _hermitian_congruence(sq, _expm(step * tangent))
        prev_residual = residual
        iterations += 1
