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
    "NEAREST_SLACK",
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
    "nearest",
    "whitened_log_map",
]

# Absolute tolerance for the Hermitian gate at construction.
HERMITIAN_ATOL = 1e-12

# Stopping rule for the Karcher (affine-invariant barycenter) Newton
# iteration: tangent-mean Frobenius norm (the residual) below KARCHER_TOL,
# hard cap on iterations.  For badly conditioned inputs the residual bottoms
# out above KARCHER_TOL at the float64 noise floor; once it is below
# KARCHER_FLOOR_TOL, a unit Newton step that fails to halve it ends the
# iteration at the current iterate, accepted as the numerically attained mean.
KARCHER_TOL = 1e-10
KARCHER_FLOOR_TOL = 1e-8
KARCHER_MAX_ITER = 200
# Relative residual to which conjugate gradients solves each Newton system.
_NEWTON_CG_RTOL = 1e-6

# Slack, in the log units of both distances, by which the affine-invariant
# nearest-entry search of :func:`nearest` widens its log-Euclidean cut; the
# derivation is in that function's docstring.
NEAREST_SLACK = 1e-2


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


def _read_only(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _restore_read_only(self, state) -> None:
    """``__setstate__`` of the slotted types that hold read-only arrays.

    Unpickled arrays come back writable; each is made read-only again, as
    it was when first stored.
    """
    _, slots = state
    for name, value in slots.items():
        setattr(self, name, _read_only(value) if isinstance(value, np.ndarray) else value)


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
        self._mat = _read_only(mat)

    __setstate__ = _restore_read_only

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
        self._mat = _read_only(_check_hermitian(_as_square_complex(entries)))

    __setstate__ = _restore_read_only

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


def _inverse_spectral(u: np.ndarray, values: np.ndarray) -> np.ndarray:
    """``U diag(1 / values) U^H`` for each eigenbasis, exactly Hermitian."""
    return _herm((u / values[..., None, :]) @ _ct(u))


def _invsqrtm(a: np.ndarray, *fns) -> tuple[np.ndarray, ...]:
    """Inverse principal square root, then ``U diag(f(λ)) U^H`` for each
    eigenvalue function ``f`` in ``fns`` (``np.sqrt`` gives bitwise
    :func:`_sqrtm`, ``np.log`` :func:`_logm`), from a single eigendecomposition."""
    w, u = _eigh_sym(a)
    _check_positive(w, "matrix square root undefined on the cone")
    return (_inverse_spectral(u, np.sqrt(w)), *(_spectral(u, f(w)) for f in fns))


def _hermitian_congruence(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ X @ A^H for Hermitian A, X (either may be a stack), exactly Hermitian."""
    return _herm(a @ x @ _ct(a))


def _frobs(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a stack, bitwise
    ``np.linalg.norm(., "fro")`` of it.

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
    Computed as the one-row case of :func:`distances`, with ``y`` the stack.

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
    return float(distances(metric, SPDStack._of(y), x)[0])


def _ai_distances(isq: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """Affine-invariant distances from ``X`` to each matrix ``P`` of the stack
    ``mats``, given ``isq = X^{-1/2}``: the root sum of squared
    log-eigenvalues of ``X^{-1/2} P X^{-1/2}``, which are those of
    ``X^{-1} P``."""
    w = np.linalg.eigvalsh(_hermitian_congruence(isq, mats))
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
    isq, sq = _invsqrtm(x.mat, np.sqrt)
    inner = _expm(_hermitian_congruence(isq, v.mat))
    return SPDMatrix(_hermitian_congruence(sq, inner))


def log_map(metric: Metric, x: SPDMatrix, y: SPDMatrix) -> HermitianTangent:
    """Logarithmic map: tangent velocity at ``x`` reaching ``y``.

    Euclidean: ``Y - X``.  Log-Euclidean: ``log Y - log X``.
    Affine-invariant: ``X^{1/2} log(X^{-1/2} Y X^{-1/2}) X^{1/2}``, the
    :func:`whitened_log_map` tangent congruenced back by ``X^{1/2}``.
    Inverse of :func:`exp_map` for every metric:
    ``exp_map(m, x, log_map(m, x, y)) == y``.
    """
    v = log_maps(metric, x, SPDStack._of(y), (0,))
    if metric is Metric.AFFINE_INVARIANT:
        v = _hermitian_congruence(_sqrtm(x.mat), v)
    return HermitianTangent(v[0])


def whitened_log_map(metric: Metric, x: SPDMatrix, y: SPDMatrix) -> HermitianTangent:
    """Logarithmic map in coordinates whose Frobenius inner product is the
    metric's own inner product at ``x``.

    Euclidean and log-Euclidean tangents are returned as by :func:`log_map`:
    the Frobenius inner product already is their metric.  An affine-invariant
    tangent ``V`` has norm ``||X^{-1/2} V X^{-1/2}||_F`` at ``X`` (inner
    product ``tr(X^{-1} U X^{-1} V)``, Pennec, Fillard & Ayache 2006), so it
    is returned whitened, as ``log(X^{-1/2} Y X^{-1/2})``.  In every case the
    Frobenius norm of the result equals ``distance(metric, x, y)``.
    Computed as the one-row case of :func:`log_maps`, with ``y`` the stack.
    """
    return HermitianTangent(log_maps(metric, x, SPDStack._of(y), (0,))[0])


# ---------------------------------------------------------------------------
# Fixed stacks of points


class SPDStack(Sequence):
    """Fixed sequence of positive-definite matrices of one dimension, held as
    one (k, n, n) array whose logarithms are stacked on first use.

    Each array is computed once per object, in this process, with the steps
    of the per-matrix functions (:func:`matrix_log`), so every slice is
    bitwise what that function returns for its point.  Nothing is computed
    at construction, and an array that is never asked for is never built.
    :func:`distances`, :func:`log_maps` and :func:`barycenter` read the
    arrays.

    Raises
    ------
    ValueError
        If there are no points or their dimensions differ (the message names
        the first offending entry).
    """

    __slots__ = ("_points", "_mats", "_logs")

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

    __setstate__ = _restore_read_only

    @classmethod
    def _of(cls, point: SPDMatrix) -> SPDStack:
        """One-point stack whose matrices view the point's own array."""
        stack = cls.__new__(cls)
        stack._points = (point,)
        stack._mats = point.mat[None]
        stack._logs = None
        return stack

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


def distances(metric: Metric, points: SPDStack, x: SPDMatrix) -> np.ndarray:
    """``distance(metric, x, p)`` for every point ``p`` of the stack, bitwise.

    Euclidean and log-Euclidean take the Frobenius norms of the stacked
    ``P_k - X`` and ``log P_k - log X``; affine-invariant whitens the stacked
    points with the inverse root of ``X``.  ``x`` costs one eigendecomposition
    at most.
    """
    _check_same_dim(points, x, "distances")
    if metric is Metric.EUCLIDEAN:
        return _frobs(points.mats - x.mat)
    if metric is Metric.LOG_EUCLIDEAN:
        return _frobs(points.logs - _logm(x.mat))
    return _ai_distances(_invsqrtm(x.mat)[0], points.mats)


def nearest(
    metric: Metric, points: SPDStack, x: SPDMatrix, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Indices and distances of the ``k`` stack points nearest to ``x``.

    Bitwise ``idx = np.argsort(d, kind="stable")[:k]`` and ``d[idx]`` for
    ``d = distances(metric, points, x)``: ascending distance, ties toward the
    lower index.  Euclidean and log-Euclidean compute exactly that, and so
    does affine-invariant when ``k`` covers the whole stack.

    Affine-invariant prunes with a lower bound.  The log-Euclidean distance
    never exceeds the affine-invariant one, ``||log P - log X||_F <=
    ||log(X^{-1/2} P X^{-1/2})||_F`` (the exponential metric increasing
    property; Bhatia, *Positive Definite Matrices*, 2007, Thm 6.1.4).  So:

    1. decompose ``X`` once, for ``log X`` and ``X^{-1/2}``, and take the
       log-Euclidean distances ``l`` from the stacked logs; ``X^{-1/2}``
       serves every affine-invariant distance below;
    2. compute the affine-invariant distances of the ``k`` entries with the
       smallest ``l``; their maximum ``u`` bounds the ``k``-th smallest
       affine-invariant distance from above;
    3. compute, in one stacked call, the affine-invariant distances of every
       other entry with ``l <= u + NEAREST_SLACK``, and take the stable order
       of all computed distances.

    An entry left out has ``l > u + NEAREST_SLACK``, so its affine-invariant
    distance exceeds ``u`` and it cannot displace any of the ``k`` nearest,
    not even on a tie.  Every computed distance is bitwise what
    :func:`distances` returns for it, so the result is exact.

    ``NEAREST_SLACK`` absorbs the rounding of the two computed distances,
    which can invert the bound where it is tight (commuting points, whose
    two distances agree exactly).  A backward-stable Hermitian eigensolver
    returns each eigenvalue of ``A`` to within about ``n eps ||A||_2``, so a
    log-eigenvalue to within about ``n eps cond(A)`` (``eps = 2.2e-16``);
    a distance is the 2-norm of ``n`` such terms, hence errs by at most about
    ``n^{3/2} eps cond(A)``.  The whitened ``X^{-1/2} P X^{-1/2}`` has
    ``cond <= cond(X) cond(P)``; the log-Euclidean distance decomposes ``X``
    and ``P`` alone and errs far less.  For ``n <= 10`` and
    ``cond(X) cond(P) <= 1e12`` the two errors together stay below 1e-2 (the
    uplink covariances of the committed configs have condition numbers up to
    about 1e6: a 1e-9 noise floor under their signal).  The widening costs
    little: a non-commuting entry's affine-invariant distance is typically a
    few percent above its log-Euclidean one.
    """
    if k < 1:
        raise ValueError(f"k must be at least 1, got {k}")
    if metric is not Metric.AFFINE_INVARIANT or k >= len(points):
        d = distances(metric, points, x)
        idx = np.argsort(d, kind="stable")[:k]
        return idx, d[idx]
    _check_same_dim(points, x, "nearest")
    isq, log_x = _invsqrtm(x.mat, np.log)
    lower = _frobs(points.logs - log_x)
    first = np.argsort(lower, kind="stable")[:k]
    d = np.full(len(points), np.inf)
    d[first] = _ai_distances(isq, points.mats[first])
    rest = np.flatnonzero((lower <= d[first].max() + NEAREST_SLACK) & np.isinf(d))
    if rest.size:
        d[rest] = _ai_distances(isq, points.mats[rest])
    # entries never computed stay at +inf, behind the k computed ones
    idx = np.argsort(d, kind="stable")[:k]
    return idx, d[idx]


def log_maps(metric: Metric, x: SPDMatrix, points: SPDStack, idx) -> np.ndarray:
    """Tangents at ``x`` reaching the points at ``idx``, stacked, bitwise.

    Slice ``j`` is ``whitened_log_map(metric, x, points[idx[j]]).mat``, the
    tangent in coordinates whose Frobenius norm is the metric's norm at ``x``.
    ``x`` costs one eigendecomposition at most; the affine-invariant tangents
    take one stacked congruence and one stacked logarithm.
    """
    _check_same_dim(points, x, "log_maps")
    idx = np.asarray(idx, dtype=np.intp)
    # The flat metrics subtract in place from the gathered copy, so each
    # query allocates one (k, n, n) array, not two.
    if metric is Metric.EUCLIDEAN:
        tangents = points.mats[idx]
        tangents -= x.mat
        return tangents
    if metric is Metric.LOG_EUCLIDEAN:
        tangents = points.logs[idx]
        tangents -= _logm(x.mat)
        return tangents
    return _logm(_hermitian_congruence(_invsqrtm(x.mat)[0], points.mats[idx]))


# ---------------------------------------------------------------------------
# Weighted barycenters


@dataclass(frozen=True)
class BarycenterResult:
    """Weighted barycenter plus convergence diagnostics.

    ``converged`` is always True for the closed-form metrics.  For the
    affine-invariant metric it is True when the Newton iteration drove the
    residual (the Frobenius norm of the whitened tangent mean) below
    ``KARCHER_TOL``, or stopped at the float64 noise floor: the residual
    was below ``KARCHER_FLOOR_TOL`` and a unit Newton step failed to halve
    it, so ``point`` and ``residual`` are the iterate before that step.  It is
    False when ``KARCHER_MAX_ITER`` iterations pass without either;
    ``point`` is then the last accepted iterate.
    """

    point: SPDMatrix
    converged: bool
    iterations: int
    residual: float


def _check_weights(weights, n_points: int) -> np.ndarray:
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n_points,):
        raise ValueError(f"expected {n_points} weights, got shape {w.shape}")
    if not np.all(np.isfinite(w)):
        raise ValueError("weights must be finite")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    total = float(w.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"weights must sum to 1 within 1e-9, got {total!r}")
    return w


class _KarcherIterate:
    """A Karcher iterate ``x`` with ``sq = x^{1/2}``, the factors ``u`` and
    ``mu`` of ``x^{-1/2} R_i x^{-1/2} = u_i diag(e^{mu_i}) u_i^H``, the
    tangent mean ``sum_i w_i u_i diag(mu_i) u_i^H`` and its Frobenius norm,
    the residual."""

    __slots__ = ("x", "sq", "u", "mu", "tangent", "residual")

    def __init__(self, x: np.ndarray, mats: np.ndarray, w: np.ndarray) -> None:
        self.x = x
        isq, self.sq = _invsqrtm(x, np.sqrt)
        e, self.u = _eigh_sym(_hermitian_congruence(isq, mats))
        _check_positive(e, "matrix logarithm undefined")
        self.mu = np.log(e)
        self.tangent = np.zeros(x.shape, dtype=np.complex128)
        # summed in point order, as a per-point loop would
        for wi, log_i in zip(w, _spectral(self.u, self.mu)):
            self.tangent += wi * log_i
        self.residual = float(_frobs(self.tangent[None])[0])


def _karcher_hessian(u: np.ndarray, mu: np.ndarray, w: np.ndarray):
    """Hessian of ``1/2 sum_i w_i d(X, R_i)^2`` at ``X`` in whitened tangent
    coordinates (``V`` stands for the tangent ``X^{1/2} V X^{1/2}``), as a
    map on Hermitian matrices:

        ``V -> sum_i w_i U_i ((U_i^H V U_i) o Phi_i) U_i^H``,

    where ``X^{-1/2} R_i X^{-1/2} = U_i diag(e^{mu_i}) U_i^H``,
    ``Phi_i[j, k] = (d/2) coth(d/2)`` with ``d = mu_ij - mu_ik``, and
    ``Phi_i`` is 1 where ``d = 0``.  Every ``Phi_i >= 1``, so ``H >= I``.
    """
    half = (mu[..., :, None] - mu[..., None, :]) / 2.0
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = np.where(half == 0.0, 1.0, half / np.tanh(half))
    phi *= w[:, None, None]
    uh = _ct(u)

    def apply(v: np.ndarray) -> np.ndarray:
        return np.sum(u @ ((uh @ v @ u) * phi) @ uh, axis=0)

    return apply


def _conjugate_gradient(apply, b: np.ndarray) -> np.ndarray:
    """Solve ``apply(v) = b`` for a positive-definite map on Hermitian
    matrices (real inner product ``Re tr(A^H B)``) to relative residual
    ``_NEWTON_CG_RTOL``, or for at most as many steps as the real dimension
    of the space, where exact arithmetic would have solved it."""
    v = np.zeros_like(b)
    r = b.copy()
    p = r.copy()
    rr = np.vdot(r, r).real
    stop = _NEWTON_CG_RTOL**2 * rr
    for _ in range(b.size):
        if rr <= stop:
            break
        hp = apply(p)
        alpha = rr / np.vdot(p, hp).real
        v += alpha * p
        r -= alpha * hp
        rr, rr_prev = np.vdot(r, r).real, rr
        p = r + (rr / rr_prev) * p
    return v


def barycenter(
    metric: Metric,
    points: SPDStack | Sequence[SPDMatrix] | Iterable[SPDMatrix],
    weights,
) -> BarycenterResult:
    """Weighted barycenter (Fréchet mean) of positive-definite matrices.

    Minimizes ``sum_i w_i d(R_i, Y)^2`` over the cone.  With one positive
    weight the mean is that point itself, returned as stored for every
    metric (converged, 0 iterations, residual 0).  The Euclidean and
    log-Euclidean barycenters have closed forms (``sum w_i R_i`` and
    ``exp(sum w_i log R_i)``).  The affine-invariant barycenter is computed
    by Riemannian Newton iteration (Ferreira, Xavier, Costeira & Barroso
    2013; Jeuris, Vandebril & Vandereycken 2012), initialized at the
    log-Euclidean barycenter.  At the iterate ``X`` one stacked
    eigendecomposition ``X^{-1/2} R_i X^{-1/2} = U_i diag(e^{mu_i}) U_i^H``
    of the points with nonzero weight gives the whitened tangent mean
    ``T = sum_i w_i U_i diag(mu_i) U_i^H`` (the negative gradient; its
    Frobenius norm is the residual) and the Hessian ``H`` (see
    :func:`_karcher_hessian`).  Conjugate gradients solves ``H V = T`` and
    the step is

        ``X <- X^{1/2} exp(t V) X^{1/2}``,

    with ``t = 1`` halved until the step shrinks the residual by the factor
    ``1 - t/2`` (a unit step must halve it).  This sufficient decrease of
    the residual breaks the two-cycles a full Newton step can fall into far
    from the mean, and unlike the objective the residual is not swamped by
    round-off near the mean.  The iteration stops when the residual drops
    below ``KARCHER_TOL``; or, at the float64 noise floor of badly
    conditioned points, when the residual is below ``KARCHER_FLOOR_TOL`` and
    a unit step fails to halve it, returning the iterate before that step as
    converged; or after ``KARCHER_MAX_ITER`` iterations (every trial step
    counts as one), returning the last accepted iterate as not converged.

    Parameters
    ----------
    metric : Metric
    points : SPDStack or sequence of SPDMatrix
        At least one point, all of the same dimension.  An :class:`SPDStack`
        lends its stacked logarithms (computed once per stack) to the
        log-Euclidean mean and the Karcher starting point; any other
        sequence is stacked first.
    weights : array_like
        Finite, nonnegative, summing to 1 within 1e-9, one per point.

    Returns
    -------
    BarycenterResult
    """
    if not isinstance(points, SPDStack):
        points = SPDStack(points)
    w = _check_weights(weights, len(points))

    # Zero-weight points cannot move the barycenter and are left out.
    active = np.flatnonzero(w > 0.0)
    if active.size == 1:
        # the mean of one point is that point, under every metric
        return BarycenterResult(points[int(active[0])], True, 0, 0.0)
    wa = w[active]

    if metric is Metric.EUCLIDEAN:
        acc = np.tensordot(wa, points.mats[active], axes=1)
        return BarycenterResult(SPDMatrix(acc), True, 0, 0.0)

    log_mean = np.tensordot(wa, points.logs[active], axes=1)
    le_point = _expm(log_mean)
    if metric is Metric.LOG_EUCLIDEAN:
        return BarycenterResult(SPDMatrix(le_point), True, 0, 0.0)

    mats = points.mats[active]
    here = _KarcherIterate(le_point, mats, wa)
    iterations = 0
    while here.residual >= KARCHER_TOL:
        step = _conjugate_gradient(_karcher_hessian(here.u, here.mu, wa), here.tangent)
        t = 1.0
        while True:
            if iterations >= KARCHER_MAX_ITER:
                return BarycenterResult(SPDMatrix(here.x), False, iterations, here.residual)
            iterations += 1
            trial = _KarcherIterate(_hermitian_congruence(here.sq, _expm(t * step)), mats, wa)
            if trial.residual <= (1.0 - t / 2.0) * here.residual or trial.residual < KARCHER_TOL:
                break
            if here.residual < KARCHER_FLOOR_TOL:
                # round-off noise floor: the mean is attained to the accuracy
                # float64 permits for this conditioning
                return BarycenterResult(SPDMatrix(here.x), True, iterations, here.residual)
            t /= 2.0
        here = trial
    return BarycenterResult(SPDMatrix(here.x), True, iterations, here.residual)
