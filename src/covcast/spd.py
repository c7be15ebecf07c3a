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
# iteration: a mean is converged unless the iteration hit its cap or stalled
# above the float64 noise floor, by the rule barycenter's docstring states.
KARCHER_TOL = 1e-10
KARCHER_FLOOR_TOL = 1e-8
KARCHER_MAX_ITER = 200
_FLOOR_STOP_CAP = KARCHER_FLOOR_TOL / 10
# Relative residual to which conjugate gradients solves each Newton system,
# and the bound on the Hessian terms a Newton system leaves out.
_NEWTON_CG_RTOL = 1e-6
_EPS = np.finfo(np.float64).eps
# A whitened Karcher step ``t V`` with ``||t V||_F`` below this leaves the
# iterate unchanged up to float64 rounding: ``exp(t V)`` is the identity to
# within an ulp.
_STEP_RESOLUTION = _EPS

# Slack, in the log units of both distances, by which the affine-invariant
# nearest-entry search of :func:`nearest` widens its log-Euclidean cut; the
# derivation is in that function's docstring.
NEAREST_SLACK = 1e-2

# Barycenter and interpolation weights sum to 1 within this.
SIMPLEX_TOL = 1e-9


class NotHermitianError(ValueError):
    """Input matrix is not Hermitian within tolerance."""


class NotPositiveDefiniteError(ValueError):
    """Input matrix has an eigenvalue outside the positive-definite cone."""


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


class _Hermitian:
    """Complex Hermitian matrix, held as an exactly Hermitian (symmetrized)
    read-only array.  The constructor enforces Hermitian symmetry to within
    1e-12 absolute (:class:`NotHermitianError`)."""

    __slots__ = ("_mat",)

    def __init__(self, entries) -> None:
        mat = np.asarray(entries, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {mat.shape}")
        if not np.all(np.isfinite(mat.view(np.float64))):
            raise ValueError("matrix entries must be finite")
        defect = np.abs(mat - _ct(mat)).max() if mat.size else 0.0
        if defect > HERMITIAN_ATOL:
            raise NotHermitianError(
                f"matrix is not Hermitian: max |X - X^H| = {defect:.3e} "
                f"exceeds {HERMITIAN_ATOL:.0e}"
            )
        # symmetrized, to absorb the round-off the gate admits
        self._mat = _read_only(_herm(mat))

    __setstate__ = _restore_read_only

    @property
    def mat(self) -> np.ndarray:
        """Underlying (n, n) complex array, read-only."""
        return self._mat

    @property
    def dim(self) -> int:
        return self._mat.shape[0]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(dim={self.dim})"


class SPDMatrix(_Hermitian):
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

    __slots__ = ()

    def __init__(self, entries) -> None:
        super().__init__(entries)
        eigmin = np.linalg.eigvalsh(self._mat)[0] if self._mat.size else 0.0
        if not eigmin > 0.0:
            raise NotPositiveDefiniteError(
                f"matrix is not positive definite: min eigenvalue = {eigmin:.3e}"
            )

    @classmethod
    def _positive(cls, entries) -> SPDMatrix:
        """``SPDMatrix(entries)`` for a matrix whose eigenvalues the caller's
        own ``eigh`` has already found positive: the Hermitian gate runs,
        the ``eigvalsh`` check does not."""
        point = cls.__new__(cls)
        _Hermitian.__init__(point, entries)
        return point


class HermitianTangent(_Hermitian):
    """Complex Hermitian matrix, an element of a tangent space on the cone.

    Eigenvalues are unrestricted in sign; only Hermitian symmetry (within
    1e-12 absolute) is enforced.
    """

    __slots__ = ()


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


def _invsqrtm(a: np.ndarray, *fns) -> tuple[np.ndarray, ...]:
    """Inverse principal square root, then ``U diag(f(λ)) U^H`` for each
    eigenvalue function ``f`` in ``fns`` (``np.sqrt`` gives bitwise
    :func:`_sqrtm`, ``np.log`` :func:`_logm`), from a single eigendecomposition."""
    w, u = _eigh_sym(a)
    _check_positive(w, "matrix square root undefined on the cone")
    return (_inv_sqrt(w, u), *(_spectral(u, f(w)) for f in fns))


def _inv_sqrt(w: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``U diag(λ^{-1/2}) U^H`` from positive eigenvalues, exactly Hermitian."""
    return _herm((u / np.sqrt(w)[..., None, :]) @ _ct(u))


def _hermitian_congruence(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """A @ X @ A^H for Hermitian A, X (either may be a stack), exactly Hermitian."""
    return _herm(a @ x @ _ct(a))


def _whitened_eigh(isq: np.ndarray, mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Log-eigenvalues ``mu`` and eigenvectors ``u`` of ``X^{-1/2} P X^{-1/2}``
    for each matrix ``P`` of the stack ``mats``, given ``isq = X^{-1/2}``.

    The congruence is exactly Hermitian already, so ``eigh`` reads it as it
    is: symmetrizing an exactly Hermitian array again returns its bits.
    """
    e, u = np.linalg.eigh(_hermitian_congruence(isq, mats))
    _check_positive(e, "matrix logarithm undefined")
    return np.log(e), u


def _whitened_logs(isq: np.ndarray, mats: np.ndarray) -> np.ndarray:
    """``log(X^{-1/2} P X^{-1/2})`` for each matrix ``P`` of ``mats``: the
    affine-invariant tangents at ``X`` in whitened coordinates, bitwise
    :func:`_logm` of the congruence."""
    mu, u = _whitened_eigh(isq, mats)
    return _spectral(u, mu)


def _norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each matrix of a complex stack, at any scale.

    Each matrix is read as the real row of its entries' real and imaginary
    parts.  A row whose plain norm lies outside ``[2^-480, 2^480]``, where a
    square may have under- or overflowed, is summed again after dividing it
    by the power of two at or above its largest entry, and its norm
    multiplied back: powers of two scale exactly.  Inside that range the
    squares that underflow add at most ``2^-62`` of the sum per entry, far
    below its rounding, and none overflows.
    """
    rows = a.reshape(a.shape[0], -1).view(np.float64)
    with np.errstate(over="ignore"):  # an overflowed row is summed again
        d = np.sqrt(np.einsum("ij,ij->i", rows, rows))
    far = ~((d >= 2.0**-480) & (d <= 2.0**480))
    if far.any():
        exponent = np.frexp(np.abs(rows[far]).max(axis=-1))[1]
        scaled = np.ldexp(rows[far], -exponent[:, None])
        d[far] = np.ldexp(np.sqrt(np.einsum("ij,ij->i", scaled, scaled)), exponent)
    return d


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
    :func:`barycenter` and the query geometry behind :func:`distances`,
    :func:`nearest` and :func:`log_maps` read the arrays.

    A stack may extend a ``prefix`` stack: its points are the prefix's,
    then ``points``.  Its arrays are the prefix's arrays, fitted on first
    use of either stack, followed by the rows of its own points.  Each row
    is computed on its own point, so the arrays are bitwise those of a
    fresh stack of the same points, whichever stack is fitted first.  A
    pickled stack holds its arrays and points but not its prefix.

    Raises
    ------
    ValueError
        If there are no points or their dimensions differ (the message names
        the first offending entry).
    """

    __slots__ = ("_points", "_prefix", "_mats", "_logs")

    def __init__(self, points: Iterable[SPDMatrix], prefix: SPDStack | None = None) -> None:
        points = tuple(points)
        if not points:
            raise ValueError("a stack requires at least one point")
        if prefix is not None:
            points = prefix.points + points
        dim = points[0].dim
        for i, p in enumerate(points):
            if p.dim != dim:
                raise ValueError(
                    f"dimension mismatch in stack at entry {i}: {p.dim} vs {dim}"
                )
        self._points = points
        self._prefix = prefix
        self._mats: np.ndarray | None = None
        self._logs: np.ndarray | None = None

    def __getstate__(self):
        return None, {
            "_points": self._points, "_prefix": None, "_mats": self._mats, "_logs": self._logs
        }

    __setstate__ = _restore_read_only

    @classmethod
    def _of(cls, point: SPDMatrix) -> SPDStack:
        """One-point stack whose matrices view the point's own array."""
        stack = cls.__new__(cls)
        stack._points = (point,)
        stack._prefix = None
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
            self._mats = self._after_prefix(
                "mats", lambda start: np.stack([p.mat for p in self._points[start:]])
            )
        return self._mats

    @property
    def logs(self) -> np.ndarray:
        """``log P_k`` for every point, shape (k, n, n), read-only."""
        if self._logs is None:
            self._logs = self._after_prefix("logs", lambda start: _logm(self.mats[start:]))
        return self._logs

    def _extends(self, stack: SPDStack) -> bool:
        """Whether ``stack`` is this stack's prefix, or a prefix of it: then
        this stack's first points are ``stack``'s, and its arrays start with
        ``stack``'s rows, bitwise."""
        prefix = self._prefix
        while prefix is not None and prefix is not stack:
            prefix = prefix._prefix
        return prefix is not None

    def _after_prefix(self, name: str, rows) -> np.ndarray:
        """The prefix's array ``name``, then ``rows(start)`` for the points
        from ``start``, the prefix's length, on."""
        if self._prefix is None:
            return _read_only(rows(0))
        head = getattr(self._prefix, name)
        return _read_only(np.concatenate([head, rows(len(head))]))


class _QueryGeometry:
    """What the metrics read of one query ``X`` against a stack of points
    ``P_k``, each part computed on first use:

    - the query's one eigendecomposition, and from it ``X^{-1/2}`` and
      ``log X``, each formed when first read;
    - the Euclidean and log-Euclidean tangents ``P_k - X`` and
      ``log P_k - log X`` to every point, and their norms: those metrics'
      distances, and the bounds of the affine-invariant search of
      :func:`nearest`;
    - the affine-invariant distances and whitened tangents
      ``log(X^{-1/2} P_k X^{-1/2})``, row by row as they are asked for, and
      the tangents' norms once every row is filled.

    :func:`distances`, :func:`nearest` and :func:`log_maps` each read a
    fresh geometry; ``covcast.interp``'s weight schemes share one per
    query.  Stacked ``eigh``, ``eigvalsh`` and ``matmul`` treat each row as
    they treat a lone matrix, so every value has the same bits whichever
    rows were asked for before it, and no weight depends on which scheme
    asked first.

    Every row belongs to one point, so a new geometry may start from a
    geometry of the same query bits against a stack its own extends
    (:meth:`_start_from`): it takes that geometry's decomposition and rows
    as its own first rows, and computes only the rows after them that are
    asked for.
    """

    __slots__ = ("points", "query", "_roots", "_tangents", "_norms", "_pending", "_ai")

    def __init__(self, points: SPDStack, query: SPDMatrix) -> None:
        _check_same_dim(points, query, "query geometry")
        self.points = points
        self.query = query
        self._roots: dict[str, object] = {}
        # An array shorter than the stack holds the rows _start_from took.
        self._tangents: dict[Metric, np.ndarray] = {}
        self._norms: dict[Metric, np.ndarray] = {}
        self._pending: np.ndarray | None = None  # whitened rows not yet computed
        self._ai: np.ndarray | None = None  # affine-invariant distances, nan until computed

    def _start_from(self, prefix: _QueryGeometry) -> None:
        """Take ``prefix``'s decomposition and rows as this new geometry's."""
        k = len(self.points)
        self._roots = dict(prefix._roots)
        self._norms = dict(prefix._norms)
        self._tangents = dict(prefix._tangents)
        if prefix._pending is not None:
            ai = Metric.AFFINE_INVARIANT
            self._tangents[ai] = _padded(prefix._tangents[ai], k, 0.0)
            self._pending = _padded(prefix._pending, k, True)
        if prefix._ai is not None:
            self._ai = _padded(prefix._ai, k, np.nan)

    def _root(self, name: str) -> np.ndarray:
        """``X^{-1/2}`` (``"isq"``) or ``log X`` (``"log"``), bitwise
        :func:`_invsqrtm`'s and :func:`_logm`'s, each formed on first use
        from the query's one eigendecomposition."""
        roots = self._roots
        if name not in roots:
            if "eigh" not in roots:
                roots["eigh"] = _eigh_sym(self.query.mat)
                _check_positive(roots["eigh"][0], "matrix square root undefined on the cone")
            w, u = roots["eigh"]
            roots[name] = _inv_sqrt(w, u) if name == "isq" else _spectral(u, np.log(w))
        return roots[name]

    def tangents(self, metric: Metric, idx: np.ndarray | None = None) -> np.ndarray:
        """The tangents reaching the points at ``idx``, as :func:`log_maps`
        returns them; by default every point's, in the shared array, which
        the caller must not write."""
        if metric is Metric.AFFINE_INVARIANT:
            tangents = self._whitened(np.arange(len(self.points)) if idx is None else idx)
        else:
            tangents = self._rows(
                self._tangents,
                metric,
                lambda start: self.points.mats[start:] - self.query.mat
                if metric is Metric.EUCLIDEAN
                else self.points.logs[start:] - self._root("log"),
            )
        return tangents if idx is None else tangents[idx]

    def _rows(self, store: dict, metric: Metric, rows) -> np.ndarray:
        """``store[metric]`` for every point: the rows it holds, then
        ``rows(start)`` for the points from ``start`` on."""
        head = store.get(metric)
        start = 0 if head is None else len(head)
        if start < len(self.points):
            tail = rows(start)
            store[metric] = tail if head is None else np.concatenate([head, tail])
        return store[metric]

    def _whitened(self, idx: np.ndarray) -> np.ndarray:
        """The whitened tangents, with at least the rows at ``idx`` filled."""
        if self._pending is None:
            k, n = len(self.points), self.query.dim
            self._tangents[Metric.AFFINE_INVARIANT] = np.empty((k, n, n), dtype=np.complex128)
            self._pending = np.ones(k, dtype=bool)
        tangents = self._tangents[Metric.AFFINE_INVARIANT]
        missing = idx[self._pending[idx]]
        if missing.size:
            tangents[missing] = _whitened_logs(self._root("isq"), self.points.mats[missing])
            self._pending[missing] = False
        return tangents

    def norms(self, metric: Metric) -> np.ndarray:
        """The Frobenius norm of every tangent: the metric's distances, for
        the affine-invariant metric in tangent-norm form."""
        return self._rows(self._norms, metric, lambda start: _norms(self.tangents(metric)[start:]))

    def _ai_distances_at(self, idx: np.ndarray) -> np.ndarray:
        """The affine-invariant distances to the points at ``idx``, in
        :func:`distances`' eigenvalue form."""
        if self._ai is None:
            self._ai = np.full(len(self.points), np.nan)
        missing = idx[np.isnan(self._ai[idx])]
        if missing.size:
            self._ai[missing] = _ai_distances(self._root("isq"), self.points.mats[missing])
        return self._ai[idx]

    def distances(self, metric: Metric) -> np.ndarray:
        """:func:`distances` to every point."""
        if metric is Metric.AFFINE_INVARIANT:
            return self._ai_distances_at(np.arange(len(self.points)))
        return self.norms(metric)

    def nearest(self, metric: Metric, k: int) -> tuple[np.ndarray, np.ndarray]:
        """:func:`nearest`'s indices and distances, by the search its
        docstring derives; the affine-invariant search takes the
        log-Euclidean norms as its bounds."""
        if k < 1:
            raise ValueError(f"k must be at least 1, got {k}")
        if metric is not Metric.AFFINE_INVARIANT or k >= len(self.points):
            d = self.distances(metric)
        else:
            lower = self.norms(Metric.LOG_EUCLIDEAN)
            first = np.argsort(lower, kind="stable")[:k]
            d = np.full(lower.size, np.inf)
            d[first] = self._ai_distances_at(first)
            rest = np.flatnonzero((lower <= d[first].max() + NEAREST_SLACK) & np.isinf(d))
            if rest.size:
                d[rest] = self._ai_distances_at(rest)
            # entries never computed stay at +inf, behind the k computed ones
        idx = np.argsort(d, kind="stable")[:k]
        return idx, d[idx]


def _padded(head: np.ndarray, k: int, fill) -> np.ndarray:
    """``head``, then rows of ``fill`` up to ``k`` rows."""
    return np.concatenate([head, np.full((k - len(head), *head.shape[1:]), fill, head.dtype)])


def distances(metric: Metric, points: SPDStack, x: SPDMatrix) -> np.ndarray:
    """``distance(metric, x, p)`` for every point ``p`` of the stack, bitwise.

    Euclidean and log-Euclidean distances are the norms of the
    :func:`log_maps` tangents ``P_k - X`` and ``log P_k - log X``, at any
    scale.  ``x`` costs one eigendecomposition at most.

    Affine-invariant keeps its eigenvalue form, the root sum of squared
    log-eigenvalues of ``X^{-1/2} P_k X^{-1/2}``: the tangent's norm adds the
    rounding of its eigenbasis, and the score is this distance squared.
    """
    return _QueryGeometry(points, x).distances(metric)


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
    :func:`distances` returns for it, so the result is exact.  The search is
    the query geometry's, which ``covcast.interp``'s weight schemes read
    from the geometry they share.

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
    return _QueryGeometry(points, x).nearest(metric, k)


def log_maps(metric: Metric, x: SPDMatrix, points: SPDStack, idx) -> np.ndarray:
    """Tangents at ``x`` reaching the points at ``idx``, stacked, bitwise.

    Slice ``j`` is ``whitened_log_map(metric, x, points[idx[j]]).mat``, the
    tangent in coordinates whose Frobenius norm is the metric's norm at ``x``.
    ``x`` costs one eigendecomposition at most; the affine-invariant tangents
    take one stacked congruence and one stacked logarithm.
    """
    return _QueryGeometry(points, x).tangents(metric, np.asarray(idx, dtype=np.intp))


# ---------------------------------------------------------------------------
# Weighted barycenters


@dataclass(frozen=True)
class BarycenterResult:
    """Weighted barycenter plus convergence diagnostics.

    ``converged`` is False only for an affine-invariant mean whose Newton
    iteration hit its cap or stalled above the float64 noise floor, by the
    stop rule :func:`barycenter` states; ``point`` is then its last accepted
    iterate.  ``residual`` is the Frobenius norm of the whitened tangent
    mean at ``point``, and ``iterations`` counts the Newton trial steps;
    both are 0 for a closed form.
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
    if abs(total - 1.0) > SIMPLEX_TOL:
        raise ValueError(f"weights must sum to 1 within {SIMPLEX_TOL:g}, got {total!r}")
    return w


class _KarcherIterate:
    """A Karcher iterate ``x`` with ``sq = x^{1/2}``, the factors ``u`` and
    ``mu`` of ``x^{-1/2} R_i x^{-1/2} = u_i diag(e^{mu_i}) u_i^H``, the
    tangent mean ``sum_i w_i u_i diag(mu_i) u_i^H`` and its Frobenius norm,
    the residual, and the residual's rounding floor
    ``n eps sum_i w_i cond(x^{-1/2} R_i x^{-1/2})``, each condition number
    ``e^{max mu_i - min mu_i}`` (see :func:`barycenter`)."""

    __slots__ = ("x", "sq", "u", "mu", "tangent", "residual", "floor")

    def __init__(self, x: np.ndarray, mats: np.ndarray, w: np.ndarray) -> None:
        self.x = x
        isq, self.sq = _invsqrtm(x, np.sqrt)
        self.mu, self.u = _whitened_eigh(isq, mats)
        # one reduction over the point axis adds in point order, as a
        # per-point loop from zero would
        self.tangent = np.add.reduce(
            w[:, None, None] * _spectral(self.u, self.mu), axis=0, initial=0.0
        )
        self.residual = float(_norms(self.tangent[None])[0])
        with np.errstate(over="ignore"):  # an infinite floor is capped
            cond = np.exp(self.mu[:, -1] - self.mu[:, 0])
        self.floor = x.shape[-1] * _EPS * float(w @ cond)

    @property
    def converged(self) -> bool:
        """Residual below ``KARCHER_TOL`` or below its capped rounding floor."""
        return self.residual < max(KARCHER_TOL, min(self.floor, _FLOOR_STOP_CAP))


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


def _hessian_support(mu: np.ndarray, w: np.ndarray) -> tuple[np.ndarray | slice, float]:
    """The points whose terms a Newton system's Hessian keeps, as indices in
    point order (``slice(None)`` when it keeps them all), and ``delta``, the
    total weight of the others.

    The term ``H_i`` of :func:`_karcher_hessian` scales the coordinates of
    ``V`` in the eigenbasis ``U_i`` by the entries of ``Phi_i``, so
    ``I <= H_i <= max Phi_i I`` with ``max Phi_i = h coth h`` at
    ``h = (max mu_i - min mu_i) / 2``.  With the terms of a dropped set
    replaced by ``delta I``, the cut Hessian ``Hc`` is still ``>= I``, and
    ``||H - Hc|| <= sum_dropped w_i (max Phi_i - 1)``.  The smallest weights
    are dropped while that sum stays at most ``_NEWTON_CG_RTOL``.  The cut
    step ``Vc = Hc^{-1} T`` then has ``||Vc|| <= ||T||``, and solves the
    exact system to the relative residual conjugate gradients already
    allows: ``||H Vc - T|| = ||(H - Hc) Vc|| <= _NEWTON_CG_RTOL ||T||``; so
    ``||H^{-1} T - Vc|| <= _NEWTON_CG_RTOL ||Vc||``.
    """
    half = (mu[:, -1] - mu[:, 0]) / 2.0
    excess = np.divide(half, np.tanh(half), out=np.ones_like(half), where=half > 0.0) - 1.0
    order = np.argsort(w, kind="stable")
    cut = int(np.searchsorted(np.cumsum(w[order] * excess[order]), _NEWTON_CG_RTOL, "right"))
    if cut == 0:
        return slice(None), 0.0
    return np.sort(order[cut:]), float(w[order[:cut]].sum())


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
    :func:`_karcher_hessian`).  Conjugate gradients solves ``Hc V = T``,
    where the cut Hessian ``Hc`` keeps the terms of the points whose weight
    matters and replaces the others by ``delta I``, ``delta`` their total
    weight.  The points left out are the lightest, as many as keep
    ``||H - Hc||`` at most ``_NEWTON_CG_RTOL`` (see
    :func:`_hessian_support`), so the step solves the exact system to the
    relative residual conjugate gradients allows anyway: the cut changes
    the path, never the fixed point, which the exact gradient over every
    point and the stopping rule decide.  The step is

        ``X <- X^{1/2} exp(t V) X^{1/2}``,

    with ``t = 1`` halved until the step shrinks the residual by the factor
    ``1 - t/2`` (a unit step must halve it).  This sufficient decrease of
    the residual breaks the two-cycles a full Newton step can fall into far
    from the mean, and unlike the objective the residual is not swamped by
    round-off near the mean.  The iteration ends at the first of these
    exits, and ``converged`` says which kind it took:

    - converged, once the residual drops below ``KARCHER_TOL`` or below its
      rounding floor (next paragraph);
    - converged, where that floor underestimates the rounding: the residual
      is below ``KARCHER_FLOOR_TOL`` and a unit step fails to halve it; the
      iterate before that step is returned;
    - not converged, a stall: the residual is above ``KARCHER_FLOOR_TOL``
      and the halved step ``t V`` has ``||t V||_F < 2^-52``, so it can no
      longer move the iterate beyond rounding (it would otherwise halve
      ``t`` until the cap); the iterate before that step is returned;
    - not converged, after ``KARCHER_MAX_ITER`` iterations (every trial step
      counts as one); the last accepted iterate is returned.

    **The rounding floor.**  Each log-eigenvalue ``mu_ij`` errs by about
    ``n eps cond_i``, ``cond_i = cond(X^{-1/2} R_i X^{-1/2}) =
    e^{max mu_i - min mu_i}`` (the bound :func:`nearest` states for the
    distances), so the computed residual is known to about
    ``p = n eps sum_i w_i cond_i``.  The conditions come free with the
    iterate's ``mu``.  Once the residual is below ``p`` no step can be told
    from rounding, and trying one would cost a stacked eigendecomposition
    that fails to halve the residual; so the iteration stops there,
    converged.  The stop is capped at ``KARCHER_FLOOR_TOL / 10``.  A
    faithful recomputation of the residual at the returned mean (another
    eigensolver, or a Schur ``logm``) reads it to within the rounding of
    both computations, a fraction of ``p``; where ``p`` is large that
    fraction alone approaches ``KARCHER_FLOOR_TOL``.  So the cap accepts no
    computed residual above a tenth of ``KARCHER_FLOOR_TOL`` and leaves the
    other nine tenths for the recomputation's rounding.

    Parameters
    ----------
    metric : Metric
    points : SPDStack or sequence of SPDMatrix
        At least one point, all of the same dimension.  An :class:`SPDStack`
        lends its stacked logarithms (computed once per stack) to the
        log-Euclidean mean and the Karcher starting point; any other
        sequence is stacked first.
    weights : array_like
        Finite, nonnegative, summing to 1 within ``SIMPLEX_TOL``, one per point.

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

    def result(converged: bool) -> BarycenterResult:
        # the iterate's own eigh found here.x positive definite
        return BarycenterResult(SPDMatrix._positive(here.x), converged, iterations, here.residual)

    while not here.converged:
        keep, delta = _hessian_support(here.mu, wa)
        hessian = _karcher_hessian(here.u[keep], here.mu[keep], wa[keep])
        step = _conjugate_gradient(lambda v: hessian(v) + delta * v, here.tangent)
        step_norm = float(_norms(step[None])[0])
        t = 1.0
        while True:
            if iterations >= KARCHER_MAX_ITER:
                return result(False)
            iterations += 1
            trial = _KarcherIterate(_hermitian_congruence(here.sq, _expm(t * step)), mats, wa)
            if trial.residual <= (1.0 - t / 2.0) * here.residual or trial.converged:
                break
            if here.residual < KARCHER_FLOOR_TOL:
                # round-off noise floor: the mean is attained to the accuracy
                # float64 permits for this conditioning
                return result(True)
            t /= 2.0
            if t * step_norm < _STEP_RESOLUTION:
                # stalled above the noise floor: no step can move the iterate
                return result(False)
        here = trial
    return result(True)
