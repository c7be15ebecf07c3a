"""Independent checks of covcast estimates.

Every quantity here is recomputed with ``scipy.linalg`` and
``scipy.optimize`` from the raw matrices; nothing is taken from
``covcast.spd`` except the Karcher tolerance the program promises to meet.
Each check returns ``None`` when the estimate passes and a one-line reason
when it does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy import linalg, optimize

from covcast.spd import KARCHER_FLOOR_TOL

# A mirror call counts as failed when its objective exceeds the simplex
# minimum by more than this share of that minimum.
QP_RTOL = 1e-6
# Agreement between the program's reported mse and the recomputed one.
MSE_RTOL = 1e-6
# Agreement between an estimate and a closed form recomputed here.
CLOSED_FORM_RTOL = 1e-8
# Relative distance gap below which two dictionary entries count as tied.
TIE_RTOL = 1e-9

# Name of the check whose failures are the known simplex-QP fault.
QP_MINIMUM = "mirror_minimum"


def _herm(a: np.ndarray) -> np.ndarray:
    return (a + a.conj().T) / 2


def _spectral(a: np.ndarray, fn) -> np.ndarray:
    w, u = linalg.eigh(_herm(a))
    return _herm((u * fn(w)) @ u.conj().T)


def logm(a: np.ndarray) -> np.ndarray:
    return _spectral(a, np.log)


def expm(a: np.ndarray) -> np.ndarray:
    return _spectral(a, np.exp)


def inv_sqrtm(a: np.ndarray) -> np.ndarray:
    return _spectral(a, lambda w: 1.0 / np.sqrt(w))


def ai_sq_dist(x: np.ndarray, y: np.ndarray) -> float:
    """Squared affine-invariant distance: sum of log^2 of the generalized
    eigenvalues of the pencil (x, y)."""
    w = linalg.eigh(_herm(x), _herm(y), eigvals_only=True)
    return float(np.sum(np.log(w) ** 2))


@dataclass
class DictionaryView:
    """Stacked dictionary matrices with the logs the checks reuse."""

    uplinks: np.ndarray
    downlinks: np.ndarray
    uplink_logs: np.ndarray = field(init=False)
    downlink_logs: np.ndarray = field(init=False)

    def __post_init__(self) -> None:
        self.uplink_logs = np.stack([logm(u) for u in self.uplinks])
        self.downlink_logs = np.stack([logm(d) for d in self.downlinks])

    @classmethod
    def of(cls, dictionary) -> "DictionaryView":
        return cls(
            np.stack([u.mat for u in dictionary.uplinks]),
            np.stack([d.mat for d in dictionary.downlinks]),
        )

    def __len__(self) -> int:
        return self.uplinks.shape[0]


def uplink_distances(view: DictionaryView, query: np.ndarray, metric: str) -> np.ndarray:
    """Distance from ``query`` to every dictionary uplink under ``metric``."""
    if metric == "euclidean":
        diff = view.uplinks - query
    elif metric == "log_euclidean":
        diff = view.uplink_logs - logm(query)
    else:
        return np.sqrt([ai_sq_dist(u, query) for u in view.uplinks])
    return np.sqrt(np.sum(np.abs(diff) ** 2, axis=(1, 2)))


def _tangents(view: DictionaryView, query: np.ndarray, metric: str, idx) -> np.ndarray:
    """Tangents at the query in coordinates whose Frobenius norm is the
    metric's norm there: ``U - X``, ``log U - log X`` and
    ``log(X^{-1/2} U X^{-1/2})``."""
    if metric == "euclidean":
        return view.uplinks[idx] - query
    if metric == "log_euclidean":
        return view.uplink_logs[idx] - logm(query)
    isq = inv_sqrtm(query)
    return np.stack([logm(isq @ view.uplinks[i] @ isq) for i in idx])


def _rel_close(a: np.ndarray, b: np.ndarray, rtol: float) -> bool:
    return float(np.linalg.norm(a - b)) <= rtol * float(np.linalg.norm(b))


def check_mse(reported: float, estimate: np.ndarray, truth: np.ndarray) -> str | None:
    expected = ai_sq_dist(estimate, truth)
    if abs(reported - expected) > MSE_RTOL * max(1.0, expected):
        return f"mse {reported!r} differs from the recomputed {expected!r}"
    return None


def check_simplex(w: np.ndarray) -> str | None:
    if w.min() < 0.0 or abs(float(w.sum()) - 1.0) > 1e-9:
        return f"weights leave the simplex (min {w.min():.3e}, sum {w.sum()!r})"
    return None


def check_nearest_neighbor(
    view: DictionaryView, query: np.ndarray, metric: str, w: np.ndarray, estimate: np.ndarray
) -> str | None:
    d = uplink_distances(view, query, metric)
    j = int(np.argmax(w))
    if w[j] != 1.0 or np.count_nonzero(w) != 1:
        return "nearest-neighbor weights are not one-hot"
    if d[j] > d.min() * (1.0 + TIE_RTOL):
        return f"entry {j} at distance {d[j]!r} is not nearest ({d.min()!r})"
    if not _rel_close(estimate, view.downlinks[j], CLOSED_FORM_RTOL):
        return f"estimate is not the downlink of entry {j}"
    return None


def check_closed_form(
    view: DictionaryView, metric: str, w: np.ndarray, estimate: np.ndarray
) -> str | None:
    """Euclidean and log-Euclidean barycenters against their closed forms."""
    if metric == "euclidean":
        expected = np.tensordot(w, view.downlinks, axes=1)
    else:
        expected = expm(np.tensordot(w, view.downlink_logs, axes=1))
    if not _rel_close(estimate, expected, CLOSED_FORM_RTOL):
        err = np.linalg.norm(estimate - expected) / np.linalg.norm(expected)
        return f"{metric} barycenter is {err:.3e} away from its closed form"
    return None


def karcher_residual(view: DictionaryView, w: np.ndarray, estimate: np.ndarray) -> float:
    """Frobenius norm of sum_i w_i log(X^{-1/2} D_i X^{-1/2})."""
    isq = inv_sqrtm(estimate)
    active = np.flatnonzero(w > 0.0)
    tangent = sum(w[i] * logm(isq @ view.downlinks[i] @ isq) for i in active)
    return float(np.linalg.norm(tangent))


def check_stationary(view: DictionaryView, w: np.ndarray, estimate: np.ndarray) -> str | None:
    residual = karcher_residual(view, w, estimate)
    if residual > KARCHER_FLOOR_TOL:
        return f"affine-invariant barycenter residual {residual:.3e} > {KARCHER_FLOOR_TOL:.0e}"
    return None


def check_kernel_monotone(
    view: DictionaryView, query: np.ndarray, metric: str, w: np.ndarray
) -> str | None:
    d = uplink_distances(view, query, metric)
    order = np.argsort(d, kind="stable")
    ds, ws = d[order], w[order]
    farther = ds[1:] > ds[:-1] * (1.0 + TIE_RTOL)
    rising = ws[1:] > ws[:-1] * (1.0 + 1e-9)
    bad = np.flatnonzero(farther & rising)
    if bad.size:
        i = int(bad[0])
        return f"kernel weight rises from {ws[i]!r} to {ws[i + 1]!r} with distance"
    return None


def simplex_minimum(gram: np.ndarray) -> np.ndarray:
    """Exact minimizer of ``w^T G w`` over the simplex via the NNLS lift.

    Minimizing ``||M v||^2 + (1^T v - 1)^2`` over ``v >= 0`` with
    ``G = M^T M`` gives ``w = v / 1^T v``: for ``v = t w`` the lifted value
    is ``t^2 q + (t - 1)^2``, whose minimum over ``t`` is ``q / (1 + q)``,
    increasing in ``q = w^T G w``.  Lawson-Hanson NNLS solves the lift.
    """
    w_eig, u = linalg.eigh(gram)
    factor = (u * np.sqrt(np.clip(w_eig, 0.0, None))).T
    k = gram.shape[0]
    a = np.vstack([factor, np.ones((1, k))])
    b = np.zeros(a.shape[0])
    b[-1] = 1.0
    v, _ = optimize.nnls(a, b, maxiter=50 * k)
    return v / v.sum()


def check_mirror(
    view: DictionaryView, query: np.ndarray, metric: str, w: np.ndarray
) -> dict[str, str | None]:
    """Support and optimality of mirror weights.

    Returns one verdict per check name: ``mirror_support`` and
    :data:`QP_MINIMUM`.
    """
    d = uplink_distances(view, query, metric)
    k_s = min(query.shape[0] ** 2, len(view))
    nearest = np.argsort(d, kind="stable")[:k_s]
    cutoff = d[nearest[-1]] * (1.0 + TIE_RTOL)
    outside = np.flatnonzero((w > 0.0) & (d > cutoff))
    verdicts: dict[str, str | None] = {
        "mirror_support": (
            f"weight on entry {int(outside[0])} outside the {k_s} nearest"
            if outside.size else None
        )
    }
    t = _tangents(view, query, metric, nearest).reshape(k_s, -1)
    m = np.vstack([t.real.T, t.imag.T])
    gram = m.T @ m
    gram /= np.abs(np.diag(gram)).max()
    w_sel = w[nearest]
    best = simplex_minimum(gram)
    got, opt = float(w_sel @ gram @ w_sel), float(best @ gram @ best)
    verdicts[QP_MINIMUM] = (
        f"objective {got:.6e} is {got / opt - 1.0:.3e} above the simplex minimum {opt:.6e}"
        if got > opt * (1.0 + QP_RTOL) else None
    )
    return verdicts


def check_estimate(
    view: DictionaryView,
    query: np.ndarray,
    truth: np.ndarray,
    scheme: str,
    metric: str,
    estimate: np.ndarray,
    weights: np.ndarray,
    flags: tuple[str, ...],
    reported_mse: float,
) -> dict[str, str | None]:
    """Every check that applies to one dictionary estimate, by name."""
    verdicts = {
        "mse": check_mse(reported_mse, estimate, truth),
        "simplex": check_simplex(weights),
    }
    if scheme == "nearest_neighbor":
        verdicts["nearest"] = check_nearest_neighbor(view, query, metric, weights, estimate)
    elif scheme == "mirror":
        verdicts.update(check_mirror(view, query, metric, weights))
    elif scheme == "kernel":
        verdicts["kernel_monotone"] = check_kernel_monotone(view, query, metric, weights)
    if metric == "affine_invariant":
        if "karcher-nonconverged" not in flags:
            verdicts["stationary"] = check_stationary(view, weights, estimate)
    else:
        verdicts["closed_form"] = check_closed_form(view, metric, weights, estimate)
    return verdicts
