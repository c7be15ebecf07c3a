"""Shared construction helpers for the test suite."""

from __future__ import annotations

import numpy as np

import covcast.spd as spd
from covcast.spd import HermitianTangent, SPDMatrix


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(a)
    d = np.diag(r)
    return q * (d / np.abs(d))


def random_spd(
    rng: np.random.Generator, n: int, eig_range: tuple[float, float] = (0.1, 10.0)
) -> SPDMatrix:
    """Random HPD matrix with eigenvalues log-uniform in ``eig_range``."""
    u = random_unitary(rng, n)
    lo, hi = eig_range
    w = np.exp(rng.uniform(np.log(lo), np.log(hi), size=n))
    m = (u * w) @ u.conj().T
    return SPDMatrix((m + m.conj().T) / 2)


def random_hermitian(
    rng: np.random.Generator, n: int, scale: float = 1.0
) -> HermitianTangent:
    a = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return HermitianTangent(scale * (a + a.conj().T) / 2)


def random_invertible(rng: np.random.Generator, n: int) -> np.ndarray:
    """Well-conditioned random complex matrix (unit-scale singular values)."""
    u = random_unitary(rng, n)
    v = random_unitary(rng, n)
    s = rng.uniform(0.5, 2.0, size=n)
    return (u * s) @ v.conj().T


def frob(a: np.ndarray) -> float:
    return float(np.linalg.norm(a, "fro"))


def hermitian_basis(n: int) -> np.ndarray:
    """An orthonormal basis of the ``n x n`` Hermitian matrices under the real
    inner product ``Re tr(A^H B)``, shape ``(n^2, n, n)``."""
    basis = []
    for j in range(n):
        for k in range(j, n):
            if j == k:
                basis.append(np.zeros((n, n), dtype=complex))
                basis[-1][j, j] = 1.0
                continue
            for entry in (1.0, 1j):
                basis.append(np.zeros((n, n), dtype=complex))
                basis[-1][j, k] = entry / np.sqrt(2.0)
                basis[-1][k, j] = np.conj(entry) / np.sqrt(2.0)
    return np.stack(basis)


def solve_hermitian_system(apply, b: np.ndarray) -> np.ndarray:
    """Solve ``apply(v) = b`` for a linear map on Hermitian matrices, to
    rounding: a dense solve of the map's matrix in :func:`hermitian_basis`."""
    basis = hermitian_basis(b.shape[0])

    def coords(a):
        return np.einsum("kij,ij->k", basis.conj(), a).real

    matrix = np.stack([coords(apply(e)) for e in basis], axis=1)
    return np.tensordot(np.linalg.solve(matrix, coords(b)), basis, axes=1)


def check_cut_newton_step(here, w: np.ndarray) -> bool:
    """Assert that the Newton step of ``spd.barycenter``'s cut Hessian at the
    Karcher iterate ``here`` lies within the cut's bound of the exact-Hessian
    step; both systems are solved densely, so the comparison isolates the
    cut from conjugate gradients.  Returns whether the cut dropped a point.

    The bound is ``sum_dropped w_i (max Phi_i - 1)``, with ``max Phi_i`` the
    largest entry of the point's Hessian scaling ``(d/2) coth(d/2)``, taken
    here over every pair of its whitened log-eigenvalues.
    """
    keep, delta = spd._hessian_support(here.mu, w)
    dropped = np.ones(w.size, dtype=bool)
    dropped[keep] = False
    half = (here.mu[:, :, None] - here.mu[:, None, :]) / 2.0
    with np.errstate(invalid="ignore", divide="ignore"):
        phi = np.where(half == 0.0, 1.0, half / np.tanh(half))
    bound = float(w[dropped] @ (phi.max(axis=(1, 2))[dropped] - 1.0))
    assert bound <= spd._NEWTON_CG_RTOL
    assert abs(delta - w[dropped].sum()) <= 1e-12 * delta
    exact = solve_hermitian_system(spd._karcher_hessian(here.u, here.mu, w), here.tangent)
    cut_hessian = spd._karcher_hessian(here.u[keep], here.mu[keep], w[keep])
    cut = solve_hermitian_system(lambda v: cut_hessian(v) + delta * v, here.tangent)
    # plus the rounding of two dense solves at condition number max Phi
    assert frob(exact - cut) <= (bound + 1e-10) * frob(cut)
    return bool(dropped.any())
