"""Geometry of the HPD cone: matrix functions, metrics, maps, barycenters."""

import pickle
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize

import covcast.spd as spd
from covcast.config import parse_config
from covcast.harness import (
    _TAG_DICTIONARY,
    _build_case,
    _rng,
    build_dictionary,
    make_geometry,
)
from covcast.spd import (
    BarycenterResult,
    HermitianTangent,
    Metric,
    NotHermitianError,
    NotPositiveDefiniteError,
    SPDMatrix,
    SPDStack,
    barycenter,
    distance,
    distances,
    exp_map,
    log_map,
    log_maps,
    matrix_exp,
    matrix_log,
    matrix_sqrt,
    nearest,
    whitened_log_map,
)
from helpers import (
    check_cut_newton_step,
    frob,
    random_hermitian,
    random_invertible,
    random_spd,
)

METRICS = list(Metric)

seeds = st.integers(min_value=0, max_value=2**31 - 1)


# ---------------------------------------------------------------------------
# Wrapper types


class TestSPDMatrix:
    def test_rejects_non_hermitian(self):
        m = np.eye(3, dtype=complex)
        m = m.copy()
        m[0, 1] = 1e-6  # asymmetric beyond the 1e-12 gate
        with pytest.raises(NotHermitianError):
            SPDMatrix(m)

    def test_accepts_round_off_asymmetry(self):
        m = np.eye(3, dtype=complex)
        m = m.copy()
        m[0, 1] = 1e-13
        x = SPDMatrix(m)
        # stored matrix is exactly Hermitian
        assert np.array_equal(x.mat, x.mat.conj().T)

    def test_rejects_indefinite(self):
        with pytest.raises(NotPositiveDefiniteError):
            SPDMatrix(np.diag([1.0, -1.0]))

    def test_rejects_singular(self):
        with pytest.raises(NotPositiveDefiniteError):
            SPDMatrix(np.diag([1.0, 0.0]))

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            SPDMatrix(np.ones((2, 3)))

    def test_matrix_is_read_only(self):
        x = SPDMatrix(np.eye(2))
        with pytest.raises(ValueError):
            x.mat[0, 0] = 5.0


class TestHermitianTangent:
    def test_indefinite_allowed(self):
        v = HermitianTangent(np.diag([1.0, -1.0]))
        assert v.dim == 2

    def test_rejects_non_hermitian(self):
        m = np.zeros((2, 2), dtype=complex)
        m[0, 1] = 1j  # conj(m[1,0]) would be 0
        with pytest.raises(NotHermitianError):
            HermitianTangent(m)


# ---------------------------------------------------------------------------
# Matrix functions


class TestMatrixFunctions:
    def test_log_identity_is_zero(self):
        assert frob(matrix_log(SPDMatrix(np.eye(4))).mat) == 0.0

    def test_log_diagonal(self):
        x = SPDMatrix(np.diag([np.e, 1.0]))
        assert np.allclose(matrix_log(x).mat, np.diag([1.0, 0.0]), atol=1e-14)

    def test_exp_zero_is_identity(self):
        v = HermitianTangent(np.zeros((3, 3)))
        assert np.allclose(matrix_exp(v).mat, np.eye(3), atol=0)

    def test_exp_diagonal(self):
        v = HermitianTangent(np.diag([1.0, -1.0]))
        assert np.allclose(matrix_exp(v).mat, np.diag([np.e, 1.0 / np.e]), atol=1e-14)

    def test_log_exp_round_trip(self):
        rng = np.random.default_rng(42)
        x = random_spd(rng, 4)
        lx = matrix_log(x)
        assert frob(matrix_exp(lx).mat - x.mat) < 1e-10

    def test_exp_log_round_trip(self):
        rng = np.random.default_rng(43)
        v = random_hermitian(rng, 4)
        ev = matrix_exp(v)
        assert frob(matrix_log(ev).mat - v.mat) < 1e-10

    def test_sqrt_identity(self):
        assert np.allclose(matrix_sqrt(SPDMatrix(np.eye(5))).mat, np.eye(5), atol=0)

    def test_sqrt_diagonal(self):
        x = SPDMatrix(np.diag([4.0, 9.0]))
        assert np.allclose(matrix_sqrt(x).mat, np.diag([2.0, 3.0]), atol=1e-14)

    def test_sqrt_defining_property(self):
        rng = np.random.default_rng(44)
        x = random_spd(rng, 6)
        s = matrix_sqrt(x)
        assert frob(s.mat @ s.mat - x.mat) < 1e-10


# ---------------------------------------------------------------------------
# Distances


class TestDistance:
    @pytest.mark.parametrize("metric", METRICS)
    def test_self_distance_zero(self, metric):
        rng = np.random.default_rng(1)
        x = random_spd(rng, 3)
        assert distance(metric, x, x) < 1e-10

    def test_euclidean_scaled_identity(self):
        x = SPDMatrix(np.eye(2))
        y = SPDMatrix(2 * np.eye(2))
        assert distance(Metric.EUCLIDEAN, x, y) == pytest.approx(np.sqrt(2.0), abs=1e-14)

    def test_affine_invariant_scaled_identity(self):
        x = SPDMatrix(np.eye(2))
        y = SPDMatrix(np.e**2 * np.eye(2))
        assert distance(Metric.AFFINE_INVARIANT, x, y) == pytest.approx(
            2 * np.sqrt(2.0), abs=1e-12
        )

    def test_congruence_invariance(self):
        rng = np.random.default_rng(7)
        x, y = random_spd(rng, 4), random_spd(rng, 4)
        a = random_invertible(rng, 4)
        d0 = distance(Metric.AFFINE_INVARIANT, x, y)

        def congruent(p):
            m = a @ p.mat @ a.conj().T
            return SPDMatrix((m + m.conj().T) / 2)

        d1 = distance(Metric.AFFINE_INVARIANT, congruent(x), congruent(y))
        assert abs(d0 - d1) < 1e-8

    def test_dimension_mismatch(self):
        # Every entry point, under every metric, names the mismatch, not a
        # shape error from deeper in numpy.
        x, y = SPDMatrix(np.eye(2)), SPDMatrix(np.eye(3))
        stack = SPDStack([y, SPDMatrix(2 * np.eye(3))])
        for metric in METRICS:
            for call in (
                lambda: distance(metric, x, y),
                lambda: distances(metric, stack, x),
                lambda: nearest(metric, stack, x, 1),
                lambda: log_maps(metric, x, stack, [0]),
                lambda: log_map(metric, x, y),
                lambda: whitened_log_map(metric, x, y),
                lambda: exp_map(metric, x, HermitianTangent(np.eye(3))),
            ):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    call()

    @given(seeds, st.sampled_from(METRICS))
    def test_metric_axioms(self, seed, metric):
        rng = np.random.default_rng(seed)
        x, y = random_spd(rng, 3), random_spd(rng, 3)
        dxy = distance(metric, x, y)
        dyx = distance(metric, y, x)
        assert dxy >= 0.0
        assert abs(dxy - dyx) < 1e-10
        assert distance(metric, x, x) < 1e-10
        # distinct points are separated
        assert dxy > 1e-10

    @given(seeds)
    def test_log_euclidean_inversion_invariance(self, seed):
        rng = np.random.default_rng(seed)
        x, y = random_spd(rng, 4), random_spd(rng, 4)

        def inverse(p):
            w, u = np.linalg.eigh(p.mat)
            return SPDMatrix((u / w) @ u.conj().T)

        d0 = distance(Metric.LOG_EUCLIDEAN, x, y)
        d1 = distance(Metric.LOG_EUCLIDEAN, inverse(x), inverse(y))
        assert abs(d0 - d1) < 1e-8


# ---------------------------------------------------------------------------
# Exponential / logarithmic maps


class TestMaps:
    @pytest.mark.parametrize("metric", METRICS)
    def test_exp_of_zero_tangent(self, metric):
        rng = np.random.default_rng(2)
        x = random_spd(rng, 3)
        v = HermitianTangent(np.zeros((3, 3)))
        assert frob(exp_map(metric, x, v).mat - x.mat) < 1e-12

    def test_euclidean_exp(self):
        x = SPDMatrix(np.eye(3))
        v = HermitianTangent(np.eye(3))
        assert np.allclose(exp_map(Metric.EUCLIDEAN, x, v).mat, 2 * np.eye(3))

    def test_euclidean_exp_leaves_cone(self):
        x = SPDMatrix(np.eye(2))
        v = HermitianTangent(-2 * np.eye(2))
        with pytest.raises(NotPositiveDefiniteError):
            exp_map(Metric.EUCLIDEAN, x, v)

    @pytest.mark.parametrize("metric", METRICS)
    def test_log_of_self_is_zero(self, metric):
        rng = np.random.default_rng(3)
        x = random_spd(rng, 4)
        assert frob(log_map(metric, x, x).mat) < 1e-12

    def test_euclidean_log(self):
        x = SPDMatrix(np.eye(2))
        y = SPDMatrix(3 * np.eye(2))
        assert np.allclose(log_map(Metric.EUCLIDEAN, x, y).mat, 2 * np.eye(2))

    def test_affine_invariant_whitened_norm_is_distance(self):
        # ||X^{-1/2} V X^{-1/2}||_F equals the geodesic distance (the
        # ambient Frobenius norm of V does not, unless X = I).
        rng = np.random.default_rng(11)
        x, y = random_spd(rng, 4), random_spd(rng, 4)
        v = log_map(Metric.AFFINE_INVARIANT, x, y)
        isq = spd._invsqrtm(x.mat)[0]
        whitened = isq @ v.mat @ isq
        assert abs(frob(whitened) - distance(Metric.AFFINE_INVARIANT, x, y)) < 1e-9

    @pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.LOG_EUCLIDEAN])
    def test_flat_metric_tangent_norm_is_distance(self, metric):
        rng = np.random.default_rng(12)
        x, y = random_spd(rng, 4), random_spd(rng, 4)
        v = log_map(metric, x, y)
        assert abs(frob(v.mat) - distance(metric, x, y)) < 1e-9

    @pytest.mark.parametrize("metric", METRICS)
    def test_whitened_log_map_norm_is_distance(self, metric):
        rng = np.random.default_rng(13)
        x, y = random_spd(rng, 4), random_spd(rng, 4)
        v = whitened_log_map(metric, x, y)
        assert abs(frob(v.mat) - distance(metric, x, y)) < 1e-9
        expected = log_map(metric, x, y).mat
        if metric is Metric.AFFINE_INVARIANT:
            w, u = np.linalg.eigh(x.mat)
            isq = (u / np.sqrt(w)) @ u.conj().T
            expected = isq @ expected @ isq
        assert frob(v.mat - expected) < 1e-9

    @given(seeds, st.sampled_from(METRICS))
    def test_exp_log_inverse_pair(self, seed, metric):
        rng = np.random.default_rng(seed)
        x, y = random_spd(rng, 4), random_spd(rng, 4)
        v = log_map(metric, x, y)
        assert frob(exp_map(metric, x, v).mat - y.mat) < 1e-9


# ---------------------------------------------------------------------------
# Barycenters


def _geodesic_midpoint(x: SPDMatrix, y: SPDMatrix) -> np.ndarray:
    isq, sq = spd._invsqrtm(x.mat, np.sqrt)
    inner = spd._sqrtm(isq @ y.mat @ isq)
    return sq @ inner @ sq


class TestBarycenter:
    @pytest.mark.parametrize("metric", METRICS)
    def test_single_point(self, metric):
        rng = np.random.default_rng(5)
        x = random_spd(rng, 4)
        result = barycenter(metric, [x], [1.0])
        assert result.converged
        assert frob(result.point.mat - x.mat) < 1e-10

    @pytest.mark.parametrize("metric", METRICS)
    def test_one_positive_weight_returns_the_stored_point(self, metric):
        rng = np.random.default_rng(5)
        stack = SPDStack(random_spd(rng, 4) for _ in range(3))
        result = barycenter(metric, stack, [0.0, 1.0, 0.0])
        assert result.point is stack[1]
        assert (result.converged, result.iterations, result.residual) == (True, 0, 0.0)

    def test_karcher_mean_takes_no_second_positivity_check(self, monkeypatch):
        # Each Karcher iterate's own eigh finds it positive definite, so the
        # mean is returned without another eigvalsh of it.
        rng = np.random.default_rng(5)
        stack = SPDStack(random_spd(rng, 4) for _ in range(3))
        lone = []
        real = np.linalg.eigvalsh

        def eigvalsh(a, *args, **kwargs):
            if np.ndim(a) == 2:
                lone.append(a.shape)
            return real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
        result = barycenter(Metric.AFFINE_INVARIANT, stack, [0.2, 0.0, 0.8])
        assert result.converged and result.iterations > 0
        assert lone == []

    def test_euclidean_pair(self):
        x = SPDMatrix(np.eye(3))
        y = SPDMatrix(3 * np.eye(3))
        result = barycenter(Metric.EUCLIDEAN, [x, y], [0.5, 0.5])
        assert np.allclose(result.point.mat, 2 * np.eye(3))

    def test_affine_invariant_midpoint(self):
        rng = np.random.default_rng(6)
        x, y = random_spd(rng, 4), random_spd(rng, 4)
        result = barycenter(Metric.AFFINE_INVARIANT, [x, y], [0.5, 0.5])
        assert result.converged
        assert frob(result.point.mat - _geodesic_midpoint(x, y)) < 1e-8

    def test_affine_invariant_commuting_reduction(self):
        # For commuting (diagonal) points the Karcher mean has the closed
        # form exp(sum w_i log R_i).
        rng = np.random.default_rng(8)
        diags = [np.exp(rng.uniform(-1, 1, size=4)) for _ in range(3)]
        points = [SPDMatrix(np.diag(d)) for d in diags]
        w = rng.uniform(0.2, 1.0, size=3)
        w /= w.sum()
        expected = np.diag(np.exp(sum(wi * np.log(d) for wi, d in zip(w, diags))))
        result = barycenter(Metric.AFFINE_INVARIANT, points, w)
        assert result.converged
        assert frob(result.point.mat - expected) < 1e-8

    def test_karcher_fixed_point(self):
        rng = np.random.default_rng(9)
        points = [random_spd(rng, 4) for _ in range(5)]
        w = rng.uniform(0.1, 1.0, size=5)
        w /= w.sum()
        result = barycenter(Metric.AFFINE_INVARIANT, points, w)
        assert result.converged
        b = result.point
        (isq,) = spd._invsqrtm(b.mat)
        tangent = sum(
            wi * spd._logm(isq @ p.mat @ isq) for wi, p in zip(w, points)
        )
        assert frob(tangent) < 1e-8

    def test_nonconvergence_flag(self, monkeypatch):
        monkeypatch.setattr(spd, "KARCHER_MAX_ITER", 0)
        rng = np.random.default_rng(10)
        points = [random_spd(rng, 3) for _ in range(3)]
        result = barycenter(Metric.AFFINE_INVARIANT, points, np.full(3, 1 / 3))
        assert not result.converged
        assert isinstance(result, BarycenterResult)
        assert result.residual >= spd.KARCHER_TOL

    def test_empty_points_rejected(self):
        with pytest.raises(ValueError):
            barycenter(Metric.EUCLIDEAN, [], [])

    def test_bad_weights_rejected(self):
        x = SPDMatrix(np.eye(2))
        with pytest.raises(ValueError):
            barycenter(Metric.EUCLIDEAN, [x, x], [0.7, 0.7])
        with pytest.raises(ValueError):
            barycenter(Metric.EUCLIDEAN, [x, x], [1.5, -0.5])

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        # NaN would slip past the sign and sum gates and then out of the
        # support, making the mean of [I, 2I] come back as 2I
        points = [SPDMatrix(np.eye(2)), SPDMatrix(2.0 * np.eye(2))]
        with pytest.raises(ValueError, match="finite"):
            barycenter(Metric.EUCLIDEAN, points, [bad, 1.0])

    @given(seeds, st.sampled_from(METRICS))
    def test_permutation_invariance(self, seed, metric):
        rng = np.random.default_rng(seed)
        points = [random_spd(rng, 3) for _ in range(4)]
        w = rng.uniform(0.05, 1.0, size=4)
        w /= w.sum()
        perm = rng.permutation(4)
        r0 = barycenter(metric, points, w)
        r1 = barycenter(metric, [points[i] for i in perm], w[perm])
        assert frob(r0.point.mat - r1.point.mat) < 1e-9

    @pytest.mark.parametrize("metric", [Metric.EUCLIDEAN, Metric.LOG_EUCLIDEAN])
    def test_closed_form_matches_numerical_minimizer(self, metric):
        # Independent oracle: minimize the weighted squared-distance
        # objective over Hermitian parameters with BFGS.
        rng = np.random.default_rng(13)
        n = 3
        points = [random_spd(rng, n) for _ in range(3)]
        w = np.array([0.5, 0.3, 0.2])

        def unpack(theta):
            m = np.zeros((n, n), dtype=complex)
            m[np.diag_indices(n)] = theta[:n]
            iu = np.triu_indices(n, k=1)
            k = n * (n - 1) // 2
            m[iu] = theta[n : n + k] + 1j * theta[n + k :]
            return m + np.triu(m, k=1).conj().T

        if metric is Metric.EUCLIDEAN:
            targets = [p.mat for p in points]
        else:
            targets = [spd._logm(p.mat) for p in points]

        def objective(theta):
            m = unpack(theta)
            return sum(wi * frob(t - m) ** 2 for wi, t in zip(w, targets))

        theta0 = np.zeros(n * n)
        theta0[:n] = 1.0
        res = minimize(objective, theta0, method="BFGS", options={"gtol": 1e-12})
        numeric = unpack(res.x)
        if metric is Metric.LOG_EUCLIDEAN:
            numeric = spd._expm(numeric)
        closed = barycenter(metric, points, w).point.mat
        assert frob(closed - numeric) < 1e-6


# ---------------------------------------------------------------------------
# Riemannian Newton for the affine-invariant barycenter


def spread_ensemble(seed: int, k: int = 8, n: int = 10):
    """Points with eigenvalues spread over 1e-9...1e-3 and Dirichlet(0.05)
    weights: most of the mass on two or three far-apart points."""
    rng = np.random.default_rng(seed)
    points = [random_spd(rng, n, (1e-9, 1e-3)) for _ in range(k)]
    return points, rng.dirichlet(np.full(k, 0.05))


def karcher_objective(y: np.ndarray, points, w) -> float:
    """1/2 sum_i w_i d(Y, R_i)^2 through the public distance."""
    y = SPDMatrix(y)
    return 0.5 * sum(
        wi * distance(Metric.AFFINE_INVARIANT, y, p) ** 2 for wi, p in zip(w, points)
    )


class TestNewton:
    def test_hessian_matches_finite_difference(self):
        # <U, H[V]> is the mixed second derivative of the objective along
        # whitened directions, s, t -> X^{1/2} exp(sU + tV) X^{1/2}.
        rng = np.random.default_rng(30)
        points = [random_spd(rng, 4) for _ in range(3)]
        w = np.array([0.5, 0.3, 0.2])
        x = random_spd(rng, 4).mat
        here = spd._KarcherIterate(x, np.stack([p.mat for p in points]), w)
        hessian = spd._karcher_hessian(here.u, here.mu, w)
        sq = here.sq
        h = 1e-4

        def g(a):
            return karcher_objective(spd._hermitian_congruence(sq, spd._expm(a)), points, w)

        for _ in range(4):
            u = random_hermitian(rng, 4).mat
            v = random_hermitian(rng, 4).mat
            exact = np.vdot(u, hessian(v)).real
            fd = (
                g(h * (u + v)) - g(h * (u - v)) - g(h * (v - u)) + g(-h * (u + v))
            ) / (4 * h * h)
            assert abs(fd - exact) <= 1e-6 * abs(exact)

    def test_hessian_is_at_least_identity(self):
        points, w = spread_ensemble(3, n=5)
        mats = np.stack([p.mat for p in points])
        here = spd._KarcherIterate(np.eye(5, dtype=complex) * 1e-6, mats, w)
        hessian = spd._karcher_hessian(here.u, here.mu, w)
        rng = np.random.default_rng(31)
        for _ in range(5):
            v = random_hermitian(rng, 5).mat
            assert np.vdot(v, hessian(v)).real >= np.vdot(v, v).real * (1 - 1e-12)

    def test_cut_newton_step_within_bound(self):
        # At each ensemble's log-Euclidean start, where barycenter solves its
        # first Newton system.
        dropped = []
        for seed in range(8):
            points, w = spread_ensemble(seed)
            active = w > 0.0
            mats, wa = np.stack([p.mat for p in points])[active], w[active]
            start = spd._expm(np.tensordot(wa, spd._logm(mats), axes=1))
            dropped.append(check_cut_newton_step(spd._KarcherIterate(start, mats, wa), wa))
        assert any(dropped)

    # On seeds 0, 21, 23, 29 and 31 a damped fixed-point iteration (the
    # unit Karcher step, halved whenever the residual grows) is still above
    # the floor after 200 iterations.
    @pytest.mark.parametrize("seed", range(32))
    def test_spread_ensembles_converge(self, seed):
        points, w = spread_ensemble(seed)
        result = barycenter(Metric.AFFINE_INVARIANT, points, w)
        assert result.converged
        assert result.iterations <= 30
        assert result.residual < spd.KARCHER_FLOOR_TOL
        (isq,) = spd._invsqrtm(result.point.mat)
        tangent = sum(wi * spd._logm(isq @ p.mat @ isq) for wi, p in zip(w, points))
        assert frob(tangent) < spd.KARCHER_FLOOR_TOL

    def test_step_failing_at_the_floor_is_converged(self, monkeypatch):
        # With KARCHER_TOL = 0 the residual can never pass the tolerance, so
        # the iteration must end at the noise floor, not at the cap.
        monkeypatch.setattr(spd, "KARCHER_TOL", 0.0)
        points, w = spread_ensemble(2)
        result = barycenter(Metric.AFFINE_INVARIANT, points, w)
        assert result.converged
        assert result.iterations < spd.KARCHER_MAX_ITER
        assert 0.0 < result.residual < spd.KARCHER_FLOOR_TOL

    def test_rounding_floor_stop_takes_no_trial_step(self, monkeypatch):
        # This mean's residual falls below its rounding floor while still
        # above KARCHER_TOL: the iteration stops at that iterate, converged,
        # and builds no trial iterate after it.
        iterates = []
        real = spd._KarcherIterate

        def recorded(x, mats, w):
            iterates.append(real(x, mats, w))
            return iterates[-1]

        monkeypatch.setattr(spd, "_KarcherIterate", recorded)
        points, w = spread_ensemble(2)
        result = barycenter(Metric.AFFINE_INVARIANT, points, w)
        last = iterates[-1]
        assert result.converged and result.iterations == len(iterates) - 1
        assert np.array_equal(result.point.mat, SPDMatrix(last.x).mat)
        assert spd.KARCHER_TOL <= result.residual == last.residual
        assert result.residual < min(last.floor, spd._FLOOR_STOP_CAP)

    def test_floor_stop_returns_the_iterate_before_the_failed_step(self, monkeypatch):
        # With the rounding-floor stop capped at 0 it never fires, and this
        # mean ends where a unit step fails to halve a residual above
        # KARCHER_TOL: the failed-step path, which the floor stop otherwise
        # pre-empts.
        iterates = []
        real = spd._KarcherIterate

        def recorded(x, mats, w):
            iterates.append(real(x, mats, w))
            return iterates[-1]

        monkeypatch.setattr(spd, "_KarcherIterate", recorded)
        monkeypatch.setattr(spd, "_FLOOR_STOP_CAP", 0.0)
        points, w = spread_ensemble(3)
        result = barycenter(Metric.AFFINE_INVARIANT, points, w)
        assert result.converged and result.residual >= spd.KARCHER_TOL
        before, failed = iterates[-2], iterates[-1]
        assert np.array_equal(result.point.mat, SPDMatrix(before.x).mat)
        assert result.residual == before.residual < spd.KARCHER_FLOOR_TOL
        assert failed.residual > before.residual / 2
        assert result.iterations == len(iterates) - 1


# ---------------------------------------------------------------------------
# Stacks: every stacked result is bitwise the per-matrix one

# One point, a few points, and many.
STACK_SIZES = [1, 10, 70]


def random_stack(seed: int, k: int, n: int = 3) -> SPDStack:
    rng = np.random.default_rng(seed)
    return SPDStack(random_spd(rng, n, (1e-3, 10.0)) for _ in range(k))


def karcher_weights(k: int) -> np.ndarray:
    w = np.random.default_rng(k).uniform(0.1, 1.0, size=k)
    return w / w.sum()


class TestStack:
    def test_sequence_of_its_points(self):
        rng = np.random.default_rng(0)
        points = [random_spd(rng, 3) for _ in range(4)]
        stack = SPDStack(points)
        assert len(stack) == 4 and stack.dim == 3
        assert stack.points == tuple(points) and stack.points is stack.points
        assert list(stack) == points and stack[2] is points[2]

    def test_rejects_empty_and_mixed_dims(self):
        rng = np.random.default_rng(1)
        with pytest.raises(ValueError):
            SPDStack([])
        with pytest.raises(ValueError):
            SPDStack([random_spd(rng, 3), random_spd(rng, 2)])

    def test_mixed_dims_name_the_entry(self):
        rng = np.random.default_rng(1)
        points = [random_spd(rng, 3), random_spd(rng, 3), random_spd(rng, 2)]
        with pytest.raises(ValueError, match="at entry 2: 2 vs 3"):
            SPDStack(points)

    def test_stacks_are_computed_on_first_use_only(self, monkeypatch):
        calls = []
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda a: calls.append(a.shape) or real_eigh(a)
        )
        stack = random_stack(2, 70)
        assert calls == []
        logs = stack.logs
        # one stacked eigendecomposition over the whole stack
        assert calls == [(70, 3, 3)]
        assert stack.logs is logs and not logs.flags.writeable
        assert len(calls) == 1

    def test_points_are_one_read_only_array(self, monkeypatch):
        stacked = []
        real_stack = np.stack

        def counted(arrays, *args, **kwargs):
            stacked.append(len(arrays))
            return real_stack(arrays, *args, **kwargs)

        monkeypatch.setattr(np, "stack", counted)
        points = [random_spd(np.random.default_rng(11), 3) for _ in range(5)]
        stack = SPDStack(points)
        assert stacked == []  # nothing is stacked before first use
        mats = stack.mats
        assert stacked == [5]
        assert stack.mats is mats and stacked == [5]
        assert not mats.flags.writeable
        assert np.array_equal(mats, real_stack([p.mat for p in points]))

    def test_each_stacked_step_is_one_decomposition(self, monkeypatch):
        # logs, affine-invariant distances and one Karcher tangent each
        # decompose all 70 points in a single stacked call.
        stacked = []
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def counted(a, *args, _real=real, _name=name, **kwargs):
                if a.ndim == 3:
                    stacked.append((_name, a.shape))
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        monkeypatch.setattr(spd, "KARCHER_MAX_ITER", 0)
        stack = random_stack(12, 70)
        q = random_spd(np.random.default_rng(13), 3)
        w = karcher_weights(70)
        # in this order, so the Karcher start reads the logs already taken
        steps = [
            ("eigh", lambda: stack.logs),
            ("eigvalsh", lambda: distances(Metric.AFFINE_INVARIANT, stack, q)),
            ("eigh", lambda: barycenter(Metric.AFFINE_INVARIANT, stack, w)),
        ]
        for name, step in steps:
            stacked.clear()
            step()
            assert stacked == [(name, (70, 3, 3))]

    @pytest.mark.parametrize("filled", [False, True])
    def test_pickled_arrays_stay_read_only(self, filled):
        stack = random_stack(14, 4)
        if filled:
            stack.logs
        clone = pickle.loads(pickle.dumps(stack))
        for original, copy in [(p.mat, c.mat) for p, c in zip(stack, clone)] + [
            (stack.mats, clone.mats),
            (stack.logs, clone.logs),
        ]:
            assert np.array_equal(copy, original)
            assert not copy.flags.writeable
        tangent = pickle.loads(pickle.dumps(random_hermitian(np.random.default_rng(15), 3)))
        assert not tangent.mat.flags.writeable

    @staticmethod
    def chain(points, cuts):
        """Stacks of ``points[:c]`` for each cut, each extending the last."""
        stacks, start = [], 0
        for cut in cuts:
            stacks.append(SPDStack(points[start:cut], stacks[-1] if stacks else None))
            start = cut
        return stacks

    @pytest.mark.parametrize("first", ["prefix", "extension"])
    def test_extension_reuses_its_prefix_rows(self, first, monkeypatch):
        # Each point is decomposed once across the chain, and every stack's
        # arrays are bitwise a fresh stack's, whichever is fitted first.
        rng = np.random.default_rng(16)
        points = [random_spd(rng, 10, (1e-9, 1e-4)) for _ in range(12)]
        cuts = (4, 7, 12)
        stacks = self.chain(points, cuts)
        decomposed = []
        real_eigh = np.linalg.eigh
        monkeypatch.setattr(
            np.linalg, "eigh", lambda a: decomposed.append(len(a)) or real_eigh(a)
        )
        for stack in stacks if first == "prefix" else stacks[::-1]:
            stack.logs
        assert sum(decomposed) == len(points)
        monkeypatch.undo()
        for stack, cut in zip(stacks, cuts):
            fresh = SPDStack(points[:cut])
            assert stack.points == fresh.points
            assert np.array_equal(stack.mats, fresh.mats)
            assert np.array_equal(stack.logs, fresh.logs)
            assert not stack.mats.flags.writeable and not stack.logs.flags.writeable

    @pytest.mark.parametrize("filled", [False, True])
    def test_pickled_extension_leaves_its_prefix_behind(self, filled):
        rng = np.random.default_rng(17)
        points = [random_spd(rng, 3) for _ in range(5)]
        prefix, stack = self.chain(points, (2, 5))
        if filled:
            stack.logs
        clone = pickle.loads(pickle.dumps(stack))
        assert stack._prefix is prefix and clone._prefix is None
        for original, copy in [(p.mat, c.mat) for p, c in zip(stack, clone)] + [
            (stack.mats, clone.mats),
            (stack.logs, clone.logs),
        ]:
            assert np.array_equal(copy, original)
            assert not copy.flags.writeable

    @pytest.mark.parametrize("k", STACK_SIZES)
    def test_logs_and_inverse_roots(self, k):
        # logs are stacked; inverse roots are not stored, since affine-invariant
        # distances whiten by the query's own root
        stack = random_stack(3, k)
        for p, log_p in zip(stack, stack.logs):
            assert np.array_equal(log_p, matrix_log(p).mat)
        assert not hasattr(stack, "invsqrts")

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("k", STACK_SIZES)
    def test_distances(self, metric, k):
        stack = random_stack(4, k)
        q = random_spd(np.random.default_rng(5), 3)
        expected = [distance(metric, q, p) for p in stack]
        assert np.array_equal(distances(metric, stack, q), expected)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("k", STACK_SIZES)
    def test_log_maps(self, metric, k):
        stack = random_stack(6, k)
        q = random_spd(np.random.default_rng(7), 3)
        idx = np.random.default_rng(8).permutation(k)
        tangents = log_maps(metric, q, stack, idx)
        for j, i in enumerate(idx):
            assert np.array_equal(tangents[j], whitened_log_map(metric, q, stack[i]).mat)
            ambient = log_map(metric, q, stack[i]).mat
            if metric is Metric.AFFINE_INVARIANT:
                # log_map is the tangent congruenced back by q^{1/2}
                sq = spd._sqrtm(q.mat)
                assert np.array_equal(ambient, spd._hermitian_congruence(sq, tangents[j]))
            else:
                assert np.array_equal(ambient, tangents[j])

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("k", STACK_SIZES)
    def test_barycenter_of_stack_equals_list(self, metric, k):
        stack = random_stack(9, k)
        w = karcher_weights(k)
        if k > 1:
            w[0] = 0.0  # a zero weight is left out
            w /= w.sum()
        from_stack = barycenter(metric, stack, w)
        from_list = barycenter(metric, list(stack), w)
        assert np.array_equal(from_stack.point.mat, from_list.point.mat)
        assert from_stack.converged and from_list.converged
        assert (from_stack.iterations, from_stack.residual) == (
            from_list.iterations, from_list.residual,
        )
        if metric is Metric.AFFINE_INVARIANT and k > 1:
            assert from_stack.iterations > 0

    # A one-point mean is its point, with no Karcher start to compare.
    @pytest.mark.parametrize("k", [k for k in STACK_SIZES if k > 1])
    def test_karcher_step_matches_per_point_sum(self, k, monkeypatch):
        # With no iterations allowed the result is the log-Euclidean start
        # and the residual is the first tangent mean, which a per-point
        # loop of matrix logs must reproduce bitwise.
        monkeypatch.setattr(spd, "KARCHER_MAX_ITER", 0)
        stack = random_stack(10, k)
        w = karcher_weights(k)
        logs = np.stack([matrix_log(p).mat for p in stack])
        start = spd._expm(np.tensordot(w, logs, axes=1))
        (isq,) = spd._invsqrtm(start)
        tangent = np.zeros((3, 3), dtype=complex)
        for wi, p in zip(w, stack):
            tangent += wi * spd._logm(spd._hermitian_congruence(isq, p.mat))
        result = barycenter(Metric.AFFINE_INVARIANT, stack, w)
        assert result.iterations == 0
        assert np.array_equal(result.point.mat, SPDMatrix(start).mat)
        assert result.residual == frob(tangent)


# ---------------------------------------------------------------------------
# The per-matrix geometry against scipy.linalg, which shares no code with
# covcast.spd: the per-matrix functions are the one-row case of the stacked
# ones, so comparing the two with each other cannot catch an error in both.

EPS = np.finfo(np.float64).eps
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


def oracle_tolerance(n: int, cond: float) -> float:
    """Absolute error allowed between covcast and the oracle for a value
    built from the eigenvalues of an ``n x n`` matrix of condition number
    ``cond``.

    A backward-stable Hermitian eigensolver returns each eigenvalue of ``A``
    to within about ``n eps ||A||_2``, so each log-eigenvalue to within
    ``n eps cond(A)``, and a Frobenius norm of ``n`` such terms to within
    ``n^{3/2} eps cond(A)``.  scipy's Schur-based ``logm``/``sqrtm`` and its
    generalized eigensolver err by the same order; the bound is doubled
    because both sides err.
    """
    return 2 * n**1.5 * EPS * cond


def random_pairs(n: int, eig_range, seed: int):
    rng = np.random.default_rng(seed)
    return [(random_spd(rng, n, eig_range), random_spd(rng, n, eig_range)) for _ in range(6)]


def config_pairs(name: str):
    """Each of a committed config's first three trial queries, paired with
    the first six uplinks of its smallest dictionary."""
    config = parse_config(CONFIG_DIR / name)
    size = min(config.dict_sizes)
    geometry = make_geometry(config)
    dictionary = build_dictionary(
        config, size, _rng(config.master_seed, _TAG_DICTIONARY, size, 0), geometry
    )
    queries = [_build_case(config, geometry, size, trial).query_ul for trial in range(3)]
    return [(x, y) for x in queries for y in dictionary.uplinks[:6]]


ORACLE_CASES = {
    "random-3": lambda: random_pairs(3, (0.1, 10.0), 20),
    "random-8": lambda: random_pairs(8, (0.1, 10.0), 21),
    # the covariances' dynamic range: a 1e-9 floor under signal up to 1e-3
    "random-ill-4": lambda: random_pairs(4, (1e-9, 1e-3), 22),
    "desk_ula": lambda: config_pairs("desk_ula.cfg"),
    "desk_random": lambda: config_pairs("desk_random.cfg"),
    "paper_scale": lambda: config_pairs("paper_scale.cfg"),
}


@pytest.fixture(scope="module", params=list(ORACLE_CASES))
def oracle_pairs(request):
    return ORACLE_CASES[request.param]()


class TestScipyOracle:
    def test_affine_invariant_distance(self, oracle_pairs):
        # d(X, Y)^2 is the sum of squared logs of the generalized
        # eigenvalues of Y v = lambda X v, those of X^{-1/2} Y X^{-1/2},
        # whose condition number is at most cond(X) cond(Y).
        for x, y in oracle_pairs:
            lam = scipy.linalg.eigh(y.mat, x.mat, eigvals_only=True)
            expected = np.sqrt(np.sum(np.log(lam) ** 2))
            tol = oracle_tolerance(x.dim, np.linalg.cond(x.mat) * np.linalg.cond(y.mat))
            assert abs(distance(Metric.AFFINE_INVARIANT, x, y) - expected) <= tol

    def test_log_euclidean_distance_and_log_maps(self, oracle_pairs):
        # log X and log Y err independently, each by its own conditioning
        for x, y in oracle_pairs:
            expected = scipy.linalg.logm(y.mat) - scipy.linalg.logm(x.mat)
            tol = oracle_tolerance(x.dim, np.linalg.cond(x.mat) + np.linalg.cond(y.mat))
            got = distance(Metric.LOG_EUCLIDEAN, x, y)
            assert abs(got - np.linalg.norm(expected)) <= tol
            for fn in (log_map, whitened_log_map):
                assert frob(fn(Metric.LOG_EUCLIDEAN, x, y).mat - expected) <= tol

    def test_affine_invariant_log_maps(self, oracle_pairs):
        # whitened: log(X^{-1/2} Y X^{-1/2}); ambient: X^{1/2} (that) X^{1/2},
        # whose error is the whitened one scaled by ||X||_2
        for x, y in oracle_pairs:
            root = scipy.linalg.sqrtm(x.mat)
            inv_root = np.linalg.inv(root)
            whitened = scipy.linalg.logm(inv_root @ y.mat @ inv_root)
            ambient = root @ whitened @ root
            tol = oracle_tolerance(x.dim, np.linalg.cond(x.mat) * np.linalg.cond(y.mat))
            got = whitened_log_map(Metric.AFFINE_INVARIANT, x, y).mat
            assert frob(got - whitened) <= tol
            got = log_map(Metric.AFFINE_INVARIANT, x, y).mat
            assert frob(got - ambient) <= tol * np.linalg.norm(x.mat, 2)

    def test_euclidean_distance_and_log_maps(self, oracle_pairs):
        # a difference and its norm: exact but for the norm's rounding
        for x, y in oracle_pairs:
            expected = y.mat - x.mat
            got = distance(Metric.EUCLIDEAN, x, y)
            assert abs(got - np.linalg.norm(expected)) <= 4 * EPS * got
            for fn in (log_map, whitened_log_map):
                assert np.array_equal(fn(Metric.EUCLIDEAN, x, y).mat, expected)
