"""Geometry of the HPD cone: matrix functions, metrics, maps, barycenters."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import minimize

import covcast.spd as spd
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
    whitened_log_map,
)
from helpers import frob, random_hermitian, random_invertible, random_spd

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
        with pytest.raises(ValueError):
            distance(Metric.EUCLIDEAN, SPDMatrix(np.eye(2)), SPDMatrix(np.eye(3)))

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
        isq = spd._sqrtm_invsqrtm(x.mat)[1]
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
    sq, isq = spd._sqrtm_invsqrtm(x.mat)
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
        _, isq = spd._sqrtm_invsqrtm(b.mat)
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
        # logs, inverse roots, affine-invariant distances and one Karcher
        # tangent each decompose all 70 points in a single stacked call.
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
            ("eigh", lambda: stack.invsqrts),
            ("eigvalsh", lambda: distances(Metric.AFFINE_INVARIANT, stack, q)),
            ("eigh", lambda: barycenter(Metric.AFFINE_INVARIANT, stack, w)),
        ]
        for name, step in steps:
            stacked.clear()
            step()
            assert stacked == [(name, (70, 3, 3))]

    @pytest.mark.parametrize("k", STACK_SIZES)
    def test_logs_and_inverse_roots(self, k):
        stack = random_stack(3, k)
        for p, log_p, isq_p in zip(stack, stack.logs, stack.invsqrts):
            assert np.array_equal(log_p, matrix_log(p).mat)
            assert np.array_equal(isq_p, spd._sqrtm_invsqrtm(p.mat)[1])

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("k", STACK_SIZES)
    def test_distances(self, metric, k):
        stack = random_stack(4, k)
        q = random_spd(np.random.default_rng(5), 3)
        expected = [distance(metric, p, q) for p in stack]
        assert np.array_equal(distances(metric, stack, q), expected)

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("k", STACK_SIZES)
    def test_log_maps(self, metric, k):
        stack = random_stack(6, k)
        q = random_spd(np.random.default_rng(7), 3)
        idx = np.random.default_rng(8).permutation(k)
        plain = log_maps(metric, q, stack, idx)
        whitened = log_maps(metric, q, stack, idx, whitened=True)
        for j, i in enumerate(idx):
            assert np.array_equal(plain[j], log_map(metric, q, stack[i]).mat)
            assert np.array_equal(whitened[j], whitened_log_map(metric, q, stack[i]).mat)

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

    @pytest.mark.parametrize("k", STACK_SIZES)
    def test_karcher_step_matches_per_point_sum(self, k, monkeypatch):
        # With no iterations allowed the result is the log-Euclidean start
        # and the residual is the first tangent mean, which a per-point
        # loop of matrix logs must reproduce bitwise.
        monkeypatch.setattr(spd, "KARCHER_MAX_ITER", 0)
        stack = random_stack(10, k)
        w = karcher_weights(k)
        logs = np.stack([matrix_log(p).mat for p in stack])
        start = spd._expm(np.tensordot(w, logs, axes=1))
        _, isq = spd._sqrtm_invsqrtm(start)
        tangent = np.zeros((3, 3), dtype=complex)
        for wi, p in zip(w, stack):
            tangent += wi * spd._logm(spd._hermitian_congruence(isq, p.mat))
        result = barycenter(Metric.AFFINE_INVARIANT, stack, w)
        assert result.iterations == 0
        assert np.array_equal(result.point.mat, SPDMatrix(start).mat)
        assert result.residual == frob(tangent)
