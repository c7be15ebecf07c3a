"""Weight-selection schemes and the dictionary estimator."""

import copy
import functools
import pickle
import warnings
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.optimize import nnls

from covcast.config import parse_config
from covcast.harness import (
    _TAG_DICTIONARY,
    _TAG_QUERY,
    _build_case,
    _rng,
    build_dictionary,
    build_pair,
    make_geometry,
)
import covcast.interp as interp
import covcast.spd as spd
from covcast.interp import (
    FLAG_DEGENERATE_BANDWIDTH,
    FLAG_FLAT_BANDWIDTH,
    FLAG_KARCHER_NONCONVERGED,
    Dictionary,
    Scheme,
    SchemeKind,
    WeightVector,
    estimate_downlink,
    mirror_weights,
    nearest_neighbor_weights,
    select_bandwidth,
    solve_simplex_qp,
)
from covcast.spd import (
    KARCHER_TOL,
    Metric,
    SPDMatrix,
    barycenter,
    distance,
    distances,
    log_map,
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
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

seeds = st.integers(min_value=0, max_value=2**31 - 1)


def simplex_grid(k: int, steps: int) -> np.ndarray:
    """All points of the simplex lattice with coordinates i/steps."""
    points = []
    for dividers in combinations(range(steps + k - 1), k - 1):
        prev = -1
        comp = []
        for d in dividers:
            comp.append(d - prev - 1)
            prev = d
        comp.append(steps + k - 2 - prev)
        points.append(comp)
    return np.asarray(points, dtype=np.float64) / steps


def make_dictionary(rng, k: int, n_ul: int = 3, n_dl: int = 3) -> Dictionary:
    return Dictionary(
        [(random_spd(rng, n_ul), random_spd(rng, n_dl)) for _ in range(k)]
    )


def tangent_norm_distances(metric, q, d) -> np.ndarray:
    """The kernel's distances: the Frobenius norm of each uplink's tangent."""
    return np.array([np.linalg.norm(whitened_log_map(metric, q, ul).mat) for ul in d.uplinks])


def cut_kernel_weights(dists: np.ndarray, sigma: float) -> np.ndarray:
    """Gaussian-kernel weights with every weight below 2^-52 of the largest
    zeroed, normalized by their sum in distance order."""
    kernel = np.exp(-(dists**2 - dists.min() ** 2) / (2.0 * sigma**2))
    kernel[kernel < 2.0**-52] = 0.0
    return kernel / kernel[np.argsort(dists, kind="stable")].sum()


@pytest.fixture(scope="module")
def desk_ula_case():
    """desk_ula.cfg's K=50 dictionary and the uplink query of trial 0."""
    config = parse_config(CONFIG_DIR / "desk_ula.cfg")
    geometry = make_geometry(config)
    rng = _rng(config.master_seed, _TAG_DICTIONARY, 50, 0)
    d = build_dictionary(config, 50, rng, geometry)
    return d, _build_case(config, geometry, 50, 0).query_ul


# ---------------------------------------------------------------------------
# Types


class TestDictionary:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Dictionary([])

    def test_rejects_mixed_dims(self):
        rng = np.random.default_rng(0)
        pairs = [
            (random_spd(rng, 3), random_spd(rng, 4)),
            (random_spd(rng, 2), random_spd(rng, 4)),
        ]
        with pytest.raises(ValueError):
            Dictionary(pairs)

    def test_mixed_uplink_downlink_dims_allowed(self):
        rng = np.random.default_rng(1)
        d = make_dictionary(rng, 2, n_ul=3, n_dl=5)
        assert d.uplinks.dim == 3
        assert d.downlinks.dim == 5
        assert len(d) == 2

    def test_uplinks_and_downlinks_are_stored_once(self):
        rng = np.random.default_rng(2)
        d = make_dictionary(rng, 4)
        assert len(d.uplinks) == len(d.downlinks) == len(d) == 4
        assert d.uplinks is d.uplinks
        assert d.downlinks is d.downlinks


class TestWeightVector:
    def test_simplex_invariants(self):
        w = WeightVector([0.25, 0.75])
        assert w.w.sum() == pytest.approx(1.0, abs=1e-9)
        assert list(w.support) == [0, 1]

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            WeightVector([1.2, -0.2])

    def test_rejects_bad_sum(self):
        with pytest.raises(ValueError):
            WeightVector([0.4, 0.4])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        # NaN would slip past the range and sum gates and then out of the support
        with pytest.raises(ValueError, match="finite"):
            WeightVector([bad, 1.0])

    def test_snaps_round_off(self):
        w = WeightVector([1.0 + 5e-13, -5e-13])
        assert w.w[0] == 1.0
        assert w.w[1] == 0.0
        assert list(w.support) == [0]

    @given(seeds, st.integers(min_value=1, max_value=8))
    def test_normalized_vectors_accepted(self, seed, k):
        rng = np.random.default_rng(seed)
        raw = rng.uniform(0.0, 1.0, size=k) + 1e-9
        w = WeightVector(raw / raw.sum())
        assert abs(w.w.sum() - 1.0) <= 1e-9
        assert np.all(w.w >= 0.0) and np.all(w.w <= 1.0)


# ---------------------------------------------------------------------------
# Nearest neighbor


class TestNearestNeighbor:
    def test_exact_member_is_one_hot(self):
        rng = np.random.default_rng(2)
        pairs = [(random_spd(rng, 3), random_spd(rng, 3)) for _ in range(6)]
        q = pairs[3][0]
        w = nearest_neighbor_weights(Dictionary(pairs), q, Metric.LOG_EUCLIDEAN)
        assert w.w[3] == 1.0
        assert list(w.support) == [3]

    def test_single_entry(self):
        rng = np.random.default_rng(3)
        d = make_dictionary(rng, 1)
        w = nearest_neighbor_weights(d, random_spd(rng, 3), Metric.EUCLIDEAN)
        assert np.array_equal(w.w, [1.0])

    @pytest.mark.parametrize("metric", METRICS)
    def test_matches_brute_force_scan(self, metric):
        rng = np.random.default_rng(4)
        d = Dictionary(
            [(random_spd(rng, 4), random_spd(rng, 4)) for _ in range(10)]
        )
        q = random_spd(rng, 4)
        w = nearest_neighbor_weights(d, q, metric)
        best = min(range(10), key=lambda i: distance(metric, d.uplinks[i], q))
        assert list(w.support) == [best]

    def test_dimension_mismatch(self):
        rng = np.random.default_rng(5)
        d = make_dictionary(rng, 2, n_ul=3)
        q = random_spd(rng, 4)
        for metric in METRICS:
            for weights in (nearest_neighbor_weights, mirror_weights, select_bandwidth):
                with pytest.raises(ValueError, match="dimension mismatch"):
                    weights(d, q, metric)


# ---------------------------------------------------------------------------
# Simplex QP


class TestSimplexQp:
    def test_identity_gram_is_uniform(self):
        w = solve_simplex_qp(np.eye(4))
        assert np.allclose(w.w, 0.25, atol=1e-9)

    def test_two_dim_stationarity(self):
        # minimize w^2 + 100 (1-w)^2 -> w = 100/101
        w = solve_simplex_qp(np.diag([1.0, 10.0]))
        assert w.w[0] == pytest.approx(100.0 / 101.0, abs=1e-8)
        assert w.w[1] == pytest.approx(1.0 / 101.0, abs=1e-8)

    def test_matches_grid_search(self):
        rng = np.random.default_rng(6)
        m = rng.standard_normal((8, 5))
        gram = m.T @ m
        w = solve_simplex_qp(m)
        obj = float(w.w @ gram @ w.w)
        grid = simplex_grid(5, 50)  # step 0.02
        grid_best = float(np.einsum("mi,ij,mj->m", grid, gram, grid).min())
        assert obj <= grid_best + 1e-6

    def test_zero_gram_returns_uniform(self):
        w = solve_simplex_qp(np.zeros((5, 3)))
        assert np.allclose(w.w, 1.0 / 3.0)

    def test_rejects_complex(self):
        # the real view of complex columns must be passed, not the columns
        with pytest.raises(ValueError):
            solve_simplex_qp(np.eye(3) + 1j * np.eye(3))

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            solve_simplex_qp(np.ones(3))

    def test_rejects_no_columns(self):
        with pytest.raises(ValueError):
            solve_simplex_qp(np.ones((3, 0)))

    @staticmethod
    def assert_kkt(gram: np.ndarray, w: np.ndarray, tol: float) -> None:
        # On the simplex, w is optimal iff (Gw)_i >= w^T G w for every i,
        # with equality wherever w_i > 0.
        grad = gram @ w
        obj = float(w @ grad)
        assert grad.min() >= obj - tol
        support = w > 0.0
        assert np.abs(grad[support] - obj).max() <= tol

    def test_kkt_ill_conditioned(self):
        rng = np.random.default_rng(12)
        base = rng.standard_normal(30)
        m = base[:, None] + 1e-5 * rng.standard_normal((30, 12))
        m /= np.linalg.norm(m, axis=0).max()
        gram = m.T @ m
        assert np.linalg.cond(gram) >= 1e9
        w = solve_simplex_qp(m).w
        self.assert_kkt(gram, w, tol=1e-12)

    def test_kkt_rank_deficient(self):
        # More columns than the tangent space has dimensions, as when the
        # mirror scheme selects k_s = N^2 entries at K >= N^2.
        rng = np.random.default_rng(13)
        m = rng.standard_normal((6, 15)) + 0.5
        m /= np.linalg.norm(m, axis=0).max()
        gram = m.T @ m
        assert np.linalg.matrix_rank(gram) == 6
        w = solve_simplex_qp(m).w
        self.assert_kkt(gram, w, tol=1e-12)


# ---------------------------------------------------------------------------
# Mirror interpolation


class TestMirrorWeights:
    def test_euclidean_midpoint_recovers_half_half(self):
        rng = np.random.default_rng(8)
        a, b = random_spd(rng, 3), random_spd(rng, 3)
        q = SPDMatrix((a.mat + b.mat) / 2)
        d = Dictionary([(a, random_spd(rng, 3)), (b, random_spd(rng, 3))])
        w = mirror_weights(d, q, Metric.EUCLIDEAN)
        assert np.allclose(w.w, [0.5, 0.5], atol=1e-6)

    def test_single_entry(self):
        rng = np.random.default_rng(9)
        d = make_dictionary(rng, 1)
        w = mirror_weights(d, random_spd(rng, 3), Metric.LOG_EUCLIDEAN)
        assert np.array_equal(w.w, [1.0])

    @pytest.mark.parametrize("metric", METRICS)
    def test_matches_simplex_grid_search(self, metric):
        rng = np.random.default_rng(10)
        d = make_dictionary(rng, 3)
        q = random_spd(rng, 3)
        w = mirror_weights(d, q, metric)

        tangents = [log_map(metric, q, ul).mat for ul in d.uplinks]
        if metric is Metric.AFFINE_INVARIANT:
            # The AI norm at q is ||q^{-1/2} V q^{-1/2}||_F, not ||V||_F.
            lam, u = np.linalg.eigh(q.mat)
            isq = (u / np.sqrt(lam)) @ u.conj().T
            tangents = [isq @ v @ isq for v in tangents]
        m = np.stack([v.ravel() for v in tangents], axis=1)
        gram = np.real(m.conj().T @ m)

        def objective(weights):
            return np.einsum("mi,ij,mj->m", weights, gram, weights)

        ours = float(objective(w.w[None, :])[0])
        grid_best = float(objective(simplex_grid(3, 1000)).min())
        assert ours <= grid_best + 1e-6

    @pytest.mark.parametrize("metric", METRICS)
    def test_desk_ula_query_reaches_simplex_minimum(self, metric):
        # desk_ula.cfg, K=50, trial 6: a query on which an iterative solver
        # stopping at an iteration cap landed 1.65 % above the minimum.
        config = parse_config(CONFIG_DIR / "desk_ula.cfg")
        geometry = make_geometry(config)
        rng = _rng(config.master_seed, _TAG_DICTIONARY, 50, 0)
        d = build_dictionary(config, 50, rng, geometry)
        q = _build_case(config, geometry, 50, 6).query_ul
        w = mirror_weights(d, q, metric).w

        # k_s = min(N^2, K) = K here, so every entry is selected.
        m = np.stack([whitened_log_map(metric, q, ul).mat.ravel() for ul in d.uplinks], axis=1)
        gram = np.real(m.conj().T @ m)
        lam, u = np.linalg.eigh(gram)
        factor = np.sqrt(np.clip(lam, 0.0, None))[:, None] * u.T
        lifted = np.vstack([factor, np.ones(50)])
        target = np.zeros(51)
        target[-1] = 1.0
        v, _ = nnls(lifted, target)
        v /= v.sum()
        best = float(v @ gram @ v)
        assert float(w @ gram @ w) <= best * (1.0 + 1e-6)

    def test_support_respects_neighborhood_cap(self):
        # uplink dim 2 -> at most 4 entries may carry weight
        rng = np.random.default_rng(11)
        d = Dictionary(
            [(random_spd(rng, 2), random_spd(rng, 3)) for _ in range(9)]
        )
        q = random_spd(rng, 2)
        w = mirror_weights(d, q, Metric.LOG_EUCLIDEAN)
        assert len(w.support) <= 4
        dists = np.array([distance(Metric.LOG_EUCLIDEAN, ul, q) for ul in d.uplinks])
        nearest4 = set(np.argsort(dists, kind="stable")[:4])
        assert set(w.support) <= nearest4


# ---------------------------------------------------------------------------
# Kernel weights and bandwidth selection


class TestKernelWeights:
    """The weights :func:`select_bandwidth` returns with its bandwidth."""

    def test_formula(self):
        rng = np.random.default_rng(12)
        d = make_dictionary(rng, 6)
        q = random_spd(rng, 3)
        for metric in METRICS:
            sigma, w, flags = select_bandwidth(d, q, metric)
            assert flags == ()
            dists = tangent_norm_distances(metric, q, d)
            expected = cut_kernel_weights(dists, sigma)
            np.testing.assert_allclose(w.w, expected, rtol=1e-12, atol=0.0)
            # the cut leaves the nearest entry and drops some weight
            assert 0 < np.count_nonzero(expected) < len(d)

    def test_member_query_keeps_unit_kernel(self):
        rng = np.random.default_rng(15)
        pairs = [(random_spd(rng, 3), random_spd(rng, 3)) for _ in range(4)]
        q = pairs[2][0]
        d = Dictionary(pairs)
        sigma, w, flags = select_bandwidth(d, q, Metric.EUCLIDEAN)
        assert flags == ()
        assert np.argmax(w.w) == 2
        # the member's kernel value is exp(0) = 1, whatever sigma is
        dists = np.array([distance(Metric.EUCLIDEAN, ul, q) for ul in d.uplinks])
        assert dists[2] == 0.0
        kernel = np.exp(-(dists**2) / (2.0 * sigma**2))
        assert w.w[2] == pytest.approx(1.0 / kernel.sum(), rel=1e-12)


class TestTangentRows:
    """The real rows the bandwidth search holds its tangents in."""

    @pytest.mark.parametrize("n", [1, 2, 3, 10])
    def test_half_vectorization(self, n):
        rng = np.random.default_rng(40 + n)
        k = 7
        stack = np.stack([random_hermitian(rng, n).mat for _ in range(k)])
        rows = interp._tangent_rows(stack, np.arange(k), 1.0)
        assert rows.shape == (k, n * n) and rows.dtype == np.float64
        # the 2-norm of a row is the tangent's Frobenius norm
        np.testing.assert_allclose(np.linalg.norm(rows, axis=1), spd._norms(stack),
                                   rtol=1e-15, atol=0.0)
        # a weighted sum of rows is the row of the weighted tangent sum
        w = rng.uniform(size=k)
        summed = np.tensordot(w, stack, axes=1)[None]
        np.testing.assert_allclose(w @ rows, interp._tangent_rows(summed, np.arange(1), 1.0)[0],
                                   rtol=1e-13, atol=1e-13)
        # the rows of a permuted stack are the permuted rows, bit for bit,
        # and gathering in that order gives the same rows
        perm = rng.permutation(k)
        permuted = interp._tangent_rows(stack[perm], np.arange(k), 1.0)
        assert np.array_equal(permuted, rows[perm])
        assert np.array_equal(interp._tangent_rows(stack, perm, 1.0), rows[perm])
        # a power-of-two unit scales them exactly
        assert np.array_equal(interp._tangent_rows(stack, np.arange(k), 2.0**-40), rows * 2.0**40)


def refinement_bound(width: float, t: float) -> int:
    """The most evaluations Brent's refinement makes on a bracket ``width``
    wide at tolerance ``t``, as :func:`select_bandwidth` derives it: the
    first evaluation, then per golden-section step (each shrinks ``W + F``
    by 5/6 or more, and the last starts above ``4 t``) one step and at most
    ``2 ceil(log2(c F / t)) + 1`` parabolic ones, with
    ``F <= min((1 - c) width, (W + F) / 2)``."""
    c = (3.0 - np.sqrt(5.0)) / 2.0
    potential = (2.0 - c) * width
    evals = 1
    while potential > 4.0 * t:
        far = min((1.0 - c) * width, potential / 2.0)
        evals += 2 + 2 * max(0, int(np.ceil(np.log2(c * far / t))))
        potential *= 5.0 / 6.0
    return evals


class TestSelectBandwidth:
    def test_midway_query_is_flat(self):
        rng = np.random.default_rng(17)
        a, b = random_spd(rng, 3), random_spd(rng, 3)
        q = SPDMatrix((a.mat + b.mat) / 2)
        d = Dictionary([(a, random_spd(rng, 3)), (b, random_spd(rng, 3))])
        sigma, _, flags = select_bandwidth(d, q, Metric.EUCLIDEAN)
        assert FLAG_FLAT_BANDWIDTH in flags
        assert sigma > 0.0

    def test_single_entry_is_flat(self):
        rng = np.random.default_rng(18)
        d = make_dictionary(rng, 1)
        sigma, _, flags = select_bandwidth(d, random_spd(rng, 3), Metric.LOG_EUCLIDEAN)
        assert FLAG_FLAT_BANDWIDTH in flags
        assert sigma > 0.0

    def test_zero_distances_degenerate(self):
        rng = np.random.default_rng(19)
        ul = random_spd(rng, 3)
        d = Dictionary([(ul, random_spd(rng, 3)), (ul, random_spd(rng, 3))])
        sigma, w, flags = select_bandwidth(d, ul, Metric.EUCLIDEAN)
        assert flags == (FLAG_DEGENERATE_BANDWIDTH,)
        assert sigma > 0.0
        assert np.array_equal(w.w, [0.5, 0.5])

    # Every distance is zero or in [2^-1074, 2^1024), so the refined bracket
    # is narrower than two of the 63 scan intervals of ln(100 d_max / d_min)
    # < ln 100 + 2098 ln 2; the tolerance is at least sqrt(eps).
    WIDEST_BRACKET = 2 * (np.log(100.0) + 2098 * np.log(2.0)) / 63
    SQRT_EPS = np.sqrt(np.finfo(np.float64).eps)
    MAX_EVALS = refinement_bound(WIDEST_BRACKET, SQRT_EPS)

    def test_extreme_distance_ratio_ends_within_the_bound(self, monkeypatch):
        scale = 1e-150
        query = SPDMatrix(scale * np.eye(2))
        uplinks = [
            SPDMatrix(scale * np.diag([0.5, 1.0])),
            SPDMatrix(scale * np.diag([1.6, 1.0])),  # cancels the first
            SPDMatrix(1e150 * np.eye(2)),
        ]
        d = Dictionary([(ul, ul) for ul in uplinks])
        dist = distances(Metric.EUCLIDEAN, d.uplinks, query)
        assert dist.max() / dist.min() > 1e300
        real = interp._kernel_tangent_norms
        refinements = []

        def counted(rows, dists, log_sigma):
            if np.ndim(log_sigma) == 0:
                refinements.append(log_sigma)
            return real(rows, dists, log_sigma)

        monkeypatch.setattr(interp, "_kernel_tangent_norms", counted)
        # the far entry's logit overflows to -inf: weight zero, as it should
        # be, and no overflow warning reaches the caller
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            sigma, w, flags = select_bandwidth(d, query, Metric.EUCLIDEAN)
        assert flags == () and dist.min() / 10 <= sigma <= 10 * dist.max()
        assert 0 < len(refinements) <= self.MAX_EVALS
        assert w.w[2] == 0.0

    @pytest.mark.parametrize("metric", METRICS)
    def test_uniform_scale_changes_nothing(self, metric):
        # One dictionary at uniform scales, out to where a squared distance
        # or 1 / sigma^2 leaves the float64 range at either end: the same
        # distances and sigma (each / s for Euclidean), the same kernel flags
        # and support, nearest-neighbour support and mirror weights, and no
        # warning.
        found = []
        for s in (1.0, 1e-12, 1e-150, 1e-160, 1e-170, 1e170):
            query = SPDMatrix(s * np.eye(2))
            uplinks = [s * 1.5 * np.eye(2), s * 3.0 * np.eye(2), s * np.diag([9.0, 0.5])]
            d = Dictionary([(SPDMatrix(u), SPDMatrix(u)) for u in uplinks])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                dist = distances(metric, d.uplinks, query)
                sigma, w, flags = select_bandwidth(d, query, metric)
                nn = nearest_neighbor_weights(d, query, metric)
                mirror = mirror_weights(d, query, metric).w
            unit = s if metric is Metric.EUCLIDEAN else 1.0
            found.append((dist / unit, sigma / unit, tuple(w.support), flags,
                          tuple(nn.support), mirror))
        first = found[0]
        for dist, scaled, support, flags, nn, mirror in found[1:]:
            assert (support, flags, nn) == first[2:5]
            assert dist == pytest.approx(first[0], rel=1e-12, abs=0.0)
            assert scaled == pytest.approx(first[1], rel=1e-12, abs=0.0)
            assert mirror == pytest.approx(first[5], rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("a", [-730.1, -374.53, -11.6, 333.9, 683.8])
    @pytest.mark.parametrize("at", [0.01, 0.5, 0.99])
    def test_widest_bracket_ends_within_the_bound(self, a, at):
        # the widest bracket at both ends of the log-bandwidth range the
        # search covers in its units (ln(2^-1050 / 10) to ln(10 2^1050)) and
        # inside it, with the minimum near either end or in the middle: a
        # smooth minimum, a flat one, a kink, and no minimum at all
        assert self.MAX_EVALS == 3763  # as select_bandwidth's docstring states
        b = a + self.WIDEST_BRACKET
        target = a + at * (b - a)
        t = self.SQRT_EPS * max(1.0, a, -b)
        objectives = {
            "quadratic": lambda x: (x - target) ** 2,
            "quartic": lambda x: (x - target) ** 4,
            "kink": lambda x: abs(x - target),
            "constant": lambda x: 1.0,
        }
        for name, objective in objectives.items():
            evals = []

            def fn(x):
                evals.append(x)
                return objective(x)

            x = interp._brent_minimize(fn, a, b)
            assert len(evals) <= self.MAX_EVALS, name
            # strictly inside, so the prefix the refinement reads is kept
            assert all(a < e < b for e in evals), name
            if name != "constant":
                # the bracket ends within 2 t of x and still holds the minimum
                assert abs(x - target) <= 2.0 * t, name

    @pytest.mark.parametrize("metric", METRICS)
    def test_beats_log_grid(self, metric):
        rng = np.random.default_rng(20)
        d = make_dictionary(rng, 10)
        q = random_spd(rng, 3)
        sigma, _, flags = select_bandwidth(d, q, metric)
        assert flags == ()

        # independent oracle: direct objective over a 1000-point log grid
        dists = np.array([distance(metric, ul, q) for ul in d.uplinks])
        tangents = np.stack([whitened_log_map(metric, q, ul).mat for ul in d.uplinks])

        def objective(s):
            logits = -(dists**2) / (2.0 * s**2)
            logits -= logits.max()
            w = np.exp(logits)
            w /= w.sum()
            return np.linalg.norm(np.tensordot(w, tangents, axes=1), "fro")

        lo = np.log(dists[dists > 0].min() / 10.0)
        hi = np.log(10.0 * dists.max())
        grid = np.exp(np.linspace(lo, hi, 1000))
        grid_best = min(objective(s) for s in grid)
        assert objective(sigma) <= grid_best + 1e-9

    # desk_ula.cfg, K=50, trial 0: a realistic query for the search's
    # arithmetic, which random 3x3 dictionaries exercise only lightly.
    @pytest.mark.parametrize("metric", METRICS)
    def test_scan_matches_single_bandwidth_objective(self, desk_ula_case, metric, monkeypatch):
        d, q = desk_ula_case
        norms = interp._kernel_tangent_norms
        calls = []

        def recording(rows, dists, log_sigma):
            value = norms(rows, dists, log_sigma)
            calls.append((rows, dists, log_sigma, value))
            return value

        monkeypatch.setattr(interp, "_kernel_tangent_norms", recording)
        _, _, flags = select_bandwidth(d, q, metric)
        assert flags == ()
        rows, units, xs, scan = calls[0]
        assert xs.shape == scan.shape == (64,)
        assert 3 <= len(calls) <= 1 + self.MAX_EVALS  # the scan, then one row per step
        assert all(np.ndim(x) == 0 for _, _, x, _ in calls[1:])

        # one matrix-vector product per bandwidth
        single = np.array([norms(rows, units, x) for x in xs])
        np.testing.assert_allclose(scan, single, rtol=1e-12, atol=0.0)

        # and the complex tangent mean with max-subtracted kernel weights,
        # over every entry, at distances that are the tangents' norms; the
        # search runs in units of a power of two
        dists = tangent_norm_distances(metric, q, d)
        tangents = np.stack([whitened_log_map(metric, q, ul).mat for ul in d.uplinks])
        unit = 2.0 ** np.round(np.log2(dists.max() / units[-1]))
        np.testing.assert_allclose(np.sort(dists) / unit, units, rtol=1e-15, atol=0.0)

        def objective(x):
            logits = -(dists**2) / (2.0 * (unit * np.exp(x)) ** 2)
            w = np.exp(logits - logits.max())
            return np.linalg.norm(np.tensordot(w / w.sum(), tangents, axes=1), "fro") / unit

        reference = np.array([objective(x) for x in xs])
        np.testing.assert_allclose(scan, reference, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("metric", METRICS)
    def test_permuted_dictionary_gives_the_same_bits(self, desk_ula_case, metric):
        d, q = desk_ula_case
        perm = np.random.default_rng(26).permutation(len(d))
        shuffled = Dictionary((d.uplinks[i], d.downlinks[i]) for i in perm)
        sigma, w, flags = select_bandwidth(d, q, metric)
        sigma_p, w_p, flags_p = select_bandwidth(shuffled, q, metric)
        assert sigma_p.hex() == sigma.hex()
        assert flags_p == flags
        # The kernel values permute bit for bit (same distances, same sigma),
        # and their normalizing sum runs in distance order.
        assert np.array_equal(w_p.w, w.w[perm])


# ---------------------------------------------------------------------------
# End-to-end estimation


class TestAffineInvariance:
    def test_weights_survive_a_congruence(self):
        # Under the affine-invariant metric, P -> A P A^H applied to the
        # query and every uplink changes no distance and no tangent norm,
        # so it must change no scheme's weights.
        metric = Metric.AFFINE_INVARIANT
        for seed in range(10):
            rng = np.random.default_rng(seed)
            pairs = [(random_spd(rng, 3), random_spd(rng, 3)) for _ in range(10)]
            q = random_spd(rng, 3)
            a = random_invertible(rng, 3)

            def congruent(p):
                m = a @ p.mat @ a.conj().T
                return SPDMatrix((m + m.conj().T) / 2)

            d = Dictionary(pairs)
            moved = Dictionary([(congruent(ul), dl) for ul, dl in pairs])
            q_moved = congruent(q)

            assert np.array_equal(
                nearest_neighbor_weights(moved, q_moved, metric).w,
                nearest_neighbor_weights(d, q, metric).w,
            )
            np.testing.assert_allclose(
                mirror_weights(moved, q_moved, metric).w,
                mirror_weights(d, q, metric).w,
                rtol=0.0,
                atol=1e-10,
            )
            sigma, _, flags = select_bandwidth(d, q, metric)
            sigma_moved, _, flags_moved = select_bandwidth(moved, q_moved, metric)
            assert flags == flags_moved == ()
            assert sigma_moved == pytest.approx(sigma, rel=1e-6), f"seed {seed}"


class TestEstimateDownlink:
    def test_member_query_nearest_neighbor_returns_stored_downlink(self):
        rng = np.random.default_rng(21)
        pairs = [(random_spd(rng, 3), random_spd(rng, 3)) for _ in range(5)]
        d = Dictionary(pairs)
        q, r_dl = pairs[1]
        est = estimate_downlink(d, q, Scheme.nearest_neighbor(), Metric.AFFINE_INVARIANT)
        assert frob(est.covariance.mat - r_dl.mat) < 1e-10

    @pytest.mark.parametrize("metric", METRICS)
    def test_nearest_neighbor_is_the_stored_downlink(self, metric):
        rng = np.random.default_rng(27)
        d = make_dictionary(rng, 6)
        est = estimate_downlink(d, random_spd(rng, 3), Scheme.nearest_neighbor(), metric)
        (i,) = est.weights.support
        assert np.array_equal(est.covariance.mat, d.downlinks[i].mat)
        assert est.flags == ()

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize(
        "scheme", [Scheme.nearest_neighbor(), Scheme.mirror(), Scheme.kernel()]
    )
    def test_single_entry_returns_stored_downlink(self, scheme, metric):
        rng = np.random.default_rng(22)
        pair = (random_spd(rng, 3), random_spd(rng, 3))
        d = Dictionary([pair])
        est = estimate_downlink(d, random_spd(rng, 3), scheme, metric)
        assert frob(est.covariance.mat - pair[1].mat) < 1e-9

    def test_mirror_midpoint_maps_to_downlink_midpoint(self):
        rng = np.random.default_rng(23)
        a, b = random_spd(rng, 3), random_spd(rng, 3)
        da, db = random_spd(rng, 3), random_spd(rng, 3)
        q = SPDMatrix((a.mat + b.mat) / 2)
        d = Dictionary([(a, da), (b, db)])
        est = estimate_downlink(d, q, Scheme.mirror(), Metric.EUCLIDEAN)
        assert frob(est.covariance.mat - (da.mat + db.mat) / 2) < 1e-6

    @pytest.mark.parametrize("metric", METRICS)
    def test_kernel_estimate_computes_distances_once(self, metric, monkeypatch):
        # The kernel's distances are its tangents' norms, from the query's
        # shared geometry: at most one query decomposition and one stacked
        # decomposition (the affine-invariant logarithm of the whitened
        # uplinks; the log-Euclidean logs are the dictionary's, fitted once),
        # no distances pass.  The estimate that follows on the same query
        # reads them again instead of recomputing them.  Only the geometry's
        # work on the query side is counted: the barycenter decomposes its
        # own iterates.
        rng = np.random.default_rng(24)
        d = make_dictionary(rng, 4)
        q = random_spd(rng, 3)
        d.uplinks.logs  # fit the dictionary first
        calls, stacked = [], []
        real_eigh_sym = spd._eigh_sym

        def decomposed(a):
            if a is q.mat:
                calls.append("query eigh")
            return real_eigh_sym(a)

        monkeypatch.setattr(spd, "_eigh_sym", decomposed)

        def counting(name):
            real = getattr(spd, name)

            def counted(*args):
                calls.append(name)
                return real(*args)

            monkeypatch.setattr(spd, name, counted)

        for name in ("_whitened_logs", "_ai_distances"):
            counting(name)
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def recorded(a, *args, _real=real, **kwargs):
                if np.ndim(a) == 3:
                    stacked.append(a.shape)
                return _real(a, *args, **kwargs)

            monkeypatch.setattr(np.linalg, name, recorded)
        _, w, _ = select_bandwidth(d, q, metric)
        expected = {
            Metric.EUCLIDEAN: [],
            Metric.LOG_EUCLIDEAN: ["query eigh"],
            Metric.AFFINE_INVARIANT: ["query eigh", "_whitened_logs"],
        }[metric]
        assert calls == expected
        assert stacked == ([(4, 3, 3)] if metric is Metric.AFFINE_INVARIANT else [])
        est = estimate_downlink(d, q, Scheme.kernel(), metric)
        assert calls == expected
        assert np.array_equal(est.weights.w, w.w)

    @given(seeds, st.sampled_from(METRICS))
    def test_weights_always_on_simplex(self, seed, metric):
        rng = np.random.default_rng(seed)
        d = make_dictionary(rng, 5)
        q = random_spd(rng, 3)
        for scheme in (Scheme.nearest_neighbor(), Scheme.mirror(), Scheme.kernel()):
            est = estimate_downlink(d, q, scheme, metric)
            w = est.weights.w
            assert abs(w.sum() - 1.0) <= 1e-9
            assert np.all(w >= 0.0) and np.all(w <= 1.0)
            # output passed the positive-definiteness gate
            assert np.linalg.eigvalsh(est.covariance.mat)[0] > 0.0

    @pytest.mark.parametrize(
        "scheme", [Scheme.nearest_neighbor(), Scheme.mirror(), Scheme.kernel()]
    )
    def test_dictionary_permutation_equivariance(self, scheme):
        rng = np.random.default_rng(25)
        pairs = [(random_spd(rng, 3), random_spd(rng, 3)) for _ in range(6)]
        q = random_spd(rng, 3)
        perm = rng.permutation(6)
        d0 = Dictionary(pairs)
        d1 = Dictionary([pairs[i] for i in perm])
        metric = Metric.LOG_EUCLIDEAN
        e0 = estimate_downlink(d0, q, scheme, metric)
        e1 = estimate_downlink(d1, q, scheme, metric)
        assert frob(e0.covariance.mat - e1.covariance.mat) < 1e-9
        if scheme.kind is not SchemeKind.MIRROR:
            assert np.allclose(e0.weights.w[perm], e1.weights.w, atol=1e-12)

    def test_noise_floor_means_converge(self):
        # desk_ula.cfg, K=50: some mirror/AI means stop at the float64 noise
        # floor, with a residual at or above KARCHER_TOL (trial 2 among
        # them); they converge, and no flag marks them.
        config = parse_config(CONFIG_DIR / "desk_ula.cfg")
        geometry = make_geometry(config)
        rng = _rng(config.master_seed, _TAG_DICTIONARY, 50, 0)
        d = build_dictionary(config, 50, rng, geometry)
        floored = []
        for trial in range(4):
            q = _build_case(config, geometry, 50, trial).query_ul
            est = estimate_downlink(d, q, Scheme.mirror(), Metric.AFFINE_INVARIANT)
            result = barycenter(Metric.AFFINE_INVARIANT, d.downlinks, est.weights.w)
            assert result.converged and est.flags == ()
            floored.append(result.residual >= KARCHER_TOL)
        assert any(floored)


# ---------------------------------------------------------------------------
# Paper-scale queries: the kernel's cut and the Karcher line search


def paper_scale_case(k: int, trials):
    """paper_scale.cfg's K-entry dictionary and the uplink queries of
    ``trials``, each drawn from its stream keyed by K = ``k``.

    At K = 500, the config's largest, these are the sweep's own redraw-0
    dictionary and queries.  At a smaller K they are the streams that the
    sweep drew for that K before every size shared the largest's streams,
    which the stalled line search below was found on.
    """
    config, geometry, d = paper_scale_dictionary(k)
    queries = [_rng(config.master_seed, _TAG_QUERY, k, t) for t in trials]
    return d, [build_pair(config, geometry, rng)[0] for rng in queries]


@functools.cache
def paper_scale_dictionary(k: int):
    """paper_scale.cfg, its geometry and :func:`paper_scale_case`'s K-entry
    dictionary, built once per test session."""
    config = parse_config(CONFIG_DIR / "paper_scale.cfg")
    geometry = make_geometry(config)
    d = build_dictionary(config, k, _rng(config.master_seed, _TAG_DICTIONARY, k, 0), geometry)
    return config, geometry, d


class TestPaperScale:
    EPS = np.finfo(np.float64).eps

    def test_cut_moves_results_by_rounding_only(self, monkeypatch):
        # select_bandwidth's docstring bounds what the cut weights (each
        # below 2^-52 of the largest; ``delta`` their sum) can move.
        d, queries = paper_scale_case(500, range(4))
        k = len(d)
        norms = interp._kernel_tangent_norms
        for q in queries:
            for metric in METRICS:
                calls = []

                def recording(rows, dists, log_sigma):
                    value = norms(rows, dists, log_sigma)
                    calls.append((rows, dists, log_sigma, value))
                    return value

                monkeypatch.setattr(interp, "_kernel_tangent_norms", recording)
                sigma, w, flags = select_bandwidth(d, q, metric)
                monkeypatch.undo()
                assert flags == ()

                # the uncut weights at the same bandwidth
                dists = tangent_norm_distances(metric, q, d)
                kernel = np.exp(-(dists**2 - dists.min() ** 2) / (2.0 * sigma**2))
                uncut = kernel / kernel.sum()
                dropped = w.w == 0.0
                delta = kernel[dropped].sum()
                assert kernel[dropped].max(initial=0.0) < 2.0**-52
                assert delta < dropped.sum() * 2.0**-52
                # 1-norm: 2 delta, plus a few ulps of rounding per weight
                assert np.abs(w.w - uncut).sum() <= 2.0 * delta + 8 * self.EPS

                # The refinement steps read the prefix kept at the
                # bracket's largest bandwidth; the rows they leave out are
                # below the cut at every step, and the prefix objective is
                # the full one to within delta (d_max + J) and the rounding
                # of a K-term sum, K eps sum_k kappa_k d_k / S.
                rows, units, _, _ = calls[0]
                for prefix_rows, prefix_units, x, value in calls[1:]:
                    m = len(prefix_units)
                    assert prefix_rows.shape[0] == m
                    kappa = np.exp(interp._kernel_logits(units, x))
                    left_out = kappa[m:]
                    assert left_out.max(initial=0.0) < 2.0**-52
                    full = norms(rows, units, x)
                    rounding = k * self.EPS * (kappa @ units) / kappa.sum()
                    assert abs(full - value) <= left_out.sum() * (units[-1] + value) + rounding

                if metric is not Metric.AFFINE_INVARIANT:
                    continue
                # The estimate against the uncut mean.  Its uncut tangent
                # mean (the gradient the uncut mean zeroes) differs from the
                # cut one by at most ||w - uncut||_1 max_k ||Log(D_k)||, the
                # same weighted sum of the same tangents.  The Hessian is at
                # least the identity, so each mean lies within its residual
                # of the uncut minimizer: the two lie within the sum of
                # their residuals and that gap, plus the rounding of
                # residuals and distances at this conditioning, which
                # KARCHER_FLOOR_TOL bounds.
                cut = barycenter(metric, d.downlinks, w.w)
                full = barycenter(metric, d.downlinks, uncut)
                at_cut = spd._KarcherIterate(cut.point.mat, d.downlinks.mats, uncut)
                farthest = np.sqrt(np.sum(at_cut.mu**2, axis=-1)).max()
                gap = np.abs(w.w - uncut).sum() * farthest
                assert abs(at_cut.residual - cut.residual) <= gap + k * self.EPS * farthest
                moved = distance(metric, cut.point, full.point)
                assert moved <= cut.residual + full.residual + gap + spd.KARCHER_FLOOR_TOL

    def test_cut_newton_step_within_bound(self):
        # The kernel/affine-invariant means of the sweep's K=500 queries, at
        # the log-Euclidean start where barycenter solves its first Newton
        # system: the cut drops each query's lightest entries.
        d, queries = paper_scale_case(500, range(4))
        for q in queries:
            w = select_bandwidth(d, q, Metric.AFFINE_INVARIANT)[1].w
            active = np.flatnonzero(w > 0.0)
            wa = w[active]
            start = spd._expm(np.tensordot(wa, d.downlinks.logs[active], axes=1))
            here = spd._KarcherIterate(start, d.downlinks.mats[active], wa)
            assert check_cut_newton_step(here, wa)

    def test_rounding_size_weight_perturbations_flip_no_nonconverged(self):
        # The sweep's K=500 kernel and mirror affine-invariant means, with
        # their weights perturbed by 1e-15 relative: each still converges.
        metric = Metric.AFFINE_INVARIANT
        d, queries = paper_scale_case(500, range(4))
        for q in queries:
            for w in (select_bandwidth(d, q, metric)[1].w, mirror_weights(d, q, metric).w):
                assert barycenter(metric, d.downlinks, w).converged
                for seed in range(5):
                    noise = np.random.default_rng(seed).standard_normal(len(d))
                    perturbed = w * (1.0 + 1e-15 * noise)
                    result = barycenter(metric, d.downlinks, perturbed / perturbed.sum())
                    assert result.converged

    def test_forced_stall_flags(self, monkeypatch):
        # Every Newton step forced to zero, so no step can move the iterate:
        # the line search stalls far above the rounding floor, and the
        # estimate is flagged, not stopped as converged.
        d, (q,) = paper_scale_case(500, [0])
        monkeypatch.setattr(spd, "_conjugate_gradient", lambda apply, b: np.zeros_like(b))
        est = estimate_downlink(d, q, Scheme.mirror(), Metric.AFFINE_INVARIANT)
        assert FLAG_KARCHER_NONCONVERGED in est.flags
        result = barycenter(Metric.AFFINE_INVARIANT, d.downlinks, est.weights.w)
        assert not result.converged and result.iterations == 1
        assert result.residual >= spd.KARCHER_FLOOR_TOL

    def test_stalled_line_search_ends_before_the_cap(self):
        # paper_scale.cfg K=300, trial 190: its kernel/affine-invariant
        # weights, perturbed by 1e-15 relative, give Karcher means whose
        # residual stalls just above KARCHER_FLOOR_TOL, where no step
        # halves it.  The line search ends once the step can no longer move
        # the iterate; it used to halve the step until the iteration cap.
        d, (q,) = paper_scale_case(300, [190])
        _, w, _ = select_bandwidth(d, q, Metric.AFFINE_INVARIANT)
        for seed in range(30):
            noise = np.random.default_rng(seed).standard_normal(len(d))
            perturbed = w.w * (1.0 + 1e-15 * noise)
            result = barycenter(Metric.AFFINE_INVARIANT, d.downlinks, perturbed / perturbed.sum())
            assert result.iterations < spd.KARCHER_MAX_ITER
            assert result.converged == (result.residual < spd.KARCHER_FLOOR_TOL)


# ---------------------------------------------------------------------------
# The fitted dictionary: stacked paths are bitwise the per-entry ones

# One entry, a few entries, and many.
FITTED_SIZES = [1, 10, 70]
SCHEMES = [Scheme.nearest_neighbor(), Scheme.mirror(), Scheme.kernel()]


# The stacked functions as they are before any test replaces them: the
# per-entry paths below call them on one row at a time.
REAL_NORMS = spd._norms
REAL_AI_DISTANCES = spd._ai_distances
REAL_TANGENTS = spd._QueryGeometry.tangents


def per_entry_norms(a):
    return np.concatenate([REAL_NORMS(a[j : j + 1]) for j in range(len(a))])


def per_entry_ai_distances(isq, mats):
    return np.concatenate([REAL_AI_DISTANCES(isq, mats[j : j + 1]) for j in range(len(mats))])


def per_entry_tangents(geometry, metric, idx=None):
    """:meth:`spd._QueryGeometry.tangents` from whitened_log_map's steps once
    per entry: the real tangents of a fresh one-point geometry, each
    decomposing the query afresh."""
    points = geometry.points
    idx = range(len(points)) if idx is None else idx
    return np.stack([
        REAL_TANGENTS(spd._QueryGeometry(spd.SPDStack._of(points[int(i)]), geometry.query),
                      metric, np.array([0]))[0]
        for i in idx
    ])


def same_estimate(a, b) -> bool:
    return (
        np.array_equal(a.covariance.mat, b.covariance.mat)
        and np.array_equal(a.weights.w, b.weights.w)
        and a.flags == b.flags
    )


class TestFittedDictionary:
    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("k", FITTED_SIZES)
    def test_distances_equal_per_entry(self, metric, k):
        # K one-row calls of distance give bitwise the one K-row call, and
        # the distances the nearest-entry search computes for the entries
        # it returns.
        rng = np.random.default_rng(40 + k)
        d = make_dictionary(rng, k)
        q = random_spd(rng, 3)
        expected = np.array([distance(metric, q, ul) for ul in d.uplinks])
        assert np.array_equal(distances(metric, d.uplinks, q), expected)
        for n in sorted({1, min(d.uplinks.dim**2, k), k}):
            idx, near = nearest(metric, d.uplinks, q, n)
            assert np.array_equal(idx, np.argsort(expected, kind="stable")[:n])
            assert np.array_equal(near, expected[idx])

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("k", FITTED_SIZES)
    def test_estimates_equal_per_entry_path(self, metric, k, monkeypatch):
        # Distances (those the nearest-entry search of nearest neighbor and
        # mirror takes, its affine-invariant step included) computed one row
        # at a time, and the tangents of the query's geometry (whose norms
        # are the flat metrics' and the kernel's distances) recomputed entry
        # by entry with whitened_log_map, must give the same weights, flags
        # and estimates, bit for bit.
        rng = np.random.default_rng(50 + k)
        d = make_dictionary(rng, k)
        q = random_spd(rng, 3)
        stacked = [estimate_downlink(d, q, s, metric) for s in SCHEMES]
        monkeypatch.setattr(spd, "_norms", per_entry_norms)
        monkeypatch.setattr(spd, "_ai_distances", per_entry_ai_distances)
        monkeypatch.setattr(spd._QueryGeometry, "tangents", per_entry_tangents)
        fresh = make_dictionary(np.random.default_rng(50 + k), k)
        for scheme, est in zip(SCHEMES, stacked):
            assert same_estimate(est, estimate_downlink(fresh, q, scheme, metric))

    @pytest.mark.parametrize("metric", METRICS)
    @pytest.mark.parametrize("k", FITTED_SIZES)
    def test_barycenter_of_downlinks_equals_list(self, metric, k):
        rng = np.random.default_rng(60 + k)
        d = make_dictionary(rng, k)
        w = rng.uniform(0.1, 1.0, size=k)  # full support
        w /= w.sum()
        fitted = barycenter(metric, d.downlinks, w)
        listed = barycenter(metric, list(d.downlinks), w)
        assert np.array_equal(fitted.point.mat, listed.point.mat)
        assert (fitted.converged, fitted.iterations, fitted.residual) == (
            listed.converged, listed.iterations, listed.residual,
        )
        if metric is Metric.AFFINE_INVARIANT and k > 1:
            assert fitted.converged and fitted.iterations > 0

    def test_pickled_fitted_dictionary_gives_identical_estimates(self):
        rng = np.random.default_rng(70)
        d = make_dictionary(rng, 70)
        queries = [random_spd(rng, 3) for _ in range(2)]
        cases = [(s, m) for s in SCHEMES for m in METRICS]
        # every estimator has run, so all three stacks are filled
        before = [estimate_downlink(d, queries[0], s, m) for s, m in cases]
        clone = pickle.loads(pickle.dumps(d))
        for q in queries:
            for s, m in cases:
                assert same_estimate(
                    estimate_downlink(d, q, s, m), estimate_downlink(clone, q, s, m)
                )
        assert all(
            same_estimate(b, estimate_downlink(clone, queries[0], s, m))
            for b, (s, m) in zip(before, cases)
        )


class TestDictionaryWorkIsNotRedone:
    @staticmethod
    def count_eigh(monkeypatch) -> list[int]:
        count = [0]
        for name in ("eigh", "eigvalsh"):
            real = getattr(np.linalg, name)

            def counted(*args, _real=real, **kwargs):
                count[0] += 1
                return _real(*args, **kwargs)

            monkeypatch.setattr(np.linalg, name, counted)
        return count

    def test_query_cost_does_not_grow_with_k(self, monkeypatch):
        rng = np.random.default_rng(80)
        pairs = [(random_spd(rng, 3), random_spd(rng, 3)) for _ in range(40)]
        queries = [random_spd(rng, 3) for _ in range(2)]
        count = self.count_eigh(monkeypatch)
        per_k = []
        for k in (8, 40):
            d = Dictionary(pairs[:k])
            assert count[0] == 0  # nothing is fitted at construction
            for scheme in (Scheme.nearest_neighbor(), Scheme.kernel()):
                estimate_downlink(d, queries[0], scheme, Metric.LOG_EUCLIDEAN)
            count[0] = 0
            for scheme in (Scheme.nearest_neighbor(), Scheme.kernel()):
                estimate_downlink(d, queries[1], scheme, Metric.LOG_EUCLIDEAN)
            per_k.append(count[0])
            count[0] = 0
        # the query's own logs and the outputs' gates, not a sweep over K
        assert per_k[0] == per_k[1]


# ---------------------------------------------------------------------------
# One geometry per query, shared by the schemes

WEIGHT_FUNCTIONS = {
    SchemeKind.NEAREST_NEIGHBOR: nearest_neighbor_weights,
    SchemeKind.MIRROR: mirror_weights,
    SchemeKind.KERNEL: select_bandwidth,
}


def weight_bits(scheme, metric, d, q):
    """The scheme's weight function on ``(d, q)``, as comparable bits (the
    kernel's bandwidth and flags included)."""
    result = WEIGHT_FUNCTIONS[scheme.kind](d, q, metric)
    if scheme.kind is SchemeKind.KERNEL:
        sigma, w, flags = result
        return sigma.hex(), w.w.tobytes(), flags
    return result.w.tobytes()


def fresh_copy(q: SPDMatrix) -> SPDMatrix:
    """Another query object with the same array, so no geometry matches it."""
    return copy.copy(q)


def count_stacked_rows(monkeypatch) -> dict[str, list[int]]:
    """Rows of every stacked eigh/eigvalsh call, and 0 for a lone matrix."""
    rows = {"eigh": [], "eigvalsh": []}
    for name in rows:
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, _rows=rows[name], **kwargs):
            _rows.append(a.shape[0] if np.ndim(a) == 3 else 0)
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return rows


def nested_dictionaries(d: Dictionary, sizes) -> list[Dictionary]:
    """The dictionaries of ``d``'s first K pairs for each K of ``sizes``,
    ascending, each extending the one before, as the sweep builds them."""
    nested, start = [], 0
    for k in sizes:
        pairs = zip(d.uplinks[start:k], d.downlinks[start:k])
        nested.append(Dictionary(pairs, nested[-1] if nested else None))
        start = k
    return nested


class TestSharedGeometry:
    @pytest.mark.parametrize("config_name", ["desk_ula.cfg", "paper_scale.cfg"])
    def test_weights_do_not_depend_on_scheme_order(self, config_name, desk_ula_case):
        # Each weight function gives the same bits alone (on a query object
        # of its own) as after the config's other schemes on the same
        # (dictionary, query), in the config's order and in reverse.
        config = parse_config(CONFIG_DIR / config_name)
        if config_name == "desk_ula.cfg":
            d, queries = desk_ula_case[0], [desk_ula_case[1]]
        else:
            d, queries = paper_scale_case(500, range(2))
        schemes = list(config.schemes)
        for q in queries:
            alone = {case: weight_bits(*case, d, fresh_copy(q)) for case in schemes}
            for order in (schemes, schemes[::-1]):
                shared = fresh_copy(q)
                for case in order:
                    assert weight_bits(*case, d, shared) == alone[case], case

    def test_geometry_never_serves_another_query_or_dictionary(self):
        rng = np.random.default_rng(90)
        dictionaries = [make_dictionary(rng, 12) for _ in range(2)]
        values = [random_spd(rng, 3).mat for _ in range(2)]
        cases = [(s, m) for s in SCHEMES for m in METRICS]
        # Every (dictionary, value) answered on a query object of its own,
        # all held at once, so no two share an object or an id().
        held = {(i, j): SPDMatrix(values[j]) for i in range(2) for j in range(2)}
        expected = {
            (i, j): [weight_bits(*case, dictionaries[i], q) for case in cases]
            for (i, j), q in held.items()
        }
        assert expected[0, 0] != expected[0, 1] and expected[0, 0] != expected[1, 0]
        del held

        queries = [SPDMatrix(v) for v in values]
        for c, case in enumerate(cases):
            for j, q in enumerate(queries):  # two queries, interleaved
                assert weight_bits(*case, dictionaries[0], q) == expected[0, j][c]
            for i, d in enumerate(dictionaries):  # one query, two dictionaries
                assert weight_bits(*case, d, queries[0]) == expected[i, 0][c]
        del queries

        # Queries re-created in a loop until a dead query's id() has come
        # back twice (a few iterations; more under a debug allocator).
        seen, recurred = set(), 0
        for r in range(400):
            q = SPDMatrix(values[r % 2])
            recurred += id(q) in seen
            seen.add(id(q))
            assert [weight_bits(*case, dictionaries[0], q) for case in cases] == expected[0, r % 2]
            del q
            if recurred == 2:
                break
        assert recurred == 2

    @pytest.mark.parametrize("config_name", ["desk_ula.cfg", "paper_scale.cfg"])
    def test_whitened_uplinks_are_decomposed_once(self, config_name, desk_ula_case, monkeypatch):
        # One affine-invariant query's nearest-neighbor, mirror and kernel
        # weights: one decomposition of the query, and each whitened uplink
        # decomposed (eigh, for mirror's and the kernel's tangents) and its
        # distance taken (eigvalsh, for the nearest-entry search) at most
        # once.
        if config_name == "desk_ula.cfg":
            d, q = desk_ula_case
        else:
            d, (q,) = paper_scale_case(500, [0])
        q = fresh_copy(q)
        rows = count_stacked_rows(monkeypatch)
        for scheme in SCHEMES:
            WEIGHT_FUNCTIONS[scheme.kind](d, q, Metric.AFFINE_INVARIANT)
        assert rows["eigh"].count(0) == 1 and rows["eigvalsh"].count(0) == 0
        assert sum(rows["eigh"]) == len(d)  # the kernel reads every tangent
        assert sum(rows["eigvalsh"]) <= len(d)

    def test_nested_sizes_start_from_the_smaller_geometry(self, monkeypatch):
        # One paper_scale query answered at K = 50, 100, 150, 300 and 500 on
        # nested dictionaries, as a sweep trial answers it, on a query object
        # of its own at each K: every scheme and metric gets the bits a
        # fresh geometry gives at that K alone, and each whitened uplink is
        # decomposed once over the whole chain.
        config = parse_config(CONFIG_DIR / "paper_scale.cfg")
        d, (q,) = paper_scale_case(500, [0])
        sizes = config.dict_sizes
        schemes = list(config.schemes)
        alone = {}
        for k in sizes:
            own = Dictionary(zip(d.uplinks[:k], d.downlinks[:k]))
            for case in schemes:
                monkeypatch.setattr(interp, "_LAST_GEOMETRY", None)
                alone[k, case] = weight_bits(*case, own, fresh_copy(q))
        chain = nested_dictionaries(d, sizes)
        chain[-1].uplinks.logs  # fitted before any query, as the sweep fits it
        rows = count_stacked_rows(monkeypatch)
        for nested in chain:
            q_k = fresh_copy(q)
            for case in schemes:
                assert weight_bits(*case, nested, q_k) == alone[len(nested), case], case
        assert rows["eigh"].count(0) == 1  # the query, decomposed at K = 50
        assert sum(rows["eigh"]) == 500
        assert sum(rows["eigvalsh"]) <= 500

    @pytest.mark.parametrize(
        "case",
        [
            "same dictionary, equal-bits copy",
            "same size, outside the prefix chain",
            "smaller dictionary",
            "query differing in one last bit",
            "another query in between",
        ],
    )
    def test_no_other_geometry_is_a_start(self, case, monkeypatch):
        # A geometry starts from the last one only for a dictionary that
        # extends the last one's and a query of the same bits.  Each case
        # answers its first (dictionary, query) pairs with every scheme, then
        # the last pair, which must get the bits of a fresh geometry, and
        # decompose the query and compute every whitened row itself.
        rng = np.random.default_rng(91)
        pairs = [(random_spd(rng, 3), random_spd(rng, 3)) for _ in range(12)]
        d4, d8, d12 = nested_dictionaries(Dictionary(pairs), (4, 8, 12))
        twin8 = Dictionary(pairs[:4] + pairs[8:])  # d4's pairs first, no prefix
        q, p = random_spd(rng, 3), random_spd(rng, 3)
        last_bit = q.mat.copy()
        last_bit[-1, -1] = np.nextafter(last_bit[-1, -1].real, np.inf)
        *first, (d, query) = {
            "same dictionary, equal-bits copy": [(d8, q), (d8, fresh_copy(q))],
            "same size, outside the prefix chain": [(d4, q), (twin8, fresh_copy(q))],
            "smaller dictionary": [(d8, q), (d4, fresh_copy(q))],
            "query differing in one last bit": [(d4, q), (d8, SPDMatrix(last_bit))],
            "another query in between": [(d4, q), (d8, p), (d12, fresh_copy(q))],
        }[case]
        assert d12.uplinks._extends(d4.uplinks)
        answers = [(s, m) for s in SCHEMES for m in METRICS]
        fresh = [weight_bits(*a, d, fresh_copy(query)) for a in answers]
        for d_first, q_first in first:
            for a in answers:
                weight_bits(*a, d_first, q_first)
        with monkeypatch.context() as m:
            rows = count_stacked_rows(m)
            weight_bits(Scheme.kernel(), Metric.AFFINE_INVARIANT, d, query)
        assert rows["eigh"] == [0, len(d)]
        assert [weight_bits(*a, d, query) for a in answers] == fresh
