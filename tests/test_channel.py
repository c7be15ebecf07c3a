"""Array geometries, scatterer fields, the ring covariance model, and
channel/sample-covariance statistics."""

from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from covcast import harness
from covcast.channel import (
    ArrayGeometry,
    ArrayKind,
    PropagationParams,
    ScattererField,
    channel_realizations,
    draw_scatterers,
    make_random_square,
    make_ula,
    model_covariance,
    place_ue,
    sample_covariance,
)
from covcast.config import parse_config
from covcast.spd import NotPositiveDefiniteError, SPDMatrix, _sqrtm
from helpers import frob, random_spd

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"


class TestArrayGeometry:
    def test_ula_positions(self):
        g = make_ula(2, 0.0833)
        assert np.allclose(g.positions, [[0.0, 0.0], [0.0833, 0.0]])
        assert g.kind is ArrayKind.ULA

    def test_ula_single_antenna(self):
        g = make_ula(1, 0.5)
        assert g.n_antennas == 1
        assert np.array_equal(g.positions, [[0.0, 0.0]])

    def test_ula_pairwise_spacing(self):
        s = 0.21
        g = make_ula(10, s)
        for i in range(10):
            for j in range(10):
                d = np.linalg.norm(g.positions[i] - g.positions[j])
                assert d == pytest.approx(abs(i - j) * s, rel=1e-12)

    def test_rejects_duplicate_positions(self):
        with pytest.raises(ValueError):
            ArrayGeometry(np.zeros((2, 2)), ArrayKind.ULA)

    def test_random_square_reproducible(self):
        a = make_random_square(5, 2.0, np.random.default_rng(99))
        b = make_random_square(5, 2.0, np.random.default_rng(99))
        assert np.array_equal(a.positions, b.positions)

    def test_random_square_inside_square(self):
        g = make_random_square(50, 3.0, np.random.default_rng(1))
        assert np.all(g.positions >= 0.0) and np.all(g.positions <= 3.0)

    def test_random_square_too_small_raises(self):
        # every draw on a 1e-9 m square puts the two antennas within 1e-6 m:
        # the redraws stop after the docstring's 100 instead of looping
        rng = np.random.default_rng(3)
        with pytest.raises(ValueError, match="100 draws on a 1e-09 m square"):
            make_random_square(2, 1e-9, rng)
        ref = np.random.default_rng(3)
        for _ in range(100):
            ref.uniform(0.0, 1e-9, size=(2, 2))
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_random_square_coordinate_mean(self):
        side = 2.0
        rng = np.random.default_rng(2)
        coords = np.concatenate(
            [make_random_square(100, side, rng).positions.ravel() for _ in range(100)]
        )
        # 2e4 i.i.d. Uniform[0, side] samples
        se = side / np.sqrt(12.0) / np.sqrt(coords.size)
        assert abs(coords.mean() - side / 2.0) < 3.0 * se

    def test_centroid(self):
        g = make_ula(3, 1.0)
        assert np.allclose(g.centroid, [1.0, 0.0])


class TestPlaceUe:
    def test_degenerate_interval_pins_distance(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            p = place_ue(rng, 500.0, 500.0)
            assert np.linalg.norm(p) == pytest.approx(500.0, rel=1e-12)

    def test_reproducible(self):
        a = place_ue(np.random.default_rng(7), 100.0, 900.0)
        b = place_ue(np.random.default_rng(7), 100.0, 900.0)
        assert np.array_equal(a, b)

    def test_reference_offset(self):
        ref = np.array([10.0, -4.0])
        p = place_ue(np.random.default_rng(8), 200.0, 200.0, reference=ref)
        assert np.linalg.norm(p - ref) == pytest.approx(200.0, rel=1e-12)

    def test_distance_distribution_uniform(self):
        rng = np.random.default_rng(4)
        d = np.array(
            [np.linalg.norm(place_ue(rng, 100.0, 900.0)) for _ in range(100_000)]
        )
        res = stats.kstest(d, stats.uniform(loc=100.0, scale=800.0).cdf)
        assert res.pvalue > 0.01

    def test_rejects_bad_interval(self):
        rng = np.random.default_rng(5)
        with pytest.raises(ValueError):
            place_ue(rng, 0.0, 100.0)
        with pytest.raises(ValueError):
            place_ue(rng, 500.0, 100.0)


class TestDrawScatterers:
    def test_points_within_radius(self):
        rng = np.random.default_rng(6)
        center = np.array([600.0, 0.0])
        field = draw_scatterers(rng, center, 30.0, 1000)
        off = np.linalg.norm(field.scatterers - center, axis=1)
        assert off.max() <= 30.0
        assert field.n_scatterers == 1000
        assert field.distance_to_array == pytest.approx(600.0)

    def test_mean_squared_radius(self):
        # area-uniform disk: E[rho^2] = r^2 / 2
        rng = np.random.default_rng(7)
        r = 50.0
        field = draw_scatterers(rng, (300.0, 400.0), r, 100_000)
        rho2 = ((field.scatterers - field.ue_position) ** 2).sum(axis=1)
        se = rho2.std(ddof=1) / np.sqrt(rho2.size)
        assert abs(rho2.mean() - r**2 / 2.0) < 3.0 * se

    def test_reproducible(self):
        a = draw_scatterers(np.random.default_rng(11), (500.0, 0.0), 10.0, 100)
        b = draw_scatterers(np.random.default_rng(11), (500.0, 0.0), 10.0, 100)
        assert np.array_equal(a.scatterers, b.scatterers)

    def test_field_validation(self):
        with pytest.raises(ValueError):
            ScattererField(
                np.zeros(2), 1.0, np.array([[5.0, 0.0]]), 100.0
            )  # scatterer outside radius
        with pytest.raises(ValueError):
            draw_scatterers(np.random.default_rng(0), (0.0, 0.0), 1.0, 3)  # D = 0


class TestModelCovariance:
    def _setup(self, seed=12, n=4, n_s=50, wavelength=0.166):
        rng = np.random.default_rng(seed)
        geom = make_ula(n, 0.0833)
        ue = place_ue(rng, 200.0, 800.0, reference=geom.centroid)
        field = draw_scatterers(rng, ue, 40.0, n_s, reference=geom.centroid)
        params = PropagationParams(wavelength, rx_power=1.0, noise_power=1e-9)
        return geom, field, params

    def test_diagonal_is_exact(self):
        geom, field, params = self._setup()
        r = model_covariance(geom, field, params)
        expected = params.rx_power / field.distance_to_array**2 + params.noise_power
        assert np.array_equal(np.diag(r.mat), np.full(4, expected + 0j))

    def test_single_scatterer_rank_one_structure(self):
        geom, field, params = self._setup(n_s=1)
        r = model_covariance(geom, field, params)
        p_over_d2 = params.rx_power / field.distance_to_array**2
        off = r.mat - params.noise_power * np.eye(4)
        # all entries of the scatterer term have modulus P / D^2
        assert np.allclose(np.abs(off), p_over_d2, rtol=1e-12)
        assert np.linalg.matrix_rank(off, tol=1e-12 * p_over_d2) == 1

    def test_matches_scalar_double_loop(self):
        geom, field, params = self._setup()
        r = model_covariance(geom, field, params)

        n = geom.n_antennas
        oracle = np.zeros((n, n), dtype=complex)
        for i in range(n):
            for j in range(n):
                acc = 0.0 + 0.0j
                for l in range(field.n_scatterers):
                    d_i = np.hypot(*(field.scatterers[l] - geom.positions[i]))
                    d_j = np.hypot(*(field.scatterers[l] - geom.positions[j]))
                    acc += np.exp(2j * np.pi / params.wavelength * (d_i - d_j))
                oracle[i, j] = (
                    params.rx_power
                    / (field.distance_to_array**2 * field.n_scatterers)
                    * acc
                )
                if i == j:
                    oracle[i, j] += params.noise_power
        assert np.abs(r.mat - oracle).max() < 1e-12

    def test_hermitian_exact(self):
        geom, field, params = self._setup(seed=13)
        r = model_covariance(geom, field, params)
        assert np.array_equal(r.mat, r.mat.conj().T)

    def test_trace_identity(self):
        geom, field, params = self._setup(seed=14)
        r = model_covariance(geom, field, params)
        n = geom.n_antennas
        expected = n * (params.rx_power / field.distance_to_array**2 + params.noise_power)
        assert float(np.real(np.trace(r.mat))) == pytest.approx(expected, rel=1e-12)

    def test_translation_invariance(self):
        geom, field, params = self._setup(seed=15)
        r0 = model_covariance(geom, field, params)
        shift = np.array([123.4, -56.7])
        geom_shifted = ArrayGeometry(geom.positions + shift, geom.kind)
        field_shifted = ScattererField(
            field.ue_position + shift,
            field.radius,
            field.scatterers + shift,
            field.distance_to_array,
        )
        r1 = model_covariance(geom_shifted, field_shifted, params)
        assert np.abs(r0.mat - r1.mat).max() < 1e-10 * np.abs(r0.mat).max()

    def test_zero_noise_can_fail_pd(self):
        # with fewer scatterers than antennas the scatterer term is singular
        geom, field, params = self._setup(n_s=1)
        params0 = PropagationParams(params.wavelength, params.rx_power, 0.0)
        with pytest.raises(NotPositiveDefiniteError):
            model_covariance(geom, field, params0)


class TestChannelRealizations:
    def test_identity_covariance_unit_variance(self):
        rng = np.random.default_rng(16)
        h = channel_realizations(SPDMatrix(np.eye(3)), 100_000, rng)
        var = np.mean(np.abs(h) ** 2, axis=0)
        # |h_i|^2 is Exp(1): sd = 1, so SE = 1/sqrt(L)
        assert np.all(np.abs(var - 1.0) < 3.0 / np.sqrt(h.shape[0]))

    def test_diagonal_covariance_variances(self):
        rng = np.random.default_rng(17)
        r = SPDMatrix(np.diag([4.0, 1.0]))
        h = channel_realizations(r, 100_000, rng)
        var = np.mean(np.abs(h) ** 2, axis=0)
        se = np.array([4.0, 1.0]) / np.sqrt(h.shape[0])
        assert np.all(np.abs(var - [4.0, 1.0]) < 3.0 * se)

    def test_bit_reproducible(self):
        rng = np.random.default_rng(20)
        r = random_spd(rng, 3)
        a = channel_realizations(r, 10, np.random.default_rng(5))
        b = channel_realizations(r, 10, np.random.default_rng(5))
        assert np.array_equal(a, b)


class TestSampleCovariance:
    def test_scalar_case(self):
        r = sample_covariance(np.array([[2.0 + 0.0j]]))
        assert np.array_equal(r.mat, np.array([[4.0 + 0.0j]]))

    def test_rank_deficient_rejected(self):
        h = np.tile(np.array([1.0 + 1.0j, 2.0 - 1.0j]), (2, 1))  # L = N = 2, rank 1
        with pytest.raises(NotPositiveDefiniteError):
            sample_covariance(h)

    def test_consistency_rate(self):
        rng = np.random.default_rng(18)
        r = random_spd(rng, 6, eig_range=(0.5, 4.0))

        def rel_error(n_draws, reps=8):
            errs = []
            for _ in range(reps):
                scm = sample_covariance(channel_realizations(r, n_draws, rng))
                errs.append(frob(scm.mat - r.mat) / frob(r.mat))
            return np.mean(errs)

        e2, e4 = rel_error(100), rel_error(10_000)
        # error ~ 1/sqrt(L): two decades of L -> ratio 10, within factor 2
        assert 5.0 < e2 / e4 < 20.0

    def test_error_shrinks_with_draws(self):
        rng = np.random.default_rng(19)
        r = random_spd(rng, 4)
        errs = []
        for n_draws in (100, 1000, 10_000):
            scm = sample_covariance(channel_realizations(r, n_draws, rng))
            errs.append(frob(scm.mat - r.mat))
        assert errs[0] > errs[1] > errs[2]


def textbook_model_covariance(geometry, field, params):
    diff = field.scatterers[:, None, :] - geometry.positions[None, :, :]
    dist = np.sqrt((diff**2).sum(axis=-1))
    phase = np.exp(2j * np.pi / params.wavelength * dist)
    r = phase.T @ phase.conj()
    r = (r + r.conj().T) / 2
    r = params.rx_power / (field.distance_to_array**2 * field.n_scatterers) * r
    np.fill_diagonal(r, params.rx_power / field.distance_to_array**2 + params.noise_power)
    return SPDMatrix(r)


def textbook_channel_realizations(covariance, n_draws, rng):
    a = rng.standard_normal((n_draws, covariance.dim))
    b = rng.standard_normal((n_draws, covariance.dim))
    return (a + 1j * b) / np.sqrt(2) @ _sqrtm(covariance.mat).T


def textbook_sample_covariance(h):
    r = (h.T @ h.conj()) / h.shape[0]
    return SPDMatrix((r + r.conj().T) / 2)


def textbook_pair(config, geometry, rng):
    """``harness.build_pair`` from the textbook formulas above, draw for draw."""
    reference = geometry.centroid
    ue = place_ue(rng, config.d_min, config.d_max, reference=reference)
    radius = rng.uniform(config.r_min, config.r_max)
    field = draw_scatterers(rng, ue, radius, config.n_scatterers, reference=reference)
    model_ul, model_dl = (
        textbook_model_covariance(
            geometry, field, PropagationParams(wavelength, config.rx_power, config.noise_power)
        )
        for wavelength in (config.wavelength_ul, config.wavelength_dl)
    )
    sample_ul = textbook_sample_covariance(
        textbook_channel_realizations(model_ul, config.n_realizations, rng)
    )
    sample_dl = textbook_sample_covariance(
        textbook_channel_realizations(model_dl, config.n_realizations, rng)
    )
    return sample_ul, sample_dl, model_dl


class TestTextbookSynthesis:
    """Pair synthesis is bitwise the textbook formulas above, draw for draw."""

    @pytest.mark.parametrize("name", ["desk_ula.cfg", "desk_random.cfg", "paper_scale.cfg"])
    def test_build_pair_is_bitwise_textbook(self, name):
        config = parse_config(CONFIG_DIR / name)
        geometry = harness.make_geometry(config)
        textbook_rng = np.random.default_rng(7)
        textbook = [textbook_pair(config, geometry, textbook_rng) for _ in range(3)]

        rng = np.random.default_rng(7)
        pairs = [harness.build_pair(config, geometry, rng) for _ in range(3)]
        for pair, expected in zip(pairs, textbook):
            for got, want in zip(pair, expected):
                assert np.array_equal(got.mat, want.mat)
        assert rng.bit_generator.state == textbook_rng.bit_generator.state

        dictionary_rng = np.random.default_rng(7)
        dictionary = harness.build_dictionary(config, 3, dictionary_rng, geometry)
        for k, (sample_ul, sample_dl, _) in enumerate(textbook):
            assert np.array_equal(dictionary.uplinks[k].mat, sample_ul.mat)
            assert np.array_equal(dictionary.downlinks[k].mat, sample_dl.mat)
        assert dictionary_rng.bit_generator.state == textbook_rng.bit_generator.state

    def test_radius_gate_on_the_rim(self):
        ue, radius = np.array([600.0, 35.0]), 30.0
        theta = np.linspace(0.0, 2.0 * np.pi, 97)
        rim = np.stack([np.cos(theta), np.sin(theta)], axis=1)
        # round-off may put a rim point a few ulps outside; it is accepted
        ScattererField(ue, radius, ue + radius * rim, 600.0)
        for point in ue + radius * (1.0 + 2e-12) * rim:
            with pytest.raises(ValueError, match="exceeds radius"):
                ScattererField(ue, radius, point[None, :], 600.0)
