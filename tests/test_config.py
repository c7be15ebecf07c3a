"""Scenario config parsing: strict keys, typed values, defaults."""

from dataclasses import fields
from pathlib import Path

import pytest

from covcast.baselines import BaselineKind
from covcast.channel import ArrayKind
from covcast.config import (
    ConfigError,
    ScenarioConfig,
    format_config,
    parse_config,
    parse_config_text,
)
from covcast.interp import Scheme
from covcast.spd import Metric

CONFIGS = sorted((Path(__file__).resolve().parents[1] / "configs").glob("*.cfg"))

MINIMAL = """
# toy scenario
n_antennas = 4
dict_sizes = 3, 5
n_queries = 2
n_scatterers = 10
n_realizations = 16
schemes = nearest_neighbor:euclidean, kernel:log_euclidean
baselines = no_conversion
master_seed = 42
"""


class TestParsing:
    def test_minimal(self):
        cfg = parse_config_text(MINIMAL)
        assert cfg.n_antennas == 4
        assert cfg.dict_sizes == (3, 5)
        assert cfg.master_seed == 42
        assert cfg.array_kind is ArrayKind.ULA
        assert len(cfg.schemes) == 2
        scheme, metric = cfg.schemes[1]
        assert scheme == Scheme.kernel()
        assert metric is Metric.LOG_EUCLIDEAN
        assert cfg.baselines == (BaselineKind.NO_CONVERSION,)

    def test_defaults(self):
        cfg = ScenarioConfig()
        assert cfg.f_dl == 1.8e9 and cfg.f_ul == 2.8e9
        assert cfg.d_min == 100.0 and cfg.d_max == 900.0
        assert cfg.n_scatterers == 1000 and cfg.n_realizations == 1000
        assert len(cfg.schemes) == 9  # 3 schemes x 3 metrics
        # derived geometry defaults: half downlink wavelength, matching aperture
        lam_dl = 299_792_458.0 / 1.8e9
        assert cfg.effective_ula_spacing == pytest.approx(lam_dl / 2)
        assert cfg.effective_square_side == pytest.approx(9 * lam_dl / 2)

    def test_fixed_bandwidth_scheme(self):
        # the bandwidth is always searched per query; there is no kernel@<sigma>
        with pytest.raises(ConfigError, match="unknown scheme 'kernel@0.25'"):
            parse_config_text("schemes = kernel@0.25:affine_invariant")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config_text("n_antennas = 4\nbogus = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config_text("n_antennas = 4\nn_antennas = 5\n")

    def test_repeated_dict_size_rejected(self):
        with pytest.raises(ConfigError, match="dict_sizes lists 5 more than once"):
            parse_config_text("dict_sizes = 5, 3, 5\n")

    def test_repeated_scheme_rejected(self):
        with pytest.raises(
            ConfigError, match="schemes lists kernel:euclidean more than once"
        ):
            parse_config_text(
                "schemes = kernel:euclidean, kernel:log_euclidean, kernel:euclidean\n"
            )

    def test_repeated_baseline_rejected(self):
        with pytest.raises(ConfigError, match="baselines lists spline more than once"):
            parse_config_text("baselines = spline, no_conversion, spline\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("n_antennas = four\n")
        with pytest.raises(ConfigError):
            parse_config_text("schemes = kernel\n")  # missing metric
        with pytest.raises(ConfigError):
            parse_config_text("schemes = kernel:mahalanobis\n")
        with pytest.raises(ConfigError):
            parse_config_text("baselines = oracle\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_text("n_antennas 4\n")

    def test_invariants_enforced(self):
        with pytest.raises(ConfigError):
            parse_config_text("d_min = 900\nd_max = 100\n")
        with pytest.raises(ConfigError):
            parse_config_text("n_antennas = 8\nn_realizations = 4\n")
        with pytest.raises(ConfigError):
            parse_config_text("dict_sizes = 0\n")
        with pytest.raises(ConfigError):
            # spline needs f_dl <= f_ul
            parse_config_text("f_dl = 2.8e9\nf_ul = 1.8e9\nbaselines = spline\n")
        with pytest.raises(ConfigError):
            parse_config_text("schemes =\nbaselines =\n")

    def test_zero_noise_rejected(self):
        # fewer scatterers than antennas: without a noise floor the model
        # covariance is singular and the dictionary build would abort
        with pytest.raises(ConfigError, match="noise_power must be positive"):
            parse_config_text("n_antennas = 10\nn_scatterers = 3\nnoise_power = 0\n")
        with pytest.raises(ConfigError, match="noise_power must be positive"):
            ScenarioConfig(noise_power=-1e-9)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("noise_power = inf", "noise_power must be finite"),
            ("rx_power = inf", "rx_power must be finite"),
            ("f_ul = inf", "f_ul must be finite"),
            ("d_max = inf", "d_max must be finite"),
            ("r_max = inf", "r_max must be finite"),
            ("ula_spacing = nan", "ula_spacing must be finite"),
            ("ula_spacing = -1", "ula_spacing must be positive"),
            ("ula_spacing = 1e-9", "ula_spacing must exceed 1e-06 m"),
            ("array_kind = random_square\nsquare_side = 0", "square_side must be positive"),
            ("array_kind = random_square\nsquare_side = 1e-9", "square_side must exceed 1e-06 m"),
        ],
    )
    def test_unrunnable_values_rejected(self, text, message):
        # each of these parsed, and the run then crashed in the dictionary
        # build or, for the tiny square, redrew its antennas forever
        with pytest.raises(ConfigError, match=message):
            parse_config_text(text)

    def test_spline_free_config_allows_inverted_frequencies(self):
        cfg = parse_config_text(
            "f_dl = 2.8e9\nf_ul = 1.8e9\nbaselines = no_conversion\n"
        )
        assert cfg.f_dl > cfg.f_ul

    def test_file_round_trip(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text(MINIMAL)
        assert parse_config(path) == parse_config_text(MINIMAL)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            parse_config(tmp_path / "nope.cfg")

    def test_format_round_trip(self):
        # format_config resolves derived defaults (effective values), so the
        # round trip is a fixed point rather than dataclass equality
        cfg = parse_config_text(MINIMAL)
        echoed = format_config(cfg)
        reparsed = parse_config_text(echoed)
        assert format_config(reparsed) == echoed
        assert reparsed.effective_ula_spacing == cfg.effective_ula_spacing
        assert reparsed.dict_sizes == cfg.dict_sizes
        assert reparsed.schemes == cfg.schemes


def test_committed_configs_are_found():
    assert {p.name for p in CONFIGS} >= {"desk_random.cfg", "desk_ula.cfg", "paper_scale.cfg"}


@pytest.mark.parametrize("path", CONFIGS, ids=lambda p: p.name)
def test_committed_config_round_trip(path):
    # every committed config parses, and format_config echoes it as a fixed
    # point that keeps each set field and each derived default
    cfg = parse_config(path)
    echoed = format_config(cfg)
    reparsed = parse_config_text(echoed)
    assert format_config(reparsed) == echoed
    for field in fields(ScenarioConfig):
        value = getattr(cfg, field.name)
        if value is None:
            name = f"effective_{field.name}"
            assert getattr(reparsed, name) == getattr(cfg, name), name
        else:
            assert getattr(reparsed, field.name) == value, field.name
