"""Scenario configuration for the benchmark harness.

A scenario is described by a flat ``key = value`` text file whose keys are
exactly the :class:`ScenarioConfig` field names; unknown keys are errors.
Lists are comma-separated.  Scheme entries take the form
``<scheme>:<metric>`` where scheme is one of ``nearest_neighbor``,
``mirror``, ``kernel`` (per-query bandwidth search) or ``kernel@<sigma>``
(fixed bandwidth), and metric is one of ``euclidean``, ``log_euclidean``,
``affine_invariant``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import get_type_hints

from .baselines import BaselineKind
from .channel import SPEED_OF_LIGHT, ArrayKind
from .interp import Scheme, SchemeKind
from .spd import Metric

__all__ = [
    "ConfigError",
    "ScenarioConfig",
    "format_config",
    "parse_config",
    "parse_config_text",
]


class ConfigError(ValueError):
    """Malformed scenario configuration."""


@dataclass(frozen=True)
class ScenarioConfig:
    """Full description of one simulation experiment.

    Distances are meters, frequencies Hz, powers linear.  ``ula_spacing``
    and ``square_side`` default (when None) to half the downlink wavelength
    and to the matching ULA aperture ``(N-1) * lambda_dl / 2`` respectively,
    so both geometries have comparable extents.
    """

    n_antennas: int = 10
    array_kind: ArrayKind = ArrayKind.ULA
    ula_spacing: float | None = None
    square_side: float | None = None
    f_dl: float = 1.8e9
    f_ul: float = 2.8e9
    d_min: float = 100.0
    d_max: float = 900.0
    r_min: float = 1.0
    r_max: float = 100.0
    n_scatterers: int = 1000
    n_realizations: int = 1000
    dict_sizes: tuple[int, ...] = (50,)
    n_queries: int = 200
    rx_power: float = 1.0
    noise_power: float = 1e-9
    schemes: tuple[tuple[Scheme, Metric], ...] = field(
        default_factory=lambda: tuple(
            (Scheme(kind), metric) for kind in SchemeKind for metric in Metric
        )
    )
    baselines: tuple[BaselineKind, ...] = (
        BaselineKind.NO_CONVERSION,
        BaselineKind.SPLINE,
        BaselineKind.PERFECT_FEEDBACK,
    )
    master_seed: int = 0
    n_dictionary_redraws: int = 1

    def __post_init__(self) -> None:
        if self.n_antennas < 1:
            raise ConfigError("n_antennas must be >= 1")
        if not (self.f_dl > 0.0 and self.f_ul > 0.0):
            raise ConfigError("frequencies must be positive")
        if BaselineKind.SPLINE in self.baselines and self.f_dl > self.f_ul:
            raise ConfigError("spline baseline requires f_dl <= f_ul")
        if not 0.0 < self.d_min < self.d_max:
            raise ConfigError("require 0 < d_min < d_max")
        if not 0.0 < self.r_min <= self.r_max:
            raise ConfigError("require 0 < r_min <= r_max")
        if self.n_scatterers < 1:
            raise ConfigError("n_scatterers must be >= 1")
        if self.n_realizations < self.n_antennas:
            raise ConfigError("n_realizations must be >= n_antennas")
        if not self.dict_sizes or any(k < 1 for k in self.dict_sizes):
            raise ConfigError("dict_sizes must be a nonempty list of K >= 1")
        if self.n_queries < 1:
            raise ConfigError("n_queries must be >= 1")
        if not self.rx_power > 0.0:
            raise ConfigError("rx_power must be positive")
        if self.noise_power < 0.0:
            raise ConfigError("noise_power must be nonnegative")
        if self.n_dictionary_redraws < 1:
            raise ConfigError("n_dictionary_redraws must be >= 1")
        if not self.schemes and not self.baselines:
            raise ConfigError("configure at least one scheme or baseline")
        if not 0 <= self.master_seed < 2**64:
            raise ConfigError("master_seed must fit in an unsigned 64-bit integer")

    @property
    def wavelength_dl(self) -> float:
        return SPEED_OF_LIGHT / self.f_dl

    @property
    def wavelength_ul(self) -> float:
        return SPEED_OF_LIGHT / self.f_ul

    @property
    def effective_ula_spacing(self) -> float:
        return self.ula_spacing if self.ula_spacing is not None else self.wavelength_dl / 2.0

    @property
    def effective_square_side(self) -> float:
        if self.square_side is not None:
            return self.square_side
        return max(1, self.n_antennas - 1) * self.wavelength_dl / 2.0


def _parse_scheme_entry(token: str) -> tuple[Scheme, Metric]:
    try:
        scheme_part, metric_part = token.split(":")
    except ValueError:
        raise ConfigError(
            f"scheme entry {token!r} must look like '<scheme>:<metric>'"
        ) from None
    try:
        metric = Metric(metric_part.strip())
    except ValueError:
        raise ConfigError(f"unknown metric {metric_part.strip()!r}") from None
    scheme_part = scheme_part.strip()
    if scheme_part.startswith("kernel@"):
        try:
            bandwidth = float(scheme_part.removeprefix("kernel@"))
        except ValueError:
            raise ConfigError(f"bad kernel bandwidth in {token!r}") from None
        return Scheme.kernel(bandwidth), metric
    try:
        kind = SchemeKind(scheme_part)
    except ValueError:
        raise ConfigError(f"unknown scheme {scheme_part!r}") from None
    return Scheme(kind), metric


def _split_list(raw: str) -> list[str]:
    return [item.strip() for item in raw.split(",") if item.strip()]


def _list_of(parse_item):
    return lambda raw: tuple(parse_item(item) for item in _split_list(raw))


def _joined(format_item):
    return lambda values: ", ".join(format_item(v) for v in values)


def _scheme_token(entry: tuple[Scheme, Metric]) -> str:
    scheme, metric = entry
    return f"{scheme.label}:{metric.label}"


# (parse, format) for each type a ScenarioConfig field declares.  Parsing
# and formatting both dispatch on the field's type, so only the dataclass
# names the fields.
_CODECS = {
    int: (int, str),
    float: (float, repr),
    float | None: (lambda raw: None if raw.lower() == "none" else float(raw), repr),
    ArrayKind: (ArrayKind, lambda kind: kind.value),
    tuple[int, ...]: (_list_of(int), _joined(str)),
    tuple[tuple[Scheme, Metric], ...]: (
        _list_of(_parse_scheme_entry), _joined(_scheme_token)
    ),
    tuple[BaselineKind, ...]: (_list_of(BaselineKind), _joined(lambda b: b.value)),
}
_FIELD_TYPES = get_type_hints(ScenarioConfig)


def _parse_value(name: str, raw: str):
    raw = raw.strip()
    try:
        return _CODECS[_FIELD_TYPES[name]][0](raw)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {name!r}: {raw!r} ({exc})") from None


def parse_config_text(text: str) -> ScenarioConfig:
    """Parse ``key = value`` lines into a ScenarioConfig.

    Blank lines and ``#`` comments are ignored; keys must be ScenarioConfig
    field names, each given at most once.  Omitted keys take their defaults.
    """
    values: dict[str, object] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, raw = stripped.split("=", 1)
        key = key.strip()
        if key not in _FIELD_TYPES:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = _parse_value(key, raw)
    try:
        return ScenarioConfig(**values)
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from None


def parse_config(path: str | Path) -> ScenarioConfig:
    """Read and parse a scenario configuration file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    return parse_config_text(text)


def format_config(config: ScenarioConfig) -> str:
    """Render the effective configuration in the config-file syntax.

    A field that may be None prints its ``effective_<name>`` value.
    """
    lines = []
    for name, hint in _FIELD_TYPES.items():
        value = getattr(config, f"effective_{name}" if hint == float | None else name)
        lines.append(f"{name} = {_CODECS[hint][1](value)}")
    return "\n".join(lines) + "\n"
