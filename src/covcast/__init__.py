"""Downlink covariance estimation from uplink covariance observations.

Hermitian positive-definite covariance matrices are treated as points on a
Riemannian manifold; the downlink covariance for a new uplink observation is
interpolated as a weighted barycenter over a dictionary of matched
uplink/downlink pairs.  The package bundles the manifold geometry, the
interpolation schemes, a ring-scatterer channel simulator, reference
baselines, and a deterministic Monte-Carlo benchmark harness with a CLI
(``covcast``).
"""

from .baselines import (
    BaselineKind,
    ExtrapolationError,
    UnsupportedGeometryError,
    no_conversion,
    perfect_feedback,
    psd_projection,
    spline_convert,
)
from .channel import (
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
from .config import ConfigError, ScenarioConfig, parse_config, parse_config_text
from .harness import (
    ResultRecord,
    build_dictionary,
    build_pair,
    emit_csv,
    read_csv,
    run_benchmark,
    summarize,
    timing_bench,
)
from .interp import (
    Dictionary,
    DownlinkEstimate,
    Scheme,
    SchemeKind,
    WeightVector,
    estimate_downlink,
    mirror_weights,
    nearest_neighbor_weights,
    select_bandwidth,
    solve_simplex_qp,
)
from .spd import (
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

__version__ = "0.1.0"
