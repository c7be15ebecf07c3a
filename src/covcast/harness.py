"""Monte-Carlo benchmark driver.

Builds dictionaries and query sets from the scenario config, runs every
configured interpolation scheme and baseline on each query, scores the
estimates by squared affine-invariant distance to the noiseless model
downlink covariance, and emits the results as CSV.

Determinism: every random draw comes from a generator derived from
``(master_seed, stream tag, K_max, index)`` seed material, where ``K_max``
is the config's largest dictionary size.  The sizes share their random
numbers: each redraw draws one stream of pairs, and its K-dictionary is the
stream's first K pairs.  Trial t's query, and its perfect-feedback draws,
are the same at every K.  So the sweep compares the sizes on the same
dictionaries and queries, and a config produces identical records
regardless of execution order or worker count; CSV rows are additionally
sort-normalized.
"""

from __future__ import annotations

import copy
import csv
import time
from collections import deque
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from dataclasses import dataclass, replace
from functools import partial
from pathlib import Path
from statistics import mean, median

import numpy as np

from .baselines import (
    BaselineKind,
    no_conversion,
    perfect_feedback,
    spline_convert,
)
from .channel import (
    ArrayGeometry,
    ArrayKind,
    PropagationParams,
    ScattererField,
    _distances,
    _model_matrix,
    _normal_draws,
    _realizations,
    draw_scatterers,
    make_random_square,
    make_ula,
    place_ue,
    sample_covariance,
)
from .config import ScenarioConfig
from .interp import Dictionary, Scheme, estimate_downlink
from .spd import Metric, SPDMatrix, _sqrtm, distance

__all__ = [
    "QueryCase",
    "ResultRecord",
    "SummaryCell",
    "TimingStat",
    "build_dictionary",
    "build_pair",
    "emit_csv",
    "make_geometry",
    "read_csv",
    "run_benchmark",
    "strip_runtimes",
    "summarize",
    "timing_bench",
]

# Stream tags keep the geometry, dictionary, and query random streams
# disjoint; queries never depend on dictionary draws.
_TAG_GEOMETRY = 1
_TAG_DICTIONARY = 2
_TAG_QUERY = 3

CSV_HEADER = ("estimator", "metric", "K", "trial", "mse", "runtime_ns", "flags")


@dataclass(frozen=True)
class ResultRecord:
    """One estimator evaluated on one query.

    ``mse`` is the squared affine-invariant distance to the true downlink
    model covariance, absent when the estimator raised (the failure is then
    recorded in ``flags``).  ``metric`` is empty for baselines.
    """

    estimator: str
    metric: str
    dict_size: int
    trial: int
    mse: float | None
    runtime_ns: int
    flags: tuple[str, ...] = ()

    @property
    def failed(self) -> bool:
        return self.mse is None


def _rng(master_seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([master_seed, *key]))


def _dictionary_rng(config: ScenarioConfig, redraw: int) -> np.random.Generator:
    """Redraw ``redraw``'s pair stream; every K-dictionary is a prefix of it."""
    return _rng(config.master_seed, _TAG_DICTIONARY, max(config.dict_sizes), redraw)


def _query_rng(config: ScenarioConfig, trial: int, *key: int) -> np.random.Generator:
    """Trial ``trial``'s query stream (``key`` names a sub-stream), shared by
    every K."""
    return _rng(config.master_seed, _TAG_QUERY, max(config.dict_sizes), trial, *key)


def make_geometry(config: ScenarioConfig) -> ArrayGeometry:
    """Scenario-level antenna placement (drawn once per master seed)."""
    if config.array_kind is ArrayKind.ULA:
        return make_ula(config.n_antennas, config.effective_ula_spacing)
    rng = _rng(config.master_seed, _TAG_GEOMETRY)
    return make_random_square(config.n_antennas, config.effective_square_side, rng)


def build_pair(
    config: ScenarioConfig, geometry: ArrayGeometry, rng: np.random.Generator
) -> tuple[SPDMatrix, SPDMatrix, SPDMatrix]:
    """One matched covariance pair for a freshly placed user.

    Places the UE, draws a scatterer radius and a single scatterer field,
    evaluates the model covariance at the uplink and downlink wavelengths
    from that same field, and returns the two sample covariances (independent
    fading draws) plus the noiseless model downlink covariance as ground
    truth.  It is :func:`_synthesize_pair` of :func:`_draw_pair`.
    """
    return _synthesize_pair(config, geometry, _draw_pair(config, geometry, rng))


def _draw_pair(
    config: ScenarioConfig, geometry: ArrayGeometry, rng: np.random.Generator
) -> tuple[ScattererField, tuple[np.ndarray, ...]]:
    """Every draw of one pair, in stream order: the UE, the scatterer radius
    and field, then the uplink's and the downlink's fading normals."""
    reference = geometry.centroid
    ue = place_ue(rng, config.d_min, config.d_max, reference=reference)
    radius = rng.uniform(config.r_min, config.r_max)
    field = draw_scatterers(rng, ue, radius, config.n_scatterers, reference=reference)
    n = geometry.n_antennas
    normals_ul = _normal_draws(rng, config.n_realizations, n)
    normals_dl = _normal_draws(rng, config.n_realizations, n)
    return field, (*normals_ul, *normals_dl)


def _synthesize_pair(
    config: ScenarioConfig,
    geometry: ArrayGeometry,
    draws: tuple[ScattererField, tuple[np.ndarray, ...]],
) -> tuple[SPDMatrix, SPDMatrix, SPDMatrix]:
    """:func:`build_pair`'s arithmetic on one pair's draws; reads no generator.

    Both bands share the field's scatterer-to-antenna distances.  Each model
    covariance is decomposed once: the ``eigh`` of its square root is also
    its positive-definiteness check.
    """
    field, (re_ul, im_ul, re_dl, im_dl) = draws
    dist = _distances(field.scatterers, geometry.positions)
    params_ul = PropagationParams(
        config.wavelength_ul, config.rx_power, config.noise_power
    )
    params_dl = PropagationParams(
        config.wavelength_dl, config.rx_power, config.noise_power
    )
    model_ul = _model_matrix(dist, field, params_ul)
    model_dl = _model_matrix(dist, field, params_dl)
    sample_ul = sample_covariance(_realizations(_sqrtm(model_ul), re_ul, im_ul))
    sample_dl = sample_covariance(_realizations(_sqrtm(model_dl), re_dl, im_dl))
    return sample_ul, sample_dl, SPDMatrix._positive(model_dl)


# Pairs build_dictionary has drawn and not yet collected, at most.
_PAIRS_IN_FLIGHT = 4


def build_dictionary(
    config: ScenarioConfig,
    dict_size: int,
    rng: np.random.Generator,
    geometry: ArrayGeometry | None = None,
    prefix: Dictionary | None = None,
) -> Dictionary:
    """Dictionary of ``dict_size`` independently drawn covariance pairs.

    With a ``prefix``, the first pairs are the prefix's and only the
    ``dict_size - len(prefix)`` pairs after them are drawn from ``rng``;
    the result extends the prefix (:class:`~covcast.interp.Dictionary`).

    The pairs, and the state ``rng`` is left in, are bitwise those of
    :func:`build_pair` called once per pair.  The calling thread makes
    every draw, in stream order, while one helper thread synthesizes the
    pairs already drawn (numpy releases the GIL in that arithmetic), at
    most ``_PAIRS_IN_FLIGHT`` ahead; the helper has ended when this
    returns or raises.  If a pair's synthesis raises, its exception reaches
    the caller, and the state of ``rng`` is unspecified: the caller may
    have drawn later pairs.
    """
    start = 0 if prefix is None else len(prefix)
    if dict_size <= start:
        raise ValueError(f"dictionary size must be > {start}, got {dict_size}")
    if geometry is None:
        geometry = make_geometry(config)
    pairs = []
    pending = deque()
    with ThreadPoolExecutor(1) as helper:
        for _ in range(dict_size - start):
            draws = _draw_pair(config, geometry, rng)
            pending.append(helper.submit(_synthesize_pair, config, geometry, draws))
            if len(pending) == _PAIRS_IN_FLIGHT:
                pairs.append(pending.popleft().result()[:2])
        pairs.extend(future.result()[:2] for future in pending)
    return Dictionary(pairs, prefix)


@dataclass(frozen=True)
class QueryCase:
    """Inputs one trial presents to every estimator."""

    dict_size: int
    trial: int
    query_ul: SPDMatrix
    truth_dl: SPDMatrix


def _mse_to_truth(truth: SPDMatrix, estimate: SPDMatrix) -> float:
    return float(distance(Metric.AFFINE_INVARIANT, truth, estimate) ** 2)


def _failure_flags(exc: Exception) -> tuple[str, ...]:
    """``failed:<ExceptionClass>``, then the exception's message if any.

    The message is flattened onto one line and its semicolons become commas,
    so it survives the semicolon-joined CSV flags field.
    """
    message = " ".join(str(exc).replace(";", ",").split())
    kind = f"failed:{type(exc).__name__}"
    return (kind, message) if message else (kind,)


def _run_scheme(scheme: Scheme, metric: Metric, dictionary: Dictionary, case: QueryCase):
    est = estimate_downlink(dictionary, case.query_ul, scheme, metric)
    return est.covariance, est.flags


def _run_baseline(baseline: BaselineKind, config: ScenarioConfig, case: QueryCase):
    if baseline is BaselineKind.NO_CONVERSION:
        return no_conversion(case.query_ul, config.n_antennas), ()
    if baseline is BaselineKind.SPLINE:
        return spline_convert(case.query_ul, config.f_ul, config.f_dl, config.array_kind)
    # The perfect-feedback baseline draws its own fresh realizations from a
    # derived stream, so estimator ordering cannot perturb anything.
    rng = _query_rng(config, case.trial, 1)
    return perfect_feedback(case.truth_dl, config.n_realizations, rng), ()


def _estimator_calls(config: ScenarioConfig, dictionary: Dictionary):
    """Every configured scheme, then every baseline.

    Yields ``(estimator, metric, call)``; ``call(case)`` returns the estimate
    of ``case``'s query and its flags.  The calls look up
    ``estimate_downlink`` and the baselines in this module when they run, so
    a wrapper set on those module attributes sees every call.
    """
    for scheme, metric in config.schemes:
        yield scheme.label, metric.label, partial(_run_scheme, scheme, metric, dictionary)
    for baseline in config.baselines:
        yield baseline.value, "", partial(_run_baseline, baseline, config)


def _run_estimators(
    config: ScenarioConfig, dictionary: Dictionary, case: QueryCase
) -> list[ResultRecord]:
    """Run every configured scheme and baseline on one query.

    The schemes share the query's geometry (see
    :func:`~covcast.interp.estimate_downlink`), so a record's ``runtime_ns``
    includes the shared work of the first scheme that needs it.
    """
    records: list[ResultRecord] = []
    for estimator, metric, call in _estimator_calls(config, dictionary):
        start = time.perf_counter_ns()
        try:
            estimate, flags = call(case)
            mse = _mse_to_truth(case.truth_dl, estimate)
        except Exception as exc:  # noqa: BLE001 - failure isolation by contract
            mse, flags = None, _failure_flags(exc)
        elapsed = time.perf_counter_ns() - start
        records.append(
            ResultRecord(
                estimator, metric, case.dict_size, case.trial, mse, elapsed, flags
            )
        )
    return records


def _build_case(
    config: ScenarioConfig, geometry: ArrayGeometry, dict_size: int, trial: int
) -> QueryCase:
    """Trial ``trial``'s query, the same bits at every K.  It is drawn
    afresh for each K, so every (K, trial) record answers a query object of
    its own, and no task depends on what another left behind.  The schemes
    still share the query's geometry across K through its bits (see
    :func:`~covcast.interp.estimate_downlink`)."""
    query_ul, _, truth_dl = build_pair(config, geometry, _query_rng(config, trial))
    return QueryCase(dict_size, trial, query_ul, truth_dl)


# The sweep this process serves: (config, geometry, dictionaries), the
# dictionaries one tuple per redraw, in ascending K.  Pool workers receive it
# once through the pool initializer, inherited rather than pickled under the
# fork start method, so a task is only (redraw, trial).
_SWEEP: tuple | None = None


def _fit_stacks(dictionaries) -> None:
    """Fit both sides' stacked matrices and logarithms of every redraw's
    dictionaries, and the uplinks' half-vectorized columns of both, which
    the query geometries read, so the records time the estimators alone.
    A dictionary's stacks reuse the rows of the smaller dictionary they
    extend, so each redraw fits its largest size's rows once per side."""
    for nested in dictionaries:
        for dictionary in nested:
            dictionary.downlinks.logs  # its logarithms are fitted from its matrices
            dictionary.uplinks.mat_cols, dictionary.uplinks.log_cols  # and the logs they read


def _init_sweep(config: ScenarioConfig, geometry: ArrayGeometry, dictionaries) -> None:
    """Pool initializer: keep the sweep and fit its dictionaries, once per
    worker."""
    global _SWEEP
    _fit_stacks(dictionaries)
    _SWEEP = (config, geometry, dictionaries)


def _run_trial(task: tuple[int, int], sweep: tuple | None = None) -> list[ResultRecord]:
    """Every record of trial ``trial``, a query of redraw ``redraw``, at every
    K: ``task`` is ``(redraw, trial)``.

    Walks the redraw's nested dictionaries in ascending K, answering the
    trial's query, drawn afresh for each K (:func:`_build_case`), with every
    estimator.  Each K's schemes start from the geometry the next smaller K
    left (see :func:`~covcast.interp._geometry`), so each computes the
    query's tangents and distances only to the uplinks its K adds.
    """
    config, geometry, dictionaries = sweep or _SWEEP
    redraw, trial = task
    records = []
    for dictionary in dictionaries[redraw]:
        case = _build_case(config, geometry, len(dictionary), trial)
        records.extend(_run_estimators(config, dictionary, case))
    return records


def run_benchmark(config: ScenarioConfig, n_workers: int = 1) -> list[ResultRecord]:
    """Run the full Monte-Carlo sweep described by ``config``.

    For each dictionary size K: take ``n_dictionary_redraws`` dictionaries
    and evaluate ``n_queries`` queries per redraw against each, one record
    per configured estimator per query.  Redraw r's K-dictionary is the
    first K pairs of that redraw's stream, and trial t's query is the same
    at every K (see the module docstring).  The sizes are built in
    ascending order, each extending the next smaller one, so every pair is
    drawn once per redraw.  Every dictionary's stacks are fitted before the
    first query, once per worker process, so a record's ``runtime_ns`` times
    its estimator alone.

    A task is one trial of one redraw at every K (:func:`_run_trial`), so
    the trial's query geometry serves its nested dictionaries in ascending
    K, and a record's ``runtime_ns`` includes the geometry rows its K is the
    first to compute in its trial.  Estimator exceptions are caught and
    recorded as failed records; they never abort the sweep.  Output is
    deterministic for a fixed config, independent of ``n_workers``.
    """
    if n_workers < 1:
        raise ValueError("n_workers must be >= 1")
    geometry = make_geometry(config)
    redraws = range(config.n_dictionary_redraws)
    rngs = [_dictionary_rng(config, redraw) for redraw in redraws]
    nested: list[list[Dictionary]] = [[] for _ in redraws]  # ascending K
    for dict_size in sorted(config.dict_sizes):
        for rng, built in zip(rngs, nested):
            prefix = built[-1] if built else None
            built.append(build_dictionary(config, dict_size, rng, geometry, prefix=prefix))
    dictionaries = tuple(map(tuple, nested))
    tasks = [
        (redraw, redraw * config.n_queries + query)
        for redraw in redraws
        for query in range(config.n_queries)
    ]
    sweep = (config, geometry, dictionaries)

    records: list[ResultRecord] = []
    if n_workers == 1:
        _fit_stacks(dictionaries)
        for task in tasks:
            records.extend(_run_trial(task, sweep))
    else:
        with ProcessPoolExecutor(
            max_workers=n_workers, initializer=_init_sweep, initargs=sweep
        ) as pool:
            for chunk in pool.map(_run_trial, tasks):
                records.extend(chunk)
    return sorted(records, key=_record_sort_key)


def _record_sort_key(record: ResultRecord):
    return (record.estimator, record.metric, record.dict_size, record.trial)


def strip_runtimes(records: list[ResultRecord]) -> list[ResultRecord]:
    """Zero out wall-clock fields so output depends only on the config."""
    return [replace(r, runtime_ns=0) for r in records]


# ---------------------------------------------------------------------------
# CSV emission and aggregation


def _format_mse(mse: float | None) -> str:
    return "" if mse is None else repr(float(mse))


def emit_csv(records: list[ResultRecord], path: str | Path) -> None:
    """Write records as CSV, sorted by (estimator, metric, K, trial).

    Floats are written in full round-trip precision; flags are
    semicolon-joined; a failed record leaves the mse field empty.
    """
    path = Path(path)
    try:
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle, lineterminator="\n")
            writer.writerow(CSV_HEADER)
            for r in sorted(records, key=_record_sort_key):
                writer.writerow(
                    (
                        r.estimator,
                        r.metric,
                        r.dict_size,
                        r.trial,
                        _format_mse(r.mse),
                        r.runtime_ns,
                        ";".join(r.flags),
                    )
                )
    except OSError as exc:
        raise OSError(f"cannot write CSV to {path}: {exc}") from exc


def read_csv(path: str | Path) -> list[ResultRecord]:
    """Parse a CSV written by :func:`emit_csv` back into records."""
    path = Path(path)
    records = []
    with path.open(newline="") as handle:
        reader = csv.reader(handle)
        header = tuple(next(reader))
        if header != CSV_HEADER:
            raise ValueError(f"unexpected CSV header in {path}: {header}")
        for row in reader:
            estimator, metric, k, trial, mse, runtime_ns, flags = row
            records.append(
                ResultRecord(
                    estimator,
                    metric,
                    int(k),
                    int(trial),
                    float(mse) if mse else None,
                    int(runtime_ns),
                    tuple(flags.split(";")) if flags else (),
                )
            )
    return records


@dataclass(frozen=True)
class SummaryCell:
    """Aggregate over the non-failed trials of one (estimator, metric, K)."""

    count: int
    mean_mse: float | None
    mean_runtime_ns: float | None


def summarize(
    records: list[ResultRecord],
) -> dict[tuple[str, str, int], SummaryCell]:
    """Per-(estimator, metric, K) mean mse and runtime over valid trials.

    Failed records are excluded from the means; a cell whose trials all
    failed is reported with count 0 and no means.
    """
    if not records:
        raise ValueError("no records to summarize")
    cells: dict[tuple[str, str, int], list[ResultRecord]] = {}
    for r in records:
        cells.setdefault((r.estimator, r.metric, r.dict_size), []).append(r)
    out = {}
    for key, group in cells.items():
        valid = [r for r in group if not r.failed]
        if not valid:
            out[key] = SummaryCell(0, None, None)
        else:
            out[key] = SummaryCell(
                len(valid),
                mean(r.mse for r in valid),
                mean(r.runtime_ns for r in valid),
            )
    return out


# ---------------------------------------------------------------------------
# Wall-clock benchmarking


@dataclass(frozen=True)
class TimingStat:
    estimator: str
    metric: str
    calls: int
    median_ns: float
    mean_ns: float


def timing_bench(
    config: ScenarioConfig, n_calls: int = 50, n_warmup: int = 3
) -> list[TimingStat]:
    """Median and mean per-call wall time of each configured estimator.

    Uses the first configured dictionary size, as :func:`run_benchmark`
    draws it for redraw 0, and the query of trial 0; each estimator is
    invoked ``n_warmup`` untimed plus ``n_calls`` timed times.  Every call
    gets its own copy of the query, made outside the timer, so no call
    reads the geometry an earlier call left (see
    :func:`~covcast.interp.estimate_downlink`): each times the estimator's
    whole per-query cost.
    """
    if n_calls < 1:
        raise ValueError("n_calls must be >= 1")
    dict_size = config.dict_sizes[0]
    geometry = make_geometry(config)
    dictionary = build_dictionary(config, dict_size, _dictionary_rng(config, 0), geometry)
    case = _build_case(config, geometry, dict_size, 0)

    def fresh() -> QueryCase:
        return replace(case, query_ul=copy.copy(case.query_ul))

    stats = []
    for estimator, metric, fn in _estimator_calls(config, dictionary):
        for _ in range(n_warmup):
            fn(fresh())
        times = []
        for _ in range(n_calls):
            own = fresh()
            start = time.perf_counter_ns()
            fn(own)
            times.append(time.perf_counter_ns() - start)
        stats.append(
            TimingStat(estimator, metric, n_calls, median(times), mean(times))
        )
    return stats
