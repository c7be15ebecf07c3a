"""Acceptance suite.

Each criterion prints a ``[PASS]``/``[FAIL]`` line (run with ``-s`` to see
them on success) and is enforced with asserts at its stated tolerance:

* geometry suite      — metric axioms, map inverses, invariances, barycenters
* oracle suite        — solver outputs vs independent brute-force oracles
* statistical suite   — sampler distributions and sample-covariance rates
* desk-scale run      — qualitative mean-mse orderings on both geometries
* identical-frequency — no-conversion sanity limit
* determinism         — byte-identical CLI output across runs and workers
* timing ordering     — per-metric scheme cost ordering
"""

import subprocess
import sys
import time
from itertools import combinations

import numpy as np
import pytest
from scipy import stats

import covcast.spd as spd
from covcast.baselines import BaselineKind, spline_convert
from covcast.channel import (
    ArrayKind,
    channel_realizations,
    draw_scatterers,
    make_ula,
    model_covariance,
    place_ue,
    sample_covariance,
    PropagationParams,
)
from covcast.config import ScenarioConfig
from covcast.harness import run_benchmark, summarize, timing_bench
from covcast.interp import (
    Dictionary,
    Scheme,
    select_bandwidth,
    solve_simplex_qp,
)
from covcast.spd import (
    Metric,
    SPDMatrix,
    barycenter,
    distance,
    exp_map,
    log_map,
)
from helpers import frob, random_invertible, random_spd
from test_baselines import ar1_toeplitz, natural_spline_eval
from test_interp import simplex_grid

METRICS = list(Metric)
DESK_SEED = 20240801


def report(name: str, ok: bool, detail: str = "") -> bool:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" — {detail}"
    print(line)
    return ok


# ---------------------------------------------------------------------------
# Geometry suite: >= 100 seeded instances across N in {2, 4, 10}, < 30 s


@pytest.fixture(scope="module")
def geometry_instances():
    instances = []
    start = time.perf_counter()
    for n in (2, 4, 10):
        for seed in range(34):
            rng = np.random.default_rng(1000 * n + seed)
            instances.append(
                {
                    "n": n,
                    "x": random_spd(rng, n),
                    "y": random_spd(rng, n),
                    "a": random_invertible(rng, n),
                    "points": [random_spd(rng, n) for _ in range(4)],
                    "weights": (lambda w: w / w.sum())(rng.uniform(0.1, 1.0, 4)),
                }
            )
    return instances, start


class TestGeometrySuite:
    def test_metric_axioms(self, geometry_instances):
        instances, _ = geometry_instances
        worst_sym, worst_self = 0.0, 0.0
        positive = True
        for inst in instances:
            for metric in METRICS:
                dxy = distance(metric, inst["x"], inst["y"])
                dyx = distance(metric, inst["y"], inst["x"])
                worst_sym = max(worst_sym, abs(dxy - dyx))
                worst_self = max(worst_self, distance(metric, inst["x"], inst["x"]))
                positive &= dxy > 1e-10  # instances are distinct
        ok = worst_sym < 1e-10 and worst_self < 1e-10 and positive
        assert report(
            "geometry: metric axioms",
            ok,
            f"max |d(x,y)-d(y,x)| = {worst_sym:.2e}, max d(x,x) = {worst_self:.2e}",
        )

    def test_exp_log_inverse(self, geometry_instances):
        instances, _ = geometry_instances
        worst = 0.0
        for inst in instances:
            for metric in METRICS:
                v = log_map(metric, inst["x"], inst["y"])
                back = exp_map(metric, inst["x"], v)
                worst = max(worst, frob(back.mat - inst["y"].mat))
        assert report(
            "geometry: exp/log inverse pair", worst < 1e-9, f"max residual = {worst:.2e}"
        )

    def test_affine_invariance_under_congruence(self, geometry_instances):
        instances, _ = geometry_instances
        worst = 0.0
        for inst in instances:
            a = inst["a"]

            def congruent(p):
                m = a @ p.mat @ a.conj().T
                return SPDMatrix((m + m.conj().T) / 2)

            d0 = distance(Metric.AFFINE_INVARIANT, inst["x"], inst["y"])
            d1 = distance(Metric.AFFINE_INVARIANT, congruent(inst["x"]), congruent(inst["y"]))
            worst = max(worst, abs(d0 - d1))
        assert report(
            "geometry: affine invariance of d_AI", worst < 1e-8, f"max gap = {worst:.2e}"
        )

    def test_log_euclidean_inversion_invariance(self, geometry_instances):
        instances, _ = geometry_instances
        worst = 0.0
        for inst in instances:

            def inverse(p):
                w, u = np.linalg.eigh(p.mat)
                return SPDMatrix((u / w) @ u.conj().T)

            d0 = distance(Metric.LOG_EUCLIDEAN, inst["x"], inst["y"])
            d1 = distance(Metric.LOG_EUCLIDEAN, inverse(inst["x"]), inverse(inst["y"]))
            worst = max(worst, abs(d0 - d1))
        assert report(
            "geometry: log-Euclidean inversion invariance",
            worst < 1e-8,
            f"max gap = {worst:.2e}",
        )

    def test_karcher_fixed_point(self, geometry_instances):
        instances, _ = geometry_instances
        worst = 0.0
        all_converged = True
        for inst in instances:
            result = barycenter(Metric.AFFINE_INVARIANT, inst["points"], inst["weights"])
            all_converged &= result.converged
            _, isq = spd._sqrtm_invsqrtm(result.point.mat)
            tangent = sum(
                wi * spd._logm(isq @ p.mat @ isq)
                for wi, p in zip(inst["weights"], inst["points"])
            )
            worst = max(worst, frob(tangent))
        ok = worst < 1e-8 and all_converged
        assert report(
            "geometry: Karcher fixed-point residual", ok, f"max residual = {worst:.2e}"
        )

    def test_two_point_midpoint(self, geometry_instances):
        instances, _ = geometry_instances
        worst = 0.0
        for inst in instances:
            result = barycenter(Metric.AFFINE_INVARIANT, [inst["x"], inst["y"]], [0.5, 0.5])
            sq, isq = spd._sqrtm_invsqrtm(inst["x"].mat)
            midpoint = sq @ spd._sqrtm(isq @ inst["y"].mat @ isq) @ sq
            worst = max(worst, frob(result.point.mat - midpoint))
        assert report(
            "geometry: two-point AI barycenter vs geodesic midpoint",
            worst < 1e-8,
            f"max gap = {worst:.2e}",
        )

    def test_runtime_budget(self, geometry_instances):
        _, start = geometry_instances
        elapsed = time.perf_counter() - start
        assert report(
            "geometry: suite runtime < 30 s", elapsed < 30.0, f"{elapsed:.1f} s"
        )


# ---------------------------------------------------------------------------
# Oracle suite: solver outputs vs independent oracles, < 60 s


@pytest.fixture(scope="module")
def oracle_clock():
    return time.perf_counter()


class TestOracleSuite:
    def test_simplex_qp_vs_grid(self, oracle_clock):
        worst = -np.inf
        for k in (2, 3, 4):
            rng = np.random.default_rng(50 + k)
            m = rng.standard_normal((6, k))
            gram = m.T @ m
            w = solve_simplex_qp(m).w
            ours = float(w @ gram @ w)
            grid = simplex_grid(k, 50)  # step 0.02
            best = float(np.einsum("mi,ij,mj->m", grid, gram, grid).min())
            worst = max(worst, ours - best)
        assert report(
            "oracle: simplex QP vs grid search", worst < 1e-6, f"max gap = {worst:.2e}"
        )

    def test_bandwidth_vs_log_grid(self, oracle_clock):
        rng = np.random.default_rng(60)
        pairs = [(random_spd(rng, 3), random_spd(rng, 3)) for _ in range(10)]
        dictionary = Dictionary(pairs)
        worst = -np.inf
        for metric in METRICS:
            q = random_spd(rng, 3)
            sigma, _, flags = select_bandwidth(dictionary, q, metric)
            assert flags == ()
            dists = np.array([distance(metric, ul, q) for ul in dictionary.uplinks])
            tangents = np.stack(
                [log_map(metric, q, ul).mat for ul in dictionary.uplinks]
            )

            def objective(s):
                logits = -(dists**2) / (2.0 * s**2)
                logits -= logits.max()
                w = np.exp(logits)
                w /= w.sum()
                return float(np.linalg.norm(np.tensordot(w, tangents, axes=1), "fro"))

            lo = np.log(dists[dists > 0].min() / 10.0)
            hi = np.log(10.0 * dists.max())
            best = min(objective(s) for s in np.exp(np.linspace(lo, hi, 1000)))
            worst = max(worst, objective(sigma) - best)
        assert report(
            "oracle: bandwidth search vs 1000-point log grid",
            worst < 1e-9,
            f"max gap = {worst:.2e}",
        )

    def test_ring_model_vs_double_loop(self, oracle_clock):
        rng = np.random.default_rng(61)
        geom = make_ula(4, 0.0833)
        ue = place_ue(rng, 150.0, 850.0, reference=geom.centroid)
        field = draw_scatterers(rng, ue, 60.0, 50, reference=geom.centroid)
        params = PropagationParams(0.107, 1.0, 1e-9)
        r = model_covariance(geom, field, params)
        oracle = np.zeros((4, 4), dtype=complex)
        for i in range(4):
            for j in range(4):
                acc = 0.0 + 0.0j
                for scatterer in field.scatterers:
                    d_i = np.hypot(*(scatterer - geom.positions[i]))
                    d_j = np.hypot(*(scatterer - geom.positions[j]))
                    acc += np.exp(2j * np.pi / params.wavelength * (d_i - d_j))
                oracle[i, j] = acc * params.rx_power / (
                    field.distance_to_array**2 * field.n_scatterers
                ) + (params.noise_power if i == j else 0.0)
        gap = float(np.abs(r.mat - oracle).max())
        assert report(
            "oracle: ring covariance vs scalar double loop",
            gap < 1e-12,
            f"max entry gap = {gap:.2e}",
        )

    def test_spline_vs_independent_spline(self, oracle_clock):
        n, rho = 8, 0.9
        r = ar1_toeplitz(n, rho)
        out, _ = spline_convert(r, 2.0e9, 1.0e9)
        lags = np.arange(n, dtype=float)
        expected = natural_spline_eval(lags, rho**lags, lags / 2.0)
        gap = float(np.abs(out.mat[0, :].real - expected).max())
        gap = max(gap, float(np.abs(out.mat[0, :].imag).max()))
        assert report(
            "oracle: spline dilation vs independent natural spline",
            gap < 1e-8,
            f"max gap = {gap:.2e}",
        )

    def test_runtime_budget(self, oracle_clock):
        elapsed = time.perf_counter() - oracle_clock
        assert report("oracle: suite runtime < 60 s", elapsed < 60.0, f"{elapsed:.1f} s")


# ---------------------------------------------------------------------------
# Statistical suite, < 60 s


@pytest.fixture(scope="module")
def statistical_clock():
    return time.perf_counter()


@pytest.mark.slow
class TestStatisticalSuite:
    def test_sample_covariance_rate(self, statistical_clock):
        rng = np.random.default_rng(70)
        r = random_spd(rng, 6, eig_range=(0.5, 4.0))

        def mean_rel_error(n_draws, reps=8):
            errs = []
            for _ in range(reps):
                scm = sample_covariance(channel_realizations(r, n_draws, rng))
                errs.append(frob(scm.mat - r.mat) / frob(r.mat))
            return float(np.mean(errs))

        e2, e3, e4 = (mean_rel_error(n) for n in (100, 1000, 10_000))
        lo, hi = np.sqrt(10.0) / 2.0, 2.0 * np.sqrt(10.0)
        ok = lo < e2 / e3 < hi and lo < e3 / e4 < hi
        assert report(
            "statistics: sample-covariance error ~ 1/sqrt(L)",
            ok,
            f"decade ratios {e2 / e3:.2f}, {e3 / e4:.2f} (want ~3.16, within x2)",
        )

    def test_disk_sampler(self, statistical_clock):
        rng = np.random.default_rng(71)
        radius = 40.0
        field = draw_scatterers(rng, (500.0, 0.0), radius, 100_000)
        rho2 = ((field.scatterers - field.ue_position) ** 2).sum(axis=1)
        # area-uniform disk: rho^2 ~ Uniform[0, r^2]
        ks = stats.kstest(rho2 / radius**2, "uniform")
        se = rho2.std(ddof=1) / np.sqrt(rho2.size)
        moment_ok = abs(rho2.mean() - radius**2 / 2.0) < 3.0 * se
        ok = ks.pvalue > 0.01 and moment_ok
        assert report(
            "statistics: disk sampler moment + KS (1% level)",
            ok,
            f"KS p = {ks.pvalue:.3f}, mean rho^2 = {rho2.mean():.1f} (want {radius**2 / 2:.1f})",
        )

    def test_annulus_sampler(self, statistical_clock):
        rng = np.random.default_rng(72)
        d = np.array(
            [np.linalg.norm(place_ue(rng, 100.0, 900.0)) for _ in range(100_000)]
        )
        ks = stats.kstest(d, stats.uniform(loc=100.0, scale=800.0).cdf)
        se = d.std(ddof=1) / np.sqrt(d.size)
        moment_ok = abs(d.mean() - 500.0) < 3.0 * se
        ok = ks.pvalue > 0.01 and moment_ok
        assert report(
            "statistics: UE distance sampler moment + KS (1% level)",
            ok,
            f"KS p = {ks.pvalue:.3f}, mean D = {d.mean():.1f}",
        )

    def test_runtime_budget(self, statistical_clock):
        elapsed = time.perf_counter() - statistical_clock
        assert report(
            "statistics: suite runtime < 60 s", elapsed < 60.0, f"{elapsed:.1f} s"
        )


# ---------------------------------------------------------------------------
# Desk-scale ordering experiment (ULA + random square), < 15 min on 4 cores


def desk_config(kind: ArrayKind) -> ScenarioConfig:
    baselines = (
        (BaselineKind.NO_CONVERSION, BaselineKind.SPLINE, BaselineKind.PERFECT_FEEDBACK)
        if kind is ArrayKind.ULA
        else (BaselineKind.NO_CONVERSION, BaselineKind.PERFECT_FEEDBACK)
    )
    return ScenarioConfig(
        n_antennas=10,
        array_kind=kind,
        f_dl=1.8e9,
        f_ul=2.8e9,
        n_scatterers=200,
        n_realizations=1000,
        dict_sizes=(50,),
        n_queries=200,
        baselines=baselines,
        master_seed=DESK_SEED,
    )


@pytest.fixture(scope="module")
def desk_records():
    import os

    workers = min(4, os.cpu_count() or 1)
    start = time.perf_counter()
    records = {
        kind: run_benchmark(desk_config(kind), n_workers=workers)
        for kind in (ArrayKind.ULA, ArrayKind.RANDOM_SQUARE)
    }
    return records, time.perf_counter() - start


@pytest.fixture(scope="module")
def desk_trial_mse(desk_records):
    """Per-trial mse of one desk cell, ordered by trial (pairs across cells)."""
    records, _ = desk_records

    def trial_mse(kind, estimator, metric=""):
        rows = sorted(
            (r.trial, r.mse)
            for r in records[kind]
            if r.estimator == estimator and r.metric == metric
        )
        return np.array([value for _, value in rows], dtype=float)

    return trial_mse


@pytest.fixture(scope="module")
def desk_results(desk_records):
    records, elapsed = desk_records
    summaries = {kind: summarize(recs) for kind, recs in records.items()}

    def mse(kind, estimator, metric=""):
        cell = summaries[kind][(estimator, metric, 50)]
        assert cell.count == 200, f"lost trials in {estimator}/{metric}"
        return cell.mean_mse

    print("\ndesk-scale mean mse (K=50, Q=200):")
    for kind in summaries:
        for key in sorted(summaries[kind]):
            est, met, _ = key
            label = f"{est}/{met}" if met else est
            print(f"  {kind.value:<14s} {label:<35s} {summaries[kind][key].mean_mse:10.4f}")
    return mse, elapsed


SCHEME_LABELS = ("nearest_neighbor", "mirror", "kernel")
METRIC_LABELS = ("euclidean", "log_euclidean", "affine_invariant")


@pytest.mark.slow
class TestDeskScaleOrderings:
    def test_a_every_scheme_beats_no_conversion(self, desk_results, desk_trial_mse):
        mse, _ = desk_results
        worst = []
        ok = True
        for kind in (ArrayKind.ULA, ArrayKind.RANDOM_SQUARE):
            naive = mse(kind, "no_conversion")
            for scheme in SCHEME_LABELS:
                for metric in METRIC_LABELS:
                    value = mse(kind, scheme, metric)
                    if value >= naive:
                        ok = False
                        # Paired over the shared queries: a tie within the
                        # standard error reads differently from a real loss.
                        diff = desk_trial_mse(kind, scheme, metric) - desk_trial_mse(
                            kind, "no_conversion"
                        )
                        se = diff.std(ddof=1) / np.sqrt(diff.size)
                        wins = int((diff < 0.0).sum())
                        worst.append(
                            f"{kind.value}:{scheme}/{metric} {value:.1f} >= {naive:.1f} "
                            f"(paired diff {diff.mean():+.1f} ± {se:.1f} SE, "
                            f"wins {wins}/{diff.size})"
                        )
        assert report(
            "desk scale (a): every scheme/metric beats no-conversion",
            ok,
            "; ".join(worst) if worst else "all 18 cells below the naive baseline",
        )

    def test_b_nearest_neighbor_beats_spline_on_ula(self, desk_results):
        mse, _ = desk_results
        spline = mse(ArrayKind.ULA, "spline")
        values = {m: mse(ArrayKind.ULA, "nearest_neighbor", m) for m in METRIC_LABELS}
        ok = all(v < spline for v in values.values())
        assert report(
            "desk scale (b): nearest neighbor beats spline on the ULA",
            ok,
            f"NN {min(values.values()):.1f}..{max(values.values()):.1f} vs spline {spline:.1f}",
        )

    def test_c_kernel_and_mirror_improve_on_nn_log_euclidean(self, desk_results):
        mse, _ = desk_results
        ok = True
        details = []
        for kind in (ArrayKind.ULA, ArrayKind.RANDOM_SQUARE):
            nn = mse(kind, "nearest_neighbor", "log_euclidean")
            kernel = mse(kind, "kernel", "log_euclidean")
            mirror = mse(kind, "mirror", "log_euclidean")
            ok &= kernel <= nn and mirror <= nn
            details.append(f"{kind.value}: kernel {kernel:.1f}, mirror {mirror:.1f} vs NN {nn:.1f}")
        assert report(
            "desk scale (c): kernel/mirror log-Euclidean <= NN log-Euclidean",
            ok,
            "; ".join(details),
        )

    def test_d_non_euclidean_metrics_beat_euclidean_for_kernel(self, desk_results):
        mse, _ = desk_results
        ok = True
        details = []
        for kind in (ArrayKind.ULA, ArrayKind.RANDOM_SQUARE):
            e = mse(kind, "kernel", "euclidean")
            le = mse(kind, "kernel", "log_euclidean")
            ai = mse(kind, "kernel", "affine_invariant")
            ok &= le < e and ai < e
            details.append(f"{kind.value}: LE {le:.1f}, AI {ai:.1f} vs E {e:.1f}")
        assert report(
            "desk scale (d): log-Euclidean and affine-invariant beat Euclidean (kernel)",
            ok,
            "; ".join(details),
        )

    def test_e_perfect_feedback_is_best(self, desk_results):
        mse, _ = desk_results
        ok = True
        details = []
        for kind in (ArrayKind.ULA, ArrayKind.RANDOM_SQUARE):
            pf = mse(kind, "perfect_feedback")
            others = [mse(kind, "no_conversion")]
            if kind is ArrayKind.ULA:
                others.append(mse(kind, "spline"))
            for scheme in SCHEME_LABELS:
                for metric in METRIC_LABELS:
                    others.append(mse(kind, scheme, metric))
            ok &= pf < min(others)
            details.append(f"{kind.value}: PF {pf:.3f} vs best other {min(others):.1f}")
        assert report(
            "desk scale (e): perfect feedback attains the smallest mean mse",
            ok,
            "; ".join(details),
        )

    def test_runtime_budget(self, desk_results):
        _, elapsed = desk_results
        assert report(
            "desk scale: runtime < 15 min", elapsed < 900.0, f"{elapsed:.0f} s"
        )


# ---------------------------------------------------------------------------
# Identical-frequency sanity


@pytest.mark.slow
class TestIdenticalFrequency:
    def test_no_conversion_limit(self):
        config = ScenarioConfig(
            n_antennas=10,
            array_kind=ArrayKind.ULA,
            f_dl=1.8e9,
            f_ul=1.8e9,
            n_scatterers=200,
            n_realizations=100_000,
            dict_sizes=(1,),
            n_queries=6,
            schemes=(),
            baselines=(BaselineKind.NO_CONVERSION,),
            master_seed=DESK_SEED,
        )
        cells = summarize(run_benchmark(config))
        mean_mse = cells[("no_conversion", "", 1)].mean_mse
        assert report(
            "identical-frequency: no-conversion mean mse < 1e-2 at L = 1e5",
            mean_mse < 1e-2,
            f"mean mse = {mean_mse:.2e}",
        )


# ---------------------------------------------------------------------------
# CLI determinism


DETERMINISM_CONFIG = """
n_antennas = 4
n_scatterers = 16
n_realizations = 64
dict_sizes = 4
n_queries = 3
schemes = nearest_neighbor:euclidean, mirror:log_euclidean, kernel:affine_invariant
baselines = no_conversion, spline, perfect_feedback
master_seed = 99
"""


class TestDeterminism:
    def test_byte_identical_csv(self, tmp_path):
        config = tmp_path / "det.cfg"
        config.write_text(DETERMINISM_CONFIG)

        def run(out, workers):
            proc = subprocess.run(
                [
                    sys.executable,
                    "-m",
                    "covcast.cli",
                    "run",
                    "--config",
                    str(config),
                    "--out",
                    str(out),
                    "--workers",
                    str(workers),
                ],
                capture_output=True,
                text=True,
            )
            assert proc.returncode == 0, proc.stderr
            return out.read_bytes()

        first = run(tmp_path / "a.csv", 1)
        second = run(tmp_path / "b.csv", 1)
        parallel = run(tmp_path / "c.csv", 3)
        ok = first == second == parallel
        assert report(
            "determinism: byte-identical CSV across reruns and worker counts",
            ok,
            f"{len(first)} bytes",
        )


# ---------------------------------------------------------------------------
# Timing ordering


@pytest.mark.slow
class TestTimingOrdering:
    def test_scheme_cost_ordering(self):
        config = ScenarioConfig(
            n_antennas=10,
            array_kind=ArrayKind.ULA,
            f_dl=1.8e9,
            f_ul=2.8e9,
            n_scatterers=200,
            n_realizations=1000,
            dict_sizes=(50,),
            n_queries=1,
            schemes=(
                (Scheme.nearest_neighbor(), Metric.EUCLIDEAN),
                (Scheme.nearest_neighbor(), Metric.LOG_EUCLIDEAN),
                (Scheme.kernel(), Metric.AFFINE_INVARIANT),
            ),
            baselines=(),
            master_seed=DESK_SEED,
        )
        stats_list = timing_bench(config, n_calls=50)
        medians = {(s.estimator, s.metric): s.median_ns for s in stats_list}
        nn_e = medians[("nearest_neighbor", "euclidean")]
        nn_le = medians[("nearest_neighbor", "log_euclidean")]
        kernel_ai = medians[("kernel", "affine_invariant")]
        ok = nn_e < nn_le < kernel_ai
        assert report(
            "timing: Euclidean NN < log-Euclidean NN < affine-invariant kernel",
            ok,
            f"medians {nn_e / 1e6:.2f} / {nn_le / 1e6:.2f} / {kernel_ai / 1e6:.2f} ms",
        )
