"""Each independent check accepts the program's estimates on a tiny config
and rejects a deliberately perturbed estimate or weight vector.

    python3 -m pytest perfbench/tests -q
"""

import numpy as np
import pytest

import covcast.harness
from covcast import ScenarioConfig, Scheme, Metric
from covcast.interp import SchemeKind

import checks
from workloads import Capture, CheckTally, replay_and_check

TINY = ScenarioConfig(
    n_antennas=3,
    n_scatterers=20,
    n_realizations=60,
    dict_sizes=(14,),
    n_queries=2,
    schemes=tuple((Scheme(kind), metric) for kind in SchemeKind for metric in Metric),
    master_seed=7,
)


@pytest.fixture(scope="module")
def tiny():
    with Capture() as cap:
        records = covcast.harness.run_benchmark(TINY, n_workers=1)
    view = checks.DictionaryView.of(cap.dictionaries[14])
    return records, cap.trials, view


def _case(tiny, scheme, metric, trial=0):
    records, trials, view = tiny
    q = trials[(14, trial)]
    est = q.estimates[(scheme, metric)]
    (record,) = [r for r in records
                 if (r.estimator, r.metric, r.trial) == (scheme, metric, trial)]
    return view, q, est, record


def test_program_output_passes_every_check():
    tally = CheckTally()
    replay_and_check(TINY, "tiny", tally)
    assert tally.problems == []
    assert tally.attempted == 2 * (9 + 3)


@pytest.mark.parametrize("metric", ["euclidean", "log_euclidean", "affine_invariant"])
def test_mse_check(tiny, metric):
    view, q, est, record = _case(tiny, "kernel", metric)
    assert checks.check_mse(record.mse, est.covariance.mat, q.truth) is None
    assert checks.check_mse(record.mse * 1.001, est.covariance.mat, q.truth)
    assert checks.check_mse(record.mse, 1.05 * est.covariance.mat, q.truth)


def test_mse_check_on_baseline(tiny):
    view, q, est, record = _case(tiny, "no_conversion", "")
    assert checks.check_mse(record.mse, est, q.truth) is None
    assert checks.check_mse(record.mse, 1.05 * est, q.truth)


@pytest.mark.parametrize("metric", ["euclidean", "log_euclidean", "affine_invariant"])
def test_nearest_neighbor_check(tiny, metric):
    view, q, est, _ = _case(tiny, "nearest_neighbor", metric)
    w, x = est.weights.w, est.covariance.mat
    assert checks.check_nearest_neighbor(view, q.query, metric, w, x) is None
    d = checks.uplink_distances(view, q.query, metric)
    far = int(np.argmax(d))
    w_far = np.zeros_like(w)
    w_far[far] = 1.0
    assert checks.check_nearest_neighbor(view, q.query, metric, w_far, view.downlinks[far])
    assert checks.check_nearest_neighbor(view, q.query, metric, w, 1.001 * x)


@pytest.mark.parametrize("scheme", ["mirror", "kernel"])
@pytest.mark.parametrize("metric", ["euclidean", "log_euclidean"])
def test_closed_form_check(tiny, scheme, metric):
    view, q, est, _ = _case(tiny, scheme, metric)
    w, x = est.weights.w, est.covariance.mat
    assert checks.check_closed_form(view, metric, w, x) is None
    assert checks.check_closed_form(view, metric, w, (1.0 + 1e-6) * x)


@pytest.mark.parametrize("scheme", ["mirror", "kernel"])
def test_stationarity_check(tiny, scheme):
    view, q, est, _ = _case(tiny, scheme, "affine_invariant")
    assert "karcher-nonconverged" not in est.flags
    w, x = est.weights.w, est.covariance.mat
    assert checks.check_stationary(view, w, x) is None
    assert checks.check_stationary(view, w, (1.0 + 1e-6) * x)


@pytest.mark.parametrize("metric", ["euclidean", "log_euclidean", "affine_invariant"])
def test_kernel_monotone_check(tiny, metric):
    view, q, est, _ = _case(tiny, "kernel", metric)
    w = est.weights.w
    assert checks.check_kernel_monotone(view, q.query, metric, w) is None
    d = checks.uplink_distances(view, q.query, metric)
    near, far = int(np.argmin(d)), int(np.argmax(d))
    swapped = w.copy()
    swapped[[near, far]] = w[[far, near]]
    assert checks.check_kernel_monotone(view, q.query, metric, swapped)


@pytest.mark.parametrize("metric", ["euclidean", "log_euclidean", "affine_invariant"])
def test_mirror_checks(tiny, metric):
    view, q, est, _ = _case(tiny, "mirror", metric)
    w = est.weights.w
    assert checks.check_simplex(w) is None
    verdicts = checks.check_mirror(view, q.query, metric, w)
    assert verdicts["mirror_support"] is None

    assert checks.check_simplex(1.1 * w)

    d = checks.uplink_distances(view, q.query, metric)
    outside = w.copy()
    outside[int(np.argmax(d))] = outside.max()
    outside /= outside.sum()
    assert checks.check_mirror(view, q.query, metric, outside)["mirror_support"]

    k_s = min(q.query.shape[0] ** 2, len(view))
    uniform = np.zeros_like(w)
    uniform[np.argsort(d, kind="stable")[:k_s]] = 1.0 / k_s
    assert checks.check_mirror(view, q.query, metric, uniform)[checks.QP_MINIMUM]


def test_simplex_minimum_matches_grid():
    rng = np.random.default_rng(3)
    m = rng.standard_normal((5, 3))
    gram = m.T @ m
    w = checks.simplex_minimum(gram)
    steps = np.linspace(0.0, 1.0, 401)
    grid = np.array([(a, b, 1.0 - a - b) for a in steps for b in steps if a + b <= 1.0])
    best = np.einsum("ij,jk,ik->i", grid, gram, grid).min()
    assert w @ gram @ w <= best + 1e-12
