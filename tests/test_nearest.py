"""Nearest-entry search: bitwise the full distance pass and its stable sort."""

from pathlib import Path

import numpy as np
import pytest

import covcast.interp as interp
import covcast.spd as spd
from covcast.config import parse_config
from covcast.harness import (
    _TAG_DICTIONARY,
    _build_case,
    _rng,
    build_dictionary,
    make_geometry,
)
from covcast.interp import (
    Scheme,
    estimate_downlink,
    mirror_weights,
    nearest_neighbor_weights,
    select_bandwidth,
)
from covcast.spd import Metric, SPDMatrix, SPDStack, distances, nearest
from helpers import random_hermitian, random_spd, random_unitary

METRICS = list(Metric)
CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"
# (config, dictionary size) of every committed config's largest dictionary
CONFIG_CASES = [("desk_ula.cfg", 50), ("desk_random.cfg", 50), ("paper_scale.cfg", 500)]
TRIALS = range(10)


def full_search(metric, points, x, k):
    d = distances(metric, points, x)
    idx = np.argsort(d, kind="stable")[:k]
    return idx, d[idx]


def search_sizes(points):
    """k = 1 (nearest neighbor), k_s = min(n^2, K) (mirror) and K."""
    return sorted({1, min(points.dim**2, len(points)), len(points)})


def mismatches(metric, points, x) -> list[int]:
    """The search sizes at which ``nearest`` differs from the full search."""
    bad = []
    for k in search_sizes(points):
        idx, d = nearest(metric, points, x, k)
        ref_idx, ref_d = full_search(metric, points, x, k)
        if not (np.array_equal(idx, ref_idx) and np.array_equal(d, ref_d)):
            bad.append(k)
    return bad


def herm_spd(m) -> SPDMatrix:
    return SPDMatrix((m + m.conj().T) / 2)


def log_uniform(rng, size, lo=1e-9, hi=1e-3):
    """Spectra spanning the covariances' dynamic range: a 1e-9 floor under
    signal eigenvalues up to 1e-3."""
    return np.exp(rng.uniform(np.log(lo), np.log(hi), size=size))


def tied_commuting_case(seed: int, n: int = 4, k: int = 40):
    """Points sharing one eigenbasis whose spectra are permutations of one
    another, and a scalar query: every log-Euclidean and affine-invariant
    distance is the same number in exact arithmetic, so the computed values
    differ only by rounding."""
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, n)
    base = log_uniform(rng, n)
    points = SPDStack(herm_spd((u * rng.permutation(base)) @ u.conj().T) for _ in range(k))
    query = SPDMatrix(log_uniform(rng, 1)[0] * np.eye(n))
    return points, query


TIED_SEEDS = range(20)


@pytest.mark.parametrize("metric", METRICS)
class TestNearestIsExact:
    def test_random_points(self, metric):
        rng = np.random.default_rng(0)
        points = SPDStack(random_spd(rng, 3) for _ in range(30))
        for _ in range(5):
            assert mismatches(metric, points, random_spd(rng, 3)) == []

    def test_diagonal_points(self, metric):
        # commuting points: the log-Euclidean bound is attained
        rng = np.random.default_rng(1)
        points = SPDStack(SPDMatrix(np.diag(s)) for s in log_uniform(rng, (40, 4)))
        for s in log_uniform(rng, (5, 4)):
            assert mismatches(metric, points, SPDMatrix(np.diag(s))) == []

    @pytest.mark.parametrize("seed", TIED_SEEDS)
    def test_tied_commuting_points(self, metric, seed):
        assert mismatches(metric, *tied_commuting_case(seed)) == []

    def test_duplicates_and_a_query_equal_to_an_entry(self, metric):
        rng = np.random.default_rng(2)
        a, b, c = (random_spd(rng, 3) for _ in range(3))
        points = SPDStack([b, a, c, a, b, a, c])
        for query in (a, b, random_spd(rng, 3)):
            assert mismatches(metric, points, query) == []

    def test_near_duplicates(self, metric):
        rng = np.random.default_rng(3)
        entries = []
        for _ in range(6):
            p = random_spd(rng, 3)
            entries += [p, herm_spd(p.mat + 1e-12 * random_hermitian(rng, 3).mat)]
        points = SPDStack(entries)
        for query in (entries[0], entries[5], random_spd(rng, 3)):
            assert mismatches(metric, points, query) == []

    def test_permuted_points(self, metric):
        rng = np.random.default_rng(4)
        entries = [random_spd(rng, 3) for _ in range(25)]
        perm = rng.permutation(len(entries))
        points = SPDStack(entries)
        permuted = SPDStack(entries[i] for i in perm)
        query = random_spd(rng, 3)
        assert mismatches(metric, permuted, query) == []
        # the same entries at their new places, at bitwise the same distances
        idx, d = nearest(metric, points, query, 9)
        idx_p, d_p = nearest(metric, permuted, query, 9)
        assert np.array_equal(perm[idx_p], idx)
        assert np.array_equal(d_p, d)


def test_rounding_inverts_the_bound_on_tied_points(monkeypatch):
    # On the tied commuting cases the computed log-Euclidean distance
    # exceeds the computed affine-invariant one for some entry, and without
    # its slack the search is no longer exact: these cases test the slack.
    monkeypatch.setattr(spd, "NEAREST_SLACK", 0.0)
    inverted, inexact = 0, 0
    for seed in TIED_SEEDS:
        points, query = tied_commuting_case(seed)
        le = distances(Metric.LOG_EUCLIDEAN, points, query)
        ai = distances(Metric.AFFINE_INVARIANT, points, query)
        inverted += bool(np.any(le > ai))
        inexact += bool(mismatches(Metric.AFFINE_INVARIANT, points, query))
    assert inverted > 0 and inexact > 0


def test_rejects_empty_search():
    rng = np.random.default_rng(5)
    points = SPDStack(random_spd(rng, 2) for _ in range(3))
    with pytest.raises(ValueError, match="at least 1"):
        nearest(Metric.AFFINE_INVARIANT, points, random_spd(rng, 2), 0)


@pytest.fixture(scope="module")
def config_cases():
    """Each committed config's largest dictionary and its queries of trials 0-9."""
    cases = {}
    for name, size in CONFIG_CASES:
        config = parse_config(CONFIG_DIR / name)
        assert size == max(config.dict_sizes)
        geometry = make_geometry(config)
        rng = _rng(config.master_seed, _TAG_DICTIONARY, size, 0)
        dictionary = build_dictionary(config, size, rng, geometry)
        queries = [_build_case(config, geometry, size, t).query_ul for t in TRIALS]
        cases[name] = dictionary, queries
    return cases


@pytest.mark.parametrize("metric", METRICS)
@pytest.mark.parametrize("name", [name for name, _ in CONFIG_CASES])
def test_committed_config_queries(config_cases, name, metric):
    dictionary, queries = config_cases[name]
    for query in queries:
        assert mismatches(metric, dictionary.uplinks, query) == []
        # and the weight schemes' shared geometry, once nearest neighbor,
        # mirror and the kernel have filled it, searches as a fresh one does
        for weights in (nearest_neighbor_weights, mirror_weights, select_bandwidth):
            weights(dictionary, query, metric)
        geometry = interp._geometry(dictionary, query)
        for k in search_sizes(dictionary.uplinks):
            idx, d = nearest(metric, dictionary.uplinks, query, k)
            shared_idx, shared_d = geometry.nearest(metric, k)
            assert np.array_equal(shared_idx, idx) and np.array_equal(shared_d, d)


@pytest.mark.parametrize("scheme, limit", [
    (Scheme.nearest_neighbor(), 10),  # at most K/10 entries
    (Scheme.mirror(), 1),  # fewer than K entries
])
def test_affine_invariant_search_is_pruned(config_cases, monkeypatch, scheme, limit):
    # Count the matrices reaching eigvalsh (the affine-invariant distances,
    # and the positive-definite gate of a new SPDMatrix) in one estimate
    # against the K=500 dictionary: the search takes exact distances for a
    # few candidates, never for the whole dictionary.
    dictionary, queries = config_cases["paper_scale.cfg"]
    dictionary.uplinks.logs  # fitted once per dictionary, by eigh
    counted = []
    real = np.linalg.eigvalsh

    def eigvalsh(a, *args, **kwargs):
        counted.append(int(np.prod(a.shape[:-2])))
        return real(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", eigvalsh)
    estimate_downlink(dictionary, queries[0], scheme, Metric.AFFINE_INVARIANT)
    assert 0 < sum(counted) * limit < len(dictionary)


@pytest.mark.parametrize("k", [1, 4])
def test_affine_invariant_search_decomposes_the_query_once(monkeypatch, k):
    # log X for the log-Euclidean bound and X^{-1/2} for both exact-distance
    # steps come from one eigendecomposition of the (2-D) query.  Tied
    # points keep every entry within the slack, so both steps run.
    points, query = tied_commuting_case(0)
    points.logs  # fitted once per stack
    calls = []
    for name in ("eigh", "eigvalsh"):
        real = getattr(np.linalg, name)

        def counted(a, *args, _real=real, _name=name, **kwargs):
            calls.append((_name, a.ndim))
            return _real(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    nearest(Metric.AFFINE_INVARIANT, points, query, k)
    # both exact-distance steps ran: the k candidates, then the rest
    assert calls.count(("eigvalsh", 3)) == 2
    assert [c for c in calls if c[1] == 2] == [("eigh", 2)]
