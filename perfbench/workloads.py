"""The three benchmark workloads and the replays that check their outputs.

``desk`` and ``paper-sweep`` time ``covcast.harness.run_benchmark`` on the
committed configs; ``online-k500`` answers generated uplink queries one at a
time through ``covcast.interp.estimate_downlink``.  Each workload repeats
whole rounds of the same inputs, so every round does the same work.
"""

from __future__ import annotations

import dataclasses
import math
import resource
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

import numpy as np
from scipy.special import betainc

import covcast.harness
import covcast.interp
from covcast import Metric, Scheme, parse_config
from covcast.spd import distance

import checks
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"

# Pool size for the sweeps: the two cores of the reference machine.
WORKERS = 2

DESK_CONFIGS = ("desk_ula", "desk_random")
DESK_QUERIES = 24
# Replayed and checked trials per desk config: desk_ula trials 0..6 hold the
# one mirror/euclidean call that misses the simplex minimum (trial 6).
DESK_CHECKED = {"desk_ula": 7, "desk_random": 2}

PAPER_QUERIES = 2
PAPER_CHECKED_SIZES = (50, 500)

# Set-up is timed at least this many times per run and reported as a median.
SETUP_SAMPLES = 3

ONLINE_K = 500
ONLINE_QUERIES = 100
ONLINE_ESTIMATORS = (
    (Scheme.nearest_neighbor(), Metric.EUCLIDEAN),
    (Scheme.nearest_neighbor(), Metric.LOG_EUCLIDEAN),
    (Scheme.nearest_neighbor(), Metric.AFFINE_INVARIANT),
    (Scheme.kernel(), Metric.EUCLIDEAN),
    (Scheme.kernel(), Metric.LOG_EUCLIDEAN),
)
# Seed-stream tags for the online workload's inputs.  The dictionary and the
# first half of the queries (the reference queries, which alone enter
# mse_geomean) come from the config's master seed; the second half from --seed.
_ONLINE_DICTIONARY, _ONLINE_REFERENCE, _ONLINE_SEEDED = 1, 2, 3


@dataclasses.dataclass
class Outcome:
    """What one run measured and what its checks found."""

    metrics: dict[str, tuple[float, str]]
    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)
    layers: dict[str, tuple[float, str]] = dataclasses.field(default_factory=dict)


class CheckTally:
    """Counts checked operations; an operation fails if any check fails.

    Failures of :data:`checks.QP_MINIMUM` are the known simplex-QP fault and
    leave the run correct; any other failure is a problem.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.qp_misses: list[str] = []
        self.problems: list[str] = []

    def add(self, where: str, verdicts: dict[str, str | None]) -> None:
        self.attempted += 1
        bad = {name: why for name, why in verdicts.items() if why}
        if not bad:
            return
        self.failed += 1
        for name, why in bad.items():
            (self.qp_misses if name == checks.QP_MINIMUM else self.problems).append(
                f"{where}: {name}: {why}"
            )


def peak_rss_mb() -> float:
    """Peak resident set of this process or of its largest reaped child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, child) / 1024.0


def _median_ms(samples_ns) -> float:
    return statistics.median(samples_ns) / 1e6 if samples_ns else 0.0


def _latency_quantiles(samples) -> tuple[float, float]:
    """Median and 90th percentile of one latency per distinct query.

    Callers pass each query's median over the rounds, so the result does not
    depend on how many rounds fit in the run.  The Harrell-Davis estimator
    weighs every order statistic, so the timing noise of the one or two
    queries next to a quantile moves it less than interpolating between
    them would.
    """
    x = np.sort(np.asarray(samples, dtype=float))
    n = x.size
    edges = np.arange(n + 1) / n
    out = []
    for p in (0.5, 0.9):
        cdf = betainc(p * (n + 1), (1 - p) * (n + 1), edges)
        out.append(float(np.diff(cdf) @ x))
    return out[0], out[1]


def _mse_geomean(cells: dict) -> float:
    return math.exp(statistics.fmean(math.log(statistics.fmean(v)) for v in cells.values()))


def timed_rounds(run_round, seconds: float) -> list:
    """Whole rounds until another one would end after ``seconds``; at least one."""
    results, start = [], time.perf_counter()
    while True:
        results.append(run_round())
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


# ---------------------------------------------------------------------------
# Replays: run_benchmark in this process with every estimate captured


@dataclasses.dataclass
class CapturedQuery:
    query: np.ndarray
    truth: np.ndarray
    # The program's own objects, held so their ids stay unique.
    objects: tuple
    dict_size: int | None = None
    trial: int | None = None
    estimates: dict = dataclasses.field(default_factory=dict)


class Capture:
    """Wraps the names run_benchmark calls so a single-worker sweep leaves
    behind its dictionaries, queries, truths and estimates.

    Trials are numbered per dictionary size in the order their queries are
    first answered, which is trial order when one worker runs the sweep.
    """

    def __init__(self) -> None:
        self.dictionaries: dict[int, object] = {}
        self.by_id: dict[int, CapturedQuery] = {}
        self.trials: dict[tuple[int, int], CapturedQuery] = {}
        self._next_trial: dict[int, int] = defaultdict(int)
        self._building = 0
        self._saved: list[tuple[str, object]] = []

    def _patch(self, name: str, make) -> None:
        original = getattr(covcast.harness, name)
        self._saved.append((name, original))
        setattr(covcast.harness, name, make(original))

    def _query(self, obj, dict_size: int | None = None) -> CapturedQuery:
        q = self.by_id[id(obj)]
        if q.dict_size is None:
            if dict_size is None:
                raise RuntimeError("a baseline ran before any scheme on its query")
            q.dict_size, q.trial = dict_size, self._next_trial[dict_size]
            self._next_trial[dict_size] += 1
            self.trials[(q.dict_size, q.trial)] = q
        return q

    def __enter__(self) -> "Capture":
        def build_dictionary(orig):
            def wrapper(config, dict_size, *args, **kwargs):
                self._building += 1
                try:
                    d = orig(config, dict_size, *args, **kwargs)
                finally:
                    self._building -= 1
                self.dictionaries[dict_size] = d
                return d
            return wrapper

        def build_pair(orig):
            def wrapper(*args, **kwargs):
                result = orig(*args, **kwargs)
                if not self._building:
                    q = CapturedQuery(result[0].mat, result[2].mat, result)
                    self.by_id[id(result[0])] = q
                    self.by_id[id(result[2])] = q
                return result
            return wrapper

        def estimate_downlink(orig):
            def wrapper(dictionary, query, scheme, metric):
                est = orig(dictionary, query, scheme, metric)
                q = self._query(query, len(dictionary))
                q.estimates[(scheme.label, metric.label)] = est
                return est
            return wrapper

        def baseline(label, unpack):
            def make(orig):
                def wrapper(first, *args, **kwargs):
                    result = orig(first, *args, **kwargs)
                    self._query(first).estimates[(label, "")] = unpack(result)
                    return result
                return wrapper
            return make

        self._patch("build_dictionary", build_dictionary)
        self._patch("build_pair", build_pair)
        self._patch("estimate_downlink", estimate_downlink)
        self._patch("no_conversion", baseline("no_conversion", lambda r: r.mat))
        self._patch("spline_convert", baseline("spline", lambda r: r[0].mat))
        self._patch("perfect_feedback", baseline("perfect_feedback", lambda r: r.mat))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            name, original = self._saved.pop()
            setattr(covcast.harness, name, original)


def replay_and_check(config, label: str, tally: CheckTally) -> dict:
    """Run ``config`` on one worker with estimates captured, check every
    estimate independently, and return its records by key."""
    with Capture() as cap:
        records = covcast.harness.run_benchmark(config, n_workers=1)
    views = {k: checks.DictionaryView.of(d) for k, d in cap.dictionaries.items()}
    for r in records:
        where = f"{label} K={r.dict_size} trial {r.trial} {r.estimator}/{r.metric or '-'}"
        q = cap.trials.get((r.dict_size, r.trial))
        est = q.estimates.get((r.estimator, r.metric)) if q else None
        if r.mse is None or est is None:
            tally.add(where, {"record": f"failed or not captured (flags {r.flags})"})
            continue
        if r.metric:
            verdicts = checks.check_estimate(
                views[r.dict_size], q.query, q.truth, r.estimator, r.metric,
                est.covariance.mat, est.weights.w, est.flags, r.mse,
            )
        else:
            verdicts = {"mse": checks.check_mse(r.mse, est, q.truth)}
        tally.add(where, verdicts)
    return {_key(r): r for r in records}


def _key(r) -> tuple:
    return (r.estimator, r.metric, r.dict_size, r.trial)


# ---------------------------------------------------------------------------
# Sweeps


def _expected_keys(config) -> set:
    names = [(s.label, m.label) for s, m in config.schemes]
    names += [(b.value, "") for b in config.baselines]
    trials = config.n_queries * config.n_dictionary_redraws
    return {(e, m, k, t) for e, m in names for k in config.dict_sizes for t in range(trials)}


class Sweep:
    """Timed run_benchmark rounds over a list of configs."""

    def __init__(self, configs: dict) -> None:
        self.configs = configs
        self.setup_ns = 0

    def _timed_build(self, orig):
        def wrapper(*args, **kwargs):
            start = time.perf_counter_ns()
            try:
                return orig(*args, **kwargs)
            finally:
                self.setup_ns += time.perf_counter_ns() - start
        return wrapper

    def round(self) -> dict:
        """One run_benchmark call per config; returns records, wall and setup."""
        self.setup_ns = 0
        orig = covcast.harness.build_dictionary
        covcast.harness.build_dictionary = self._timed_build(orig)
        try:
            start = time.perf_counter_ns()
            records, walls = {}, {}
            for label, config in self.configs.items():
                t = time.perf_counter_ns()
                records[label] = covcast.harness.run_benchmark(config, n_workers=WORKERS)
                walls[label] = time.perf_counter_ns() - t
            wall = time.perf_counter_ns() - start
        finally:
            covcast.harness.build_dictionary = orig
        return {"records": records, "walls": walls, "wall": wall, "setup": self.setup_ns}

    def build_only(self) -> int:
        """Nanoseconds spent building every dictionary the configs sweep, as
        run_benchmark builds them, without answering any query."""
        total = 0
        for config in self.configs.values():
            geometry = covcast.harness.make_geometry(config)
            for k in config.dict_sizes:
                for redraw in range(config.n_dictionary_redraws):
                    rng = np.random.default_rng([config.master_seed, k, redraw])
                    start = time.perf_counter_ns()
                    covcast.harness.build_dictionary(config, k, rng, geometry)
                    total += time.perf_counter_ns() - start
        return total


def run_sweep(configs: dict, replays: dict, seconds: float, trace: bool,
              spans_path: Path) -> Outcome:
    sweep = Sweep(configs)
    rounds = timed_rounds(sweep.round, seconds)
    rss = peak_rss_mb()
    setups = [r["setup"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(sweep.build_only())
    problems = []

    first = rounds[0]["records"]
    for label, config in configs.items():
        keys = [_key(r) for r in first[label]]
        if set(keys) != _expected_keys(config) or len(keys) != len(set(keys)):
            problems.append(f"{label}: sweep records do not cover every estimator and trial")
        failed = [r for r in first[label] if r.mse is None]
        if failed:
            problems.append(f"{label}: {len(failed)} sweep records failed, e.g. {failed[0]}")
        for rnd in rounds[1:]:
            if [(_key(r), r.mse, r.flags) for r in rnd["records"][label]] != \
                    [(_key(r), r.mse, r.flags) for r in first[label]]:
                problems.append(f"{label}: a repeated round gave different records")

    queries = sum(c.n_queries * c.n_dictionary_redraws * len(c.dict_sizes)
                  for c in configs.values())
    busy_ns = sum(r["wall"] - r["setup"] for r in rounds)
    per_query = defaultdict(lambda: [0] * len(rounds))
    for i, rnd in enumerate(rounds):
        for label, records in rnd["records"].items():
            for r in records:
                per_query[(label, r.dict_size, r.trial)][i] += r.runtime_ns
    p50, p90 = _latency_quantiles([statistics.median(t) for t in per_query.values()])
    cells = defaultdict(list)
    for label, records in first.items():
        for r in records:
            if r.metric and r.mse is not None:
                cells[(label, r.estimator, r.metric, r.dict_size)].append(r.mse)

    metrics = {
        "setup_s": (statistics.median(setups) / 1e9, "s"),
        "queries_per_s": (queries * len(rounds) / (busy_ns / 1e9), "1/s"),
        "query_ms.p50": (p50 / 1e6, "ms"),
        "query_ms.p90": (p90 / 1e6, "ms"),
        "mse_geomean": (_mse_geomean(cells), "1"),
        "peak_rss_mb": (rss, "MB"),
    }
    outcome = Outcome(metrics)

    if trace:
        pool_busy = statistics.median(
            sum(r.runtime_ns for r in rnd["records"][label])
            / (WORKERS * rnd["walls"][label])
            for rnd in rounds for label in configs
        )
        tracer = Tracer()
        with tracer:
            traced = sweep.round()
        tracer.write(spans_path)
        overhead = (traced["wall"] - statistics.median(r["wall"] for r in rounds)) / 1e9
        outcome.layers = layer_metrics(tracer, queries, overhead, pool_busy)

    tally = CheckTally()
    for label, config in replays.items():
        replayed = replay_and_check(config, label, tally)
        timed = {_key(r): r for r in first.get(label, ())}
        for key, r in replayed.items():
            mine = timed.get(key)
            if mine is not None and (mine.mse, mine.flags) != (r.mse, r.flags):
                problems.append(f"{label} {key}: sweep record differs from its replay")
    outcome.attempted, outcome.failed = tally.attempted, tally.failed
    outcome.problems = problems + tally.problems
    for line in tally.qp_misses:
        print(f"counted fault: {line}", file=sys.stderr)
    return outcome


def _config(name: str, **changes):
    return dataclasses.replace(parse_config(CONFIGS / f"{name}.cfg"), **changes)


def desk(seed: int, seconds: float, trace: bool, spans_path: Path) -> Outcome:
    """Both desk configs at their own master seed; ``seed`` is not used."""
    configs = {name: _config(name, n_queries=DESK_QUERIES) for name in DESK_CONFIGS}
    replays = {name: _config(name, n_queries=n) for name, n in DESK_CHECKED.items()}
    return run_sweep(configs, replays, seconds, trace, spans_path)


def paper_sweep(seed: int, seconds: float, trace: bool, spans_path: Path) -> Outcome:
    """paper_scale.cfg at its own master seed; ``seed`` is not used."""
    configs = {"paper_scale": _config("paper_scale", n_queries=PAPER_QUERIES)}
    replays = {"paper_scale": _config(
        "paper_scale", n_queries=1, dict_sizes=PAPER_CHECKED_SIZES)}
    return run_sweep(configs, replays, seconds, trace, spans_path)


# ---------------------------------------------------------------------------
# Online inference against a fixed K=500 dictionary


def _rng(seed: int, tag: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, tag]))


def _answer(dictionary, query):
    return [covcast.interp.estimate_downlink(dictionary, query, s, m)
            for s, m in ONLINE_ESTIMATORS]


def online_k500(seed: int, seconds: float, trace: bool, spans_path: Path) -> Outcome:
    """A fixed K=500 dictionary answering 50 reference and 50 seeded queries."""
    config = _config("paper_scale", dict_sizes=(ONLINE_K,), schemes=ONLINE_ESTIMATORS)
    setups = []
    for _ in range(SETUP_SAMPLES):
        start = time.perf_counter_ns()
        geometry = covcast.harness.make_geometry(config)
        dictionary = covcast.harness.build_dictionary(
            config, ONLINE_K, _rng(config.master_seed, _ONLINE_DICTIONARY), geometry)
        setups.append(time.perf_counter_ns() - start)
    queries = []
    for rng in (_rng(config.master_seed, _ONLINE_REFERENCE), _rng(seed, _ONLINE_SEEDED)):
        for _ in range(ONLINE_QUERIES // 2):
            query, _, truth = covcast.harness.build_pair(config, geometry, rng)
            queries.append((query, truth))

    first: list = []
    problems: list[str] = []

    def run_round():
        latencies, answers = [], []
        start = time.perf_counter_ns()
        for query, truth in queries:
            t = time.perf_counter_ns()
            estimates = _answer(dictionary, query)
            latencies.append(time.perf_counter_ns() - t)
            mses = [distance(Metric.AFFINE_INVARIANT, truth, e.covariance) ** 2
                    for e in estimates]
            answers.append((estimates, mses))
        wall = time.perf_counter_ns() - start
        if not first:
            first.extend(answers)
        elif any(not np.array_equal(a.covariance.mat, b.covariance.mat)
                 for (x, _), (y, _) in zip(first, answers) for a, b in zip(x, y)):
            problems.append("a repeated round gave different estimates")
        return latencies, wall

    rounds = timed_rounds(run_round, seconds)
    rss = peak_rss_mb()
    p50, p90 = _latency_quantiles(
        [statistics.median(t) for t in zip(*(lat for lat, _ in rounds))])
    cells = defaultdict(list)
    for _, mses in first[:ONLINE_QUERIES // 2]:
        for (scheme, metric), mse in zip(ONLINE_ESTIMATORS, mses):
            cells[(scheme.label, metric.label)].append(mse)
    metrics = {
        "setup_s": (statistics.median(setups) / 1e9, "s"),
        "queries_per_s": (ONLINE_QUERIES * len(rounds) / (sum(w for _, w in rounds) / 1e9), "1/s"),
        "query_ms.p50": (p50 / 1e6, "ms"),
        "query_ms.p90": (p90 / 1e6, "ms"),
        "mse_geomean": (_mse_geomean(cells), "1"),
        "peak_rss_mb": (rss, "MB"),
    }
    outcome = Outcome(metrics)

    if trace:
        tracer = Tracer()
        with tracer:
            covcast.harness.build_dictionary(
                config, ONLINE_K, _rng(config.master_seed, _ONLINE_DICTIONARY), geometry)
            start = time.perf_counter_ns()
            for i, (query, truth) in enumerate(queries):
                tracer.trace_id = i + 1
                estimates = tracer.call("query", _answer, (dictionary, query), {})
                for e in estimates:
                    distance(Metric.AFFINE_INVARIANT, truth, e.covariance)
            wall = time.perf_counter_ns() - start
        tracer.write(spans_path)
        overhead = (wall - statistics.median(w for _, w in rounds)) / 1e9
        outcome.layers = layer_metrics(tracer, ONLINE_QUERIES, overhead, 0.0)

    tally = CheckTally()
    view = checks.DictionaryView.of(dictionary)
    for i, ((query, truth), (estimates, mses)) in enumerate(zip(queries, first)):
        for (scheme, metric), est, mse in zip(ONLINE_ESTIMATORS, estimates, mses):
            tally.add(
                f"query {i} {scheme.label}/{metric.label}",
                checks.check_estimate(
                    view, query.mat, truth.mat, scheme.label, metric.label,
                    est.covariance.mat, est.weights.w, est.flags, mse,
                ),
            )
    outcome.attempted, outcome.failed = tally.attempted, tally.failed
    outcome.problems = problems + tally.problems
    return outcome


WORKLOADS = {"desk": desk, "online-k500": online_k500, "paper-sweep": paper_sweep}


# ---------------------------------------------------------------------------
# Per-layer metrics from a traced round

METRIC_LABELS = [m.label for m in Metric]
SCHEME_LABELS = ("nearest_neighbor", "mirror", "kernel")


def layer_metrics(tracer: Tracer, queries: int, overhead_s: float,
                  pool_busy: float) -> dict[str, tuple[float, str]]:
    d = tracer.durations()
    c = tracer.counts
    out: dict[str, tuple[float, str]] = {
        "interp.qp_ms": (_median_ms(d.get("interp.qp")), "ms"),
    }
    for m in METRIC_LABELS:
        for layer, span in (("mirror_weights", "interp.mirror_weights"),
                            ("nn_weights", "interp.nn_weights"),
                            ("bandwidth", "interp.bandwidth"),
                            ("kernel_weights", "interp.kernel_weights")):
            out[f"interp.{layer}_ms.{m}"] = (_median_ms(d.get(f"{span}.{m}")), "ms")
        for s in SCHEME_LABELS:
            out[f"interp.estimate_ms.{s}.{m}"] = (_median_ms(d.get(f"interp.estimate.{s}.{m}")), "ms")
        out[f"spd.barycenter_ms.{m}"] = (_median_ms(d.get(f"spd.barycenter.{m}")), "ms")
    eigh_calls = c.get("spd.eigh_calls", 0)
    out.update({
        "spd.eigh_calls": (eigh_calls / queries, "count"),
        "spd.distance_calls": (len(d.get("spd.distance", ())) / queries, "count"),
        "spd.log_map_calls": (len(d.get("spd.log_map", ())) / queries, "count"),
        "spd.eigh_us": (c.get("spd.eigh_ns", 0) / eigh_calls / 1e3 if eigh_calls else 0.0, "us"),
        "spd.karcher_iterations": (c.get("spd.karcher_iterations", 0), "count"),
        "spd.karcher_nonconverged": (c.get("spd.karcher_nonconverged", 0), "count"),
        "channel.model_covariance_us": (_median_ms(d.get("channel.model_covariance")) * 1e3, "us"),
        "channel.realizations_us": (_median_ms(d.get("channel.realizations")) * 1e3, "us"),
        "channel.sample_covariance_us": (_median_ms(d.get("channel.sample_covariance")) * 1e3, "us"),
        "harness.build_dictionary_s": (_median_ms(d.get("harness.build_dictionary")) / 1e3, "s"),
        "harness.build_pair_ms": (_median_ms(d.get("harness.build_pair")), "ms"),
        "harness.score_us": (_median_ms(d.get("harness.score")) * 1e3, "us"),
        "harness.task_mb": (max(tracer.task_bytes, default=0) / 1e6, "MB"),
        "harness.pool_busy": (pool_busy, "1"),
        "baselines.no_conversion_us": (_median_ms(d.get("baselines.no_conversion")) * 1e3, "us"),
        "baselines.spline_ms": (_median_ms(d.get("baselines.spline")), "ms"),
        "baselines.perfect_feedback_ms": (_median_ms(d.get("baselines.perfect_feedback")), "ms"),
        "trace.overhead_s": (overhead_s, "s"),
    })
    return out
