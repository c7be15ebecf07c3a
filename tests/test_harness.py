"""Benchmark driver: pair/dictionary construction, the Monte-Carlo sweep,
CSV emission, and aggregation."""

import dataclasses
import pickle
import re
import threading
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

import covcast.harness as harness
import covcast.interp as interp
from covcast.baselines import BaselineKind
from covcast.channel import ArrayKind, PropagationParams, model_covariance
from covcast.config import ScenarioConfig, parse_config
from covcast.harness import (
    ResultRecord,
    build_dictionary,
    build_pair,
    emit_csv,
    make_geometry,
    read_csv,
    run_benchmark,
    strip_runtimes,
    summarize,
    timing_bench,
)
from covcast.interp import Scheme
from covcast.spd import Metric
from helpers import frob

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

def tiny_config(**overrides) -> ScenarioConfig:
    base = dict(
        n_antennas=3,
        array_kind=ArrayKind.ULA,
        n_scatterers=8,
        n_realizations=24,
        dict_sizes=(3,),
        n_queries=2,
        schemes=(
            (Scheme.nearest_neighbor(), Metric.EUCLIDEAN),
            (Scheme.kernel(), Metric.LOG_EUCLIDEAN),
        ),
        baselines=(BaselineKind.NO_CONVERSION, BaselineKind.PERFECT_FEEDBACK),
        master_seed=7,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def rng_for(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


class TestBuildPair:
    def test_equal_frequencies_give_equal_model_covariances(self):
        config = tiny_config(f_dl=2.0e9, f_ul=2.0e9, baselines=(BaselineKind.NO_CONVERSION,))
        geometry = make_geometry(config)
        # rebuild the ingredients deterministically and compare both bands
        from covcast.channel import draw_scatterers, place_ue

        rng = rng_for(1)
        ue = place_ue(rng, config.d_min, config.d_max, reference=geometry.centroid)
        radius = rng.uniform(config.r_min, config.r_max)
        field = draw_scatterers(rng, ue, radius, config.n_scatterers, reference=geometry.centroid)
        p_ul = PropagationParams(config.wavelength_ul, config.rx_power, config.noise_power)
        p_dl = PropagationParams(config.wavelength_dl, config.rx_power, config.noise_power)
        assert np.array_equal(
            model_covariance(geometry, field, p_ul).mat,
            model_covariance(geometry, field, p_dl).mat,
        )

    def test_fixed_seed_reproducible(self):
        config = tiny_config()
        geometry = make_geometry(config)
        a = build_pair(config, geometry, rng_for(3))
        b = build_pair(config, geometry, rng_for(3))
        for x, y in zip(a, b):
            assert np.array_equal(x.mat, y.mat)

    def test_sample_concentrates_near_model(self):
        config = tiny_config(
            n_antennas=10, n_scatterers=100, n_realizations=1000, noise_power=1e-9
        )
        geometry = make_geometry(config)
        _, sample_dl, truth_dl = build_pair(config, geometry, rng_for(4))
        assert frob(sample_dl.mat - truth_dl.mat) / frob(truth_dl.mat) < 0.2


class TestBuildDictionary:
    def test_size_one(self):
        config = tiny_config()
        d = build_dictionary(config, 1, rng_for(5))
        assert len(d) == 1

    def test_fixed_seed_reproducible(self):
        config = tiny_config()
        a = build_dictionary(config, 4, rng_for(6))
        b = build_dictionary(config, 4, rng_for(6))
        for ua, da, ub, db in zip(a.uplinks, a.downlinks, b.uplinks, b.downlinks):
            assert np.array_equal(ua.mat, ub.mat)
            assert np.array_equal(da.mat, db.mat)

    def test_ue_distances_uniform(self):
        # The truth diagonal is exactly P/D^2 + P_N, so each pair's UE
        # distance is recoverable; build many cheap pairs and KS-test.
        config = tiny_config(
            n_antennas=2, n_scatterers=1, n_realizations=2, noise_power=1e-9
        )
        geometry = make_geometry(config)
        distances = []
        rng = rng_for(8)
        for _ in range(4000):
            _, _, truth = build_pair(config, geometry, rng)
            diag = float(np.real(truth.mat[0, 0])) - config.noise_power
            distances.append(np.sqrt(config.rx_power / diag))
        res = stats.kstest(
            distances, stats.uniform(loc=config.d_min, scale=config.d_max - config.d_min).cdf
        )
        assert res.pvalue > 0.01


class TestPipelinedBuild:
    """``build_dictionary`` draws every pair on the calling thread and
    synthesizes them on one helper thread.  Its pairs and the generator's
    end state are those of a serial ``build_pair`` loop, built fresh or
    extended from a prefix, and no thread outlives the call."""

    CONFIGS = ["desk_ula.cfg", "desk_random.cfg", "paper_scale.cfg"]

    @staticmethod
    def build(name, rng, prefix_size):
        config = parse_config(CONFIG_DIR / name)
        geometry = make_geometry(config)
        prefix = build_dictionary(config, prefix_size, rng, geometry) if prefix_size else None
        return build_dictionary(config, 7, rng, geometry, prefix=prefix)

    @pytest.mark.parametrize("prefix_size", [0, 3])
    @pytest.mark.parametrize("name", CONFIGS)
    def test_bitwise_a_serial_loop(self, name, prefix_size):
        rng = rng_for(12)
        threads = set(threading.enumerate())
        dictionary = self.build(name, rng, prefix_size)
        assert set(threading.enumerate()) == threads

        config = parse_config(CONFIG_DIR / name)
        geometry = make_geometry(config)
        serial_rng = rng_for(12)
        for k in range(7):
            sample_ul, sample_dl, _ = build_pair(config, geometry, serial_rng)
            assert np.array_equal(dictionary.uplinks[k].mat, sample_ul.mat)
            assert np.array_equal(dictionary.downlinks[k].mat, sample_dl.mat)
        assert rng.bit_generator.state == serial_rng.bit_generator.state

    @pytest.mark.parametrize("prefix_size", [0, 3])
    @pytest.mark.parametrize("name", CONFIGS)
    def test_synthesis_error_reaches_the_caller(self, name, prefix_size, monkeypatch):
        class SynthesisError(ArithmeticError):
            pass

        synthesize = harness._synthesize_pair
        calls = []

        def third_fails(*args):
            calls.append(args)
            if len(calls) == prefix_size + 3:
                raise SynthesisError("third pair failed")
            return synthesize(*args)

        monkeypatch.setattr(harness, "_synthesize_pair", third_fails)
        threads = set(threading.enumerate())
        with pytest.raises(SynthesisError) as raised:
            self.build(name, rng_for(13), prefix_size)
        assert raised.type is SynthesisError
        assert str(raised.value) == "third pair failed"
        assert set(threading.enumerate()) == threads


class TestRunBenchmark:
    def test_record_count(self):
        config = tiny_config(dict_sizes=(2, 3), n_queries=2)
        records = run_benchmark(config)
        n_estimators = len(config.schemes) + len(config.baselines)
        assert len(records) == 2 * 2 * n_estimators

    def test_deterministic_csv_bytes(self, tmp_path):
        config = tiny_config()
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(strip_runtimes(run_benchmark(config)), out1)
        emit_csv(strip_runtimes(run_benchmark(config)), out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_workers_do_not_change_results(self, tmp_path):
        config = tiny_config()
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        emit_csv(strip_runtimes(run_benchmark(config, n_workers=1)), out1)
        emit_csv(strip_runtimes(run_benchmark(config, n_workers=2)), out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_failure_isolation(self):
        # spline on a random-square geometry fails on every trial; all other
        # estimators must be unaffected
        config = tiny_config(
            array_kind=ArrayKind.RANDOM_SQUARE,
            baselines=(BaselineKind.NO_CONVERSION, BaselineKind.SPLINE),
        )
        records = run_benchmark(config)
        spline = [r for r in records if r.estimator == "spline"]
        assert spline and all(r.failed for r in spline)
        assert all("failed:UnsupportedGeometryError" in r.flags for r in spline)

        others = [r for r in records if r.estimator != "spline"]
        assert others and not any(r.failed for r in others)

        reference = tiny_config(
            array_kind=ArrayKind.RANDOM_SQUARE,
            baselines=(BaselineKind.NO_CONVERSION,),
        )
        ref_records = [
            r for r in run_benchmark(reference) if r.estimator != "spline"
        ]
        assert [
            (r.estimator, r.metric, r.dict_size, r.trial, r.mse) for r in ref_records
        ] == [(r.estimator, r.metric, r.dict_size, r.trial, r.mse) for r in others]

    def test_desk_sweep_emits_only_documented_flags(self):
        # README's CSV schema lists every flag a sweep can write; a
        # failed:<Error> flag is followed by at most its message.
        readme = (CONFIG_DIR.parent / "README.md").read_text()
        listed = re.search(r"semicolon-joined diagnostics \(([^)]*)\)", readme)
        documented = set(re.findall(r"`([^`]+)`", listed.group(1)))
        assert documented == {
            "karcher-nonconverged",
            "psd-clipped",
            "degenerate-bandwidth",
            "flat-bandwidth",
            "failed:<Error>",
        }
        config = dataclasses.replace(parse_config(CONFIG_DIR / "desk_ula.cfg"), n_queries=4)
        for r in run_benchmark(config):
            if r.failed:
                assert r.flags[0].startswith("failed:") and len(r.flags) <= 2
            else:
                assert set(r.flags) <= documented - {"failed:<Error>"}, r

    def test_dictionary_redraws_multiply_trials(self):
        config = tiny_config(n_dictionary_redraws=2)
        records = run_benchmark(config)
        trials = {r.trial for r in records}
        assert trials == set(range(2 * config.n_queries))

    def test_mse_nonnegative(self):
        records = run_benchmark(tiny_config())
        assert all(r.mse >= 0.0 for r in records if not r.failed)

    def test_pool_tasks_name_dictionaries_by_index(self, monkeypatch):
        # The dictionaries reach each worker once, through the pool
        # initializer, one tuple per redraw in ascending K; a task is only
        # (redraw, trial), and its redraw indexes them.
        seen, initargs = [], []

        class RecordingPool(ProcessPoolExecutor):
            def __init__(self, *args, **kwargs):
                initargs.append(kwargs["initargs"])
                super().__init__(*args, **kwargs)

            def map(self, fn, tasks, **kwargs):
                tasks = list(tasks)
                seen.extend(tasks)
                return super().map(fn, tasks, **kwargs)

        monkeypatch.setattr(harness, "ProcessPoolExecutor", RecordingPool)
        config = tiny_config(dict_sizes=(3, 2), n_dictionary_redraws=2, n_queries=1)
        pooled = run_benchmark(config, n_workers=2)
        assert seen == [(0, 0), (1, 1)]
        ((_, _, dictionaries),) = initargs
        assert [[len(d) for d in nested] for nested in dictionaries] == [[2, 3], [2, 3]]
        assert strip_runtimes(pooled) == strip_runtimes(run_benchmark(config))

    def test_stacks_are_fitted_before_the_first_query(self, monkeypatch):
        # Every dictionary's stacks are fitted once per process before any
        # query reads them: by the pool initializer in each worker, and
        # before the first task on the serial path.
        config = tiny_config(dict_sizes=(2, 3), n_dictionary_redraws=2, n_queries=1)

        def fitted(dictionaries) -> bool:
            stacks = [s for n in dictionaries for d in n for s in (d.uplinks, d.downlinks)]
            return all(s._mats is not None and s._logs is not None for s in stacks)

        geometry = make_geometry(config)
        dictionaries = tuple((build_dictionary(config, 2, rng_for(r), geometry),) for r in (3, 4))
        monkeypatch.setattr(harness, "_SWEEP", None)
        harness._init_sweep(config, geometry, dictionaries)
        assert fitted(dictionaries)

        real = harness._run_trial
        seen = []

        def checked(task, sweep=None):
            seen.append(fitted(sweep[2]))
            return real(task, sweep)

        monkeypatch.setattr(harness, "_run_trial", checked)
        run_benchmark(config)
        assert seen and all(seen)

    def test_nested_sizes_answer_as_with_a_fresh_geometry(self, monkeypatch):
        # Each task walks its redraw's nested dictionaries, and each K's
        # schemes start from the geometry the K before left.  The records
        # are those of one worker, of two, and of every (K, trial) answered
        # with the geometry memo cleared.
        config = tiny_config(dict_sizes=(2, 3, 5), n_dictionary_redraws=2)
        starts = []
        real_start = interp._QueryGeometry._start_from

        def start_from(geometry, prefix):
            starts.append((len(prefix.points), len(geometry.points)))
            real_start(geometry, prefix)

        monkeypatch.setattr(interp._QueryGeometry, "_start_from", start_from)
        serial = strip_runtimes(run_benchmark(config))
        trials = config.n_dictionary_redraws * config.n_queries
        assert starts == [(2, 3), (3, 5)] * trials
        assert strip_runtimes(run_benchmark(config, n_workers=2)) == serial

        real_run = harness._run_estimators

        def cleared(*args):
            interp._LAST_GEOMETRY = None
            return real_run(*args)

        monkeypatch.setattr(harness, "_run_estimators", cleared)
        starts.clear()
        assert strip_runtimes(run_benchmark(config)) == serial
        assert starts == []

    def test_pickled_sweep_keeps_its_prefix_chain(self, monkeypatch):
        # A spawn or forkserver pool pickles its initializer's arguments, the
        # sweep with its whole dictionaries tuple, in one pickle.  The copy
        # keeps each stack's prefix chain, so each K's schemes still start
        # from the geometry the K before left, with the original's records.
        config = tiny_config(dict_sizes=(2, 3, 5))
        geometry = make_geometry(config)
        rng, nested = harness._dictionary_rng(config, 0), []
        for k in config.dict_sizes:
            prefix = nested[-1] if nested else None
            nested.append(build_dictionary(config, k, rng, geometry, prefix=prefix))
        sweep = (config, geometry, (tuple(nested),))
        copy = pickle.loads(pickle.dumps(sweep))
        starts = []
        real_start = interp._QueryGeometry._start_from

        def start_from(geometry, prefix):
            starts.append((len(prefix.points), len(geometry.points)))
            real_start(geometry, prefix)

        monkeypatch.setattr(interp._QueryGeometry, "_start_from", start_from)
        monkeypatch.setattr(interp, "_LAST_GEOMETRY", None)
        copied = strip_runtimes(harness._run_trial((0, 0), copy))
        assert starts == [(2, 3), (3, 5)]
        monkeypatch.setattr(interp, "_LAST_GEOMETRY", None)
        assert copied == strip_runtimes(harness._run_trial((0, 0), sweep))


class TestNestedStreams:
    """Every size shares the largest size's streams: redraw r's K-dictionary
    is the first K pairs of one stream, and trial t's query is the same at
    every K."""

    SIZES = dict(dict_sizes=(2, 3, 5), n_dictionary_redraws=2)

    @staticmethod
    def recorded(monkeypatch, name):
        calls = []
        real = getattr(harness, name)

        def wrapper(*args, **kwargs):
            result = real(*args, **kwargs)
            calls.append((args, result))
            return result

        monkeypatch.setattr(harness, name, wrapper)
        return calls

    def test_each_dictionary_is_a_prefix_of_the_largest(self, monkeypatch):
        config = tiny_config(**self.SIZES)
        built = self.recorded(monkeypatch, "build_dictionary")
        draws = self.recorded(monkeypatch, "_draw_pair")
        run_benchmark(config)
        sizes = [args[1] for args, _ in built]
        assert sizes == [2, 2, 3, 3, 5, 5]  # ascending K, then redraw
        largest = {r: d for r, (_, d) in enumerate(built[-2:])}
        for i, (args, d) in enumerate(built):
            big = largest[i % 2]
            for side in ("uplinks", "downlinks"):
                assert np.array_equal(getattr(d, side).mats, getattr(big, side).mats[: len(d)])
        assert not np.array_equal(largest[0].uplinks.mats, largest[1].uplinks.mats)
        # every pair is drawn once: 5 per redraw, then one query per task
        tasks = len(config.dict_sizes) * 2 * config.n_queries
        assert len(draws) == 5 * 2 + tasks

    def test_query_is_the_same_at_every_size(self, monkeypatch):
        config = tiny_config(**self.SIZES)
        cases = self.recorded(monkeypatch, "_build_case")
        records = run_benchmark(config)
        queries = {}
        for _, case in cases:
            queries.setdefault(case.trial, []).append(case)
        assert sorted(queries) == [0, 1, 2, 3]
        for trial_cases in queries.values():
            assert sorted(c.dict_size for c in trial_cases) == [2, 3, 5]
            for c in trial_cases[1:]:
                assert np.array_equal(c.query_ul.mat, trial_cases[0].query_ul.mat)
                assert np.array_equal(c.truth_dl.mat, trial_cases[0].truth_dl.mat)
        # the baselines never read the dictionary, perfect feedback included
        baseline = {}
        for r in records:
            if not r.metric:
                baseline.setdefault((r.estimator, r.trial), set()).add(r.mse)
        assert all(len(v) == 1 for v in baseline.values())

    def test_largest_size_equals_a_single_size_run(self):
        nested = strip_runtimes(run_benchmark(tiny_config(**self.SIZES)))
        single = strip_runtimes(
            run_benchmark(tiny_config(dict_sizes=(5,), n_dictionary_redraws=2))
        )
        assert [r for r in nested if r.dict_size == 5] == single

    def test_unsorted_sizes_give_the_same_records(self):
        config = tiny_config(**self.SIZES)
        shuffled = tiny_config(**self.SIZES | {"dict_sizes": (3, 5, 2)})
        assert strip_runtimes(run_benchmark(shuffled)) == strip_runtimes(run_benchmark(config))

    def test_workers_do_not_change_the_csv(self, tmp_path):
        config = tiny_config(**self.SIZES)
        out1, out2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
        emit_csv(strip_runtimes(run_benchmark(config, n_workers=1)), out1)
        emit_csv(strip_runtimes(run_benchmark(config, n_workers=2)), out2)
        assert out1.read_bytes() == out2.read_bytes()

    def test_prefix_must_be_shorter(self):
        config = tiny_config()
        prefix = build_dictionary(config, 2, rng_for(9))
        with pytest.raises(ValueError, match="must be > 2"):
            build_dictionary(config, 2, rng_for(9), prefix=prefix)


class TestCsv:
    def test_empty_records_header_only(self, tmp_path):
        path = tmp_path / "empty.csv"
        emit_csv([], path)
        assert path.read_text() == "estimator,metric,K,trial,mse,runtime_ns,flags\n"

    def test_two_records_three_lines(self, tmp_path):
        path = tmp_path / "two.csv"
        records = [
            ResultRecord("kernel", "euclidean", 3, 0, 0.5, 100, ()),
            ResultRecord("kernel", "euclidean", 3, 1, None, 50, ("failed:ValueError",)),
        ]
        emit_csv(records, path)
        lines = path.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1] == "kernel,euclidean,3,0,0.5,100,"
        assert lines[2] == "kernel,euclidean,3,1,,50,failed:ValueError"

    def test_round_trip(self, tmp_path):
        path = tmp_path / "rt.csv"
        records = run_benchmark(tiny_config())
        emit_csv(records, path)
        assert read_csv(path) == sorted(
            records, key=lambda r: (r.estimator, r.metric, r.dict_size, r.trial)
        )

    def test_failure_message_round_trip(self, tmp_path, monkeypatch):
        def raise_with_message(*args):
            raise RuntimeError("Maximum number of iterations; reached.\nsecond  line")

        monkeypatch.setattr("covcast.harness.estimate_downlink", raise_with_message)
        records = run_benchmark(tiny_config())
        failed = [r for r in records if r.failed]
        flags = ("failed:RuntimeError", "Maximum number of iterations, reached. second line")
        assert failed and all(r.flags == flags for r in failed)
        path = tmp_path / "failed.csv"
        emit_csv(records, path)
        assert read_csv(path) == records

    def test_rows_sorted(self, tmp_path):
        path = tmp_path / "sorted.csv"
        records = [
            ResultRecord("b", "x", 1, 0, 1.0, 0, ()),
            ResultRecord("a", "y", 2, 1, 1.0, 0, ()),
            ResultRecord("a", "y", 2, 0, 1.0, 0, ()),
            ResultRecord("a", "x", 9, 0, 1.0, 0, ()),
        ]
        emit_csv(records, path)
        keys = [
            (r.estimator, r.metric, r.dict_size, r.trial) for r in read_csv(path)
        ]
        assert keys == sorted(keys)

    def test_unwritable_path(self, tmp_path):
        with pytest.raises(OSError, match="cannot write"):
            emit_csv([], tmp_path / "no" / "such" / "dir.csv")


class TestSummarize:
    def test_single_record(self):
        cells = summarize([ResultRecord("a", "m", 1, 0, 0.5, 10, ())])
        assert cells[("a", "m", 1)].mean_mse == 0.5
        assert cells[("a", "m", 1)].count == 1

    def test_two_record_mean(self):
        cells = summarize(
            [
                ResultRecord("a", "m", 1, 0, 0.2, 10, ()),
                ResultRecord("a", "m", 1, 1, 0.4, 30, ()),
            ]
        )
        assert cells[("a", "m", 1)].mean_mse == pytest.approx(0.3)
        assert cells[("a", "m", 1)].mean_runtime_ns == pytest.approx(20.0)

    def test_failed_records_excluded(self):
        cells = summarize(
            [
                ResultRecord("a", "m", 1, 0, 0.2, 10, ()),
                ResultRecord("a", "m", 1, 1, None, 10, ("failed:X",)),
                ResultRecord("b", "m", 1, 0, None, 10, ("failed:X",)),
            ]
        )
        assert cells[("a", "m", 1)].count == 1
        assert cells[("a", "m", 1)].mean_mse == pytest.approx(0.2)
        assert cells[("b", "m", 1)].count == 0
        assert cells[("b", "m", 1)].mean_mse is None

    def test_matches_independent_csv_aggregation(self, tmp_path):
        import csv as csvmod
        from collections import defaultdict

        path = tmp_path / "agg.csv"
        records = run_benchmark(tiny_config())
        emit_csv(records, path)

        sums = defaultdict(lambda: [0, 0.0])
        with path.open() as fh:
            for row in csvmod.DictReader(fh):
                if row["mse"] == "":
                    continue
                key = (row["estimator"], row["metric"], int(row["K"]))
                sums[key][0] += 1
                sums[key][1] += float(row["mse"])

        cells = summarize(records)
        for key, (count, total) in sums.items():
            assert cells[key].count == count
            assert abs(cells[key].mean_mse - total / count) < 1e-12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            summarize([])


class TestEstimatorTable:
    def test_estimators_are_looked_up_when_called(self, monkeypatch):
        # run and bench share one table, which must call whatever the module
        # attributes hold at call time, so wrappers set after import see
        # every estimate.
        names = ("estimate_downlink", "no_conversion", "spline_convert", "perfect_feedback")
        seen = []
        for name in names:
            real = getattr(harness, name)

            def wrapper(*args, _real=real, _name=name, **kwargs):
                seen.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(harness, name, wrapper)
        config = tiny_config(
            baselines=(
                BaselineKind.NO_CONVERSION,
                BaselineKind.SPLINE,
                BaselineKind.PERFECT_FEEDBACK,
            )
        )
        records = run_benchmark(config)
        assert set(seen) == set(names)
        assert len(seen) == len(records)
        seen.clear()
        timing_bench(config, n_calls=1, n_warmup=0)
        assert seen == ["estimate_downlink"] * len(config.schemes) + list(names[1:])


class TestTimingBench:
    def test_every_call_builds_a_fresh_geometry(self, monkeypatch):
        # Each call gets its own copy of the query, so it times the
        # estimator's whole per-query cost, not the geometry an earlier call
        # on the same query left behind.
        config = tiny_config()
        built = []
        real = interp._QueryGeometry

        class Recorded(real):
            __slots__ = ()

            def __init__(self, dictionary, query):
                built.append(query)
                super().__init__(dictionary, query)

        monkeypatch.setattr(interp, "_QueryGeometry", Recorded)
        timing_bench(config, n_calls=4, n_warmup=2)
        assert len(built) == len(config.schemes) * (4 + 2)
        assert len({id(q) for q in built}) == len(built)

    def test_positive_times_and_call_counts(self):
        config = tiny_config()
        stats_list = timing_bench(config, n_calls=5, n_warmup=1)
        assert len(stats_list) == len(config.schemes) + len(config.baselines)
        for s in stats_list:
            assert s.calls == 5
            assert s.median_ns > 0 and s.mean_ns > 0
