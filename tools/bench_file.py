"""Write one BENCH_<n>.json: every benchmark number of this tree and the
machine it ran on.

    python3 tools/bench_file.py                      # every workload, full runs
    python3 tools/bench_file.py --workload online-k500 --seconds 1 --out /tmp/b.json

The workloads and the run length default to those of ``BENCHMARK.json``.
For each workload the file holds the end-to-end metrics of one
``perfbench/run.py --trace 0`` run and the per-layer metrics of one
``--trace 1`` run at seed 7, each in its own process, with the ``correct``,
``attempted`` and ``failed`` counts of both.  It also holds the per-call
table of ``covcast.harness.timing_bench`` on ``configs/desk_ula.cfg`` (what
``covcast bench`` prints) and the machine: core count, Python, numpy and
scipy versions, numpy's BLAS, ``OPENBLAS_NUM_THREADS`` and
``parallel_speedup``, how many cores the host grants while it runs
(:func:`parallel_speedup`).  Without
``--out`` the file is ``BENCH_<n>.json`` at the repository root, ``n`` one
more than the highest already there.  The exit status is 1 when a run fails
its checks.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import re
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEED = 7
BENCH_CALLS = 50
# Rounds of the probe workload: about 0.3 s on one core.
PROBE_ROUNDS = 600


def perfbench(workload: str, seconds: float, trace: int) -> dict:
    """One ``perfbench/run.py`` run; its last line of output is the result."""
    out = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(SEED), "--seconds", str(seconds), "--trace", str(trace)],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def per_call_table() -> list[dict]:
    from covcast.config import parse_config
    from covcast.harness import timing_bench

    stats = timing_bench(parse_config(ROOT / "configs" / "desk_ula.cfg"), n_calls=BENCH_CALLS)
    return [
        {"estimator": s.estimator, "metric": s.metric, "calls": s.calls,
         "median_ms": s.median_ns / 1e6, "mean_ms": s.mean_ns / 1e6}
        for s in stats
    ]


def _probe_work() -> float:
    """A fixed numpy workload of about 0.3 s on one core, the arithmetic of
    a paper-scale pair: complex exponentials and products of a (1,000, 10)
    array, ``PROBE_ROUNDS`` times.  Returns its wall time."""
    import numpy as np

    x = np.random.default_rng(0).uniform(0.0, 1e3, size=(1000, 10))
    start = time.perf_counter()
    for _ in range(PROBE_ROUNDS):
        phase = np.exp(2j * np.pi * x)
        phase @ (phase.T @ phase.conj())
    return time.perf_counter() - start


def _probe_process(barrier, done) -> None:
    import numpy  # noqa: F401 - before the barrier, outside the timed part

    barrier.wait()
    done.put(_probe_work())


def parallel_speedup() -> float:
    """The probe workload run twice in this process, over the wall time of
    running it once in each of two processes at the same time: about 2 when
    the host grants two free cores, about 1 when it grants one."""
    serial = _probe_work() + _probe_work()
    context = multiprocessing.get_context("spawn")
    barrier, done = context.Barrier(3), context.SimpleQueue()
    processes = [context.Process(target=_probe_process, args=(barrier, done)) for _ in range(2)]
    for process in processes:
        process.start()
    barrier.wait()  # both processes are ready to start the workload
    start = time.perf_counter()
    for _ in processes:
        done.get()
    parallel = time.perf_counter() - start
    for process in processes:
        process.join()
    return serial / parallel


def machine() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {key: blas.get(key) for key in ("name", "version", "openblas configuration")},
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "parallel_speedup": parallel_speedup(),
    }


def commit() -> str | None:
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, check=True,
                              capture_output=True, text=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               cwd=ROOT, check=True, capture_output=True, text=True).stdout
    except (OSError, subprocess.CalledProcessError):
        return None
    return head + ("-dirty" if dirty.strip() else "")


def next_bench_path() -> Path:
    taken = [int(m.group(1)) for p in ROOT.glob("BENCH_*.json")
             if (m := re.fullmatch(r"BENCH_(\d+)\.json", p.name))]
    return ROOT / f"BENCH_{max(taken, default=0) + 1}.json"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS,
                        help="repeat to run several; default: every workload in BENCHMARK.json")
    parser.add_argument("--seconds", type=float, default=BENCHMARK["run_seconds"])
    parser.add_argument("--out", type=Path)
    args = parser.parse_args(argv)

    # perfbench/run.py makes the same choice; numpy reads it at import.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))

    result = {
        "commit": commit(),
        "machine": machine(),
        "command": {"seed": SEED, "seconds": args.seconds},
        "workloads": {},
    }
    for workload in args.workload or WORKLOADS:
        end_to_end = perfbench(workload, args.seconds, 0)
        layers = perfbench(workload, args.seconds, 1)
        result["workloads"][workload] = {
            "end_to_end": end_to_end,
            "per_layer": layers,
            "correct": end_to_end["correct"] and layers["correct"],
            "failed": end_to_end["failed"] + layers["failed"],
        }
    result["per_call_desk_ula"] = per_call_table()
    result["correct"] = all(w["correct"] for w in result["workloads"].values())
    result["failed"] = sum(w["failed"] for w in result["workloads"].values())

    path = args.out or next_bench_path()
    path.write_text(json.dumps(result, indent=1) + "\n")
    print(path)
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
