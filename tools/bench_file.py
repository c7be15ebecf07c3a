"""Write one BENCH_<n>.json: every benchmark number of this tree and the
machine it ran on, or a paired before/after against another revision.

    python3 tools/bench_file.py                      # every workload, full runs
    python3 tools/bench_file.py --workload online-k500 --seconds 1 --out /tmp/b.json
    python3 tools/bench_file.py --against HEAD~1     # 10 alternating pairs per workload

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

With ``--against REV`` the file holds pairs in place of the single runs:
REV is checked out of a local ``git clone`` of this repository in a
temporary directory (no network), and for each workload ``--pairs`` (10)
pairs of ``perfbench/run.py --trace 0`` runs alternate REV and this tree,
pair ``i`` at seed ``i + 1`` on both sides, with the side that runs first
switching from pair to pair.  The host's drift then falls on both sides of
each pair.  The file records each pair's end-to-end values, each side's
median and quartiles per metric, and in how many pairs this tree did better
than REV (by each metric's direction in ``BENCHMARK.json``).
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEED = 7
BENCH_CALLS = 50
# Rounds of the probe workload: about 0.3 s on one core.
PROBE_ROUNDS = 600


def perfbench(workload: str, seconds: float, trace: int, root: Path = ROOT,
              seed: int = SEED) -> dict:
    """One ``perfbench/run.py`` run of the tree at ``root``; its last line
    of output is the result."""
    out = subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        check=True, stdout=subprocess.PIPE, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def _spread(values: list[float]) -> dict:
    """Median and quartiles (``statistics.quantiles``' exclusive method)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def paired(workload: str, seconds: float, pairs: int, against: Path) -> dict:
    """``pairs`` alternating ``--trace 0`` pairs of the tree at ``against``
    and this tree on ``workload``, and their summary per end-to-end metric."""
    runs = []
    for i in range(pairs):
        sides = ("against", "tree") if i % 2 == 0 else ("tree", "against")
        result = {"seed": i + 1, "first": sides[0]}
        for side in sides:
            result[side] = perfbench(workload, seconds, 0, against if side == "against" else ROOT,
                                     seed=i + 1)
        runs.append(result)
    summary = {}
    for metric in BENCHMARK["end_to_end"]:
        name, sign = metric["name"], 1 if metric["better"] == "higher" else -1
        value = {side: [run[side]["metrics"][name]["value"] for run in runs]
                 for side in ("against", "tree")}
        summary[name] = {
            "against": _spread(value["against"]),
            "tree": _spread(value["tree"]),
            "tree_wins": sum(sign * (t - a) > 0 for a, t in zip(value["against"], value["tree"])),
        }
    sides = [run[side] for run in runs for side in ("against", "tree")]
    return {
        "pairs": runs,
        "summary": summary,
        "correct": all(r["correct"] for r in sides),
        "failed": sum(r["failed"] for r in sides),
    }


def checkout(rev: str, into: Path) -> str:
    """Check ``rev`` of this repository out at ``into``, a local clone;
    returns its commit."""
    sha = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                         check=True, capture_output=True, text=True).stdout.strip()
    subprocess.run(["git", "clone", "--quiet", "--no-checkout", str(ROOT), str(into)], check=True)
    subprocess.run(["git", "checkout", "--quiet", sha], cwd=into, check=True)
    return sha


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
    parser.add_argument("--against", metavar="REV",
                        help="pair this tree with revision REV of this repository")
    parser.add_argument("--pairs", type=int, default=10,
                        help="pairs per workload with --against (default: 10)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    # perfbench/run.py makes the same choice; numpy reads it at import.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path.insert(0, str(ROOT / "src"))

    result = {
        "commit": commit(),
        "machine": machine(),
        "command": {"seed": SEED, "seconds": args.seconds},
        "workloads": {},
    }
    workloads = args.workload or WORKLOADS
    if args.against:
        result["command"] = {"seeds": f"1-{args.pairs}", "seconds": args.seconds,
                             "against": args.against, "pairs": args.pairs}
        with tempfile.TemporaryDirectory() as tmp:
            result["against"] = checkout(args.against, Path(tmp) / "against")
            for workload in workloads:
                result["workloads"][workload] = paired(
                    workload, args.seconds, args.pairs, Path(tmp) / "against")
    else:
        for workload in workloads:
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
