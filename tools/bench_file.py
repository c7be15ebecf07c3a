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
scipy versions, numpy's BLAS and ``OPENBLAS_NUM_THREADS``.  Without
``--out`` the file is ``BENCH_<n>.json`` at the repository root, ``n`` one
more than the highest already there.  The exit status is 1 when a run fails
its checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCHMARK["workloads"]]
SEED = 7
BENCH_CALLS = 50


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
