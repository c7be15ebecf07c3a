"""Run one covcast benchmark workload and print its result as JSON.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With ``--trace 0``
the metrics are the end-to-end ones, measured with no instrumentation but a
timer around dictionary builds; with ``--trace 1`` the same rounds run again
and one more traced round gives the per-layer metrics, whose spans go to
``perfbench/out/``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def main(argv=None) -> int:
    # One OpenBLAS thread per process unless the caller chose a count: with
    # the default of one thread per core, the two sweep workers and their
    # BLAS threads share two cores, and throughput swings between runs by
    # more than any usable bound (see README.md).  Must be set before numpy
    # is imported.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    spans = HERE / "out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
    outcome = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), spans)
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    shown = outcome.layers if args.trace else outcome.metrics
    result = {
        "correct": not outcome.problems,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in shown.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
