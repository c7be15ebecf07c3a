"""Command-line interface.

Subcommands:

* ``covcast run --config <path> --out <csv>`` runs the benchmark sweep and
  writes one CSV row per (estimator, query).  Output is byte-reproducible
  for a fixed config; pass ``--timings`` to keep measured wall times in the
  runtime_ns column (at the cost of reproducibility of that column).
* ``covcast bench --config <path>`` times each configured estimator.
* ``covcast validate --config <path>`` parses the config and echoes the
  effective settings.

``--seed`` overrides the config's master_seed.  Exit code 0 on success,
2 on bad arguments (such as ``--workers 0``), config or I/O errors.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .config import ConfigError, format_config, parse_config
from .harness import run_benchmark, strip_runtimes, summarize, timing_bench, emit_csv


def _at_least_one(raw: str) -> int:
    """argparse type: an integer >= 1."""
    try:
        value = int(raw)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {raw!r}")
    return value


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="scenario config file")
    parser.add_argument(
        "--seed", type=int, default=None, metavar="U64",
        help="override the config's master_seed",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covcast",
        description="Downlink covariance estimation benchmark",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run the Monte-Carlo sweep and write CSV")
    _add_common(run)
    run.add_argument("--out", required=True, help="output CSV path")
    run.add_argument(
        "--workers", type=_at_least_one, default=1,
        help="parallel worker processes (default 1); results are identical "
        "for any worker count",
    )
    run.add_argument(
        "--timings", action="store_true",
        help="keep measured per-call wall times in the CSV runtime_ns column",
    )

    bench = sub.add_parser("bench", help="time each configured estimator")
    _add_common(bench)
    bench.add_argument(
        "--calls", type=_at_least_one, default=50,
        help="timed calls per estimator (default 50)",
    )

    validate = sub.add_parser("validate", help="parse and echo the effective config")
    _add_common(validate)

    return parser


def _load_config(args):
    config = parse_config(args.config)
    if args.seed is not None:
        config = replace(config, master_seed=args.seed)
    return config


def _cmd_run(args) -> int:
    config = _load_config(args)
    records = run_benchmark(config, n_workers=args.workers)
    if not args.timings:
        records = strip_runtimes(records)
    emit_csv(records, args.out)
    print(f"wrote {len(records)} records to {args.out}")
    for (estimator, metric, k), cell in sorted(summarize(records).items()):
        label = f"{estimator}/{metric}" if metric else estimator
        if cell.count == 0:
            print(f"  K={k:<5d} {label:<35s} all {config.n_queries} trials failed")
        else:
            print(f"  K={k:<5d} {label:<35s} mean mse = {cell.mean_mse:.6g}  (n={cell.count})")
    return 0


def _cmd_bench(args) -> int:
    config = _load_config(args)
    stats = timing_bench(config, n_calls=args.calls)
    print(f"{'estimator':<35s} {'calls':>5s} {'median':>12s} {'mean':>12s}")
    for stat in stats:
        label = f"{stat.estimator}/{stat.metric}" if stat.metric else stat.estimator
        print(
            f"{label:<35s} {stat.calls:>5d} "
            f"{stat.median_ns / 1e6:>10.3f}ms {stat.mean_ns / 1e6:>10.3f}ms"
        )
    return 0


def _cmd_validate(args) -> int:
    config = _load_config(args)
    sys.stdout.write(format_config(config))
    return 0


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    handlers = {"run": _cmd_run, "bench": _cmd_bench, "validate": _cmd_validate}
    try:
        return handlers[args.command](args)
    except (ConfigError, OSError) as exc:
        print(f"covcast: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
