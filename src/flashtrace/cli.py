"""Command-line front end.

    flashtrace run      --config exp.ini --out results/
    flashtrace stats    --config exp.ini
    flashtrace plotdata --config exp.ini --out results/
    flashtrace overhead --config exp.ini --runs 5

Without --config a built-in default spec runs Postmark on a 400-block
partition of the default chip.  --partition, --log-size and
--no-tasknames replace fields of ``spec.monitor``; --partition names a
partition as ``traced_partition`` does: a label, else an index.

Every scenario value is checked when the config is loaded and again
after the flags are applied.  ``main`` is the one place that turns an
error into a message and an exit code: 0 success, 1 configuration error
(``config error: ...``), 2 scenario failure (``scenario failed: ...``).
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .config import (ConfigError, ScenarioSpec, default_spec,
                     load_scenario_spec, validate)
from .ffs import FfsError
from .nand import FlashError
from .runner import (SPATIAL_FILE, STATS_FILE, TEMPORAL_FILE, compute_stats,
                     execute_scenario, overhead_harness, run_scenario,
                     write_plot_data)
from .analysis import render_stats

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


def _add_common_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="PATH",
                        help="scenario config file (INI); omit for the "
                             "built-in default scenario")
    parser.add_argument("--partition", metavar="ID",
                        help="partition the monitor traces, by label, else "
                             "by index from 0 (default: the config's "
                             "traced_partition, else the whole chip; without "
                             "--config, the 400-block 'main' partition)")
    parser.add_argument("--log-size", type=int, metavar="N",
                        help="temporal log capacity in events")
    parser.add_argument("--no-tasknames", action="store_true",
                        help="do not record task names in the log")
    parser.add_argument("--seed", type=int, metavar="N",
                        help="Postmark RNG seed (rng_seed) override; a "
                             "config error on any other scenario kind")
    parser.add_argument("--out", metavar="DIR", default=".",
                        help="output directory (default: current)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flashtrace",
        description="Simulated raw-NAND storage stack with an attachable "
                    "flash operation monitor.")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run the scenario and write the "
                                     "spatial view, temporal log, and stats")
    stats = sub.add_parser("stats", help="run the scenario and print stats")
    plot = sub.add_parser("plotdata", help="run the scenario and write "
                                           "per-kind plot data files")
    overhead = sub.add_parser("overhead", help="measure monitor CPU overhead")
    overhead.add_argument("--runs", type=int, default=5, metavar="N",
                          help="paired runs per arm (default 5)")
    for command in (run, stats, plot, overhead):
        _add_common_flags(command)
    return parser


def _spec_from_args(args: argparse.Namespace) -> ScenarioSpec:
    spec = load_scenario_spec(args.config) if args.config else default_spec()
    monitor = {}
    if args.partition is not None:
        monitor["traced_partition"] = args.partition
    if args.log_size is not None:
        monitor["log_capacity"] = args.log_size
    if args.no_tasknames:
        monitor["record_task_names"] = False
    try:
        spec.monitor = replace(spec.monitor, **monitor)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if args.seed is not None:
        spec.params["rng_seed"] = args.seed
    spec.out_dir = args.out
    validate(spec)
    return spec


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        spec = _spec_from_args(args)
        if args.command == "run":
            run_scenario(spec)
            print(f"wrote {SPATIAL_FILE}, {TEMPORAL_FILE}, {STATS_FILE} "
                  f"to {spec.out_dir}")
        elif args.command == "stats":
            result = execute_scenario(spec)
            print(render_stats(compute_stats(result.monitor)), end="")
        elif args.command == "plotdata":
            names = write_plot_data(spec, execute_scenario(spec))
            print(f"wrote {', '.join(names)} to {spec.out_dir}")
        else:
            if args.runs < 1:
                raise ConfigError("--runs must be >= 1")
            percent = overhead_harness(spec, runs=args.runs)
            print(f"monitor overhead: {percent:+.2f}% host CPU "
                  f"({args.runs} paired runs)")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (FlashError, FfsError, OSError) as exc:
        print(f"scenario failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
