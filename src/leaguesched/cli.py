"""Command-line front end.

Subcommands: `generate` writes a synthetic trace, `schedule` scores one trace
with one scheduler, `bench` runs the full benchmark grid, and `plot`
re-renders the chart from an existing CSV. Exit codes: 0 success, 1 usage
error, 2 unreadable or malformed input.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .baselines import bef, fcfs, ljf
from .experiment import (
    ExperimentConfig,
    aggregate,
    config_from_dict,
    emit_csv,
    emit_svg_chart,
    parse_csv,
    run_experiment,
)
from .lca import LcaParams, run
from .model import ProblemInstance, VirtualMachine, makespan
from .workload import WorkloadSpec, dump_trace, generate_synthetic, load_trace


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leaguesched",
        description="Task scheduling onto VM fleets: league-championship search, "
        "greedy baselines, and a reproducible benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic task trace")
    g.add_argument("--n", type=int, required=True, help="number of tasks")
    g.add_argument("--min-mi", type=float, default=200.0, help="minimum task length (MI)")
    g.add_argument("--max-mi", type=float, default=500.0, help="maximum task length (MI)")
    g.add_argument("--seed", type=int, required=True)
    g.add_argument("--out", help="trace file path (default: stdout)")

    s = sub.add_parser("schedule", help="schedule one trace and print the makespan")
    s.add_argument("--trace", required=True, help="trace file path")
    s.add_argument("--vms", type=int, required=True, help="number of VMs")
    s.add_argument("--vm-mips", type=float, default=1000.0, help="speed of every VM (MIPS)")
    s.add_argument("--algo", choices=["fcfs", "ljf", "bef", "lca"], required=True)
    s.add_argument("--seed", type=int, default=0, help="search seed (lca only)")
    s.add_argument("--json", action="store_true", help="machine-readable output")

    b = sub.add_parser("bench", help="run the scheduler x task-count benchmark grid")
    b.add_argument("--config", help="JSON config file (defaults used for absent keys)")
    b.add_argument("--out", help="CSV output path (default: stdout)")
    b.add_argument("--svg", help="also render the mean-makespan chart to this path")
    b.add_argument("--seed", type=int, default=None, help="override the master seed")
    b.add_argument(
        "--time",
        action="store_true",
        help="fill wall_ms from the clock (makes the CSV non-reproducible)",
    )

    p = sub.add_parser("plot", help="render the chart from an existing benchmark CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True, help="SVG output path")
    return parser


def _cmd_generate(args: argparse.Namespace) -> int:
    tasks = generate_synthetic(
        WorkloadSpec(args.n, args.min_mi, args.max_mi, seed=args.seed)
    )
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as sink:
            dump_trace(tasks, sink)
    else:
        dump_trace(tasks, sys.stdout)
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    params = LcaParams(seed=args.seed)  # built for every algorithm, so a bad --seed is always refused
    with open(args.trace, "r", encoding="utf-8") as f:
        tasks = load_trace(f)
    vms = tuple(VirtualMachine(id=v, speed_mips=args.vm_mips) for v in range(args.vms))
    instance = ProblemInstance(tuple(tasks), vms)
    if args.algo == "lca":
        assignment = run(params, instance).best_assignment
    else:
        assignment = {"fcfs": fcfs, "ljf": ljf, "bef": bef}[args.algo](instance)
    result = makespan(instance, assignment)
    if args.json:
        print(
            json.dumps(
                {
                    "algorithm": args.algo,
                    "makespan_s": result.makespan_s,
                    "vm_load_s": list(result.vm_load_s),
                }
            )
        )
    else:
        print(f"makespan: {result.makespan_s:.6f} s")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    if args.config:
        with open(args.config, "r", encoding="utf-8") as f:
            config = config_from_dict(json.load(f))
    else:
        config = ExperimentConfig()
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    records = run_experiment(config, measure_wall_time=args.time)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="") as sink:
            emit_csv(records, sink)
        print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    else:
        emit_csv(records, sys.stdout)
    if args.svg:
        with open(args.svg, "w", encoding="utf-8", newline="") as sink:
            emit_svg_chart(aggregate(records), sink)
        print(f"wrote chart to {args.svg}", file=sys.stderr)
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    with open(args.csv, "r", encoding="utf-8") as f:
        records = parse_csv(f)
    with open(args.out, "w", encoding="utf-8", newline="") as sink:
        emit_svg_chart(aggregate(records), sink)
    return 0


_HANDLERS = {
    "generate": _cmd_generate,
    "schedule": _cmd_schedule,
    "bench": _cmd_bench,
    "plot": _cmd_plot,
}


def dispatch(argv: list[str]) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors by exiting
        return 0 if exc.code in (0, None) else 1
    try:
        return _HANDLERS[args.command](args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
