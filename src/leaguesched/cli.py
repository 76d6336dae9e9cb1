"""Command-line front end.

Subcommands: `generate` writes a synthetic trace, `schedule` scores one trace
with one scheduler, `bench` runs the full benchmark grid, and `plot`
re-renders the chart from an existing CSV. Exit codes: 0 success, 1 usage
error, 2 unreadable or malformed input. A command refused with exit 2 writes
no file: every output is rendered whole in memory before any is written.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import sys
from pathlib import Path
from typing import IO, Callable

from .baselines import SchedulerKind, bef, fcfs, ljf
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
    g.set_defaults(handler=_cmd_generate)

    s = sub.add_parser("schedule", help="schedule one trace and print the makespan")
    s.add_argument("--trace", required=True, help="trace file path")
    s.add_argument("--vms", type=int, required=True, help="number of VMs")
    s.add_argument("--vm-mips", type=float, default=1000.0, help="speed of every VM (MIPS)")
    s.add_argument("--algo", choices=[kind.name.lower() for kind in SchedulerKind], required=True)
    s.add_argument("--seed", type=int, default=0, help="search seed (lca only)")
    s.add_argument("--json", action="store_true", help="machine-readable output")
    s.set_defaults(handler=_cmd_schedule)

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
    b.set_defaults(handler=_cmd_bench)

    p = sub.add_parser("plot", help="render the chart from an existing benchmark CSV")
    p.add_argument("--csv", required=True)
    p.add_argument("--out", required=True, help="SVG output path")
    p.set_defaults(handler=_cmd_plot)
    return parser


def _write(*outputs: tuple[str | None, Callable[[IO[str]], object]]) -> None:
    """Render every (path, writer) output in memory, then write each to its path, or
    to stdout when the path is None; a writer that raises leaves every file untouched."""
    texts = []
    for path, writer in outputs:
        writer(sink := io.StringIO())
        texts.append((path, sink.getvalue()))
    for path, text in texts:
        if path:
            Path(path).write_text(text, encoding="utf-8", newline="")
        else:
            sys.stdout.write(text)


def _cmd_generate(args: argparse.Namespace) -> int:
    tasks = generate_synthetic(WorkloadSpec(args.n, args.min_mi, args.max_mi, seed=args.seed))
    _write((args.out, lambda sink: dump_trace(tasks, sink)))
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    params = LcaParams(seed=args.seed)  # built for every algorithm, so a bad --seed is always refused
    tasks = load_trace(Path(args.trace).read_text(encoding="utf-8"))
    vms = tuple(VirtualMachine(id=v, speed_mips=args.vm_mips) for v in range(args.vms))
    instance = ProblemInstance(tuple(tasks), vms)
    kind = SchedulerKind[args.algo.upper()]
    if kind is SchedulerKind.LCA:
        assignment = run(params, instance).best_assignment
    else:  # a greedy baseline by code, looked up per call so a rebound module global is seen
        assignment = (fcfs, ljf, bef)[kind](instance)
    result = makespan(instance, assignment)
    if args.json:
        print(json.dumps({"algorithm": args.algo, "makespan_s": result.makespan_s,
                          "vm_load_s": list(result.vm_load_s)}))
    else:
        print(f"makespan: {result.makespan_s:.6f} s")
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    config = ExperimentConfig()
    if args.config:
        config = config_from_dict(json.loads(Path(args.config).read_text(encoding="utf-8")))
    if args.seed is not None:
        config = dataclasses.replace(config, master_seed=args.seed)
    records = run_experiment(config, measure_wall_time=args.time)
    outputs = [(args.out, lambda sink: emit_csv(records, sink))]
    if args.svg:
        outputs.append((args.svg, lambda sink: emit_svg_chart(aggregate(records), sink)))
    _write(*outputs)
    if args.out:
        print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    if args.svg:
        print(f"wrote chart to {args.svg}", file=sys.stderr)
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    records = parse_csv(Path(args.csv).read_text(encoding="utf-8"))
    _write((args.out, lambda sink: emit_svg_chart(aggregate(records), sink)))
    return 0


def dispatch(argv: list[str]) -> int:
    """Parse argv and run one subcommand; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse handles --help and usage errors by exiting
        return 0 if exc.code in (0, None) else 1
    try:
        return args.handler(args)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
