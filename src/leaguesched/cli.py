"""Command-line front end.

Subcommands: `generate` writes a synthetic trace, `schedule` scores one trace
with one scheduler, `bench` runs the full benchmark grid, and `plot`
re-renders the chart from an existing CSV. Exit codes: 0 success, 1 usage
error, 2 unreadable or malformed input. A command refused with exit 2 writes
no file: every output is rendered whole in memory and staged beside its path
before any is put in place.
"""

from __future__ import annotations

import argparse
import dataclasses
import io
import json
import os
import sys
from collections import Counter
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
from .model import VM_LIMIT, ProblemInstance, VirtualMachine, check_fields, is_finite, is_integer, makespan, parsed
from .workload import WorkloadSpec, dump_trace, generate_synthetic, load_trace


def _numeral(parse: type) -> Callable[[str], object]:
    """An argparse type reading only the numerals the writers write (model.parsed), named as parse is, so a
    refused text is a usage error worded as for any other: argument --n: invalid int value: '1_2'."""
    def read(text: str) -> object:
        if (value := parsed(parse, text)) is None:
            raise ValueError(text)
        return value
    read.__name__ = parse.__name__
    return read


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="leaguesched",
        description="Task scheduling onto VM fleets: league-championship search, "
        "greedy baselines, and a reproducible benchmark harness.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate", help="write a synthetic task trace")
    g.add_argument("--n", type=_numeral(int), required=True, help="number of tasks")
    g.add_argument("--min-mi", type=_numeral(float), default=200.0, help="minimum task length (MI)")
    g.add_argument("--max-mi", type=_numeral(float), default=500.0, help="maximum task length (MI)")
    g.add_argument("--seed", type=_numeral(int), required=True)
    g.add_argument("--out", help="trace file path (default: stdout)")
    g.set_defaults(handler=_cmd_generate)

    s = sub.add_parser("schedule", help="schedule one trace and print the makespan")
    s.add_argument("--trace", required=True, help="trace file path")
    s.add_argument("--vms", type=_numeral(int), required=True, help="number of VMs")
    s.add_argument("--vm-mips", type=_numeral(float), default=1000.0, help="speed of every VM (MIPS)")
    s.add_argument("--algo", choices=[kind.name.lower() for kind in SchedulerKind], required=True)
    s.add_argument("--seed", type=_numeral(int), default=0, help="search seed (lca only)")
    s.add_argument("--json", action="store_true", help="machine-readable output")
    s.set_defaults(handler=_cmd_schedule)

    b = sub.add_parser("bench", help="run the scheduler x task-count benchmark grid")
    b.add_argument("--config", help="JSON config file (defaults used for absent keys)")
    b.add_argument("--out", help="CSV output path (default: stdout)")
    b.add_argument("--svg", help="also render the mean-makespan chart to this path")
    b.add_argument("--seed", type=_numeral(int), default=None, help="override the master seed")
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
    """Render every (path, writer) output in memory and stage each file beside its real path (symlinks followed),
    then put every staged file in place. Last, write the rest: to stdout where the path is None, and in place
    where it names no regular file, such as /dev/null. A writer or a stage that fails leaves every file untouched.
    """
    texts = []
    for path, writer in outputs:
        writer(sink := io.StringIO())
        real = path and os.path.realpath(path)
        if real and os.path.isdir(real):
            raise IsADirectoryError(f"{path} is a directory")
        texts.append((real, sink.getvalue(), bool(real) and (os.path.isfile(real) or not os.path.exists(real))))
    staged = []  # (staged file, its real path)
    try:
        for k, (path, text, stage) in enumerate(texts):
            if stage:
                with open(temp := f"{path}.{os.getpid()}-{k}.tmp", "x", encoding="utf-8", newline="") as sink:
                    staged.append((temp, path))
                    sink.write(text)
        for temp, path in staged:
            os.replace(temp, path)
    finally:
        for temp, _ in staged:
            Path(temp).unlink(missing_ok=True)
    for path, text, stage in texts:
        if not path:
            sys.stdout.write(text)
        elif not stage:
            Path(path).write_text(text, encoding="utf-8", newline="")


def _cmd_generate(args: argparse.Namespace) -> int:
    tasks = generate_synthetic(WorkloadSpec(args.n, args.min_mi, args.max_mi, seed=args.seed))
    _write((args.out, lambda sink: dump_trace(tasks, sink)))
    return 0


def _cmd_schedule(args: argparse.Namespace) -> int:
    params = LcaParams(seed=args.seed)  # built for every algorithm, so a bad --seed is always refused
    check_fields(("vms", is_integer(args.vms) and args.vms >= 1, "an integer >= 1", args.vms),
                 ("vms", args.vms <= VM_LIMIT, f"at most {VM_LIMIT}", args.vms),
                 ("vm_mips", is_finite(args.vm_mips) and args.vm_mips > 0, "a finite positive number", args.vm_mips))
    tasks = load_trace(Path(args.trace).read_text(encoding="utf-8-sig"))
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


def _json_object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's members, refusing by name a key given more than once, which json would keep the last of."""
    counts = Counter(key for key, _ in pairs)
    repeated = [f"{key} must be given once, got {count} values" for key, count in counts.items() if count > 1]
    if repeated:
        raise ValueError("; ".join(repeated))
    return dict(pairs)


def _cmd_bench(args: argparse.Namespace) -> int:
    config = ExperimentConfig()
    if args.config:
        text = Path(args.config).read_text(encoding="utf-8-sig")
        try:
            data = json.loads(text, object_pairs_hook=_json_object)
        except RecursionError:  # json parses nesting by recursion: refused here, not caught in dispatch
            raise ValueError("config must nest its arrays and objects less deeply") from None
        config = config_from_dict(data)
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
    records = parse_csv(Path(args.csv).read_text(encoding="utf-8-sig"))
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
