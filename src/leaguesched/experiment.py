"""Benchmark grid: schedulers x task counts x repetitions.

Every cell of the grid derives its workload seed from the master seed, and
all schedulers inside a cell score the identical task list (paired
comparison). The league scheduler additionally gets its own search seed per
cell. Records serialize to a canonical CSV (fixed ordering and formatting,
LF endings) so equal configurations produce byte-identical files; wall-clock
timing is therefore opt-in.
"""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field, replace
from typing import IO, Callable, Iterable

from .baselines import SchedulerKind, bef, fcfs, ljf
from .lca import LcaParams, run
from .model import ProblemInstance, VirtualMachine, check_fields, is_finite, is_integer, makespan
from .rng import MASK64, mix64
from .workload import WorkloadSpec, generate_synthetic

CSV_HEADER = "scheduler,n_tasks,rep,seed,makespan_s,evals,wall_ms"

_CHART_COLORS = {
    SchedulerKind.FCFS: "#c44e52",
    SchedulerKind.LJF: "#55a868",
    SchedulerKind.BEF: "#dd8452",
    SchedulerKind.LCA: "#4c72b0",
}


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark grid; construction raises ValueError naming every bad field.

    lca_params.seed is unused: each LCA cell derives its search seed from master_seed."""

    task_counts: tuple[int, ...] = tuple(range(20, 181, 20))
    n_vms: int = 20
    vm_speed_mips: float | tuple[float, ...] = 1000.0
    length_range_mi: tuple[float, float] = (200.0, 500.0)
    repetitions: int = 9
    schedulers: tuple[SchedulerKind, ...] = (
        SchedulerKind.FCFS,
        SchedulerKind.LJF,
        SchedulerKind.BEF,
        SchedulerKind.LCA,
    )
    lca_params: LcaParams = field(default_factory=LcaParams)
    master_seed: int = 42

    def __post_init__(self) -> None:
        # Sequences become tuples; anything else is left for its check to name.
        for name in ("task_counts", "schedulers", "length_range_mi", "vm_speed_mips"):
            value = getattr(self, name)
            if isinstance(value, Iterable) and not isinstance(value, str):
                object.__setattr__(self, name, tuple(value))
        c = self
        speeds = c.vm_speed_mips if isinstance(c.vm_speed_mips, tuple) else (c.vm_speed_mips,)
        lo_hi = c.length_range_mi
        check_fields(
            ("task_counts", isinstance(c.task_counts, tuple) and c.task_counts
             and all(is_integer(n) and n >= 1 for n in c.task_counts),
             "a non-empty list of integers >= 1", c.task_counts),
            ("n_vms", is_integer(c.n_vms) and c.n_vms >= 1, "an integer >= 1", c.n_vms),
            ("vm_speed_mips", all(is_finite(s) and s > 0 for s in speeds)
             and (not isinstance(c.vm_speed_mips, tuple) or len(speeds) == c.n_vms),
             "a finite positive speed, or a list of one per VM", c.vm_speed_mips),
            ("length_range_mi", isinstance(lo_hi, tuple) and len(lo_hi) == 2
             and all(map(is_finite, lo_hi)) and 0 < lo_hi[0] <= lo_hi[1],
             "[min, max] with 0 < min <= max, both finite", lo_hi),
            ("repetitions", is_integer(c.repetitions) and c.repetitions >= 1, "an integer >= 1",
             c.repetitions),
            ("schedulers", isinstance(c.schedulers, tuple) and c.schedulers
             and all(isinstance(k, SchedulerKind) for k in c.schedulers),
             "a non-empty list of schedulers", c.schedulers),
            ("lca_params", isinstance(c.lca_params, LcaParams), "an LcaParams", c.lca_params),
            ("master_seed", is_integer(c.master_seed) and 0 <= c.master_seed < 2**64,
             "a 64-bit unsigned integer", c.master_seed),
        )


@dataclass(frozen=True)
class ExperimentRecord:
    scheduler: SchedulerKind
    n_tasks: int
    rep: int
    seed: int  # cell workload seed, shared by every scheduler in the cell
    makespan_s: float
    evaluations: int  # objective evaluations spent (0 for the greedy baselines)
    wall_time_ms: int


@dataclass(frozen=True)
class Aggregate:
    """Per-cell means/stddevs and per-scheduler grand means over the grid."""

    schedulers: tuple[SchedulerKind, ...]  # sorted by code
    task_counts: tuple[int, ...]  # sorted ascending
    mean_s: dict[tuple[SchedulerKind, int], float]
    std_s: dict[tuple[SchedulerKind, int], float]  # population stddev over repetitions
    grand_mean_s: dict[SchedulerKind, float]


def derive_cell_seed(master_seed: int, n_tasks: int, rep: int) -> int:
    """Workload seed for one (task count, repetition) cell."""
    return mix64((master_seed ^ (n_tasks << 20) ^ rep) & MASK64)


def derive_search_seed(cell_seed: int, scheduler_code: int) -> int:
    """Search seed for a stochastic scheduler inside a cell."""
    return mix64((cell_seed ^ scheduler_code) & MASK64)


def _build_vms(config: ExperimentConfig) -> tuple[VirtualMachine, ...]:
    speeds = config.vm_speed_mips
    if not isinstance(speeds, tuple):
        speeds = (speeds,) * config.n_vms
    return tuple(VirtualMachine(id=v, speed_mips=float(s)) for v, s in enumerate(speeds))


def run_experiment(
    config: ExperimentConfig,
    measure_wall_time: bool = False,
    history_callback: Callable[[ExperimentRecord, list[float]], None] | None = None,
) -> list[ExperimentRecord]:
    """Run the full grid; one record per (scheduler, task count, repetition).

    measure_wall_time fills wall_time_ms from the clock, in whole milliseconds
    rounded up so a timed cell never reads 0, which makes the output
    non-reproducible; it stays 0 by default so the canonical CSV is a pure
    function of the configuration. history_callback, when given, is
    invoked with each LCA record and its week-by-week best-fitness history.
    """
    vms = _build_vms(config)
    records = []
    for n_tasks in config.task_counts:
        for rep in range(config.repetitions):
            cell_seed = derive_cell_seed(config.master_seed, n_tasks, rep)
            tasks = generate_synthetic(WorkloadSpec(n_tasks, *config.length_range_mi, seed=cell_seed))
            instance = ProblemInstance(tuple(tasks), vms)
            for kind in config.schedulers:
                started = time.perf_counter_ns()
                history = None
                if kind is SchedulerKind.LCA:
                    params = replace(config.lca_params, seed=derive_search_seed(cell_seed, kind.value))
                    result = run(params, instance)
                    ms, evals = result.best_makespan_s, result.evaluations
                    history = result.history
                else:
                    assignment = {
                        SchedulerKind.FCFS: fcfs,
                        SchedulerKind.LJF: ljf,
                        SchedulerKind.BEF: bef,
                    }[kind](instance)
                    ms, evals = makespan(instance, assignment).makespan_s, 0
                wall = -((started - time.perf_counter_ns()) // 1_000_000) if measure_wall_time else 0
                record = ExperimentRecord(kind, n_tasks, rep, cell_seed, ms, evals, wall)
                records.append(record)
                if history is not None and history_callback is not None:
                    history_callback(record, history)
    return records


def aggregate(records: Iterable[ExperimentRecord]) -> Aggregate:
    """Means and population stddevs per cell, plus per-scheduler grand means."""
    records = list(records)
    if not records:
        raise ValueError("cannot aggregate an empty record list")
    by_cell: dict[tuple[SchedulerKind, int], list[float]] = {}
    by_kind: dict[SchedulerKind, list[float]] = {}
    for r in records:
        by_cell.setdefault((r.scheduler, r.n_tasks), []).append(r.makespan_s)
        by_kind.setdefault(r.scheduler, []).append(r.makespan_s)
    return Aggregate(
        schedulers=tuple(sorted(by_kind, key=lambda k: k.value)),
        task_counts=tuple(sorted({n for _, n in by_cell})),
        mean_s={cell: statistics.fmean(v) for cell, v in by_cell.items()},
        std_s={cell: statistics.pstdev(v) for cell, v in by_cell.items()},
        grand_mean_s={kind: statistics.fmean(v) for kind, v in by_kind.items()},
    )


def emit_csv(records: Iterable[ExperimentRecord], sink: IO[str]) -> int:
    """Write records in canonical order/formatting; returns bytes written.

    Rows sort by (scheduler code, task count, repetition); makespan carries
    six decimals; LF line endings.
    """
    ordered = sorted(records, key=lambda r: (r.scheduler.value, r.n_tasks, r.rep))
    lines = [CSV_HEADER]
    for r in ordered:
        lines.append(
            f"{r.scheduler.name},{r.n_tasks},{r.rep},{r.seed},"
            f"{r.makespan_s:.6f},{r.evaluations},{r.wall_time_ms}"
        )
    text = "\n".join(lines) + "\n"
    sink.write(text)
    return len(text.encode("utf-8"))


# The CSV columns after the scheduler, in ExperimentRecord field order:
# (column, parse, accept, what a valid value is).
_CSV_COLUMNS = [
    ("n_tasks", int, lambda v: v >= 1, "an integer >= 1"),
    ("rep", int, lambda v: v >= 0, "an integer >= 0"),
    ("seed", int, lambda v: 0 <= v <= MASK64, "a 64-bit unsigned integer"),
    ("makespan_s", float, lambda v: is_finite(v) and v > 0, "a finite positive number"),
    ("evals", int, lambda v: v >= 0, "an integer >= 0"),
    ("wall_ms", int, lambda v: v >= 0, "an integer >= 0"),
]


def _csv_value(line_no: int, text: str, column: tuple) -> int | float:
    name, parse, accept, wanted = column
    try:
        value = parse(text)
    except ValueError:
        value = None
    if value is None or not accept(value):
        raise ValueError(f"line {line_no}: {name} must be {wanted}, got {text!r}")
    return value


def parse_csv(source: str | IO[str] | Iterable[str]) -> list[ExperimentRecord]:
    """Inverse of emit_csv (modulo the six-decimal makespan formatting).

    Raises ValueError naming the line and the field of the first bad value.
    """
    if isinstance(source, str):
        source = source.splitlines()
    lines = [line.rstrip("\r\n") for line in source]
    lines = [line for line in lines if line.strip()]
    if not lines or lines[0] != CSV_HEADER:
        raise ValueError(f"expected CSV header {CSV_HEADER!r}")
    records = []
    for line_no, line in enumerate(lines[1:], start=2):
        parts = line.split(",")
        if len(parts) != 7:
            raise ValueError(f"line {line_no}: expected 7 fields, got {len(parts)}")
        if parts[0] not in SchedulerKind.__members__:
            raise ValueError(f"line {line_no}: unknown scheduler {parts[0]!r}")
        values = [_csv_value(line_no, text, col) for text, col in zip(parts[1:], _CSV_COLUMNS)]
        records.append(ExperimentRecord(SchedulerKind[parts[0]], *values))
    return records


def emit_svg_chart(agg: Aggregate, sink: IO[str]) -> int:
    """Render mean makespan vs task count as an SVG line chart; returns bytes written.

    One polyline per scheduler, axes with ticks, and a legend. The layout is
    fixed so equal aggregates yield identical bytes.
    """
    if not agg.schedulers:
        raise ValueError("aggregate covers no schedulers")
    width, height = 720.0, 480.0
    left, right, top, bottom = 70.0, 570.0, 30.0, 425.0

    xs = agg.task_counts
    x_lo, x_hi = float(min(xs)), float(max(xs))
    x_span = x_hi - x_lo

    def x_pos(n: int) -> float:
        if x_span == 0.0:
            return (left + right) / 2.0
        return left + (n - x_lo) / x_span * (right - left)

    y_max = max(agg.mean_s.values()) * 1.08

    def y_pos(v: float) -> float:
        return bottom - v / y_max * (bottom - top)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{left:.1f}" y1="{bottom:.1f}" x2="{right:.1f}" y2="{bottom:.1f}" stroke="black"/>',
        f'<line x1="{left:.1f}" y1="{top:.1f}" x2="{left:.1f}" y2="{bottom:.1f}" stroke="black"/>',
    ]
    for n in xs:
        x = x_pos(n)
        parts.append(
            f'<line x1="{x:.1f}" y1="{bottom:.1f}" x2="{x:.1f}" y2="{bottom + 5:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="{bottom + 20:.1f}" font-size="12" text-anchor="middle">{n}</text>'
        )
    for tick in range(5):
        v = y_max * tick / 4.0
        y = y_pos(v)
        parts.append(
            f'<line x1="{left - 5:.1f}" y1="{y:.1f}" x2="{left:.1f}" y2="{y:.1f}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{left - 9:.1f}" y="{y + 4:.1f}" font-size="12" text-anchor="end">{v:.2f}</text>'
        )
    parts.append(
        f'<text x="{(left + right) / 2:.1f}" y="{height - 14:.1f}" font-size="13" '
        f'text-anchor="middle">number of tasks</text>'
    )
    parts.append(
        f'<text x="16" y="{(top + bottom) / 2:.1f}" font-size="13" text-anchor="middle" '
        f'transform="rotate(-90 16 {(top + bottom) / 2:.1f})">mean makespan (s)</text>'
    )
    legend_y = top + 10.0
    for kind in agg.schedulers:
        color = _CHART_COLORS.get(kind, "#333333")
        points = " ".join(
            f"{x_pos(n):.1f},{y_pos(agg.mean_s[(kind, n)]):.1f}"
            for n in xs
            if (kind, n) in agg.mean_s
        )
        parts.append(
            f'<polyline fill="none" stroke="{color}" stroke-width="2" points="{points}"/>'
        )
        parts.append(
            f'<line x1="{right + 16:.1f}" y1="{legend_y:.1f}" x2="{right + 44:.1f}" '
            f'y2="{legend_y:.1f}" stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{right + 50:.1f}" y="{legend_y + 4:.1f}" font-size="12">{kind.name}</text>'
        )
        legend_y += 20.0
    parts.append("</svg>")
    text = "\n".join(parts) + "\n"
    sink.write(text)
    return len(text.encode("utf-8"))


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a configuration from a JSON-style mapping; unknown keys are errors.

    All keys are optional and mirror the ExperimentConfig field names;
    schedulers are given by (case-insensitive) name.
    """
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - set(ExperimentConfig.__dataclass_fields__)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    kwargs = dict(data)
    if "schedulers" in kwargs:
        names = kwargs["schedulers"]
        check_fields(("schedulers", isinstance(names, list), "a list of scheduler names", names))
        try:
            kwargs["schedulers"] = tuple(SchedulerKind[str(name).upper()] for name in names)
        except KeyError as exc:
            raise ValueError(f"unknown scheduler name: {exc.args[0]!r}") from None
    if "lca_params" in kwargs:
        sub = kwargs["lca_params"]
        check_fields(("lca_params", isinstance(sub, dict), "a JSON object", sub))
        lca_unknown = set(sub) - set(LcaParams.__dataclass_fields__)
        if lca_unknown:
            raise ValueError(f"unknown lca_params keys: {sorted(lca_unknown)}")
        check_fields(("lca_params.seed", "seed" not in sub, "absent: search seeds derive from master_seed",
                      sub.get("seed")))
        kwargs["lca_params"] = LcaParams(**sub)
    return ExperimentConfig(**kwargs)
