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
from dataclasses import astuple, dataclass, field, replace
from typing import IO, Callable, Iterable

from .baselines import SchedulerKind, bef, fcfs, ljf
from .lca import LcaParams, run
from .model import (VM_LIMIT, ProblemInstance, VirtualMachine, check_fields, is_finite, is_integer, makespan,
                    read_rows, write_rows)
from .rng import MASK64, mix64
from .workload import TASK_LIMIT, WorkloadSpec, generate_synthetic

# The read_rows columns of the CSV, (name, write, parse, ok, want), in ExperimentRecord field order.
_CSV_COLUMNS = [
    ("scheduler", lambda k: k.name, SchedulerKind.__members__.get, lambda k: True,
     "one of " + ", ".join(SchedulerKind.__members__)),
    ("n_tasks", str, int, lambda v: 1 <= v <= TASK_LIMIT, f"an integer >= 1 and <= {TASK_LIMIT}"),
    ("rep", str, int, lambda v: v >= 0, "an integer >= 0"),
    ("seed", str, int, lambda v: 0 <= v <= MASK64, "a 64-bit unsigned integer"),
    ("makespan_s", "{:.6f}".format, float, lambda v: is_finite(v) and v > 0, "a finite positive number"),
    ("evals", str, int, lambda v: v >= 0, "an integer >= 0"),
    ("wall_ms", str, int, lambda v: v >= 0, "an integer >= 0"),
]

_CHART_COLORS = ("#c44e52", "#55a868", "#dd8452", "#4c72b0")  # indexed by SchedulerKind code


@dataclass(frozen=True)
class ExperimentConfig:
    """One benchmark grid; construction raises ValueError naming every bad field.

    lca_params.seed must be left at 0: each LCA cell derives its search seed from master_seed."""

    task_counts: tuple[int, ...] = tuple(range(20, 181, 20))
    n_vms: int = 20
    vm_speed_mips: float | tuple[float, ...] = 1000.0
    length_range_mi: tuple[float, float] = (200.0, 500.0)
    repetitions: int = 9
    schedulers: tuple[SchedulerKind, ...] = tuple(SchedulerKind)
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
             and all(is_integer(n) and 1 <= n <= TASK_LIMIT for n in c.task_counts)
             and len(set(c.task_counts)) == len(c.task_counts),
             f"a non-empty list of distinct integers >= 1 and <= {TASK_LIMIT}", c.task_counts),
            ("n_vms", is_integer(c.n_vms) and c.n_vms >= 1, "an integer >= 1", c.n_vms),
            ("n_vms", not is_integer(c.n_vms) or c.n_vms <= VM_LIMIT, f"at most {VM_LIMIT}", c.n_vms),
            ("vm_speed_mips", all(is_finite(s) and s > 0 for s in speeds)
             and (not isinstance(c.vm_speed_mips, tuple) or len(speeds) == c.n_vms),
             "a finite positive speed, or a list of one per VM", c.vm_speed_mips),
            ("length_range_mi", isinstance(lo_hi, tuple) and len(lo_hi) == 2
             and all(map(is_finite, lo_hi)) and 0 < lo_hi[0] <= lo_hi[1],
             "[min, max] with 0 < min <= max, both finite", lo_hi),
            ("repetitions", is_integer(c.repetitions) and c.repetitions >= 1, "an integer >= 1",
             c.repetitions),
            ("schedulers", isinstance(c.schedulers, tuple) and c.schedulers
             and all(isinstance(k, SchedulerKind) for k in c.schedulers)
             and len(set(c.schedulers)) == len(c.schedulers),
             "a non-empty list of distinct schedulers", c.schedulers),
            ("lca_params", isinstance(c.lca_params, LcaParams), "an LcaParams", c.lca_params),
            ("lca_params.seed", not isinstance(c.lca_params, LcaParams) or c.lca_params.seed == 0,
             "0: search seeds derive from master_seed", getattr(c.lca_params, "seed", None)),
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
    """Per-cell means and per-scheduler grand means over the grid."""

    schedulers: tuple[SchedulerKind, ...]  # sorted by code
    task_counts: tuple[int, ...]  # sorted ascending
    mean_s: dict[tuple[SchedulerKind, int], float]
    grand_mean_s: dict[SchedulerKind, float]


def derive_cell_seed(master_seed: int, n_tasks: int, rep: int) -> int:
    """Workload seed for one (task count, repetition) cell."""
    return mix64(master_seed ^ (n_tasks << 20) ^ rep)


def derive_search_seed(cell_seed: int, scheduler_code: int) -> int:
    """Search seed for a stochastic scheduler inside a cell."""
    return mix64(cell_seed ^ scheduler_code)


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
    speeds = config.vm_speed_mips
    if not isinstance(speeds, tuple):
        speeds = (speeds,) * config.n_vms
    vms = tuple(VirtualMachine(id=v, speed_mips=float(s)) for v, s in enumerate(speeds))
    records = []
    for n_tasks in config.task_counts:
        for rep in range(config.repetitions):
            cell_seed = derive_cell_seed(config.master_seed, n_tasks, rep)
            tasks = generate_synthetic(WorkloadSpec(n_tasks, *config.length_range_mi, seed=cell_seed))
            instance = ProblemInstance(tuple(tasks), vms)
            for kind in config.schedulers:
                started = time.perf_counter_ns()
                if kind is SchedulerKind.LCA:
                    result = run(replace(config.lca_params, seed=derive_search_seed(cell_seed, kind)), instance)
                    ms, evals = result.best_makespan_s, result.evaluations
                else:  # a greedy baseline by code, looked up per call so a rebound module global is seen
                    ms, evals = makespan(instance, (fcfs, ljf, bef)[kind](instance)).makespan_s, 0
                wall = -((started - time.perf_counter_ns()) // 1_000_000) if measure_wall_time else 0
                record = ExperimentRecord(kind, n_tasks, rep, cell_seed, ms, evals, wall)
                records.append(record)
                if kind is SchedulerKind.LCA and history_callback is not None:
                    history_callback(record, result.history)
    return records


def aggregate(records: Iterable[ExperimentRecord]) -> Aggregate:
    """Means per cell, plus per-scheduler grand means.

    Raises ValueError naming makespan_s when a cell's or a scheduler's makespans sum past the float range.
    """
    records = list(records)
    if not records:
        raise ValueError("cannot aggregate an empty record list")
    by_cell: dict[tuple[SchedulerKind, int], list[float]] = {}
    by_kind: dict[SchedulerKind, list[float]] = {}
    for r in records:
        by_cell.setdefault((r.scheduler, r.n_tasks), []).append(r.makespan_s)
        by_kind.setdefault(r.scheduler, []).append(r.makespan_s)
    try:
        mean_s = {cell: statistics.fmean(v) for cell, v in by_cell.items()}
        grand_mean_s = {kind: statistics.fmean(v) for kind, v in by_kind.items()}
    except OverflowError:  # fmean's exact sum left the float range
        mean_s = grand_mean_s = None
    check_fields(("makespan_s", mean_s is not None, "values whose sum per cell and per scheduler stays finite",
                  max(r.makespan_s for r in records)))
    return Aggregate(
        schedulers=tuple(sorted(by_kind, key=lambda k: k.value)),
        task_counts=tuple(sorted({n for _, n in by_cell})),
        mean_s=mean_s,
        grand_mean_s=grand_mean_s,
    )


def emit_csv(records: Iterable[ExperimentRecord], sink: IO[str]) -> int:
    """Write records in canonical order/formatting; returns bytes written.

    Rows sort by (scheduler code, task count, repetition); makespan carries
    six decimals; LF line endings. A record parse_csv would refuse raises its error.
    """
    ordered = sorted(records, key=lambda r: (r.scheduler.value, r.n_tasks, r.rep))
    return write_rows(sink, _CSV_COLUMNS, map(astuple, ordered), parse_csv)


def parse_csv(source: str | IO[str] | Iterable[str]) -> list[ExperimentRecord]:
    """Inverse of emit_csv (modulo the six-decimal makespan formatting).

    Raises ValueError naming the line and every bad field of the first bad line, and
    TraceParseError naming both lines when a (scheduler, n_tasks, rep) cell repeats.
    """
    return [ExperimentRecord(*values) for values in read_rows(source, _CSV_COLUMNS, key=3)]


def _element(tag: str, body: str | None = None, **attrs: object) -> str:
    """One SVG element; floats print with one decimal, and a_b names print as a-b."""
    text = " ".join(f'{k.replace("_", "-")}="{format(v, ".1f" if isinstance(v, float) else "")}"'
                    for k, v in attrs.items())
    return f"<{tag} {text}/>" if body is None else f"<{tag} {text}>{body}</{tag}>"


def emit_svg_chart(agg: Aggregate, sink: IO[str]) -> int:
    """Render mean makespan vs task count as an SVG line chart; returns bytes written.

    One polyline per scheduler, axes with ticks, and a legend. The layout is
    fixed so equal aggregates yield identical bytes. A mean too large to scale raises ValueError.
    """
    if not agg.schedulers:
        raise ValueError("aggregate covers no schedulers")
    width, height = 720, 480
    left, right, top, bottom = 70.0, 570.0, 30.0, 425.0

    xs = agg.task_counts
    x_lo = float(min(xs))
    x_span = float(max(xs)) - x_lo

    def x_pos(n: int) -> float:
        if x_span == 0.0:
            return (left + right) / 2.0
        return left + (n - x_lo) / x_span * (right - left)

    peak = max(agg.mean_s.values())
    y_max = peak * 1.08
    check_fields(("makespan_s", is_finite(y_max) and y_max > 0, "a mean the chart can scale by 1.08", peak))

    def y_pos(v: float) -> float:
        return bottom - v / y_max * (bottom - top)

    parts = [
        _element("rect", width=width, height=height, fill="white"),
        _element("line", x1=left, y1=bottom, x2=right, y2=bottom, stroke="black"),
        _element("line", x1=left, y1=top, x2=left, y2=bottom, stroke="black"),
    ]
    for n in xs:
        x = x_pos(n)
        parts.append(_element("line", x1=x, y1=bottom, x2=x, y2=bottom + 5, stroke="black"))
        parts.append(_element("text", str(n), x=x, y=bottom + 20, font_size=12, text_anchor="middle"))
    for tick in range(5):
        v = y_max * tick / 4.0
        y = y_pos(v)
        parts.append(_element("line", x1=left - 5, y1=y, x2=left, y2=y, stroke="black"))
        parts.append(_element("text", f"{v:.2f}", x=left - 9, y=y + 4, font_size=12, text_anchor="end"))
    parts.append(_element("text", "number of tasks", x=(left + right) / 2, y=height - 14.0,
                          font_size=13, text_anchor="middle"))
    mid = (top + bottom) / 2
    parts.append(_element("text", "mean makespan (s)", x=16, y=mid, font_size=13, text_anchor="middle",
                          transform=f"rotate(-90 16 {mid:.1f})"))
    legend_y = top + 10.0
    for kind in agg.schedulers:
        color = _CHART_COLORS[kind]
        points = " ".join(f"{x_pos(n):.1f},{y_pos(agg.mean_s[(kind, n)]):.1f}"
                          for n in xs if (kind, n) in agg.mean_s)
        parts.append(_element("polyline", fill="none", stroke=color, stroke_width=2, points=points))
        parts.append(_element("line", x1=right + 16, y1=legend_y, x2=right + 44, y2=legend_y,
                              stroke=color, stroke_width=2))
        parts.append(_element("text", kind.name, x=right + 50, y=legend_y + 4, font_size=12))
        legend_y += 20.0
    body = "\n".join(["", *parts, ""])
    text = _element("svg", body, xmlns="http://www.w3.org/2000/svg", width=width, height=height,
                    viewBox=f"0 0 {width} {height}") + "\n"
    sink.write(text)
    return len(text.encode("utf-8"))


def config_from_dict(data: dict) -> ExperimentConfig:
    """Build a configuration from a JSON-style mapping; unknown keys are errors.

    All keys are optional and mirror the ExperimentConfig field names;
    schedulers are given by (case-insensitive) name.
    """
    if not isinstance(data, dict):
        raise ValueError(f"config must be a JSON object, got {type(data).__name__}")
    sub = data.get("lca_params", {})
    check_fields(("lca_params", isinstance(sub, dict), "a JSON object", sub))
    for name, keys, fields in (("config", data, ExperimentConfig), ("lca_params", sub, LcaParams)):
        unknown = set(keys) - set(fields.__dataclass_fields__)
        if unknown:
            raise ValueError(f"unknown {name} keys: {sorted(unknown)}")
    kwargs = dict(data)
    if "schedulers" in kwargs:
        names = kwargs["schedulers"]
        check_fields(("schedulers", isinstance(names, list), "a list of scheduler names", names))
        try:
            kwargs["schedulers"] = tuple(SchedulerKind[str(name).upper()] for name in names)
        except KeyError as exc:
            raise ValueError(f"unknown scheduler name: {exc.args[0]!r}") from None
    check_fields(("lca_params.seed", "seed" not in sub, "absent: search seeds derive from master_seed",
                  sub.get("seed")))
    kwargs["lca_params"] = LcaParams(**sub)
    return ExperimentConfig(**kwargs)
