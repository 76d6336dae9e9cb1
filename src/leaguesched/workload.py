"""Synthetic workload generation and plain-text trace ingestion.

The trace format is one `task_id,length_mi` pair per line, UTF-8, LF or CRLF,
blank lines ignored, with an optional `task_id,length_mi` header as the first
non-blank line. Arrival order is line order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable

from .model import Task, TraceParseError, check_fields, is_finite, is_integer, read_rows, write_rows
from .rng import SplitMix64

# The most tasks any entry point takes (a spec, a grid's task counts, a CSV row), checked before anything is built.
# The budget is a minute and 1.5 GiB: generate then schedule --algo ljf of 10**6 tasks in one process took 33 s and
# 1,176 MiB peak RSS on a 2-core Xeon, and both grow linearly (3.5 s and 144 MiB at 10**5).
TASK_LIMIT = 10**6

_TRACE_COLUMNS = [  # read_rows columns: (name, write, parse, ok, want)
    ("task_id", str, int, lambda v: v >= 0, "a nonnegative integer"),
    ("length_mi", lambda v: repr(float(v)), float, lambda v: is_finite(v) and v > 0, "a finite positive number"),
]


class DuplicateTaskIdError(TraceParseError):
    """The same task_id appears on more than one trace line."""


@dataclass(frozen=True)
class WorkloadSpec:
    """A synthetic task batch with i.i.d. uniform lengths; construction rejects bad fields."""

    n_tasks: int
    length_min_mi: float = 200.0
    length_max_mi: float = 500.0
    seed: int = 0

    def __post_init__(self) -> None:
        lo, hi = self.length_min_mi, self.length_max_mi
        check_fields(
            ("n_tasks", is_integer(self.n_tasks) and 1 <= self.n_tasks <= TASK_LIMIT,
             f"an integer >= 1 and <= {TASK_LIMIT}", self.n_tasks),
            ("length_min_mi", is_finite(lo) and lo > 0, "finite and positive", lo),
            ("length_max_mi", is_finite(hi) and not (is_finite(lo) and hi < lo),
             "finite and >= length_min_mi", hi),
            ("seed", is_integer(self.seed) and 0 <= self.seed < 2**64,
             "a 64-bit unsigned integer", self.seed),
        )


def generate_synthetic(spec: WorkloadSpec) -> list[Task]:
    """Draw spec.n_tasks task lengths uniformly from [min, max]: min + u * (max - min), one uniform per task.

    The uniforms are the seed's first n_tasks, drawn as one block. Deterministic per seed: equal specs produce
    identical task lists.
    """
    lo, span = spec.length_min_mi, spec.length_max_mi - spec.length_min_mi
    lengths = lo + SplitMix64(spec.seed).uniforms(spec.n_tasks) * span
    return [Task(id=i, length_mi=length, arrival_index=i) for i, length in enumerate(lengths.tolist())]


def load_trace(source: str | IO[str] | Iterable[str]) -> list[Task]:
    """Parse a task trace; arrival_index follows line order.

    Raises TraceParseError (with the line number) for malformed lines and
    DuplicateTaskIdError when a task id repeats.
    """
    rows = read_rows(source, _TRACE_COLUMNS, repeated=DuplicateTaskIdError)
    return [Task(id=task_id, length_mi=length, arrival_index=k) for k, (task_id, length) in enumerate(rows)]


def dump_trace(tasks: Iterable[Task], sink: IO[str]) -> int:
    """Serialize tasks (in arrival order) to the trace format; returns bytes written.

    Lengths are written with full repr precision so load_trace(dump_trace(tasks))
    reproduces the task list exactly; a task it would refuse raises its error.
    """
    ordered = sorted(tasks, key=lambda t: t.arrival_index)
    return write_rows(sink, _TRACE_COLUMNS, [(t.id, t.length_mi) for t in ordered], load_trace)
