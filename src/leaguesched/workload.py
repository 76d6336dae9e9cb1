"""Synthetic workload generation and plain-text trace ingestion.

The trace format is one `task_id,length_mi` pair per line, UTF-8, LF or CRLF,
blank lines ignored, with an optional `task_id,length_mi` header as the first
non-blank line. Arrival order is line order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import IO, Iterable

from .model import (INDEX, POSITIVE, SEED, TASK_LIMIT, TASKS, Task, TraceParseError,  # TASK_LIMIT: re-exported
                    check_fields, is_finite, read_rows, write_rows)
from .rng import SplitMix64

_TRACE_COLUMNS = [("task_id", str, int, INDEX), ("length_mi", lambda v: repr(float(v)), float, POSITIVE)]


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
            TASKS.row("n_tasks", self.n_tasks),
            POSITIVE.row("length_min_mi", lo),
            ("length_max_mi", is_finite(hi) and not (is_finite(lo) and hi < lo),
             "finite and >= length_min_mi", hi),
            SEED.row("seed", self.seed),
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
