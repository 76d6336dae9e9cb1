"""Problem-instance data model and the makespan objective.

Time is seconds throughout: task length in million instructions (MI) divided
by VM speed in million instructions per second (MIPS). Tasks are
non-preemptive, all ready at time zero, and run back-to-back on their VM in
arrival order. There are no transfer delays and no queuing beyond the VM
itself, so the completion time of a task is simply the accumulated busy time
of its VM up to and including that task.
"""

from __future__ import annotations

import io
import math
import numbers
from dataclasses import dataclass, field
from typing import IO, Callable, Iterable, Iterator, Sequence

import numpy as np


class InvalidAssignmentError(ValueError):
    """Assignment does not fit the instance (wrong length or VM index)."""


class InvalidInstanceError(ValueError):
    """Instance violates a structural invariant (e.g. no VMs at all)."""


class TraceParseError(ValueError):
    """Malformed line in a task trace or benchmark CSV; carries its 1-based line number."""

    def __init__(self, line_no: int, message: str) -> None:
        self.line_no = line_no
        super().__init__(f"line {line_no}: {message}")


def is_integer(value: object) -> bool:
    """True for an integer; a bool is a flag, not a count."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def is_finite(value: object) -> bool:
    """True for a finite real number; a bool is a flag, not a quantity."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


def check_fields(*rows: tuple[str, bool, str, object]) -> None:
    """Raise one ValueError naming every (name, ok, want, value) row whose ok is false."""
    problems = [f"{name} must be {want}, got {value!r}" for name, ok, want, value in rows if not ok]
    if problems:
        raise ValueError("; ".join(problems))


def _parsed(parse: Callable[[str], object], text: str) -> object:
    if not text.isascii() or "_" in text:  # no writer writes these, though int and float read 1_0 and '١' as numbers
        return None
    try:
        return parse(text)
    except ValueError:
        return None


def read_rows(source: str | IO[str] | Iterable[str], columns: list[tuple]) -> Iterator[tuple[int, list]]:
    """Yield (line number, values) for each row of a comma-separated text table.

    Each column is (name, write, parse, ok, want): write formats a value, parse
    reads it back (a ValueError, a `_` or non-ASCII text refuses it), ok accepts
    the parsed value, and want says what a valid one is. Lines and fields are
    stripped, blank lines skipped, and the first line may be the header of
    column names. A bad row raises TraceParseError: "line N: <field> must be <want>, got '<text>'".
    """
    if isinstance(source, str):
        source = io.StringIO(source)
    rows = [(line_no, line, [part.strip() for part in line.split(",")])
            for line_no, line in enumerate(map(str.strip, source), start=1) if line]
    if rows and rows[0][2] == [column[0] for column in columns]:
        del rows[0]
    for line_no, line, texts in rows:
        try:
            check_fields(("row", len(texts) == len(columns), f"{len(columns)} fields long", line))
            values = [_parsed(column[2], text) for column, text in zip(columns, texts)]
            check_fields(*[(name, value is not None and ok(value), want, text)
                           for (name, _, _, ok, want), value, text in zip(columns, values, texts)])
        except ValueError as exc:
            raise TraceParseError(line_no, str(exc)) from None
        yield line_no, values


def write_rows(sink: IO[str], columns: list[tuple], rows: Iterable[tuple], read: Callable) -> int:
    """Write a read_rows table, header first, and return the bytes written. The text is
    first parsed by read, the format's own reader, so nothing it refuses is written."""
    lines = [",".join(column[0] for column in columns)]
    lines += [",".join(column[1](value) for column, value in zip(columns, row)) for row in rows]
    text = "\n".join(lines) + "\n"
    read(text)
    sink.write(text)
    return len(text.encode("utf-8"))


@dataclass(frozen=True)
class Task:
    id: int
    length_mi: float  # workload, million instructions
    arrival_index: int  # position in submission order, 0-based


@dataclass(frozen=True)
class VirtualMachine:
    id: int
    speed_mips: float  # million instructions per second


@dataclass(frozen=True)
class ProblemInstance:
    """A validated instance, compiled once to the arrays every evaluation reads.

    Construction raises InvalidInstanceError naming every bad task and VM, so
    an instance that exists is well formed and ready to score.
    """

    tasks: tuple[Task, ...]
    vms: tuple[VirtualMachine, ...]
    lengths: np.ndarray = field(init=False, repr=False, compare=False)  # MI, by task position
    speeds: np.ndarray = field(init=False, repr=False, compare=False)  # MIPS, by VM index
    arrival: np.ndarray = field(init=False, repr=False, compare=False)  # positions, arrival order
    _reordered: bool = field(init=False, repr=False, compare=False)  # arrival != position order

    def __post_init__(self) -> None:
        fields = (("tasks", self.tasks, Task), ("vms", self.vms, VirtualMachine))
        wrong = [f"{name} must be a sequence, got {type(seq).__name__}"
                 for name, seq, _ in fields if not isinstance(seq, Sequence)]
        wrong = wrong or [f"{name}[{k}] must be a {kind.__name__}, got {type(x).__name__}"
                          for name, seq, kind in fields for k, x in enumerate(seq) if not isinstance(x, kind)]
        if wrong:
            raise InvalidInstanceError("; ".join(wrong))
        tasks, vms = tuple(self.tasks), tuple(self.vms)
        problems = [] if tasks else ["empty task list"]
        if not vms:
            problems.append("empty VM list")
        seen_ids: set[int] = set()
        for t in tasks:
            if not is_integer(t.id) or t.id < 0:
                problems.append(f"task {t.id!r}: id must be a nonnegative integer")
            elif t.id in seen_ids:
                problems.append(f"task {t.id}: duplicate id")
            else:
                seen_ids.add(t.id)
            if not (is_finite(t.length_mi) and t.length_mi > 0):
                problems.append(f"task {t.id!r}: length must be finite and positive, got {t.length_mi!r}")
        arrivals = [t.arrival_index for t in tasks]
        if not all(map(is_integer, arrivals)) or sorted(arrivals) != list(range(len(tasks))):
            problems.append("arrival_index values do not form 0..n-1")
        for pos, vm in enumerate(vms):
            if vm.id != pos:
                problems.append(f"VM at position {pos} has id {vm.id!r}")
            if not (is_finite(vm.speed_mips) and vm.speed_mips > 0):
                problems.append(f"VM {vm.id!r}: speed must be finite and positive, got {vm.speed_mips!r}")
        if problems:
            raise InvalidInstanceError("; ".join(problems))
        arrival = np.array(sorted(range(len(tasks)), key=arrivals.__getitem__), dtype=np.int64)
        for name, value in [
            ("tasks", tasks),
            ("vms", vms),
            ("lengths", np.array([t.length_mi for t in tasks], dtype=np.float64)),
            ("speeds", np.array([vm.speed_mips for vm in vms], dtype=np.float64)),
            ("arrival", arrival),
            ("_reordered", bool(np.any(arrival != np.arange(len(tasks))))),
        ]:
            if isinstance(value, np.ndarray):
                value.setflags(write=False)
            object.__setattr__(self, name, value)
        # Rounding is monotone: every duration is at least the shortest task on the
        # fastest VM, and every load at most the sum of all tasks on the slowest VM.
        with np.errstate(over="ignore"):
            shortest = self.lengths.min() / self.speeds.max()
            heaviest = self.loads(np.full(len(tasks), np.argmin(self.speeds))).max()
        if not shortest > 0:
            raise InvalidInstanceError("durations underflow: shortest task on the fastest VM takes 0 s")
        if not math.isfinite(heaviest):
            raise InvalidInstanceError("loads overflow: all tasks on the slowest VM take inf s")

    def loads(self, vm_index: np.ndarray) -> np.ndarray:
        """Per-VM busy seconds: the one evaluation kernel behind every objective, its cells then their tally.

        vm_index is one VM-index vector of shape (n,), giving shape (m,), or a
        block of shape (rows, n), giving (rows, m). Indices must lie in [0, m).
        The tally adds each VM's durations one by one in arrival order, so
        every load is bit-identical to a sequential sum over the tasks, and a
        caller that keeps the cells and rewrites some of them (lca's scoring
        workspace) tallies the same loads as a fresh call on the new block.
        """
        return self.tally(*self.cells(vm_index)).reshape(vm_index.shape[:-1] + (self.speeds.shape[0],))

    def cells(self, vm_index: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """The (rows, n) cells of a VM-index vector or block, in arrival order: (keys, durations).

        A task's key is its VM index plus m times its row, and its duration is its length over its VM's speed.
        Both come back C-ordered, so a caller can rewrite cells through their reshape(-1) views.
        """
        m = self.speeds.shape[0]
        block = np.atleast_2d(vm_index)  # an (n,) vector is one row
        durations = self.lengths / self.speeds[block]
        if self._reordered:
            block, durations = np.take(block, self.arrival, axis=1), np.take(durations, self.arrival, axis=1)
        return block + m * np.arange(len(block))[:, None], durations  # row r counts into bins [r*m, (r+1)*m)

    def tally(self, keys: np.ndarray, durations: np.ndarray) -> np.ndarray:
        """The (rows, m) loads of cells: np.bincount adds each bin's durations one by one in the cells' order."""
        rows, m = len(keys), self.speeds.shape[0]
        return np.bincount(keys.reshape(-1), weights=durations.reshape(-1), minlength=rows * m).reshape(rows, m)


@dataclass(frozen=True)
class Assignment:
    """Decoded schedule: vm_of[k] is the VM index executing task k. A vm_of that is not
    iterable, or a float, string, bool or negative entry, raises InvalidAssignmentError
    rather than being coerced."""

    vm_of: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            vm_of = tuple(self.vm_of)
        except TypeError:
            kind = type(self.vm_of).__name__
            raise InvalidAssignmentError(f"vm_of must be a sequence of VM indices, got {kind}") from None
        for k, v in enumerate(vm_of):
            if not (is_integer(v) and v >= 0):
                raise InvalidAssignmentError(f"position {k}: {v!r} is not a nonnegative integer VM index")
        object.__setattr__(self, "vm_of", tuple(map(int, vm_of)))


@dataclass(frozen=True)
class ScheduleResult:
    assignment: Assignment
    vm_load_s: tuple[float, ...]  # per-VM busy time, seconds
    makespan_s: float


def _checked_index(instance: ProblemInstance, assignment: Assignment) -> np.ndarray:
    """The assignment as a VM-index vector, checked against the instance."""
    n, m = len(instance.tasks), len(instance.vms)
    vm_of = assignment.vm_of
    if len(vm_of) != n:
        raise InvalidAssignmentError(f"assignment length {len(vm_of)} does not match task count {n}")
    for k, v in enumerate(vm_of):
        if not 0 <= v < m:
            raise InvalidAssignmentError(f"task {instance.tasks[k].id}: VM index {v} outside [0, {m})")
    return np.array(vm_of, dtype=np.int64)


def makespan(instance: ProblemInstance, assignment: Assignment) -> ScheduleResult:
    """Evaluate an assignment; the makespan is the largest completion time."""
    vm_index = _checked_index(instance, assignment)
    loads = instance.loads(vm_index)
    return ScheduleResult(assignment=assignment, vm_load_s=tuple(loads.tolist()), makespan_s=float(loads.max()))
