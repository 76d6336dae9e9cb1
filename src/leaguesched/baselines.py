"""Deterministic greedy baseline schedulers: FCFS, LJF and BEF.

All three are list schedulers over the same earliest-available-VM core; they
differ only in the order the task list is fed in. FCFS keeps submission
order, LJF (longest job first) sorts descending by length, BEF (best effort
first) sorts ascending by length. No randomness is involved anywhere.
"""

from __future__ import annotations

from enum import IntEnum

from .model import Assignment, ProblemInstance


class SchedulerKind(IntEnum):
    """Stable integer codes, also used for seed derivation in the benchmark runner."""

    FCFS = 0
    LJF = 1
    BEF = 2
    LCA = 3


def _schedule_in_order(instance: ProblemInstance, order: list[int]) -> Assignment:
    """List-schedule the tasks at positions `order`, in that order, onto the least-loaded VM.

    "Least loaded" means smallest accumulated busy time in seconds; ties go to
    the lowest VM index. The assignment is indexed by task position.
    """
    lengths, speeds = instance.lengths.tolist(), instance.speeds.tolist()
    loads = [0.0] * len(speeds)
    vm_of = [0] * len(lengths)
    for i in order:
        v = min(range(len(speeds)), key=loads.__getitem__)
        loads[v] += lengths[i] / speeds[v]
        vm_of[i] = v
    return Assignment(tuple(vm_of))


def fcfs(instance: ProblemInstance) -> Assignment:
    """First come, first served: tasks in submission order."""
    return _schedule_in_order(instance, instance.arrival.tolist())


def ljf(instance: ProblemInstance) -> Assignment:
    """Longest job first; equal lengths keep submission order (stable sort)."""
    lengths = instance.lengths.tolist()
    return _schedule_in_order(instance, sorted(instance.arrival.tolist(), key=lambda i: -lengths[i]))


def bef(instance: ProblemInstance) -> Assignment:
    """Best effort first, read as shortest job first; stable on ties."""
    lengths = instance.lengths.tolist()
    return _schedule_in_order(instance, sorted(instance.arrival.tolist(), key=lengths.__getitem__))
