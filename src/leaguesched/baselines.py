"""Deterministic greedy baseline schedulers: FCFS, LJF and BEF.

All three are list schedulers over the same earliest-available-VM core; they
differ only in the order the task list is fed in. FCFS keeps submission
order, LJF (longest job first) sorts descending by length, BEF (best effort
first) sorts ascending by length. No randomness is involved anywhere.
"""

from __future__ import annotations

import heapq
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
    the lowest VM index. A heap of (load, VM index) finds it in O(log m), the
    tuple order giving that tie-break. The assignment is indexed by task position.
    """
    lengths, speeds = instance.lengths.tolist(), instance.speeds.tolist()
    free = [(0.0, v) for v in range(len(speeds))]  # sorted, so already a heap
    vm_of = [0] * len(lengths)
    for i in order:
        load, v = free[0]
        heapq.heapreplace(free, (load + lengths[i] / speeds[v], v))
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
