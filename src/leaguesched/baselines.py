"""Deterministic greedy baseline schedulers: FCFS, LJF and BEF.

All three are list schedulers over the same earliest-available-VM core; they
differ only in the order the task list is fed in. FCFS keeps submission
order, LJF (longest job first) sorts descending by length, BEF (best effort
first) sorts ascending by length. No randomness is involved anywhere.
"""

from __future__ import annotations

from enum import IntEnum
from typing import Sequence

from .model import Assignment, InvalidInstanceError, ProblemInstance, Task, VirtualMachine


class SchedulerKind(IntEnum):
    """Stable integer codes, also used for seed derivation in the benchmark runner."""

    FCFS = 0
    LJF = 1
    BEF = 2
    LCA = 3


def greedy_earliest_vm(
    ordered_tasks: Sequence[Task], vms: Sequence[VirtualMachine]
) -> Assignment:
    """List-schedule tasks, in the order given, onto the least-loaded VM.

    "Least loaded" means smallest accumulated busy time in seconds; ties go to
    the lowest VM index. The returned assignment is aligned with
    ordered_tasks, not with any other ordering of the same tasks.
    """
    if not vms:
        raise InvalidInstanceError("empty VM list")
    loads = [0.0] * len(vms)
    out = []
    for task in ordered_tasks:
        v = min(range(len(vms)), key=loads.__getitem__)
        loads[v] += task.length_mi / vms[v].speed_mips
        out.append(v)
    return Assignment(tuple(out))


def _schedule_in_order(instance: ProblemInstance, order: list[int]) -> Assignment:
    """Run the greedy core over tasks in `order`, then realign to task positions."""
    core = greedy_earliest_vm([instance.tasks[i] for i in order], instance.vms)
    vm_of = [0] * len(order)
    for slot, i in enumerate(order):
        vm_of[i] = core.vm_of[slot]
    return Assignment(tuple(vm_of))


def fcfs(instance: ProblemInstance) -> Assignment:
    """First come, first served: tasks in submission order."""
    return _schedule_in_order(instance, instance.arrival.tolist())


def ljf(instance: ProblemInstance) -> Assignment:
    """Longest job first; equal lengths keep submission order (stable sort)."""
    order = sorted(instance.arrival.tolist(), key=lambda i: -instance.tasks[i].length_mi)
    return _schedule_in_order(instance, order)


def bef(instance: ProblemInstance) -> Assignment:
    """Best effort first, read as shortest job first; stable on ties."""
    order = sorted(instance.arrival.tolist(), key=lambda i: instance.tasks[i].length_mi)
    return _schedule_in_order(instance, order)
