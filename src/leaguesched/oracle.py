"""Ground truth for the league search on small instances.

Exhaustive enumeration of every assignment plus an analytic lower bound.
Both exist to check the search, not the objective: enumeration scores
assignments with the same loads kernel as every scheduler, and is guarded to
desk scale.
"""

from __future__ import annotations

import numpy as np

from .model import Assignment, ProblemInstance, makespan

ENUMERATION_LIMIT = 10**7

# VM-index cells per enumerated block: bounds the memory the enumeration holds at once.
_CHUNK_CELLS = 1 << 14


def brute_force_optimum(instance: ProblemInstance) -> tuple[Assignment, float]:
    """Enumerate all m^n assignments and return a makespan-minimal one.

    Assignment number c has the base-m digits of c as its vm_of, so
    enumeration runs in lexicographic vm_of order, block by block through the
    instance's loads kernel. Only strictly better makespans replace the
    incumbent, so ties resolve to the lexicographically smallest assignment.
    """
    n, m = len(instance.tasks), len(instance.vms)
    total = m**n
    if total > ENUMERATION_LIMIT:
        raise ValueError(f"instance too large to enumerate: {m}^{n} > {ENUMERATION_LIMIT}")
    place = m ** np.arange(n - 1, -1, -1)  # digit weights; task 0 is the most significant
    rows = max(1, _CHUNK_CELLS // n)
    best_code, best_ms = 0, float("inf")
    for start in range(0, total, rows):
        block = np.arange(start, min(start + rows, total))[:, None] // place % m
        ms = instance.loads(block).max(axis=1)
        i = int(ms.argmin())  # the first minimum is the lexicographically smallest
        if ms[i] < best_ms:
            best_code, best_ms = start + i, ms[i]
    best = Assignment(tuple((best_code // place % m).tolist()))
    # Report the canonical model evaluation of the winning assignment.
    return best, makespan(instance, best).makespan_s


def lower_bound(instance: ProblemInstance) -> float:
    """max(total work / total capacity, longest task / fastest VM), in seconds."""
    total_mi = sum(t.length_mi for t in instance.tasks)
    total_mips = sum(vm.speed_mips for vm in instance.vms)
    longest = max(t.length_mi for t in instance.tasks)
    fastest = max(vm.speed_mips for vm in instance.vms)
    return max(total_mi / total_mips, longest / fastest)
