"""Ground truth for the league search on small instances.

An exact search over every assignment plus an analytic lower bound, both to
check the search, not the objective; the search is guarded to desk scale. It
walks the prefix tree of assignments: a node at depth k holds the per-VM loads
of one choice of VMs for the first k arriving tasks, and its m children add
the next task's length / speed to one VM each, so every load is 0.0 plus the
loads kernel's quotients in arrival order and every makespan is bit-identical
to the kernel's. Loads only grow down the tree, so a node whose max load
exceeds a reached makespan holds no optimum, and the search cuts it.
"""

from __future__ import annotations

import math

import numpy as np

from .baselines import ljf
from .model import Assignment, ProblemInstance, makespan

ENUMERATION_LIMIT = 10**7

# Load cells per enumerated chunk: bounds the memory the enumeration holds at once.
_CHUNK_CELLS = 1 << 14


def brute_force_optimum(instance: ProblemInstance) -> tuple[Assignment, float]:
    """Search all m^n assignments and return the lexicographically smallest makespan-minimal one.

    The tree grows one strided add per level, in chunks of at most about
    _CHUNK_CELLS loads, and cuts every column above the incumbent: the least
    (makespan, vm_of code) reached so far, LJF's at first, with task 0 the
    most significant base-m digit. Ties survive the cut (<=), so every optimum
    reaches a leaf and the least code wins whatever the arrival order.
    """
    n, m = len(instance.tasks), len(instance.vms)
    if m**n > ENUMERATION_LIMIT:
        raise ValueError(f"instance too large to enumerate: {m}^{n} > {ENUMERATION_LIMIT}")
    place = m ** np.arange(n - 1, -1, -1)  # digit weights; task 0 is the most significant
    weight = place[instance.arrival]  # digit weight of the k-th arriving task
    dur = instance.lengths[instance.arrival, None] / instance.speeds  # the kernel's quotients, by arrival
    start = np.array(ljf(instance).vm_of)
    incumbent = (float(instance.loads(start).max()), int(start @ place))  # a leaf, summed as the tree sums it

    def grow(loads: np.ndarray, codes: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
        """The next level within the incumbent: column j*c + i, if kept, is column i with arrival k on VM j."""
        grown = np.concatenate([loads] * m, axis=1)
        grown.reshape(m * m, -1)[:: m + 1] += dur[k][:, None]  # row v of every block j == v
        keep = np.maximum.reduce(grown, axis=0) <= incumbent[0]  # compress, unlike [:, keep], stays C-ordered
        return grown.compress(keep, axis=1), (codes + (np.arange(m) * weight[k])[:, None]).ravel()[keep]

    def descend(loads: np.ndarray, codes: np.ndarray, k: int) -> None:
        """Grow the columns of loads (arrivals 0..k-1 placed) while a level fits a chunk; split or score."""
        nonlocal incumbent
        while k < n and (len(codes) == 1 or loads.size * m <= _CHUNK_CELLS):
            loads, codes, k = *grow(loads, codes, k), k + 1
        if k < n:
            width = max(1, _CHUNK_CELLS // m ** (n - k + 1))  # columns whose unpruned subtrees fill a chunk
            for a in range(0, len(codes), width):
                descend(loads[:, a : a + width], codes[a : a + width], k)
        elif codes.size:
            ms = np.maximum.reduce(loads, axis=0)
            incumbent = min(incumbent, (float(ms.min()), int(codes[ms == ms.min()].min())))

    descend(np.zeros((m, 1)), np.zeros(1, dtype=np.int64), 0)
    vm_of = Assignment(tuple((incumbent[1] // place % m).tolist()))
    return vm_of, makespan(instance, vm_of).makespan_s  # the canonical model evaluation of the winner


def lower_bound(instance: ProblemInstance) -> float:
    """max(total work / total capacity, longest task / fastest VM), in seconds."""
    lengths, speeds = instance.lengths.tolist(), instance.speeds.tolist()
    work, capacity = sum(lengths), sum(speeds)
    if math.isinf(work) or math.isinf(capacity):
        # Sum both at scale 2^-e < 1/count instead: no normal term rounds, and the quotient is the same.
        e = max(len(lengths), len(speeds)).bit_length()
        work, capacity = (sum(math.ldexp(x, -e) for x in values) for values in (lengths, speeds))
    return max(work / capacity, max(lengths) / max(speeds))
